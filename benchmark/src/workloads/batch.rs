//! The three batch workloads: one or more paper applications, each run
//! to completion on a fresh cluster, back to back in one pass, with the
//! repo's telemetry off.

use std::time::Instant;

use gpmr::sim_gpu::GpuSpec;
use gpmr::sim_net::Cluster;
use gpmr::telemetry::Telemetry;

use super::apps::{chunk_bytes, App, EngineCounts, Kmc, Lr, Mm, Sio, Wo};
use super::{Observed, PassOutcome, Workload, APP_SPANS};
use crate::trace::{Metrics, Tracer};

/// Smoke mode runs every workload at 1/16 of its size.
const SMOKE_DIVISOR: usize = 16;
/// Hardware scale divisor of the 64-rank cluster: the 4 M-integer SIO and
/// 16 M-sample LR inputs stand for the paper's largest (128 M, 512 M).
const PAPER_SCALE: u64 = 32;
const MILLION: usize = 1_000_000;
/// Span ring of an instrumented run. `Telemetry::enabled()` keeps 65 536
/// spans, which a 64-rank application overflows; a truncated recording
/// would no longer tile the makespan.
const SPAN_CAPACITY: usize = 1 << 20;

pub struct Batch {
    apps: Vec<Box<dyn App>>,
    ranks: u32,
    scale: u64,
    key_space: u64,
}

fn sized(n: usize, smoke: bool) -> usize {
    if smoke {
        n / SMOKE_DIVISOR
    } else {
        n
    }
}

impl Batch {
    /// SIO, 16 M uniform keys on 8 ranks in 48 chunks of 4/3 MB, every
    /// pair shuffled and radix-sorted.
    ///
    /// The sizes keep clear of two coin flips that powers of two set up
    /// (the repo's sizing rule would give 64 chunks of 1 MB). A reducer's
    /// inbound buffer grows by doubling from its first bucket, so with 64
    /// chunks it ends at exactly the expected total, and whether a seed's
    /// total lands a few hundred pairs above or below decides if it
    /// doubles once more. And 1 MiB chunks make every bucket 128 KiB, the
    /// allocator's mmap threshold, give or take those few hundred pairs.
    /// Either way peak memory moved by tens of MiB from seed to seed.
    /// With 48 chunks the buffer ends a quarter below the doubling and
    /// the buckets a quarter above the threshold, on every seed.
    pub fn sio_sort_8rank(seed: u64, smoke: bool, tr: &mut Tracer) -> Self {
        let n = sized(16 * MILLION, smoke);
        let chunk = sized(4 * 333_334, smoke);
        Batch {
            apps: vec![Box::new(Sio::prepare(n, 8, chunk, seed, tr))],
            ranks: 8,
            scale: 1,
            key_space: n as u64,
        }
    }

    /// WO in Accumulate mode, 64 MiB of text on 8 ranks: the map kernels
    /// do the work and only the per-rank dictionaries are shuffled.
    pub fn wo_map_8rank(seed: u64, smoke: bool, tr: &mut Tracer) -> Self {
        Batch {
            apps: vec![Box::new(Wo::prepare(
                sized(64 << 20, smoke),
                8,
                1,
                seed,
                tr,
            ))],
            ranks: 8,
            scale: 1,
            key_space: gpmr::apps::text::PAPER_DICTIONARY_WORDS as u64,
        }
    }

    /// All five paper applications on 64 ranks.
    pub fn paper5_64rank(seed: u64, smoke: bool, tr: &mut Tracer) -> Self {
        let (r, s) = (64, PAPER_SCALE);
        let sio_n = sized(4 * MILLION, smoke);
        // The matrix order shrinks with the square root of the divisor.
        let order = if smoke { 128 } else { 512 };
        Batch {
            apps: vec![
                Box::new(Sio::prepare(
                    sio_n,
                    r,
                    chunk_bytes(4 * sio_n as u64, r, s),
                    seed,
                    tr,
                )),
                Box::new(Wo::prepare(sized(32 << 20, smoke), r, s, seed + 1, tr)),
                Box::new(Kmc::prepare(sized(4 * MILLION, smoke), r, s, seed + 2, tr)),
                Box::new(Lr::prepare(sized(16 * MILLION, smoke), r, s, seed + 4, tr)),
                Box::new(Mm::prepare(order, seed + 5, tr)),
            ],
            ranks: r,
            scale: s,
            key_space: sio_n as u64,
        }
    }

    fn run(&self, instrument: bool, tr: &mut Tracer) -> (PassOutcome, Observed) {
        let mut seen = Observed {
            ranks: self.ranks,
            key_space: self.key_space,
            ..Observed::default()
        };
        let mut out = PassOutcome {
            sim_makespan_s: 0.0,
            job_latencies_s: Vec::new(),
            attempted: 0,
            ok: 0,
            failed: 0,
            counts: Vec::new(),
        };
        let mut counts = EngineCounts::default();
        for app in &self.apps {
            let mut cluster = tr.span("sim_net.cluster.build", |_| {
                Cluster::accelerator_scaled(self.ranks, GpuSpec::gt200(), self.scale as f64)
            });
            let tel = if instrument {
                Telemetry::with_capacity(SPAN_CAPACITY)
            } else {
                Telemetry::disabled()
            };
            let run = app.run(&mut cluster, &tel, tr);
            if instrument {
                tr.span("telemetry.absorb", |_| {
                    seen.absorb(&tel.snapshot(), self.ranks, 1);
                });
            }
            seen.input_items += app.input_items();
            out.sim_makespan_s += run.sim_s;
            out.job_latencies_s.push(run.sim_s);
            out.attempted += 1;
            out.ok += u64::from(run.ok);
            out.failed += u64::from(!run.ok);
            counts.add(&run.counts);
        }
        out.counts = vec![
            ("chunks_dispatched", counts.chunks_dispatched),
            ("chunks_stolen", counts.chunks_stolen),
            ("chunks_requeued", counts.chunks_requeued),
            ("pairs_emitted", counts.pairs_emitted),
            ("pairs_shuffled", counts.pairs_shuffled),
            ("transfer_retries", counts.transfer_retries),
        ];
        seen.counts = counts;
        (out, seen)
    }
}

impl Workload for Batch {
    fn pass(&self, tr: &mut Tracer) -> PassOutcome {
        self.run(false, tr).0
    }

    fn traced_pass(
        &self,
        pass: u32,
        plain_wall_s: f64,
        tr: &mut Tracer,
        m: &mut Metrics,
    ) -> (PassOutcome, Observed) {
        let began = Instant::now();
        let (out, mut seen) = self.run(true, tr);
        let traced_wall_s = began.elapsed().as_secs_f64();
        seen.engine_s = tr.total_s("core.engine.run_job", pass);
        for name in APP_SPANS {
            m.put(&format!("{name}_s"), tr.total_s(name, pass), "s");
        }
        // The service layer is not part of a batch pass.
        for (name, unit) in super::serve::SERVICE_METRICS {
            m.put(name, 0.0, unit);
        }
        // What an instrumented pass adds over a plain one. Reading the
        // recordings is the harness's work, not the telemetry's.
        let absorb_s = tr.total_s("telemetry.absorb", pass);
        m.put(
            "telemetry.pass_overhead_share",
            (traced_wall_s - absorb_s - plain_wall_s) / plain_wall_s,
            "ratio",
        );
        (out, seen)
    }
}
