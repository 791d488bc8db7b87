//! Replays of each layer's public functions on pass-sized data, timed
//! from outside. These are the host-time per-layer numbers of a traced
//! run; none of them feeds an end-to-end metric.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use gpmr::apps::sio::{self, SioJob};
use gpmr::core::helpers::{combine_pairs, split_buckets};
use gpmr::core::{
    run_job_instrumented, run_job_journaled, EngineTuning, Journal, JournalRecord, KvSet,
    WorkQueues,
};
use gpmr::primitives::{bits_for_radix, exclusive_scan, extract_segments, sort_pairs_with_bits};
use gpmr::sim_gpu::{run_indexed, Gpu, GpuSpec, LaunchConfig, SimTime};
use gpmr::sim_net::Cluster;
use gpmr::telemetry::{Telemetry, TimeSeriesStore};

use crate::trace::{Metrics, Tracer};
use crate::workloads::{Observed, SplitMix64};

/// Largest single array a replay touches: bounds a traced run's time and
/// memory on workloads with few, huge reducers.
const MAX_REPLAY_ELEMS: usize = 4 << 20;

/// Seconds `f` takes per call, over `reps` calls.
fn per_call_s(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..reps {
        f(i);
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Deterministic keys uniform in `[0, space)`.
fn keys(n: usize, space: u64) -> Vec<u32> {
    let mut rng = SplitMix64(n as u64);
    (0..n).map(|_| rng.below(space.max(1)) as u32).collect()
}

pub fn replay(seen: &Observed, scratch: &Path, tr: &mut Tracer, m: &mut Metrics) {
    tr.span("layers.sim_gpu", |_| sim_gpu(m));
    tr.span("layers.sim_net", |_| sim_net(m));
    tr.span("layers.primitives", |_| primitives(seen, m));
    tr.span("layers.core", |_| core(seen, scratch, m));
    tr.span("layers.telemetry", |_| telemetry(seen, m));
}

fn sim_gpu(m: &mut Metrics) {
    let mut gpu = Gpu::new(GpuSpec::gt200());
    let cfg = LaunchConfig::grid(64, 256);
    let launch_s = per_call_s(2000, |_| {
        black_box(
            gpu.launch(SimTime::ZERO, &cfg, |ctx| {
                let items = ctx.item_range(64 * 256).len();
                ctx.charge_read::<u32>(items);
                items
            })
            .expect("a 64-block launch is valid"),
        );
    });
    m.put("sim_gpu.device.launch_us", launch_s * 1e6, "us");
    let pool_s = per_call_s(2000, |_| {
        black_box(run_indexed(2, |i| i));
    });
    m.put("sim_gpu.pool.launch_us", pool_s * 1e6, "us");
}

fn sim_net(m: &mut Metrics) {
    let build_s = per_call_s(200, |_| {
        black_box(Cluster::accelerator(64, GpuSpec::gt200()));
    });
    m.put("sim_net.cluster.build_us", build_s * 1e6, "us");
    let mut cluster = Cluster::accelerator(64, GpuSpec::gt200());
    let send_s = per_call_s(20_000, |i| {
        let (from, to) = ((i % 64) as u32, ((i * 7 + 1) % 64) as u32);
        black_box(cluster.fabric().send(from, to, SimTime::ZERO, 64 * 1024));
    });
    m.put("sim_net.fabric.send_us", send_s * 1e6, "us");
}

fn primitives(seen: &Observed, m: &mut Metrics) {
    let mut gpu = Gpu::new(GpuSpec::gt200());
    let bits = bits_for_radix(seen.key_space.saturating_sub(1));
    let largest = seen.sort_sizes.iter().copied().max().unwrap_or(0);
    let pool = keys(largest.max(1), seen.key_space);
    let vals = vec![1u32; pool.len()];

    // The radix sort at every reducer's real input size.
    let mut sort_s = 0.0;
    let mut sorted = 0usize;
    let mut last = Vec::new();
    for &n in &seen.sort_sizes {
        let t = Instant::now();
        let (k, v, _) = sort_pairs_with_bits(&mut gpu, SimTime::ZERO, &pool[..n], &vals[..n], bits)
            .expect("the replay sort fits the device");
        sort_s += t.elapsed().as_secs_f64();
        sorted += n;
        black_box(v);
        last = k;
    }
    m.put("primitives.radix.sort_pairs_s", sort_s, "s");
    m.put(
        "primitives.radix.sort_pairs_melem_s",
        sorted as f64 / sort_s.max(1e-9) / 1e6,
        "Melem/s",
    );

    let n = largest.clamp(1 << 16, MAX_REPLAY_ELEMS);
    let ones = vec![1u32; n];
    let reps = (MAX_REPLAY_ELEMS / n).max(1);
    let scan_s = per_call_s(reps, |_| {
        black_box(exclusive_scan(&mut gpu, SimTime::ZERO, &ones).expect("scan"));
    });
    m.put(
        "primitives.scan.exclusive_scan_melem_s",
        n as f64 / scan_s / 1e6,
        "Melem/s",
    );

    if last.len() < (1 << 16) {
        last = keys(1 << 16, seen.key_space);
        last.sort_unstable();
    }
    let reps = (MAX_REPLAY_ELEMS / last.len()).max(1);
    let seg_s = per_call_s(reps, |_| {
        black_box(extract_segments(&mut gpu, SimTime::ZERO, &last).expect("segments"));
    });
    m.put(
        "primitives.segments.extract_melem_s",
        last.len() as f64 / seg_s / 1e6,
        "Melem/s",
    );
}

fn core(seen: &Observed, scratch: &Path, m: &mut Metrics) {
    // split_buckets: the pass's shuffled pairs, in as many calls as the
    // pass has chunks that can carry them.
    let ranks = seen.ranks.max(1);
    let pairs = seen.counts.pairs_shuffled as usize;
    let calls = (seen.counts.chunks_dispatched as usize).clamp(1, pairs.max(1));
    let per_call = (pairs / calls).max(1);
    let pool = keys(per_call, seen.key_space);
    let mut split_s = 0.0;
    for _ in 0..calls {
        let set = KvSet::from_parts(pool.clone(), vec![1u32; per_call]);
        let t = Instant::now();
        black_box(split_buckets(set, ranks, |k| k % ranks));
        split_s += t.elapsed().as_secs_f64();
    }
    m.put("core.helpers.split_buckets_s", split_s, "s");
    m.put(
        "core.helpers.split_buckets_melem_s",
        (calls * per_call) as f64 / split_s / 1e6,
        "Melem/s",
    );

    let mut gpu = Gpu::new(GpuSpec::gt200());
    let n = per_call.clamp(1 << 16, 1 << 20);
    let pool = keys(n, seen.key_space);
    let reps = ((1 << 21) / n).max(1);
    let mut combine_s = 0.0;
    for _ in 0..reps {
        let set = KvSet::from_parts(pool.clone(), vec![1u32; n]);
        let t = Instant::now();
        black_box(combine_pairs(&mut gpu, SimTime::ZERO, set, |a, b| a + b).expect("combine"));
        combine_s += t.elapsed().as_secs_f64();
    }
    m.put(
        "core.helpers.combine_pairs_melem_s",
        (reps * n) as f64 / combine_s / 1e6,
        "Melem/s",
    );

    // Scheduler: 64 ranks × 4096 chunks; every rank pops its own queue
    // and steals once per sixteen pops.
    let t = Instant::now();
    let mut queues = WorkQueues::distribute((0..64u32 * 4096).collect(), 64);
    let mut ops = 1u64;
    let mut turn = 0u32;
    while queues.total_remaining() > 0 {
        for rank in 0..64 {
            turn += 1;
            if turn.is_multiple_of(16) {
                if let Some(victim) = queues.steal_victim(rank) {
                    black_box(queues.steal_from(victim));
                    ops += 2;
                    continue;
                }
            }
            black_box(queues.pop_local(rank));
            ops += 1;
        }
        ops += 1;
    }
    m.put(
        "core.scheduler.ops_per_s",
        ops as f64 / t.elapsed().as_secs_f64(),
        "1/s",
    );

    // Journal: raw record cost, then what journaling adds to a pass of
    // the service's typical job (SIO, 40 k integers, 4 GPUs).
    let path = scratch.join("replay.jnl");
    let mut journal = Journal::create(&path, 16).expect("create the replay journal");
    let record_s = per_call_s(20_000, |i| {
        journal
            .record(&JournalRecord::ChunkDispatch {
                chunk_id: i as u64,
                rank: (i % 4) as u32,
            })
            .expect("append a journal record");
    });
    drop(journal);
    m.put("core.journal.record_us", record_s * 1e6, "us");

    let data = sio::generate_integers(40_000, 11);
    let tuning = EngineTuning::default();
    let tel = Telemetry::disabled();
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let (mut plain_s, mut journaled_s, mut bytes) = (0.0, 0.0, 0);
    for _ in 0..50 {
        let chunks = sio::sio_chunks(&data, 16 * 1024);
        let t = Instant::now();
        black_box(run_job_instrumented(
            &mut cluster,
            &SioJob::default(),
            chunks,
            &tuning,
            &tel,
        ))
        .expect("plain replay job");
        plain_s += t.elapsed().as_secs_f64();

        let chunks = sio::sio_chunks(&data, 16 * 1024);
        let t = Instant::now();
        let mut journal = Journal::create(&path, 1).expect("create the replay journal");
        black_box(run_job_journaled(
            &mut cluster,
            &SioJob::default(),
            chunks,
            &tuning,
            &tel,
            &mut journal,
        ))
        .expect("journaled replay job");
        drop(journal);
        journaled_s += t.elapsed().as_secs_f64();
        bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
    }
    let _ = std::fs::remove_file(&path);
    m.put(
        "core.journal.pass_overhead_share",
        (journaled_s - plain_s) / plain_s,
        "ratio",
    );
    m.put("core.journal.bytes", bytes as f64, "B");
}

fn telemetry(seen: &Observed, m: &mut Metrics) {
    let tel = Telemetry::enabled();
    let span_s = per_call_s(50_000, |i| {
        let t = i as f64 * 1e-6;
        tel.span(0, "Map", t, t + 1e-6).attr("chunk", "0").record();
    });
    m.put("telemetry.span.record_ns", span_s * 1e9, "ns");

    let registry = seen
        .registry
        .as_ref()
        .expect("the traced pass kept a registry snapshot");
    let mut store = TimeSeriesStore::new(1.0, 20);
    let collect_s = per_call_s(2000, |i| store.collect(i as f64 * 1e-3, registry));
    m.put("telemetry.timeseries.collect_us", collect_s * 1e6, "us");
}
