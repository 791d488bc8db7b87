//! The multi-round job driver: chain MapReduce passes so round k's reduce
//! output feeds round k+1's map **without leaving the cluster**.
//!
//! The Goodrich line of work (sorting/searching/simulation in the
//! MapReduce framework) treats a MapReduce algorithm as a *sequence of
//! rounds*; this engine historically ran exactly one. [`run_rounds`]
//! drives a [`RoundJob`] through up to `max_rounds` passes of the
//! single-round engine, with three properties the hand-rolled host loops
//! (the old k-means example) did not have:
//!
//! * **Cluster-resident chaining** — per-rank outputs stay on the device
//!   that produced them and become the next round's input chunks
//!   ([`RoundDecision::Chain`]), or the original input stays resident for
//!   re-iteration ([`RoundDecision::Again`]). When a conservative fit
//!   check holds and the previous round saw no steals, kills, or joins,
//!   the next round runs under [`RunOpts::inputs_resident`] and skips
//!   every stationary chunk upload; only the control scalar (centers,
//!   splitters, a convergence flag) crosses to the host and back.
//! * **Honest cross-round time** — each engine pass restarts simulated
//!   time at zero; the driver accumulates `makespan + control-broadcast
//!   tail` per round into one cross-round clock, recorded as per-round
//!   `Round` telemetry spans. Each pass records through a handle
//!   [shifted](Telemetry::shifted) to its round's start, so its engine,
//!   device and fabric spans sit inside its `Round` span on that clock.
//! * **Round-granular recovery** — given a [`Journal`], every round is
//!   bracketed by [`JournalRecord::RoundStart`] (hashing the
//!   driver's control state) and [`JournalRecord::RoundEnd`] (hashing the
//!   round's outputs and the exact clock bits), on top of the engine's
//!   own per-round records. An interrupted multi-round run resumed with
//!   [`Journal::resume`] replays completed rounds verbatim and finishes
//!   bit-identically.

use gpmr_sim_gpu::{SimDuration, SimTime};
use gpmr_sim_net::Cluster;
use gpmr_telemetry::{SpanKind, Telemetry};

use crate::chunk::{Chunk, PairChunk};
use crate::engine::{run_job_with, EngineTuning, RunOpts};
use crate::error::EngineResult;
use crate::job::GpmrJob;
use crate::journal::{hash_pairs, Fnv64, Journal, JournalRecord};
use crate::pod::Pod;
use crate::stats::JobTimings;
use crate::types::KvSet;

/// The per-rank output set a [`RoundJob`]'s round produces — what the
/// driver hands to [`RoundJob::absorb`] and [`RoundJob::rechunk`].
pub type RoundOutputs<J> = KvSet<<J as GpmrJob>::Key, <J as GpmrJob>::Value>;

/// What a rounds drive over job type `J` returns: [`RoundsResult`]
/// projected onto `J`'s key/value types.
pub type DriveResult<J> = RoundsResult<<J as GpmrJob>::Key, <J as GpmrJob>::Value>;

/// What the driver should do after a round, decided by
/// [`RoundJob::absorb`] from the round's outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundDecision {
    /// Converged (or otherwise finished): stop, the round's outputs are
    /// the job's outputs.
    Done,
    /// Run another round over the *same* input chunks (iterative
    /// refinement: k-means re-maps the dataset under updated centers).
    Again,
    /// Run another round over the round's *outputs*, re-chunked by
    /// [`RoundJob::rechunk`] (pipelined rounds: sample-sort's sampling
    /// pass feeds its partitioned sort pass).
    Chain,
}

/// [`RoundJob::absorb`]'s verdict: the control decision plus the size of
/// the control state the host must broadcast to every rank before the
/// next round (updated centers, derived splitters — zero when nothing
/// crosses).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundStep {
    /// Continue, repeat, or chain.
    pub decision: RoundDecision,
    /// Bytes of control state broadcast from the host (via rank 0) after
    /// this round. The broadcast tail is charged to the cross-round
    /// clock; `0` skips it.
    pub control_bytes: u64,
}

impl RoundStep {
    /// Finished, nothing further crosses the wire.
    pub fn done() -> Self {
        RoundStep {
            decision: RoundDecision::Done,
            control_bytes: 0,
        }
    }

    /// Another pass over the same chunks, broadcasting `control_bytes` of
    /// updated control state first.
    pub fn again(control_bytes: u64) -> Self {
        RoundStep {
            decision: RoundDecision::Again,
            control_bytes,
        }
    }

    /// Chain the outputs into the next round's input, broadcasting
    /// `control_bytes` of control state first.
    pub fn chain(control_bytes: u64) -> Self {
        RoundStep {
            decision: RoundDecision::Chain,
            control_bytes,
        }
    }
}

/// A multi-round GPMR application: a factory of per-round [`GpmrJob`]s
/// plus the host-side control logic between rounds.
///
/// The driver owns the loop; the implementation owns the state that
/// evolves across rounds (centers, splitters, thresholds) and surfaces it
/// through three hooks: [`RoundJob::job`] builds the round's job from the
/// current state, [`RoundJob::absorb`] folds a round's outputs back into
/// the state and decides what happens next, and [`RoundJob::rechunk`]
/// (only for [`RoundDecision::Chain`]) turns outputs into next-round
/// chunks.
pub trait RoundJob {
    /// The per-round job type. One type for every round — rounds vary by
    /// *configuration* (pipeline shape, partition mode, control state),
    /// not by key/value/chunk types.
    type Job: GpmrJob;

    /// Hard cap on rounds; the driver stops here even without
    /// [`RoundDecision::Done`] (Lloyd's iterations cap, a fixed
    /// two-round sample-sort).
    fn max_rounds(&self) -> u32;

    /// Build round `round`'s job from the current control state.
    fn job(&self, round: u32) -> Self::Job;

    /// Hash of the current control state, journaled in
    /// [`JournalRecord::RoundStart`] before each round. A resumed run
    /// whose control trajectory differs (changed centers, changed
    /// splitters) diverges here, at the round boundary. Default: 0
    /// (stateless drivers).
    fn control_hash(&self) -> u64 {
        0
    }

    /// Fold round `round`'s per-rank outputs into the control state and
    /// decide what happens next. Runs on the host; only
    /// [`RoundStep::control_bytes`] of the resulting state is charged as
    /// a broadcast back to the ranks.
    fn absorb(&mut self, round: u32, outputs: &[RoundOutputs<Self::Job>]) -> RoundStep;

    /// Turn round `round`'s outputs into the next round's input chunks
    /// (consumed — the data does not move, it is re-labelled). Required
    /// when [`RoundJob::absorb`] returns [`RoundDecision::Chain`].
    ///
    /// Contract: preserve rank affinity — chunk `i` is dispatched to
    /// reducer `i % reducers`, so emitting outputs interleaved by source
    /// rank (see [`rechunk_interleaved`]) keeps every stationary chunk on
    /// the device that produced it, which is what lets the next round run
    /// resident. Implementations must also respect the engine's
    /// [`ChunkTooLarge`](crate::error::EngineError::ChunkTooLarge)
    /// admission bound (split with [`max_resident_chunk_bytes`]).
    fn rechunk(
        &self,
        _round: u32,
        _outputs: Vec<RoundOutputs<Self::Job>>,
    ) -> Vec<<Self::Job as GpmrJob>::Chunk> {
        unimplemented!("RoundJob::absorb returned Chain but rechunk is not implemented")
    }

    /// Whether [`RoundJob::rechunk`] preserves rank affinity (chunk `i`
    /// holds only data that rank `i % ranks` already has, as
    /// [`rechunk_interleaved`] arranges). Only then may a chained round
    /// run device-resident; the default is `false` — a rechunk that
    /// concentrates or reshuffles data across ranks must pay its uploads.
    fn rechunk_preserves_affinity(&self) -> bool {
        false
    }
}

/// Per-round accounting from a [`run_rounds`] drive.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundStats {
    /// The round's engine timings; `timings.total` is its makespan (its
    /// own clock starts at zero).
    pub timings: JobTimings,
    /// Tail charged for broadcasting the control state after the round.
    pub broadcast: SimDuration,
    /// Whether the round ran with its inputs device-resident (uploads
    /// skipped for stationary chunks).
    pub resident: bool,
}

/// The outcome of a multi-round drive.
#[derive(Debug)]
pub struct RoundsResult<K, V> {
    /// The final round's per-rank outputs.
    pub outputs: Vec<KvSet<K, V>>,
    /// Rounds executed.
    pub rounds: u32,
    /// Whether the driver said [`RoundDecision::Done`] (as opposed to
    /// hitting [`RoundJob::max_rounds`]).
    pub converged: bool,
    /// Honest cross-round simulated time: every round's makespan plus
    /// every control-broadcast tail, accumulated.
    pub total_time: SimDuration,
    /// Per-round breakdown.
    pub per_round: Vec<RoundStats>,
}

/// The largest chunk the engine will admit under `tuning` on `cluster`
/// (the [`ChunkTooLarge`](crate::error::EngineError::ChunkTooLarge)
/// formula, inverted). [`RoundJob::rechunk`] implementations split their
/// outputs to stay under this.
pub fn max_resident_chunk_bytes(cluster: &mut Cluster, tuning: &EngineTuning) -> u64 {
    cluster.gpu(0).mem.capacity() / tuning.staging_slots().max(1)
}

/// Split per-rank outputs into [`PairChunk`]s interleaved by source rank:
/// chunk `i` holds pairs produced by rank `i % ranks`, so the engine's
/// round-robin distribution sends every chunk back to the device already
/// holding its data. Oversized outputs split into multiple slices, each
/// at most `max_bytes` (clamped to one pair).
pub fn rechunk_interleaved<K: Pod + PartialEq, V: Pod>(
    outputs: Vec<KvSet<K, V>>,
    max_bytes: u64,
) -> Vec<PairChunk<K, V>> {
    let pair_bytes = (K::SIZE + V::SIZE) as u64;
    let max_pairs = (max_bytes / pair_bytes.max(1)).max(1) as usize;
    let mut per_rank: Vec<Vec<PairChunk<K, V>>> = outputs
        .iter()
        .map(|o| PairChunk::split(o, max_pairs, 0))
        .collect();
    let ranks = per_rank.len();
    let total: usize = per_rank.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut layer = 0usize;
    while out.len() < total {
        for rank_chunks in per_rank.iter_mut() {
            if layer < rank_chunks.len() {
                let mut c =
                    std::mem::replace(&mut rank_chunks[layer], PairChunk::new(0, KvSet::new()));
                c.id = out.len() as u32;
                out.push(c);
            } else {
                // Keep the interleave aligned: a rank with nothing left
                // this layer contributes an empty chunk so chunk i still
                // lands on rank i % ranks.
                out.push(PairChunk::new(out.len() as u32, KvSet::new()));
            }
        }
        layer += 1;
    }
    debug_assert!(out.len() % ranks.max(1) == 0 || ranks == 0);
    out
}

/// Drive `driver` through its rounds on `cluster`. The initial `chunks`
/// are round 0's input; [`RoundDecision::Again`] rounds re-dispatch them
/// (hence `Chunk: Clone`; the last round [`RoundJob::max_rounds`] allows
/// cannot be re-run and takes them without a copy),
/// [`RoundDecision::Chain`] rounds replace them via [`RoundJob::rechunk`].
///
/// With a write-ahead `journal`, round boundaries are journaled as
/// [`JournalRecord::RoundStart`]/[`JournalRecord::RoundEnd`] around the
/// engine's own records, so `--journal F --resume` recovers an
/// interrupted multi-round job at round granularity and finishes
/// bit-identically (outputs, per-round stats, and the cross-round clock).
pub fn run_rounds<D: RoundJob>(
    cluster: &mut Cluster,
    driver: &mut D,
    mut chunks: Vec<<D::Job as GpmrJob>::Chunk>,
    tuning: &EngineTuning,
    tel: &Telemetry,
    mut journal: Option<&mut Journal>,
) -> EngineResult<DriveResult<D::Job>>
where
    <D::Job as GpmrJob>::Chunk: Clone,
{
    let max_rounds = driver.max_rounds().max(1);
    let mut clock = SimDuration::ZERO;
    let mut per_round: Vec<RoundStats> = Vec::new();
    let mut resident = false;
    let mut round = 0u32;
    loop {
        if let Some(j) = journal.as_deref_mut() {
            j.record(&JournalRecord::RoundStart {
                round,
                control_hash: driver.control_hash(),
            })?;
        }
        let job = driver.job(round);
        let n_chunks = chunks.len();
        let round_start = clock;
        let opts = RunOpts {
            tuning: *tuning,
            tel: tel.shifted(round_start.as_secs()),
            journal: journal.as_deref_mut(),
            inputs_resident: resident,
        };
        let input = if round + 1 >= max_rounds {
            std::mem::take(&mut chunks)
        } else {
            chunks.clone()
        };
        let result = run_job_with(cluster, &job, input, opts)?;
        let makespan = result.timings.total;
        let quiet = result.timings.chunks_stolen == 0
            && result.timings.chunks_requeued == 0
            && result.timings.gpus_lost == 0
            && result.timings.gpus_added == 0;

        let step = driver.absorb(round, &result.outputs);

        // Control-state broadcast: the host (via rank 0) pushes the
        // updated control scalar to every rank before the next round.
        // Charged on the round's own clock, folded into the cross-round
        // total as the tail past the makespan.
        let mut tail = SimDuration::ZERO;
        if step.control_bytes > 0 {
            let end = SimTime::ZERO + makespan;
            let latest = gpmr_sim_net::broadcast(cluster.fabric(), 0, end, step.control_bytes)
                .into_iter()
                .fold(end, |a, b| if b > a { b } else { a });
            tail = latest.since(end);
        }
        clock += makespan + tail;
        per_round.push(RoundStats {
            timings: result.timings,
            broadcast: tail,
            resident,
        });
        if tel.is_enabled() {
            tel.span(
                0,
                SpanKind::Round.name(),
                round_start.as_secs(),
                clock.as_secs(),
            )
            .name(format!("round {round}"))
            .attr("round", round.to_string())
            .attr("resident", resident.to_string())
            .attr("chunks", n_chunks.to_string())
            .record();
        }
        if let Some(j) = journal.as_deref_mut() {
            let mut h = Fnv64::new();
            for o in &result.outputs {
                h.write_u64(hash_pairs(&o.keys, &o.vals));
            }
            j.record(&JournalRecord::RoundEnd {
                round,
                output_hash: h.finish(),
                clock_bits: clock.as_secs().to_bits(),
            })?;
        }

        round += 1;
        let done = step.decision == RoundDecision::Done || round >= max_rounds;
        if done {
            return Ok(RoundsResult {
                outputs: result.outputs,
                rounds: round,
                converged: step.decision == RoundDecision::Done,
                total_time: clock,
                per_round,
            });
        }

        // Residency for the next round: only claimed when the dataset
        // conservatively fits on one device alongside the working set
        // (2x bound: pairs plus sort/scratch room) AND the finished round
        // moved nothing between ranks — a steal, requeue, loss, or join
        // displaces data from its home device, so the honest fallback is
        // a full re-upload.
        let affine = match step.decision {
            RoundDecision::Chain => {
                // The spent input goes before the next one is built.
                chunks.clear();
                chunks = driver.rechunk(round - 1, result.outputs);
                driver.rechunk_preserves_affinity()
            }
            // `Again` re-runs the unchanged chunks: trivially affine.
            _ => true,
        };
        let total_bytes: u64 = chunks.iter().map(Chunk::size_bytes).sum();
        let capacity = cluster.gpu(0).mem.capacity();
        resident = quiet && affine && total_bytes.saturating_mul(2) <= capacity;
    }
}
