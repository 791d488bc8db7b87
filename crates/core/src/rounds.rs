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
//! * **Cluster-resident iteration** — the original input stays resident
//!   for re-iteration ([`RoundDecision::Again`]). When a conservative fit
//!   check holds and the previous round saw no steals, kills, or joins,
//!   the next round's run is marked inputs-resident and skips
//!   every stationary chunk upload; only the control scalar (centers, a
//!   convergence flag) crosses to the host and back. A round's outputs
//!   may instead become the next round's input chunks
//!   ([`RoundDecision::Chain`]); those are new chunks, so a chained round
//!   pays its uploads.
//! * **Honest cross-round time** — each engine pass restarts simulated
//!   time at zero; the driver accumulates `makespan + control-broadcast
//!   tail` per round into one cross-round clock, recorded as per-round
//!   `Round` telemetry spans. Each pass records through a handle
//!   [placed](Telemetry::placed) at its round's start, so its engine,
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

use crate::chunk::Chunk;
use crate::engine::{EngineTuning, Run, RunOpts};
use crate::error::EngineResult;
use crate::job::GpmrJob;
use crate::journal::{hash_pairs, Fnv64, Journal, JournalRecord};
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
    /// [`RoundJob::rechunk`] (pipelined rounds: MM's products feed its
    /// summing pass). A chained round always pays its uploads.
    Chain,
}

/// [`RoundJob::absorb`]'s verdict: the control decision plus the size of
/// the control state the host must broadcast to every rank before the
/// next round (updated centers — zero when nothing crosses).
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
/// evolves across rounds (centers, thresholds) and surfaces it
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
    /// [`RoundDecision::Done`] (Lloyd's iterations cap, MM's fixed two
    /// phases).
    fn max_rounds(&self) -> u32;

    /// Build round `round`'s job from the current control state.
    fn job(&self, round: u32) -> Self::Job;

    /// Hash of the current control state, journaled in
    /// [`JournalRecord::RoundStart`] before each round. A resumed run
    /// whose control trajectory differs (changed centers) diverges here,
    /// at the round boundary. Default: 0 (stateless drivers).
    fn control_hash(&self) -> u64 {
        0
    }

    /// Fold round `round`'s per-rank outputs into the control state and
    /// decide what happens next. Runs on the host; only
    /// [`RoundStep::control_bytes`] of the resulting state is charged as
    /// a broadcast back to the ranks.
    fn absorb(&mut self, round: u32, outputs: &[RoundOutputs<Self::Job>]) -> RoundStep;

    /// Turn round `round`'s outputs into the next round's input chunks
    /// (consumed). Required when [`RoundJob::absorb`] returns
    /// [`RoundDecision::Chain`]. Implementations must respect the engine's
    /// [`ChunkTooLarge`](crate::error::EngineError::ChunkTooLarge)
    /// admission bound (split with [`max_resident_chunk_bytes`]).
    fn rechunk(
        &self,
        _round: u32,
        _outputs: Vec<RoundOutputs<Self::Job>>,
    ) -> Vec<<Self::Job as GpmrJob>::Chunk> {
        unimplemented!("RoundJob::absorb returned Chain but rechunk is not implemented")
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
        let mut opts = RunOpts {
            tuning: *tuning,
            tel: tel.placed(round_start.as_secs(), 0, ""),
            journal: journal.as_deref_mut(),
        };
        let input = if round + 1 >= max_rounds {
            std::mem::take(&mut chunks)
        } else {
            chunks.clone()
        };
        // `run_job_with`, with the round's residency set on its run.
        let mut run = Run::new(cluster, &job, input, &mut opts)?;
        run.inputs_resident = resident;
        let result = run.finish(cluster, &job, opts.journal)?;
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
                total_time: clock,
                per_round,
            });
        }

        // Residency for the next round: only an `Again` round, which
        // re-runs the unchanged chunks on the devices that already hold
        // them, skips its uploads, and only when the dataset conservatively
        // fits on one device alongside the working set (2x bound: pairs
        // plus sort/scratch room) AND the finished round moved nothing
        // between ranks — a steal, requeue, loss, or join displaces data
        // from its home device, so the honest fallback is a full
        // re-upload. A chained round's chunks are new: it pays its uploads.
        let again = step.decision == RoundDecision::Again;
        if !again {
            // The spent input goes before the next one is built.
            chunks.clear();
            chunks = driver.rechunk(round - 1, result.outputs);
        }
        let total_bytes: u64 = chunks.iter().map(Chunk::size_bytes).sum();
        let capacity = cluster.gpu(0).mem.capacity();
        resident = quiet && again && total_bytes.saturating_mul(2) <= capacity;
    }
}
