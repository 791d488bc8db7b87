//! Seeded, clock-driven fault injection.
//!
//! A [`FaultPlan`] is a deterministic schedule of hardware misbehaviour
//! expressed in *simulated* time: GPU losses (fail-stop), rank stalls
//! (stragglers), and fabric transfer failures or delays. The plan itself
//! is inert data — the engine and the fabric consult it at well-defined
//! detection points, so two runs with the same plan (and the same seed,
//! for generated plans) observe exactly the same faults and produce
//! bit-identical traces. See `DESIGN.md` §"Fault model" for the recovery
//! semantics built on top of this.

use std::fmt;

use gpmr_telemetry::parse_secs;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::{SimDuration, SimTime};

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Fail-stop GPU loss: `rank`'s device becomes unusable at `at`. The
    /// loss is detected the next time the scheduler touches the rank.
    GpuKill {
        /// Victim rank.
        rank: u32,
        /// Simulated instant of the loss.
        at: SimTime,
    },
    /// Straggler injection: `rank`'s process freezes for `duration` at the
    /// first dispatch at or after `at`.
    RankStall {
        /// Victim rank.
        rank: u32,
        /// Simulated instant the stall begins (quantised to the next
        /// chunk dispatch).
        at: SimTime,
        /// How long the rank is frozen.
        duration: SimDuration,
    },
    /// Transfers matching `(from, to)` whose payload is ready inside
    /// `[start, until)` fail their first `fails` attempts.
    TransferFail {
        /// Sender rank; `None` matches any sender.
        from: Option<u32>,
        /// Receiver rank; `None` matches any receiver.
        to: Option<u32>,
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive); `SimTime::from_secs(f64::INFINITY)`
        /// leaves the window open.
        until: SimTime,
        /// Number of attempts that fail before the link heals.
        fails: u32,
    },
    /// Elastic GPU *add*: `rank`'s device does not exist until `at`, then
    /// joins the running job. An added rank takes no part in the initial
    /// chunk distribution or the reducer set (fixed at job start); it
    /// acquires work exclusively through the scheduler's work stealing.
    GpuAdd {
        /// Joining rank (must be below the cluster size).
        rank: u32,
        /// Simulated instant the device becomes available.
        at: SimTime,
    },
    /// Transfers matching `(from, to)` whose payload is ready inside
    /// `[start, until)` are delayed by `extra` before entering the wire.
    TransferDelay {
        /// Sender rank; `None` matches any sender.
        from: Option<u32>,
        /// Receiver rank; `None` matches any receiver.
        to: Option<u32>,
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Added latency per matching transfer.
        extra: SimDuration,
    },
}

impl FaultEvent {
    /// What the event does to the ranks it names, and those ranks: the
    /// victim of a kill, stall or add, or the endpoints of a transfer rule
    /// (a `*` endpoint names none).
    pub fn ranks(&self) -> (&'static str, [Option<u32>; 2]) {
        match *self {
            FaultEvent::GpuKill { rank, .. } => ("kills", [Some(rank), None]),
            FaultEvent::RankStall { rank, .. } => ("stalls", [Some(rank), None]),
            FaultEvent::GpuAdd { rank, .. } => ("adds", [Some(rank), None]),
            FaultEvent::TransferFail { from, to, .. } => ("fails transfers of", [from, to]),
            FaultEvent::TransferDelay { from, to, .. } => ("delays transfers of", [from, to]),
        }
    }
}

/// What the fault plan decrees for one transfer attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TransferOutcome {
    /// The transfer proceeds normally.
    Deliver,
    /// The transfer proceeds after the given extra delay.
    Delay(SimDuration),
    /// The attempt fails; the caller must retry (later) or give up.
    Fail,
}

/// Parse error for [`FaultPlan::parse`], carrying the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlanParseError(
    /// Human-readable description of what failed to parse.
    pub String,
);

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultPlanParseError {}

/// A deterministic schedule of injected faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// All scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Builder: kill `rank` at `at_s` simulated seconds.
    pub fn kill(mut self, rank: u32, at_s: f64) -> Self {
        self.events.push(FaultEvent::GpuKill {
            rank,
            at: SimTime::from_secs(at_s),
        });
        self
    }

    /// Builder: add `rank`'s GPU to the running job at `at_s` simulated
    /// seconds (elastic scale-out; see [`FaultEvent::GpuAdd`]).
    pub fn add(mut self, rank: u32, at_s: f64) -> Self {
        self.events.push(FaultEvent::GpuAdd {
            rank,
            at: SimTime::from_secs(at_s),
        });
        self
    }

    /// Builder: stall `rank` for `duration_s` seconds starting at `at_s`.
    pub fn stall(mut self, rank: u32, at_s: f64, duration_s: f64) -> Self {
        self.events.push(FaultEvent::RankStall {
            rank,
            at: SimTime::from_secs(at_s),
            duration: SimDuration::from_secs(duration_s),
        });
        self
    }

    /// Builder: fail the first `fails` attempts of transfers `from -> to`
    /// ready inside `[start_s, until_s)`. `None` ranks match any.
    pub fn transfer_fail(
        mut self,
        from: Option<u32>,
        to: Option<u32>,
        start_s: f64,
        until_s: f64,
        fails: u32,
    ) -> Self {
        self.events.push(FaultEvent::TransferFail {
            from,
            to,
            start: SimTime::from_secs(start_s),
            until: SimTime::from_secs(until_s),
            fails,
        });
        self
    }

    /// Builder: delay transfers `from -> to` ready inside
    /// `[start_s, until_s)` by `extra_s` seconds.
    pub fn transfer_delay(
        mut self,
        from: Option<u32>,
        to: Option<u32>,
        start_s: f64,
        until_s: f64,
        extra_s: f64,
    ) -> Self {
        self.events.push(FaultEvent::TransferDelay {
            from,
            to,
            start: SimTime::from_secs(start_s),
            until: SimTime::from_secs(until_s),
            extra: SimDuration::from_secs(extra_s),
        });
        self
    }

    /// The earliest kill instant scheduled for `rank`, if any.
    pub fn kill_time(&self, rank: u32) -> Option<SimTime> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::GpuKill { rank: r, at } if *r == rank => Some(*at),
                _ => None,
            })
            .reduce(SimTime::min)
    }

    /// The earliest add instant scheduled for `rank`, if any. A rank with
    /// an add event starts the job dormant and joins at this instant.
    pub fn add_time(&self, rank: u32) -> Option<SimTime> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::GpuAdd { rank: r, at } if *r == rank => Some(*at),
                _ => None,
            })
            .reduce(SimTime::min)
    }

    /// All stalls scheduled for `rank`, sorted by start instant.
    pub fn stalls_for(&self, rank: u32) -> Vec<(SimTime, SimDuration)> {
        let mut stalls: Vec<(SimTime, SimDuration)> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::RankStall {
                    rank: r,
                    at,
                    duration,
                } if *r == rank => Some((*at, *duration)),
                _ => None,
            })
            .collect();
        stalls.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        stalls
    }

    /// What happens to attempt number `attempt` (0-based) of a transfer
    /// `from -> to` whose payload is ready at `ready`. A matching failure
    /// wins over any delay; matching delays are cumulative.
    pub fn transfer_outcome(
        &self,
        from: u32,
        to: u32,
        ready: SimTime,
        attempt: u32,
    ) -> TransferOutcome {
        let matches = |f: &Option<u32>, t: &Option<u32>, start: &SimTime, until: &SimTime| {
            f.is_none_or(|r| r == from)
                && t.is_none_or(|r| r == to)
                && *start <= ready
                && ready < *until
        };
        let mut delay = SimDuration::ZERO;
        let mut delayed = false;
        for e in &self.events {
            match e {
                FaultEvent::TransferFail {
                    from: f,
                    to: t,
                    start,
                    until,
                    fails,
                } if matches(f, t, start, until) && attempt < *fails => {
                    return TransferOutcome::Fail;
                }
                FaultEvent::TransferDelay {
                    from: f,
                    to: t,
                    start,
                    until,
                    extra,
                } if matches(f, t, start, until) => {
                    delay += *extra;
                    delayed = true;
                }
                _ => {}
            }
        }
        if delayed {
            TransferOutcome::Delay(delay)
        } else {
            TransferOutcome::Deliver
        }
    }

    /// Generate a random plan for a cluster of `ranks` GPUs, with every
    /// fault scheduled inside `[0, horizon_s)` simulated seconds. The
    /// plan is a pure function of `seed`: identical seeds yield identical
    /// plans. At most `ranks - 1` GPUs are killed, so a job always has a
    /// survivor to recover onto.
    pub fn generate(seed: u64, ranks: u32, horizon_s: f64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let horizon = horizon_s.max(1e-6);
        let ranks = ranks.max(1);

        // Kills: up to min(2, ranks - 1) distinct victims.
        let max_kills = (ranks.saturating_sub(1)).min(2) as usize;
        let kills = if max_kills == 0 {
            0
        } else {
            rng.gen_range(0..=max_kills)
        };
        let mut victims: Vec<u32> = Vec::new();
        while victims.len() < kills {
            let r = rng.gen_range(0..ranks);
            if !victims.contains(&r) {
                victims.push(r);
            }
        }
        for r in victims {
            let at = rng.gen_range(0.0..horizon);
            plan = plan.kill(r, at);
        }

        // Stragglers.
        for _ in 0..rng.gen_range(0..=2u32) {
            let r = rng.gen_range(0..ranks);
            let at = rng.gen_range(0.0..horizon);
            let dur = rng.gen_range(0.05 * horizon..0.3 * horizon);
            plan = plan.stall(r, at, dur);
        }

        // Transient transfer failures (always finite, so jobs converge).
        for _ in 0..rng.gen_range(0..=2u32) {
            let from = rng.gen_range(0..ranks);
            let to = rng.gen_range(0..ranks);
            let start = rng.gen_range(0.0..horizon);
            let until = start + rng.gen_range(0.1 * horizon..0.5 * horizon);
            let fails = rng.gen_range(1..=3u32);
            plan = plan.transfer_fail(Some(from), Some(to), start, until, fails);
        }

        // Transfer delays.
        for _ in 0..rng.gen_range(0..=2u32) {
            let from = rng.gen_range(0..ranks);
            let to = rng.gen_range(0..ranks);
            let start = rng.gen_range(0.0..horizon);
            let until = start + rng.gen_range(0.1 * horizon..0.5 * horizon);
            let extra = rng.gen_range(0.01 * horizon..0.1 * horizon);
            plan = plan.transfer_delay(Some(from), Some(to), start, until, extra);
        }

        plan
    }

    /// Parse a plan from its textual form: `;`-separated events, times in
    /// (fractional) simulated seconds.
    ///
    /// * `kill:R@T` — kill rank `R` at time `T`;
    /// * `add:R@T` — add rank `R`'s GPU to the running job at time `T`;
    /// * `stall:R@T+D` — stall rank `R` at `T` for `D` seconds;
    /// * `xfail:F->T@S..U*N` — fail the first `N` attempts of transfers
    ///   `F -> T` ready inside `[S, U)` (`*N` defaults to 1, `..U` to an
    ///   open window, and `F`/`T` may be `*` for any rank);
    /// * `delay:F->T@S..U+D` — delay matching transfers by `D` seconds.
    pub fn parse(spec: &str) -> Result<Self, FaultPlanParseError> {
        let mut plan = FaultPlan::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, body) = part
                .split_once(':')
                .ok_or_else(|| FaultPlanParseError(format!("missing `:` in {part:?}")))?;
            let (target, timing) = body
                .split_once('@')
                .ok_or_else(|| FaultPlanParseError(format!("missing `@` in {part:?}")))?;
            plan = match kind {
                "kill" => plan.kill(parse_rank(target, part)?, secs(timing, part)?),
                "add" => plan.add(parse_rank(target, part)?, secs(timing, part)?),
                "stall" => {
                    let rank = parse_rank(target, part)?;
                    let (at, dur) = timing
                        .split_once('+')
                        .ok_or_else(|| FaultPlanParseError(format!("missing `+` in {part:?}")))?;
                    plan.stall(rank, secs(at, part)?, secs(dur, part)?)
                }
                "xfail" => {
                    let (from, to) = parse_route(target, part)?;
                    let (window, fails) = match timing.split_once('*') {
                        Some((w, n)) => (
                            w,
                            n.parse::<u32>().map_err(|_| {
                                FaultPlanParseError(format!("bad fail count in {part:?}"))
                            })?,
                        ),
                        None => (timing, 1),
                    };
                    let (start, until) = parse_window(window, part)?;
                    plan.transfer_fail(from, to, start, until, fails)
                }
                "delay" => {
                    let (from, to) = parse_route(target, part)?;
                    let (window, extra) = timing
                        .rsplit_once('+')
                        .ok_or_else(|| FaultPlanParseError(format!("missing `+` in {part:?}")))?;
                    let (start, until) = parse_window(window, part)?;
                    plan.transfer_delay(from, to, start, until, secs(extra, part)?)
                }
                other => {
                    return Err(FaultPlanParseError(format!(
                        "unknown fault kind {other:?} (expected kill, add, stall, xfail, or delay)"
                    )));
                }
            };
        }
        Ok(plan)
    }
}

fn secs(s: &str, ctx: &str) -> Result<f64, FaultPlanParseError> {
    parse_secs(s).ok_or_else(|| FaultPlanParseError(format!("bad time {s:?} in {ctx:?}")))
}

fn parse_rank(s: &str, ctx: &str) -> Result<u32, FaultPlanParseError> {
    s.trim()
        .parse::<u32>()
        .map_err(|_| FaultPlanParseError(format!("bad rank {s:?} in {ctx:?}")))
}

fn parse_route(s: &str, ctx: &str) -> Result<(Option<u32>, Option<u32>), FaultPlanParseError> {
    let (f, t) = s
        .split_once("->")
        .ok_or_else(|| FaultPlanParseError(format!("missing `->` in {ctx:?}")))?;
    let side = |x: &str| -> Result<Option<u32>, FaultPlanParseError> {
        let x = x.trim();
        if x == "*" {
            Ok(None)
        } else {
            parse_rank(x, ctx).map(Some)
        }
    };
    Ok((side(f)?, side(t)?))
}

/// A transfer window `S..U` in seconds; a bare `S` leaves it open.
fn parse_window(s: &str, ctx: &str) -> Result<(f64, f64), FaultPlanParseError> {
    match s.split_once("..") {
        Some((a, b)) => Ok((secs(a, ctx)?, secs(b, ctx)?)),
        None => Ok((secs(s, ctx)?, f64::INFINITY)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_record_events() {
        let plan = FaultPlan::new()
            .kill(2, 1e-3)
            .stall(1, 2e-3, 5e-4)
            .transfer_fail(Some(0), Some(3), 0.0, 1.0, 2)
            .transfer_delay(None, Some(1), 0.0, 1.0, 1e-4);
        assert_eq!(plan.events().len(), 4);
        assert_eq!(plan.kill_time(2), Some(SimTime::from_secs(1e-3)));
        assert_eq!(plan.kill_time(0), None);
        assert_eq!(plan.stalls_for(1).len(), 1);
        assert!(plan.stalls_for(0).is_empty());
    }

    #[test]
    fn transfer_outcomes_respect_window_attempts_and_route() {
        let plan = FaultPlan::new().transfer_fail(Some(0), Some(3), 1.0, 2.0, 2);
        let t = SimTime::from_secs(1.5);
        assert_eq!(plan.transfer_outcome(0, 3, t, 0), TransferOutcome::Fail);
        assert_eq!(plan.transfer_outcome(0, 3, t, 1), TransferOutcome::Fail);
        assert_eq!(plan.transfer_outcome(0, 3, t, 2), TransferOutcome::Deliver);
        // Outside the window or off-route: delivered.
        assert_eq!(
            plan.transfer_outcome(0, 3, SimTime::from_secs(2.5), 0),
            TransferOutcome::Deliver
        );
        assert_eq!(plan.transfer_outcome(1, 3, t, 0), TransferOutcome::Deliver);
    }

    #[test]
    fn delays_accumulate_and_lose_to_failures() {
        let plan = FaultPlan::new()
            .transfer_delay(None, None, 0.0, 10.0, 1e-3)
            .transfer_delay(Some(0), None, 0.0, 10.0, 2e-3)
            .transfer_fail(Some(0), Some(1), 0.0, 10.0, 1);
        match plan.transfer_outcome(2, 1, SimTime::from_secs(1.0), 0) {
            TransferOutcome::Delay(d) => assert!((d.as_secs() - 1e-3).abs() < 1e-12),
            other => panic!("expected delay, got {other:?}"),
        }
        match plan.transfer_outcome(0, 2, SimTime::from_secs(1.0), 0) {
            TransferOutcome::Delay(d) => assert!((d.as_secs() - 3e-3).abs() < 1e-12),
            other => panic!("expected delay, got {other:?}"),
        }
        assert_eq!(
            plan.transfer_outcome(0, 1, SimTime::from_secs(1.0), 0),
            TransferOutcome::Fail
        );
    }

    #[test]
    fn generated_plans_are_seed_deterministic_and_leave_a_survivor() {
        for seed in 0..32u64 {
            let a = FaultPlan::generate(seed, 4, 5e-3);
            let b = FaultPlan::generate(seed, 4, 5e-3);
            assert_eq!(a, b, "seed {seed} not reproducible");
            let kills: Vec<u32> = a
                .events()
                .iter()
                .filter_map(|e| match e {
                    FaultEvent::GpuKill { rank, .. } => Some(*rank),
                    _ => None,
                })
                .collect();
            assert!(kills.len() < 4, "seed {seed} killed every rank");
            let mut unique = kills.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), kills.len(), "seed {seed} repeated a victim");
        }
        assert_ne!(
            FaultPlan::generate(1, 4, 5e-3),
            FaultPlan::generate(2, 4, 5e-3)
        );
    }

    #[test]
    fn add_events_are_recorded_parsed_and_queried() {
        let plan = FaultPlan::new().add(4, 2e-3).add(5, 1e-3).add(4, 1.5e-3);
        assert_eq!(plan.kill_time(4), None);
        assert_eq!(plan.add_time(4), Some(SimTime::from_secs(1.5e-3)));
        assert_eq!(plan.add_time(5), Some(SimTime::from_secs(1e-3)));
        assert_eq!(plan.add_time(0), None);

        let parsed = FaultPlan::parse("add:4@2e-3; kill:1@1e-3").unwrap();
        assert_eq!(parsed.add_time(4), Some(SimTime::from_secs(2e-3)));
        assert_eq!(parsed.kill_time(1), Some(SimTime::from_secs(1e-3)));
        for bad in ["add:4", "add:x@0", "add:4@-1"] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn single_rank_plans_never_kill() {
        for seed in 0..16u64 {
            assert_eq!(FaultPlan::generate(seed, 1, 1e-3).kill_time(0), None);
        }
    }

    #[test]
    fn parse_round_trips_every_kind() {
        let plan = FaultPlan::parse(
            "kill:2@0.5e-3; stall:1@1e-3+2e-3; xfail:0->2@0..1e-2*3; delay:*->1@0+5e-4",
        )
        .unwrap();
        assert_eq!(plan.events().len(), 4);
        assert_eq!(plan.kill_time(2), Some(SimTime::from_secs(0.5e-3)));
        assert_eq!(
            plan.transfer_outcome(0, 2, SimTime::from_secs(5e-3), 2),
            TransferOutcome::Fail
        );
        assert_eq!(
            plan.transfer_outcome(0, 2, SimTime::from_secs(5e-3), 3),
            TransferOutcome::Deliver
        );
        match plan.transfer_outcome(3, 1, SimTime::from_secs(100.0), 0) {
            TransferOutcome::Delay(d) => assert!((d.as_secs() - 5e-4).abs() < 1e-12),
            other => panic!("expected delay, got {other:?}"),
        }
        // Empty pieces are tolerated.
        assert!(FaultPlan::parse("").unwrap().events().is_empty());
        assert!(FaultPlan::parse(" ; ").unwrap().events().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "explode:1@0",
            "kill:1",
            "kill:x@0",
            "kill:1@-1",
            "kill:1@nan",
            "stall:1@0",
            "xfail:0@0",
            "xfail:0->1@0*x",
            "delay:0->1@0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
