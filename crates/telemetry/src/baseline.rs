//! Benchmark baselines and the regression gate: a JSON schema for "what a
//! scenario cost" ([`BenchBaseline`]: makespan, per-stage critical-path
//! nanoseconds, counters, imbalance) plus [`diff_sets`] producing
//! pass/warn/fail verdicts under a relative tolerance.
//!
//! The simulator is deterministic and machine-independent, so a re-run of an
//! unchanged scenario reproduces the baseline bit-for-bit and any drift is a
//! real behaviour change: makespan regressions beyond tolerance **fail**,
//! while improvements, stage-mix shifts, and counter changes **warn** (they
//! deserve a refreshed baseline, not a broken build).

use std::collections::BTreeMap;
use std::fmt;

use crate::analyze::Analysis;
use crate::json::{parse, Value};

const NS_PER_S: f64 = 1e9;

/// Recorded cost of one benchmark scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchBaseline {
    /// Scenario name, e.g. `"sio_4rank"`.
    pub name: String,
    /// Job makespan in simulated nanoseconds.
    pub makespan_ns: u64,
    /// Critical-path attribution per stage, simulated nanoseconds. Values
    /// sum to `makespan_ns` (within rounding).
    pub stage_ns: BTreeMap<String, u64>,
    /// Stage holding the largest critical-path share.
    pub bounding_stage: String,
    /// Coefficient of variation of per-rank busy time.
    pub imbalance_cv: f64,
    /// Engine counters (chunks dispatched, pairs emitted/shuffled...).
    pub counters: BTreeMap<String, u64>,
}

/// Seconds → whole simulated nanoseconds.
pub fn s_to_ns(s: f64) -> u64 {
    (s * NS_PER_S).round().max(0.0) as u64
}

impl BenchBaseline {
    /// Build a baseline from an [`Analysis`] plus engine counters.
    pub fn from_analysis(name: &str, analysis: &Analysis, counters: BTreeMap<String, u64>) -> Self {
        BenchBaseline {
            name: name.to_string(),
            makespan_ns: s_to_ns(analysis.makespan_s),
            stage_ns: analysis
                .stage_s
                .iter()
                .map(|(stage, secs)| (stage.name().to_string(), s_to_ns(*secs)))
                .collect(),
            bounding_stage: analysis.bounding_stage.name().to_string(),
            imbalance_cv: analysis.imbalance_cv,
            counters,
        }
    }

    /// JSON object form.
    pub fn to_value(&self) -> Value {
        let stage_share: Vec<(String, Value)> = self
            .stage_ns
            .iter()
            .map(|(k, v)| {
                let share = if self.makespan_ns > 0 {
                    *v as f64 / self.makespan_ns as f64
                } else {
                    0.0
                };
                (k.clone(), Value::Num(share))
            })
            .collect();
        Value::Obj(vec![
            ("name".into(), Value::str(self.name.clone())),
            ("makespan_ns".into(), Value::Num(self.makespan_ns as f64)),
            (
                "stage_ns".into(),
                Value::Obj(
                    self.stage_ns
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
            ("stage_share".into(), Value::Obj(stage_share)),
            (
                "bounding_stage".into(),
                Value::str(self.bounding_stage.clone()),
            ),
            ("imbalance_cv".into(), Value::Num(self.imbalance_cv)),
            (
                "counters".into(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a baseline from its JSON object form. `stage_share` is
    /// derived output and ignored on input.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("baseline: missing name")?
            .to_string();
        let makespan_ns =
            v.get("makespan_ns")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("baseline {name}: missing makespan_ns"))? as u64;
        let map_u64 = |key: &str| -> BTreeMap<String, u64> {
            match v.get(key) {
                Some(Value::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(k, val)| val.as_f64().map(|n| (k.clone(), n as u64)))
                    .collect(),
                _ => BTreeMap::new(),
            }
        };
        Ok(BenchBaseline {
            makespan_ns,
            stage_ns: map_u64("stage_ns"),
            bounding_stage: v
                .get("bounding_stage")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            imbalance_cv: v.get("imbalance_cv").and_then(Value::as_f64).unwrap_or(0.0),
            counters: map_u64("counters"),
            name,
        })
    }
}

/// A named collection of baselines, as stored in `BENCH_PR6.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BaselineSet {
    /// Inverse problem-size scale the scenarios were recorded at.
    pub scale: u64,
    /// Relative tolerance the recording intends to be gated with.
    pub tolerance: f64,
    /// Scenario baselines, in recording order.
    pub baselines: Vec<BenchBaseline>,
}

impl BaselineSet {
    /// Baseline by scenario name.
    pub fn get(&self, name: &str) -> Option<&BenchBaseline> {
        self.baselines.iter().find(|b| b.name == name)
    }

    /// Rendered JSON document.
    pub fn to_json(&self) -> String {
        Value::Obj(vec![
            ("scale".into(), Value::Num(self.scale as f64)),
            ("tolerance".into(), Value::Num(self.tolerance)),
            (
                "scenarios".into(),
                Value::Arr(self.baselines.iter().map(BenchBaseline::to_value).collect()),
            ),
        ])
        .render()
    }

    /// Parse a baseline set from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text).map_err(|e| format!("baseline set: invalid JSON: {e}"))?;
        let scenarios = v
            .get("scenarios")
            .and_then(Value::as_arr)
            .ok_or("baseline set: missing scenarios array")?;
        Ok(BaselineSet {
            scale: v.get("scale").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            tolerance: v.get("tolerance").and_then(Value::as_f64).unwrap_or(0.0),
            baselines: scenarios
                .iter()
                .map(BenchBaseline::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Outcome of one comparison (or of a whole report: the worst entry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within tolerance.
    #[default]
    Pass,
    /// Changed in a way worth refreshing the baseline for, but not a
    /// regression (improvements, stage-mix shifts, counter drift).
    Warn,
    /// Regression beyond tolerance — the gate should fail the build.
    Fail,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "PASS",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        })
    }
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Scenario the metric belongs to.
    pub scenario: String,
    /// Metric name, e.g. `"makespan_ns"` or `"stage_ns.Map"`.
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Verdict for this metric.
    pub verdict: Verdict,
    /// Short explanation.
    pub note: String,
}

/// Full comparison report.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Tolerance the comparison ran with.
    pub tolerance: f64,
    /// Every non-Pass delta, plus the makespan delta of each scenario.
    pub deltas: Vec<MetricDelta>,
    /// Worst verdict across all deltas (Pass when empty).
    pub verdict: Verdict,
}

/// Compare a whole recorded set against a baseline set, matching scenarios
/// by name. Scenarios missing on either side warn. Sets recorded at two
/// different (non-zero) scales ran different workloads: that fails, and
/// no scenario is compared.
pub fn diff_sets(old: &BaselineSet, new: &BaselineSet, tolerance: f64) -> DiffReport {
    let mut report = DiffReport {
        tolerance,
        ..DiffReport::default()
    };
    if old.scale > 0 && new.scale > 0 && old.scale != new.scale {
        report.deltas.push(MetricDelta {
            scenario: "set".into(),
            metric: "scale".into(),
            old: old.scale as f64,
            new: new.scale as f64,
            verdict: Verdict::Fail,
            note: format!(
                "recorded at scale {} and at scale {}: re-record one side at the other's scale",
                old.scale, new.scale
            ),
        });
        report.verdict = Verdict::Fail;
        return report;
    }
    for ob in &old.baselines {
        match new.get(&ob.name) {
            Some(nb) => diff_into(ob, nb, tolerance, &mut report),
            None => report.deltas.push(MetricDelta {
                scenario: ob.name.clone(),
                metric: "scenario".into(),
                old: 1.0,
                new: 0.0,
                verdict: Verdict::Warn,
                note: "scenario missing from new measurement".into(),
            }),
        }
    }
    for nb in &new.baselines {
        if old.get(&nb.name).is_none() {
            report.deltas.push(MetricDelta {
                scenario: nb.name.clone(),
                metric: "scenario".into(),
                old: 0.0,
                new: 1.0,
                verdict: Verdict::Warn,
                note: "scenario not in baseline (new scenario?)".into(),
            });
        }
    }
    report.verdict = report
        .deltas
        .iter()
        .map(|d| d.verdict)
        .max()
        .unwrap_or(Verdict::Pass);
    report
}

fn rel_change(old: f64, new: f64) -> f64 {
    if old > 0.0 {
        new / old - 1.0
    } else if new > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Compare one scenario's new measurement against its baseline.
///
/// Rules: makespan above `old * (1 + tolerance)` fails; makespan below
/// `old * (1 - tolerance)` warns (improvement — refresh the baseline);
/// stage times that shift more than the tolerance *and* amount to at least
/// 2% of the makespan warn; counter or bounding-stage changes warn.
fn diff_into(old: &BenchBaseline, new: &BenchBaseline, tolerance: f64, report: &mut DiffReport) {
    let scenario = &old.name;

    let rel = rel_change(old.makespan_ns as f64, new.makespan_ns as f64);
    let (verdict, note) = if rel > tolerance {
        (
            Verdict::Fail,
            format!(
                "makespan regressed {:+.1}% (> {:.0}%)",
                rel * 100.0,
                tolerance * 100.0
            ),
        )
    } else if rel < -tolerance {
        (
            Verdict::Warn,
            format!(
                "makespan improved {:+.1}% — refresh the baseline",
                rel * 100.0
            ),
        )
    } else {
        (Verdict::Pass, format!("makespan {:+.2}%", rel * 100.0))
    };
    report.deltas.push(MetricDelta {
        scenario: scenario.clone(),
        metric: "makespan_ns".into(),
        old: old.makespan_ns as f64,
        new: new.makespan_ns as f64,
        verdict,
        note,
    });

    let stage_floor = 0.02 * old.makespan_ns.max(new.makespan_ns) as f64;
    let mut stages: Vec<&String> = old.stage_ns.keys().chain(new.stage_ns.keys()).collect();
    stages.sort();
    stages.dedup();
    for stage in stages {
        let o = old.stage_ns.get(stage).copied().unwrap_or(0) as f64;
        let n = new.stage_ns.get(stage).copied().unwrap_or(0) as f64;
        let rel = rel_change(o, n);
        if o.max(n) >= stage_floor && rel.abs() > tolerance {
            report.deltas.push(MetricDelta {
                scenario: scenario.clone(),
                metric: format!("stage_ns.{stage}"),
                old: o,
                new: n,
                verdict: Verdict::Warn,
                note: format!("stage time shifted {:+.1}%", rel * 100.0),
            });
        }
    }

    if old.bounding_stage != new.bounding_stage && !old.bounding_stage.is_empty() {
        report.deltas.push(MetricDelta {
            scenario: scenario.clone(),
            metric: "bounding_stage".into(),
            old: 0.0,
            new: 0.0,
            verdict: Verdict::Warn,
            note: format!(
                "bounding stage changed: {} -> {}",
                old.bounding_stage, new.bounding_stage
            ),
        });
    }

    let mut counters: Vec<&String> = old.counters.keys().chain(new.counters.keys()).collect();
    counters.sort();
    counters.dedup();
    for counter in counters {
        let o = old.counters.get(counter).copied().unwrap_or(0);
        let n = new.counters.get(counter).copied().unwrap_or(0);
        if o != n {
            report.deltas.push(MetricDelta {
                scenario: scenario.clone(),
                metric: format!("counters.{counter}"),
                old: o as f64,
                new: n as f64,
                verdict: Verdict::Warn,
                note: format!("counter changed {o} -> {n} (deterministic sim: real drift)"),
            });
        }
    }
}

impl DiffReport {
    /// Stable human-readable report, one line per delta plus a verdict.
    pub fn render_text(&self) -> String {
        let mut out = format!("perf diff (tolerance ±{:.0}%)\n", self.tolerance * 100.0);
        for d in &self.deltas {
            out.push_str(&format!(
                "  [{}] {} {}: {} -> {} ({})\n",
                d.verdict, d.scenario, d.metric, d.old, d.new, d.note
            ));
        }
        out.push_str(&format!("verdict: {}\n", self.verdict));
        out
    }

    /// JSON form of the report.
    pub fn to_json(&self) -> String {
        let deltas = self
            .deltas
            .iter()
            .map(|d| {
                Value::Obj(vec![
                    ("scenario".into(), Value::str(d.scenario.clone())),
                    ("metric".into(), Value::str(d.metric.clone())),
                    ("old".into(), Value::Num(d.old)),
                    ("new".into(), Value::Num(d.new)),
                    ("verdict".into(), Value::str(d.verdict.to_string())),
                    ("note".into(), Value::str(d.note.clone())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("tolerance".into(), Value::Num(self.tolerance)),
            ("deltas".into(), Value::Arr(deltas)),
            ("verdict".into(), Value::str(self.verdict.to_string())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(name: &str, makespan_ns: u64) -> BenchBaseline {
        BenchBaseline {
            name: name.into(),
            makespan_ns,
            stage_ns: [("Map".to_string(), makespan_ns / 2)].into_iter().collect(),
            bounding_stage: "Map".into(),
            imbalance_cv: 0.1,
            counters: [("engine.chunks_dispatched".to_string(), 8)]
                .into_iter()
                .collect(),
        }
    }

    /// [`diff_sets`] over one scenario on each side.
    fn diff(old: &BenchBaseline, new: &BenchBaseline) -> DiffReport {
        let set = |b: &BenchBaseline| BaselineSet {
            scale: 64,
            tolerance: 0.15,
            baselines: vec![b.clone()],
        };
        diff_sets(&set(old), &set(new), 0.15)
    }

    #[test]
    fn identical_baselines_pass() {
        let b = baseline("sio_4rank", 1_000_000);
        let report = diff(&b, &b);
        assert_eq!(report.verdict, Verdict::Pass);
        assert!(report.render_text().contains("verdict: PASS"));
    }

    #[test]
    fn two_x_regression_fails() {
        let old = baseline("sio_4rank", 1_000_000);
        let mut new = baseline("sio_4rank", 2_000_000);
        new.stage_ns = old.stage_ns.clone(); // isolate the makespan signal
        let report = diff(&old, &new);
        assert_eq!(report.verdict, Verdict::Fail);
        assert!(report.render_text().contains("regressed"));
    }

    #[test]
    fn improvement_warns_but_does_not_fail() {
        let old = baseline("sio_4rank", 1_000_000);
        let new = baseline("sio_4rank", 500_000);
        let report = diff(&old, &new);
        assert_eq!(report.verdict, Verdict::Warn);
    }

    #[test]
    fn counter_drift_warns() {
        let old = baseline("wo_1rank", 1_000_000);
        let mut new = old.clone();
        new.counters.insert("engine.chunks_dispatched".into(), 9);
        let report = diff(&old, &new);
        assert_eq!(report.verdict, Verdict::Warn);
        assert!(report
            .deltas
            .iter()
            .any(|d| d.metric == "counters.engine.chunks_dispatched"));
    }

    #[test]
    fn set_round_trips_through_json() {
        let set = BaselineSet {
            scale: 64,
            tolerance: 0.15,
            baselines: vec![baseline("wo_1rank", 123_456_789), baseline("sio_8rank", 42)],
        };
        let text = set.to_json();
        let back = BaselineSet::from_json(&text).expect("parses");
        assert_eq!(back, set);
    }

    #[test]
    fn set_diff_flags_missing_scenarios() {
        let old = BaselineSet {
            scale: 64,
            tolerance: 0.15,
            baselines: vec![baseline("a", 100), baseline("b", 100)],
        };
        let new = BaselineSet {
            scale: 64,
            tolerance: 0.15,
            baselines: vec![baseline("a", 100)],
        };
        let report = diff_sets(&old, &new, 0.15);
        assert_eq!(report.verdict, Verdict::Warn);
        assert!(report
            .deltas
            .iter()
            .any(|d| d.scenario == "b" && d.note.contains("missing")));
    }
}
