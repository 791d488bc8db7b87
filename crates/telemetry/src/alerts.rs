//! Declarative alert rules over windowed time series, evaluated
//! deterministically at event boundaries.
//!
//! A rule names a quantity derived from a [`TimeSeriesStore`] — a
//! windowed rate, sum, last value, quantile, or the ratio of two
//! windowed sums (burn-rate rules are ratios: misses over finishes
//! against the error-budget allowance) — plus a comparison and an
//! optional hold time. The [`AlertEngine`] is fed the virtual clock at
//! every event boundary; a rule whose condition has held continuously
//! for `for_s` seconds fires exactly once per breach episode, emitting a
//! typed [`Alert`].
//!
//! Rules have a compact text form for CLI flags and config files:
//!
//! ```text
//! deep_queue:  last(service.queue_depth) > 3
//! slow_p99:    p99(service.queue_wait_s) > 0.004 for 0.001
//! miss_burn:   ratio(service.deadline_missed, service.jobs_finished) > 0.05
//! stalled:     rate(service.jobs_completed) < 100
//! ```

use std::fmt;

use crate::json::Value;
use crate::parse_secs;
use crate::timeseries::TimeSeriesStore;

/// The windowed quantity a rule compares.
#[derive(Clone, Debug, PartialEq)]
pub enum Source {
    /// Windowed per-second rate of `series`.
    Rate(String),
    /// Windowed sum of `series`.
    Sum(String),
    /// Last recorded value of `series`.
    Last(String),
    /// Windowed `q`-quantile of histogram `series`.
    Quantile(String, f64),
    /// `window_sum(num) / window_sum(den)`; zero when the denominator is
    /// zero (no traffic burns no budget).
    Ratio(String, String),
}

impl Source {
    fn value(&self, ts: &TimeSeriesStore, t: f64) -> f64 {
        match self {
            Source::Rate(s) => ts.rate(s, t),
            Source::Sum(s) => ts.sum(s, t),
            Source::Last(s) => ts.last(s),
            Source::Quantile(s, q) => ts.quantile(s, *q, t).unwrap_or(0.0),
            Source::Ratio(num, den) => {
                let d = ts.sum(den, t);
                if d > 0.0 {
                    ts.sum(num, t) / d
                } else {
                    0.0
                }
            }
        }
    }
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Rate(s) => write!(f, "rate({s})"),
            Source::Sum(s) => write!(f, "sum({s})"),
            Source::Last(s) => write!(f, "last({s})"),
            Source::Quantile(s, q) => write!(f, "p{}({s})", (q * 100.0).round() as u32),
            Source::Ratio(a, b) => write!(f, "ratio({a}, {b})"),
        }
    }
}

/// Which side of the threshold breaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Breach when the value exceeds the threshold.
    Above,
    /// Breach when the value drops below the threshold.
    Below,
}

/// One declarative alert rule.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRule {
    /// Rule name (stable; keys the firing state and the emitted alerts).
    pub name: String,
    /// The quantity compared.
    pub source: Source,
    /// Breach direction.
    pub op: Op,
    /// The threshold compared against.
    pub threshold: f64,
    /// Seconds the breach must hold before the rule fires (0 = fire at
    /// the first breached evaluation).
    pub for_s: f64,
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            Op::Above => '>',
            Op::Below => '<',
        };
        write!(f, "{}: {} {op} {}", self.name, self.source, self.threshold)?;
        if self.for_s > 0.0 {
            write!(f, " for {}", self.for_s)?;
        }
        Ok(())
    }
}

impl AlertRule {
    /// Parse the compact text form:
    /// `name: fn(series[, series]) (>|<) threshold [for seconds]` where
    /// `fn` is `rate`, `sum`, `last`, `ratio`, or `pNN` (a percentile,
    /// e.g. `p99`).
    pub fn parse(text: &str) -> Result<AlertRule, String> {
        let (name, rest) = text
            .split_once(':')
            .ok_or_else(|| format!("alert rule needs 'name: expr', got {text:?}"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err("alert rule name is empty".into());
        }
        let rest = rest.trim();
        let open = rest
            .find('(')
            .ok_or_else(|| format!("expected fn(series) in {rest:?}"))?;
        let close = rest
            .find(')')
            .filter(|&c| c > open)
            .ok_or_else(|| format!("unclosed '(' in {rest:?}"))?;
        let func = rest[..open].trim();
        let args: Vec<&str> = rest[open + 1..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let one = |args: &[&str]| -> Result<String, String> {
            match args {
                [a] => Ok((*a).to_string()),
                _ => Err(format!("{func} takes exactly one series")),
            }
        };
        let source = match func {
            "rate" => Source::Rate(one(&args)?),
            "sum" => Source::Sum(one(&args)?),
            "last" => Source::Last(one(&args)?),
            "ratio" => match args.as_slice() {
                [a, b] => Source::Ratio((*a).to_string(), (*b).to_string()),
                _ => return Err("ratio takes two series".into()),
            },
            p if p.starts_with('p') => {
                let pct: f64 = p[1..]
                    .parse()
                    .map_err(|_| format!("bad percentile {p:?}"))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!("percentile {pct} outside 0..=100"));
                }
                Source::Quantile(one(&args)?, pct / 100.0)
            }
            other => return Err(format!("unknown alert fn {other:?}")),
        };
        let tail: Vec<&str> = rest[close + 1..].split_whitespace().collect();
        let (op, rest_tail) = match tail.split_first() {
            Some((&">", r)) => (Op::Above, r),
            Some((&"<", r)) => (Op::Below, r),
            _ => return Err(format!("expected '>' or '<' after the source in {text:?}")),
        };
        let (threshold, rest_tail) = match rest_tail.split_first() {
            Some((v, r)) => (
                v.parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite())
                    .ok_or_else(|| format!("bad threshold {v:?} (a finite number) in {text:?}"))?,
                r,
            ),
            None => return Err("missing threshold".into()),
        };
        let for_s = match rest_tail {
            [] => 0.0,
            ["for", v] => parse_secs(v).ok_or_else(|| {
                format!("bad hold time {v:?} (finite seconds, at least 0) in {text:?}")
            })?,
            other => return Err(format!("trailing tokens {other:?}")),
        };
        Ok(AlertRule {
            name: name.to_string(),
            source,
            op,
            threshold,
            for_s,
        })
    }

    /// Parse a `;`-separated list of rules (the CLI flag form). Empty
    /// segments are ignored.
    pub fn parse_list(text: &str) -> Result<Vec<AlertRule>, String> {
        text.split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(AlertRule::parse)
            .collect()
    }
}

/// One fired alert: the rule, the instant it fired, and the evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// Name of the rule that fired.
    pub rule: String,
    /// Virtual instant the rule fired.
    pub at_s: f64,
    /// The breaching value at that instant.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// Rendered rule text (self-describing reports).
    pub detail: String,
}

impl Alert {
    /// Stable JSON form.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("rule".into(), Value::str(self.rule.clone())),
            ("at_s".into(), Value::Num(self.at_s)),
            ("value".into(), Value::Num(self.value)),
            ("threshold".into(), Value::Num(self.threshold)),
            ("detail".into(), Value::str(self.detail.clone())),
        ])
    }
}

/// Evaluates a rule set against a [`TimeSeriesStore`] at event
/// boundaries, tracking per-rule breach episodes.
#[derive(Clone, Debug, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    /// Per-rule state, aligned with `rules`: when the current breach
    /// episode started (`None` when not breaching), and whether that
    /// episode already fired.
    state: Vec<(Option<f64>, bool)>,
    fired: Vec<Alert>,
}

impl AlertEngine {
    /// An engine evaluating `rules`.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        let state = vec![(None, false); rules.len()];
        AlertEngine {
            rules,
            state,
            fired: Vec::new(),
        }
    }

    /// The rule set.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Every alert fired so far, in firing order.
    pub fn fired(&self) -> &[Alert] {
        &self.fired
    }

    /// Evaluate every rule at virtual instant `t`; returns the alerts
    /// newly fired by this evaluation. A rule fires once per breach
    /// episode, after the breach has held for its `for_s`.
    pub fn eval(&mut self, t: f64, ts: &TimeSeriesStore) -> Vec<Alert> {
        let mut new = Vec::new();
        for (rule, (since, episode_fired)) in self.rules.iter().zip(self.state.iter_mut()) {
            let value = rule.source.value(ts, t);
            let breached = match rule.op {
                Op::Above => value > rule.threshold,
                Op::Below => value < rule.threshold,
            };
            if !breached {
                *since = None;
                *episode_fired = false;
                continue;
            }
            let start = *since.get_or_insert(t);
            if !*episode_fired && t - start >= rule.for_s {
                *episode_fired = true;
                new.push(Alert {
                    rule: rule.name.clone(),
                    at_s: t,
                    value,
                    threshold: rule.threshold,
                    detail: rule.to_string(),
                });
            }
        }
        self.fired.extend(new.iter().cloned());
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_source_form() {
        let r = AlertRule::parse("deep: last(service.queue_depth) > 3").unwrap();
        assert_eq!(r.name, "deep");
        assert_eq!(r.source, Source::Last("service.queue_depth".into()));
        assert_eq!(r.op, Op::Above);
        assert_eq!(r.threshold, 3.0);
        assert_eq!(r.for_s, 0.0);

        let r = AlertRule::parse("slow: p99(wait) > 0.004 for 0.001").unwrap();
        assert_eq!(r.source, Source::Quantile("wait".into(), 0.99));
        assert_eq!(r.for_s, 0.001);

        let r = AlertRule::parse("burn: ratio(miss, done) > 0.05").unwrap();
        assert_eq!(r.source, Source::Ratio("miss".into(), "done".into()));

        let r = AlertRule::parse("idle: rate(service.jobs_completed) < 10").unwrap();
        assert_eq!(r.op, Op::Below);

        assert_eq!(AlertRule::parse("sumy: sum(x) > 1").unwrap().source, {
            Source::Sum("x".into())
        });

        // Round-trip through Display.
        let text = "slow: p99(wait) > 0.004 for 0.001";
        assert_eq!(AlertRule::parse(text).unwrap().to_string(), text);
    }

    #[test]
    fn rejects_malformed_rules() {
        for bad in [
            "no-colon-here",
            ": last(x) > 1",
            "a: nosuch(x) > 1",
            "a: last(x) >= 1",
            "a: last(x) > banana",
            "a: ratio(x) > 1",
            "a: p200(x) > 1",
            "a: last(x) > 1 for",
            "a: last(x > 1",
            "a: last(x) > nan",
            "a: last(x) > inf",
            "a: last(x) < -inf",
            "a: last(x) > 1 for nan",
            "a: last(x) > 1 for inf",
            "a: last(x) > 1 for 1e309",
            "a: last(x) > 1 for -5",
        ] {
            assert!(AlertRule::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            AlertRule::parse_list("a: last(x) > 1; ; b: sum(y) < 2")
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn fires_once_per_breach_episode() {
        let mut ts = TimeSeriesStore::new(1.0, 10);
        let mut eng = AlertEngine::new(vec![AlertRule::parse("deep: last(q) > 2").unwrap()]);
        ts.record_gauge("q", 0.1, 1.0);
        assert!(eng.eval(0.1, &ts).is_empty());
        ts.record_gauge("q", 0.2, 5.0);
        let fired = eng.eval(0.2, &ts);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "deep");
        assert_eq!(fired[0].value, 5.0);
        // Still breached: no re-fire within the same episode.
        assert!(eng.eval(0.3, &ts).is_empty());
        // Clears, then breaches again: a new episode fires.
        ts.record_gauge("q", 0.4, 0.0);
        assert!(eng.eval(0.4, &ts).is_empty());
        ts.record_gauge("q", 0.5, 9.0);
        assert_eq!(eng.eval(0.5, &ts).len(), 1);
        assert_eq!(eng.fired().len(), 2);
    }

    #[test]
    fn hold_time_delays_firing() {
        let mut ts = TimeSeriesStore::new(1.0, 10);
        let mut eng =
            AlertEngine::new(vec![AlertRule::parse("deep: last(q) > 2 for 0.5").unwrap()]);
        ts.record_gauge("q", 0.0, 5.0);
        assert!(eng.eval(0.0, &ts).is_empty(), "breach just started");
        assert!(eng.eval(0.3, &ts).is_empty(), "held 0.3 < 0.5");
        let fired = eng.eval(0.6, &ts);
        assert_eq!(fired.len(), 1, "held 0.6 >= 0.5");
        // A dip resets the episode clock.
        ts.record_gauge("q", 0.7, 0.0);
        eng.eval(0.7, &ts);
        ts.record_gauge("q", 0.8, 5.0);
        assert!(eng.eval(0.8, &ts).is_empty());
        assert!(eng.eval(1.0, &ts).is_empty(), "only held 0.2");
    }

    #[test]
    fn ratio_with_zero_denominator_is_quiet() {
        let ts = TimeSeriesStore::new(1.0, 10);
        let mut eng = AlertEngine::new(vec![AlertRule::parse("burn: ratio(a, b) > 0.1").unwrap()]);
        assert!(eng.eval(0.1, &ts).is_empty(), "no traffic, no burn");
    }

    #[test]
    fn alerts_render_as_json() {
        let a = Alert {
            rule: "deep".into(),
            at_s: 0.25,
            value: 5.0,
            threshold: 2.0,
            detail: "deep: last(q) > 2".into(),
        };
        let v = a.to_value();
        assert_eq!(v.get("rule").and_then(Value::as_str), Some("deep"));
    }
}
