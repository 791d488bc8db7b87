//! In-memory spans around the harness's calls into each layer, and the
//! ordered metric list a run reports.
//!
//! Spans are recorded only in a traced run (`--trace 1`); in a plain run
//! [`Tracer::span`] is a branch and a call, so the end-to-end numbers are
//! measured with tracing off. Spans are kept in memory and written out
//! once, when the run ends.

use std::time::Instant;

use gpmr::telemetry::json::Value;

/// One recorded span. `parent` indexes into the tracer's span list; spans
/// of one pass share `pass`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Start a new pass: spans recorded from here on carry its id.
    pub fn next_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    /// Run `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let ix = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(ix);
        let out = f(self);
        self.stack.pop();
        self.spans[ix].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Total seconds of the spans named `name` in pass `pass`.
    pub fn total_s(&self, name: &str, pass: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.pass == pass)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .fold(0.0, |total, s| total + s)
    }

    /// Number of spans named `name` in pass `pass`.
    pub fn count(&self, name: &str, pass: u32) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.pass == pass)
            .count()
    }

    /// The span file: every span with its self time (duration minus the
    /// time its direct children cover).
    pub fn to_json(&self, workload: &str) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let dur = s.end_ns - s.start_ns;
                Value::Obj(vec![
                    ("id".into(), Value::Num(i as f64)),
                    ("name".into(), Value::str(s.name)),
                    ("pass".into(), Value::Num(f64::from(s.pass))),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("start_ns".into(), Value::Num(s.start_ns as f64)),
                    ("end_ns".into(), Value::Num(s.end_ns as f64)),
                    (
                        "self_ns".into(),
                        Value::Num(dur.saturating_sub(child_ns[i]) as f64),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("workload".into(), Value::str(workload)),
            ("spans".into(), Value::Arr(spans)),
        ])
        .render()
    }
}

/// Metrics in report order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    pub fn to_value(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Obj(vec![
                            ("value".into(), Value::Num(*value)),
                            ("unit".into(), Value::str(*unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}
