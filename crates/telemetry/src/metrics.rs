//! A lock-cheap metrics registry: named counters, gauges, and fixed-bucket
//! histograms with typed handles.
//!
//! Registration (name lookup) takes a mutex; *updates* are plain atomic
//! operations on a shared cell, so callers cache handles once and update
//! them from hot paths. Disabled handles (`Counter::noop()` and friends)
//! are a single branch per update, which is what makes whole-subsystem
//! off-switching near-free.
//!
//! [`Registry::snapshot`] captures every metric into a [`MetricsSnapshot`]
//! with a stable text render and a stable JSON render. The one delta rule
//! is [`HistogramSnapshot::since`], which the windowed time series apply
//! per interval.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Value;

/// Atomically add `v` to an `f64` stored as bits in an [`AtomicU64`].
fn f64_fetch_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Atomically raise an `f64` stored as bits to at least `v`.
fn f64_fetch_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) >= v {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing integer metric handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that ignores every update (disabled telemetry).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (zero for no-op handles).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value (or high-water) floating-point metric handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that ignores every update (disabled telemetry).
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.0 {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raise the value to at least `v` (high-water tracking).
    pub fn set_max(&self, v: f64) {
        if let Some(c) = &self.0 {
            f64_fetch_max(c, v);
        }
    }
}

#[derive(Debug)]
struct HistogramState {
    /// Upper bucket bounds (inclusive), strictly increasing. A final
    /// implicit `+inf` bucket catches everything above the last bound.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, as `f64` bits.
    sum: AtomicU64,
}

/// A fixed-bucket histogram metric handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramState>>);

impl Histogram {
    /// A handle that ignores every update (disabled telemetry).
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            let idx = h.bounds.partition_point(|&b| b < v);
            h.counts[idx].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            f64_fetch_add(&h.sum, v);
        }
    }
}

#[derive(Debug, Default)]
struct RegState {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramState>>,
}

/// A named collection of metrics. Cloning shares the underlying storage
/// (the registry is a handle).
#[derive(Clone, Debug, Default)]
pub struct Registry {
    state: Arc<Mutex<RegState>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut st = self.state.lock().unwrap();
        let cell = st
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(cell.clone()))
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut st = self.state.lock().unwrap();
        let cell = st
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0.0f64.to_bits())));
        Gauge(Some(cell.clone()))
    }

    /// Get or create the histogram named `name` with the given inclusive
    /// upper bucket `bounds` (an overflow bucket is added automatically).
    /// Bounds are fixed by the first registration; later callers receive
    /// the existing histogram regardless of the bounds they pass.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut st = self.state.lock().unwrap();
        let cell = st.histograms.entry(name.to_string()).or_insert_with(|| {
            Arc::new(HistogramState {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0.0f64.to_bits()),
            })
        });
        Histogram(Some(cell.clone()))
    }

    /// Capture the current value of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let st = self.state.lock().unwrap();
        MetricsSnapshot {
            counters: st
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: st
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: st
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                            count: h.count.load(Ordering::Relaxed),
                            sum: f64::from_bits(h.sum.load(Ordering::Relaxed)),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Point-in-time capture of one histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the last entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile with linear interpolation inside the bucket
    /// the target rank lands in (Prometheus convention: the first bucket
    /// interpolates up from zero, or from its bound when that is negative).
    ///
    /// Returns `None` for an empty histogram or a non-finite `q`; `q` is
    /// otherwise clamped to `[0, 1]`. A rank landing in the overflow
    /// bucket clamps to the last finite bound (there is no upper edge to
    /// interpolate toward); a histogram with no finite buckets at all
    /// falls back to the mean, which is exact when every observation is
    /// identical.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !q.is_finite() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0.0f64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let below = cum;
            cum += c as f64;
            if cum < target {
                continue;
            }
            if i == self.bounds.len() {
                // Overflow bucket: clamp rather than extrapolate.
                return Some(match self.bounds.last() {
                    Some(&b) => b,
                    None => self.mean(),
                });
            }
            let lo = if i == 0 {
                self.bounds[0].min(0.0)
            } else {
                self.bounds[i - 1]
            };
            let hi = self.bounds[i];
            let frac = ((target - below) / c as f64).clamp(0.0, 1.0);
            return Some(lo + (hi - lo) * frac);
        }
        // Float rounding pushed `target` past the final cumulative count;
        // clamp to the top of the distribution.
        Some(match self.bounds.last() {
            Some(&b) => b,
            None => self.mean(),
        })
    }

    /// The mass observed since `earlier` (this capture itself when there
    /// is none): bucket counts and the count are subtracted, saturating,
    /// when the bounds match. Like the counts, a restarted registry (or a
    /// NaN that leaked into a sum) must not produce a nonsensical negative
    /// interval, so the sum's difference clamps to zero.
    pub fn since(&self, earlier: Option<&HistogramSnapshot>) -> HistogramSnapshot {
        let mut h = self.clone();
        if let Some(e) = earlier.filter(|e| e.bounds == h.bounds) {
            for (c, &ec) in h.counts.iter_mut().zip(&e.counts) {
                *c = c.saturating_sub(ec);
            }
            h.count = h.count.saturating_sub(e.count);
            let d = h.sum - e.sum;
            h.sum = if d.is_finite() { d.max(0.0) } else { 0.0 };
        }
        h
    }

    /// Fold another capture into this one (windowed time series merge
    /// bucket rings this way). An empty receiver adopts `other` wholesale;
    /// matching bounds add per-bucket counts; mismatched bounds (distinct
    /// series mixed by the caller) merge only the totals, keeping `mean`
    /// meaningful while dropping per-bucket resolution.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 && self.bounds.is_empty() {
            *self = other.clone();
            return;
        }
        if self.bounds == other.bounds {
            for (c, &oc) in self.counts.iter_mut().zip(&other.counts) {
                *c += oc;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Point-in-time capture of a whole [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram captures by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, zero when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Stable, human-readable text render (one metric per line, sorted by
    /// name).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter   {k} = {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge     {k} = {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {k} = count {}, mean {:.3}, buckets {:?}\n",
                h.count,
                h.mean(),
                h.counts
            ));
        }
        out
    }

    /// Stable JSON render (object keys sorted by metric name).
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// The snapshot as a JSON [`Value`] tree.
    pub fn to_value(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Num(v)))
                .collect(),
        );
        let histograms = Value::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Obj(vec![
                            (
                                "bounds".into(),
                                Value::Arr(h.bounds.iter().map(|&b| Value::Num(b)).collect()),
                            ),
                            (
                                "counts".into(),
                                Value::Arr(
                                    h.counts.iter().map(|&c| Value::Num(c as f64)).collect(),
                                ),
                            ),
                            ("count".into(), Value::Num(h.count as f64)),
                            ("sum".into(), Value::Num(h.sum)),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Obj(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_storage() {
        let reg = Registry::new();
        let a = reg.counter("jobs");
        let b = reg.counter("jobs");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("jobs"), 5);
    }

    #[test]
    fn noop_handles_ignore_everything() {
        let c = Counter::noop();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(9.0);
        g.set_max(100.0);
        Histogram::noop().observe(1.0);
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let reg = Registry::new();
        let g = reg.gauge("peak");
        g.set_max(3.0);
        g.set_max(1.0);
        assert_eq!(reg.snapshot().gauge("peak"), 3.0);
        g.set_max(7.5);
        assert_eq!(reg.snapshot().gauge("peak"), 7.5);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("bytes", &[10.0, 100.0]);
        for v in [1.0, 10.0, 11.0, 99.0, 1000.0] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms["bytes"];
        assert_eq!(hs.counts, vec![2, 2, 1]); // <=10, <=100, overflow
        assert_eq!(hs.count, 5);
        assert!((hs.mean() - 1121.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn since_subtracts_histograms() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0]);
        h.observe(0.5);
        let before = reg.snapshot();
        h.observe(2.0);
        let d = reg.snapshot().histograms["lat"].since(before.histograms.get("lat"));
        assert_eq!(d.count, 1);
        assert_eq!(d.counts, vec![0, 1]);
        // With no earlier capture the interval is the capture itself.
        let whole = &reg.snapshot().histograms["lat"];
        assert_eq!(&whole.since(None), whole);
    }

    #[test]
    fn since_guards_histogram_sums_like_counts() {
        // A "later" snapshot from a restarted registry has smaller sums;
        // the interval must clamp to zero, not go negative.
        let old_reg = Registry::new();
        old_reg.histogram("lat", &[1.0]).observe(5.0);
        let earlier = old_reg.snapshot();
        let new_reg = Registry::new();
        new_reg.histogram("lat", &[1.0]).observe(0.5);
        let d = new_reg.snapshot().histograms["lat"].since(earlier.histograms.get("lat"));
        assert_eq!(d.count, 0);
        assert_eq!(d.sum, 0.0, "sum clamps like counts");
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0] {
            h.observe(v);
        }
        let hs = reg.snapshot().histograms["lat"].clone();
        // Rank 2 of 4 lands at the top of the (1, 2] bucket's first half.
        let p50 = hs.quantile(0.5).unwrap();
        assert!((1.0..=2.0).contains(&p50), "p50 {p50}");
        let p100 = hs.quantile(1.0).unwrap();
        assert!((2.0..=4.0).contains(&p100), "p100 {p100}");
        // Quantiles are monotone in q.
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = hs.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: no quantile.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.quantile(0.5), None);

        // Non-finite q is guarded (the PR 9 span_ms NaN rule).
        let reg = Registry::new();
        let h = reg.histogram("one", &[10.0]);
        h.observe(5.0);
        let hs = reg.snapshot().histograms["one"].clone();
        assert_eq!(hs.quantile(f64::NAN), None);
        assert_eq!(hs.quantile(f64::INFINITY), None);
        // Out-of-range q clamps instead of failing.
        assert_eq!(hs.quantile(-3.0), hs.quantile(0.0));
        assert_eq!(hs.quantile(7.0), hs.quantile(1.0));

        // Single bucket: every quantile stays inside [0, bound].
        for q in [0.0, 0.5, 1.0] {
            let v = hs.quantile(q).unwrap();
            assert!((0.0..=10.0).contains(&v), "quantile({q}) = {v}");
        }

        // All values in the overflow bucket: clamp to the last bound.
        let reg2 = Registry::new();
        let h2 = reg2.histogram("over", &[1.0, 2.0]);
        h2.observe(100.0);
        h2.observe(200.0);
        let hs2 = reg2.snapshot().histograms["over"].clone();
        assert_eq!(hs2.quantile(0.5), Some(2.0));
        assert_eq!(hs2.quantile(1.0), Some(2.0));

        // No finite buckets at all: fall back to the mean (exact when all
        // observations are identical).
        let boundless = HistogramSnapshot {
            bounds: vec![],
            counts: vec![3],
            count: 3,
            sum: 21.0,
        };
        assert_eq!(boundless.quantile(0.5), Some(7.0));
    }

    #[test]
    fn merge_folds_counts_and_sums() {
        let reg = Registry::new();
        let h = reg.histogram("a", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        let a = reg.snapshot().histograms["a"].clone();
        let reg2 = Registry::new();
        let h2 = reg2.histogram("a", &[1.0, 2.0]);
        h2.observe(1.5);
        h2.observe(5.0);
        let b = reg2.snapshot().histograms["a"].clone();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count, 4);
        assert_eq!(m.counts, vec![1, 2, 1]);
        assert!((m.sum - 8.5).abs() < 1e-12);
        // Merging into an empty snapshot adopts the other side.
        let mut fresh = HistogramSnapshot::default();
        fresh.merge(&b);
        assert_eq!(fresh, b);
        // Merging an empty snapshot is a no-op.
        let mut unchanged = a.clone();
        unchanged.merge(&HistogramSnapshot::default());
        assert_eq!(unchanged, a);
    }

    #[test]
    fn renders_are_stable_and_parseable() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").add(2);
        reg.gauge("g").set(1.5);
        reg.histogram("h", &[1.0]).observe(0.5);
        let snap = reg.snapshot();
        let text = snap.render_text();
        // Sorted by name: "a" before "b".
        assert!(text.find("counter   a").unwrap() < text.find("counter   b").unwrap());
        let json = snap.to_json();
        let v = crate::json::parse(&json).expect("snapshot JSON parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
    }
}
