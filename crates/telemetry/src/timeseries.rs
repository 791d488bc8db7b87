//! Windowed time series over the virtual clock: sliding-window counters,
//! gauges, and mergeable histograms with quantile estimation.
//!
//! The simulator's registry ([`crate::metrics`]) answers *lifetime*
//! questions ("how many pairs were shuffled?"); this module answers
//! *recent* ones ("what was the p99 queue wait over the last window?").
//! A [`TimeSeriesStore`] divides a sliding window of `window_s` simulated
//! seconds into a fixed ring of buckets; every observation lands in the
//! bucket covering its timestamp and ages out when the ring wraps past
//! it. All timestamps are virtual, so feeding the store at deterministic
//! event boundaries yields bit-identical windows on every run.
//!
//! The store is fed either directly ([`TimeSeriesStore::record_counter`]
//! and friends) or — the usual path — by [`TimeSeriesStore::collect`],
//! which diffs a fresh [`MetricsSnapshot`] against the previous collect
//! and routes counter/histogram deltas and gauge last-values into the
//! ring. Callers that keep the store behind an `Option` pay nothing when
//! observability is off: no store, no collect, no cost.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// How a series aggregates observations within a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotone deltas; windowed queries sum them (and derive rates).
    Counter,
    /// Last-value samples; windowed queries track last/min/max.
    Gauge,
    /// Bucketed distributions; windowed queries merge the per-bucket
    /// histograms and estimate quantiles over the merge.
    Histogram,
}

impl SeriesKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }
}

/// Sentinel epoch for a bucket that holds no data.
const EMPTY: u64 = u64::MAX;

/// One ring bucket: the aggregate of every observation whose timestamp
/// fell into this bucket's time slice.
#[derive(Clone, Debug)]
struct Bucket {
    /// `floor(t / bucket_width)` of the slice this bucket currently
    /// holds; [`EMPTY`] when unused or aged out and not yet reused.
    epoch: u64,
    /// Counter deltas summed into this slice.
    sum: f64,
    /// Gauge extremes and last value within this slice.
    min: f64,
    max: f64,
    last: f64,
    /// Observations in this slice.
    n: u64,
    /// Histogram mass observed in this slice.
    hist: HistogramSnapshot,
}

impl Bucket {
    fn empty() -> Bucket {
        Bucket {
            epoch: EMPTY,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
            n: 0,
            hist: HistogramSnapshot::default(),
        }
    }
}

/// One named windowed series (a ring of `Bucket`s plus lifetime
/// aggregates that never age out).
#[derive(Clone, Debug)]
pub struct Series {
    kind: SeriesKind,
    bucket_w: f64,
    buckets: Vec<Bucket>,
    /// Lifetime total of counter deltas / observation count.
    total: f64,
    /// Most recent gauge value ever recorded (outlives the window).
    last_value: f64,
}

impl Series {
    fn new(kind: SeriesKind, window_s: f64, resolution: usize) -> Series {
        let resolution = resolution.max(1);
        Series {
            kind,
            bucket_w: (window_s / resolution as f64).max(f64::MIN_POSITIVE),
            buckets: vec![Bucket::empty(); resolution],
            total: 0.0,
            last_value: 0.0,
        }
    }

    /// What kind of series this is.
    pub fn kind(&self) -> SeriesKind {
        self.kind
    }

    fn epoch_of(&self, t: f64) -> u64 {
        (t.max(0.0) / self.bucket_w) as u64
    }

    /// The bucket covering `t`, reset if the ring has wrapped past its
    /// previous tenant.
    fn bucket_at(&mut self, t: f64) -> &mut Bucket {
        let epoch = self.epoch_of(t);
        let slot = (epoch % self.buckets.len() as u64) as usize;
        let b = &mut self.buckets[slot];
        if b.epoch != epoch {
            *b = Bucket::empty();
            b.epoch = epoch;
        }
        b
    }

    fn record(&mut self, t: f64, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.total += match self.kind {
            SeriesKind::Counter => v,
            _ => 1.0,
        };
        self.last_value = v;
        let b = self.bucket_at(t);
        b.sum += v;
        b.min = b.min.min(v);
        b.max = b.max.max(v);
        b.last = v;
        b.n += 1;
    }

    fn record_hist(&mut self, t: f64, delta: &HistogramSnapshot) {
        if delta.count == 0 {
            return;
        }
        self.total += delta.count as f64;
        let b = self.bucket_at(t);
        b.hist.merge(delta);
        b.sum += delta.sum;
        b.n += delta.count;
    }

    /// Buckets still inside the window ending at `t`: epochs in
    /// `(epoch(t) - resolution, epoch(t)]`.
    fn in_window(&self, t: f64) -> impl Iterator<Item = &Bucket> {
        let end = self.epoch_of(t);
        let len = self.buckets.len() as u64;
        let start = end.saturating_sub(len - 1);
        self.buckets
            .iter()
            .filter(move |b| b.epoch != EMPTY && b.epoch >= start && b.epoch <= end)
    }

    /// Sum of observations in the window ending at `t`.
    pub fn window_sum(&self, t: f64) -> f64 {
        self.in_window(t).map(|b| b.sum).sum()
    }

    /// Windowed per-second rate (`window_sum / window_width`).
    pub fn rate(&self, t: f64) -> f64 {
        self.window_sum(t) / (self.bucket_w * self.buckets.len() as f64)
    }

    /// Smallest gauge sample in the window, `None` when no samples.
    pub fn window_min(&self, t: f64) -> Option<f64> {
        self.in_window(t)
            .filter(|b| b.n > 0)
            .map(|b| b.min)
            .fold(None, |a, v| Some(a.map_or(v, |a: f64| a.min(v))))
    }

    /// Largest gauge sample in the window, `None` when no samples.
    pub fn window_max(&self, t: f64) -> Option<f64> {
        self.in_window(t)
            .filter(|b| b.n > 0)
            .map(|b| b.max)
            .fold(None, |a, v| Some(a.map_or(v, |a: f64| a.max(v))))
    }

    /// Most recent value ever recorded (gauges; survives the window).
    pub fn last(&self) -> f64 {
        self.last_value
    }

    /// Lifetime total (counter deltas, or observation count otherwise).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Merge of the histogram mass in the window ending at `t`.
    pub fn window_histogram(&self, t: f64) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for b in self.in_window(t) {
            merged.merge(&b.hist);
        }
        merged
    }

    /// Estimated `q`-quantile of the windowed histogram mass
    /// ([`HistogramSnapshot::quantile`] semantics).
    pub fn quantile(&self, q: f64, t: f64) -> Option<f64> {
        self.window_histogram(t).quantile(q)
    }
}

/// A named collection of windowed series sharing one window geometry.
#[derive(Clone, Debug)]
pub struct TimeSeriesStore {
    window_s: f64,
    resolution: usize,
    prev: MetricsSnapshot,
    series: BTreeMap<String, Series>,
}

impl TimeSeriesStore {
    /// A store whose window spans `window_s` simulated seconds, divided
    /// into `resolution` ring buckets.
    pub fn new(window_s: f64, resolution: usize) -> TimeSeriesStore {
        TimeSeriesStore {
            window_s: window_s.max(f64::MIN_POSITIVE),
            resolution: resolution.max(1),
            prev: MetricsSnapshot::default(),
            series: BTreeMap::new(),
        }
    }

    /// The window width in simulated seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    fn series_mut(&mut self, name: &str, kind: SeriesKind) -> &mut Series {
        let (window_s, resolution) = (self.window_s, self.resolution);
        self.series
            .entry(name.to_string())
            .or_insert_with(|| Series::new(kind, window_s, resolution))
    }

    /// Record a counter delta at `t`.
    pub fn record_counter(&mut self, name: &str, t: f64, delta: f64) {
        self.series_mut(name, SeriesKind::Counter).record(t, delta);
    }

    /// Record a gauge sample at `t`.
    pub fn record_gauge(&mut self, name: &str, t: f64, value: f64) {
        self.series_mut(name, SeriesKind::Gauge).record(t, value);
    }

    /// Record a histogram delta (new mass since the last record) at `t`.
    pub fn record_histogram(&mut self, name: &str, t: f64, delta: &HistogramSnapshot) {
        self.series_mut(name, SeriesKind::Histogram)
            .record_hist(t, delta);
    }

    /// Feed a registry snapshot taken at event boundary `t`: counters and
    /// histograms contribute their delta against the previous `collect`,
    /// gauges contribute their current value. Deterministic given a
    /// deterministic snapshot sequence.
    pub fn collect(&mut self, t: f64, snap: &MetricsSnapshot) {
        for (name, &v) in &snap.counters {
            let delta = v.saturating_sub(self.prev.counter(name));
            if delta > 0 || self.series.contains_key(name) {
                self.record_counter(name, t, delta as f64);
            }
        }
        for (name, &v) in &snap.gauges {
            self.record_gauge(name, t, v);
        }
        for (name, h) in &snap.histograms {
            let mut delta = h.clone();
            if let Some(e) = self.prev.histograms.get(name) {
                if e.bounds == delta.bounds {
                    for (c, &ec) in delta.counts.iter_mut().zip(&e.counts) {
                        *c = c.saturating_sub(ec);
                    }
                    delta.count = delta.count.saturating_sub(e.count);
                    let d = delta.sum - e.sum;
                    delta.sum = if d.is_finite() { d.max(0.0) } else { 0.0 };
                }
            }
            if delta.count > 0 || self.series.contains_key(name) {
                self.record_histogram(name, t, &delta);
            }
        }
        self.prev = snap.clone();
    }

    /// The series named `name`, if any observation created it.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Windowed sum for `name` at `t` (zero for unknown series).
    pub fn sum(&self, name: &str, t: f64) -> f64 {
        self.series.get(name).map_or(0.0, |s| s.window_sum(t))
    }

    /// Windowed per-second rate for `name` at `t` (zero for unknown
    /// series).
    pub fn rate(&self, name: &str, t: f64) -> f64 {
        self.series.get(name).map_or(0.0, |s| s.rate(t))
    }

    /// Last recorded value for `name` (zero for unknown series).
    pub fn last(&self, name: &str) -> f64 {
        self.series.get(name).map_or(0.0, Series::last)
    }

    /// Windowed `q`-quantile for histogram series `name` at `t`.
    pub fn quantile(&self, name: &str, q: f64, t: f64) -> Option<f64> {
        self.series.get(name).and_then(|s| s.quantile(q, t))
    }

    /// Series names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Stable JSON rendering of every series' windowed state at `t`.
    pub fn to_value(&self, t: f64) -> Value {
        let series = self
            .series
            .iter()
            .map(|(name, s)| {
                let mut fields = vec![
                    ("kind".into(), Value::str(s.kind().name())),
                    ("total".into(), Value::Num(s.total())),
                    ("window_sum".into(), Value::Num(s.window_sum(t))),
                    ("rate".into(), Value::Num(s.rate(t))),
                ];
                match s.kind() {
                    SeriesKind::Gauge => {
                        fields.push(("last".into(), Value::Num(s.last())));
                        if let (Some(lo), Some(hi)) = (s.window_min(t), s.window_max(t)) {
                            fields.push(("window_min".into(), Value::Num(lo)));
                            fields.push(("window_max".into(), Value::Num(hi)));
                        }
                    }
                    SeriesKind::Histogram => {
                        for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                            if let Some(v) = s.quantile(q, t) {
                                fields.push((label.into(), Value::Num(v)));
                            }
                        }
                    }
                    SeriesKind::Counter => {}
                }
                (name.clone(), Value::Obj(fields))
            })
            .collect();
        Value::Obj(vec![
            ("at_s".into(), Value::Num(t)),
            ("window_s".into(), Value::Num(self.window_s)),
            ("series".into(), Value::Obj(series)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn counters_age_out_of_the_window() {
        let mut ts = TimeSeriesStore::new(1.0, 10);
        ts.record_counter("jobs", 0.05, 3.0);
        ts.record_counter("jobs", 0.55, 2.0);
        assert_eq!(ts.sum("jobs", 0.6), 5.0);
        assert!((ts.rate("jobs", 0.6) - 5.0).abs() < 1e-12);
        // A window ending past 1.05 no longer covers the first bucket.
        assert_eq!(ts.sum("jobs", 1.2), 2.0);
        // …and far enough out, nothing remains — but the lifetime total
        // survives.
        assert_eq!(ts.sum("jobs", 5.0), 0.0);
        assert_eq!(ts.series("jobs").unwrap().total(), 5.0);
    }

    #[test]
    fn ring_reuse_resets_stale_buckets() {
        let mut ts = TimeSeriesStore::new(1.0, 4);
        ts.record_counter("c", 0.1, 1.0);
        // 2.1 maps onto the same ring slot as 0.1 (epoch 0 vs epoch 8).
        ts.record_counter("c", 2.1, 10.0);
        assert_eq!(ts.sum("c", 2.1), 10.0, "stale bucket must not leak");
    }

    #[test]
    fn gauges_track_last_min_max() {
        let mut ts = TimeSeriesStore::new(1.0, 10);
        ts.record_gauge("depth", 0.1, 5.0);
        ts.record_gauge("depth", 0.2, 1.0);
        ts.record_gauge("depth", 0.3, 3.0);
        assert_eq!(ts.last("depth"), 3.0);
        let s = ts.series("depth").unwrap();
        assert_eq!(s.window_min(0.3), Some(1.0));
        assert_eq!(s.window_max(0.3), Some(5.0));
        // The last value survives past the window; the extremes do not.
        assert_eq!(ts.last("depth"), 3.0);
        assert_eq!(s.window_max(10.0), None);
    }

    #[test]
    fn histogram_windows_merge_and_estimate_quantiles() {
        let mut ts = TimeSeriesStore::new(1.0, 10);
        let mk = |vals: &[f64]| {
            let reg = Registry::new();
            let h = reg.histogram("w", &[1.0, 2.0, 4.0]);
            for &v in vals {
                h.observe(v);
            }
            reg.snapshot().histograms["w"].clone()
        };
        ts.record_histogram("wait", 0.1, &mk(&[0.5, 0.6]));
        ts.record_histogram("wait", 0.5, &mk(&[3.0, 3.5]));
        let merged = ts.series("wait").unwrap().window_histogram(0.6);
        assert_eq!(merged.count, 4);
        let p99 = ts.quantile("wait", 0.99, 0.6).unwrap();
        assert!((2.0..=4.0).contains(&p99), "p99 {p99}");
        // After the early mass ages out only the slow half remains.
        let p50_late = ts.quantile("wait", 0.5, 1.4).unwrap();
        assert!(p50_late > 2.0, "p50 {p50_late}");
    }

    #[test]
    fn collect_diffs_against_previous_snapshot() {
        let reg = Registry::new();
        let c = reg.counter("service.jobs_completed");
        let g = reg.gauge("service.queue_depth");
        let h = reg.histogram("service.queue_wait_s", &[0.001, 0.01]);
        let mut ts = TimeSeriesStore::new(1.0, 10);

        c.add(2);
        g.set(3.0);
        h.observe(0.0005);
        ts.collect(0.1, &reg.snapshot());
        c.add(1);
        g.set(1.0);
        h.observe(0.005);
        ts.collect(0.2, &reg.snapshot());

        assert_eq!(ts.sum("service.jobs_completed", 0.2), 3.0);
        assert_eq!(ts.last("service.queue_depth"), 1.0);
        let w = ts.series("service.queue_wait_s").unwrap();
        let observed = w.window_histogram(0.2).count;
        assert_eq!(observed, 2, "histogram deltas, not totals");
        // Re-collecting the same snapshot adds nothing.
        ts.collect(0.3, &reg.snapshot());
        assert_eq!(ts.sum("service.jobs_completed", 0.3), 3.0);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut ts = TimeSeriesStore::new(1.0, 4);
        ts.record_gauge("g", 0.1, f64::NAN);
        ts.record_counter("c", 0.1, f64::INFINITY);
        assert!(ts.series("g").is_none_or(|s| s.window_min(0.1).is_none()));
        assert_eq!(ts.sum("c", 0.1), 0.0);
    }

    #[test]
    fn to_value_renders_stable_json() {
        let mut ts = TimeSeriesStore::new(1.0, 10);
        ts.record_counter("b", 0.1, 1.0);
        ts.record_gauge("a", 0.1, 2.0);
        let v = ts.to_value(0.2);
        let text = v.render();
        assert!(crate::json::parse(&text).is_ok());
        // BTreeMap ordering: "a" renders before "b".
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }
}
