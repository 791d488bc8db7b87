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

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// Sentinel epoch for a bucket that holds no data.
const EMPTY: u64 = u64::MAX;

/// One ring bucket: the aggregate of every observation whose timestamp
/// fell into this bucket's time slice.
#[derive(Clone, Debug)]
struct Bucket {
    /// `floor(t / bucket_width)` of the slice this bucket currently
    /// holds; [`EMPTY`] when unused or aged out and not yet reused.
    epoch: u64,
    /// Values summed into this slice: counter deltas, gauge samples and
    /// histogram sums.
    sum: f64,
    /// Histogram mass observed in this slice.
    hist: HistogramSnapshot,
}

impl Bucket {
    fn empty() -> Bucket {
        Bucket {
            epoch: EMPTY,
            sum: 0.0,
            hist: HistogramSnapshot::default(),
        }
    }
}

/// One named windowed series: a ring of `Bucket`s plus the most recent
/// value, which never ages out.
#[derive(Clone, Debug)]
struct Series {
    bucket_w: f64,
    buckets: Vec<Bucket>,
    /// Most recent value ever recorded (outlives the window).
    last_value: f64,
}

impl Series {
    fn new(window_s: f64, resolution: usize) -> Series {
        let resolution = resolution.max(1);
        Series {
            bucket_w: (window_s / resolution as f64).max(f64::MIN_POSITIVE),
            buckets: vec![Bucket::empty(); resolution],
            last_value: 0.0,
        }
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
        self.last_value = v;
        self.bucket_at(t).sum += v;
    }

    fn record_hist(&mut self, t: f64, delta: &HistogramSnapshot) {
        if delta.count == 0 {
            return;
        }
        let b = self.bucket_at(t);
        b.hist.merge(delta);
        b.sum += delta.sum;
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
    fn window_sum(&self, t: f64) -> f64 {
        self.in_window(t).map(|b| b.sum).sum()
    }

    /// Windowed per-second rate (`window_sum / window_width`).
    fn rate(&self, t: f64) -> f64 {
        self.window_sum(t) / (self.bucket_w * self.buckets.len() as f64)
    }

    /// Merge of the histogram mass in the window ending at `t`.
    fn window_histogram(&self, t: f64) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for b in self.in_window(t) {
            merged.merge(&b.hist);
        }
        merged
    }

    /// Estimated `q`-quantile of the windowed histogram mass
    /// ([`HistogramSnapshot::quantile`] semantics).
    fn quantile(&self, q: f64, t: f64) -> Option<f64> {
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

    fn series_mut(&mut self, name: &str) -> &mut Series {
        let (window_s, resolution) = (self.window_s, self.resolution);
        self.series
            .entry(name.to_string())
            .or_insert_with(|| Series::new(window_s, resolution))
    }

    /// Record a counter delta at `t`.
    pub fn record_counter(&mut self, name: &str, t: f64, delta: f64) {
        self.series_mut(name).record(t, delta);
    }

    /// Record a gauge sample at `t`.
    pub fn record_gauge(&mut self, name: &str, t: f64, value: f64) {
        self.series_mut(name).record(t, value);
    }

    /// Record a histogram delta (new mass since the last record) at `t`.
    pub fn record_histogram(&mut self, name: &str, t: f64, delta: &HistogramSnapshot) {
        self.series_mut(name).record_hist(t, delta);
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
            let delta = h.since(self.prev.histograms.get(name));
            if delta.count > 0 || self.series.contains_key(name) {
                self.record_histogram(name, t, &delta);
            }
        }
        self.prev = snap.clone();
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
        self.series.get(name).map_or(0.0, |s| s.last_value)
    }

    /// Windowed `q`-quantile for histogram series `name` at `t`.
    pub fn quantile(&self, name: &str, q: f64, t: f64) -> Option<f64> {
        self.series.get(name).and_then(|s| s.quantile(q, t))
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
        // …and far enough out, nothing remains.
        assert_eq!(ts.sum("jobs", 5.0), 0.0);
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
    fn gauges_keep_their_last_value_past_the_window() {
        let mut ts = TimeSeriesStore::new(1.0, 10);
        ts.record_gauge("depth", 0.1, 5.0);
        ts.record_gauge("depth", 0.2, 1.0);
        ts.record_gauge("depth", 0.3, 3.0);
        assert_eq!(ts.last("depth"), 3.0);
        assert_eq!(ts.sum("depth", 0.3), 9.0);
        // The last value survives past the window; the samples do not.
        assert_eq!(ts.sum("depth", 10.0), 0.0);
        assert_eq!(ts.last("depth"), 3.0);
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
        let merged = ts.series["wait"].window_histogram(0.6);
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
        let observed = ts.series["service.queue_wait_s"]
            .window_histogram(0.2)
            .count;
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
        assert_eq!(ts.sum("g", 0.1), 0.0);
        assert_eq!(ts.last("g"), 0.0);
        assert_eq!(ts.sum("c", 0.1), 0.0);
    }
}
