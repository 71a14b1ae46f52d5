//! Simulation-wide statistics: typed counters, gauges, log-bucketed
//! histograms and sample series.
//!
//! Components record measurements under string keys; benchmark harnesses
//! read them back after a run to produce the paper's tables. Keys are
//! free-form but the convention is `"<node>.<component>.<metric>"`.
//!
//! Integer instruments ([`Stats::add`], [`Stats::set_gauge`],
//! [`Stats::observe`]) are float-free and safe to drive from sim-visible
//! paths; the `f64` sample series ([`Stats::record`]) is reserved for
//! harness-side post-processing where platform-dependent rounding cannot
//! leak back into the timeline.

use std::collections::BTreeMap;

use crate::time::{Dur, Time};

/// Number of log2 buckets in a [`Histogram`] (covers the full `u64` range).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// An integer-only, log2-bucketed histogram.
///
/// Bucket `i` counts observations whose value needs `i` bits — bucket 0
/// holds zeros, bucket 1 holds `1`, bucket 2 holds `2..=3`, and so on —
/// so queue depths, byte counts and cycle counts over many orders of
/// magnitude stay cheap and deterministic (no floats anywhere).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of `value`: the number of significant bits.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Lower bound of bucket `i` (inclusive).
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Integer mean (sum / count), or `None` if empty.
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// Upper-bound estimate of the `p`-th permille (0..=1000) observation:
    /// the inclusive upper bound of the first bucket whose cumulative count
    /// reaches the rank, clamped to the observed min/max. Integer-only.
    pub fn percentile_permille(&self, p: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (p.min(1000) * self.count).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let ceil = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return Some(ceil.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds `other`'s observations into this histogram, as if every one
    /// of them had been observed here.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(bucket floor, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_floor(i), n))
    }
}

/// One fixed-width sim-time window's worth of metric activity: the
/// counter *deltas*, last gauge writes, and histogram observations that
/// landed while simulated time sat inside the window. Integer-only and
/// deterministic; produced by [`Stats`] when windowing is enabled via
/// [`Stats::enable_windows`].
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl WindowSnapshot {
    /// Counter delta accumulated in this window (zero if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Last gauge write that landed in this window, if any.
    pub fn gauge(&self, key: &str) -> Option<i64> {
        self.gauges.get(key).copied()
    }

    /// Histogram of the observations that landed in this window, if any.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Iterates over this window's counter deltas in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over this window's gauge writes in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over this window's histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Applies `f` to the entry under `key`, created at its default if absent.
/// The key is copied into an owned `String` only on that first write.
fn update<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_owned()).or_default()),
    }
}

/// A set of named counters, gauges, histograms and sample series.
#[derive(Default, Debug, Clone)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<f64>>,
    /// Fixed window width in picoseconds; zero means windowing is off.
    window_width_ps: u64,
    /// Last simulated time stamped by the scheduling context (raw ps;
    /// only ever consumed by integer division, never free arithmetic).
    now_ps: u64,
    /// Per-window activity, keyed by window index `now / width`.
    windows: BTreeMap<u64, WindowSnapshot>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables fixed-width sim-time windowing: every subsequent counter
    /// add, gauge write, and histogram observation is *additionally*
    /// routed into the [`WindowSnapshot`] of the window containing the
    /// simulated time last stamped by the scheduling context. The
    /// cumulative registry is unchanged. Call before the run starts so
    /// the whole timeline is covered.
    pub fn enable_windows(&mut self, width: Dur) {
        assert!(width.as_ps() > 0, "zero-width metric window");
        self.window_width_ps = width.as_ps();
    }

    /// The configured window width, if windowing is enabled.
    pub fn window_width(&self) -> Option<Dur> {
        (self.window_width_ps > 0).then(|| Dur::from_ps(self.window_width_ps))
    }

    /// Stamps the current simulated time so subsequent instrument writes
    /// land in the right window. Called by `Ctx::stats()`; harness code
    /// writing through `Simulator::stats_mut` after a run lands in the
    /// last stamped window.
    pub(crate) fn stamp_now(&mut self, now: Time) {
        self.now_ps = now.as_ps();
    }

    /// Index of the window the last stamped time falls in (`None` when
    /// windowing is off).
    pub fn current_window(&self) -> Option<u64> {
        (self.window_width_ps > 0).then(|| self.now_ps / self.window_width_ps)
    }

    /// The recorded activity of window `idx`, if anything landed there.
    pub fn window(&self, idx: u64) -> Option<&WindowSnapshot> {
        self.windows.get(&idx)
    }

    /// Iterates over all non-empty windows in index order.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &WindowSnapshot)> {
        self.windows.iter().map(|(k, v)| (*k, v))
    }

    /// Start time of window `idx` (meaningful only when windowing is on).
    pub fn window_start(&self, idx: u64) -> Time {
        Time::ZERO + Dur::from_ps(self.window_width_ps) * idx
    }

    fn live_window(&mut self) -> Option<&mut WindowSnapshot> {
        if self.window_width_ps == 0 {
            return None;
        }
        let idx = self.now_ps / self.window_width_ps;
        Some(self.windows.entry(idx).or_default())
    }

    /// Adds `delta` to counter `key`, creating it at zero if absent.
    pub fn add(&mut self, key: &str, delta: u64) {
        update(&mut self.counters, key, |c| *c += delta);
        if let Some(w) = self.live_window() {
            update(&mut w.counters, key, |c| *c += delta);
        }
    }

    /// Current value of counter `key` (zero if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sets gauge `key` to `value` (last write wins).
    pub fn set_gauge(&mut self, key: &str, value: i64) {
        update(&mut self.gauges, key, |g| *g = value);
        if let Some(w) = self.live_window() {
            update(&mut w.gauges, key, |g| *g = value);
        }
    }

    /// Current value of gauge `key`, if ever set.
    pub fn gauge(&self, key: &str) -> Option<i64> {
        self.gauges.get(key).copied()
    }

    /// Records `value` into the log2-bucketed histogram `key`.
    pub fn observe(&mut self, key: &str, value: u64) {
        update(&mut self.histograms, key, |h| h.observe(value));
        if let Some(w) = self.live_window() {
            update(&mut w.histograms, key, |h| h.observe(value));
        }
    }

    /// The histogram under `key`, if any observation was made.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Appends a sample to series `key`.
    pub fn record(&mut self, key: &str, value: f64) {
        update(&mut self.series, key, |s| s.push(value));
    }

    /// All samples recorded under `key`.
    pub fn samples(&self, key: &str) -> &[f64] {
        self.series.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Mean of the samples under `key`, or `None` if empty.
    pub fn mean(&self, key: &str) -> Option<f64> {
        let s = self.samples(key);
        if s.is_empty() {
            None
        } else {
            Some(s.iter().sum::<f64>() / s.len() as f64)
        }
    }

    /// The `p` percentile (0.0..=100.0) of samples under `key`.
    ///
    /// Uses `total_cmp`, so NaN samples sort to the end (IEEE 754 total
    /// order) instead of panicking mid-report.
    pub fn percentile(&self, key: &str, p: f64) -> Option<f64> {
        let mut s: Vec<f64> = self.samples(key).to_vec();
        if s.is_empty() {
            return None;
        }
        s.sort_by(|a, b| a.total_cmp(b));
        let rank = (p / 100.0 * (s.len() - 1) as f64).round() as usize;
        Some(s[rank.min(s.len() - 1)])
    }

    /// Maximum sample under `key`.
    pub fn max_sample(&self, key: &str) -> Option<f64> {
        self.samples(key)
            .iter()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Iterates over all counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over all gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over all histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over all series names in key order.
    pub fn series_keys(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Clears all counters, gauges, histograms and series (e.g. between
    /// sweep points).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
        self.series.clear();
        self.windows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.add("pkts", 3);
        s.add("pkts", 4);
        assert_eq!(s.counter("pkts"), 7);
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    fn series_statistics() {
        let mut s = Stats::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.record("lat", v);
        }
        assert_eq!(s.samples("lat").len(), 4);
        assert_eq!(s.mean("lat"), Some(2.5));
        assert_eq!(s.percentile("lat", 0.0), Some(1.0));
        assert_eq!(s.percentile("lat", 100.0), Some(4.0));
        assert_eq!(s.max_sample("lat"), Some(4.0));
        assert_eq!(s.mean("absent"), None);
    }

    #[test]
    fn percentile_handles_negative_duplicate_and_nan_samples() {
        let mut s = Stats::new();
        for v in [-3.0, -3.0, 0.0, 2.0, 2.0, -7.5] {
            s.record("lat", v);
        }
        assert_eq!(s.percentile("lat", 0.0), Some(-7.5));
        // Six samples sorted: [-7.5, -3, -3, 0, 2, 2]; rank(50%) = 3.
        assert_eq!(s.percentile("lat", 50.0), Some(0.0));
        assert_eq!(s.percentile("lat", 100.0), Some(2.0));
        // A NaN sample must not panic; total order sorts it last.
        s.record("lat", f64::NAN);
        assert_eq!(s.percentile("lat", 0.0), Some(-7.5));
        assert!(s.percentile("lat", 100.0).unwrap().is_nan());
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut s = Stats::new();
        assert_eq!(s.gauge("depth"), None);
        s.set_gauge("depth", 4);
        s.set_gauge("depth", -1);
        assert_eq!(s.gauge("depth"), Some(-1));
        assert_eq!(s.gauges().collect::<Vec<_>>(), vec![("depth", -1)]);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_001_010);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1_000_000));
        assert_eq!(h.mean(), Some(1_001_010 / 7));
        assert_eq!(h.percentile_permille(0), Some(0));
        assert_eq!(h.percentile_permille(1000), Some(1_000_000));
        // Buckets: 0 -> [0], 1 -> [1], 2..=3 -> bucket floor 2, 4 -> 4.
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert!(buckets.contains(&(0, 1)));
        assert!(buckets.contains(&(2, 2)));
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(64), 1u64 << 63);
    }

    #[test]
    fn stats_histogram_registry() {
        let mut s = Stats::new();
        s.observe("q.depth", 3);
        s.observe("q.depth", 9);
        let h = s.histogram("q.depth").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(9));
        assert!(s.histogram("absent").is_none());
        assert_eq!(s.histograms().count(), 1);
    }

    #[test]
    fn windows_route_by_stamped_time() {
        let mut s = Stats::new();
        s.enable_windows(Dur::from_ps(100));
        s.stamp_now(Time::from_ps(10));
        s.add("pkts", 2);
        s.observe("lat", 8);
        s.set_gauge("depth", 1);
        s.stamp_now(Time::from_ps(250));
        s.add("pkts", 5);
        s.observe("lat", 32);
        s.set_gauge("depth", 7);
        // Cumulative view is unchanged by windowing.
        assert_eq!(s.counter("pkts"), 7);
        assert_eq!(s.histogram("lat").unwrap().count(), 2);
        // Window 0 holds the first batch, window 2 the second, window 1
        // never materializes.
        let w0 = s.window(0).unwrap();
        assert_eq!(w0.counter("pkts"), 2);
        assert_eq!(w0.gauge("depth"), Some(1));
        assert_eq!(w0.histogram("lat").unwrap().max(), Some(8));
        assert!(s.window(1).is_none());
        let w2 = s.window(2).unwrap();
        assert_eq!(w2.counter("pkts"), 5);
        assert_eq!(w2.gauge("depth"), Some(7));
        assert_eq!(s.windows().count(), 2);
        assert_eq!(s.window_start(2), Time::from_ps(200));
        assert_eq!(s.current_window(), Some(2));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = Stats::new();
        s.add("a", 1);
        s.record("b", 1.0);
        s.set_gauge("c", 2);
        s.observe("d", 3);
        s.reset();
        assert_eq!(s.counter("a"), 0);
        assert!(s.samples("b").is_empty());
        assert_eq!(s.gauge("c"), None);
        assert!(s.histogram("d").is_none());
    }
}
