//! Simulation-wide statistics: counters and log-bucketed histograms,
//! written through interned metric handles.
//!
//! Each metric is a `static` [`Metric`] handle that names its key and
//! kind, e.g. `static FRAMES: Metric = Metric::counter("net.switch.frames")`.
//! The first write through a handle interns its name once per process to
//! a dense id, so every later `ctx.stats().add(&FRAMES, 1)` is a `Vec`
//! index. Names come back only at export ([`Stats::counter`],
//! [`Stats::counters`] in name order, ...), so the interning order, which
//! depends on which code ran first, never shows. Keys are free-form but
//! the convention is `"<layer>.<component>.<metric>"`; two handles with
//! one name share one cell.
//!
//! Every instrument is integer-only, so writes from sim-visible paths
//! cannot leak platform-dependent rounding back into the timeline.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// What a [`Metric`] measures; each kind has its own dense id space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Histogram,
}

/// Sentinel id of a handle that has not been interned yet.
const UNINTERNED: u32 = u32::MAX;

/// A named metric handle. Declare it `static` so it interns once: a
/// `const` would be a fresh, uninterned copy at every use.
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    kind: Kind,
    /// Dense id among metrics of this kind, or [`UNINTERNED`]. It caches
    /// what the registry's mutex publishes, so `Relaxed` suffices.
    id: AtomicU32,
}

impl Metric {
    /// A monotonic counter ([`Stats::add`]).
    pub const fn counter(name: &'static str) -> Metric {
        Metric::new(name, Kind::Counter)
    }

    /// A log2-bucketed histogram ([`Stats::observe`]).
    pub const fn histogram(name: &'static str) -> Metric {
        Metric::new(name, Kind::Histogram)
    }

    const fn new(name: &'static str, kind: Kind) -> Metric {
        let id = AtomicU32::new(UNINTERNED);
        Metric { name, kind, id }
    }

    /// The handle's dense id, interning its name on first use.
    ///
    /// # Panics
    ///
    /// Panics if the handle is not a `kind`, or if its name is already
    /// registered as another kind.
    #[inline]
    fn id(&self, kind: Kind) -> usize {
        assert!(self.kind == kind, "metric {} used as a {kind:?}", self.name);
        match self.id.load(Ordering::Relaxed) {
            UNINTERNED => self.intern(),
            id => id as usize,
        }
    }

    #[cold]
    #[inline(never)]
    fn intern(&self) -> usize {
        let mut reg = registry();
        match reg.iter().find(|e| e.0 == self.name) {
            Some(&(_, kind)) => assert!(
                kind == self.kind,
                "metric {} registered as a {kind:?} and a {:?}",
                self.name,
                self.kind
            ),
            None => reg.push((self.name, self.kind)),
        }
        let id = id_in(&reg, self.name, self.kind).expect("name just interned");
        self.id.store(id as u32, Ordering::Relaxed);
        id
    }
}

/// Every interned metric as `(name, kind)`, in interning order; a name's
/// id is its rank among the entries of its kind.
static REGISTRY: Mutex<Vec<(&'static str, Kind)>> = Mutex::new(Vec::new());

/// Locks the registry. Its one update is a push, which leaves it valid at
/// every step, so a guard poisoned by a kind-clash panic is taken over.
fn registry() -> MutexGuard<'static, Vec<(&'static str, Kind)>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The id of `name` as a `kind`, if it is registered as one.
fn id_in(reg: &[(&'static str, Kind)], name: &str, kind: Kind) -> Option<usize> {
    let mut of_kind = reg.iter().filter(|e| e.1 == kind);
    of_kind.position(|e| e.0 == name)
}

/// The cell of `id` in a dense array, created at its default if absent.
#[inline]
fn cell<T: Clone + Default>(cells: &mut Vec<Option<T>>, id: usize) -> &mut T {
    if id >= cells.len() {
        cells.resize(id + 1, None);
    }
    cells[id].get_or_insert_with(T::default)
}

/// The cell of `key` as a `kind`, if it was ever written.
fn lookup<'a, T>(cells: &'a [Option<T>], key: &str, kind: Kind) -> Option<&'a T> {
    let id = id_in(&registry(), key, kind)?;
    cells.get(id)?.as_ref()
}

/// The written cells of a `kind` as `(name, value)`, in name order.
fn named<T>(cells: &[Option<T>], kind: Kind) -> std::vec::IntoIter<(&'static str, &T)> {
    let reg = registry();
    let names = reg.iter().filter(|e| e.1 == kind).map(|e| e.0);
    let written = names.zip(cells).filter_map(|(n, c)| Some((n, c.as_ref()?)));
    let mut out: Vec<_> = written.collect();
    out.sort_by_key(|&(name, _)| name);
    out.into_iter()
}

/// One set of metric values, dense by id: a run's totals inside
/// [`Stats`], or the counter *deltas* and histogram observations that
/// landed while simulated time sat inside one fixed-width window
/// ([`Stats::enable_windows`]). A cell exists once written, even by a
/// zero-delta add.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    counters: Vec<Option<u64>>,
    histograms: Vec<Option<Histogram>>,
}

impl WindowSnapshot {
    /// Iterates over the written counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        named(&self.counters, Kind::Counter).map(|(k, &v)| (k, v))
    }

    /// Iterates over the written histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        named(&self.histograms, Kind::Histogram)
    }
}

/// A run's metrics: the cumulative values plus, when windowing is on,
/// one [`WindowSnapshot`] per non-empty sim-time window.
#[derive(Default, Debug, Clone)]
pub struct Stats {
    total: WindowSnapshot,
    /// Fixed window width in picoseconds; zero means windowing is off.
    window_width_ps: u64,
    /// Last simulated time stamped by the scheduling context (raw ps;
    /// only ever consumed by integer division, never free arithmetic).
    now_ps: u64,
    /// Non-empty windows in ascending index order. Stamps never go back
    /// in time, so a write lands in the last window or opens a new one.
    windows: Vec<(u64, WindowSnapshot)>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables fixed-width sim-time windowing: every subsequent counter
    /// add and histogram observation is *additionally* routed into the
    /// [`WindowSnapshot`] of the window containing the simulated time
    /// last stamped by the scheduling context. The cumulative values are
    /// unchanged. Call before the run starts so the whole timeline is
    /// covered.
    pub fn enable_windows(&mut self, width: Dur) {
        assert!(width.as_ps() > 0, "zero-width metric window");
        self.window_width_ps = width.as_ps();
    }

    /// The configured window width, if windowing is enabled.
    pub fn window_width(&self) -> Option<Dur> {
        (self.window_width_ps > 0).then(|| Dur::from_ps(self.window_width_ps))
    }

    /// Stamps the current simulated time so subsequent instrument writes
    /// land in the right window. Called by `Ctx::stats()`; the kernel's
    /// end-of-run writes land in the last stamped window.
    pub(crate) fn stamp_now(&mut self, now: Time) {
        self.now_ps = now.as_ps();
    }

    /// Iterates over all non-empty windows in index order.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &WindowSnapshot)> {
        self.windows.iter().map(|(k, v)| (*k, v))
    }

    /// Applies `write` to the totals and, when windowing is on, to the
    /// window of the last stamped time.
    #[inline]
    fn write(&mut self, mut write: impl FnMut(&mut WindowSnapshot)) {
        write(&mut self.total);
        if self.window_width_ps == 0 {
            return;
        }
        let idx = self.now_ps / self.window_width_ps;
        if self.windows.last().is_none_or(|w| w.0 != idx) {
            self.windows.push((idx, WindowSnapshot::default()));
        }
        let (_, live) = self.windows.last_mut().expect("window just ensured");
        write(live);
    }

    /// Adds `delta` to counter `m`, creating it at zero if absent.
    #[inline]
    pub fn add(&mut self, m: &Metric, delta: u64) {
        let id = m.id(Kind::Counter);
        self.write(|s| *cell(&mut s.counters, id) += delta);
    }

    /// Records `value` into the log2-bucketed histogram `m`.
    #[inline]
    pub fn observe(&mut self, m: &Metric, value: u64) {
        let id = m.id(Kind::Histogram);
        self.write(|s| cell(&mut s.histograms, id).observe(value));
    }

    /// Current value of counter `key` (zero if never written).
    pub fn counter(&self, key: &str) -> u64 {
        lookup(&self.total.counters, key, Kind::Counter).map_or(0, |&v| v)
    }

    /// The histogram under `key`, if any observation was made.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        lookup(&self.total.histograms, key, Kind::Histogram)
    }

    /// Iterates over all written counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.total.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-wide and tests run on parallel threads, so
    // every test names its own metrics.

    #[test]
    fn counters_accumulate() {
        static PKTS: Metric = Metric::counter("test.accumulate.pkts");
        let mut s = Stats::new();
        s.add(&PKTS, 3);
        s.add(&PKTS, 4);
        assert_eq!(s.counter("test.accumulate.pkts"), 7);
        assert_eq!(s.counter("test.accumulate.absent"), 0);
    }

    #[test]
    fn two_handles_with_one_name_share_one_cell() {
        static A: Metric = Metric::counter("test.shared.bytes");
        static B: Metric = Metric::counter("test.shared.bytes");
        let mut s = Stats::new();
        s.add(&A, 2);
        s.add(&B, 5);
        assert_eq!(s.counter("test.shared.bytes"), 7);
        assert_eq!(A.id(Kind::Counter), B.id(Kind::Counter));
        let shared = s.counters().filter(|(k, _)| *k == "test.shared.bytes");
        assert_eq!(shared.count(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as a Counter and a Histogram")]
    fn one_name_cannot_be_a_counter_and_a_histogram() {
        static C: Metric = Metric::counter("test.clash.lat");
        static H: Metric = Metric::histogram("test.clash.lat");
        let mut s = Stats::new();
        s.add(&C, 1);
        s.observe(&H, 1);
    }

    #[test]
    fn a_zero_delta_write_makes_the_key_appear() {
        static FAULTS: Metric = Metric::counter("test.zero.faults");
        let mut s = Stats::new();
        assert!(s.counters().all(|(k, _)| k != "test.zero.faults"));
        s.add(&FAULTS, 0);
        assert!(s.counters().any(|kv| kv == ("test.zero.faults", 0)));
    }

    #[test]
    fn export_is_in_name_order_whatever_the_interning_order() {
        static Z: Metric = Metric::counter("test.order.z");
        static A: Metric = Metric::counter("test.order.a");
        static M: Metric = Metric::counter("test.order.m");
        let mut s = Stats::new();
        for (m, v) in [(&Z, 1), (&A, 2), (&M, 3)] {
            s.add(m, v);
        }
        let ours: Vec<_> = s
            .counters()
            .filter(|(k, _)| k.starts_with("test.order."))
            .collect();
        assert_eq!(
            ours,
            [
                ("test.order.a", 2),
                ("test.order.m", 3),
                ("test.order.z", 1)
            ]
        );
        let all: Vec<_> = s.counters().map(|(k, _)| k).collect();
        assert!(all.is_sorted());
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
        static DEPTH: Metric = Metric::histogram("test.hist.depth");
        let mut s = Stats::new();
        s.observe(&DEPTH, 3);
        s.observe(&DEPTH, 9);
        let h = s.histogram("test.hist.depth").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(9));
        assert!(s.histogram("test.hist.absent").is_none());
        assert_eq!(s.counter("test.hist.depth"), 0, "not a counter");
    }

    #[test]
    fn windows_route_by_stamped_time() {
        static PKTS: Metric = Metric::counter("test.window.pkts");
        static LAT: Metric = Metric::histogram("test.window.lat");
        let mut s = Stats::new();
        s.enable_windows(Dur::from_ps(100));
        s.stamp_now(Time::from_ps(10));
        s.add(&PKTS, 2);
        s.observe(&LAT, 8);
        s.stamp_now(Time::from_ps(250));
        s.add(&PKTS, 5);
        s.observe(&LAT, 32);
        // Cumulative view is unchanged by windowing.
        assert_eq!(s.counter("test.window.pkts"), 7);
        assert_eq!(s.histogram("test.window.lat").unwrap().count(), 2);
        // Window 0 holds the first batch, window 2 the second, window 1
        // never materializes.
        let w: Vec<_> = s.windows().collect();
        assert_eq!(w.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(
            w[0].1.counters().collect::<Vec<_>>(),
            [("test.window.pkts", 2)]
        );
        assert_eq!(
            w[1].1.counters().collect::<Vec<_>>(),
            [("test.window.pkts", 5)]
        );
        let (name, h) = w[0].1.histograms().next().unwrap();
        assert_eq!((name, h.max()), ("test.window.lat", Some(8)));
    }
}
