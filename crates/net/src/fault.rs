//! Fault injection: frame drops, reordering, link-state schedules and
//! whole-node down windows (`[crash, restart)`, any number per node).
//!
//! The paper's UDP path is unreliable and its TCP POE must survive loss and
//! out-of-order delivery; these policies let tests and benchmarks inject
//! such conditions deterministically (by frame index, by simulated-time
//! window, or by crash time) or statistically (by probability, driven by
//! the simulation's seeded RNG). Everything here is a pure function of
//! `(frame index, simulated time, seeded RNG)`, so fault timelines replay
//! bit-for-bit under the same seed.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use accl_sim::time::{Dur, Time};

use crate::frame::{Frame, NodeAddr};

/// A predicate deciding whether a frame should be dropped.
pub type FramePredicate = Box<dyn Fn(&Frame) -> bool + Send>;

/// What the switch should do with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Forward normally.
    Forward,
    /// Silently drop.
    Drop,
    /// Forward, but add this much extra delay (causes reordering).
    Delay(Dur),
    /// Forward with a flipped FCS: the receiving POE sees a checksum
    /// mismatch and must discard the frame (transient bit corruption).
    Corrupt,
    /// Forward the frame *and* an identical copy right behind it
    /// (duplication, e.g. from a spurious retransmit in the fabric).
    Duplicate,
}

/// A list of `[down, up)` windows: the outages of a link, or the downtime
/// of a node (from a crash to its restart, `Time::MAX` if it never
/// restarts). While a window is open every frame through the link or
/// node is lost.
///
/// Windows are kept sorted by start time and disjoint, so membership is a
/// binary search regardless of how many windows a schedule describes.
#[derive(Debug, Default, Clone)]
pub struct LinkSchedule {
    /// Sorted, non-overlapping `[down, up)` windows.
    windows: Vec<(Time, Time)>,
}

impl LinkSchedule {
    /// An always-up link.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a `[from, until)` outage window. Windows may be added in any
    /// order; overlapping windows are merged.
    pub fn down(mut self, from: Time, until: Time) -> Self {
        assert!(from < until, "empty outage window");
        self.windows.push((from, until));
        self.windows.sort();
        // Merge overlaps so binary search sees disjoint windows.
        let mut merged: Vec<(Time, Time)> = Vec::with_capacity(self.windows.len());
        for (lo, hi) in self.windows.drain(..) {
            match merged.last_mut() {
                Some((_, prev_hi)) if lo <= *prev_hi => *prev_hi = (*prev_hi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        self.windows = merged;
        self
    }

    /// Goes down at `at` until a later [`LinkSchedule::up_at`]: opens
    /// `[at, Time::MAX)`. Inside a window it changes nothing; before one it
    /// moves that window's start to `at`.
    pub(crate) fn down_from(&mut self, at: Time) {
        let i = self.windows.partition_point(|&(lo, _)| lo <= at);
        if i == 0 || self.windows[i - 1].1 <= at {
            match self.windows.get_mut(i) {
                Some(next) => next.0 = at,
                None => self.windows.push((at, Time::MAX)),
            }
        }
    }

    /// Comes back up at `at`: ends there the window `at` falls strictly
    /// inside, if any.
    pub(crate) fn up_at(&mut self, at: Time) {
        let i = self.windows.partition_point(|&(lo, _)| lo < at);
        if let Some(window) = i.checked_sub(1).map(|i| &mut self.windows[i]) {
            window.1 = window.1.min(at);
        }
    }

    /// Whether the link is dark at time `t`.
    pub fn is_down(&self, t: Time) -> bool {
        // Last window starting at or before `t`.
        let i = self.windows.partition_point(|&(lo, _)| lo <= t);
        i > 0 && t < self.windows[i - 1].1
    }

    /// Whether this schedule contains no outage windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The sorted, disjoint `[down, up)` windows of this schedule.
    pub fn windows(&self) -> &[(Time, Time)] {
        &self.windows
    }
}

/// A `[from, until)` window during which a link is degraded — not dark,
/// but lossy and/or slower than its nominal rate. Composes with
/// [`LinkSchedule`]: an outage window (total loss) takes precedence over
/// any overlapping degradation.
///
/// Intensities are integers so degradations round-trip exactly through
/// the JSON repro format and hash/compare without float caveats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// Window start (inclusive).
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
    /// Extra i.i.d. frame loss while active, in parts per million.
    pub loss_ppm: u32,
    /// Residual link bandwidth in hundredths of Gb/s (e.g. `2_500` =
    /// 25 Gb/s); `0` means the window does not throttle. Throttling is
    /// modelled as an extra per-frame delay: the time the frame's wire
    /// bytes take at the residual rate (the nominal-rate serialization is
    /// still paid at the egress pipe).
    pub throttle_gbps_x100: u32,
}

/// A `[from, until)` window during which the fabric is split in two: the
/// nodes whose bit is set in `mask` can only reach each other, and likewise
/// for the nodes whose bit is clear. Frames crossing the cut are lost.
///
/// The mask is a plain `u64` bitmap over port numbers, so a partition is
/// `Copy`, hashes exactly, and round-trips through the integer-only JSON
/// repro format without any set encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Bitmap over node addresses: bit `n` set places `NodeAddr(n)` on
    /// side A, clear places it on side B.
    pub mask: u64,
    /// Window start (inclusive).
    pub from: Time,
    /// Window end (exclusive) — the instant the partition heals.
    pub until: Time,
}

impl Partition {
    /// Whether the partition is active at time `t`.
    pub fn active(&self, t: Time) -> bool {
        self.from <= t && t < self.until
    }

    /// Whether `src` and `dst` sit on opposite sides of the cut.
    pub fn severs(&self, src: NodeAddr, dst: NodeAddr) -> bool {
        let side = |a: NodeAddr| (self.mask >> (u64::from(a.0) & 63)) & 1;
        side(src) != side(dst)
    }
}

impl Degradation {
    /// Whether the window is active at time `t`.
    pub fn active(&self, t: Time) -> bool {
        self.from <= t && t < self.until
    }

    /// Extra loss probability while active.
    pub fn loss_probability(&self) -> f64 {
        f64::from(self.loss_ppm.min(1_000_000)) / 1e6
    }

    /// Extra serialization delay for a frame of `wire_bytes`, if the
    /// window throttles.
    pub fn throttle_delay(&self, wire_bytes: u64) -> Option<Dur> {
        (self.throttle_gbps_x100 > 0)
            .then(|| Dur::for_bytes_gbps(wire_bytes, f64::from(self.throttle_gbps_x100) / 100.0))
    }
}

/// A fault-injection policy applied to every frame traversing the switch.
///
/// # Determinism
///
/// [`FaultPlan::decide`] draws from the switch's seeded RNG *lazily*: a
/// draw happens only when the corresponding probability is nonzero (and
/// no earlier rule already decided the frame's fate). Installing a plan
/// whose probabilistic knobs are all zero therefore never perturbs the
/// RNG stream — explicit indices, windows and down nodes replay bit-for-bit
/// regardless of what other plans did to unrelated streams.
///
/// Probabilities assigned directly to the public fields are clamped into
/// `[0, 1]` at decision time; the constructors additionally assert the
/// range so typos fail fast.
#[derive(Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` of dropping any given frame.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` of delaying a frame by `reorder_delay`.
    pub reorder_probability: f64,
    /// Probability in `[0, 1]` of corrupting a frame (FCS flip).
    pub corrupt_probability: f64,
    /// Probability in `[0, 1]` of duplicating a frame.
    pub duplicate_probability: f64,
    /// Extra delay applied to reordered frames.
    pub reorder_delay: Dur,
    /// Explicit global frame indices to drop (deterministic loss).
    /// Sorted set: membership is O(log n) however long the schedule.
    pub drop_indices: BTreeSet<u64>,
    /// Explicit global frame indices to delay by `reorder_delay`.
    pub delay_indices: BTreeSet<u64>,
    /// Explicit global frame indices to corrupt (FCS flip).
    pub corrupt_indices: BTreeSet<u64>,
    /// Explicit global frame indices to duplicate.
    pub duplicate_indices: BTreeSet<u64>,
    /// Optional predicate; frames matching it are dropped.
    pub drop_if: Option<FramePredicate>,
    /// Per-port link outage schedules; frames whose source or destination
    /// link is dark are lost.
    pub link_schedules: BTreeMap<NodeAddr, LinkSchedule>,
    /// Per-port degradation windows (elevated loss / reduced bandwidth),
    /// kept sorted by window start. The first active window wins when
    /// windows overlap.
    pub degradations: BTreeMap<NodeAddr, Vec<Degradation>>,
    /// Per-node `[crash, restart)` down windows (`Time::MAX` if the node
    /// never restarts): while one is open the switch blackholes every
    /// frame to or from the node. At a restart the cluster fences the old
    /// epoch at the peers; the node reboots when it is readmitted.
    pub node_down: BTreeMap<NodeAddr, LinkSchedule>,
    /// Fabric partition windows: while active, frames crossing the bitmap
    /// cut are lost in both directions. Kept sorted by `(from, until,
    /// mask)` for canonical event order.
    pub partitions: Vec<Partition>,
    /// Overload fault: at `.1`, leak `.2` tx-window credits from node
    /// `.0`'s protocol engine (they are consumed and never returned,
    /// permanently shrinking the window — the canonical cause of a
    /// credit-starvation wedge). Not applied by [`FaultPlan::decide`];
    /// the cluster extracts these as control events at build time.
    pub credit_leaks: BTreeSet<(NodeAddr, Time, u32)>,
    /// Overload fault: at `.1`, pause node `.0`'s NIC for `.2` regardless
    /// of actual egress occupancy (a PFC pause storm). Extracted as
    /// control events, not applied by `decide`.
    pub pause_storms: BTreeSet<(NodeAddr, Time, Dur)>,
    /// Overload fault: at `.1`, shrink node `.0`'s bounded RX buffer pool
    /// to `.2` buffers. Extracted as control events, not applied by
    /// `decide`.
    pub buf_shrinks: BTreeSet<(NodeAddr, Time, u32)>,
}

fn assert_probability(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    p
}

impl FaultPlan {
    /// A policy that never interferes.
    pub fn none() -> Self {
        Self::default()
    }

    /// A policy dropping frames i.i.d. with probability `p`.
    pub fn random_loss(p: f64) -> Self {
        FaultPlan {
            drop_probability: assert_probability(p),
            ..Self::default()
        }
    }

    /// A policy corrupting frames i.i.d. with probability `p`.
    pub fn random_corruption(p: f64) -> Self {
        FaultPlan {
            corrupt_probability: assert_probability(p),
            ..Self::default()
        }
    }

    /// A policy corrupting exactly the frames with the given indices.
    pub fn corrupt_frames(indices: impl IntoIterator<Item = u64>) -> Self {
        FaultPlan {
            corrupt_indices: indices.into_iter().collect(),
            ..Self::default()
        }
    }

    /// A policy duplicating exactly the frames with the given indices.
    pub fn duplicate_frames(indices: impl IntoIterator<Item = u64>) -> Self {
        FaultPlan {
            duplicate_indices: indices.into_iter().collect(),
            ..Self::default()
        }
    }

    /// A policy dropping exactly the frames with the given global indices.
    pub fn drop_frames(indices: impl IntoIterator<Item = u64>) -> Self {
        FaultPlan {
            drop_indices: indices.into_iter().collect(),
            ..Self::default()
        }
    }

    /// A policy delaying the given frames by `delay` (forcing reordering).
    pub fn delay_frames(indices: impl IntoIterator<Item = u64>, delay: Dur) -> Self {
        FaultPlan {
            delay_indices: indices.into_iter().collect(),
            reorder_delay: delay,
            ..Self::default()
        }
    }

    /// A policy taking `addr`'s link down for `[from, until)`.
    pub fn link_down(addr: NodeAddr, from: Time, until: Time) -> Self {
        Self::default().with_link_down(addr, from, until)
    }

    /// A policy crashing `addr` (fail-stop) at time `at`.
    pub fn node_crash(addr: NodeAddr, at: Time) -> Self {
        Self::default().with_node_crash(addr, at)
    }

    /// Adds an outage window for `addr`'s link to this plan.
    pub fn with_link_down(mut self, addr: NodeAddr, from: Time, until: Time) -> Self {
        let sched = self.link_schedules.remove(&addr).unwrap_or_default();
        self.link_schedules.insert(addr, sched.down(from, until));
        self
    }

    /// Adds a fail-stop crash of `addr` at time `at` to this plan: it
    /// opens a down window `[at, Time::MAX)`. A crash while the node is
    /// down changes nothing; one before a later window moves its start.
    pub fn with_node_crash(mut self, addr: NodeAddr, at: Time) -> Self {
        self.node_down.entry(addr).or_default().down_from(at);
        self
    }

    /// Adds a node restart at time `at` to this plan: it closes the down
    /// window open at `at`, so `[crash, Time::MAX)` becomes `[crash, at)`.
    /// A restart while the node is up, or at its crash instant, is ignored.
    pub fn with_node_restart(mut self, addr: NodeAddr, at: Time) -> Self {
        if let Some(sched) = self.node_down.get_mut(&addr) {
            sched.up_at(at);
        }
        self
    }

    /// The down windows of `addr`, in time order.
    pub fn node_windows(&self, addr: NodeAddr) -> &[(Time, Time)] {
        self.node_down.get(&addr).map_or(&[], LinkSchedule::windows)
    }

    /// Adds a fabric partition window to this plan.
    pub fn with_partition(mut self, mask: u64, from: Time, until: Time) -> Self {
        assert!(from < until, "empty partition window");
        self.partitions.push(Partition { mask, from, until });
        self.partitions.sort_by_key(|p| (p.from, p.until, p.mask));
        self
    }

    /// Adds a credit-leak overload fault: at `at`, `credits` tx-window
    /// credits vanish from `addr`'s protocol engine.
    pub fn with_credit_leak(mut self, addr: NodeAddr, at: Time, credits: u32) -> Self {
        assert!(credits >= 1, "leaking zero credits is a no-op");
        self.credit_leaks.insert((addr, at, credits));
        self
    }

    /// Adds a pause-storm overload fault: at `at`, `addr`'s NIC is paused
    /// for `hold` irrespective of egress occupancy.
    pub fn with_pause_storm(mut self, addr: NodeAddr, at: Time, hold: Dur) -> Self {
        assert!(hold > Dur::ZERO, "empty pause storm");
        self.pause_storms.insert((addr, at, hold));
        self
    }

    /// Adds a buffer-pool-shrink overload fault: at `at`, `addr`'s bounded
    /// RX buffer pool shrinks to `bufs` buffers.
    pub fn with_buf_shrink(mut self, addr: NodeAddr, at: Time, bufs: u32) -> Self {
        self.buf_shrinks.insert((addr, at, bufs));
        self
    }

    /// Whether the plan carries any overload control faults (credit leaks,
    /// pause storms, buffer shrinks) — the kinds the cluster must extract
    /// and post as control events rather than leave to the switch.
    pub fn has_overload_faults(&self) -> bool {
        !self.credit_leaks.is_empty()
            || !self.pause_storms.is_empty()
            || !self.buf_shrinks.is_empty()
    }

    /// Adds a degradation window for `addr`'s link to this plan.
    pub fn with_degradation(mut self, addr: NodeAddr, window: Degradation) -> Self {
        assert!(window.from < window.until, "empty degradation window");
        let windows = self.degradations.entry(addr).or_default();
        windows.push(window);
        windows.sort_by_key(|w| (w.from, w.until, w.loss_ppm, w.throttle_gbps_x100));
        self
    }

    /// The first active degradation window for `addr` at time `now`.
    pub fn active_degradation(&self, addr: NodeAddr, now: Time) -> Option<&Degradation> {
        self.degradations
            .get(&addr)
            .and_then(|ws| ws.iter().find(|w| w.active(now)))
    }

    /// The first partition window severing `src` from `dst` at `now`.
    pub fn severing_partition(
        &self,
        src: NodeAddr,
        dst: NodeAddr,
        now: Time,
    ) -> Option<&Partition> {
        self.partitions
            .iter()
            .find(|p| p.active(now) && p.severs(src, dst))
    }

    /// Whether this plan can never interfere with traffic.
    pub fn is_transparent(&self) -> bool {
        self.drop_probability == 0.0
            && self.reorder_probability == 0.0
            && self.corrupt_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.drop_indices.is_empty()
            && self.delay_indices.is_empty()
            && self.corrupt_indices.is_empty()
            && self.duplicate_indices.is_empty()
            && self.drop_if.is_none()
            && self.link_schedules.values().all(LinkSchedule::is_empty)
            && self.degradations.values().all(Vec::is_empty)
            && self.node_down.values().all(LinkSchedule::is_empty)
            && self.partitions.is_empty()
            && !self.has_overload_faults()
    }

    /// Decides the fate of the `index`-th frame traversing the switch at
    /// simulated time `now`.
    ///
    /// Rules are checked in a fixed order (down nodes and links,
    /// partitions, degradation loss, explicit indices, predicate,
    /// degradation throttle, probabilistic knobs) and the first matching
    /// rule wins. RNG draws happen lazily: only for a nonzero probability
    /// whose turn is reached, so purely explicit plans never consume
    /// entropy.
    pub fn decide(&self, index: u64, now: Time, frame: &Frame, rng: &mut StdRng) -> FaultAction {
        let dark = |schedules: &BTreeMap<NodeAddr, LinkSchedule>| {
            [frame.src, frame.dst]
                .iter()
                .any(|a| schedules.get(a).is_some_and(|s| s.is_down(now)))
        };
        if dark(&self.node_down)
            || dark(&self.link_schedules)
            || self.severing_partition(frame.src, frame.dst, now).is_some()
        {
            return FaultAction::Drop;
        }
        // Degradation loss: the worse of the two attached links applies.
        let degradation = [frame.src, frame.dst]
            .into_iter()
            .filter_map(|a| self.active_degradation(a, now))
            .max_by_key(|w| (w.loss_ppm, w.throttle_gbps_x100));
        if let Some(w) = degradation {
            let p = w.loss_probability();
            if p > 0.0 && rng.random_bool(p) {
                return FaultAction::Drop;
            }
        }
        if self.drop_indices.contains(&index) {
            return FaultAction::Drop;
        }
        if let Some(pred) = &self.drop_if {
            if pred(frame) {
                return FaultAction::Drop;
            }
        }
        if self.corrupt_indices.contains(&index) {
            return FaultAction::Corrupt;
        }
        if self.duplicate_indices.contains(&index) {
            return FaultAction::Duplicate;
        }
        if self.delay_indices.contains(&index) {
            return FaultAction::Delay(self.reorder_delay);
        }
        if let Some(extra) = degradation.and_then(|w| w.throttle_delay(frame.wire_bytes() as u64)) {
            return FaultAction::Delay(extra);
        }
        let clamp = |p: f64| p.clamp(0.0, 1.0);
        if self.drop_probability > 0.0 && rng.random_bool(clamp(self.drop_probability)) {
            return FaultAction::Drop;
        }
        if self.corrupt_probability > 0.0 && rng.random_bool(clamp(self.corrupt_probability)) {
            return FaultAction::Corrupt;
        }
        if self.duplicate_probability > 0.0 && rng.random_bool(clamp(self.duplicate_probability)) {
            return FaultAction::Duplicate;
        }
        if self.reorder_probability > 0.0 && rng.random_bool(clamp(self.reorder_probability)) {
            return FaultAction::Delay(self.reorder_delay);
        }
        FaultAction::Forward
    }

    /// Whether the plan consists only of explicit, enumerable faults (no
    /// probabilistic knobs, no opaque predicate) and thus round-trips
    /// losslessly through [`FaultPlan::to_events`].
    pub fn is_explicit(&self) -> bool {
        self.drop_probability == 0.0
            && self.reorder_probability == 0.0
            && self.corrupt_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.drop_if.is_none()
    }

    /// Decomposes the plan's explicit faults into a flat event list (the
    /// unit of delta-debugging shrinking and of the JSON repro format).
    /// Probabilistic knobs and `drop_if` are not representable; callers
    /// should check [`FaultPlan::is_explicit`] when a lossless round trip
    /// matters.
    pub fn to_events(&self) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for &i in &self.drop_indices {
            events.push(FaultEvent::Drop { index: i });
        }
        for &i in &self.corrupt_indices {
            events.push(FaultEvent::Corrupt { index: i });
        }
        for &i in &self.duplicate_indices {
            events.push(FaultEvent::Duplicate { index: i });
        }
        for &i in &self.delay_indices {
            events.push(FaultEvent::Delay {
                index: i,
                by: self.reorder_delay,
            });
        }
        for (&node, sched) in &self.link_schedules {
            for &(from, until) in sched.windows() {
                events.push(FaultEvent::LinkDown { node, from, until });
            }
        }
        for (&node, windows) in &self.degradations {
            for &window in windows {
                events.push(FaultEvent::Degrade { node, window });
            }
        }
        for (&node, sched) in &self.node_down {
            for &(at, _) in sched.windows() {
                events.push(FaultEvent::Crash { node, at });
            }
        }
        for &(node, at, credits) in &self.credit_leaks {
            events.push(FaultEvent::CreditLeak { node, at, credits });
        }
        for &(node, at, hold) in &self.pause_storms {
            events.push(FaultEvent::PauseStorm { node, at, hold });
        }
        for &(node, at, bufs) in &self.buf_shrinks {
            events.push(FaultEvent::BufShrink { node, at, bufs });
        }
        // Membership kinds serialize after every pre-existing kind so old
        // repro event lists keep their exact positions.
        for (&node, sched) in &self.node_down {
            for &(_, at) in sched.windows().iter().filter(|w| w.1 < Time::MAX) {
                events.push(FaultEvent::Restart { node, at });
            }
        }
        for &p in &self.partitions {
            events.push(FaultEvent::Partition {
                mask: p.mask,
                from: p.from,
                until: p.until,
            });
        }
        events
    }

    /// Rebuilds a plan from an explicit event list (inverse of
    /// [`FaultPlan::to_events`] for explicit plans). Crashes and restarts
    /// apply in time order whatever their list order, a crash before a
    /// restart at the same instant; every other kind is order-free.
    pub fn from_events(events: &[FaultEvent]) -> Self {
        let mut events = events.to_vec();
        events.sort_by_key(|ev| match *ev {
            FaultEvent::Crash { at, .. } => (at, 0),
            FaultEvent::Restart { at, .. } => (at, 1),
            _ => (Time::ZERO, 0),
        });
        let mut plan = FaultPlan::none();
        for ev in events {
            match ev {
                FaultEvent::Drop { index } => {
                    plan.drop_indices.insert(index);
                }
                FaultEvent::Corrupt { index } => {
                    plan.corrupt_indices.insert(index);
                }
                FaultEvent::Duplicate { index } => {
                    plan.duplicate_indices.insert(index);
                }
                FaultEvent::Delay { index, by } => {
                    plan.delay_indices.insert(index);
                    // One shared delay per plan; events carry it so the
                    // list is self-describing. Mixed delays collapse to
                    // the maximum.
                    plan.reorder_delay = plan.reorder_delay.max(by);
                }
                FaultEvent::LinkDown { node, from, until } => {
                    plan = plan.with_link_down(node, from, until);
                }
                FaultEvent::Degrade { node, window } => {
                    plan = plan.with_degradation(node, window);
                }
                FaultEvent::Crash { node, at } => {
                    plan = plan.with_node_crash(node, at);
                }
                FaultEvent::CreditLeak { node, at, credits } => {
                    plan = plan.with_credit_leak(node, at, credits);
                }
                FaultEvent::PauseStorm { node, at, hold } => {
                    plan = plan.with_pause_storm(node, at, hold);
                }
                FaultEvent::BufShrink { node, at, bufs } => {
                    plan = plan.with_buf_shrink(node, at, bufs);
                }
                FaultEvent::Restart { node, at } => {
                    plan = plan.with_node_restart(node, at);
                }
                FaultEvent::Partition { mask, from, until } => {
                    plan = plan.with_partition(mask, from, until);
                }
            }
        }
        plan
    }
}

/// One explicit fault, the atom of schedule shrinking: a failing chaos
/// run's plan is decomposed into events, subsets are replayed, and the
/// minimal still-failing subset becomes the repro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Drop the `index`-th frame through the switch.
    Drop {
        /// Global frame index.
        index: u64,
    },
    /// Corrupt (FCS-flip) the `index`-th frame.
    Corrupt {
        /// Global frame index.
        index: u64,
    },
    /// Duplicate the `index`-th frame.
    Duplicate {
        /// Global frame index.
        index: u64,
    },
    /// Delay the `index`-th frame by `by`.
    Delay {
        /// Global frame index.
        index: u64,
        /// Extra delay.
        by: Dur,
    },
    /// Take `node`'s link dark for `[from, until)`.
    LinkDown {
        /// Affected port.
        node: NodeAddr,
        /// Outage start (inclusive).
        from: Time,
        /// Outage end (exclusive).
        until: Time,
    },
    /// Degrade `node`'s link for the window.
    Degrade {
        /// Affected port.
        node: NodeAddr,
        /// The degradation window.
        window: Degradation,
    },
    /// Fail-stop crash of `node` at `at`.
    Crash {
        /// Crashed node.
        node: NodeAddr,
        /// Crash instant.
        at: Time,
    },
    /// Leak `credits` tx-window credits from `node`'s protocol engine at
    /// `at` (consumed, never returned — the window shrinks for good).
    CreditLeak {
        /// Affected node.
        node: NodeAddr,
        /// Leak instant.
        at: Time,
        /// Credits leaked.
        credits: u32,
    },
    /// Pause `node`'s NIC for `hold` starting at `at` (PFC pause storm).
    PauseStorm {
        /// Affected node.
        node: NodeAddr,
        /// Storm start.
        at: Time,
        /// Pause duration.
        hold: Dur,
    },
    /// Shrink `node`'s bounded RX buffer pool to `bufs` at `at`.
    BufShrink {
        /// Affected node.
        node: NodeAddr,
        /// Shrink instant.
        at: Time,
        /// New pool capacity, in buffers.
        bufs: u32,
    },
    /// Restart `node` at `at`: its crash window closes and the peers'
    /// POEs fence its old epoch (the node reboots as a fresh incarnation
    /// when it is readmitted).
    Restart {
        /// Restarted node.
        node: NodeAddr,
        /// Restart instant.
        at: Time,
    },
    /// Split the fabric along `mask` for `[from, until)`.
    Partition {
        /// Bitmap over node addresses (bit set = side A).
        mask: u64,
        /// Partition start (inclusive).
        from: Time,
        /// Heal instant (exclusive).
        until: Time,
    },
}

/// Intensity knobs for randomly generated fault schedules.
///
/// A profile is a *budget*, not a probability: [`FaultPlanGen::generate`]
/// samples exactly the configured number of each fault kind (at seeded
/// random indices/instants), so every generated plan is fully explicit —
/// directly shrinkable and serializable, with no concretization step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosProfile {
    /// Number of fabric ports faults may target.
    pub nodes: u32,
    /// Frame-index space per-frame faults are sampled from; pick at least
    /// the number of frames the workload pushes through the switch
    /// (sampling beyond it only wastes budget, never breaks anything).
    pub horizon_frames: u64,
    /// Simulated-time span `[0, horizon)` windowed faults are sampled in.
    pub horizon: Dur,
    /// Frames to drop.
    pub drops: u32,
    /// Frames to corrupt (FCS flip → POE discard).
    pub corrupts: u32,
    /// Frames to duplicate.
    pub duplicates: u32,
    /// Frames to delay by `delay_by`.
    pub delays: u32,
    /// Extra delay for delayed frames.
    pub delay_by: Dur,
    /// Link outage (flap) windows, each at most `max_flap` long.
    pub flaps: u32,
    /// Maximum single-flap duration.
    pub max_flap: Dur,
    /// Degradation windows, each at most `max_degradation` long.
    pub degradations: u32,
    /// Maximum single-degradation duration.
    pub max_degradation: Dur,
    /// Highest extra loss a degradation window may carry, in ppm.
    pub max_degradation_loss_ppm: u32,
    /// Credit-leak overload faults (each leaks up to `max_leak_credits`).
    pub credit_leaks: u32,
    /// Most credits one leak event may consume.
    pub max_leak_credits: u32,
    /// Pause-storm overload faults (each holds up to `max_pause_hold`).
    pub pause_storms: u32,
    /// Longest single pause-storm hold.
    pub max_pause_hold: Dur,
    /// Buffer-pool-shrink overload faults (each shrinks a node's RX pool
    /// to at most `max_shrink_bufs` buffers).
    pub buf_shrinks: u32,
    /// Largest residual pool a shrink event may leave (sampled in
    /// `1..=max_shrink_bufs`).
    pub max_shrink_bufs: u32,
    /// Membership faults: crash/restart *pairs* — each contributes a
    /// `Crash` at a sampled instant and a matching `Restart` up to
    /// `max_restart_delay` later, so every generated plan is self-healing
    /// by construction.
    pub crash_restarts: u32,
    /// Longest outage a crash/restart pair may span.
    pub max_restart_delay: Dur,
    /// Membership faults: fabric partition windows, each at most
    /// `max_partition` long, with a sampled nontrivial side bitmap.
    pub partitions: u32,
    /// Maximum single-partition duration.
    pub max_partition: Dur,
}

impl ChaosProfile {
    /// A mild all-kinds default: a handful of each transient fault, no
    /// crashes (fail-stop is PR 1's territory), sized for collective
    /// workloads of a few thousand frames and a few milliseconds.
    pub fn default_profile(nodes: u32) -> Self {
        ChaosProfile {
            nodes,
            horizon_frames: 2_000,
            horizon: Dur::from_ms(2),
            drops: 4,
            corrupts: 4,
            duplicates: 3,
            delays: 3,
            delay_by: Dur::from_us(40),
            flaps: 1,
            max_flap: Dur::from_us(120),
            degradations: 1,
            max_degradation: Dur::from_us(300),
            max_degradation_loss_ppm: 50_000,
            credit_leaks: 0,
            max_leak_credits: 4,
            pause_storms: 0,
            max_pause_hold: Dur::from_us(200),
            buf_shrinks: 0,
            max_shrink_bufs: 2,
            crash_restarts: 0,
            max_restart_delay: Dur::from_ms(1),
            partitions: 0,
            max_partition: Dur::from_us(500),
        }
    }

    /// A membership-focused profile: crash/restart pairs and partition
    /// windows (plus a little frame delay for spice), no transient loss —
    /// exercising the self-healing path: adaptive detection, shrink,
    /// rejoin via expand, and partition-heal re-merge.
    pub fn membership_profile(nodes: u32) -> Self {
        ChaosProfile {
            drops: 0,
            corrupts: 0,
            duplicates: 0,
            delays: 2,
            flaps: 0,
            degradations: 0,
            crash_restarts: 1,
            max_restart_delay: Dur::from_ms(1),
            partitions: 1,
            max_partition: Dur::from_us(400),
            ..Self::default_profile(nodes)
        }
    }

    /// An overload-focused profile: no frame loss or corruption, but
    /// resource-pressure faults — credit leaks, pause storms and buffer
    /// shrinks — that exercise the bounded-capacity/backpressure paths and
    /// the deadlock detector. Pair with a cluster configured with finite
    /// capacities (see `accl_core::ClusterConfig::with_overload_limits`).
    pub fn overload_profile(nodes: u32) -> Self {
        ChaosProfile {
            drops: 0,
            corrupts: 0,
            duplicates: 0,
            delays: 2,
            flaps: 0,
            degradations: 0,
            credit_leaks: 1,
            max_leak_credits: 3,
            pause_storms: 2,
            max_pause_hold: Dur::from_us(150),
            buf_shrinks: 1,
            max_shrink_bufs: 2,
            ..Self::default_profile(nodes)
        }
    }

    /// Total number of fault events a generated plan will contain.
    pub fn budget(&self) -> u32 {
        self.drops
            + self.corrupts
            + self.duplicates
            + self.delays
            + self.flaps
            + self.degradations
            + self.credit_leaks
            + self.pause_storms
            + self.buf_shrinks
            + self.crash_restarts * 2
            + self.partitions
    }
}

/// Samples whole explicit fault schedules from a [`ChaosProfile`] as a
/// pure function of seed: same `(profile, seed)` → identical plan,
/// regardless of anything else the process did.
pub struct FaultPlanGen;

impl FaultPlanGen {
    /// Generates the fault schedule for `seed`.
    pub fn generate(profile: &ChaosProfile, seed: u64) -> FaultPlan {
        // Decouple from other derived streams: mix the seed before use.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00c4_a05c_7a05_c4a0);
        let horizon_ps = profile.horizon.as_ps().max(1);
        let mut events = Vec::with_capacity(profile.budget() as usize);
        let frame_index = |rng: &mut StdRng| rng.random_range(0..profile.horizon_frames.max(1));
        for _ in 0..profile.drops {
            events.push(FaultEvent::Drop {
                index: frame_index(&mut rng),
            });
        }
        for _ in 0..profile.corrupts {
            events.push(FaultEvent::Corrupt {
                index: frame_index(&mut rng),
            });
        }
        for _ in 0..profile.duplicates {
            events.push(FaultEvent::Duplicate {
                index: frame_index(&mut rng),
            });
        }
        for _ in 0..profile.delays {
            events.push(FaultEvent::Delay {
                index: frame_index(&mut rng),
                by: profile.delay_by,
            });
        }
        for _ in 0..profile.flaps {
            let node = NodeAddr(rng.random_range(0..profile.nodes.max(1)));
            let len = rng.random_range(1..profile.max_flap.as_ps().max(2));
            let from = rng.random_range(0..horizon_ps);
            events.push(FaultEvent::LinkDown {
                node,
                from: Time::from_ps(from),
                until: Time::from_ps(from.saturating_add(len)),
            });
        }
        for _ in 0..profile.degradations {
            let node = NodeAddr(rng.random_range(0..profile.nodes.max(1)));
            let len = rng.random_range(1..profile.max_degradation.as_ps().max(2));
            let from = rng.random_range(0..horizon_ps);
            let loss_ppm = rng.random_range(0..profile.max_degradation_loss_ppm.max(1));
            // Residual bandwidth between 10 and 50 Gb/s (nominal is 100).
            let throttle = rng.random_range(1_000u32..5_000);
            events.push(FaultEvent::Degrade {
                node,
                window: Degradation {
                    from: Time::from_ps(from),
                    until: Time::from_ps(from.saturating_add(len)),
                    loss_ppm,
                    throttle_gbps_x100: throttle,
                },
            });
        }
        // Overload faults draw *after* every legacy kind: plans generated
        // by profiles with zero overload budget stay bit-identical per
        // seed to what older versions produced.
        for _ in 0..profile.credit_leaks {
            let node = NodeAddr(rng.random_range(0..profile.nodes.max(1)));
            let at = rng.random_range(0..horizon_ps);
            let credits = rng.random_range(1..profile.max_leak_credits.max(1) + 1);
            events.push(FaultEvent::CreditLeak {
                node,
                at: Time::from_ps(at),
                credits,
            });
        }
        for _ in 0..profile.pause_storms {
            let node = NodeAddr(rng.random_range(0..profile.nodes.max(1)));
            let at = rng.random_range(0..horizon_ps);
            let hold = rng.random_range(1..profile.max_pause_hold.as_ps().max(2));
            events.push(FaultEvent::PauseStorm {
                node,
                at: Time::from_ps(at),
                hold: Dur::from_ps(hold),
            });
        }
        for _ in 0..profile.buf_shrinks {
            let node = NodeAddr(rng.random_range(0..profile.nodes.max(1)));
            let at = rng.random_range(0..horizon_ps);
            let bufs = rng.random_range(1..profile.max_shrink_bufs.max(1) + 1);
            events.push(FaultEvent::BufShrink {
                node,
                at: Time::from_ps(at),
                bufs,
            });
        }
        // Membership kinds draw after every earlier kind so plans from
        // profiles with zero membership budget replay bit-identically.
        for _ in 0..profile.crash_restarts {
            let node = NodeAddr(rng.random_range(0..profile.nodes.max(1)));
            let at = rng.random_range(0..horizon_ps);
            let outage = rng.random_range(1..profile.max_restart_delay.as_ps().max(2));
            events.push(FaultEvent::Crash {
                node,
                at: Time::from_ps(at),
            });
            events.push(FaultEvent::Restart {
                node,
                at: Time::from_ps(at.saturating_add(outage)),
            });
        }
        for _ in 0..profile.partitions {
            let nodes = profile.nodes.clamp(2, 63);
            // A nontrivial cut: at least one node on each side.
            let mask = rng.random_range(1..(1u64 << nodes) - 1);
            let len = rng.random_range(1..profile.max_partition.as_ps().max(2));
            let from = rng.random_range(0..horizon_ps);
            events.push(FaultEvent::Partition {
                mask,
                from: Time::from_ps(from),
                until: Time::from_ps(from.saturating_add(len)),
            });
        }
        FaultPlan::from_events(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NodeAddr;
    use rand::RngCore;

    fn frame() -> Frame {
        Frame::new(NodeAddr(0), NodeAddr(1), 100, ())
    }

    #[test]
    fn transparent_plan_forwards_everything() {
        let plan = FaultPlan::none();
        assert!(plan.is_transparent());
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..100 {
            assert_eq!(
                plan.decide(i, Time::ZERO, &frame(), &mut rng),
                FaultAction::Forward
            );
        }
    }

    #[test]
    fn indexed_drops_are_exact() {
        let plan = FaultPlan::drop_frames([2, 5]);
        let mut rng = StdRng::seed_from_u64(0);
        let fates: Vec<bool> = (0..8)
            .map(|i| plan.decide(i, Time::ZERO, &frame(), &mut rng) == FaultAction::Drop)
            .collect();
        assert_eq!(
            fates,
            [false, false, true, false, false, true, false, false]
        );
    }

    /// Micro-test for the sorted-set representation: membership stays
    /// exact at the boundaries of a long, dense schedule where the old
    /// `Vec::contains` scan was O(n) per frame.
    #[test]
    fn indexed_drops_scale_to_long_schedules() {
        let plan = FaultPlan::drop_frames((0..100_000u64).map(|i| i * 2));
        assert_eq!(plan.drop_indices.len(), 100_000);
        let mut rng = StdRng::seed_from_u64(0);
        for i in [0u64, 1, 2, 99_999, 100_000, 199_998, 199_999, 200_000] {
            let want = i % 2 == 0 && i < 200_000;
            assert_eq!(
                plan.decide(i, Time::ZERO, &frame(), &mut rng) == FaultAction::Drop,
                want,
                "index {i}"
            );
        }
    }

    #[test]
    fn indexed_delays_reorder() {
        let plan = FaultPlan::delay_frames([1], Dur::from_us(3));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            plan.decide(0, Time::ZERO, &frame(), &mut rng),
            FaultAction::Forward
        );
        assert_eq!(
            plan.decide(1, Time::ZERO, &frame(), &mut rng),
            FaultAction::Delay(Dur::from_us(3))
        );
    }

    #[test]
    fn random_loss_is_roughly_calibrated() {
        let plan = FaultPlan::random_loss(0.3);
        let mut rng = StdRng::seed_from_u64(7);
        let drops = (0..10_000)
            .filter(|&i| plan.decide(i, Time::ZERO, &frame(), &mut rng) == FaultAction::Drop)
            .count();
        assert!((2_700..3_300).contains(&drops), "drops={drops}");
    }

    #[test]
    fn predicate_drops_matching_frames() {
        let plan = FaultPlan {
            drop_if: Some(Box::new(|f: &Frame| f.payload_bytes > 50)),
            ..FaultPlan::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            plan.decide(0, Time::ZERO, &frame(), &mut rng),
            FaultAction::Drop
        );
        let small = Frame::new(NodeAddr(0), NodeAddr(1), 10, ());
        assert_eq!(
            plan.decide(1, Time::ZERO, &small, &mut rng),
            FaultAction::Forward
        );
    }

    #[test]
    fn link_schedule_windows_bound_the_outage() {
        let sched = LinkSchedule::new()
            .down(Time::from_ps(100), Time::from_ps(200))
            .down(Time::from_ps(400), Time::from_ps(500));
        assert!(!sched.is_down(Time::from_ps(99)));
        assert!(sched.is_down(Time::from_ps(100)));
        assert!(sched.is_down(Time::from_ps(199)));
        assert!(!sched.is_down(Time::from_ps(200)));
        assert!(!sched.is_down(Time::from_ps(399)));
        assert!(sched.is_down(Time::from_ps(450)));
        assert!(!sched.is_down(Time::from_ps(500)));
    }

    #[test]
    fn overlapping_windows_merge() {
        let sched = LinkSchedule::new()
            .down(Time::from_ps(100), Time::from_ps(300))
            .down(Time::from_ps(200), Time::from_ps(400));
        assert!(sched.is_down(Time::from_ps(350)));
        assert!(!sched.is_down(Time::from_ps(400)));
    }

    #[test]
    fn link_down_drops_only_inside_window() {
        let plan = FaultPlan::link_down(NodeAddr(1), Time::from_us(1), Time::from_us(2));
        assert!(!plan.is_transparent());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            plan.decide(0, Time::ZERO, &frame(), &mut rng),
            FaultAction::Forward
        );
        assert_eq!(
            plan.decide(1, Time::from_us(1), &frame(), &mut rng),
            FaultAction::Drop
        );
        assert_eq!(
            plan.decide(2, Time::from_us(2), &frame(), &mut rng),
            FaultAction::Forward
        );
        // The outage applies to frames in either direction of the port.
        let reverse = Frame::new(NodeAddr(1), NodeAddr(0), 100, ());
        assert_eq!(
            plan.decide(3, Time::from_us(1) + Dur::from_ns(1), &reverse, &mut rng),
            FaultAction::Drop
        );
    }

    #[test]
    fn node_crash_blackholes_forever_after() {
        let plan = FaultPlan::node_crash(NodeAddr(0), Time::from_us(5));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            plan.decide(0, Time::from_us(4), &frame(), &mut rng),
            FaultAction::Forward
        );
        assert_eq!(
            plan.decide(1, Time::from_us(5), &frame(), &mut rng),
            FaultAction::Drop
        );
        assert_eq!(
            plan.decide(2, Time::from_us(500), &frame(), &mut rng),
            FaultAction::Drop
        );
        // Frames *to* the dead node vanish too.
        let inbound = Frame::new(NodeAddr(2), NodeAddr(0), 100, ());
        assert_eq!(
            plan.decide(3, Time::from_us(6), &inbound, &mut rng),
            FaultAction::Drop
        );
        // Traffic between live nodes is unaffected.
        let other = Frame::new(NodeAddr(2), NodeAddr(3), 100, ());
        assert_eq!(
            plan.decide(4, Time::from_us(6), &other, &mut rng),
            FaultAction::Forward
        );
        assert_eq!(
            plan.node_windows(NodeAddr(0)),
            [(Time::from_us(5), Time::MAX)]
        );
    }

    #[test]
    fn restart_reopens_the_crash_window() {
        let plan = FaultPlan::node_crash(NodeAddr(0), Time::from_us(5))
            .with_node_restart(NodeAddr(0), Time::from_us(9));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            plan.decide(0, Time::from_us(4), &frame(), &mut rng),
            FaultAction::Forward
        );
        assert_eq!(
            plan.decide(1, Time::from_us(6), &frame(), &mut rng),
            FaultAction::Drop
        );
        // From the restart instant on, the node is live again.
        assert_eq!(
            plan.decide(2, Time::from_us(9), &frame(), &mut rng),
            FaultAction::Forward
        );
        assert_eq!(
            plan.node_windows(NodeAddr(0)),
            [(Time::from_us(5), Time::from_us(9))]
        );
    }

    #[test]
    fn restart_without_or_before_crash_is_ignored() {
        // No crash at all: restart is meaningless.
        let plan = FaultPlan::none().with_node_restart(NodeAddr(1), Time::from_us(3));
        assert!(plan.is_transparent());
        assert!(plan.to_events().is_empty());
        // Restart at/before the crash: the crash stays permanent.
        for restart in [3, 5] {
            let plan = FaultPlan::from_events(&[
                FaultEvent::Restart {
                    node: NodeAddr(0),
                    at: Time::from_us(restart),
                },
                FaultEvent::Crash {
                    node: NodeAddr(0),
                    at: Time::from_us(5),
                },
            ]);
            assert_eq!(
                plan.node_windows(NodeAddr(0)),
                [(Time::from_us(5), Time::MAX)],
                "restart at {restart} us"
            );
        }
    }

    #[test]
    fn partition_drops_only_cross_cut_frames() {
        // Nodes {0, 2} vs {1, 3} for [10us, 20us).
        let mask = 0b0101u64;
        let plan = FaultPlan::none().with_partition(mask, Time::from_us(10), Time::from_us(20));
        assert!(!plan.is_transparent());
        let mut rng = StdRng::seed_from_u64(0);
        // 0 -> 1 crosses the cut.
        assert_eq!(
            plan.decide(0, Time::from_us(15), &frame(), &mut rng),
            FaultAction::Drop
        );
        // 0 -> 2 stays on side A.
        let same_side = Frame::new(NodeAddr(0), NodeAddr(2), 100, ());
        assert_eq!(
            plan.decide(1, Time::from_us(15), &same_side, &mut rng),
            FaultAction::Forward
        );
        // Outside the window everything heals.
        assert_eq!(
            plan.decide(2, Time::from_us(20), &frame(), &mut rng),
            FaultAction::Forward
        );
        assert!(plan
            .severing_partition(NodeAddr(0), NodeAddr(1), Time::from_us(12))
            .is_some());
        assert!(plan
            .severing_partition(NodeAddr(1), NodeAddr(3), Time::from_us(12))
            .is_none());
    }

    #[test]
    fn membership_events_round_trip() {
        let plan = FaultPlan::node_crash(NodeAddr(2), Time::from_us(50))
            .with_node_restart(NodeAddr(2), Time::from_us(90))
            .with_partition(0b11, Time::from_us(10), Time::from_us(30));
        assert!(plan.is_explicit());
        let events = plan.to_events();
        assert_eq!(events.len(), 3);
        let rebuilt = FaultPlan::from_events(&events);
        assert_eq!(rebuilt.to_events(), events);
        assert_eq!(
            rebuilt.node_windows(NodeAddr(2)),
            [(Time::from_us(50), Time::from_us(90))]
        );
    }

    /// A node fails any number of times: each crash opens a window, each
    /// restart closes the open one, and the events of several windows
    /// (all crashes, then all restarts) rebuild the same windows.
    #[test]
    fn a_node_fails_twice_in_two_windows() {
        let us = Time::from_us;
        let plan = FaultPlan::node_crash(NodeAddr(1), us(10))
            .with_node_restart(NodeAddr(1), us(20))
            .with_node_crash(NodeAddr(1), us(30))
            .with_node_restart(NodeAddr(1), us(40))
            .with_node_crash(NodeAddr(1), us(50));
        let windows = [(us(10), us(20)), (us(30), us(40)), (us(50), Time::MAX)];
        assert_eq!(plan.node_windows(NodeAddr(1)), windows);
        let mut rng = StdRng::seed_from_u64(0);
        let fate = |t: u64, rng: &mut StdRng| plan.decide(t, us(t), &frame(), rng);
        for (t, want) in [
            (15, true),
            (25, false),
            (35, true),
            (45, false),
            (999, true),
        ] {
            assert_eq!(fate(t, &mut rng) == FaultAction::Drop, want, "at {t} us");
        }
        let events = plan.to_events();
        assert_eq!(events.len(), 5);
        let rebuilt = FaultPlan::from_events(&events);
        assert_eq!(rebuilt.node_windows(NodeAddr(1)), windows);
        assert_eq!(rebuilt.to_events(), events);
    }

    #[test]
    fn membership_profile_generates_paired_crash_restart() {
        let profile = ChaosProfile::membership_profile(4);
        let plan = FaultPlanGen::generate(&profile, 11);
        assert!(plan.is_explicit());
        assert_eq!(plan.node_down.len(), 1);
        let (&node, _) = plan.node_down.iter().next().unwrap();
        let &[(crash, restart)] = plan.node_windows(node) else {
            panic!("one window: {:?}", plan.node_windows(node));
        };
        assert!(crash < restart && restart < Time::MAX);
        assert_eq!(plan.partitions.len(), 1);
        // Replays bit-identically.
        let again = FaultPlanGen::generate(&profile, 11);
        assert_eq!(plan.to_events(), again.to_events());
    }

    #[test]
    fn earlier_crash_time_wins() {
        let plan = FaultPlan::node_crash(NodeAddr(0), Time::from_us(5))
            .with_node_crash(NodeAddr(0), Time::from_us(9));
        assert_eq!(
            plan.node_windows(NodeAddr(0)),
            [(Time::from_us(5), Time::MAX)]
        );
        // Either order: the later crash lands while the node is down.
        let plan = FaultPlan::node_crash(NodeAddr(0), Time::from_us(9))
            .with_node_crash(NodeAddr(0), Time::from_us(5));
        assert_eq!(
            plan.node_windows(NodeAddr(0)),
            [(Time::from_us(5), Time::MAX)]
        );
    }

    #[test]
    fn indexed_corruption_and_duplication_are_exact() {
        let plan = FaultPlan::corrupt_frames([1]);
        assert!(!plan.is_transparent());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            plan.decide(0, Time::ZERO, &frame(), &mut rng),
            FaultAction::Forward
        );
        assert_eq!(
            plan.decide(1, Time::ZERO, &frame(), &mut rng),
            FaultAction::Corrupt
        );
        let plan = FaultPlan::duplicate_frames([0]);
        assert_eq!(
            plan.decide(0, Time::ZERO, &frame(), &mut rng),
            FaultAction::Duplicate
        );
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn out_of_range_probability_is_rejected() {
        FaultPlan::random_corruption(1.5);
    }

    #[test]
    fn explicit_plans_draw_no_entropy() {
        // Two identical RNGs; one decides through an explicit-only plan,
        // the other doesn't. Their streams must stay in lockstep.
        let plan = FaultPlan::drop_frames([3]).with_link_down(
            NodeAddr(0),
            Time::from_us(1),
            Time::from_us(2),
        );
        let mut used = StdRng::seed_from_u64(9);
        let mut pristine = StdRng::seed_from_u64(9);
        for i in 0..32 {
            plan.decide(i, Time::ZERO, &frame(), &mut used);
        }
        assert_eq!(used.next_u64(), pristine.next_u64());
    }

    #[test]
    fn degradation_window_adds_loss_and_throttle() {
        let window = Degradation {
            from: Time::from_us(10),
            until: Time::from_us(20),
            loss_ppm: 1_000_000,
            throttle_gbps_x100: 2_500, // 25 Gb/s
        };
        let plan = FaultPlan::none().with_degradation(NodeAddr(1), window);
        assert!(!plan.is_transparent());
        let mut rng = StdRng::seed_from_u64(0);
        // Outside the window: untouched.
        assert_eq!(
            plan.decide(0, Time::from_us(9), &frame(), &mut rng),
            FaultAction::Forward
        );
        // Inside with loss_ppm = 100%: dropped.
        assert_eq!(
            plan.decide(1, Time::from_us(15), &frame(), &mut rng),
            FaultAction::Drop
        );
        // Pure throttle window: frames get the residual-rate delay.
        let throttle_only = Degradation {
            loss_ppm: 0,
            ..window
        };
        let plan = FaultPlan::none().with_degradation(NodeAddr(1), throttle_only);
        let f = frame();
        let want = Dur::for_bytes_gbps(f.wire_bytes() as u64, 25.0);
        assert_eq!(
            plan.decide(2, Time::from_us(15), &f, &mut rng),
            FaultAction::Delay(want)
        );
        assert_eq!(
            plan.decide(3, Time::from_us(20), &f, &mut rng),
            FaultAction::Forward
        );
    }

    #[test]
    fn degradation_composes_with_link_schedule() {
        // Outage beats degradation where they overlap.
        let plan = FaultPlan::link_down(NodeAddr(1), Time::from_us(12), Time::from_us(14))
            .with_degradation(
                NodeAddr(1),
                Degradation {
                    from: Time::from_us(10),
                    until: Time::from_us(20),
                    loss_ppm: 0,
                    throttle_gbps_x100: 5_000,
                },
            );
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            plan.decide(0, Time::from_us(13), &frame(), &mut rng),
            FaultAction::Drop
        );
        assert!(matches!(
            plan.decide(1, Time::from_us(15), &frame(), &mut rng),
            FaultAction::Delay(_)
        ));
    }

    #[test]
    fn events_round_trip_explicit_plans() {
        let plan = FaultPlan::drop_frames([7, 9])
            .with_link_down(NodeAddr(2), Time::from_us(1), Time::from_us(3))
            .with_node_crash(NodeAddr(1), Time::from_ms(1))
            .with_degradation(
                NodeAddr(0),
                Degradation {
                    from: Time::from_us(5),
                    until: Time::from_us(9),
                    loss_ppm: 5_000,
                    throttle_gbps_x100: 0,
                },
            );
        let mut plan = plan;
        plan.corrupt_indices.insert(11);
        plan.duplicate_indices.insert(13);
        plan.delay_indices.insert(15);
        plan.reorder_delay = Dur::from_us(2);
        assert!(plan.is_explicit());
        let events = plan.to_events();
        assert_eq!(events.len(), 8);
        let rebuilt = FaultPlan::from_events(&events);
        assert_eq!(rebuilt.to_events(), events);
        // Same decisions on a probe set of frames/times.
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        for i in 0..32 {
            let t = Time::from_us(i);
            assert_eq!(
                plan.decide(i, t, &frame(), &mut rng_a),
                rebuilt.decide(i, t, &frame(), &mut rng_b),
                "index {i}"
            );
        }
    }

    #[test]
    fn plan_generation_is_a_pure_function_of_seed() {
        let profile = ChaosProfile::default_profile(4);
        let a = FaultPlanGen::generate(&profile, 42);
        let b = FaultPlanGen::generate(&profile, 42);
        assert_eq!(a.to_events(), b.to_events());
        assert!(a.is_explicit());
        assert_eq!(a.to_events().len() as u32, profile.budget());
        let c = FaultPlanGen::generate(&profile, 43);
        assert_ne!(a.to_events(), c.to_events());
    }
}
