//! The tiered event queue: a bucketed near-future calendar spilling to a
//! far-future heap, with payloads recycled through a slab.
//!
//! The simulation's event population is bimodal. Almost all events are
//! *near*: pipe beats, link hops, cycle ticks and processing delays a few
//! nanoseconds to a microsecond out. A small minority are *far*: RTO
//! retransmission timers, stall watchdogs, starvation timeouts tens of
//! microseconds to milliseconds out. A global `BinaryHeap` pays `O(log n)`
//! sift cost per event for both; the tiered queue gives the near majority
//! `O(1)` amortized push/pop (a calendar of [`NUM_BUCKETS`] buckets of
//! [`BUCKET_WIDTH_PS`] each) and parks the far minority in a small spill
//! heap that is only consulted when the calendar window slides.
//!
//! **Ordering contract**: `pop` always returns the globally smallest
//! `(time, seq)` event — bit-identical to the `BinaryHeap` it replaced.
//! [`QueueKind::Heap`] keeps the old ordering structure alive behind the
//! same API so tests can A/B the two and assert identical timelines.
//!
//! Event bodies (`Endpoint` + [`Payload`]) live in a slab indexed by `u32`;
//! the ordering structures move only 24-byte keys, and slots are recycled
//! through a free list so steady-state scheduling never allocates.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::{Endpoint, Payload};
use crate::time::Time;

/// Log2 of the calendar bucket width in picoseconds.
const BUCKET_WIDTH_BITS: u32 = 12;
/// Width of one calendar bucket: 4096 ps ≈ 4.1 ns, sized to the common
/// short-delay event (pipe beat at 100 Gbps, link hop, cycle tick).
pub const BUCKET_WIDTH_PS: u64 = 1 << BUCKET_WIDTH_BITS;
/// Number of calendar buckets (power of two). The calendar window spans
/// `NUM_BUCKETS * BUCKET_WIDTH_PS` ≈ 4.2 us; anything further out (RTO
/// timers start at 25 us) spills to the far heap.
pub const NUM_BUCKETS: usize = 1024;
const BUCKET_MASK: usize = NUM_BUCKETS - 1;
/// Calendar window span in picoseconds.
pub const CALENDAR_SPAN_PS: u64 = (NUM_BUCKETS as u64) << BUCKET_WIDTH_BITS;

/// Which ordering structure backs the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Single global binary heap — the pre-overhaul structure, kept for
    /// A/B timeline validation and as a fallback.
    Heap,
    /// Tiered calendar + far-heap scheduler (the default).
    #[default]
    Calendar,
}

/// Bits of [`EvKey::seq`] that hold the scheduling sequence number; the
/// bits above carry the channel rank of a tie-order permutation.
const SEQ_BITS: u32 = 40;
/// Mask selecting the sequence number from an order word.
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Ordering key for one scheduled event; the body lives in the slab.
#[derive(Clone, Copy, Debug)]
struct EvKey {
    time: u64,
    /// Order word among same-`time` events. Without a tie-order
    /// permutation it is exactly the scheduling `seq` (FIFO). Under one
    /// ([`EventQueue::set_tie_salt`]) its bits above [`SEQ_BITS`] hold a
    /// seeded rank of the event's *channel* — `(source component,
    /// destination endpoint)` — so same-timestamp events from different
    /// channels interleave in a permuted (but still deterministic and
    /// total) order, while each channel's own FIFO order and all
    /// cross-timestamp order are untouched. Same-channel order is program
    /// order, never a race; cross-channel tie order is exactly what racy
    /// handlers depend on.
    seq: u64,
    idx: u32,
}

impl EvKey {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// Channel-source marker for events posted from outside any component
/// (`Simulator::post` from a test or benchmark harness).
pub(crate) const SRC_EXTERNAL: u32 = u32::MAX;

/// SplitMix64 finalizer, used to rank channels deterministically under a
/// tie-order permutation. (Totality of the event order does not depend on
/// this hash: colliding channel ranks fall back to `seq` order.)
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl PartialEq for EvKey {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for EvKey {}
impl PartialOrd for EvKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other.key().cmp(&self.key())
    }
}

/// Slab slot holding the body of a scheduled event.
///
/// `payload` is live iff the slot's index is referenced by a key in one of
/// the ordering structures (never from the free list); `ManuallyDrop`
/// avoids paying an `Option` discriminant write on every push/pop, and
/// `EventQueue::drop` drains pending events to release live payloads.
struct Slot {
    dst: Endpoint,
    payload: core::mem::ManuallyDrop<Payload>,
}

/// The event queue. See the module docs for the design.
pub(crate) struct EventQueue {
    kind: QueueKind,
    /// Event bodies; `free` lists vacant indices for recycling.
    slab: Vec<Slot>,
    free: Vec<u32>,
    /// Near-future calendar. Only the cursor bucket is kept sorted
    /// (descending, so the minimum pops from the end); other buckets are
    /// unsorted and sorted once when the cursor reaches them.
    buckets: Vec<Vec<EvKey>>,
    cursor: usize,
    /// Start time (ps) of the cursor bucket. The calendar window covers
    /// `[cursor_start, cursor_start + CALENDAR_SPAN_PS)`.
    cursor_start: u64,
    cursor_sorted: bool,
    near_len: usize,
    /// Far-future spill (min-heap via reversed `Ord`).
    far: BinaryHeap<EvKey>,
    /// Legacy single-heap structure for [`QueueKind::Heap`].
    heap: BinaryHeap<EvKey>,
    len: usize,
    /// Seed of the tie-order permutation, when one is active.
    tie_salt: Option<u64>,
}

impl Drop for EventQueue {
    fn drop(&mut self) {
        // Release live payloads (`ManuallyDrop` in the slab will not).
        while self.pop().is_some() {}
    }
}

impl EventQueue {
    pub(crate) fn new(kind: QueueKind) -> Self {
        EventQueue {
            kind,
            slab: Vec::new(),
            free: Vec::new(),
            buckets: vec![Vec::new(); NUM_BUCKETS],
            cursor: 0,
            cursor_start: 0,
            cursor_sorted: true,
            near_len: 0,
            far: BinaryHeap::new(),
            heap: BinaryHeap::new(),
            len: 0,
            tie_salt: None,
        }
    }

    /// Sets (or clears) the tie-order permutation seed. Affects events
    /// pushed from now on: same-timestamp events from *different channels*
    /// (source component → destination endpoint) execute in a seeded
    /// permutation of the channel interleaving instead of FIFO; each
    /// channel's own order is program order and never permuted. The order
    /// stays total and fully deterministic for a given salt; only the
    /// *tie-breaking rule* changes. Used by the race detector's shadow
    /// runs to probe whether same-timestamp handlers commute.
    pub(crate) fn set_tie_salt(&mut self, salt: Option<u64>) {
        self.tie_salt = salt;
    }

    pub(crate) fn kind(&self) -> QueueKind {
        self.kind
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[allow(dead_code)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` for `dst` at `(time, seq)`, sent by component
    /// `src` ([`SRC_EXTERNAL`] from outside any component).
    ///
    /// # Panics
    ///
    /// Panics if `seq` does not fit in [`SEQ_BITS`] bits.
    #[inline]
    pub(crate) fn push(&mut self, time: Time, seq: u64, src: u32, dst: Endpoint, payload: Payload) {
        assert!(seq <= SEQ_MASK, "event sequence number overflow");
        let payload = core::mem::ManuallyDrop::new(payload);
        let idx = match self.free.pop() {
            Some(i) => {
                // Assigning over a `ManuallyDrop` never drops the previous
                // value; the old payload was taken when the slot was freed.
                self.slab[i as usize] = Slot { dst, payload };
                i
            }
            None => {
                let i = u32::try_from(self.slab.len()).expect("event slab overflow");
                self.slab.push(Slot { dst, payload });
                i
            }
        };
        let seq = match self.tie_salt {
            None => seq,
            Some(salt) => {
                // Rank the event's channel, not the event: a seeded hash
                // of (source, destination) keeps same-channel events
                // adjacent (their order falls back to `seq` = program
                // order) while shuffling how distinct channels interleave
                // within a timestamp.
                let chan = (u64::from(src) << 48)
                    ^ ((dst.comp.index() as u64) << 16)
                    ^ u64::from(dst.port.0);
                (splitmix64(chan ^ salt) & !SEQ_MASK) | seq
            }
        };
        let key = EvKey {
            time: time.as_ps(),
            seq,
            idx,
        };
        self.len += 1;
        match self.kind {
            QueueKind::Heap => self.heap.push(key),
            QueueKind::Calendar => self.push_calendar(key),
        }
    }

    /// Removes the globally earliest `(time, seq)` event and returns its
    /// key; the body stays in the slab until [`EventQueue::take`] claims it.
    /// Splitting pop this way keeps the returned value in registers on the
    /// hot path.
    #[inline]
    pub(crate) fn pop_key(&mut self) -> Option<(Time, u64, u32)> {
        let key = match self.kind {
            QueueKind::Heap => self.heap.pop()?,
            QueueKind::Calendar => {
                if !self.settle() {
                    return None;
                }
                let key = self.buckets[self.cursor].pop().expect("settled on event");
                self.near_len -= 1;
                key
            }
        };
        self.len -= 1;
        Some((Time::from_ps(key.time), key.seq & SEQ_MASK, key.idx))
    }

    /// Claims the body of an event whose key was returned by
    /// [`EventQueue::pop_key`], freeing its slab slot.
    #[inline]
    pub(crate) fn take(&mut self, idx: u32) -> (Endpoint, Payload) {
        let slot = &mut self.slab[idx as usize];
        // SAFETY: `idx` came from a popped key, so the slot is live and no
        // other key references it; the slot index moves to the free list,
        // so the payload is never read or dropped again.
        let payload = unsafe { core::mem::ManuallyDrop::take(&mut slot.payload) };
        let dst = slot.dst;
        self.free.push(idx);
        (dst, payload)
    }

    /// Removes and returns the globally earliest `(time, seq)` event.
    pub(crate) fn pop(&mut self) -> Option<(Time, u64, Endpoint, Payload)> {
        let (time, seq, idx) = self.pop_key()?;
        let (dst, payload) = self.take(idx);
        Some((time, seq, dst, payload))
    }

    /// Time of the earliest pending event. `&mut` because the calendar may
    /// advance its cursor over empty buckets to find it.
    #[inline]
    pub(crate) fn peek_time(&mut self) -> Option<Time> {
        match self.kind {
            QueueKind::Heap => self.heap.peek().map(|k| Time::from_ps(k.time)),
            QueueKind::Calendar => {
                if !self.settle() {
                    return None;
                }
                self.buckets[self.cursor]
                    .last()
                    .map(|k| Time::from_ps(k.time))
            }
        }
    }

    /// Switches the backing structure, preserving all pending events and
    /// their `(time, seq)` order. Used by tests to A/B the schedulers on
    /// an already-built simulation.
    pub(crate) fn set_kind(&mut self, kind: QueueKind) {
        if kind == self.kind {
            return;
        }
        let mut pending = Vec::with_capacity(self.len);
        while let Some(ev) = self.pop() {
            pending.push(ev);
        }
        self.kind = kind;
        for (time, seq, dst, payload) in pending {
            self.push(time, seq, SRC_EXTERNAL, dst, payload);
        }
    }

    /// Inclusive end of the calendar window.
    #[inline]
    fn window_end_incl(&self) -> u64 {
        self.cursor_start.saturating_add(CALENDAR_SPAN_PS - 1)
    }

    #[inline]
    fn push_calendar(&mut self, key: EvKey) {
        if key.time > self.window_end_incl() {
            self.far.push(key);
            return;
        }
        self.near_len += 1;
        // `send_at` forbids scheduling into the past, but the cursor may sit
        // ahead of `now` after a peek advanced it over empty buckets; such
        // events (rel == 0 by saturation) belong in the cursor bucket, where
        // descending order still pops them first.
        let rel = (key.time.saturating_sub(self.cursor_start) >> BUCKET_WIDTH_BITS) as usize;
        debug_assert!(rel < NUM_BUCKETS);
        if rel == 0 {
            let bucket = &mut self.buckets[self.cursor];
            if self.cursor_sorted {
                // Keep the active bucket sorted (descending by (time, seq)).
                // The common case — the bucket just drained, or the new key
                // is the earliest pending — appends without a search.
                if bucket.last().is_none_or(|e| e.key() > key.key()) {
                    bucket.push(key);
                } else {
                    let pos = bucket.partition_point(|e| e.key() > key.key());
                    bucket.insert(pos, key);
                }
            } else {
                bucket.push(key);
            }
        } else {
            self.buckets[(self.cursor + rel) & BUCKET_MASK].push(key);
        }
    }

    /// Positions the cursor on the bucket holding the globally earliest
    /// event and sorts it. Returns `false` if the queue is empty.
    #[inline]
    fn settle(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            if self.near_len == 0 {
                // Calendar empty: jump the window to the far minimum.
                let fmin = self.far.peek().expect("len > 0 with empty tiers").time;
                self.cursor_start = fmin & !(BUCKET_WIDTH_PS - 1);
                self.cursor_sorted = false;
                self.migrate_far();
                debug_assert!(self.near_len > 0);
            }
            if !self.buckets[self.cursor].is_empty() {
                if !self.cursor_sorted {
                    // allow_nondeterminism(unstable-tie-sort): every key ends in the globally unique seq, so no two elements compare equal
                    self.buckets[self.cursor].sort_unstable_by_key(|e| core::cmp::Reverse(e.key()));
                    self.cursor_sorted = true;
                }
                return true;
            }
            // Advance the window one bucket; the bucket the cursor leaves
            // behind comes to represent the new far edge of the window, so
            // pull any far events that now fall inside it.
            self.cursor = (self.cursor + 1) & BUCKET_MASK;
            self.cursor_start += BUCKET_WIDTH_PS;
            self.cursor_sorted = false;
            if self
                .far
                .peek()
                .is_some_and(|f| f.time <= self.window_end_incl())
            {
                self.migrate_far();
            }
        }
    }

    /// Moves far-heap events that now fall inside the calendar window.
    fn migrate_far(&mut self) {
        let limit = self.window_end_incl();
        while let Some(f) = self.far.peek() {
            if f.time > limit {
                break;
            }
            let key = self.far.pop().expect("peeked");
            self.near_len += 1;
            let rel = (key.time.saturating_sub(self.cursor_start) >> BUCKET_WIDTH_BITS) as usize;
            debug_assert!(rel < NUM_BUCKETS);
            if rel == 0 && self.cursor_sorted {
                let bucket = &mut self.buckets[self.cursor];
                let pos = bucket.partition_point(|e| e.key() > key.key());
                bucket.insert(pos, key);
            } else {
                self.buckets[(self.cursor + rel) & BUCKET_MASK].push(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ComponentId, PortId};

    fn ep(comp: u32) -> Endpoint {
        Endpoint::new(ComponentId(comp), PortId::DEFAULT)
    }

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        core::iter::from_fn(|| q.pop())
            .map(|(t, s, _, _)| (t.as_ps(), s))
            .collect()
    }

    #[test]
    fn orders_by_time_then_seq() {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut q = EventQueue::new(kind);
            for (t, s) in [(10, 2u64), (5, 3), (10, 1), (5, 0)] {
                q.push(Time::from_ps(t), s, SRC_EXTERNAL, ep(0), Payload::new(()));
            }
            assert_eq!(drain(&mut q), vec![(5, 0), (5, 3), (10, 1), (10, 2)]);
        }
    }

    #[test]
    fn near_and_far_events_interleave_correctly() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        let mut expect = Vec::new();
        // Far timers way beyond the calendar span, near events inside it,
        // and events right at the span boundary.
        let times = [
            1u64,
            BUCKET_WIDTH_PS - 1,
            BUCKET_WIDTH_PS,
            CALENDAR_SPAN_PS - 1,
            CALENDAR_SPAN_PS,
            CALENDAR_SPAN_PS + 1,
            10 * CALENDAR_SPAN_PS,
            100 * CALENDAR_SPAN_PS + 7,
        ];
        for (seq, &t) in times.iter().enumerate() {
            let seq = seq as u64;
            q.push(Time::from_ps(t), seq, SRC_EXTERNAL, ep(0), Payload::new(()));
            expect.push((t, seq));
        }
        expect.sort_unstable();
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn matches_heap_on_adversarial_sequences() {
        // Deterministic pseudo-random interleaving of pushes and pops with
        // near, far and boundary-straddling times; both queue kinds must
        // produce identical sequences.
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut step = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut ops: Vec<Option<(u64, u64)>> = Vec::new(); // Some=push(time), None=pop
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut pending = 0i64;
        for _ in 0..4000 {
            let r = step();
            if r % 5 == 0 && pending > 0 {
                ops.push(None);
                pending -= 1;
            } else {
                // Mix of sub-bucket, sub-span and far-future delays.
                let delay = match r % 7 {
                    0..=2 => r % BUCKET_WIDTH_PS,
                    3..=4 => r % CALENDAR_SPAN_PS,
                    5 => r % (20 * CALENDAR_SPAN_PS),
                    _ => 0,
                };
                ops.push(Some((now + delay, seq)));
                seq += 1;
                pending += 1;
            }
            now += step() % 100;
        }

        let run = |kind: QueueKind| -> Vec<(u64, u64)> {
            let mut q = EventQueue::new(kind);
            let mut out = Vec::new();
            for op in &ops {
                match op {
                    Some((t, s)) => {
                        q.push(Time::from_ps(*t), *s, SRC_EXTERNAL, ep(0), Payload::new(*s))
                    }
                    None => {
                        let (t, s, _, p) = q.pop().expect("pop on non-empty");
                        assert_eq!(p.downcast::<u64>(), s);
                        out.push((t.as_ps(), s));
                    }
                }
            }
            out.extend(core::iter::from_fn(|| q.pop()).map(|(t, s, _, _)| (t.as_ps(), s)));
            out
        };
        assert_eq!(run(QueueKind::Heap), run(QueueKind::Calendar));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        q.push(Time::from_ps(500), 0, SRC_EXTERNAL, ep(0), Payload::new(()));
        q.push(
            Time::from_ps(100 * CALENDAR_SPAN_PS),
            1,
            SRC_EXTERNAL,
            ep(0),
            Payload::new(()),
        );
        assert_eq!(q.peek_time(), Some(Time::from_ps(500)));
        assert_eq!(q.pop().unwrap().0, Time::from_ps(500));
        assert_eq!(q.peek_time(), Some(Time::from_ps(100 * CALENDAR_SPAN_PS)));
        assert_eq!(q.pop().unwrap().0, Time::from_ps(100 * CALENDAR_SPAN_PS));
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_behind_an_advanced_cursor_still_pops_first() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        // A lone far event pulls the cursor forward on peek...
        q.push(
            Time::from_ps(50 * CALENDAR_SPAN_PS),
            0,
            SRC_EXTERNAL,
            ep(0),
            Payload::new(()),
        );
        assert_eq!(q.peek_time(), Some(Time::from_ps(50 * CALENDAR_SPAN_PS)));
        // ...then an earlier event arrives (allowed: still >= sim time).
        q.push(
            Time::from_ps(1000),
            1,
            SRC_EXTERNAL,
            ep(0),
            Payload::new(()),
        );
        assert_eq!(q.peek_time(), Some(Time::from_ps(1000)));
        assert_eq!(drain(&mut q), vec![(1000, 1), (50 * CALENDAR_SPAN_PS, 0)]);
    }

    #[test]
    fn slab_recycles_slots() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(
                    Time::from_ps(round * 1000 + i),
                    round * 100 + i,
                    SRC_EXTERNAL,
                    ep(0),
                    Payload::new(i),
                );
            }
            for _ in 0..100 {
                q.pop().unwrap();
            }
        }
        // All rounds reused the 100 slots of the first.
        assert!(q.slab.len() <= 100, "slab grew to {}", q.slab.len());
    }

    #[test]
    fn event_key_stays_three_words() {
        assert_eq!(core::mem::size_of::<EvKey>(), 24);
    }

    #[test]
    fn salted_channel_pops_in_seq_order_near_the_seq_limit() {
        // Two channels (sources 1 and 2 into one endpoint) tie at one
        // timestamp with sequence numbers just below 2^40: the rank bits
        // must neither disturb a channel's FIFO order nor leak into the
        // returned `seq`.
        let base = SEQ_MASK - 7;
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut q = EventQueue::new(kind);
            q.set_tie_salt(Some(0x5eed));
            for seq in base..=SEQ_MASK {
                let src = 1 + (seq % 2) as u32;
                q.push(Time::from_ps(64), seq, src, ep(0), Payload::new(src));
            }
            let mut popped = Vec::new();
            while let Some((t, seq, _, p)) = q.pop() {
                assert_eq!(t, Time::from_ps(64));
                popped.push((p.downcast::<u32>(), seq));
            }
            let mut all: Vec<u64> = popped.iter().map(|&(_, s)| s).collect();
            all.sort_unstable();
            assert_eq!(all, (base..=SEQ_MASK).collect::<Vec<_>>());
            for src in [1, 2] {
                let chan: Vec<u64> = popped
                    .iter()
                    .filter(|&&(s, _)| s == src)
                    .map(|&(_, seq)| seq)
                    .collect();
                assert_eq!(chan.len(), 4);
                assert!(chan.windows(2).all(|w| w[0] < w[1]), "{kind:?}: {chan:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sequence number overflow")]
    fn seq_beyond_the_order_word_is_rejected() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        q.push(
            Time::ZERO,
            SEQ_MASK + 1,
            SRC_EXTERNAL,
            ep(0),
            Payload::new(()),
        );
    }

    #[test]
    fn set_kind_preserves_pending_events() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        for (i, &t) in [700u64, 20, 20, 5 * CALENDAR_SPAN_PS, 3].iter().enumerate() {
            q.push(
                Time::from_ps(t),
                i as u64,
                SRC_EXTERNAL,
                ep(0),
                Payload::new(i),
            );
        }
        q.set_kind(QueueKind::Heap);
        assert_eq!(q.kind(), QueueKind::Heap);
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q),
            vec![
                (3, 4),
                (20, 1),
                (20, 2),
                (700, 0),
                (5 * CALENDAR_SPAN_PS, 3)
            ]
        );
    }
}
