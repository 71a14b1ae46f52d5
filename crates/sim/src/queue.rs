//! The event queue: one binary heap of ordering keys, with event bodies
//! recycled through a slab.
//!
//! **Ordering contract**: `pop_key` always returns the globally smallest
//! `(time, order word)` entry. Without a tie-order permutation the order
//! word is the scheduling `seq`, so events run in `(time, seq)` order.
//!
//! The queue stays shallow: a kernel timer slot keeps at most one entry
//! queued however often it is re-armed (see [`crate::timer`]), so the
//! population is the in-flight messages of the model plus one deadline
//! per armed slot.
//!
//! Event bodies (`Endpoint` + [`Payload`]) live in a slab of
//! `Option<Slot>` indexed by `u32`; the heap moves only 24-byte keys, and
//! vacant slots are recycled through a free list, so the queue's own
//! storage stops growing once it has held its peak population. The
//! payload's box is the one allocation per event. A timer entry has no
//! body here: its slot holds the destination and the payload.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::{Endpoint, Payload};
use crate::time::Time;

/// Bits of [`EvKey::seq`] that hold the scheduling sequence number; the
/// bits above carry the channel rank of a tie-order permutation.
const SEQ_BITS: u32 = 40;
/// Mask selecting the sequence number from an order word.
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// What a queue entry delivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Entry {
    /// An ordinary event; its body is at this slab index.
    Event(u32),
    /// The deadline of this kernel timer slot (see [`crate::timer`]).
    Timer(u32),
    /// The component set `Simulator::suspend_at` scheduled at this index.
    Suspend(u32),
}

/// Ordering key for one scheduled entry, ordered by `(time, seq)` alone:
/// `seq` is unique, so two keys never tie.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    entry: Entry,
}

impl EvKey {
    /// `(time, seq)` as one number, so a heap sift compares once.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }
}

impl PartialOrd for EvKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvKey {
    /// Reversed, so the max-heap `BinaryHeap` pops the earliest key. A
    /// derived `Ord` on `Reverse<EvKey>` measured slower on deep queues.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank().cmp(&self.rank())
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

/// Slab slot holding the body of a scheduled event. A slab entry is
/// `Some` iff its index is referenced by a key in the heap, and `None`
/// while the index sits on the free list.
struct Slot {
    dst: Endpoint,
    payload: Payload,
}

/// The event queue. See the module docs for the design.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<EvKey>,
    /// Event bodies; `free` lists vacant indices for recycling.
    slab: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Seed of the tie-order permutation, when one is active.
    tie_salt: Option<u64>,
}

impl EventQueue {
    /// Sets (or clears) the tie-order permutation seed. Affects entries
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

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `payload` for `dst` at `(time, seq)`, sent by component
    /// `src` ([`SRC_EXTERNAL`] from outside any component).
    #[inline]
    pub(crate) fn push(&mut self, time: Time, seq: u64, src: u32, dst: Endpoint, payload: Payload) {
        let slot = Some(Slot { dst, payload });
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = slot;
                i
            }
            None => {
                let i = u32::try_from(self.slab.len()).expect("event slab overflow");
                self.slab.push(slot);
                i
            }
        };
        self.push_key(time, seq, src, dst, Entry::Event(idx));
    }

    /// Queues the deadline `(time, seq)` of kernel timer slot `timer`,
    /// which delivers to `dst`; the component `dst` names is the source.
    #[inline]
    pub(crate) fn push_timer(&mut self, time: Time, seq: u64, dst: Endpoint, timer: u32) {
        self.push_key(time, seq, dst.comp.0, dst, Entry::Timer(timer));
    }

    /// Queues suspension `idx` at `(time, seq)`. Its order word carries no
    /// channel rank, so a tie-order permutation keeps it ahead of the
    /// same-`time` events scheduled after it.
    pub(crate) fn push_suspend(&mut self, time: Time, seq: u64, idx: u32) {
        self.heap.push(EvKey {
            time: time.as_ps(),
            seq,
            entry: Entry::Suspend(idx),
        });
    }

    /// # Panics
    ///
    /// Panics if `seq` does not fit in [`SEQ_BITS`] bits.
    #[inline]
    fn push_key(&mut self, time: Time, seq: u64, src: u32, dst: Endpoint, entry: Entry) {
        assert!(seq <= SEQ_MASK, "event sequence number overflow");
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
        self.heap.push(EvKey {
            time: time.as_ps(),
            seq,
            entry,
        });
    }

    /// Removes the globally earliest entry and returns its `(time, seq,
    /// entry)`; an event's body stays in the slab until
    /// [`EventQueue::take`] claims it. Splitting pop this way keeps the
    /// returned value in registers on the hot path.
    #[inline]
    pub(crate) fn pop_key(&mut self) -> Option<(Time, u64, Entry)> {
        let key = self.heap.pop()?;
        Some((Time::from_ps(key.time), key.seq & SEQ_MASK, key.entry))
    }

    /// Claims the body of the event at slab index `idx`, popped as
    /// [`Entry::Event`], freeing its slab slot.
    #[inline]
    pub(crate) fn take(&mut self, idx: u32) -> (Endpoint, Payload) {
        let slot = self.slab[idx as usize]
            .take()
            .expect("popped key names a live slot");
        self.free.push(idx);
        (slot.dst, slot.payload)
    }

    /// Time of the earliest pending entry.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|k| Time::from_ps(k.time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ComponentId, PortId};
    use crate::sim::{Component, Ctx, Simulator};
    use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};
    use std::sync::Arc;

    fn ep(comp: u32) -> Endpoint {
        Endpoint::new(ComponentId(comp), PortId::DEFAULT)
    }

    /// Pops the earliest event with its body.
    fn pop(q: &mut EventQueue) -> Option<(Time, u64, Endpoint, Payload)> {
        let (time, seq, entry) = q.pop_key()?;
        let Entry::Event(idx) = entry else {
            panic!("only events are queued here");
        };
        let (dst, payload) = q.take(idx);
        Some((time, seq, dst, payload))
    }

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        core::iter::from_fn(|| pop(q))
            .map(|(t, s, ..)| (t.as_ps(), s))
            .collect()
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = EventQueue::default();
        for (t, s) in [(10, 2u64), (5, 3), (10, 1), (5, 0)] {
            q.push(Time::from_ps(t), s, SRC_EXTERNAL, ep(0), Payload::new(()));
        }
        assert_eq!(drain(&mut q), vec![(5, 0), (5, 3), (10, 1), (10, 2)]);
    }

    #[test]
    fn matches_heap_on_adversarial_sequences() {
        // Deterministic pseudo-random interleaving of pushes and pops with
        // short, long and zero delays; every pop must return the smallest
        // pending key of a sorted model of the pushed keys.
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
                let delay = match r % 7 {
                    0..=2 => r % 4096,
                    3..=4 => r % (1 << 22),
                    5 => r % (20 << 22),
                    _ => 0,
                };
                ops.push(Some((now + delay, seq)));
                seq += 1;
                pending += 1;
            }
            now += step() % 100;
        }

        let mut q = EventQueue::default();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let check_pop = |q: &mut EventQueue, model: &mut Vec<(u64, u64)>| {
            let min = model.iter().copied().min().expect("pop on non-empty");
            model.retain(|&k| k != min);
            let (t, s, _, p) = pop(q).expect("queue holds the model's keys");
            assert_eq!(p.downcast::<u64>(), s);
            assert_eq!((t.as_ps(), s), min);
        };
        for op in &ops {
            match *op {
                Some((t, s)) => {
                    q.push(Time::from_ps(t), s, SRC_EXTERNAL, ep(0), Payload::new(s));
                    model.push((t, s));
                }
                None => check_pop(&mut q, &mut model),
            }
        }
        while !model.is_empty() {
            check_pop(&mut q, &mut model);
        }
        assert!(pop(&mut q).is_none());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::default();
        q.push(Time::from_ps(500), 0, SRC_EXTERNAL, ep(0), Payload::new(()));
        q.push(
            Time::from_ps(1 << 40),
            1,
            SRC_EXTERNAL,
            ep(0),
            Payload::new(()),
        );
        assert_eq!(q.peek_time(), Some(Time::from_ps(500)));
        assert_eq!(pop(&mut q).unwrap().0, Time::from_ps(500));
        assert_eq!(q.peek_time(), Some(Time::from_ps(1 << 40)));
        assert_eq!(pop(&mut q).unwrap().0, Time::from_ps(1 << 40));
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn slab_recycles_slots() {
        let mut q = EventQueue::default();
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
                pop(&mut q).unwrap();
            }
        }
        // All rounds reused the 100 slots of the first.
        assert!(q.slab.len() <= 100, "slab grew to {}", q.slab.len());
    }

    #[test]
    fn queued_payloads_drop_exactly_once_with_the_queue() {
        struct Canary(Arc<AtomicU32>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, AtomicOrdering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU32::new(0));
        let count = || drops.load(AtomicOrdering::SeqCst);
        let canary = || Payload::new(Canary(Arc::clone(&drops)));

        let mut q = EventQueue::default();
        // Pending events, and a recycled slot.
        for (seq, t) in [10, 3 << 22, 20, 50 << 22].into_iter().enumerate() {
            q.push(Time::from_ps(t), seq as u64, SRC_EXTERNAL, ep(0), canary());
        }
        drop(pop(&mut q));
        q.push(Time::from_ps(30), 4, SRC_EXTERNAL, ep(0), canary());
        assert_eq!(count(), 1);
        drop(q);
        assert_eq!(count(), 5);

        // Through a simulator: events left queued past the run horizon.
        struct Drain;
        impl Component for Drain {
            fn on_event(&mut self, _: &mut Ctx<'_>, _: PortId, _: Payload) {}
        }
        drops.store(0, AtomicOrdering::SeqCst);
        let mut sim = Simulator::new(0);
        let sink = Endpoint::of(sim.add("drain", Drain));
        for ns in [1, 2, 1_000, 100_000] {
            sim.post(sink, Time::from_ns(ns), Canary(Arc::clone(&drops)));
        }
        sim.run_until(Time::from_ns(10));
        assert_eq!(count(), 2);
        drop(sim);
        assert_eq!(count(), 4);
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
        let mut q = EventQueue::default();
        q.set_tie_salt(Some(0x5eed));
        for seq in base..=SEQ_MASK {
            let src = 1 + (seq % 2) as u32;
            q.push(Time::from_ps(64), seq, src, ep(0), Payload::new(src));
        }
        let mut popped = Vec::new();
        while let Some((t, seq, _, p)) = pop(&mut q) {
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
            assert!(chan.windows(2).all(|w| w[0] < w[1]), "{chan:?}");
        }
    }

    #[test]
    #[should_panic(expected = "sequence number overflow")]
    fn seq_beyond_the_order_word_is_rejected() {
        let mut q = EventQueue::default();
        q.push(
            Time::ZERO,
            SEQ_MASK + 1,
            SRC_EXTERNAL,
            ep(0),
            Payload::new(()),
        );
    }
}
