//! Kernel-owned timer slots.
//!
//! Watchdogs and retransmission timers are re-armed far more often than
//! they fire. A component names a *slot* `(component, port, key)` and arms
//! it through [`crate::sim::Ctx::arm_timer`]; a re-arm supersedes the
//! pending deadline and [`crate::sim::Ctx::cancel_timer`] leaves none, so a
//! handler that receives a timer knows it is live.
//!
//! An arm takes one `seq` exactly where a `send_self` would, so a live
//! timer pops at the same `(time, seq)` tie position as that message. A
//! slot keeps at most one entry queued, whatever the re-arm rate: an arm
//! queues one only if the queued entry is not already at or before the new
//! deadline. When the entry pops, the slot delivers if it is the live
//! deadline, re-queues at the live `(time, seq)` if that is later, and
//! otherwise delivers nothing. Such a pop still advances the clock but is
//! not an event: it is left out of the trace, the timeline digest and the
//! tie recorder. Once the queue is empty, the latest deadline ever armed
//! stands in for the superseded ones it never held
//! ([`TimerTable::trailing_deadline`]), so a drained run ends where it
//! would have with every deadline queued.

use std::collections::BTreeMap;

use crate::event::{ComponentId, Endpoint, Payload, PortId};
use crate::queue::EventQueue;
use crate::time::Time;

/// One timer slot.
struct Slot {
    /// Where the slot's timer is delivered.
    dst: Endpoint,
    /// The live deadline `(time, seq)` and its payload; `None` when idle.
    live: Option<(Time, u64, Payload)>,
    /// Key of the slot's one current queue entry, if any.
    queued: Option<(Time, u64)>,
}

/// The timer slots of one simulator.
#[derive(Default)]
pub(crate) struct TimerTable {
    /// Dense id of every slot ever armed, by name.
    ids: BTreeMap<(u32, u16, u64), u32>,
    slots: Vec<Slot>,
    /// The latest deadline ever armed.
    latest: Time,
    /// Deadlines superseded (re-armed or cancelled while live) since the
    /// last [`TimerTable::take_superseded`].
    superseded: u64,
}

impl TimerTable {
    /// Makes `(at, seq)` the live deadline of slot `key` of endpoint `dst`,
    /// delivering `payload`; supersedes any pending one, and queues an
    /// entry unless the slot's queued one comes first.
    pub(crate) fn arm(
        &mut self,
        queue: &mut EventQueue,
        dst: Endpoint,
        key: u64,
        at: Time,
        seq: u64,
        payload: Payload,
    ) {
        let id = *self
            .ids
            .entry((dst.comp.0, dst.port.0, key))
            .or_insert_with(|| {
                self.slots.push(Slot {
                    dst,
                    live: None,
                    queued: None,
                });
                self.slots.len() as u32 - 1
            });
        let slot = &mut self.slots[id as usize];
        if slot.live.replace((at, seq, payload)).is_some() {
            self.superseded += 1;
        }
        self.latest = self.latest.max(at);
        // An earlier `seq` wins a tie, so a queued entry at `at` comes first.
        if slot.queued.is_none_or(|(t, _)| at < t) {
            slot.queued = Some((at, seq));
            queue.push_timer(at, seq, dst, id);
        }
    }

    /// Leaves slot `(comp, port, key)` with no pending deadline.
    pub(crate) fn cancel(&mut self, comp: ComponentId, port: PortId, key: u64) {
        if let Some(&id) = self.ids.get(&(comp.0, port.0, key)) {
            if self.slots[id as usize].live.take().is_some() {
                self.superseded += 1;
            }
        }
    }

    /// Whether slot `(comp, port, key)` has a deadline pending.
    pub(crate) fn pending(&self, comp: ComponentId, port: PortId, key: u64) -> bool {
        self.ids
            .get(&(comp.0, port.0, key))
            .is_some_and(|&id| self.slots[id as usize].live.is_some())
    }

    /// Called when slot `id`'s entry `(time, seq)` pops: the destination
    /// and payload to deliver if it is the live deadline (the slot becomes
    /// idle). Otherwise `None`, after re-queueing the slot at its live
    /// deadline if that lies later.
    #[inline]
    pub(crate) fn fire(
        &mut self,
        queue: &mut EventQueue,
        id: u32,
        time: Time,
        seq: u64,
    ) -> Option<(Endpoint, Payload)> {
        let slot = &mut self.slots[id as usize];
        // A mismatch is an entry a re-arm to an earlier deadline left behind.
        slot.queued.take_if(|queued| *queued == (time, seq))?;
        let &(at, live_seq, _) = slot.live.as_ref()?;
        if (at, live_seq) == (time, seq) {
            return slot.live.take().map(|(.., payload)| (slot.dst, payload));
        }
        slot.queued = Some((at, live_seq));
        queue.push_timer(at, live_seq, slot.dst, id);
        None
    }

    /// The latest deadline ever armed, if it lies after `now`. With the
    /// queue empty, the simulator treats it as a pending entry that
    /// delivers nothing.
    #[inline]
    pub(crate) fn trailing_deadline(&self, now: Time) -> Option<Time> {
        (self.latest > now).then_some(self.latest)
    }

    /// The superseded-deadline count since the last call.
    pub(crate) fn take_superseded(&mut self) -> u64 {
        core::mem::take(&mut self.superseded)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    const CMD: PortId = PortId(1);
    const FIRE: PortId = PortId(2);

    /// One scripted action, posted to [`CMD`].
    #[derive(Clone, Copy)]
    enum Act {
        Arm { key: u64, after: Dur, tag: u32 },
        Send { after: Dur, tag: u32 },
        Cancel { key: u64 },
    }

    /// Carries out [`Act`]s; logs every `u32` delivered on [`FIRE`].
    #[derive(Default)]
    struct Scripted {
        fired: Vec<(Time, u32)>,
    }

    impl Component for Scripted {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
            if port == FIRE {
                self.fired.push((ctx.now(), payload.downcast::<u32>()));
                return;
            }
            for act in payload.downcast::<Vec<Act>>() {
                match act {
                    Act::Arm { key, after, tag } => ctx.arm_timer(FIRE, key, after, tag),
                    Act::Send { after, tag } => ctx.send_self(FIRE, after, tag),
                    Act::Cancel { key } => ctx.cancel_timer(FIRE, key),
                }
            }
        }
    }

    /// FIFO tie order and one tie-order permutation.
    const CONFIGS: [Option<u64>; 2] = [None, Some(0x7e57)];

    /// What one scripted run left behind.
    #[derive(Debug, PartialEq)]
    struct Run {
        fired: Vec<(Time, u32)>,
        now: Time,
        executed: u64,
        superseded: u64,
        trace: Vec<(Time, PortId, &'static str)>,
        digest: u64,
        ties: u64,
    }

    /// Runs `script` (`(time, actions)` posted to one [`Scripted`]) with
    /// every observer on, plus `extra` tags posted straight to [`FIRE`].
    fn run_with(salt: Option<u64>, script: &[(Time, Vec<Act>)], extra: &[(Time, u32)]) -> Run {
        let mut sim = Simulator::new(1);
        if let Some(salt) = salt {
            sim.permute_tie_order(salt);
        }
        sim.enable_trace(1024);
        sim.enable_digest();
        sim.enable_tie_recording();
        let c = sim.add("scripted", Scripted::default());
        for (at, acts) in script {
            sim.post(Endpoint::new(c, CMD), *at, acts.clone());
        }
        for &(at, tag) in extra {
            sim.post(Endpoint::new(c, FIRE), at, tag);
        }
        assert_eq!(sim.run(), RunOutcome::Drained);
        Run {
            fired: sim.component::<Scripted>(c).fired.clone(),
            now: sim.now(),
            executed: sim.events_executed(),
            superseded: sim.stats().counter("sim.kernel.timers_superseded"),
            trace: sim
                .trace()
                .iter()
                .map(|r| (r.time, r.port, r.payload_type))
                .collect(),
            digest: sim.timeline_digest().unwrap(),
            ties: sim.tie_trace().unwrap().digest(),
        }
    }

    fn run(salt: Option<u64>, script: &[(Time, Vec<Act>)]) -> Run {
        run_with(salt, script, &[])
    }

    fn at_ns(ns: u64) -> Time {
        Time::ZERO + Dur::from_ns(ns)
    }

    #[test]
    fn rearm_supersedes_and_cancel_leaves_nothing() {
        let script = [
            (
                Time::ZERO,
                vec![
                    Act::Arm {
                        key: 1,
                        after: Dur::from_us(100),
                        tag: 1,
                    },
                    Act::Arm {
                        key: 2,
                        after: Dur::from_us(200),
                        tag: 2,
                    },
                ],
            ),
            (
                at_ns(10_000),
                vec![Act::Arm {
                    key: 1,
                    after: Dur::from_us(50),
                    tag: 3,
                }],
            ),
            (at_ns(20_000), vec![Act::Cancel { key: 2 }]),
        ];
        for salt in CONFIGS {
            let r = run(salt, &script);
            assert_eq!(r.fired, vec![(at_ns(60_000), 3)], "{salt:?}");
            assert_eq!(r.superseded, 2);
            assert_eq!(r.executed, 4, "three scripts and one live timer");
            assert_eq!(
                r.now,
                at_ns(200_000),
                "the clock reaches the cancelled deadline"
            );
        }
    }

    #[test]
    fn pending_tracks_arm_cancel_and_fire() {
        let mut sim = Simulator::new(1);
        let c = sim.add("scripted", Scripted::default());
        let arm = |key| Act::Arm {
            key,
            after: Dur::from_ns(100),
            tag: 0,
        };
        sim.post(Endpoint::new(c, CMD), Time::ZERO, vec![arm(1), arm(2)]);
        sim.run_until(at_ns(50));
        assert!(sim.timer_pending(c, FIRE, 1) && sim.timer_pending(c, FIRE, 2));
        assert!(!sim.timer_pending(c, FIRE, 3) && !sim.timer_pending(c, CMD, 1));
        sim.cancel_timer(c, FIRE, 2);
        assert!(!sim.timer_pending(c, FIRE, 2));
        sim.run();
        assert!(!sim.timer_pending(c, FIRE, 1), "a fired slot is idle");
        assert_eq!(sim.component::<Scripted>(c).fired, vec![(at_ns(100), 0)]);
    }

    #[test]
    fn live_timer_pops_where_send_self_would() {
        // Five same-time deliveries on one port from two channels: three
        // self-messages and two external posts.
        let script = |middle: Act| {
            [(
                Time::ZERO,
                vec![
                    Act::Send {
                        after: Dur::from_ns(100),
                        tag: 1,
                    },
                    middle,
                    Act::Send {
                        after: Dur::from_ns(100),
                        tag: 3,
                    },
                ],
            )]
        };
        let timer = script(Act::Arm {
            key: 9,
            after: Dur::from_ns(100),
            tag: 2,
        });
        let plain = script(Act::Send {
            after: Dur::from_ns(100),
            tag: 2,
        });
        let extra = [(at_ns(100), 7), (at_ns(100), 8)];
        for salt in CONFIGS {
            let a = run_with(salt, &timer, &extra);
            let b = run_with(salt, &plain, &extra);
            assert_eq!(a, b, "{salt:?}");
            assert_eq!(a.fired.len(), 5);
            assert_eq!(a.superseded, 0);
        }
    }

    #[test]
    fn skipped_deadline_moves_only_the_clock() {
        // The first deadline of slot 1 is superseded 10 ns in; however far
        // out it lay, every observer sees the same run, and only the
        // drained clock differs.
        let script = |first: Dur| {
            [
                (
                    Time::ZERO,
                    vec![
                        Act::Arm {
                            key: 1,
                            after: first,
                            tag: 1,
                        },
                        Act::Send {
                            after: Dur::from_ns(30),
                            tag: 5,
                        },
                    ],
                ),
                (
                    at_ns(10),
                    vec![Act::Arm {
                        key: 1,
                        after: Dur::from_ns(20),
                        tag: 2,
                    }],
                ),
            ]
        };
        for salt in CONFIGS {
            let near = run(salt, &script(Dur::from_ns(900)));
            let far = run(salt, &script(Dur::from_us(80)));
            assert_eq!(near.now, at_ns(900), "{salt:?}");
            assert_eq!(far.now, at_ns(80_000));
            for r in [&near, &far] {
                assert_eq!(r.superseded, 1);
                assert_eq!(r.executed, 4);
                assert_eq!(r.trace.len() as u64, r.executed);
                assert!(r.trace.iter().all(|&(t, ..)| t <= at_ns(30)));
            }
            assert_eq!(near.fired, far.fired);
            assert_eq!(near.trace, far.trace);
            assert_eq!(near.digest, far.digest);
            assert_eq!(near.ties, far.ties);
        }
    }

    /// Re-arms its slot on [`FIRE`] to `now + 1 us` on every [`CMD`]
    /// message and sends itself the next one 1 ns later, `left` times.
    struct Rearmer {
        left: u32,
        fired: Vec<Time>,
    }

    impl Component for Rearmer {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, _: Payload) {
            if port == FIRE {
                self.fired.push(ctx.now());
                return;
            }
            ctx.arm_timer(FIRE, 1, Dur::from_us(1), ());
            self.left -= 1;
            if self.left > 0 {
                ctx.send_self(CMD, Dur::from_ns(1), ());
            }
        }
    }

    #[test]
    fn rearms_to_later_deadlines_keep_one_entry_queued() {
        let mut sim = Simulator::new(1);
        let c = sim.add(
            "rearmer",
            Rearmer {
                left: 1_000,
                fired: Vec::new(),
            },
        );
        sim.post(Endpoint::new(c, CMD), Time::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::Drained);
        let summary = sim.last_run_summary().unwrap();
        assert!(
            summary.max_queue_depth <= 2,
            "depth {}",
            summary.max_queue_depth
        );
        // The last re-arm, at 999 ns, is the one deadline delivered.
        assert_eq!(sim.component::<Rearmer>(c).fired, vec![at_ns(1_999)]);
        assert_eq!(sim.now(), at_ns(1_999));
        assert_eq!(summary.events_executed, 1_001);
        assert_eq!(sim.stats().counter("sim.kernel.timers_superseded"), 999);
    }

    #[test]
    fn cancelled_later_deadline_still_holds_the_clock() {
        // The slot's one queued entry is the first deadline (100 us); the
        // re-arm to 300 us queues nothing, and the cancel leaves the slot
        // idle. The clock still runs to 300 us, as if both deadlines had
        // been queued and skipped.
        let script = [
            (
                Time::ZERO,
                vec![Act::Arm {
                    key: 1,
                    after: Dur::from_us(100),
                    tag: 1,
                }],
            ),
            (
                at_ns(10_000),
                vec![Act::Arm {
                    key: 1,
                    after: Dur::from_us(290),
                    tag: 2,
                }],
            ),
            (at_ns(20_000), vec![Act::Cancel { key: 1 }]),
        ];
        let mut sim = Simulator::new(1);
        let c = sim.add("scripted", Scripted::default());
        for (at, acts) in script {
            sim.post(Endpoint::new(c, CMD), at, acts);
        }
        assert_eq!(sim.run_until(at_ns(200_000)), RunOutcome::Horizon);
        assert_eq!(sim.now(), at_ns(200_000));
        assert_eq!(sim.stats().counter("sim.kernel.timers_superseded"), 2);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.now(), at_ns(300_000));
        assert!(sim.component::<Scripted>(c).fired.is_empty());
        assert_eq!(sim.events_executed(), 3);
    }
}
