//! Kernel-owned timer slots.
//!
//! Watchdogs and retransmission timers are re-armed far more often than
//! they fire: every ACK pushes an RTO deadline out, every bit of progress
//! restarts a collective watchdog. A component names a *slot*
//! `(component, port, key)` and arms it through [`crate::sim::Ctx::arm_timer`].
//! Arming an already-pending slot supersedes its old deadline, and
//! [`crate::sim::Ctx::cancel_timer`] leaves it with none, so a handler that
//! receives a timer knows the timer is live. No generation counter is kept
//! in component state.
//!
//! The deadline is an ordinary queue entry tagged with its slot. An arm
//! takes one `seq` exactly where a `send_self` would, so a live timer pops
//! at the same `(time, seq)` tie position as the equivalent self-message.
//! A cancel or a re-arm takes no `seq` and touches no queue entry. The
//! kernel recognises the superseded entry when it pops: the entry's `seq`
//! is no longer its slot's live one. Such an entry still advances the clock
//! but is not delivered: it does not count as an event and is left out of
//! the trace, the timeline digest and the tie recorder.

use std::collections::BTreeMap;

use crate::event::{ComponentId, PortId};

/// [`TimerTable::live`] of a slot with no pending deadline. Never a valid
/// `seq` (those fit in 40 bits).
const IDLE: u64 = u64::MAX;

/// The timer slots of one simulator.
#[derive(Default)]
pub(crate) struct TimerTable {
    /// Dense id of every slot ever armed, by name.
    ids: BTreeMap<(u32, u16, u64), u32>,
    /// Per slot id: the `seq` of its live queue entry, or [`IDLE`].
    live: Vec<u64>,
}

impl TimerTable {
    /// Makes `seq` the live deadline of slot `(comp, port, key)`,
    /// superseding any pending one, and returns the slot's id to tag the
    /// queue entry with.
    pub(crate) fn arm(&mut self, comp: ComponentId, port: PortId, key: u64, seq: u64) -> u32 {
        let next = self.live.len() as u32;
        let id = *self.ids.entry((comp.0, port.0, key)).or_insert(next);
        if id == next {
            self.live.push(IDLE);
        }
        self.live[id as usize] = seq;
        id
    }

    /// Leaves slot `(comp, port, key)` with no pending deadline.
    pub(crate) fn cancel(&mut self, comp: ComponentId, port: PortId, key: u64) {
        if let Some(&id) = self.ids.get(&(comp.0, port.0, key)) {
            self.live[id as usize] = IDLE;
        }
    }

    /// Whether slot `(comp, port, key)` has a deadline pending.
    pub(crate) fn pending(&self, comp: ComponentId, port: PortId, key: u64) -> bool {
        self.ids
            .get(&(comp.0, port.0, key))
            .is_some_and(|&id| self.live[id as usize] != IDLE)
    }

    /// Called when the entry `(slot id, seq)` pops: `true` if it is the
    /// slot's live deadline (the slot becomes idle and the entry is
    /// delivered), `false` if a re-arm or cancel superseded it.
    #[inline]
    pub(crate) fn fire(&mut self, id: u32, seq: u64) -> bool {
        let live = &mut self.live[id as usize];
        if *live == seq {
            *live = IDLE;
            true
        } else {
            false
        }
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

    /// Every queue structure, with and without a tie-order permutation.
    const CONFIGS: [(QueueKind, Option<u64>); 4] = [
        (QueueKind::Calendar, None),
        (QueueKind::Heap, None),
        (QueueKind::Calendar, Some(0x7e57)),
        (QueueKind::Heap, Some(0x7e57)),
    ];

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
    /// The run starts on the calendar queue and switches to `kind` once
    /// the first timers are pending.
    fn run_with(
        kind: QueueKind,
        salt: Option<u64>,
        script: &[(Time, Vec<Act>)],
        extra: &[(Time, u32)],
    ) -> Run {
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
        sim.run_until(Time::from_ps(1));
        sim.set_queue_kind(kind);
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

    fn run(kind: QueueKind, salt: Option<u64>, script: &[(Time, Vec<Act>)]) -> Run {
        run_with(kind, salt, script, &[])
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
        for (kind, salt) in CONFIGS {
            let r = run(kind, salt, &script);
            assert_eq!(r.fired, vec![(at_ns(60_000), 3)], "{kind:?} {salt:?}");
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
        for (kind, salt) in CONFIGS {
            let a = run_with(kind, salt, &timer, &extra);
            let b = run_with(kind, salt, &plain, &extra);
            assert_eq!(a, b, "{kind:?} {salt:?}");
            assert_eq!(a.fired.len(), 5);
            assert_eq!(a.superseded, 0);
        }
    }

    #[test]
    fn skipped_deadline_moves_only_the_clock() {
        // The first deadline of slot 1 is superseded 10 ns in; wherever it
        // lay (inside the calendar window or in the far heap), every
        // observer sees the same run, and only the drained clock differs.
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
        for (kind, salt) in CONFIGS {
            let near = run(kind, salt, &script(Dur::from_ns(900)));
            let far = run(kind, salt, &script(Dur::from_us(80)));
            assert_eq!(near.now, at_ns(900), "{kind:?} {salt:?}");
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
}
