//! Property tests for [`LinkSchedule`]'s window-merge representation.
//!
//! `LinkSchedule::down` keeps outage windows sorted and disjoint so
//! membership stays a binary search. The properties below feed it random
//! overlapping windows in random insertion order and check the merged
//! representation against the naive any-window-contains-t oracle. The
//! last one checks a node's down windows, built from crash and restart
//! events in any list order, against a scan of the events in time order.

use accl_net::fault::LinkSchedule;
use accl_net::{FaultEvent, FaultPlan, NodeAddr};
use accl_sim::time::Time;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Builds a schedule from raw `[from, until)` pairs (filtering empties,
/// which `down` rejects by assertion).
fn schedule(windows: &[(u64, u64)]) -> LinkSchedule {
    let mut sched = LinkSchedule::new();
    for &(lo, hi) in windows {
        if lo < hi {
            sched = sched.down(Time::from_ps(lo), Time::from_ps(hi));
        }
    }
    sched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merged_windows_are_sorted_and_disjoint(
        raw in pvec((0u64..2_000, 0u64..2_000), 0..24),
    ) {
        let sched = schedule(&raw);
        let windows = sched.windows();
        for w in windows {
            prop_assert!(w.0 < w.1, "empty window {w:?}");
        }
        for pair in windows.windows(2) {
            // Strictly separated: touching windows [a,b) [b,c) merge too.
            prop_assert!(
                pair[0].1 < pair[1].0,
                "windows not disjoint/sorted: {pair:?}"
            );
        }
    }

    #[test]
    fn membership_is_equivalent_to_the_naive_oracle(
        raw in pvec((0u64..500, 0u64..500), 0..16),
        probes in pvec(0u64..600, 32),
    ) {
        let sched = schedule(&raw);
        for &t in &probes {
            let oracle = raw
                .iter()
                .filter(|&&(lo, hi)| lo < hi)
                .any(|&(lo, hi)| lo <= t && t < hi);
            prop_assert_eq!(
                sched.is_down(Time::from_ps(t)),
                oracle,
                "t={} windows={:?}",
                t,
                raw
            );
        }
    }

    #[test]
    fn insertion_order_is_irrelevant(
        raw in pvec((0u64..300, 1u64..100), 1..12),
    ) {
        // Interpret pairs as (start, len) so every window is non-empty.
        let fwd: Vec<(u64, u64)> = raw.iter().map(|&(lo, len)| (lo, lo + len)).collect();
        let mut rev = fwd.clone();
        rev.reverse();
        prop_assert_eq!(
            schedule(&fwd).windows().to_vec(),
            schedule(&rev).windows().to_vec()
        );
    }

    #[test]
    fn node_windows_follow_the_time_ordered_events(
        raw in pvec((0u64..60, any::<bool>()), 0..16),
    ) {
        let node = NodeAddr(0);
        let events: Vec<FaultEvent> = raw
            .iter()
            .map(|&(t, crash)| {
                let at = Time::from_ps(t);
                if crash {
                    FaultEvent::Crash { node, at }
                } else {
                    FaultEvent::Restart { node, at }
                }
            })
            .collect();
        // The oracle: a crash while up opens a window, a restart after
        // the open window's crash closes it, anything else is ignored.
        let mut sorted = raw.clone();
        sorted.sort_by_key(|&(t, crash)| (t, !crash));
        let mut want: Vec<(Time, Time)> = Vec::new();
        for (t, crash) in sorted {
            let open = want.last().is_some_and(|w| w.1 == Time::MAX);
            match (crash, open) {
                (true, false) => want.push((Time::from_ps(t), Time::MAX)),
                (false, true) if want.last().unwrap().0 < Time::from_ps(t) => {
                    want.last_mut().unwrap().1 = Time::from_ps(t);
                }
                _ => {}
            }
        }
        let plan = FaultPlan::from_events(&events);
        prop_assert_eq!(plan.node_windows(node), &want[..]);
        // The canonical event list rebuilds the same windows.
        let rebuilt = FaultPlan::from_events(&plan.to_events());
        prop_assert_eq!(rebuilt.node_windows(node), &want[..]);
    }
}
