//! Integration tests for the sim-time race detector.
//!
//! The permutation is *channel-preserving*: same-timestamp events keep
//! their program order within one (source component → destination
//! endpoint) channel and are shuffled only across channels. The fixtures
//! therefore fan events through distinct relay components, which is also
//! the honest model of a race: independent senders arriving at the same
//! simulated instant.

use accl_sim::digest::fnv_fold;
use accl_sim::prelude::*;
use accl_sim::race::shadow_check;

/// Forwards every received value to `to` after a fixed delay. One relay
/// per sender gives each value its own delivery channel into the sink.
struct Relay {
    to: Endpoint,
    delay: Dur,
}

impl Component for Relay {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        let v = payload.downcast::<u32>();
        ctx.send(self.to, self.delay, v);
    }
}

/// A commuting sink: folds every received value into an order-insensitive
/// accumulator (wrapping sum), so any interleaving of same-timestamp
/// deliveries yields the same final state.
struct Summer {
    sum: u64,
}

impl Component for Summer {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        self.sum = self.sum.wrapping_add(u64::from(payload.downcast::<u32>()));
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = 0;
        fnv_fold(&mut h, &self.sum.to_le_bytes());
        Some(h)
    }
}

/// A non-commuting sink: folds values with an order-*sensitive* polynomial
/// hash, so two same-timestamp deliveries that swap places change the final
/// state. This is the deliberate "racy handler" fixture. Each delivery is
/// wrapped in a span, which a race report carries as causal history.
struct OrderHasher {
    h: u64,
}

impl Component for OrderHasher {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        let v = u64::from(payload.downcast::<u32>());
        let span = ctx.span_begin("hasher.fold", SpanId::NONE);
        self.h = self.h.wrapping_mul(31).wrapping_add(v);
        ctx.span_end(span);
    }

    fn state_digest(&self) -> Option<u64> {
        Some(self.h)
    }
}

/// Fans `n` distinct values through `n` relay components so they all land
/// on `sink` at the same timestamp, each on its own channel, plus a couple
/// of spread-out arrivals so the trace has both tied and untied sets.
fn post_tied(sim: &mut Simulator, sink: ComponentId, t: Time, n: u32) {
    let delay = Dur::from_ns(10);
    let kick = t - delay;
    for v in 0..n {
        let relay = sim.add(
            format!("relay-{}-{v}", t.as_ps()),
            Relay {
                to: Endpoint::of(sink),
                delay,
            },
        );
        sim.post(Endpoint::of(relay), kick, v + 1);
    }
    sim.post(Endpoint::of(sink), t + Dur::from_ns(50), 1000u32);
    sim.post(Endpoint::of(sink), t + Dur::from_ns(70), 2000u32);
}

#[test]
fn commuting_handlers_pass_shadow_check() {
    let outcome = shadow_check(7, &[1, 2, 0xdead_beef], |sim| {
        let a = sim.add("summer-a", Summer { sum: 0 });
        let b = sim.add("summer-b", Summer { sum: 0 });
        post_tied(sim, a, Time::from_ps(100_000), 8);
        post_tied(sim, b, Time::from_ps(100_000), 8);
    })
    .expect("wrapping sum commutes; no race expected");
    assert!(
        outcome.contended_ties > 0,
        "fixture must actually exercise tie permutation"
    );
}

#[test]
fn golden_digest_is_reproducible() {
    let build = |sim: &mut Simulator| {
        let a = sim.add("summer", Summer { sum: 0 });
        post_tied(sim, a, Time::from_ps(200_000), 16);
    };
    let first = shadow_check(11, &[3, 4], build).unwrap();
    let second = shadow_check(11, &[5, 6, 7], build).unwrap();
    assert_eq!(
        first.golden_digest, second.golden_digest,
        "tie-normalized golden digest must be salt-independent"
    );
}

#[test]
fn non_commuting_handler_is_detected_and_named() {
    let tie_time = Time::from_ps(300_000);
    let report = shadow_check(13, &[1, 2, 3, 4], |sim| {
        let x = sim.add("order-hasher", OrderHasher { h: 0 });
        post_tied(sim, x, tie_time, 6);
    })
    .expect_err("order-sensitive fold must be flagged as a race");
    assert_eq!(report.component, "order-hasher");
    assert_eq!(
        report.time, tie_time,
        "report must name the contended timestamp, got: {report}"
    );
    // The rendered report carries the full (time, component, event type)
    // triple for the user.
    let msg = report.to_string();
    assert!(msg.contains("order-hasher"), "bad report: {msg}");
    assert!(msg.contains("u32"), "bad report: {msg}");
    // shadow_check records spans in every build, so the report shows what
    // the racing component was doing, not just its delivery lines.
    assert!(
        !report.recent_spans.is_empty(),
        "race report carries no span history: {report}"
    );
    assert!(msg.contains("hasher.fold"), "bad report: {msg}");
}

#[test]
fn tie_permutation_actually_reorders_within_a_tie() {
    // Sanity for the mechanism itself: an order-sensitive sink fed from 12
    // distinct channels must see a different interleaving under at least
    // one salt. (If every salt reproduced FIFO order the detector would be
    // vacuous.)
    let run = |salt: Option<u64>| {
        let mut sim = Simulator::new(99);
        if let Some(s) = salt {
            sim.permute_tie_order(s);
        }
        let x = sim.add("hasher", OrderHasher { h: 0 });
        post_tied(&mut sim, x, Time::from_ps(50_000), 12);
        assert_eq!(sim.run(), RunOutcome::Drained);
        sim.state_digests()[0].1
    };
    let baseline = run(None);
    assert!(
        (1..20).any(|s| run(Some(s)) != baseline),
        "no salt in 1..20 changed intra-tie order — permutation is broken"
    );
    // And the permutation itself is deterministic: same salt, same order.
    assert_eq!(run(Some(5)), run(Some(5)));
}

#[test]
fn same_channel_fifo_order_survives_permutation() {
    // Two values sent back-to-back by the *same* relay arrive at the same
    // timestamp on the same channel: program order, not a race. No salt
    // may reorder them.
    struct DoubleSend {
        to: Endpoint,
    }
    impl Component for DoubleSend {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
            let v = payload.downcast::<u32>();
            ctx.send(self.to, Dur::from_ns(10), v);
            ctx.send(self.to, Dur::from_ns(10), v + 1);
        }
    }
    let run = |salt: Option<u64>| {
        let mut sim = Simulator::new(3);
        if let Some(s) = salt {
            sim.permute_tie_order(s);
        }
        let x = sim.add("hasher", OrderHasher { h: 0 });
        let d = sim.add(
            "double",
            DoubleSend {
                to: Endpoint::of(x),
            },
        );
        sim.post(Endpoint::of(d), Time::from_ps(1_000), 7u32);
        assert_eq!(sim.run(), RunOutcome::Drained);
        sim.state_digests()[0].1
    };
    let baseline = run(None);
    for s in 1..10 {
        assert_eq!(
            run(Some(s)),
            baseline,
            "salt {s} reordered a single channel's FIFO stream"
        );
    }
}

#[test]
fn tie_recording_identical_across_tie_permutations() {
    // The canonical trace compares each tie-set as a set, so neither a
    // replay nor a tie-order permutation may move it.
    let trace_for = |salt: Option<u64>| {
        let mut sim = Simulator::new(42);
        sim.enable_tie_recording();
        if let Some(s) = salt {
            sim.permute_tie_order(s);
        }
        let a = sim.add("summer", Summer { sum: 0 });
        post_tied(&mut sim, a, Time::from_ps(400_000), 10);
        assert_eq!(sim.run(), RunOutcome::Drained);
        sim.tie_trace().unwrap()
    };
    let golden = trace_for(None);
    for salt in [None, Some(17), Some(0xabcd)] {
        let trace = trace_for(salt);
        assert_eq!(trace, golden, "canonical trace diverged under {salt:?}");
        assert_eq!(trace.digest(), golden.digest());
    }
}

#[test]
fn cross_timestamp_order_is_untouched_by_permutation() {
    // Events at distinct timestamps must execute in time order regardless
    // of salt — OrderHasher over unique timestamps is salt-invariant.
    let run = |salt: Option<u64>| {
        let mut sim = Simulator::new(7);
        if let Some(s) = salt {
            sim.permute_tie_order(s);
        }
        let x = sim.add("hasher", OrderHasher { h: 0 });
        for v in 0..10u32 {
            sim.post(Endpoint::of(x), Time::from_ps(100 * u64::from(v + 1)), v);
        }
        assert_eq!(sim.run(), RunOutcome::Drained);
        sim.state_digests()[0].1
    };
    let baseline = run(None);
    for s in 1..10 {
        assert_eq!(run(Some(s)), baseline, "salt {s} leaked across timestamps");
    }
}
