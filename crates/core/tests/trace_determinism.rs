//! Trace determinism: the recorded span stream is part of the simulator's
//! reproducibility contract.
//!
//! Span ids are content-derived (component, name, ordinal — never queue
//! internals or allocation order), so the identical timeline promise
//! extends to the trace: the same seeded workload must yield the same
//! span events run to run, and the same span population under
//! deliberately permuted same-timestamp delivery order.

use accl_core::driver::CollSpec;
use accl_core::{AcclCluster, BufLoc, ClusterConfig, CollOp, DType};
use accl_net::FaultPlan;
use accl_sim::trace::{max_span_depth, span_canon_digest, span_digest, SpanEvent};

fn i32s(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn pattern(node: usize, count: u64) -> Vec<u8> {
    i32s(
        &(0..count)
            .map(|i| (node as i32) * 1000 + (i as i32 % 17))
            .collect::<Vec<_>>(),
    )
}

/// Runs a seeded 4-node RDMA allreduce with tracing on and returns the
/// recorded span stream. `salt` permutes same-timestamp delivery order.
fn traced_allreduce(salt: Option<u64>) -> Vec<SpanEvent> {
    traced_allreduce_on(ClusterConfig::coyote_rdma(4), salt, None)
}

/// [`traced_allreduce`] on any cluster configuration, with an optional
/// fault plan installed before the run.
fn traced_allreduce_on(
    cfg: ClusterConfig,
    salt: Option<u64>,
    plan: Option<FaultPlan>,
) -> Vec<SpanEvent> {
    let n = cfg.nodes;
    let count = 4096u64;
    let mut c = AcclCluster::build(cfg);
    if let Some(plan) = plan {
        c.set_fault_plan(plan);
    }
    if let Some(s) = salt {
        c.sim.permute_tie_order(s);
    }
    c.enable_tracing(1 << 20);
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for node in 0..n {
        let src = c.alloc(node, BufLoc::Device, count * 4);
        let dst = c.alloc(node, BufLoc::Device, count * 4);
        c.write(&src, &pattern(node, count));
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst),
        );
        dsts.push(dst);
    }
    c.host_collective(specs);
    // Traces of a wrong answer are worthless — verify the data too.
    let expect: Vec<u8> = i32s(
        &(0..count)
            .map(|i| {
                (0..n as i32)
                    .map(|node| node * 1000 + (i as i32 % 17))
                    .sum::<i32>()
            })
            .collect::<Vec<_>>(),
    );
    for (node, dst) in dsts.iter().enumerate() {
        assert_eq!(c.read(dst), expect, "node {node}");
    }
    assert_eq!(c.sim.spans_dropped(), 0, "ring must hold the whole run");
    c.sim.span_events()
}

#[test]
fn span_stream_is_reproducible_run_to_run() {
    let a = traced_allreduce(None);
    let b = traced_allreduce(None);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must replay the identical span stream");
}

#[test]
fn span_stream_is_queue_invariant() {
    // One queue structure: a rebuilt cluster must record the same span
    // stream. Not merely digest-equal: the full streams (ids, parents,
    // times, attributes, record order) must match event for event.
    let first = traced_allreduce(None);
    let again = traced_allreduce(None);
    assert_eq!(
        first, again,
        "a rebuilt cluster recorded a different span stream"
    );
}

/// The flow edge the RBM draws from the arrival that completed a message
/// to the `rbm.msg` span that streamed it out.
const RBM_FLOW: &str = "rbm.flow";

/// Literal goldens: `(case, span_canon_digest, span_digest)` of the traced
/// allreduce per transport, plus TCP and RDMA under a fixed drop/corrupt
/// schedule (FCS drops, retransmissions), over every span event except the
/// [`RBM_FLOW`] edges (pinned separately in [`PINNED_RBM_FLOWS`]). The
/// other tests here compare two runs of one build; these constants pin the
/// span stream across commits. Never re-capture them to make a change
/// pass. Span ids hash component ids, so adding or removing a component
/// moves them: re-capture only after checking that the span stream is
/// unchanged once every component id is mapped to its name.
const PINNED_SPANS: &[(&str, u64, u64)] = &[
    ("coyote_rdma", 0x1cfb42371d1315b9, 0x365e9184d76bd706),
    ("xrt_tcp", 0x048dc6f30de15628, 0x6d2f62afdd464af9),
    ("xrt_udp", 0xd70b891a0190978d, 0xda10fbb9c4ae430d),
    ("xrt_tcp+lossy", 0x064e2ef26c4dc516, 0xe6da488a225d9849),
    ("coyote_rdma+lossy", 0xcae65030f99460ca, 0xb98f40a0027592f7),
];

/// Literal goldens: `(case, span_digest)` of only the [`RBM_FLOW`] events
/// of each [`PINNED_SPANS`] case, pinning the RBM's wait-to-arrival edges
/// across commits. Never re-capture them to make a change pass.
const PINNED_RBM_FLOWS: &[(&str, u64)] = &[
    ("coyote_rdma", 0x0fe0ba959cfea63a),
    ("xrt_tcp", 0xd7636ad0120efeb6),
    ("xrt_udp", 0xa640b72a57911abc),
    ("xrt_tcp+lossy", 0xe0b9043c6a308ae8),
    ("coyote_rdma+lossy", 0x90947955b86dc06e),
];

#[test]
fn pinned_span_digests_match_literal_goldens() {
    let mut got = Vec::new();
    let mut got_flows = Vec::new();
    for &(name, _, _) in PINNED_SPANS {
        let (base, lossy) = match name.split_once('+') {
            Some((base, "lossy")) => (base, true),
            _ => (name, false),
        };
        let cfg = match base {
            "coyote_rdma" => ClusterConfig::coyote_rdma(4),
            "xrt_tcp" => ClusterConfig::xrt_tcp(4),
            "xrt_udp" => ClusterConfig::xrt_udp(4),
            other => panic!("unknown case {other}"),
        };
        let plan = lossy.then(|| FaultPlan {
            corrupt_indices: [12, 61].into_iter().collect(),
            ..FaultPlan::drop_frames([5, 40])
        });
        let (flows, rest): (Vec<SpanEvent>, Vec<SpanEvent>) = traced_allreduce_on(cfg, None, plan)
            .into_iter()
            .partition(|e| e.name == RBM_FLOW);
        got.push((name, span_canon_digest(&rest), span_digest(&rest)));
        got_flows.push((name, span_digest(&flows)));
    }
    let table: String = got
        .iter()
        .map(|(n, c, d)| format!("    (\"{n}\", {c:#018x}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got, PINNED_SPANS,
        "pinned span digests moved; observed:\n{table}"
    );
    let table: String = got_flows
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got_flows, PINNED_RBM_FLOWS,
        "pinned {RBM_FLOW} digests moved; observed:\n{table}"
    );
}

#[test]
fn trace_covers_every_layer_of_the_stack() {
    let events = traced_allreduce(None);
    let names: std::collections::BTreeSet<&str> = events.iter().map(|e| e.name).collect();
    for required in [
        "driver.coll",
        "driver.collective",
        "uc.call",
        "uc.decode",
        "dmp.instr",
        "tx.job",
        "poe.seg",
        "poe.rx",
        RBM_FLOW,
        "net.wire",
        "mem.hbm.read",
    ] {
        assert!(names.contains(required), "no {required} span recorded");
    }
    let depth = max_span_depth(&events);
    assert!(depth >= 5, "span depth {depth} < 5 (driver -> link chain)");
}

/// The tie-order acceptance bar mirrors the race detector's own
/// canonicalization: under a permuted same-timestamp delivery order, the
/// *population* of spans — what work happened, how often, on which
/// component — must not move ([`span_canon_digest`]). Timing and causal
/// attachment may: when two frames hit a switch egress at the same
/// instant, which one queues and which one grabs the wire is an
/// arbitration choice that shifts downstream arrival times by a few
/// nanoseconds — exactly the "event-timeline digest legitimately
/// differs" caveat `determinism.rs` documents. What must never move is
/// the data, which `traced_allreduce` asserts on every run.
#[test]
fn span_population_survives_permuted_tie_order() {
    let golden = span_canon_digest(&traced_allreduce(None));
    for salt in [1u64, 0x5eed, 0xdead_beef] {
        assert_eq!(
            span_canon_digest(&traced_allreduce(Some(salt))),
            golden,
            "span population changed under permuted tie order (salt {salt:#x})"
        );
    }
}
