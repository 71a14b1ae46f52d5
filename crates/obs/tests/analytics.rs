//! End-to-end acceptance tests for the trace-analytics engine, against
//! the real simulator (not synthetic event lists):
//!
//!  - the critical path of the 8-rank allreduce is an exact integer
//!    partition of each call's end-to-end latency, and its digest is
//!    bit-identical run-to-run and across event-queue kinds;
//!  - the critical path follows Rx waits onto the wire: the net layer's
//!    share of an allreduce rises with message size, eager and
//!    rendezvous alike;
//!  - `diff` between two seeds of the same workload reports zero
//!    regressions;
//!  - `diff` against a deliberately degraded link names the affected
//!    component, span type and rank;
//!  - windowed metrics are identical across event-queue kinds;
//!  - a captured document round-trips bit-exactly through the JSON
//!    interchange form.

use accl_core::{AcclCluster, BufLoc, ClusterConfig, CollOp, CollSpec, DType, SyncProto};
use accl_obs::{
    attribute, capture, critical_path, critical_path_digest, diff_attributions, json, Attribution,
    CaptureConfig, CriticalPath, SpanGraph, TraceDoc, Workload,
};
use accl_sim::prelude::*;

fn analyze(doc: &TraceDoc) -> (Vec<CriticalPath>, Attribution) {
    let g = SpanGraph::build(doc);
    assert!(
        g.dangling_flows.is_empty(),
        "every emitted flow edge must be joined on the receive side: {:?}",
        g.dangling_flows
    );
    let roots = g.roots(|n| n == "driver.coll");
    assert!(!roots.is_empty(), "no collective roots in the trace");
    let paths: Vec<CriticalPath> = roots
        .iter()
        .map(|&r| critical_path(&g, r).expect("root has begin and end"))
        .collect();
    let attr = attribute(doc, &paths);
    (paths, attr)
}

#[test]
fn allreduce_critical_path_is_an_exact_integer_partition() {
    let doc = capture(&CaptureConfig::default());
    let (paths, attr) = analyze(&doc);
    assert_eq!(paths.len(), 8, "one root per rank");
    for p in &paths {
        // Exact to the picosecond, per root: segments are contiguous
        // and tile [begin, end].
        assert_eq!(p.attributed_ps(), p.total_ps());
        let mut cursor = p.begin_ps;
        for s in &p.segments {
            assert_eq!(s.from_ps, cursor, "segments must be contiguous");
            assert!(s.to_ps > s.from_ps, "segments must be non-empty");
            cursor = s.to_ps;
        }
        assert_eq!(cursor, p.end_ps);
    }
    // And in aggregate across the table.
    assert_eq!(attr.attributed_ps(), attr.total_ps);
    assert!(attr.total_ps > 0);
    // NIC queue and wire time is charged to the node that owns the link.
    let nic_rows: Vec<_> = attr
        .rows
        .iter()
        .filter(|r| r.comp_kind == "net.port")
        .collect();
    assert!(!nic_rows.is_empty(), "no NIC time on the critical path");
    for r in nic_rows {
        assert!(r.rank.is_some(), "NIC row without a rank: {r:?}");
    }
}

/// Share of the critical path charged to the fabric (`net.*`
/// components) in a traced 8-rank Coyote+RDMA allreduce of `bytes` per
/// rank under protocol `sync`.
fn net_share_permille(bytes: u64, sync: SyncProto) -> u64 {
    let n = 8;
    let count = bytes / 4;
    let mut cluster = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    cluster.enable_tracing(1 << 20);
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for rank in 0..n {
        let src = cluster.alloc(rank, BufLoc::Device, bytes);
        let dst = cluster.alloc(rank, BufLoc::Device, bytes);
        let data: Vec<u8> = (0..count as i32)
            .flat_map(|i| (i + rank as i32).to_le_bytes())
            .collect();
        cluster.write(&src, &data);
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst)
                .sync(sync),
        );
        dsts.push(dst);
    }
    cluster.host_collective(specs);
    let expect: Vec<u8> = (0..count as i32)
        .flat_map(|i| (0..n as i32).map(|r| i + r).sum::<i32>().to_le_bytes())
        .collect();
    for (rank, dst) in dsts.iter().enumerate() {
        assert_eq!(
            cluster.read(dst),
            expect,
            "rank {rank}, {bytes} B, {sync:?}"
        );
    }
    let doc = TraceDoc::from_cluster(&cluster, "allreduce8", 1, 1);
    let (_, attr) = analyze(&doc);
    assert_eq!(attr.attributed_ps(), attr.total_ps);
    let net: u64 = attr
        .rows
        .iter()
        .filter(|r| r.comp_kind.starts_with("net."))
        .map(|r| r.ps)
        .sum();
    net * 1000 / attr.total_ps
}

#[test]
fn net_share_rises_with_message_size() {
    for sync in [SyncProto::Eager, SyncProto::Rendezvous] {
        let shares: Vec<u64> = [1 << 10, 8 << 10, 64 << 10]
            .into_iter()
            .map(|bytes| net_share_permille(bytes, sync))
            .collect();
        assert!(shares[0] > 0, "{sync:?}: no fabric time at 1 KiB");
        assert!(
            shares[0] < shares[1] && shares[1] < shares[2],
            "{sync:?}: net share (permille) must rise over 1/8/64 KiB, got {shares:?}"
        );
    }
}

#[test]
fn critical_path_digest_is_replay_and_queue_invariant() {
    let digest_of = |cfg: &CaptureConfig| {
        let doc = capture(cfg);
        let (paths, _) = analyze(&doc);
        critical_path_digest(&paths)
    };
    let golden = digest_of(&CaptureConfig::default());
    // Run-to-run.
    assert_eq!(
        digest_of(&CaptureConfig::default()),
        golden,
        "rerun diverged"
    );
    // Queue A/B.
    assert_eq!(
        digest_of(&CaptureConfig {
            queue: QueueKind::Heap,
            ..CaptureConfig::default()
        }),
        golden,
        "heap queue diverged"
    );
}

#[test]
fn diff_between_seeds_reports_zero_regressions() {
    let a = capture(&CaptureConfig::default());
    let b = capture(&CaptureConfig {
        seed: 2,
        ..CaptureConfig::default()
    });
    let (_, attr_a) = analyze(&a);
    let (_, attr_b) = analyze(&b);
    let report = diff_attributions(&attr_a, &attr_b);
    // CI gate thresholds: 1 µs absolute AND 5 % relative.
    assert!(
        report.regressions(1_000_000, 50).is_empty(),
        "seed change must not register as a regression:\n{}",
        report.render(1_000_000, 50)
    );
}

#[test]
fn degraded_link_diff_names_component_span_and_rank() {
    let base = capture(&CaptureConfig::default());
    let degraded = capture(&CaptureConfig {
        degrade_rank: Some(3),
        ..CaptureConfig::default()
    });
    let (_, attr_base) = analyze(&base);
    let (_, attr_deg) = analyze(&degraded);
    let report = diff_attributions(&attr_base, &attr_deg);
    assert!(
        report.total_delta_ps() > 0,
        "a 10 Gb/s throttle must lengthen the collective"
    );
    let regs = report.regressions(1_000_000, 50);
    assert!(
        !regs.is_empty(),
        "the throttle must register as a regression"
    );
    // The report names the affected rank — the throttled one — with a
    // concrete component kind and span type.
    let on_rank3 = regs.iter().find(|r| r.rank == Some(3)).unwrap_or_else(|| {
        panic!(
            "expected a regression attributed to rank 3:\n{}",
            report.render(1_000_000, 50)
        )
    });
    assert!(!on_rank3.comp_kind.is_empty());
    assert!(!on_rank3.name.is_empty());
    let text = report.render(1_000_000, 50);
    assert!(text.contains("on rank 3 grew"), "report: {text}");
}

#[test]
fn windowed_metrics_are_queue_invariant() {
    let calendar = capture(&CaptureConfig::default());
    assert!(
        calendar
            .windows
            .as_ref()
            .is_some_and(|w| !w.rows.is_empty()),
        "default capture must produce populated windows"
    );
    let heap = capture(&CaptureConfig {
        queue: QueueKind::Heap,
        ..CaptureConfig::default()
    });
    assert_eq!(
        heap.windows, calendar.windows,
        "heap-queue windowed metrics diverged from the calendar queue"
    );
}

#[test]
fn captured_trace_round_trips_through_json() {
    let doc = capture(&CaptureConfig::default());
    let text = json::serialize(&doc);
    let back = json::parse(&text).expect("parse back");
    assert_eq!(back, doc);
    // The analyses agree on original and round-tripped documents.
    let (paths_a, _) = analyze(&doc);
    let (paths_b, _) = analyze(&back);
    assert_eq!(
        critical_path_digest(&paths_a),
        critical_path_digest(&paths_b)
    );
}

#[test]
fn dlrm_pipeline_traces_and_attributes() {
    let doc = capture(&CaptureConfig {
        workload: Workload::Dlrm,
        ..CaptureConfig::default()
    });
    assert!(!doc.events.is_empty());
    let g = SpanGraph::build(&doc);
    assert!(g.dangling_flows.is_empty());
    // Kernel-driven collectives have no host driver; their roots are the
    // uC call spans. Every completed root attributes exactly.
    let roots = g.roots(|n| n == "uc.call");
    assert!(!roots.is_empty(), "DLRM trace has no collective roots");
    let paths: Vec<CriticalPath> = roots.iter().filter_map(|&r| critical_path(&g, r)).collect();
    for p in &paths {
        assert_eq!(p.attributed_ps(), p.total_ps());
    }
    // Deterministic across a rerun.
    let again = capture(&CaptureConfig {
        workload: Workload::Dlrm,
        ..CaptureConfig::default()
    });
    assert_eq!(again.events, doc.events);
}

/// The self-healing reference workload traces end to end: the MTTR
/// analysis pins an ordered recovery timeline to the span stream, the
/// windowed availability dips during the outage and returns, and the
/// whole timeline is bit-identical across event-queue kinds.
#[test]
fn rejoin_trace_yields_a_recovery_timeline() {
    let doc = capture(&CaptureConfig {
        workload: Workload::Rejoin,
        ..CaptureConfig::default()
    });
    let t = accl_obs::recovery_timeline(&doc).expect("self-healing run has a timeline");
    assert!(t.suspected_ps <= t.confirmed_ps, "suspect precedes confirm");
    assert!(t.confirmed_ps <= t.last_confirm_ps);
    assert!(
        t.last_confirm_ps < t.restored_ps,
        "service is restored only after the last confirmation"
    );
    assert!(t.restored_ps <= t.full_strength_ps);
    assert!(t.mttr_ps() > 0 && t.mttr_ps() <= t.full_recovery_ps());

    // The availability summary sees both the outage and the recovery.
    let w = doc.windows.as_ref().expect("windows captured");
    let a = accl_obs::mttr::availability(w);
    assert!(a.failed > 0, "the crash must fail at least one collective");
    assert!(a.calls > a.failed, "the reissues must complete");
    assert!(a.degraded_windows > 0);
    assert!(a.availability_milli() < 1000);

    // Milestones are derived from integer span timestamps only, so the
    // heap queue reproduces them exactly.
    let heap = capture(&CaptureConfig {
        workload: Workload::Rejoin,
        queue: QueueKind::Heap,
        ..CaptureConfig::default()
    });
    assert_eq!(accl_obs::recovery_timeline(&heap), Some(t));
}
