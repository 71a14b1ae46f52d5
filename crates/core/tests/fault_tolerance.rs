//! Fail-stop fault-tolerance scenarios: node crashes, link outages and
//! frame loss driven through the public driver API, checking that every
//! failure surfaces as a typed [`CclError`] in bounded simulated time (no
//! hangs), that transport- and driver-level recovery actually recover, and
//! that fault outcomes are bit-for-bit deterministic.

#![allow(clippy::needless_range_loop)] // rank loops index parallel spec/buffer arrays

use accl_cclo::{CollOp, DType};
use accl_core::host::HostOp;
use accl_core::{
    AcclCluster, AlgoConfig, BufLoc, CclError, ClusterConfig, CollSpec, HostDriver, Platform,
    RetryPolicy, Transport,
};
use accl_sim::prelude::{Dur, RunOutcome, Time};

fn i32s(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn pattern(rank: usize, count: u64) -> Vec<u8> {
    i32s(
        &(0..count as i32)
            .map(|i| i * 3 + rank as i32 * 97)
            .collect::<Vec<_>>(),
    )
}

fn summed(ranks: usize, count: u64) -> Vec<u8> {
    i32s(
        &(0..count as i32)
            .map(|i| (0..ranks as i32).map(|r| i * 3 + r * 97).sum())
            .collect::<Vec<_>>(),
    )
}

/// Coyote's fast invocation path with a connection-oriented transport and
/// the engine watchdog armed — the standard fault-test configuration.
fn coyote_tcp(nodes: usize, timeout_us: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::coyote_rdma(nodes);
    cfg.transport = Transport::Tcp;
    cfg.cclo.collective_timeout_us = Some(timeout_us);
    cfg
}

fn coyote_udp(nodes: usize, timeout_us: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::coyote_rdma(nodes);
    cfg.transport = Transport::Udp;
    cfg.cclo.collective_timeout_us = Some(timeout_us);
    cfg
}

/// Allocates per-rank src/dst, writes `pattern`, returns allreduce specs
/// (on `comm`) plus the dst handles.
fn allreduce_setup(
    c: &mut AcclCluster,
    members: &[usize],
    count: u64,
    comm: u32,
) -> (Vec<CollSpec>, Vec<accl_core::BufferHandle>) {
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for &node in members {
        let src = c.alloc(node, BufLoc::Device, count * 4);
        let dst = c.alloc(node, BufLoc::Device, count * 4);
        c.write(&src, &pattern(node, count));
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst)
                .comm(comm),
        );
        dsts.push(dst);
    }
    (specs, dsts)
}

/// Calls against a communicator this node is not part of come back as a
/// typed error instead of panicking the driver.
#[test]
fn invalid_communicator_is_a_typed_error() {
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(2));
    let specs = vec![CollSpec::new(CollOp::Nop, 0, DType::U8).comm(9); 2];
    let records = c.host_collective(specs);
    for (rank, rec) in records.iter().enumerate() {
        assert_eq!(
            rec.result(),
            Err(CclError::InvalidCommunicator(9)),
            "rank {rank}"
        );
    }
    for i in 0..2 {
        assert_eq!(c.node_stats(i).driver_calls_failed, 1);
    }
}

/// A node crashing mid-allreduce never hangs the survivors: the engine
/// watchdog aborts the collective, the TCP retransmission ladder diagnoses
/// the dead sessions, and every surviving rank's call returns
/// `Err(PeerFailed(dead))` in bounded simulated time.
#[test]
fn node_crash_mid_allreduce_fails_every_survivor() {
    let dead = 2usize;
    let mut c = AcclCluster::build(coyote_tcp(3, 30_000));
    // Force the ring composition: every rank sends toward a neighbour, so
    // the crash is visible to a survivor's transport (in the small-message
    // reduce+bcast composition the dead leaf receives nothing until the
    // final broadcast, which never starts).
    c.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    c.crash_node(dead, Time::from_us(1));
    let (specs, _) = allreduce_setup(&mut c, &[0, 1, 2], 2048, 0);
    let start = c.sim.now();
    let records = c.host_collective(specs);
    for rank in [0usize, 1] {
        assert_eq!(
            records[rank].result(),
            Err(CclError::PeerFailed(dead as u32)),
            "surviving rank {rank}"
        );
        // Bounded detection: TCP gives up after its backoff ladder
        // (~23 ms), the 30 ms watchdog aborts shortly after — nowhere
        // near an unbounded hang.
        assert!(
            records[rank].finished.since(start) < Dur::from_ms(60),
            "rank {rank} took {:?}",
            records[rank].finished.since(start)
        );
        assert_eq!(c.node_stats(rank).collectives_aborted, 1);
    }
    // Exactly one survivor is the dead rank's ring neighbour and diagnosed
    // it locally; the other's verdict came from gossip — but never from
    // the dead node's own (equally broken) session table.
    let direct: Vec<usize> = (0..2)
        .filter(|&r| c.failed_peers(r) == vec![dead as u32])
        .collect();
    assert_eq!(direct.len(), 1, "one ring neighbour, got {direct:?}");
    let indirect = 1 - direct[0];
    assert!(c.failed_peers(indirect).is_empty());
}

/// The ULFM-style recovery workflow: after the crash is observed, shrink
/// the world communicator past the dead node, install the survivor group
/// and reissue the collective — it completes correctly.
#[test]
fn shrink_and_reissue_after_crash() {
    let dead = 2usize;
    let count = 1024u64;
    let mut c = AcclCluster::build(coyote_tcp(3, 30_000));
    c.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    c.crash_node(dead, Time::from_us(1));
    let (specs, _) = allreduce_setup(&mut c, &[0, 1, 2], count, 0);
    let records = c.host_collective(specs);

    // Collect the failure verdicts the way an application would.
    let mut failed: Vec<usize> = records
        .iter()
        .filter_map(|r| match r.result() {
            Err(CclError::PeerFailed(p)) => Some(p as usize),
            _ => None,
        })
        .collect();
    failed.sort_unstable();
    failed.dedup();
    // The dead node's own verdict accuses a survivor (from its side the
    // rest of the world is unreachable); survivors' verdicts name rank 2.
    assert!(failed.contains(&dead));

    let world = c.communicator(0).unwrap().clone();
    let survivors = world.shrink(1, &[dead]).expect("survivors remain");
    assert_eq!(survivors.members(), &[0, 1]);
    c.install_communicator(&survivors);

    let (mut specs, dsts) = allreduce_setup(&mut c, &[0, 1], count, 1);
    let mut programs: Vec<Vec<HostOp>> = vec![Vec::new(); 3];
    programs[0] = vec![HostOp::Coll(specs.remove(0))];
    programs[1] = vec![HostOp::Coll(specs.remove(0))];
    let results = c.run_host_programs(programs);
    for rank in [0usize, 1] {
        assert_eq!(results[rank][0].result(), Ok(()), "rank {rank} reissue");
        assert_eq!(c.read(&dsts[rank]), summed(2, count), "rank {rank} data");
    }
}

/// A transient link outage during a TCP collective is absorbed by the
/// transport's retransmission machinery: no error surfaces and the result
/// matches the fault-free golden value.
#[test]
fn tcp_link_flap_recovers_transparently() {
    let count = 2048u64;
    let mut c = AcclCluster::build(coyote_tcp(2, 100_000));
    // 2 ms outage starting while the collective's data is in flight; the
    // RTO ladder (100 µs initial, doubling) retries into the healthy
    // window well before the 8-retransmit abort limit.
    c.link_down(1, Time::from_us(10), Time::from_ms(2));
    let (specs, dsts) = allreduce_setup(&mut c, &[0, 1], count, 0);
    let records = c.host_collective(specs);
    for rank in 0..2 {
        assert_eq!(records[rank].result(), Ok(()), "rank {rank}");
        assert_eq!(c.read(&dsts[rank]), summed(2, count), "rank {rank} data");
    }
    assert!(
        c.network().frames_dropped(&c.sim) > 0,
        "the outage must actually have eaten frames"
    );
    // Transport-level recovery: the drivers never needed to retry.
    for rank in 0..2 {
        let d = c.sim.component::<HostDriver>(c.node(rank).driver);
        assert_eq!(d.retries_attempted(), 0);
    }
}

/// Eager traffic over lossy UDP has no transport recovery: the engine
/// watchdog times the collective out on every rank and the driver's retry
/// policy re-runs it once the fabric heals — ending in success, not error.
#[test]
fn udp_loss_recovered_by_driver_retry() {
    let count = 1024u64;
    let mut c = AcclCluster::build(coyote_udp(3, 500));
    c.set_retry_policy(RetryPolicy::retries(2));
    // Rank 0's link is dark for the first 80 µs — the whole first attempt
    // of the ring allreduce loses chunks and every rank stalls.
    c.link_down(0, Time::ZERO, Time::from_us(80));
    let (specs, dsts) = allreduce_setup(&mut c, &[0, 1, 2], count, 0);
    let records = c.host_collective(specs);
    for rank in 0..3 {
        assert_eq!(records[rank].result(), Ok(()), "rank {rank}");
        assert_eq!(c.read(&dsts[rank]), summed(3, count), "rank {rank} data");
        let d = c.sim.component::<HostDriver>(c.node(rank).driver);
        assert!(
            d.retries_attempted() >= 1,
            "rank {rank} must have retried, got {}",
            d.retries_attempted()
        );
        assert_eq!(c.node_stats(rank).collectives_aborted, 1, "rank {rank}");
    }
    assert!(c.network().frames_dropped(&c.sim) > 0);
}

/// An eager broadcast whose only data frame is badly delayed: the
/// receiver's first attempt times out and is aborted, the retry re-posts
/// the receive, and the late frame (buffered by the RBM) completes it.
#[test]
fn udp_delayed_bcast_recovered_by_retry() {
    let count = 16u64; // one frame of payload
    let mut c = AcclCluster::build(coyote_udp(2, 100));
    c.set_retry_policy(RetryPolicy::retries(2));
    c.set_fault_plan(accl_net::FaultPlan::delay_frames([0], Dur::from_us(200)));
    let root_data = pattern(7, count);
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for rank in 0..2 {
        let dst = c.alloc(rank, BufLoc::Device, count * 4);
        if rank == 0 {
            c.write(&dst, &root_data);
        }
        specs.push(CollSpec::new(CollOp::Bcast, count, DType::I32).dst(dst));
        dsts.push(dst);
    }
    let records = c.host_collective(specs);
    // The root's one-sided eager send completed on the first attempt; the
    // receiver needed the watchdog + one driver retry.
    assert_eq!(records[0].result(), Ok(()));
    assert_eq!(records[1].result(), Ok(()));
    assert_eq!(c.read(&dsts[1]), root_data);
    let d1 = c.sim.component::<HostDriver>(c.node(1).driver);
    assert_eq!(d1.retries_attempted(), 1);
    assert_eq!(c.node_stats(1).collectives_aborted, 1);
}

/// A call that exhausts its retry budget comes back `Aborted` (the
/// attempts happened) rather than `Timeout` (single attempt), and the
/// rank keeps serving later calls.
#[test]
fn retry_budget_exhaustion_reports_aborted() {
    let count = 256u64;
    let mut c = AcclCluster::build(coyote_udp(2, 100));
    c.set_retry_policy(RetryPolicy::retries(2));
    // The link between the ranks is dark forever: no attempt can ever
    // succeed, and both ranks stay up to run their retry ladders.
    c.link_down(1, Time::ZERO, Time::MAX);
    let (specs, _) = allreduce_setup(&mut c, &[0, 1], count, 0);
    let records = c.host_collective(specs);
    for rank in 0..2 {
        // UDP has no session state, so no PeerFailed verdict exists —
        // the retry ladder runs dry and reports Aborted.
        assert_eq!(
            records[rank].result(),
            Err(CclError::Aborted),
            "rank {rank}"
        );
        let d = c.sim.component::<HostDriver>(c.node(rank).driver);
        assert_eq!(d.retries_attempted(), 2, "rank {rank}");
        assert_eq!(c.node_stats(rank).collectives_aborted, 3, "rank {rank}");
    }
}

/// Same seed + same fault schedule → identical timelines, including the
/// error completions (the determinism property extended to faulty runs).
#[test]
fn fault_outcomes_are_deterministic() {
    let run = |seed: u64| -> String {
        let mut cfg = coyote_tcp(3, 30_000);
        cfg.seed = seed;
        let mut c = AcclCluster::build(cfg);
        c.set_algo_config(AlgoConfig {
            allreduce_ring_min_bytes: 1,
            ..AlgoConfig::default()
        });
        c.crash_node(2, Time::from_us(1));
        let (specs, _) = allreduce_setup(&mut c, &[0, 1, 2], 2048, 0);
        let records = c.host_collective(specs);
        let stats: Vec<_> = (0..3).map(|i| c.node_stats(i)).collect();
        format!(
            "events={} records={records:?} stats={stats:?}",
            c.sim.events_executed()
        )
    };
    assert_eq!(run(11), run(11));
    // The signature is rich enough to distinguish runs at all.
    assert!(run(11).contains("PeerFailed"));
}

/// Transient-fault graceful degradation: a link outage long enough to
/// exhaust the RDMA go-back-N ladder puts both sides' queue pairs in the
/// error state, the Tx systems retarget to the standby TCP POE, the uCs
/// downgrade their protocol selection, and the drivers' retries complete
/// the collective over TCP — bit-exactly, with no fail-stop verdict
/// against a peer that was merely unlucky.
#[test]
fn rdma_qp_errors_fail_over_to_tcp() {
    let count = 256u64;
    let mut cfg = ClusterConfig::coyote_rdma(2);
    cfg.tcp_fallback = true;
    // Aggressive ladder so the 300 µs outage is fatal to the QPs: three
    // go-back-N rounds of 20/40/80 µs reach the error state at ~140 µs.
    cfg.rdma.rto_us = 20;
    cfg.rdma.max_retransmits = 2;
    cfg.cclo.collective_timeout_us = Some(500);
    let mut c = AcclCluster::build(cfg);
    // Force the ring composition so both ranks transmit during the outage
    // and both queue pairs reach the error state.
    c.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    c.set_retry_policy(RetryPolicy::retries(4));
    c.link_down(1, Time::ZERO, Time::from_us(300));
    let (specs, dsts) = allreduce_setup(&mut c, &[0, 1], count, 0);
    let records = c.host_collective(specs);
    for rank in 0..2 {
        assert_eq!(records[rank].result(), Ok(()), "rank {rank}");
        assert_eq!(c.read(&dsts[rank]), summed(2, count), "rank {rank} data");
    }
    for rank in 0..2 {
        let tx = c
            .sim
            .component::<accl_cclo::txsys::TxSys>(c.node(rank).cclo.txsys);
        assert_eq!(tx.failovers(), 1, "rank {rank} engaged the standby POE");
        let uc = c.sim.component::<accl_cclo::uc::Uc>(c.node(rank).cclo.uc);
        assert_eq!(uc.failovers_observed(), 1, "rank {rank} uC downgrade");
        let d = c.sim.component::<HostDriver>(c.node(rank).driver);
        assert!(d.retries_attempted() >= 1, "rank {rank} must have retried");
        // A transient fault is not a fail-stop failure: with the standby
        // path healthy, nobody is declared dead.
        assert!(c.failed_peers(rank).is_empty(), "rank {rank} verdict");
    }
}

/// In-flight corruption on the reliable transports is caught by the FCS
/// check, counted, and repaired by retransmission (TCP) or go-back-N
/// (RDMA): collective results stay bit-exact.
#[test]
fn corrupted_frames_repaired_bit_exactly_on_tcp_and_rdma() {
    let count = 8192u64;
    let run = |transport: Transport| -> (Vec<Vec<u8>>, u64) {
        let mut cfg = ClusterConfig::coyote_rdma(2);
        cfg.transport = transport;
        cfg.cclo.collective_timeout_us = Some(100_000);
        let mut c = AcclCluster::build(cfg);
        // Explicit indices: the injection is part of the test's contract,
        // not a probabilistic draw that may come up empty at some seed.
        c.set_fault_plan(accl_net::FaultPlan::corrupt_frames([2, 5, 9, 13]));
        let (specs, dsts) = allreduce_setup(&mut c, &[0, 1], count, 0);
        let records = c.host_collective(specs);
        for rank in 0..2 {
            assert_eq!(records[rank].result(), Ok(()), "{transport:?} rank {rank}");
        }
        let data = dsts.iter().map(|d| c.read(d)).collect();
        let drops = (0..2).map(|i| c.corrupted_drops(i)).sum();
        (data, drops)
    };
    for transport in [Transport::Tcp, Transport::Rdma] {
        let (data, drops) = run(transport);
        for rank in 0..2 {
            assert_eq!(
                data[rank],
                summed(2, count),
                "{transport:?} rank {rank} data"
            );
        }
        assert!(
            drops > 0,
            "{transport:?}: corruption must have been injected"
        );
    }
}

/// Corruption on connectionless UDP cannot be repaired; the failed call
/// comes back [`CclError::DataCorrupted`] — distinguishing integrity loss
/// from a liveness timeout — backed by the engine's typed drop counters.
#[test]
fn udp_corruption_surfaces_as_data_corrupted() {
    let count = 4096u64;
    let mut c = AcclCluster::build(coyote_udp(2, 300));
    c.set_fault_plan(accl_net::FaultPlan::corrupt_frames(0..64));
    let (specs, _) = allreduce_setup(&mut c, &[0, 1], count, 0);
    let records = c.host_collective(specs);
    assert!(
        records
            .iter()
            .any(|r| r.result() == Err(CclError::DataCorrupted)),
        "a rank must report DataCorrupted, got {records:?}"
    );
    assert!((0..2).map(|i| c.corrupted_drops(i)).sum::<u64>() > 0);
}

/// The ULFM recovery workflow still converges when the surviving links
/// keep dropping 1–5% of all frames: the crash is diagnosed, the shrunken
/// communicator's reissued collective completes bit-exactly (TCP absorbs
/// the sustained loss).
#[test]
fn shrink_and_reissue_converges_under_sustained_loss() {
    let dead = 2usize;
    let count = 512u64;
    for loss in [0.01, 0.05] {
        let mut c = AcclCluster::build(coyote_tcp(3, 30_000));
        c.set_algo_config(AlgoConfig {
            allreduce_ring_min_bytes: 1,
            ..AlgoConfig::default()
        });
        c.set_fault_plan(accl_net::FaultPlan::random_loss(loss));
        c.crash_node(dead, Time::from_us(1));
        let (specs, _) = allreduce_setup(&mut c, &[0, 1, 2], count, 0);
        let records = c.host_collective(specs);
        let failed: Vec<usize> = records
            .iter()
            .filter_map(|r| match r.result() {
                Err(CclError::PeerFailed(p)) => Some(p as usize),
                _ => None,
            })
            .collect();
        assert!(failed.contains(&dead), "loss {loss}: dead rank undiagnosed");

        let survivors = c
            .communicator(0)
            .unwrap()
            .shrink(1, &[dead])
            .expect("survivors remain");
        c.install_communicator(&survivors);
        let (mut specs, dsts) = allreduce_setup(&mut c, &[0, 1], count, 1);
        let mut programs: Vec<Vec<HostOp>> = vec![Vec::new(); 3];
        programs[0] = vec![HostOp::Coll(specs.remove(0))];
        programs[1] = vec![HostOp::Coll(specs.remove(0))];
        let results = c.run_host_programs(programs);
        for rank in [0usize, 1] {
            assert_eq!(results[rank][0].result(), Ok(()), "loss {loss} rank {rank}");
            assert_eq!(c.read(&dsts[rank]), summed(2, count), "loss {loss} data");
        }
        assert!(c.network().frames_dropped(&c.sim) > 0);
    }
}

/// With the engine watchdog disabled, a crash leaves the survivors parked
/// forever — and the simulator's stall watchdog names the parked
/// operation instead of hanging silently.
#[test]
fn disabled_watchdog_crash_yields_stall_report() {
    use accl_core::host::{ports as host_ports, HostProc};
    use accl_sim::prelude::Endpoint;

    let mut cfg = ClusterConfig::coyote_rdma(2);
    cfg.transport = Transport::Udp;
    assert_eq!(cfg.cclo.collective_timeout_us, None, "watchdog off");
    assert_eq!(cfg.platform, Platform::Coyote);
    let mut c = AcclCluster::build(cfg);
    c.crash_node(1, Time::ZERO);
    let (specs, _) = allreduce_setup(&mut c, &[0, 1], 256, 0);
    let start = c.sim.now();
    for (i, spec) in specs.into_iter().enumerate() {
        let driver = Endpoint::new(c.node(i).driver, accl_core::driver::ports::CALL);
        let id = c.sim.add(
            format!("n{i}.hostproc"),
            HostProc::new(driver, vec![HostOp::Coll(spec)]),
        );
        c.sim.post(Endpoint::new(id, host_ports::START), start, ());
    }
    let outcome = c.sim.run();
    let RunOutcome::Stalled(first) = outcome else {
        panic!("expected a stall, got {outcome:?}");
    };
    // Every stuck component is named; the uCs are parked on the
    // collective's WaitAll with the rank attached.
    let reports = c.sim.stall_reports();
    let uc = reports
        .iter()
        .find(|r| r.component.contains(".uc"))
        .expect("a uC must be reported parked");
    assert!(uc.op.contains("WaitAll"), "op was {:?}", uc.op);
    assert!(uc.rank.is_some());
    assert!(
        format!("{first}").contains("parked on"),
        "report must render: {first}"
    );
}
