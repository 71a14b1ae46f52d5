//! Self-healing membership scenarios: a node crashing mid-allreduce,
//! restarting, and rejoining via [`Communicator::expand`]; degraded links
//! staying *suspected* (never falsely killed) under the adaptive failure
//! detector; fabric partitions resolving split-brain-safely and
//! re-merging after the heal — all bit-replay-stable run to run and under
//! permuted tie order.

#![allow(clippy::needless_range_loop)] // rank loops index parallel spec/buffer arrays

use accl_cclo::{AdaptiveWatchdogCfg, CollOp, DType};
use accl_core::host::HostOp;
use accl_core::{
    AcclCluster, AlgoConfig, BufLoc, CclError, ClusterConfig, CollSpec, MembershipEvent, Transport,
};
use accl_net::{Degradation, NetPort};
use accl_poe::iface::ports;
use accl_sim::prelude::{Component, ComponentId, Ctx, Dur, Endpoint, Payload, PortId, Time};

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

fn cfg_for(transport: Transport, nodes: usize, timeout_us: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::coyote_rdma(nodes);
    cfg.transport = transport;
    cfg.cclo.collective_timeout_us = Some(timeout_us);
    cfg
}

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

/// Runs allreduce on a subset of the nodes (the rest idle) and asserts
/// golden-data equality on every participating rank.
fn run_subset_allreduce(c: &mut AcclCluster, members: &[usize], count: u64, comm: u32, tag: &str) {
    let nodes = c.len();
    let (mut specs, dsts) = allreduce_setup(c, members, count, comm);
    let mut programs: Vec<Vec<HostOp>> = vec![Vec::new(); nodes];
    for &m in members {
        programs[m] = vec![HostOp::Coll(specs.remove(0))];
    }
    let results = c.run_host_programs(programs);
    for (r, &m) in members.iter().enumerate() {
        assert_eq!(results[m][0].result(), Ok(()), "{tag}: node {m}");
        assert_eq!(
            c.read(&dsts[r]),
            summed(members.len(), count),
            "{tag}: node {m} data"
        );
    }
}

/// Deliveries the trace ring of [`crash_restart_rejoin`] can hold: more
/// than the whole lifecycle executes.
const LIFECYCLE_TRACE: usize = 1 << 12;

/// What the crashed node did while it was down, from its crash until
/// `reinstate_node`.
struct DownTime {
    /// Deliveries its components executed, rendered.
    executed: Vec<String>,
    /// Deliveries to its components the kernel dropped.
    dropped: u64,
}

/// The full self-healing lifecycle on one transport: crash mid-allreduce
/// → survivors diagnose and shrink → reissue on the survivor group →
/// restart + transport reinstatement → expand readmits the node with its
/// original numbering → a full-world allreduce completes with golden
/// data. Returns the cluster for post-mortem assertions, and what the
/// crashed node did while it was down.
fn crash_restart_rejoin(transport: Transport, timeout_us: u64) -> (AcclCluster, DownTime) {
    let dead = 2usize;
    let count = 1024u64;
    let crash = Time::from_us(1);
    let mut c = AcclCluster::build(cfg_for(transport, 3, timeout_us));
    c.sim.enable_trace(LIFECYCLE_TRACE);
    c.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    c.crash_node(dead, crash);
    // The restart instant lands while the first (failing) run drains, so
    // the fabric reopens and survivors fence the old epoch inside run 1's
    // timeline; the node itself stays down until it is reinstated.
    c.restart_node(dead, Time::from_ms(60));

    // Run 1: the crash fails every rank's collective in bounded time.
    let (specs, _) = allreduce_setup(&mut c, &[0, 1, 2], count, 0);
    let records = c.host_collective(specs);
    assert_eq!(
        records[dead].result(),
        Err(CclError::Crashed),
        "{transport:?}: the crashed rank's call"
    );
    for rank in [0usize, 1] {
        assert!(
            records[rank].result().is_err(),
            "{transport:?}: surviving rank {rank} must fail, got {:?}",
            records[rank].result()
        );
        if transport != Transport::Udp {
            assert_eq!(
                records[rank].result(),
                Err(CclError::PeerFailed(dead as u32)),
                "{transport:?}: rank {rank} verdict"
            );
        }
    }

    // Run 2: ULFM shrink + reissue on the survivor group.
    let world = c.communicator(0).unwrap().clone();
    let survivors = world.shrink(1, &[dead]).expect("survivors remain");
    assert_eq!(survivors.members(), &[0, 1]);
    c.install_communicator(&survivors);
    run_subset_allreduce(&mut c, &[0, 1], count, 1, "survivor reissue");

    assert!(
        c.sim.events_executed() < LIFECYCLE_TRACE as u64,
        "the trace ring holds every delivery"
    );
    let prefix = format!("n{dead}.");
    let down = DownTime {
        executed: c
            .sim
            .trace()
            .iter()
            .filter(|r| r.time >= crash && c.sim.name(r.comp).starts_with(&prefix))
            .map(|r| {
                format!(
                    "{} {}.{:?} [{}]",
                    r.time,
                    c.sim.name(r.comp),
                    r.port,
                    r.payload_type
                )
            })
            .collect(),
        dropped: c.sim.stats().counter("sim.kernel.suspended_drops"),
    };

    // Run 3: the restarted node rejoins — rebooted, sessions reinstated,
    // detector history forgotten, expand restores the world numbering —
    // and a full-strength allreduce completes bit-exactly.
    c.reinstate_node(dead);
    let rejoined = survivors.expand(2, &[dead]).expect("node readmitted");
    assert_eq!(rejoined.members(), &[0, 1, 2]);
    assert_eq!(rejoined.rank_of(dead), Some(dead as u32));
    c.install_communicator(&rejoined);
    run_subset_allreduce(&mut c, &[0, 1, 2], count, 2, "rejoined world");

    // The lifecycle is on the record: a restart followed by a rejoin.
    let log = c.membership_log();
    let restarted = log
        .iter()
        .position(|(_, e)| *e == MembershipEvent::Restarted { node: dead });
    let rejoined_at = log
        .iter()
        .position(|(_, e)| *e == MembershipEvent::Rejoined { node: dead });
    assert!(
        restarted.is_some() && rejoined_at > restarted,
        "{transport:?}: membership log must show restart then rejoin, got {log:?}"
    );
    (c, down)
}

#[test]
fn crash_restart_rejoin_completes_on_tcp() {
    crash_restart_rejoin(Transport::Tcp, 30_000);
}

#[test]
fn crash_restart_rejoin_completes_on_udp() {
    crash_restart_rejoin(Transport::Udp, 2_000);
}

#[test]
fn crash_restart_rejoin_completes_on_rdma() {
    crash_restart_rejoin(Transport::Rdma, 30_000);
}

/// Fail-stop means stop: from its crash until `reinstate_node` reboots
/// it, the crashed node executes nothing (no retransmission timer or
/// watchdog of its own fires), while deliveries to it are dropped and
/// counted. The reboot brings its NIC back as incarnation 1.
fn crashed_node_executes_nothing_until_reinstated(transport: Transport, timeout_us: u64) {
    let (c, down) = crash_restart_rejoin(transport, timeout_us);
    assert_eq!(down.executed, Vec::<String>::new(), "{transport:?}");
    assert!(down.dropped > 0, "{transport:?}: drops are counted");
    let nic = c.sim.component::<NetPort>(c.network().port_id(2));
    assert_eq!(nic.incarnation(), 1, "{transport:?}");
}

#[test]
fn crashed_node_executes_nothing_until_reinstated_on_tcp() {
    crashed_node_executes_nothing_until_reinstated(Transport::Tcp, 30_000);
}

#[test]
fn crashed_node_executes_nothing_until_reinstated_on_udp() {
    crashed_node_executes_nothing_until_reinstated(Transport::Udp, 2_000);
}

#[test]
fn crashed_node_executes_nothing_until_reinstated_on_rdma() {
    crashed_node_executes_nothing_until_reinstated(Transport::Rdma, 30_000);
}

/// A restart with no earlier crash is no restart: the fabric ignores it,
/// and so does the cluster, through either entry point. The run is the
/// run without it, event for event, and the membership log stays empty.
fn lone_restart_changes_nothing(transport: Transport) {
    let count = 64 * 1024u64; // 256 KiB per rank
    let run = |restart: Option<bool>| {
        let mut c = AcclCluster::build(cfg_for(transport, 3, 30_000));
        let at = Time::from_us(40);
        match restart {
            Some(true) => c.restart_node(1, at),
            Some(false) => c.set_fault_plan(
                accl_net::FaultPlan::none().with_node_restart(accl_net::NodeAddr(1), at),
            ),
            None => {}
        }
        let (specs, dsts) = allreduce_setup(&mut c, &[0, 1, 2], count, 0);
        let records = c.host_collective(specs);
        for rank in 0..3 {
            assert_eq!(records[rank].result(), Ok(()), "{transport:?}: rank {rank}");
            assert_eq!(c.read(&dsts[rank]), summed(3, count), "rank {rank} data");
        }
        assert!(c.membership_log().is_empty(), "{transport:?}");
        let finished: Vec<Time> = records.iter().map(|r| r.finished).collect();
        (finished, c.sim.events_executed())
    };
    let plain = run(None);
    assert_eq!(run(Some(true)), plain, "{transport:?}: restart_node");
    assert_eq!(run(Some(false)), plain, "{transport:?}: fault plan");
}

#[test]
fn lone_restart_changes_nothing_on_tcp() {
    lone_restart_changes_nothing(Transport::Tcp);
}

#[test]
fn lone_restart_changes_nothing_on_rdma() {
    lone_restart_changes_nothing(Transport::Rdma);
}

/// Frames from the crashed node's old incarnation still in flight at its
/// restart must be fenced at every survivor. A 200 µs crash lands mid-way
/// through a large allreduce and the restart follows 0.5 µs later, so
/// pre-crash frames are still queued in the fabric when the fence goes up.
/// Every dropped frame left node 2's engine before its crash: a crashed
/// node sends nothing. Returns `poe.mux.stale_epoch_drops` after the run.
fn stale_epoch_drops_after_quick_restart(transport: Transport) -> u64 {
    let dead = 2usize;
    let mut c = AcclCluster::build(cfg_for(transport, 4, 2_000));
    c.crash_node(dead, Time::from_us(200));
    c.restart_node(dead, Time::from_ns(200_500));
    let (specs, _) = allreduce_setup(&mut c, &[0, 1, 2, 3], 256 * 1024, 0);
    c.host_collective(specs);
    c.sim.stats().counter("poe.mux.stale_epoch_drops")
}

#[test]
fn restart_fences_the_old_incarnations_frames_on_tcp() {
    assert_eq!(stale_epoch_drops_after_quick_restart(Transport::Tcp), 10);
}

#[test]
fn restart_fences_the_old_incarnations_frames_on_udp() {
    assert_eq!(stale_epoch_drops_after_quick_restart(Transport::Udp), 8);
}

/// Shared shape of the degraded-link-only scenario: a throttle-only
/// degradation window (no loss, no crash) stretching one node's frame
/// cadence far past the fixed watchdog's patience.
fn degraded_cluster(nodes: usize, adaptive: bool) -> AcclCluster {
    let mut cfg = ClusterConfig::coyote_rdma(nodes);
    cfg.transport = Transport::Tcp;
    if adaptive {
        // No fixed timeout: unlearned streams fall back to the detector's
        // cap, learned streams get mean + phi·(MAD + jitter floor).
        cfg.cclo.collective_timeout_us = None;
        cfg.cclo.adaptive_watchdog = Some(AdaptiveWatchdogCfg::default());
    } else {
        cfg.cclo.collective_timeout_us = Some(200);
    }
    let mut c = AcclCluster::build(cfg);
    c.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    // Node 1's link runs at 0.01 Gb/s for the whole run: every frame
    // crawls, inter-arrival gaps stretch toward a millisecond.
    c.set_fault_plan(accl_net::FaultPlan::none().with_degradation(
        accl_net::NodeAddr(1),
        Degradation {
            from: Time::ZERO,
            until: Time::from_ms(500),
            loss_ppm: 0,
            throttle_gbps_x100: 1,
        },
    ));
    c
}

/// The acceptance bar for adaptive detection: a degraded-but-alive link
/// that the fixed 200 µs watchdog kills (false PeerFailed verdicts) is
/// ridden out by the adaptive detector — zero false verdicts, the
/// collective completes with golden data, and the degradation registered
/// as (at most) suspect-level suspicion, never a kill.
#[test]
fn degraded_link_survives_adaptive_detector_where_fixed_watchdog_aborts() {
    let count = 512u64;

    // Fixed watchdog: the stretched cadence looks like death.
    let mut fixed = degraded_cluster(2, false);
    let (specs, _) = allreduce_setup(&mut fixed, &[0, 1], count, 0);
    let records = fixed.host_collective(specs);
    assert!(
        records.iter().any(|r| r.result().is_err()),
        "fixed 200 µs watchdog must abort under the throttle, got {records:?}"
    );

    // Adaptive detector: same fabric, zero false verdicts.
    let mut adaptive = degraded_cluster(2, true);
    let (specs, dsts) = allreduce_setup(&mut adaptive, &[0, 1], count, 0);
    let records = adaptive.host_collective(specs);
    for rank in 0..2 {
        assert_eq!(
            records[rank].result(),
            Ok(()),
            "adaptive detector rank {rank} must ride out the degradation"
        );
        assert_eq!(
            adaptive.read(&dsts[rank]),
            summed(2, count),
            "rank {rank} data"
        );
        assert_eq!(
            adaptive.node_stats(rank).collectives_aborted,
            0,
            "rank {rank}: no aborts — degraded is not dead"
        );
        assert!(
            adaptive.failed_peers(rank).is_empty(),
            "rank {rank}: zero false PeerFailed verdicts"
        );
    }
}

/// A fabric partition isolates node 3 mid-allreduce: the majority side
/// keeps the communicator (its failures stay PeerFailed and it shrinks),
/// the minority side's failure is recolored `Partitioned` (fail fast, do
/// NOT shrink — that would be split-brain), and after the heal the
/// minority re-merges via expand and a full-world allreduce completes.
#[test]
fn partition_minority_fails_fast_and_remerges_after_heal() {
    let count = 1024u64;
    let mask = 0b1000u64; // node 3 alone vs nodes 0-2
    let mut c = AcclCluster::build(cfg_for(Transport::Tcp, 4, 30_000));
    c.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    c.partition(mask, Time::from_us(1), Time::from_ms(60));

    let (specs, _) = allreduce_setup(&mut c, &[0, 1, 2, 3], count, 0);
    let records = c.host_collective(specs);
    assert_eq!(
        records[3].result(),
        Err(CclError::Partitioned),
        "minority side fails fast with the typed partition verdict"
    );
    for rank in 0..3 {
        assert!(
            records[rank].result().is_err(),
            "majority rank {rank} must fail this run"
        );
        assert_ne!(
            records[rank].result(),
            Err(CclError::Partitioned),
            "majority rank {rank} is NOT partitioned-out"
        );
    }

    // Majority resolves the cut locally — identically on every member.
    let world = c.communicator(0).unwrap().clone();
    let kept = accl_core::resolve_partition(&world, 0, mask).expect("majority keeps the comm");
    assert_eq!(kept.members(), &[0, 1, 2]);
    assert_eq!(
        accl_core::resolve_partition(&world, 3, mask),
        Err(CclError::Partitioned)
    );
    let majority = world.shrink(1, &[3]).expect("survivors remain");
    c.install_communicator(&majority);
    run_subset_allreduce(&mut c, &[0, 1, 2], count, 1, "majority under partition");

    // Heal has passed (run 2 drained beyond it): re-merge.
    assert!(c.sim.now() > Time::from_ms(60), "heal instant passed");
    c.reinstate_node(3);
    let merged = majority.expand(2, &[3]).expect("minority readmitted");
    assert_eq!(merged.members(), &[0, 1, 2, 3]);
    c.install_communicator(&merged);
    run_subset_allreduce(&mut c, &[0, 1, 2, 3], count, 2, "re-merged world");

    // Cut and heal are on the membership record.
    let log = c.membership_log();
    assert!(log
        .iter()
        .any(|(_, e)| *e == MembershipEvent::Partitioned { mask }));
    assert!(log
        .iter()
        .any(|(_, e)| *e == MembershipEvent::Healed { mask }));
}

/// Everything the recovery timeline exposes that must be bit-identical
/// run-to-run.
#[derive(Debug, PartialEq)]
struct Observables {
    events_executed: u64,
    final_time: Time,
    state_digests: Vec<(ComponentId, u64)>,
    suspicions: Vec<u64>,
    membership: Vec<(Time, MembershipEvent)>,
}

impl Observables {
    fn collect(c: &mut AcclCluster) -> Observables {
        let suspicions = (0..c.len())
            .map(|i| {
                c.sim
                    .component::<accl_cclo::uc::Uc>(c.node(i).cclo.uc)
                    .suspicions()
            })
            .collect();
        Observables {
            events_executed: c.sim.events_executed(),
            final_time: c.sim.now(),
            state_digests: c.sim.state_digests(),
            suspicions,
            membership: c.membership_log().to_vec(),
        }
    }
}

/// The crash → restart → rejoin lifecycle under the adaptive detector,
/// parameterized by engine configuration. Suspect/confirm decisions are
/// part of every uC's state digest, so digest equality pins them.
fn rejoin_observables(tie_salt: Option<u64>) -> Observables {
    let dead = 2usize;
    let count = 512u64;
    let mut cfg = cfg_for(Transport::Tcp, 3, 30_000);
    cfg.cclo.adaptive_watchdog = Some(AdaptiveWatchdogCfg::default());
    let mut c = AcclCluster::build(cfg);
    if let Some(salt) = tie_salt {
        c.sim.permute_tie_order(salt);
    }
    c.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    c.crash_node(dead, Time::from_us(1));
    c.restart_node(dead, Time::from_ms(60));
    let (specs, _) = allreduce_setup(&mut c, &[0, 1, 2], count, 0);
    c.host_collective(specs);
    let survivors = c
        .communicator(0)
        .unwrap()
        .shrink(1, &[dead])
        .expect("survivors remain");
    c.install_communicator(&survivors);
    run_subset_allreduce(&mut c, &[0, 1], count, 1, "survivor reissue");
    c.reinstate_node(dead);
    let rejoined = survivors.expand(2, &[dead]).expect("node readmitted");
    c.install_communicator(&rejoined);
    run_subset_allreduce(&mut c, &[0, 1, 2], count, 2, "rejoined world");
    Observables::collect(&mut c)
}

/// The degraded-link-only scenario under the adaptive detector,
/// parameterized the same way.
fn degraded_observables(tie_salt: Option<u64>) -> Observables {
    let count = 512u64;
    let mut c = degraded_cluster(2, true);
    if let Some(salt) = tie_salt {
        c.sim.permute_tie_order(salt);
    }
    let (specs, dsts) = allreduce_setup(&mut c, &[0, 1], count, 0);
    let records = c.host_collective(specs);
    for rank in 0..2 {
        assert_eq!(records[rank].result(), Ok(()), "rank {rank}");
        assert_eq!(c.read(&dsts[rank]), summed(2, count), "rank {rank} data");
    }
    Observables::collect(&mut c)
}

/// Determinism gate: the full recovery timeline — including every
/// suspect/confirm decision folded into the uC digests — replays
/// bit-identically when the cluster is rebuilt.
#[test]
fn rejoin_timeline_digest_stable_across_queues() {
    let golden = rejoin_observables(None);
    assert!(!golden.state_digests.is_empty());
    assert!(
        golden.suspicions.iter().any(|&s| s > 0),
        "the crash must register suspect-level firings first, got {:?}",
        golden.suspicions
    );
    assert_eq!(
        rejoin_observables(None),
        golden,
        "rejoin timeline diverged between two runs"
    );
}

/// Same gate for the degraded-only scenario: adaptive deadlines are
/// integer arithmetic on observed gaps, so the no-false-positive outcome
/// is equally replayable.
#[test]
fn degraded_timeline_digest_stable_across_queues() {
    let golden = degraded_observables(None);
    assert!(!golden.state_digests.is_empty());
    assert_eq!(
        degraded_observables(None),
        golden,
        "degraded timeline diverged between two runs"
    );
}

/// A deliberately permuted same-timestamp delivery order must not move a
/// single suspect/confirm decision: the detector reads sim time and
/// per-stream history, never queue order.
#[test]
fn detector_decisions_survive_permuted_tie_order() {
    let golden = rejoin_observables(None);
    for salt in [1u64, 0x5eed, 0xdead_beef] {
        assert_eq!(
            rejoin_observables(Some(salt)),
            golden,
            "suspect/confirm decisions moved under tie salt {salt:#x}"
        );
    }
    let degraded_golden = degraded_observables(None);
    for salt in [1u64, 0x5eed] {
        assert_eq!(
            degraded_observables(Some(salt)),
            degraded_golden,
            "degraded-run decisions moved under tie salt {salt:#x}"
        );
    }
}

/// Stops the run when its event arrives, so a test can act on the
/// cluster while timers are still pending.
struct Halt;

impl Component for Halt {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _payload: Payload) {
        ctx.stop();
    }
}

/// A retransmission timer armed before `reinstate_node` never fires into
/// the reinstated session or queue pair. Node 1 crashes 8 µs in, just
/// after node 0 sent it fragments: they go unacknowledged, and node 0's
/// retransmission timer (first RTO 100 µs on both transports) is pending
/// when the run halts at 60 µs. The crash cancelled node 1's own timers;
/// reinstating node 1 reboots it and cancels node 0's timer toward it:
/// the pending deadline passes without a retransmission and is counted
/// as superseded.
fn reinstate_cancels_the_old_incarnations_timers(transport: Transport) {
    let mut c = AcclCluster::build(cfg_for(transport, 2, 30_000));
    c.crash_node(1, Time::from_us(8));
    let halt = c.sim.add("halt", Halt);
    let (specs, _) = allreduce_setup(&mut c, &[0, 1], 4096, 0);
    let programs = specs.into_iter().map(|s| vec![HostOp::Coll(s)]).collect();
    c.sim.post(Endpoint::of(halt), Time::from_us(60), ());
    assert!(c.try_run_host_programs(programs).is_err(), "the run halts");

    // Both engines key a session's retransmission timer by the session id
    // (session `j` carries traffic to node `j`).
    let slots = [(c.node(0).poe, 1u64), (c.node(1).poe, 0u64)];
    let pending = |c: &AcclCluster| {
        slots
            .iter()
            .filter(|&&(poe, key)| c.sim.timer_pending(poe, ports::TIMER, key))
            .count()
    };
    assert!(
        pending(&c) > 0,
        "a retransmission timer of the pair is pending"
    );
    let retransmits = |c: &AcclCluster| {
        c.sim.stats().counter("poe.tcp.retransmits")
            + c.sim.stats().counter("poe.rdma.retransmissions")
    };
    let superseded = |c: &AcclCluster| c.sim.stats().counter("sim.kernel.timers_superseded");
    let (retransmitted, skipped) = (retransmits(&c), superseded(&c));
    c.reinstate_node(1);
    assert_eq!(pending(&c), 0, "reinstating cancels the pair's timers");
    c.sim.run_until(Time::from_us(60) + Dur::from_us(200));
    assert_eq!(
        retransmits(&c),
        retransmitted,
        "no RTO fired into the reinstated pair"
    );
    assert!(
        superseded(&c) > skipped,
        "the old deadline popped and was skipped"
    );
}

#[test]
fn reinstate_cancels_the_old_incarnations_timers_on_tcp() {
    reinstate_cancels_the_old_incarnations_timers(Transport::Tcp);
}

#[test]
fn reinstate_cancels_the_old_incarnations_timers_on_rdma() {
    reinstate_cancels_the_old_incarnations_timers(Transport::Rdma);
}
