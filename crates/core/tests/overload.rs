//! Overload and backpressure integration tests: clusters built with
//! finite capacities (`ClusterConfig::with_overload_limits`) must keep
//! completing collectives correctly, shed load with typed `Busy` errors
//! instead of queueing without bound, mask engine-admission rejections
//! under a deterministic jittered backoff, and replay bit-identically —
//! including under injected overload faults — on both event-queue
//! implementations.

use accl_cclo::command::{CcloCommand, CcloDone, CmdStatus};
use accl_core::driver::{ports as driver_ports, CollSpec, DriverCall, DriverDone};
use accl_core::host::{ports as host_ports, HostOp, HostProc};
use accl_core::{
    AcclCluster, BufLoc, CclError, ClusterConfig, CollOp, DType, HostDriver, RetryPolicy,
};
use accl_net::{FaultPlan, NodeAddr};
use accl_sim::prelude::*;

fn i32s(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn pattern(node: usize, count: u64) -> Vec<u8> {
    i32s(
        &(0..count)
            .map(|i| (node as i32 + 1) * 100 + i as i32 % 23)
            .collect::<Vec<_>>(),
    )
}

fn summed(n: usize, count: u64) -> Vec<u8> {
    i32s(
        &(0..count)
            .map(|i| (0..n as i32).map(|nd| (nd + 1) * 100 + i as i32 % 23).sum())
            .collect::<Vec<_>>(),
    )
}

fn allreduce_setup(
    c: &mut AcclCluster,
    n: usize,
    count: u64,
) -> (Vec<CollSpec>, Vec<accl_core::BufferHandle>) {
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for node in 0..n {
        let src = c.alloc(node, BufLoc::Host, count * 4);
        let dst = c.alloc(node, BufLoc::Host, count * 4);
        c.write(&src, &pattern(node, count));
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst),
        );
        dsts.push(dst);
    }
    (specs, dsts)
}

/// With every capacity finite but no induced overload, the bounded stack
/// is behaviourally invisible: collectives complete with correct data on
/// all three transports and nothing is rejected or shed.
#[test]
fn bounded_cluster_completes_collectives_on_every_transport() {
    let n = 4;
    let count = 1024u64;
    let configs = [
        ClusterConfig::coyote_rdma(n),
        ClusterConfig::xrt_tcp(n),
        ClusterConfig::xrt_udp(n),
    ];
    for cfg in configs {
        let transport = cfg.transport;
        let mut c = AcclCluster::build(cfg.with_overload_limits());
        let (specs, dsts) = allreduce_setup(&mut c, n, count);
        let records = c.host_collective(specs);
        let expect = summed(n, count);
        for node in 0..n {
            assert_eq!(
                records[node].result(),
                Ok(()),
                "node {node} ({transport:?})"
            );
            assert_eq!(c.read(&dsts[node]), expect, "node {node} ({transport:?})");
            let stats = c.node_stats(node);
            assert_eq!(stats.driver_calls_failed, 0, "({transport:?})");
            assert_eq!(stats.driver_calls_shed, 0, "({transport:?})");
            assert_eq!(stats.engine_busy_rejections, 0, "({transport:?})");
        }
    }
}

/// Timeline digest of a bounded 4-node TCP allreduce with a non-wedging
/// overload fault mix injected: one recoverable credit leak, a pause
/// storm, and a pool shrink.
fn overloaded_digest() -> u64 {
    let n = 4;
    let count = 1024u64;
    let mut c = AcclCluster::build(ClusterConfig::xrt_tcp(n).with_overload_limits());
    c.sim.enable_digest();
    let plan = FaultPlan::none()
        // Leak 4 of n1's 32 tx credits: pressure, not a wedge.
        .with_credit_leak(NodeAddr(1), Time::from_us(5), 4)
        .with_pause_storm(NodeAddr(2), Time::from_us(10), Dur::from_us(80))
        .with_buf_shrink(NodeAddr(3), Time::from_us(3), 2);
    c.set_fault_plan(plan);
    let (specs, dsts) = allreduce_setup(&mut c, n, count);
    let records = c.host_collective(specs);
    let expect = summed(n, count);
    for node in 0..n {
        assert_eq!(records[node].result(), Ok(()), "node {node}");
        assert_eq!(c.read(&dsts[node]), expect, "node {node}");
    }
    // The faults actually landed where the plan aimed them.
    assert_eq!(c.node_stats(3).rx_buffers_shrunk, 2);
    c.sim
        .timeline_digest()
        .expect("digest was enabled before the run")
}

#[test]
fn overloaded_timeline_is_reproducible_run_to_run() {
    assert_eq!(
        overloaded_digest(),
        overloaded_digest(),
        "overload faults broke same-seed reproducibility"
    );
}

/// Three host processes race one driver whose submission queue holds a
/// single waiting call: the first runs, the second queues, the third is
/// shed immediately with `Busy` — on both nodes symmetrically, so the two
/// surviving collectives still match across the cluster.
#[test]
fn driver_sheds_calls_beyond_its_submission_queue() {
    let n = 2;
    let count = 256u64;
    let mut cfg = ClusterConfig::xrt_tcp(n);
    cfg.max_queued_calls = Some(1);
    let mut c = AcclCluster::build(cfg);
    let expect = summed(n, count);
    // Three independent single-collective programs per node, all started
    // at the same instant.
    let mut procs = Vec::new();
    let mut dsts = Vec::new();
    for k in 0..3 {
        for node in 0..n {
            let src = c.alloc(node, BufLoc::Host, count * 4);
            let dst = c.alloc(node, BufLoc::Host, count * 4);
            c.write(&src, &pattern(node, count));
            let spec = CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst);
            let driver = Endpoint::new(c.node(node).driver, driver_ports::CALL);
            let id = c.sim.add(
                format!("n{node}.proc{k}"),
                HostProc::new(driver, vec![HostOp::Coll(spec)]),
            );
            c.sim
                .post(Endpoint::new(id, host_ports::START), Time::ZERO, ());
            procs.push((k, node, id));
            dsts.push((k, node, dst));
        }
    }
    assert!(matches!(c.sim.run(), RunOutcome::Drained));
    for (k, node, id) in &procs {
        let records = c.sim.component::<HostProc>(*id).records().to_vec();
        assert_eq!(records.len(), 1);
        match k {
            0 | 1 => assert_eq!(records[0].result(), Ok(()), "proc {k} node {node}"),
            _ => assert_eq!(
                records[0].result(),
                Err(CclError::Busy),
                "proc {k} node {node} should have been shed"
            ),
        }
    }
    for (k, node, dst) in &dsts {
        if *k < 2 {
            assert_eq!(&c.read(dst), &expect, "proc {k} node {node}");
        }
    }
    for node in 0..n {
        let stats = c.node_stats(node);
        assert_eq!(stats.driver_calls_shed, 1, "node {node}");
        assert_eq!(stats.driver_calls_failed, 1, "node {node}");
        assert_eq!(stats.driver_calls_completed, 3, "node {node}");
    }
}

/// A stand-in engine that rejects the first `rejections` submissions with
/// `Busy`, then accepts. The command is never admitted on a rejection, so
/// the driver's busy-retry is exercised without a full cluster.
struct FlakyAdmission {
    rejections: u32,
    seen: u32,
}

impl Component for FlakyAdmission {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        let cmd = payload.downcast::<CcloCommand>();
        self.seen += 1;
        let status = if self.seen <= self.rejections {
            CmdStatus::Busy
        } else {
            CmdStatus::Ok
        };
        ctx.send(
            cmd.reply_to,
            Dur::from_us(1),
            CcloDone {
                ticket: cmd.ticket,
                op: cmd.op,
                bytes: 0,
                status,
            },
        );
    }
}

#[derive(Default)]
struct DoneSink {
    results: Vec<Result<(), CclError>>,
}

impl Component for DoneSink {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        self.results.push(payload.downcast::<DriverDone>().result);
    }
}

const BUSY_POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    backoff_base: Dur::from_us(2),
    backoff_max: Dur::from_us(64),
};

/// Runs one barrier call against a `FlakyAdmission` engine; returns the
/// driver's busy-backoff schedule and the call outcomes.
fn run_busy(seed: u64, rejections: u32) -> (Vec<Dur>, Vec<Result<(), CclError>>) {
    let mut sim = Simulator::new(seed);
    let engine = sim.add(
        "engine",
        FlakyAdmission {
            rejections,
            seen: 0,
        },
    );
    let mut drv = HostDriver::new(0, Endpoint::new(engine, PortId(0)), None, Dur::from_us(3));
    drv.set_busy_retry(BUSY_POLICY, Some(sim.fork_rng("n0.driver.busy")));
    let driver = sim.add("n0.driver", drv);
    let sink = sim.add("sink", DoneSink::default());
    sim.post(
        Endpoint::new(driver, driver_ports::CALL),
        Time::ZERO,
        DriverCall {
            spec: CollSpec::new(CollOp::Barrier, 0, DType::U8),
            reply_to: Endpoint::new(sink, PortId(0)),
            ticket: 7,
        },
    );
    assert!(matches!(sim.run(), RunOutcome::Drained));
    let schedule = sim
        .component::<HostDriver>(driver)
        .busy_backoff_schedule()
        .to_vec();
    let results = sim.component::<DoneSink>(sink).results.clone();
    (schedule, results)
}

#[test]
fn busy_rejections_are_masked_within_the_retry_budget() {
    let (schedule, results) = run_busy(11, 2);
    assert_eq!(results, vec![Ok(())], "two rejections, four attempts");
    assert_eq!(schedule.len(), 2);
    for (retry, backoff) in schedule.iter().enumerate() {
        let floor = BUSY_POLICY.backoff(retry as u32);
        // Jitter is additive and bounded by a quarter of the base.
        let ceil = floor + Dur::from_ps(BUSY_POLICY.backoff_base.as_ps() / 4);
        assert!(
            floor <= *backoff && *backoff < ceil,
            "retry {retry}: {backoff:?} outside [{floor:?}, {ceil:?})"
        );
    }
}

#[test]
fn busy_surfaces_after_the_retry_budget_is_spent() {
    let (schedule, results) = run_busy(11, 10);
    assert_eq!(results, vec![Err(CclError::Busy)]);
    // max_attempts = 4: three backoffs were scheduled before giving up.
    assert_eq!(schedule.len(), 3);
}

#[test]
fn busy_backoff_schedule_is_a_pure_function_of_seed() {
    let (a, _) = run_busy(42, 3);
    let (b, _) = run_busy(42, 3);
    assert_eq!(a, b, "same seed must yield an identical backoff schedule");
    assert_eq!(a.len(), 3);
    let (c, _) = run_busy(43, 3);
    assert_ne!(a, c, "different seeds should jitter differently");
}
