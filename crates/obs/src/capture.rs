//! Reference-workload capture: run a traced simulation, snapshot it
//! into a [`TraceDoc`].
//!
//! Two workloads match what CI gates on: the paper's primary 8-rank
//! device-data allreduce over Coyote+RDMA, and the 10-node DLRM
//! inference pipeline. Every capture verifies the run's data (a trace of
//! a wrong answer is worse than no trace) before snapshotting.
//!
//! The degraded-link knob installs a zero-loss bandwidth throttle on one
//! rank's link for the whole run. Zero loss matters: the fault plan only
//! draws from the switch RNG for probabilistic faults, so a pure
//! throttle perturbs timing — which the diff must attribute to that
//! rank — without forking the random stream.

use accl_core::{
    AcclCluster, AdaptiveWatchdogCfg, AlgoConfig, BufLoc, ClusterConfig, CollOp, CollSpec, DType,
    ReduceFn, Transport,
};
use accl_dlrm::model::{DlrmConfig, DlrmModel};
use accl_dlrm::pipeline::{run_pipeline_observed, DlrmTiming, PipelineObserve};
use accl_net::{Degradation, FaultPlan, NodeAddr};
use accl_sim::prelude::*;

use crate::model::TraceDoc;

/// Which reference workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8-rank device-data allreduce (4096 × i32, sum) over Coyote+RDMA.
    Allreduce8,
    /// The 10-node DLRM inference pipeline (3 inferences, small model).
    Dlrm,
    /// The self-healing lifecycle: a 3-node TCP allreduce with one node
    /// crashing mid-collective, restarting, and rejoining via shrink →
    /// expand. The trace carries the full recovery timeline (suspect,
    /// confirm, survivor reissue, full-strength round) the MTTR analysis
    /// attributes.
    Rejoin,
}

impl Workload {
    /// Label written into the trace document.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Allreduce8 => "allreduce8",
            Workload::Dlrm => "dlrm",
            Workload::Rejoin => "rejoin",
        }
    }

    /// Parses a workload label.
    pub fn from_label(s: &str) -> Option<Workload> {
        match s {
            "allreduce8" => Some(Workload::Allreduce8),
            "dlrm" => Some(Workload::Dlrm),
            "rejoin" => Some(Workload::Rejoin),
            _ => None,
        }
    }
}

/// Everything that shapes one capture.
#[derive(Debug, Clone, Copy)]
pub struct CaptureConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Simulation seed.
    pub seed: u64,
    /// Metric window width; `None` disables windowed metrics.
    pub window: Option<Dur>,
    /// Span-ring capacity (the capture asserts nothing was dropped).
    pub span_capacity: usize,
    /// Throttle this rank's link to 10 Gb/s for the whole run
    /// (allreduce only; the DLRM pipeline owns its cluster's fault
    /// state).
    pub degrade_rank: Option<u32>,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            workload: Workload::Allreduce8,
            seed: 1,
            window: Some(Dur::from_us(1)),
            span_capacity: 1 << 20,
            degrade_rank: None,
        }
    }
}

impl CaptureConfig {
    /// Checks the options against each other and the workload; `capture`
    /// panics on a configuration this rejects.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == Some(Dur::ZERO) {
            return Err("the metric window width must be positive".to_string());
        }
        match (self.degrade_rank, self.workload) {
            (Some(rank), Workload::Allreduce8) if rank as usize >= ALLREDUCE8_RANKS => {
                Err(format!(
                    "degrade rank {rank} out of range (allreduce8 has {ALLREDUCE8_RANKS} ranks)"
                ))
            }
            (Some(_), Workload::Dlrm | Workload::Rejoin) => Err(format!(
                "degrade rank is only supported for the allreduce8 workload, not {}",
                self.workload.label()
            )),
            _ => Ok(()),
        }
    }
}

/// Ranks of the [`Workload::Allreduce8`] cluster.
const ALLREDUCE8_RANKS: usize = 8;

/// A `[start-of-time, forever)` 10 Gb/s zero-loss throttle on one link.
fn whole_run_throttle(rank: u32) -> (NodeAddr, Degradation) {
    (
        NodeAddr(rank),
        Degradation {
            from: Time::ZERO,
            until: Time::ZERO + Dur::from_ps(u64::MAX / 2),
            loss_ppm: 0,
            throttle_gbps_x100: 1_000,
        },
    )
}

/// Runs the configured workload with tracing on and snapshots the trace.
pub fn capture(cfg: &CaptureConfig) -> TraceDoc {
    if let Err(e) = cfg.validate() {
        panic!("invalid capture: {e}");
    }
    match cfg.workload {
        Workload::Allreduce8 => capture_allreduce8(cfg),
        Workload::Dlrm => capture_dlrm(cfg),
        Workload::Rejoin => capture_rejoin(cfg),
    }
}

fn i32s(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn from_i32s(b: &[u8]) -> Vec<i32> {
    b.chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn capture_allreduce8(cfg: &CaptureConfig) -> TraceDoc {
    let n = ALLREDUCE8_RANKS;
    let count = 4096u64;
    let mut cluster = AcclCluster::build(ClusterConfig {
        seed: cfg.seed,
        ..ClusterConfig::coyote_rdma(n)
    });
    cluster.enable_tracing(cfg.span_capacity);
    if let Some(w) = cfg.window {
        cluster.enable_metric_windows(w);
    }
    if let Some(rank) = cfg.degrade_rank {
        let (addr, window) = whole_run_throttle(rank);
        cluster.set_fault_plan(FaultPlan::none().with_degradation(addr, window));
    }
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for rank in 0..n {
        let src = cluster.alloc(rank, BufLoc::Device, count * 4);
        let dst = cluster.alloc(rank, BufLoc::Device, count * 4);
        let data: Vec<i32> = (0..count as i32).map(|i| i + rank as i32 * 1000).collect();
        cluster.write(&src, &i32s(&data));
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst)
                .func(ReduceFn::Sum),
        );
        dsts.push(dst);
    }
    cluster.host_collective(specs);
    let expect: Vec<i32> = (0..count as i32)
        .map(|i| (0..n as i32).map(|r| i + r * 1000).sum())
        .collect();
    for (rank, dst) in dsts.iter().enumerate() {
        assert_eq!(
            from_i32s(&cluster.read(dst)),
            expect,
            "rank {rank} result wrong; refusing to snapshot a bad run"
        );
    }
    TraceDoc::from_cluster(&cluster, Workload::Allreduce8.label(), cfg.seed, 1)
}

/// Runs the self-healing lifecycle with tracing on: crash node 2 at 1 µs
/// (restart scheduled at 60 ms), let the first allreduce fail and be
/// confirmed by the watchdog, shrink and reissue on the survivors, then
/// reinstate + expand and finish a verified full-strength round. The
/// resulting trace carries every MTTR milestone.
fn capture_rejoin(cfg: &CaptureConfig) -> TraceDoc {
    let n = 3usize;
    let dead = 2usize;
    let count = 1024u64;
    let mut base = ClusterConfig::coyote_rdma(n);
    base.seed = cfg.seed;
    base.transport = Transport::Tcp;
    base.cclo.collective_timeout_us = Some(30_000);
    base.cclo.adaptive_watchdog = Some(AdaptiveWatchdogCfg::default());
    let mut cluster = AcclCluster::build(base);
    cluster.enable_tracing(cfg.span_capacity);
    if let Some(w) = cfg.window {
        cluster.enable_metric_windows(w);
    }
    cluster.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    cluster.crash_node(dead, Time::from_us(1));
    cluster.restart_node(dead, Time::from_ms(60));

    // Run 1: the crash fails the survivors' collectives in bounded time.
    let (specs, _) = rejoin_allreduce_specs(&mut cluster, &[0, 1, 2], count, 0);
    let records = cluster.host_collective(specs);
    for rank in [0usize, 1] {
        assert!(
            records[rank].result().is_err(),
            "rank {rank} must fail while node {dead} is down; refusing to snapshot"
        );
    }

    // Run 2: shrink + verified reissue on the survivor group.
    let world = cluster.communicator(0).expect("world communicator").clone();
    let survivors = world.shrink(1, &[dead]).expect("survivors remain");
    cluster.install_communicator(&survivors);
    rejoin_verified_allreduce(&mut cluster, &[0, 1], count, 1);

    // Run 3: reinstate the restarted node, expand, verified full round.
    cluster.reinstate_node(dead);
    let rejoined = survivors.expand(2, &[dead]).expect("node readmitted");
    cluster.install_communicator(&rejoined);
    rejoin_verified_allreduce(&mut cluster, &[0, 1, 2], count, 2);

    TraceDoc::from_cluster(&cluster, Workload::Rejoin.label(), cfg.seed, 1)
}

fn rejoin_pattern(rank: usize, count: u64) -> Vec<u8> {
    i32s(
        &(0..count as i32)
            .map(|i| i * 3 + rank as i32 * 97)
            .collect::<Vec<_>>(),
    )
}

fn rejoin_allreduce_specs(
    cluster: &mut AcclCluster,
    members: &[usize],
    count: u64,
    comm: u32,
) -> (Vec<CollSpec>, Vec<accl_core::BufferHandle>) {
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for &node in members {
        let src = cluster.alloc(node, BufLoc::Device, count * 4);
        let dst = cluster.alloc(node, BufLoc::Device, count * 4);
        cluster.write(&src, &rejoin_pattern(node, count));
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

fn rejoin_verified_allreduce(cluster: &mut AcclCluster, members: &[usize], count: u64, comm: u32) {
    use accl_core::host::HostOp;
    let nodes = cluster.len();
    let (mut specs, dsts) = rejoin_allreduce_specs(cluster, members, count, comm);
    let mut programs: Vec<Vec<HostOp>> = vec![Vec::new(); nodes];
    for &m in members {
        programs[m] = vec![HostOp::Coll(specs.remove(0))];
    }
    let results = cluster.run_host_programs(programs);
    let expect = i32s(
        &(0..count as i32)
            .map(|i| members.iter().map(|&r| i * 3 + r as i32 * 97).sum::<i32>())
            .collect::<Vec<_>>(),
    );
    for (r, &m) in members.iter().enumerate() {
        assert_eq!(
            results[m][0].result(),
            Ok(()),
            "comm {comm} rank {m} must complete; refusing to snapshot a bad run"
        );
        assert_eq!(
            cluster.read(&dsts[r]),
            expect,
            "comm {comm} rank {m} data wrong; refusing to snapshot a bad run"
        );
    }
}

fn capture_dlrm(cfg: &CaptureConfig) -> TraceDoc {
    let model = DlrmModel::generate(
        DlrmConfig {
            tables: 16,
            embed_dim: 8,
            rows_per_table: 64,
            fc_dims: [64, 32, 16],
            fc1_row_groups: 2,
            fc1_col_groups: 4,
        },
        cfg.seed,
    );
    let inferences = 3;
    let observe = PipelineObserve {
        span_capacity: cfg.span_capacity,
        metric_window: cfg.window,
    };
    let (result, cluster) =
        run_pipeline_observed(&model, DlrmTiming::default(), inferences, 1, &observe);
    assert_eq!(result.done_at.len(), inferences, "pipeline did not finish");
    TraceDoc::from_cluster(&cluster, Workload::Dlrm.label(), cfg.seed, 1)
}
