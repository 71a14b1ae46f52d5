//! The seed sweep: N independent chaos experiments, shrink on failure.
//!
//! Each seed is a closed experiment: the seed picks the workload variant
//! (allreduce / bcast by parity), seeds the cluster, and — through
//! [`FaultPlanGen`] — samples the fault schedule. Seeds are independent,
//! so a sweep can be split across CI shards by `start_seed` ranges and
//! any reported failure replays in isolation.
//!
//! On the first invariant violation the sweep stops, decomposes the
//! schedule into [`accl_net::FaultEvent`]s, runs [`crate::shrink::ddmin`]
//! with "rebuild plan, rerun workload, did *any* invariant break?" as the
//! predicate, and returns a [`SweepFailure`] carrying the minimal
//! [`Repro`].

use crate::repro::Repro;
use crate::shrink::ddmin;
use crate::workload::{self, RunReport, Violation, WorkloadSpec};
use accl_core::Transport;
use accl_net::{ChaosProfile, FaultPlan, FaultPlanGen};

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// First seed (inclusive).
    pub start_seed: u64,
    /// Number of seeds to run.
    pub seeds: u64,
    /// Cluster size per experiment.
    pub nodes: usize,
    /// Elements (i32) per rank.
    pub count: u64,
    /// Protocol offload engine.
    pub transport: Transport,
    /// TCP FCS verification; `false` only for harness self-tests.
    pub verify_fcs: bool,
    /// Builds every experiment's cluster with finite capacities
    /// (`ClusterConfig::with_overload_limits`); pair with
    /// [`ChaosProfile::overload_profile`] so credit leaks, pause storms
    /// and buffer shrinks land on bounded resources.
    pub overload: bool,
    /// Fault intensity.
    pub profile: ChaosProfile,
    /// Membership mode: every experiment runs the self-healing recovery
    /// loop after its faults play out (see `WorkloadSpec::membership`).
    /// Pair with [`ChaosProfile::membership_profile`] so schedules carry
    /// crash/restart pairs and partition windows.
    pub membership: bool,
}

impl SweepConfig {
    /// The default sweep: `seeds` experiments on a 3-node TCP cluster at
    /// the mild all-kinds fault profile.
    pub fn new(seeds: u64) -> Self {
        let nodes = 3usize;
        SweepConfig {
            start_seed: 0,
            seeds,
            nodes,
            count: 65536,
            transport: Transport::Tcp,
            verify_fcs: true,
            overload: false,
            profile: ChaosProfile::default_profile(nodes as u32),
            membership: false,
        }
    }

    /// The overload sweep: bounded clusters under the resource-pressure
    /// fault mix (credit leaks, pause storms, buffer shrinks plus mild
    /// delays). Smaller payloads than the default sweep — the pressure
    /// here is on queues and credit windows, not bandwidth.
    pub fn overload(seeds: u64) -> Self {
        let nodes = 3usize;
        SweepConfig {
            count: 16384,
            overload: true,
            profile: ChaosProfile::overload_profile(nodes as u32),
            ..Self::new(seeds)
        }
    }

    /// The membership sweep: crash/restart pairs and partition windows on
    /// otherwise clean fabrics, with the recovery loop required to heal
    /// every schedule. Smaller payloads — the pressure is on membership
    /// transitions, not bandwidth.
    pub fn membership(seeds: u64) -> Self {
        let nodes = 3usize;
        SweepConfig {
            count: 16384,
            membership: true,
            profile: ChaosProfile::membership_profile(nodes as u32),
            ..Self::new(seeds)
        }
    }

    /// The workload a given seed runs.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        let mut spec = WorkloadSpec::for_seed(seed, self.nodes, self.count, self.transport);
        spec.verify_fcs = self.verify_fcs;
        spec.overload = self.overload;
        spec.membership = self.membership;
        spec
    }

    /// The fault plan a given seed runs under.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        FaultPlanGen::generate(&self.profile, seed)
    }
}

/// Aggregate statistics of a clean sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats {
    /// Seeds completed.
    pub seeds_run: u64,
    /// Fault events scheduled across all seeds.
    pub faults_scheduled: u64,
    /// Collective calls that finished with a typed error (allowed —
    /// masked faults exhaust retry budgets).
    pub typed_errors: u64,
    /// Driver retries spent masking transient faults.
    pub retries: u64,
    /// Frames the fabric dropped.
    pub frames_dropped: u64,
    /// Corrupted frames discarded at POE RX.
    pub corrupted_drops: u64,
}

/// A sweep failure: the violation, and its shrunk repro.
#[derive(Debug)]
pub struct SweepFailure {
    /// The minimal repro (exact seed, workload, shrunk schedule).
    pub repro: Repro,
    /// The violation the *original* schedule produced.
    pub violation: Violation,
    /// Scheduled events before shrinking.
    pub original_events: usize,
    /// Replays ddmin spent.
    pub replays: u32,
}

/// Runs the sweep; `progress` is called after every seed with its report.
/// Returns aggregate stats, or the first failure, shrunk.
pub fn run_sweep(
    cfg: &SweepConfig,
    mut progress: impl FnMut(u64, &RunReport),
) -> Result<SweepStats, Box<SweepFailure>> {
    let mut stats = SweepStats::default();
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        let spec = cfg.spec(seed);
        let events = cfg.plan(seed).to_events();
        let report = workload::run(&spec, cfg.plan(seed));
        progress(seed, &report);
        if let Some(violation) = report.violation.clone() {
            let original_events = events.len();
            let (shrunk, replays) = ddmin(&events, &mut |subset| {
                workload::run(&spec, FaultPlan::from_events(subset))
                    .violation
                    .is_some()
            });
            return Err(Box::new(SweepFailure {
                repro: Repro {
                    seed,
                    spec,
                    events: shrunk,
                },
                violation,
                original_events,
                replays,
            }));
        }
        stats.seeds_run += 1;
        stats.faults_scheduled += events.len() as u64;
        stats.typed_errors += report.results.iter().filter(|r| r.is_err()).count() as u64;
        stats.retries += report.retries;
        stats.frames_dropped += report.frames_dropped;
        stats.corrupted_drops += report.corrupted_drops;
    }
    Ok(stats)
}
