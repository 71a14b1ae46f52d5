//! The invariant-checked workload: one collective under one fault plan.
//!
//! A chaos run is a *closed* experiment: the workload, the cluster
//! configuration and the fault schedule are all pure functions of the
//! run's parameters, so a violation found at seed N replays exactly —
//! which is what makes delta-debugging the schedule possible at all.
//!
//! Four invariants are checked, in order of severity:
//!
//! 1. **No wedging.** The simulation drains (or the engine watchdog
//!    fires); a stalled simulator or an unfinished host program is a
//!    harness violation, never a pass.
//! 2. **Completion or typed error.** Every rank's collective finishes
//!    with `Ok` or a [`CclError`]; under a *transparent* plan (no faults)
//!    any error at all is a violation.
//! 3. **Data integrity.** A rank whose call completed `Ok` must hold the
//!    bit-exact golden result (CPU-computed reduction/broadcast) — a
//!    transport is allowed to fail a call, but never to complete it with
//!    corrupted payload.
//! 4. **Metric sanity.** Counters must be consistent with the schedule:
//!    corrupted-frame discards cannot appear unless the plan injects
//!    corruption, and a completed call implies driver completions.

use accl_core::{
    AcclCluster, AlgoConfig, BufLoc, CclError, ClusterConfig, CollOp, CollSpec, DType, HostDriver,
    HostOp, RetryPolicy, Transport,
};
use accl_net::{FaultEvent, FaultPlan};
use accl_sim::time::Time;

/// Watchdog window for chaos runs, µs. Comfortably above the worst
/// transient-recovery latency at the default profile (flaps ≤ 120 µs,
/// TCP RTO ladder ≤ ~10 ms), far below "wedged".
const WATCHDOG_US: u64 = 30_000;

/// Driver retries per call: transient faults that abort an attempt are
/// masked, sustained ones run the budget dry and surface typed.
const RETRIES: u32 = 4;

/// Which collective the workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Sum-allreduce of i32 across all ranks; golden result is the CPU
    /// elementwise sum of every rank's pattern.
    AllReduce,
    /// Broadcast from rank 0; golden result is the root's pattern.
    Bcast,
}

/// A fully specified chaos workload: everything needed to rebuild the
/// cluster and rerun the experiment, bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// The collective under test.
    pub kind: CollKind,
    /// Cluster size.
    pub nodes: usize,
    /// Elements (i32) per rank.
    pub count: u64,
    /// Protocol offload engine.
    pub transport: Transport,
    /// Whether the TCP engine verifies frame check sequences at RX.
    /// `true` in every real configuration; the harness's self-test sets
    /// it `false` to plant a known integrity bug and confirm the sweep
    /// catches and shrinks it.
    pub verify_fcs: bool,
    /// Builds the cluster with every elastic resource capped
    /// ([`ClusterConfig::with_overload_limits`]): finite switch buffers
    /// with PFC pause, POE tx credit windows, uC admission limits and
    /// driver shedding. Required for the overload fault kinds (credit
    /// leaks, pause storms, buffer shrinks) to have anything to bite.
    pub overload: bool,
    /// Simulation seed (also the chaos seed that named this run).
    pub seed: u64,
    /// Membership mode: after the scheduled faults play out, the harness
    /// runs the self-healing recovery loop — reinstate every restarted
    /// node and partition-minority member, readmit them via
    /// `Communicator::expand`, and reissue the collective on the rejoined
    /// world. The rejoined run MUST complete with golden data; a crash
    /// with no matching restart, or a recovery run that fails, is a
    /// [`Violation::MembershipUnhealed`].
    pub membership: bool,
}

impl WorkloadSpec {
    /// The per-seed workload of a sweep: alternates the collective by
    /// seed parity so both data paths (reduce rings and broadcast trees)
    /// see fault coverage.
    pub fn for_seed(seed: u64, nodes: usize, count: u64, transport: Transport) -> Self {
        WorkloadSpec {
            kind: if seed.is_multiple_of(2) {
                CollKind::AllReduce
            } else {
                CollKind::Bcast
            },
            nodes,
            count,
            transport,
            verify_fcs: true,
            overload: false,
            seed,
            membership: false,
        }
    }
}

/// An invariant violation — the thing a chaos sweep exists to find.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The simulation wedged: stalled mid-run or left a host program
    /// unfinished. Carries the cluster's diagnosis verbatim.
    Wedged(String),
    /// A rank completed `Ok` holding bytes that differ from the golden
    /// CPU result.
    DataMismatch {
        /// The lying rank.
        rank: u32,
        /// First differing byte offset.
        byte: usize,
    },
    /// A rank failed under a *transparent* plan — an error with no fault
    /// to blame.
    SpuriousError {
        /// The failing rank.
        rank: u32,
        /// Its typed error.
        error: CclError,
    },
    /// A counter disagreed with the schedule.
    MetricNonsense(String),
    /// Self-healing failed: a crashed node never restarted (rejoin is
    /// impossible), or the rejoined world could not complete the
    /// collective with golden data after every restart and heal had
    /// passed.
    MembershipUnhealed(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Wedged(why) => write!(f, "wedged: {why}"),
            Violation::DataMismatch { rank, byte } => {
                write!(
                    f,
                    "rank {rank} completed Ok with wrong data (first bad byte {byte})"
                )
            }
            Violation::SpuriousError { rank, error } => {
                write!(f, "rank {rank} failed ({error}) under a fault-free plan")
            }
            Violation::MetricNonsense(why) => write!(f, "metric nonsense: {why}"),
            Violation::MembershipUnhealed(why) => write!(f, "membership unhealed: {why}"),
        }
    }
}

/// The outcome of one chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The first invariant violation found, if any.
    pub violation: Option<Violation>,
    /// Per-rank call results (empty if the run wedged).
    pub results: Vec<Result<(), CclError>>,
    /// Simulator events executed — the determinism digest.
    pub events_executed: u64,
    /// Frames the switch dropped (faults + schedule windows).
    pub frames_dropped: u64,
    /// Corrupted frames discarded at POE RX, summed over nodes.
    pub corrupted_drops: u64,
    /// Driver retries in the faulted run, summed over ranks.
    pub retries: u64,
}

impl RunReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

fn i32s(vals: impl Iterator<Item = i32>) -> Vec<u8> {
    vals.flat_map(|v| v.to_le_bytes()).collect()
}

fn pattern(rank: usize, count: u64) -> Vec<u8> {
    i32s((0..count as i32).map(|i| i.wrapping_mul(3).wrapping_add(rank as i32 * 97)))
}

fn golden(spec: &WorkloadSpec) -> Vec<u8> {
    match spec.kind {
        CollKind::AllReduce => i32s((0..spec.count as i32).map(|i| {
            (0..spec.nodes as i32)
                .map(|r| i.wrapping_mul(3).wrapping_add(r * 97))
                .fold(0i32, i32::wrapping_add)
        })),
        CollKind::Bcast => pattern(0, spec.count),
    }
}

/// Runs `spec` under `plan` and checks every invariant.
///
/// Takes the plan by value ([`FaultPlan`] holds an un-clonable predicate
/// slot); regenerate or rebuild from events to run the same schedule
/// again — both are cheap and exact.
pub fn run(spec: &WorkloadSpec, plan: FaultPlan) -> RunReport {
    let mut cfg = ClusterConfig::coyote_rdma(spec.nodes);
    cfg.transport = spec.transport;
    cfg.seed = spec.seed;
    cfg.cclo.collective_timeout_us = Some(WATCHDOG_US);
    cfg.tcp.verify_fcs = spec.verify_fcs;
    if spec.overload {
        cfg = cfg.with_overload_limits();
    }
    let mut c = AcclCluster::build(cfg);
    c.set_retry_policy(RetryPolicy::retries(RETRIES));
    // Force the ring composition for allreduce: every rank transmits from
    // the start, maximizing the schedule's fault surface.
    c.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    let transparent = plan.is_transparent();
    let event_list: Vec<FaultEvent> = if plan.is_explicit() {
        plan.to_events()
    } else {
        Vec::new()
    };
    let plan_corrupts = !plan.is_explicit()
        || event_list
            .iter()
            .any(|e| matches!(e, FaultEvent::Corrupt { .. }));
    c.set_fault_plan(plan);

    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for rank in 0..spec.nodes {
        let dst = c.alloc(rank, BufLoc::Device, spec.count * 4);
        let coll = match spec.kind {
            CollKind::AllReduce => {
                let src = c.alloc(rank, BufLoc::Device, spec.count * 4);
                c.write(&src, &pattern(rank, spec.count));
                CollSpec::new(CollOp::AllReduce, spec.count, DType::I32)
                    .src(src)
                    .dst(dst)
            }
            CollKind::Bcast => {
                if rank == 0 {
                    c.write(&dst, &pattern(0, spec.count));
                }
                CollSpec::new(CollOp::Bcast, spec.count, DType::I32).dst(dst)
            }
        };
        specs.push(coll);
        dsts.push(dst);
    }

    let programs = specs.into_iter().map(|s| vec![HostOp::Coll(s)]).collect();
    let records = match c.try_run_host_programs(programs) {
        Ok(records) => records,
        Err(why) => {
            return RunReport {
                violation: Some(Violation::Wedged(why)),
                results: Vec::new(),
                events_executed: c.sim.events_executed(),
                frames_dropped: c.network().frames_dropped(&c.sim),
                corrupted_drops: (0..spec.nodes).map(|i| c.corrupted_drops(i)).sum(),
                retries: 0,
            }
        }
    };

    let results: Vec<Result<(), CclError>> = records.iter().map(|r| r[0].result()).collect();
    let expected = golden(spec);
    let mut violation = None;
    for rank in 0..spec.nodes {
        match results[rank] {
            Ok(()) => {
                let got = c.read(&dsts[rank]);
                if let Some(byte) = first_mismatch(&got, &expected) {
                    violation = Some(Violation::DataMismatch {
                        rank: rank as u32,
                        byte,
                    });
                    break;
                }
                if c.node_stats(rank).driver_calls_completed == 0 {
                    violation = Some(Violation::MetricNonsense(format!(
                        "rank {rank} returned Ok with zero driver completions"
                    )));
                    break;
                }
            }
            Err(error) if transparent => {
                violation = Some(Violation::SpuriousError {
                    rank: rank as u32,
                    error,
                });
                break;
            }
            Err(_) => {}
        }
    }

    let corrupted_drops: u64 = (0..spec.nodes).map(|i| c.corrupted_drops(i)).sum();
    if violation.is_none() && corrupted_drops > 0 && !plan_corrupts {
        violation = Some(Violation::MetricNonsense(format!(
            "{corrupted_drops} corrupted-frame discards under a corruption-free plan"
        )));
    }
    // Read before recovery: readmission reboots a node's driver.
    let retries = (0..spec.nodes)
        .map(|i| {
            c.sim
                .component::<HostDriver>(c.node(i).driver)
                .retries_attempted()
        })
        .sum();
    if spec.membership && violation.is_none() {
        violation = run_recovery(&mut c, spec, &expected);
    }

    RunReport {
        violation,
        results,
        events_executed: c.sim.events_executed(),
        frames_dropped: c.network().frames_dropped(&c.sim),
        corrupted_drops,
        retries,
    }
}

/// The membership-mode recovery loop: after the scheduled faults (and
/// the failing run they caused) have played out, every crash must have a
/// matching restart, the fabric must have healed, and a collective
/// reissued on the rejoined world — restarted nodes readmitted via
/// `Communicator::expand` with their original numbering — must complete
/// with golden data on every rank. Anything less is a violation: the
/// cluster did not heal itself.
fn run_recovery(c: &mut AcclCluster, spec: &WorkloadSpec, expected: &[u8]) -> Option<Violation> {
    let plan = c.network().fault_plan(&c.sim);
    let crashed: Vec<usize> = plan.node_down.keys().map(|a| a.index()).collect();
    let masks: Vec<u64> = plan.partitions.iter().map(|p| p.mask).collect();
    if crashed.is_empty() && masks.is_empty() {
        // Nothing severed membership: the normal invariants already ruled.
        return None;
    }
    // Heal gate: a crash with no restart can never rejoin.
    for (&node, sched) in &plan.node_down {
        // Only the last window can be open: it runs to `Time::MAX`.
        if let Some(&(at, _)) = sched.windows().last().filter(|w| w.1 == Time::MAX) {
            return Some(Violation::MembershipUnhealed(format!(
                "node {} crashed at {}ps and never restarts — rejoin impossible",
                node.0,
                at.as_ps()
            )));
        }
    }
    let world = accl_core::Communicator::world(spec.nodes);
    // Who needs transport reinstatement: every restarted node, plus every
    // partition-minority member (its sessions across the cut died too).
    let mut reinstate: std::collections::BTreeSet<usize> = crashed.iter().copied().collect();
    for &mask in &masks {
        for n in 0..spec.nodes {
            if accl_core::resolve_partition(&world, n, mask) == Err(CclError::Partitioned) {
                reinstate.insert(n);
            }
        }
    }
    for &n in &reinstate {
        c.reinstate_node(n);
    }
    // Readmit at the communicator layer: shrink past the crashed nodes,
    // expand them back in — deterministic renumbering restores the world
    // order exactly, so the golden result is unchanged.
    let survivors = match world.shrink(1, &crashed) {
        Ok(s) => s,
        Err(e) => return Some(Violation::MembershipUnhealed(format!("shrink failed: {e}"))),
    };
    let rejoined = match survivors.expand(2, &crashed) {
        Ok(r) => r,
        Err(e) => return Some(Violation::MembershipUnhealed(format!("expand failed: {e}"))),
    };
    debug_assert_eq!(rejoined.members(), world.members());
    c.install_communicator(&rejoined);

    let mut dsts = Vec::new();
    let mut programs: Vec<Vec<HostOp>> = vec![Vec::new(); spec.nodes];
    for (rank, program) in programs.iter_mut().enumerate() {
        let dst = c.alloc(rank, BufLoc::Device, spec.count * 4);
        let coll = match spec.kind {
            CollKind::AllReduce => {
                let src = c.alloc(rank, BufLoc::Device, spec.count * 4);
                c.write(&src, &pattern(rank, spec.count));
                CollSpec::new(CollOp::AllReduce, spec.count, DType::I32)
                    .src(src)
                    .dst(dst)
            }
            CollKind::Bcast => {
                if rank == 0 {
                    c.write(&dst, &pattern(0, spec.count));
                }
                CollSpec::new(CollOp::Bcast, spec.count, DType::I32).dst(dst)
            }
        }
        .comm(rejoined.id());
        *program = vec![HostOp::Coll(coll)];
        dsts.push(dst);
    }
    let records = match c.try_run_host_programs(programs) {
        Ok(records) => records,
        Err(why) => {
            return Some(Violation::MembershipUnhealed(format!(
                "rejoined run wedged: {why}"
            )))
        }
    };
    for rank in 0..spec.nodes {
        if let Err(e) = records[rank][0].result() {
            return Some(Violation::MembershipUnhealed(format!(
                "rank {rank} failed on the rejoined world: {e}"
            )));
        }
        let got = c.read(&dsts[rank]);
        if let Some(byte) = first_mismatch(&got, expected) {
            return Some(Violation::MembershipUnhealed(format!(
                "rank {rank} rejoined with wrong data (first bad byte {byte})"
            )));
        }
    }
    None
}

fn first_mismatch(got: &[u8], expected: &[u8]) -> Option<usize> {
    if got.len() != expected.len() {
        return Some(got.len().min(expected.len()));
    }
    got.iter().zip(expected).position(|(g, e)| g != e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_runs_pass_on_every_transport() {
        for transport in [Transport::Tcp, Transport::Udp, Transport::Rdma] {
            for kind in [CollKind::AllReduce, CollKind::Bcast] {
                let spec = WorkloadSpec {
                    kind,
                    nodes: 2,
                    count: 256,
                    transport,
                    verify_fcs: true,
                    overload: false,
                    seed: 1,
                    membership: false,
                };
                let report = run(&spec, FaultPlan::none());
                assert!(
                    report.passed(),
                    "{transport:?}/{kind:?}: {}",
                    report.violation.unwrap()
                );
                assert!(report.results.iter().all(|r| r.is_ok()));
            }
        }
    }

    /// The bounded cluster is behaviourally invisible without induced
    /// overload: the capped configuration must pass the same transparent
    /// plans the unbounded one does.
    #[test]
    fn fault_free_overload_runs_pass_on_every_transport() {
        for transport in [Transport::Tcp, Transport::Udp, Transport::Rdma] {
            let mut spec = WorkloadSpec::for_seed(0, 2, 256, transport);
            spec.overload = true;
            let report = run(&spec, FaultPlan::none());
            assert!(
                report.passed(),
                "{transport:?}: {}",
                report.violation.unwrap()
            );
            assert!(report.results.iter().all(|r| r.is_ok()));
        }
    }

    #[test]
    fn seed_parity_alternates_the_collective() {
        assert_eq!(
            WorkloadSpec::for_seed(0, 2, 64, Transport::Tcp).kind,
            CollKind::AllReduce
        );
        assert_eq!(
            WorkloadSpec::for_seed(1, 2, 64, Transport::Tcp).kind,
            CollKind::Bcast
        );
    }
}
