//! Cluster assembly: N nodes of CPU + FPGA on a switched fabric.
//!
//! `AcclCluster` is the top of the public API: it builds the network, and
//! per node a memory bus, protocol offload engine, CCLO engine, XDMA
//! staging engine (partitioned platforms) and host CCL driver, fully wired.
//! Applications then allocate buffers, write initial data, and run host or
//! kernel programs against the cluster.

use accl_cclo::config::CommunicatorCfg;
use accl_cclo::engine::{CcloEngine, CcloEngineSpec};
use accl_cclo::uc::TransportFailover;
use accl_mem::{MemAddr, MemBusConfig, MemoryBus, XdmaEngine};
use accl_net::Network;
use accl_poe::iface::{ports as poe_ports, SessionId, SessionTable};
use accl_poe::rdma::{RdmaPdu, RdmaPoe};
use accl_poe::tcp::TcpPoe;
use accl_poe::udp::{UdpConfig, UdpPoe};
use accl_sim::prelude::*;

/// Session errors on a primary RDMA POE before the Tx system engages the
/// standby TCP POE — "repeated QP errors", not a single transient one.
const FAILOVER_THRESHOLD: u64 = 2;

use crate::buffer::{BufLoc, BufferHandle, NodeSpaces, SCRATCH_BASE, SCRATCH_BYTES};
use crate::comm::Communicator;
use crate::driver::{CollSpec, HostDriver};
use crate::error::{CclError, RetryPolicy};
use crate::host::{ports as host_ports, HostOp, HostProc, OpRecord};
use crate::kernel::{ports as kernel_ports, KernelOp, KernelProc};
use crate::membership::MembershipEvent;
use crate::platform::{ClusterConfig, Platform, Transport};

/// Per-node component handles.
pub struct NodeHandles {
    /// The memory bus.
    pub bus: ComponentId,
    /// The protocol offload engine.
    pub poe: ComponentId,
    /// The standby TCP POE (RDMA clusters built with `tcp_fallback`).
    pub fallback_poe: Option<ComponentId>,
    /// The CCLO engine blocks.
    pub cclo: CcloEngine,
    /// The XDMA staging engine (partitioned platforms only).
    pub xdma: Option<ComponentId>,
    /// The host CCL driver.
    pub driver: ComponentId,
}

/// Counters of one node's engine, read back MMIO-style after (or during)
/// a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStats {
    /// CCLO commands completed by the uC.
    pub collectives_completed: u64,
    /// Host driver calls completed (includes staging/invocation phases).
    pub driver_calls_completed: u64,
    /// Tx-system jobs fully transmitted.
    pub tx_jobs: u64,
    /// Rx-system messages whose signatures parsed.
    pub rx_messages: u64,
    /// DMP microcode instructions retired.
    pub dmp_instructions: u64,
    /// Rx buffers currently free.
    pub rx_buffers_free: u32,
    /// Times the eager pool ran dry.
    pub rx_pool_exhaustions: u64,
    /// Collectives aborted by the engine's watchdog.
    pub collectives_aborted: u64,
    /// Driver calls that completed with a [`CclError`].
    pub driver_calls_failed: u64,
    /// Commands the uC turned away at a full job queue (`Busy`).
    pub engine_busy_rejections: u64,
    /// Busy rejections the driver masked by retrying under backoff.
    pub driver_busy_retries: u64,
    /// Calls the driver shed at its own full submission queue.
    pub driver_calls_shed: u64,
    /// Rx buffers removed from the pool by shrink faults.
    pub rx_buffers_shrunk: u32,
}

/// A fully wired simulated cluster.
pub struct AcclCluster {
    /// The simulator; exposed for advanced orchestration.
    pub sim: Simulator,
    cfg: ClusterConfig,
    net: Network,
    nodes: Vec<NodeHandles>,
    spaces: Vec<NodeSpaces>,
    comms: std::collections::BTreeMap<u32, Communicator>,
    /// Partition windows scheduled on the fabric (for post-run verdicts).
    partitions_seen: Vec<accl_net::Partition>,
    /// Membership transitions observed by the harness, in schedule order.
    membership_log: Vec<(Time, MembershipEvent)>,
}

impl AcclCluster {
    /// Builds a cluster per `cfg`.
    pub fn build(cfg: ClusterConfig) -> AcclCluster {
        cfg.validate();
        let mut sim = Simulator::new(cfg.seed);
        let net = Network::build(&mut sim, cfg.net, cfg.nodes);
        let unified = cfg.platform == Platform::Coyote;
        let mut nodes = Vec::new();
        let mut spaces = Vec::new();
        for i in 0..cfg.nodes {
            let bus_cfg = if unified {
                MemBusConfig::coyote()
            } else {
                MemBusConfig::default()
            };
            let bus = sim.add(format!("n{i}.bus"), MemoryBus::new(bus_cfg));
            if unified {
                // The scratch region is device-resident and eagerly mapped.
                sim.component_mut::<MemoryBus>(bus).map_range(
                    SCRATCH_BASE,
                    SCRATCH_BYTES,
                    accl_mem::MemTarget::Device,
                );
            }
            let poe = sim.reserve(format!("n{i}.poe"));
            let scratch_mem = if unified {
                MemAddr::Virt(SCRATCH_BASE)
            } else {
                MemAddr::Phys(accl_mem::MemTarget::Device, SCRATCH_BASE)
            };
            let cclo = CcloEngine::build(
                &mut sim,
                &format!("n{i}.cclo"),
                &CcloEngineSpec {
                    cfg: cfg.cclo,
                    mem_bus: bus,
                    poe,
                    rendezvous_capable: cfg.transport.rendezvous_capable(),
                    reliable: cfg.transport != Transport::Udp,
                    scratch_mem,
                },
            );
            let make_sessions = || {
                let mut sessions = SessionTable::new();
                for j in 0..cfg.nodes {
                    if i != j {
                        sessions.connect(SessionId(j as u32), net.addr(j), SessionId(i as u32));
                    }
                }
                sessions
            };
            let up = cclo.poe_upward();
            match cfg.transport {
                Transport::Udp => {
                    sim.install(
                        poe,
                        UdpPoe::new(UdpConfig::default(), net.tx(i), up, make_sessions()),
                    );
                }
                Transport::Tcp => {
                    sim.install(poe, TcpPoe::new(cfg.tcp, net.tx(i), up, make_sessions()));
                }
                Transport::Rdma => {
                    sim.install(
                        poe,
                        RdmaPoe::new(cfg.rdma, net.tx(i), up, make_sessions()).with_mem_bus(bus),
                    );
                }
            }
            if let Some(window) = cfg.tx_credit_window {
                let io = match cfg.transport {
                    Transport::Udp => sim.component_mut::<UdpPoe>(poe).io_mut(),
                    Transport::Tcp => sim.component_mut::<TcpPoe>(poe).io_mut(),
                    Transport::Rdma => sim.component_mut::<RdmaPoe>(poe).io_mut(),
                };
                io.set_tx_credit_window(Some(window), format!("net.txcredit(n{i})"));
            }
            // With a standby TCP POE armed, the switch splits the node's
            // inbound frames between the two engines by PDU type, and the
            // Tx system learns where to retarget after repeated QP errors.
            let fallback_poe = (cfg.transport == Transport::Rdma && cfg.tcp_fallback).then(|| {
                let mut standby =
                    TcpPoe::new(cfg.tcp, net.tx(i), cclo.poe_upward(), make_sessions());
                if let Some(window) = cfg.tx_credit_window {
                    standby
                        .io_mut()
                        .set_tx_credit_window(Some(window), format!("net.txcredit(n{i}.tcp)"));
                }
                let fb = sim.add(format!("n{i}.poe.tcp"), standby);
                cclo.set_tx_fallback(
                    &mut sim,
                    Endpoint::new(fb, poe_ports::TX_CMD),
                    Endpoint::new(fb, poe_ports::TX_DATA),
                    TransportFailover {
                        rendezvous_capable: false,
                        reliable: true,
                    },
                    FAILOVER_THRESHOLD,
                );
                fb
            });
            // The switch delivers straight to the engine, each of which
            // fences frames from a restarted peer's previous incarnation.
            net.attach_rx(&mut sim, i, Endpoint::new(poe, poe_ports::NET_RX));
            if let Some(fb) = fallback_poe {
                net.attach_rx_alt(&mut sim, i, Endpoint::new(fb, poe_ports::NET_RX), |b| {
                    !b.is::<RdmaPdu>()
                });
            }
            cclo.set_communicator(
                &mut sim,
                0,
                CommunicatorCfg {
                    rank: i as u32,
                    peers: (0..cfg.nodes)
                        .map(|j| (net.addr(j), SessionId(j as u32)))
                        .collect(),
                },
            );
            let xdma = (!unified).then(|| {
                sim.add(
                    format!("n{i}.xdma"),
                    XdmaEngine::new(bus, cfg.xdma_setup_us()),
                )
            });
            let mut driver_comp =
                HostDriver::new(i as u32, cclo.cmd(), xdma, cfg.invocation_latency());
            if let Some(policy) = cfg.busy_retry {
                // Jitter comes from a per-driver forked stream, so busy
                // backoff schedules replay bit-for-bit per (seed, node)
                // and never perturb any other component's entropy.
                driver_comp
                    .set_busy_retry(policy, Some(sim.fork_rng(&format!("n{i}.driver.busy"))));
            }
            if cfg.max_queued_calls.is_some() {
                driver_comp.set_max_queued_calls(cfg.max_queued_calls);
            }
            let driver = sim.add(format!("n{i}.driver"), driver_comp);
            nodes.push(NodeHandles {
                bus,
                poe,
                fallback_poe,
                cclo,
                xdma,
                driver,
            });
            spaces.push(NodeSpaces::new());
        }
        let mut comms = std::collections::BTreeMap::new();
        comms.insert(0, Communicator::world(cfg.nodes));
        AcclCluster {
            sim,
            cfg,
            net,
            nodes,
            spaces,
            comms,
            partitions_seen: Vec::new(),
            membership_log: Vec::new(),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The fabric.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Per-node handles.
    pub fn node(&self, i: usize) -> &NodeHandles {
        &self.nodes[i]
    }

    /// Schedules a fail-stop crash of node `i` at simulated time `at`:
    /// from then on the fabric blackholes every frame to or from it.
    /// Composes with any faults already scheduled.
    pub fn crash_node(&mut self, i: usize, at: Time) {
        self.net.crash_node(&mut self.sim, i, at);
    }

    /// Schedules a `[from, until)` outage of node `i`'s link, composing
    /// with any faults already scheduled.
    pub fn link_down(&mut self, i: usize, from: Time, until: Time) {
        self.net.link_down(&mut self.sim, i, from, until);
    }

    /// Schedules a *restart* of previously crashed node `i` at `at`: the
    /// fabric closes its crash window, the NIC comes back with a bumped
    /// incarnation epoch, every survivor's POE fences the old
    /// incarnation's in-flight frames, and the node's Rx buffer manager
    /// wipes its pre-crash state. The node is back on the network but NOT
    /// yet a communicator member — readmit it between runs with
    /// [`AcclCluster::reinstate_node`] +
    /// [`Communicator::expand`](crate::comm::Communicator::expand) +
    /// [`AcclCluster::install_communicator`].
    pub fn restart_node(&mut self, i: usize, at: Time) {
        self.net.restart_node(&mut self.sim, i, at);
        self.schedule_restart_effects(i, at);
    }

    /// Schedules a `[from, until)` fabric partition along `mask` (bit
    /// `n & 63` selects node `n`'s side): frames crossing the cut are
    /// dropped. Composes with any faults already scheduled.
    pub fn partition(&mut self, mask: u64, from: Time, until: Time) {
        self.net.partition(&mut self.sim, mask, from, until);
        self.record_partition(accl_net::Partition { mask, from, until });
    }

    /// Posts the non-fabric side effects of node `i` restarting at `at`:
    /// NIC reincarnation, peer epoch fences, and the RBM wipe.
    fn schedule_restart_effects(&mut self, i: usize, at: Time) {
        if i >= self.nodes.len() {
            return;
        }
        self.sim
            .post(Endpoint::of(self.net.port_id(i)), at, accl_net::Reincarnate);
        let fence = accl_poe::EpochFence {
            src: self.net.addr(i),
            min_epoch: 1,
        };
        for (j, node) in self.nodes.iter().enumerate() {
            if j != i {
                for poe in std::iter::once(node.poe).chain(node.fallback_poe) {
                    let rx = Endpoint::new(poe, poe_ports::NET_RX);
                    self.sim.post(rx, at, fence);
                }
            }
        }
        self.sim.post(
            Endpoint::new(self.nodes[i].cclo.rbm, accl_cclo::rbm::ports::RESYNC),
            at,
            accl_cclo::rbm::RbmResync,
        );
        self.membership_log
            .push((at, MembershipEvent::Restarted { node: i }));
    }

    fn record_partition(&mut self, p: accl_net::Partition) {
        self.membership_log
            .push((p.from, MembershipEvent::Partitioned { mask: p.mask }));
        self.membership_log
            .push((p.until, MembershipEvent::Healed { mask: p.mask }));
        self.partitions_seen.push(p);
    }

    /// Membership transitions observed so far, in schedule order:
    /// restarts, rejoins, partition cuts/heals, and post-run failure
    /// confirmations.
    pub fn membership_log(&self) -> &[(Time, MembershipEvent)] {
        &self.membership_log
    }

    /// Readmits a restarted node at the transport layer: every session
    /// (or queue pair) between `node` and its peers — in both directions,
    /// standby path included — is reinstated, and the adaptive detectors'
    /// inter-arrival histories involving the node are forgotten (the new
    /// incarnation's cadence owes nothing to the old one's). Call between
    /// runs, after the restart instant has passed; then readmit the node
    /// at the communicator layer with
    /// [`Communicator::expand`](crate::comm::Communicator::expand) +
    /// [`AcclCluster::install_communicator`].
    pub fn reinstate_node(&mut self, node: usize) {
        assert!(node < self.nodes.len(), "node {node} out of range");
        for j in 0..self.nodes.len() {
            if j != node {
                self.reinstate_pair(node, j);
            }
        }
        for j in 0..self.nodes.len() {
            let uc = self.nodes[j].cclo.uc;
            let uc = self.sim.component_mut::<accl_cclo::uc::Uc>(uc);
            if j == node {
                uc.reset_all_history();
            } else {
                uc.reset_peer_history(node as u32);
            }
        }
        let now = self.sim.now();
        self.membership_log
            .push((now, MembershipEvent::Rejoined { node }));
    }

    /// Reinstates the transport sessions between nodes `a` and `b` in
    /// both directions (session `j` on a node carries traffic to node
    /// `j`). UDP is connectionless: nothing to reinstate.
    fn reinstate_pair(&mut self, a: usize, b: usize) {
        match self.cfg.transport {
            Transport::Udp => {}
            Transport::Tcp => {
                TcpPoe::reinstate_session(&mut self.sim, self.nodes[a].poe, SessionId(b as u32));
                TcpPoe::reinstate_session(&mut self.sim, self.nodes[b].poe, SessionId(a as u32));
            }
            Transport::Rdma => {
                RdmaPoe::reinstate_qp(&mut self.sim, self.nodes[a].poe, SessionId(b as u32));
                RdmaPoe::reinstate_qp(&mut self.sim, self.nodes[b].poe, SessionId(a as u32));
                if let Some(fb) = self.nodes[a].fallback_poe {
                    TcpPoe::reinstate_session(&mut self.sim, fb, SessionId(b as u32));
                }
                if let Some(fb) = self.nodes[b].fallback_poe {
                    TcpPoe::reinstate_session(&mut self.sim, fb, SessionId(a as u32));
                }
            }
        }
    }

    /// Replaces the fabric's fault plan wholesale (loss, delay, outages).
    ///
    /// Overload faults in the plan — credit leaks, pause storms, buffer
    /// shrinks — are not frame fates the switch can decide; they are
    /// extracted here and posted as control events straight to the
    /// affected engines (the POE's credit port, the NIC's pause input,
    /// the Rx buffer manager's shrink port) at their scheduled instants.
    /// The remainder of the plan is handed to the switch as before.
    pub fn set_fault_plan(&mut self, plan: accl_net::FaultPlan) {
        for &(node, at, credits) in &plan.credit_leaks {
            let n = node.index();
            if n >= self.nodes.len() {
                continue;
            }
            self.sim.post(
                Endpoint::new(self.nodes[n].poe, poe_ports::CREDIT),
                at,
                accl_poe::iface::TxCreditLeak { credits },
            );
        }
        for &(node, at, hold) in &plan.pause_storms {
            let n = node.index();
            if n >= self.nodes.len() {
                continue;
            }
            self.sim.post(
                Endpoint::of(self.net.port_id(n)),
                at,
                accl_net::PauseFrame { until: at + hold },
            );
        }
        for &(node, at, bufs) in &plan.buf_shrinks {
            let n = node.index();
            if n >= self.nodes.len() {
                continue;
            }
            self.sim.post(
                Endpoint::new(self.nodes[n].cclo.rbm, accl_cclo::rbm::ports::SHRINK),
                at,
                accl_cclo::rbm::RbmShrink { bufs },
            );
        }
        // Node restarts carry side effects beyond the fabric's crash
        // window: reincarnation, epoch fencing, RBM resync. Only restarts
        // that actually reopen a crash window count (the plan ignores a
        // restart with no matching earlier crash).
        let restarted: Vec<(usize, Time)> = plan
            .node_restarts
            .keys()
            .filter_map(|&addr| plan.restart_time(addr).map(|at| (addr.index(), at)))
            .collect();
        for (n, at) in restarted {
            self.schedule_restart_effects(n, at);
        }
        for &p in &plan.partitions {
            self.record_partition(p);
        }
        self.net.set_fault_plan(&mut self.sim, plan);
    }

    /// Allocates a buffer on `node` in `loc`.
    ///
    /// On Coyote the range is eagerly mapped into the node's TLB (the
    /// `CoyoteBuffer` behaviour); on XRT, host buffers get a device-side
    /// staging shadow.
    pub fn alloc(&mut self, node: usize, loc: BufLoc, len: u64) -> BufferHandle {
        let unified = self.cfg.platform == Platform::Coyote;
        let addr = self.spaces[node].alloc(loc, len);
        let staging_addr =
            (!unified && loc == BufLoc::Host).then(|| self.spaces[node].alloc(BufLoc::Device, len));
        if unified {
            self.sim
                .component_mut::<MemoryBus>(self.nodes[node].bus)
                .map_range(addr, len, loc.target());
        }
        BufferHandle {
            node,
            loc,
            addr,
            len,
            unified,
            staging_addr,
        }
    }

    /// Writes `data` into a buffer (zero-time, test/benchmark setup).
    pub fn write(&mut self, buf: &BufferHandle, data: &[u8]) {
        assert!(data.len() as u64 <= buf.len, "write exceeds buffer");
        let bus = self
            .sim
            .component_mut::<MemoryBus>(self.nodes[buf.node].bus);
        match buf.loc {
            BufLoc::Host => bus.host_write(buf.addr, data),
            BufLoc::Device => bus.device_write(buf.addr, data),
        }
    }

    /// Reads a buffer's contents (zero-time, verification).
    pub fn read(&self, buf: &BufferHandle) -> Vec<u8> {
        let bus = self.sim.component::<MemoryBus>(self.nodes[buf.node].bus);
        match buf.loc {
            BufLoc::Host => bus.host_read(buf.addr, buf.len as usize),
            BufLoc::Device => bus.device_read(buf.addr, buf.len as usize),
        }
    }

    /// Runs one host program per node (entry `i` runs on node `i`),
    /// starting simultaneously at the current simulated time.
    ///
    /// Returns each node's op records. Collective outcomes are in each
    /// record's [`DriverDone::result`](crate::driver::DriverDone): after
    /// the run, timeouts on nodes whose transport diagnosed a dead peer
    /// session are upgraded to [`CclError::PeerFailed`], mirroring how a
    /// real driver reads the POE's error registers when a call fails.
    /// Nodes with no local diagnosis additionally accept accusations
    /// gossiped from non-suspect nodes, so every survivor of a fail-stop
    /// crash observes `PeerFailed` rather than a bare `Timeout`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation stalls (a component parked work forever;
    /// only possible with the engine watchdog disabled) or a host program
    /// never finishes.
    pub fn run_host_programs(&mut self, programs: Vec<Vec<HostOp>>) -> Vec<Vec<OpRecord>> {
        match self.try_run_host_programs(programs) {
            Ok(records) => records,
            Err(why) => panic!("{why}"),
        }
    }

    /// Non-panicking [`AcclCluster::run_host_programs`]: a stalled
    /// simulation or an unfinished host program is reported as `Err` with
    /// a human-readable diagnosis instead of a panic, leaving the cluster
    /// inspectable — the entry point for chaos harnesses that must treat
    /// "the run wedged" as a checkable outcome rather than a crash.
    pub fn try_run_host_programs(
        &mut self,
        programs: Vec<Vec<HostOp>>,
    ) -> Result<Vec<Vec<OpRecord>>, String> {
        assert_eq!(programs.len(), self.nodes.len(), "one program per node");
        let start = self.sim.now();
        let procs: Vec<ComponentId> = programs
            .into_iter()
            .enumerate()
            .map(|(i, ops)| {
                let driver = Endpoint::new(self.nodes[i].driver, crate::driver::ports::CALL);
                let id = self.sim.add(
                    format!("n{i}.hostproc.{}", start.as_ps()),
                    HostProc::new(driver, ops),
                );
                self.sim
                    .post(Endpoint::new(id, host_ports::START), start, ());
                id
            })
            .collect();
        match self.sim.run() {
            RunOutcome::Drained => {}
            RunOutcome::Stalled(report) => return Err(format!("simulation stalled: {report}")),
            other => return Err(format!("simulation ended abnormally: {other:?}")),
        }
        let mut results: Vec<Vec<OpRecord>> = Vec::with_capacity(procs.len());
        for &id in &procs {
            let proc = self.sim.component::<HostProc>(id);
            if proc.finished_at().is_none() {
                return Err("a host program did not finish (deadlock?)".to_string());
            }
            results.push(proc.records().to_vec());
        }
        // Failure-detector readout. A node trusts its own POE's dead-session
        // diagnosis first. Nodes without one (e.g. a ring rank that never
        // sends toward the dead peer) accept accusations gossiped from
        // nodes that are not themselves suspects — a crashed node also
        // "diagnoses" every peer it could not reach, and must not get to
        // frame the survivors.
        let own: Vec<Vec<u32>> = (0..self.nodes.len())
            .map(|n| self.failed_peers(n))
            .collect();
        let suspects: std::collections::BTreeSet<u32> = own.iter().flatten().copied().collect();
        let gossiped: std::collections::BTreeSet<u32> = own
            .iter()
            .enumerate()
            .filter(|(n, _)| !suspects.contains(&(*n as u32)))
            .flat_map(|(_, peers)| peers.iter().copied())
            .collect();
        for (node, records) in results.iter_mut().enumerate() {
            let verdict = own[node]
                .first()
                .copied()
                .or_else(|| gossiped.iter().copied().find(|&p| p != node as u32));
            let Some(peer) = verdict else { continue };
            for rec in records {
                if let Some(b) = &mut rec.breakdown {
                    if matches!(b.result, Err(CclError::Timeout) | Err(CclError::Aborted)) {
                        b.result = Err(CclError::PeerFailed(peer));
                    }
                }
            }
        }
        let confirmed_at = self.sim.now();
        for &peer in &gossiped {
            self.membership_log.push((
                confirmed_at,
                MembershipEvent::Confirmed {
                    node: peer as usize,
                },
            ));
        }
        // Integrity diagnosis. On an unreliable transport a corrupted
        // frame is simply dropped — never retransmitted — so a timed-out
        // call on a node whose engine discarded corrupted datagrams is a
        // payload-integrity failure, not a liveness one. Reliable
        // transports repair corruption before it can fail a call, so the
        // upgrade applies to UDP only.
        if self.cfg.transport == Transport::Udp {
            for (node, records) in results.iter_mut().enumerate() {
                if self.corrupted_drops(node) == 0 {
                    continue;
                }
                for rec in records {
                    if let Some(b) = &mut rec.breakdown {
                        if matches!(b.result, Err(CclError::Timeout) | Err(CclError::Aborted)) {
                            b.result = Err(CclError::DataCorrupted);
                        }
                    }
                }
            }
        }
        // Partition verdicts. A fabric cut makes both sides accuse each
        // other — symmetric accusations that must NOT resolve as two
        // independent shrinks, or both halves would keep running "the"
        // communicator (split-brain). Every node resolves the cut locally
        // from the same mask: the majority keeps the communicator, and a
        // minority-side node's failures are recolored `Partitioned` so
        // the application fails fast and waits for the heal.
        let end = self.sim.now();
        if let Some(world) = self.comms.get(&0).cloned() {
            for p in self.partitions_seen.clone() {
                if p.until <= start || p.from >= end {
                    continue;
                }
                for (node, records) in results.iter_mut().enumerate() {
                    if crate::membership::resolve_partition(&world, node, p.mask)
                        != Err(CclError::Partitioned)
                    {
                        continue;
                    }
                    for rec in records.iter_mut() {
                        if let Some(b) = &mut rec.breakdown {
                            if matches!(
                                b.result,
                                Err(CclError::Timeout)
                                    | Err(CclError::Aborted)
                                    | Err(CclError::PeerFailed(_))
                            ) {
                                b.result = Err(CclError::Partitioned);
                            }
                        }
                    }
                }
            }
        }
        Ok(results)
    }

    /// Issues the same collective on every rank through the host drivers
    /// and returns each rank's completion record.
    pub fn host_collective(&mut self, specs: Vec<CollSpec>) -> Vec<OpRecord> {
        let programs = specs.into_iter().map(|s| vec![HostOp::Coll(s)]).collect();
        self.run_host_programs(programs)
            .into_iter()
            .map(|records| records[0])
            .collect()
    }

    /// Runs one kernel program per node, wired directly to each CCLO
    /// (F2F mode). Returns the kernel component ids for inspection.
    ///
    /// Each call rebinds every engine's kernel-out endpoint to the new
    /// kernels; do not interleave host streaming collectives that expect a
    /// previous phase's kernels to keep receiving.
    pub fn run_kernel_programs(&mut self, programs: Vec<Vec<KernelOp>>) -> Vec<ComponentId> {
        assert_eq!(programs.len(), self.nodes.len(), "one program per node");
        let start = self.sim.now();
        let kernels: Vec<ComponentId> = programs
            .into_iter()
            .enumerate()
            .map(|(i, ops)| {
                let id = self.sim.add(
                    format!("n{i}.kernel.{}", start.as_ps()),
                    KernelProc::new(
                        self.nodes[i].cclo.cmd(),
                        self.nodes[i].cclo.stream_in(),
                        self.cfg.cclo.clock_mhz,
                        ops,
                    ),
                );
                self.nodes[i]
                    .cclo
                    .set_kernel_out(&mut self.sim, Endpoint::new(id, kernel_ports::STREAM_RX));
                self.sim
                    .post(Endpoint::new(id, kernel_ports::START), start, ());
                id
            })
            .collect();
        match self.sim.run() {
            RunOutcome::Drained => {}
            RunOutcome::Stalled(report) => panic!("simulation stalled: {report}"),
            other => panic!("simulation ended abnormally: {other:?}"),
        }
        for &id in &kernels {
            assert!(
                self.sim.component::<KernelProc>(id).finished_at().is_some(),
                "a kernel program did not finish (deadlock?)"
            );
        }
        kernels
    }

    /// Kernel inspection helper.
    pub fn kernel(&self, id: ComponentId) -> &KernelProc {
        self.sim.component::<KernelProc>(id)
    }

    /// Enables causal span recording across the whole cluster, keeping
    /// the most recent `capacity` span events in a ring.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.sim.enable_spans(capacity);
    }

    /// The recorded span events in record order (empty unless tracing
    /// was enabled).
    pub fn trace_events(&self) -> Vec<accl_sim::trace::SpanEvent> {
        self.sim.span_events()
    }

    /// Enables fixed-width sim-time metric windows on the cluster's
    /// simulator: every counter/gauge/histogram write made by a component
    /// is additionally routed into the window containing its simulated
    /// time, feeding deterministic p50/p99/p999-over-time series (the
    /// serving-scenario SLO report). Call before the first run. See
    /// [`accl_sim::stats::Stats::enable_windows`].
    pub fn enable_metric_windows(&mut self, width: Dur) {
        self.sim.enable_metric_windows(width);
    }

    /// Chrome/Perfetto `trace_event` JSON of the recorded timeline —
    /// load it at `ui.perfetto.dev` or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        accl_sim::trace::chrome_trace_json(&self.sim)
    }

    /// A snapshot of one node's engine counters (observability: the
    /// hardware exposes these via the configuration memory over MMIO).
    pub fn node_stats(&self, i: usize) -> NodeStats {
        let n = &self.nodes[i];
        let uc = self.sim.component::<accl_cclo::uc::Uc>(n.cclo.uc);
        let tx = self.sim.component::<accl_cclo::txsys::TxSys>(n.cclo.txsys);
        let rbm = self.sim.component::<accl_cclo::rbm::Rbm>(n.cclo.rbm);
        let rx = self.sim.component::<accl_cclo::rxsys::RxSys>(n.cclo.rxsys);
        let dmp = self.sim.component::<accl_cclo::dmp::Dmp>(n.cclo.dmp);
        let driver = self.sim.component::<HostDriver>(n.driver);
        NodeStats {
            collectives_completed: uc.calls_completed(),
            driver_calls_completed: driver.calls_completed(),
            tx_jobs: tx.jobs_completed(),
            rx_messages: rx.messages_parsed(),
            dmp_instructions: dmp.instrs_completed(),
            rx_buffers_free: rbm.free_buffers(),
            rx_pool_exhaustions: rbm.exhaustion_events,
            collectives_aborted: uc.calls_aborted(),
            driver_calls_failed: driver.calls_failed(),
            engine_busy_rejections: uc.calls_rejected(),
            driver_busy_retries: driver.busy_retries(),
            driver_calls_shed: driver.calls_shed(),
            rx_buffers_shrunk: rbm.shrunk(),
        }
    }

    /// Peer nodes whose transport session from `node` has entered an
    /// error state (TCP retransmission-limit abort, RDMA queue-pair
    /// error) — the driver-visible fail-stop failure detector. Session
    /// `j` carries traffic to node `j`, so the returned values are peer
    /// node indices (= world ranks), sorted ascending. UDP is
    /// connectionless and never diagnoses peers.
    pub fn failed_peers(&self, node: usize) -> Vec<u32> {
        let poe = self.nodes[node].poe;
        let mut peers: Vec<u32> = match self.cfg.transport {
            Transport::Udp => Vec::new(),
            Transport::Tcp => self
                .sim
                .component::<TcpPoe>(poe)
                .failed_sessions()
                .into_iter()
                .map(|(s, _)| s.0)
                .collect(),
            Transport::Rdma => {
                let mut qps: Vec<u32> = self
                    .sim
                    .component::<RdmaPoe>(poe)
                    .failed_qps()
                    .into_iter()
                    .map(|(s, _)| s.0)
                    .collect();
                // A peer is only failed if the standby path (when armed)
                // gave up on it too; a QP error alone is the degradation
                // signal, not a fail-stop verdict.
                if let Some(fb) = self.nodes[node].fallback_poe {
                    let tcp: Vec<u32> = self
                        .sim
                        .component::<TcpPoe>(fb)
                        .failed_sessions()
                        .into_iter()
                        .map(|(s, _)| s.0)
                        .collect();
                    qps.retain(|p| tcp.contains(p));
                }
                qps
            }
        };
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// Frames (or datagrams) node `i`'s engines discarded at RX for a bad
    /// frame check sequence — the observable footprint of in-flight
    /// corruption that the reliable transports then repaired.
    pub fn corrupted_drops(&self, i: usize) -> u64 {
        let poe = self.nodes[i].poe;
        let primary = match self.cfg.transport {
            Transport::Udp => self.sim.component::<UdpPoe>(poe).io(),
            Transport::Tcp => self.sim.component::<TcpPoe>(poe).io(),
            Transport::Rdma => self.sim.component::<RdmaPoe>(poe).io(),
        };
        let standby = self.nodes[i]
            .fallback_poe
            .map_or(0, |fb| self.sim.component::<TcpPoe>(fb).io().fcs_dropped());
        primary.fcs_dropped() + standby
    }

    /// Sets every node driver's retry policy for timed-out eager
    /// collectives.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        for i in 0..self.nodes.len() {
            let driver = self.nodes[i].driver;
            self.sim
                .component_mut::<HostDriver>(driver)
                .set_retry_policy(policy);
        }
    }

    /// A communicator installed on this cluster, by id (0 = world).
    pub fn communicator(&self, id: u32) -> Option<&Communicator> {
        self.comms.get(&id)
    }

    /// Defines a sub-communicator: `members[r]` is the node serving rank
    /// `r` of communicator `id`. Every member engine's configuration
    /// memory learns the group (the paper's communicator setup, §4.4.1);
    /// POE sessions are reused — session `j` already reaches node `j`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate members or an id of 0 (the world communicator
    /// is created at build time).
    pub fn add_communicator(&mut self, id: u32, members: &[usize]) {
        self.install_communicator(&Communicator::new(id, members.to_vec()));
    }

    /// Installs a [`Communicator`] description on every member node —
    /// the second half of the ULFM recovery workflow: after
    /// [`Communicator::shrink`] excludes failed nodes, installing the
    /// survivor group lets collectives be reissued on it.
    ///
    /// # Panics
    ///
    /// Panics on an id of 0 (the world communicator is created at build
    /// time) or an out-of-range member node.
    pub fn install_communicator(&mut self, comm: &Communicator) {
        assert_ne!(comm.id(), 0, "communicator 0 is the built-in world");
        let members = comm.members();
        let peers: Vec<(accl_net::NodeAddr, SessionId)> = members
            .iter()
            .map(|&m| (self.net.addr(m), SessionId(m as u32)))
            .collect();
        for (rank, &node) in members.iter().enumerate() {
            self.nodes[node].cclo.set_communicator(
                &mut self.sim,
                comm.id(),
                CommunicatorCfg {
                    rank: rank as u32,
                    peers: peers.clone(),
                },
            );
            let driver = self.nodes[node].driver;
            self.sim
                .component_mut::<HostDriver>(driver)
                .set_comm_rank(comm.id(), rank as u32);
        }
        self.comms.insert(comm.id(), comm.clone());
    }

    /// Tunes every engine's algorithm-selection thresholds at runtime.
    pub fn set_algo_config(&mut self, algo: accl_cclo::AlgoConfig) {
        for i in 0..self.nodes.len() {
            let engine_uc = self.nodes[i].cclo.uc;
            self.sim
                .component_mut::<accl_cclo::uc::Uc>(engine_uc)
                .set_algo_config(algo);
        }
    }

    /// Loads firmware on every engine (user-defined collectives, §4.4.4).
    pub fn load_firmware(
        &mut self,
        op: accl_cclo::CollOp,
        program: std::sync::Arc<dyn accl_cclo::CollectiveProgram>,
    ) {
        for i in 0..self.nodes.len() {
            let e = &self.nodes[i].cclo;
            let uc = e.uc;
            self.sim
                .component_mut::<accl_cclo::uc::Uc>(uc)
                .load_firmware(op, program.clone());
        }
    }
}
