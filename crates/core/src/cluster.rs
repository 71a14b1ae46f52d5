//! Cluster assembly: N nodes of CPU + FPGA on a switched fabric.
//!
//! `AcclCluster` is the top of the public API: it builds the network, and
//! per node a memory bus, protocol offload engine, CCLO engine, XDMA
//! staging engine (partitioned platforms) and host CCL driver, fully wired.
//! Applications then allocate buffers, write initial data, and run host or
//! kernel programs against the cluster.

use std::collections::BTreeMap;
use std::sync::Arc;

use accl_cclo::config::CommunicatorCfg;
use accl_cclo::engine::{CcloEngine, CcloEngineSpec};
use accl_cclo::uc::{TransportFailover, Uc};
use accl_cclo::{AlgoConfig, CollOp, CollectiveProgram};
use accl_mem::{MemAddr, MemBusConfig, MemoryBus, XdmaEngine};
use accl_net::{NetPort, Network};
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

impl NodeHandles {
    /// Reserves node `i`'s component ids.
    fn reserve(sim: &mut Simulator, cfg: &ClusterConfig, i: usize) -> NodeHandles {
        // Written in registration order: the ids, and every digest that
        // hashes them, depend on it.
        NodeHandles {
            bus: sim.reserve(format!("n{i}.bus")),
            poe: sim.reserve(format!("n{i}.poe")),
            cclo: CcloEngine::reserve(sim, &format!("n{i}.cclo")),
            fallback_poe: (cfg.transport == Transport::Rdma && cfg.tcp_fallback)
                .then(|| sim.reserve(format!("n{i}.poe.tcp"))),
            xdma: (cfg.platform != Platform::Coyote).then(|| sim.reserve(format!("n{i}.xdma"))),
            driver: sim.reserve(format!("n{i}.driver")),
        }
    }

    /// Builds node `i`'s components per `cfg` and installs them under
    /// these ids, fully wired: at cluster assembly, and again as fresh
    /// instances when the node reboots.
    fn install(&self, sim: &mut Simulator, cfg: &ClusterConfig, net: &Network, i: usize) {
        let unified = cfg.platform == Platform::Coyote;
        let bus_cfg = if unified {
            MemBusConfig::coyote()
        } else {
            MemBusConfig::default()
        };
        sim.install(self.bus, MemoryBus::new(bus_cfg));
        if unified {
            // The scratch region is device-resident and eagerly mapped.
            sim.component_mut::<MemoryBus>(self.bus).map_range(
                SCRATCH_BASE,
                SCRATCH_BYTES,
                accl_mem::MemTarget::Device,
            );
        }
        let scratch_mem = if unified {
            MemAddr::Virt(SCRATCH_BASE)
        } else {
            MemAddr::Phys(accl_mem::MemTarget::Device, SCRATCH_BASE)
        };
        let cclo = &self.cclo;
        cclo.install(
            sim,
            &format!("n{i}.cclo"),
            &CcloEngineSpec {
                cfg: cfg.cclo,
                mem_bus: self.bus,
                poe: self.poe,
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
        let (poe, tx, up) = (self.poe, net.tx(i), cclo.poe_upward());
        match cfg.transport {
            Transport::Udp => sim.install(
                poe,
                UdpPoe::new(UdpConfig::default(), tx, up, make_sessions()),
            ),
            Transport::Tcp => sim.install(poe, TcpPoe::new(cfg.tcp, tx, up, make_sessions())),
            Transport::Rdma => sim.install(
                poe,
                RdmaPoe::new(cfg.rdma, tx, up, make_sessions()).with_mem_bus(self.bus),
            ),
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
        if let Some(fb) = self.fallback_poe {
            let mut standby = TcpPoe::new(cfg.tcp, net.tx(i), cclo.poe_upward(), make_sessions());
            if let Some(window) = cfg.tx_credit_window {
                standby
                    .io_mut()
                    .set_tx_credit_window(Some(window), format!("net.txcredit(n{i}.tcp)"));
            }
            sim.install(fb, standby);
            cclo.set_tx_fallback(
                sim,
                Endpoint::new(fb, poe_ports::TX_CMD),
                Endpoint::new(fb, poe_ports::TX_DATA),
                TransportFailover {
                    rendezvous_capable: false,
                    reliable: true,
                },
                FAILOVER_THRESHOLD,
            );
        }
        // The switch delivers straight to the engine, each of which
        // fences frames from a restarted peer's previous incarnation.
        net.attach_rx(sim, i, Endpoint::new(poe, poe_ports::NET_RX));
        if let Some(fb) = self.fallback_poe {
            net.attach_rx_alt(sim, i, Endpoint::new(fb, poe_ports::NET_RX), |b| {
                !b.is::<RdmaPdu>()
            });
        }
        cclo.set_communicator(
            sim,
            0,
            CommunicatorCfg {
                rank: i as u32,
                peers: (0..cfg.nodes)
                    .map(|j| (net.addr(j), SessionId(j as u32)))
                    .collect(),
            },
        );
        if let Some(xdma) = self.xdma {
            sim.install(xdma, XdmaEngine::new(self.bus, cfg.xdma_setup_us()));
        }
        let mut driver = HostDriver::new(i as u32, cclo.cmd(), self.xdma, cfg.invocation_latency());
        if let Some(policy) = cfg.busy_retry {
            // Jitter comes from a per-driver forked stream, so busy
            // backoff schedules replay bit-for-bit per (seed, node)
            // and never perturb any other component's entropy.
            driver.set_busy_retry(policy, Some(sim.fork_rng(&format!("n{i}.driver.busy"))));
        }
        if cfg.max_queued_calls.is_some() {
            driver.set_max_queued_calls(cfg.max_queued_calls);
        }
        sim.install(self.driver, driver);
    }
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
    comms: BTreeMap<u32, Communicator>,
    /// Membership transitions observed by the harness, in schedule order.
    membership_log: Vec<(Time, MembershipEvent)>,
    /// Settings applied to every node, replayed on a node that reboots.
    settings: Vec<Box<Setting>>,
}

/// A setting the cluster applies to one node.
type Setting = dyn Fn(&mut Simulator, &NodeHandles) + Send;

impl AcclCluster {
    /// Builds a cluster per `cfg`.
    pub fn build(cfg: ClusterConfig) -> AcclCluster {
        cfg.validate();
        let mut sim = Simulator::new(cfg.seed);
        let net = Network::build(&mut sim, cfg.net, cfg.nodes);
        let nodes: Vec<NodeHandles> = (0..cfg.nodes)
            .map(|i| {
                let node = NodeHandles::reserve(&mut sim, &cfg, i);
                node.install(&mut sim, &cfg, &net, i);
                node
            })
            .collect();
        let mut comms = BTreeMap::new();
        comms.insert(0, Communicator::world(cfg.nodes));
        AcclCluster {
            sim,
            spaces: (0..cfg.nodes).map(|_| NodeSpaces::new()).collect(),
            cfg,
            net,
            nodes,
            comms,
            membership_log: Vec::new(),
            settings: Vec::new(),
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

    /// Schedules a fail-stop crash of node `i` at simulated time `at`: it
    /// opens a down window in which the fabric blackholes every frame to or
    /// from the node, and the node runs nothing until
    /// [`AcclCluster::reinstate_node`] reboots it. A crash while the node is
    /// down changes nothing. Composes with any faults already scheduled.
    pub fn crash_node(&mut self, i: usize, at: Time) {
        self.net.crash_node(&mut self.sim, i, at);
        if self.down_windows(i).iter().any(|&(from, _)| from == at) {
            self.stop_node(i, at);
        }
    }

    /// Schedules a `[from, until)` outage of node `i`'s link, composing
    /// with any faults already scheduled.
    pub fn link_down(&mut self, i: usize, from: Time, until: Time) {
        self.net.link_down(&mut self.sim, i, from, until);
    }

    /// Schedules a *restart* of crashed node `i` at `at`: the fabric
    /// closes its open down window and every survivor's POE fences the
    /// old incarnation's in-flight frames. The node stays down until
    /// [`AcclCluster::reinstate_node`] reboots it. Like the fabric,
    /// ignores a restart while the node is up, or at its crash instant.
    pub fn restart_node(&mut self, i: usize, at: Time) {
        self.net.restart_node(&mut self.sim, i, at);
        if self.down_windows(i).iter().any(|&(_, until)| until == at) {
            self.fence_node(i, at);
        }
    }

    /// Node `i`'s `[crash, restart)` down windows, in time order
    /// (`Time::MAX` ends a crash with no restart).
    fn down_windows(&self, i: usize) -> &[(Time, Time)] {
        self.net
            .fault_plan(&self.sim)
            .node_windows(self.net.addr(i))
    }

    /// Schedules a `[from, until)` fabric partition along `mask` (bit
    /// `n & 63` selects node `n`'s side): frames crossing the cut are
    /// dropped. Composes with any faults already scheduled.
    pub fn partition(&mut self, mask: u64, from: Time, until: Time) {
        self.net.partition(&mut self.sim, mask, from, until);
        self.record_partition(accl_net::Partition { mask, from, until });
    }

    /// Every component `build` made for node `i`, and its NIC.
    fn domain(&self, i: usize) -> Vec<ComponentId> {
        let (n, c) = (&self.nodes[i], &self.nodes[i].cclo);
        let mut domain = vec![n.bus, n.poe, c.uc, c.dmp, c.rbm, c.txsys, c.rxsys, n.driver];
        domain.extend(n.fallback_poe.into_iter().chain(n.xdma));
        domain.push(self.net.port_id(i));
        domain
    }

    /// Suspends node `i`'s whole domain at `at`, the start of a down
    /// window. The procs of its runs join when they are spawned.
    fn stop_node(&mut self, i: usize, at: Time) {
        self.sim.suspend_at(at.max(self.sim.now()), self.domain(i));
    }

    /// Adds `proc` as node `i`'s program for this run and starts it on
    /// `start` now. It stops with the node: at once if the node is down,
    /// else at the next down window's start.
    fn spawn(
        &mut self,
        i: usize,
        name: String,
        proc: impl Component,
        start: PortId,
    ) -> ComponentId {
        let id = self.sim.add(name, proc);
        let now = self.sim.now();
        let down = self.sim.suspended_since(self.nodes[i].driver).map(|_| now);
        if let Some(at) =
            down.or_else(|| self.down_windows(i).iter().map(|w| w.0).find(|&t| t >= now))
        {
            self.sim.suspend_at(at, vec![id]);
        }
        self.sim.post(Endpoint::new(id, start), now, ());
        id
    }

    /// Whether a run drained cleanly.
    fn drained(outcome: RunOutcome) -> Result<(), String> {
        match outcome {
            RunOutcome::Drained => Ok(()),
            RunOutcome::Stalled(report) => Err(format!("simulation stalled: {report}")),
            other => Err(format!("simulation ended abnormally: {other:?}")),
        }
    }

    /// Node `i` restarts at `at`, the end of a down window: every
    /// survivor's POEs fence frames from its current incarnation.
    fn fence_node(&mut self, i: usize, at: Time) {
        for j in (0..self.nodes.len()).filter(|&j| j != i) {
            self.post_fence(j, i, at);
        }
        self.membership_log
            .push((at, MembershipEvent::Restarted { node: i }));
    }

    /// Fences `peer`'s current incarnation at node `at_node`'s POEs at
    /// `at`: they drop its frames from then on, and its partial messages.
    fn post_fence(&mut self, at_node: usize, peer: usize, at: Time) {
        let nic = self.sim.component::<NetPort>(self.net.port_id(peer));
        let fence = accl_poe::EpochFence {
            src: self.net.addr(peer),
            min_epoch: nic.incarnation() + 1,
        };
        let node = &self.nodes[at_node];
        for poe in std::iter::once(node.poe).chain(node.fallback_poe) {
            self.sim
                .post(Endpoint::new(poe, poe_ports::NET_RX), at, fence);
        }
    }

    fn record_partition(&mut self, p: accl_net::Partition) {
        self.membership_log
            .push((p.from, MembershipEvent::Partitioned { mask: p.mask }));
        self.membership_log
            .push((p.until, MembershipEvent::Healed { mask: p.mask }));
    }

    /// Membership transitions observed so far, in schedule order:
    /// restarts, rejoins, partition cuts/heals, and post-run failure
    /// confirmations.
    pub fn membership_log(&self) -> &[(Time, MembershipEvent)] {
        &self.membership_log
    }

    /// Readmits a node at the transport layer, always by rebooting it:
    /// `build`'s per-node code installs fresh components under the same
    /// ids, its NIC takes the next incarnation, and the cluster's
    /// settings are re-applied. A node still up (a partition's minority
    /// side) first leaves as a crashed node does: it stops now, and its
    /// peers fence its incarnation. Every peer's session (or queue pair)
    /// to the node is reinstated, standby path included, and the peers'
    /// adaptive detectors forget the node's cadence. Call between runs,
    /// after the restart instant; then readmit the node at the
    /// communicator layer with
    /// [`Communicator::expand`](crate::comm::Communicator::expand) +
    /// [`AcclCluster::install_communicator`].
    pub fn reinstate_node(&mut self, node: usize) {
        assert!(node < self.nodes.len(), "node {node} out of range");
        let now = self.sim.now();
        if self.sim.suspended_since(self.nodes[node].driver).is_none() {
            self.sim.suspend(&self.domain(node));
            self.fence_node(node, now);
        }
        self.net.reboot_port(&mut self.sim, node);
        self.nodes[node].install(&mut self.sim, &self.cfg, &self.net, node);
        for setting in &self.settings {
            setting(&mut self.sim, &self.nodes[node]);
        }
        let session = SessionId(node as u32);
        for j in (0..self.nodes.len()).filter(|&j| j != node) {
            let (poe, sim) = (self.nodes[j].poe, &mut self.sim);
            match self.cfg.transport {
                Transport::Udp => UdpPoe::reinstate_session(sim, poe, session),
                Transport::Tcp => TcpPoe::reinstate_session(sim, poe, session),
                Transport::Rdma => RdmaPoe::reinstate_qp(sim, poe, session),
            }
            if let Some(fb) = self.nodes[j].fallback_poe {
                TcpPoe::reinstate_session(sim, fb, session);
            }
            sim.component_mut::<Uc>(self.nodes[j].cclo.uc)
                .reset_peer_history(node as u32);
        }
        self.membership_log
            .push((now, MembershipEvent::Rejoined { node }));
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
        let nodes = self.len();
        for &(node, at, credits) in plan.credit_leaks.iter().filter(|f| f.0.index() < nodes) {
            let credit = Endpoint::new(self.nodes[node.index()].poe, poe_ports::CREDIT);
            self.sim
                .post(credit, at, accl_poe::iface::TxCreditLeak { credits });
        }
        for &(node, at, hold) in plan.pause_storms.iter().filter(|f| f.0.index() < nodes) {
            let nic = Endpoint::of(self.net.port_id(node.index()));
            self.sim
                .post(nic, at, accl_net::PauseFrame { until: at + hold });
        }
        for &(node, at, bufs) in plan.buf_shrinks.iter().filter(|f| f.0.index() < nodes) {
            let rbm = self.nodes[node.index()].cclo.rbm;
            let shrink = Endpoint::new(rbm, accl_cclo::rbm::ports::SHRINK);
            self.sim
                .post(shrink, at, accl_cclo::rbm::RbmShrink { bufs });
        }
        // Each down window stops the node at its crash, as `crash_node`
        // does, and fences its old epoch at the survivors at its restart.
        for (&addr, sched) in plan.node_down.iter().filter(|(a, _)| a.index() < nodes) {
            for &(crash, restart) in sched.windows() {
                self.stop_node(addr.index(), crash);
                if restart < Time::MAX {
                    self.fence_node(addr.index(), restart);
                }
            }
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
    /// crash observes `PeerFailed` rather than a bare `Timeout`. Each
    /// node then fences the peers it knows failed, as a restart would.
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
                let name = format!("n{i}.hostproc.{}", start.as_ps());
                self.spawn(i, name, HostProc::new(driver, ops), host_ports::START)
            })
            .collect();
        let outcome = self.sim.run();
        // Failure-detector readout. A node trusts its own POE's dead-session
        // diagnosis first. Nodes without one (e.g. a ring rank that never
        // sends toward the dead peer) accept accusations gossiped from
        // nodes that are not themselves suspects: an accused node's own
        // accusations must not frame the survivors.
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
        // Each node drops what it holds of the peers it knows failed: its
        // POEs fence their incarnations, as at a restart, so a message a
        // dead peer cut off mid-stream is not left as parked work.
        let confirmed_at = self.sim.now();
        let mut fenced = false;
        for (node, peers) in own.iter().enumerate() {
            let learned: std::collections::BTreeSet<u32> =
                peers.iter().chain(&gossiped).copied().collect();
            for peer in learned.into_iter().filter(|&p| p != node as u32) {
                self.post_fence(node, peer as usize, confirmed_at);
                fenced = true;
            }
        }
        Self::drained(match outcome {
            RunOutcome::Drained | RunOutcome::Stalled(_) if fenced => self.sim.run(),
            other => other,
        })?;
        let mut results: Vec<Vec<OpRecord>> = Vec::with_capacity(procs.len());
        for &id in &procs {
            let proc = self.sim.component::<HostProc>(id);
            results.push(match self.sim.suspended_since(id) {
                Some(crash) => proc.crashed_records(crash),
                None if proc.finished_at().is_none() => {
                    return Err("a host program did not finish (deadlock?)".to_string())
                }
                None => proc.records().to_vec(),
            });
        }
        for (node, records) in results.iter_mut().enumerate() {
            let verdict = own[node]
                .first()
                .copied()
                .or_else(|| gossiped.iter().copied().find(|&p| p != node as u32));
            if let Some(peer) = verdict {
                recolor(records, timed_out, CclError::PeerFailed(peer));
            }
        }
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
                if self.corrupted_drops(node) > 0 {
                    recolor(records, timed_out, CclError::DataCorrupted);
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
            for p in self.net.fault_plan(&self.sim).partitions.clone() {
                if p.until <= start || p.from >= end {
                    continue;
                }
                for (node, records) in results.iter_mut().enumerate() {
                    if crate::membership::resolve_partition(&world, node, p.mask)
                        == Err(CclError::Partitioned)
                    {
                        let failed = |e| timed_out(e) || matches!(e, CclError::PeerFailed(_));
                        recolor(records, failed, CclError::Partitioned);
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
    ///
    /// # Panics
    ///
    /// Panics if the simulation stalls or a kernel program never
    /// finishes; [`AcclCluster::try_run_kernel_programs`] reports both.
    pub fn run_kernel_programs(&mut self, programs: Vec<Vec<KernelOp>>) -> Vec<ComponentId> {
        match self.try_run_kernel_programs(programs) {
            Ok(kernels) => kernels,
            Err(why) => panic!("{why}"),
        }
    }

    /// Non-panicking [`AcclCluster::run_kernel_programs`]: a stalled
    /// simulation (the report names each parked component, e.g. a uC
    /// waiting on a `Recv` no peer sends) or an unfinished kernel program
    /// is returned as `Err`, leaving the cluster inspectable.
    pub fn try_run_kernel_programs(
        &mut self,
        programs: Vec<Vec<KernelOp>>,
    ) -> Result<Vec<ComponentId>, String> {
        assert_eq!(programs.len(), self.nodes.len(), "one program per node");
        let start = self.sim.now();
        let kernels: Vec<ComponentId> = programs
            .into_iter()
            .enumerate()
            .map(|(i, ops)| {
                let cclo = &self.nodes[i].cclo;
                let kernel =
                    KernelProc::new(cclo.cmd(), cclo.stream_in(), self.cfg.cclo.clock_mhz, ops);
                let name = format!("n{i}.kernel.{}", start.as_ps());
                let id = self.spawn(i, name, kernel, kernel_ports::START);
                self.nodes[i]
                    .cclo
                    .set_kernel_out(&mut self.sim, Endpoint::new(id, kernel_ports::STREAM_RX));
                id
            })
            .collect();
        Self::drained(self.sim.run())?;
        for &id in &kernels {
            if self.sim.component::<KernelProc>(id).finished_at().is_none()
                && self.sim.suspended_since(id).is_none()
            {
                return Err("a kernel program did not finish (deadlock?)".to_string());
            }
        }
        Ok(kernels)
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

    /// Enables fixed-width sim-time metric windows on the cluster's
    /// simulator: every counter/gauge/histogram write made by a component
    /// is additionally routed into the window containing its simulated
    /// time, feeding deterministic p50/p99/p999-over-time series (the
    /// serving-scenario SLO report). Call before the first run. See
    /// [`accl_sim::stats::Stats::enable_windows`].
    pub fn enable_metric_windows(&mut self, width: Dur) {
        self.sim.enable_metric_windows(width);
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

    /// Applies `setting` to every node, and again to each node that
    /// reboots.
    fn apply(&mut self, setting: impl Fn(&mut Simulator, &NodeHandles) + Send + 'static) {
        for node in &self.nodes {
            setting(&mut self.sim, node);
        }
        self.settings.push(Box::new(setting));
    }

    /// Sets every node driver's retry policy for timed-out eager
    /// collectives.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.apply(move |sim, node| {
            sim.component_mut::<HostDriver>(node.driver)
                .set_retry_policy(policy);
        });
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
    pub fn set_algo_config(&mut self, algo: AlgoConfig) {
        self.apply(move |sim, node| {
            sim.component_mut::<Uc>(node.cclo.uc).set_algo_config(algo);
        });
    }

    /// Loads firmware on every engine (user-defined collectives, §4.4.4).
    pub fn load_firmware(&mut self, op: CollOp, program: Arc<dyn CollectiveProgram>) {
        self.apply(move |sim, node| {
            sim.component_mut::<Uc>(node.cclo.uc)
                .load_firmware(op, program.clone());
        });
    }
}

/// Whether `e` says a call made no progress, without naming a cause.
fn timed_out(e: CclError) -> bool {
    matches!(e, CclError::Timeout | CclError::Aborted)
}

/// Recolors the calls among `records` whose error `from` accepts as `to`.
fn recolor(records: &mut [OpRecord], from: impl Fn(CclError) -> bool, to: CclError) {
    for done in records.iter_mut().filter_map(|r| r.breakdown.as_mut()) {
        if done.result.is_err_and(&from) {
            done.result = Err(to);
        }
    }
}
