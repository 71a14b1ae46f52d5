//! Cluster topology construction.
//!
//! The evaluation cluster in the paper is a set of CPU+FPGA nodes attached
//! to a packet switch: each FPGA has its own 100 Gb/s MAC and each CPU its
//! own 100 Gb/s commodity NIC, all ports on the same fabric. [`Network`]
//! builds the switch and one [`NetPort`] per attached device and hands out
//! the endpoints devices use to transmit.

use accl_sim::prelude::*;
use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;
use crate::frame::NodeAddr;
use crate::switch::{NetPort, OverloadPolicy, PortCounters, RxSelector, Switch};

/// Physical-layer parameters of the fabric.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetConfig {
    /// Link rate of every port, in Gb/s.
    pub link_gbps: f64,
    /// Switch forwarding latency, in nanoseconds.
    pub switch_latency_ns: u64,
    /// One-way propagation delay of each link, in nanoseconds.
    pub propagation_ns: u64,
    /// Per-port switch egress buffer capacity in frames. `None` (the
    /// default) keeps the historical unbounded buffers; finite values turn
    /// on overload handling per [`NetConfig::overload_policy`].
    #[serde(default)]
    pub switch_buffer_frames: Option<u32>,
    /// What a full egress buffer does to arriving frames: PFC-style pause
    /// of the source NIC, or lossy tail-drop. Irrelevant while
    /// [`NetConfig::switch_buffer_frames`] is `None`.
    #[serde(default)]
    pub overload_policy: OverloadPolicy,
}

impl Default for NetConfig {
    fn default() -> Self {
        // 100 Gb/s ports on a Nexus-class switch, short data-center cables.
        NetConfig {
            link_gbps: 100.0,
            switch_latency_ns: 500,
            propagation_ns: 150,
            switch_buffer_frames: None,
            overload_policy: OverloadPolicy::default(),
        }
    }
}

impl NetConfig {
    /// Switch forwarding latency as a duration.
    pub fn switch_latency(&self) -> Dur {
        Dur::from_ns(self.switch_latency_ns)
    }

    /// Link propagation delay as a duration.
    pub fn propagation(&self) -> Dur {
        Dur::from_ns(self.propagation_ns)
    }
}

/// A built fabric: one switch plus one [`NetPort`] per device.
pub struct Network {
    switch: ComponentId,
    ports: Vec<ComponentId>,
    cfg: NetConfig,
}

impl Network {
    /// Builds a fabric with `n_nodes` ports into `sim`.
    pub fn build(sim: &mut Simulator, cfg: NetConfig, n_nodes: usize) -> Network {
        let switch_id = sim.reserve("net.switch");
        let mut switch = Switch::new(
            n_nodes,
            cfg.link_gbps,
            cfg.switch_latency(),
            cfg.propagation(),
        );
        // Per-component entropy stream: the fault policies' draw order
        // depends only on the traffic this switch sees.
        switch.set_rng(sim.fork_rng("net.switch"));
        switch.set_buffer_limit(cfg.switch_buffer_frames, cfg.overload_policy);
        sim.install(switch_id, switch);
        let ports: Vec<ComponentId> = (0..n_nodes)
            .map(|i| sim.add(format!("n{i}.net.port"), Self::port(cfg, switch_id, i)))
            .collect();
        // Pause frames flow switch -> source NIC regardless of whether the
        // buffer limit is set now: `set_buffer_limit` can arrive later
        // (e.g. a chaos buffer-shrink fault) and the channel must exist.
        for (i, &port) in ports.iter().enumerate() {
            sim.component_mut::<Switch>(switch_id)
                .attach_pause(NodeAddr(i as u32), Endpoint::of(port));
        }
        Network {
            switch: switch_id,
            ports,
            cfg,
        }
    }

    /// Node `i`'s NIC, uplinked to `switch`.
    fn port(cfg: NetConfig, switch: ComponentId, i: usize) -> NetPort {
        NetPort::new(
            NodeAddr(i as u32),
            Endpoint::of(switch),
            cfg.link_gbps,
            cfg.propagation(),
        )
    }

    /// Reboots node `i`'s suspended NIC: a fresh port takes its place
    /// with the next incarnation number, so every frame it sends carries
    /// an epoch the peers' restart fences admit.
    pub fn reboot_port(&self, sim: &mut Simulator, i: usize) {
        let incarnation = sim.component::<NetPort>(self.ports[i]).incarnation() + 1;
        let port = Self::port(self.cfg, self.switch, i).with_incarnation(incarnation);
        sim.install(self.ports[i], port);
    }

    /// Number of ports on the fabric.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the fabric has no ports.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// The fabric address of node `i`.
    pub fn addr(&self, i: usize) -> NodeAddr {
        assert!(i < self.ports.len(), "node {i} out of range");
        NodeAddr(i as u32)
    }

    /// The endpoint node `i`'s device sends [`crate::frame::Frame`]s to.
    pub fn tx(&self, i: usize) -> Endpoint {
        Endpoint::of(self.ports[i])
    }

    /// Attaches the receive handler for node `i`.
    pub fn attach_rx(&self, sim: &mut Simulator, i: usize, rx: Endpoint) {
        sim.component_mut::<Switch>(self.switch)
            .attach_rx(self.addr(i), rx);
    }

    /// Attaches a second receive handler for node `i`: frames whose body
    /// `to_alt` accepts go to `alt`, the rest to the [`Network::attach_rx`]
    /// handler (a dual-stack node's protocol demux).
    pub fn attach_rx_alt(&self, sim: &mut Simulator, i: usize, alt: Endpoint, to_alt: RxSelector) {
        sim.component_mut::<Switch>(self.switch)
            .attach_rx_alt(self.addr(i), alt, to_alt);
    }

    /// Installs a fault-injection policy on the switch.
    pub fn set_fault_plan(&self, sim: &mut Simulator, plan: FaultPlan) {
        sim.component_mut::<Switch>(self.switch)
            .set_fault_plan(plan);
    }

    /// The switch's fault-injection policy.
    pub fn fault_plan<'a>(&self, sim: &'a Simulator) -> &'a FaultPlan {
        sim.component::<Switch>(self.switch).fault_plan()
    }

    /// Rebuilds the switch's plan with `amend`, composing with whatever
    /// faults are already installed.
    fn amend_plan(&self, sim: &mut Simulator, amend: impl FnOnce(FaultPlan) -> FaultPlan) {
        let plan = sim.component_mut::<Switch>(self.switch).fault_plan_mut();
        *plan = amend(std::mem::take(plan));
    }

    /// Schedules a fail-stop crash of node `i` at simulated time `at`: it
    /// opens a down window in the fault plan, and while the window is open
    /// the switch blackholes all frames to or from the node.
    pub fn crash_node(&self, sim: &mut Simulator, i: usize, at: Time) {
        let addr = self.addr(i);
        self.amend_plan(sim, |plan| plan.with_node_crash(addr, at));
    }

    /// Schedules a restart of node `i` at simulated time `at`: the node's
    /// open down window (see [`Network::crash_node`]) closes at `at` and
    /// the fabric carries its traffic again. Fencing the old incarnation's
    /// frames at the peers' protocol engines, and rebooting the node, are
    /// the cluster's job.
    pub fn restart_node(&self, sim: &mut Simulator, i: usize, at: Time) {
        let addr = self.addr(i);
        self.amend_plan(sim, |plan| plan.with_node_restart(addr, at));
    }

    /// Schedules a `[from, until)` fabric partition along `mask`, composing
    /// with the installed fault plan.
    pub fn partition(&self, sim: &mut Simulator, mask: u64, from: Time, until: Time) {
        self.amend_plan(sim, |plan| plan.with_partition(mask, from, until));
    }

    /// Schedules a `[from, until)` outage of node `i`'s link, composing
    /// with the installed fault plan.
    pub fn link_down(&self, sim: &mut Simulator, i: usize, from: Time, until: Time) {
        let addr = self.addr(i);
        self.amend_plan(sim, |plan| plan.with_link_down(addr, from, until));
    }

    /// Egress counters of switch port `i`.
    pub fn port_counters(&self, sim: &Simulator, i: usize) -> PortCounters {
        sim.component::<Switch>(self.switch)
            .port_counters(self.addr(i))
    }

    /// Frames dropped by fault injection so far.
    pub fn frames_dropped(&self, sim: &Simulator) -> u64 {
        sim.component::<Switch>(self.switch).frames_dropped()
    }

    /// The physical-layer configuration this fabric was built with.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }

    /// Component id of the switch (for advanced introspection).
    pub fn switch_id(&self) -> ComponentId {
        self.switch
    }

    /// Component id of node `i`'s [`NetPort`] (for pause-storm fault
    /// injection and introspection).
    pub fn port_id(&self, i: usize) -> ComponentId {
        self.ports[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    #[test]
    fn build_and_route() {
        let mut sim = Simulator::new(0);
        let net = Network::build(&mut sim, NetConfig::default(), 4);
        assert_eq!(net.len(), 4);
        let sinks: Vec<ComponentId> = (0..4)
            .map(|i| {
                let s = sim.add(format!("sink{i}"), Mailbox::<Frame>::new());
                net.attach_rx(&mut sim, i, Endpoint::of(s));
                s
            })
            .collect();
        sim.post(
            net.tx(0),
            Time::ZERO,
            Frame::new(net.addr(0), net.addr(3), 64, 9u8),
        );
        sim.run();
        assert_eq!(sim.component::<Mailbox<Frame>>(sinks[3]).len(), 1);
        assert_eq!(sim.component::<Mailbox<Frame>>(sinks[1]).len(), 0);
        assert_eq!(net.port_counters(&sim, 3).frames_out, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn addr_out_of_range_panics() {
        let mut sim = Simulator::new(0);
        let net = Network::build(&mut sim, NetConfig::default(), 2);
        net.addr(2);
    }
}
