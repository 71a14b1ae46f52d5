//! Two-tier (leaf–spine) fabric topology.
//!
//! The evaluation cluster attaches nodes to Cisco Nexus switches (plural);
//! when a communicator spans leaves, cross-leaf traffic pays two extra
//! hops through a spine. This module composes the single-switch model into
//! a leaf–spine fabric: each node hangs off a leaf switch, each leaf has an
//! uplink to one spine, and forwarding picks the local port or the uplink
//! by destination.

use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue};

use crate::frame::{Frame, NodeAddr};
use crate::switch::NetPort;
use crate::topology::NetConfig;

/// A leaf or spine switch with leaf-aware forwarding.
///
/// Unlike [`crate::switch::Switch`], ports here are heterogeneous: node
/// ports deliver to attached receivers, the uplink forwards to the other
/// tier. Forwarding is by destination address through a static route table.
struct TierSwitch {
    forward_latency: Dur,
    propagation: Dur,
    /// For each destination node: `Some(port_index)` if local, else uplink.
    routes: Vec<Option<usize>>,
    /// Per local port: (egress pipe, receiver endpoint).
    ports: Vec<(Pipe, Option<Endpoint>)>,
    /// Uplink: (egress pipe, peer switch endpoint). `None` for a spine
    /// that owns routes to everything.
    uplink: Option<(Pipe, Endpoint)>,
}

impl TierSwitch {
    fn new(
        n_nodes_total: usize,
        local_ports: usize,
        cfg: &NetConfig,
        uplink: Option<Endpoint>,
    ) -> Self {
        TierSwitch {
            forward_latency: cfg.switch_latency(),
            propagation: cfg.propagation(),
            routes: vec![None; n_nodes_total],
            ports: (0..local_ports)
                .map(|_| (Pipe::gbps(cfg.link_gbps), None))
                .collect(),
            uplink: uplink.map(|ep| (Pipe::gbps(cfg.link_gbps), ep)),
        }
    }
}

impl Component for TierSwitch {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        let frame = payload.downcast::<Frame>();
        let dst = frame.dst.index();
        let wire = u64::from(frame.wire_bytes());
        let ready = ctx.now() + self.forward_latency;
        let (start, end, to) = match self.routes.get(dst).copied().flatten() {
            Some(local_port) => {
                let (pipe, rx) = &mut self.ports[local_port];
                let rx =
                    rx.unwrap_or_else(|| panic!("two-tier port for {} has no receiver", frame.dst));
                let (start, end) = pipe.reserve(ready, wire);
                (start, end, rx)
            }
            None => {
                let (pipe, up) = self
                    .uplink
                    .as_mut()
                    .unwrap_or_else(|| panic!("no route to {} and no uplink", frame.dst));
                let (start, end) = pipe.reserve(ready, wire);
                (start, end, *up)
            }
        };
        ctx.stats().add("net.tier.bytes", wire);
        ctx.stats()
            .observe("net.tier.queue_wait_ps", (start - ready).as_ps());
        if ctx.spans_enabled() {
            if start > ready {
                ctx.span_interval("net.queue", frame.span, ready, start);
            }
            ctx.span_interval_attrs(
                "net.hop",
                frame.span,
                start,
                end + self.propagation,
                &[Attr {
                    key: "bytes",
                    value: AttrValue::U64(wire),
                }],
            );
        }
        ctx.send_at(to, end + self.propagation, frame);
    }

    fn state_digest(&self) -> Option<u64> {
        // The externally-meaningful switch state is its egress occupancy:
        // each pipe's next-free instant. Two runs that forwarded the same
        // frames agree on every reservation horizon regardless of
        // same-timestamp arrival order (reservations serialize to the same
        // end time either way).
        let mut h = 0u64;
        for (pipe, _) in &self.ports {
            accl_sim::digest::fnv_fold(&mut h, &pipe.next_free().as_ps().to_le_bytes());
        }
        if let Some((pipe, _)) = &self.uplink {
            accl_sim::digest::fnv_fold(&mut h, &pipe.next_free().as_ps().to_le_bytes());
        }
        Some(h)
    }
}

/// A built leaf–spine fabric.
pub struct TwoTierNetwork {
    ports: Vec<ComponentId>,
    leaf_ids: Vec<ComponentId>,
    leaf_of: Vec<usize>,
    cfg: NetConfig,
}

impl TwoTierNetwork {
    /// Builds a fabric with `leaf_sizes[l]` nodes on leaf `l`, one spine.
    ///
    /// Node indices are assigned leaf by leaf: leaf 0 gets nodes
    /// `0..leaf_sizes[0]`, and so on.
    pub fn build(sim: &mut Simulator, cfg: NetConfig, leaf_sizes: &[usize]) -> TwoTierNetwork {
        assert!(!leaf_sizes.is_empty(), "need at least one leaf");
        let total: usize = leaf_sizes.iter().sum();
        let spine_id = sim.reserve("net.spine");
        let mut leaf_ids = Vec::new();
        let mut leaf_of = Vec::new();
        for (l, &n) in leaf_sizes.iter().enumerate() {
            let id = sim.reserve(format!("net.leaf{l}"));
            leaf_ids.push(id);
            leaf_of.extend(std::iter::repeat_n(l, n));
        }
        // Spine: routes every node to the port of its leaf.
        let mut spine = TierSwitch::new(total, leaf_sizes.len(), &cfg, None);
        let mut node = 0usize;
        for (l, &n) in leaf_sizes.iter().enumerate() {
            for _ in 0..n {
                spine.routes[node] = Some(l);
                node += 1;
            }
            spine.ports[l].1 = Some(Endpoint::of(leaf_ids[l]));
        }
        sim.install(spine_id, spine);
        // Leaves: local node ports + an uplink to the spine.
        let mut ports = Vec::new();
        let mut node = 0usize;
        for (l, &n) in leaf_sizes.iter().enumerate() {
            let mut leaf = TierSwitch::new(total, n, &cfg, Some(Endpoint::of(spine_id)));
            for local in 0..n {
                leaf.routes[node] = Some(local);
                let port = sim.add(
                    format!("net.l{l}.port{local}"),
                    NetPort::new(
                        NodeAddr(node as u32),
                        Endpoint::of(leaf_ids[l]),
                        cfg.link_gbps,
                        cfg.propagation(),
                    ),
                );
                ports.push(port);
                node += 1;
            }
            sim.install(leaf_ids[l], leaf);
        }
        TwoTierNetwork {
            ports,
            leaf_ids,
            leaf_of,
            cfg,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the fabric has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Which leaf node `i` hangs off.
    pub fn leaf_of(&self, i: usize) -> usize {
        self.leaf_of[i]
    }

    /// The fabric address of node `i`.
    pub fn addr(&self, i: usize) -> NodeAddr {
        NodeAddr(i as u32)
    }

    /// The endpoint node `i`'s device transmits frames to.
    pub fn tx(&self, i: usize) -> Endpoint {
        Endpoint::of(self.ports[i])
    }

    /// Attaches the receive handler for node `i` (on its leaf's port).
    pub fn attach_rx(&self, sim: &mut Simulator, i: usize, rx: Endpoint) {
        let leaf = self.leaf_of[i];
        let local = (0..i).filter(|&j| self.leaf_of[j] == leaf).count();
        sim.component_mut::<TierSwitch>(self.leaf_ids[leaf]).ports[local].1 = Some(rx);
    }

    /// The physical-layer configuration.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // node indices address parallel sink arrays
mod tests {
    use super::*;
    use accl_sim::mailbox::Mailbox;

    fn world(leaf_sizes: &[usize]) -> (Simulator, TwoTierNetwork, Vec<ComponentId>) {
        let mut sim = Simulator::new(0);
        let net = TwoTierNetwork::build(&mut sim, NetConfig::default(), leaf_sizes);
        let sinks: Vec<ComponentId> = (0..net.len())
            .map(|i| {
                let s = sim.add(format!("sink{i}"), Mailbox::<Frame>::new());
                net.attach_rx(&mut sim, i, Endpoint::of(s));
                s
            })
            .collect();
        (sim, net, sinks)
    }

    #[test]
    fn same_leaf_beats_cross_leaf() {
        let (mut sim, net, sinks) = world(&[2, 2]);
        // 0→1 same leaf; 0→2 cross leaf.
        for dst in [1usize, 2] {
            sim.post(
                net.tx(0),
                sim.now(),
                Frame::new(net.addr(0), net.addr(dst), 1000, dst as u32),
            );
        }
        sim.run();
        let t_same = sim.component::<Mailbox<Frame>>(sinks[1]).items()[0].0;
        let t_cross = sim.component::<Mailbox<Frame>>(sinks[2]).items()[0].0;
        assert!(
            t_cross > t_same,
            "cross-leaf {t_cross} vs same-leaf {t_same}"
        );
        // Two extra store-and-forward hops: ≥ 2×(latency + serialization).
        let extra = t_cross - t_same;
        assert!(extra.as_ns_f64() > 1000.0, "extra = {extra}");
    }

    #[test]
    fn all_pairs_are_reachable() {
        let (mut sim, net, sinks) = world(&[2, 3, 1]);
        let n = net.len();
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    sim.post(
                        net.tx(src),
                        sim.now(),
                        Frame::new(net.addr(src), net.addr(dst), 64, (src * 10 + dst) as u32),
                    );
                }
            }
        }
        sim.run();
        for dst in 0..n {
            assert_eq!(
                sim.component::<Mailbox<Frame>>(sinks[dst]).len(),
                n - 1,
                "dst {dst}"
            );
        }
        assert_eq!(net.leaf_of(0), 0);
        assert_eq!(net.leaf_of(4), 1);
        assert_eq!(net.leaf_of(5), 2);
    }

    #[test]
    fn spine_uplink_is_the_shared_bottleneck() {
        // Two leaves of 2; both nodes of leaf 0 blast leaf 1 concurrently:
        // their frames serialize on leaf 0's single uplink.
        let (mut sim, net, sinks) = world(&[2, 2]);
        for src in 0..2usize {
            sim.post(
                net.tx(src),
                sim.now(),
                Frame::new(net.addr(src), net.addr(2 + src), 4096, src as u32),
            );
        }
        sim.run();
        let t2 = sim.component::<Mailbox<Frame>>(sinks[2]).items()[0].0;
        let t3 = sim.component::<Mailbox<Frame>>(sinks[3]).items()[0].0;
        let gap = if t3 > t2 { t3 - t2 } else { t2 - t3 };
        let ser = Dur::for_bytes_gbps(u64::from(4096 + crate::frame::WIRE_OVERHEAD_BYTES), 100.0);
        assert!(
            gap >= ser / 2,
            "uplink contention must separate arrivals: gap {gap} vs ser {ser}"
        );
    }
}
