//! The packet switch and per-node network ports.
//!
//! The model is a store-and-forward output-queued switch, matching the
//! Cisco Nexus fabric of the paper's cluster closely enough for the effects
//! that matter to collectives: line-rate serialization on every link and
//! queueing at the egress port. The latter is what produces the in-cast
//! bottleneck at the root of all-to-one reductions (paper §4.4.4, Fig. 12).

use std::collections::VecDeque;

use accl_sim::digest::fnv_fold;
use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::{FaultAction, FaultPlan};
use crate::frame::{CreditReturn, Frame, NodeAddr};

static OVERFLOW_DROPS: Metric = Metric::counter("net.switch.overflow_drops");
static PAUSES: Metric = Metric::counter("net.switch.pauses");
static FRAMES: Metric = Metric::counter("net.switch.frames");
static BYTES: Metric = Metric::counter("net.switch.bytes");
static QUEUE_WAIT_PS: Metric = Metric::histogram("net.switch.queue_wait_ps");
static EGRESS_DEPTH: Metric = Metric::histogram("net.switch.egress_depth");
static DROPS: Metric = Metric::counter("net.switch.drops");
static CORRUPTED: Metric = Metric::counter("net.switch.corrupted");
static DUPLICATED: Metric = Metric::counter("net.switch.duplicated");
static PORT_BYTES: Metric = Metric::counter("net.port.bytes");
static PORT_HELD_DEPTH: Metric = Metric::histogram("net.port.held_depth");
static PORT_PAUSES: Metric = Metric::counter("net.port.pauses");

/// What the switch does with a frame arriving at an egress port whose
/// buffer is full (see [`Switch::set_buffer_limit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum OverloadPolicy {
    /// PFC-style lossless backpressure: accept the frame but send a
    /// [`PauseFrame`] back to the source NIC, which holds further frames
    /// until the queue drains below the limit.
    #[default]
    Pause,
    /// Lossy tail-drop: discard the frame (counted separately from
    /// fault-injected drops).
    Drop,
}

/// PFC-style pause delivered by the switch to a source [`NetPort`]: hold
/// the uplink until `until`. Modelled as a control event (pause frames are
/// tiny and travel on a priority channel; they pay no wire time here).
#[derive(Debug, Clone, Copy)]
pub struct PauseFrame {
    /// When the paused NIC may resume transmitting.
    pub until: Time,
}

/// Picks, by frame body, the frames a split port hands to its second
/// receiver (see [`Switch::attach_rx_alt`]).
pub type RxSelector = fn(&Payload) -> bool;

/// Per-output-port bookkeeping inside the switch.
struct SwitchPort {
    egress: Pipe,
    rx_handler: Option<Endpoint>,
    /// A second receiver on the same port, and the selector of the frame
    /// bodies it takes (see [`Switch::attach_rx_alt`]).
    rx_alt: Option<(RxSelector, Endpoint)>,
    frames_out: u64,
    bytes_out: u64,
    /// End times of in-flight egress reservations (monotonic, FIFO pipe);
    /// its length after expiry-pruning is the instantaneous queue depth.
    pending_ends: VecDeque<Time>,
}

/// Traffic counters of one switch port, as observed after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortCounters {
    /// Frames forwarded out of this port.
    pub frames_out: u64,
    /// Wire bytes forwarded out of this port.
    pub bytes_out: u64,
}

/// An output-queued, store-and-forward packet switch.
///
/// Receives [`Frame`] events (fully serialized by the sender's
/// [`NetPort`]), applies the fault plan, then queues the frame on the
/// destination port's egress [`Pipe`] and delivers it to the attached
/// receiver endpoint after the forwarding latency, egress serialization and
/// link propagation.
pub struct Switch {
    forward_latency: Dur,
    propagation: Dur,
    ports: Vec<SwitchPort>,
    fault: FaultPlan,
    frame_index: u64,
    frames_dropped: u64,
    frames_corrupted: u64,
    frames_duplicated: u64,
    /// Per-port egress buffer capacity in frames (`None` = unbounded, the
    /// historical behaviour) and the policy applied when it overflows.
    buffer_frames: Option<u32>,
    overload_policy: OverloadPolicy,
    /// Where to deliver [`PauseFrame`]s, per source port (wired by
    /// [`crate::topology::Network::build`]).
    pause_tx: Vec<Option<Endpoint>>,
    frames_overflow_dropped: u64,
    pauses_sent: u64,
    /// Private entropy stream for the statistical fault policies. Owned by
    /// the switch so its draw order depends only on the frames this switch
    /// sees; builders replace the default with
    /// `Simulator::fork_rng("net.switch")`.
    rng: StdRng,
}

impl Switch {
    /// Creates a switch with `n_ports` ports on `link_gbps` links.
    pub fn new(n_ports: usize, link_gbps: f64, forward_latency: Dur, propagation: Dur) -> Self {
        Switch {
            forward_latency,
            propagation,
            ports: (0..n_ports)
                .map(|_| SwitchPort {
                    egress: Pipe::gbps(link_gbps),
                    rx_handler: None,
                    rx_alt: None,
                    frames_out: 0,
                    bytes_out: 0,
                    pending_ends: VecDeque::new(),
                })
                .collect(),
            fault: FaultPlan::none(),
            frame_index: 0,
            frames_dropped: 0,
            frames_corrupted: 0,
            frames_duplicated: 0,
            buffer_frames: None,
            overload_policy: OverloadPolicy::default(),
            pause_tx: vec![None; n_ports],
            frames_overflow_dropped: 0,
            pauses_sent: 0,
            rng: StdRng::seed_from_u64(0x5157_11c4),
        }
    }

    /// Bounds every egress port's buffer to `frames` in-flight frames and
    /// selects what happens on overflow. `None` restores the historical
    /// unbounded behaviour.
    pub fn set_buffer_limit(&mut self, frames: Option<u32>, policy: OverloadPolicy) {
        if let Some(f) = frames {
            assert!(f >= 1, "egress buffer needs room for at least one frame");
        }
        self.buffer_frames = frames;
        self.overload_policy = policy;
    }

    /// Attaches the pause-control channel toward the NIC on port `addr`
    /// (where [`PauseFrame`]s go under [`OverloadPolicy::Pause`]).
    pub fn attach_pause(&mut self, addr: NodeAddr, pause: Endpoint) {
        self.pause_tx[addr.index()] = Some(pause);
    }

    /// Installs the fault-policy entropy stream (conventionally
    /// `Simulator::fork_rng("net.switch")`).
    pub fn set_rng(&mut self, rng: StdRng) {
        self.rng = rng;
    }

    /// Attaches the receive side of port `addr` to `rx`.
    pub fn attach_rx(&mut self, addr: NodeAddr, rx: Endpoint) {
        self.ports[addr.index()].rx_handler = Some(rx);
    }

    /// Splits the receive side of port `addr`: frames whose body `to_alt`
    /// accepts go to `alt`, the rest to the [`Switch::attach_rx`]
    /// receiver. The choice is made when the delivery is scheduled, so a
    /// split port costs no extra event.
    pub fn attach_rx_alt(&mut self, addr: NodeAddr, alt: Endpoint, to_alt: RxSelector) {
        self.ports[addr.index()].rx_alt = Some((to_alt, alt));
    }

    /// Installs a fault-injection policy.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// The installed fault plan.
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Mutable access to the installed fault plan, for composing link
    /// outages / node crashes onto an existing policy.
    pub fn fault_plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.fault
    }

    /// Counters for port `addr`.
    pub fn port_counters(&self, addr: NodeAddr) -> PortCounters {
        let p = &self.ports[addr.index()];
        PortCounters {
            frames_out: p.frames_out,
            bytes_out: p.bytes_out,
        }
    }

    /// Total frames dropped by fault injection.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Total frames corrupted (FCS-flipped) by fault injection.
    pub fn frames_corrupted(&self) -> u64 {
        self.frames_corrupted
    }

    /// Total extra frame copies created by fault injection.
    pub fn frames_duplicated(&self) -> u64 {
        self.frames_duplicated
    }

    /// Frames tail-dropped because an egress buffer was full (under
    /// [`OverloadPolicy::Drop`]); disjoint from fault-injected drops.
    pub fn frames_overflow_dropped(&self) -> u64 {
        self.frames_overflow_dropped
    }

    /// Pause frames sent to source NICs (under [`OverloadPolicy::Pause`]).
    pub fn pauses_sent(&self) -> u64 {
        self.pauses_sent
    }

    /// Queues `frame` on its destination port's egress and delivers it
    /// after forwarding latency, serialization, propagation and any
    /// fault-injected `extra` delay.
    fn forward_frame(&mut self, ctx: &mut Ctx<'_>, frame: Box<Frame>, extra: Dur) {
        let now = ctx.now();
        let dst = frame.dst;
        let port = &mut self.ports[dst.index()];
        let rx = match port.rx_alt {
            Some((to_alt, alt)) if to_alt(&frame.body) => alt,
            _ => port.rx_handler.unwrap_or_else(|| {
                panic!("switch port {dst} has no receiver attached (frame {frame:?})")
            }),
        };
        // Prune drained reservations first: the remainder is the
        // instantaneous egress queue depth the buffer limit applies to.
        while port.pending_ends.front().is_some_and(|&t| t <= now) {
            port.pending_ends.pop_front();
        }
        let overflowing = self
            .buffer_frames
            .is_some_and(|cap| port.pending_ends.len() >= cap as usize);
        if overflowing && self.overload_policy == OverloadPolicy::Drop {
            self.frames_overflow_dropped += 1;
            ctx.stats().add(&OVERFLOW_DROPS, 1);
            accl_sim::trace_instant!(ctx, "net.overflow_drop", frame.span);
            return;
        }
        let wire = u64::from(frame.wire_bytes());
        port.frames_out += 1;
        port.bytes_out += wire;
        let ready = ctx.now() + self.forward_latency;
        let (start, end) = port.egress.reserve(ready, wire);
        port.pending_ends.push_back(end);
        if overflowing {
            // PFC-style lossless backpressure: the frame is accepted (the
            // buffer absorbs one overshoot per in-flight source frame) and
            // the source NIC is paused until the queue drains back below
            // the limit.
            let cap = self.buffer_frames.unwrap_or(1) as usize;
            let depth = port.pending_ends.len();
            let resume_at = port.pending_ends[depth - cap];
            self.pauses_sent += 1;
            ctx.stats().add(&PAUSES, 1);
            accl_sim::trace_instant!(ctx, "net.pause", frame.span);
            if let Some(pause) = self.pause_tx[frame.src.index()] {
                // Pause frames travel the wire like any other control
                // traffic: one propagation delay back to the NIC.
                ctx.send(pause, self.propagation, PauseFrame { until: resume_at });
            }
        }
        let port = &mut self.ports[dst.index()];
        ctx.stats().add(&FRAMES, 1);
        ctx.stats().add(&BYTES, wire);
        ctx.stats().observe(&QUEUE_WAIT_PS, (start - ready).as_ps());
        ctx.stats()
            .observe(&EGRESS_DEPTH, port.pending_ends.len() as u64);
        if ctx.spans_enabled() {
            if start > ready {
                ctx.span_interval("net.queue", frame.span, ready, start);
            }
            ctx.span_interval_attrs(
                "net.wire",
                frame.span,
                start,
                end + self.propagation,
                &[
                    Attr {
                        key: "leg",
                        value: AttrValue::Str("switch"),
                    },
                    Attr {
                        key: "bytes",
                        value: AttrValue::U64(wire),
                    },
                ],
            );
        }
        // Fault-injected delay is applied on the wire, after serialization,
        // so a delayed frame can be overtaken (true reordering) instead of
        // head-of-line blocking the egress FIFO.
        ctx.send_box_at(rx, end + self.propagation + extra, frame);
    }
}

impl Component for Switch {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        let mut frame = payload.into_box::<Frame>();
        let index = self.frame_index;
        self.frame_index += 1;
        let now = ctx.now();
        let mut duplicate = false;
        let extra = match self.fault.decide(index, now, &frame, &mut self.rng) {
            FaultAction::Forward => Dur::ZERO,
            FaultAction::Delay(d) => d,
            FaultAction::Drop => {
                self.frames_dropped += 1;
                ctx.stats().add(&DROPS, 1);
                accl_sim::trace_instant!(ctx, "net.drop", frame.span);
                return;
            }
            FaultAction::Corrupt => {
                // Deterministic nonzero mask derived from the frame index:
                // corruption replays bit-for-bit without an RNG draw.
                self.frames_corrupted += 1;
                ctx.stats().add(&CORRUPTED, 1);
                accl_sim::trace_instant!(ctx, "net.corrupt", frame.span);
                frame.corrupt(((index as u32) << 1) | 1);
                Dur::ZERO
            }
            FaultAction::Duplicate => {
                self.frames_duplicated += 1;
                ctx.stats().add(&DUPLICATED, 1);
                accl_sim::trace_instant!(ctx, "net.duplicate", frame.span);
                duplicate = true;
                Dur::ZERO
            }
        };
        if duplicate {
            // The copy is a real wire occupant: it serializes on the same
            // egress pipe right behind the original.
            let copy = Box::new(frame.clone_wire());
            self.forward_frame(ctx, frame, extra);
            self.forward_frame(ctx, copy, extra);
        } else {
            self.forward_frame(ctx, frame, extra);
        }
    }

    fn resource_state(&self) -> Option<ResourceState> {
        // The switch never blocks — it only publishes egress occupancy so a
        // stall report shows which port's buffer the cluster is wedged on.
        // `pending_ends` may hold already-drained reservations (pruning
        // happens on the next arrival); that over-report is harmless for a
        // gauge and disappears at any quiet point after traffic resumes.
        let gauges: Vec<ResourceGauge> = self
            .ports
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.pending_ends.is_empty())
            .map(|(i, p)| ResourceGauge {
                name: format!("net.egress(n{i})"),
                used: p.pending_ends.len() as u64,
                capacity: self.buffer_frames.map(u64::from),
            })
            .collect();
        (!gauges.is_empty()).then(|| ResourceState::gauges_only(gauges))
    }

    fn state_digest(&self) -> Option<u64> {
        // Everything externally meaningful about the fabric: forward and
        // fault counters, per-port traffic, and the exact egress
        // reservation times. Two runs that forwarded the same frames must
        // agree bit for bit — the race detector and the queue-kind
        // replay gates both compare this.
        let mut h = 0u64;
        for v in [
            self.frame_index,
            self.frames_dropped,
            self.frames_corrupted,
            self.frames_duplicated,
            self.frames_overflow_dropped,
            self.pauses_sent,
        ] {
            fnv_fold(&mut h, &v.to_le_bytes());
        }
        for p in &self.ports {
            fnv_fold(&mut h, &p.frames_out.to_le_bytes());
            fnv_fold(&mut h, &p.bytes_out.to_le_bytes());
            fnv_fold(&mut h, &p.egress.next_free().as_ps().to_le_bytes());
        }
        Some(h)
    }
}

/// The egress side of a node's NIC/MAC: serializes frames onto the uplink.
///
/// Local protocol engines send [`Frame`] events here; the port reserves its
/// line-rate egress pipe and the frame arrives at the switch once fully
/// serialized (store-and-forward) plus one propagation delay.
pub struct NetPort {
    addr: NodeAddr,
    switch: Endpoint,
    egress: Pipe,
    propagation: Dur,
    frames_in: u64,
    bytes_in: u64,
    /// PFC pause state: no frame enters the uplink before this instant.
    paused_until: Time,
    /// Frames held while paused, flushed in arrival order on resume.
    held: VecDeque<Box<Frame>>,
    pauses_received: u64,
    /// This node's incarnation number, stamped into every outgoing frame's
    /// epoch field. 0 for the first life; a rebooted node's fresh port
    /// takes the next one ([`NetPort::with_incarnation`]).
    incarnation: u32,
}

/// Self-scheduled resume tick for a paused [`NetPort`].
#[derive(Debug, Clone, Copy)]
struct Resume;

impl NetPort {
    /// Creates the port for `addr`, uplinked to `switch`.
    pub fn new(addr: NodeAddr, switch: Endpoint, link_gbps: f64, propagation: Dur) -> Self {
        NetPort {
            addr,
            switch,
            egress: Pipe::gbps(link_gbps),
            propagation,
            frames_in: 0,
            bytes_in: 0,
            paused_until: Time::ZERO,
            held: VecDeque::new(),
            pauses_received: 0,
            incarnation: 0,
        }
    }

    /// Sets the incarnation number: a rebooted node's fresh port takes
    /// the one after its previous port's.
    pub fn with_incarnation(mut self, incarnation: u32) -> Self {
        self.incarnation = incarnation;
        self
    }

    /// This port's fabric address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The incarnation number stamped into outgoing frames' epochs.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Frames submitted by the local device so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_in
    }

    /// Pause frames this NIC has honoured so far.
    pub fn pauses_received(&self) -> u64 {
        self.pauses_received
    }

    /// Frames currently held back by an active pause.
    pub fn frames_held(&self) -> usize {
        self.held.len()
    }

    /// Serializes `frame` onto the uplink and schedules its arrival at the
    /// switch; returns any tx-window credit it carried at serialization end.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, mut frame: Box<Frame>) {
        // Stamp the source and epoch: devices don't need to know their own
        // address or which life they are on.
        frame.src = self.addr;
        frame.epoch = self.incarnation;
        let wire = u64::from(frame.wire_bytes());
        self.frames_in += 1;
        self.bytes_in += wire;
        let (start, end) = self.egress.reserve(ctx.now(), wire);
        ctx.stats().add(&PORT_BYTES, wire);
        if ctx.spans_enabled() {
            if start > ctx.now() {
                ctx.span_interval("net.queue", frame.span, ctx.now(), start);
            }
            ctx.span_interval_attrs(
                "net.wire",
                frame.span,
                start,
                end + self.propagation,
                &[
                    Attr {
                        key: "leg",
                        value: AttrValue::Str("nic"),
                    },
                    Attr {
                        key: "bytes",
                        value: AttrValue::U64(wire),
                    },
                ],
            );
        }
        if let Some(ep) = frame.credit_return {
            ctx.send_at(ep, end, CreditReturn { credits: 1 });
        }
        ctx.send_box_at(self.switch, end + self.propagation, frame);
    }
}

impl Component for NetPort {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        let payload = match payload.try_into_box::<Frame>() {
            Ok(frame) => {
                if ctx.now() < self.paused_until {
                    self.held.push_back(frame);
                    ctx.stats()
                        .observe(&PORT_HELD_DEPTH, self.held.len() as u64);
                } else {
                    self.transmit(ctx, frame);
                }
                return;
            }
            Err(other) => other,
        };
        let payload = match payload.try_downcast::<PauseFrame>() {
            Ok(pause) => {
                self.pauses_received += 1;
                ctx.stats().add(&PORT_PAUSES, 1);
                if pause.until <= ctx.now() {
                    // The pause expired while in flight on the wire —
                    // nothing to hold, and a resume tick at `until` would
                    // land in the past.
                    return;
                }
                if pause.until > self.paused_until {
                    self.paused_until = pause.until;
                    // One resume tick per pause edge; a longer pause
                    // arriving later schedules its own, and stale ticks
                    // no-op against `paused_until`.
                    ctx.send_at(Endpoint::of(ctx.self_id()), pause.until, Resume);
                }
                return;
            }
            Err(other) => other,
        };
        payload.downcast::<Resume>();
        if ctx.now() < self.paused_until {
            return; // a later pause superseded this tick
        }
        while let Some(frame) = self.held.pop_front() {
            self.transmit(ctx, frame);
        }
    }

    fn parked_work(&self) -> Option<ParkedWork> {
        (!self.held.is_empty()).then(|| ParkedWork {
            rank: Some(self.addr.0),
            op: format!(
                "paused until {}: {} frames held",
                self.paused_until,
                self.held.len()
            ),
        })
    }

    fn resource_state(&self) -> Option<ResourceState> {
        let mut st = ResourceState::default();
        if !self.held.is_empty() {
            // Blocked on the pause being lifted; any credit-stamped frames
            // it holds keep their sender's tx window occupied.
            st.waits.push(format!("net.pause({})", self.addr));
            if self.held.iter().any(|f| f.credit_return.is_some()) {
                st.holds.push(format!("net.txcredit({})", self.addr));
            }
            st.gauges.push(ResourceGauge {
                name: format!("net.heldq({})", self.addr),
                used: self.held.len() as u64,
                capacity: None,
            });
        }
        (!st.is_empty()).then_some(st)
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = 0u64;
        for v in [
            self.frames_in,
            self.bytes_in,
            self.paused_until.as_ps(),
            self.held.len() as u64,
            self.pauses_received,
            self.egress.next_free().as_ps(),
            u64::from(self.incarnation),
        ] {
            fnv_fold(&mut h, &v.to_le_bytes());
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::WIRE_OVERHEAD_BYTES;
    use accl_sim::sim::Simulator;

    struct World {
        sim: Simulator,
        switch: ComponentId,
        ports: Vec<ComponentId>,
        sinks: Vec<ComponentId>,
    }

    fn world(n: usize) -> World {
        let mut sim = Simulator::new(0);
        let switch_id = sim.reserve("switch");
        let mut switch = Switch::new(n, 100.0, Dur::from_ns(500), Dur::from_ns(150));
        let mut ports = Vec::new();
        let mut sinks = Vec::new();
        for i in 0..n {
            let sink = sim.add(format!("sink{i}"), Mailbox::<Frame>::new());
            switch.attach_rx(NodeAddr(i as u32), Endpoint::of(sink));
            let port = sim.add(
                format!("port{i}"),
                NetPort::new(
                    NodeAddr(i as u32),
                    Endpoint::of(switch_id),
                    100.0,
                    Dur::from_ns(150),
                ),
            );
            ports.push(port);
            sinks.push(sink);
        }
        sim.install(switch_id, switch);
        World {
            sim,
            switch: switch_id,
            ports,
            sinks,
        }
    }

    #[test]
    fn single_frame_end_to_end_latency() {
        let mut w = world(2);
        let payload = 1000u32;
        w.sim.post(
            Endpoint::of(w.ports[0]),
            Time::ZERO,
            Frame::new(NodeAddr(0), NodeAddr(1), payload, 42u32),
        );
        w.sim.run();
        let mb = w.sim.component::<Mailbox<Frame>>(w.sinks[1]);
        assert_eq!(mb.len(), 1);
        let wire = u64::from(payload + WIRE_OVERHEAD_BYTES);
        let ser = Dur::for_bytes_gbps(wire, 100.0);
        let expect = Time::ZERO
            + ser                   // NIC egress serialization
            + Dur::from_ns(150)     // uplink propagation
            + Dur::from_ns(500)     // switch forwarding
            + ser                   // switch egress serialization
            + Dur::from_ns(150); // downlink propagation
        assert_eq!(mb.items()[0].0, expect);
        assert_eq!(mb.items()[0].1.body.peek::<u32>(), Some(&42));
        // Source address stamped by the port.
        assert_eq!(mb.items()[0].1.src, NodeAddr(0));
    }

    #[test]
    fn incast_queues_at_egress_port() {
        // Nodes 0 and 1 both blast node 2 at t=0; the shared egress port
        // must serialize them back to back.
        let mut w = world(3);
        for src in 0..2u32 {
            w.sim.post(
                Endpoint::of(w.ports[src as usize]),
                Time::ZERO,
                Frame::new(NodeAddr(src), NodeAddr(2), 4096, src),
            );
        }
        w.sim.run();
        let mb = w.sim.component::<Mailbox<Frame>>(w.sinks[2]);
        assert_eq!(mb.len(), 2);
        let gap = mb.items()[1].0 - mb.items()[0].0;
        let ser = Dur::for_bytes_gbps(u64::from(4096 + WIRE_OVERHEAD_BYTES), 100.0);
        // Second frame leaves exactly one serialization time after the first.
        assert_eq!(gap, ser);
        let ctr = w
            .sim
            .component::<Switch>(w.switch)
            .port_counters(NodeAddr(2));
        assert_eq!(ctr.frames_out, 2);
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        // 0->1 and 2->3 in parallel must arrive at the same time.
        let mut w = world(4);
        for (src, dst) in [(0u32, 1u32), (2, 3)] {
            w.sim.post(
                Endpoint::of(w.ports[src as usize]),
                Time::ZERO,
                Frame::new(NodeAddr(src), NodeAddr(dst), 2048, ()),
            );
        }
        w.sim.run();
        let t1 = w.sim.component::<Mailbox<Frame>>(w.sinks[1]).items()[0].0;
        let t3 = w.sim.component::<Mailbox<Frame>>(w.sinks[3]).items()[0].0;
        assert_eq!(t1, t3);
    }

    #[test]
    fn fault_plan_drops_frames() {
        let mut w = world(2);
        w.sim
            .component_mut::<Switch>(w.switch)
            .set_fault_plan(FaultPlan::drop_frames([0]));
        for i in 0..2 {
            w.sim.post(
                Endpoint::of(w.ports[0]),
                Time::from_ps(i),
                Frame::new(NodeAddr(0), NodeAddr(1), 100, i),
            );
        }
        w.sim.run();
        let mb = w.sim.component::<Mailbox<Frame>>(w.sinks[1]);
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.items()[0].1.body.peek::<u64>(), Some(&1));
        assert_eq!(w.sim.component::<Switch>(w.switch).frames_dropped(), 1);
    }

    #[test]
    fn corrupted_frame_arrives_with_bad_fcs() {
        let mut w = world(2);
        w.sim
            .component_mut::<Switch>(w.switch)
            .set_fault_plan(FaultPlan::corrupt_frames([0]));
        for i in 0..2u64 {
            w.sim.post(
                Endpoint::of(w.ports[0]),
                Time::from_ps(i),
                Frame::new(NodeAddr(0), NodeAddr(1), 100, i),
            );
        }
        w.sim.run();
        let mb = w.sim.component::<Mailbox<Frame>>(w.sinks[1]);
        assert_eq!(mb.len(), 2, "corrupted frames still arrive");
        assert!(!mb.items()[0].1.fcs_ok());
        assert!(mb.items()[1].1.fcs_ok());
        assert_eq!(w.sim.component::<Switch>(w.switch).frames_corrupted(), 1);
    }

    #[test]
    fn duplicated_frame_arrives_twice_and_pays_the_wire() {
        let mut w = world(2);
        w.sim
            .component_mut::<Switch>(w.switch)
            .set_fault_plan(FaultPlan::duplicate_frames([0]));
        w.sim.post(
            Endpoint::of(w.ports[0]),
            Time::ZERO,
            Frame::new(NodeAddr(0), NodeAddr(1), 1000, 5u64),
        );
        w.sim.run();
        let mb = w.sim.component::<Mailbox<Frame>>(w.sinks[1]);
        assert_eq!(mb.len(), 2);
        for (_, f) in mb.items() {
            assert!(f.fcs_ok());
            assert_eq!(f.body.peek::<u64>(), Some(&5));
        }
        // The copy serializes behind the original on the egress pipe.
        let ser = Dur::for_bytes_gbps(u64::from(1000 + WIRE_OVERHEAD_BYTES), 100.0);
        assert_eq!(mb.items()[1].0 - mb.items()[0].0, ser);
        let sw = w.sim.component::<Switch>(w.switch);
        assert_eq!(sw.frames_duplicated(), 1);
        assert_eq!(sw.port_counters(NodeAddr(1)).frames_out, 2);
    }

    #[test]
    fn overflow_drop_policy_tail_drops() {
        // Buffer of 1 frame, three frames arriving back to back into the
        // same egress port: the first occupies the buffer, the other two
        // overflow and are tail-dropped.
        let mut w = world(2);
        w.sim
            .component_mut::<Switch>(w.switch)
            .set_buffer_limit(Some(1), OverloadPolicy::Drop);
        for i in 0..3u64 {
            w.sim.post(
                Endpoint::of(w.switch),
                Time::from_ps(i),
                Frame::new(NodeAddr(0), NodeAddr(1), 4096, i),
            );
        }
        w.sim.run();
        let mb = w.sim.component::<Mailbox<Frame>>(w.sinks[1]);
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.items()[0].1.body.peek::<u64>(), Some(&0));
        let sw = w.sim.component::<Switch>(w.switch);
        assert_eq!(sw.frames_overflow_dropped(), 2);
        assert_eq!(sw.frames_dropped(), 0, "disjoint from fault drops");
    }

    #[test]
    fn overflow_pause_policy_pauses_source_and_resumes() {
        // Buffer of 1; node 0 sends three frames to node 1 back to back.
        // The second and third arrivals overflow, pausing the source NIC;
        // all frames are still delivered (lossless) once the queue drains.
        let mut w = world(2);
        w.sim
            .component_mut::<Switch>(w.switch)
            .set_buffer_limit(Some(1), OverloadPolicy::Pause);
        for (i, &port) in w.ports.iter().enumerate() {
            w.sim
                .component_mut::<Switch>(w.switch)
                .attach_pause(NodeAddr(i as u32), Endpoint::of(port));
        }
        for i in 0..4u64 {
            w.sim.post(
                Endpoint::of(w.ports[0]),
                Time::from_ps(i),
                Frame::new(NodeAddr(0), NodeAddr(1), 4096, i),
            );
        }
        w.sim.run();
        let mb = w.sim.component::<Mailbox<Frame>>(w.sinks[1]);
        assert_eq!(mb.len(), 4, "pause is lossless");
        // In-order delivery preserved through the hold queue.
        let order: Vec<u64> = mb
            .items()
            .iter()
            .map(|(_, f)| *f.body.peek::<u64>().unwrap())
            .collect();
        assert_eq!(order, [0, 1, 2, 3]);
        let sw = w.sim.component::<Switch>(w.switch);
        assert!(sw.pauses_sent() >= 1);
        assert_eq!(sw.frames_overflow_dropped(), 0);
        let port = w.sim.component::<NetPort>(w.ports[0]);
        assert!(port.pauses_received() >= 1);
        assert_eq!(port.frames_held(), 0, "everything flushed on resume");
    }

    #[test]
    fn credit_return_posts_at_serialization_end() {
        let mut w = world(2);
        let credits = w.sim.add("credits", Mailbox::<CreditReturn>::new());
        let payload = 1000u32;
        w.sim.post(
            Endpoint::of(w.ports[0]),
            Time::ZERO,
            Frame::new(NodeAddr(0), NodeAddr(1), payload, ())
                .with_credit_return(Endpoint::of(credits)),
        );
        w.sim.run();
        let mb = w.sim.component::<Mailbox<CreditReturn>>(credits);
        assert_eq!(mb.len(), 1);
        let ser = Dur::for_bytes_gbps(u64::from(payload + WIRE_OVERHEAD_BYTES), 100.0);
        // Returned exactly when the frame clears the NIC uplink: no
        // propagation, switch or downlink latency on the credit path.
        assert_eq!(mb.items()[0].0, Time::ZERO + ser);
        assert_eq!(mb.items()[0].1.credits, 1);
    }

    #[test]
    fn paused_port_flushes_held_frames_in_order_with_their_credits() {
        let mut w = world(2);
        let credits = w.sim.add("credits", Mailbox::<CreditReturn>::new());
        let resume = Time::from_us(10);
        w.sim.post(
            Endpoint::of(w.ports[0]),
            Time::ZERO,
            PauseFrame { until: resume },
        );
        for i in 0..3u64 {
            w.sim.post(
                Endpoint::of(w.ports[0]),
                Time::from_ns(1 + i),
                Frame::new(NodeAddr(0), NodeAddr(1), 1000, i)
                    .with_credit_return(Endpoint::of(credits)),
            );
        }
        w.sim.run_until(Time::from_us(1));
        assert_eq!(w.sim.component::<NetPort>(w.ports[0]).frames_held(), 3);
        w.sim.run();
        let frames = w.sim.component::<Mailbox<Frame>>(w.sinks[1]);
        let order: Vec<u64> = frames
            .values()
            .map(|f| *f.body.peek::<u64>().unwrap())
            .collect();
        assert_eq!(order, [0, 1, 2], "held frames leave in arrival order");
        // Each frame returns its credit when it clears the uplink: back to
        // back from the resume, one serialization apart.
        let ser = Dur::for_bytes_gbps(u64::from(1000 + WIRE_OVERHEAD_BYTES), 100.0);
        let mb = w.sim.component::<Mailbox<CreditReturn>>(credits);
        let at: Vec<Time> = mb.items().iter().map(|(t, _)| *t).collect();
        assert_eq!(at, [resume + ser, resume + ser * 2, resume + ser * 3]);
        assert!(mb.values().all(|c| c.credits == 1));
    }

    #[test]
    fn paused_port_reports_parked_work_and_resources() {
        let mut w = world(2);
        let credits = w.sim.add("credits", Mailbox::<CreditReturn>::new());
        // A pause storm with no matching resume traffic: frames sent while
        // paused are held, visible as parked work and a wait-for edge.
        w.sim.post(
            Endpoint::of(w.ports[0]),
            Time::ZERO,
            PauseFrame {
                until: Time::from_us(10),
            },
        );
        w.sim.post(
            Endpoint::of(w.ports[0]),
            Time::from_ns(1),
            Frame::new(NodeAddr(0), NodeAddr(1), 64, ()).with_credit_return(Endpoint::of(credits)),
        );
        w.sim.run_until(Time::from_us(1));
        let port = w.sim.component::<NetPort>(w.ports[0]);
        assert_eq!(port.frames_held(), 1);
        let parked = port.parked_work().expect("held frames are parked work");
        assert!(parked.op.contains("1 frames held"), "{}", parked.op);
        let st = port.resource_state().expect("paused port has state");
        assert_eq!(st.waits, vec!["net.pause(n0)".to_string()]);
        assert_eq!(st.holds, vec!["net.txcredit(n0)".to_string()]);
        // Running to completion lifts the pause and flushes the frame.
        w.sim.run();
        let port = w.sim.component::<NetPort>(w.ports[0]);
        assert_eq!(port.frames_held(), 0);
        assert_eq!(w.sim.component::<Mailbox<Frame>>(w.sinks[1]).len(), 1);
    }

    #[test]
    fn delayed_frame_is_reordered() {
        let mut w = world(2);
        w.sim
            .component_mut::<Switch>(w.switch)
            .set_fault_plan(FaultPlan::delay_frames([0], Dur::from_us(100)));
        for i in 0..2u64 {
            w.sim.post(
                Endpoint::of(w.ports[0]),
                Time::from_ps(i),
                Frame::new(NodeAddr(0), NodeAddr(1), 100, i),
            );
        }
        w.sim.run();
        let mb = w.sim.component::<Mailbox<Frame>>(w.sinks[1]);
        assert_eq!(mb.len(), 2);
        // Frame 1 overtakes frame 0.
        assert_eq!(mb.items()[0].1.body.peek::<u64>(), Some(&1));
        assert_eq!(mb.items()[1].1.body.peek::<u64>(), Some(&0));
    }

    #[test]
    fn split_rx_routes_by_body_type() {
        // A dual-stack node: u32 bodies to the second receiver, the rest
        // to the first, with no hop between the switch and either.
        let mut w = world(2);
        let alt = w.sim.add("alt1", Mailbox::<Frame>::new());
        w.sim.component_mut::<Switch>(w.switch).attach_rx_alt(
            NodeAddr(1),
            Endpoint::of(alt),
            |b| b.is::<u32>(),
        );
        let at = Endpoint::of(w.ports[0]);
        w.sim.post(
            at,
            Time::ZERO,
            Frame::new(NodeAddr(0), NodeAddr(1), 64, 7u32),
        );
        w.sim.post(
            at,
            Time::ZERO,
            Frame::new(NodeAddr(0), NodeAddr(1), 64, 8u8),
        );
        w.sim.post(
            at,
            Time::ZERO,
            Frame::new(NodeAddr(0), NodeAddr(1), 64, 9u32),
        );
        // The split applies to its own port only.
        w.sim.post(
            Endpoint::of(w.ports[1]),
            Time::ZERO,
            Frame::new(NodeAddr(1), NodeAddr(0), 64, 10u32),
        );
        w.sim.run();
        let alt_mb = w.sim.component::<Mailbox<Frame>>(alt);
        assert_eq!(alt_mb.len(), 2);
        assert_eq!(alt_mb.items()[1].1.body.peek::<u32>(), Some(&9));
        let main = w.sim.component::<Mailbox<Frame>>(w.sinks[1]);
        assert_eq!(main.len(), 1);
        assert_eq!(main.items()[0].1.body.peek::<u8>(), Some(&8));
        assert_eq!(w.sim.component::<Mailbox<Frame>>(w.sinks[0]).len(), 1);
        // Three events per frame: NIC, switch, receiver.
        assert_eq!(w.sim.events_executed(), 4 * 3);
    }
}
