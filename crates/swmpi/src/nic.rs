//! Commodity NIC model for the software-MPI baseline.
//!
//! Each CPU in the evaluation cluster has a 100 Gb/s Mellanox NIC on the
//! same switched fabric as the FPGAs. The model segments messages at the
//! MTU, serializes them through the node's network port, and reassembles at
//! the receiver — reliability is assumed (lossless RoCE / kernel TCP
//! recovery is not the bottleneck in any baseline experiment). A
//! configurable bandwidth cap below line rate models the kernel-TCP path's
//! CPU copy limits.

use std::collections::BTreeMap;

use bytes::Bytes;

use accl_net::{Frame, NodeAddr};
use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};

static NIC_MSGS: Metric = Metric::counter("mpi.nic.msgs");
static NIC_BYTES: Metric = Metric::counter("mpi.nic.bytes");

/// MPI wire messages carried by the NIC.
#[derive(Debug, Clone)]
pub enum MpiWire {
    /// Eager message: tag + payload.
    Eager {
        /// Match tag.
        tag: u64,
        /// The payload.
        data: Bytes,
    },
    /// Rendezvous request-to-send.
    Rts {
        /// Match tag.
        tag: u64,
        /// Message length.
        len: u64,
    },
    /// Rendezvous clear-to-send.
    Cts {
        /// Match tag.
        tag: u64,
    },
    /// Rendezvous payload.
    RndzvData {
        /// Match tag.
        tag: u64,
        /// The payload.
        data: Bytes,
    },
}

/// A fully reassembled arrival, delivered to the MPI process.
#[derive(Debug, Clone)]
pub struct NicDeliver {
    /// Sending node (cluster index).
    pub src: u32,
    /// The message.
    pub msg: MpiWire,
}

/// A transmission request from the MPI process.
#[derive(Debug, Clone)]
pub struct NicSend {
    /// Destination node (cluster index).
    pub dst: u32,
    /// The message.
    pub msg: MpiWire,
    /// Causal parent for the NIC's `mpi.nic.tx` span ([`SpanId::NONE`]
    /// when the caller does not trace).
    pub span: SpanId,
}

/// One segment on the wire.
#[derive(Debug, Clone)]
struct Segment {
    src_node: u32,
    msg_id: u64,
    offset: u64,
    total: u64,
    tag: u64,
    kind: u8, // 0=eager, 1=rts, 2=cts, 3=data
    len_field: u64,
    data: Bytes,
}

/// Ports of the [`SwNic`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Transmission requests ([`super::NicSend`]).
    pub const TX: PortId = PortId(0);
    /// Frames from the fabric.
    pub const NET_RX: PortId = PortId(1);
}

/// Reassembly state: (bytes received, pieces, the head segment's metadata).
type RxEntry = (u64, Vec<(u64, Bytes)>, Segment);

/// The commodity NIC component.
pub struct SwNic {
    node: u32,
    net_tx: Endpoint,
    deliver_to: Endpoint,
    addr_of: fn(u32) -> NodeAddr,
    mtu: u32,
    /// Effective bandwidth cap (kernel TCP < line rate).
    shaper: Pipe,
    /// Base latency per message (NIC/doorbell processing).
    base_latency: Dur,
    next_msg_id: u64,
    /// Reassembly: (src, msg_id) → (received, segments).
    rx: BTreeMap<(u32, u64), RxEntry>,
    messages_sent: u64,
}

impl SwNic {
    /// Creates a NIC for cluster node `node`.
    ///
    /// `addr_of` maps cluster node indices to fabric addresses (the MPI
    /// cluster may share a fabric with FPGAs at different port numbers).
    pub fn new(
        node: u32,
        net_tx: Endpoint,
        deliver_to: Endpoint,
        addr_of: fn(u32) -> NodeAddr,
        max_gbps: f64,
        base_latency: Dur,
        mtu: u32,
    ) -> Self {
        SwNic {
            node,
            net_tx,
            deliver_to,
            addr_of,
            mtu,
            shaper: Pipe::gbps(max_gbps),
            base_latency,
            next_msg_id: 0,
            rx: BTreeMap::new(),
            messages_sent: 0,
        }
    }

    /// Messages transmitted so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, req: NicSend) {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        self.messages_sent += 1;
        let (kind, tag, len_field, data) = match req.msg {
            MpiWire::Eager { tag, data } => (0u8, tag, 0, data),
            MpiWire::Rts { tag, len } => (1, tag, len, Bytes::new()),
            MpiWire::Cts { tag } => (2, tag, 0, Bytes::new()),
            MpiWire::RndzvData { tag, data } => (3, tag, 0, data),
        };
        let total = data.len() as u64;
        ctx.stats().add(&NIC_MSGS, 1);
        ctx.stats().add(&NIC_BYTES, total);
        let mut tx_span = SpanId::NONE;
        if ctx.spans_enabled() {
            tx_span = ctx.span_begin_attrs(
                "mpi.nic.tx",
                req.span,
                &[Attr {
                    key: "bytes",
                    value: AttrValue::U64(total),
                }],
            );
        }
        let dst_addr = (self.addr_of)(req.dst);
        let mtu = u64::from(self.mtu);
        let mut off = 0u64;
        let mut last_ready = ctx.now();
        loop {
            let n = mtu.min(total - off);
            let seg = Segment {
                src_node: self.node,
                msg_id,
                offset: off,
                total,
                tag,
                kind,
                len_field,
                data: data.slice(off as usize..(off + n) as usize),
            };
            let (_, ready) = self
                .shaper
                .reserve(ctx.now() + self.base_latency, n.max(64));
            last_ready = last_ready.max(ready);
            ctx.send_at(
                self.net_tx,
                ready,
                Frame::new(NodeAddr(0), dst_addr, n as u32 + 16, seg).with_span(tx_span),
            );
            off += n;
            if off >= total {
                break;
            }
        }
        ctx.span_end_at(tx_span, last_ready);
    }

    fn receive(&mut self, ctx: &mut Ctx<'_>, seg: Segment, span: SpanId) {
        let key = (seg.src_node, seg.msg_id);
        let entry = self
            .rx
            .entry(key)
            .or_insert_with(|| (0, Vec::new(), seg.clone()));
        entry.0 += seg.data.len() as u64;
        if !seg.data.is_empty() {
            entry.1.push((seg.offset, seg.data.clone()));
        }
        if entry.0 < seg.total {
            return;
        }
        let (_, mut pieces, head) = self.rx.remove(&key).unwrap();
        pieces.sort_by_key(|(off, _)| *off);
        let mut buf = Vec::with_capacity(head.total as usize);
        for (off, piece) in pieces {
            debug_assert_eq!(off as usize, buf.len());
            buf.extend_from_slice(&piece);
        }
        let data = Bytes::from(buf);
        let msg = match head.kind {
            0 => MpiWire::Eager {
                tag: head.tag,
                data,
            },
            1 => MpiWire::Rts {
                tag: head.tag,
                len: head.len_field,
            },
            2 => MpiWire::Cts { tag: head.tag },
            3 => MpiWire::RndzvData {
                tag: head.tag,
                data,
            },
            k => panic!("corrupt NIC segment kind {k}"),
        };
        if ctx.spans_enabled() {
            ctx.span_instant_attrs(
                "mpi.nic.rx",
                span,
                &[Attr {
                    key: "bytes",
                    value: AttrValue::U64(head.total),
                }],
            );
        }
        ctx.send(
            self.deliver_to,
            self.base_latency,
            NicDeliver {
                src: head.src_node,
                msg,
            },
        );
    }
}

impl Component for SwNic {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::TX => {
                let req = payload.downcast::<NicSend>();
                self.send(ctx, req);
            }
            ports::NET_RX => {
                let frame = payload.downcast::<Frame>();
                let span = frame.span;
                let seg = frame.body.downcast::<Segment>();
                self.receive(ctx, seg, span);
            }
            other => panic!("NIC has no port {other:?}"),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = 0u64;
        for v in [
            self.messages_sent,
            self.next_msg_id,
            self.rx.len() as u64,
            self.shaper.next_free().as_ps(),
        ] {
            accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accl_net::{NetConfig, Network};

    fn addr_of(i: u32) -> NodeAddr {
        NodeAddr(i)
    }

    fn world(n: usize, max_gbps: f64) -> (Simulator, Vec<ComponentId>, Vec<ComponentId>) {
        let mut sim = Simulator::new(0);
        let net = Network::build(&mut sim, NetConfig::default(), n);
        let mut nics = Vec::new();
        let mut sinks = Vec::new();
        for i in 0..n {
            let sink = sim.add(format!("sink{i}"), Mailbox::<NicDeliver>::new());
            let nic = sim.add(
                format!("nic{i}"),
                SwNic::new(
                    i as u32,
                    net.tx(i),
                    Endpoint::of(sink),
                    addr_of,
                    max_gbps,
                    Dur::from_ns(600),
                    4096,
                ),
            );
            net.attach_rx(&mut sim, i, Endpoint::new(nic, ports::NET_RX));
            nics.push(nic);
            sinks.push(sink);
        }
        (sim, nics, sinks)
    }

    #[test]
    fn eager_message_roundtrips() {
        let (mut sim, nics, sinks) = world(2, 100.0);
        let data: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        sim.post(
            Endpoint::new(nics[0], ports::TX),
            Time::ZERO,
            NicSend {
                dst: 1,
                msg: MpiWire::Eager {
                    tag: 7,
                    data: Bytes::from(data.clone()),
                },
                span: SpanId::NONE,
            },
        );
        sim.run();
        let mb = sim.component::<Mailbox<NicDeliver>>(sinks[1]);
        assert_eq!(mb.len(), 1);
        let d = &mb.items()[0].1;
        assert_eq!(d.src, 0);
        match &d.msg {
            MpiWire::Eager { tag, data: got } => {
                assert_eq!(*tag, 7);
                assert_eq!(&got[..], &data[..]);
            }
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn control_messages_are_cheap_and_ordered() {
        let (mut sim, nics, sinks) = world(2, 100.0);
        sim.post(
            Endpoint::new(nics[0], ports::TX),
            Time::ZERO,
            NicSend {
                dst: 1,
                msg: MpiWire::Rts {
                    tag: 1,
                    len: 1 << 20,
                },
                span: SpanId::NONE,
            },
        );
        sim.run();
        let mb = sim.component::<Mailbox<NicDeliver>>(sinks[1]);
        assert!(matches!(
            mb.items()[0].1.msg,
            MpiWire::Rts { tag: 1, len } if len == 1 << 20
        ));
        // Small control message: ~1.5 us one way.
        assert!(mb.items()[0].0.as_us_f64() < 3.0);
    }

    #[test]
    fn bandwidth_cap_throttles_tcp_flavor() {
        let measure = |gbps: f64| -> f64 {
            let (mut sim, nics, sinks) = world(2, gbps);
            let len = 4 << 20;
            sim.post(
                Endpoint::new(nics[0], ports::TX),
                Time::ZERO,
                NicSend {
                    dst: 1,
                    msg: MpiWire::Eager {
                        tag: 0,
                        data: Bytes::from(vec![1u8; len]),
                    },
                    span: SpanId::NONE,
                },
            );
            sim.run();
            let t = sim
                .component::<Mailbox<NicDeliver>>(sinks[1])
                .last_arrival()
                .unwrap();
            (len as f64) * 8.0 / t.as_ns_f64()
        };
        let fast = measure(97.0);
        let slow = measure(55.0);
        assert!(fast > 90.0, "rdma-class {fast:.1}");
        assert!(slow < 60.0 && slow > 45.0, "tcp-class {slow:.1}");
    }

    #[test]
    fn interleaved_sources_reassemble_correctly() {
        let (mut sim, nics, sinks) = world(3, 100.0);
        for src in 0..2u32 {
            sim.post(
                Endpoint::new(nics[src as usize], ports::TX),
                Time::ZERO,
                NicSend {
                    dst: 2,
                    msg: MpiWire::Eager {
                        tag: u64::from(src),
                        data: Bytes::from(vec![src as u8 + 1; 30_000]),
                    },
                    span: SpanId::NONE,
                },
            );
        }
        sim.run();
        let mb = sim.component::<Mailbox<NicDeliver>>(sinks[2]);
        assert_eq!(mb.len(), 2);
        for (_, d) in mb.items() {
            match &d.msg {
                MpiWire::Eager { data, .. } => {
                    assert!(data.iter().all(|&b| b == d.src as u8 + 1));
                    assert_eq!(data.len(), 30_000);
                }
                other => panic!("wrong message {other:?}"),
            }
        }
    }
}
