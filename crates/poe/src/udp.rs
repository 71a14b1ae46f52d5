//! UDP protocol offload engine.
//!
//! Models the VNx-style 100 Gb/s hardware UDP stack (ref. 98): connectionless,
//! unreliable, line-rate datagram segmentation. Messages lost to the fabric
//! stay lost — which is why the paper's eager collectives over UDP stick to
//! simple ring/one-to-all algorithms that minimize in-flight fan-in
//! (§4.4.4, Table 1).

use bytes::Bytes;

use accl_net::Frame;
use accl_sim::prelude::*;

use crate::iface::{
    ports, PoeIo, PoeStatKeys, PoeTxCmd, PoeUpward, RxDemux, SessionTable, StreamChunk,
    TxAssembler, TxKind, TxSegment,
};

/// Per-datagram header modelled on the wire (message id, offset, total).
pub const UDP_SEG_HEADER_BYTES: u32 = 16;

/// A UDP datagram PDU: one segment of a message.
#[derive(Debug, Clone)]
pub struct UdpDgram {
    /// Receiver-local session the datagram targets.
    pub dst_session: crate::iface::SessionId,
    /// Sender-assigned message id.
    pub msg_id: u64,
    /// Offset of this segment within the message.
    pub offset: u64,
    /// Total message length.
    pub total: u64,
    /// Segment payload.
    pub data: Bytes,
}

/// Configuration of the UDP engine.
#[derive(Debug, Clone, Copy)]
pub struct UdpConfig {
    /// Maximum payload per datagram.
    pub mtu: u32,
    /// Pipelined per-datagram processing latency, ns.
    pub processing_ns: u64,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            mtu: accl_net::DEFAULT_MTU,
            processing_ns: 80,
        }
    }
}

const STATS: PoeStatKeys = PoeStatKeys {
    tx_credit_blocked: "poe.udp.tx_credit_blocked",
    credits_leaked: "poe.udp.credits_leaked",
    fcs_dropped: "poe.udp.dgrams_corrupted_dropped",
};

/// The UDP protocol offload engine component.
pub struct UdpPoe {
    cfg: UdpConfig,
    io: PoeIo,
    assembler: TxAssembler,
    demux: RxDemux,
    dgrams_sent: u64,
    dgrams_received: u64,
}

impl UdpPoe {
    /// Creates a UDP engine sending frames to `net_tx` and delivering
    /// upward to `up`.
    pub fn new(cfg: UdpConfig, net_tx: Endpoint, up: PoeUpward, sessions: SessionTable) -> Self {
        UdpPoe {
            cfg,
            io: PoeIo::new(net_tx, up, sessions, cfg.processing_ns, &STATS),
            assembler: TxAssembler::new(),
            demux: RxDemux::new(),
            dgrams_sent: 0,
            dgrams_received: 0,
        }
    }

    /// The engine's I/O edge: credit gate and Rx FCS drop count.
    pub fn io(&self) -> &PoeIo {
        &self.io
    }

    /// Mutable access to the engine's I/O edge (to bound its credit window).
    pub fn io_mut(&mut self) -> &mut PoeIo {
        &mut self.io
    }

    /// Datagrams sent so far.
    pub fn dgrams_sent(&self) -> u64 {
        self.dgrams_sent
    }

    /// Datagrams received so far.
    pub fn dgrams_received(&self) -> u64 {
        self.dgrams_received
    }

    /// Datagrams discarded as duplicates of already-received segments.
    pub fn dgrams_duplicates_dropped(&self) -> u64 {
        self.demux.duplicates_discarded()
    }

    /// Sends assembled segments to the wire (and completion notices for
    /// message-final segments).
    fn emit_segments(&mut self, ctx: &mut Ctx<'_>, segs: Vec<TxSegment>) {
        for seg in segs {
            let (peer, peer_session) = self.io.peer(seg.cmd.session);
            self.dgrams_sent += 1;
            let bytes = seg.data.len() as u32 + UDP_SEG_HEADER_BYTES;
            let span = self.io.seg_span(ctx, seg.cmd.span, seg.data.len() as u64);
            let dgram = UdpDgram {
                dst_session: peer_session,
                msg_id: seg.msg_id,
                offset: seg.offset,
                total: seg.cmd.len,
                data: seg.data,
            };
            self.io.send_data(ctx, peer, bytes, span, dgram);
            if seg.last {
                self.io.tx_done(ctx, &seg.cmd);
            }
        }
    }
}

impl Component for UdpPoe {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::TX_CMD => {
                let cmd = payload.downcast::<PoeTxCmd>();
                assert!(
                    matches!(cmd.kind, TxKind::Send),
                    "UDP engine supports only two-sided sends, got {:?}",
                    cmd.kind
                );
                let segs = self.assembler.push_cmd(cmd, self.cfg.mtu);
                self.emit_segments(ctx, segs);
            }
            ports::TX_DATA => {
                let chunk = payload.downcast::<StreamChunk>();
                let segs = self.assembler.push_data(chunk.data, self.cfg.mtu);
                self.emit_segments(ctx, segs);
            }
            ports::NET_RX => {
                let frame = payload.downcast::<Frame>();
                // Connectionless engine: a mangled datagram is
                // indistinguishable from loss once dropped — UDP has no
                // recovery, the bytes are simply gone.
                if self.io.rx_fcs(ctx, &frame, true).is_none() {
                    return;
                }
                self.dgrams_received += 1;
                let rx_span = self.io.rx_span(ctx, &frame);
                let dgram = frame.body.downcast::<UdpDgram>();
                let accepted = self.demux.accept(
                    dgram.dst_session,
                    dgram.msg_id,
                    dgram.offset,
                    dgram.total,
                    dgram.data,
                    rx_span,
                );
                let Some((meta, chunk)) = accepted else {
                    ctx.stats().add("poe.udp.dgrams_duplicates_dropped", 1);
                    return;
                };
                self.io.deliver(ctx, meta, chunk);
            }
            ports::CREDIT => self.io.on_credit(ctx, payload),
            other => panic!("UDP engine has no port {other:?}"),
        }
    }

    fn parked_work(&self) -> Option<ParkedWork> {
        self.io.tx_credit_gate().parked_work()
    }

    fn resource_state(&self) -> Option<ResourceState> {
        self.io.tx_credit_gate().state()
    }

    fn state_digest(&self) -> Option<u64> {
        // Datagram totals plus the credit-window accounting: two runs that
        // moved the same traffic agree on all of these regardless of
        // same-timestamp delivery order.
        let mut h = 0u64;
        for v in [
            self.dgrams_sent,
            self.dgrams_received,
            self.io.fcs_dropped(),
        ] {
            accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        }
        self.io.tx_credit_gate().fold_digest(&mut h);
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{PoeRxMeta, PoeTxDone, RxChunk, SessionId};
    use accl_net::{FaultPlan, NetConfig, Network};
    use accl_sim::trace::SpanId;

    struct Bench {
        sim: Simulator,
        net: Network,
        poes: Vec<ComponentId>,
        metas: Vec<ComponentId>,
        datas: Vec<ComponentId>,
        dones: Vec<ComponentId>,
    }

    /// Two nodes, fully connected with one session each way (0<->0).
    fn bench(n: usize) -> Bench {
        let mut sim = Simulator::new(0);
        let net = Network::build(&mut sim, NetConfig::default(), n);
        let mut poes = Vec::new();
        let mut metas = Vec::new();
        let mut datas = Vec::new();
        let mut dones = Vec::new();
        for i in 0..n {
            let meta = sim.add(format!("meta{i}"), Mailbox::<PoeRxMeta>::new());
            let data = sim.add(format!("data{i}"), Mailbox::<RxChunk>::new());
            let done = sim.add(format!("done{i}"), Mailbox::<PoeTxDone>::new());
            let mut sessions = SessionTable::new();
            // Session j talks to node j (self entry unused).
            for j in 0..n {
                if i != j {
                    sessions.connect(SessionId(j as u32), net.addr(j), SessionId(i as u32));
                }
            }
            let poe = sim.add(
                format!("udp{i}"),
                UdpPoe::new(
                    UdpConfig::default(),
                    net.tx(i),
                    PoeUpward {
                        rx_meta: Endpoint::of(meta),
                        rx_data: Endpoint::of(data),
                        tx_done: Endpoint::of(done),
                    },
                    sessions,
                ),
            );
            net.attach_rx(&mut sim, i, Endpoint::new(poe, ports::NET_RX));
            poes.push(poe);
            metas.push(meta);
            datas.push(data);
            dones.push(done);
        }
        Bench {
            sim,
            net,
            poes,
            metas,
            datas,
            dones,
        }
    }

    fn send(b: &mut Bench, from: usize, to: usize, data: Vec<u8>, tag: u64) {
        let len = data.len() as u64;
        b.sim.post(
            Endpoint::new(b.poes[from], ports::TX_CMD),
            b.sim.now(),
            PoeTxCmd {
                session: SessionId(to as u32),
                len,
                kind: TxKind::Send,
                tag,
                span: SpanId::NONE,
            },
        );
        b.sim.post(
            Endpoint::new(b.poes[from], ports::TX_DATA),
            b.sim.now(),
            StreamChunk {
                data: Bytes::from(data),
                last: true,
            },
        );
    }

    #[test]
    fn message_crosses_the_wire_intact() {
        let mut b = bench(2);
        let msg: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 256) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 5);
        b.sim.run();
        let metas = b.sim.component::<Mailbox<PoeRxMeta>>(b.metas[1]);
        assert_eq!(metas.len(), 1);
        assert_eq!(metas.items()[0].1.len, 10_000);
        assert_eq!(metas.items()[0].1.session, SessionId(0));
        let mut got = vec![0u8; 10_000];
        let chunks = b.sim.component::<Mailbox<RxChunk>>(b.datas[1]);
        assert_eq!(chunks.len(), 3);
        for (_, c) in chunks.items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(got, msg);
        assert!(chunks.items()[2].1.last);
        // Sender saw a local completion.
        let dones = b.sim.component::<Mailbox<PoeTxDone>>(b.dones[0]);
        assert_eq!(dones.len(), 1);
        assert_eq!(dones.items()[0].1.tag, 5);
    }

    #[test]
    fn throughput_approaches_line_rate() {
        let mut b = bench(2);
        let len = 4 << 20; // 4 MiB
        send(&mut b, 0, 1, vec![9u8; len], 0);
        b.sim.run();
        let t = b
            .sim
            .component::<Mailbox<RxChunk>>(b.datas[1])
            .last_arrival()
            .unwrap();
        let gbps = (len as f64) * 8.0 / t.as_ns_f64();
        // Wire + per-segment header overhead keeps goodput just under 100G.
        assert!(gbps > 90.0 && gbps < 100.0, "goodput={gbps:.1} Gb/s");
    }

    #[test]
    fn loss_means_message_never_completes() {
        let mut b = bench(2);
        b.net
            .set_fault_plan(&mut b.sim, FaultPlan::drop_frames([1]));
        send(&mut b, 0, 1, vec![1u8; 10_000], 0);
        b.sim.run();
        let chunks = b.sim.component::<Mailbox<RxChunk>>(b.datas[1]);
        // 3 segments sent, middle one dropped, no recovery: 2 arrive and
        // none is marked last.
        assert_eq!(chunks.len(), 2);
        assert!(chunks.values().all(|c| !c.last));
    }

    #[test]
    fn corruption_is_typed_loss() {
        let mut b = bench(2);
        b.net
            .set_fault_plan(&mut b.sim, FaultPlan::corrupt_frames([1]));
        send(&mut b, 0, 1, vec![1u8; 10_000], 0);
        b.sim.run();
        // Same observable shape as loss — but the receiver knows why.
        let chunks = b.sim.component::<Mailbox<RxChunk>>(b.datas[1]);
        assert_eq!(chunks.len(), 2);
        assert!(chunks.values().all(|c| !c.last));
        let poe = b.sim.component::<UdpPoe>(b.poes[1]);
        assert_eq!(poe.io().fcs_dropped(), 1);
        assert_eq!(poe.dgrams_received(), 2);
    }

    #[test]
    fn duplicates_are_discarded_and_counted() {
        let mut b = bench(2);
        b.net
            .set_fault_plan(&mut b.sim, FaultPlan::duplicate_frames([0, 2]));
        let msg: Vec<u8> = (0..10_000u32).map(|i| (i * 3 % 256) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 0);
        b.sim.run();
        let chunks = b.sim.component::<Mailbox<RxChunk>>(b.datas[1]);
        assert_eq!(chunks.len(), 3, "duplicates must not reach the app");
        let mut got = vec![0u8; msg.len()];
        for (_, c) in chunks.items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(got, msg);
        let poe = b.sim.component::<UdpPoe>(b.poes[1]);
        assert_eq!(poe.dgrams_duplicates_dropped(), 2);
    }

    #[test]
    fn concurrent_messages_to_different_peers() {
        let mut b = bench(3);
        send(&mut b, 0, 1, vec![1u8; 5000], 1);
        send(&mut b, 0, 2, vec![2u8; 5000], 2);
        b.sim.run();
        for dst in [1, 2] {
            let metas = b.sim.component::<Mailbox<PoeRxMeta>>(b.metas[dst]);
            assert_eq!(metas.len(), 1, "dst={dst}");
        }
        assert_eq!(b.sim.component::<UdpPoe>(b.poes[0]).dgrams_sent(), 4);
    }

    #[test]
    fn tx_credit_window_paces_datagrams_without_loss() {
        let mut b = bench(2);
        b.sim
            .component_mut::<UdpPoe>(b.poes[0])
            .io_mut()
            .set_tx_credit_window(Some(1), "net.txcredit(n0)");
        let msg: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 256) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 5);
        b.sim.run();
        let mut got = vec![0u8; msg.len()];
        let chunks = b.sim.component::<Mailbox<RxChunk>>(b.datas[1]);
        assert_eq!(chunks.len(), 3, "credit pacing must not lose datagrams");
        for (_, c) in chunks.items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(got, msg);
        let gate = b.sim.component::<UdpPoe>(b.poes[0]).io().tx_credit_gate();
        assert!(!gate.blocked());
        assert_eq!(gate.in_flight(), 0, "all credits returned");
    }

    #[test]
    #[should_panic(expected = "only two-sided sends")]
    fn write_command_is_rejected() {
        let mut b = bench(2);
        b.sim.post(
            Endpoint::new(b.poes[0], ports::TX_CMD),
            Time::ZERO,
            PoeTxCmd {
                session: SessionId(1),
                len: 4,
                kind: TxKind::Write { remote_addr: 0 },
                tag: 0,
                span: SpanId::NONE,
            },
        );
        b.sim.run();
    }
}
