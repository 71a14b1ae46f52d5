//! TCP protocol offload engine.
//!
//! Models the 100 Gb/s hardware TCP stack (EasyNet, refs. 40/85): per-session reliable
//! byte streams with sliding-window flow control, out-of-order reassembly,
//! retransmission (RTO with exponential backoff plus fast retransmit on
//! three duplicate ACKs) and support for up to 1000 concurrent sessions.
//! Messages are framed inside the stream with a length prefix so the engine
//! can present the POE-independent message-oriented meta/data interface
//! upward (paper §4.3: "the meta interfaces contain op code, data length,
//! communication session IDs").

use std::collections::{BTreeMap, VecDeque};

use bytes::{Bytes, BytesMut};

use accl_sim::prelude::*;
use accl_sim::trace::SpanId;

use crate::iface::{
    ports, PoeIo, PoeRxMeta, PoeStatKeys, PoeTxCmd, PoeUpward, RxAdmit, RxChunk, SessionErrorKind,
    SessionId, SessionTable, StreamChunk, TxKind,
};

static TCP_SESSION_ERRORS: Metric = Metric::counter("poe.tcp.session_errors");
static TCP_RETRANSMITS: Metric = Metric::counter("poe.tcp.retransmits");

/// In-stream message header: 8-byte little-endian length prefix.
pub const TCP_MSG_HEADER_BYTES: usize = 8;

/// A TCP data segment PDU.
#[derive(Debug, Clone)]
pub struct TcpSegment {
    /// Receiver-local session.
    pub dst_session: SessionId,
    /// Stream offset of the first payload byte.
    pub seq: u64,
    /// Payload bytes.
    pub data: Bytes,
}

/// A (pure) TCP acknowledgement PDU.
#[derive(Debug, Clone, Copy)]
pub struct TcpAck {
    /// Receiver-local session (the original sender's side).
    pub dst_session: SessionId,
    /// Cumulative acknowledgement: next expected stream offset.
    pub ack: u64,
    /// Advertised receive window, bytes.
    pub window: u64,
}

/// Retransmission timer message: the deadline of the session's kernel
/// timer slot (see [`rto_slot`]).
#[derive(Debug, Clone, Copy)]
struct RtoTimer {
    session: SessionId,
}

/// The kernel timer slot key of `session`'s retransmission timer.
fn rto_slot(session: SessionId) -> u64 {
    u64::from(session.0)
}

/// Configuration of the TCP engine.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: u32,
    /// Pipelined per-segment processing latency, ns.
    pub processing_ns: u64,
    /// Advertised receive window, bytes. With window scaling the hardware
    /// stack sustains 100 Gb/s across data-center RTTs; 1 MiB is ample for
    /// the BDP here.
    pub rwnd_bytes: u64,
    /// Initial retransmission timeout, µs.
    pub init_rto_us: u64,
    /// Minimum retransmission timeout, µs.
    pub min_rto_us: u64,
    /// Maximum retransmission timeout, µs.
    pub max_rto_us: u64,
    /// Consecutive RTO expirations without forward progress before the
    /// session is declared dead (fail-stop peer detection). Mirrors Linux
    /// `tcp_retries2`, scaled down to data-center RTOs.
    pub max_retransmits: u32,
    /// Verify the frame check sequence at RX and discard corrupted frames
    /// (the hardware MAC's behaviour, always on in practice).
    ///
    /// Exists only so the chaos harness can validate itself: with the
    /// check *disabled*, a corrupted segment is delivered with a flipped
    /// payload byte, which the harness's golden-result invariant must
    /// catch and shrink to a minimal repro.
    pub verify_fcs: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: accl_net::DEFAULT_MTU,
            processing_ns: 100,
            rwnd_bytes: 1 << 20,
            init_rto_us: 100,
            min_rto_us: 25,
            max_rto_us: 10_000,
            max_retransmits: 8,
            verify_fcs: true,
        }
    }
}

/// Sender-side per-session state.
#[derive(Debug, Default)]
struct TxState {
    snd_una: u64,
    snd_nxt: u64,
    unacked: VecDeque<(u64, Bytes)>,
    pending: VecDeque<Bytes>,
    pending_len: u64,
    peer_rwnd: u64,
    dup_acks: u32,
    srtt_us: Option<f64>,
    rttvar_us: f64,
    rto: Dur,
    rtt_probe: Option<(u64, Time)>,
    retransmits: u64,
    /// Total bytes offered to this session's stream (headers included).
    pushed: u64,
    /// Tracing only: `(stream offset, span)` marks recording which message
    /// span owns each byte range of the stream, so outgoing segments can be
    /// stamped with their causal parent. Empty when tracing is disabled.
    marks: VecDeque<(u64, SpanId)>,
    /// Consecutive RTO expirations since the last forward ACK.
    consec_rto: u32,
    /// Set once the session is declared dead; no further transmission.
    error: Option<SessionErrorKind>,
}

impl TxState {
    fn fresh(cfg: &TcpConfig) -> Self {
        TxState {
            peer_rwnd: cfg.rwnd_bytes,
            rto: Dur::from_us(cfg.init_rto_us),
            ..TxState::default()
        }
    }
}

/// Receiver-side per-session state.
#[derive(Debug, Default)]
struct RxState {
    rcv_nxt: u64,
    ooo: BTreeMap<u64, Bytes>,
    deframer: Deframer,
}

/// Extracts length-prefixed messages from the in-order byte stream.
#[derive(Debug, Default)]
struct Deframer {
    header: Vec<u8>,
    msg_len: u64,
    msg_off: u64,
    next_msg_id: u64,
}

impl Deframer {
    fn push(&mut self, session: SessionId, mut data: Bytes) -> Vec<(Option<PoeRxMeta>, RxChunk)> {
        let mut out = Vec::new();
        while !data.is_empty() {
            if self.msg_len == 0 {
                // Reading a header.
                let need = TCP_MSG_HEADER_BYTES - self.header.len();
                let take = need.min(data.len());
                self.header.extend_from_slice(&data.split_to(take));
                if self.header.len() < TCP_MSG_HEADER_BYTES {
                    continue;
                }
                let mut len_bytes = [0u8; 8];
                len_bytes.copy_from_slice(&self.header);
                self.header.clear();
                self.msg_len = u64::from_le_bytes(len_bytes);
                self.msg_off = 0;
                assert!(self.msg_len > 0, "zero-length framed message");
                continue;
            }
            let take = ((self.msg_len - self.msg_off) as usize).min(data.len());
            let chunk = data.split_to(take);
            let meta = (self.msg_off == 0).then_some(PoeRxMeta {
                session,
                msg_id: self.next_msg_id,
                len: self.msg_len,
            });
            let offset = self.msg_off;
            self.msg_off += take as u64;
            let last = self.msg_off == self.msg_len;
            out.push((
                meta,
                RxChunk {
                    session,
                    msg_id: self.next_msg_id,
                    offset,
                    data: chunk,
                    last,
                    // Stamped by the caller, which knows the arriving
                    // frame's causality; the deframer only sees bytes.
                    span: SpanId::NONE,
                },
            ));
            if last {
                self.next_msg_id += 1;
                self.msg_len = 0;
                self.msg_off = 0;
            }
        }
        out
    }
}

/// A queued outbound message still waiting for its stream bytes.
#[derive(Debug)]
struct OutMsg {
    cmd: PoeTxCmd,
    remaining: u64,
    header_sent: bool,
}

static STATS: PoeStatKeys = PoeStatKeys {
    tx_credit_blocked: Metric::counter("poe.tcp.tx_credit_blocked"),
    credits_leaked: Metric::counter("poe.tcp.credits_leaked"),
    fcs_dropped: Metric::counter("poe.tcp.frames_corrupted_discarded"),
};

/// The TCP protocol offload engine component.
pub struct TcpPoe {
    cfg: TcpConfig,
    io: PoeIo,
    tx: BTreeMap<SessionId, TxState>,
    rx: BTreeMap<SessionId, RxState>,
    /// Outbound messages in command order (AXI stream discipline).
    out_q: VecDeque<OutMsg>,
    /// Tx data not yet attributed to a message.
    raw: VecDeque<Bytes>,
    raw_len: u64,
    segments_sent: u64,
    acks_sent: u64,
}

impl TcpPoe {
    /// Creates a TCP engine.
    pub fn new(cfg: TcpConfig, net_tx: Endpoint, up: PoeUpward, sessions: SessionTable) -> Self {
        TcpPoe {
            cfg,
            io: PoeIo::new(net_tx, up, sessions, cfg.processing_ns, &STATS),
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            out_q: VecDeque::new(),
            raw: VecDeque::new(),
            raw_len: 0,
            segments_sent: 0,
            acks_sent: 0,
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

    /// Total retransmitted segments across all sessions.
    pub fn retransmissions(&self) -> u64 {
        self.tx.values().map(|s| s.retransmits).sum()
    }

    /// Sessions declared dead so far, in session order (the `tx` map is
    /// keyed by session, so iteration is already ordered).
    pub fn failed_sessions(&self) -> Vec<(SessionId, SessionErrorKind)> {
        self.tx
            .iter()
            .filter_map(|(&s, st)| st.error.map(|k| (s, k)))
            .collect()
    }

    /// Re-establishes `session` of the engine `poe` after a peer restart:
    /// discards the dead connection's sender and receiver state (error
    /// flag, retransmission ladder, sequence cursors, reassembly buffers)
    /// and cancels its retransmission timer, so the next message opens a
    /// fresh conversation with the peer's new incarnation and no deadline
    /// of the old one fires into it. Both sides of a session pair must
    /// start fresh together, or sequence numbers desynchronize: the
    /// peer's side was rebooted — the cluster's rejoin path does that.
    pub fn reinstate_session(sim: &mut Simulator, poe: ComponentId, session: SessionId) {
        let engine = sim.component_mut::<TcpPoe>(poe);
        engine.tx.remove(&session);
        engine.rx.remove(&session);
        sim.cancel_timer(poe, ports::TIMER, rto_slot(session));
    }

    fn tx_state(&mut self, session: SessionId) -> &mut TxState {
        let cfg = &self.cfg;
        self.tx
            .entry(session)
            .or_insert_with(|| TxState::fresh(cfg))
    }

    /// Moves attributable raw bytes into per-session streams, emitting
    /// message headers and local completions along the way.
    fn attribute_data(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(head) = self.out_q.front_mut() {
            if !head.header_sent {
                let header = Bytes::from((head.cmd.len).to_le_bytes().to_vec());
                let session = head.cmd.session;
                let span = head.cmd.span;
                head.header_sent = true;
                if ctx.spans_enabled() {
                    let st = self.tx_state(session);
                    st.marks.push_back((st.pushed, span));
                }
                self.stream_push(ctx, session, header);
                continue;
            }
            if self.raw_len == 0 {
                break;
            }
            let head = self.out_q.front_mut().unwrap();
            let take = head.remaining.min(self.raw_len);
            let mut moved = 0u64;
            let session = head.cmd.session;
            while moved < take {
                let mut buf = self.raw.pop_front().unwrap();
                let n = (take - moved).min(buf.len() as u64);
                let piece = buf.split_to(n as usize);
                if !buf.is_empty() {
                    self.raw.push_front(buf);
                }
                moved += n;
                self.raw_len -= n;
                self.stream_push(ctx, session, piece);
            }
            let head = self.out_q.front_mut().unwrap();
            head.remaining -= take;
            if head.remaining == 0 {
                let msg = self.out_q.pop_front().unwrap();
                match self.session_error(msg.cmd.session) {
                    // A command attributed to a dead session completes in
                    // error: its bytes were consumed but never leave.
                    Some(kind) => self
                        .io
                        .tx_error(ctx, msg.cmd.session, kind, Some(msg.cmd.tag)),
                    None => self.io.tx_done(ctx, &msg.cmd),
                }
            } else {
                break;
            }
        }
    }

    /// The error a session died with, if any.
    fn session_error(&self, session: SessionId) -> Option<SessionErrorKind> {
        self.tx.get(&session).and_then(|st| st.error)
    }

    /// Declares `session` dead: releases all buffered stream state, disarms
    /// the timer and emits the session-fatal error completion. Commands
    /// still queued (or issued later) for the session complete in error as
    /// their stream bytes are consumed.
    fn abort_session(&mut self, ctx: &mut Ctx<'_>, session: SessionId, kind: SessionErrorKind) {
        ctx.cancel_timer(ports::TIMER, rto_slot(session));
        let st = self.tx_state(session);
        st.error = Some(kind);
        st.unacked.clear();
        st.pending.clear();
        st.pending_len = 0;
        st.rtt_probe = None;
        st.marks.clear();
        ctx.stats().add(&TCP_SESSION_ERRORS, 1);
        self.io.tx_error(ctx, session, kind, None);
    }

    fn stream_push(&mut self, ctx: &mut Ctx<'_>, session: SessionId, data: Bytes) {
        let st = self.tx_state(session);
        st.pushed += data.len() as u64;
        if st.error.is_some() {
            // Dead session: consume (and discard) the bytes so attribution
            // of later commands on other sessions keeps flowing.
            return;
        }
        st.pending_len += data.len() as u64;
        st.pending.push_back(data);
        self.try_send(ctx, session);
    }

    /// The span owning stream byte `seq`: the last mark at or before it.
    fn mark_span(st: &TxState, seq: u64) -> SpanId {
        let mut span = SpanId::NONE;
        for &(start, s) in &st.marks {
            if start <= seq {
                span = s;
            } else {
                break;
            }
        }
        span
    }

    fn try_send(&mut self, ctx: &mut Ctx<'_>, session: SessionId) {
        let mss = u64::from(self.cfg.mss);
        let (peer, peer_session) = self.io.peer(session);
        let cfg = &self.cfg;
        let st = self
            .tx
            .entry(session)
            .or_insert_with(|| TxState::fresh(cfg));
        loop {
            let inflight = st.snd_nxt - st.snd_una;
            if st.pending_len == 0 || inflight >= st.peer_rwnd {
                break;
            }
            let n = mss.min(st.pending_len).min(st.peer_rwnd - inflight);
            // Zero-copy fast path: the head buffer covers the whole
            // segment, so slice it instead of copying — the common case
            // when a DMA read delivered the message as one refcounted chunk.
            let head = st.pending.front_mut().unwrap();
            let data = if head.len() as u64 >= n {
                let piece = head.split_to(n as usize);
                if head.is_empty() {
                    st.pending.pop_front();
                }
                piece
            } else {
                // Gather across pending chunks into one buffer.
                let mut buf = BytesMut::with_capacity(n as usize);
                while (buf.len() as u64) < n {
                    let head = st.pending.front_mut().unwrap();
                    let take = ((n as usize) - buf.len()).min(head.len());
                    buf.extend_from_slice(&head.split_to(take));
                    if head.is_empty() {
                        st.pending.pop_front();
                    }
                }
                buf.freeze()
            };
            st.pending_len -= n;
            let seq = st.snd_nxt;
            st.snd_nxt += n;
            st.unacked.push_back((seq, data.clone()));
            if st.rtt_probe.is_none() {
                st.rtt_probe = Some((seq + n, ctx.now()));
            }
            self.segments_sent += 1;
            let span = self.io.seg_span(ctx, Self::mark_span(st, seq), n);
            let seg = TcpSegment {
                dst_session: peer_session,
                seq,
                data,
            };
            self.io.send_data(ctx, peer, n as u32, span, seg);
        }
        if !st.unacked.is_empty() && !ctx.timer_pending(ports::TIMER, rto_slot(session)) {
            Self::arm_rto(ctx, st, session);
        }
    }

    /// (Re-)arms `session`'s retransmission timer at the current RTO.
    fn arm_rto(ctx: &mut Ctx<'_>, st: &TxState, session: SessionId) {
        ctx.arm_timer(
            ports::TIMER,
            rto_slot(session),
            st.rto,
            RtoTimer { session },
        );
    }

    fn retransmit_head(&mut self, ctx: &mut Ctx<'_>, session: SessionId) {
        let (peer, peer_session) = self.io.peer(session);
        let st = self.tx_state(session);
        let Some(&(seq, ref data)) = st.unacked.front() else {
            return;
        };
        let data = data.clone();
        st.retransmits += 1;
        // An RTT measured across a retransmission would be ambiguous (Karn).
        st.rtt_probe = None;
        let parent = Self::mark_span(st, seq);
        ctx.stats().add(&TCP_RETRANSMITS, 1);
        accl_sim::trace_instant!(ctx, "poe.retransmit", parent);
        self.segments_sent += 1;
        // The retransmission rides its message's span directly: no new
        // `poe.seg` span.
        let seg = TcpSegment {
            dst_session: peer_session,
            seq,
            data,
        };
        self.io
            .send_data(ctx, peer, seg.data.len() as u32, parent, seg);
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>, ack: TcpAck) {
        let session = ack.dst_session;
        let min_rto = Dur::from_us(self.cfg.min_rto_us);
        let max_rto = Dur::from_us(self.cfg.max_rto_us);
        let now = ctx.now();
        let st = self.tx_state(session);
        if st.error.is_some() {
            // Late ACK to a session already declared dead.
            return;
        }
        st.peer_rwnd = ack.window;
        if ack.ack > st.snd_una {
            st.snd_una = ack.ack;
            st.dup_acks = 0;
            st.consec_rto = 0;
            // Marks below the cumulative ACK can no longer be retransmitted.
            while st.marks.len() >= 2 && st.marks[1].0 <= st.snd_una {
                st.marks.pop_front();
            }
            while let Some(&(seq, ref data)) = st.unacked.front() {
                if seq + data.len() as u64 <= st.snd_una {
                    st.unacked.pop_front();
                } else {
                    break;
                }
            }
            if let Some((probe_end, sent_at)) = st.rtt_probe {
                if st.snd_una >= probe_end {
                    let sample = now.since(sent_at).as_us_f64();
                    match st.srtt_us {
                        None => {
                            st.srtt_us = Some(sample);
                            st.rttvar_us = sample / 2.0;
                        }
                        Some(srtt) => {
                            st.rttvar_us = 0.75 * st.rttvar_us + 0.25 * (srtt - sample).abs();
                            st.srtt_us = Some(0.875 * srtt + 0.125 * sample);
                        }
                    }
                    let rto = Dur::from_us_f64(st.srtt_us.unwrap() + 4.0 * st.rttvar_us);
                    st.rto = rto.max(min_rto).min(max_rto);
                    st.rtt_probe = None;
                }
            }
            if st.unacked.is_empty() {
                ctx.cancel_timer(ports::TIMER, rto_slot(session));
            } else {
                Self::arm_rto(ctx, st, session);
            }
            self.try_send(ctx, session);
        } else if !st.unacked.is_empty() {
            st.dup_acks += 1;
            if st.dup_acks == 3 {
                st.dup_acks = 0;
                self.retransmit_head(ctx, session);
            }
        }
    }

    fn on_segment(&mut self, ctx: &mut Ctx<'_>, seg: TcpSegment, rx_span: SpanId) {
        let session = seg.dst_session;
        let (peer, peer_session) = self.io.peer(session);
        let rwnd = self.cfg.rwnd_bytes;
        let st = self.rx.entry(session).or_default();
        let mut deliveries = Vec::new();
        let seg_len = seg.data.len() as u64;
        if seg.seq == st.rcv_nxt {
            st.rcv_nxt += seg_len;
            deliveries.extend(st.deframer.push(session, seg.data));
            // Drain now-contiguous out-of-order segments.
            while let Some((&seq, _)) = st.ooo.first_key_value() {
                if seq != st.rcv_nxt {
                    break;
                }
                let (_, data) = st.ooo.pop_first().unwrap();
                st.rcv_nxt += data.len() as u64;
                deliveries.extend(st.deframer.push(session, data));
            }
        } else if seg.seq > st.rcv_nxt {
            st.ooo.entry(seg.seq).or_insert(seg.data);
        } // else: duplicate of already-delivered data; drop.
        let ack = TcpAck {
            dst_session: peer_session,
            ack: st.rcv_nxt,
            window: rwnd,
        };
        self.acks_sent += 1;
        self.io.send_control(ctx, peer, rx_span, ack);
        for (meta, chunk) in deliveries {
            let chunk = RxChunk {
                span: rx_span,
                ..chunk
            };
            self.io.deliver(ctx, meta, chunk);
        }
    }
}

impl Component for TcpPoe {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::TX_CMD => {
                let cmd = payload.downcast::<PoeTxCmd>();
                assert!(
                    matches!(cmd.kind, TxKind::Send),
                    "TCP engine supports only two-sided sends, got {:?}",
                    cmd.kind
                );
                assert!(cmd.len > 0, "zero-length Tx command");
                self.out_q.push_back(OutMsg {
                    cmd,
                    remaining: cmd.len,
                    header_sent: false,
                });
                self.attribute_data(ctx);
            }
            ports::TX_DATA => {
                let chunk = payload.downcast::<StreamChunk>();
                self.raw_len += chunk.data.len() as u64;
                self.raw.push_back(chunk.data);
                self.attribute_data(ctx);
            }
            ports::NET_RX => {
                // Bad CRC: drop at the MAC. The sender's RTO / fast
                // retransmit recovers the lost bytes. A fence (the peer
                // restarted, or was found failed) ends the half-received
                // messages of its fenced incarnation.
                let (frame, corrupted) = match self.io.rx_admit(ctx, payload, self.cfg.verify_fcs) {
                    RxAdmit::Frame(frame, corrupted) => (frame, corrupted),
                    RxAdmit::Fenced(peer) => {
                        return self.rx.retain(|&s, _| self.io.peer(s).0 != peer)
                    }
                    RxAdmit::Dropped => return,
                };
                if !frame.body.is::<TcpSegment>() {
                    return self.on_ack(ctx, frame.body.downcast::<TcpAck>());
                }
                let rx_span = self.io.rx_span(ctx, &frame);
                let mut seg = frame.body.downcast::<TcpSegment>();
                if corrupted && !seg.data.is_empty() {
                    // FCS check deliberately disabled (chaos-harness
                    // self-test): the corruption reaches the stream.
                    let mut bytes = seg.data.to_vec();
                    bytes[0] ^= 0xff;
                    seg.data = Bytes::from(bytes);
                }
                self.on_segment(ctx, seg, rx_span)
            }
            ports::TIMER => {
                let session = payload.downcast::<RtoTimer>().session;
                let max_rto = Dur::from_us(self.cfg.max_rto_us);
                let max_retransmits = self.cfg.max_retransmits;
                let st = self.tx_state(session);
                // An ACK that empties the window cancels the timer.
                debug_assert!(!st.unacked.is_empty(), "RTO fired with nothing unacked");
                st.consec_rto += 1;
                if st.consec_rto > max_retransmits {
                    // Fail-stop detection: the peer never acknowledged any
                    // progress across the whole backoff ladder.
                    self.abort_session(ctx, session, SessionErrorKind::RetransmitLimit);
                    return;
                }
                st.rto = (st.rto * 2).min(max_rto);
                self.retransmit_head(ctx, session);
                let st = self.tx_state(session);
                Self::arm_rto(ctx, st, session);
            }
            ports::CREDIT => self.io.on_credit(ctx, payload),
            other => panic!("TCP engine has no port {other:?}"),
        }
    }

    fn resource_state(&self) -> Option<ResourceState> {
        self.io.tx_credit_gate().state()
    }

    fn parked_work(&self) -> Option<ParkedWork> {
        // Frames stuck behind a dry tx credit window block everything else.
        if let Some(parked) = self.io.tx_credit_gate().parked_work() {
            return Some(parked);
        }
        // Oldest command still waiting for its stream bytes: attribution is
        // FIFO across sessions, so a starved head blocks everything behind.
        if let Some(head) = self.out_q.front() {
            return Some(ParkedWork {
                rank: None,
                op: format!(
                    "tcp tx tag={} session={}: awaiting {} stream bytes",
                    head.cmd.tag, head.cmd.session.0, head.remaining
                ),
            });
        }
        // Live sessions holding unsent or unacknowledged bytes (lowest
        // session id first, for deterministic reports).
        let stuck = self
            .tx
            .iter()
            .filter(|(_, st)| st.error.is_none() && (st.pending_len > 0 || !st.unacked.is_empty()))
            .min_by_key(|(&s, _)| s);
        if let Some((&s, st)) = stuck {
            let unacked: u64 = st.unacked.iter().map(|(_, d)| d.len() as u64).sum();
            return Some(ParkedWork {
                rank: None,
                op: format!(
                    "tcp session {}: {} bytes unacked, {} bytes pending",
                    s.0, unacked, st.pending_len
                ),
            });
        }
        // Receive side: a message cut off mid-stream.
        let partial = self
            .rx
            .iter()
            .filter(|(_, st)| {
                !st.ooo.is_empty() || st.deframer.msg_len > 0 || !st.deframer.header.is_empty()
            })
            .min_by_key(|(&s, _)| s);
        if let Some((&s, st)) = partial {
            return Some(ParkedWork {
                rank: None,
                op: format!(
                    "tcp session {}: partial rx message at offset {} of {}",
                    s.0, st.deframer.msg_off, st.deframer.msg_len
                ),
            });
        }
        None
    }

    fn state_digest(&self) -> Option<u64> {
        // Wire totals, queue depths, credit-window accounting, and the
        // per-session stream positions (BTreeMap order is canonical).
        let mut h = 0u64;
        let mut fold = |v: u64| accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        for v in [
            self.segments_sent,
            self.acks_sent,
            self.io.fcs_dropped(),
            self.raw_len,
            self.out_q.len() as u64,
        ] {
            fold(v);
        }
        for (s, st) in &self.tx {
            fold(u64::from(s.0));
            fold(st.snd_una);
            fold(st.snd_nxt);
            fold(st.retransmits);
        }
        for (s, st) in &self.rx {
            fold(u64::from(s.0));
            fold(st.rcv_nxt);
            fold(st.ooo.len() as u64);
        }
        self.io.tx_credit_gate().fold_digest(&mut h);
        self.io.fold_fences(&mut h);
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::CompletionLog;
    use accl_net::{FaultPlan, NetConfig, Network};

    struct Bench {
        sim: Simulator,
        net: Network,
        poes: Vec<ComponentId>,
        metas: Vec<ComponentId>,
        datas: Vec<ComponentId>,
        dones: Vec<ComponentId>,
    }

    fn bench_cfg(n: usize, cfg: TcpConfig) -> Bench {
        let mut sim = Simulator::new(0);
        let net = Network::build(&mut sim, NetConfig::default(), n);
        let (mut poes, mut metas, mut datas, mut dones) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            let meta = sim.add(format!("meta{i}"), Mailbox::<PoeRxMeta>::new());
            let data = sim.add(format!("data{i}"), Mailbox::<RxChunk>::new());
            let done = sim.add(format!("done{i}"), CompletionLog::new());
            let mut sessions = SessionTable::new();
            for j in 0..n {
                if i != j {
                    sessions.connect(SessionId(j as u32), net.addr(j), SessionId(i as u32));
                }
            }
            let poe = sim.add(
                format!("tcp{i}"),
                TcpPoe::new(
                    cfg,
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

    fn bench(n: usize) -> Bench {
        bench_cfg(n, TcpConfig::default())
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

    fn received(b: &Bench, node: usize, len: usize) -> Vec<u8> {
        let mut got = vec![0u8; len];
        for (_, c) in b.sim.component::<Mailbox<RxChunk>>(b.datas[node]).items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        got
    }

    #[test]
    fn message_delivered_reliably_and_framed() {
        let mut b = bench(2);
        let msg: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 9);
        b.sim.run();
        let metas = b.sim.component::<Mailbox<PoeRxMeta>>(b.metas[1]);
        assert_eq!(metas.len(), 1);
        assert_eq!(metas.items()[0].1.len, 50_000);
        assert_eq!(received(&b, 1, msg.len()), msg);
        assert_eq!(
            b.sim.component::<CompletionLog>(b.dones[0]).dones()[0]
                .1
                .tag,
            9
        );
        assert_eq!(b.sim.component::<TcpPoe>(b.poes[0]).retransmissions(), 0);
    }

    #[test]
    fn multiple_messages_framed_separately() {
        let mut b = bench(2);
        send(&mut b, 0, 1, vec![1u8; 6000], 1);
        send(&mut b, 0, 1, vec![2u8; 3000], 2);
        b.sim.run();
        let metas = b.sim.component::<Mailbox<PoeRxMeta>>(b.metas[1]);
        assert_eq!(metas.len(), 2);
        assert_eq!(metas.items()[0].1.len, 6000);
        assert_eq!(metas.items()[1].1.len, 3000);
        assert_eq!(metas.items()[0].1.msg_id, 0);
        assert_eq!(metas.items()[1].1.msg_id, 1);
        // All chunk bytes of msg 1 are the value 2.
        let datas = b.sim.component::<Mailbox<RxChunk>>(b.datas[1]);
        for (_, c) in datas.items() {
            if c.msg_id == 1 {
                assert!(c.data.iter().all(|&x| x == 2));
            }
        }
    }

    #[test]
    fn drop_recovers_by_retransmission() {
        let mut b = bench(2);
        // Drop the 3rd frame the switch sees (a data segment mid-message).
        b.net
            .set_fault_plan(&mut b.sim, FaultPlan::drop_frames([2]));
        let msg: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 0);
        b.sim.run();
        assert_eq!(received(&b, 1, msg.len()), msg);
        assert!(b.sim.component::<TcpPoe>(b.poes[0]).retransmissions() >= 1);
        // The last chunk must carry the completion flag exactly once.
        let lasts = b
            .sim
            .component::<Mailbox<RxChunk>>(b.datas[1])
            .values()
            .filter(|c| c.last)
            .count();
        assert_eq!(lasts, 1);
    }

    #[test]
    fn corruption_is_discarded_and_recovers_by_retransmission() {
        let mut b = bench(2);
        // Flip bits in the 3rd frame the switch sees (a data segment).
        b.net
            .set_fault_plan(&mut b.sim, FaultPlan::corrupt_frames([2]));
        let msg: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 0);
        b.sim.run();
        // FCS check discards the mangled segment; the retransmit path
        // restores the exact bytes.
        assert_eq!(received(&b, 1, msg.len()), msg);
        let rx_poe = b.sim.component::<TcpPoe>(b.poes[1]);
        assert_eq!(rx_poe.io().fcs_dropped(), 1);
        assert!(b.sim.component::<TcpPoe>(b.poes[0]).retransmissions() >= 1);
    }

    #[test]
    fn disabled_fcs_check_delivers_corrupted_bytes() {
        // Self-test for the chaos harness: with verification off, the
        // corrupted segment reaches the application and the payload is
        // observably wrong. This is the "deliberately injected bug" the
        // invariant checker must catch.
        let cfg = TcpConfig {
            verify_fcs: false,
            ..TcpConfig::default()
        };
        let mut b = bench_cfg(2, cfg);
        b.net
            .set_fault_plan(&mut b.sim, FaultPlan::corrupt_frames([2]));
        let msg: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 0);
        b.sim.run();
        let got = received(&b, 1, msg.len());
        assert_ne!(got, msg, "corruption should be visible with FCS off");
        assert_eq!(b.sim.component::<TcpPoe>(b.poes[1]).io().fcs_dropped(), 0);
    }

    #[test]
    fn duplicated_frames_deliver_exactly_once() {
        let mut b = bench(2);
        b.net
            .set_fault_plan(&mut b.sim, FaultPlan::duplicate_frames([1, 3]));
        let msg: Vec<u8> = (0..40_000u32).map(|i| (i % 249) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 0);
        b.sim.run();
        assert_eq!(received(&b, 1, msg.len()), msg);
        // Duplicate segments are old news to the cumulative-ACK receiver:
        // total delivered bytes must match exactly.
        let total: usize = b
            .sim
            .component::<Mailbox<RxChunk>>(b.datas[1])
            .values()
            .map(|c| c.data.len())
            .sum();
        assert_eq!(total, msg.len(), "duplicate delivery leaked upward");
    }

    #[test]
    fn heavy_random_loss_still_delivers_exactly_once() {
        let mut b = bench(2);
        b.net
            .set_fault_plan(&mut b.sim, FaultPlan::random_loss(0.05));
        let msg: Vec<u8> = (0..100_000u32).map(|i| (i % 247) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 0);
        b.sim.run();
        assert_eq!(received(&b, 1, msg.len()), msg);
        let total: usize = b
            .sim
            .component::<Mailbox<RxChunk>>(b.datas[1])
            .values()
            .map(|c| c.data.len())
            .sum();
        assert_eq!(total, msg.len(), "duplicate or missing delivery");
    }

    #[test]
    fn reordering_is_repaired_by_ooo_buffer() {
        let mut b = bench(2);
        b.net
            .set_fault_plan(&mut b.sim, FaultPlan::delay_frames([1], Dur::from_us(50)));
        let msg: Vec<u8> = (0..40_000u32).map(|i| (i % 241) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 0);
        b.sim.run();
        assert_eq!(received(&b, 1, msg.len()), msg);
        // Offsets must be delivered upward in order despite wire reordering.
        let offs: Vec<u64> = b
            .sim
            .component::<Mailbox<RxChunk>>(b.datas[1])
            .values()
            .map(|c| c.offset)
            .collect();
        let mut sorted = offs.clone();
        sorted.sort_unstable();
        assert_eq!(offs, sorted);
    }

    #[test]
    fn window_limits_inflight_bytes() {
        // Tiny window: 2 segments' worth. Transfer still completes, just
        // with ACK-paced round trips.
        let cfg = TcpConfig {
            rwnd_bytes: 8192,
            ..TcpConfig::default()
        };
        let mut b = bench_cfg(2, cfg);
        let msg = vec![5u8; 64 * 1024];
        send(&mut b, 0, 1, msg.clone(), 0);
        b.sim.run();
        assert_eq!(received(&b, 1, msg.len()), msg);
        // With ~2.2 us RTT and 8 KiB windows, 64 KiB takes at least 8 RTTs.
        assert!(b.sim.now().as_us_f64() > 15.0, "now={}", b.sim.now());
    }

    #[test]
    fn throughput_near_line_rate_with_default_window() {
        let mut b = bench(2);
        let len = 4 << 20;
        send(&mut b, 0, 1, vec![3u8; len], 0);
        b.sim.run();
        let t = b
            .sim
            .component::<Mailbox<RxChunk>>(b.datas[1])
            .last_arrival()
            .unwrap();
        let gbps = (len as f64) * 8.0 / t.as_ns_f64();
        assert!(gbps > 90.0, "goodput={gbps:.1} Gb/s");
    }

    #[test]
    fn bidirectional_sessions_are_independent() {
        let mut b = bench(2);
        send(&mut b, 0, 1, vec![1u8; 10_000], 0);
        send(&mut b, 1, 0, vec![2u8; 20_000], 0);
        b.sim.run();
        assert_eq!(received(&b, 1, 10_000), vec![1u8; 10_000]);
        assert_eq!(received(&b, 0, 20_000), vec![2u8; 20_000]);
    }

    #[test]
    fn many_sessions_one_node() {
        // One sender fanning out to 7 receivers concurrently.
        let mut b = bench(8);
        for dst in 1..8 {
            send(&mut b, 0, dst, vec![dst as u8; 8192], dst as u64);
        }
        b.sim.run();
        for dst in 1..8 {
            assert_eq!(received(&b, dst, 8192), vec![dst as u8; 8192]);
        }
        assert_eq!(
            b.sim.component::<CompletionLog>(b.dones[0]).dones().len(),
            7
        );
    }

    #[test]
    fn peer_crash_aborts_after_bounded_retransmissions() {
        let mut b = bench(2);
        // Node 1 fail-stops before anything is exchanged.
        b.net.crash_node(&mut b.sim, 1, Time::ZERO);
        send(&mut b, 0, 1, vec![9u8; 20_000], 7);
        let out = b.sim.run();
        // The abort releases all parked state, so the run drains cleanly
        // instead of hanging or looping on retransmissions forever.
        assert_eq!(out, RunOutcome::Drained, "outcome: {out:?}");
        let log = b.sim.component::<CompletionLog>(b.dones[0]);
        assert_eq!(log.errors().len(), 1, "errors: {:?}", log.errors());
        let (at, err) = log.errors()[0];
        assert_eq!(err.session, SessionId(1));
        assert_eq!(err.kind, SessionErrorKind::RetransmitLimit);
        assert_eq!(err.tag, None);
        // Exactly the configured number of RTO retransmissions happened.
        let poe = b.sim.component::<TcpPoe>(b.poes[0]);
        assert_eq!(
            poe.retransmissions(),
            u64::from(TcpConfig::default().max_retransmits)
        );
        assert_eq!(
            poe.failed_sessions(),
            vec![(SessionId(1), SessionErrorKind::RetransmitLimit)]
        );
        // Detection latency is bounded by the RTO backoff ladder.
        assert!(at < Time::from_ms(100), "abort at {at}");
        // Nothing ever reached the crashed peer.
        assert_eq!(b.sim.component::<Mailbox<PoeRxMeta>>(b.metas[1]).len(), 0);
    }

    #[test]
    fn link_flap_recovers_within_retransmit_budget() {
        let mut b = bench(2);
        // Node 1's link is dark for the first 500 µs, then heals.
        b.net
            .link_down(&mut b.sim, 1, Time::ZERO, Time::from_us(500));
        let msg: Vec<u8> = (0..30_000u32).map(|i| (i % 227) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 4);
        b.sim.run();
        // Retransmission rode out the outage: delivered exactly once, no
        // session error.
        assert_eq!(received(&b, 1, msg.len()), msg);
        let poe = b.sim.component::<TcpPoe>(b.poes[0]);
        assert!(poe.retransmissions() >= 1);
        assert!(poe.failed_sessions().is_empty());
        assert!(b
            .sim
            .component::<CompletionLog>(b.dones[0])
            .errors()
            .is_empty());
    }

    #[test]
    fn command_on_dead_session_completes_in_error() {
        let mut b = bench(2);
        b.net.crash_node(&mut b.sim, 1, Time::ZERO);
        send(&mut b, 0, 1, vec![1u8; 4096], 1);
        b.sim.run();
        // Session is dead now; a later command still gets a completion —
        // an error one, tagged with the command's tag.
        send(&mut b, 0, 1, vec![2u8; 4096], 2);
        let out = b.sim.run();
        assert_eq!(out, RunOutcome::Drained, "outcome: {out:?}");
        let log = b.sim.component::<CompletionLog>(b.dones[0]);
        let tags: Vec<Option<u64>> = log.errors().iter().map(|&(_, e)| e.tag).collect();
        assert!(
            tags.contains(&None),
            "session-fatal error missing: {tags:?}"
        );
        assert!(tags.contains(&Some(2)), "command error missing: {tags:?}");
    }

    #[test]
    fn tx_credit_window_backpressures_and_still_delivers() {
        let mut b = bench(2);
        b.sim
            .component_mut::<TcpPoe>(b.poes[0])
            .io_mut()
            .set_tx_credit_window(Some(2), "net.txcredit(n0)");
        let msg: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
        send(&mut b, 0, 1, msg.clone(), 1);
        b.sim.run();
        assert_eq!(received(&b, 1, msg.len()), msg);
        let gate = b.sim.component::<TcpPoe>(b.poes[0]).io().tx_credit_gate();
        assert!(!gate.blocked(), "gate must drain once the wire frees up");
        assert_eq!(gate.in_flight(), 0, "all credits returned");
    }

    #[test]
    fn stall_watchdog_names_starved_tx_command() {
        let mut b = bench(2);
        // A command whose stream data never arrives: the engine parks it.
        b.sim.post(
            Endpoint::new(b.poes[0], ports::TX_CMD),
            Time::ZERO,
            PoeTxCmd {
                session: SessionId(1),
                len: 1000,
                kind: TxKind::Send,
                tag: 42,
                span: SpanId::NONE,
            },
        );
        match b.sim.run() {
            RunOutcome::Stalled(report) => {
                assert_eq!(report.component, "tcp0");
                assert!(
                    report.op.contains("awaiting 1000 stream bytes"),
                    "op: {}",
                    report.op
                );
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }
}
