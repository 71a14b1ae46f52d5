//! RDMA protocol offload engine.
//!
//! Models the Coyote RDMA stack (RoCE-style) the paper builds on: queue
//! pairs, two-sided SEND verbs delivered through the Rx meta/data
//! interfaces, one-sided WRITE verbs placed directly into the passive
//! side's virtualized memory (bypassing the CCLO, §4.3), and token-based
//! flow control — the property that makes rendezvous collectives with
//! tree/recursive-doubling patterns safe on this transport (§4.4.4).

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use accl_mem::bus::{ports as mem_ports, MemAddr, MemWriteReq};
use accl_sim::prelude::*;
use accl_sim::trace::SpanId;

use crate::iface::{
    ports, PoeIo, PoeStatKeys, PoeTxCmd, PoeUpward, RxAdmit, RxDemux, SessionErrorKind, SessionId,
    SessionTable, StreamChunk, TxAssembler, TxKind, TxSegment,
};

static RDMA_QP_ERRORS: Metric = Metric::counter("poe.rdma.qp_errors");
static RDMA_RETRANSMISSIONS: Metric = Metric::counter("poe.rdma.retransmissions");
static RDMA_RX_GAP_NAKS: Metric = Metric::counter("poe.rdma.rx_gap_naks");
static RDMA_RX_DUPLICATES: Metric = Metric::counter("poe.rdma.rx_duplicates");
static RDMA_RTO_FIRED: Metric = Metric::counter("poe.rdma.rto_fired");

/// Token-starvation watchdog: the deadline of the QP's
/// [`starve_slot`] kernel timer.
#[derive(Debug, Clone, Copy)]
struct StarveTimer {
    qp: SessionId,
}

/// Retransmission timeout: the deadline of the QP's [`rto_slot`] kernel
/// timer.
#[derive(Debug, Clone, Copy)]
struct RtoTimer {
    qp: SessionId,
}

/// The kernel timer slot key of `qp`'s retransmission timer.
fn rto_slot(qp: SessionId) -> u64 {
    u64::from(qp.0)
}

/// The kernel timer slot key of `qp`'s starvation watchdog (kept apart
/// from [`rto_slot`] on the shared timer port).
fn starve_slot(qp: SessionId) -> u64 {
    1 << 32 | u64::from(qp.0)
}

/// RDMA wire protocol data units.
#[derive(Debug, Clone)]
pub enum RdmaPdu {
    /// Two-sided SEND fragment.
    Send {
        /// Receiver-local queue pair.
        dst_qp: SessionId,
        /// Packet sequence number of this fragment (per direction per QP).
        psn: u64,
        /// Sender-assigned message id.
        msg_id: u64,
        /// Fragment offset within the message.
        offset: u64,
        /// Total message length.
        total: u64,
        /// Fragment payload.
        data: Bytes,
    },
    /// One-sided WRITE fragment.
    Write {
        /// Receiver-local queue pair.
        dst_qp: SessionId,
        /// Packet sequence number of this fragment.
        psn: u64,
        /// Message id (tags the passive side's memory write).
        msg_id: u64,
        /// Base virtual address of the destination buffer.
        addr: u64,
        /// Fragment offset within the message.
        offset: u64,
        /// Total message length.
        total: u64,
        /// Fragment payload.
        data: Bytes,
    },
    /// Cumulative acknowledgement doubling as flow-control credit return.
    Credit {
        /// Receiver-local queue pair (the original sender's side).
        dst_qp: SessionId,
        /// Highest in-order PSN received, exclusive: everything below this
        /// landed and its tokens are free again.
        ack_psn: u64,
    },
    /// Out-of-order arrival report: asks the sender to go back to
    /// `expected_psn` and retransmit from there.
    Nak {
        /// Receiver-local queue pair (the original sender's side).
        dst_qp: SessionId,
        /// Next PSN the receiver expects (doubles as a cumulative ack).
        expected_psn: u64,
    },
}

/// Configuration of the RDMA engine.
#[derive(Debug, Clone, Copy)]
pub struct RdmaConfig {
    /// Maximum payload per fragment.
    pub mtu: u32,
    /// Pipelined per-fragment processing latency, ns.
    pub processing_ns: u64,
    /// Token window: maximum in-flight (uncredited) fragments per QP.
    pub token_window: u32,
    /// Receiver returns credits in batches of this many fragments.
    pub credit_batch: u32,
    /// A queue pair stalled on tokens for this long with no credit arriving
    /// transitions to the error state (fail-stop peer detection). Credit
    /// round trips are a few µs here, so the default is very conservative.
    pub starvation_timeout_us: u64,
    /// Initial retransmission timeout, µs. Doubles on each consecutive
    /// go-back-N round without ack progress (capped at 64×). Must be well
    /// below `starvation_timeout_us` for transient loss to be repaired
    /// before the fail-stop watchdog gives up, and the cumulative ladder
    /// to `max_retransmits` must exceed it so a genuinely dead peer is
    /// diagnosed as starvation, not as a retransmission failure.
    pub rto_us: u64,
    /// Consecutive go-back-N rounds without cumulative-ack progress before
    /// the QP transitions to the error state.
    pub max_retransmits: u32,
}

impl Default for RdmaConfig {
    fn default() -> Self {
        RdmaConfig {
            mtu: accl_net::DEFAULT_MTU,
            processing_ns: 60,
            token_window: 64,
            credit_batch: 16,
            starvation_timeout_us: 1_000,
            rto_us: 100,
            max_retransmits: 8,
        }
    }
}

/// Per-queue-pair reliable-delivery sender state (go-back-N).
#[derive(Debug, Default)]
struct QpTx {
    /// PSN of the next fresh fragment.
    next_psn: u64,
    /// Cumulative PSN acknowledged by the peer (exclusive).
    acked_psn: u64,
    /// Transmitted, unacknowledged fragments with their PSNs.
    unacked: VecDeque<(u64, TxSegment)>,
    /// Consecutive retransmission rounds without ack progress.
    retries: u32,
}

static STATS: PoeStatKeys = PoeStatKeys {
    tx_credit_blocked: Metric::counter("poe.rdma.tx_credit_blocked"),
    credits_leaked: Metric::counter("poe.rdma.credits_leaked"),
    fcs_dropped: Metric::counter("poe.rdma.frames_corrupted_discarded"),
};

/// The RDMA protocol offload engine component.
pub struct RdmaPoe {
    cfg: RdmaConfig,
    io: PoeIo,
    /// The local memory bus, for passive-side WRITE placement.
    mem_bus: Option<ComponentId>,
    assembler: TxAssembler,
    demux: RxDemux,
    /// Per-QP reliable sender state (window accounting + go-back-N).
    tx: BTreeMap<SessionId, QpTx>,
    /// Fragments waiting for tokens, per QP.
    stalled: BTreeMap<SessionId, VecDeque<TxSegment>>,
    /// Receiver-side next expected PSN per local QP.
    expected_psn: BTreeMap<SessionId, u64>,
    /// `expected_psn` value of the last NAK sent per local QP; one NAK per
    /// gap, not one per out-of-order arrival behind it.
    last_nak: BTreeMap<SessionId, u64>,
    /// Receiver-side pending credit counts per peer QP.
    owed_credits: BTreeMap<SessionId, u32>,
    /// Queue pairs in the error state.
    qp_error: BTreeMap<SessionId, SessionErrorKind>,
    frames_sent: u64,
    frames_received: u64,
    retransmissions: u64,
}

impl RdmaPoe {
    /// Creates an RDMA engine.
    pub fn new(cfg: RdmaConfig, net_tx: Endpoint, up: PoeUpward, sessions: SessionTable) -> Self {
        RdmaPoe {
            cfg,
            io: PoeIo::new(net_tx, up, sessions, cfg.processing_ns, &STATS),
            mem_bus: None,
            assembler: TxAssembler::new(),
            demux: RxDemux::new(),
            tx: BTreeMap::new(),
            stalled: BTreeMap::new(),
            expected_psn: BTreeMap::new(),
            last_nak: BTreeMap::new(),
            owed_credits: BTreeMap::new(),
            qp_error: BTreeMap::new(),
            frames_sent: 0,
            frames_received: 0,
            retransmissions: 0,
        }
    }

    /// Attaches the local memory bus used for passive WRITE placement.
    pub fn with_mem_bus(mut self, bus: ComponentId) -> Self {
        self.mem_bus = Some(bus);
        self
    }

    /// The engine's I/O edge: credit gate and Rx FCS drop count.
    pub fn io(&self) -> &PoeIo {
        &self.io
    }

    /// Mutable access to the engine's I/O edge (to bound its credit window).
    pub fn io_mut(&mut self) -> &mut PoeIo {
        &mut self.io
    }

    /// Fragments received so far.
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Go-back-N segment retransmissions so far.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Queue pairs in the error state, in QP order (the map is keyed by
    /// QP, so iteration is already ordered).
    pub fn failed_qps(&self) -> Vec<(SessionId, SessionErrorKind)> {
        self.qp_error.iter().map(|(&q, &k)| (q, k)).collect()
    }

    /// Re-establishes `qp` of the engine `poe` after a peer restart: drops
    /// the error state and every per-QP protocol variable (window
    /// accounting, PSN cursors, stalled fragments, owed credits, received
    /// message ids) and cancels the QP's timers, so the next message
    /// starts a fresh conversation with the peer's new incarnation and no
    /// deadline of the old one fires into it. Both directions of a QP pair
    /// start fresh together: the peer's side is reinstated too, or was
    /// rebooted — the cluster's rejoin path does that.
    pub fn reinstate_qp(sim: &mut Simulator, poe: ComponentId, qp: SessionId) {
        let engine = sim.component_mut::<RdmaPoe>(poe);
        engine.qp_error.remove(&qp);
        engine.tx.remove(&qp);
        engine.stalled.remove(&qp);
        engine.expected_psn.remove(&qp);
        engine.last_nak.remove(&qp);
        engine.owed_credits.remove(&qp);
        engine.demux.forget(qp);
        sim.cancel_timer(poe, ports::TIMER, rto_slot(qp));
        sim.cancel_timer(poe, ports::TIMER, starve_slot(qp));
    }

    /// Whether `qp` may put one more fragment in flight. An idle QP always
    /// may, so even a zero window cannot deadlock it.
    fn has_token(&self, qp: SessionId) -> bool {
        let inflight = self.tx.get(&qp).map_or(0, |st| st.next_psn - st.acked_psn);
        inflight < u64::from(self.cfg.token_window.max(1))
    }

    fn arm_starve_timer(&mut self, ctx: &mut Ctx<'_>, qp: SessionId) {
        let wait = Dur::from_us(self.cfg.starvation_timeout_us);
        ctx.arm_timer(ports::TIMER, starve_slot(qp), wait, StarveTimer { qp });
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>, qp: SessionId) {
        let Some(st) = self.tx.get(&qp) else { return };
        let backoff = st.retries.min(6);
        let rto = Dur::from_us(self.cfg.rto_us << backoff);
        ctx.arm_timer(ports::TIMER, rto_slot(qp), rto, RtoTimer { qp });
    }

    /// Sends or stalls a segment depending on the QP's token budget.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, seg: TxSegment) {
        let qp = seg.cmd.session;
        if let Some(&kind) = self.qp_error.get(&qp) {
            // Error-state QP: discard, completing the command in error once
            // its final fragment is consumed.
            if seg.last {
                self.io.tx_error(ctx, qp, kind, Some(seg.cmd.tag));
            }
            return;
        }
        if !self.has_token(qp) || self.stalled.get(&qp).is_some_and(|q| !q.is_empty()) {
            let q = self.stalled.entry(qp).or_default();
            let first = q.is_empty();
            q.push_back(seg);
            if first {
                self.arm_starve_timer(ctx, qp);
            }
            return;
        }
        self.transmit(ctx, seg);
    }

    /// Transitions `qp` to the error state: drops its stalled fragments and
    /// emits the session-fatal error completion plus one error completion
    /// per command whose final fragment was dropped.
    fn fail_qp(&mut self, ctx: &mut Ctx<'_>, qp: SessionId, kind: SessionErrorKind) {
        self.qp_error.insert(qp, kind);
        ctx.cancel_timer(ports::TIMER, starve_slot(qp));
        ctx.cancel_timer(ports::TIMER, rto_slot(qp));
        if let Some(st) = self.tx.get_mut(&qp) {
            // Transmitted `last` fragments already reported local success;
            // only never-transmitted (stalled) commands complete in error.
            st.unacked.clear();
        }
        ctx.stats().add(&RDMA_QP_ERRORS, 1);
        self.io.tx_error(ctx, qp, kind, None);
        for seg in self.stalled.remove(&qp).unwrap_or_default() {
            if seg.last {
                self.io.tx_error(ctx, qp, kind, Some(seg.cmd.tag));
            }
        }
    }

    /// First transmission of a segment: assigns its PSN, charges the token
    /// window, buffers it for go-back-N retransmission, and reports local
    /// completion on the final fragment.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, seg: TxSegment) {
        let qp = seg.cmd.session;
        let st = self.tx.entry(qp).or_default();
        let psn = st.next_psn;
        st.next_psn += 1;
        let was_idle = st.unacked.is_empty();
        st.unacked.push_back((psn, seg.clone()));
        if was_idle {
            self.arm_rto(ctx, qp);
        }
        self.send_on_wire(ctx, &seg, psn);
        if seg.last {
            self.io.tx_done(ctx, &seg.cmd);
        }
    }

    /// Emits one data frame carrying `seg` at `psn` (fresh or retransmit).
    fn send_on_wire(&mut self, ctx: &mut Ctx<'_>, seg: &TxSegment, psn: u64) {
        let (peer, peer_qp) = self.io.peer(seg.cmd.session);
        let pdu = match seg.cmd.kind {
            TxKind::Send => RdmaPdu::Send {
                dst_qp: peer_qp,
                psn,
                msg_id: seg.msg_id,
                offset: seg.offset,
                total: seg.cmd.len,
                data: seg.data.clone(),
            },
            TxKind::Write { remote_addr } => RdmaPdu::Write {
                dst_qp: peer_qp,
                psn,
                msg_id: seg.msg_id,
                addr: remote_addr,
                offset: seg.offset,
                total: seg.cmd.len,
                data: seg.data.clone(),
            },
        };
        self.frames_sent += 1;
        let bytes = seg.data.len();
        let span = self.io.seg_span(ctx, seg.cmd.span, bytes as u64);
        self.io.send_data(ctx, peer, bytes as u32, span, pdu);
    }

    /// Go-back-N: retransmits every unacknowledged segment in PSN order.
    fn go_back(&mut self, ctx: &mut Ctx<'_>, qp: SessionId) {
        let resend: Vec<(u64, TxSegment)> = self
            .tx
            .get(&qp)
            .map(|st| st.unacked.iter().cloned().collect())
            .unwrap_or_default();
        for (psn, seg) in &resend {
            self.retransmissions += 1;
            ctx.stats().add(&RDMA_RETRANSMISSIONS, 1);
            self.send_on_wire(ctx, seg, *psn);
        }
    }

    /// One retransmission round (NAK- or RTO-triggered); fails the QP when
    /// the consecutive-round budget is exhausted.
    fn retry_round(&mut self, ctx: &mut Ctx<'_>, qp: SessionId) {
        let exhausted = {
            let st = self.tx.entry(qp).or_default();
            st.retries += 1;
            st.retries > self.cfg.max_retransmits
        };
        if exhausted {
            self.fail_qp(ctx, qp, SessionErrorKind::RetransmitLimit);
            return;
        }
        self.go_back(ctx, qp);
        self.arm_rto(ctx, qp);
    }

    /// Accumulates receiver-side credits (one per fragment) and returns
    /// them in batches as cumulative acks.
    fn credit(&mut self, ctx: &mut Ctx<'_>, src_qp: SessionId, flush: bool) {
        let owed = self.owed_credits.entry(src_qp).or_insert(0);
        *owed += 1;
        if *owed >= self.cfg.credit_batch || flush {
            core::mem::take(owed);
            let ack_psn = self.expected_psn.get(&src_qp).copied().unwrap_or(0);
            let (peer, peer_qp) = self.io.peer(src_qp);
            let pdu = RdmaPdu::Credit {
                dst_qp: peer_qp,
                ack_psn,
            };
            self.io.send_control(ctx, peer, SpanId::NONE, pdu);
        }
    }

    fn on_credit(&mut self, ctx: &mut Ctx<'_>, qp: SessionId, ack_psn: u64) {
        if self.qp_error.contains_key(&qp) {
            return;
        }
        let advanced = {
            let st = self.tx.entry(qp).or_default();
            if ack_psn <= st.acked_psn {
                false // stale duplicate ack
            } else {
                st.acked_psn = ack_psn;
                while let Some(&(psn, _)) = st.unacked.front() {
                    if psn < ack_psn {
                        st.unacked.pop_front();
                    } else {
                        break;
                    }
                }
                // Progress: reset the retry ladder.
                st.retries = 0;
                true
            }
        };
        if !advanced {
            return;
        }
        // Progress voids both pending deadlines; they re-arm below if
        // fragments are still unacknowledged or stalled.
        ctx.cancel_timer(ports::TIMER, rto_slot(qp));
        ctx.cancel_timer(ports::TIMER, starve_slot(qp));
        if self.tx.get(&qp).is_some_and(|st| !st.unacked.is_empty()) {
            self.arm_rto(ctx, qp);
        }
        // Release stalled segments into the freed window.
        while self.has_token(qp) {
            let Some(seg) = self.stalled.get_mut(&qp).and_then(|q| q.pop_front()) else {
                break;
            };
            self.transmit(ctx, seg);
        }
        if self.stalled.get(&qp).is_some_and(|q| !q.is_empty()) {
            self.arm_starve_timer(ctx, qp);
        }
    }

    fn on_nak(&mut self, ctx: &mut Ctx<'_>, qp: SessionId, expected_psn: u64) {
        if self.qp_error.contains_key(&qp) {
            return;
        }
        // A NAK carries a cumulative ack: everything below `expected`
        // landed, so bank that progress first.
        if expected_psn > self.tx.get(&qp).map_or(0, |st| st.acked_psn) {
            self.on_credit(ctx, qp, expected_psn);
        }
        if self.qp_error.contains_key(&qp) {
            return;
        }
        if self.tx.get(&qp).is_some_and(|st| !st.unacked.is_empty()) {
            self.retry_round(ctx, qp);
        }
    }

    /// PSN gate for arriving data fragments. Returns `true` when the frame
    /// is the next expected in-order delivery; otherwise discards it: a
    /// future PSN (the gap left by a lost or corrupted frame) triggers one
    /// NAK per gap, and a past PSN (go-back-N overshoot or a wire
    /// duplicate) refreshes the peer's cumulative ack so a lost credit
    /// cannot wedge the sender.
    fn rx_in_order(&mut self, ctx: &mut Ctx<'_>, qp: SessionId, psn: u64) -> bool {
        let expected = *self.expected_psn.entry(qp).or_insert(0);
        if psn == expected {
            self.expected_psn.insert(qp, expected + 1);
            self.last_nak.remove(&qp);
            return true;
        }
        let (peer, peer_qp) = self.io.peer(qp);
        if psn > expected {
            ctx.stats().add(&RDMA_RX_GAP_NAKS, 1);
            if self.last_nak.get(&qp) != Some(&expected) {
                self.last_nak.insert(qp, expected);
                let nak = RdmaPdu::Nak {
                    dst_qp: peer_qp,
                    expected_psn: expected,
                };
                self.io.send_control(ctx, peer, SpanId::NONE, nak);
            }
        } else {
            ctx.stats().add(&RDMA_RX_DUPLICATES, 1);
            let ack = RdmaPdu::Credit {
                dst_qp: peer_qp,
                ack_psn: expected,
            };
            self.io.send_control(ctx, peer, SpanId::NONE, ack);
        }
        false
    }
}

impl Component for RdmaPoe {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::TX_CMD => {
                let cmd = payload.downcast::<PoeTxCmd>();
                let segs = self.assembler.push_cmd(cmd, self.cfg.mtu);
                for seg in segs {
                    self.dispatch(ctx, seg);
                }
            }
            ports::TX_DATA => {
                let chunk = payload.downcast::<StreamChunk>();
                let segs = self.assembler.push_data(chunk.data, self.cfg.mtu);
                for seg in segs {
                    self.dispatch(ctx, seg);
                }
            }
            ports::NET_RX => {
                // A failed check taints every header field: drop the whole
                // frame and let go-back-N close the PSN gap.
                let RxAdmit::Frame(frame, _) = self.io.rx_admit(ctx, payload, true) else {
                    return;
                };
                self.frames_received += 1;
                // Control PDUs (credits, NAKs) carry no wire span, and
                // record no `poe.rx` span.
                let rx_span = if frame.span.is_none() {
                    SpanId::NONE
                } else {
                    self.io.rx_span(ctx, &frame)
                };
                match frame.body.downcast::<RdmaPdu>() {
                    RdmaPdu::Send {
                        dst_qp,
                        psn,
                        msg_id,
                        offset,
                        total,
                        data,
                    } => {
                        if !self.rx_in_order(ctx, dst_qp, psn) {
                            return;
                        }
                        // The PSN gate admits each fragment exactly once, so
                        // the demux cannot see duplicates.
                        let (meta, chunk) = self
                            .demux
                            .accept(dst_qp, msg_id, offset, total, data, rx_span)
                            .expect("in-order PSN admitted a duplicate");
                        let flush = chunk.last;
                        self.io.deliver(ctx, meta, chunk);
                        self.credit(ctx, dst_qp, flush);
                    }
                    RdmaPdu::Write {
                        dst_qp,
                        psn,
                        msg_id,
                        addr,
                        offset,
                        total,
                        data,
                    } => {
                        if !self.rx_in_order(ctx, dst_qp, psn) {
                            return;
                        }
                        let bus = self.mem_bus.unwrap_or_else(|| {
                            panic!("RDMA WRITE received but no memory bus attached")
                        });
                        let last = offset + data.len() as u64 == total;
                        ctx.send(
                            Endpoint::new(bus, mem_ports::WRITE),
                            self.io.latency(),
                            MemWriteReq {
                                addr: MemAddr::Virt(addr + offset),
                                data,
                                done_to: None,
                                tag: msg_id,
                                span: rx_span,
                            },
                        );
                        // The CCLO is bypassed; only flow control sees the
                        // fragment.
                        self.credit(ctx, dst_qp, last);
                    }
                    RdmaPdu::Credit { dst_qp, ack_psn } => {
                        self.on_credit(ctx, dst_qp, ack_psn);
                    }
                    RdmaPdu::Nak {
                        dst_qp,
                        expected_psn,
                    } => {
                        self.on_nak(ctx, dst_qp, expected_psn);
                    }
                }
            }
            // Progress and QP errors cancel both slots, so a firing timer
            // always finds fragments stalled or unacknowledged.
            ports::TIMER => match payload.try_downcast::<StarveTimer>() {
                Ok(timer) => {
                    debug_assert!(self.stalled.get(&timer.qp).is_some_and(|q| !q.is_empty()));
                    self.fail_qp(ctx, timer.qp, SessionErrorKind::TokenStarvation);
                }
                Err(other) => {
                    let timer = other.downcast::<RtoTimer>();
                    debug_assert!(self
                        .tx
                        .get(&timer.qp)
                        .is_some_and(|st| !st.unacked.is_empty()));
                    ctx.stats().add(&RDMA_RTO_FIRED, 1);
                    self.retry_round(ctx, timer.qp);
                }
            },
            ports::CREDIT => self.io.on_credit(ctx, payload),
            other => panic!("RDMA engine has no port {other:?}"),
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
        // Token-starved queue pairs (lowest QP first, deterministically).
        let starved = self
            .stalled
            .iter()
            .filter(|(qp, q)| !q.is_empty() && !self.qp_error.contains_key(qp))
            .min_by_key(|(&qp, _)| qp);
        if let Some((&qp, q)) = starved {
            return Some(ParkedWork {
                rank: None,
                op: format!("rdma qp {}: {} fragments token-starved", qp.0, q.len()),
            });
        }
        // Unacknowledged fragments whose retransmission clock ran dry.
        let unacked = self
            .tx
            .iter()
            .filter(|(qp, st)| !st.unacked.is_empty() && !self.qp_error.contains_key(qp))
            .min_by_key(|(&qp, _)| qp);
        if let Some((&qp, st)) = unacked {
            return Some(ParkedWork {
                rank: None,
                op: format!(
                    "rdma qp {}: {} segments unacked past psn {}",
                    qp.0,
                    st.unacked.len(),
                    st.acked_psn
                ),
            });
        }
        // Commands still waiting for their stream bytes.
        let queued = self.assembler.queued_cmds();
        if queued > 0 {
            return Some(ParkedWork {
                rank: None,
                op: format!("rdma tx: {queued} commands awaiting stream data"),
            });
        }
        // Partially received messages that will never complete.
        let partial = self.demux.inflight();
        if partial > 0 {
            return Some(ParkedWork {
                rank: None,
                op: format!("rdma rx: {partial} partial messages"),
            });
        }
        None
    }

    fn state_digest(&self) -> Option<u64> {
        // Frame totals, the go-back-N positions of every queue pair, the
        // receiver PSN horizon, error-state population, and the credit
        // window (BTreeMap order is canonical).
        let mut h = 0u64;
        let mut fold = |v: u64| accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        for v in [
            self.frames_sent,
            self.frames_received,
            self.retransmissions,
            self.io.fcs_dropped(),
        ] {
            fold(v);
        }
        for (qp, st) in &self.tx {
            fold(u64::from(qp.0));
            fold(st.next_psn);
            fold(st.acked_psn);
            fold(st.unacked.len() as u64);
        }
        for (qp, psn) in &self.expected_psn {
            fold(u64::from(qp.0));
            fold(*psn);
        }
        fold(self.qp_error.len() as u64);
        self.io.tx_credit_gate().fold_digest(&mut h);
        self.io.fold_fences(&mut h);
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{CompletionLog, PoeRxMeta, RxChunk};
    use accl_mem::{MemBusConfig, MemTarget, MemoryBus};
    use accl_net::{NetConfig, Network};

    struct Bench {
        sim: Simulator,
        net: Network,
        poes: Vec<ComponentId>,
        metas: Vec<ComponentId>,
        datas: Vec<ComponentId>,
        dones: Vec<ComponentId>,
        buses: Vec<ComponentId>,
    }

    fn bench_cfg(n: usize, cfg: RdmaConfig) -> Bench {
        let mut sim = Simulator::new(0);
        let net = Network::build(&mut sim, NetConfig::default(), n);
        let (mut poes, mut metas, mut datas, mut dones, mut buses) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            let meta = sim.add(format!("meta{i}"), Mailbox::<PoeRxMeta>::new());
            let data = sim.add(format!("data{i}"), Mailbox::<RxChunk>::new());
            let done = sim.add(format!("done{i}"), CompletionLog::new());
            let bus = sim.add(format!("bus{i}"), MemoryBus::new(MemBusConfig::coyote()));
            let mut sessions = SessionTable::new();
            for j in 0..n {
                if i != j {
                    sessions.connect(SessionId(j as u32), net.addr(j), SessionId(i as u32));
                }
            }
            let poe = RdmaPoe::new(
                cfg,
                net.tx(i),
                PoeUpward {
                    rx_meta: Endpoint::of(meta),
                    rx_data: Endpoint::of(data),
                    tx_done: Endpoint::of(done),
                },
                sessions,
            )
            .with_mem_bus(bus);
            let poe = sim.add(format!("rdma{i}"), poe);
            net.attach_rx(&mut sim, i, Endpoint::new(poe, ports::NET_RX));
            poes.push(poe);
            metas.push(meta);
            datas.push(data);
            dones.push(done);
            buses.push(bus);
        }
        Bench {
            sim,
            net,
            poes,
            metas,
            datas,
            dones,
            buses,
        }
    }

    fn bench(n: usize) -> Bench {
        bench_cfg(n, RdmaConfig::default())
    }

    fn issue(b: &mut Bench, from: usize, to: usize, kind: TxKind, data: Vec<u8>, tag: u64) {
        let len = data.len() as u64;
        b.sim.post(
            Endpoint::new(b.poes[from], ports::TX_CMD),
            b.sim.now(),
            PoeTxCmd {
                session: SessionId(to as u32),
                len,
                kind,
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
    fn two_sided_send_delivers_meta_and_data() {
        let mut b = bench(2);
        let msg: Vec<u8> = (0..30_000u32).map(|i| (i % 239) as u8).collect();
        issue(&mut b, 0, 1, TxKind::Send, msg.clone(), 3);
        b.sim.run();
        let metas = b.sim.component::<Mailbox<PoeRxMeta>>(b.metas[1]);
        assert_eq!(metas.len(), 1);
        assert_eq!(metas.items()[0].1.len, 30_000);
        let mut got = vec![0u8; msg.len()];
        for (_, c) in b.sim.component::<Mailbox<RxChunk>>(b.datas[1]).items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(got, msg);
        assert_eq!(
            b.sim.component::<CompletionLog>(b.dones[0]).dones()[0]
                .1
                .tag,
            3
        );
    }

    #[test]
    fn one_sided_write_bypasses_cclo_into_memory() {
        let mut b = bench(2);
        // Map the target range in node 1's TLB to device memory.
        b.sim.component_mut::<MemoryBus>(b.buses[1]).map_range(
            0x10_0000,
            1 << 20,
            MemTarget::Device,
        );
        let msg: Vec<u8> = (0..20_000u32).map(|i| (i % 233) as u8).collect();
        issue(
            &mut b,
            0,
            1,
            TxKind::Write {
                remote_addr: 0x10_0000,
            },
            msg.clone(),
            0,
        );
        b.sim.run();
        // No Rx meta/data reached the CCLO side.
        assert_eq!(b.sim.component::<Mailbox<PoeRxMeta>>(b.metas[1]).len(), 0);
        assert_eq!(b.sim.component::<Mailbox<RxChunk>>(b.datas[1]).len(), 0);
        // The bytes landed in the virtualized memory (device target).
        assert_eq!(
            b.sim
                .component::<MemoryBus>(b.buses[1])
                .device_read(0x10_0000, msg.len()),
            msg
        );
        // The initiator saw a local completion.
        assert_eq!(
            b.sim.component::<CompletionLog>(b.dones[0]).dones().len(),
            1
        );
    }

    #[test]
    fn token_window_throttles_then_credits_release() {
        // Window of 4 fragments, credits every 2: a 64 KiB message (16
        // fragments) needs several credit round trips but completes.
        let cfg = RdmaConfig {
            token_window: 4,
            credit_batch: 2,
            ..RdmaConfig::default()
        };
        let mut b = bench_cfg(2, cfg);
        let msg = vec![7u8; 64 * 1024];
        issue(&mut b, 0, 1, TxKind::Send, msg.clone(), 0);
        b.sim.run();
        let mut got = vec![0u8; msg.len()];
        for (_, c) in b.sim.component::<Mailbox<RxChunk>>(b.datas[1]).items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(got, msg);
        // Strictly more frames received than sent fragments (credits flow).
        assert!(b.sim.component::<RdmaPoe>(b.poes[0]).frames_received() > 0);
        // Ordinary credit-paced flow never trips the starvation watchdog.
        assert!(b
            .sim
            .component::<RdmaPoe>(b.poes[0])
            .failed_qps()
            .is_empty());
        assert!(b
            .sim
            .component::<CompletionLog>(b.dones[0])
            .errors()
            .is_empty());
    }

    #[test]
    fn receiver_crash_starves_tokens_into_qp_error() {
        // Window of 4 and a crashed receiver: the first 4 fragments vanish,
        // no credits ever return, and the starvation watchdog must move the
        // QP to the error state instead of parking forever.
        let cfg = RdmaConfig {
            token_window: 4,
            credit_batch: 2,
            ..RdmaConfig::default()
        };
        let mut b = bench_cfg(2, cfg);
        b.net.crash_node(&mut b.sim, 1, Time::ZERO);
        issue(&mut b, 0, 1, TxKind::Send, vec![7u8; 64 * 1024], 5);
        let out = b.sim.run();
        assert_eq!(out, RunOutcome::Drained, "outcome: {out:?}");
        let poe = b.sim.component::<RdmaPoe>(b.poes[0]);
        assert_eq!(
            poe.failed_qps(),
            vec![(SessionId(1), SessionErrorKind::TokenStarvation)]
        );
        let log = b.sim.component::<CompletionLog>(b.dones[0]);
        let tags: Vec<Option<u64>> = log.errors().iter().map(|&(_, e)| e.tag).collect();
        // Session-fatal notification plus the error completion of the
        // command whose final fragment was dropped.
        assert_eq!(tags, vec![None, Some(5)]);
        // Detection happens one starvation timeout after the stall began.
        let (at, _) = log.errors()[0];
        assert!(
            at >= Time::from_us(cfg.starvation_timeout_us) && at < Time::from_ms(10),
            "error at {at}"
        );
        // Nothing was delivered upward on the dead side.
        assert_eq!(b.sim.component::<Mailbox<PoeRxMeta>>(b.metas[1]).len(), 0);
    }

    #[test]
    fn deadline_watchdog_names_token_starved_qp() {
        // Starvation detection disabled far beyond the horizon: the stall
        // deadline sweep must still name the starved QP.
        let cfg = RdmaConfig {
            token_window: 4,
            credit_batch: 2,
            starvation_timeout_us: 1_000_000,
            ..RdmaConfig::default()
        };
        let mut b = bench_cfg(2, cfg);
        b.net.crash_node(&mut b.sim, 1, Time::ZERO);
        issue(&mut b, 0, 1, TxKind::Send, vec![7u8; 64 * 1024], 5);
        b.sim.set_stall_deadline(Time::from_ms(1));
        match b.sim.run() {
            RunOutcome::Stalled(report) => {
                assert_eq!(report.component, "rdma0");
                assert!(report.op.contains("token-starved"), "op: {}", report.op);
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_frame_is_discarded_and_repaired_by_go_back_n() {
        let mut b = bench(2);
        b.net
            .set_fault_plan(&mut b.sim, accl_net::FaultPlan::corrupt_frames([2]));
        let msg: Vec<u8> = (0..30_000u32).map(|i| (i % 239) as u8).collect();
        issue(&mut b, 0, 1, TxKind::Send, msg.clone(), 0);
        b.sim.run();
        let mut got = vec![0u8; msg.len()];
        for (_, c) in b.sim.component::<Mailbox<RxChunk>>(b.datas[1]).items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(got, msg, "delivered bytes must be bit-exact");
        let rx = b.sim.component::<RdmaPoe>(b.poes[1]);
        assert_eq!(rx.io().fcs_dropped(), 1);
        let tx = b.sim.component::<RdmaPoe>(b.poes[0]);
        assert!(tx.retransmissions() >= 1);
        assert!(tx.failed_qps().is_empty());
    }

    #[test]
    fn random_loss_is_repaired_by_go_back_n() {
        let mut b = bench(2);
        b.net
            .set_fault_plan(&mut b.sim, accl_net::FaultPlan::random_loss(0.02));
        let msg: Vec<u8> = (0..100_000u32).map(|i| (i % 247) as u8).collect();
        issue(&mut b, 0, 1, TxKind::Send, msg.clone(), 0);
        b.sim.run();
        let mut got = vec![0u8; msg.len()];
        let mut total = 0usize;
        for (_, c) in b.sim.component::<Mailbox<RxChunk>>(b.datas[1]).items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
            total += c.data.len();
        }
        assert_eq!(got, msg);
        assert_eq!(total, msg.len(), "duplicate or missing delivery");
        assert!(b
            .sim
            .component::<RdmaPoe>(b.poes[0])
            .failed_qps()
            .is_empty());
    }

    #[test]
    fn duplicated_frames_are_filtered_by_psn() {
        let mut b = bench(2);
        b.net
            .set_fault_plan(&mut b.sim, accl_net::FaultPlan::duplicate_frames([1, 2]));
        let msg: Vec<u8> = (0..30_000u32).map(|i| (i % 233) as u8).collect();
        issue(&mut b, 0, 1, TxKind::Send, msg.clone(), 0);
        b.sim.run();
        let chunks = b.sim.component::<Mailbox<RxChunk>>(b.datas[1]);
        let total: usize = chunks.values().map(|c| c.data.len()).sum();
        assert_eq!(total, msg.len(), "duplicates leaked upward");
        let mut got = vec![0u8; msg.len()];
        for (_, c) in chunks.items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(got, msg);
    }

    #[test]
    fn unreachable_peer_with_open_window_exhausts_retransmits() {
        // Window wider than the whole message: nothing ever stalls on
        // tokens, so the starvation watchdog never arms and the RTO retry
        // ladder must be the path that diagnoses the dead peer.
        let cfg = RdmaConfig {
            rto_us: 20,
            max_retransmits: 3,
            ..RdmaConfig::default()
        };
        let mut b = bench_cfg(2, cfg);
        b.net.crash_node(&mut b.sim, 1, Time::ZERO);
        issue(&mut b, 0, 1, TxKind::Send, vec![7u8; 16 * 1024], 4);
        let out = b.sim.run();
        assert_eq!(out, RunOutcome::Drained, "outcome: {out:?}");
        let poe = b.sim.component::<RdmaPoe>(b.poes[0]);
        assert_eq!(
            poe.failed_qps(),
            vec![(SessionId(1), SessionErrorKind::RetransmitLimit)]
        );
        // 4 rounds over the 4-fragment message before giving up.
        assert_eq!(poe.retransmissions(), 3 * 4);
        let log = b.sim.component::<CompletionLog>(b.dones[0]);
        assert_eq!(log.errors().len(), 1);
        // Ladder: 20 + 40 + 80 + 160 µs before the budget check fails.
        let (at, _) = log.errors()[0];
        assert!(at >= Time::from_us(300) && at < Time::from_us(400), "{at}");
    }

    #[test]
    fn reordering_triggers_nak_and_recovers() {
        let mut b = bench(2);
        b.net.set_fault_plan(
            &mut b.sim,
            accl_net::FaultPlan::delay_frames([1], Dur::from_us(50)),
        );
        let msg: Vec<u8> = (0..40_000u32).map(|i| (i % 229) as u8).collect();
        issue(&mut b, 0, 1, TxKind::Send, msg.clone(), 0);
        b.sim.run();
        let chunks = b.sim.component::<Mailbox<RxChunk>>(b.datas[1]);
        let total: usize = chunks.values().map(|c| c.data.len()).sum();
        assert_eq!(total, msg.len());
        let mut got = vec![0u8; msg.len()];
        for (_, c) in chunks.items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(got, msg);
        assert!(b
            .sim
            .component::<RdmaPoe>(b.poes[0])
            .failed_qps()
            .is_empty());
    }

    #[test]
    fn throughput_near_line_rate() {
        let mut b = bench(2);
        let len = 4 << 20;
        issue(&mut b, 0, 1, TxKind::Send, vec![1u8; len], 0);
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
    fn tx_credit_window_composes_with_token_flow_control() {
        let mut b = bench(2);
        b.sim
            .component_mut::<RdmaPoe>(b.poes[0])
            .io_mut()
            .set_tx_credit_window(Some(2), "net.txcredit(n0)");
        let msg: Vec<u8> = (0..60_000u32).map(|i| (i % 239) as u8).collect();
        issue(&mut b, 0, 1, TxKind::Send, msg.clone(), 0);
        b.sim.run();
        let mut got = vec![0u8; msg.len()];
        for (_, c) in b.sim.component::<Mailbox<RxChunk>>(b.datas[1]).items() {
            got[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(got, msg);
        let poe = b.sim.component::<RdmaPoe>(b.poes[0]);
        assert!(poe.failed_qps().is_empty());
        assert!(!poe.io().tx_credit_gate().blocked());
        assert_eq!(
            poe.io().tx_credit_gate().in_flight(),
            0,
            "all credits returned"
        );
    }

    #[test]
    fn interleaved_sends_from_two_peers() {
        let mut b = bench(3);
        issue(&mut b, 0, 2, TxKind::Send, vec![1u8; 40_000], 1);
        issue(&mut b, 1, 2, TxKind::Send, vec![2u8; 40_000], 2);
        b.sim.run();
        let metas = b.sim.component::<Mailbox<PoeRxMeta>>(b.metas[2]);
        assert_eq!(metas.len(), 2);
        // Chunks from both sessions complete.
        let lasts = b
            .sim
            .component::<Mailbox<RxChunk>>(b.datas[2])
            .values()
            .filter(|c| c.last)
            .count();
        assert_eq!(lasts, 2);
    }
}
