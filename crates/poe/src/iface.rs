//! The POE-independent interface (paper §4.3).
//!
//! The CCLO engine talks to every protocol offload engine through the same
//! two pairs of meta/data streaming interfaces (one Tx, one Rx). The meta
//! side carries op code, length and session id; the data side carries the
//! payload in chunks. Protocol specifics (segmentation, reliability,
//! rendezvous WRITE placement) live entirely behind this interface, which is
//! what makes the CCLO engine protocol-portable.

use std::collections::BTreeMap;

use bytes::Bytes;

use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};

/// Identifies one communication session of a POE.
///
/// Maps onto a TCP session, an RDMA queue pair, or a UDP peer entry,
/// depending on the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

/// What a Tx command asks the engine to do with the data that follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// Two-sided transfer: deliver to the peer's Rx meta/data interfaces
    /// (UDP datagram, TCP stream message, RDMA SEND).
    Send,
    /// One-sided RDMA WRITE to `remote_addr` (a virtual address in the
    /// peer's unified memory). Only the RDMA engine accepts this.
    Write {
        /// Destination virtual address at the passive side.
        remote_addr: u64,
    },
}

/// A Tx command: "the next `len` bytes on the Tx data stream go to `session`".
#[derive(Debug, Clone, Copy)]
pub struct PoeTxCmd {
    /// Destination session.
    pub session: SessionId,
    /// Message length in bytes.
    pub len: u64,
    /// Transfer kind.
    pub kind: TxKind,
    /// Caller tag, echoed in [`PoeTxDone`].
    pub tag: u64,
    /// Causal parent span of the issuer ([`SpanId::NONE`] if untraced).
    /// Engines parent their per-segment spans under it and hand it across
    /// the wire via [`accl_net::Frame::with_span`].
    pub span: SpanId,
}

/// A chunk of streaming data (Tx or Rx direction).
#[derive(Debug, Clone)]
pub struct StreamChunk {
    /// The bytes.
    pub data: Bytes,
    /// Whether this chunk ends the current message.
    pub last: bool,
}

/// Completion of a Tx command (all bytes handed to the wire).
#[derive(Debug, Clone, Copy)]
pub struct PoeTxDone {
    /// Session of the completed command.
    pub session: SessionId,
    /// Bytes sent.
    pub len: u64,
    /// Tag from the originating [`PoeTxCmd`].
    pub tag: u64,
}

/// Why a POE declared a session dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionErrorKind {
    /// TCP: the retransmission limit was exhausted without the peer ever
    /// acknowledging forward progress — the peer or its link is gone.
    RetransmitLimit,
    /// RDMA: the queue pair was token-starved for longer than the
    /// starvation timeout — no flow-control credits came back.
    TokenStarvation,
}

impl core::fmt::Display for SessionErrorKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SessionErrorKind::RetransmitLimit => write!(f, "retransmission limit exhausted"),
            SessionErrorKind::TokenStarvation => write!(f, "flow-control token starvation"),
        }
    }
}

/// Fatal session failure, delivered on the same endpoint as [`PoeTxDone`]
/// (completion-queue discipline: every command eventually yields either a
/// success or an error completion, and a session-fatal event is reported
/// once with `tag: None`). Consumers must `try_downcast` completions.
#[derive(Debug, Clone, Copy)]
pub struct PoeSessionError {
    /// The failed session.
    pub session: SessionId,
    /// Failure cause.
    pub kind: SessionErrorKind,
    /// Tag of the command this error completes, or `None` for the
    /// session-fatal notification itself.
    pub tag: Option<u64>,
}

/// Rx meta: a message is arriving on `session`.
///
/// Emitted once per message, before (or with) its first data chunk.
#[derive(Debug, Clone, Copy)]
pub struct PoeRxMeta {
    /// Source session.
    pub session: SessionId,
    /// Engine-assigned message id, unique per session.
    pub msg_id: u64,
    /// Total message length in bytes.
    pub len: u64,
}

/// Rx data: a chunk of the message identified by `(session, msg_id)`.
#[derive(Debug, Clone)]
pub struct RxChunk {
    /// Source session.
    pub session: SessionId,
    /// Message id from the corresponding [`PoeRxMeta`].
    pub msg_id: u64,
    /// Offset of this chunk within the message.
    pub offset: u64,
    /// The bytes.
    pub data: Bytes,
    /// Whether the message is complete after this chunk.
    pub last: bool,
    /// The engine's receive-side span of the frame that delivered this
    /// chunk ([`SpanId::NONE`] when spans are off).
    pub span: SpanId,
}

/// Where a POE delivers its upward-facing events.
#[derive(Debug, Clone, Copy)]
pub struct PoeUpward {
    /// Receives [`PoeRxMeta`].
    pub rx_meta: Endpoint,
    /// Receives [`RxChunk`].
    pub rx_data: Endpoint,
    /// Receives [`PoeTxDone`].
    pub tx_done: Endpoint,
}

/// Harness component collecting both success and error completions from a
/// POE `tx_done` endpoint (which carries [`PoeTxDone`] and
/// [`PoeSessionError`] interleaved, completion-queue style).
#[derive(Debug, Default)]
pub struct CompletionLog {
    dones: Vec<(Time, PoeTxDone)>,
    errors: Vec<(Time, PoeSessionError)>,
}

impl CompletionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Successful completions in arrival order.
    pub fn dones(&self) -> &[(Time, PoeTxDone)] {
        &self.dones
    }

    /// Error completions in arrival order.
    pub fn errors(&self) -> &[(Time, PoeSessionError)] {
        &self.errors
    }
}

impl Component for CompletionLog {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        match payload.try_downcast::<PoeTxDone>() {
            Ok(done) => self.dones.push((ctx.now(), done)),
            Err(other) => self
                .errors
                .push((ctx.now(), other.downcast::<PoeSessionError>())),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        // The log is append-ordered, and same-timestamp completions from
        // different sessions may legally arrive in either order — so each
        // entry is hashed on its own and combined commutatively, keeping
        // the digest canonical under tie permutation.
        let mut h = 0u64;
        let mut fold = |vs: &[u64]| {
            let mut e = 0u64;
            for v in vs {
                accl_sim::digest::fnv_fold(&mut e, &v.to_le_bytes());
            }
            h = h.wrapping_add(e);
        };
        for (t, d) in &self.dones {
            fold(&[t.as_ps(), u64::from(d.session.0), d.len, d.tag]);
        }
        for (t, e) in &self.errors {
            fold(&[t.as_ps(), u64::from(e.session.0)]);
        }
        accl_sim::digest::fnv_fold(&mut h, &(self.dones.len() as u64).to_le_bytes());
        accl_sim::digest::fnv_fold(&mut h, &(self.errors.len() as u64).to_le_bytes());
        Some(h)
    }
}

/// Standard input ports shared by all POE components.
pub mod ports {
    use accl_sim::event::PortId;

    /// Tx commands ([`super::PoeTxCmd`]).
    pub const TX_CMD: PortId = PortId(0);
    /// Tx data ([`super::StreamChunk`]), in command order.
    pub const TX_DATA: PortId = PortId(1);
    /// Frames arriving from the network ([`accl_net::Frame`]) and
    /// [`super::EpochFence`] control events.
    pub const NET_RX: PortId = PortId(2);
    /// Internal timers.
    pub const TIMER: PortId = PortId(3);
    /// Tx-window credit returns from the NIC
    /// ([`accl_net::CreditReturn`]) and injected credit-leak faults
    /// ([`super::TxCreditLeak`]).
    pub const CREDIT: PortId = PortId(4);
}

/// Injected credit-leak fault (chaos): `credits` tx-window credits are
/// consumed and never returned, permanently shrinking the engine's window.
/// Delivered on [`ports::CREDIT`].
#[derive(Debug, Clone, Copy)]
pub struct TxCreditLeak {
    /// Credits to leak.
    pub credits: u32,
}

/// Credit-accounted gate between a POE and its NIC: bounds the number of
/// in-flight (not-yet-serialized) data frames per engine.
///
/// Every data frame admitted through the gate consumes one credit and is
/// stamped with a [`accl_net::Frame::credit_return`] endpoint (the engine's
/// [`ports::CREDIT`] port); the NIC returns the credit when the frame has
/// fully serialized onto the uplink — so a paused NIC holds the engine's
/// credits hostage, propagating backpressure end to end. With no window
/// configured (the default) the gate is a strict pass-through: frames are
/// neither stamped nor queued and the simulation timeline is untouched.
///
/// Control frames (ACKs, NAKs, RDMA credits) must bypass the gate: gating
/// the very messages that release peer-side resources can deadlock the
/// protocol itself rather than model overload.
#[derive(Debug, Default)]
pub struct TxCreditGate {
    window: Option<u32>,
    in_flight: u32,
    leaked: u32,
    queued: std::collections::VecDeque<accl_net::Frame>,
    resource: String,
}

impl TxCreditGate {
    /// Creates a pass-through gate (no window).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the gate to `window` in-flight frames, naming the credit
    /// resource (conventionally `net.txcredit(nX)`, matching the hold the
    /// node's NIC publishes) for wait-for-graph attribution. `None`
    /// restores pass-through.
    pub fn set_window(&mut self, window: Option<u32>, resource: impl Into<String>) {
        if let Some(w) = window {
            assert!(w >= 1, "credit window needs at least one credit");
        }
        self.window = window;
        self.resource = resource.into();
    }

    /// Admits `frame` through the gate. Returns the (credit-stamped) frame
    /// when a credit is available — or immediately, unstamped, when no
    /// window is configured. Returns `None` when the frame was queued
    /// awaiting credits; [`TxCreditGate::credit`] releases it later.
    pub fn admit(
        &mut self,
        frame: accl_net::Frame,
        credit_ep: Endpoint,
    ) -> Option<accl_net::Frame> {
        let Some(window) = self.window else {
            return Some(frame);
        };
        if self.in_flight < window && self.queued.is_empty() {
            self.in_flight += 1;
            Some(frame.with_credit_return(credit_ep))
        } else {
            self.queued.push_back(frame);
            None
        }
    }

    /// Returns `credits` to the window and drains queued frames into the
    /// freed budget, stamping each with `credit_ep`. The caller must put
    /// the returned frames on the wire.
    pub fn credit(&mut self, credits: u32, credit_ep: Endpoint) -> Vec<accl_net::Frame> {
        self.in_flight = self.in_flight.saturating_sub(credits);
        let Some(window) = self.window else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while self.in_flight < window {
            let Some(frame) = self.queued.pop_front() else {
                break;
            };
            self.in_flight += 1;
            out.push(frame.with_credit_return(credit_ep));
        }
        out
    }

    /// Injected fault: `credits` vanish from the window for good (consumed
    /// as if in flight, never returned).
    pub fn leak(&mut self, credits: u32) {
        self.leaked += credits;
        self.in_flight += credits;
    }

    /// Whether frames are queued awaiting credits.
    pub fn blocked(&self) -> bool {
        !self.queued.is_empty()
    }

    /// Frames queued awaiting credits.
    pub fn queued_frames(&self) -> usize {
        self.queued.len()
    }

    /// Credits consumed by injected leaks so far.
    pub fn leaked(&self) -> u32 {
        self.leaked
    }

    /// Credits currently in flight (including leaked ones).
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Folds the gate's externally-meaningful state — window accounting
    /// and queue depth — into a running `state_digest`.
    pub fn fold_digest(&self, h: &mut u64) {
        for v in [
            u64::from(self.in_flight),
            u64::from(self.leaked),
            self.queued.len() as u64,
        ] {
            accl_sim::digest::fnv_fold(h, &v.to_le_bytes());
        }
    }

    /// The gate's contribution to its engine's
    /// [`Component::resource_state`]: a wait on the credit resource while
    /// blocked, plus occupancy gauges. `None` when pass-through.
    pub fn state(&self) -> Option<ResourceState> {
        let window = self.window?;
        let mut st = ResourceState::default();
        if self.blocked() {
            st.waits.push(self.resource.clone());
        }
        st.gauges.push(ResourceGauge {
            name: self.resource.clone(),
            used: u64::from(self.in_flight),
            capacity: Some(u64::from(window)),
        });
        if !self.queued.is_empty() {
            st.gauges.push(ResourceGauge {
                name: format!("{}.queued", self.resource),
                used: self.queued.len() as u64,
                capacity: None,
            });
        }
        Some(st)
    }

    /// The gate's parked work, for stall reports: frames stuck behind a
    /// dry credit window.
    pub fn parked_work(&self) -> Option<ParkedWork> {
        (!self.queued.is_empty()).then(|| ParkedWork {
            rank: None,
            op: format!(
                "{} frames awaiting tx credits ({}/{} in flight, {} leaked)",
                self.queued.len(),
                self.in_flight,
                self.window.unwrap_or(0),
                self.leaked
            ),
        })
    }
}

/// Control event raising the minimum acceptable epoch for frames from
/// `src`, delivered on [`ports::NET_RX`]: posted to every survivor's POE
/// when `src` restarts, so the old incarnation's in-flight frames are
/// fenced out (see [`PoeIo`]).
#[derive(Debug, Clone, Copy)]
pub struct EpochFence {
    /// The peer whose old incarnation is being fenced.
    pub src: accl_net::NodeAddr,
    /// Frames from `src` with `epoch < min_epoch` are dropped.
    pub min_epoch: u32,
}

/// What [`PoeIo::rx_admit`] made of one [`ports::NET_RX`] event.
pub(crate) enum RxAdmit {
    /// A frame for the engine, and whether it is corrupted.
    Frame(accl_net::Frame, bool),
    /// An [`EpochFence`] for this peer: a message its old incarnation
    /// cut off mid-stream can never complete.
    Fenced(accl_net::NodeAddr),
    /// A dropped frame.
    Dropped,
}

/// Counter of frames dropped at Rx for a stale sender epoch, shared by
/// every engine. The name is kept from the Rx mux that once held the
/// fence, so tests and tools that read the counter keep working.
static STALE_EPOCH_DROPS: Metric = Metric::counter("poe.mux.stale_epoch_drops");

/// The `poe.<engine>.*` stat keys [`PoeIo`] reports under: one table per
/// engine, so each engine keeps its own counter names (perfbench sums
/// them by name).
#[derive(Debug)]
pub(crate) struct PoeStatKeys {
    /// Data frames queued behind a dry tx credit window.
    pub(crate) tx_credit_blocked: Metric,
    /// Tx credits consumed by injected leaks.
    pub(crate) credits_leaked: Metric,
    /// Frames dropped at Rx for a bad frame check sequence.
    pub(crate) fcs_dropped: Metric,
}

/// The I/O edge every POE shares (paper §4.3: the CCLO drives all engines
/// through one protocol-independent interface, so engines differ only in
/// their protocol state machines).
///
/// Owns the wire endpoint, the upward endpoints, the session table, the tx
/// credit gate and the per-frame processing latency, and implements what
/// every engine needs of them: gated data sends and ungated control sends,
/// the [`ports::CREDIT`] handler, the Rx admission checks, the Tx
/// `poe.seg` span with its outgoing `poe.flow` edge, the Rx `poe.rx` span
/// that joins it, and the completion and delivery emissions. Every send
/// leaves after the processing latency.
///
/// Rx admission ([`PoeIo::rx_admit`]) is two checks. The FCS check drops
/// frames a fault flipped in flight. The **epoch fence** drops frames from
/// a restarted peer's previous life: every frame carries the sender's
/// incarnation number (`Frame::epoch`, stamped by the NIC), and the edge
/// keeps a per-source minimum acceptable epoch. When a peer restarts, the
/// cluster posts an [`EpochFence`] to every survivor's POE. Frames from
/// the old incarnation that were still buffered in the fabric at crash
/// time arrive with an old epoch and are dropped before they can confuse
/// the rejoined session's matching logic. The fence is checked when a
/// frame arrives, not when it was scheduled: a frame sent before the
/// restart that lands after it must still be dropped.
#[derive(Debug)]
pub struct PoeIo {
    net_tx: Endpoint,
    up: PoeUpward,
    sessions: SessionTable,
    gate: TxCreditGate,
    latency: Dur,
    keys: &'static PoeStatKeys,
    fcs_dropped: u64,
    /// Minimum acceptable `Frame::epoch` per source; absent = 0.
    fences: BTreeMap<u32, u32>,
    stale_epoch_drops: u64,
}

impl PoeIo {
    /// Creates the I/O edge of an engine that sends frames to `net_tx`,
    /// delivers upward to `up` and spends `processing_ns` on each frame.
    pub(crate) fn new(
        net_tx: Endpoint,
        up: PoeUpward,
        sessions: SessionTable,
        processing_ns: u64,
        keys: &'static PoeStatKeys,
    ) -> Self {
        PoeIo {
            net_tx,
            up,
            sessions,
            gate: TxCreditGate::new(),
            latency: Dur::from_ns(processing_ns),
            keys,
            fcs_dropped: 0,
            fences: BTreeMap::new(),
            stale_epoch_drops: 0,
        }
    }

    /// The per-frame processing latency.
    pub(crate) fn latency(&self) -> Dur {
        self.latency
    }

    /// The peer address and peer-local session of `session`.
    pub(crate) fn peer(&self, session: SessionId) -> (accl_net::NodeAddr, SessionId) {
        self.sessions.peer(session)
    }

    /// Bounds the engine to `window` in-flight (unserialized) data frames,
    /// attributing waits to `resource` (conventionally `net.txcredit(nX)`).
    /// Control frames bypass the gate (see [`TxCreditGate`]). `None` (the
    /// default) keeps the historical ungated behavior.
    pub fn set_tx_credit_window(&mut self, window: Option<u32>, resource: impl Into<String>) {
        self.gate.set_window(window, resource);
    }

    /// The tx credit gate (for introspection in tests and diagnostics).
    pub fn tx_credit_gate(&self) -> &TxCreditGate {
        &self.gate
    }

    /// Frames dropped at Rx for a bad frame check sequence.
    pub fn fcs_dropped(&self) -> u64 {
        self.fcs_dropped
    }

    /// Frames dropped at Rx for carrying a stale incarnation epoch.
    pub fn stale_epoch_drops(&self) -> u64 {
        self.stale_epoch_drops
    }

    /// The minimum acceptable epoch currently enforced for `src`.
    pub fn min_epoch(&self, src: accl_net::NodeAddr) -> u32 {
        self.fences.get(&src.0).copied().unwrap_or(0)
    }

    /// Folds the epoch fences and the stale-drop count into a running
    /// `state_digest`.
    pub(crate) fn fold_fences(&self, h: &mut u64) {
        accl_sim::digest::fnv_fold(h, &self.stale_epoch_drops.to_le_bytes());
        accl_sim::digest::fnv_fold(h, &(self.fences.len() as u64).to_le_bytes());
        for (&src, &min) in &self.fences {
            accl_sim::digest::fnv_fold(h, &u64::from(src).to_le_bytes());
            accl_sim::digest::fnv_fold(h, &u64::from(min).to_le_bytes());
        }
    }

    /// Records the Tx `poe.seg` span of a `bytes`-byte segment under
    /// `parent`, covering the processing latency. [`SpanId::NONE`] when
    /// spans are off.
    pub(crate) fn seg_span(&self, ctx: &mut Ctx<'_>, parent: SpanId, bytes: u64) -> SpanId {
        if !ctx.spans_enabled() {
            return SpanId::NONE;
        }
        ctx.span_interval_attrs(
            "poe.seg",
            parent,
            ctx.now(),
            ctx.now() + self.latency,
            &[Attr {
                key: "bytes",
                value: AttrValue::U64(bytes),
            }],
        )
    }

    /// Sends a data frame carrying `body` (`bytes` modelled payload bytes)
    /// to `peer` through the credit gate, stamped with `span` and a fresh
    /// `poe.flow` edge emitted from it for the receiver to join.
    pub(crate) fn send_data<T: core::any::Any + Send + Clone>(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer: accl_net::NodeAddr,
        bytes: u32,
        span: SpanId,
        body: T,
    ) {
        let flow = ctx.flow_begin("poe.flow", span);
        // `src` is stamped by the NetPort.
        let frame = accl_net::Frame::new(accl_net::NodeAddr(0), peer, bytes, body)
            .with_span(span)
            .with_flow(flow);
        let credit_ep = Endpoint::new(ctx.self_id(), ports::CREDIT);
        if let Some(frame) = self.gate.admit(frame, credit_ep) {
            ctx.send(self.net_tx, self.latency, frame);
        } else {
            ctx.stats().add(&self.keys.tx_credit_blocked, 1);
        }
    }

    /// Sends a zero-payload control frame (ACK, NAK, credit) to `peer`,
    /// bypassing the credit gate, under causal span `span`.
    pub(crate) fn send_control<T: core::any::Any + Send + Clone>(
        &self,
        ctx: &mut Ctx<'_>,
        peer: accl_net::NodeAddr,
        span: SpanId,
        body: T,
    ) {
        let frame = accl_net::Frame::new(accl_net::NodeAddr(0), peer, 0, body).with_span(span);
        ctx.send(self.net_tx, self.latency, frame);
    }

    /// Handles a [`ports::CREDIT`] event: a NIC credit return releases
    /// queued frames onto the wire; an injected [`TxCreditLeak`] shrinks
    /// the window for good.
    pub(crate) fn on_credit(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let credit_ep = Endpoint::new(ctx.self_id(), ports::CREDIT);
        match payload.try_downcast::<accl_net::CreditReturn>() {
            Ok(ret) => {
                for frame in self.gate.credit(ret.credits, credit_ep) {
                    ctx.send(self.net_tx, self.latency, frame);
                }
            }
            Err(other) => {
                let leak = other.downcast::<TxCreditLeak>();
                self.gate.leak(leak.credits);
                ctx.stats()
                    .add(&self.keys.credits_leaked, u64::from(leak.credits));
                accl_sim::trace_instant!(ctx, "poe.credit_leak", SpanId::NONE);
            }
        }
    }

    /// Admits one [`ports::NET_RX`] event. An [`EpochFence`] raises its
    /// source's minimum epoch and yields [`RxAdmit::Fenced`]. A frame from
    /// a stale incarnation is dropped (counted, and marked with a
    /// `poe.stale_drop` instant), and so is a frame that failed its FCS
    /// (counted, and marked with a `poe.fcs_drop` instant). A kept frame
    /// comes back with whether it is corrupted: with `verify` off (the
    /// chaos harness's self-test) corrupted frames are kept, with it on
    /// that flag is always `false`.
    pub(crate) fn rx_admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        payload: Payload,
        verify: bool,
    ) -> RxAdmit {
        let frame = match payload.try_downcast::<accl_net::Frame>() {
            Ok(frame) => frame,
            Err(other) => {
                let fence = other.downcast::<EpochFence>();
                let min = self.fences.entry(fence.src.0).or_insert(0);
                *min = (*min).max(fence.min_epoch);
                return RxAdmit::Fenced(fence.src);
            }
        };
        if frame.epoch < self.min_epoch(frame.src) {
            self.stale_epoch_drops += 1;
            ctx.stats().add(&STALE_EPOCH_DROPS, 1);
            accl_sim::trace_instant!(ctx, "poe.stale_drop", frame.span);
            return RxAdmit::Dropped;
        }
        let corrupted = !frame.fcs_ok();
        if corrupted && verify {
            self.fcs_dropped += 1;
            ctx.stats().add(&self.keys.fcs_dropped, 1);
            accl_sim::trace_instant!(ctx, "poe.fcs_drop", frame.span);
            return RxAdmit::Dropped;
        }
        RxAdmit::Frame(frame, corrupted)
    }

    /// Records the Rx `poe.rx` span of `frame` under the sender's wire
    /// span, covering the processing latency, and joins the frame's Tx
    /// flow edge into it. Returns the span ([`SpanId::NONE`] when spans
    /// are off).
    pub(crate) fn rx_span(&self, ctx: &mut Ctx<'_>, frame: &accl_net::Frame) -> SpanId {
        let rx_span = if ctx.spans_enabled() {
            ctx.span_interval("poe.rx", frame.span, ctx.now(), ctx.now() + self.latency)
        } else {
            SpanId::NONE
        };
        ctx.flow_end("poe.flow", frame.flow, rx_span);
        rx_span
    }

    /// Reports local success of `cmd` (all bytes handed to the wire).
    pub(crate) fn tx_done(&self, ctx: &mut Ctx<'_>, cmd: &PoeTxCmd) {
        let done = PoeTxDone {
            session: cmd.session,
            len: cmd.len,
            tag: cmd.tag,
        };
        ctx.send(self.up.tx_done, self.latency, done);
    }

    /// Reports a session error: completing the command tagged `tag` in
    /// error, or (`tag: None`) the session-fatal notification itself.
    pub(crate) fn tx_error(
        &self,
        ctx: &mut Ctx<'_>,
        session: SessionId,
        kind: SessionErrorKind,
        tag: Option<u64>,
    ) {
        let err = PoeSessionError { session, kind, tag };
        ctx.send(self.up.tx_done, self.latency, err);
    }

    /// Delivers a received chunk upward, preceded by its message's meta
    /// when this is the message's first chunk.
    pub(crate) fn deliver(&self, ctx: &mut Ctx<'_>, meta: Option<PoeRxMeta>, chunk: RxChunk) {
        if let Some(meta) = meta {
            ctx.send(self.up.rx_meta, self.latency, meta);
        }
        ctx.send(self.up.rx_data, self.latency, chunk);
    }
}

/// Session table: local session id → (peer address, peer session id).
///
/// Populated by the host driver at communicator construction time — the
/// paper's "a TCP session / queue pair needs to be established between each
/// node" (§4.3).
#[derive(Debug, Default, Clone)]
pub struct SessionTable {
    entries: Vec<Option<(accl_net::NodeAddr, SessionId)>>,
}

impl SessionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs `local → (peer, peer_session)`.
    pub fn connect(&mut self, local: SessionId, peer: accl_net::NodeAddr, peer_session: SessionId) {
        let idx = local.0 as usize;
        if self.entries.len() <= idx {
            self.entries.resize(idx + 1, None);
        }
        assert!(
            self.entries[idx].is_none(),
            "session {local:?} connected twice"
        );
        self.entries[idx] = Some((peer, peer_session));
    }

    /// Looks up the peer of `local`.
    ///
    /// # Panics
    ///
    /// Panics on an unconnected session — commands to unknown sessions are
    /// driver bugs, not recoverable protocol conditions.
    pub fn peer(&self, local: SessionId) -> (accl_net::NodeAddr, SessionId) {
        self.entries
            .get(local.0 as usize)
            .and_then(|e| *e)
            .unwrap_or_else(|| panic!("session {local:?} not connected"))
    }

    /// Number of connected sessions.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Whether no session is connected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Associates in-order Tx data chunks with the queue of Tx commands.
///
/// AXI-Stream semantics: data arrives in exactly the order commands were
/// issued; the assembler slices the byte stream back into per-command
/// messages and hands out MTU-sized segments as soon as bytes are available,
/// so transmission pipelines with the data source.
///
/// Commands and data reach the engine as separate events that may share a
/// simulated timestamp, so the assembler must not care which executes
/// first: bytes arriving ahead of their command are buffered and drained
/// when [`TxAssembler::push_cmd`] runs. (The sim-time race detector
/// exercises exactly this reordering — see accl-sim's `race` module.)
#[derive(Debug, Default)]
pub struct TxAssembler {
    cmds: std::collections::VecDeque<(PoeTxCmd, u64)>,
    /// Bytes already emitted for the head command.
    emitted: u64,
    /// Buffered bytes not yet emitted (within the head command).
    pending: Vec<Bytes>,
    pending_len: u64,
    next_msg_id: u64,
}

/// A segment ready for transmission, produced by [`TxAssembler`].
#[derive(Debug, Clone)]
pub struct TxSegment {
    /// The command this segment belongs to.
    pub cmd: PoeTxCmd,
    /// Engine-assigned message id (one per command).
    pub msg_id: u64,
    /// Offset of the segment within the message.
    pub offset: u64,
    /// Segment payload.
    pub data: Bytes,
    /// Whether this is the message's final segment.
    pub last: bool,
}

impl TxAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a command (assigning it the next message id) and drains
    /// any segments completed by bytes that arrived ahead of it.
    pub fn push_cmd(&mut self, cmd: PoeTxCmd, mtu: u32) -> Vec<TxSegment> {
        assert!(cmd.len > 0, "zero-length Tx command");
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        self.cmds.push_back((cmd, id));
        self.drain(mtu)
    }

    /// Feeds data and drains every full-MTU (or message-final) segment.
    pub fn push_data(&mut self, data: Bytes, mtu: u32) -> Vec<TxSegment> {
        self.pending_len += data.len() as u64;
        self.pending.push(data);
        self.drain(mtu)
    }

    /// Commands currently queued (including the in-progress head).
    pub fn queued_cmds(&self) -> usize {
        self.cmds.len()
    }

    fn drain(&mut self, mtu: u32) -> Vec<TxSegment> {
        let mtu = u64::from(mtu);
        let mut out = Vec::new();
        // When `cmds` runs dry with bytes still pending, those bytes
        // arrived ahead of their command (possible when both events share
        // a timestamp): keep them buffered for `push_cmd`.
        while let Some(&(cmd, msg_id)) = self.cmds.front() {
            let remaining = cmd.len - self.emitted;
            let want = remaining.min(mtu);
            if self.pending_len < want {
                break;
            }
            let seg = self.take_bytes(want as usize);
            let offset = self.emitted;
            self.emitted += want;
            let last = self.emitted == cmd.len;
            out.push(TxSegment {
                cmd,
                msg_id,
                offset,
                data: seg,
                last,
            });
            if last {
                self.cmds.pop_front();
                self.emitted = 0;
            }
        }
        out
    }

    fn take_bytes(&mut self, n: usize) -> Bytes {
        self.pending_len -= n as u64;
        let first = &mut self.pending[0];
        if first.len() > n {
            // Fast path: slice off the front of the first buffer.
            return first.split_to(n);
        }
        if first.len() == n {
            return self.pending.remove(0);
        }
        // Slow path: concatenate across buffers.
        let mut buf = Vec::with_capacity(n);
        while buf.len() < n {
            let need = n - buf.len();
            let head = &mut self.pending[0];
            if head.len() <= need {
                buf.extend_from_slice(head);
                self.pending.remove(0);
            } else {
                buf.extend_from_slice(&head.split_to(need));
            }
        }
        Bytes::from(buf)
    }
}

/// Reassembles segment-oriented arrivals (UDP datagrams, RDMA SEND frames)
/// into upward Meta + Chunk deliveries.
///
/// Each wire segment carries `(session, msg_id, offset, total)`; the demux
/// emits one [`PoeRxMeta`] on the first segment of a message and tracks
/// received byte ranges to set the `last` flag, tolerating reordering and
/// *duplication*: a segment whose bytes were already received (network
/// duplicate, spurious retransmit) is discarded rather than double-counted
/// toward message completion.
#[derive(Debug, Default)]
pub struct RxDemux {
    /// Per-message sorted disjoint received `[lo, hi)` byte ranges.
    inflight: std::collections::BTreeMap<(SessionId, u64), Vec<(u64, u64)>>,
    /// Fully delivered messages, kept so a straggling duplicate of a
    /// completed message cannot resurrect it as a fresh arrival.
    completed: std::collections::BTreeSet<(SessionId, u64)>,
    duplicates: u64,
}

impl RxDemux {
    /// Creates an empty demux.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes one arriving segment.
    ///
    /// Returns `Some((meta, chunk))` for a segment carrying new bytes,
    /// where `meta` is `Some` for the first segment of a message; `span`
    /// is attached to the chunk so receive-side consumers can link their
    /// spans to the frame's causality. Returns `None` for a duplicate
    /// (bytes already received), which callers must discard.
    pub fn accept(
        &mut self,
        session: SessionId,
        msg_id: u64,
        offset: u64,
        total: u64,
        data: Bytes,
        span: SpanId,
    ) -> Option<(Option<PoeRxMeta>, RxChunk)> {
        let key = (session, msg_id);
        if self.completed.contains(&key) {
            self.duplicates += 1;
            return None;
        }
        let first = !self.inflight.contains_key(&key);
        let ranges = self.inflight.entry(key).or_default();
        let (lo, hi) = (offset, offset + data.len() as u64);
        debug_assert!(hi <= total, "segment beyond message length");
        if ranges.iter().any(|&(a, b)| lo < b && a < hi) {
            // Segment boundaries are stable per message (MTU grid), so any
            // overlap means the whole segment was already received.
            self.duplicates += 1;
            return None;
        }
        ranges.push((lo, hi));
        ranges.sort_unstable();
        let got: u64 = ranges.iter().map(|&(a, b)| b - a).sum();
        debug_assert!(got <= total, "received more bytes than message length");
        let last = got == total;
        if last {
            self.inflight.remove(&key);
            self.completed.insert(key);
        }
        let meta = first.then_some(PoeRxMeta {
            session,
            msg_id,
            len: total,
        });
        Some((
            meta,
            RxChunk {
                session,
                msg_id,
                offset,
                data,
                last,
                span,
            },
        ))
    }

    /// Forgets every message of `session`, partial or delivered: its
    /// peer rebooted, and the new incarnation numbers messages afresh.
    pub fn forget(&mut self, session: SessionId) {
        self.inflight.retain(|&(s, _), _| s != session);
        self.completed.retain(|&(s, _)| s != session);
    }

    /// Messages currently partially received.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Duplicate segments discarded so far.
    pub fn duplicates_discarded(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accl_net::NodeAddr;

    fn cmd(len: u64, tag: u64) -> PoeTxCmd {
        PoeTxCmd {
            session: SessionId(1),
            len,
            kind: TxKind::Send,
            tag,
            span: SpanId::NONE,
        }
    }

    #[test]
    fn session_table_connects_and_resolves() {
        let mut t = SessionTable::new();
        t.connect(SessionId(0), NodeAddr(3), SessionId(7));
        assert_eq!(t.peer(SessionId(0)), (NodeAddr(3), SessionId(7)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn unconnected_session_panics() {
        SessionTable::new().peer(SessionId(5));
    }

    #[test]
    fn assembler_segments_at_mtu() {
        let mut a = TxAssembler::new();
        assert!(a.push_cmd(cmd(10_000, 1), 4096).is_empty());
        let segs = a.push_data(Bytes::from(vec![7u8; 10_000]), 4096);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].data.len(), 4096);
        assert_eq!(segs[2].data.len(), 10_000 - 8192);
        assert!(segs[2].last && !segs[0].last);
        assert_eq!(segs[1].offset, 4096);
        assert_eq!(a.queued_cmds(), 0);
    }

    #[test]
    fn assembler_pipelines_partial_data() {
        let mut a = TxAssembler::new();
        a.push_cmd(cmd(8192, 1), 4096);
        // First 4 KiB: one full segment emitted immediately.
        let segs = a.push_data(Bytes::from(vec![1u8; 4096]), 4096);
        assert_eq!(segs.len(), 1);
        // 2 KiB more: not a full MTU and not message end — buffered.
        assert!(a.push_data(Bytes::from(vec![2u8; 2048]), 4096).is_empty());
        // Final 2 KiB completes the message.
        let segs = a.push_data(Bytes::from(vec![3u8; 2048]), 4096);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].last);
        assert_eq!(segs[0].data.len(), 4096);
        // Byte order preserved across the buffer boundary.
        assert_eq!(&segs[0].data[0..2048], &[2u8; 2048][..]);
        assert_eq!(&segs[0].data[2048..], &[3u8; 2048][..]);
    }

    #[test]
    fn assembler_spans_multiple_commands() {
        let mut a = TxAssembler::new();
        a.push_cmd(cmd(100, 1), 4096);
        a.push_cmd(cmd(200, 2), 4096);
        let segs = a.push_data(Bytes::from(vec![0u8; 300]), 4096);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].cmd.tag, 1);
        assert_eq!(segs[0].data.len(), 100);
        assert_eq!(segs[1].cmd.tag, 2);
        assert_eq!(segs[1].data.len(), 200);
        assert!(segs[0].last && segs[1].last);
    }

    #[test]
    fn data_before_command_is_buffered_then_drained() {
        // Command and first data chunk may share a timestamp; either
        // execution order must produce the same segments.
        let mut a = TxAssembler::new();
        assert!(a.push_data(Bytes::from(vec![9u8; 100]), 4096).is_empty());
        let segs = a.push_cmd(cmd(100, 1), 4096);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].last);
        assert_eq!(segs[0].cmd.tag, 1);
        assert_eq!(&segs[0].data[..], &[9u8; 100][..]);
        assert_eq!(a.queued_cmds(), 0);
    }

    #[test]
    fn demux_emits_meta_once_and_last_flag() {
        let mut d = RxDemux::new();
        let (m1, c1) = d
            .accept(
                SessionId(2),
                9,
                0,
                10,
                Bytes::from(vec![0u8; 6]),
                SpanId::NONE,
            )
            .unwrap();
        assert!(m1.is_some());
        assert_eq!(m1.unwrap().len, 10);
        assert!(!c1.last);
        let (m2, c2) = d
            .accept(
                SessionId(2),
                9,
                6,
                10,
                Bytes::from(vec![0u8; 4]),
                SpanId::NONE,
            )
            .unwrap();
        assert!(m2.is_none());
        assert!(c2.last);
        assert_eq!(d.inflight(), 0);
    }

    #[test]
    fn demux_tolerates_reordering() {
        let mut d = RxDemux::new();
        let (m1, c1) = d
            .accept(
                SessionId(0),
                1,
                6,
                10,
                Bytes::from(vec![0u8; 4]),
                SpanId::NONE,
            )
            .unwrap();
        assert!(m1.is_some());
        assert!(!c1.last);
        let (_, c2) = d
            .accept(
                SessionId(0),
                1,
                0,
                10,
                Bytes::from(vec![0u8; 6]),
                SpanId::NONE,
            )
            .unwrap();
        assert!(c2.last);
    }

    #[test]
    fn demux_discards_duplicates() {
        let mut d = RxDemux::new();
        let seg = |d: &mut RxDemux, offset, len| {
            d.accept(
                SessionId(0),
                1,
                offset,
                10,
                Bytes::from(vec![0u8; len]),
                SpanId::NONE,
            )
        };
        assert!(seg(&mut d, 0, 6).is_some());
        // Same segment again mid-message: duplicate, not progress.
        assert!(seg(&mut d, 0, 6).is_none());
        assert_eq!(d.duplicates_discarded(), 1);
        let (_, c) = seg(&mut d, 6, 4).unwrap();
        assert!(c.last, "duplicates must not inflate the byte count");
        // A straggler after completion cannot resurrect the message.
        assert!(seg(&mut d, 6, 4).is_none());
        assert_eq!(d.duplicates_discarded(), 2);
        assert_eq!(d.inflight(), 0);
    }

    #[test]
    fn demux_keeps_sessions_separate() {
        let mut d = RxDemux::new();
        d.accept(
            SessionId(0),
            1,
            0,
            10,
            Bytes::from(vec![0u8; 4]),
            SpanId::NONE,
        );
        d.accept(
            SessionId(1),
            1,
            0,
            10,
            Bytes::from(vec![0u8; 4]),
            SpanId::NONE,
        );
        assert_eq!(d.inflight(), 2);
    }

    /// A bare UDP engine whose Rx chunks land in a mailbox, for driving
    /// its `NET_RX` port by hand. Returns the simulator, the engine and
    /// the mailbox.
    fn udp_rx_bench() -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new(0);
        let wire = sim.add("wire", Mailbox::<accl_net::Frame>::new());
        let meta = sim.add("meta", Mailbox::<PoeRxMeta>::new());
        let data = sim.add("data", Mailbox::<RxChunk>::new());
        let done = sim.add("done", CompletionLog::new());
        let up = PoeUpward {
            rx_meta: Endpoint::of(meta),
            rx_data: Endpoint::of(data),
            tx_done: Endpoint::of(done),
        };
        let udp = crate::udp::UdpPoe::new(
            Default::default(),
            Endpoint::of(wire),
            up,
            SessionTable::new(),
        );
        let poe = sim.add("udp", udp);
        (sim, poe, data)
    }

    /// A one-byte, one-segment datagram from `src` in incarnation `epoch`.
    fn dgram_from(src: u32, epoch: u32, msg_id: u64) -> accl_net::Frame {
        let dgram = crate::udp::UdpDgram {
            dst_session: SessionId(src),
            msg_id,
            offset: 0,
            total: 1,
            data: Bytes::from_static(b"x"),
        };
        let mut frame = accl_net::Frame::new(NodeAddr(src), NodeAddr(1), 1, dgram);
        frame.epoch = epoch;
        frame
    }

    #[test]
    fn stale_epochs_are_fenced() {
        let (mut sim, poe, data) = udp_rx_bench();
        let at = Endpoint::new(poe, ports::NET_RX);
        // Epoch-0 frame before any fence: delivered.
        sim.post(at, Time::ZERO, dgram_from(0, 0, 0));
        // Fence source 0 at epoch 1; later epoch-0 frames drop, epoch-1
        // frames pass.
        let fence = EpochFence {
            src: NodeAddr(0),
            min_epoch: 1,
        };
        sim.post(at, Time::from_us(1), fence);
        sim.post(at, Time::from_us(2), dgram_from(0, 0, 1));
        sim.post(at, Time::from_us(3), dgram_from(0, 1, 2));
        // Frames from *other* sources are unaffected by the fence.
        sim.post(at, Time::from_us(4), dgram_from(3, 0, 3));
        sim.run();
        assert_eq!(sim.component::<Mailbox<RxChunk>>(data).len(), 3);
        let io = sim.component::<crate::udp::UdpPoe>(poe).io();
        assert_eq!(io.stale_epoch_drops(), 1);
        assert_eq!(io.min_epoch(NodeAddr(0)), 1);
        assert_eq!(io.min_epoch(NodeAddr(3)), 0);
        assert_eq!(sim.stats().counter("poe.mux.stale_epoch_drops"), 1);
    }

    #[test]
    fn fences_fold_into_the_engine_digest() {
        let (mut sim, poe, _) = udp_rx_bench();
        let digest = |sim: &Simulator| sim.component::<crate::udp::UdpPoe>(poe).state_digest();
        let before = digest(&sim);
        let fence = EpochFence {
            src: NodeAddr(2),
            min_epoch: 1,
        };
        sim.post(Endpoint::new(poe, ports::NET_RX), Time::ZERO, fence);
        sim.run();
        let fenced = digest(&sim);
        assert_ne!(before, fenced);
        // A stale drop moves it again.
        sim.post(
            Endpoint::new(poe, ports::NET_RX),
            Time::from_us(1),
            dgram_from(2, 0, 0),
        );
        sim.run();
        assert_ne!(digest(&sim), fenced);
    }

    fn gate_frame() -> accl_net::Frame {
        accl_net::Frame::new(accl_net::NodeAddr(0), accl_net::NodeAddr(1), 64, 0u8)
    }

    fn gate_ep() -> Endpoint {
        let mut sim = Simulator::new(0);
        let id = sim.add("gate-owner", Mailbox::<u8>::new());
        Endpoint::new(id, ports::CREDIT)
    }

    #[test]
    fn gate_without_window_passes_through_unstamped() {
        let mut g = TxCreditGate::new();
        let out = g.admit(gate_frame(), gate_ep()).expect("pass-through");
        assert!(out.credit_return.is_none(), "must not stamp when ungated");
        assert_eq!(g.in_flight(), 0);
        assert!(g.state().is_none());
        assert!(g.parked_work().is_none());
    }

    #[test]
    fn gate_window_queues_overflow_and_credits_release_in_order() {
        let mut g = TxCreditGate::new();
        g.set_window(Some(2), "net.txcredit(n0)");
        let a = g.admit(gate_frame(), gate_ep());
        let b = g.admit(gate_frame(), gate_ep());
        assert!(a.is_some() && b.is_some());
        assert_eq!(a.unwrap().credit_return, Some(gate_ep()));
        assert!(g.admit(gate_frame(), gate_ep()).is_none(), "window full");
        assert!(g.blocked());
        assert_eq!(g.queued_frames(), 1);
        let st = g.state().expect("bounded gate has state");
        assert_eq!(st.waits, vec!["net.txcredit(n0)".to_string()]);
        let released = g.credit(1, gate_ep());
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].credit_return, Some(gate_ep()));
        assert!(!g.blocked());
        assert_eq!(g.in_flight(), 2);
    }

    #[test]
    fn gate_leak_shrinks_window_permanently() {
        let mut g = TxCreditGate::new();
        g.set_window(Some(2), "net.txcredit(n0)");
        g.leak(2);
        assert!(
            g.admit(gate_frame(), gate_ep()).is_none(),
            "window leaked dry"
        );
        // Credits that never existed cannot come back: still blocked.
        assert!(g.credit(0, gate_ep()).is_empty());
        assert!(g.blocked());
        assert_eq!(g.leaked(), 2);
        let parked = g.parked_work().expect("blocked gate parks work");
        assert!(parked.op.contains("2 leaked"), "op: {}", parked.op);
    }

    #[test]
    fn leaked_credits_wedge_tx_and_deadlock_detector_names_the_orphan() {
        // A TCP engine on a two-node fabric: the leak is handled by the
        // shared I/O edge, whatever the protocol.
        let mut sim = Simulator::new(0);
        let net = accl_net::Network::build(&mut sim, accl_net::NetConfig::default(), 2);
        let mut poes = Vec::new();
        for i in 0..2 {
            let meta = sim.add(format!("meta{i}"), Mailbox::<PoeRxMeta>::new());
            let data = sim.add(format!("data{i}"), Mailbox::<RxChunk>::new());
            let done = sim.add(format!("done{i}"), CompletionLog::new());
            let mut sessions = SessionTable::new();
            sessions.connect(
                SessionId(1 - i as u32),
                net.addr(1 - i),
                SessionId(i as u32),
            );
            let up = PoeUpward {
                rx_meta: Endpoint::of(meta),
                rx_data: Endpoint::of(data),
                tx_done: Endpoint::of(done),
            };
            let tcp = crate::tcp::TcpPoe::new(Default::default(), net.tx(i), up, sessions);
            let poe = sim.add(format!("tcp{i}"), tcp);
            net.attach_rx(&mut sim, i, Endpoint::new(poe, ports::NET_RX));
            poes.push(poe);
        }
        sim.component_mut::<crate::tcp::TcpPoe>(poes[0])
            .io_mut()
            .set_tx_credit_window(Some(2), "net.txcredit(n0)");
        // The planted bug: both credits leak before any frame is admitted,
        // so the gate can never open again.
        sim.post(
            Endpoint::new(poes[0], ports::CREDIT),
            Time::ZERO,
            TxCreditLeak { credits: 2 },
        );
        let cmd = PoeTxCmd {
            session: SessionId(1),
            ..cmd(20_000, 9)
        };
        sim.post(Endpoint::new(poes[0], ports::TX_CMD), Time::ZERO, cmd);
        let data = StreamChunk {
            data: Bytes::from(vec![1u8; 20_000]),
            last: true,
        };
        sim.post(Endpoint::new(poes[0], ports::TX_DATA), Time::ZERO, data);
        match sim.run() {
            RunOutcome::Stalled(report) => {
                assert!(
                    report.op.contains("awaiting tx credits"),
                    "op: {}",
                    report.op
                );
                let dl = report.deadlock.as_ref().expect("deadlock analysis");
                assert_eq!(dl.kind, DeadlockKind::OrphanedWait);
                assert!(
                    dl.chain.iter().any(|s| s.contains("net.txcredit(n0)")),
                    "chain must name the leaked resource: {:?}",
                    dl.chain
                );
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }
}
