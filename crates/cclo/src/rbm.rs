//! The RxBuf Manager: eager-message buffering, reassembly and matching.
//!
//! The RBM owns the pool of Rx buffers in FPGA memory. Incoming eager
//! messages (possibly interleaved across sessions) are reassembled into a
//! buffer; when the DMP asks for a `(comm, src, tag)` message, the RBM
//! matches FIFO against completed messages and streams the payload into the
//! datapath, freeing the buffer afterwards (paper §4.4.1, paths ⑤/⑥ of
//! Fig. 5).
//!
//! In legacy-ACCL mode the per-packet reassembly bookkeeping is charged to
//! the (slow, sequential) embedded micro-controller instead of dedicated
//! hardware — the architectural difference the paper credits for ACCL+'s
//! advantage over ACCL in Fig. 13.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};

use crate::config::CcloConfig;
use crate::dmp::take_bytes;
use crate::msg::MsgSignature;
use crate::rxsys::{RbmData, RbmMeta, RxMsgKey};

/// Matching key for eager messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatchKey {
    /// Communicator id.
    pub comm: u32,
    /// Sending rank.
    pub src_rank: u32,
    /// Message tag.
    pub tag: u64,
}

impl MatchKey {
    fn of(sig: &MsgSignature) -> MatchKey {
        MatchKey {
            comm: sig.comm,
            src_rank: sig.src_rank,
            tag: sig.tag,
        }
    }
}

/// A DMP request for an expected eager message.
#[derive(Debug, Clone, Copy)]
pub struct RbmQuery {
    /// What to match.
    pub key: MatchKey,
    /// Expected payload length (checked on match).
    pub len: u64,
    /// Ticket echoed in the streamed chunks.
    pub ticket: u64,
    /// Where to stream the payload.
    pub reply: Endpoint,
    /// Causal parent for the match's `rbm.msg` span (the querying DMP
    /// instruction's span).
    pub span: SpanId,
}

/// A payload chunk streamed from an Rx buffer into the datapath.
#[derive(Debug, Clone)]
pub struct RbmStream {
    /// Ticket from the matching [`RbmQuery`].
    pub ticket: u64,
    /// Offset within the payload.
    pub offset: u64,
    /// The bytes.
    pub data: Bytes,
    /// Whether the payload is complete after this chunk.
    pub last: bool,
}

/// Ports of the [`Rbm`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Message signatures from the Rx system ([`super::RbmMeta`]).
    pub const META: PortId = PortId(0);
    /// Payload data from the Rx system ([`super::RbmData`]).
    pub const DATA: PortId = PortId(1);
    /// Match requests from the DMP ([`super::RbmQuery`]).
    pub const QUERY: PortId = PortId(2);
    /// Abort cleanup from the uC ([`super::RbmPurge`]).
    pub const PURGE: PortId = PortId(3);
    /// Fault injection: permanently remove buffers from the pool
    /// ([`super::RbmShrink`]).
    pub const SHRINK: PortId = PortId(4);
    /// Restart recovery: drop all Rx state and restore the pool
    /// ([`super::RbmResync`]).
    pub const RESYNC: PortId = PortId(5);
}

/// uC request to drop all eager state belonging to an aborted collective:
/// buffered messages go back to the pool, waiting DMP queries are
/// cancelled. Wire tags namespace collective steps under the user tag
/// (`user_tag << 32 | step`), so one purge covers every step of the call.
#[derive(Debug, Clone, Copy)]
pub struct RbmPurge {
    /// Communicator of the aborted call.
    pub comm: u32,
    /// The aborted command's user tag.
    pub user_tag: u64,
}

/// Restart recovery: the node rebooted and its Rx-buffer contents did not
/// survive. Every buffered or in-flight message, waiting DMP query,
/// deferred admission and orphan piece is dropped, and the pool is
/// restored to its full post-shrink capacity. Posted by the cluster at a
/// node's restart instant, before any rejoin traffic arrives, so the new
/// incarnation starts from a clean reassembly state instead of mixing
/// pre-crash fragments into post-rejoin messages.
#[derive(Debug, Clone, Copy)]
pub struct RbmResync;

/// Chaos fault: permanently removes `bufs` buffers from the Rx pool,
/// modelling memory pressure or a buffer-accounting bug. Free buffers are
/// taken first; any remainder is debited as held buffers drain back.
#[derive(Debug, Clone, Copy)]
pub struct RbmShrink {
    /// Buffers to remove.
    pub bufs: u32,
}

/// One buffered (or in-flight) eager message.
struct MsgState {
    sig: MsgSignature,
    pieces: Vec<(u64, Bytes)>,
    received: u64,
    admitted: bool,
    /// Earliest time the assembled message is usable (buffer writes and,
    /// in legacy mode, uC per-packet work).
    ready_at: Time,
    matched: bool,
    /// Receive span of the piece that completed the message — the arrival
    /// a waiting match was blocked on ([`SpanId::NONE`] until then).
    span: SpanId,
}

/// The RxBuf manager component.
pub struct Rbm {
    cfg: CcloConfig,
    msgs: BTreeMap<RxMsgKey, MsgState>,
    /// Arrival-ordered completed-or-inflight messages per matching key.
    by_match: BTreeMap<MatchKey, VecDeque<RxMsgKey>>,
    /// Waiting DMP queries per matching key, each with the time it was
    /// posted (feeds the `rbm.meta_wait_ps` histogram at match commit).
    queries: BTreeMap<MatchKey, VecDeque<(RbmQuery, Time)>>,
    /// Data pieces that arrived before their message's [`RbmMeta`]. The Rx
    /// system always *sends* META no later than the first DATA of a
    /// message, so an orphan can only exist while both deliveries share a
    /// timestamp — it is drained as soon as the META executes. Keeping the
    /// two handlers commutative keeps the RBM off the sim-time race
    /// detector's radar (see accl-sim's `race` module).
    orphan_data: BTreeMap<RxMsgKey, Vec<RbmData>>,
    /// Free Rx buffers.
    free_bufs: u32,
    /// Messages waiting for a buffer.
    waiting_admission: VecDeque<RxMsgKey>,
    /// Rx-buffer write bandwidth (packets landing).
    write_pipe: Pipe,
    /// Rx-buffer read-out bandwidth (matched payloads to the DMP) —
    /// a separate physical stream interface from the write path.
    read_pipe: Pipe,
    /// Legacy mode: serialized uC per-packet work.
    legacy_pipe: Option<Pipe>,
    /// Times the pool ran dry (eager backpressure events).
    pub exhaustion_events: u64,
    /// Buffers permanently removed by [`RbmShrink`] faults.
    shrunk: u32,
    /// Shrink remainder still to be debited as held buffers free up.
    shrink_debt: u32,
    /// Exhaustion notifications to the uC (`notify_rx_exhaustion`).
    notify: Option<Endpoint>,
    /// Resource name for stall diagnosis (scoped per node by the engine).
    resource: String,
    chunk_bytes: u64,
}

impl Rbm {
    /// Creates an RBM per the engine configuration.
    pub fn new(cfg: CcloConfig) -> Self {
        let datapath_bps = cfg.datapath_bytes_per_cycle as f64 * cfg.clock_mhz * 1e6;
        let legacy_pipe = cfg.legacy_uc.map(|l| {
            Pipe::bytes_per_sec(1e30)
                .with_per_item(Dur::for_cycles(l.per_packet_cycles, l.clock_mhz))
        });
        Rbm {
            free_bufs: cfg.rx_buf_count,
            msgs: BTreeMap::new(),
            by_match: BTreeMap::new(),
            queries: BTreeMap::new(),
            orphan_data: BTreeMap::new(),
            waiting_admission: VecDeque::new(),
            write_pipe: Pipe::bytes_per_sec(datapath_bps),
            read_pipe: Pipe::bytes_per_sec(datapath_bps),
            legacy_pipe,
            exhaustion_events: 0,
            shrunk: 0,
            shrink_debt: 0,
            notify: None,
            resource: "cclo.rxbuf".to_string(),
            chunk_bytes: 4096,
            cfg,
        }
    }

    /// Routes pool-exhaustion notifications to the uC's NOTIF port.
    pub fn set_exhaustion_notify(&mut self, ep: Endpoint) {
        self.notify = Some(ep);
    }

    /// Scopes the pool's resource name for stall diagnosis
    /// (e.g. `"cclo.rxbuf(n0)"`).
    pub fn set_resource_label(&mut self, label: impl Into<String>) {
        self.resource = label.into();
    }

    /// Buffers currently free.
    pub fn free_buffers(&self) -> u32 {
        self.free_bufs
    }

    /// Buffers permanently removed by shrink faults so far.
    pub fn shrunk(&self) -> u32 {
        self.shrunk
    }

    /// Returns one buffer to the pool, paying down shrink debt first.
    fn release_buf(&mut self) {
        if self.shrink_debt > 0 {
            self.shrink_debt -= 1;
        } else {
            self.free_bufs += 1;
        }
    }

    /// Wipes all Rx state after the node's own restart: a rebooted RBM
    /// has no in-flight messages, no pending queries, and a full buffer
    /// pool. Shrink faults model permanent capacity loss and survive the
    /// reboot; any outstanding debt is settled by the wipe.
    fn resync(&mut self, ctx: &mut Ctx<'_>) {
        let dropped_msgs = self.msgs.len() as u64;
        let dropped_queries = self.queries.values().map(VecDeque::len).sum::<usize>();
        self.msgs.clear();
        self.by_match.clear();
        self.queries.clear();
        self.orphan_data.clear();
        self.waiting_admission.clear();
        self.free_bufs = self.cfg.rx_buf_count.saturating_sub(self.shrunk);
        self.shrink_debt = 0;
        ctx.stats().add("rbm.resyncs", 1);
        ctx.stats().add("rbm.resync_dropped_msgs", dropped_msgs);
        ctx.stats()
            .add("rbm.resync_dropped_queries", dropped_queries as u64);
    }

    /// Messages buffered but not yet matched.
    pub fn unmatched_messages(&self) -> usize {
        self.msgs.values().filter(|m| !m.matched).count()
    }

    /// DMP queries waiting for a matching message.
    pub fn pending_queries(&self) -> usize {
        self.queries.values().map(VecDeque::len).sum()
    }

    /// Drops all state belonging to an aborted collective and returns its
    /// Rx buffers to the pool (admitting deferred messages into them).
    fn purge(&mut self, ctx: &mut Ctx<'_>, p: RbmPurge) {
        let hit = |key: &MatchKey| key.comm == p.comm && key.tag >> 32 == p.user_tag;
        let mut dropped_queries = 0u64;
        self.queries.retain(|key, q| {
            if hit(key) {
                dropped_queries += q.len() as u64;
                false
            } else {
                true
            }
        });
        let mut victims: Vec<RxMsgKey> = self
            .msgs
            .iter()
            .filter(|(_, m)| hit(&MatchKey::of(&m.sig)))
            .map(|(k, _)| *k)
            .collect();
        victims.sort_by_key(|k| (k.session, k.msg_id));
        let mut freed = 0u64;
        for k in &victims {
            let Some(m) = self.msgs.remove(k) else {
                continue;
            };
            if m.admitted {
                self.release_buf();
                freed += 1;
            }
        }
        self.waiting_admission.retain(|k| self.msgs.contains_key(k));
        self.by_match.retain(|key, _| !hit(key));
        // Freed buffers admit deferred messages in arrival order.
        let mut to_match = Vec::new();
        while self.free_bufs > 0 {
            let Some(wkey) = self.waiting_admission.pop_front() else {
                break;
            };
            self.free_bufs -= 1;
            let m = self.msgs.get_mut(&wkey).expect("waiting msg vanished");
            m.admitted = true;
            to_match.push(MatchKey::of(&m.sig));
        }
        for key in to_match {
            self.try_match(ctx, key);
        }
        ctx.stats().add("rbm.purged_bufs", freed);
        ctx.stats().add("rbm.purged_queries", dropped_queries);
    }

    /// Folds one payload piece into its message's reassembly state.
    fn on_data(&mut self, ctx: &mut Ctx<'_>, data: RbmData) {
        let Some(msg) = self.msgs.get_mut(&data.key) else {
            // META and this DATA share a timestamp and the tie-break rule
            // delivered DATA first; park the piece until META executes.
            self.orphan_data.entry(data.key).or_default().push(data);
            return;
        };
        let n = data.data.len() as u64;
        msg.received += n;
        ctx.stats().add("rbm.rx_bytes", n);
        debug_assert!(
            msg.received <= msg.sig.payload_len,
            "RBM overflow: {} > {}",
            msg.received,
            msg.sig.payload_len
        );
        // Charge the buffer write.
        let (_, wr_end) = self.write_pipe.reserve(ctx.now(), n);
        let mut ready = wr_end;
        if let Some(lp) = &mut self.legacy_pipe {
            // Legacy ACCL: the uC touches every packet.
            let (_, uc_end) = lp.reserve(ctx.now(), 1);
            ready = ready.max(uc_end);
        }
        msg.pieces.push((data.offset, data.data));
        msg.ready_at = msg.ready_at.max(ready);
        if msg.received == msg.sig.payload_len {
            msg.span = data.span;
            let key = MatchKey::of(&msg.sig);
            self.try_match(ctx, key);
        }
    }

    fn try_match(&mut self, ctx: &mut Ctx<'_>, key: MatchKey) {
        loop {
            let Some((q, posted)) = self.queries.get(&key).and_then(|q| q.front().copied()) else {
                return;
            };
            // Head message for this key must be complete and admitted.
            let Some(&mkey) = self.by_match.get(&key).and_then(VecDeque::front) else {
                return;
            };
            let msg = self.msgs.get(&mkey).expect("match index out of sync");
            if !msg.admitted || msg.received < msg.sig.payload_len {
                return;
            }
            assert_eq!(
                q.len, msg.sig.payload_len,
                "eager match length mismatch for {key:?}"
            );
            // Commit the match. The query waited from its post until now
            // for a complete, admitted message — the "RBM meta wait" that
            // dominates small-message latency; exported as a histogram so
            // the windowed SLO series can track it over sim time.
            let waited = ctx.now().since(posted);
            ctx.stats().observe("rbm.meta_wait_ps", waited.as_ps());
            self.queries.get_mut(&key).unwrap().pop_front();
            self.by_match.get_mut(&key).unwrap().pop_front();
            let mut msg = self.msgs.remove(&mkey).unwrap();
            msg.matched = true;
            self.stream_out(ctx, &q, msg);
            // Buffer freed; admit a waiting message if any (unless the
            // freed buffer went to pay down shrink debt).
            self.release_buf();
            if self.free_bufs > 0 {
                if let Some(wkey) = self.waiting_admission.pop_front() {
                    self.free_bufs -= 1;
                    let wmatch = {
                        let m = self.msgs.get_mut(&wkey).expect("waiting msg vanished");
                        m.admitted = true;
                        MatchKey::of(&m.sig)
                    };
                    if wmatch == key {
                        continue;
                    }
                    self.try_match(ctx, wmatch);
                }
            }
        }
    }

    /// Streams a matched message's payload to the DMP.
    fn stream_out(&mut self, ctx: &mut Ctx<'_>, q: &RbmQuery, msg: MsgState) {
        // Discovery is quantized by the DMP's polling interval (§4.4.1:
        // "the DMP sends out requests periodically to the RBM").
        let poll = self.cfg.cycles(self.cfg.rbm_poll_cycles);
        let start = msg.ready_at.max(ctx.now()) + poll;
        if msg.sig.payload_len == 0 {
            if ctx.spans_enabled() {
                ctx.span_interval("rbm.msg", q.span, start, start);
            }
            ctx.send_at(
                q.reply,
                start,
                RbmStream {
                    ticket: q.ticket,
                    offset: 0,
                    data: Bytes::new(),
                    last: true,
                },
            );
            return;
        }
        // Emit datapath-paced chunks straight from the pieces in offset
        // order; only a chunk that straddles two pieces is gathered.
        let mut pieces = msg.pieces;
        pieces.sort_by_key(|(off, _)| *off);
        let mut payload = VecDeque::with_capacity(pieces.len());
        let mut total = 0u64;
        for (off, data) in pieces {
            assert_eq!(off, total, "payload reassembly gap");
            total += data.len() as u64;
            payload.push_back(data);
        }
        let mut off = 0u64;
        let mut last_end = start;
        while off < total {
            let n = self.chunk_bytes.min(total - off);
            let (_, end) = self.read_pipe.reserve(start, n);
            last_end = last_end.max(end);
            ctx.send_at(
                q.reply,
                end,
                RbmStream {
                    ticket: q.ticket,
                    offset: off,
                    data: take_bytes(&mut payload, n),
                    last: off + n == total,
                },
            );
            off += n;
        }
        if ctx.spans_enabled() {
            let span = ctx.span_interval_attrs(
                "rbm.msg",
                q.span,
                start,
                last_end,
                &[Attr {
                    key: "bytes",
                    value: AttrValue::U64(total),
                }],
            );
            // Link the wait to the arrival that ended it, so the critical
            // path can follow it back through the POE onto the wire.
            if !msg.span.is_none() {
                let flow = ctx.flow_begin("rbm.flow", msg.span);
                ctx.flow_end("rbm.flow", flow, span);
            }
        }
    }
}

impl Component for Rbm {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::META => {
                let meta = payload.downcast::<RbmMeta>();
                assert!(
                    meta.sig.payload_len <= self.cfg.rx_buf_bytes,
                    "eager message ({} B) exceeds Rx buffer size ({} B)",
                    meta.sig.payload_len,
                    self.cfg.rx_buf_bytes
                );
                let admitted = if self.free_bufs > 0 {
                    self.free_bufs -= 1;
                    true
                } else {
                    self.exhaustion_events += 1;
                    ctx.stats().add("rbm.exhausted", 1);
                    if let Some(uc) = self.notify {
                        ctx.send(uc, Dur::ZERO, crate::rxsys::UcNotif::RxExhausted);
                    }
                    self.waiting_admission.push_back(meta.key);
                    false
                };
                let key = MatchKey::of(&meta.sig);
                self.msgs.insert(
                    meta.key,
                    MsgState {
                        sig: meta.sig,
                        pieces: Vec::new(),
                        received: 0,
                        admitted,
                        ready_at: ctx.now(),
                        matched: false,
                        span: SpanId::NONE,
                    },
                );
                self.by_match.entry(key).or_default().push_back(meta.key);
                if let Some(orphans) = self.orphan_data.remove(&meta.key) {
                    for data in orphans {
                        self.on_data(ctx, data);
                    }
                }
                if meta.sig.payload_len == 0 {
                    self.try_match(ctx, key);
                }
            }
            ports::DATA => {
                let data = payload.downcast::<RbmData>();
                self.on_data(ctx, data);
            }
            ports::QUERY => {
                let q = payload.downcast::<RbmQuery>();
                let posted = ctx.now();
                self.queries
                    .entry(q.key)
                    .or_default()
                    .push_back((q, posted));
                self.try_match(ctx, q.key);
            }
            ports::PURGE => {
                let p = payload.downcast::<RbmPurge>();
                self.purge(ctx, p);
            }
            ports::RESYNC => {
                payload.downcast::<RbmResync>();
                self.resync(ctx);
            }
            ports::SHRINK => {
                let s = payload.downcast::<RbmShrink>();
                let from_free = s.bufs.min(self.free_bufs);
                self.free_bufs -= from_free;
                self.shrink_debt += s.bufs - from_free;
                self.shrunk += s.bufs;
                ctx.stats().add("rbm.bufs_shrunk", s.bufs as u64);
            }
            other => panic!("RBM has no port {other:?}"),
        }
    }

    fn resource_state(&self) -> Option<ResourceState> {
        let held = self.msgs.values().filter(|m| m.admitted).count() as u64;
        let deferred = self.waiting_admission.len() as u64;
        if held == 0 && deferred == 0 && self.shrunk == 0 {
            return None;
        }
        let capacity = self.cfg.rx_buf_count.saturating_sub(self.shrunk) as u64;
        let mut st = ResourceState::gauges_only(vec![ResourceGauge {
            name: self.resource.clone(),
            used: held,
            capacity: Some(capacity),
        }]);
        if deferred > 0 {
            st.gauges.push(ResourceGauge {
                name: format!("{}.deferred", self.resource),
                used: deferred,
                capacity: None,
            });
            st.waits.push(self.resource.clone());
        }
        if held > 0 {
            st.holds.push(self.resource.clone());
        }
        Some(st)
    }

    fn state_digest(&self) -> Option<u64> {
        // Pool accounting (free/shrunk/debt), backpressure totals, and the
        // message/queue populations (BTreeMap order is canonical).
        let mut h = 0u64;
        for v in [
            u64::from(self.free_bufs),
            u64::from(self.shrunk),
            u64::from(self.shrink_debt),
            self.exhaustion_events,
            self.msgs.len() as u64,
            self.waiting_admission.len() as u64,
            self.write_pipe.next_free().as_ps(),
            self.read_pipe.next_free().as_ps(),
        ] {
            accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgType;
    use accl_poe::iface::SessionId;

    fn sig(src: u32, tag: u64, len: u64) -> MsgSignature {
        MsgSignature {
            src_rank: src,
            dst_rank: 0,
            mtype: MsgType::Eager,
            payload_len: len,
            tag,
            seq: 0,
            addr: 0,
            comm: 0,
        }
    }

    struct Harness {
        sim: Simulator,
        rbm: ComponentId,
        out: ComponentId,
    }

    fn harness(cfg: CcloConfig) -> Harness {
        let mut sim = Simulator::new(0);
        let out = sim.add("out", Mailbox::<RbmStream>::new());
        let rbm = sim.add("rbm", Rbm::new(cfg));
        Harness { sim, rbm, out }
    }

    fn meta(h: &mut Harness, msg_id: u64, sig: MsgSignature) {
        h.sim.post(
            Endpoint::new(h.rbm, ports::META),
            h.sim.now(),
            RbmMeta {
                key: RxMsgKey {
                    session: SessionId(0),
                    msg_id,
                },
                sig,
            },
        );
        h.sim.run();
    }

    fn data(h: &mut Harness, msg_id: u64, offset: u64, bytes: Vec<u8>) {
        h.sim.post(
            Endpoint::new(h.rbm, ports::DATA),
            h.sim.now(),
            RbmData {
                key: RxMsgKey {
                    session: SessionId(0),
                    msg_id,
                },
                offset,
                data: Bytes::from(bytes),
                span: SpanId::NONE,
            },
        );
        h.sim.run();
    }

    fn query(h: &mut Harness, src: u32, tag: u64, len: u64, ticket: u64) {
        let reply = Endpoint::of(h.out);
        h.sim.post(
            Endpoint::new(h.rbm, ports::QUERY),
            h.sim.now(),
            RbmQuery {
                key: MatchKey {
                    comm: 0,
                    src_rank: src,
                    tag,
                },
                len,
                ticket,
                reply,
                span: SpanId::NONE,
            },
        );
        h.sim.run();
    }

    fn collect(h: &Harness, ticket: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for s in h
            .sim
            .component::<Mailbox<RbmStream>>(h.out)
            .values()
            .filter(|s| s.ticket == ticket)
        {
            assert_eq!(s.offset as usize, out.len());
            out.extend_from_slice(&s.data);
        }
        out
    }

    #[test]
    fn message_then_query_matches() {
        let mut h = harness(CcloConfig::default());
        meta(&mut h, 0, sig(3, 7, 100));
        data(&mut h, 0, 0, vec![5u8; 100]);
        query(&mut h, 3, 7, 100, 42);
        assert_eq!(collect(&h, 42), vec![5u8; 100]);
        assert_eq!(h.sim.component::<Rbm>(h.rbm).free_buffers(), 16);
    }

    #[test]
    fn query_then_message_matches() {
        let mut h = harness(CcloConfig::default());
        query(&mut h, 1, 9, 50, 1);
        assert!(h.sim.component::<Mailbox<RbmStream>>(h.out).is_empty());
        meta(&mut h, 5, sig(1, 9, 50));
        data(&mut h, 5, 0, vec![8u8; 50]);
        assert_eq!(collect(&h, 1), vec![8u8; 50]);
    }

    #[test]
    fn out_of_order_pieces_reassemble() {
        let mut h = harness(CcloConfig::default());
        meta(&mut h, 0, sig(0, 0, 10));
        data(&mut h, 0, 6, vec![2u8; 4]);
        data(&mut h, 0, 0, vec![1u8; 6]);
        query(&mut h, 0, 0, 10, 0);
        assert_eq!(collect(&h, 0), [vec![1u8; 6], vec![2u8; 4]].concat());
    }

    #[test]
    fn same_key_messages_match_fifo() {
        let mut h = harness(CcloConfig::default());
        meta(&mut h, 0, sig(2, 4, 4));
        data(&mut h, 0, 0, vec![1u8; 4]);
        meta(&mut h, 1, sig(2, 4, 4));
        data(&mut h, 1, 0, vec![2u8; 4]);
        query(&mut h, 2, 4, 4, 100);
        query(&mut h, 2, 4, 4, 101);
        assert_eq!(collect(&h, 100), vec![1u8; 4]);
        assert_eq!(collect(&h, 101), vec![2u8; 4]);
    }

    #[test]
    fn pool_exhaustion_defers_admission() {
        let cfg = CcloConfig {
            rx_buf_count: 1,
            ..CcloConfig::default()
        };
        let mut h = harness(cfg);
        meta(&mut h, 0, sig(0, 0, 4));
        data(&mut h, 0, 0, vec![1u8; 4]);
        // Second message finds no buffer.
        meta(&mut h, 1, sig(0, 1, 4));
        data(&mut h, 1, 0, vec![2u8; 4]);
        assert_eq!(h.sim.component::<Rbm>(h.rbm).exhaustion_events, 1);
        // The second message cannot match until the first is consumed.
        query(&mut h, 0, 1, 4, 7);
        assert!(collect(&h, 7).is_empty());
        query(&mut h, 0, 0, 4, 8);
        assert_eq!(collect(&h, 8), vec![1u8; 4]);
        // Consuming message 0 freed the buffer; message 1 now matches.
        assert_eq!(collect(&h, 7), vec![2u8; 4]);
    }

    #[test]
    fn legacy_mode_delays_availability() {
        let run = |legacy: bool| -> f64 {
            let cfg = if legacy {
                CcloConfig::legacy_accl()
            } else {
                CcloConfig::default()
            };
            let mut h = harness(cfg);
            query(&mut h, 0, 0, 64 * 1024, 0);
            meta(&mut h, 0, sig(0, 0, 64 * 1024));
            // 16 packets of 4 KiB.
            for i in 0..16 {
                data(&mut h, 0, i * 4096, vec![1u8; 4096]);
            }
            h.sim
                .component::<Mailbox<RbmStream>>(h.out)
                .last_arrival()
                .unwrap()
                .as_us_f64()
        };
        let fast = run(false);
        let slow = run(true);
        // 16 packets × 50 cycles at 100 MHz = 8 us of serialized uC work,
        // partially overlapped with the buffer writes (~4 us).
        assert!(slow > fast + 3.0, "fast={fast} slow={slow}");
    }

    #[test]
    #[should_panic(expected = "exceeds Rx buffer size")]
    fn oversized_message_panics() {
        let cfg = CcloConfig {
            rx_buf_bytes: 1024,
            ..CcloConfig::default()
        };
        let mut h = harness(cfg);
        meta(&mut h, 0, sig(0, 0, 4096));
    }

    #[test]
    fn purge_releases_buffers_and_cancels_queries() {
        let cfg = CcloConfig {
            rx_buf_count: 1,
            ..CcloConfig::default()
        };
        let mut h = harness(cfg);
        // An aborted call's message (user tag 5) holds the only buffer; an
        // unrelated message (user tag 6) waits for admission; a query for
        // the aborted call's next step is parked.
        meta(&mut h, 0, sig(2, 5 << 32, 8));
        data(&mut h, 0, 0, vec![1u8; 8]);
        meta(&mut h, 1, sig(2, 6 << 32, 8));
        data(&mut h, 1, 0, vec![2u8; 8]);
        query(&mut h, 2, (5 << 32) | 1, 8, 77);
        assert_eq!(h.sim.component::<Rbm>(h.rbm).free_buffers(), 0);
        assert_eq!(h.sim.component::<Rbm>(h.rbm).pending_queries(), 1);
        h.sim.post(
            Endpoint::new(h.rbm, ports::PURGE),
            h.sim.now(),
            RbmPurge {
                comm: 0,
                user_tag: 5,
            },
        );
        h.sim.run();
        // The aborted call's buffer went back to the pool and was handed to
        // the waiting message; its query is gone.
        let rbm = h.sim.component::<Rbm>(h.rbm);
        assert_eq!(rbm.pending_queries(), 0);
        assert_eq!(rbm.unmatched_messages(), 1);
        query(&mut h, 2, 6 << 32, 8, 78);
        assert_eq!(collect(&h, 78), vec![2u8; 8]);
        assert_eq!(h.sim.component::<Rbm>(h.rbm).free_buffers(), 1);
    }

    #[test]
    fn shrink_fault_removes_buffers_and_surfaces_in_resource_state() {
        let cfg = CcloConfig {
            rx_buf_count: 2,
            ..CcloConfig::default()
        };
        let mut h = harness(cfg);
        // Shrink by 1 while both buffers are free: the pool drops to 1.
        h.sim.post(
            Endpoint::new(h.rbm, ports::SHRINK),
            h.sim.now(),
            RbmShrink { bufs: 1 },
        );
        h.sim.run();
        assert_eq!(h.sim.component::<Rbm>(h.rbm).free_buffers(), 1);
        assert_eq!(h.sim.component::<Rbm>(h.rbm).shrunk(), 1);
        // First message takes the last buffer; the second must defer.
        meta(&mut h, 0, sig(0, 0, 4));
        data(&mut h, 0, 0, vec![1u8; 4]);
        meta(&mut h, 1, sig(0, 1, 4));
        data(&mut h, 1, 0, vec![2u8; 4]);
        assert_eq!(h.sim.component::<Rbm>(h.rbm).exhaustion_events, 1);
        let st = h
            .sim
            .component::<Rbm>(h.rbm)
            .resource_state()
            .expect("exhausted pool must publish state");
        assert_eq!(st.waits, vec!["cclo.rxbuf".to_string()]);
        assert_eq!(st.holds, vec!["cclo.rxbuf".to_string()]);
        assert_eq!(st.gauges[0].used, 1);
        assert_eq!(st.gauges[0].capacity, Some(1));
        assert_eq!(st.gauges[1].name, "cclo.rxbuf.deferred");
        assert_eq!(st.gauges[1].used, 1);
        // Consuming the first message hands its buffer to the deferred one.
        query(&mut h, 0, 0, 4, 7);
        assert_eq!(collect(&h, 7), vec![1u8; 4]);
        query(&mut h, 0, 1, 4, 8);
        assert_eq!(collect(&h, 8), vec![2u8; 4]);
    }

    #[test]
    fn shrink_debt_is_paid_from_released_buffers() {
        let cfg = CcloConfig {
            rx_buf_count: 1,
            ..CcloConfig::default()
        };
        let mut h = harness(cfg);
        // The only buffer is held by a message; the shrink becomes debt.
        meta(&mut h, 0, sig(0, 0, 4));
        data(&mut h, 0, 0, vec![1u8; 4]);
        h.sim.post(
            Endpoint::new(h.rbm, ports::SHRINK),
            h.sim.now(),
            RbmShrink { bufs: 1 },
        );
        h.sim.run();
        assert_eq!(h.sim.component::<Rbm>(h.rbm).free_buffers(), 0);
        // Matching the message releases its buffer straight into the debt:
        // the pool stays empty forever (capacity shrunk to zero).
        query(&mut h, 0, 0, 4, 7);
        assert_eq!(collect(&h, 7), vec![1u8; 4]);
        assert_eq!(h.sim.component::<Rbm>(h.rbm).free_buffers(), 0);
        let st = h.sim.component::<Rbm>(h.rbm).resource_state().unwrap();
        assert_eq!(st.gauges[0].capacity, Some(0));
        assert_eq!(st.gauges[0].used, 0);
    }

    #[test]
    fn resync_wipes_rx_state_and_restores_the_pool() {
        let cfg = CcloConfig {
            rx_buf_count: 2,
            ..CcloConfig::default()
        };
        let mut h = harness(cfg);
        // A half-received message holds a buffer, a query is parked, and a
        // shrink left a debt of one — the full mess a crash leaves behind.
        meta(&mut h, 0, sig(1, 3, 8));
        data(&mut h, 0, 0, vec![1u8; 4]);
        query(&mut h, 2, 9, 8, 55);
        h.sim.post(
            Endpoint::new(h.rbm, ports::SHRINK),
            h.sim.now(),
            RbmShrink { bufs: 1 },
        );
        h.sim.run();
        h.sim
            .post(Endpoint::new(h.rbm, ports::RESYNC), h.sim.now(), RbmResync);
        h.sim.run();
        let rbm = h.sim.component::<Rbm>(h.rbm);
        assert_eq!(rbm.unmatched_messages(), 0);
        assert_eq!(rbm.pending_queries(), 0);
        // Pool restored to capacity minus the (permanent) shrink.
        assert_eq!(rbm.free_buffers(), 1);
        // The wiped state does not leak: a fresh message matches cleanly.
        meta(&mut h, 7, sig(1, 3, 8));
        data(&mut h, 7, 0, vec![9u8; 8]);
        query(&mut h, 1, 3, 8, 56);
        assert_eq!(collect(&h, 56), vec![9u8; 8]);
    }

    #[test]
    fn zero_length_message_matches() {
        let mut h = harness(CcloConfig::default());
        meta(&mut h, 0, sig(1, 2, 0));
        query(&mut h, 1, 2, 0, 3);
        let streams = h.sim.component::<Mailbox<RbmStream>>(h.out);
        assert_eq!(streams.len(), 1);
        assert!(streams.items()[0].1.last);
        assert!(streams.items()[0].1.data.is_empty());
    }
}
