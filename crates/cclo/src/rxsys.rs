//! The Rx system: parses message signatures and routes arrivals.
//!
//! Sits on the POE's Rx meta/data interfaces. For each incoming message it
//! reassembles the 64-byte signature (which may straddle chunk boundaries
//! on stream transports), then routes: eager payloads to the RxBuf manager,
//! rendezvous control messages to the uC (paper §4.4.2, Fig. 5 paths ③/⑤).
//! Rendezvous *payloads* never appear here — the RDMA engine writes them
//! straight to memory, bypassing the CCLO (§4.3).

use std::collections::BTreeMap;

use bytes::Bytes;

use accl_poe::iface::{RxChunk, SessionId};
use accl_sim::prelude::*;

use crate::msg::{MsgSignature, MsgType, SIGNATURE_BYTES};

static MESSAGES: Metric = Metric::counter("rxsys.messages");

/// Unique handle for an in-flight received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RxMsgKey {
    /// POE session the message arrived on.
    pub session: SessionId,
    /// POE-assigned message id.
    pub msg_id: u64,
}

/// Notification to the uC: a rendezvous control message arrived.
#[derive(Debug, Clone, Copy)]
pub enum UcNotif {
    /// Peer announced its landing buffer (`sig.addr`).
    RndzvInit(MsgSignature),
    /// Peer's WRITE completed.
    RndzvDone(MsgSignature),
    /// The RBM's eager Rx buffer pool ran dry (sent only when
    /// `notify_rx_exhaustion` is configured). Lets the uC classify a
    /// subsequent watchdog abort as resource exhaustion rather than a
    /// remote-progress timeout. Not a progress event.
    RxExhausted,
}

/// To the RBM: an eager message's signature (one per message, before data).
#[derive(Debug, Clone, Copy)]
pub struct RbmMeta {
    /// Message handle.
    pub key: RxMsgKey,
    /// The parsed signature.
    pub sig: MsgSignature,
}

/// To the RBM: a slice of an eager message's payload.
#[derive(Debug, Clone)]
pub struct RbmData {
    /// Message handle.
    pub key: RxMsgKey,
    /// Offset within the payload (signature excluded).
    pub offset: u64,
    /// The bytes.
    pub data: Bytes,
    /// The POE's `poe.rx` span of the frame whose arrival released these
    /// bytes ([`SpanId::NONE`] when spans are off).
    pub span: SpanId,
}

/// Ports of the [`RxSys`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// POE Rx metas ([`accl_poe::PoeRxMeta`]) — informational.
    pub const POE_META: PortId = PortId(0);
    /// POE Rx data ([`accl_poe::RxChunk`]).
    pub const POE_DATA: PortId = PortId(1);
}

/// Parsing state for one in-flight message.
#[derive(Default)]
struct MsgParse {
    /// Chunks stashed before the signature is complete.
    stash: Vec<(u64, Bytes)>,
    sig: Option<MsgSignature>,
}

/// The Rx system component.
pub struct RxSys {
    rbm_meta: Endpoint,
    rbm_data: Endpoint,
    uc_notif: Endpoint,
    parse_latency: Dur,
    inflight: BTreeMap<RxMsgKey, MsgParse>,
    messages_parsed: u64,
}

impl RxSys {
    /// Creates an Rx system routing to the given RBM and uC endpoints.
    pub fn new(
        rbm_meta: Endpoint,
        rbm_data: Endpoint,
        uc_notif: Endpoint,
        parse_latency: Dur,
    ) -> Self {
        RxSys {
            rbm_meta,
            rbm_data,
            uc_notif,
            parse_latency,
            inflight: BTreeMap::new(),
            messages_parsed: 0,
        }
    }

    /// Messages whose signatures were parsed so far.
    pub fn messages_parsed(&self) -> u64 {
        self.messages_parsed
    }

    /// Attempts to assemble the signature from stashed chunks.
    fn try_parse(stash: &[(u64, Bytes)]) -> Option<MsgSignature> {
        let mut header = [0u8; SIGNATURE_BYTES];
        let mut covered = 0usize;
        let mut sorted: Vec<&(u64, Bytes)> = stash.iter().collect();
        sorted.sort_by_key(|(off, _)| *off);
        for (off, data) in sorted {
            let off = *off as usize;
            if off > covered {
                return None; // gap
            }
            let end = (off + data.len()).min(SIGNATURE_BYTES);
            if end > covered {
                let from = covered - off;
                header[covered..end].copy_from_slice(&data[from..from + (end - covered)]);
                covered = end;
            }
            if covered == SIGNATURE_BYTES {
                return Some(MsgSignature::decode(&header));
            }
        }
        None
    }

    /// Emits the payload portion of a raw message chunk, released by the
    /// arrival whose receive span is `span`.
    fn emit_payload(&self, ctx: &mut Ctx<'_>, key: RxMsgKey, off: u64, data: &Bytes, span: SpanId) {
        let hdr = SIGNATURE_BYTES as u64;
        let end = off + data.len() as u64;
        if end <= hdr {
            return; // chunk entirely within the signature
        }
        let skip = hdr.saturating_sub(off);
        ctx.send(
            self.rbm_data,
            self.parse_latency,
            RbmData {
                key,
                offset: off + skip - hdr,
                data: data.slice(skip as usize..),
                span,
            },
        );
    }
}

impl Component for RxSys {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::POE_META => {
                // Message length is also carried in the CCLO signature; the
                // POE meta needs no separate action.
            }
            ports::POE_DATA => {
                let chunk = payload.downcast::<RxChunk>();
                let key = RxMsgKey {
                    session: chunk.session,
                    msg_id: chunk.msg_id,
                };
                let state = self.inflight.entry(key).or_default();
                if let Some(sig) = state.sig {
                    // Signature known: stream payload through.
                    debug_assert!(matches!(sig.mtype, MsgType::Eager));
                    let last = chunk.last;
                    self.emit_payload(ctx, key, chunk.offset, &chunk.data, chunk.span);
                    if last {
                        self.inflight.remove(&key);
                    }
                    return;
                }
                state.stash.push((chunk.offset, chunk.data));
                let Some(sig) = Self::try_parse(&state.stash) else {
                    assert!(
                        !chunk.last || state.stash.len() < 64,
                        "message ended before its signature completed"
                    );
                    return;
                };
                self.messages_parsed += 1;
                ctx.stats().add(&MESSAGES, 1);
                let state = self.inflight.get_mut(&key).unwrap();
                state.sig = Some(sig);
                let stash = core::mem::take(&mut state.stash);
                let complete = chunk.last;
                match sig.mtype {
                    MsgType::Eager => {
                        ctx.send(self.rbm_meta, self.parse_latency, RbmMeta { key, sig });
                        // This chunk completed the signature, so its
                        // arrival releases the stashed payload too.
                        for (off, data) in &stash {
                            self.emit_payload(ctx, key, *off, data, chunk.span);
                        }
                        if complete {
                            self.inflight.remove(&key);
                        }
                    }
                    MsgType::RndzvInit => {
                        assert_eq!(sig.payload_len, 0, "rendezvous init carries no payload");
                        ctx.send(self.uc_notif, self.parse_latency, UcNotif::RndzvInit(sig));
                        self.inflight.remove(&key);
                    }
                    MsgType::RndzvDone => {
                        assert_eq!(sig.payload_len, 0, "rendezvous done carries no payload");
                        ctx.send(self.uc_notif, self.parse_latency, UcNotif::RndzvDone(sig));
                        self.inflight.remove(&key);
                    }
                }
            }
            other => panic!("Rx system has no port {other:?}"),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = 0u64;
        for v in [self.messages_parsed, self.inflight.len() as u64] {
            accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(mtype: MsgType, payload_len: u64) -> MsgSignature {
        MsgSignature {
            src_rank: 2,
            dst_rank: 0,
            mtype,
            payload_len,
            tag: 11,
            seq: 0,
            addr: 0xabc,
            comm: 0,
        }
    }

    struct Harness {
        sim: Simulator,
        rx: ComponentId,
        metas: ComponentId,
        datas: ComponentId,
        notifs: ComponentId,
    }

    fn harness() -> Harness {
        let mut sim = Simulator::new(0);
        let metas = sim.add("metas", Mailbox::<RbmMeta>::new());
        let datas = sim.add("datas", Mailbox::<RbmData>::new());
        let notifs = sim.add("notifs", Mailbox::<UcNotif>::new());
        let rx = sim.add(
            "rxsys",
            RxSys::new(
                Endpoint::of(metas),
                Endpoint::of(datas),
                Endpoint::of(notifs),
                Dur::from_ns(16),
            ),
        );
        Harness {
            sim,
            rx,
            metas,
            datas,
            notifs,
        }
    }

    fn chunk(h: &mut Harness, msg_id: u64, offset: u64, data: Vec<u8>, last: bool) {
        h.sim.post(
            Endpoint::new(h.rx, ports::POE_DATA),
            h.sim.now(),
            RxChunk {
                session: SessionId(1),
                msg_id,
                offset,
                data: Bytes::from(data),
                last,
                span: SpanId::NONE,
            },
        );
        h.sim.run();
    }

    #[test]
    fn eager_message_routes_header_and_payload() {
        let mut h = harness();
        let s = sig(MsgType::Eager, 100);
        let mut wire = s.encode().to_vec();
        wire.extend(vec![7u8; 100]);
        chunk(&mut h, 0, 0, wire, true);
        let metas = h.sim.component::<Mailbox<RbmMeta>>(h.metas);
        assert_eq!(metas.len(), 1);
        assert_eq!(metas.items()[0].1.sig.payload_len, 100);
        let datas = h.sim.component::<Mailbox<RbmData>>(h.datas);
        assert_eq!(datas.len(), 1);
        assert_eq!(datas.items()[0].1.offset, 0);
        assert_eq!(datas.items()[0].1.data.len(), 100);
        assert!(datas.items()[0].1.data.iter().all(|&b| b == 7));
    }

    #[test]
    fn signature_straddling_chunks_is_reassembled() {
        // TCP-style: the 64-byte signature splits across three chunks.
        let mut h = harness();
        let s = sig(MsgType::Eager, 10);
        let mut wire = s.encode().to_vec();
        wire.extend(vec![9u8; 10]);
        chunk(&mut h, 0, 0, wire[0..10].to_vec(), false);
        assert_eq!(h.sim.component::<Mailbox<RbmMeta>>(h.metas).len(), 0);
        chunk(&mut h, 0, 10, wire[10..50].to_vec(), false);
        assert_eq!(h.sim.component::<Mailbox<RbmMeta>>(h.metas).len(), 0);
        chunk(&mut h, 0, 50, wire[50..].to_vec(), true);
        assert_eq!(h.sim.component::<Mailbox<RbmMeta>>(h.metas).len(), 1);
        let datas = h.sim.component::<Mailbox<RbmData>>(h.datas);
        let total: usize = datas.values().map(|d| d.data.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(datas.items()[0].1.offset, 0);
    }

    #[test]
    fn rndzv_ctrl_messages_notify_uc() {
        let mut h = harness();
        chunk(
            &mut h,
            0,
            0,
            sig(MsgType::RndzvInit, 0).encode().to_vec(),
            true,
        );
        chunk(
            &mut h,
            1,
            0,
            sig(MsgType::RndzvDone, 0).encode().to_vec(),
            true,
        );
        let notifs = h.sim.component::<Mailbox<UcNotif>>(h.notifs);
        assert_eq!(notifs.len(), 2);
        assert!(matches!(notifs.items()[0].1, UcNotif::RndzvInit(s) if s.addr == 0xabc));
        assert!(matches!(notifs.items()[1].1, UcNotif::RndzvDone(_)));
        // No RBM traffic for control messages.
        assert_eq!(h.sim.component::<Mailbox<RbmMeta>>(h.metas).len(), 0);
    }

    #[test]
    fn interleaved_messages_parse_independently() {
        let mut h = harness();
        let s1 = sig(MsgType::Eager, 20);
        let mut w1 = s1.encode().to_vec();
        w1.extend(vec![1u8; 20]);
        let s2 = sig(MsgType::Eager, 30);
        let mut w2 = s2.encode().to_vec();
        w2.extend(vec![2u8; 30]);
        chunk(&mut h, 10, 0, w1[0..40].to_vec(), false);
        chunk(&mut h, 11, 0, w2[0..40].to_vec(), false);
        chunk(&mut h, 10, 40, w1[40..].to_vec(), true);
        chunk(&mut h, 11, 40, w2[40..].to_vec(), true);
        let metas = h.sim.component::<Mailbox<RbmMeta>>(h.metas);
        assert_eq!(metas.len(), 2);
        let datas = h.sim.component::<Mailbox<RbmData>>(h.datas);
        let by_msg = |id: u64| -> usize {
            datas
                .values()
                .filter(|d| d.key.msg_id == id)
                .map(|d| d.data.len())
                .sum()
        };
        assert_eq!(by_msg(10), 20);
        assert_eq!(by_msg(11), 30);
    }
}
