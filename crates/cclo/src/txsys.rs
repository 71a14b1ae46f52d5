//! The Tx system: packetizes signatures + payloads and drives the POE.
//!
//! Accepts transmission jobs from the uC (rendezvous control messages) and
//! the DMP (eager data, rendezvous WRITE payloads), maintains per-session
//! sequence numbers, and serializes everything into the POE's Tx meta/data
//! interfaces. Jobs execute strictly in FIFO order — the engine has one
//! physical Tx data stream — with payload chunks buffered per ticket until
//! their job reaches the head of the queue (paper §4.4.2).

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use accl_poe::iface::{PoeTxCmd, SessionId, StreamChunk, TxKind};
use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};

use crate::msg::{MsgSignature, SIGNATURE_BYTES};

/// A transmission job.
#[derive(Debug, Clone)]
pub enum TxJob {
    /// Signature-only control message (RNDZV_INIT / RNDZV_DONE), fire and
    /// forget.
    Ctrl {
        /// Session to send on.
        session: SessionId,
        /// The signature (seq is filled by the Tx system).
        sig: MsgSignature,
        /// Causal parent for the job's `tx.job` span.
        span: SpanId,
    },
    /// Eager message: signature followed by `sig.payload_len` bytes arriving
    /// as [`TxData`] for `ticket`.
    Eager {
        /// DMP ticket identifying the payload stream.
        ticket: u64,
        /// Session to send on.
        session: SessionId,
        /// The signature.
        sig: MsgSignature,
        /// Causal parent for the job's `tx.job` span.
        span: SpanId,
    },
    /// Rendezvous payload: RDMA WRITE of `len` bytes to `remote_addr`,
    /// followed automatically by a RNDZV_DONE control message.
    RndzvData {
        /// DMP ticket identifying the payload stream.
        ticket: u64,
        /// Session to send on.
        session: SessionId,
        /// Destination virtual address at the passive side.
        remote_addr: u64,
        /// Payload length.
        len: u64,
        /// The RNDZV_DONE signature to send upon completion.
        done_sig: MsgSignature,
        /// Causal parent for the job's `tx.job` span.
        span: SpanId,
    },
}

impl TxJob {
    fn ticket(&self) -> Option<u64> {
        match self {
            TxJob::Ctrl { .. } => None,
            TxJob::Eager { ticket, .. } | TxJob::RndzvData { ticket, .. } => Some(*ticket),
        }
    }

    fn span(&self) -> SpanId {
        match self {
            TxJob::Ctrl { span, .. }
            | TxJob::Eager { span, .. }
            | TxJob::RndzvData { span, .. } => *span,
        }
    }

    fn payload_len(&self) -> u64 {
        match self {
            TxJob::Ctrl { .. } => 0,
            TxJob::Eager { sig, .. } => sig.payload_len,
            TxJob::RndzvData { len, .. } => *len,
        }
    }
}

/// A chunk of payload for an in-flight job, produced by the DMP.
#[derive(Debug, Clone)]
pub struct TxData {
    /// The DMP ticket the chunk belongs to.
    pub ticket: u64,
    /// The bytes.
    pub data: Bytes,
}

/// Completion notification back to the DMP: the job's data fully left.
#[derive(Debug, Clone, Copy)]
pub struct TxJobDone {
    /// The completed ticket.
    pub ticket: u64,
}

/// A standby POE the Tx system can retarget to when the primary keeps
/// failing — the graceful-degradation path that fails RDMA collectives
/// over to a co-resident TCP engine after repeated QP errors.
#[derive(Debug, Clone, Copy)]
pub struct TxFallback {
    /// The fallback POE's Tx command port.
    pub tx_cmd: Endpoint,
    /// The fallback POE's Tx data port.
    pub tx_data: Endpoint,
    /// Where to announce the switch (the uC's `FAILOVER` port).
    pub notify: Endpoint,
    /// Capabilities the uC must downgrade to after the switch.
    pub profile: crate::uc::TransportFailover,
    /// Session errors on the primary that trigger the switch.
    pub threshold: u64,
}

/// Ports of the [`TxSys`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Job submissions ([`super::TxJob`]).
    pub const JOB: PortId = PortId(0);
    /// Payload chunks ([`super::TxData`]).
    pub const DATA: PortId = PortId(1);
    /// POE Tx completions (accepted, currently informational).
    pub const POE_DONE: PortId = PortId(2);
}

/// Per-ticket payload buffering.
#[derive(Default)]
struct TicketBuf {
    chunks: VecDeque<Bytes>,
    buffered: u64,
}

/// The Tx system component.
pub struct TxSys {
    poe_tx_cmd: Endpoint,
    poe_tx_data: Endpoint,
    dmp_done: Endpoint,
    /// Per-session Tx sequence numbers (part of the message signature).
    seq: BTreeMap<SessionId, u64>,
    jobs: VecDeque<TxJob>,
    bufs: BTreeMap<u64, TicketBuf>,
    /// Bytes of the head job already handed to the POE.
    head_sent: u64,
    /// Whether the head job's POE command + header went out.
    head_started: bool,
    /// The head job's `tx.job` span ([`SpanId::NONE`] when tracing is off).
    head_span: SpanId,
    /// Fixed per-job processing latency.
    job_latency: Dur,
    jobs_completed: u64,
    session_errors: u64,
    /// Armed standby POE; taken when the switch engages.
    fallback: Option<TxFallback>,
    failovers: u64,
}

impl TxSys {
    /// Creates a Tx system driving the given POE endpoints.
    pub fn new(
        poe_tx_cmd: Endpoint,
        poe_tx_data: Endpoint,
        dmp_done: Endpoint,
        job_latency: Dur,
    ) -> Self {
        TxSys {
            poe_tx_cmd,
            poe_tx_data,
            dmp_done,
            seq: BTreeMap::new(),
            jobs: VecDeque::new(),
            bufs: BTreeMap::new(),
            head_sent: 0,
            head_started: false,
            head_span: SpanId::NONE,
            job_latency,
            jobs_completed: 0,
            session_errors: 0,
            fallback: None,
            failovers: 0,
        }
    }

    /// Jobs fully transmitted so far.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Session errors observed on the POE completion queue.
    pub fn session_errors(&self) -> u64 {
        self.session_errors
    }

    /// Arms a standby POE for graceful degradation.
    pub fn set_fallback(&mut self, fallback: TxFallback) {
        self.fallback = Some(fallback);
    }

    /// Times the Tx path switched to a fallback POE.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Switches to the armed fallback once the primary's session-error
    /// count crosses the threshold. Only called between jobs — a message
    /// must never be split across two engines — so with a job mid-flight
    /// the check simply re-runs when the head finishes.
    fn maybe_failover(&mut self, ctx: &mut Ctx<'_>) {
        let engage = self
            .fallback
            .is_some_and(|fb| self.session_errors >= fb.threshold);
        if !engage {
            return;
        }
        let fb = self.fallback.take().expect("fallback checked above");
        self.poe_tx_cmd = fb.tx_cmd;
        self.poe_tx_data = fb.tx_data;
        self.failovers += 1;
        ctx.stats().add("txsys.failovers", 1);
        // Queued rendezvous WRITEs cannot run on the (two-sided) fallback;
        // flush them, reporting their tickets done so the DMP unwinds. The
        // owning calls were already aborted by the watchdog when the
        // primary's sessions failed, and the driver reissues them — now
        // routed through the fallback with eager protocol selection.
        let jobs = std::mem::take(&mut self.jobs);
        for job in jobs {
            if let TxJob::RndzvData { ticket, .. } = &job {
                self.bufs.remove(ticket);
                ctx.stats().add("txsys.jobs_flushed", 1);
                ctx.send(
                    self.dmp_done,
                    self.job_latency,
                    TxJobDone { ticket: *ticket },
                );
            } else {
                self.jobs.push_back(job);
            }
        }
        ctx.send(fb.notify, self.job_latency, fb.profile);
    }

    fn next_seq(&mut self, session: SessionId) -> u64 {
        let s = self.seq.entry(session).or_insert(0);
        let v = *s;
        *s += 1;
        v
    }

    /// Drives the head job as far as available data allows.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            if !self.head_started {
                self.maybe_failover(ctx);
            }
            let Some(job) = self.jobs.front().cloned() else {
                return;
            };
            if !self.head_started {
                self.head_started = true;
                self.start_job(ctx, &job);
                // Ctrl jobs are complete once their signature is out.
                if matches!(job, TxJob::Ctrl { .. }) {
                    self.finish_head(ctx, &job);
                    continue;
                }
            }
            // Stream available payload.
            let ticket = job.ticket().expect("data job without ticket");
            let total = job.payload_len();
            let buf = self.bufs.entry(ticket).or_default();
            while let Some(chunk) = buf.chunks.pop_front() {
                buf.buffered -= chunk.len() as u64;
                self.head_sent += chunk.len() as u64;
                assert!(
                    self.head_sent <= total,
                    "job overfed: {} > {total}",
                    self.head_sent
                );
                let last = self.head_sent == total;
                // Same latency as the header so payload chunks can never
                // overtake their job's signature.
                ctx.send(
                    self.poe_tx_data,
                    self.job_latency,
                    StreamChunk { data: chunk, last },
                );
            }
            if self.head_sent == total {
                self.finish_head(ctx, &job);
                continue;
            }
            return; // waiting for more DMP data
        }
    }

    fn start_job(&mut self, ctx: &mut Ctx<'_>, job: &TxJob) {
        if ctx.spans_enabled() {
            self.head_span = ctx.span_begin_attrs(
                "tx.job",
                job.span(),
                &[Attr {
                    key: "bytes",
                    value: AttrValue::U64(job.payload_len()),
                }],
            );
        }
        match job {
            TxJob::Ctrl { session, sig, .. } | TxJob::Eager { session, sig, .. } => {
                let mut sig = *sig;
                sig.seq = self.next_seq(*session);
                let total = SIGNATURE_BYTES as u64 + sig.payload_len;
                ctx.stats().add("txsys.bytes", total);
                ctx.send(
                    self.poe_tx_cmd,
                    self.job_latency,
                    PoeTxCmd {
                        session: *session,
                        len: total,
                        kind: TxKind::Send,
                        tag: sig.tag,
                        span: self.head_span,
                    },
                );
                ctx.send(
                    self.poe_tx_data,
                    self.job_latency,
                    StreamChunk {
                        data: sig.encode(),
                        last: sig.payload_len == 0,
                    },
                );
            }
            TxJob::RndzvData {
                session,
                remote_addr,
                len,
                ..
            } => {
                ctx.stats().add("txsys.bytes", *len);
                ctx.send(
                    self.poe_tx_cmd,
                    self.job_latency,
                    PoeTxCmd {
                        session: *session,
                        len: *len,
                        kind: TxKind::Write {
                            remote_addr: *remote_addr,
                        },
                        tag: 0,
                        span: self.head_span,
                    },
                );
            }
        }
    }

    fn finish_head(&mut self, ctx: &mut Ctx<'_>, job: &TxJob) {
        self.jobs.pop_front();
        self.head_sent = 0;
        self.head_started = false;
        self.jobs_completed += 1;
        ctx.stats().add("txsys.jobs", 1);
        ctx.span_end(self.head_span);
        self.head_span = SpanId::NONE;
        match job {
            TxJob::Ctrl { .. } => {}
            TxJob::Eager { ticket, .. } => {
                self.bufs.remove(ticket);
                ctx.send(
                    self.dmp_done,
                    self.job_latency,
                    TxJobDone { ticket: *ticket },
                );
            }
            TxJob::RndzvData {
                ticket,
                session,
                done_sig,
                span,
                ..
            } => {
                self.bufs.remove(ticket);
                // The WRITE is on the wire; announce completion to the peer
                // (RNDZV_DONE travels the same in-order session, so it
                // cannot overtake the payload).
                self.jobs.push_front(TxJob::Ctrl {
                    session: *session,
                    sig: *done_sig,
                    span: *span,
                });
                ctx.send(
                    self.dmp_done,
                    self.job_latency,
                    TxJobDone { ticket: *ticket },
                );
            }
        }
    }
}

impl Component for TxSys {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::JOB => {
                let job = payload.downcast::<TxJob>();
                self.jobs.push_back(job);
                self.pump(ctx);
            }
            ports::DATA => {
                let data = payload.downcast::<TxData>();
                let buf = self.bufs.entry(data.ticket).or_default();
                buf.buffered += data.data.len() as u64;
                buf.chunks.push_back(data.data);
                self.pump(ctx);
            }
            ports::POE_DONE => {
                // Transmit completions need no action (pacing is handled
                // by the network pipes), but session errors arriving on
                // the shared completion queue are counted: the uC's
                // watchdog handles the actual abort.
                if payload.try_downcast::<accl_poe::PoeSessionError>().is_ok() {
                    self.session_errors += 1;
                    ctx.stats().add("txsys.session_errors", 1);
                    if !self.head_started {
                        self.maybe_failover(ctx);
                    }
                }
            }
            other => panic!("Tx system has no port {other:?}"),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        // Job totals, the head job's progress, and every session's Tx
        // sequence number (part of the message signature contract).
        let mut h = 0u64;
        let mut fold = |v: u64| accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        for v in [
            self.jobs_completed,
            self.session_errors,
            self.failovers,
            self.head_sent,
            u64::from(self.head_started),
            self.jobs.len() as u64,
        ] {
            fold(v);
        }
        for (s, seq) in &self.seq {
            fold(u64::from(s.0));
            fold(*seq);
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgType;

    fn sig(payload_len: u64, mtype: MsgType) -> MsgSignature {
        MsgSignature {
            src_rank: 0,
            dst_rank: 1,
            mtype,
            payload_len,
            tag: 5,
            seq: 0,
            addr: 0,
            comm: 0,
        }
    }

    struct Harness {
        sim: Simulator,
        tx: ComponentId,
        cmds: ComponentId,
        datas: ComponentId,
        dones: ComponentId,
    }

    fn harness() -> Harness {
        let mut sim = Simulator::new(0);
        let cmds = sim.add("cmds", Mailbox::<PoeTxCmd>::new());
        let datas = sim.add("datas", Mailbox::<StreamChunk>::new());
        let dones = sim.add("dones", Mailbox::<TxJobDone>::new());
        let tx = sim.add(
            "txsys",
            TxSys::new(
                Endpoint::of(cmds),
                Endpoint::of(datas),
                Endpoint::of(dones),
                Dur::from_ns(16),
            ),
        );
        Harness {
            sim,
            tx,
            cmds,
            datas,
            dones,
        }
    }

    #[test]
    fn ctrl_job_sends_signature_only() {
        let mut h = harness();
        h.sim.post(
            Endpoint::new(h.tx, ports::JOB),
            Time::ZERO,
            TxJob::Ctrl {
                session: SessionId(3),
                sig: sig(0, MsgType::RndzvInit),
                span: SpanId::NONE,
            },
        );
        h.sim.run();
        let cmds = h.sim.component::<Mailbox<PoeTxCmd>>(h.cmds);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds.items()[0].1.len, SIGNATURE_BYTES as u64);
        let datas = h.sim.component::<Mailbox<StreamChunk>>(h.datas);
        assert_eq!(datas.len(), 1);
        assert!(datas.items()[0].1.last);
        let parsed = MsgSignature::decode(&datas.items()[0].1.data);
        assert_eq!(parsed.mtype, MsgType::RndzvInit);
    }

    #[test]
    fn eager_job_streams_header_then_payload() {
        let mut h = harness();
        h.sim.post(
            Endpoint::new(h.tx, ports::JOB),
            Time::ZERO,
            TxJob::Eager {
                ticket: 7,
                session: SessionId(0),
                sig: sig(100, MsgType::Eager),
                span: SpanId::NONE,
            },
        );
        h.sim.post(
            Endpoint::new(h.tx, ports::DATA),
            Time::from_ps(1),
            TxData {
                ticket: 7,
                data: Bytes::from(vec![9u8; 60]),
            },
        );
        h.sim.post(
            Endpoint::new(h.tx, ports::DATA),
            Time::from_ps(2),
            TxData {
                ticket: 7,
                data: Bytes::from(vec![8u8; 40]),
            },
        );
        h.sim.run();
        let datas = h.sim.component::<Mailbox<StreamChunk>>(h.datas);
        assert_eq!(datas.len(), 3); // header + 2 payload chunks
        assert_eq!(datas.items()[0].1.data.len(), SIGNATURE_BYTES);
        assert!(!datas.items()[1].1.last);
        assert!(datas.items()[2].1.last);
        let dones = h.sim.component::<Mailbox<TxJobDone>>(h.dones);
        assert_eq!(dones.len(), 1);
        assert_eq!(dones.items()[0].1.ticket, 7);
    }

    #[test]
    fn jobs_serialize_in_fifo_order() {
        let mut h = harness();
        // Job 2's data is ready long before job 1's; job 1 still goes first.
        h.sim.post(
            Endpoint::new(h.tx, ports::JOB),
            Time::ZERO,
            TxJob::Eager {
                ticket: 1,
                session: SessionId(0),
                sig: sig(10, MsgType::Eager),
                span: SpanId::NONE,
            },
        );
        h.sim.post(
            Endpoint::new(h.tx, ports::JOB),
            Time::from_ps(1),
            TxJob::Eager {
                ticket: 2,
                session: SessionId(0),
                sig: sig(10, MsgType::Eager),
                span: SpanId::NONE,
            },
        );
        h.sim.post(
            Endpoint::new(h.tx, ports::DATA),
            Time::from_ps(2),
            TxData {
                ticket: 2,
                data: Bytes::from(vec![2u8; 10]),
            },
        );
        h.sim.post(
            Endpoint::new(h.tx, ports::DATA),
            Time::ZERO + Dur::from_us(5),
            TxData {
                ticket: 1,
                data: Bytes::from(vec![1u8; 10]),
            },
        );
        h.sim.run();
        let dones = h.sim.component::<Mailbox<TxJobDone>>(h.dones);
        assert_eq!(dones.len(), 2);
        assert_eq!(dones.items()[0].1.ticket, 1);
        assert_eq!(dones.items()[1].1.ticket, 2);
        // Payload bytes left in job order: ticket 1's bytes first.
        let datas = h.sim.component::<Mailbox<StreamChunk>>(h.datas);
        let payloads: Vec<u8> = datas
            .values()
            .filter(|c| c.data.len() == 10)
            .map(|c| c.data[0])
            .collect();
        assert_eq!(payloads, vec![1, 2]);
    }

    #[test]
    fn rndzv_data_emits_write_then_done_ctrl() {
        let mut h = harness();
        h.sim.post(
            Endpoint::new(h.tx, ports::JOB),
            Time::ZERO,
            TxJob::RndzvData {
                ticket: 4,
                session: SessionId(2),
                remote_addr: 0xbeef,
                len: 50,
                done_sig: sig(0, MsgType::RndzvDone),
                span: SpanId::NONE,
            },
        );
        h.sim.post(
            Endpoint::new(h.tx, ports::DATA),
            Time::from_ps(5),
            TxData {
                ticket: 4,
                data: Bytes::from(vec![3u8; 50]),
            },
        );
        h.sim.run();
        let cmds = h.sim.component::<Mailbox<PoeTxCmd>>(h.cmds);
        assert_eq!(cmds.len(), 2);
        assert!(matches!(
            cmds.items()[0].1.kind,
            TxKind::Write {
                remote_addr: 0xbeef
            }
        ));
        assert!(matches!(cmds.items()[1].1.kind, TxKind::Send));
        // WRITE data (no header) then the DONE signature.
        let datas = h.sim.component::<Mailbox<StreamChunk>>(h.datas);
        assert_eq!(datas.len(), 2);
        assert_eq!(datas.items()[0].1.data.len(), 50);
        assert_eq!(datas.items()[1].1.data.len(), SIGNATURE_BYTES);
        assert_eq!(
            h.sim.component::<Mailbox<TxJobDone>>(h.dones).items()[0]
                .1
                .ticket,
            4
        );
    }

    #[test]
    fn sequence_numbers_increment_per_session() {
        let mut h = harness();
        for i in 0..3u64 {
            h.sim.post(
                Endpoint::new(h.tx, ports::JOB),
                Time::from_ps(i),
                TxJob::Ctrl {
                    session: SessionId(0),
                    sig: sig(0, MsgType::RndzvInit),
                    span: SpanId::NONE,
                },
            );
        }
        h.sim.post(
            Endpoint::new(h.tx, ports::JOB),
            Time::from_ps(10),
            TxJob::Ctrl {
                session: SessionId(1),
                sig: sig(0, MsgType::RndzvInit),
                span: SpanId::NONE,
            },
        );
        h.sim.run();
        let datas = h.sim.component::<Mailbox<StreamChunk>>(h.datas);
        let seqs: Vec<u64> = datas
            .values()
            .map(|c| MsgSignature::decode(&c.data).seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 0]);
    }
}
