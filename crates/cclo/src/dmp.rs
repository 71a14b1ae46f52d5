//! The Data Movement Processor: executes uC microcode in the data plane.
//!
//! Each microcode instruction has two operand slots (data into the CCLO:
//! memory reads, eager messages via the RBM, the kernel stream) and one
//! result slot (memory writes, eager/rendezvous transmissions, the kernel
//! stream). Slots run independently and instructions pipeline — FIFO
//! queues keep multiple in flight (paper §4.4.1). Two-operand instructions
//! route both streams through the binary plugin (reduction).

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use accl_mem::bus::{ports as mem_ports, MemAddr, MemChunk, MemDone, MemReadReq, MemWriteReq};
use accl_poe::iface::SessionId;
use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};

use crate::config::CcloConfig;
use crate::msg::{DType, MsgSignature, ReduceFn};
use crate::plugins;
use crate::rbm::{ports as rbm_ports, MatchKey, RbmQuery, RbmStream};
use crate::txsys::{ports as tx_ports, TxData, TxJob, TxJobDone};

/// A resolved operand source.
#[derive(Debug, Clone, Copy)]
pub enum RSrc {
    /// Read `len` bytes from memory.
    Mem(MemAddr),
    /// Match an eager message through the RBM.
    Eager(MatchKey),
    /// Pull from the kernel data stream.
    Stream,
}

/// A resolved result destination.
#[derive(Debug, Clone)]
pub enum RDst {
    /// Write to memory.
    Mem(MemAddr),
    /// Eager transmission (signature prepared by the uC).
    Eager {
        /// POE session.
        session: SessionId,
        /// Message signature.
        sig: MsgSignature,
    },
    /// Rendezvous transmission (landing address already resolved).
    Rndzv {
        /// POE session.
        session: SessionId,
        /// Remote landing address.
        remote_addr: u64,
        /// The RNDZV_DONE signature to send after the WRITE.
        done_sig: MsgSignature,
    },
    /// Push to the kernel data stream.
    Stream,
}

/// A fully resolved microcode instruction.
#[derive(Debug, Clone)]
pub struct Microcode {
    /// Completion ticket (reported back to the uC).
    pub ticket: u64,
    /// First operand.
    pub op0: RSrc,
    /// Optional second operand.
    pub op1: Option<RSrc>,
    /// Result slot.
    pub res: RDst,
    /// Bytes to move.
    pub len: u64,
    /// Element type for combines.
    pub dtype: DType,
    /// Combine function (two-operand instructions).
    pub func: ReduceFn,
    /// Causal parent for the instruction's `dmp.instr` span.
    pub span: SpanId,
}

/// Completion notification to the uC.
#[derive(Debug, Clone, Copy)]
pub struct DmpDone {
    /// The completed instruction's ticket.
    pub ticket: u64,
}

/// A chunk pushed by the local kernel into the CCLO (`data.push` of
/// Listing 2).
#[derive(Debug, Clone)]
pub struct KernelPush {
    /// The bytes (64 B per cycle in hardware; chunked here).
    pub data: Bytes,
}

/// Ports of the [`Dmp`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Microcode from the uC ([`super::Microcode`]).
    pub const INSTR: PortId = PortId(0);
    /// Read data returning from the memory bus.
    pub const MEM_DATA: PortId = PortId(1);
    /// Eager payloads streaming from the RBM.
    pub const RBM_REPLY: PortId = PortId(2);
    /// Kernel stream input ([`super::KernelPush`]).
    pub const STREAM_IN: PortId = PortId(3);
    /// Memory write completions.
    pub const MEM_WDONE: PortId = PortId(4);
    /// Tx job completions from the Tx system.
    pub const TX_DONE: PortId = PortId(5);
}

/// Runtime state of one in-flight instruction.
struct InstrState {
    mc: Microcode,
    /// Buffered operand bytes not yet consumed by the result stage.
    bufs: [VecDeque<Bytes>; 2],
    avail: [u64; 2],
    received: [u64; 2],
    /// Result bytes produced so far.
    emitted: u64,
    /// For memory results: whether the final write completed.
    finished: bool,
    /// The instruction's open `dmp.instr` span.
    span: SpanId,
}

impl InstrState {
    fn operand_count(&self) -> usize {
        if self.mc.op1.is_some() {
            2
        } else {
            1
        }
    }
}

/// The data-movement processor component.
pub struct Dmp {
    cfg: CcloConfig,
    mem_bus: ComponentId,
    rbm: ComponentId,
    txsys: ComponentId,
    uc_done: Endpoint,
    /// Kernel stream output endpoint (streaming collectives).
    kernel_out: Option<Endpoint>,
    inflight: BTreeMap<u64, InstrState>,
    /// Instructions wanting kernel-stream data, in issue order.
    stream_waiters: VecDeque<(u64, u8)>,
    /// Kernel bytes not yet claimed by an instruction.
    stream_buf: VecDeque<Bytes>,
    stream_buf_len: u64,
    /// Tx-direction datapath pacing (results leaving toward the POE).
    tx_path: Pipe,
    /// Local-direction datapath pacing (results to memory/kernel stream).
    /// Separate physical stream interfaces — the paper's Coyote integration
    /// widened the shell to three streaming interfaces for the CCLO (§4.2).
    local_path: Pipe,
    instrs_completed: u64,
}

impl Dmp {
    /// Creates a DMP wired to the node's memory bus, RBM and Tx system.
    pub fn new(
        cfg: CcloConfig,
        mem_bus: ComponentId,
        rbm: ComponentId,
        txsys: ComponentId,
        uc_done: Endpoint,
    ) -> Self {
        let bps = cfg.datapath_bytes_per_cycle as f64 * cfg.clock_mhz * 1e6;
        Dmp {
            cfg,
            mem_bus,
            rbm,
            txsys,
            uc_done,
            kernel_out: None,
            inflight: BTreeMap::new(),
            stream_waiters: VecDeque::new(),
            stream_buf: VecDeque::new(),
            stream_buf_len: 0,
            tx_path: Pipe::bytes_per_sec(bps),
            local_path: Pipe::bytes_per_sec(bps),
            instrs_completed: 0,
        }
    }

    /// Sets the endpoint receiving kernel-stream output chunks.
    pub fn set_kernel_out(&mut self, ep: Endpoint) {
        self.kernel_out = Some(ep);
    }

    /// Instructions retired so far.
    pub fn instrs_completed(&self) -> u64 {
        self.instrs_completed
    }

    /// Launches operand fetches and (for Tx results) enqueues the Tx job.
    fn launch(&mut self, ctx: &mut Ctx<'_>, mc: Microcode) {
        let ticket = mc.ticket;
        let decode = self.cfg.cycles(self.cfg.dmp_instr_cycles);
        ctx.stats().add("dmp.instrs", 1);
        let mut instr_span = SpanId::NONE;
        if ctx.spans_enabled() {
            instr_span = ctx.span_begin_attrs(
                "dmp.instr",
                mc.span,
                &[Attr {
                    key: "bytes",
                    value: AttrValue::U64(mc.len),
                }],
            );
        }
        // Result-side job setup happens at decode so the Tx system sees
        // jobs in issue order.
        match &mc.res {
            RDst::Eager { session, sig } => {
                ctx.send(
                    Endpoint::new(self.txsys, tx_ports::JOB),
                    decode,
                    TxJob::Eager {
                        ticket,
                        session: *session,
                        sig: *sig,
                        span: instr_span,
                    },
                );
            }
            RDst::Rndzv {
                session,
                remote_addr,
                done_sig,
            } => {
                ctx.send(
                    Endpoint::new(self.txsys, tx_ports::JOB),
                    decode,
                    TxJob::RndzvData {
                        ticket,
                        session: *session,
                        remote_addr: *remote_addr,
                        len: mc.len,
                        done_sig: *done_sig,
                        span: instr_span,
                    },
                );
            }
            RDst::Mem(_) | RDst::Stream => {}
        }
        // Operand fetches.
        let ops = [Some(mc.op0), mc.op1];
        for (slot, op) in ops.iter().enumerate() {
            let Some(op) = op else { continue };
            let slot_tag = ticket * 2 + slot as u64;
            match op {
                RSrc::Mem(addr) => {
                    ctx.send(
                        Endpoint::new(self.mem_bus, mem_ports::READ),
                        decode,
                        MemReadReq {
                            addr: *addr,
                            len: mc.len,
                            data_to: Endpoint::new(ctx.self_id(), ports::MEM_DATA),
                            done_to: None,
                            tag: slot_tag,
                            span: instr_span,
                        },
                    );
                }
                RSrc::Eager(key) => {
                    ctx.send(
                        Endpoint::new(self.rbm, rbm_ports::QUERY),
                        decode,
                        RbmQuery {
                            key: *key,
                            len: mc.len,
                            ticket: slot_tag,
                            reply: Endpoint::new(ctx.self_id(), ports::RBM_REPLY),
                            span: instr_span,
                        },
                    );
                }
                RSrc::Stream => {
                    self.stream_waiters.push_back((ticket, slot as u8));
                }
            }
        }
        let zero_len = mc.len == 0;
        self.inflight.insert(
            ticket,
            InstrState {
                mc,
                bufs: [VecDeque::new(), VecDeque::new()],
                avail: [0, 0],
                received: [0, 0],
                emitted: 0,
                finished: false,
                span: instr_span,
            },
        );
        if zero_len {
            // Degenerate zero-length moves: memory/stream results have
            // nothing to wait for; Tx results complete through the Tx
            // system's zero-payload job.
            let res = &self.inflight[&ticket].mc.res;
            if matches!(res, RDst::Mem(_) | RDst::Stream) {
                self.complete(ctx, ticket);
            }
            return;
        }
        self.feed_stream(ctx);
        self.advance(ctx, ticket);
    }

    /// Distributes buffered kernel bytes to waiting instructions in order.
    fn feed_stream(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let Some(&(ticket, slot)) = self.stream_waiters.front() else {
                return;
            };
            if self.stream_buf_len == 0 {
                return;
            }
            let Some(st) = self.inflight.get_mut(&ticket) else {
                // Instruction already retired (shouldn't happen while it
                // still waits for stream data).
                self.stream_waiters.pop_front();
                continue;
            };
            let want = st.mc.len - st.received[slot as usize];
            let take = want.min(self.stream_buf_len);
            let mut moved = 0u64;
            while moved < take {
                let mut head = self.stream_buf.pop_front().unwrap();
                let n = (take - moved).min(head.len() as u64);
                let piece = head.split_to(n as usize);
                if !head.is_empty() {
                    self.stream_buf.push_front(head);
                }
                self.stream_buf_len -= n;
                moved += n;
                let st = self.inflight.get_mut(&ticket).unwrap();
                st.bufs[slot as usize].push_back(piece);
                st.avail[slot as usize] += n;
                st.received[slot as usize] += n;
            }
            let st = self.inflight.get(&ticket).unwrap();
            let done = st.received[slot as usize] == st.mc.len;
            if done {
                self.stream_waiters.pop_front();
            }
            self.advance(ctx, ticket);
            if !done {
                return;
            }
        }
    }

    /// Feeds operand data into an instruction slot.
    fn operand_data(&mut self, ctx: &mut Ctx<'_>, slot_tag: u64, data: Bytes) {
        let ticket = slot_tag / 2;
        let slot = (slot_tag % 2) as usize;
        let Some(st) = self.inflight.get_mut(&ticket) else {
            panic!("operand data for unknown ticket {ticket}");
        };
        let n = data.len() as u64;
        st.avail[slot] += n;
        st.received[slot] += n;
        debug_assert!(st.received[slot] <= st.mc.len, "operand overrun");
        st.bufs[slot].push_back(data);
        self.advance(ctx, ticket);
    }

    /// Produces result chunks from available operand data.
    fn advance(&mut self, ctx: &mut Ctx<'_>, ticket: u64) {
        let chunk = 4096u64;
        loop {
            // Borrow the instruction afresh each iteration so the emission
            // paths below can use the rest of `self`.
            let Some(st) = self.inflight.get_mut(&ticket) else {
                return;
            };
            let remaining = st.mc.len - st.emitted;
            if remaining == 0 {
                return; // waiting for write/Tx completion
            }
            let ready = match st.operand_count() {
                1 => st.avail[0],
                _ => st.avail[0].min(st.avail[1]),
            };
            if ready == 0 {
                return;
            }
            let n = ready.min(chunk).min(remaining);
            let a = take_bytes(&mut st.bufs[0], n);
            st.avail[0] -= n;
            let out = if st.operand_count() == 2 {
                let b = take_bytes(&mut st.bufs[1], n);
                st.avail[1] -= n;
                plugins::combine(st.mc.dtype, st.mc.func, &a, &b)
            } else {
                a
            };
            let off = st.emitted;
            st.emitted += n;
            let last = st.emitted == st.mc.len;
            let res = st.mc.res.clone();
            let instr_span = st.span;
            // Pace the internal datapath (NoC + plugin), per direction.
            let pipe = match res {
                RDst::Eager { .. } | RDst::Rndzv { .. } => &mut self.tx_path,
                RDst::Mem(_) | RDst::Stream => &mut self.local_path,
            };
            let (_, at) = pipe.reserve(ctx.now(), n);
            match res {
                RDst::Mem(addr) => {
                    ctx.send_at(
                        Endpoint::new(self.mem_bus, mem_ports::WRITE),
                        at,
                        MemWriteReq {
                            addr: addr.offset(off),
                            data: out,
                            done_to: last.then(|| Endpoint::new(ctx.self_id(), ports::MEM_WDONE)),
                            tag: ticket,
                            span: instr_span,
                        },
                    );
                }
                RDst::Eager { .. } | RDst::Rndzv { .. } => {
                    ctx.send_at(
                        Endpoint::new(self.txsys, tx_ports::DATA),
                        at,
                        TxData { ticket, data: out },
                    );
                }
                RDst::Stream => {
                    let out_ep = self
                        .kernel_out
                        .expect("stream result without a kernel output endpoint");
                    ctx.send_at(
                        out_ep,
                        at,
                        RbmStream {
                            ticket,
                            offset: off,
                            data: out,
                            last,
                        },
                    );
                    if last {
                        // Stream results complete at emission.
                        self.complete(ctx, ticket);
                        return;
                    }
                }
            }
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, ticket: u64) {
        let st = self.inflight.remove(&ticket).expect("double completion");
        debug_assert!(!st.finished || st.emitted == st.mc.len);
        self.instrs_completed += 1;
        ctx.span_end(st.span);
        ctx.send(
            self.uc_done,
            self.cfg.cycles(self.cfg.dmp_instr_cycles),
            DmpDone { ticket },
        );
    }
}

/// Removes exactly `n` bytes from a chunk queue: a slice of the head
/// chunk when it holds them, else a gather across chunks.
pub(crate) fn take_bytes(q: &mut VecDeque<Bytes>, n: u64) -> Bytes {
    let n = n as usize;
    let head = q.front_mut().expect("take from empty operand buffer");
    if head.len() > n {
        return head.split_to(n);
    }
    if head.len() == n {
        return q.pop_front().unwrap();
    }
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let head = q.front_mut().expect("operand underrun");
        let take = (n - out.len()).min(head.len());
        out.extend_from_slice(&head.split_to(take));
        if head.is_empty() {
            q.pop_front();
        }
    }
    Bytes::from(out)
}

impl Component for Dmp {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::INSTR => {
                let mc = payload.downcast::<Microcode>();
                self.launch(ctx, mc);
            }
            ports::MEM_DATA => {
                let chunk = payload.downcast::<MemChunk>();
                self.operand_data(ctx, chunk.tag, chunk.data);
            }
            ports::RBM_REPLY => {
                let stream = payload.downcast::<RbmStream>();
                if stream.data.is_empty() {
                    // Zero-length eager message: the operand is complete.
                    let ticket = stream.ticket / 2;
                    self.advance(ctx, ticket);
                    return;
                }
                self.operand_data(ctx, stream.ticket, stream.data);
            }
            ports::STREAM_IN => {
                let push = payload.downcast::<KernelPush>();
                self.stream_buf_len += push.data.len() as u64;
                self.stream_buf.push_back(push.data);
                self.feed_stream(ctx);
            }
            ports::MEM_WDONE => {
                let done = payload.downcast::<MemDone>();
                self.complete(ctx, done.tag);
            }
            ports::TX_DONE => {
                let done = payload.downcast::<TxJobDone>();
                self.complete(ctx, done.ticket);
            }
            other => panic!("DMP has no port {other:?}"),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        // Completion totals, stream-buffer occupancy, in-flight
        // instruction population, and both datapath horizons.
        let mut h = 0u64;
        for v in [
            self.instrs_completed,
            self.stream_buf_len,
            self.inflight.len() as u64,
            self.stream_waiters.len() as u64,
            self.tx_path.next_free().as_ps(),
            self.local_path.next_free().as_ps(),
        ] {
            accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CcloConfig;
    use crate::msg::MsgType;
    use accl_mem::{MemBusConfig, MemTarget, MemoryBus};
    use accl_sim::prelude::{Endpoint, Mailbox, Simulator, Time};

    struct Harness {
        sim: Simulator,
        dmp: ComponentId,
        bus: ComponentId,
        tx_jobs: ComponentId,
        tx_data: ComponentId,
        uc_done: ComponentId,
        kernel: ComponentId,
    }

    fn harness() -> Harness {
        let mut sim = Simulator::new(0);
        let bus = sim.add("bus", MemoryBus::new(MemBusConfig::default()));
        let tx_jobs = sim.add("txjobs", Mailbox::<crate::txsys::TxJob>::new());
        let tx_data = sim.add("txdata", Mailbox::<TxData>::new());
        let uc_done = sim.add("ucdone", Mailbox::<DmpDone>::new());
        let kernel = sim.add("kernel", Mailbox::<crate::rbm::RbmStream>::new());
        // The DMP addresses the Tx system's JOB/DATA ports by component id;
        // stand in with one mailbox per port via a tiny router component.
        struct TxRouter {
            jobs: Endpoint,
            data: Endpoint,
        }
        impl Component for TxRouter {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
                match port {
                    crate::txsys::ports::JOB => ctx.send(
                        self.jobs,
                        Dur::ZERO,
                        payload.downcast::<crate::txsys::TxJob>(),
                    ),
                    crate::txsys::ports::DATA => {
                        ctx.send(self.data, Dur::ZERO, payload.downcast::<TxData>())
                    }
                    other => panic!("router has no port {other:?}"),
                }
            }
        }
        let router = sim.add(
            "router",
            TxRouter {
                jobs: Endpoint::of(tx_jobs),
                data: Endpoint::of(tx_data),
            },
        );
        let rbm = sim.add("rbm", crate::rbm::Rbm::new(CcloConfig::default()));
        let mut dmp = Dmp::new(
            CcloConfig::default(),
            bus,
            rbm,
            router,
            Endpoint::of(uc_done),
        );
        dmp.set_kernel_out(Endpoint::of(kernel));
        let dmp = sim.add("dmp", dmp);
        Harness {
            sim,
            dmp,
            bus,
            tx_jobs,
            tx_data,
            uc_done,
            kernel,
        }
    }

    fn sig() -> crate::msg::MsgSignature {
        crate::msg::MsgSignature {
            src_rank: 0,
            dst_rank: 1,
            mtype: MsgType::Eager,
            payload_len: 0,
            tag: 0,
            seq: 0,
            addr: 0,
            comm: 0,
        }
    }

    #[test]
    fn mem_to_mem_copy_completes_and_moves_bytes() {
        let mut h = harness();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        h.sim
            .component_mut::<MemoryBus>(h.bus)
            .device_write(0x1000, &data);
        h.sim.post(
            Endpoint::new(h.dmp, ports::INSTR),
            Time::ZERO,
            Microcode {
                ticket: 5,
                op0: RSrc::Mem(MemAddr::Phys(MemTarget::Device, 0x1000)),
                op1: None,
                res: RDst::Mem(MemAddr::Phys(MemTarget::Device, 0x8000)),
                len: data.len() as u64,
                dtype: DType::U8,
                func: ReduceFn::Sum,
                span: SpanId::NONE,
            },
        );
        h.sim.run();
        assert_eq!(
            h.sim
                .component::<MemoryBus>(h.bus)
                .device_read(0x8000, data.len()),
            data
        );
        let done = h.sim.component::<Mailbox<DmpDone>>(h.uc_done);
        assert_eq!(done.len(), 1);
        assert_eq!(done.items()[0].1.ticket, 5);
        assert_eq!(h.sim.component::<Dmp>(h.dmp).instrs_completed(), 1);
    }

    #[test]
    fn two_operand_combine_reduces_through_the_plugin() {
        let mut h = harness();
        let a: Vec<u8> = (0..256u32).flat_map(|i| (i as i32).to_le_bytes()).collect();
        let b: Vec<u8> = (0..256u32)
            .flat_map(|i| (10 * i as i32).to_le_bytes())
            .collect();
        let bus = h.sim.component_mut::<MemoryBus>(h.bus);
        bus.device_write(0x1000, &a);
        bus.device_write(0x2000, &b);
        h.sim.post(
            Endpoint::new(h.dmp, ports::INSTR),
            Time::ZERO,
            Microcode {
                ticket: 1,
                op0: RSrc::Mem(MemAddr::Phys(MemTarget::Device, 0x1000)),
                op1: Some(RSrc::Mem(MemAddr::Phys(MemTarget::Device, 0x2000))),
                res: RDst::Mem(MemAddr::Phys(MemTarget::Device, 0x3000)),
                len: a.len() as u64,
                dtype: DType::I32,
                func: ReduceFn::Sum,
                span: SpanId::NONE,
            },
        );
        h.sim.run();
        let got = h
            .sim
            .component::<MemoryBus>(h.bus)
            .device_read(0x3000, a.len());
        let expect: Vec<u8> = (0..256u32)
            .flat_map(|i| (11 * i as i32).to_le_bytes())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn stream_in_feeds_instructions_in_issue_order() {
        let mut h = harness();
        // Two stream→kernel instructions; pushed bytes split between them
        // in issue order (AXI discipline).
        for ticket in [1u64, 2] {
            h.sim.post(
                Endpoint::new(h.dmp, ports::INSTR),
                Time::ZERO,
                Microcode {
                    ticket,
                    op0: RSrc::Stream,
                    op1: None,
                    res: RDst::Stream,
                    len: 100,
                    dtype: DType::U8,
                    func: ReduceFn::Sum,
                    span: SpanId::NONE,
                },
            );
        }
        h.sim.post(
            Endpoint::new(h.dmp, ports::STREAM_IN),
            Time::from_ps(1),
            KernelPush {
                data: Bytes::from(vec![1u8; 150]),
            },
        );
        h.sim.post(
            Endpoint::new(h.dmp, ports::STREAM_IN),
            Time::from_ps(2),
            KernelPush {
                data: Bytes::from(vec![2u8; 50]),
            },
        );
        h.sim.run();
        let done = h.sim.component::<Mailbox<DmpDone>>(h.uc_done);
        assert_eq!(done.len(), 2);
        assert_eq!(done.items()[0].1.ticket, 1);
        assert_eq!(done.items()[1].1.ticket, 2);
        // The kernel received 200 bytes over two messages.
        let chunks = h.sim.component::<Mailbox<crate::rbm::RbmStream>>(h.kernel);
        let total: usize = chunks.values().map(|c| c.data.len()).sum();
        assert_eq!(total, 200);
        // First message all 1s; second ends with the 2s.
        let first: Vec<u8> = chunks
            .values()
            .filter(|c| c.ticket == 1)
            .flat_map(|c| c.data.iter().copied())
            .collect();
        assert_eq!(first, vec![1u8; 100]);
    }

    #[test]
    fn tx_results_enqueue_jobs_at_decode_in_issue_order() {
        let mut h = harness();
        let bus = h.sim.component_mut::<MemoryBus>(h.bus);
        bus.device_write(0x1000, &[7u8; 64]);
        for (ticket, session) in [(1u64, 4u32), (2, 5)] {
            h.sim.post(
                Endpoint::new(h.dmp, ports::INSTR),
                Time::ZERO,
                Microcode {
                    ticket,
                    op0: RSrc::Mem(MemAddr::Phys(MemTarget::Device, 0x1000)),
                    op1: None,
                    res: RDst::Eager {
                        session: SessionId(session),
                        sig: sig(),
                    },
                    len: 64,
                    dtype: DType::U8,
                    func: ReduceFn::Sum,
                    span: SpanId::NONE,
                },
            );
        }
        h.sim.run();
        let jobs = h.sim.component::<Mailbox<crate::txsys::TxJob>>(h.tx_jobs);
        assert_eq!(jobs.len(), 2);
        match (&jobs.items()[0].1, &jobs.items()[1].1) {
            (
                crate::txsys::TxJob::Eager { ticket: t1, .. },
                crate::txsys::TxJob::Eager { ticket: t2, .. },
            ) => {
                assert_eq!((*t1, *t2), (1, 2));
            }
            other => panic!("expected two eager jobs, got {other:?}"),
        }
        // Data chunks arrive tagged per ticket.
        let data = h.sim.component::<Mailbox<TxData>>(h.tx_data);
        assert!(data.values().any(|d| d.ticket == 1));
        assert!(data.values().any(|d| d.ticket == 2));
    }
}
