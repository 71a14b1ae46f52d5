//! A software MPI rank: the baseline's CPU-side protocol engine.
//!
//! Executes collective schedules (shared IR with the CCLO firmware — a
//! communication schedule is implementation-neutral) entirely in software:
//! every posting, matching, copy and combine costs CPU time serialized
//! through one core, eager messages pay bounce-buffer copies, and large
//! messages run the RTS/CTS rendezvous with zero-copy NIC transfers —
//! the standard MPICH/OpenMPI structure the paper benchmarks against.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use accl_cclo::command::{CollOp, DataLoc};
use accl_cclo::firmware::{BufRef, DmpInstr, FirmwareTable, FwEnv, FwOp, SlotDst, SlotSrc};
use accl_cclo::msg::{DType, ReduceFn};
use accl_cclo::plugins;
use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};

use crate::nic::{MpiWire, NicDeliver, NicSend};
use crate::tuning::MpiConfig;

static CPU_PS: Metric = Metric::counter("mpi.cpu_ps");
static COLLS: Metric = Metric::counter("mpi.colls");

/// One collective invocation.
#[derive(Debug, Clone)]
pub struct MpiCall {
    /// The collective.
    pub op: CollOp,
    /// Element count (MPI semantics).
    pub count: u64,
    /// Element type.
    pub dtype: DType,
    /// Root rank.
    pub root: u32,
    /// Reduction function.
    pub func: ReduceFn,
    /// This rank's input data.
    pub src: Vec<u8>,
    /// Bytes of output space.
    pub dst_len: usize,
}

/// One step of an MPI rank's program.
#[derive(Debug, Clone)]
pub enum MpiOp {
    /// A collective call.
    Coll(MpiCall),
    /// Local computation.
    Compute(Dur),
}

/// Completion record of one program step.
#[derive(Debug, Clone, Copy)]
pub struct MpiRecord {
    /// Step index.
    pub index: usize,
    /// Start time.
    pub started: Time,
    /// Completion time.
    pub finished: Time,
}

/// Ports of the [`MpiProcess`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Program start.
    pub const START: PortId = PortId(0);
    /// NIC deliveries.
    pub const NIC_RX: PortId = PortId(1);
    /// CPU work-item completion.
    pub const CPU: PortId = PortId(2);
}

/// A pending (blocked) instruction.
#[derive(Debug, Clone)]
struct Pending {
    instr: DmpInstr,
    /// Whether this receive already acknowledged a rendezvous RTS (at most
    /// one CTS per posted receive).
    cts_sent: bool,
}

/// A CPU work item whose cost has been paid; effects apply on expiry.
#[derive(Debug)]
enum CpuWork {
    /// Finish executing an instruction (apply its effects).
    Exec(DmpInstr),
    /// Send a CTS for a matched rendezvous.
    SendCts {
        /// Peer to acknowledge.
        src: u32,
        /// Matched tag.
        tag: u64,
    },
    /// Rendezvous data transmission after CTS.
    SendRndzvData {
        /// Destination rank.
        dst: u32,
        /// Tag.
        tag: u64,
        /// Payload.
        data: Bytes,
    },
    /// A `Compute` step finished.
    ComputeDone,
}

/// The software MPI rank component.
pub struct MpiProcess {
    cfg: MpiConfig,
    rank: u32,
    size: u32,
    nic_tx: Endpoint,
    firmware: FirmwareTable,
    program: VecDeque<MpiOp>,
    records: Vec<MpiRecord>,
    index: usize,
    step_started: Time,
    running: bool,
    finished_at: Option<Time>,
    call_seq: u64,
    // Current collective state.
    ops: VecDeque<FwOp>,
    pending: Vec<Pending>,
    /// The active call's input; reads of it are slices, not copies.
    src: Bytes,
    dst: Vec<u8>,
    scratch: Vec<u8>,
    env: Option<FwEnv>,
    /// Earliest instant the (single) CPU core is free.
    cpu_free: Time,
    outstanding_cpu: u32,
    /// The active collective's root span.
    coll_span: SpanId,
    // Pt2pt matching state.
    arrived: BTreeMap<(u32, u64), VecDeque<Bytes>>,
    rts_seen: BTreeMap<(u32, u64), VecDeque<u64>>,
    cts_waiting: BTreeMap<(u32, u64), VecDeque<Bytes>>,
}

impl MpiProcess {
    /// Creates a rank of a `size`-rank job.
    pub fn new(
        cfg: MpiConfig,
        rank: u32,
        size: u32,
        nic_tx: Endpoint,
        program: Vec<MpiOp>,
    ) -> Self {
        MpiProcess {
            cfg,
            rank,
            size,
            nic_tx,
            firmware: FirmwareTable::stock(),
            program: program.into(),
            records: Vec::new(),
            index: 0,
            step_started: Time::ZERO,
            running: false,
            finished_at: None,
            call_seq: 0,
            ops: VecDeque::new(),
            pending: Vec::new(),
            src: Bytes::new(),
            dst: Vec::new(),
            scratch: Vec::new(),
            env: None,
            cpu_free: Time::ZERO,
            outstanding_cpu: 0,
            coll_span: SpanId::NONE,
            arrived: BTreeMap::new(),
            rts_seen: BTreeMap::new(),
            cts_waiting: BTreeMap::new(),
        }
    }

    /// Per-step records after a run.
    pub fn records(&self) -> &[MpiRecord] {
        &self.records
    }

    /// When the program finished.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    /// Output buffer of the most recent collective.
    pub fn dst(&self) -> &[u8] {
        &self.dst
    }

    fn wire_tag(&self, tag: u64) -> u64 {
        (self.call_seq << 40) | tag
    }

    /// Charges `cost` of CPU time (serialized on the rank's single core)
    /// and schedules `work` at its end.
    fn cpu_defer(&mut self, ctx: &mut Ctx<'_>, cost: Dur, work: CpuWork) {
        let start = self.cpu_free.max(ctx.now());
        let end = start + cost;
        self.cpu_free = end;
        self.outstanding_cpu += 1;
        ctx.stats().add(&CPU_PS, cost.as_ps());
        if ctx.spans_enabled() {
            let kind = match &work {
                CpuWork::Exec(_) => "exec",
                CpuWork::SendCts { .. } => "cts",
                CpuWork::SendRndzvData { .. } => "rndzv_data",
                CpuWork::ComputeDone => "compute",
            };
            ctx.span_interval_attrs(
                "mpi.cpu",
                self.coll_span,
                start,
                end,
                &[Attr {
                    key: "kind",
                    value: AttrValue::Str(kind),
                }],
            );
        }
        ctx.send_self(ports::CPU, end.since(ctx.now()), work);
    }

    fn next_step(&mut self, ctx: &mut Ctx<'_>) {
        self.step_started = ctx.now();
        let Some(op) = self.program.pop_front() else {
            self.running = false;
            self.finished_at = Some(ctx.now());
            return;
        };
        match op {
            MpiOp::Compute(d) => {
                self.cpu_defer(ctx, d, CpuWork::ComputeDone);
            }
            MpiOp::Coll(call) => {
                self.begin_collective(ctx, call);
            }
        }
    }

    fn begin_collective(&mut self, ctx: &mut Ctx<'_>, call: MpiCall) {
        let bytes = call.count * call.dtype.size() as u64;
        ctx.stats().add(&COLLS, 1);
        if ctx.spans_enabled() {
            self.coll_span = ctx.span_begin_attrs(
                "mpi.coll",
                SpanId::NONE,
                &[
                    Attr {
                        key: "op",
                        value: AttrValue::Str(call.op.name()),
                    },
                    Attr {
                        key: "bytes",
                        value: AttrValue::U64(bytes),
                    },
                    Attr {
                        key: "rank",
                        value: AttrValue::U64(u64::from(self.rank)),
                    },
                ],
            );
        }
        let env = FwEnv {
            rank: self.rank,
            size: self.size,
            count: call.count,
            dtype: call.dtype,
            func: call.func,
            root: call.root,
            bytes,
            eager: true, // software rendezvous handled per message below
            algorithm: self.cfg.algorithm(call.op, bytes, self.size),
            src: DataLoc::None,
            dst: DataLoc::None,
        };
        let schedule = self.firmware.schedule(call.op, &env);
        self.src = Bytes::from(call.src);
        self.dst = vec![0; call.dst_len];
        self.scratch = vec![0; schedule.scratch_bytes as usize];
        self.ops = schedule.ops.into();
        self.env = Some(env);
        self.try_progress(ctx);
    }

    fn read_buf(&self, r: BufRef, off: u64, len: u64) -> Bytes {
        let range = off as usize..(off + len) as usize;
        match r {
            BufRef::Src => self.src.slice(range),
            BufRef::Dst => Bytes::copy_from_slice(&self.dst[range]),
            BufRef::Scratch => Bytes::copy_from_slice(&self.scratch[range]),
        }
    }

    fn write_buf(&mut self, r: BufRef, off: u64, data: &[u8]) {
        let range = off as usize..off as usize + data.len();
        match r {
            BufRef::Src => unreachable!("MPI schedules never write the input buffer"),
            BufRef::Dst => self.dst[range].copy_from_slice(data),
            BufRef::Scratch => self.scratch[range].copy_from_slice(data),
        }
    }

    /// Whether an instruction's network inputs are available.
    fn inputs_ready(&self, instr: &DmpInstr) -> bool {
        for slot in [Some(&instr.op0), instr.op1.as_ref()].into_iter().flatten() {
            if let SlotSrc::EagerRx { peer, tag } = *slot {
                let key = (peer, self.wire_tag(tag));
                let ready = self.arrived.get(&key).is_some_and(|q| !q.is_empty());
                if !ready {
                    return false;
                }
            }
        }
        true
    }

    /// Issues at most one CTS per pending receive that matches an RTS.
    fn match_rts(&mut self, ctx: &mut Ctx<'_>) {
        let mut to_cts: Vec<(u32, u64)> = Vec::new();
        let call_seq = self.call_seq;
        for p in &mut self.pending {
            if p.cts_sent {
                continue;
            }
            for slot in [Some(&p.instr.op0), p.instr.op1.as_ref()]
                .into_iter()
                .flatten()
            {
                if let SlotSrc::EagerRx { peer, tag } = *slot {
                    let key = (peer, (call_seq << 40) | tag);
                    if self
                        .rts_seen
                        .get_mut(&key)
                        .and_then(VecDeque::pop_front)
                        .is_some()
                    {
                        p.cts_sent = true;
                        to_cts.push(key);
                    }
                }
            }
        }
        for (src, tag) in to_cts {
            let cost = self.cfg.rndzv_sw();
            self.cpu_defer(ctx, cost, CpuWork::SendCts { src, tag });
        }
    }

    /// Drives the schedule forward.
    fn try_progress(&mut self, ctx: &mut Ctx<'_>) {
        if self.env.is_none() {
            return;
        }
        self.match_rts(ctx);
        // Retry pending instructions.
        let pending = core::mem::take(&mut self.pending);
        for p in pending {
            if self.inputs_ready(&p.instr) {
                self.start_exec(ctx, p.instr);
            } else {
                self.pending.push(p);
            }
        }
        // Issue new ops.
        loop {
            let Some(op) = self.ops.front().cloned() else {
                let rndzv_unsent = self.cts_waiting.values().any(|q| !q.is_empty());
                if self.pending.is_empty() && self.outstanding_cpu == 0 && !rndzv_unsent {
                    self.finish_collective(ctx);
                }
                return;
            };
            match op {
                FwOp::WaitAll => {
                    if !self.pending.is_empty() || self.outstanding_cpu > 0 {
                        return;
                    }
                    self.ops.pop_front();
                }
                FwOp::Dmp(instr) => {
                    self.ops.pop_front();
                    if self.inputs_ready(&instr) {
                        self.start_exec(ctx, instr);
                    } else {
                        self.pending.push(Pending {
                            instr,
                            cts_sent: false,
                        });
                        self.match_rts(ctx);
                    }
                }
                FwOp::RndzvRecvInit { .. } | FwOp::WaitRndzvDone { .. } => {
                    unreachable!("software MPI schedules are built eager")
                }
            }
        }
    }

    /// Charges the instruction's CPU cost; effects apply at expiry.
    fn start_exec(&mut self, ctx: &mut Ctx<'_>, instr: DmpInstr) {
        let mut cost = Dur::ZERO;
        let is_send = matches!(instr.res, SlotDst::EagerTx { .. });
        let has_net_in = matches!(instr.op0, SlotSrc::EagerRx { .. })
            || matches!(instr.op1, Some(SlotSrc::EagerRx { .. }));
        if has_net_in {
            cost += self.cfg.overhead_recv();
            if instr.len <= self.cfg.eager_threshold {
                // Eager receive: copy out of the bounce buffer.
                cost += self.cfg.memcpy_time(instr.len);
            }
        }
        if is_send {
            cost += self.cfg.overhead_send();
            if instr.len <= self.cfg.eager_threshold {
                // Eager send: copy into the bounce buffer.
                cost += self.cfg.memcpy_time(instr.len);
            } else {
                cost += self.cfg.rndzv_sw();
            }
        }
        if instr.op1.is_some() {
            cost += self.cfg.combine_time(instr.len);
        }
        if !is_send && !has_net_in {
            // Pure local move.
            cost += self.cfg.memcpy_time(instr.len);
        }
        self.cpu_defer(ctx, cost, CpuWork::Exec(instr));
    }

    /// Applies an instruction's effects (inputs consumed now).
    fn apply_exec(&mut self, ctx: &mut Ctx<'_>, instr: DmpInstr) {
        let fetch = |p: &mut Self, slot: &SlotSrc| -> Bytes {
            match *slot {
                SlotSrc::Mem(buf, off) => p.read_buf(buf, off, instr.len),
                SlotSrc::EagerRx { peer, tag } => {
                    let key = (peer, p.wire_tag(tag));
                    let msg = p
                        .arrived
                        .get_mut(&key)
                        .and_then(VecDeque::pop_front)
                        .expect("inputs were ready");
                    assert_eq!(msg.len() as u64, instr.len, "message length mismatch");
                    msg
                }
                SlotSrc::Stream => panic!("software MPI has no kernel streams"),
            }
        };
        let a = fetch(self, &instr.op0);
        let env = self.env.as_ref().expect("no active collective");
        let (dtype, func) = (env.dtype, env.func);
        let out = match instr.op1 {
            None => a,
            Some(op1) => {
                let b = fetch(self, &op1);
                plugins::combine(dtype, func, &a, &b)
            }
        };
        match instr.res {
            SlotDst::Mem(buf, off) => self.write_buf(buf, off, &out),
            SlotDst::EagerTx { peer, tag } => {
                let tag = self.wire_tag(tag);
                if instr.len <= self.cfg.eager_threshold {
                    ctx.send(
                        self.nic_tx,
                        Dur::ZERO,
                        NicSend {
                            dst: peer,
                            msg: MpiWire::Eager { tag, data: out },
                            span: self.coll_span,
                        },
                    );
                } else {
                    // Rendezvous: RTS now, data after CTS.
                    ctx.send(
                        self.nic_tx,
                        Dur::ZERO,
                        NicSend {
                            dst: peer,
                            msg: MpiWire::Rts {
                                tag,
                                len: instr.len,
                            },
                            span: self.coll_span,
                        },
                    );
                    self.cts_waiting
                        .entry((peer, tag))
                        .or_default()
                        .push_back(out);
                }
            }
            SlotDst::RndzvTx { .. } => unreachable!("software MPI schedules are eager"),
            SlotDst::Stream => panic!("software MPI has no kernel streams"),
        }
    }

    fn finish_collective(&mut self, ctx: &mut Ctx<'_>) {
        self.env = None;
        self.call_seq += 1;
        ctx.span_end(self.coll_span);
        self.coll_span = SpanId::NONE;
        self.complete_step(ctx);
    }

    fn complete_step(&mut self, ctx: &mut Ctx<'_>) {
        self.records.push(MpiRecord {
            index: self.index,
            started: self.step_started,
            finished: ctx.now(),
        });
        self.index += 1;
        self.next_step(ctx);
    }
}

impl Component for MpiProcess {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::START => {
                payload.downcast::<()>();
                assert!(!self.running, "MPI program started twice");
                self.running = true;
                self.next_step(ctx);
            }
            ports::NIC_RX => {
                let d = payload.downcast::<NicDeliver>();
                match d.msg {
                    MpiWire::Eager { tag, data } | MpiWire::RndzvData { tag, data } => {
                        self.arrived
                            .entry((d.src, tag))
                            .or_default()
                            .push_back(data);
                    }
                    MpiWire::Rts { tag, len } => {
                        self.rts_seen
                            .entry((d.src, tag))
                            .or_default()
                            .push_back(len);
                    }
                    MpiWire::Cts { tag } => {
                        let data = self
                            .cts_waiting
                            .get_mut(&(d.src, tag))
                            .and_then(VecDeque::pop_front)
                            .expect("CTS without a waiting rendezvous send");
                        let cost = self.cfg.rndzv_sw();
                        self.cpu_defer(
                            ctx,
                            cost,
                            CpuWork::SendRndzvData {
                                dst: d.src,
                                tag,
                                data,
                            },
                        );
                    }
                }
                self.try_progress(ctx);
            }
            ports::CPU => {
                self.outstanding_cpu -= 1;
                match payload.downcast::<CpuWork>() {
                    CpuWork::Exec(instr) => {
                        self.apply_exec(ctx, instr);
                    }
                    CpuWork::SendCts { src, tag } => {
                        ctx.send(
                            self.nic_tx,
                            Dur::ZERO,
                            NicSend {
                                dst: src,
                                msg: MpiWire::Cts { tag },
                                span: self.coll_span,
                            },
                        );
                    }
                    CpuWork::SendRndzvData { dst, tag, data } => {
                        ctx.send(
                            self.nic_tx,
                            Dur::ZERO,
                            NicSend {
                                dst,
                                msg: MpiWire::RndzvData { tag, data },
                                span: self.coll_span,
                            },
                        );
                    }
                    CpuWork::ComputeDone => {
                        self.complete_step(ctx);
                        return;
                    }
                }
                self.try_progress(ctx);
            }
            other => panic!("MPI process has no port {other:?}"),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        // Program position, CPU horizon, per-step timings, and the
        // pt2pt matching populations (BTreeMap order is canonical).
        let mut h = 0u64;
        let mut fold = |v: u64| accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        for v in [
            self.index as u64,
            self.call_seq,
            u64::from(self.running),
            self.finished_at.map_or(0, |t| t.as_ps()),
            self.cpu_free.as_ps(),
            u64::from(self.outstanding_cpu),
        ] {
            fold(v);
        }
        for r in &self.records {
            fold(r.started.as_ps());
            fold(r.finished.as_ps());
        }
        for (map_salt, len) in [
            (1u64, self.arrived.len()),
            (2, self.rts_seen.len()),
            (3, self.cts_waiting.len()),
        ] {
            fold(map_salt);
            fold(len as u64);
        }
        Some(h)
    }
}
