//! The embedded micro-controller: the CCLO's flexible control plane.
//!
//! Receives commands from the host or FPGA kernels, selects protocol and
//! algorithm per its runtime configuration (Table 1), runs the loaded
//! firmware to obtain the per-rank schedule, and issues coarse-grained
//! control operations: microcode to the DMP, rendezvous control messages to
//! the Tx system. Every issue costs uC cycles at the engine clock — the uC
//! is sequential and slow, which is exactly why the firmware only issues
//! coarse commands to latency-optimized hardware blocks (paper §4.4.1).
//!
//! Commands execute strictly FIFO (one collective at a time per engine);
//! within a call, DMP instructions pipeline freely until a `WaitAll` or a
//! rendezvous dependency blocks the op stream.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use accl_mem::MemAddr;

use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};

use crate::command::{CcloCommand, CcloDone, CmdStatus, CollOp, DataLoc, SyncProto};
use crate::config::{CcloConfig, CommunicatorCfg};
use crate::dmp::{ports as dmp_ports, DmpDone, Microcode, RDst, RSrc};
use crate::firmware::{BufRef, FirmwareTable, FwEnv, FwOp, SlotDst, SlotSrc};
use crate::msg::{MsgSignature, MsgType};
use crate::rbm::{ports as rbm_ports, MatchKey, RbmPurge};
use crate::rxsys::UcNotif;
use crate::txsys::{ports as tx_ports, TxJob};

static DECODE_CYCLES: Metric = Metric::counter("uc.decode_cycles");
static COLLECTIVE_TIMEOUTS: Metric = Metric::counter("uc.collective_timeouts");
static ISSUE_CYCLES: Metric = Metric::counter("uc.issue_cycles");
static CALLS: Metric = Metric::counter("uc.calls");
static BUSY_REJECTIONS: Metric = Metric::counter("uc.busy_rejections");
static RX_EXHAUSTED_NOTIFS: Metric = Metric::counter("uc.rx_exhausted_notifs");
static NOTIFS: Metric = Metric::counter("uc.notifs");
static SUSPECTS: Metric = Metric::counter("uc.suspects");
static TRANSPORT_FAILOVERS: Metric = Metric::counter("uc.transport_failovers");

/// Ports of the [`Uc`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Command submissions ([`super::CcloCommand`]).
    pub const CMD: PortId = PortId(0);
    /// DMP completions ([`super::DmpDone`]).
    pub const DMP_DONE: PortId = PortId(1);
    /// Rendezvous notifications from the Rx system ([`super::UcNotif`]).
    pub const NOTIF: PortId = PortId(2);
    /// Internal sequencing events.
    pub const STEP: PortId = PortId(3);
    /// Collective-watchdog expiry (self-scheduled).
    pub const TIMEOUT: PortId = PortId(4);
    /// Transport-failover notifications from the Tx system
    /// ([`super::TransportFailover`]).
    pub const FAILOVER: PortId = PortId(5);
}

/// Announcement that the Tx path switched to a fallback POE. The uC adopts
/// the new transport's capabilities for all subsequent protocol and
/// algorithm selection; the call that triggered the switch has already
/// been aborted by the watchdog and is reissued by the host driver.
#[derive(Debug, Clone, Copy)]
pub struct TransportFailover {
    /// Whether the fallback POE supports rendezvous.
    pub rendezvous_capable: bool,
    /// Whether the fallback transport is reliable.
    pub reliable: bool,
}

/// The collective watchdog's deadline: the uC's one kernel timer slot
/// ([`WATCHDOG`]). Every progress event cancels the slot, so a firing means
/// the active call has been blocked, without progress, since it was armed.
#[derive(Debug, Clone, Copy)]
struct UcTimeout {
    /// Escalation level this deadline was armed at. Fixed-threshold
    /// watchdogs always arm at [`DetectLevel::Confirm`] (a firing aborts
    /// directly); the adaptive detector arms at Suspect first and only a
    /// subsequent Confirm firing aborts.
    level: DetectLevel,
}

/// Kernel timer slot key of the collective watchdog on [`ports::TIMEOUT`].
const WATCHDOG: u64 = 0;

/// Detector stream key for local DMP completions (per-peer streams use the
/// peer's rank, which is always below this).
const LOCAL_STREAM: u32 = u32::MAX;

/// Why the current call's op stream is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// Ready to issue the next op (a STEP event is in flight).
    Stepping,
    /// Waiting for outstanding DMP instructions.
    WaitAll,
    /// Waiting for a rendezvous done from `(peer, tag)`.
    RndzvDone(u32, u64),
}

/// The active call's execution state.
struct CallState {
    cmd: CcloCommand,
    env: FwEnv,
    ops: VecDeque<FwOp>,
    outstanding: u32,
    /// Tickets of DMP instructions issued but not yet completed (moved to
    /// the orphan set if the call aborts).
    issued: BTreeSet<u64>,
    /// Rendezvous sends parked until the peer's init arrives (the op
    /// stream keeps flowing — "FIFO queues allow multiple in-flight
    /// instructions", §4.4.1).
    parked: Vec<crate::firmware::DmpInstr>,
    blocked: Blocked,
    scratch_base: u64,
    /// The call's open `uc.call` span.
    span: SpanId,
}

/// The embedded controller component.
pub struct Uc {
    cfg: CcloConfig,
    firmware: FirmwareTable,
    communicators: BTreeMap<u32, CommunicatorCfg>,
    dmp: ComponentId,
    txsys: ComponentId,
    /// Whether the attached POE supports rendezvous (RDMA).
    rendezvous_capable: bool,
    /// Whether the transport is reliable (advanced eager algorithms OK).
    reliable: bool,
    /// Base of the scratch region (platform-specific address space).
    scratch_mem: MemAddr,
    queue: VecDeque<CcloCommand>,
    call: Option<CallState>,
    next_ticket: u64,
    /// Received rendezvous inits: (peer, tag) → FIFO of landing addresses.
    inits: BTreeMap<(u32, u64), VecDeque<u64>>,
    /// Received rendezvous dones: (peer, tag) → count.
    dones: BTreeMap<(u32, u64), u32>,
    calls_completed: u64,
    /// The node's RBM (abort cleanup); unset in control-plane-only tests.
    rbm: Option<ComponentId>,
    /// Calls started so far.
    call_seq: u64,
    /// Tickets of aborted calls whose DMP completions are still in flight.
    orphans: BTreeSet<u64>,
    orphans_reaped: u64,
    calls_aborted: u64,
    /// Transport failovers observed (the Tx system announced a POE swap).
    failovers_observed: u64,
    /// Commands rejected at admission because the queue was full.
    calls_rejected: u64,
    /// RBM pool-exhaustion notifications since the active call started;
    /// classifies watchdog aborts as [`CmdStatus::ResourceExhausted`].
    rx_exhausted_events: u64,
    /// Adaptive failure detector (present when
    /// [`CcloConfig::adaptive_watchdog`] is set); learns per-stream
    /// inter-arrival gaps and replaces the fixed watchdog threshold.
    detector: Option<FailureDetector>,
    /// Suspect-level watchdog firings (soft suspicion, no abort).
    suspicions: u64,
    /// Resource name of the command queue for stall diagnosis.
    resource: String,
}

impl Uc {
    /// Creates a uC driving the given DMP and Tx system.
    pub fn new(
        cfg: CcloConfig,
        firmware: FirmwareTable,
        dmp: ComponentId,
        txsys: ComponentId,
        rendezvous_capable: bool,
        reliable: bool,
        scratch_mem: MemAddr,
    ) -> Self {
        let detector = cfg.adaptive_watchdog.map(|a| {
            FailureDetector::new(DetectorCfg {
                min_samples: a.min_samples as usize,
                suspect_phi_milli: a.suspect_phi_milli,
                confirm_phi_milli: a.confirm_phi_milli,
                jitter_floor: Dur::from_us(a.jitter_floor_us),
                floor: Dur::from_us(a.floor_us),
                cap: Dur::from_us(a.cap_us),
            })
        });
        Uc {
            cfg,
            firmware,
            communicators: BTreeMap::new(),
            dmp,
            txsys,
            rendezvous_capable,
            reliable,
            scratch_mem,
            queue: VecDeque::new(),
            call: None,
            next_ticket: 0,
            inits: BTreeMap::new(),
            dones: BTreeMap::new(),
            calls_completed: 0,
            rbm: None,
            call_seq: 0,
            orphans: BTreeSet::new(),
            orphans_reaped: 0,
            calls_aborted: 0,
            failovers_observed: 0,
            calls_rejected: 0,
            rx_exhausted_events: 0,
            detector,
            suspicions: 0,
            resource: "cclo.jobq".to_string(),
        }
    }

    /// Scopes the command queue's resource name for stall diagnosis
    /// (e.g. `"cclo.jobq(n0)"`).
    pub fn set_resource_label(&mut self, label: impl Into<String>) {
        self.resource = label.into();
    }

    /// Wires the node's RBM so aborts can release its Rx buffers.
    pub fn set_rbm(&mut self, rbm: ComponentId) {
        self.rbm = Some(rbm);
    }

    /// Installs a communicator in the configuration memory (host MMIO).
    pub fn set_communicator(&mut self, id: u32, cfg: CommunicatorCfg) {
        self.communicators.insert(id, cfg);
    }

    /// Replaces the firmware serving `op` (no re-synthesis required).
    pub fn load_firmware(
        &mut self,
        op: CollOp,
        program: std::sync::Arc<dyn crate::firmware::CollectiveProgram>,
    ) {
        self.firmware.load(op, program);
    }

    /// Updates the runtime algorithm-selection configuration.
    pub fn set_algo_config(&mut self, algo: crate::config::AlgoConfig) {
        self.cfg.algo = algo;
    }

    /// Calls completed so far.
    pub fn calls_completed(&self) -> u64 {
        self.calls_completed
    }

    /// Calls aborted by the collective watchdog so far.
    pub fn calls_aborted(&self) -> u64 {
        self.calls_aborted
    }

    /// DMP completions reaped for already-aborted calls.
    pub fn orphans_reaped(&self) -> u64 {
        self.orphans_reaped
    }

    /// Transport failovers announced by the Tx system so far.
    pub fn failovers_observed(&self) -> u64 {
        self.failovers_observed
    }

    /// Commands rejected with [`CmdStatus::Busy`] at admission so far.
    pub fn calls_rejected(&self) -> u64 {
        self.calls_rejected
    }

    /// Suspect-level watchdog firings so far (adaptive detector only).
    pub fn suspicions(&self) -> u64 {
        self.suspicions
    }

    /// Forgets a peer's inter-arrival history in the adaptive detector.
    /// Called on rejoin: gaps measured against the peer's previous
    /// incarnation say nothing about the new one.
    pub fn reset_peer_history(&mut self, peer: u32) {
        if let Some(det) = &mut self.detector {
            det.reset_peer(peer);
        }
    }

    fn comm(&self, id: u32) -> &CommunicatorCfg {
        self.communicators
            .get(&id)
            .unwrap_or_else(|| panic!("communicator {id} not configured"))
    }

    /// Builds the firmware environment for a command (protocol + algorithm
    /// selection per the runtime config).
    fn build_env(&self, cmd: &CcloCommand) -> FwEnv {
        let comm = self.comm(cmd.comm);
        let bytes = cmd.bytes();
        let eager = match cmd.sync {
            SyncProto::Eager => true,
            SyncProto::Rendezvous => {
                assert!(
                    self.rendezvous_capable,
                    "rendezvous requires an RDMA-capable POE"
                );
                false
            }
            SyncProto::Auto => self.cfg.algo.pick_eager(bytes, self.rendezvous_capable),
        };
        // Streaming calls always run eager steps where streams are touched,
        // and simple algorithms avoid re-reading consumed streams.
        let streaming = matches!(cmd.src, DataLoc::Stream) || matches!(cmd.dst, DataLoc::Stream);
        // Advanced (tree / recursive-doubling) algorithms are safe under
        // rendezvous or any reliable transport; unreliable UDP keeps the
        // simple patterns (§4.4.4).
        let advanced = !eager || self.reliable;
        let algorithm = match cmd.op {
            CollOp::Bcast => {
                if streaming {
                    crate::config::Algorithm::OneToAll
                } else {
                    self.cfg.algo.bcast(comm.size(), advanced)
                }
            }
            CollOp::Reduce | CollOp::Gather => {
                if streaming && eager {
                    // Ring needs only single-pass stream access.
                    self.cfg.algo.reduce_like(bytes, false)
                } else {
                    self.cfg.algo.reduce_like(bytes, advanced)
                }
            }
            CollOp::AllReduce => {
                if streaming {
                    self.cfg.algo.reduce_like(bytes, false)
                } else {
                    self.cfg.algo.allreduce(bytes, advanced)
                }
            }
            CollOp::AllGather | CollOp::ReduceScatter => crate::config::Algorithm::Ring,
            _ => crate::config::Algorithm::Linear,
        };
        FwEnv {
            rank: comm.rank,
            size: comm.size(),
            count: cmd.count,
            dtype: cmd.dtype,
            func: cmd.func,
            root: cmd.root,
            bytes,
            eager,
            algorithm,
            src: cmd.src,
            dst: cmd.dst,
        }
    }

    /// Starts the next queued call, if idle.
    fn maybe_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.call.is_some() {
            return;
        }
        let Some(cmd) = self.queue.pop_front() else {
            return;
        };
        self.rx_exhausted_events = 0;
        let env = self.build_env(&cmd);
        let program = self.firmware.get(cmd.op).clone();
        let schedule = {
            let mut sched = crate::firmware::Sched::new(&env);
            program.build(&env, &mut sched);
            sched.finish()
        };
        assert!(
            schedule.scratch_bytes <= self.cfg.scratch_bytes,
            "schedule needs {} B scratch, engine has {}",
            schedule.scratch_bytes,
            self.cfg.scratch_bytes
        );
        let decode_cycles = self.cfg.uc_cmd_decode_cycles
            + program.planning_cycles(&env)
            + self
                .cfg
                .legacy_uc
                .map_or(0, |l| l.per_step_extra_cycles * schedule.ops.len() as u64);
        let planning = self.cfg.cycles(decode_cycles);
        ctx.stats().add(&DECODE_CYCLES, decode_cycles);
        let mut span = SpanId::NONE;
        if ctx.spans_enabled() {
            span = ctx.span_begin_attrs(
                "uc.call",
                cmd.span,
                &[
                    Attr {
                        key: "op",
                        value: AttrValue::Str(cmd.op.name()),
                    },
                    Attr {
                        key: "bytes",
                        value: AttrValue::U64(cmd.bytes()),
                    },
                ],
            );
            ctx.span_interval("uc.decode", span, ctx.now(), ctx.now() + planning);
        }
        self.call_seq += 1;
        self.call = Some(CallState {
            cmd,
            env,
            ops: schedule.ops.into(),
            outstanding: 0,
            issued: BTreeSet::new(),
            parked: Vec::new(),
            blocked: Blocked::Stepping,
            scratch_base: 0,
            span,
        });
        ctx.send_self(ports::STEP, planning, ());
    }

    /// Arms the collective watchdog for the active call's current blocked
    /// state. With the adaptive detector the first deadline is armed at
    /// the Suspect level; otherwise the fixed threshold arms directly at
    /// Confirm.
    fn arm_timeout(&mut self, ctx: &mut Ctx<'_>) {
        let level = if self.detector.is_some() {
            DetectLevel::Suspect
        } else {
            DetectLevel::Confirm
        };
        self.arm_timeout_at(ctx, level);
    }

    /// Arms one watchdog deadline at `level` for the active call.
    fn arm_timeout_at(&mut self, ctx: &mut Ctx<'_>, level: DetectLevel) {
        let Some(call) = &self.call else {
            return;
        };
        if call.blocked == Blocked::Stepping {
            return; // a STEP event is in flight: the op stream is moving
        }
        let wait = match (&self.detector, self.cfg.adaptive_watchdog) {
            (Some(det), Some(acfg)) => {
                // Adaptive deadline for the stream(s) the call blocks on;
                // below `min_samples` fall back to the fixed threshold (or
                // the permissive cap when none is configured).
                let learned = match call.blocked {
                    Blocked::RndzvDone(peer, _) => det.wait(peer, level),
                    Blocked::WaitAll => det.max_wait(level),
                    Blocked::Stepping => unreachable!("checked above"),
                };
                learned.unwrap_or_else(|| {
                    Dur::from_us(self.cfg.collective_timeout_us.unwrap_or(acfg.cap_us))
                })
            }
            _ => {
                let Some(us) = self.cfg.collective_timeout_us else {
                    return;
                };
                Dur::from_us(us)
            }
        };
        ctx.arm_timer(ports::TIMEOUT, WATCHDOG, wait, UcTimeout { level });
    }

    /// Aborts the active call: outstanding DMP work is disowned (its
    /// completions will be reaped as orphans), the call's eager Rx buffers
    /// and pending matches are released via the RBM, rendezvous
    /// bookkeeping under its tag is dropped, and the command completes
    /// with an error status. The next queued command then starts — a
    /// wedged collective no longer head-of-line-blocks the engine.
    fn abort_call(&mut self, ctx: &mut Ctx<'_>, status: CmdStatus) {
        let Some(call) = self.call.take() else {
            return;
        };
        self.orphans.extend(call.issued.iter().copied());
        let user_tag = call.cmd.tag;
        self.inits.retain(|(_, tag), _| tag >> 32 != user_tag);
        self.dones.retain(|(_, tag), _| tag >> 32 != user_tag);
        let issue_cost = self.cfg.cycles(self.cfg.uc_op_issue_cycles);
        if let Some(rbm) = self.rbm {
            ctx.send(
                Endpoint::new(rbm, rbm_ports::PURGE),
                issue_cost,
                RbmPurge {
                    comm: call.cmd.comm,
                    user_tag,
                },
            );
        }
        self.calls_aborted += 1;
        ctx.stats().add(&COLLECTIVE_TIMEOUTS, 1);
        if ctx.spans_enabled() {
            ctx.span_instant("uc.abort", call.span);
        }
        ctx.span_end(call.span);
        ctx.send(
            call.cmd.reply_to,
            issue_cost,
            CcloDone {
                ticket: call.cmd.ticket,
                op: call.cmd.op,
                bytes: 0,
                status,
            },
        );
        self.maybe_start(ctx);
    }

    /// Resolves a buffer reference to a platform address.
    fn resolve_buf(&self, call: &CallState, buf: BufRef, off: u64) -> MemAddr {
        let loc = match buf {
            BufRef::Src => call.cmd.src,
            BufRef::Dst => call.cmd.dst,
            BufRef::Scratch => {
                return match self.scratch_mem {
                    MemAddr::Virt(base) => MemAddr::Virt(base + call.scratch_base + off),
                    MemAddr::Phys(t, base) => MemAddr::Phys(t, base + call.scratch_base + off),
                };
            }
        };
        match loc {
            DataLoc::Mem(addr) => addr.offset(off),
            DataLoc::Stream => panic!("buffer reference into a stream location"),
            DataLoc::None => panic!("buffer reference but command has no {buf:?} buffer"),
        }
    }

    fn resolve_src(&self, call: &CallState, slot: SlotSrc) -> RSrc {
        match slot {
            SlotSrc::Mem(buf, off) => RSrc::Mem(self.resolve_buf(call, buf, off)),
            SlotSrc::EagerRx { peer, tag } => RSrc::Eager(MatchKey {
                comm: call.cmd.comm,
                src_rank: peer,
                tag: self.wire_tag(call, tag),
            }),
            SlotSrc::Stream => RSrc::Stream,
        }
    }

    /// Resolves and issues one DMP instruction (inits already available
    /// for rendezvous sends).
    fn issue_dmp(
        &mut self,
        ctx: &mut Ctx<'_>,
        call: &mut CallState,
        instr: crate::firmware::DmpInstr,
    ) {
        let issue_cost = self.cfg.cycles(self.cfg.uc_op_issue_cycles);
        let resolved_res = match instr.res {
            SlotDst::Mem(buf, off) => RDst::Mem(self.resolve_buf(call, buf, off)),
            SlotDst::Stream => RDst::Stream,
            SlotDst::EagerTx { peer, tag } => {
                let comm = self.comm(call.cmd.comm);
                RDst::Eager {
                    session: comm.session(peer),
                    sig: self.signature(call, peer, MsgType::Eager, instr.len, tag, 0),
                }
            }
            SlotDst::RndzvTx { peer, tag } => {
                let key = (peer, self.wire_tag(call, tag));
                let addr = self
                    .inits
                    .get_mut(&key)
                    .and_then(std::collections::VecDeque::pop_front)
                    .expect("issue_dmp called without an available init");
                let comm = self.comm(call.cmd.comm);
                RDst::Rndzv {
                    session: comm.session(peer),
                    remote_addr: addr,
                    done_sig: self.signature(call, peer, MsgType::RndzvDone, 0, tag, 0),
                }
            }
        };
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        call.outstanding += 1;
        call.issued.insert(ticket);
        ctx.stats().add(&ISSUE_CYCLES, self.cfg.uc_op_issue_cycles);
        let mc = Microcode {
            ticket,
            op0: self.resolve_src(call, instr.op0),
            op1: instr.op1.map(|s| self.resolve_src(call, s)),
            res: resolved_res,
            len: instr.len,
            dtype: call.env.dtype,
            func: call.env.func,
            span: call.span,
        };
        ctx.send(Endpoint::new(self.dmp, dmp_ports::INSTR), issue_cost, mc);
    }

    /// Issues parked rendezvous sends whose inits arrived — strictly in
    /// program order. In-order issuance keeps the Tx stream faithful to
    /// the algorithm's send priority (a binomial root must serve its
    /// deepest subtree first even if a shallow child's init races ahead);
    /// the firmware programs post all inits before depending on any done,
    /// so in-order parking cannot deadlock.
    fn unpark(&mut self, ctx: &mut Ctx<'_>) {
        let Some(mut call) = self.call.take() else {
            return;
        };
        while let Some(&instr) = call.parked.first() {
            let SlotDst::RndzvTx { peer, tag } = instr.res else {
                unreachable!("only rendezvous sends park")
            };
            let key = (peer, self.wire_tag(&call, tag));
            if self.inits.get(&key).is_some_and(|q| !q.is_empty()) {
                call.parked.remove(0);
                self.issue_dmp(ctx, &mut call, instr);
            } else {
                break;
            }
        }
        self.call = Some(call);
    }

    /// Namespaces program tags under the user's call tag.
    fn wire_tag(&self, call: &CallState, tag: u64) -> u64 {
        (call.cmd.tag << 32) | tag
    }

    fn signature(
        &self,
        call: &CallState,
        peer: u32,
        mtype: MsgType,
        payload_len: u64,
        tag: u64,
        addr: u64,
    ) -> MsgSignature {
        MsgSignature {
            src_rank: call.env.rank,
            dst_rank: peer,
            mtype,
            payload_len,
            tag: self.wire_tag(call, tag),
            seq: 0,
            addr,
            comm: call.cmd.comm,
        }
    }

    /// Executes ops until the stream blocks or the call completes.
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        let Some(mut call) = self.call.take() else {
            return;
        };
        call.blocked = Blocked::Stepping;
        let issue_cost = self.cfg.cycles(self.cfg.uc_op_issue_cycles);
        loop {
            let Some(&op) = call.ops.front() else {
                if call.outstanding == 0 && call.parked.is_empty() {
                    // Call complete.
                    self.calls_completed += 1;
                    ctx.stats().add(&CALLS, 1);
                    ctx.span_end(call.span);
                    ctx.send(
                        call.cmd.reply_to,
                        issue_cost,
                        CcloDone {
                            ticket: call.cmd.ticket,
                            op: call.cmd.op,
                            bytes: call.cmd.bytes(),
                            status: CmdStatus::Ok,
                        },
                    );
                    self.call = None;
                    self.maybe_start(ctx);
                    return;
                }
                call.blocked = Blocked::WaitAll;
                self.call = Some(call);
                self.arm_timeout(ctx);
                return;
            };
            match op {
                FwOp::WaitAll => {
                    if call.outstanding > 0 || !call.parked.is_empty() {
                        call.blocked = Blocked::WaitAll;
                        self.call = Some(call);
                        self.arm_timeout(ctx);
                        return;
                    }
                    call.ops.pop_front();
                    continue;
                }
                FwOp::Dmp(instr) => {
                    call.ops.pop_front();
                    // Rendezvous sends whose peer has not announced a
                    // landing zone yet are parked; the op stream continues
                    // (symmetric exchanges would deadlock otherwise).
                    if let SlotDst::RndzvTx { peer, tag } = instr.res {
                        let key = (peer, self.wire_tag(&call, tag));
                        let has_init = self.inits.get(&key).is_some_and(|q| !q.is_empty());
                        if !has_init {
                            call.parked.push(instr);
                            call.blocked = Blocked::Stepping;
                            self.call = Some(call);
                            ctx.send_self(ports::STEP, issue_cost, ());
                            return;
                        }
                    }
                    self.issue_dmp(ctx, &mut call, instr);
                    call.blocked = Blocked::Stepping;
                    self.call = Some(call);
                    ctx.send_self(ports::STEP, issue_cost, ());
                    return;
                }
                FwOp::RndzvRecvInit {
                    peer,
                    buf,
                    off,
                    len,
                    tag,
                } => {
                    call.ops.pop_front();
                    let addr = self.resolve_buf(&call, buf, off);
                    let MemAddr::Virt(vaddr) = addr else {
                        panic!("rendezvous landing buffers need unified virtual memory (Coyote)")
                    };
                    let comm = self.comm(call.cmd.comm);
                    let session = comm.session(peer);
                    let sig = self.signature(&call, peer, MsgType::RndzvInit, 0, tag, vaddr);
                    let _ = len; // the sender's instruction carries the length

                    ctx.stats().add(&ISSUE_CYCLES, self.cfg.uc_op_issue_cycles);
                    ctx.send(
                        Endpoint::new(self.txsys, tx_ports::JOB),
                        issue_cost,
                        TxJob::Ctrl {
                            session,
                            sig,
                            span: call.span,
                        },
                    );
                    call.blocked = Blocked::Stepping;
                    self.call = Some(call);
                    ctx.send_self(ports::STEP, issue_cost, ());
                    return;
                }
                FwOp::WaitRndzvDone { peer, tag } => {
                    let key = (peer, self.wire_tag(&call, tag));
                    let count = self.dones.entry(key).or_insert(0);
                    if *count > 0 {
                        *count -= 1;
                        call.ops.pop_front();
                        continue;
                    }
                    call.blocked = Blocked::RndzvDone(peer, key.1);
                    self.call = Some(call);
                    self.arm_timeout(ctx);
                    return;
                }
            }
        }
    }

    /// Re-enters the step loop if the blocker cleared.
    fn unblock(&mut self, ctx: &mut Ctx<'_>) {
        let Some(call) = &self.call else {
            return;
        };
        let ready = match call.blocked {
            Blocked::Stepping => false, // a STEP event is already in flight
            Blocked::WaitAll => call.outstanding == 0 && call.parked.is_empty(),
            Blocked::RndzvDone(peer, tag) => self.dones.get(&(peer, tag)).copied().unwrap_or(0) > 0,
        };
        if ready {
            let cost = self.cfg.cycles(self.cfg.uc_notif_cycles);
            if let Some(c) = &mut self.call {
                c.blocked = Blocked::Stepping;
            }
            ctx.send_self(ports::STEP, cost, ());
        }
    }
}

impl Component for Uc {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::CMD => {
                let cmd = payload.downcast::<CcloCommand>();
                assert!(
                    self.firmware.has(cmd.op),
                    "no firmware loaded for {:?}",
                    cmd.op
                );
                let pending = self.queue.len() + usize::from(self.call.is_some());
                let full = self
                    .cfg
                    .max_pending_calls
                    .is_some_and(|cap| pending >= cap as usize);
                if full {
                    // Admission rejected: complete immediately with Busy
                    // after the decode cost (the uC still has to look at
                    // the command to turn it away). No call state is
                    // created, so the caller may retry freely.
                    self.calls_rejected += 1;
                    ctx.stats().add(&BUSY_REJECTIONS, 1);
                    ctx.send(
                        cmd.reply_to,
                        self.cfg.cycles(self.cfg.uc_cmd_decode_cycles),
                        CcloDone {
                            ticket: cmd.ticket,
                            op: cmd.op,
                            bytes: 0,
                            status: CmdStatus::Busy,
                        },
                    );
                    return;
                }
                self.queue.push_back(cmd);
                self.maybe_start(ctx);
            }
            ports::STEP => {
                payload.downcast::<()>();
                self.step(ctx);
            }
            ports::DMP_DONE => {
                let done = payload.downcast::<DmpDone>();
                ctx.cancel_timer(ports::TIMEOUT, WATCHDOG);
                if let Some(det) = &mut self.detector {
                    det.observe(LOCAL_STREAM, ctx.now());
                }
                if self.orphans.remove(&done.ticket) {
                    // Completion of an instruction belonging to an aborted
                    // call: reap it without touching the current call.
                    self.orphans_reaped += 1;
                    return;
                }
                let call = self
                    .call
                    .as_mut()
                    .expect("DMP completion with no active call");
                assert!(
                    call.issued.remove(&done.ticket),
                    "unexpected DMP completion"
                );
                call.outstanding -= 1;
                self.unblock(ctx);
                self.arm_timeout(ctx);
            }
            ports::NOTIF => {
                let notif = payload.downcast::<UcNotif>();
                if let UcNotif::RxExhausted = notif {
                    // Pool starvation is not forward progress: it must not
                    // cancel the watchdog. It only recolors a later abort
                    // as resource exhaustion.
                    self.rx_exhausted_events += 1;
                    ctx.stats().add(&RX_EXHAUSTED_NOTIFS, 1);
                    return;
                }
                ctx.cancel_timer(ports::TIMEOUT, WATCHDOG);
                if let Some(det) = &mut self.detector {
                    let src = match &notif {
                        UcNotif::RndzvInit(sig) | UcNotif::RndzvDone(sig) => sig.src_rank,
                        UcNotif::RxExhausted => unreachable!("handled above"),
                    };
                    det.observe(src, ctx.now());
                }
                ctx.stats().add(&NOTIFS, 1);
                if ctx.spans_enabled() {
                    if let Some(call) = &self.call {
                        ctx.span_instant("uc.notif", call.span);
                    }
                }
                match notif {
                    UcNotif::RxExhausted => unreachable!("handled above"),
                    UcNotif::RndzvInit(sig) => {
                        self.inits
                            .entry((sig.src_rank, sig.tag))
                            .or_default()
                            .push_back(sig.addr);
                        self.unpark(ctx);
                    }
                    UcNotif::RndzvDone(sig) => {
                        *self.dones.entry((sig.src_rank, sig.tag)).or_insert(0) += 1;
                    }
                }
                self.unblock(ctx);
                self.arm_timeout(ctx);
            }
            ports::TIMEOUT => {
                let token = payload.downcast::<UcTimeout>();
                debug_assert!(
                    self.call
                        .as_ref()
                        .is_some_and(|call| call.blocked != Blocked::Stepping),
                    "watchdog fired for a call that is not blocked"
                );
                if token.level == DetectLevel::Suspect {
                    // Soft suspicion: record it, then escalate to a
                    // Confirm deadline — any progress before it fires
                    // still cancels it and clears the suspicion.
                    self.suspicions += 1;
                    ctx.stats().add(&SUSPECTS, 1);
                    if ctx.spans_enabled() {
                        if let Some(call) = &self.call {
                            ctx.span_instant("uc.suspect", call.span);
                        }
                    }
                    self.arm_timeout_at(ctx, DetectLevel::Confirm);
                    return;
                }
                // A watchdog expiry while the eager pool ran dry during
                // the call is local starvation, not remote silence.
                let status = if self.rx_exhausted_events > 0 {
                    CmdStatus::ResourceExhausted
                } else {
                    CmdStatus::TimedOut
                };
                self.abort_call(ctx, status);
            }
            ports::FAILOVER => {
                let fo = payload.downcast::<TransportFailover>();
                self.rendezvous_capable = fo.rendezvous_capable;
                self.reliable = fo.reliable;
                self.failovers_observed += 1;
                ctx.stats().add(&TRANSPORT_FAILOVERS, 1);
            }
            other => panic!("uC has no port {other:?}"),
        }
    }

    fn parked_work(&self) -> Option<ParkedWork> {
        let call = self.call.as_ref()?;
        let op = match call.blocked {
            Blocked::Stepping => format!("{:?}: issuing ops", call.cmd.op),
            Blocked::WaitAll => format!(
                "{:?}: WaitAll ({} DMP ops outstanding, {} parked rendezvous sends)",
                call.cmd.op,
                call.outstanding,
                call.parked.len()
            ),
            Blocked::RndzvDone(peer, tag) => format!(
                "{:?}: waiting rendezvous done from rank {peer} (wire tag {tag:#x})",
                call.cmd.op
            ),
        };
        Some(ParkedWork {
            rank: Some(call.env.rank),
            op,
        })
    }

    fn resource_state(&self) -> Option<ResourceState> {
        let pending = self.queue.len() as u64 + u64::from(self.call.is_some());
        if pending == 0 && self.cfg.max_pending_calls.is_none() {
            return None;
        }
        Some(ResourceState::gauges_only(vec![ResourceGauge {
            name: self.resource.clone(),
            used: pending,
            capacity: self.cfg.max_pending_calls.map(u64::from),
        }]))
    }

    fn state_digest(&self) -> Option<u64> {
        // Call lifecycle totals plus admission/abort accounting: the
        // control plane's entire externally-visible trajectory.
        let mut h = 0u64;
        for v in [
            self.calls_completed,
            self.calls_aborted,
            self.calls_rejected,
            self.orphans_reaped,
            self.failovers_observed,
            self.rx_exhausted_events,
            self.next_ticket,
            self.call_seq,
            self.queue.len() as u64,
            self.orphans.len() as u64,
            self.suspicions,
        ] {
            accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        }
        if let Some(det) = &self.detector {
            det.fold_digest(&mut h);
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CcloConfig;
    use crate::firmware::{FirmwareTable, Place, Sched};
    use crate::txsys::TxJob;
    use accl_mem::MemTarget;
    use accl_net::NodeAddr;
    use accl_poe::iface::SessionId;
    use accl_sim::prelude::{Endpoint, Mailbox, Simulator, Time};
    use std::sync::Arc;

    /// A harness wiring a uC to mailboxes standing in for the DMP and Tx
    /// system, so control-plane behaviour can be observed in isolation.
    struct Harness {
        sim: Simulator,
        uc: ComponentId,
        dmp: ComponentId,
        #[allow(dead_code)] // kept for tests that grow Tx-job checks
        txsys: ComponentId,
        done: ComponentId,
        rbm: ComponentId,
    }

    fn harness(rendezvous: bool) -> Harness {
        harness_with(rendezvous, CcloConfig::default())
    }

    fn harness_with(rendezvous: bool, cfg: CcloConfig) -> Harness {
        let mut sim = Simulator::new(0);
        let dmp = sim.add("dmp", Mailbox::<Microcode>::new());
        let txsys = sim.add("txsys", Mailbox::<TxJob>::new());
        let done = sim.add("done", Mailbox::<crate::command::CcloDone>::new());
        let rbm = sim.add("rbm", Mailbox::<crate::rbm::RbmPurge>::new());
        let mut uc = Uc::new(
            cfg,
            FirmwareTable::stock(),
            dmp,
            txsys,
            rendezvous,
            true,
            MemAddr::Phys(MemTarget::Device, 0x4000_0000),
        );
        uc.set_rbm(rbm);
        uc.set_communicator(
            0,
            CommunicatorCfg {
                rank: 0,
                peers: vec![
                    (NodeAddr(0), SessionId(0)),
                    (NodeAddr(1), SessionId(1)),
                    (NodeAddr(2), SessionId(2)),
                ],
            },
        );
        let uc = sim.add("uc", uc);
        Harness {
            sim,
            uc,
            dmp,
            txsys,
            done,
            rbm,
        }
    }

    fn cmd(h: &Harness, op: CollOp, count: u64, root: u32, sync: SyncProto) -> CcloCommand {
        CcloCommand {
            op,
            count,
            dtype: crate::msg::DType::I32,
            root,
            tag: 3,
            comm: 0,
            func: crate::msg::ReduceFn::Sum,
            src: DataLoc::Mem(MemAddr::Phys(MemTarget::Device, 0x1000)),
            dst: DataLoc::Mem(MemAddr::Phys(MemTarget::Device, 0x2000)),
            sync,
            reply_to: Endpoint::of(h.done),
            ticket: 9,
            span: SpanId::NONE,
        }
    }

    #[test]
    fn nop_completes_after_decode_cost() {
        let mut h = harness(false);
        let mut c = cmd(&h, CollOp::Nop, 0, 0, SyncProto::Auto);
        c.src = DataLoc::None;
        c.dst = DataLoc::None;
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 1);
        assert_eq!(done.items()[0].1.ticket, 9);
        // Decode (100 cy @ 250 MHz = 0.4 us) + completion issue cost.
        let t = done.items()[0].0.as_us_f64();
        assert!((0.3..1.5).contains(&t), "NOP at {t} us");
        assert_eq!(h.sim.component::<Uc>(h.uc).calls_completed(), 1);
    }

    #[test]
    fn eager_send_issues_one_microcode_with_signature() {
        let mut h = harness(false);
        let c = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        h.sim.run();
        let mc = h.sim.component::<Mailbox<Microcode>>(h.dmp);
        assert_eq!(mc.len(), 1);
        let m = &mc.items()[0].1;
        assert_eq!(m.len, 1024);
        match &m.res {
            RDst::Eager { session, sig } => {
                assert_eq!(*session, SessionId(1));
                assert_eq!(sig.src_rank, 0);
                assert_eq!(sig.dst_rank, 1);
                assert_eq!(sig.payload_len, 1024);
                // Tag namespaced under the user tag.
                assert_eq!(sig.tag >> 32, 3);
            }
            other => panic!("expected eager result, got {other:?}"),
        }
        // The call is still open until the DMP reports completion.
        assert_eq!(
            h.sim
                .component::<Mailbox<crate::command::CcloDone>>(h.done)
                .len(),
            0
        );
        let ticket = mc.items()[0].1.ticket;
        h.sim.post(
            Endpoint::new(h.uc, ports::DMP_DONE),
            h.sim.now(),
            DmpDone { ticket },
        );
        h.sim.run();
        assert_eq!(
            h.sim
                .component::<Mailbox<crate::command::CcloDone>>(h.done)
                .len(),
            1
        );
    }

    #[test]
    fn rendezvous_send_parks_until_init_and_issues_in_order() {
        let mut h = harness(true);
        // A bcast from rank 0 over 3 ranks, rendezvous: two RndzvTx sends
        // (to ranks 1 and 2, in one-to-all order 1 then 2... with 3 ranks
        // the selection is OneToAll).
        let c = cmd(&h, CollOp::Bcast, 4096, 0, SyncProto::Rendezvous);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        h.sim.run();
        // No init yet: nothing issued, both parked.
        assert_eq!(h.sim.component::<Mailbox<Microcode>>(h.dmp).len(), 0);
        // Rank 2's init arrives FIRST — but program order sends to rank 1
        // first, so nothing can issue yet (in-order unparking).
        let init = |src_rank: u32, tag_low: u64| {
            crate::rxsys::UcNotif::RndzvInit(crate::msg::MsgSignature {
                src_rank,
                dst_rank: 0,
                mtype: crate::msg::MsgType::RndzvInit,
                payload_len: 0,
                tag: (3 << 32) | tag_low,
                seq: 0,
                addr: 0xbeef_0000,
                comm: 0,
            })
        };
        h.sim
            .post(Endpoint::new(h.uc, ports::NOTIF), h.sim.now(), init(2, 2));
        h.sim.run();
        assert_eq!(
            h.sim.component::<Mailbox<Microcode>>(h.dmp).len(),
            0,
            "head-of-queue send (to rank 1) must gate later sends"
        );
        // Rank 1's init arrives: both issue, in program order.
        h.sim
            .post(Endpoint::new(h.uc, ports::NOTIF), h.sim.now(), init(1, 1));
        h.sim.run();
        let mc = h.sim.component::<Mailbox<Microcode>>(h.dmp);
        assert_eq!(mc.len(), 2);
        let sessions: Vec<SessionId> = mc
            .values()
            .map(|m| match &m.res {
                RDst::Rndzv { session, .. } => *session,
                other => panic!("expected rendezvous result, got {other:?}"),
            })
            .collect();
        assert_eq!(sessions, vec![SessionId(1), SessionId(2)]);
    }

    #[test]
    fn commands_queue_fifo_per_engine() {
        let mut h = harness(false);
        let c1 = cmd(&h, CollOp::Send, 16, 1, SyncProto::Eager);
        let mut c2 = cmd(&h, CollOp::Nop, 0, 0, SyncProto::Auto);
        c2.src = DataLoc::None;
        c2.dst = DataLoc::None;
        c2.ticket = 10;
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c1);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c2);
        h.sim.run();
        // The NOP cannot complete before the send's DMP work finishes.
        assert_eq!(
            h.sim
                .component::<Mailbox<crate::command::CcloDone>>(h.done)
                .len(),
            0
        );
        let ticket = h.sim.component::<Mailbox<Microcode>>(h.dmp).items()[0]
            .1
            .ticket;
        h.sim.post(
            Endpoint::new(h.uc, ports::DMP_DONE),
            h.sim.now(),
            DmpDone { ticket },
        );
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 2);
        assert_eq!(done.items()[0].1.ticket, 9);
        assert_eq!(done.items()[1].1.ticket, 10);
    }

    #[test]
    #[should_panic(expected = "communicator 5 not configured")]
    fn unknown_communicator_panics() {
        let mut h = harness(false);
        let mut c = cmd(&h, CollOp::Send, 16, 1, SyncProto::Eager);
        c.comm = 5;
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        h.sim.run();
    }

    fn timeout_cfg(us: u64) -> CcloConfig {
        CcloConfig {
            collective_timeout_us: Some(us),
            ..CcloConfig::default()
        }
    }

    #[test]
    fn waitall_timeout_aborts_with_error_completion() {
        let mut h = harness_with(false, timeout_cfg(50));
        let c = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        let out = h.sim.run();
        assert_eq!(out, accl_sim::sim::RunOutcome::Drained);
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 1);
        let (at, d) = &done.items()[0];
        assert_eq!(d.ticket, 9);
        assert_eq!(d.status, crate::command::CmdStatus::TimedOut);
        assert!(at.as_us_f64() >= 50.0, "aborted at {} us", at.as_us_f64());
        assert_eq!(h.sim.component::<Uc>(h.uc).calls_aborted(), 1);
        assert_eq!(h.sim.component::<Uc>(h.uc).calls_completed(), 0);
        // The abort released the call's eager state at the RBM.
        let purges = h.sim.component::<Mailbox<crate::rbm::RbmPurge>>(h.rbm);
        assert_eq!(purges.len(), 1);
        assert_eq!(purges.items()[0].1.user_tag, 3);
        // A straggling DMP completion for the aborted instruction is
        // reaped, not misattributed to a later call.
        let ticket = h.sim.component::<Mailbox<Microcode>>(h.dmp).items()[0]
            .1
            .ticket;
        h.sim.post(
            Endpoint::new(h.uc, ports::DMP_DONE),
            h.sim.now(),
            DmpDone { ticket },
        );
        h.sim.run();
        assert_eq!(h.sim.component::<Uc>(h.uc).orphans_reaped(), 1);
    }

    #[test]
    fn rendezvous_wait_done_times_out() {
        // Rank 0 is a bcast *receiver* (root = 1): it announces its landing
        // buffer and blocks in WaitRndzvDone. The peer's WRITE never
        // completes, so the watchdog aborts the call.
        let mut h = harness_with(true, timeout_cfg(50));
        let mut c = cmd(&h, CollOp::Bcast, 4096, 1, SyncProto::Rendezvous);
        c.dst = DataLoc::Mem(MemAddr::Virt(0x2000));
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 1);
        assert_eq!(
            done.items()[0].1.status,
            crate::command::CmdStatus::TimedOut
        );
        assert_eq!(h.sim.component::<Uc>(h.uc).calls_aborted(), 1);
    }

    #[test]
    fn abort_unblocks_next_queued_command() {
        let mut h = harness_with(false, timeout_cfg(50));
        let c1 = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        let mut c2 = cmd(&h, CollOp::Nop, 0, 0, SyncProto::Auto);
        c2.src = DataLoc::None;
        c2.dst = DataLoc::None;
        c2.ticket = 10;
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c1);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c2);
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 2);
        assert_eq!(done.items()[0].1.ticket, 9);
        assert_eq!(
            done.items()[0].1.status,
            crate::command::CmdStatus::TimedOut
        );
        assert_eq!(done.items()[1].1.ticket, 10);
        assert_eq!(done.items()[1].1.status, crate::command::CmdStatus::Ok);
    }

    #[test]
    fn progress_rearms_the_watchdog() {
        // A 3-rank eager ring gather at the root issues several DMP ops;
        // completions trickling in within the timeout keep the call alive
        // even though total runtime exceeds the timeout.
        let mut h = harness_with(false, timeout_cfg(50));
        let c = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        // Let the uC issue and block, then complete the DMP op at 40 us —
        // inside the window.
        h.sim.run_until(Time::from_us(40));
        let ticket = h.sim.component::<Mailbox<Microcode>>(h.dmp).items()[0]
            .1
            .ticket;
        h.sim.post(
            Endpoint::new(h.uc, ports::DMP_DONE),
            Time::from_us(40),
            DmpDone { ticket },
        );
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 1);
        assert_eq!(done.items()[0].1.status, crate::command::CmdStatus::Ok);
        assert_eq!(h.sim.component::<Uc>(h.uc).calls_aborted(), 0);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let cfg = CcloConfig {
            max_pending_calls: Some(1),
            ..CcloConfig::default()
        };
        let mut h = harness_with(false, cfg);
        let c1 = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        let mut c2 = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        c2.ticket = 10;
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c1);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c2);
        h.sim.run();
        // The second command bounced immediately with Busy while the first
        // is still in flight.
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 1);
        assert_eq!(done.items()[0].1.ticket, 10);
        assert_eq!(done.items()[0].1.status, crate::command::CmdStatus::Busy);
        assert_eq!(done.items()[0].1.bytes, 0);
        assert_eq!(h.sim.component::<Uc>(h.uc).calls_rejected(), 1);
        // The first command is unaffected and completes once its DMP work
        // finishes.
        let ticket = h.sim.component::<Mailbox<Microcode>>(h.dmp).items()[0]
            .1
            .ticket;
        h.sim.post(
            Endpoint::new(h.uc, ports::DMP_DONE),
            h.sim.now(),
            DmpDone { ticket },
        );
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 2);
        assert_eq!(done.items()[1].1.ticket, 9);
        assert_eq!(done.items()[1].1.status, crate::command::CmdStatus::Ok);
    }

    #[test]
    fn rx_exhaustion_classifies_watchdog_abort() {
        let mut h = harness_with(false, timeout_cfg(50));
        let c = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        // The RBM reports the eager pool dry while the call is blocked;
        // the notification must NOT count as progress (the watchdog still
        // fires) but recolors the abort as resource exhaustion.
        h.sim.post(
            Endpoint::new(h.uc, ports::NOTIF),
            Time::from_us(10),
            crate::rxsys::UcNotif::RxExhausted,
        );
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 1);
        assert_eq!(
            done.items()[0].1.status,
            crate::command::CmdStatus::ResourceExhausted
        );
        assert_eq!(h.sim.component::<Uc>(h.uc).calls_aborted(), 1);
    }

    #[test]
    fn jobq_gauge_reports_occupancy_against_cap() {
        let cfg = CcloConfig {
            max_pending_calls: Some(4),
            ..CcloConfig::default()
        };
        let mut h = harness_with(false, cfg);
        let c1 = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        let mut c2 = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        c2.ticket = 10;
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c1);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c2);
        h.sim.run();
        let st = h
            .sim
            .component::<Uc>(h.uc)
            .resource_state()
            .expect("capped queue must publish a gauge");
        assert_eq!(st.gauges.len(), 1);
        assert_eq!(st.gauges[0].name, "cclo.jobq");
        assert_eq!(st.gauges[0].used, 2); // one active + one queued
        assert_eq!(st.gauges[0].capacity, Some(4));
    }

    #[test]
    fn stall_watchdog_names_blocked_collective_when_timeouts_disabled() {
        let mut h = harness(false);
        let c = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        let out = h.sim.run();
        let accl_sim::sim::RunOutcome::Stalled(report) = out else {
            panic!("expected a stall report, got {out:?}");
        };
        assert_eq!(report.component, "uc");
        assert_eq!(report.rank, Some(0));
        assert!(
            report.op.contains("WaitAll"),
            "report should name the parked op: {}",
            report.op
        );
    }

    fn adaptive_cfg(cap_us: u64) -> CcloConfig {
        CcloConfig {
            adaptive_watchdog: Some(crate::config::AdaptiveWatchdogCfg {
                cap_us,
                ..crate::config::AdaptiveWatchdogCfg::default()
            }),
            ..CcloConfig::default()
        }
    }

    #[test]
    fn adaptive_watchdog_suspects_then_aborts_on_silence() {
        // No history, no fixed timeout: the detector falls back to its cap
        // (50 us). Silence first raises a suspicion at ~50 us, then the
        // Confirm deadline fires and aborts — two levels, one abort.
        let mut h = harness_with(false, adaptive_cfg(50));
        let c = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        let out = h.sim.run();
        assert_eq!(out, accl_sim::sim::RunOutcome::Drained);
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 1);
        let (at, d) = &done.items()[0];
        assert_eq!(d.status, crate::command::CmdStatus::TimedOut);
        // Suspect at ~50 us, confirm 50 us later: abort no earlier than
        // 100 us (strictly after where a single-level 50 us abort lands).
        assert!(at.as_us_f64() >= 100.0, "aborted at {} us", at.as_us_f64());
        let uc = h.sim.component::<Uc>(h.uc);
        assert_eq!(uc.suspicions(), 1);
        assert_eq!(uc.calls_aborted(), 1);
    }

    #[test]
    fn progress_after_suspicion_cancels_the_confirm() {
        // The suspect level must be recoverable: progress between the
        // Suspect and Confirm firings completes the call normally.
        let mut h = harness_with(false, adaptive_cfg(50));
        let c = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        // Run past the suspect deadline (~50 us) but short of confirm
        // (~100 us), then complete the DMP op.
        h.sim.run_until(Time::from_us(70));
        let ticket = h.sim.component::<Mailbox<Microcode>>(h.dmp).items()[0]
            .1
            .ticket;
        h.sim.post(
            Endpoint::new(h.uc, ports::DMP_DONE),
            Time::from_us(70),
            DmpDone { ticket },
        );
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 1);
        assert_eq!(done.items()[0].1.status, crate::command::CmdStatus::Ok);
        let uc = h.sim.component::<Uc>(h.uc);
        assert_eq!(uc.suspicions(), 1, "the soft suspicion was recorded");
        assert_eq!(uc.calls_aborted(), 0, "but nothing was aborted");
    }

    #[test]
    fn adaptive_watchdog_learns_slow_cadence_and_stays_quiet() {
        // Back-to-back sends completed at a slow, steady 200 us cadence:
        // once the local-completion stream has min_samples gaps, the
        // adaptive deadline tracks mean + margin and no suspicion fires —
        // where a fixed 50 us watchdog would have aborted every call.
        let mut h = harness_with(false, adaptive_cfg(100_000));
        for i in 0..8u64 {
            let mut c = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
            c.ticket = 100 + i;
            h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        }
        for i in 0..8u64 {
            let at = Time::from_us(200 * (i + 1));
            h.sim.run_until(at);
            let mc = h.sim.component::<Mailbox<Microcode>>(h.dmp);
            assert_eq!(mc.len() as u64, i + 1, "call {i} should have issued");
            let ticket = mc.items()[i as usize].1.ticket;
            h.sim
                .post(Endpoint::new(h.uc, ports::DMP_DONE), at, DmpDone { ticket });
        }
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        assert_eq!(done.len(), 8);
        assert!(done
            .values()
            .all(|d| d.status == crate::command::CmdStatus::Ok));
        let uc = h.sim.component::<Uc>(h.uc);
        assert_eq!(uc.calls_aborted(), 0);
        assert_eq!(
            uc.suspicions(),
            0,
            "steady 200 us cadence must not raise suspicion once learned"
        );
    }

    #[test]
    fn fixed_watchdog_unchanged_when_adaptive_unset() {
        // Guard for the compatibility promise: with `adaptive_watchdog:
        // None` the fixed threshold aborts exactly as before, with no
        // suspect level in between.
        let mut h = harness_with(false, timeout_cfg(50));
        let c = cmd(&h, CollOp::Send, 256, 1, SyncProto::Eager);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        h.sim.run();
        let done = h.sim.component::<Mailbox<crate::command::CcloDone>>(h.done);
        let (at, d) = &done.items()[0];
        assert_eq!(d.status, crate::command::CmdStatus::TimedOut);
        assert!(
            (50.0..60.0).contains(&at.as_us_f64()),
            "single-level abort right at the fixed threshold, got {} us",
            at.as_us_f64()
        );
        assert_eq!(h.sim.component::<Uc>(h.uc).suspicions(), 0);
    }

    #[test]
    fn custom_firmware_slot_is_callable_after_load() {
        struct Noop;
        impl crate::firmware::CollectiveProgram for Noop {
            fn name(&self) -> &str {
                "noop"
            }
            fn build(&self, _env: &crate::firmware::FwEnv, s: &mut Sched) {
                // A local copy so the schedule is non-empty.
                s.copy(Place::src(0), Place::dst(0), 64);
            }
        }
        let mut h = harness(false);
        h.sim
            .component_mut::<Uc>(h.uc)
            .load_firmware(CollOp::Custom(7), Arc::new(Noop));
        let c = cmd(&h, CollOp::Custom(7), 16, 0, SyncProto::Auto);
        h.sim.post(Endpoint::new(h.uc, ports::CMD), Time::ZERO, c);
        h.sim.run();
        assert_eq!(h.sim.component::<Mailbox<Microcode>>(h.dmp).len(), 1);
    }
}
