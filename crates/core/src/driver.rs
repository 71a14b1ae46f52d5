//! The host-side CCL driver (paper §4.1).
//!
//! One driver instance per node mediates between CPU applications and the
//! CCLO engine: it charges the platform's invocation latency, performs
//! staging copies on partitioned-memory platforms (XRT), submits the CCLO
//! command, and reports completion with a per-phase time breakdown — the
//! quantities behind Fig. 8, 9, 11 and 13.

use std::collections::VecDeque;

use accl_cclo::command::{CcloCommand, CcloDone, CmdStatus, CollOp, DataLoc, SyncProto};
use accl_cclo::msg::{DType, ReduceFn};
use accl_mem::xdma::{ports as xdma_ports, XdmaCopy, XdmaDir, XdmaDone};
use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};

use crate::buffer::BufferHandle;
use crate::error::{CclError, RetryPolicy};

static CALLS_REJECTED: Metric = Metric::counter("driver.calls_rejected");
static CALLS: Metric = Metric::counter("driver.calls");
static TOTAL_PS: Metric = Metric::histogram("driver.total_ps");
static RETRIES: Metric = Metric::counter("driver.retries");
static BUSY_RETRIES: Metric = Metric::counter("driver.busy_retries");
static CALLS_FAILED: Metric = Metric::counter("driver.calls_failed");
static CALLS_SHED: Metric = Metric::counter("driver.calls_shed");

/// A collective call specification, mirroring the MPI-like API of Listing 1.
#[derive(Debug, Clone, Copy)]
pub struct CollSpec {
    /// The collective.
    pub op: CollOp,
    /// Element count (MPI semantics per collective).
    pub count: u64,
    /// Element datatype.
    pub dtype: DType,
    /// Root rank / point-to-point peer.
    pub root: u32,
    /// Reduction function.
    pub func: ReduceFn,
    /// User tag.
    pub tag: u64,
    /// Synchronization protocol.
    pub sync: SyncProto,
    /// Communicator id (0 = the world communicator).
    pub comm: u32,
    /// Source buffer (None for ops without one or streaming kernels).
    pub src: Option<BufferHandle>,
    /// Destination buffer.
    pub dst: Option<BufferHandle>,
}

impl CollSpec {
    /// A minimal spec for `op` with `count` elements of `dtype`.
    pub fn new(op: CollOp, count: u64, dtype: DType) -> Self {
        CollSpec {
            op,
            count,
            dtype,
            root: 0,
            func: ReduceFn::Sum,
            tag: 0,
            sync: SyncProto::Auto,
            comm: 0,
            src: None,
            dst: None,
        }
    }

    /// Sets the root / peer rank.
    pub fn root(mut self, root: u32) -> Self {
        self.root = root;
        self
    }

    /// Sets the source buffer.
    pub fn src(mut self, buf: BufferHandle) -> Self {
        self.src = Some(buf);
        self
    }

    /// Sets the destination buffer.
    pub fn dst(mut self, buf: BufferHandle) -> Self {
        self.dst = Some(buf);
        self
    }

    /// Forces a synchronization protocol.
    pub fn sync(mut self, sync: SyncProto) -> Self {
        self.sync = sync;
        self
    }

    /// Sets the reduction function.
    pub fn func(mut self, func: ReduceFn) -> Self {
        self.func = func;
        self
    }

    /// Sets the user tag.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Targets a communicator other than the world (see
    /// `AcclCluster::add_communicator`).
    pub fn comm(mut self, comm: u32) -> Self {
        self.comm = comm;
        self
    }
}

/// A call submitted to the driver.
#[derive(Debug, Clone, Copy)]
pub struct DriverCall {
    /// What to execute.
    pub spec: CollSpec,
    /// Completion destination.
    pub reply_to: Endpoint,
    /// Ticket echoed in the reply.
    pub ticket: u64,
}

/// Driver completion, with the per-phase breakdown.
#[derive(Debug, Clone, Copy)]
pub struct DriverDone {
    /// Ticket from the call.
    pub ticket: u64,
    /// The call's outcome. On `Err` the destination buffers are undefined
    /// and no device→host staging was performed.
    pub result: Result<(), CclError>,
    /// Time spent staging inputs host→device (zero on unified platforms).
    pub stage_in: Dur,
    /// Invocation latency (PCIe write/read or ioctl path). With retries,
    /// the cumulative latency across attempts.
    pub invoke: Dur,
    /// CCLO execution time (command accepted to completion). With retries,
    /// the cumulative time across attempts (backoff waits excluded).
    pub collective: Dur,
    /// Time staging outputs device→host.
    pub stage_out: Dur,
    /// Total wall time of the call.
    pub total: Dur,
}

impl DriverDone {
    /// The completion of call `ticket` turned away with `err` before any
    /// phase ran.
    pub fn rejected(ticket: u64, err: CclError) -> DriverDone {
        DriverDone {
            ticket,
            result: Err(err),
            stage_in: Dur::ZERO,
            invoke: Dur::ZERO,
            collective: Dur::ZERO,
            stage_out: Dur::ZERO,
            total: Dur::ZERO,
        }
    }
}

/// Ports of the [`HostDriver`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Call submissions ([`super::DriverCall`]).
    pub const CALL: PortId = PortId(0);
    /// XDMA staging completions.
    pub const XDMA_DONE: PortId = PortId(1);
    /// CCLO completions.
    pub const CCLO_DONE: PortId = PortId(2);
    /// Internal sequencing.
    pub const STEP: PortId = PortId(3);
    /// Retry backoff expiry.
    pub const RETRY: PortId = PortId(4);
}

/// Phases of an active driver call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    StageIn { remaining: u32 },
    Invoke,
    Collective,
    StageOut { remaining: u32 },
}

struct Active {
    call: DriverCall,
    phase: Phase,
    started: Time,
    phase_started: Time,
    stage_in: Dur,
    invoke: Dur,
    collective: Dur,
    /// Completed attempts that timed out (0 while the first one runs).
    attempt: u32,
    /// Busy rejections bounced at engine admission so far for this call.
    busy_attempts: u32,
    /// Status of the last CCLO error completion (colors the final error).
    last_status: Option<CmdStatus>,
    /// The call's root `driver.coll` span.
    span: SpanId,
    /// The open phase span (`driver.stage_in` / `driver.invoke` / ...).
    phase_span: SpanId,
}

/// Which buffers a collective reads and writes on this rank.
///
/// Drives staging decisions: inputs are staged host→device before the call,
/// outputs device→host after.
pub fn buffer_roles(spec: &CollSpec, rank: u32) -> (Vec<BufferHandle>, Vec<BufferHandle>) {
    let is_root = rank == spec.root;
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    match spec.op {
        CollOp::Nop | CollOp::Barrier => {}
        CollOp::Send => inputs.extend(spec.src),
        CollOp::Recv => outputs.extend(spec.dst),
        CollOp::Bcast => {
            // Bcast operates on dst; the root provides it, everyone receives.
            if is_root {
                inputs.extend(spec.dst);
            } else {
                outputs.extend(spec.dst);
            }
        }
        CollOp::Reduce => {
            inputs.extend(spec.src);
            if is_root {
                outputs.extend(spec.dst);
            }
        }
        CollOp::Gather => {
            inputs.extend(spec.src);
            if is_root {
                outputs.extend(spec.dst);
            }
        }
        CollOp::Scatter => {
            if is_root {
                inputs.extend(spec.src);
            }
            outputs.extend(spec.dst);
        }
        CollOp::AllGather
        | CollOp::AllReduce
        | CollOp::ReduceScatter
        | CollOp::AllToAll
        | CollOp::Custom(_) => {
            inputs.extend(spec.src);
            outputs.extend(spec.dst);
        }
    }
    (inputs, outputs)
}

/// The host-side CCL driver component for one node.
pub struct HostDriver {
    rank: u32,
    /// This node's rank within each configured communicator.
    comm_ranks: std::collections::BTreeMap<u32, u32>,
    cclo_cmd: Endpoint,
    /// XDMA engine, present on partitioned-memory platforms.
    xdma: Option<ComponentId>,
    invocation_latency: Dur,
    retry: RetryPolicy,
    /// Backoff policy for engine-admission (Busy) rejections. Unlike
    /// timeout retries, busy retries are always safe — the command was
    /// never admitted — so rendezvous calls retry too.
    busy_retry: RetryPolicy,
    /// Per-driver random stream for busy-backoff jitter (decorrelates
    /// ranks hammering the same engine). `None` means no jitter.
    busy_rng: Option<rand::rngs::StdRng>,
    /// Actual backoffs applied to busy retries, in order (determinism
    /// golden tests compare this schedule across runs).
    busy_backoffs: Vec<Dur>,
    /// Driver-side admission bound: calls beyond this many queued are
    /// load-shed with [`CclError::Busy`] instead of queueing forever.
    max_queued_calls: Option<u32>,
    queue: VecDeque<DriverCall>,
    active: Option<Active>,
    next_cclo_ticket: u64,
    calls_completed: u64,
    calls_failed: u64,
    retries_attempted: u64,
    busy_retries: u64,
    calls_shed: u64,
}

impl HostDriver {
    /// Creates a driver submitting to `cclo_cmd` with the given costs.
    pub fn new(
        rank: u32,
        cclo_cmd: Endpoint,
        xdma: Option<ComponentId>,
        invocation_latency: Dur,
    ) -> Self {
        let mut comm_ranks = std::collections::BTreeMap::new();
        comm_ranks.insert(0, rank);
        HostDriver {
            rank,
            comm_ranks,
            cclo_cmd,
            xdma,
            invocation_latency,
            retry: RetryPolicy::none(),
            busy_retry: RetryPolicy {
                max_attempts: 8,
                backoff_base: Dur::from_us(2),
                backoff_max: Dur::from_us(200),
            },
            busy_rng: None,
            busy_backoffs: Vec::new(),
            max_queued_calls: None,
            queue: VecDeque::new(),
            active: None,
            next_cclo_ticket: 0,
            calls_completed: 0,
            calls_failed: 0,
            retries_attempted: 0,
            busy_retries: 0,
            calls_shed: 0,
        }
    }

    /// This node's world rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Calls completed so far (with either outcome).
    pub fn calls_completed(&self) -> u64 {
        self.calls_completed
    }

    /// Calls that completed with an error.
    pub fn calls_failed(&self) -> u64 {
        self.calls_failed
    }

    /// Collective attempts resubmitted under the retry policy.
    pub fn retries_attempted(&self) -> u64 {
        self.retries_attempted
    }

    /// Sets the retry policy for timed-out eager collectives.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.retry = policy;
    }

    /// Sets the busy-retry policy and the seeded jitter stream
    /// (conventionally `sim.fork_rng("nX.driver.busy")`). With the same
    /// simulator seed the backoff schedule is bit-identical run to run.
    pub fn set_busy_retry(&mut self, policy: RetryPolicy, rng: Option<rand::rngs::StdRng>) {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.busy_retry = policy;
        self.busy_rng = rng;
    }

    /// Bounds the driver's own submission queue; calls beyond the bound
    /// are load-shed immediately with [`CclError::Busy`].
    pub fn set_max_queued_calls(&mut self, cap: Option<u32>) {
        self.max_queued_calls = cap;
    }

    /// Busy rejections retried against the engine so far.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Calls load-shed at the driver's own admission bound.
    pub fn calls_shed(&self) -> u64 {
        self.calls_shed
    }

    /// The busy backoffs applied so far, in order. Deterministic for a
    /// given simulator seed; golden determinism tests compare it.
    pub fn busy_backoff_schedule(&self) -> &[Dur] {
        &self.busy_backoffs
    }

    /// Records this node's rank within communicator `comm` (driver-side
    /// mirror of the engine's communicator setup).
    pub fn set_comm_rank(&mut self, comm: u32, rank: u32) {
        self.comm_ranks.insert(comm, rank);
    }

    /// This node's rank within `comm`, if it is a member.
    fn comm_rank(&self, comm: u32) -> Option<u32> {
        self.comm_ranks.get(&comm).copied()
    }

    fn maybe_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.active.is_some() {
            return;
        }
        let Some(call) = self.queue.pop_front() else {
            return;
        };
        let now = ctx.now();
        // Calls against a communicator this node is not part of are
        // user errors; reject them with a typed error instead of taking
        // the whole simulation down.
        let Some(rank) = self.comm_rank(call.spec.comm) else {
            self.calls_completed += 1;
            self.calls_failed += 1;
            ctx.stats().add(&CALLS_REJECTED, 1);
            let err = CclError::InvalidCommunicator(call.spec.comm);
            ctx.send(
                call.reply_to,
                Dur::ZERO,
                DriverDone::rejected(call.ticket, err),
            );
            self.maybe_start(ctx);
            return;
        };
        let (inputs, _) = buffer_roles(&call.spec, rank);
        let to_stage: Vec<BufferHandle> = inputs
            .into_iter()
            .filter(BufferHandle::needs_staging)
            .collect();
        let n = to_stage.len() as u32;
        let mut span = SpanId::NONE;
        let mut phase_span = SpanId::NONE;
        if ctx.spans_enabled() {
            span = ctx.span_begin_attrs(
                "driver.coll",
                SpanId::NONE,
                &[
                    Attr {
                        key: "op",
                        value: AttrValue::Str(call.spec.op.name()),
                    },
                    Attr {
                        key: "rank",
                        value: AttrValue::U64(self.rank as u64),
                    },
                    Attr {
                        key: "ticket",
                        value: AttrValue::U64(call.ticket),
                    },
                ],
            );
            phase_span = ctx.span_begin("driver.stage_in", span);
        }
        self.active = Some(Active {
            call,
            phase: Phase::StageIn { remaining: n },
            started: now,
            phase_started: now,
            stage_in: Dur::ZERO,
            invoke: Dur::ZERO,
            collective: Dur::ZERO,
            attempt: 0,
            busy_attempts: 0,
            last_status: None,
            span,
            phase_span,
        });
        if n == 0 {
            self.enter_invoke(ctx);
            return;
        }
        let xdma = self.xdma.expect("staging required but no XDMA engine");
        for buf in to_stage {
            ctx.send(
                Endpoint::new(xdma, xdma_ports::COPY),
                Dur::ZERO,
                XdmaCopy {
                    dir: XdmaDir::HostToDevice,
                    host_addr: buf.addr,
                    dev_addr: buf.staging_addr.expect("unstaged host buffer"),
                    len: buf.len,
                    done_to: Endpoint::new(ctx.self_id(), ports::XDMA_DONE),
                    tag: 0,
                    span: phase_span,
                },
            );
        }
    }

    fn enter_invoke(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let active = self.active.as_mut().expect("no active call");
        active.stage_in = now.since(active.phase_started);
        active.phase = Phase::Invoke;
        active.phase_started = now;
        ctx.span_end(active.phase_span);
        active.phase_span = SpanId::NONE;
        if ctx.spans_enabled() {
            active.phase_span = ctx.span_begin("driver.invoke", active.span);
        }
        ctx.send_self(ports::STEP, self.invocation_latency, ());
    }

    fn submit_command(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let active = self.active.as_mut().expect("no active call");
        active.invoke += now.since(active.phase_started);
        active.phase = Phase::Collective;
        active.phase_started = now;
        ctx.span_end(active.phase_span);
        active.phase_span = SpanId::NONE;
        if ctx.spans_enabled() {
            active.phase_span = ctx.span_begin("driver.collective", active.span);
        }
        let coll_span = active.phase_span;
        let spec = active.call.spec;
        let ticket = self.next_cclo_ticket;
        self.next_cclo_ticket += 1;
        let cmd = CcloCommand {
            op: spec.op,
            count: spec.count,
            dtype: spec.dtype,
            root: spec.root,
            tag: spec.tag,
            comm: spec.comm,
            func: spec.func,
            src: spec.src.map_or(DataLoc::None, |b| b.data_loc()),
            dst: spec.dst.map_or(DataLoc::None, |b| b.data_loc()),
            sync: spec.sync,
            reply_to: Endpoint::new(ctx.self_id(), ports::CCLO_DONE),
            ticket,
            span: coll_span,
        };
        ctx.send(self.cclo_cmd, Dur::ZERO, cmd);
    }

    fn enter_stage_out(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let xdma = self.xdma;
        let active = self.active.as_mut().expect("no active call");
        active.collective += now.since(active.phase_started);
        active.phase_started = now;
        ctx.span_end(active.phase_span);
        active.phase_span = SpanId::NONE;
        if ctx.spans_enabled() {
            active.phase_span = ctx.span_begin("driver.stage_out", active.span);
        }
        let stage_span = active.phase_span;
        let rank = self
            .comm_ranks
            .get(&active.call.spec.comm)
            .copied()
            .expect("communicator vanished mid-call");
        let (_, outputs) = buffer_roles(&active.call.spec, rank);
        let to_stage: Vec<BufferHandle> = outputs
            .into_iter()
            .filter(BufferHandle::needs_staging)
            .collect();
        let n = to_stage.len() as u32;
        active.phase = Phase::StageOut { remaining: n };
        if n == 0 {
            self.finish(ctx);
            return;
        }
        let xdma = xdma.expect("staging required but no XDMA engine");
        for buf in to_stage {
            ctx.send(
                Endpoint::new(xdma, xdma_ports::COPY),
                Dur::ZERO,
                XdmaCopy {
                    dir: XdmaDir::DeviceToHost,
                    host_addr: buf.addr,
                    dev_addr: buf.staging_addr.expect("unstaged host buffer"),
                    len: buf.len,
                    done_to: Endpoint::new(ctx.self_id(), ports::XDMA_DONE),
                    tag: 1,
                    span: stage_span,
                },
            );
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let active = self.active.take().expect("no active call");
        self.calls_completed += 1;
        ctx.stats().add(&CALLS, 1);
        let total = now.since(active.started);
        ctx.stats().observe(&TOTAL_PS, total.as_ps());
        ctx.span_end(active.phase_span);
        ctx.span_end(active.span);
        let stage_out = now.since(active.phase_started);
        ctx.send(
            active.call.reply_to,
            Dur::ZERO,
            DriverDone {
                ticket: active.call.ticket,
                result: Ok(()),
                stage_in: active.stage_in,
                invoke: active.invoke,
                collective: active.collective,
                stage_out,
                total,
            },
        );
        self.maybe_start(ctx);
    }

    /// Handles a CCLO error completion: retry an eager call under the
    /// policy, otherwise fail the call. Rendezvous calls are never
    /// retried — their distributed handshake state cannot be resumed
    /// unilaterally.
    fn handle_cclo_error(&mut self, ctx: &mut Ctx<'_>, status: CmdStatus) {
        let now = ctx.now();
        let retry = self.retry;
        let active = self.active.as_mut().expect("CCLO error with no call");
        active.collective += now.since(active.phase_started);
        active.attempt += 1;
        active.last_status = Some(status);
        let retryable = active.call.spec.sync != SyncProto::Rendezvous;
        if retryable && active.attempt < retry.max_attempts {
            let backoff = retry.backoff(active.attempt - 1);
            active.phase = Phase::Invoke;
            ctx.span_end(active.phase_span);
            active.phase_span = SpanId::NONE;
            if ctx.spans_enabled() {
                ctx.span_instant("driver.retry", active.span);
            }
            self.retries_attempted += 1;
            ctx.stats().add(&RETRIES, 1);
            ctx.send_self(ports::RETRY, backoff, ());
            return;
        }
        let err = if active.attempt > 1 {
            CclError::Aborted
        } else if status == CmdStatus::ResourceExhausted {
            CclError::ResourceExhausted
        } else {
            CclError::Timeout
        };
        self.fail(ctx, err);
    }

    /// Handles an engine-admission rejection: back off (with seeded
    /// jitter) and resubmit, up to the busy-retry budget. The command was
    /// never admitted, so this is safe for every protocol.
    fn handle_busy(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let policy = self.busy_retry;
        let active = self.active.as_mut().expect("busy rejection with no call");
        active.collective += now.since(active.phase_started);
        active.busy_attempts += 1;
        active.last_status = Some(CmdStatus::Busy);
        if active.busy_attempts < policy.max_attempts {
            let mut backoff = policy.backoff(active.busy_attempts - 1);
            if let Some(rng) = &mut self.busy_rng {
                use rand::RngExt;
                let base = policy.backoff_base.as_ps().max(4);
                backoff += Dur::from_ps(rng.random_range(0..base / 4));
            }
            self.busy_backoffs.push(backoff);
            active.phase = Phase::Invoke;
            ctx.span_end(active.phase_span);
            active.phase_span = SpanId::NONE;
            if ctx.spans_enabled() {
                ctx.span_instant("driver.busy_retry", active.span);
            }
            self.busy_retries += 1;
            ctx.stats().add(&BUSY_RETRIES, 1);
            ctx.send_self(ports::RETRY, backoff, ());
            return;
        }
        self.fail(ctx, CclError::Busy);
    }

    /// Completes the active call with `err`, skipping output staging (the
    /// destination buffers hold no defined result).
    fn fail(&mut self, ctx: &mut Ctx<'_>, err: CclError) {
        let now = ctx.now();
        let active = self.active.take().expect("no active call");
        self.calls_completed += 1;
        self.calls_failed += 1;
        ctx.stats().add(&CALLS, 1);
        ctx.stats().add(&CALLS_FAILED, 1);
        ctx.span_end(active.phase_span);
        ctx.span_end(active.span);
        ctx.send(
            active.call.reply_to,
            Dur::ZERO,
            DriverDone {
                ticket: active.call.ticket,
                result: Err(err),
                stage_in: active.stage_in,
                invoke: active.invoke,
                collective: active.collective,
                stage_out: Dur::ZERO,
                total: now.since(active.started),
            },
        );
        self.maybe_start(ctx);
    }
}

impl Component for HostDriver {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::CALL => {
                let call = payload.downcast::<DriverCall>();
                let shed = self
                    .max_queued_calls
                    .is_some_and(|cap| self.queue.len() >= cap as usize);
                if shed {
                    // The driver's own queue is full: shed the call
                    // immediately instead of growing an unbounded backlog
                    // behind an overloaded engine.
                    self.calls_shed += 1;
                    self.calls_completed += 1;
                    self.calls_failed += 1;
                    ctx.stats().add(&CALLS_SHED, 1);
                    let done = DriverDone::rejected(call.ticket, CclError::Busy);
                    ctx.send(call.reply_to, Dur::ZERO, done);
                    return;
                }
                self.queue.push_back(call);
                self.maybe_start(ctx);
            }
            ports::STEP => {
                payload.downcast::<()>();
                debug_assert!(matches!(
                    self.active.as_ref().map(|a| a.phase),
                    Some(Phase::Invoke)
                ));
                self.submit_command(ctx);
            }
            ports::XDMA_DONE => {
                payload.downcast::<XdmaDone>();
                let active = self.active.as_mut().expect("XDMA done with no call");
                match &mut active.phase {
                    Phase::StageIn { remaining } => {
                        *remaining -= 1;
                        if *remaining == 0 {
                            self.enter_invoke(ctx);
                        }
                    }
                    Phase::StageOut { remaining } => {
                        *remaining -= 1;
                        if *remaining == 0 {
                            self.finish(ctx);
                        }
                    }
                    other => panic!("XDMA completion in phase {other:?}"),
                }
            }
            ports::CCLO_DONE => {
                let done = payload.downcast::<CcloDone>();
                match done.status {
                    CmdStatus::Ok => self.enter_stage_out(ctx),
                    CmdStatus::TimedOut | CmdStatus::ResourceExhausted => {
                        self.handle_cclo_error(ctx, done.status);
                    }
                    CmdStatus::Busy => self.handle_busy(ctx),
                }
            }
            ports::RETRY => {
                payload.downcast::<()>();
                // Backoff expired: charge the invocation path again and
                // resubmit the command with a fresh CCLO ticket.
                let active = self.active.as_mut().expect("retry with no call");
                debug_assert_eq!(active.phase, Phase::Invoke);
                active.phase_started = ctx.now();
                if ctx.spans_enabled() {
                    active.phase_span = ctx.span_begin("driver.invoke", active.span);
                }
                ctx.send_self(ports::STEP, self.invocation_latency, ());
            }
            other => panic!("driver has no port {other:?}"),
        }
    }

    fn resource_state(&self) -> Option<ResourceState> {
        let queued = self.queue.len() as u64;
        if queued == 0 && self.max_queued_calls.is_none() {
            return None;
        }
        Some(ResourceState::gauges_only(vec![ResourceGauge {
            name: format!("host.callq(n{})", self.rank),
            used: queued,
            capacity: self.max_queued_calls.map(u64::from),
        }]))
    }

    fn state_digest(&self) -> Option<u64> {
        // Call outcomes, retry/shed accounting, and the exact busy-backoff
        // schedule (already compared by the determinism golden tests).
        let mut h = 0u64;
        let mut fold = |v: u64| accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        for v in [
            self.calls_completed,
            self.calls_failed,
            self.retries_attempted,
            self.busy_retries,
            self.calls_shed,
            self.next_cclo_ticket,
            self.queue.len() as u64,
        ] {
            fold(v);
        }
        for d in &self.busy_backoffs {
            fold(d.as_ps());
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufLoc;

    fn buf(loc: BufLoc, unified: bool) -> BufferHandle {
        BufferHandle {
            node: 0,
            loc,
            addr: 0x1000,
            len: 256,
            unified,
            staging_addr: if unified { None } else { Some(0x8000) },
        }
    }

    #[test]
    fn roles_cover_all_collectives() {
        let src = buf(BufLoc::Host, true);
        let dst = buf(BufLoc::Host, true);
        let spec = |op| CollSpec::new(op, 64, DType::F32).src(src).dst(dst);
        // (op, rank) → (n_inputs, n_outputs)
        let cases = [
            (CollOp::Send, 1, (1, 0)),
            (CollOp::Recv, 1, (0, 1)),
            (CollOp::Bcast, 0, (1, 0)),
            (CollOp::Bcast, 2, (0, 1)),
            (CollOp::Reduce, 0, (1, 1)),
            (CollOp::Reduce, 2, (1, 0)),
            (CollOp::Gather, 0, (1, 1)),
            (CollOp::Scatter, 0, (1, 1)),
            (CollOp::Scatter, 2, (0, 1)),
            (CollOp::AllReduce, 2, (1, 1)),
            (CollOp::AllToAll, 2, (1, 1)),
            (CollOp::Barrier, 2, (0, 0)),
        ];
        for (op, rank, (ni, no)) in cases {
            let (i, o) = buffer_roles(&spec(op), rank);
            assert_eq!((i.len(), o.len()), (ni, no), "{op:?} rank {rank}");
        }
    }

    #[test]
    fn unified_buffers_never_stage() {
        let spec = CollSpec::new(CollOp::AllReduce, 64, DType::F32)
            .src(buf(BufLoc::Host, true))
            .dst(buf(BufLoc::Host, true));
        let (i, o) = buffer_roles(&spec, 1);
        assert!(i.iter().all(|b| !b.needs_staging()));
        assert!(o.iter().all(|b| !b.needs_staging()));
    }
}
