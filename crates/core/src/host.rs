//! Host application processes: MPI-like programs on simulated CPUs.
//!
//! A [`HostProc`] executes a sequence of [`HostOp`]s — collective calls
//! through the CCL driver, interleaved with modelled compute — the way an
//! MPI rank alternates computation and communication. Op completion times
//! are recorded for the benchmark harnesses.

use std::collections::VecDeque;

use accl_sim::prelude::*;

use crate::driver::{CollSpec, DriverCall, DriverDone};
use crate::error::CclError;

/// One step of a host program.
#[derive(Debug, Clone)]
pub enum HostOp {
    /// Invoke a collective through the CCL driver and wait for completion
    /// (the `sync` flag of Listing 1).
    Coll(CollSpec),
    /// Busy the CPU for a fixed duration (modelled computation).
    Compute(Dur),
}

/// Record of one completed op.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Index within the program.
    pub index: usize,
    /// When the op started.
    pub started: Time,
    /// When it completed.
    pub finished: Time,
    /// For collectives, and for any op its node's crash cut short: the
    /// driver's phase breakdown.
    pub breakdown: Option<DriverDone>,
}

impl OpRecord {
    /// The op's outcome: compute ops succeed unless a crash cut them
    /// short, collectives report the driver's result.
    pub fn result(&self) -> Result<(), CclError> {
        self.breakdown.map_or(Ok(()), |b| b.result)
    }
}

/// Ports of the [`HostProc`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Program start trigger.
    pub const START: PortId = PortId(0);
    /// Driver completions.
    pub const DRIVER_DONE: PortId = PortId(1);
    /// Compute-delay expiry.
    pub const TIMER: PortId = PortId(2);
}

/// A simulated host process bound to one node's CCL driver.
pub struct HostProc {
    driver: Endpoint,
    ops: VecDeque<HostOp>,
    records: Vec<OpRecord>,
    index: usize,
    op_started: Time,
    running: bool,
    finished_at: Option<Time>,
}

impl HostProc {
    /// Creates a process that will run `ops` against `driver` when started.
    pub fn new(driver: Endpoint, ops: Vec<HostOp>) -> Self {
        HostProc {
            driver,
            ops: ops.into(),
            records: Vec::new(),
            index: 0,
            op_started: Time::ZERO,
            running: false,
            finished_at: None,
        }
    }

    /// Per-op completion records (after the run).
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// The records of a program its node's crash stopped at `at`: the ops
    /// it completed, then every other op failed with [`CclError::Crashed`].
    pub fn crashed_records(&self, at: Time) -> Vec<OpRecord> {
        let crashed = |index: usize| OpRecord {
            index,
            started: at,
            finished: at,
            breakdown: Some(DriverDone::rejected(index as u64, CclError::Crashed)),
        };
        let mut records = self.records.clone();
        records.extend((self.index..self.index + self.ops.len()).map(crashed));
        records
    }

    /// When the program finished, if it did.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    fn next_op(&mut self, ctx: &mut Ctx<'_>) {
        self.op_started = ctx.now();
        let Some(op) = self.ops.front().cloned() else {
            self.running = false;
            self.finished_at = Some(ctx.now());
            return;
        };
        match op {
            HostOp::Coll(spec) => {
                ctx.send(
                    self.driver,
                    Dur::ZERO,
                    DriverCall {
                        spec,
                        reply_to: Endpoint::new(ctx.self_id(), ports::DRIVER_DONE),
                        ticket: self.index as u64,
                    },
                );
            }
            HostOp::Compute(d) => {
                ctx.send_self(ports::TIMER, d, ());
            }
        }
    }

    fn complete_op(&mut self, ctx: &mut Ctx<'_>, breakdown: Option<DriverDone>) {
        self.ops.pop_front();
        self.records.push(OpRecord {
            index: self.index,
            started: self.op_started,
            finished: ctx.now(),
            breakdown,
        });
        self.index += 1;
        self.next_op(ctx);
    }
}

impl Component for HostProc {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::START => {
                payload.downcast::<()>();
                assert!(!self.running, "host program started twice");
                self.running = true;
                self.next_op(ctx);
            }
            ports::DRIVER_DONE => {
                let done = payload.downcast::<DriverDone>();
                self.complete_op(ctx, Some(done));
            }
            ports::TIMER => {
                payload.downcast::<()>();
                self.complete_op(ctx, None);
            }
            other => panic!("host process has no port {other:?}"),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        // Program position plus each completed op's start/finish instants
        // (the records are in program order, which is deterministic).
        let mut h = 0u64;
        let mut fold = |v: u64| accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        fold(self.index as u64);
        fold(u64::from(self.running));
        fold(self.finished_at.map_or(0, |t| t.as_ps()));
        for r in &self.records {
            fold(r.started.as_ps());
            fold(r.finished.as_ps());
        }
        Some(h)
    }
}

/// Fluent builder for host programs, mirroring the MPI-like API surface.
///
/// # Examples
///
/// ```
/// use accl_core::host::Program;
/// use accl_core::driver::CollSpec;
/// use accl_cclo::{CollOp, DType};
/// use accl_sim::time::Dur;
///
/// let prog = Program::new()
///     .compute(Dur::from_us(10))
///     .coll(CollSpec::new(CollOp::Barrier, 0, DType::U8))
///     .build();
/// assert_eq!(prog.len(), 2);
/// ```
#[derive(Default)]
pub struct Program {
    ops: Vec<HostOp>,
}

impl Program {
    /// Starts an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a collective call.
    pub fn coll(mut self, spec: CollSpec) -> Self {
        self.ops.push(HostOp::Coll(spec));
        self
    }

    /// Appends modelled computation.
    pub fn compute(mut self, d: Dur) -> Self {
        self.ops.push(HostOp::Compute(d));
        self
    }

    /// Finalizes into the op list.
    pub fn build(self) -> Vec<HostOp> {
        self.ops
    }
}
