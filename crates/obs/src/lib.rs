//! Trace analytics for the ACCL+ simulator (`accl-obs`).
//!
//! Consumes the causal span stream recorded by `accl-sim`'s `trace`
//! feature and turns it into three analyses the paper's evaluation leans
//! on but raw timelines do not give directly:
//!
//!  - **Causal critical path** ([`critpath`]): the span DAG — parent
//!    links plus the explicit Tx→Rx flow edges POEs emit at every wire
//!    handoff and the RBM's edges from each matched message to the
//!    arrival that completed it — is walked backward from a collective's
//!    end to produce the exact chain of spans that determined its
//!    latency, and an integer-exact attribution table whose rows sum to
//!    the end-to-end time (the critical-path analogue of Fig. 9's
//!    breakdown).
//!  - **Run-to-run diff** ([`diff`]): two runs are aligned by the
//!    deterministic content-derived span ids and compared per
//!    `(component kind, span type, rank)`, so a regression report reads
//!    "RBM meta wait on rank 3 grew 41 µs" rather than "the run got
//!    slower". CI gates on the diff of critical-path attributions.
//!  - **Windowed SLO series** ([`slo`]): the simulator's fixed-width
//!    metric windows (integer-only, deterministic)
//!    rendered as p50/p99/p999-over-sim-time, with a derived per-window
//!    availability column (`availability_milli`).
//!  - **MTTR / recovery attribution** ([`mttr`]): for self-healing runs
//!    (the `rejoin` reference workload), the recovery milestones —
//!    suspect, confirm, survivor reissue, full-strength rejoin — pinned
//!    to span timestamps, with per-phase deltas and whole-run
//!    availability.
//!
//! Everything is integer picoseconds end to end: parsing, analysis and
//! serialization never touch floats, so every artifact — including the
//! critical-path digest CI pins — is bit-identical across hosts and
//! event-queue kinds.
//!
//! The [`capture`] module runs the reference workloads (8-rank allreduce,
//! the DLRM inference pipeline) with tracing on and snapshots them into
//! the self-contained [`model::TraceDoc`] interchange form
//! (`accl-obs-trace-v1` JSON, hand-rolled — no serde dependency), which
//! the `accl-obs` binary reads back for offline analysis.

pub mod capture;
pub mod critpath;
pub mod diff;
pub mod graph;
pub mod json;
pub mod model;
pub mod mttr;
pub mod slo;

pub use capture::{capture, CaptureConfig, Workload};
pub use critpath::{
    attribute, critical_path, critical_path_digest, Attribution, AttributionRow, CriticalPath,
    Segment,
};
pub use diff::{diff_attributions, DiffReport, DiffRow};
pub use graph::SpanGraph;
pub use model::{HistSummary, ObsEvent, ObsKind, TraceDoc, WindowRow, WindowSeries};
pub use mttr::{analyze as recovery_timeline, AvailabilitySummary, RecoveryTimeline};
