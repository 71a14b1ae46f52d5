//! # accl-chaos — deterministic chaos harness
//!
//! Randomized fault-injection testing for the simulated ACCL+ cluster,
//! built on three properties the rest of the workspace already provides:
//!
//! 1. **Seeded fault schedules.** [`accl_net::FaultPlanGen`] samples a
//!    fully *explicit* [`accl_net::FaultPlan`] (per-frame drop / corrupt /
//!    duplicate / delay events, link flaps, degradation windows) as a pure
//!    function of `(profile, seed)`.
//! 2. **Deterministic replay.** The simulator is bit-replayable: the same
//!    `(workload, plan)` pair produces the same event count, the same
//!    payload bytes, and the same typed errors, every time, under either
//!    event-queue implementation.
//! 3. **Typed failure surfaces.** A collective either completes, or fails
//!    with a [`accl_core::CclError`]; a wedged simulation is reported by
//!    [`accl_core::AcclCluster::try_run_host_programs`] instead of
//!    panicking.
//!
//! On top of these, [`sweep::run_sweep`] drives an invariant-checked
//! workload ([`workload::run`]) across N seeds. When a seed violates an
//! invariant, the failing schedule is decomposed into
//! [`accl_net::FaultEvent`]s and [`shrink::ddmin`] delta-debugs it down to
//! a minimal still-failing subset, which [`repro::Repro`] serializes as a
//! small JSON file: the exact seed, the workload, and the (typically one
//! or two) fault events needed to reproduce the bug.
//!
//! The `chaos_sweep` binary wraps the sweep for CI: nightly jobs run
//! hundreds of seeds and upload the shrunk repro as an artifact on
//! failure; the checked-in repro under `tests/data/` pins the harness's
//! own detection power as a tier-1 regression.

#![warn(missing_docs)]

pub mod repro;
pub mod shrink;
pub mod sweep;
pub mod workload;

pub use repro::Repro;
pub use shrink::ddmin;
pub use sweep::{run_sweep, SweepConfig, SweepFailure, SweepStats};
pub use workload::{CollKind, RunReport, Violation, WorkloadSpec};
