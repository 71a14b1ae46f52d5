//! # accl-dlrm — distributed deep-learning recommendation inference (§6)
//!
//! The paper's flagship use case: an industrial-scale DLRM (Table 2)
//! distributed over 10 simulated FPGAs with ACCL+ streaming collectives.
//!
//! - [`model`] — Table 2 configuration, synthetic parameters, reference
//!   inference and the checkerboard decomposition (verified equal).
//! - [`pipeline`] — the Fig. 15 pipeline on the simulated cluster, moving
//!   real fixed-point intermediates and measuring latency/throughput.
//! - [`cpu`] — the TF-Serving CPU baseline cost model of Fig. 17.

#![warn(missing_docs)]

pub mod cpu;
pub mod model;
pub mod pipeline;

pub use cpu::CpuDlrmModel;
pub use model::{DlrmConfig, DlrmModel, PipelineTrace};
pub use pipeline::{
    run_pipeline, run_pipeline_observed, DlrmTiming, NodeSplit, PipelineObserve, PipelineResult,
    UcSplit,
};
