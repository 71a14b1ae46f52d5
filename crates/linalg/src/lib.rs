//! # accl-linalg — dense kernels and CPU cost models
//!
//! The numeric substrate of both use cases in §6: f32 GEMV with
//! column/row/checkerboard partitioning (the distributed FC layer on CPUs)
//! and Q16.16 fixed-point kernels (the DLRM datapath on FPGAs), plus the
//! cache-tier CPU cost model that produces Fig. 16's super-linear scaling.

#![warn(missing_docs)]

pub mod cost;
pub mod dense;
#[cfg(target_arch = "x86_64")]
mod split16;

pub use cost::CpuModel;
pub use dense::{block_ranges, fx, vec_add, MatF32};
