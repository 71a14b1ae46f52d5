//! # accl-cclo — the ACCL+ collective offload engine
//!
//! The paper's central artifact (§4.4): a collective engine decoupled into a
//! *flexible control plane* — an embedded micro-controller executing
//! swappable firmware — and a *parallel data plane* — a microcoded
//! data-movement processor, Rx buffer manager, Tx/Rx systems and streaming
//! plugins, all behind the POE-independent transport interface.
//!
//! Layout:
//! - [`msg`] — the lightweight message protocol (signatures, datatypes).
//! - [`command`] — the host/kernel-facing command interface.
//! - [`config`] — clocking, pools, communicators, Table-1 algorithm tuning.
//! - [`firmware`] — collective algorithms as swappable programs, plus an
//!   abstract interpreter for validating custom collectives.
//! - [`plugins`] — streaming reduction/compression operators.
//! - [`uc`], [`dmp`], [`rbm`], [`txsys`], [`rxsys`] — the engine blocks.
//! - [`engine`] — per-node assembly and wiring.

#![warn(missing_docs)]

pub mod command;
pub mod config;
pub mod dmp;
pub mod engine;
pub mod firmware;
pub mod msg;
pub mod plugins;
pub mod rbm;
pub mod rxsys;
pub mod txsys;
pub mod uc;

pub use command::{CcloCommand, CcloDone, CmdStatus, CollOp, DataLoc, SyncProto};
pub use config::{
    AdaptiveWatchdogCfg, AlgoConfig, Algorithm, CcloConfig, CommunicatorCfg, LegacyUcConfig,
};
pub use engine::{CcloEngine, CcloEngineSpec};
pub use firmware::{CollectiveProgram, FirmwareTable};
pub use msg::{DType, MsgSignature, MsgType, ReduceFn};
pub use rbm::RbmPurge;
