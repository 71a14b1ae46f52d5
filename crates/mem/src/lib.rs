//! # accl-mem — per-node memory substrate
//!
//! Models the two memory organizations the paper targets:
//!
//! - **Partitioned memory (Vitis/XRT)**: host DRAM and card memory are
//!   separate; FPGA kernels reach only card memory, and host buffers must be
//!   *staged* through the [`xdma::XdmaEngine`].
//! - **Shared virtual memory (Coyote)**: a [`tlb::Tlb`]-fronted
//!   [`bus::MemoryBus`] lets FPGA-side masters address host and device pages
//!   uniformly through virtual addresses, with eager driver mapping avoiding
//!   page faults.
//!
//! All memories hold real bytes ([`store::MemStore`]) so collectives and the
//! DLRM use case are verified end-to-end, not just timed.

#![warn(missing_docs)]

pub mod bus;
pub mod space;
pub mod store;
pub mod tlb;
pub mod xdma;

pub use bus::{MemAddr, MemBusConfig, MemChunk, MemDone, MemReadReq, MemWriteReq, MemoryBus};
pub use space::{AddrSpace, Region};
pub use store::MemStore;
pub use tlb::{MemTarget, Tlb, TlbConfig, PAGE_SIZE};
pub use xdma::{XdmaCopy, XdmaDir, XdmaDone, XdmaEngine};
