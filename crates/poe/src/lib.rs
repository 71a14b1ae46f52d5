//! # accl-poe — protocol offload engines
//!
//! The three 100 Gb/s hardware network stacks ACCL+ supports (paper §4.3),
//! rebuilt as packet-level simulation components behind one POE-independent
//! meta/data streaming interface:
//!
//! - [`udp::UdpPoe`] — connectionless, unreliable datagrams (VNx-style).
//! - [`tcp::TcpPoe`] — reliable byte streams with sliding windows,
//!   out-of-order reassembly and retransmission, up to 1000 sessions.
//! - [`rdma::RdmaPoe`] — queue pairs with two-sided SEND, one-sided WRITE
//!   into virtualized memory (bypassing the CCLO on the passive side) and
//!   token-based flow control.
//!
//! The shared interface lives in [`iface`], with [`iface::PoeIo`], the one
//! I/O edge (credit gate, FCS check, epoch fence, span/flow stamping,
//! completions) each engine owns, so engines hold only protocol state. The
//! CCLO engine (`accl-cclo`) drives any engine through it without protocol
//! logic.

#![warn(missing_docs)]

pub mod iface;
pub mod rdma;
pub mod tcp;
pub mod udp;

pub use iface::{
    ports, CompletionLog, EpochFence, PoeRxMeta, PoeSessionError, PoeTxCmd, PoeTxDone, PoeUpward,
    RxChunk, RxDemux, SessionErrorKind, SessionId, SessionTable, StreamChunk, TxAssembler, TxKind,
    TxSegment,
};
pub use rdma::{RdmaConfig, RdmaPdu, RdmaPoe};
pub use tcp::{TcpConfig, TcpPoe, TcpSegment};
pub use udp::{UdpConfig, UdpDgram, UdpPoe};
