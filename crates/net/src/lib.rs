//! # accl-net — packet-level network substrate
//!
//! Models the evaluation cluster's switched 100 Gb/s fabric: per-node
//! network ports that serialize frames at line rate, a store-and-forward
//! output-queued switch, and deterministic fault injection (drops,
//! reordering) for exercising the reliable protocol engines.
//!
//! Frames carry *typed* protocol PDUs; the network only looks at addresses
//! and sizes. Timing captures serialization, propagation, forwarding
//! latency, and — critically for collective algorithm selection — egress
//! queueing (in-cast).

#![warn(missing_docs)]

pub mod fault;
pub mod frame;
pub mod switch;
pub mod topology;

pub use fault::{
    ChaosProfile, Degradation, FaultAction, FaultEvent, FaultPlan, FaultPlanGen, LinkSchedule,
    Partition,
};
pub use frame::{CreditReturn, Frame, NodeAddr, DEFAULT_MTU, WIRE_OVERHEAD_BYTES};
pub use switch::{NetPort, OverloadPolicy, PauseFrame, PortCounters, RxSelector, Switch};
pub use topology::{NetConfig, Network};
