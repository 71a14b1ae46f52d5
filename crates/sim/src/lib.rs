//! # accl-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the ACCL+ reproduction: a small, strictly deterministic
//! discrete-event simulator on which the network, memory, protocol-offload
//! and CCLO substrates are built.
//!
//! Key concepts:
//!
//! - [`time::Time`] / [`time::Dur`] — virtual time in integer picoseconds.
//! - [`sim::Component`] — an event-driven FSM; every simulated hardware block
//!   or software agent implements this trait.
//! - [`sim::Simulator`] — the event loop; events execute in `(time, seq)`
//!   order, making runs bit-for-bit reproducible for a given seed.
//! - [`sim::Ctx::arm_timer`] — kernel-owned timer slots: a re-armed or
//!   cancelled timer's old deadline is never delivered.
//! - [`pipe::Pipe`] — the shared timing model for bandwidth-limited FIFO
//!   resources (links, DMA channels, datapaths).
//! - [`mailbox::Mailbox`] — harness-side collector for observing results.
//!
//! # Examples
//!
//! ```
//! use accl_sim::prelude::*;
//!
//! struct Echo { to: Endpoint }
//! impl Component for Echo {
//!     fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
//!         let n = payload.downcast::<u32>();
//!         ctx.send(self.to, Dur::from_ns(5), n * 2);
//!     }
//! }
//!
//! let mut sim = Simulator::new(0);
//! let sink = sim.add("sink", Mailbox::<u32>::new());
//! let echo = sim.add("echo", Echo { to: Endpoint::of(sink) });
//! sim.post(Endpoint::of(echo), Time::ZERO, 21u32);
//! sim.run();
//! assert_eq!(sim.component::<Mailbox<u32>>(sink).items()[0].1, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod detector;
pub mod digest;
pub mod event;
pub mod json;
pub mod mailbox;
pub mod pipe;
mod queue;
pub mod race;
pub mod sim;
pub mod stats;
pub mod time;
mod timer;
pub mod trace;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::deadlock::{DeadlockKind, DeadlockReport, ResourceGauge, ResourceState};
    pub use crate::detector::{DetectLevel, DetectorCfg, FailureDetector, GapHistory};
    pub use crate::event::{ComponentId, Endpoint, Payload, PortId};
    pub use crate::mailbox::Mailbox;
    pub use crate::pipe::{Latency, Pipe};
    pub use crate::sim::{
        Component, Ctx, ParkedWork, RunOutcome, RunSummary, Simulator, StallReport,
    };
    pub use crate::stats::{Histogram, Metric, Stats, WindowSnapshot};
    pub use crate::time::{Dur, Time};
    pub use crate::trace::{Attr, AttrValue, FlowId, SpanEvent, SpanId};
}
