//! XDMA staging engine for partitioned-memory (Vitis/XRT) platforms.
//!
//! On Vitis platforms FPGA kernels cannot reach host memory; the XRT-driven
//! XDMA IP copies buffers between host DRAM and card memory. The ACCL+ CCL
//! driver *stages* host buffers through this engine before/after collectives
//! (§4.2), which is exactly the overhead that makes XRT H2H collectives slow
//! in Fig. 13. The engine composes the two memory targets of the node's
//! [`crate::bus::MemoryBus`]: a read stream from the source target feeds writes into the
//! destination target.

use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};
use std::collections::BTreeMap;

use crate::bus::{ports as bus_ports, MemAddr, MemChunk, MemDone, MemReadReq, MemWriteReq};
use crate::tlb::MemTarget;

/// Direction of a staging copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XdmaDir {
    /// Host DRAM → card memory (before a collective on host data).
    HostToDevice,
    /// Card memory → host DRAM (after a collective producing host data).
    DeviceToHost,
}

/// A staging copy request.
#[derive(Debug, Clone, Copy)]
pub struct XdmaCopy {
    /// Copy direction.
    pub dir: XdmaDir,
    /// Host-side physical address.
    pub host_addr: u64,
    /// Device-side physical address.
    pub dev_addr: u64,
    /// Bytes to copy.
    pub len: u64,
    /// Receiver of the [`XdmaDone`] completion.
    pub done_to: Endpoint,
    /// Caller-chosen tag echoed in the completion.
    pub tag: u64,
    /// Causal parent span of the requester ([`SpanId::NONE`] if untraced).
    pub span: SpanId,
}

/// Completion of a staging copy.
#[derive(Debug, Clone, Copy)]
pub struct XdmaDone {
    /// Tag of the completed copy.
    pub tag: u64,
    /// Bytes copied.
    pub len: u64,
}

/// Ports of the [`XdmaEngine`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Copy requests ([`super::XdmaCopy`]).
    pub const COPY: PortId = PortId(0);
    /// Read data returning from the memory bus (internal).
    pub const RD_DATA: PortId = PortId(1);
    /// Write completions returning from the memory bus (internal).
    pub const WR_DONE: PortId = PortId(2);
}

struct CopyState {
    req: XdmaCopy,
    written: u64,
    span: SpanId,
}

/// The XDMA staging engine component.
pub struct XdmaEngine {
    bus: ComponentId,
    /// Driver + descriptor setup cost charged per copy (XRT ioctl path).
    setup: Dur,
    inflight: BTreeMap<u64, CopyState>,
    next_tag: u64,
    bytes_copied: u64,
}

impl XdmaEngine {
    /// Creates an engine driving the given memory bus.
    ///
    /// `setup_us` is the per-copy software setup cost; XRT's buffer
    /// migration path costs tens of microseconds.
    pub fn new(bus: ComponentId, setup_us: u64) -> Self {
        XdmaEngine {
            bus,
            setup: Dur::from_us(setup_us),
            inflight: BTreeMap::new(),
            next_tag: 0,
            bytes_copied: 0,
        }
    }

    /// Total bytes staged so far.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    fn src_dst(req: &XdmaCopy) -> ((MemTarget, u64), (MemTarget, u64)) {
        match req.dir {
            XdmaDir::HostToDevice => (
                (MemTarget::Host, req.host_addr),
                (MemTarget::Device, req.dev_addr),
            ),
            XdmaDir::DeviceToHost => (
                (MemTarget::Device, req.dev_addr),
                (MemTarget::Host, req.host_addr),
            ),
        }
    }
}

impl Component for XdmaEngine {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::COPY => {
                let req = payload.downcast::<XdmaCopy>();
                assert!(req.len > 0, "zero-length XDMA copy");
                let tag = self.next_tag;
                self.next_tag += 1;
                let ((src_t, src_a), _) = Self::src_dst(&req);
                // The copy span opens at acceptance so the XRT setup cost is
                // attributed to the staging engine, not to the memory bus.
                let span = ctx.span_begin_attrs(
                    "mem.xdma.copy",
                    req.span,
                    &[
                        Attr {
                            key: "bytes",
                            value: AttrValue::U64(req.len),
                        },
                        Attr {
                            key: "dir",
                            value: AttrValue::Str(match req.dir {
                                XdmaDir::HostToDevice => "h2d",
                                XdmaDir::DeviceToHost => "d2h",
                            }),
                        },
                    ],
                );
                self.inflight.insert(
                    tag,
                    CopyState {
                        req,
                        written: 0,
                        span,
                    },
                );
                ctx.send(
                    Endpoint::new(self.bus, bus_ports::READ),
                    self.setup,
                    MemReadReq {
                        addr: MemAddr::Phys(src_t, src_a),
                        len: req.len,
                        data_to: Endpoint::new(ctx.self_id(), ports::RD_DATA),
                        done_to: None,
                        tag,
                        span,
                    },
                );
            }
            ports::RD_DATA => {
                let chunk = payload.downcast::<MemChunk>();
                let state = self
                    .inflight
                    .get(&chunk.tag)
                    .expect("XDMA chunk for unknown copy");
                let (_, (dst_t, dst_a)) = Self::src_dst(&state.req);
                let span = state.span;
                ctx.send(
                    Endpoint::new(self.bus, bus_ports::WRITE),
                    Dur::ZERO,
                    MemWriteReq {
                        addr: MemAddr::Phys(dst_t, dst_a + chunk.offset),
                        data: chunk.data,
                        done_to: Some(Endpoint::new(ctx.self_id(), ports::WR_DONE)),
                        tag: chunk.tag,
                        span,
                    },
                );
            }
            ports::WR_DONE => {
                let done = payload.downcast::<MemDone>();
                let state = self
                    .inflight
                    .get_mut(&done.tag)
                    .expect("XDMA write-done for unknown copy");
                state.written += done.len;
                debug_assert!(state.written <= state.req.len);
                if state.written == state.req.len {
                    let state = self.inflight.remove(&done.tag).unwrap();
                    self.bytes_copied += state.req.len;
                    ctx.stats().add("mem.xdma.bytes", state.req.len);
                    ctx.span_end(state.span);
                    ctx.send(
                        state.req.done_to,
                        Dur::ZERO,
                        XdmaDone {
                            tag: state.req.tag,
                            len: state.req.len,
                        },
                    );
                }
            }
            other => panic!("XDMA engine has no port {other:?}"),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = 0u64;
        for v in [self.bytes_copied, self.next_tag, self.inflight.len() as u64] {
            accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{MemBusConfig, MemoryBus};

    fn setup() -> (Simulator, ComponentId, ComponentId, ComponentId) {
        let mut sim = Simulator::new(0);
        let bus = sim.add("bus", MemoryBus::new(MemBusConfig::default()));
        let xdma = sim.add("xdma", XdmaEngine::new(bus, 30));
        let done = sim.add("done", Mailbox::<XdmaDone>::new());
        (sim, bus, xdma, done)
    }

    #[test]
    fn host_to_device_copies_bytes() {
        let (mut sim, bus, xdma, done) = setup();
        let data: Vec<u8> = (0..20_000).map(|i| (i % 97) as u8).collect();
        sim.component_mut::<MemoryBus>(bus)
            .host_write(0x1000, &data);
        sim.post(
            Endpoint::new(xdma, ports::COPY),
            Time::ZERO,
            XdmaCopy {
                dir: XdmaDir::HostToDevice,
                host_addr: 0x1000,
                dev_addr: 0x8_0000,
                len: data.len() as u64,
                done_to: Endpoint::of(done),
                tag: 42,
                span: SpanId::NONE,
            },
        );
        sim.run();
        let mb = sim.component::<Mailbox<XdmaDone>>(done);
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.items()[0].1.tag, 42);
        // Setup cost must be visible: >= 30 us even for a small copy.
        assert!(mb.items()[0].0.as_us_f64() >= 30.0);
        assert_eq!(
            sim.component::<MemoryBus>(bus)
                .device_read(0x8_0000, data.len()),
            data
        );
    }

    #[test]
    fn device_to_host_copies_bytes() {
        let (mut sim, bus, xdma, done) = setup();
        let data = vec![0xabu8; 5000];
        sim.component_mut::<MemoryBus>(bus)
            .device_write(0x40, &data);
        sim.post(
            Endpoint::new(xdma, ports::COPY),
            Time::ZERO,
            XdmaCopy {
                dir: XdmaDir::DeviceToHost,
                host_addr: 0x9000,
                dev_addr: 0x40,
                len: 5000,
                done_to: Endpoint::of(done),
                tag: 0,
                span: SpanId::NONE,
            },
        );
        sim.run();
        assert_eq!(
            sim.component::<MemoryBus>(bus).host_read(0x9000, 5000),
            data
        );
        assert_eq!(sim.component::<XdmaEngine>(xdma).bytes_copied(), 5000);
    }

    #[test]
    fn large_copy_is_pcie_bound() {
        let (mut sim, bus, xdma, done) = setup();
        let len = 16u64 << 20; // 16 MiB
        sim.component_mut::<MemoryBus>(bus).host_write(0, &[1u8; 1]);
        sim.post(
            Endpoint::new(xdma, ports::COPY),
            Time::ZERO,
            XdmaCopy {
                dir: XdmaDir::HostToDevice,
                host_addr: 0,
                dev_addr: 0,
                len,
                done_to: Endpoint::of(done),
                tag: 0,
                span: SpanId::NONE,
            },
        );
        sim.run();
        let t = sim.component::<Mailbox<XdmaDone>>(done).items()[0]
            .0
            .as_us_f64();
        // 16 MiB at 12.5 GB/s ≈ 1342 us (+ setup); must be within 10%.
        assert!((1300.0..1600.0).contains(&t), "t={t}us");
    }

    #[test]
    fn concurrent_copies_complete_independently() {
        let (mut sim, bus, xdma, done) = setup();
        sim.component_mut::<MemoryBus>(bus)
            .host_write(0, &[7u8; 100]);
        for tag in 0..3u64 {
            sim.post(
                Endpoint::new(xdma, ports::COPY),
                Time::ZERO,
                XdmaCopy {
                    dir: XdmaDir::HostToDevice,
                    host_addr: tag * 0x100,
                    dev_addr: tag * 0x100,
                    len: 100,
                    done_to: Endpoint::of(done),
                    tag,
                    span: SpanId::NONE,
                },
            );
        }
        sim.run();
        let mut tags: Vec<u64> = sim
            .component::<Mailbox<XdmaDone>>(done)
            .values()
            .map(|d| d.tag)
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1, 2]);
    }
}
