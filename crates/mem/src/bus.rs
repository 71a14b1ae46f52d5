//! The per-node memory bus: host DRAM over PCIe + card memory (HBM).
//!
//! One `MemoryBus` component per node serves read/write requests from DMA
//! masters (the CCLO's data movers, protocol engines needing retransmission
//! buffers, XDMA staging copies). Timing distinguishes the two targets:
//! card HBM is reached at hundreds of GB/s with ~100 ns latency, host DRAM
//! crosses PCIe at ~12.5 GB/s effective with ~700 ns latency — the asymmetry
//! at the heart of the paper's partitioned-vs-unified memory comparisons.
//!
//! When configured with a [`Tlb`], the bus accepts *virtual* addresses and
//! resolves their physical location per request, modelling Coyote's
//! shared-virtual-memory shell; without one it accepts only physical
//! `(target, addr)` pairs, modelling the Vitis partitioned-memory model.

use bytes::Bytes;

use accl_sim::prelude::*;
use accl_sim::trace::{Attr, AttrValue, SpanId};
use serde::{Deserialize, Serialize};

use crate::store::MemStore;
use crate::tlb::{MemTarget, Tlb, TlbConfig, PAGE_SIZE};

static TLB_HITS: Metric = Metric::counter("mem.tlb.hits");
static TLB_MISSES: Metric = Metric::counter("mem.tlb.misses");
static TLB_FAULTS: Metric = Metric::counter("mem.tlb.faults");

/// An address understood by the memory bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAddr {
    /// Virtual address; requires the bus to have a TLB (Coyote mode).
    Virt(u64),
    /// Physical address within an explicit target (Vitis mode, or shell
    /// internals that already translated).
    Phys(MemTarget, u64),
}

impl MemAddr {
    /// The raw address value regardless of kind.
    pub fn raw(self) -> u64 {
        match self {
            MemAddr::Virt(a) | MemAddr::Phys(_, a) => a,
        }
    }

    /// Shifts the address by `off` bytes.
    pub fn offset(self, off: u64) -> MemAddr {
        match self {
            MemAddr::Virt(a) => MemAddr::Virt(a + off),
            MemAddr::Phys(t, a) => MemAddr::Phys(t, a + off),
        }
    }
}

/// Read request: stream `len` bytes from `addr` to `data_to` in chunks.
#[derive(Debug)]
pub struct MemReadReq {
    /// Source address.
    pub addr: MemAddr,
    /// Bytes to read.
    pub len: u64,
    /// Destination for [`MemChunk`] events.
    pub data_to: Endpoint,
    /// Optional destination for the final [`MemDone`].
    pub done_to: Option<Endpoint>,
    /// Caller-chosen tag echoed in chunks and completion.
    pub tag: u64,
    /// Causal parent span of the requester ([`SpanId::NONE`] if untraced).
    pub span: SpanId,
}

/// Write request: store `data` at `addr`.
#[derive(Debug)]
pub struct MemWriteReq {
    /// Destination address.
    pub addr: MemAddr,
    /// The bytes to write.
    pub data: Bytes,
    /// Optional destination for the [`MemDone`].
    pub done_to: Option<Endpoint>,
    /// Caller-chosen tag echoed in the completion.
    pub tag: u64,
    /// Causal parent span of the requester ([`SpanId::NONE`] if untraced).
    pub span: SpanId,
}

/// A slice of read data in flight to a DMA master.
#[derive(Debug, Clone)]
pub struct MemChunk {
    /// Tag of the originating request.
    pub tag: u64,
    /// Offset of this chunk within the request.
    pub offset: u64,
    /// The chunk's bytes.
    pub data: Bytes,
    /// Whether this is the final chunk of the request.
    pub last: bool,
}

/// Completion notification for a read or write request.
#[derive(Debug, Clone, Copy)]
pub struct MemDone {
    /// Tag of the completed request.
    pub tag: u64,
    /// Bytes moved.
    pub len: u64,
}

/// Timing and translation configuration of a node's memory system.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MemBusConfig {
    /// Effective PCIe bandwidth to host memory, Gb/s (Gen3 x16 ≈ 100).
    pub pcie_gbps: f64,
    /// PCIe round-trip latency per DMA transfer, ns.
    pub pcie_latency_ns: u64,
    /// Aggregate card-memory (HBM) bandwidth, Gb/s (U55C ≈ 3680).
    pub hbm_gbps: f64,
    /// Card-memory access latency, ns.
    pub hbm_latency_ns: u64,
    /// Chunk size for streamed read data, bytes.
    pub chunk_bytes: u32,
    /// Translation model; `Some` = Coyote shared virtual memory.
    pub tlb: Option<TlbConfig>,
}

impl Default for MemBusConfig {
    fn default() -> Self {
        MemBusConfig {
            pcie_gbps: 100.0,
            pcie_latency_ns: 700,
            hbm_gbps: 3680.0,
            hbm_latency_ns: 120,
            chunk_bytes: 4096,
            tlb: None,
        }
    }
}

impl MemBusConfig {
    /// Coyote-style configuration: same fabric, plus a TLB.
    pub fn coyote() -> Self {
        MemBusConfig {
            tlb: Some(TlbConfig::default()),
            ..Self::default()
        }
    }
}

/// Ports of the [`MemoryBus`] component.
pub mod ports {
    use accl_sim::event::PortId;

    /// Read requests ([`super::MemReadReq`]).
    pub const READ: PortId = PortId(0);
    /// Write requests ([`super::MemWriteReq`]).
    pub const WRITE: PortId = PortId(1);
}

/// The per-node memory system component.
pub struct MemoryBus {
    cfg: MemBusConfig,
    host: MemStore,
    device: MemStore,
    // PCIe and HBM are full duplex: independent read and write pipes.
    pcie_rd: Pipe,
    pcie_wr: Pipe,
    hbm_rd: Pipe,
    hbm_wr: Pipe,
    tlb: Option<Tlb>,
    bytes_read: u64,
    bytes_written: u64,
}

impl MemoryBus {
    /// Creates a memory bus with the given configuration.
    pub fn new(cfg: MemBusConfig) -> Self {
        MemoryBus {
            host: MemStore::new(),
            device: MemStore::new(),
            pcie_rd: Pipe::gbps(cfg.pcie_gbps),
            pcie_wr: Pipe::gbps(cfg.pcie_gbps),
            hbm_rd: Pipe::gbps(cfg.hbm_gbps),
            hbm_wr: Pipe::gbps(cfg.hbm_gbps),
            tlb: cfg.tlb.map(Tlb::new),
            bytes_read: 0,
            bytes_written: 0,
            cfg,
        }
    }

    /// Zero-time access to host memory (setup/verification only).
    pub fn host_write(&mut self, addr: u64, data: &[u8]) {
        self.host.write(addr, data);
    }

    /// Zero-time read of host memory (setup/verification only).
    pub fn host_read(&self, addr: u64, len: usize) -> Vec<u8> {
        self.host.read(addr, len)
    }

    /// Zero-time access to device memory (setup/verification only).
    pub fn device_write(&mut self, addr: u64, data: &[u8]) {
        self.device.write(addr, data);
    }

    /// Zero-time read of device memory (setup/verification only).
    pub fn device_read(&self, addr: u64, len: usize) -> Vec<u8> {
        self.device.read(addr, len)
    }

    /// Maps `[addr, addr+len)` to `target` in the TLB (driver eager mapping).
    ///
    /// # Panics
    ///
    /// Panics if the bus has no TLB (partitioned-memory platform).
    pub fn map_range(&mut self, addr: u64, len: u64, target: MemTarget) {
        self.tlb
            .as_mut()
            .expect("map_range on a bus without a TLB")
            .map_range(addr, len, target);
    }

    /// TLB counters `(hits, misses, faults)`, if a TLB is configured.
    pub fn tlb_counters(&self) -> Option<(u64, u64, u64)> {
        self.tlb.as_ref().map(Tlb::counters)
    }

    /// Pages mapped in the TLB, if a TLB is configured.
    pub fn tlb_mapped_pages(&self) -> Option<usize> {
        self.tlb.as_ref().map(Tlb::mapped_pages)
    }

    /// Total bytes served to readers.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes accepted from writers.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Resolves an address to `(target, physical address, penalty)`.
    ///
    /// Virtual requests consult the TLB once per request (translations are
    /// page-granular in hardware but pipelined; serializing a per-page
    /// penalty would overcharge large DMAs). If any page of the range is
    /// unmapped the request takes one page-fault penalty and the fault
    /// handler maps the whole range — matching Coyote, where one interrupt
    /// services the faulting descriptor.
    fn resolve(&mut self, addr: MemAddr, len: u64) -> (MemTarget, u64, Dur) {
        match addr {
            MemAddr::Phys(t, a) => (t, a, Dur::ZERO),
            MemAddr::Virt(a) => {
                let tlb = self
                    .tlb
                    .as_mut()
                    .expect("virtual address on a bus without a TLB");
                let first = tlb.translate(a);
                let mut penalty = first.penalty;
                // Touch the remaining pages so fault accounting is honest for
                // ranges that straddle an unmapped tail.
                let mut page = (a / PAGE_SIZE + 1) * PAGE_SIZE;
                while page < a + len {
                    let t = tlb.translate(page);
                    if t.faulted {
                        penalty = penalty.max(t.penalty);
                    }
                    page += PAGE_SIZE;
                }
                (first.target, a, penalty)
            }
        }
    }

    fn pipe(&mut self, target: MemTarget, write: bool) -> (&mut Pipe, Dur) {
        match (target, write) {
            (MemTarget::Host, false) => (&mut self.pcie_rd, Dur::from_ns(self.cfg.pcie_latency_ns)),
            (MemTarget::Host, true) => (&mut self.pcie_wr, Dur::from_ns(self.cfg.pcie_latency_ns)),
            (MemTarget::Device, false) => (&mut self.hbm_rd, Dur::from_ns(self.cfg.hbm_latency_ns)),
            (MemTarget::Device, true) => (&mut self.hbm_wr, Dur::from_ns(self.cfg.hbm_latency_ns)),
        }
    }

    /// Records the nonzero TLB counter deltas since `before` into the
    /// stats registry, so hit rates aggregate across requests and nodes.
    /// A counter no request moved stays unwritten (it reads as zero).
    fn record_tlb_delta(&self, ctx: &mut Ctx<'_>, before: Option<(u64, u64, u64)>) {
        if let (Some((h0, m0, f0)), Some((h1, m1, f1))) = (before, self.tlb_counters()) {
            for (m, delta) in [
                (&TLB_HITS, h1 - h0),
                (&TLB_MISSES, m1 - m0),
                (&TLB_FAULTS, f1 - f0),
            ] {
                if delta > 0 {
                    ctx.stats().add(m, delta);
                }
            }
        }
    }
}

static PCIE_BYTES: Metric = Metric::counter("mem.pcie.bytes");
static HBM_BYTES: Metric = Metric::counter("mem.hbm.bytes");

/// Stat and span name for a bus leg: `(byte counter, span name)`.
fn leg_names(target: MemTarget, write: bool) -> (&'static Metric, &'static str) {
    match (target, write) {
        (MemTarget::Host, false) => (&PCIE_BYTES, "mem.pcie.read"),
        (MemTarget::Host, true) => (&PCIE_BYTES, "mem.pcie.write"),
        (MemTarget::Device, false) => (&HBM_BYTES, "mem.hbm.read"),
        (MemTarget::Device, true) => (&HBM_BYTES, "mem.hbm.write"),
    }
}

impl Component for MemoryBus {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        match port {
            ports::READ => {
                let req = payload.downcast::<MemReadReq>();
                assert!(req.len > 0, "zero-length read");
                let tlb_before = self.tlb_counters();
                let (target, base, penalty) = self.resolve(req.addr, req.len);
                self.record_tlb_delta(ctx, tlb_before);
                let chunk = u64::from(self.cfg.chunk_bytes.max(1));
                self.bytes_read += req.len;
                let (counter, span_name) = leg_names(target, false);
                ctx.stats().add(counter, req.len);
                let (pipe, latency) = self.pipe(target, false);
                let start = ctx.now() + penalty;
                let (xfer_start, xfer_end) = pipe.reserve(start, req.len);
                if ctx.spans_enabled() {
                    ctx.span_interval_attrs(
                        span_name,
                        req.span,
                        xfer_start,
                        xfer_end + latency,
                        &[Attr {
                            key: "bytes",
                            value: AttrValue::U64(req.len),
                        }],
                    );
                }
                // Deliver chunks pipelined: chunk i lands once its bytes have
                // crossed the pipe, plus the access latency. Each chunk is
                // read now, so it carries the bytes as of the request; one
                // within a single store extent is a slice of that extent.
                let t0 = pipe.next_free() - pipe.service_time(req.len);
                let bw = pipe.bandwidth_bytes_per_sec();
                let store = match target {
                    MemTarget::Host => &self.host,
                    MemTarget::Device => &self.device,
                };
                let mut off = 0u64;
                while off < req.len {
                    let n = chunk.min(req.len - off);
                    let done_bytes = off + n;
                    let at = t0 + Dur::for_bytes_bw(done_bytes, bw) + latency;
                    let last = done_bytes == req.len;
                    ctx.send_at(
                        req.data_to,
                        at,
                        MemChunk {
                            tag: req.tag,
                            offset: off,
                            data: store.read_bytes(base + off, n as usize),
                            last,
                        },
                    );
                    if last {
                        if let Some(done) = req.done_to {
                            ctx.send_at(
                                done,
                                at,
                                MemDone {
                                    tag: req.tag,
                                    len: req.len,
                                },
                            );
                        }
                    }
                    off = done_bytes;
                }
            }
            ports::WRITE => {
                let req = payload.downcast::<MemWriteReq>();
                let len = req.data.len() as u64;
                assert!(len > 0, "zero-length write");
                let tlb_before = self.tlb_counters();
                let (target, base, penalty) = self.resolve(req.addr, len);
                self.record_tlb_delta(ctx, tlb_before);
                match target {
                    MemTarget::Host => self.host.write_bytes(base, &req.data),
                    MemTarget::Device => self.device.write_bytes(base, &req.data),
                }
                self.bytes_written += len;
                let (counter, span_name) = leg_names(target, true);
                ctx.stats().add(counter, len);
                let (pipe, latency) = self.pipe(target, true);
                let (start, end) = pipe.reserve(ctx.now() + penalty, len);
                if ctx.spans_enabled() {
                    ctx.span_interval_attrs(
                        span_name,
                        req.span,
                        start,
                        end + latency,
                        &[Attr {
                            key: "bytes",
                            value: AttrValue::U64(len),
                        }],
                    );
                }
                if let Some(done) = req.done_to {
                    ctx.send_at(done, end + latency, MemDone { tag: req.tag, len });
                }
            }
            other => panic!("memory bus has no port {other:?}"),
        }
    }

    fn state_digest(&self) -> Option<u64> {
        // Traffic totals plus each pipe's reservation horizon: the full
        // externally-visible effect of every read/write the bus served.
        let mut h = 0u64;
        for v in [
            self.bytes_read,
            self.bytes_written,
            self.pcie_rd.next_free().as_ps(),
            self.pcie_wr.next_free().as_ps(),
            self.hbm_rd.next_free().as_ps(),
            self.hbm_wr.next_free().as_ps(),
        ] {
            accl_sim::digest::fnv_fold(&mut h, &v.to_le_bytes());
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cfg: MemBusConfig) -> (Simulator, ComponentId, ComponentId, ComponentId) {
        let mut sim = Simulator::new(0);
        let bus = sim.add("bus", MemoryBus::new(cfg));
        let chunks = sim.add("chunks", Mailbox::<MemChunk>::new());
        let dones = sim.add("dones", Mailbox::<MemDone>::new());
        (sim, bus, chunks, dones)
    }

    #[test]
    fn device_read_streams_chunks_in_order() {
        let (mut sim, bus, chunks, dones) = setup(MemBusConfig::default());
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        sim.component_mut::<MemoryBus>(bus)
            .device_write(0x100, &payload);
        sim.post(
            Endpoint::new(bus, ports::READ),
            Time::ZERO,
            MemReadReq {
                addr: MemAddr::Phys(MemTarget::Device, 0x100),
                len: payload.len() as u64,
                data_to: Endpoint::of(chunks),
                done_to: Some(Endpoint::of(dones)),
                tag: 7,
                span: SpanId::NONE,
            },
        );
        sim.run();
        let mb = sim.component::<Mailbox<MemChunk>>(chunks);
        assert_eq!(mb.len(), 3); // 4096 + 4096 + 1808
        let mut got = Vec::new();
        for (_, c) in mb.items() {
            assert_eq!(c.tag, 7);
            assert_eq!(c.offset, got.len() as u64);
            got.extend_from_slice(&c.data);
        }
        assert_eq!(got, payload);
        assert!(mb.items()[2].1.last);
        assert_eq!(sim.component::<Mailbox<MemDone>>(dones).len(), 1);
    }

    #[test]
    fn host_access_is_slower_than_device() {
        let run = |target, addr| {
            let (mut sim, bus, chunks, _) = setup(MemBusConfig::default());
            sim.post(
                Endpoint::new(bus, ports::READ),
                Time::ZERO,
                MemReadReq {
                    addr: MemAddr::Phys(target, addr),
                    len: 1 << 20,
                    data_to: Endpoint::of(chunks),
                    done_to: None,
                    tag: 0,
                    span: SpanId::NONE,
                },
            );
            sim.run();
            sim.component::<Mailbox<MemChunk>>(chunks)
                .last_arrival()
                .unwrap()
        };
        let host = run(MemTarget::Host, 0);
        let dev = run(MemTarget::Device, 0);
        // 1 MiB over 12.5 GB/s PCIe ≈ 84 us; over 460 GB/s HBM ≈ 2.3 us.
        assert!(host.as_us_f64() > 80.0, "host={host}");
        assert!(dev.as_us_f64() < 4.0, "dev={dev}");
    }

    #[test]
    fn write_then_read_roundtrip_through_events() {
        let (mut sim, bus, chunks, dones) = setup(MemBusConfig::default());
        sim.post(
            Endpoint::new(bus, ports::WRITE),
            Time::ZERO,
            MemWriteReq {
                addr: MemAddr::Phys(MemTarget::Device, 0x2000),
                data: Bytes::from_static(b"hello accl"),
                done_to: Some(Endpoint::of(dones)),
                tag: 1,
                span: SpanId::NONE,
            },
        );
        sim.run();
        assert_eq!(sim.component::<Mailbox<MemDone>>(dones).len(), 1);
        sim.post(
            Endpoint::new(bus, ports::READ),
            sim.now(),
            MemReadReq {
                addr: MemAddr::Phys(MemTarget::Device, 0x2000),
                len: 10,
                data_to: Endpoint::of(chunks),
                done_to: None,
                tag: 2,
                span: SpanId::NONE,
            },
        );
        sim.run();
        let mb = sim.component::<Mailbox<MemChunk>>(chunks);
        assert_eq!(&mb.items()[0].1.data[..], b"hello accl");
    }

    #[test]
    fn read_delivers_the_bytes_from_before_a_same_time_write() {
        let (mut sim, bus, chunks, dones) = setup(MemBusConfig::default());
        sim.component_mut::<MemoryBus>(bus)
            .device_write(0x3000, &[1u8; PAGE_SIZE as usize]);
        let read = MemReadReq {
            addr: MemAddr::Phys(MemTarget::Device, 0x3000),
            len: PAGE_SIZE,
            data_to: Endpoint::of(chunks),
            done_to: None,
            tag: 0,
            span: SpanId::NONE,
        };
        sim.post(Endpoint::new(bus, ports::READ), Time::ZERO, read);
        // Same instant, posted second: it executes after the read, and
        // its completion lands before the read's chunk does.
        sim.post(
            Endpoint::new(bus, ports::WRITE),
            Time::ZERO,
            MemWriteReq {
                addr: MemAddr::Phys(MemTarget::Device, 0x3010),
                data: Bytes::from(vec![2u8; 32]),
                done_to: Some(Endpoint::of(dones)),
                tag: 1,
                span: SpanId::NONE,
            },
        );
        sim.run();
        let written = sim.component::<Mailbox<MemDone>>(dones).items()[0].0;
        let mb = sim.component::<Mailbox<MemChunk>>(chunks);
        assert!(written < mb.items()[0].0, "the write completes first");
        assert_eq!(&mb.items()[0].1.data[..], &[1u8; PAGE_SIZE as usize][..]);
        let after = sim.component::<MemoryBus>(bus).device_read(0x3000, 0x40);
        assert_eq!(&after[0x10..0x30], &[2u8; 32]);
        assert_eq!(&after[..0x10], &[1u8; 0x10]);
    }

    #[test]
    fn virtual_addresses_require_tlb() {
        let (mut sim, bus, chunks, _) = setup(MemBusConfig::coyote());
        sim.component_mut::<MemoryBus>(bus)
            .map_range(0x8000, 4096, MemTarget::Device);
        sim.component_mut::<MemoryBus>(bus)
            .device_write(0x8000, &[5u8; 16]);
        sim.post(
            Endpoint::new(bus, ports::READ),
            Time::ZERO,
            MemReadReq {
                addr: MemAddr::Virt(0x8000),
                len: 16,
                data_to: Endpoint::of(chunks),
                done_to: None,
                tag: 0,
                span: SpanId::NONE,
            },
        );
        sim.run();
        let mb = sim.component::<Mailbox<MemChunk>>(chunks);
        assert_eq!(&mb.items()[0].1.data[..], &[5u8; 16]);
        let (hits, misses, faults) = sim.component::<MemoryBus>(bus).tlb_counters().unwrap();
        assert_eq!((hits, misses, faults), (0, 1, 0));
    }

    #[test]
    fn unmapped_virtual_page_faults_and_costs() {
        let (mut sim, bus, chunks, _) = setup(MemBusConfig::coyote());
        sim.post(
            Endpoint::new(bus, ports::READ),
            Time::ZERO,
            MemReadReq {
                addr: MemAddr::Virt(0xf000_0000),
                len: 16,
                data_to: Endpoint::of(chunks),
                done_to: None,
                tag: 0,
                span: SpanId::NONE,
            },
        );
        sim.run();
        let mb = sim.component::<Mailbox<MemChunk>>(chunks);
        // Delivery must include the 20 us fault penalty.
        assert!(mb.items()[0].0.as_us_f64() >= 20.0);
        let (_, _, faults) = sim.component::<MemoryBus>(bus).tlb_counters().unwrap();
        assert_eq!(faults, 1);
    }

    #[test]
    #[should_panic(expected = "without a TLB")]
    fn virtual_address_without_tlb_panics() {
        let (mut sim, bus, chunks, _) = setup(MemBusConfig::default());
        sim.post(
            Endpoint::new(bus, ports::READ),
            Time::ZERO,
            MemReadReq {
                addr: MemAddr::Virt(0),
                len: 1,
                data_to: Endpoint::of(chunks),
                done_to: None,
                tag: 0,
                span: SpanId::NONE,
            },
        );
        sim.run();
    }

    #[test]
    fn concurrent_reads_share_pipe_bandwidth() {
        let (mut sim, bus, chunks, _) = setup(MemBusConfig::default());
        for tag in 0..2u64 {
            sim.post(
                Endpoint::new(bus, ports::READ),
                Time::ZERO,
                MemReadReq {
                    addr: MemAddr::Phys(MemTarget::Host, tag * 0x1_0000),
                    len: 1 << 20,
                    data_to: Endpoint::of(chunks),
                    done_to: None,
                    tag,
                    span: SpanId::NONE,
                },
            );
        }
        sim.run();
        let last = sim
            .component::<Mailbox<MemChunk>>(chunks)
            .last_arrival()
            .unwrap();
        // Two 1 MiB reads over one PCIe pipe: ~168 us, not ~84 us.
        assert!(last.as_us_f64() > 160.0, "last={last}");
    }
}
