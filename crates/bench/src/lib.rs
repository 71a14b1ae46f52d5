//! # accl-bench — the paper-reproduction benchmark harness
//!
//! One bench target per table and figure of the ACCL+ evaluation. Each
//! target builds the relevant simulated systems, runs the paper's sweep,
//! and prints the series the figure plots (simulated metrics — latency in
//! µs, goodput in Gb/s). `cargo bench` runs them all; see EXPERIMENTS.md
//! for the paper-vs-measured record.

#![warn(missing_docs)]

use accl_core::driver::CollSpec;
use accl_core::{AcclCluster, BufLoc, BufferHandle, ClusterConfig, CollOp, DType};
use accl_sim::time::Dur;
use accl_swmpi::{MpiCall, MpiCluster, MpiConfig};

/// Standard message-size sweep (bytes): 1 KiB to 16 MiB by powers of 4.
pub fn size_sweep() -> Vec<u64> {
    (0..8).map(|i| 1024u64 << (2 * i)).collect()
}

/// Pretty-prints an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Goodput in Gb/s for `bytes` moved in `d`.
pub fn gbps(bytes: u64, d: Dur) -> f64 {
    d.goodput_gbps(bytes)
}

/// Human size label ("64K", "1M", ...).
pub fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

/// The buffers allocated for one rank of an ACCL+ collective run.
pub struct RankBufs {
    /// Input buffer.
    pub src: BufferHandle,
    /// Output buffer.
    pub dst: BufferHandle,
}

/// Allocates per-rank src/dst buffers sized for `op` at `bytes` per block
/// and fills the inputs with a deterministic pattern.
pub fn alloc_collective_bufs(
    cluster: &mut AcclCluster,
    op: CollOp,
    bytes: u64,
    loc: BufLoc,
) -> Vec<RankBufs> {
    let n = cluster.len() as u64;
    let (src_len, dst_len) = match op {
        CollOp::Bcast | CollOp::Reduce | CollOp::AllReduce => (bytes, bytes),
        CollOp::Gather => (bytes, bytes * n),
        CollOp::Scatter => (bytes * n, bytes),
        CollOp::AllGather => (bytes, bytes * n),
        CollOp::AllToAll => (bytes * n, bytes * n),
        CollOp::ReduceScatter => (bytes * n, bytes),
        _ => (bytes, bytes),
    };
    (0..cluster.len())
        .map(|node| {
            let src = cluster.alloc(node, loc, src_len.max(4));
            let dst = cluster.alloc(node, loc, dst_len.max(4));
            let fill: Vec<u8> = (0..src_len)
                .map(|i| ((i * 31 + node as u64) % 251) as u8)
                .collect();
            cluster.write(&src, &fill);
            if op == CollOp::Bcast && node == 0 {
                let fill: Vec<u8> = (0..dst_len).map(|i| (i % 241) as u8).collect();
                cluster.write(&dst, &fill);
            }
            RankBufs { src, dst }
        })
        .collect()
}

/// Runs one ACCL+ collective on every rank and returns the slowest rank's
/// *collective-phase* latency (excluding invocation/staging — reported
/// separately by the breakdown benches).
pub fn accl_collective_latency(
    cluster: &mut AcclCluster,
    op: CollOp,
    bytes: u64,
    loc: BufLoc,
) -> Dur {
    accl_collective_latency_sync(cluster, op, bytes, loc, accl_core::SyncProto::Auto)
}

/// Like [`accl_collective_latency`] with an explicit synchronization
/// protocol (the paper reports "the better of eager and rendezvous").
pub fn accl_collective_latency_sync(
    cluster: &mut AcclCluster,
    op: CollOp,
    bytes: u64,
    loc: BufLoc,
    sync: accl_core::SyncProto,
) -> Dur {
    let bufs = alloc_collective_bufs(cluster, op, bytes, loc);
    let count = bytes / 4;
    let specs: Vec<CollSpec> = bufs
        .iter()
        .map(|b| {
            let mut s = CollSpec::new(op, count, DType::I32)
                .src(b.src)
                .dst(b.dst)
                .sync(sync);
            if op == CollOp::Bcast {
                s.src = None;
            }
            s
        })
        .collect();
    let records = cluster.host_collective(specs);
    records
        .iter()
        .map(|r| r.breakdown.unwrap().collective)
        .max()
        .unwrap()
}

/// The better of eager and rendezvous for one collective on a fresh
/// Coyote cluster (the paper's Fig. 10/11 presentation: "better
/// performance between eager and rendezvous collectives").
pub fn accl_best_latency(n: usize, op: CollOp, bytes: u64, loc: BufLoc) -> Dur {
    let mut c = coyote_cluster(n);
    let eagerish = accl_collective_latency_sync(&mut c, op, bytes, loc, accl_core::SyncProto::Auto);
    let mut c = coyote_cluster(n);
    let rndzv =
        accl_collective_latency_sync(&mut c, op, bytes, loc, accl_core::SyncProto::Rendezvous);
    eagerish.min(rndzv)
}

/// Runs one ACCL+ collective including the full host path (staging +
/// invocation + collective + staging out); returns the slowest total.
pub fn accl_collective_total(
    cluster: &mut AcclCluster,
    op: CollOp,
    bytes: u64,
    loc: BufLoc,
) -> Dur {
    let bufs = alloc_collective_bufs(cluster, op, bytes, loc);
    let count = bytes / 4;
    let specs: Vec<CollSpec> = bufs
        .iter()
        .map(|b| {
            let mut s = CollSpec::new(op, count, DType::I32).src(b.src).dst(b.dst);
            if op == CollOp::Bcast {
                s.src = None;
            }
            s
        })
        .collect();
    let records = cluster.host_collective(specs);
    records
        .iter()
        .map(|r| r.breakdown.unwrap().total)
        .max()
        .unwrap()
}

/// Runs one software-MPI collective; returns the slowest rank's latency.
pub fn mpi_collective_latency(n: usize, cfg: MpiConfig, op: CollOp, bytes: u64, seed: u64) -> Dur {
    let mut c = MpiCluster::build(n, cfg, seed);
    let count = bytes / 4;
    let calls: Vec<MpiCall> = (0..n)
        .map(|r| {
            let (src_len, dst_len) = match op {
                CollOp::Gather => (bytes, bytes * n as u64),
                CollOp::Scatter => (bytes * n as u64, bytes),
                CollOp::AllToAll => (bytes * n as u64, bytes * n as u64),
                _ => (bytes, bytes),
            };
            let src: Vec<u8> = (0..src_len)
                .map(|i| ((i * 13 + r as u64) % 251) as u8)
                .collect();
            MpiCall {
                op,
                count,
                dtype: DType::I32,
                root: 0,
                func: accl_core::ReduceFn::Sum,
                src,
                dst_len: dst_len as usize,
            }
        })
        .collect();
    c.collective(calls).into_iter().max().unwrap()
}

/// PCIe staging leg used by the "software MPI with FPGA data" model of
/// Fig. 9/10: moving `bytes` between card and host memory.
///
/// *Measured*, not derived: the leg runs one staging copy through the
/// simulated XDMA engine and memory bus (per-chunk PCIe round-trip
/// latency, streamed 4 KB chunks, full-duplex pipes) and returns the
/// observed completion time. Only the 5 µs descriptor/driver setup is a
/// calibration constant (Coyote host-DMA path); the serialization and
/// pipelining behaviour comes out of the same `accl-mem` components the
/// ACCL+ data path runs on.
pub fn pcie_leg(bytes: u64) -> Dur {
    use accl_mem::bus::{MemBusConfig, MemoryBus};
    use accl_mem::xdma::{self, XdmaCopy, XdmaDir, XdmaDone, XdmaEngine};
    use accl_sim::event::Endpoint;
    use accl_sim::mailbox::Mailbox;
    use accl_sim::sim::Simulator;
    use accl_sim::time::Time;

    let mut sim = Simulator::new(9);
    let bus = sim.add("bus", MemoryBus::new(MemBusConfig::default()));
    let eng = sim.add("xdma", XdmaEngine::new(bus, 5));
    let done = sim.add("done", Mailbox::<XdmaDone>::new());
    sim.component_mut::<MemoryBus>(bus)
        .device_write(0, &vec![0u8; bytes as usize]);
    sim.post(
        Endpoint::new(eng, xdma::ports::COPY),
        Time::ZERO,
        XdmaCopy {
            dir: XdmaDir::DeviceToHost,
            host_addr: 0,
            dev_addr: 0,
            len: bytes,
            done_to: Endpoint::of(done),
            tag: 0,
            span: accl_sim::trace::SpanId::NONE,
        },
    );
    sim.run();
    let mb = sim.component::<Mailbox<XdmaDone>>(done);
    assert_eq!(mb.len(), 1, "staging copy must complete");
    mb.items()[0].0.since(Time::ZERO)
}

/// The modelled end-to-end device-data latency for software MPI (paper §5,
/// Fig. 9): PCIe out + MPI collective + PCIe back + kernel invocation.
pub fn mpi_f2f_model(n: usize, cfg: MpiConfig, op: CollOp, bytes: u64, seed: u64) -> Dur {
    let coll = mpi_collective_latency(n, cfg, op, bytes, seed);
    let invoke = ClusterConfig::coyote_rdma(2).invocation_latency();
    pcie_leg(bytes) + coll + pcie_leg(bytes) + invoke
}

/// A standard Coyote-RDMA cluster for ACCL+ measurements.
pub fn coyote_cluster(n: usize) -> AcclCluster {
    AcclCluster::build(ClusterConfig::coyote_rdma(n))
}
