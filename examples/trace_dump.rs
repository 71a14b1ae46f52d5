//! Dump a Perfetto-loadable causal trace of an 8-rank allreduce.
//!
//! Builds the Coyote+RDMA cluster with span tracing enabled, runs one
//! device-data allreduce through the host drivers, and writes
//! `<outdir>/allreduce.trace.json` — Chrome/Perfetto `trace_event` JSON;
//! load it at `ui.perfetto.dev` (or `chrome://tracing`) to see every
//! rank's driver, uC, datapath, POE and fabric activity on one causally
//! linked timeline.
//!
//! This is the workload of `accl-obs dump --workload allreduce8`; for its
//! per-rank, per-component latency attribution run
//! `accl-obs critical-path` on that dump.
//!
//! Run with: `cargo run --release --features trace --example trace_dump
//! [outdir]`

use acclplus::sim::trace::max_span_depth;
use acclplus::{AcclCluster, BufLoc, ClusterConfig, CollOp, CollSpec, DType, ReduceFn};

fn i32s(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn from_i32s(b: &[u8]) -> Vec<i32> {
    b.chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn main() {
    let outdir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_dump_out".to_string());
    let n = 8;
    let count = 4096u64;
    let mut cluster = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    cluster.enable_tracing(1 << 20);

    // Device-resident buffers: the FPGA-native data path (no staging).
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for rank in 0..n {
        let src = cluster.alloc(rank, BufLoc::Device, count * 4);
        let dst = cluster.alloc(rank, BufLoc::Device, count * 4);
        let data: Vec<i32> = (0..count as i32).map(|i| i + rank as i32 * 1000).collect();
        cluster.write(&src, &i32s(&data));
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst)
                .func(ReduceFn::Sum),
        );
        dsts.push(dst);
    }
    let records = cluster.host_collective(specs);

    // The trace must describe a *correct* run.
    let expect: Vec<i32> = (0..count as i32)
        .map(|i| (0..n as i32).map(|r| i + r * 1000).sum())
        .collect();
    for (rank, dst) in dsts.iter().enumerate() {
        assert_eq!(from_i32s(&cluster.read(dst)), expect, "rank {rank}");
    }

    let events = cluster.trace_events();
    assert_eq!(cluster.sim.spans_dropped(), 0, "span ring too small");
    let depth = max_span_depth(&events);
    assert!(
        depth >= 5,
        "expected >= 5 causal span depths (driver -> uC -> stage -> POE -> link), got {depth}"
    );

    std::fs::create_dir_all(&outdir).expect("create output dir");
    let json_path = format!("{outdir}/allreduce.trace.json");
    std::fs::write(&json_path, cluster.chrome_trace()).expect("write trace JSON");

    println!(
        "traced {} span events across {n} ranks (max depth {depth})",
        events.len()
    );
    for (rank, r) in records.iter().enumerate() {
        let b = r.breakdown.unwrap();
        println!(
            "  rank {rank}: invoke {:>6.2} us | collective {:>7.2} us | total {:>7.2} us",
            b.invoke.as_us_f64(),
            b.collective.as_us_f64(),
            b.total.as_us_f64()
        );
    }
    println!("wrote {json_path}");
}
