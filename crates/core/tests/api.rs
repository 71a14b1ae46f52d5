//! Public-API integration tests: host and kernel applications on fully
//! wired clusters across platforms and transports.

#![allow(clippy::needless_range_loop)] // rank loops index parallel arrays

use bytes::Bytes;

use accl_core::driver::CollSpec;
use accl_core::host::{HostOp, Program};
use accl_core::kernel::KernelOp;
use accl_core::{AcclCluster, BufLoc, ClusterConfig, CollOp, DType, SyncProto};
use accl_sim::time::Dur;

fn i32s(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn pattern(node: usize, count: u64) -> Vec<u8> {
    i32s(
        &(0..count)
            .map(|i| (node as i32 + 1) * 100 + i as i32)
            .collect::<Vec<_>>(),
    )
}

fn summed(n: usize, count: u64) -> Vec<u8> {
    i32s(
        &(0..count)
            .map(|i| (0..n as i32).map(|nd| (nd + 1) * 100 + i as i32).sum())
            .collect::<Vec<_>>(),
    )
}

#[test]
fn coyote_rdma_h2h_allreduce() {
    let n = 4;
    let count = 4096u64;
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for node in 0..n {
        // H2H: both buffers in *host* memory; unified addressing lets the
        // CCLO reach them without staging.
        let src = c.alloc(node, BufLoc::Host, count * 4);
        let dst = c.alloc(node, BufLoc::Host, count * 4);
        c.write(&src, &pattern(node, count));
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst),
        );
        dsts.push(dst);
    }
    let records = c.host_collective(specs);
    let expect = summed(n, count);
    for node in 0..n {
        assert_eq!(c.read(&dsts[node]), expect, "node {node}");
        let b = records[node].breakdown.unwrap();
        // Unified memory: no staging.
        assert_eq!(b.stage_in, Dur::ZERO);
        assert_eq!(b.stage_out, Dur::ZERO);
        assert!(b.invoke.as_us_f64() >= 2.9, "coyote invocation ~3us");
    }
}

#[test]
fn xrt_tcp_h2h_stages_through_xdma() {
    let n = 2;
    let count = 16384u64;
    let mut c = AcclCluster::build(ClusterConfig::xrt_tcp(n));
    let src = c.alloc(0, BufLoc::Host, count * 4);
    let dst = c.alloc(1, BufLoc::Host, count * 4);
    let payload = pattern(0, count);
    c.write(&src, &payload);
    let specs = vec![
        CollSpec::new(CollOp::Send, count, DType::I32)
            .root(1)
            .src(src),
        CollSpec::new(CollOp::Recv, count, DType::I32)
            .root(0)
            .dst(dst),
    ];
    let records = c.host_collective(specs);
    assert_eq!(c.read(&dst), payload);
    // Sender staged its input; receiver staged its output.
    let b0 = records[0].breakdown.unwrap();
    let b1 = records[1].breakdown.unwrap();
    assert!(
        b0.stage_in.as_us_f64() > 30.0,
        "sender staging {:?}",
        b0.stage_in
    );
    assert_eq!(b0.stage_out, Dur::ZERO);
    assert!(
        b1.stage_out.as_us_f64() > 30.0,
        "receiver staging {:?}",
        b1.stage_out
    );
    assert!(b1.invoke.as_us_f64() > 100.0, "XRT invocation is slow");
}

#[test]
fn xrt_device_buffers_skip_staging() {
    let n = 2;
    let count = 1024u64;
    let mut c = AcclCluster::build(ClusterConfig::xrt_tcp(n));
    let src = c.alloc(0, BufLoc::Device, count * 4);
    let dst = c.alloc(1, BufLoc::Device, count * 4);
    let payload = pattern(3, count);
    c.write(&src, &payload);
    let records = c.host_collective(vec![
        CollSpec::new(CollOp::Send, count, DType::I32)
            .root(1)
            .src(src),
        CollSpec::new(CollOp::Recv, count, DType::I32)
            .root(0)
            .dst(dst),
    ]);
    assert_eq!(c.read(&dst), payload);
    for r in &records {
        let b = r.breakdown.unwrap();
        assert_eq!(b.stage_in, Dur::ZERO);
        assert_eq!(b.stage_out, Dur::ZERO);
    }
}

#[test]
fn coyote_f2f_equals_h2h_closely() {
    // The paper's Fig. 7/10/11 observation: with unified memory the
    // difference between host- and device-resident data is minimal.
    let n = 2;
    let count = (1u64 << 20) / 4;
    let run = |loc: BufLoc| -> f64 {
        let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(n));
        let src = c.alloc(0, loc, count * 4);
        let dst = c.alloc(1, loc, count * 4);
        c.write(&src, &pattern(0, count));
        let records = c.host_collective(vec![
            CollSpec::new(CollOp::Send, count, DType::I32)
                .root(1)
                .src(src),
            CollSpec::new(CollOp::Recv, count, DType::I32)
                .root(0)
                .dst(dst),
        ]);
        records[1].breakdown.unwrap().collective.as_us_f64()
    };
    let h2h = run(BufLoc::Host);
    let f2f = run(BufLoc::Device);
    assert!(
        (h2h - f2f).abs() / f2f < 0.35,
        "h2h={h2h}us f2f={f2f}us should be close on Coyote"
    );
}

#[test]
fn xrt_h2h_much_slower_than_f2f() {
    // Partitioned memory: staging + slow invocation dominate (Fig. 13).
    let n = 2;
    let count = (1u64 << 20) / 4;
    let run = |loc: BufLoc| -> f64 {
        let mut c = AcclCluster::build(ClusterConfig::xrt_tcp(n));
        let src = c.alloc(0, loc, count * 4);
        let dst = c.alloc(1, loc, count * 4);
        c.write(&src, &pattern(0, count));
        let records = c.host_collective(vec![
            CollSpec::new(CollOp::Send, count, DType::I32)
                .root(1)
                .src(src),
            CollSpec::new(CollOp::Recv, count, DType::I32)
                .root(0)
                .dst(dst),
        ]);
        records[1].breakdown.unwrap().total.as_us_f64()
    };
    let h2h = run(BufLoc::Host);
    let f2f = run(BufLoc::Device);
    assert!(h2h > f2f * 1.5, "h2h={h2h}us f2f={f2f}us");
}

#[test]
fn udp_transport_works_for_small_collectives() {
    let n = 4;
    let count = 512u64;
    let mut c = AcclCluster::build(ClusterConfig::xrt_udp(n));
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for node in 0..n {
        let dst = c.alloc(node, BufLoc::Device, count * 4);
        if node == 0 {
            c.write(&dst, &pattern(7, count));
        }
        specs.push(CollSpec::new(CollOp::Bcast, count, DType::I32).dst(dst));
        dsts.push(dst);
    }
    c.host_collective(specs);
    for node in 0..n {
        assert_eq!(c.read(&dsts[node]), pattern(7, count), "node {node}");
    }
}

#[test]
fn program_builder_runs_compute_and_collectives() {
    let n = 2;
    let count = 256u64;
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    let src = c.alloc(0, BufLoc::Device, count * 4);
    let dst = c.alloc(1, BufLoc::Device, count * 4);
    c.write(&src, &pattern(0, count));
    let p0 = Program::new()
        .compute(Dur::from_us(50))
        .coll(
            CollSpec::new(CollOp::Send, count, DType::I32)
                .root(1)
                .src(src),
        )
        .build();
    let p1 = Program::new()
        .coll(
            CollSpec::new(CollOp::Recv, count, DType::I32)
                .root(0)
                .dst(dst),
        )
        .build();
    let records = c.run_host_programs(vec![p0, p1]);
    // Node 0: compute then send; the recv on node 1 cannot finish before
    // node 0's compute.
    assert_eq!(records[0].len(), 2);
    assert!(records[0][0].finished.as_us_f64() >= 50.0);
    assert!(records[1][0].finished >= records[0][0].finished);
    assert_eq!(c.read(&dst), pattern(0, count));
}

#[test]
fn kernel_streaming_pipeline_f2f() {
    // Rank 0 kernel generates data and streams a send; rank 1 kernel
    // receives into its stream — no memory buffers anywhere.
    let n = 2;
    let count = 4096u64;
    let payload = pattern(1, count);
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    let k0 = vec![
        KernelOp::Issue(CollSpec::new(CollOp::Send, count, DType::I32).root(1)),
        KernelOp::Push(Bytes::from(payload.clone())),
        KernelOp::Finalize,
    ];
    let k1 = vec![
        KernelOp::Issue(CollSpec::new(CollOp::Recv, count, DType::I32).root(0)),
        KernelOp::Expect(count * 4),
        KernelOp::Finalize,
    ];
    let kernels = c.run_kernel_programs(vec![k0, k1]);
    assert_eq!(c.kernel(kernels[1]).received(), &payload[..]);
    // Kernel-issued F2F transfer completes in tens of microseconds.
    let t = c.kernel(kernels[1]).finished_at().unwrap();
    assert!(t.as_us_f64() < 100.0, "kernel F2F took {t}");
}

#[test]
fn kernel_stall_is_an_error_naming_the_parked_uc() {
    // Node 1's kernel receives from node 0, whose kernel never sends.
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(2));
    let k1 = vec![
        KernelOp::Issue(CollSpec::new(CollOp::Recv, 64, DType::I32).root(0)),
        KernelOp::Expect(64 * 4),
        KernelOp::Finalize,
    ];
    let err = c
        .try_run_kernel_programs(vec![Vec::new(), k1])
        .expect_err("a receive no peer sends must stall");
    assert!(err.contains("simulation stalled"), "{err}");
    assert!(err.contains("n1.cclo.uc (rank 1) parked on Recv"), "{err}");
}

#[test]
fn f2f_latency_beats_h2h_invocation_overhead() {
    // Fig. 8's point: kernels invoke the CCLO directly, skipping the
    // host's PCIe round trips.
    let count = 256u64;
    let payload = pattern(0, count);
    // F2F streaming.
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(2));
    let k0 = vec![
        KernelOp::Issue(CollSpec::new(CollOp::Send, count, DType::I32).root(1)),
        KernelOp::Push(Bytes::from(payload.clone())),
        KernelOp::Finalize,
    ];
    let k1 = vec![
        KernelOp::Issue(CollSpec::new(CollOp::Recv, count, DType::I32).root(0)),
        KernelOp::Expect(count * 4),
        KernelOp::Finalize,
    ];
    let kernels = c.run_kernel_programs(vec![k0, k1]);
    let f2f = c.kernel(kernels[1]).finished_at().unwrap().as_us_f64();
    // H2H through the driver.
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(2));
    let src = c.alloc(0, BufLoc::Host, count * 4);
    let dst = c.alloc(1, BufLoc::Host, count * 4);
    c.write(&src, &pattern(0, count));
    let records = c.host_collective(vec![
        CollSpec::new(CollOp::Send, count, DType::I32)
            .root(1)
            .src(src),
        CollSpec::new(CollOp::Recv, count, DType::I32)
            .root(0)
            .dst(dst),
    ]);
    let h2h = records[1].breakdown.unwrap().total.as_us_f64();
    assert!(f2f < h2h, "f2f={f2f}us h2h={h2h}us");
}

#[test]
fn sequential_phases_reuse_the_cluster() {
    let n = 2;
    let count = 128u64;
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    let src = c.alloc(0, BufLoc::Device, count * 4);
    let dst = c.alloc(1, BufLoc::Device, count * 4);
    for round in 0..3 {
        let payload = pattern(round, count);
        c.write(&src, &payload);
        c.host_collective(vec![
            CollSpec::new(CollOp::Send, count, DType::I32)
                .root(1)
                .src(src),
            CollSpec::new(CollOp::Recv, count, DType::I32)
                .root(0)
                .dst(dst),
        ]);
        assert_eq!(c.read(&dst), payload, "round {round}");
    }
}

#[test]
fn rendezvous_auto_threshold_switches() {
    // Large messages pick rendezvous automatically on RDMA; behaviour is
    // visible through the engine's Rx buffer pool staying untouched.
    let count = (1u64 << 20) / 4; // 1 MiB > 16 KiB eager threshold
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(2));
    let src = c.alloc(0, BufLoc::Device, count * 4);
    let dst = c.alloc(1, BufLoc::Device, count * 4);
    let payload = pattern(0, count);
    c.write(&src, &payload);
    c.host_collective(vec![
        CollSpec::new(CollOp::Send, count, DType::I32)
            .root(1)
            .src(src),
        CollSpec::new(CollOp::Recv, count, DType::I32)
            .root(0)
            .dst(dst),
    ]);
    assert_eq!(c.read(&dst), payload);
    let rbm = c.sim.component::<accl_cclo::rbm::Rbm>(c.node(1).cclo.rbm);
    assert_eq!(rbm.free_buffers(), c.config().cclo.rx_buf_count);
    assert_eq!(rbm.unmatched_messages(), 0);
}

#[test]
fn explicit_sync_flags_are_honored() {
    let count = 1024u64;
    for sync in [SyncProto::Eager, SyncProto::Rendezvous] {
        let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(2));
        let src = c.alloc(0, BufLoc::Device, count * 4);
        let dst = c.alloc(1, BufLoc::Device, count * 4);
        let payload = pattern(0, count);
        c.write(&src, &payload);
        c.host_collective(vec![
            CollSpec::new(CollOp::Send, count, DType::I32)
                .root(1)
                .src(src)
                .sync(sync),
            CollSpec::new(CollOp::Recv, count, DType::I32)
                .root(0)
                .dst(dst)
                .sync(sync),
        ]);
        assert_eq!(c.read(&dst), payload, "{sync:?}");
    }
}

#[test]
fn ten_node_cluster_allreduce() {
    // The paper's cluster size.
    let n = 10;
    let count = 2048u64;
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for node in 0..n {
        let src = c.alloc(node, BufLoc::Device, count * 4);
        let dst = c.alloc(node, BufLoc::Device, count * 4);
        c.write(&src, &pattern(node, count));
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst),
        );
        dsts.push(dst);
    }
    c.host_collective(specs);
    let expect = summed(n, count);
    for node in 0..n {
        assert_eq!(c.read(&dsts[node]), expect, "node {node}");
    }
}

#[test]
fn mixed_program_with_barrier() {
    let n = 3;
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    let programs: Vec<Vec<HostOp>> = (0..n)
        .map(|node| {
            Program::new()
                .compute(Dur::from_us(10 * (node as u64 + 1)))
                .coll(CollSpec::new(CollOp::Barrier, 0, DType::U8))
                .build()
        })
        .collect();
    let records = c.run_host_programs(programs);
    // All ranks leave the barrier only after the slowest compute (30us).
    for r in &records {
        assert!(r[1].finished.as_us_f64() >= 30.0);
    }
}

#[test]
fn node_stats_reflect_engine_activity() {
    let n = 3;
    let count = 512u64;
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    let before = c.node_stats(0);
    assert_eq!(before.collectives_completed, 0);
    assert_eq!(before.dmp_instructions, 0);
    let mut specs = Vec::new();
    for node in 0..n {
        let src = c.alloc(node, BufLoc::Device, count * 4);
        let dst = c.alloc(node, BufLoc::Device, count * 4);
        c.write(&src, &pattern(node, count));
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst),
        );
    }
    c.host_collective(specs);
    let after = c.node_stats(0);
    assert_eq!(after.collectives_completed, 1);
    assert_eq!(after.driver_calls_completed, 1);
    assert!(after.dmp_instructions > 0);
    assert!(after.tx_jobs > 0);
    assert!(after.rx_messages > 0);
    assert_eq!(after.rx_buffers_free, c.config().cclo.rx_buf_count);
}

#[test]
fn coyote_scratch_and_buffers_are_eagerly_mapped() {
    use accl_core::buffer::{SCRATCH_BASE, SCRATCH_BYTES};
    use accl_mem::{bus::ports, MemAddr, MemChunk, MemReadReq, MemoryBus, PAGE_SIZE};
    use accl_sim::prelude::{Endpoint, Mailbox, SpanId};

    let n = 3;
    let scratch_pages = (SCRATCH_BYTES / PAGE_SIZE) as usize;
    assert_eq!(scratch_pages, 262_144);
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(n));
    let mapped = |c: &AcclCluster, node: usize| {
        c.sim
            .component::<MemoryBus>(c.node(node).bus)
            .tlb_mapped_pages()
    };
    for node in 0..n {
        assert_eq!(mapped(&c, node), Some(scratch_pages), "node {node}");
    }
    // A 4-page host buffer (one byte over three pages) and a 1-page
    // device buffer, each mapped at allocation.
    c.alloc(1, BufLoc::Host, 3 * PAGE_SIZE + 1);
    c.alloc(1, BufLoc::Device, 100);
    assert_eq!(mapped(&c, 0), Some(scratch_pages));
    assert_eq!(mapped(&c, 1), Some(scratch_pages + 5));

    // Device reads at the window's edges and middle take no page fault.
    let bus = c.node(2).bus;
    let sink = c.sim.add("probe", Mailbox::<MemChunk>::new());
    let now = c.sim.now();
    for (tag, addr) in [
        SCRATCH_BASE,
        SCRATCH_BASE + SCRATCH_BYTES / 2 + 123,
        SCRATCH_BASE + SCRATCH_BYTES - 8,
    ]
    .into_iter()
    .enumerate()
    {
        c.sim.post(
            Endpoint::new(bus, ports::READ),
            now,
            MemReadReq {
                addr: MemAddr::Virt(addr),
                len: 8,
                data_to: Endpoint::of(sink),
                done_to: None,
                tag: tag as u64,
                span: SpanId::NONE,
            },
        );
    }
    c.sim.run();
    assert_eq!(c.sim.component::<Mailbox<MemChunk>>(sink).len(), 3);
    let (_, misses, faults) = c.sim.component::<MemoryBus>(bus).tlb_counters().unwrap();
    assert_eq!((misses, faults), (3, 0));
    assert_eq!(mapped(&c, 2), Some(scratch_pages));
}
