//! Fail-stop fault tolerance end to end: crash a rank mid-allreduce,
//! observe the typed `PeerFailed` error on the survivors, shrink the
//! communicator past the dead node (ULFM-style) and re-run the collective
//! on the survivor group.
//!
//! Run with: `cargo run --example fault_recovery`

use acclplus::sim::prelude::Time;
use acclplus::{
    AcclCluster, AlgoConfig, BufLoc, CclError, ClusterConfig, CollOp, CollSpec, DType, HostOp,
    Transport,
};

fn main() {
    let nodes = 3;
    let count = 2048u64;

    // Coyote shell + TCP offload: the connection-oriented transport is the
    // failure detector — a session whose retransmission ladder runs dry
    // marks its peer dead. Arm the engine watchdog so a stalled collective
    // aborts instead of hanging.
    let mut cfg = ClusterConfig::coyote_rdma(nodes);
    cfg.transport = Transport::Tcp;
    cfg.cclo.collective_timeout_us = Some(30_000);
    let mut cluster = AcclCluster::build(cfg);
    // Ring allreduce, so every rank exchanges data with its neighbours.
    cluster.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });

    // Rank 2 dies 1 µs in — mid-invocation, before the first data frame.
    let dead = 2usize;
    cluster.crash_node(dead, Time::from_us(1));
    println!("== node {dead} will crash at t=1µs ==");

    let per_rank = |cluster: &mut AcclCluster, node: usize, comm: u32| {
        let src = cluster.alloc(node, BufLoc::Device, count * 4);
        let dst = cluster.alloc(node, BufLoc::Device, count * 4);
        let data: Vec<u8> = (0..count as i32)
            .flat_map(|i| (i + node as i32).to_le_bytes())
            .collect();
        cluster.write(&src, &data);
        (
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst)
                .comm(comm),
            dst,
        )
    };

    // --- Attempt 1: the world allreduce hits the crash. -----------------
    let mut specs = Vec::new();
    for node in 0..nodes {
        specs.push(per_rank(&mut cluster, node, 0).0);
    }
    let records = cluster.host_collective(specs);
    let mut failed: Vec<usize> = Vec::new();
    for (rank, rec) in records.iter().enumerate() {
        match rec.result() {
            Ok(()) => println!("rank {rank}: completed (unexpected!)"),
            Err(CclError::PeerFailed(p)) => {
                println!(
                    "rank {rank}: PeerFailed({p}) at t={:?} (watchdog abort + POE diagnosis)",
                    rec.finished
                );
                failed.push(p as usize);
            }
            Err(e) => println!("rank {rank}: {e}"),
        }
    }
    failed.sort_unstable();
    failed.dedup();
    // The survivors name the dead rank; the dead rank ran nothing after
    // its crash, so its own call ends `Crashed`.
    assert!(failed.contains(&dead), "survivors must name the dead rank");
    assert_eq!(records[dead].result(), Err(CclError::Crashed));

    // --- Recovery: shrink the world, reissue on the survivor group. -----
    let world = cluster.communicator(0).unwrap().clone();
    let survivors = world.shrink(1, &[dead]).expect("survivors remain");
    println!(
        "== shrink: communicator 1 over nodes {:?} ==",
        survivors.members()
    );
    cluster.install_communicator(&survivors);

    let mut programs: Vec<Vec<HostOp>> = vec![Vec::new(); nodes];
    let mut dsts = Vec::new();
    for &node in survivors.members() {
        let (spec, dst) = per_rank(&mut cluster, node, 1);
        programs[node] = vec![HostOp::Coll(spec)];
        dsts.push((node, dst));
    }
    let results = cluster.run_host_programs(programs);
    for &(node, dst) in &dsts {
        let rec = &results[node][0];
        rec.result().expect("reissued collective must succeed");
        let expect: Vec<u8> = (0..count as i32)
            .flat_map(|i| {
                survivors
                    .members()
                    .iter()
                    .map(|&m| i + m as i32)
                    .sum::<i32>()
                    .to_le_bytes()
            })
            .collect();
        assert_eq!(cluster.read(&dst), expect, "node {node} result");
        println!(
            "node {node}: reissued allreduce OK at t={:?}, result verified",
            rec.finished
        );
    }
    println!("== recovered: the application survived a fail-stop crash ==");
}
