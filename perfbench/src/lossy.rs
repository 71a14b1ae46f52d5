//! `lossy_stream`: one long-lived 8-rank Coyote cluster per reliable
//! transport (tcp, rdma) running back-to-back allreduces and bcasts under
//! a fixed fault schedule, golden data checked for every op. Each rank
//! runs the whole stream as one host program, issuing every op as soon as
//! its previous one returns, so the stream fills contiguous simulated time
//! and time-windowed faults land on traffic.
//!
//! The schedule comes from `FaultPlanGen` with the default chaos profile
//! scaled to the stream: the same faults per frame (drops, corruption,
//! duplicates, delays) and per simulated millisecond (degradation windows,
//! and link flaps on the RDMA stream) as the default profile, spread over
//! the whole stream.
//! The schedule and the simulator's own random streams come from
//! [`FAULT_SEED`], not from the workload seed, which picks the fill data
//! only: every seed then runs the same faults, so the stream's simulated
//! latencies and its host work are the same on every seed.
//! Recovery uses the chaos harness's settings: a 30 ms engine watchdog
//! and four driver retries per call.

use accl_core::{
    AcclCluster, AlgoConfig, BufLoc, ClusterConfig, CollOp, RetryPolicy, SyncProto, Transport,
};
use accl_net::{ChaosProfile, FaultPlanGen};
use accl_sim::time::Dur;

use crate::coll::{self, CollCase, Op};
use crate::probe::Span;
use crate::{attr, Opts, Pass};

/// Engine watchdog for the stream, µs (the chaos harness's window).
const WATCHDOG_US: u64 = 30_000;

/// Driver retries per call (the chaos harness's budget).
const RETRIES: u32 = 4;

/// Seed of the fault schedule and of the clusters' simulators.
pub const FAULT_SEED: u64 = 1;

/// Ops per transport and per-rank payload bytes of a full pass. 16 KiB
/// is the largest eager message, so the driver's retries cover every op.
const OPS: u64 = 1000;
const BYTES: u64 = 16 * 1024;

/// Ops and payload of a `--tiny` pass.
const TINY_OPS: u64 = 8;
const TINY_BYTES: u64 = 4 * 1024;

/// Switch frames and simulated nanoseconds one op of the stream takes on
/// a clean fabric, per transport, measured at [`BYTES`] on 8 ranks; they
/// scale the fault budget to the stream.
fn clean_op(transport: Transport) -> (u64, u64) {
    match transport {
        Transport::Rdma => (134, 30_300),
        _ => (378, 30_800),
    }
}

/// The default chaos profile scaled to a stream of `frames` frames over
/// `horizon` of simulated time, at the default profile's densities:
/// per-frame faults per frame, windowed faults per millisecond. Link
/// flaps are left to `flaps`: on TCP an aborted collective leaves later
/// ops of the same stream completing `Ok` with wrong data, so the TCP
/// stream runs without them.
pub fn scaled_profile(nodes: u32, frames: u64, horizon: Dur, flaps: bool) -> ChaosProfile {
    let base = ChaosProfile::default_profile(nodes);
    let per_frame = |n: u32| ((u64::from(n) * frames) / base.horizon_frames).max(1) as u32;
    let per_time = |n: u32| {
        ((u128::from(n) * u128::from(horizon.as_ps())) / u128::from(base.horizon.as_ps())).max(1)
            as u32
    };
    ChaosProfile {
        horizon_frames: frames,
        horizon,
        drops: per_frame(base.drops),
        corrupts: per_frame(base.corrupts),
        duplicates: per_frame(base.duplicates),
        delays: per_frame(base.delays),
        flaps: if flaps { per_time(base.flaps) } else { 0 },
        degradations: per_time(base.degradations),
        ..base
    }
}

/// Runs both transport streams once.
pub fn run(opts: &Opts) -> Pass {
    let mut pass = Pass::default();
    let (ops, bytes, nodes) = if opts.tiny {
        (TINY_OPS, TINY_BYTES, 4)
    } else {
        (OPS, BYTES, 8)
    };
    for (t, transport) in [Transport::Tcp, Transport::Rdma].into_iter().enumerate() {
        let mut cfg = ClusterConfig::coyote_rdma(nodes).with_workers(opts.workers);
        cfg.transport = transport;
        cfg.seed = FAULT_SEED;
        cfg.cclo.collective_timeout_us = Some(WATCHDOG_US);
        let (frames, ns) = clean_op(transport);
        let flaps = transport == Transport::Rdma;
        let profile = scaled_profile(nodes as u32, ops * frames, Dur::from_ns(ops * ns), flaps);
        let plan_seed = FAULT_SEED.wrapping_mul(2).wrapping_add(t as u64);
        let mut c: AcclCluster = pass.probe.time(Span::CoreBuild, || {
            let mut c = AcclCluster::build(cfg);
            if opts.spans {
                attr::enable(&mut c);
            }
            c.set_retry_policy(RetryPolicy::retries(RETRIES));
            // Ring allreduce: every rank transmits from the start, so the
            // schedule has the widest surface to bite.
            c.set_algo_config(AlgoConfig {
                allreduce_ring_min_bytes: 1,
                ..AlgoConfig::default()
            });
            c.set_fault_plan(FaultPlanGen::generate(&profile, plan_seed));
            c
        });
        let stream: Vec<Op> = (0..ops)
            .map(|k| {
                let op = if k % 2 == 0 {
                    CollOp::AllReduce
                } else {
                    CollOp::Bcast
                };
                let case = CollCase {
                    op,
                    bytes,
                    sync: SyncProto::Auto,
                    loc: BufLoc::Device,
                };
                Op::prepare(
                    &mut c,
                    case,
                    opts.seed,
                    (t as u64) << 32 | k,
                    &mut pass.probe,
                )
                .0
            })
            .collect();
        let (samples, span) = coll::run_ops(&mut c, &stream, &mut pass.probe);
        pass.record(&stream, samples, span);
        pass.probe.absorb(&c.sim);
        if opts.spans {
            attr::attribute(&c, FAULT_SEED, &mut pass.sim_attr_ps);
        }
        pass.probe.time(Span::CoreBuild, || drop(c));
    }
    pass
}
