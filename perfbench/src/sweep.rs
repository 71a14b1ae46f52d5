//! `fig_sweep`: the paper's collective figures, one fresh Coyote cluster
//! per point, each point followed by the software-MPI baseline its figure
//! compares against.
//!
//! The 8-rank grid is a Latin square over {rdma eager, rdma rendezvous,
//! tcp, udp} × {bcast, reduce, allreduce, alltoall} × {1, 8, 64, 1024}
//! KiB: every collective meets every size and every transport meets every
//! size, straddling the 4 KiB MTU and the 16 KiB eager/rendezvous
//! threshold. Beside it: a 4 MiB allreduce, the Fig. 12 reduce rank sweep
//! and two host-data allreduce points.

use accl_core::{AcclCluster, BufLoc, ClusterConfig, CollOp, SyncProto, Transport};
use accl_swmpi::MpiConfig;

use crate::coll::{self, CollCase, Op};
use crate::probe::Span;
use crate::stats::OpOutcome;
use crate::{attr, Opts, Pass};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// One point of the sweep.
#[derive(Debug, Clone, Copy)]
struct Point {
    ranks: usize,
    transport: Transport,
    case: CollCase,
}

fn points(tiny: bool) -> Vec<Point> {
    let transports = [
        (Transport::Rdma, SyncProto::Eager),
        (Transport::Rdma, SyncProto::Rendezvous),
        (Transport::Tcp, SyncProto::Auto),
        (Transport::Udp, SyncProto::Auto),
    ];
    let ops = [
        CollOp::Bcast,
        CollOp::Reduce,
        CollOp::AllReduce,
        CollOp::AllToAll,
    ];
    let sizes = if tiny {
        [KIB, 2 * KIB, 4 * KIB, 8 * KIB]
    } else {
        [KIB, 8 * KIB, 64 * KIB, MIB]
    };
    let ranks = if tiny { 4 } else { 8 };
    let point = |ranks, transport, op, bytes, sync, loc| Point {
        ranks,
        transport,
        case: CollCase {
            op,
            bytes,
            sync,
            loc,
        },
    };
    let mut out = Vec::new();
    for (t, &(transport, sync)) in transports.iter().enumerate() {
        for (o, &op) in ops.iter().enumerate() {
            let bytes = sizes[(t + sizes.len() - 1 - o) % sizes.len()];
            out.push(point(ranks, transport, op, bytes, sync, BufLoc::Device));
        }
    }
    let (big, sweep_bytes, host_sizes) = if tiny {
        (16 * KIB, 4 * KIB, [4 * KIB, 16 * KIB])
    } else {
        (4 * MIB, 64 * KIB, [64 * KIB, MIB])
    };
    let rdma = Transport::Rdma;
    out.push(point(
        ranks,
        rdma,
        CollOp::AllReduce,
        big,
        SyncProto::Auto,
        BufLoc::Device,
    ));
    let rank_sweep: &[usize] = if tiny { &[2, 4] } else { &[2, 4, 8, 16] };
    for &n in rank_sweep {
        out.push(point(
            n,
            rdma,
            CollOp::Reduce,
            sweep_bytes,
            SyncProto::Auto,
            BufLoc::Device,
        ));
    }
    for bytes in host_sizes {
        out.push(point(
            ranks,
            rdma,
            CollOp::AllReduce,
            bytes,
            SyncProto::Auto,
            BufLoc::Host,
        ));
    }
    out
}

/// Runs the sweep once.
pub fn run(opts: &Opts) -> Pass {
    let mut pass = Pass::default();
    for (salt, p) in points(opts.tiny).iter().enumerate() {
        let salt = salt as u64;
        let mut cfg = ClusterConfig::coyote_rdma(p.ranks).with_workers(opts.workers);
        cfg.transport = p.transport;
        cfg.seed = opts.seed;
        let mut c: AcclCluster = pass.probe.time(Span::CoreBuild, || {
            let mut c = AcclCluster::build(cfg);
            if opts.spans {
                attr::enable(&mut c);
            }
            c
        });
        let (op, inputs) = Op::prepare(&mut c, p.case, opts.seed, salt, &mut pass.probe);
        let (samples, span) = coll::run_ops(&mut c, std::slice::from_ref(&op), &mut pass.probe);
        pass.record(std::slice::from_ref(&op), samples, span);
        pass.probe.absorb(&c.sim);
        if opts.spans {
            attr::attribute(&c, opts.seed, &mut pass.sim_attr_ps);
        }
        pass.probe.time(Span::CoreBuild, || drop(c));

        let mpi = match p.transport {
            Transport::Rdma => MpiConfig::openmpi_rdma(),
            Transport::Tcp | Transport::Udp => MpiConfig::mpich_tcp(),
        };
        let ok = coll::mpi_baseline(&op, &inputs, mpi, opts.seed, &mut pass.probe);
        pass.baseline_outcomes
            .push(if ok { OpOutcome::Ok } else { OpOutcome::Wrong });
    }
    pass
}
