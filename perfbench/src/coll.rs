//! Collective ops on a simulated cluster, checked against CPU-computed
//! golden data: seeded inputs, buffer set-up, closed-loop runs of
//! back-to-back collectives on every rank, and the per-rank verdicts.

use accl_core::{
    AcclCluster, BufLoc, BufferHandle, CollOp, CollSpec, DType, HostOp, ReduceFn, SyncProto,
};
use accl_swmpi::{MpiCall, MpiCluster, MpiConfig};

use crate::probe::{Probe, Span};
use crate::stats::OpOutcome;

/// One collective call as a rank's caller sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSample {
    /// Simulated time from the call to its return, picoseconds; `None`
    /// unless the op completed `Ok` with golden data.
    pub latency_ps: Option<u64>,
    /// Per-rank message size, bytes (the x-axis of the paper's figures).
    pub bytes: u64,
    /// The benchmark's verdict.
    pub outcome: OpOutcome,
}

/// What one collective moves and where its buffers live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollCase {
    /// The collective (root 0 where it has one).
    pub op: CollOp,
    /// Per-rank message size, bytes (a multiple of 4).
    pub bytes: u64,
    /// Eager / rendezvous selection.
    pub sync: SyncProto,
    /// Device or host memory.
    pub loc: BufLoc,
}

impl CollCase {
    /// Blocks per buffer: one per peer for alltoall, else one.
    fn blocks(&self, ranks: usize) -> u64 {
        if self.op == CollOp::AllToAll {
            ranks as u64
        } else {
            1
        }
    }

    /// Bytes of output that crossed the fabric to reach the ranks that
    /// verify them: the numerator of `net.useful_byte_ratio`.
    pub fn useful_bytes(&self, ranks: usize) -> u64 {
        let n = ranks as u64;
        match self.op {
            CollOp::Bcast => (n - 1) * self.bytes,
            CollOp::Reduce => self.bytes,
            CollOp::AllReduce => n * self.bytes,
            CollOp::AllToAll => n * (n - 1) * self.bytes,
            _ => 0,
        }
    }
}

/// Seeded inputs for op `salt` of a run: an affine i32 stream per rank,
/// cheap enough that multi-megabyte fills stay a small share of set-up,
/// different for every (seed, salt, rank).
fn input(case: &CollCase, ranks: usize, seed: u64, salt: u64, rank: usize) -> Vec<u8> {
    let mix = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add((rank as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
    let (a, b) = ((mix >> 33) as u32 | 1, (mix >> 7) as u32);
    let count = case.bytes / 4 * case.blocks(ranks);
    (0..count as u32)
        .flat_map(|i| i.wrapping_mul(a).wrapping_add(b).to_le_bytes())
        .collect()
}

fn i32_sum(bufs: &[Vec<u8>]) -> Vec<u8> {
    let mut acc = bufs[0].clone();
    for b in &bufs[1..] {
        for (dst, src) in acc.chunks_exact_mut(4).zip(b.chunks_exact(4)) {
            let s = i32::from_le_bytes(dst.try_into().expect("4-byte chunk"))
                .wrapping_add(i32::from_le_bytes(src.try_into().expect("4-byte chunk")));
            dst.copy_from_slice(&s.to_le_bytes());
        }
    }
    acc
}

/// The expected output per rank, computed on the CPU from the inputs.
/// Bcast copies the root's buffer; reduce and allreduce sum every rank's
/// input; in alltoall rank `r`'s output block `j` is rank `j`'s input
/// block `r`.
fn golden(case: &CollCase, per_rank: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
    let ranks = per_rank.len();
    let block = case.bytes as usize;
    match case.op {
        CollOp::Bcast => vec![Some(per_rank[0].clone()); ranks],
        CollOp::Reduce => {
            let mut g = vec![None; ranks];
            g[0] = Some(i32_sum(per_rank));
            g
        }
        CollOp::AllReduce => vec![Some(i32_sum(per_rank)); ranks],
        CollOp::AllToAll => (0..ranks)
            .map(|r| {
                Some(
                    per_rank
                        .iter()
                        .flat_map(|src| &src[r * block..(r + 1) * block])
                        .copied()
                        .collect(),
                )
            })
            .collect(),
        other => panic!("collective {other:?} is not part of the benchmark"),
    }
}

/// One collective ready to run: its per-rank buffers, already holding
/// the inputs, and the output each rank must end up with.
pub struct Op {
    case: CollCase,
    /// Per-rank (src, dst) buffers.
    bufs: Vec<(BufferHandle, BufferHandle)>,
    /// Per-rank expected output; `None` where the op leaves it undefined.
    golden: Vec<Option<Vec<u8>>>,
}

impl Op {
    /// Generates op `salt`'s inputs, allocates and fills its buffers on
    /// every rank (set-up) and computes the golden outputs (checks).
    /// Returns the op and every rank's input bytes.
    pub fn prepare(
        c: &mut AcclCluster,
        case: CollCase,
        seed: u64,
        salt: u64,
        probe: &mut Probe,
    ) -> (Op, Vec<Vec<u8>>) {
        let ranks = c.len();
        let len = case.bytes * case.blocks(ranks);
        let (bufs, inputs) = probe.time(Span::MemFill, || {
            let inputs: Vec<Vec<u8>> = (0..ranks)
                .map(|r| input(&case, ranks, seed, salt, r))
                .collect();
            let bufs = (0..ranks)
                .map(|r| {
                    let src = c.alloc(r, case.loc, len);
                    let dst = c.alloc(r, case.loc, len);
                    // Bcast works in place on dst; the root provides it.
                    match case.op {
                        CollOp::Bcast if r == 0 => c.write(&dst, &inputs[0]),
                        CollOp::Bcast => {}
                        _ => c.write(&src, &inputs[r]),
                    }
                    (src, dst)
                })
                .collect();
            (bufs, inputs)
        });
        let golden = probe.time(Span::Check, || golden(&case, &inputs));
        (Op { case, bufs, golden }, inputs)
    }

    fn spec(&self, rank: usize) -> CollSpec {
        let (src, dst) = self.bufs[rank];
        let spec = CollSpec::new(self.case.op, self.case.bytes / 4, DType::I32)
            .sync(self.case.sync)
            .dst(dst);
        if self.case.op == CollOp::Bcast {
            spec
        } else {
            spec.src(src)
        }
    }

    /// Per-rank output bytes that crossed the fabric to reach the ranks
    /// that verify them: the numerator of `net.useful_byte_ratio`.
    pub fn useful_bytes(&self) -> u64 {
        self.case.useful_bytes(self.bufs.len())
    }
}

/// Runs `ops` back to back on every rank (closed loop: each rank issues
/// op `k + 1` when op `k` returns) and judges every rank's result of every
/// op against the golden output. Returns the samples op by op, rank by
/// rank, and the simulated time from the first call to the last return.
pub fn run_ops(c: &mut AcclCluster, ops: &[Op], probe: &mut Probe) -> (Vec<OpSample>, u64) {
    let ranks = c.len();
    let records = probe.time(Span::CoreRun, || {
        let programs = (0..ranks)
            .map(|r| ops.iter().map(|op| HostOp::Coll(op.spec(r))).collect())
            .collect();
        c.try_run_host_programs(programs)
    });
    probe.after_run(&c.sim);
    let Ok(records) = records else {
        let wedged = ops.iter().flat_map(|op| {
            (0..ranks).map(|_| OpSample {
                latency_ps: None,
                bytes: op.case.bytes,
                outcome: OpOutcome::Wedged,
            })
        });
        return (wedged.collect(), 0);
    };
    let first = records.iter().map(|r| r[0].started).min();
    let last = records
        .iter()
        .filter_map(|r| r.last())
        .map(|r| r.finished)
        .max();
    let span = match (first, last) {
        (Some(a), Some(b)) => b.since(a).as_ps(),
        _ => 0,
    };
    let mut samples = Vec::with_capacity(ops.len() * ranks);
    for (k, op) in ops.iter().enumerate() {
        for (r, rank_records) in records.iter().enumerate() {
            let rec = rank_records[k];
            let outcome = match (rec.result(), &op.golden[r]) {
                (Err(_), _) => OpOutcome::Failed,
                (Ok(()), None) => OpOutcome::Ok,
                (Ok(()), Some(expect)) => {
                    let got = probe.time(Span::MemRead, || c.read(&op.bufs[r].1));
                    if probe.time(Span::Check, || got == *expect) {
                        OpOutcome::Ok
                    } else {
                        OpOutcome::Wrong
                    }
                }
            };
            samples.push(OpSample {
                latency_ps: (outcome == OpOutcome::Ok)
                    .then(|| rec.finished.since(rec.started).as_ps()),
                bytes: op.case.bytes,
                outcome,
            });
        }
    }
    (samples, span)
}

/// Runs the software-MPI baseline on the same inputs and checks its
/// output. The baseline's bcast is a timing model that carries the root's
/// output buffer, so there every rank must simply agree with the root.
pub fn mpi_baseline(
    op: &Op,
    inputs: &[Vec<u8>],
    cfg: MpiConfig,
    seed: u64,
    probe: &mut Probe,
) -> bool {
    let case = &op.case;
    let ranks = inputs.len();
    let m = probe.time(Span::Swmpi, || {
        let calls: Vec<MpiCall> = inputs
            .iter()
            .map(|src| MpiCall {
                op: case.op,
                count: case.bytes / 4,
                dtype: DType::I32,
                root: 0,
                func: ReduceFn::Sum,
                src: src.clone(),
                dst_len: (case.bytes * case.blocks(ranks)) as usize,
            })
            .collect();
        let mut m = MpiCluster::build(ranks, cfg, seed);
        m.collective(calls);
        m
    });
    probe.absorb(&m.sim);
    probe.time(Span::Check, || {
        let root = m.dst(0);
        (0..ranks).all(|r| match (case.op, &op.golden[r]) {
            (CollOp::Bcast, _) => m.dst(r) == root,
            (_, None) => true,
            (_, Some(g)) => m.dst(r) == *g,
        })
    })
}
