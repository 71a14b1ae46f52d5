//! The distributed DLRM inference pipeline on 10 simulated FPGAs (Fig. 15).
//!
//! Mapping (paper §6.1, with our 0-based node ids):
//!
//! - **Nodes 0–3** — embedding nodes: each holds 25 tables (an 800-dim
//!   slice of the concatenated vector) and the FC1 checkerboard block for
//!   row group A of its column. Per inference they stream their 3.2 KB
//!   partial embedding vector and their 4 KB FC1 partial to the partner.
//! - **Nodes 4–7** — combine nodes: compute the row-group-B block for
//!   their column, concatenate with the received partial (8 KB full-height
//!   column partial) and chain-reduce across columns.
//! - **Node 8** — FC2; **node 9** — FC3 and final output.
//!
//! All inter-node traffic uses ACCL+ streaming collectives (send/recv over
//! the XRT + TCP configuration the paper used for this case). Kernel
//! compute is charged at the DLRM design's 115 MHz clock; the data on the
//! wire is the *real* fixed-point intermediate values, verified against the
//! reference model at every hop after the run.

use bytes::Bytes;

use accl_core::driver::CollSpec;
use accl_core::kernel::KernelOp;
use accl_core::{AcclCluster, CcloConfig, ClusterConfig, CollOp, DType};
use accl_linalg::dense::fx;
use accl_sim::prelude::*;
use accl_sim::trace::{SpanEventKind, SpanId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::model::{DlrmConfig, DlrmModel, PipelineTrace};

/// Tags for the pipeline's message classes.
mod tag {
    /// Partial embedding vector (3.2 KB).
    pub const X: u64 = 1;
    /// FC1 row-group-A partial (4 KB).
    pub const PA: u64 = 2;
    /// Chain-reduction value (8 KB).
    pub const CHAIN: u64 = 3;
    /// FC2 output (2 KB).
    pub const FC2: u64 = 4;
}

/// FPGA kernel timing for the DLRM design.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DlrmTiming {
    /// Achieved clock of the DLRM design (115 MHz per §6.2).
    pub clock_mhz: f64,
    /// Multiply-accumulate lanes per node's FC block. Table 3's DLRM rows
    /// put ~6.5 k DSPs per FC1 node; 4096 models realistic packing.
    pub macs_per_cycle: u64,
    /// HBM random-access latency per embedding lookup, ns.
    pub lookup_ns: u64,
    /// Concurrent outstanding lookups (HBM pseudo-channels).
    pub lookup_parallelism: u64,
}

impl Default for DlrmTiming {
    fn default() -> Self {
        DlrmTiming {
            clock_mhz: 115.0,
            macs_per_cycle: 4096,
            lookup_ns: 250,
            lookup_parallelism: 8,
        }
    }
}

impl DlrmTiming {
    /// Time for a `rows × cols` fixed-point GEMV on one node.
    pub fn gemv(&self, rows: usize, cols: usize) -> Dur {
        let cycles = ((rows * cols) as u64).div_ceil(self.macs_per_cycle);
        Dur::for_cycles(cycles, self.clock_mhz)
    }

    /// Time for `n` embedding lookups.
    pub fn lookups(&self, n: usize) -> Dur {
        Dur::from_ns(n as u64 * self.lookup_ns / self.lookup_parallelism)
    }

    /// Time for an elementwise add of `n` fixed-point values (16/cycle).
    pub fn vec_add(&self, n: usize) -> Dur {
        Dur::for_cycles((n as u64).div_ceil(16), self.clock_mhz)
    }
}

/// Result of a pipeline run.
pub struct PipelineResult {
    /// Completion time of each inference (at the FC3 node).
    pub done_at: Vec<Time>,
    /// Number of verified hops (messages whose contents matched the
    /// reference trace).
    pub verified_messages: usize,
    /// Per-node time per inference over the run's steady-state middle
    /// half, indexed by node id.
    pub split: Vec<NodeSplit>,
}

/// Where one node's time goes per inference, µs. A kernel program runs one
/// op at a time, so `compute_us + wait_us` is the node's initiation
/// interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSplit {
    /// Kernel `Compute` time.
    pub compute_us: f64,
    /// Kernel time blocked in `Expect` or `Finalize`.
    pub wait_us: f64,
    /// The node's engine uC; `None` unless the run recorded spans.
    pub uc: Option<UcSplit>,
}

/// A node's uC calls per inference, µs. The uC runs one call at a time,
/// so `calls_us` is its occupancy; `rx_wait_us` is the part of it spent
/// on messages an upstream node had not delivered yet, and the rest is
/// the engine's own work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UcSplit {
    /// Summed `uc.call` durations.
    pub calls_us: f64,
    /// The part of `calls_us` receives spent waiting for a message that
    /// had not arrived yet.
    pub rx_wait_us: f64,
}

impl PipelineResult {
    /// Single-inference latency, µs (time to first completion).
    pub fn latency_us(&self) -> f64 {
        self.done_at.first().map_or(f64::NAN, |t| t.as_us_f64())
    }

    /// Steady-state throughput over the run, inferences/second.
    pub fn throughput(&self) -> f64 {
        if self.done_at.len() < 2 {
            return f64::NAN;
        }
        let first = self.done_at[0];
        let last = *self.done_at.last().unwrap();
        (self.done_at.len() - 1) as f64 / last.since(first).as_secs_f64()
    }
}

/// Builds and runs the 10-node pipeline for `inferences` back-to-back
/// inferences of `model`.
///
/// # Panics
///
/// Panics if any transported message deviates from the reference trace —
/// the run doubles as an end-to-end data-integrity check.
pub fn run_pipeline(model: &DlrmModel, timing: DlrmTiming, inferences: usize) -> PipelineResult {
    run_pipeline_observed(model, timing, inferences, 1, &PipelineObserve::default()).0
}

/// Observability knobs for [`run_pipeline_observed`]: span tracing and
/// windowed metrics, both off by default (the plain pipeline entry points
/// run unobserved and unchanged).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineObserve {
    /// Span-ring capacity; zero leaves tracing off.
    pub span_capacity: usize,
    /// Fixed sim-time metric window width; `None` leaves windowing off.
    pub metric_window: Option<Dur>,
}

/// [`run_pipeline`] with observability enabled, returning the finished
/// cluster alongside the result so callers (the `accl-obs` trace dump,
/// SLO reports) can read the span stream and metric windows.
///
/// `_workers` is ignored: the simulator runs one sequential event loop.
/// The parameter is kept only for the `perfbench` benchmark, which still
/// passes a worker count.
#[allow(clippy::needless_range_loop)] // node indices address several parallel arrays
pub fn run_pipeline_observed(
    model: &DlrmModel,
    timing: DlrmTiming,
    inferences: usize,
    _workers: usize,
    observe: &PipelineObserve,
) -> (PipelineResult, AcclCluster) {
    let cfg = model.cfg;
    assert_eq!(cfg.fc1_row_groups, 2, "Fig. 15 mapping uses two row groups");
    let cols = cfg.fc1_col_groups;
    let nodes = 2 * cols + 2;
    let fc2_node = 2 * cols; // node 8
    let fc3_node = 2 * cols + 1; // node 9

    let traces = model.pipeline_traces(inferences);

    let cclo_cfg = CcloConfig {
        clock_mhz: timing.clock_mhz,
        // The host driver sizes the eager Rx pool for the workload:
        // the pipeline's producers run ahead of consumers, so each
        // engine needs enough (small) buffers for the in-flight window
        // — 3 messages per in-flight inference, 8 KB max each.
        rx_buf_count: (3 * inferences as u32 + 8).max(16),
        rx_buf_bytes: 32 << 10,
        ..CcloConfig::default()
    };
    let mut cluster = AcclCluster::build(ClusterConfig {
        cclo: cclo_cfg,
        ..ClusterConfig::xrt_tcp(nodes)
    });
    if observe.span_capacity > 0 {
        cluster.enable_tracing(observe.span_capacity);
    }
    if let Some(width) = observe.metric_window {
        cluster.enable_metric_windows(width);
    }

    let Programs {
        ops,
        shapes,
        fc3_computes,
    } = node_programs(&cfg, timing, &traces);

    let t0 = cluster.sim.now();
    let kernels = cluster.run_kernel_programs(ops);

    // Verify every transported message against the reference trace.
    let mut verified = 0usize;
    let mut verify = |node: usize, expect: Vec<&[i32]>| {
        let got = cluster.kernel(kernels[node]).received_msgs();
        assert_eq!(got.len(), expect.len(), "node {node} message count");
        for (g, e) in got.iter().zip(expect) {
            assert!(carries(g, e), "node {node} payload mismatch");
            verified += 1;
        }
    };
    for c in 0..cols {
        let mut expect: Vec<&[i32]> = Vec::new();
        for tr in &traces {
            expect.push(&tr.embed_slices[c]);
            expect.push(&tr.fc1_partials[0][c]);
            if c > 0 {
                expect.push(&tr.chain[c - 1]);
            }
        }
        verify(cols + c, expect);
    }
    verify(
        fc2_node,
        traces.iter().map(|tr| &tr.chain[cols - 1][..]).collect(),
    );
    verify(fc3_node, traces.iter().map(|tr| &tr.fc2_out[..]).collect());

    // Each inference completes at its FC3 `Compute`'s expiry.
    let fc3_times = cluster.kernel(kernels[fc3_node]).op_times();
    let done_at: Vec<Time> = fc3_computes
        .iter()
        .map(|&i| op_time(fc3_times, t0, i + 1))
        .collect();
    assert!(
        done_at.windows(2).all(|w| w[0] < w[1]),
        "inference completions out of order"
    );

    // Each node's split over the steady-state middle half of the run.
    let window = inferences / 4..inferences - inferences / 4;
    let uc_calls = uc_calls(&cluster, nodes, &cclo_cfg);
    let split = (0..nodes)
        .map(|node| {
            node_split(
                cluster.kernel(kernels[node]).op_times(),
                t0,
                &shapes[node],
                window.clone(),
                uc_calls.as_ref().map(|calls| &calls[node][..]),
            )
        })
        .collect();
    (
        PipelineResult {
            done_at,
            verified_messages: verified,
            split,
        },
        cluster,
    )
}

/// The node programs of one run, with the op indices its results are
/// read from.
struct Programs {
    /// One kernel program per node.
    ops: Vec<Vec<KernelOp>>,
    /// The kinds of one inference's ops, per node: every inference's ops
    /// have the same shape, so inference k's op `j` is op
    /// `k * shape.len() + j` of the program.
    shapes: Vec<Vec<OpKind>>,
    /// Op index of each inference's FC3 `Compute`: its expiry completes
    /// the inference.
    fc3_computes: Vec<usize>,
}

/// Builds the Fig. 15 mapping's kernel programs for `traces`, one
/// inference after another.
#[allow(clippy::needless_range_loop)] // node indices address several parallel arrays
fn node_programs(cfg: &DlrmConfig, timing: DlrmTiming, traces: &[PipelineTrace]) -> Programs {
    let cols = cfg.fc1_col_groups;
    let nodes = 2 * cols + 2;
    let fc2_node = 2 * cols; // node 8
    let fc3_node = 2 * cols + 1; // node 9
    let slice_elems = cfg.concat_len() / cols;
    let part_elems = cfg.fc_dims[0] / 2;
    let full_elems = cfg.fc_dims[0];
    let fc2_elems = cfg.fc_dims[1];
    let inferences = traces.len();

    let send = |to: usize, elems: usize, t: u64| {
        KernelOp::Issue(
            CollSpec::new(CollOp::Send, elems as u64, DType::Fx32)
                .root(to as u32)
                .tag(t),
        )
    };
    let recv = |from: usize, elems: usize, t: u64| {
        KernelOp::Issue(
            CollSpec::new(CollOp::Recv, elems as u64, DType::Fx32)
                .root(from as u32)
                .tag(t),
        )
    };
    let push = |v: &[i32]| KernelOp::Push(Bytes::from(fx::to_bytes(v)));

    // Every receiving node is a streaming kernel: it issues all of one
    // inference's receives up front and consumes each operand with a
    // cumulative `Expect` as it streams in, so the engine queues the next
    // receive while the kernel computes. Programs finalize only at the end.
    let mut programs: Vec<Vec<KernelOp>> = vec![Vec::new(); nodes];
    let mut fc3_computes = Vec::with_capacity(inferences);
    // Stream-out bytes each node has consumed so far.
    let mut consumed = vec![0u64; nodes];
    for tr in traces {
        // Embedding nodes 0..cols.
        for c in 0..cols {
            let p = &mut programs[c];
            let partner = cols + c;
            p.push(KernelOp::Compute(timing.lookups(cfg.tables / cols)));
            p.push(send(partner, slice_elems, tag::X));
            p.push(push(&tr.embed_slices[c]));
            p.push(KernelOp::Compute(timing.gemv(part_elems, slice_elems)));
            p.push(send(partner, part_elems, tag::PA));
            p.push(push(&tr.fc1_partials[0][c]));
        }
        // Combine nodes cols..2*cols.
        for c in 0..cols {
            let node = cols + c;
            let p = &mut programs[node];
            let mut expect = |elems: usize| {
                consumed[node] += 4 * elems as u64;
                KernelOp::Expect(consumed[node])
            };
            p.push(recv(c, slice_elems, tag::X));
            p.push(recv(c, part_elems, tag::PA));
            if c > 0 {
                p.push(recv(node - 1, full_elems, tag::CHAIN));
            }
            p.push(expect(slice_elems));
            p.push(KernelOp::Compute(timing.gemv(part_elems, slice_elems)));
            p.push(expect(part_elems));
            if c > 0 {
                p.push(expect(full_elems));
                p.push(KernelOp::Compute(timing.vec_add(full_elems)));
            }
            let next = if c + 1 < cols { node + 1 } else { fc2_node };
            p.push(send(next, full_elems, tag::CHAIN));
            p.push(push(&tr.chain[c]));
        }
        // FC2 node.
        {
            let p = &mut programs[fc2_node];
            consumed[fc2_node] += 4 * full_elems as u64;
            p.push(recv(2 * cols - 1, full_elems, tag::CHAIN));
            p.push(KernelOp::Expect(consumed[fc2_node]));
            p.push(KernelOp::Compute(timing.gemv(fc2_elems, full_elems)));
            p.push(send(fc3_node, fc2_elems, tag::FC2));
            p.push(push(&tr.fc2_out));
        }
        // FC3 node.
        {
            let p = &mut programs[fc3_node];
            consumed[fc3_node] += 4 * fc2_elems as u64;
            p.push(recv(fc2_node, fc2_elems, tag::FC2));
            p.push(KernelOp::Expect(consumed[fc3_node]));
            fc3_computes.push(p.len());
            p.push(KernelOp::Compute(timing.gemv(cfg.fc_dims[2], fc2_elems)));
        }
    }
    let shapes: Vec<Vec<OpKind>> = programs
        .iter()
        .map(|p| {
            let per = p.len() / inferences.max(1);
            assert_eq!(per * inferences, p.len(), "inferences differ in shape");
            p[..per].iter().map(OpKind::of).collect()
        })
        .collect();
    for p in &mut programs {
        p.push(KernelOp::Finalize);
    }
    Programs {
        ops: programs,
        shapes,
        fc3_computes,
    }
}

/// When op `i` of a kernel program starts: the completion of op `i - 1`,
/// or the program start `t0` for the first op. `times` are the kernel's
/// `(op index, completion)` pairs.
fn op_time(times: &[(usize, Time)], t0: Time, i: usize) -> Time {
    match i.checked_sub(1) {
        None => t0,
        Some(prev) => {
            let at = times
                .binary_search_by_key(&prev, |&(idx, _)| idx)
                .unwrap_or_else(|_| panic!("kernel op {prev} never completed"));
            times[at].1
        }
    }
}

/// What a kernel op does with the kernel's time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// `Compute`: busy.
    Compute,
    /// `Issue`: no kernel time, one engine call.
    Issue,
    /// `Expect` or `Finalize` wait; `Push` takes no kernel time.
    Wait,
}

impl OpKind {
    fn of(op: &KernelOp) -> OpKind {
        match op {
            KernelOp::Compute(_) => OpKind::Compute,
            KernelOp::Issue(_) => OpKind::Issue,
            KernelOp::Push(_) | KernelOp::Expect(_) | KernelOp::Finalize => OpKind::Wait,
        }
    }
}

/// One node's [`NodeSplit`] over the inferences `window`, from its kernel's
/// op timeline and the `shape` of one inference's ops. A kernel runs one
/// op at a time, so each op's time since the previous op's completion is
/// either compute or a wait. The node's uC ran the calls those ops
/// issued, in issue order.
fn node_split(
    times: &[(usize, Time)],
    t0: Time,
    shape: &[OpKind],
    window: std::ops::Range<usize>,
    uc_calls: Option<&[UcCall]>,
) -> NodeSplit {
    let n = shape.len();
    let (mut compute, mut wait) = (Dur::ZERO, Dur::ZERO);
    for i in window.start * n..window.end * n {
        let spent = op_time(times, t0, i + 1).since(op_time(times, t0, i));
        if shape[i % n] == OpKind::Compute {
            compute += spent;
        } else {
            wait += spent;
        }
    }
    let per = |d: Dur| d.as_us_f64() / window.len().max(1) as f64;
    let issues = shape.iter().filter(|&&k| k == OpKind::Issue).count();
    NodeSplit {
        compute_us: per(compute),
        wait_us: per(wait),
        uc: uc_calls.map(|calls| {
            let calls = &calls[window.start * issues..window.end * issues];
            let sum = |f: fn(&UcCall) -> Dur| per(calls.iter().fold(Dur::ZERO, |s, c| s + f(c)));
            UcSplit {
                calls_us: sum(|c| c.end.since(c.begin)),
                rx_wait_us: sum(|c| c.rx_wait),
            }
        }),
    }
}

/// One `uc.call` span.
struct UcCall {
    begin: Time,
    end: Time,
    /// Time the call's receives spent waiting for their messages to
    /// arrive.
    rx_wait: Dur,
}

/// Each node's `uc.call` spans in call order, when the run recorded
/// spans. A receive's `dmp.instr` queries the RBM one decode after it
/// starts, and the RBM begins its `rbm.msg` readout one poll quantum
/// after the later of the query and the message's arrival, so any excess
/// of the readout's start over that is the wait for the message.
fn uc_calls(cluster: &AcclCluster, nodes: usize, cfg: &CcloConfig) -> Option<Vec<Vec<UcCall>>> {
    if !cluster.sim.spans_enabled() {
        return None;
    }
    assert_eq!(cluster.sim.spans_dropped(), 0, "span ring overflowed");
    let engine_latency = cfg.cycles(cfg.dmp_instr_cycles) + cfg.cycles(cfg.rbm_poll_cycles);
    let node_of: BTreeMap<ComponentId, usize> =
        (0..nodes).map(|i| (cluster.node(i).cclo.uc, i)).collect();
    // Open calls by span id, and each `dmp.instr`'s start and call.
    let mut open: BTreeMap<SpanId, (usize, UcCall)> = BTreeMap::new();
    let mut instrs: BTreeMap<SpanId, (Time, SpanId)> = BTreeMap::new();
    let mut calls: Vec<Vec<UcCall>> = (0..nodes).map(|_| Vec::new()).collect();
    for e in cluster.sim.span_events() {
        match (e.kind, e.name) {
            (SpanEventKind::Begin, "uc.call") => {
                let node = node_of[&e.comp];
                let call = UcCall {
                    begin: e.time,
                    end: e.time,
                    rx_wait: Dur::ZERO,
                };
                open.insert(e.id, (node, call));
            }
            (SpanEventKind::Begin, "dmp.instr") => {
                instrs.insert(e.id, (e.time, e.parent));
            }
            (SpanEventKind::Begin, "rbm.msg") => {
                if let Some(&(start, call)) = instrs.get(&e.parent) {
                    if let Some((_, c)) = open.get_mut(&call) {
                        c.rx_wait += e.time.since(start + engine_latency);
                    }
                }
            }
            (SpanEventKind::End, _) => {
                if let Some((node, mut call)) = open.remove(&e.id) {
                    call.end = e.time;
                    calls[node].push(call);
                }
            }
            _ => {}
        }
    }
    Some(calls)
}

/// Whether `msg` is `v` serialized as [`fx::to_bytes`] would, compared in
/// place.
fn carries(msg: &[u8], v: &[i32]) -> bool {
    msg.len() == 4 * v.len()
        && msg
            .chunks_exact(4)
            .zip(v)
            .all(|(b, x)| *b == x.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DlrmConfig;

    fn small_model() -> DlrmModel {
        DlrmModel::generate(
            DlrmConfig {
                tables: 16,
                embed_dim: 8,
                rows_per_table: 64,
                fc_dims: [64, 32, 16],
                fc1_row_groups: 2,
                fc1_col_groups: 4,
            },
            11,
        )
    }

    #[test]
    fn small_pipeline_runs_and_verifies() {
        let m = small_model();
        let r = run_pipeline(&m, DlrmTiming::default(), 3);
        assert_eq!(r.done_at.len(), 3);
        // Monotone completions.
        assert!(r.done_at.windows(2).all(|w| w[0] < w[1]));
        // x, pa per inference on 4 nodes + chain on 3 + fc1/fc2 hops.
        assert!(r.verified_messages >= 3 * (2 * 4 + 3 + 2));
    }

    #[test]
    fn completions_are_the_fc3_compute_expiries() {
        let m = small_model();
        let n = 5;
        let (r, cluster) =
            run_pipeline_observed(&m, DlrmTiming::default(), n, 1, &PipelineObserve::default());
        assert_eq!(r.done_at.len(), n, "one completion per inference");
        assert!(r.done_at.windows(2).all(|w| w[0] < w[1]), "monotone");
        // The FC3 node's program, rebuilt, and its kernel's op timeline.
        let fc3 = 2 * m.cfg.fc1_col_groups + 1;
        let programs = node_programs(&m.cfg, DlrmTiming::default(), &m.pipeline_traces(n));
        let kernel = (0..cluster.sim.component_count())
            .map(ComponentId::from_index)
            .find(|&id| cluster.sim.name(id).starts_with(&format!("n{fc3}.kernel.")))
            .expect("the FC3 node runs a kernel");
        let compute_ends: Vec<Time> = cluster
            .kernel(kernel)
            .op_times()
            .iter()
            .filter(|&&(i, _)| matches!(programs.ops[fc3][i], KernelOp::Compute(_)))
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(r.done_at, compute_ends);
    }

    #[test]
    fn pipelining_beats_serial_latency() {
        let m = small_model();
        let single = run_pipeline(&m, DlrmTiming::default(), 1);
        let many = run_pipeline(&m, DlrmTiming::default(), 8);
        let latency = single.latency_us();
        let inter_completion = many.done_at[7].since(many.done_at[1]).as_us_f64() / 6.0;
        // Steady-state initiation interval is far below one latency.
        assert!(
            inter_completion < latency * 0.8,
            "II={inter_completion}us latency={latency}us"
        );
    }

    #[test]
    fn carries_matches_only_the_serialized_values() {
        let v = [0, -1, 1 << 16, i32::MIN];
        let bytes = fx::to_bytes(&v);
        assert!(carries(&bytes, &v));
        let mut flipped = bytes.clone();
        flipped[9] ^= 1;
        assert!(!carries(&flipped, &v));
        assert!(!carries(&bytes[..12], &v));
        assert!(!carries(&bytes, &v[..3]));
        assert!(carries(&[], &[]));
    }

    #[test]
    fn timing_helpers_scale() {
        let t = DlrmTiming::default();
        assert!(t.gemv(1024, 800) > t.gemv(512, 800));
        assert_eq!(t.lookups(8), Dur::from_ns(8 * 250 / 8));
        assert!(t.vec_add(2048) < Dur::from_us(3));
    }
}
