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
use serde::{Deserialize, Serialize};

use crate::model::DlrmModel;

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
    let slice_elems = cfg.concat_len() / cols;
    let part_elems = cfg.fc_dims[0] / 2;
    let full_elems = cfg.fc_dims[0];
    let fc2_elems = cfg.fc_dims[1];

    let traces = model.pipeline_traces(inferences);

    let mut cluster = AcclCluster::build(ClusterConfig {
        cclo: CcloConfig {
            clock_mhz: timing.clock_mhz,
            // The host driver sizes the eager Rx pool for the workload:
            // the pipeline's producers run ahead of consumers, so each
            // engine needs enough (small) buffers for the in-flight window
            // — 3 messages per in-flight inference, 8 KB max each.
            rx_buf_count: (3 * inferences as u32 + 8).max(16),
            rx_buf_bytes: 32 << 10,
            ..CcloConfig::default()
        },
        ..ClusterConfig::xrt_tcp(nodes)
    });
    if observe.span_capacity > 0 {
        cluster.enable_tracing(observe.span_capacity);
    }
    if let Some(width) = observe.metric_window {
        cluster.enable_metric_windows(width);
    }

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

    let mut programs: Vec<Vec<KernelOp>> = vec![Vec::new(); nodes];
    for tr in &traces {
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
            let p = &mut programs[cols + c];
            p.push(recv(c, slice_elems, tag::X));
            p.push(KernelOp::Finalize);
            p.push(KernelOp::Compute(timing.gemv(part_elems, slice_elems)));
            p.push(recv(c, part_elems, tag::PA));
            p.push(KernelOp::Finalize);
            let next = if c + 1 < cols { cols + c + 1 } else { fc2_node };
            if c == 0 {
                p.push(send(next, full_elems, tag::CHAIN));
                p.push(push(&tr.chain[0]));
            } else {
                p.push(recv(cols + c - 1, full_elems, tag::CHAIN));
                p.push(KernelOp::Finalize);
                p.push(KernelOp::Compute(timing.vec_add(full_elems)));
                p.push(send(next, full_elems, tag::CHAIN));
                p.push(push(&tr.chain[c]));
            }
        }
        // FC2 node.
        {
            let p = &mut programs[fc2_node];
            p.push(recv(2 * cols - 1, full_elems, tag::CHAIN));
            p.push(KernelOp::Finalize);
            p.push(KernelOp::Compute(timing.gemv(fc2_elems, full_elems)));
            p.push(send(fc3_node, fc2_elems, tag::FC2));
            p.push(push(&tr.fc2_out));
        }
        // FC3 node.
        {
            let p = &mut programs[fc3_node];
            p.push(recv(fc2_node, fc2_elems, tag::FC2));
            p.push(KernelOp::Finalize);
            p.push(KernelOp::Compute(timing.gemv(cfg.fc_dims[2], fc2_elems)));
        }
    }
    for p in &mut programs {
        p.push(KernelOp::Finalize);
    }

    let kernels = cluster.run_kernel_programs(programs);

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

    // Each inference completes at the FC3 node's Compute expiry: every
    // third op of its program (recv, finalize, compute).
    let done_at: Vec<Time> = cluster
        .kernel(kernels[fc3_node])
        .op_times()
        .iter()
        .filter(|(idx, _)| idx % 3 == 2 && *idx < inferences * 3)
        .map(|&(_, t)| t)
        .collect();
    assert_eq!(done_at.len(), inferences, "missing inference completions");
    (
        PipelineResult {
            done_at,
            verified_messages: verified,
        },
        cluster,
    )
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
