//! Oracle property test for the batched DLRM reference traces.
//!
//! `reference_trace` below is the straightforward per-inference model: it
//! copies every FC1 checkerboard block out of the weight matrix and runs a
//! plain GEMV on the copy, one inference at a time. Over random small
//! configurations, `DlrmModel::pipeline_traces(n)` must equal it field for
//! field, and its FC3 output must equal the monolithic `infer(k)`.

use accl_dlrm::model::{DlrmConfig, DlrmModel, PipelineTrace};
use accl_linalg::dense::block_ranges;
use accl_linalg::dense::fx::{relu, MatFx};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

/// Inference counts always worth covering at the worker split: none, one
/// (a single run even on many cores), two and three (one-inference runs,
/// and an uneven split on two cores), and 17 (runs of unequal length).
const EDGE_COUNTS: [usize; 5] = [0, 1, 2, 3, 17];

/// A copy of block `[r0, r1) × [c0, c1)` of `m`.
fn copy_block(m: &MatFx, (r0, r1): (usize, usize), (c0, c1): (usize, usize)) -> MatFx {
    MatFx {
        rows: r1 - r0,
        cols: c1 - c0,
        data: (r0..r1)
            .flat_map(|r| m.data[r * m.cols + c0..r * m.cols + c1].iter().copied())
            .collect(),
    }
}

/// Inference `k` through the Fig. 15 decomposition, block by copied block.
fn reference_trace(m: &DlrmModel, k: u64) -> PipelineTrace {
    let cfg = m.cfg;
    let x = m.embed(k);
    let col_ranges = block_ranges(cfg.concat_len(), cfg.fc1_col_groups);
    let row_ranges = block_ranges(cfg.fc_dims[0], cfg.fc1_row_groups);
    let embed_slices: Vec<Vec<i32>> = col_ranges
        .iter()
        .map(|&(c0, c1)| x[c0..c1].to_vec())
        .collect();
    let fc1_partials: Vec<Vec<Vec<i32>>> = row_ranges
        .iter()
        .map(|&rr| {
            col_ranges
                .iter()
                .map(|&cr| copy_block(&m.fc[0], rr, cr).gemv(&x[cr.0..cr.1]))
                .collect()
        })
        .collect();
    let col_partials: Vec<Vec<i32>> = (0..cfg.fc1_col_groups)
        .map(|c| {
            fc1_partials
                .iter()
                .flat_map(|rg| rg[c].iter().copied())
                .collect()
        })
        .collect();
    let mut chain = vec![col_partials[0].clone()];
    for part in &col_partials[1..] {
        let prev = chain.last().unwrap();
        chain.push(
            prev.iter()
                .zip(part)
                .map(|(a, b)| a.saturating_add(*b))
                .collect(),
        );
    }
    let mut fc1_out = chain.last().unwrap().clone();
    relu(&mut fc1_out);
    let mut fc2_out = m.fc[1].gemv(&fc1_out);
    relu(&mut fc2_out);
    let fc3_out = m.fc[2].gemv(&fc2_out);
    PipelineTrace {
        embed_slices,
        fc1_partials,
        col_partials,
        chain,
        fc1_out,
        fc2_out,
        fc3_out,
    }
}

fn assert_same(got: &PipelineTrace, want: &PipelineTrace, k: u64) {
    assert_eq!(got.embed_slices, want.embed_slices, "embed_slices of {k}");
    assert_eq!(got.fc1_partials, want.fc1_partials, "fc1_partials of {k}");
    assert_eq!(got.col_partials, want.col_partials, "col_partials of {k}");
    assert_eq!(got.chain, want.chain, "chain of {k}");
    assert_eq!(got.fc1_out, want.fc1_out, "fc1_out of {k}");
    assert_eq!(got.fc2_out, want.fc2_out, "fc2_out of {k}");
    assert_eq!(got.fc3_out, want.fc3_out, "fc3_out of {k}");
}

#[test]
fn batched_traces_match_per_inference_block_slicing() {
    let configs = (
        (1usize..25, 1usize..9, 1usize..17),
        (1usize..33, 1usize..17, 1usize..9),
        (1usize..4, 1usize..6),
    );
    let counts = (0usize..10, 0usize..41, 0u64..1000);
    let mut remainder_cases = 0;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(96));
    runner
        .run(
            &(configs, counts),
            |(
                ((tables, embed_dim, rows_per_table), (f1, f2, f3), (rg, cg)),
                (pick, rand_n, seed),
            )| {
                let cfg = DlrmConfig {
                    tables,
                    embed_dim,
                    rows_per_table,
                    fc_dims: [f1, f2, f3],
                    fc1_row_groups: rg,
                    fc1_col_groups: cg,
                };
                remainder_cases += usize::from(!cfg.concat_len().is_multiple_of(cg));
                let n = EDGE_COUNTS.get(pick).copied().unwrap_or(rand_n);
                let m = DlrmModel::generate(cfg, seed);
                let traces = m.pipeline_traces(n);
                assert_eq!(traces.len(), n, "{cfg:?}");
                for (k, t) in (0u64..).zip(&traces) {
                    assert_same(t, &reference_trace(&m, k), k);
                    assert_eq!(t.fc3_out, m.infer(k), "fc3_out vs infer({k}), {cfg:?}");
                }
                if let Some(last) = traces.last() {
                    assert_same(&m.pipeline_trace(n as u64 - 1), last, n as u64 - 1);
                }
                Ok(())
            },
        )
        .unwrap();
    assert!(remainder_cases > 0, "no case left a column-group remainder");
}
