//! The DLRM model: configuration (Table 2), reference inference, and the
//! checkerboard decomposition of Fig. 14/15.
//!
//! The paper's industrial model has 100 embedding tables (32-dim vectors,
//! 50 GB total), a 3200-long concatenated feature vector and three FC
//! layers (2048, 512, 256), computed on the FPGAs in 32-bit fixed point.
//! Table *contents* are scaled down here (the 50 GB of embeddings is
//! synthetic anyway); everything that determines performance — vector
//! dimensions, message sizes, layer shapes — matches Table 2 exactly.

use accl_linalg::dense::fx::{self, MatFx};
use accl_linalg::dense::{block_ranges, fx::relu};
use serde::{Deserialize, Serialize};

/// DLRM configuration (defaults = Table 2).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DlrmConfig {
    /// Number of embedding tables.
    pub tables: usize,
    /// Embedding vector dimension per table.
    pub embed_dim: usize,
    /// Rows per table (scaled down from the paper's ~3.9 M; contents are
    /// synthetic, sizes do not affect per-inference message sizes).
    pub rows_per_table: usize,
    /// FC layer output widths, applied in order to the concatenated vector.
    pub fc_dims: [usize; 3],
    /// Row groups of the FC1 checkerboard (2 in Fig. 15).
    pub fc1_row_groups: usize,
    /// Column groups of the FC1 checkerboard (4 in Fig. 15).
    pub fc1_col_groups: usize,
}

impl Default for DlrmConfig {
    fn default() -> Self {
        DlrmConfig {
            tables: 100,
            embed_dim: 32,
            rows_per_table: 1024,
            fc_dims: [2048, 512, 256],
            fc1_row_groups: 2,
            fc1_col_groups: 4,
        }
    }
}

impl DlrmConfig {
    /// Concatenated feature length (3200 in Table 2).
    pub fn concat_len(&self) -> usize {
        self.tables * self.embed_dim
    }

    /// Bytes of one partial embedding vector (3.2 KB per the paper §6.2).
    pub fn partial_embed_bytes(&self) -> usize {
        self.concat_len() / self.fc1_col_groups * 4
    }

    /// Bytes of one FC1 partial result (4 KB per the paper §6.2).
    pub fn partial_result_bytes(&self) -> usize {
        self.fc_dims[0] / self.fc1_row_groups * 4
    }

    /// Bytes of one full FC1 vector (the 8 KB reduction messages).
    pub fn fc1_bytes(&self) -> usize {
        self.fc_dims[0] * 4
    }

    /// The paper's full-scale embedding storage footprint in bytes
    /// (~50 GB in Table 2 with ~3.9 M rows per table).
    pub fn full_scale_embed_bytes(rows_per_table: u64) -> u64 {
        100 * rows_per_table * 32 * 4
    }
}

/// Deterministic synthetic weights/embeddings (seeded hashing, so every
/// node regenerates identical parameters without sharing state).
fn hval(seed: u64, a: u64, b: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb));
    x ^= x >> 31;
    x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
    x ^= x >> 27;
    // Small magnitudes keep Q16.16 accumulations well inside range.
    ((x % 2001) as f64 - 1000.0) / 20_000.0
}

/// The full model parameters.
pub struct DlrmModel {
    /// Configuration.
    pub cfg: DlrmConfig,
    /// Embedding tables: `tables × rows × embed_dim`, Q16.16.
    pub tables: Vec<Vec<i32>>,
    /// FC1 (2048 × 3200), FC2 (512 × 2048), FC3 (256 × 512), Q16.16.
    pub fc: [MatFx; 3],
}

impl DlrmModel {
    /// Generates the model for `seed`.
    pub fn generate(cfg: DlrmConfig, seed: u64) -> DlrmModel {
        let tables = (0..cfg.tables)
            .map(|t| {
                (0..cfg.rows_per_table * cfg.embed_dim)
                    .map(|i| fx::q(hval(seed, t as u64, i as u64)))
                    .collect()
            })
            .collect();
        let dims = [
            (cfg.fc_dims[0], cfg.concat_len()),
            (cfg.fc_dims[1], cfg.fc_dims[0]),
            (cfg.fc_dims[2], cfg.fc_dims[1]),
        ];
        let fc = [
            MatFx::from_fn(dims[0].0, dims[0].1, |r, c| {
                hval(seed ^ 0x11, r as u64, c as u64)
            }),
            MatFx::from_fn(dims[1].0, dims[1].1, |r, c| {
                hval(seed ^ 0x22, r as u64, c as u64)
            }),
            MatFx::from_fn(dims[2].0, dims[2].1, |r, c| {
                hval(seed ^ 0x33, r as u64, c as u64)
            }),
        ];
        DlrmModel { cfg, tables, fc }
    }

    /// The sparse indices of inference `k` (one per table, deterministic).
    pub fn indices(&self, k: u64) -> Vec<usize> {
        (0..self.cfg.tables)
            .map(|t| (hval(k ^ 0xabcd, t as u64, k).to_bits() as usize) % self.cfg.rows_per_table)
            .collect()
    }

    /// Embedding lookup + concatenation for inference `k`.
    pub fn embed(&self, k: u64) -> Vec<i32> {
        let idx = self.indices(k);
        let mut out = Vec::with_capacity(self.cfg.concat_len());
        for (t, &row) in idx.iter().enumerate() {
            let d = self.cfg.embed_dim;
            out.extend_from_slice(&self.tables[t][row * d..(row + 1) * d]);
        }
        out
    }

    /// Full reference inference: embed → FC1 → ReLU → FC2 → ReLU → FC3.
    pub fn infer(&self, k: u64) -> Vec<i32> {
        let x = self.embed(k);
        let mut y = self.fc[0].gemv(&x);
        relu(&mut y);
        let mut y = self.fc[1].gemv(&y);
        relu(&mut y);
        self.fc[2].gemv(&y)
    }

    /// All intermediate values of one inference, as the distributed
    /// pipeline of Fig. 15 produces them.
    pub fn pipeline_trace(&self, k: u64) -> PipelineTrace {
        self.batch_traces(std::iter::once(k))
            .pop()
            .expect("one trace per inference")
    }

    /// [`DlrmModel::pipeline_trace`] for inferences `0..n`, in order.
    ///
    /// Inferences `0..n` are split into one contiguous run per available
    /// core, and each run is computed by a single `batch_traces` call on its
    /// own scoped thread, so each worker streams every FC weight row once
    /// per call, not once per inference. Runs are joined in inference
    /// order. Every trace is bit-identical to the one-inference computation.
    pub fn pipeline_traces(&self, n: usize) -> Vec<PipelineTrace> {
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        self.traces_on(n, workers)
    }

    /// [`DlrmModel::pipeline_traces`] on at most `workers` threads.
    fn traces_on(&self, n: usize, workers: usize) -> Vec<PipelineTrace> {
        let workers = workers.min(n);
        if workers <= 1 {
            return self.batch_traces(0..n as u64);
        }
        std::thread::scope(|s| {
            let runs: Vec<_> = block_ranges(n, workers)
                .into_iter()
                .map(|(k0, k1)| s.spawn(move || self.batch_traces(k0 as u64..k1 as u64)))
                .collect();
            runs.into_iter()
                .flat_map(|w| w.join().expect("trace worker panicked"))
                .collect()
        })
    }

    /// The traces of inferences `ks`, with one pass over each FC block's
    /// weights for the whole batch. Each inference's embedding is held only
    /// as its per-column-group slices, which feed FC1 and then move into
    /// its trace.
    fn batch_traces(&self, ks: impl Iterator<Item = u64>) -> Vec<PipelineTrace> {
        let cfg = self.cfg;
        let col_ranges = block_ranges(cfg.concat_len(), cfg.fc1_col_groups);
        let row_ranges = block_ranges(cfg.fc_dims[0], cfg.fc1_row_groups);
        // Partial embedding slices (3.2 KB messages, nodes 1-4 → 5-8).
        let embed_slices: Vec<Vec<Vec<i32>>> = ks
            .map(|k| {
                let x = self.embed(k);
                col_ranges
                    .iter()
                    .map(|&(c0, c1)| x[c0..c1].to_vec())
                    .collect()
            })
            .collect();
        // FC1 partials per (row group, column group), one per inference.
        let mut blocks: Vec<Vec<_>> = row_ranges
            .iter()
            .map(|&(r0, r1)| {
                col_ranges
                    .iter()
                    .enumerate()
                    .map(|(c, &(c0, c1))| {
                        let xs: Vec<&[i32]> =
                            embed_slices.iter().map(|e| e[c].as_slice()).collect();
                        self.fc[0].gemv_block(r0..r1, c0..c1, &xs).into_iter()
                    })
                    .collect()
            })
            .collect();
        let mut traces: Vec<PipelineTrace> = embed_slices
            .into_iter()
            .map(|slices| {
                let fc1_partials = blocks
                    .iter_mut()
                    .map(|rg| {
                        rg.iter_mut()
                            .map(|p| p.next().expect("one partial per inference"))
                            .collect()
                    })
                    .collect();
                PipelineTrace::through_fc1(cfg, slices, fc1_partials)
            })
            .collect();
        let [_, fc2, fc3] = &self.fc;
        let fc1_outs: Vec<&[i32]> = traces.iter().map(|t| t.fc1_out.as_slice()).collect();
        let mut fc2_outs = fc2.gemv_block(0..fc2.rows, 0..fc2.cols, &fc1_outs);
        for y in &mut fc2_outs {
            relu(y);
        }
        let fc3_outs = fc3.gemv_block(0..fc3.rows, 0..fc3.cols, &fc2_outs);
        for ((t, fc2), fc3) in traces.iter_mut().zip(fc2_outs).zip(fc3_outs) {
            t.fc2_out = fc2;
            t.fc3_out = fc3;
        }
        traces
    }
}

/// Every intermediate of one inference flowing through the Fig. 15 pipeline.
pub struct PipelineTrace {
    /// 3.2 KB embedding slices (one per column group).
    pub embed_slices: Vec<Vec<i32>>,
    /// FC1 partials `[row_group][col_group]` (4 KB each).
    pub fc1_partials: Vec<Vec<Vec<i32>>>,
    /// Full-height per-column partials (8 KB each).
    pub col_partials: Vec<Vec<i32>>,
    /// Running chain-reduction values (8 KB each hop).
    pub chain: Vec<Vec<i32>>,
    /// FC1 output after ReLU.
    pub fc1_out: Vec<i32>,
    /// FC2 output after ReLU.
    pub fc2_out: Vec<i32>,
    /// Final FC3 output.
    pub fc3_out: Vec<i32>,
}

impl PipelineTrace {
    /// The trace of one inference up to the FC1 output, from its embedding
    /// slices and FC1 checkerboard partials; `fc2_out` and `fc3_out` are
    /// left empty.
    fn through_fc1(
        cfg: DlrmConfig,
        embed_slices: Vec<Vec<i32>>,
        fc1_partials: Vec<Vec<Vec<i32>>>,
    ) -> PipelineTrace {
        // Per-column full-height partials (8 KB reduction messages):
        // concat of row-group partials for that column.
        let col_partials: Vec<Vec<i32>> = (0..cfg.fc1_col_groups)
            .map(|c| {
                let mut v = Vec::with_capacity(cfg.fc_dims[0]);
                for rg in &fc1_partials {
                    v.extend_from_slice(&rg[c]);
                }
                v
            })
            .collect();
        // Chain reduction over columns.
        let mut chain = Vec::new();
        let mut acc = col_partials[0].clone();
        chain.push(acc.clone());
        for part in &col_partials[1..] {
            for (a, b) in acc.iter_mut().zip(part) {
                *a = a.saturating_add(*b);
            }
            chain.push(acc.clone());
        }
        let mut fc1_out = acc;
        relu(&mut fc1_out);
        PipelineTrace {
            embed_slices,
            fc1_partials,
            col_partials,
            chain,
            fc1_out,
            fc2_out: Vec::new(),
            fc3_out: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DlrmModel {
        DlrmModel::generate(
            DlrmConfig {
                tables: 8,
                embed_dim: 8,
                rows_per_table: 64,
                fc_dims: [32, 16, 8],
                fc1_row_groups: 2,
                fc1_col_groups: 4,
            },
            42,
        )
    }

    #[test]
    fn table2_shapes() {
        let cfg = DlrmConfig::default();
        assert_eq!(cfg.concat_len(), 3200);
        assert_eq!(cfg.partial_embed_bytes(), 3200); // 3.2 KB
        assert_eq!(cfg.partial_result_bytes(), 4096); // 4 KB
        assert_eq!(cfg.fc1_bytes(), 8192); // 8 KB
                                           // ~50 GB at full scale.
        let full = DlrmConfig::full_scale_embed_bytes(3_900_000);
        assert!((45e9..55e9).contains(&(full as f64)), "{full}");
    }

    #[test]
    fn inference_is_deterministic() {
        let m1 = small();
        let m2 = small();
        assert_eq!(m1.infer(0), m2.infer(0));
        assert_ne!(m1.infer(0), m1.infer(1));
    }

    #[test]
    fn indices_are_in_range() {
        let m = small();
        for k in 0..50 {
            for &i in &m.indices(k) {
                assert!(i < m.cfg.rows_per_table);
            }
        }
    }

    #[test]
    fn pipeline_trace_matches_reference() {
        // The decomposed/pipelined computation must equal the monolithic
        // reference exactly (same fixed-point operation order per element).
        let m = small();
        for k in 0..10 {
            let t = m.pipeline_trace(k);
            assert_eq!(t.fc3_out, m.infer(k), "inference {k}");
            // Message sizes match the decomposition.
            assert_eq!(t.embed_slices.len(), 4);
            assert_eq!(t.embed_slices[0].len(), m.cfg.concat_len() / 4);
            assert_eq!(t.fc1_partials.len(), 2);
            assert_eq!(t.fc1_partials[0][0].len(), m.cfg.fc_dims[0] / 2);
            assert_eq!(t.col_partials[0].len(), m.cfg.fc_dims[0]);
        }
    }

    #[test]
    fn worker_splits_match_per_inference_traces() {
        // Every split of `0..n` into contiguous worker runs must give, in
        // order, the traces of the one-inference computation.
        let m = small();
        let want: Vec<PipelineTrace> = (0..17).map(|k| m.pipeline_trace(k)).collect();
        for workers in [1, 2, 3, 8] {
            for n in [0, 1, 2, 3, 7, 17] {
                let got = m.traces_on(n, workers);
                assert_eq!(got.len(), n, "{workers} workers, n = {n}");
                for (k, (g, w)) in (0u64..).zip(got.iter().zip(&want)) {
                    let at = format!("inference {k} of {n} on {workers} workers");
                    assert_eq!(g.embed_slices, w.embed_slices, "{at}");
                    assert_eq!(g.fc1_partials, w.fc1_partials, "{at}");
                    assert_eq!(g.col_partials, w.col_partials, "{at}");
                    assert_eq!(g.chain, w.chain, "{at}");
                    assert_eq!(g.fc1_out, w.fc1_out, "{at}");
                    assert_eq!(g.fc2_out, w.fc2_out, "{at}");
                    assert_eq!(g.fc3_out, w.fc3_out, "{at}");
                    assert_eq!(g.fc3_out, m.infer(k), "{at}");
                }
            }
        }
    }

    #[test]
    fn default_model_pipeline_consistency_spot_check() {
        // One full-size inference (Table 2 dimensions) through both paths.
        let m = DlrmModel::generate(
            DlrmConfig {
                rows_per_table: 16, // keep generation fast; dims unchanged
                ..DlrmConfig::default()
            },
            7,
        );
        let t = m.pipeline_trace(3);
        assert_eq!(t.fc3_out, m.infer(3));
        assert_eq!(t.embed_slices[0].len() * 4, 3200);
        assert_eq!(t.col_partials[0].len() * 4, 8192);
    }
}
