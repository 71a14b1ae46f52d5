//! CPU baseline cost model for DLRM inference (Fig. 17's comparison).
//!
//! Models the paper's baseline: TensorFlow Serving on an Intel Xeon
//! Platinum 8259CL (32 vCPU, 2.5 GHz, SIMD) with 256 GB DRAM (FleetRec, ref. 51). CPU
//! inference is constrained by framework overhead per batch, random DRAM
//! accesses for embedding gathers over a 50 GB table set, and FC compute —
//! batching amortizes the first but inflates latency, the trade-off
//! Fig. 17(a)/(b) shows.

use serde::{Deserialize, Serialize};

use crate::model::DlrmConfig;

/// CPU inference cost parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CpuDlrmModel {
    /// Framework (TF-Serving) overhead per batch, seconds.
    pub framework_overhead_s: f64,
    /// Effective FLOP rate across the socket for inference GEMMs, FLOP/s.
    pub effective_flops: f64,
    /// Aggregate random embedding-lookup rate over DRAM, lookups/s
    /// (TLB misses + pointer chasing over 50 GB of tables).
    pub lookup_rate: f64,
}

impl Default for CpuDlrmModel {
    fn default() -> Self {
        CpuDlrmModel {
            framework_overhead_s: 3.0e-3,
            effective_flops: 0.10e12,
            lookup_rate: 20e6,
        }
    }
}

impl CpuDlrmModel {
    /// Batch sizes Fig. 17 measures the CPU baseline at.
    pub const BATCHES: [u64; 5] = [1, 4, 16, 64, 256];

    /// FLOPs of one inference.
    pub fn flops_per_inference(cfg: &DlrmConfig) -> f64 {
        let d0 = cfg.concat_len() as f64;
        let [f1, f2, f3] = cfg.fc_dims.map(|d| d as f64);
        2.0 * (d0 * f1 + f1 * f2 + f2 * f3)
    }

    /// End-to-end latency of one batch, seconds.
    pub fn batch_latency_s(&self, cfg: &DlrmConfig, batch: u64) -> f64 {
        let b = batch as f64;
        let embed = b * cfg.tables as f64 / self.lookup_rate;
        let compute = b * Self::flops_per_inference(cfg) / self.effective_flops;
        self.framework_overhead_s + embed + compute
    }

    /// Throughput at a given batch size, inferences/second.
    pub fn throughput(&self, cfg: &DlrmConfig, batch: u64) -> f64 {
        batch as f64 / self.batch_latency_s(cfg, batch)
    }

    /// The best throughput over the Fig. 17 batch sizes
    /// ([`CpuDlrmModel::BATCHES`]), inferences/second.
    pub fn best_throughput(&self, cfg: &DlrmConfig) -> f64 {
        Self::BATCHES
            .iter()
            .map(|&b| self.throughput(cfg, b))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_matches_table2() {
        let cfg = DlrmConfig::default();
        let f = CpuDlrmModel::flops_per_inference(&cfg);
        // 2*(3200*2048 + 2048*512 + 512*256) ≈ 15.5 MFLOP.
        assert!((15.0e6..16.0e6).contains(&f), "{f}");
    }

    #[test]
    fn latency_is_milliseconds_and_grows_with_batch() {
        let m = CpuDlrmModel::default();
        let cfg = DlrmConfig::default();
        let b1 = m.batch_latency_s(&cfg, 1);
        let b256 = m.batch_latency_s(&cfg, 256);
        // Single inference: a couple of ms (framework-bound).
        assert!((1e-3..4e-3).contains(&b1), "{b1}");
        // Large batches: tens of ms.
        assert!((10e-3..100e-3).contains(&b256), "{b256}");
        assert!(b256 > b1);
    }

    #[test]
    fn batching_improves_throughput_with_diminishing_returns() {
        let m = CpuDlrmModel::default();
        let cfg = DlrmConfig::default();
        let t1 = m.throughput(&cfg, 1);
        let t64 = m.throughput(&cfg, 64);
        let t256 = m.throughput(&cfg, 256);
        assert!(t64 > t1 * 4.0, "t1={t1} t64={t64}");
        assert!(t256 > t64);
        // Diminishing: going 64→256 gains less than 4×.
        assert!(t256 < t64 * 4.0);
        // Magnitudes: hundreds/s unbatched, thousands/s batched.
        assert!((300.0..1500.0).contains(&t1), "{t1}");
        assert!((3_000.0..12_000.0).contains(&t256), "{t256}");
    }
}
