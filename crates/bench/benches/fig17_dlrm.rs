//! Figure 17: distributed DLRM inference — latency (a) and throughput (b),
//! ACCL+ on 10 FPGAs vs. the CPU baseline.
//!
//! The FPGA pipeline streams single inferences (no batching); the CPU
//! (TF-Serving on a 32-vCPU Xeon) is measured across batch sizes. Paper
//! shape: two orders of magnitude lower latency and more than an order of
//! magnitude higher throughput for the hardware pipeline. Table 2's model
//! dimensions are used exactly; embedding-table *contents* are scaled.

use accl_bench::print_table;
use accl_dlrm::{
    run_pipeline_observed, CpuDlrmModel, DlrmConfig, DlrmModel, DlrmTiming, PipelineObserve,
};

fn main() {
    let cfg = DlrmConfig {
        rows_per_table: 32, // scaled contents; dimensions per Table 2
        ..DlrmConfig::default()
    };
    println!(
        "Table 2 model: {} tables, concat {}, FC ({}, {}, {}), full-scale embeddings ~{:.0} GB",
        cfg.tables,
        cfg.concat_len(),
        cfg.fc_dims[0],
        cfg.fc_dims[1],
        cfg.fc_dims[2],
        DlrmConfig::full_scale_embed_bytes(3_900_000) as f64 / 1e9,
    );
    let model = DlrmModel::generate(cfg, 5);
    let observe = PipelineObserve {
        span_capacity: 1 << 20,
        ..PipelineObserve::default()
    };
    let (result, _) = run_pipeline_observed(&model, DlrmTiming::default(), 25, 1, &observe);
    let fpga_latency_ms = result.latency_us() / 1e3;
    let fpga_tput = result.throughput();

    let cpu = CpuDlrmModel::default();
    let mut rows = vec![vec![
        "ACCL+ 10xFPGA (streaming)".to_string(),
        format!("{:.3}", fpga_latency_ms),
        format!("{:.0}", fpga_tput),
    ]];
    let best_cpu_tput = cpu.best_throughput(&cfg);
    let mut min_cpu_latency = f64::MAX;
    for batch in CpuDlrmModel::BATCHES {
        let lat = cpu.batch_latency_s(&cfg, batch) * 1e3;
        let tput = cpu.throughput(&cfg, batch);
        min_cpu_latency = min_cpu_latency.min(lat);
        rows.push(vec![
            format!("CPU batch={batch}"),
            format!("{lat:.2}"),
            format!("{tput:.0}"),
        ]);
    }
    print_table(
        "Figure 17: DLRM latency (ms) and throughput (inferences/s)",
        &["system", "latency (ms)", "throughput (inf/s)"],
        &rows,
    );
    println!(
        "\nverified messages: {}; latency ratio vs best-latency CPU: {:.0}x; \
         throughput ratio vs best CPU: {:.1}x",
        result.verified_messages,
        min_cpu_latency / fpga_latency_ms,
        fpga_tput / best_cpu_tput,
    );
    // Where each node's time goes in steady state (inferences 6-18).
    let roles = |n: usize| match n {
        0..=3 => "embedding",
        4..=7 => "combine",
        8 => "FC2",
        _ => "FC3",
    };
    let split: Vec<Vec<String>> = result
        .split
        .iter()
        .enumerate()
        .map(|(n, s)| {
            let uc = s.uc.expect("the run recorded spans");
            vec![
                format!("{n} ({})", roles(n)),
                format!("{:.2}", s.compute_us),
                format!("{:.2}", s.wait_us),
                format!("{:.2}", uc.calls_us),
                format!("{:.2}", uc.rx_wait_us),
            ]
        })
        .collect();
    print_table(
        "Per-node split, us per inference",
        &["node", "compute", "kernel wait", "uC calls", "uC Rx wait"],
        &split,
    );

    // Shape assertions.
    assert!(
        min_cpu_latency / fpga_latency_ms > 30.0,
        "hardware latency advantage must be large"
    );
    assert!(
        fpga_tput / best_cpu_tput > 10.0,
        "hardware throughput advantage must exceed an order of magnitude"
    );
}
