//! Distributed DLRM inference on 10 simulated FPGAs (paper §6, Fig. 15/17).
//!
//! The Table 2 model — 100 embedding tables, a 3200-long concatenated
//! feature vector, FC layers (2048, 512, 256) in Q16.16 fixed point — is
//! decomposed per Fig. 15: embeddings + FC1 checkerboard across 8 FPGAs, a
//! chain reduction of the 8 KB partials, FC2 and FC3 on dedicated nodes.
//! All inter-node traffic flows through ACCL+ streaming collectives and is
//! verified against the reference model at every hop.
//!
//! Run with: `cargo run --release --example dlrm_inference`

use acclplus::dlrm::{run_pipeline, CpuDlrmModel, DlrmConfig, DlrmModel, DlrmTiming};

fn main() {
    let cfg = DlrmConfig {
        rows_per_table: 64, // scaled table contents; dimensions per Table 2
        ..DlrmConfig::default()
    };
    println!(
        "model: {} tables x {}-dim, concat {}, FC ({},{},{}), fixed point Q16.16",
        cfg.tables,
        cfg.embed_dim,
        cfg.concat_len(),
        cfg.fc_dims[0],
        cfg.fc_dims[1],
        cfg.fc_dims[2]
    );
    println!(
        "full-scale embeddings would be ~{:.0} GB — 4x a U55C's HBM, hence the distribution",
        DlrmConfig::full_scale_embed_bytes(3_900_000) as f64 / 1e9
    );

    let model = DlrmModel::generate(cfg, 42);

    // Single-inference check: the decomposed pipeline computes exactly the
    // monolithic reference.
    let trace = model.pipeline_trace(0);
    assert_eq!(trace.fc3_out, model.infer(0));
    println!(
        "decomposed == monolithic inference verified ({} outputs)\n",
        trace.fc3_out.len()
    );

    // Run 30 pipelined inferences across the 10 simulated FPGAs.
    let result = run_pipeline(&model, DlrmTiming::default(), 30);
    println!(
        "10-FPGA pipeline: latency {:.1} us, steady-state throughput {:.0} inf/s",
        result.latency_us(),
        result.throughput()
    );
    println!(
        "({} inter-node messages carried real fixed-point data, all verified)",
        result.verified_messages
    );

    // The CPU baseline (TF-Serving class) for contrast.
    let cpu = CpuDlrmModel::default();
    println!("\nCPU baseline (32-vCPU Xeon model):");
    for batch in [1u64, 16, 256] {
        println!(
            "  batch {batch:>3}: latency {:>6.2} ms, throughput {:>5.0} inf/s",
            cpu.batch_latency_s(&cfg, batch) * 1e3,
            cpu.throughput(&cfg, batch)
        );
    }
    let tput_ratio = result.throughput() / cpu.best_throughput(&cfg);
    println!(
        "\nhardware advantage: {:.0}x lower latency (vs batch=1), {:.1}x higher throughput",
        cpu.batch_latency_s(&cfg, 1) * 1e6 / result.latency_us(),
        tput_ratio
    );
    assert!(
        tput_ratio > 10.0,
        "the streaming pipeline must out-run the best CPU batch by an order of magnitude"
    );
}
