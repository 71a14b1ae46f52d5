//! Fig. 17's shape on the Table 2 model, set up as the `fig17_dlrm` bench
//! is (32-row tables, 25 inferences): the streaming pipeline's throughput
//! clears an order of magnitude over the CPU baseline's best batch, and
//! the per-node split names what sets the initiation interval.

use accl_dlrm::{
    run_pipeline, run_pipeline_observed, CpuDlrmModel, DlrmConfig, DlrmModel, DlrmTiming,
    NodeSplit, PipelineObserve,
};

const INFERENCES: usize = 25;

fn table2() -> DlrmModel {
    DlrmModel::generate(
        DlrmConfig {
            rows_per_table: 32,
            ..DlrmConfig::default()
        },
        5,
    )
}

#[test]
fn throughput_is_over_ten_times_the_best_cpu_batch() {
    let model = table2();
    let r = run_pipeline(&model, DlrmTiming::default(), INFERENCES);
    let best_cpu = CpuDlrmModel::default().best_throughput(&model.cfg);
    let ratio = r.throughput() / best_cpu;
    assert!(ratio > 10.0, "throughput is {ratio:.2}x the best CPU batch");
}

#[test]
fn a_combine_nodes_uc_call_loop_sets_the_initiation_interval() {
    let model = table2();
    let observe = PipelineObserve {
        span_capacity: 1 << 20,
        ..PipelineObserve::default()
    };
    let (r, _) = run_pipeline_observed(&model, DlrmTiming::default(), INFERENCES, 1, &observe);
    // The split covers the middle half of the run; the II over the same
    // inferences.
    let (lo, hi) = (INFERENCES / 4, INFERENCES - INFERENCES / 4);
    let ii = r.done_at[hi - 1].since(r.done_at[lo - 1]).as_us_f64() / (hi - lo) as f64;
    // The engine's own work on a uC: its calls, less the time receives
    // spent on messages an upstream node had not delivered yet.
    let uc = |s: &NodeSplit| {
        let uc = s.uc.expect("spans were recorded");
        uc.calls_us - uc.rx_wait_us
    };
    let (node, busiest) = r
        .split
        .iter()
        .enumerate()
        .max_by(|a, b| uc(a.1).total_cmp(&uc(b.1)))
        .unwrap();
    assert!(
        (5..=7).contains(&node),
        "node {node} has the busiest uC: {:?}",
        r.split
    );
    assert!(
        (uc(busiest) - ii).abs() <= 0.1 * ii,
        "node {node}'s uC is busy {:.2} us per {ii:.2} us II",
        uc(busiest)
    );
    // Every node from the second combine node on runs at the II, one op
    // at a time. The embedding nodes and the first combine node run ahead
    // into their consumers' Rx buffers.
    for (n, s) in r.split.iter().enumerate() {
        let elapsed = s.compute_us + s.wait_us;
        if n < 5 {
            assert!(elapsed < 0.9 * ii, "node {n} spends {elapsed:.2} us");
        } else {
            assert!(
                (elapsed - ii).abs() <= 0.02 * ii,
                "node {n} spends {elapsed:.2} us per {ii:.2} us II"
            );
        }
    }
}
