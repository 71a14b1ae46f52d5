//! `dlrm_pipeline`: the Fig. 17 use case. The 10-node XRT + TCP streaming
//! pipeline runs the Table 2 model (tables scaled to 64 rows) for
//! back-to-back inferences; the pipeline verifies every hop against the
//! reference model and panics on any mismatch.

use std::time::Instant;

use accl_dlrm::model::{DlrmConfig, DlrmModel};
use accl_dlrm::pipeline::{run_pipeline_observed, DlrmTiming, PipelineObserve};

use crate::coll::OpSample;
use crate::probe::{alloc_calls, Span};
use crate::stats::OpOutcome;
use crate::{attr, Opts, Pass};

/// Inferences per pass.
const INFERENCES: usize = 400;

fn config(tiny: bool) -> DlrmConfig {
    if tiny {
        DlrmConfig {
            tables: 16,
            embed_dim: 8,
            rows_per_table: 64,
            fc_dims: [64, 32, 16],
            fc1_row_groups: 2,
            fc1_col_groups: 4,
        }
    } else {
        DlrmConfig {
            rows_per_table: 64,
            ..DlrmConfig::default()
        }
    }
}

/// Bytes every inference moves between nodes: per column the partial
/// embedding and FC1 partial, the chain of full-height partials into the
/// FC2 node, and the FC2 output.
fn bytes_per_inference(cfg: &DlrmConfig) -> u64 {
    let cols = cfg.fc1_col_groups;
    let slice = cfg.concat_len() / cols;
    let part = cfg.fc_dims[0] / 2;
    let elems = cols * (slice + part) + cols * cfg.fc_dims[0] + cfg.fc_dims[1];
    elems as u64 * 4
}

/// Runs the pipeline once.
pub fn run(opts: &Opts) -> Pass {
    let mut pass = Pass::default();
    let cfg = config(opts.tiny);
    let inferences = if opts.tiny { 6 } else { INFERENCES };
    let model = pass
        .probe
        .time(Span::DlrmGenerate, || DlrmModel::generate(cfg, opts.seed));
    let observe = PipelineObserve {
        span_capacity: if opts.spans { attr::SPAN_CAPACITY } else { 0 },
        ..PipelineObserve::default()
    };
    let (result, cluster) = pass.probe.time(Span::DlrmPipeline, || {
        run_pipeline_observed(
            &model,
            DlrmTiming::default(),
            inferences,
            opts.workers,
            &observe,
        )
    });
    pass.probe.absorb(&cluster.sim);
    if opts.spans {
        attr::attribute(&cluster, opts.seed, &mut pass.sim_attr_ps);
    }

    // A consumer of the pipeline's results waits, per inference, from
    // the previous result (or the start, for the first) to this one.
    let bytes = bytes_per_inference(&cfg);
    let mut prev = 0;
    for done in &result.done_at {
        pass.ops.push(OpSample {
            latency_ps: Some(done.as_ps() - prev),
            bytes,
            outcome: OpOutcome::Ok,
        });
        prev = done.as_ps();
    }
    let first = result.done_at[0].as_ps();
    let last = result.done_at[inferences - 1].as_ps();
    pass.completed = inferences as u64 - 1;
    pass.sim_busy_ps = last - first;
    pass.useful_bytes = bytes * inferences as u64;
    pass.extra
        .insert("dlrm.infer_latency_us".into(), result.latency_us());
    pass.extra
        .insert("dlrm.infer_per_s".into(), result.throughput());
    pass.extra.insert(
        "dlrm.verified_messages".into(),
        result.verified_messages as f64,
    );
    pass.probe.time(Span::CoreBuild, || drop(cluster));

    if cfg!(feature = "trace") && !opts.spans {
        // The traced build's layer split: the reference model on its own,
        // as the pipeline call runs it.
        let allocs = alloc_calls();
        let t0 = Instant::now();
        let traces: Vec<_> = (0..inferences as u64)
            .map(|k| model.pipeline_trace(k))
            .collect();
        pass.aside
            .insert("dlrm.reference_s", t0.elapsed().as_secs_f64());
        pass.aside
            .insert("dlrm.reference_allocs", (alloc_calls() - allocs) as f64);
        std::hint::black_box(traces);
    }
    pass
}
