//! Tiny-size smoke runs of every workload: each pass verifies its outputs,
//! fails no op, yields every simulated metric and per-layer count, and
//! repeats bit for bit.

use accl_core::{AcclCluster, BufLoc, ClusterConfig, CollOp, SyncProto};
use accl_perfbench::coll::{CollCase, Op};
use accl_perfbench::probe::Probe;
use accl_perfbench::{first_difference, run_passes, Opts, Workload};

fn tiny(seed: u64) -> Opts {
    Opts {
        seed,
        workers: 1,
        spans: false,
        tiny: true,
    }
}

#[test]
fn every_workload_emits_every_metric() {
    for workload in Workload::ALL {
        let run = run_passes(workload, tiny(7), 0.0, 2).expect("passes agree");
        assert_eq!(run.passes.len(), 2);
        let pass = &run.passes[0];
        let name = workload.name();
        assert!(pass.correct(), "{name}: wrong output");
        assert_eq!(pass.failed(), 0, "{name}: failed ops");
        assert!(!pass.ops.is_empty(), "{name}: no ops");

        let sim = pass.sim_metrics();
        for key in [
            "sim_lat_geomean_us",
            "sim_lat_p50_us",
            "sim_lat_tail_us",
            "sim_goodput_gbps",
            "sim_ops_per_s",
        ] {
            let v = sim[key];
            assert!(v.is_finite() && v > 0.0, "{name}: {key} = {v}");
        }
        let counts = pass.layer_counts();
        assert!(counts["sim.events"] > 0, "{name}: no events");
        assert!(counts["cclo.uc.calls"] > 0, "{name}: no engine calls");
        assert!(counts["net.switch.bytes"] > 0, "{name}: no traffic");

        let json = run.to_json();
        for key in [
            "\"setup_s\"",
            "\"run_s\"",
            "\"peak_rss_mib\"",
            "\"fingerprint\"",
        ] {
            assert!(json.contains(key), "{name}: report lacks {key}");
        }
    }
}

#[test]
fn seeds_change_inputs_but_not_the_simulated_results() {
    // lossy_stream's fault schedule is fixed, so its simulated latencies,
    // verdicts and counts are the same on every seed.
    let a = Workload::LossyStream.run_pass(&tiny(1));
    let b = Workload::LossyStream.run_pass(&tiny(2));
    assert_eq!(first_difference(&a.fingerprint(), &b.fingerprint()), None);

    let case = CollCase {
        op: CollOp::AllReduce,
        bytes: 1024,
        sync: SyncProto::Auto,
        loc: BufLoc::Device,
    };
    let mut c = AcclCluster::build(ClusterConfig::coyote_rdma(2));
    let mut probe = Probe::default();
    let (_, one) = Op::prepare(&mut c, case, 1, 0, &mut probe);
    let (_, two) = Op::prepare(&mut c, case, 2, 0, &mut probe);
    assert_ne!(one, two, "different seeds must give different inputs");
}
