//! The ACCL+ simulator benchmark: three closed-loop workloads measured in
//! both clocks. *Simulated* time is the reproduction itself (collective
//! latency, goodput, inference rate) and is deterministic per seed;
//! *host* time is how long the simulator takes to produce it.
//!
//! One pass runs a workload's whole op set once. [`run_passes`] repeats
//! passes for a wall-clock budget, checks that every pass reproduces the
//! same simulated results and counts, and reports the per-pass host times
//! for the driver (`run.py`) to take medians of.

pub mod attr;
pub mod coll;
pub mod dlrm;
pub mod json;
pub mod lossy;
pub mod probe;
pub mod stats;
pub mod sweep;

use std::collections::BTreeMap;
use std::time::Instant;

use coll::OpSample;
use probe::{Probe, Span};
use stats::OpOutcome;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's collective figures, a fresh cluster per point.
    FigSweep,
    /// The Fig. 17 DLRM inference pipeline.
    DlrmPipeline,
    /// Long-lived clusters streaming collectives under a fault schedule.
    LossyStream,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::FigSweep,
        Workload::DlrmPipeline,
        Workload::LossyStream,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigSweep => "fig_sweep",
            Workload::DlrmPipeline => "dlrm_pipeline",
            Workload::LossyStream => "lossy_stream",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one pass.
    pub fn run_pass(self, opts: &Opts) -> Pass {
        match self {
            Workload::FigSweep => sweep::run(opts),
            Workload::DlrmPipeline => dlrm::run(opts),
            Workload::LossyStream => lossy::run(opts),
        }
    }
}

/// How a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: fill patterns and the DLRM model (`lossy_stream`'s
    /// fault schedule is fixed, see [`lossy::FAULT_SEED`]).
    pub seed: u64,
    /// Simulator worker threads (1 = the default sequential engine).
    pub workers: usize,
    /// Record causal spans and attribute simulated time (trace build only).
    pub spans: bool,
    /// Shrink every workload to a few small ops (smoke tests).
    pub tiny: bool,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host spans and simulator readouts.
    pub probe: Probe,
    /// Every op as its caller saw it: one per rank per collective, or one
    /// per DLRM inference.
    pub ops: Vec<OpSample>,
    /// Outcomes of the software-MPI baseline runs.
    pub baseline_outcomes: Vec<OpOutcome>,
    /// Collectives (or inferences) that completed on every rank.
    pub completed: u64,
    /// Simulated time the completed work spanned, picoseconds.
    pub sim_busy_ps: u64,
    /// Verified output bytes that crossed the fabric.
    pub useful_bytes: u64,
    /// Workload-specific simulated results (deterministic).
    pub extra: BTreeMap<String, f64>,
    /// Host-side side measurements that are not part of the pass's time.
    pub aside: BTreeMap<&'static str, f64>,
    /// Critical-path simulated time per layer, picoseconds (spans on).
    pub sim_attr_ps: BTreeMap<String, u64>,
}

/// Payload size from which an op counts toward goodput.
const GOODPUT_MIN_BYTES: u64 = 1 << 20;

impl Pass {
    /// Records the samples of `ops` run back to back over `span_ps` of
    /// simulated time (see [`coll::run_ops`]): an op counts as completed
    /// when every rank returned `Ok` with golden data.
    pub fn record(&mut self, ops: &[coll::Op], samples: Vec<OpSample>, span_ps: u64) {
        let ranks = samples.len() / ops.len().max(1);
        for (op, per_rank) in ops.iter().zip(samples.chunks(ranks.max(1))) {
            if per_rank.iter().all(|s| s.outcome == OpOutcome::Ok) {
                self.completed += 1;
                self.useful_bytes += op.useful_bytes();
            }
        }
        self.sim_busy_ps += span_ps;
        self.ops.extend(samples);
    }

    /// Ops whose verdict is not `Ok`.
    pub fn failed(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.outcome != OpOutcome::Ok)
            .count() as u64
    }

    /// Whether no op completed `Ok` with wrong data and every baseline
    /// matched its golden output.
    pub fn correct(&self) -> bool {
        self.ops.iter().all(|o| o.outcome != OpOutcome::Wrong)
            && self.baseline_outcomes.iter().all(|&o| o == OpOutcome::Ok)
    }

    /// The end-to-end simulated-time metrics, from the pass's ops.
    pub fn sim_metrics(&self) -> BTreeMap<&'static str, f64> {
        let lat: Vec<Option<u64>> = self.ops.iter().map(|o| o.latency_ps).collect();
        let us = |ps: Option<u64>| ps.map_or(f64::MAX, |p| p as f64 / 1e6);
        let ok: Vec<&OpSample> = self.ops.iter().filter(|o| o.latency_ps.is_some()).collect();
        let lat_us: Vec<f64> = ok.iter().map(|o| us(o.latency_ps)).collect();
        let goodput =
            |o: &&OpSample| o.bytes as f64 * 8.0 / (o.latency_ps.unwrap_or(1) as f64 / 1e3);
        let big: Vec<f64> = ok
            .iter()
            .filter(|o| o.bytes >= GOODPUT_MIN_BYTES)
            .map(goodput)
            .collect();
        let goodputs = if big.is_empty() {
            ok.iter().map(goodput).collect()
        } else {
            big
        };
        let n = lat.len() as u64;
        let mut m = BTreeMap::new();
        m.insert(
            "sim_lat_geomean_us",
            stats::geomean(&lat_us).unwrap_or(f64::MAX),
        );
        m.insert("sim_lat_p50_us", us(stats::percentile(&lat, 500)));
        m.insert(
            "sim_lat_tail_us",
            us(stats::percentile(&lat, stats::tail_permille(n))),
        );
        m.insert("sim_goodput_gbps", stats::geomean(&goodputs).unwrap_or(0.0));
        m.insert(
            "sim_ops_per_s",
            self.completed as f64 / (self.sim_busy_ps.max(1) as f64 / 1e12),
        );
        m
    }

    /// Per-layer counts read from the simulators (deterministic).
    pub fn layer_counts(&self) -> BTreeMap<&'static str, u64> {
        let p = &self.probe;
        let c = |k: &str| p.counter(k);
        BTreeMap::from([
            ("sim.events", p.events),
            ("sim.max_queue_depth", p.max_queue_depth),
            ("core.driver.calls", c("driver.calls")),
            ("core.driver.retries", c("driver.retries")),
            ("core.driver.calls_failed", c("driver.calls_failed")),
            ("mem.tlb.misses", c("mem.tlb.misses")),
            ("mem.tlb.faults", c("mem.tlb.faults")),
            ("mem.xdma.bytes", c("mem.xdma.bytes")),
            ("net.switch.bytes", c("net.switch.bytes")),
            ("net.switch.drops", c("net.switch.drops")),
            ("net.switch.corrupted", c("net.switch.corrupted")),
            ("net.switch.duplicated", c("net.switch.duplicated")),
            ("poe.tcp.retransmits", c("poe.tcp.retransmits")),
            ("poe.rdma.retransmissions", c("poe.rdma.retransmissions")),
            ("poe.rdma.rto_fired", c("poe.rdma.rto_fired")),
            ("poe.rdma.rx_gap_naks", c("poe.rdma.rx_gap_naks")),
            ("poe.rdma.rx_duplicates", c("poe.rdma.rx_duplicates")),
            (
                "poe.frames_corrupted_discarded",
                c("poe.tcp.frames_corrupted_discarded")
                    + c("poe.rdma.frames_corrupted_discarded")
                    + c("poe.udp.dgrams_corrupted_dropped"),
            ),
            ("cclo.uc.calls", c("uc.calls")),
            ("cclo.uc.decode_cycles", c("uc.decode_cycles")),
            ("cclo.dmp.instrs", c("dmp.instrs")),
            ("cclo.txsys.jobs", c("txsys.jobs")),
            ("cclo.rxsys.messages", c("rxsys.messages")),
            ("cclo.rbm.exhausted", c("rbm.exhausted")),
            ("cclo.uc.collective_timeouts", c("uc.collective_timeouts")),
            ("swmpi.nic.msgs", c("mpi.nic.msgs")),
        ])
    }

    /// Everything that must repeat bit for bit between runs of the same
    /// seed: the simulated metrics, a digest of every op's latency and
    /// verdict, and the per-layer counts. Compared as exact strings.
    pub fn fingerprint(&self) -> BTreeMap<String, String> {
        let mut f: BTreeMap<String, String> = self
            .sim_metrics()
            .into_iter()
            .map(|(k, v)| (k.to_string(), format!("{v:?}")))
            .collect();
        for (k, v) in &self.extra {
            f.insert(k.clone(), format!("{v:?}"));
        }
        let mut h = 0u64;
        for o in &self.ops {
            let word = o.latency_ps.unwrap_or(u64::MAX) ^ (o.outcome as u64) << 60;
            accl_sim::digest::fnv_fold(&mut h, &word.to_le_bytes());
        }
        f.insert("ops.digest".into(), format!("{h:016x}"));
        f.insert("ops.count".into(), self.ops.len().to_string());
        f.insert("useful_bytes".into(), self.useful_bytes.to_string());
        for (k, v) in self.layer_counts() {
            f.insert(k.to_string(), v.to_string());
        }
        f
    }
}

/// The first key whose value differs between two fingerprints.
pub fn first_difference(
    a: &BTreeMap<String, String>,
    b: &BTreeMap<String, String>,
) -> Option<String> {
    a.keys()
        .chain(b.keys())
        .find(|k| a.get(*k) != b.get(*k))
        .cloned()
}

/// Results of one benchmark process: passes repeated for a wall-clock
/// budget.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Options every pass ran with.
    pub opts: Opts,
    /// The passes, in order.
    pub passes: Vec<Pass>,
}

/// Runs passes until `seconds` of wall clock would be exceeded by one
/// more (at least `min_passes`), failing if any pass's simulated results
/// or counts differ from the first pass's.
pub fn run_passes(
    workload: Workload,
    opts: Opts,
    seconds: f64,
    min_passes: usize,
) -> Result<Run, String> {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let started = Instant::now();
        let pass = workload.run_pass(&opts);
        let took = started.elapsed().as_secs_f64();
        if let Some(first) = passes.first() {
            let (a, b) = (first.fingerprint(), pass.fingerprint());
            if let Some(key) = first_difference(&a, &b) {
                return Err(format!(
                    "determinism: {} differs between pass 1 and pass {} on {} (seed {}): {:?} vs {:?}",
                    key,
                    passes.len() + 1,
                    workload.name(),
                    opts.seed,
                    a.get(&key),
                    b.get(&key)
                ));
            }
        }
        passes.push(pass);
        let elapsed = t0.elapsed().as_secs_f64();
        if passes.len() >= min_passes && elapsed + took > seconds {
            break;
        }
    }
    Ok(Run {
        workload,
        opts,
        passes,
    })
}

impl Run {
    /// The run as one JSON object for `run.py`.
    pub fn to_json(&self) -> String {
        use json::Value as V;
        let first = &self.passes[0];
        let per_pass =
            |f: &dyn Fn(&Pass) -> f64| V::Arr(self.passes.iter().map(|p| V::Num(f(p))).collect());
        let mut host = BTreeMap::new();
        for span in [
            Span::CoreBuild,
            Span::MemFill,
            Span::MemRead,
            Span::CoreRun,
            Span::Swmpi,
            Span::DlrmGenerate,
            Span::DlrmPipeline,
            Span::Check,
        ] {
            host.insert(format!("{span:?}"), per_pass(&|p| p.probe.host(span)));
        }
        let mut aside = BTreeMap::new();
        for key in first.aside.keys() {
            aside.insert(
                key.to_string(),
                per_pass(&|p| p.aside.get(key).copied().unwrap_or(0.0)),
            );
        }
        let fingerprint = first
            .fingerprint()
            .into_iter()
            .map(|(k, v)| (k, V::Str(v)))
            .collect();
        let mut obj = BTreeMap::from([
            ("workload".to_string(), V::Str(self.workload.name().into())),
            ("seed".to_string(), V::Num(self.opts.seed as f64)),
            ("workers".to_string(), V::Num(self.opts.workers as f64)),
            ("spans".to_string(), V::Bool(self.opts.spans)),
            ("trace_build".to_string(), V::Bool(cfg!(feature = "trace"))),
            ("passes".to_string(), V::Num(self.passes.len() as f64)),
            ("setup_s".to_string(), per_pass(&|p| p.probe.setup_s())),
            ("run_s".to_string(), per_pass(&|p| p.probe.run_s())),
            ("host_s".to_string(), V::Obj(host)),
            ("aside".to_string(), V::Obj(aside)),
            (
                "sim_allocs".to_string(),
                per_pass(&|p| p.probe.sim_allocs as f64),
            ),
            ("peak_rss_mib".to_string(), V::Num(probe::peak_rss_mib())),
            ("attempted".to_string(), V::Num(first.ops.len() as f64)),
            ("failed".to_string(), V::Num(first.failed() as f64)),
            (
                "correct".to_string(),
                V::Bool(self.passes.iter().all(Pass::correct)),
            ),
            (
                "failed_ops_ratio".to_string(),
                V::Num(stats::failed_ratio(
                    &first.ops.iter().map(|o| o.outcome).collect::<Vec<_>>(),
                )),
            ),
            (
                "useful_bytes".to_string(),
                V::Num(first.useful_bytes as f64),
            ),
            (
                "sim".to_string(),
                V::Obj(
                    first
                        .sim_metrics()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), V::Num(v)))
                        .collect(),
                ),
            ),
            (
                "extra".to_string(),
                V::Obj(
                    first
                        .extra
                        .iter()
                        .map(|(k, v)| (k.clone(), V::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "counts".to_string(),
                V::Obj(
                    first
                        .layer_counts()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), V::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "sim_attr_ps".to_string(),
                V::Obj(
                    first
                        .sim_attr_ps
                        .iter()
                        .map(|(k, v)| (k.clone(), V::Num(*v as f64)))
                        .collect(),
                ),
            ),
            ("fingerprint".to_string(), V::Obj(fingerprint)),
        ]);
        // Every op's simulated latency, for op-by-op comparison of runs.
        let lat = first
            .ops
            .iter()
            .map(|o| V::Num(o.latency_ps.map_or(-1.0, |p| p as f64)))
            .collect();
        obj.insert("op_latency_ps".to_string(), V::Arr(lat));
        V::Obj(obj).to_string()
    }
}
