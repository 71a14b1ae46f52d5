//! Host-side measurement from outside the program: wall-clock spans the
//! benchmark records around each call it makes into a layer's public
//! functions, an allocation counter, and the simulator counters read back
//! through public accessors after each run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use accl_sim::sim::Simulator;

/// Global allocator wrapper counting allocation calls (alloc, realloc,
/// alloc_zeroed), for the `sim.allocs_per_event` metric.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Allocation calls made by this process so far (zero unless
/// [`CountingAlloc`] is the global allocator).
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// A call into one layer's public functions, as the benchmark times it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Span {
    /// `AcclCluster::build` and the configuration calls made before a run.
    CoreBuild,
    /// Buffer allocation (TLB mapping on Coyote) and initial writes.
    MemFill,
    /// Reading result buffers back for verification.
    MemRead,
    /// `run_host_programs` / `run_kernel_programs`: the simulated run,
    /// whose host time is spent in sim, net, poe and cclo.
    CoreRun,
    /// The software-MPI baseline: cluster build and collective.
    Swmpi,
    /// `DlrmModel::generate`.
    DlrmGenerate,
    /// The DLRM pipeline call: reference model plus simulated run.
    DlrmPipeline,
    /// The benchmark's own golden-data computation and comparison.
    Check,
}

impl Span {
    /// Whether the span counts toward set-up time (`setup_s`) rather than
    /// run time (`run_s`).
    pub fn is_setup(self) -> bool {
        matches!(self, Span::CoreBuild | Span::MemFill | Span::DlrmGenerate)
    }

    /// Whether the simulator's event loop runs inside the span.
    pub fn simulates(self) -> bool {
        matches!(self, Span::CoreRun | Span::Swmpi | Span::DlrmPipeline)
    }
}

/// Per-pass host measurements and simulator readouts.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    /// Host seconds per span kind.
    pub host_s: BTreeMap<Span, f64>,
    /// Allocation calls made inside simulating spans.
    pub sim_allocs: u64,
    /// Simulator events executed, over every simulator the pass built.
    pub events: u64,
    /// Largest event-queue depth any run reached.
    pub max_queue_depth: u64,
    /// Simulator counters summed over every simulator the pass built.
    pub counters: BTreeMap<String, u64>,
}

impl Probe {
    /// Runs `f`, charging its wall-clock time to `span`.
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let allocs = alloc_calls();
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        *self.host_s.entry(span).or_insert(0.0) += dt;
        if span.simulates() {
            self.sim_allocs += alloc_calls() - allocs;
        }
        out
    }

    /// Host seconds charged to `span`.
    pub fn host(&self, span: Span) -> f64 {
        self.host_s.get(&span).copied().unwrap_or(0.0)
    }

    /// Host seconds of set-up spans.
    pub fn setup_s(&self) -> f64 {
        self.host_s
            .iter()
            .filter(|(s, _)| s.is_setup())
            .map(|(_, t)| t)
            .sum()
    }

    /// Host seconds of run spans.
    pub fn run_s(&self) -> f64 {
        self.host_s
            .iter()
            .filter(|(s, _)| !s.is_setup())
            .map(|(_, t)| t)
            .sum()
    }

    /// Records the queue depth of the simulator's last run.
    pub fn after_run(&mut self, sim: &Simulator) {
        if let Some(summary) = sim.last_run_summary() {
            self.max_queue_depth = self.max_queue_depth.max(summary.max_queue_depth as u64);
        }
    }

    /// Folds a finished simulator's event count and counters into the pass.
    pub fn absorb(&mut self, sim: &Simulator) {
        self.after_run(sim);
        self.events += sim.events_executed();
        for (key, value) in sim.stats().counters() {
            *self.counters.entry(key.to_string()).or_insert(0) += value;
        }
    }

    /// A simulator counter summed over the pass.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn allocation_counter_counts_allocations() {
        let mut probe = Probe::default();
        let before = probe.sim_allocs;
        let v = probe.time(Span::CoreRun, || {
            let mut v: Vec<Box<u64>> = Vec::new();
            for i in 0..100 {
                v.push(Box::new(i));
            }
            v
        });
        assert_eq!(v.len(), 100);
        // 100 boxes plus the vector's growth reallocations; other test
        // threads may add a few of their own.
        assert!(probe.sim_allocs - before >= 100);
        // Non-simulating spans do not charge allocations.
        let after = probe.sim_allocs;
        probe.time(Span::Check, || Box::new(1u8));
        assert_eq!(probe.sim_allocs, after);
    }

    #[test]
    fn setup_and_run_partition_the_spans() {
        let mut probe = Probe::default();
        probe.host_s.insert(Span::CoreBuild, 1.0);
        probe.host_s.insert(Span::MemFill, 0.5);
        probe.host_s.insert(Span::CoreRun, 2.0);
        probe.host_s.insert(Span::Check, 0.25);
        assert_eq!(probe.setup_s(), 1.5);
        assert_eq!(probe.run_s(), 2.25);
    }
}
