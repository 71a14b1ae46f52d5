//! Criterion microbenchmarks of the simulation kernel's hot paths: event
//! scheduling/dispatch, bandwidth-pipe reservations, and the sparse
//! memory store. These gate the wall-clock cost of every experiment.
//!
//! Beyond the criterion groups, the binary times a set of queue-heavy
//! workloads (1M-event churn, mixed near/far timers) with a counting
//! allocator and emits machine-readable `BENCH_simcore.json` with
//! events/sec and allocs/event, alongside the frozen pre-overhaul
//! baseline so the perf trajectory is tracked in-repo.
//!
//! Set `ACCL_BENCH_QUICK=1` for a CI-friendly smoke run (fewer samples,
//! shorter workloads apart from the two 1M-event chains, same JSON
//! schema).

use criterion::{criterion_group, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use accl_mem::MemStore;
use accl_sim::json::quote;
use accl_sim::prelude::*;
use accl_sim::{trace_end, trace_span};

/// Global allocator wrapper counting allocation calls, so the JSON report
/// can track allocs/event. Each payload is one allocation, so a chain
/// reads about 1.0 and the queue's own storage shows as the excess.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Sink;
impl Component for Sink {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
        black_box(payload.downcast::<u64>());
    }
}

struct SelfChain {
    remaining: u64,
}
impl Component for SelfChain {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        let v = payload.downcast::<u64>();
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_self(port, Dur::from_ns(1), v + 1);
        }
    }
}

/// [`SelfChain`] instrumented like an engine hot path: every event opens
/// and closes a span with two attributes. Run with span recording off, its
/// rate against `chain_1m_events` is the idle cost of the instrumentation.
struct SpannedChain {
    remaining: u64,
}
impl Component for SpannedChain {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        let v = payload.downcast::<u64>();
        let span = trace_span!(
            ctx,
            "bench.chain",
            SpanId::NONE,
            "v" = v,
            "left" = self.remaining
        );
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_self(port, Dur::from_ns(1), v + 1);
        }
        trace_end!(ctx, span);
    }
}

/// A chain that interleaves short-delay events with periodic far-future
/// messages (RTO-like, 100 us out). They are plain sends, not timer slots,
/// so one in 64 events stays queued under the near chain and the heap
/// grows to thousands of entries: the deep-queue case a watchdog re-armed
/// through `Ctx::arm_timer` no longer creates.
struct MixedTimerChain {
    remaining: u64,
    timer_sink: Endpoint,
}
impl Component for MixedTimerChain {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        let v = payload.downcast::<u64>();
        if self.remaining > 0 {
            self.remaining -= 1;
            if self.remaining.is_multiple_of(64) {
                // Far-future message: stays queued, deepening the heap.
                ctx.send(self.timer_sink, Dur::from_us(100), v);
            }
            ctx.send_self(port, Dur::from_ns(1), v + 1);
        }
    }
}

fn bench_event_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore/event_dispatch");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("chain_10k_events", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(0);
            let id = sim.add("chain", SelfChain { remaining: 10_000 });
            sim.post(Endpoint::of(id), Time::ZERO, 0u64);
            sim.run();
            black_box(sim.events_executed())
        })
    });
    g.finish();
}

/// Posts a batch of events and drains it: a heap as deep as the batch,
/// the event queue's worst case.
fn bench_fanout_schedule(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore/heap");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("post_then_drain_10k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(0);
            let sink = sim.add("sink", Sink);
            for i in 0..10_000u64 {
                // Reverse-ish order stresses the heap.
                sim.post(Endpoint::of(sink), Time::from_ps(10_000 - i), i);
            }
            sim.run();
            black_box(sim.now())
        })
    });
    g.finish();
}

fn bench_pipe(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore/pipe");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("reserve_100k", |b| {
        b.iter(|| {
            // black_box the rate so LTO can't constant-fold the whole loop.
            let mut p = Pipe::gbps(black_box(100.0));
            let mut t = Time::ZERO;
            for _ in 0..100_000 {
                let (_, end) = p.reserve(t, black_box(4096));
                t = end;
            }
            black_box(p.bytes_moved())
        })
    });
    g.finish();
}

fn bench_memstore(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore/memstore");
    let data = vec![0xa5u8; 1 << 20];
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("write_read_1mib", |b| {
        b.iter(|| {
            let mut m = MemStore::new();
            m.write(0x1234, &data);
            black_box(m.read(0x1234, data.len()))
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------------
// JSON-emitting workloads (events/sec + allocs/event)
// ---------------------------------------------------------------------------

/// One measured workload result.
struct WorkloadResult {
    name: &'static str,
    events: u64,
    events_per_sec: f64,
    allocs_per_event: f64,
}

/// Times `work` (which returns the number of events it executed) over
/// `reps` repetitions, reporting best-rep throughput and allocs/event.
fn measure(name: &'static str, reps: u32, mut work: impl FnMut() -> u64) -> WorkloadResult {
    let [row] = measure_interleaved(reps, [(name, &mut work)]);
    row
}

/// [`measure`] for workloads whose rates are compared with each other:
/// their timed reps alternate in one loop (`a b`, then `b a`, ...), so a
/// slow stretch of the machine hits every row alike instead of whichever
/// ran last.
fn measure_interleaved<const N: usize>(
    reps: u32,
    rows: [(&'static str, &mut dyn FnMut() -> u64); N],
) -> [WorkloadResult; N] {
    // Warm-up rep, also used for the allocation count.
    let mut rows = rows.map(|(name, work)| {
        let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
        let events = work();
        let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
        (name, work, events, allocs, Duration::MAX)
    });
    for rep in 0..reps {
        for k in 0..N {
            let i = if rep % 2 == 0 { k } else { N - 1 - k };
            let (name, work, events, _, best) = &mut rows[i];
            let start = Instant::now();
            let n = black_box(work());
            let elapsed = start.elapsed();
            assert_eq!(n, *events, "workload {name} is not steady");
            *best = (*best).min(elapsed);
        }
    }
    rows.map(|(name, _, events, allocs, best)| WorkloadResult {
        name,
        events,
        events_per_sec: events as f64 / best.as_secs_f64(),
        allocs_per_event: allocs as f64 / events as f64,
    })
}

/// Runs a self-chain from one seed event; returns the events executed.
fn run_chain(chain: impl Component) -> u64 {
    let mut sim = Simulator::new(0);
    let id = sim.add("chain", chain);
    sim.post(Endpoint::of(id), Time::ZERO, 0u64);
    sim.run();
    sim.events_executed()
}

/// A self-chain that exercises the metrics hot path on every event: one
/// counter add plus one histogram observation, the instrumentation
/// density of the real engine components (switch, POE, DMP).
struct MeteredChain {
    remaining: u64,
}
impl Component for MeteredChain {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
        let v = payload.downcast::<u64>();
        ctx.stats().add("bench.chain.events", 1);
        ctx.stats().observe("bench.chain.value", v);
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_self(port, Dur::from_ns(1), v + 1);
        }
    }
}

/// The windowed-SLO overhead workload: the metered chain with fixed-width
/// sim-time metric windows on or off. The window router runs on every
/// stats write, so the `chain_metered` vs `chain_windowed` delta is the
/// full per-write cost of the `accl-obs` time-series export.
fn metered_chain(n: u64, window: Option<Dur>) -> u64 {
    let mut sim = Simulator::new(0);
    if let Some(width) = window {
        sim.enable_metric_windows(width);
    }
    let id = sim.add("chain", MeteredChain { remaining: n });
    sim.post(Endpoint::of(id), Time::ZERO, 0u64);
    sim.run();
    sim.events_executed()
}

fn mixed_near_far(n: u64) -> u64 {
    let mut sim = Simulator::new(0);
    let sink = sim.add("sink", Sink);
    let id = sim.reserve("mix");
    sim.install(
        id,
        MixedTimerChain {
            remaining: n,
            timer_sink: Endpoint::of(sink),
        },
    );
    sim.post(Endpoint::of(id), Time::ZERO, 0u64);
    sim.run();
    sim.events_executed()
}

fn post_then_drain(n: u64) -> u64 {
    let mut sim = Simulator::new(0);
    let sink = sim.add("sink", Sink);
    for i in 0..n {
        sim.post(Endpoint::of(sink), Time::from_ps(n - i), i);
    }
    sim.run();
    sim.events_executed()
}

/// Pre-PR2 kernel baseline (global `BinaryHeap<Scheduled>`, one `Box` per
/// payload, `Vec<u8>` chunk copies), measured on the CI container before
/// the tiered-queue/inline-payload overhaul. Frozen so every future run
/// reports its speedup against the same reference.
const BASELINE: &[(&str, f64, f64)] = &[
    // (workload, events_per_sec, allocs_per_event) — measured 2026-08-07
    ("chain_10k_events", 20_337_239.0, 1.0),
    ("chain_1m_events", 17_518_890.0, 1.0),
    ("mixed_near_far_256k", 7_767_264.0, 1.0),
    ("post_then_drain_100k", 5_288_176.0, 1.0),
];

fn emit_json(results: &[WorkloadResult], quick: bool) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"micro_simcore\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    // CPUs this process may run on: a `taskset` pin makes it 1.
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(
        "  \"baseline_note\": \"pre-overhaul kernel: BinaryHeap + boxed payloads + copied chunks\",\n",
    );
    out.push_str("  \"baseline\": {\n");
    for (i, (name, eps, ape)) in BASELINE.iter().enumerate() {
        out.push_str(&format!(
            "    {}: {{\"events_per_sec\": {:.0}, \"allocs_per_event\": {:.3}}}{}\n",
            quote(name),
            eps,
            ape,
            if i + 1 < BASELINE.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"current\": {\n");
    for (i, r) in results.iter().enumerate() {
        let speedup = BASELINE
            .iter()
            .find(|(n, _, _)| *n == r.name)
            .map(|(_, eps, _)| r.events_per_sec / eps);
        out.push_str(&format!(
            "    {}: {{\"events\": {}, \"events_per_sec\": {:.0}, \"allocs_per_event\": {:.3}{}}}{}\n",
            quote(r.name),
            r.events,
            r.events_per_sec,
            r.allocs_per_event,
            speedup
                .map(|s| format!(", \"speedup_vs_baseline\": {s:.2}"))
                .unwrap_or_default(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    // Write to the workspace root (cargo runs benches with the package dir
    // as cwd) so CI can pick the file up from a fixed path.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json");
    std::fs::write(path, &out).expect("write BENCH_simcore.json");
    println!("\nwrote BENCH_simcore.json:\n{out}");
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets =
    bench_event_dispatch,
    bench_fanout_schedule,
    bench_pipe,
    bench_memstore
);

fn main() {
    let quick = std::env::var("ACCL_BENCH_QUICK").is_ok_and(|v| v == "1");
    if !quick {
        benches();
    }

    let (mix_n, drain_n, reps) = if quick {
        (32_768u64, 10_000u64, 2)
    } else {
        (262_144, 100_000, 5)
    };
    // The two "1m" chains run at full length in quick mode too: CI gates
    // their ratio within 2%, and a shorter chain (a few ms) is noisier
    // than that.
    let chain_n = 1_000_000u64;
    // CI gates `chain_1m_spans_off` within 2% of `chain_1m_events` of the
    // same run, so the two rows are measured interleaved.
    let chain_10k = measure("chain_10k_events", reps, || {
        run_chain(SelfChain { remaining: 10_000 })
    });
    let [chain_1m, spans_off] = measure_interleaved(
        reps,
        [
            ("chain_1m_events", &mut || {
                run_chain(SelfChain { remaining: chain_n })
            }),
            ("chain_1m_spans_off", &mut || {
                run_chain(SpannedChain { remaining: chain_n })
            }),
        ],
    );
    let results = vec![
        chain_10k,
        chain_1m,
        spans_off,
        measure("mixed_near_far_256k", reps, move || mixed_near_far(mix_n)),
        measure("post_then_drain_100k", reps, move || {
            post_then_drain(drain_n)
        }),
        // Windowed-metrics overhead pair: identical event population and
        // per-event stats writes; only the sim-time window router differs.
        measure("chain_100k_metered", reps, move || {
            metered_chain(drain_n, None)
        }),
        measure("chain_100k_windowed", reps, move || {
            metered_chain(drain_n, Some(Dur::from_us(1)))
        }),
    ];
    for r in &results {
        println!(
            "workload {:<24} {:>12.0} events/s  {:>7.3} allocs/event",
            r.name, r.events_per_sec, r.allocs_per_event
        );
    }

    emit_json(&results, quick);
}
