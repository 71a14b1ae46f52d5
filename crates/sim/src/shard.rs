//! Conservative parallel execution of the discrete-event simulator.
//!
//! The cluster decomposes naturally by rank: each node's components (CCLO,
//! POE, DMA, host) interact densely with each other and only talk to other
//! nodes through network links that carry a physical propagation delay. This
//! module exploits that structure: components are partitioned (by
//! [`crate::sim::Simulator::assign_partitions`]), each partition becomes a
//! *shard* with its own tiered-calendar event queue, and shards advance
//! concurrently inside conservative *safe windows* whose width is bounded by
//! the minimum cross-partition link delay — the *lookahead*, extracted from
//! the network topology.
//!
//! # Synchronization protocol: barrier windows
//!
//! We use barrier-window synchronization rather than per-link null messages
//! (Chandy–Misra–Bryant). Null messages shine when partitions are loosely
//! coupled and a global barrier would over-synchronize; here every rank
//! exchanges traffic with the switch partition every few hundred nanoseconds,
//! so the *global* minimum next-event time is an accurate progress bound and
//! two barriers per window are cheaper than per-edge timestamp flooding —
//! and, crucially, the barrier gives a natural deterministic merge point.
//!
//! Each window runs three phases:
//!
//! - **Phase C (decide)** — every worker independently computes the same
//!   decision (advance to `W`, or finish) from per-partition gauges that were
//!   published in the previous phase B. No barrier is needed: the inputs are
//!   only ever written between the two barriers, so they are stable and
//!   identical for all workers.
//! - **Phase A (execute)** — each worker runs its shards' events with
//!   `time < W`, accumulating cross-partition sends into per-destination
//!   outboxes, then appends them to shared per-`(src, dst)` mailboxes.
//! - **Barrier, Phase B (merge + publish), barrier** — each worker drains its
//!   shards' inboxes (in source-partition order) into the shard queues, then
//!   publishes `next event time`, `queue depth`, `events executed` and the
//!   stop flag for the next phase C.
//!
//! The window end is `W = min(gmin + max(lookahead, 1 ps), horizon,
//! deadline)` where `gmin` is the global minimum next-event time: always
//! strictly greater than `gmin`, so every window executes at least one event
//! and the simulation cannot livelock even with zero lookahead.
//!
//! # Why thread count never changes the result
//!
//! Safety: an event executing at `t ∈ [gmin, W)` can only schedule a
//! cross-partition event at `t + d` with `d ≥ lookahead`, hence at
//! `t + d ≥ gmin + lookahead ≥ W` — never inside the open window. A shard
//! therefore never receives an event earlier than something it already
//! executed. [`ShardRouter::send_remote`] asserts this and panics naming the
//! offending edge (the lookahead-violation detector).
//!
//! Determinism: inside a shard, events are keyed
//! `((local_seq << SHARD_BITS) | source_partition)`, so the execution order
//! is the pure function `(time, seq, source-partition)` of the simulation —
//! per-channel FIFO is preserved and nothing depends on thread scheduling.
//! Shards are always one-per-*partition* (workers own `partition % workers`),
//! so the decomposition — and with it every digest — is identical at any
//! worker count. At merge points (scatter/gather and the end-of-run merge)
//! events are combined by a **stable** sort on `(time, key)`; keys are
//! globally unique, so the order is total and deterministic.
//!
//! Relative to the sequential loop, parallel execution is the same timeline
//! modulo a *channel-preserving tie permutation* (the class of reorderings
//! the `race-detect` shadow runs certify handlers commute under), with these
//! documented window-granularity divergences: `Ctx::stop` takes effect at the
//! next window edge instead of the next event; the event budget can overshoot
//! by up to one window; the final time after `Stopped`/`Budget` is the
//! maximum shard time; and queue-depth gauges are sampled per window, not
//! per event.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use crate::digest::{fnv1a, FNV_OFFSET};
use crate::event::{ComponentId, Endpoint, Payload};
use crate::sim::{DepthGauges, RunOutcome, Simulator};
use crate::time::{Dur, Time};

/// Low bits of a shard event key that carry the source-partition tag; the
/// rest is the shard-local sequence number.
pub(crate) const SHARD_BITS: u32 = 12;

/// Mask for the source-partition tag bits.
pub(crate) const SHARD_MASK: u64 = (1 << SHARD_BITS) - 1;

/// Source tag for events that did not originate in any shard this epoch:
/// events pending in the master queue at scatter time (external posts,
/// leftovers of a previous epoch). Reserved — partition ids must stay below
/// it.
pub(crate) const TAG_EXTERNAL: u64 = SHARD_MASK;

/// A cross-partition event in flight between shards.
struct RemoteEv {
    time: Time,
    /// Merge key: `(local_seq << SHARD_BITS) | source_partition`.
    key: u64,
    /// Source component index (tie-permutation channel id under
    /// `race-detect`; carried unconditionally to keep the struct simple).
    src: u32,
    dst: Endpoint,
    payload: Payload,
}

/// Routes cross-partition sends while a shard executes a window.
pub(crate) struct ShardRouter {
    partition: u32,
    partition_of: Arc<Vec<u32>>,
    names: Arc<Vec<String>>,
    lookahead: Dur,
    /// End of the window currently executing; a remote event scheduled
    /// before this is a lookahead violation.
    window_end: Time,
    /// Outgoing events accumulated this window, per destination partition.
    outboxes: Vec<Vec<RemoteEv>>,
}

impl ShardRouter {
    /// This shard's partition id, as the low bits of a merge key.
    pub(crate) fn partition_tag(&self) -> u64 {
        u64::from(self.partition)
    }

    /// Whether `dst` lives in this shard's partition.
    pub(crate) fn is_local(&self, dst: Endpoint) -> bool {
        self.partition_of[dst.comp.index()] == self.partition
    }

    /// Queues a cross-partition event for delivery at the next merge.
    ///
    /// # Panics
    ///
    /// Panics when `at` lies inside the open safe window — the sending edge
    /// carries less than the configured lookahead, which would let thread
    /// scheduling change the timeline. The message names the edge.
    pub(crate) fn send_remote(
        &mut self,
        at: Time,
        key: u64,
        src: ComponentId,
        dst: Endpoint,
        payload: Payload,
    ) {
        assert!(
            at >= self.window_end,
            "lookahead violation: {} -> {} scheduled at {} inside the open safe window \
             (window end {}, configured lookahead {}); cross-partition events must carry \
             at least the lookahead delay, or the components must share a partition",
            self.names[src.index()],
            self.names[dst.comp.index()],
            at,
            self.window_end,
            self.lookahead,
        );
        let dstp = self.partition_of[dst.comp.index()] as usize;
        self.outboxes[dstp].push(RemoteEv {
            time: at,
            key,
            src: src.index() as u32,
            dst,
            payload,
        });
    }
}

/// One partition's slice of the simulation: its own event queue, the
/// components it owns (a full-length slot vector with `None` elsewhere),
/// and a router for cross-partition sends.
struct Shard {
    partition: u32,
    sim: Simulator,
    router: ShardRouter,
}

impl Shard {
    /// Phase A: executes this shard's events with `time < window_end`
    /// (bounded by `cap`), then hands accumulated cross-partition events to
    /// the shared mailboxes.
    fn run_window(&mut self, window_end: Time, cap: u64, coord: &Coord) {
        self.router.window_end = window_end;
        let mut n = 0u64;
        while n < cap && !self.sim.stop {
            match self.sim.queue.peek_time() {
                Some(t) if t < window_end => {}
                _ => break,
            }
            self.sim.step_with_router(&mut self.router);
            n += 1;
        }
        let p = self.partition as usize;
        for (dstp, outbox) in self.router.outboxes.iter_mut().enumerate() {
            if outbox.is_empty() {
                continue;
            }
            let mut slot = lock(&coord.mailboxes[p * coord.nparts + dstp]);
            slot.append(outbox);
        }
    }

    /// Phase B: drains this shard's inboxes (in source-partition order,
    /// though the `(time, key)` queue order makes insertion order
    /// irrelevant) and publishes the gauges the next decision reads.
    fn merge_and_publish(&mut self, coord: &Coord) {
        let p = self.partition as usize;
        for src in 0..coord.nparts {
            let mut inbox = lock(&coord.mailboxes[src * coord.nparts + p]);
            for ev in inbox.drain(..) {
                #[cfg(feature = "race-detect")]
                self.sim.queue.set_tie_src(ev.src);
                let _ = ev.src;
                self.sim.queue.push(ev.time, ev.key, ev.dst, ev.payload);
            }
        }
        #[cfg(feature = "race-detect")]
        self.sim.queue.set_tie_src(crate::queue::SRC_EXTERNAL);
        let next = self.sim.queue.peek_time().map_or(u64::MAX, |t| t.as_ps());
        coord.next_times[p].store(next, Ordering::SeqCst);
        coord.depth[p].store(self.sim.queue.len() as u64, Ordering::SeqCst);
        coord.executed[p].store(self.sim.executed, Ordering::SeqCst);
        if self.sim.stop {
            coord.stop.store(true, Ordering::SeqCst);
        }
    }
}

/// Locks a mutex, recovering from poisoning: a worker that panicked while
/// holding a lock has already flagged [`Coord::poisoned`], and everyone is
/// on the way out — the data behind the lock no longer matters.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Shared worker coordination state for one epoch.
struct Coord {
    nparts: usize,
    barrier: Barrier,
    /// Cross-partition event channels, indexed `src * nparts + dst`. Each
    /// slot is written only by the owner of `src` (phase A) and drained only
    /// by the owner of `dst` (phase B); the mutex makes that safe without
    /// encoding the ownership in types.
    mailboxes: Vec<Mutex<Vec<RemoteEv>>>,
    /// Per-partition next-event time in ps (`u64::MAX` = queue empty).
    next_times: Vec<AtomicU64>,
    /// Per-partition queue depth, for the scheduler gauges.
    depth: Vec<AtomicU64>,
    /// Per-partition cumulative events executed this epoch.
    executed: Vec<AtomicU64>,
    /// Sticky `Ctx::stop` flag, OR of all shards.
    stop: AtomicBool,
    /// Set when any worker panicked; everyone unwinds at the next barrier.
    poisoned: AtomicBool,
    /// First panic payload, rethrown on the main thread after join.
    poison: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Coord {
    fn new(nparts: usize, nworkers: usize, shards: &mut [Shard]) -> Self {
        let coord = Coord {
            nparts,
            barrier: Barrier::new(nworkers),
            mailboxes: (0..nparts * nparts)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            next_times: (0..nparts).map(|_| AtomicU64::new(u64::MAX)).collect(),
            depth: (0..nparts).map(|_| AtomicU64::new(0)).collect(),
            executed: (0..nparts).map(|_| AtomicU64::new(0)).collect(),
            stop: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            poison: Mutex::new(None),
        };
        // Seed the first decision's inputs, as if a phase B had just run.
        for shard in shards.iter_mut() {
            let p = shard.partition as usize;
            let next = shard.sim.queue.peek_time().map_or(u64::MAX, |t| t.as_ps());
            coord.next_times[p].store(next, Ordering::SeqCst);
            coord.depth[p].store(shard.sim.queue.len() as u64, Ordering::SeqCst);
        }
        coord
    }

    fn poison(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = lock(&self.poison);
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.poisoned.store(true, Ordering::SeqCst);
    }
}

/// Immutable per-epoch inputs to the replicated decision.
struct DecideParams {
    horizon: Time,
    /// Events this epoch may execute (already net of previous epochs).
    budget: u64,
    lookahead: Dur,
    deadline: Option<Time>,
}

/// The phase-B-published gauges, read identically by every worker.
struct Snapshot {
    /// Global minimum next-event time in ps (`None` = all queues empty).
    gmin: Option<u64>,
    executed: u64,
    depth: usize,
    stop: bool,
}

impl Snapshot {
    fn read(coord: &Coord) -> Self {
        let mut gmin = u64::MAX;
        let mut executed = 0u64;
        let mut depth = 0usize;
        for p in 0..coord.nparts {
            gmin = gmin.min(coord.next_times[p].load(Ordering::SeqCst));
            executed += coord.executed[p].load(Ordering::SeqCst);
            depth += coord.depth[p].load(Ordering::SeqCst) as usize;
        }
        Snapshot {
            gmin: (gmin != u64::MAX).then_some(gmin),
            executed,
            depth,
            stop: coord.stop.load(Ordering::SeqCst),
        }
    }
}

/// Why the workers stopped advancing windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Finish {
    Stopped,
    Drained,
    /// Carries `gmin` in ps, for the final-time clamp.
    Horizon(u64),
    Budget,
    /// The stall deadline fell at or before the next event; the epoch
    /// controller sweeps for parked work and either stalls or resumes.
    DeadlineCross,
    Poisoned,
}

enum Decision {
    Finish(Finish),
    Advance { window_end: Time, cap: u64 },
}

/// The replicated decision — mirrors the sequential loop's check order:
/// stop, stall-deadline crossing, drain, horizon, budget, then advance.
fn decide(snap: &Snapshot, params: &DecideParams) -> Decision {
    if snap.stop {
        return Decision::Finish(Finish::Stopped);
    }
    if let (Some(deadline), Some(gmin)) = (params.deadline, snap.gmin) {
        if gmin >= deadline.as_ps() {
            return Decision::Finish(Finish::DeadlineCross);
        }
    }
    let Some(gmin) = snap.gmin else {
        return Decision::Finish(Finish::Drained);
    };
    if gmin >= params.horizon.as_ps() {
        return Decision::Finish(Finish::Horizon(gmin));
    }
    if snap.executed >= params.budget {
        return Decision::Finish(Finish::Budget);
    }
    // Always > gmin (1 ps minimum progress), so every window executes at
    // least one event. The horizon/deadline clamps cannot bite below gmin:
    // both were just checked to lie strictly above it.
    let mut end = gmin.saturating_add(params.lookahead.as_ps().max(1));
    end = end.min(params.horizon.as_ps());
    if let Some(d) = params.deadline {
        end = end.min(d.as_ps());
    }
    Decision::Advance {
        window_end: Time::from_ps(end),
        cap: params.budget - snap.executed,
    }
}

/// One worker's window loop. All workers run the identical control flow and
/// reach every barrier the same number of times; a panic in either phase is
/// caught, recorded in [`Coord::poison`], and unanimously observed right
/// after the next barrier, so nobody is ever left waiting.
fn worker_loop(
    mut shards: Vec<Shard>,
    coord: &Coord,
    params: &DecideParams,
    mut gauges: Option<&mut DepthGauges>,
) -> (Finish, Vec<Shard>) {
    loop {
        // Phase C: replicated decision. The inputs are written only between
        // the two barriers (phase B), so they are stable here and every
        // worker computes the same answer without synchronizing.
        let snap = Snapshot::read(coord);
        if let Some(g) = gauges.as_deref_mut() {
            g.observe(snap.executed, snap.depth);
        }
        let (window_end, cap) = match decide(&snap, params) {
            Decision::Finish(f) => return (f, shards),
            Decision::Advance { window_end, cap } => (window_end, cap),
        };
        // Phase A: execute the window. Writes only mailboxes and private
        // shard state — never the decision inputs.
        let res = catch_unwind(AssertUnwindSafe(|| {
            for shard in shards.iter_mut() {
                shard.run_window(window_end, cap, coord);
            }
        }));
        if let Err(payload) = res {
            coord.poison(payload);
        }
        coord.barrier.wait();
        if coord.poisoned.load(Ordering::SeqCst) {
            // Uniform: the flag was set before the barrier, so every worker
            // sees it here and returns without touching the barrier again.
            return (Finish::Poisoned, shards);
        }
        // Phase B: merge inboxes, publish the next decision's inputs.
        let res = catch_unwind(AssertUnwindSafe(|| {
            for shard in shards.iter_mut() {
                shard.merge_and_publish(coord);
            }
        }));
        if let Err(payload) = res {
            coord.poison(payload);
        }
        coord.barrier.wait();
        if coord.poisoned.load(Ordering::SeqCst) {
            return (Finish::Poisoned, shards);
        }
    }
}

/// Splits the master simulator into one shard per partition: components move
/// to their partition's slot vector, pending events move to their
/// destination's queue (keyed `(seq << SHARD_BITS) | TAG_EXTERNAL`, which
/// preserves their order relative to everything a shard schedules later),
/// and every observer — digest, trace ring, span recorder, tie recorder —
/// forks an empty shard-local instance.
fn scatter(sim: &mut Simulator, nparts: usize) -> Vec<Shard> {
    let start_seq = sim.seq;
    let names = Arc::new(sim.names.clone());
    let partition_of = Arc::new(sim.partition_of.clone());
    let mut shards: Vec<Shard> = (0..nparts as u32)
        .map(|p| {
            let mut shard_sim = Simulator::new_with_queue(sim.seed(), sim.queue_kind());
            shard_sim.time = sim.time;
            shard_sim.seq = start_seq;
            shard_sim.names = sim.names.clone();
            shard_sim.components = (0..sim.components.len()).map(|_| None).collect();
            shard_sim.partition_of = sim.partition_of.clone();
            shard_sim.spans = sim.spans.fork_for_partition(p, &sim.partition_of);
            if let Some(w) = sim.stats.window_width() {
                shard_sim.stats.enable_windows(w);
            }
            if sim.digest.is_some() {
                shard_sim.digest = Some(FNV_OFFSET);
            }
            if let Some((_, cap)) = &sim.trace {
                shard_sim.trace = Some((Vec::with_capacity(*cap), *cap));
            }
            #[cfg(feature = "race-detect")]
            {
                if sim.tie_rec.is_some() {
                    shard_sim.tie_rec = Some(crate::race::TieRecorder::new());
                }
                if let Some(salt) = sim.queue.tie_salt() {
                    shard_sim.queue.set_tie_salt(Some(salt));
                }
            }
            let router = ShardRouter {
                partition: p,
                partition_of: partition_of.clone(),
                names: names.clone(),
                lookahead: sim.lookahead(),
                window_end: Time::ZERO,
                outboxes: (0..nparts).map(|_| Vec::new()).collect(),
            };
            Shard {
                partition: p,
                sim: shard_sim,
                router,
            }
        })
        .collect();
    for (i, slot) in sim.components.iter_mut().enumerate() {
        if let Some(comp) = slot.take() {
            shards[sim.partition_of[i] as usize].sim.components[i] = Some(comp);
        }
    }
    while let Some((time, seq, idx)) = sim.queue.pop_key() {
        let (dst, payload) = sim.queue.take(idx);
        let key = (seq << SHARD_BITS) | TAG_EXTERNAL;
        let p = sim.partition_of[dst.comp.index()] as usize;
        shards[p].sim.queue.push(time, key, dst, payload);
    }
    shards
}

/// Merges the shards back into the master, in partition order throughout so
/// the result is a pure function of the simulation. Components return to
/// their slots; leftover events are stable-sorted by `(time, key)` (keys are
/// globally unique) and renumbered with fresh consecutive master seqs; stats
/// histograms merge; per-shard timeline digests fold into the master digest;
/// trace rings and span rings merge chronologically keeping the newest
/// `cap`; tie-sets merge time-by-time. Returns the maximum shard time.
fn gather(sim: &mut Simulator, mut shards: Vec<Shard>, stop: bool) -> Time {
    shards.sort_by_key(|s| s.partition);
    let start_seq = sim.seq;
    let mut t_max = sim.time;

    let trace_cap = sim.trace.as_ref().map(|(_, cap)| *cap);
    let mut trace_records = if trace_cap.is_some() {
        sim.trace()
    } else {
        Vec::new()
    };

    #[cfg(feature = "race-detect")]
    let mut tie_sets: std::collections::BTreeMap<Time, Vec<crate::race::CanonRec>> =
        std::collections::BTreeMap::new();

    let mut span_parts = Vec::with_capacity(shards.len());
    let mut leftovers: Vec<(Time, u64, Endpoint, Payload)> = Vec::new();
    for shard in &mut shards {
        let shard_sim = &mut shard.sim;
        t_max = t_max.max(shard_sim.time);
        sim.executed += shard_sim.executed;
        sim.stats.merge(&shard_sim.stats);
        if let (Some(digest), Some(shard_digest)) = (&mut sim.digest, shard_sim.digest) {
            fnv1a(digest, &shard_digest.to_le_bytes());
        }
        if trace_cap.is_some() {
            trace_records.extend(shard_sim.trace());
        }
        #[cfg(feature = "race-detect")]
        if let Some(rec) = shard_sim.tie_rec.take() {
            for (time, recs) in rec.take_records() {
                tie_sets.entry(time).or_default().extend(recs);
            }
        }
        span_parts.push(core::mem::take(&mut shard_sim.spans));
        for (i, slot) in shard_sim.components.iter_mut().enumerate() {
            if let Some(comp) = slot.take() {
                sim.components[i] = Some(comp);
            }
        }
        while let Some((time, key, idx)) = shard_sim.queue.pop_key() {
            let (dst, payload) = shard_sim.queue.take(idx);
            leftovers.push((time, key, dst, payload));
        }
    }

    // Stable on unique keys: a total, scheduling-independent order.
    leftovers.sort_by_key(|&(time, key, _, _)| (time, key));
    let count = leftovers.len() as u64;
    for (i, (time, _, dst, payload)) in leftovers.into_iter().enumerate() {
        sim.queue.push(time, start_seq + i as u64, dst, payload);
    }
    sim.seq = start_seq + count;

    #[cfg(feature = "race-detect")]
    if let Some(rec) = &mut sim.tie_rec {
        for (time, recs) in tie_sets {
            for r in recs {
                rec.record_raw(time, r);
            }
        }
    }

    sim.spans.absorb_shards(span_parts);

    if let Some(cap) = trace_cap {
        trace_records.sort_by_key(|r| r.time);
        if trace_records.len() > cap {
            trace_records.drain(..trace_records.len() - cap);
        }
        let ring = if trace_records.len() < cap {
            trace_records
        } else {
            // `Simulator::trace` unwraps the ring at `executed % cap`;
            // store the chronological records rotated to match.
            let split = (sim.executed as usize) % cap;
            let mut ring = trace_records.split_off(cap - split);
            ring.append(&mut trace_records);
            ring
        };
        sim.trace = Some((ring, cap));
    }

    sim.stop = stop;
    t_max
}

/// The parallel run loop. Returns `None` when there is nothing to
/// parallelize (fewer than two partitions assigned) — the caller falls back
/// to the sequential loop. Otherwise runs scatter → windows → gather epochs
/// until a terminal outcome, producing the same observable results as the
/// sequential loop modulo the divergences documented in the module docs.
pub(crate) fn run_parallel(
    sim: &mut Simulator,
    horizon: Time,
    max_events: u64,
    gauges: &mut DepthGauges,
) -> Option<RunOutcome> {
    let nparts = sim.partition_count();
    if nparts < 2 {
        return None;
    }
    assert!(
        (nparts as u64) <= SHARD_MASK,
        "too many partitions: {nparts} (max {SHARD_MASK})"
    );
    let nworkers = sim.workers().min(nparts);
    let executed_before = sim.executed;
    let mut deadline = sim.stall_deadline;
    loop {
        let budget = max_events.saturating_sub(sim.executed - executed_before);
        let mut shards = scatter(sim, nparts);
        let coord = Coord::new(nparts, nworkers, &mut shards);
        let params = DecideParams {
            horizon,
            budget,
            lookahead: sim.lookahead(),
            deadline,
        };
        // Worker w owns partitions {p : p % nworkers == w} — a pure function
        // of the partition assignment, so the decomposition (and every
        // digest) is identical at any worker count.
        let mut batches: Vec<Vec<Shard>> = (0..nworkers).map(|_| Vec::new()).collect();
        for shard in shards {
            batches[shard.partition as usize % nworkers].push(shard);
        }
        let main_batch = batches.remove(0);
        let (finish, shards_back) = thread::scope(|scope| {
            let handles: Vec<_> = batches
                .drain(..)
                .map(|batch| {
                    let coord = &coord;
                    let params = &params;
                    scope.spawn(move || worker_loop(batch, coord, params, None))
                })
                .collect();
            // The main thread is worker 0 and owns the depth gauges.
            let (finish, mut shards) = worker_loop(main_batch, &coord, &params, Some(gauges));
            for handle in handles {
                match handle.join() {
                    Ok((_, mut batch)) => shards.append(&mut batch),
                    Err(payload) => coord.poison(payload),
                }
            }
            (finish, shards)
        });
        let stop = coord.stop.load(Ordering::SeqCst);
        let t_max = gather(sim, shards_back, stop);
        if let Some(payload) = lock(&coord.poison).take() {
            resume_unwind(payload);
        }
        match finish {
            Finish::Poisoned => unreachable!("poisoned without a recorded panic"),
            Finish::Stopped => {
                sim.time = t_max;
                return Some(RunOutcome::Stopped);
            }
            Finish::Budget => {
                sim.time = t_max;
                return Some(RunOutcome::Budget);
            }
            Finish::Horizon(gmin) => {
                sim.time = t_max.max(horizon.min(Time::from_ps(gmin)));
                return Some(RunOutcome::Horizon);
            }
            Finish::Drained => {
                sim.time = t_max;
                return Some(match sim.first_stall_report() {
                    Some(report) => RunOutcome::Stalled(report),
                    None => RunOutcome::Drained,
                });
            }
            Finish::DeadlineCross => {
                let d = deadline
                    .take()
                    .expect("deadline crossing without a deadline");
                sim.time = t_max.max(d.min(horizon));
                if let Some(report) = sim.first_stall_report() {
                    return Some(RunOutcome::Stalled(report));
                }
                // No parked work at the deadline: disarm it and keep
                // simulating, exactly like the sequential watchdog.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PortId;
    use crate::mailbox::Mailbox;
    use crate::sim::{Component, Ctx};

    /// Ranks bounce a counter through a hub with a propagation delay (the
    /// lookahead) each way; local self-events use sub-lookahead delays.
    struct Rank {
        hub: Endpoint,
        sink: Endpoint,
        hops_left: u32,
        local_left: u32,
    }

    impl Component for Rank {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
            let v = payload.downcast::<u32>();
            if self.local_left > 0 {
                self.local_left -= 1;
                ctx.send_self(port, Dur::from_ps(7), v);
            } else if self.hops_left > 0 {
                self.hops_left -= 1;
                self.local_left = 3;
                ctx.send(self.hub, Dur::from_ns(100), v + 1);
            } else {
                ctx.send(self.sink, Dur::from_ns(100), v);
            }
        }
    }

    /// The hub forwards every message to the next rank, round-robin.
    struct Hub {
        ranks: Vec<Endpoint>,
        next: usize,
    }

    impl Component for Hub {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
            let v = payload.downcast::<u32>();
            let dst = self.ranks[self.next % self.ranks.len()];
            self.next += 1;
            ctx.send(dst, Dur::from_ns(100), v);
        }
    }

    fn build(ranks: usize, workers: usize) -> (Simulator, ComponentId) {
        let mut sim = Simulator::new(11);
        sim.enable_digest();
        let hub = sim.reserve("hub");
        let sink = sim.add("sink", Mailbox::<u32>::new());
        let ids: Vec<ComponentId> = (0..ranks)
            .map(|r| sim.reserve(format!("n{r}.rank")))
            .collect();
        for (r, &id) in ids.iter().enumerate() {
            sim.install(
                id,
                Rank {
                    hub: Endpoint::of(hub),
                    sink: Endpoint::of(sink),
                    hops_left: 8 + r as u32,
                    local_left: 2,
                },
            );
        }
        sim.install(
            hub,
            Hub {
                ranks: ids.iter().map(|&id| Endpoint::of(id)).collect(),
                next: 0,
            },
        );
        sim.set_workers(workers);
        sim.set_lookahead(Dur::from_ns(100));
        sim.assign_partitions(|name| {
            name.strip_prefix('n')
                .and_then(|rest| rest.split('.').next())
                .and_then(|digits| digits.parse::<u32>().ok())
                .map_or(0, |r| r + 1)
        });
        for &id in &ids {
            sim.post(Endpoint::of(id), Time::ZERO, 0u32);
        }
        (sim, sink)
    }

    fn run_collect(ranks: usize, workers: usize) -> (RunOutcome, Vec<u32>, u64, Time) {
        let (mut sim, sink) = build(ranks, workers);
        let outcome = sim.run();
        let items = sim
            .component::<Mailbox<u32>>(sink)
            .items()
            .iter()
            .map(|&(_, v)| v)
            .collect();
        (outcome, items, sim.events_executed(), sim.now())
    }

    #[test]
    fn parallel_matches_sequential_results() {
        let (seq_out, seq_items, seq_n, seq_t) = run_collect(4, 1);
        for workers in [2, 4, 8] {
            let (out, items, n, t) = run_collect(4, workers);
            assert_eq!(out, seq_out, "outcome diverged at {workers} workers");
            assert_eq!(items, seq_items, "results diverged at {workers} workers");
            assert_eq!(n, seq_n, "event count diverged at {workers} workers");
            assert_eq!(t, seq_t, "final time diverged at {workers} workers");
        }
    }

    #[test]
    fn strict_digest_is_invariant_across_worker_counts() {
        let digest_at = |workers: usize| {
            let (mut sim, _) = build(6, workers);
            sim.run();
            sim.timeline_digest().unwrap()
        };
        let two = digest_at(2);
        assert_eq!(two, digest_at(3));
        assert_eq!(two, digest_at(6));
        assert_eq!(two, digest_at(16));
    }

    #[test]
    fn parallel_run_is_reproducible() {
        let (out1, items1, n1, t1) = run_collect(5, 4);
        let (out2, items2, n2, t2) = run_collect(5, 4);
        assert_eq!(out1, out2);
        assert_eq!(items1, items2);
        assert_eq!(n1, n2);
        assert_eq!(t1, t2);
    }

    /// A component that illegally sends cross-partition with zero delay.
    struct ZeroHop {
        peer: Endpoint,
    }

    impl Component for ZeroHop {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _payload: Payload) {
            ctx.send(self.peer, Dur::ZERO, 0u32);
        }
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn sub_lookahead_cross_partition_send_panics() {
        let mut sim = Simulator::new(0);
        let a = sim.reserve("n0.zero");
        let b = sim.add("n1.sink", Mailbox::<u32>::new());
        sim.install(
            a,
            ZeroHop {
                peer: Endpoint::of(b),
            },
        );
        sim.set_workers(2);
        sim.set_lookahead(Dur::from_ns(100));
        sim.assign_partitions(|name| if name.starts_with("n0") { 1 } else { 2 });
        sim.post(Endpoint::of(a), Time::from_ns(500), 0u32);
        sim.run();
    }

    #[test]
    fn single_partition_falls_back_to_sequential() {
        let mut sim = Simulator::new(0);
        let sink = sim.add("sink", Mailbox::<u32>::new());
        sim.set_workers(4);
        sim.post(Endpoint::of(sink), Time::from_ns(1), 7u32);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.component::<Mailbox<u32>>(sink).items().len(), 1);
    }
}
