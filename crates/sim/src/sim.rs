//! The discrete-event simulator: component registry, event queue, main loop.
//!
//! The simulator is strictly deterministic: events execute in `(time, seq)`
//! order where `seq` is the order of scheduling, and the only source of
//! randomness is a seeded RNG. Running the same build twice with the same
//! seed replays the identical event timeline — the property the ACCL+ paper
//! relies on for its own simulation platform (§4.2) and that our integration
//! tests assert.
//!
//! The event queue is the binary heap of [`crate::queue`], kept shallow by
//! the kernel timer slots of [`crate::timer`]. [`Simulator::enable_digest`]
//! folds every delivery into an order-sensitive hash so two runs can be
//! compared without recording full traces.
//! A suspended component ([`Simulator::suspend_at`]) leaves its slot, so
//! only a delivery to it takes the drop path: the rest pay nothing.

use core::any::Any;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deadlock::{self, DeadlockReport, ResourceState};
use crate::digest::{fnv1a, FNV_OFFSET};
use crate::event::{ComponentId, Endpoint, Payload, PortId};
use crate::queue::{Entry, EventQueue, SRC_EXTERNAL};
use crate::stats::{Metric, Stats};
use crate::time::{Dur, Time};
use crate::timer::TimerTable;
use crate::trace::{Attr, FlowId, SpanEvent, SpanId, SpanRecorder};

static SUSPENDED_DROPS: Metric = Metric::counter("sim.kernel.suspended_drops");
static EVENTS_EXECUTED: Metric = Metric::counter("sim.kernel.events_executed");
static TIMERS_SUPERSEDED: Metric = Metric::counter("sim.kernel.timers_superseded");

/// A simulated hardware or software entity.
///
/// Components are event-driven finite-state machines: all interaction happens
/// through [`Component::on_event`], and side effects are expressed by
/// scheduling further events via [`Ctx`]. This mirrors how the corresponding
/// RTL blocks (DMP, RxBuf manager, Tx/Rx systems, ...) react to AXI-Stream
/// transactions.
pub trait Component: Any + Send {
    /// Handles `payload` arriving on `port` at time `ctx.now()`.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload);

    /// Describes work this component is still holding — a parked collective,
    /// an unacknowledged transmission, an admission-queued message — that
    /// should have completed before the event queue drains.
    ///
    /// The stall watchdog consults this when the simulation runs out of
    /// events (or passes the configured deadline): any component reporting
    /// parked work turns a silent hang into a [`RunOutcome::Stalled`] with a
    /// [`StallReport`] naming the culprit. Idle components return `None`
    /// (the default).
    fn parked_work(&self) -> Option<ParkedWork> {
        None
    }

    /// A digest of this component's externally-meaningful state, for
    /// end-of-run comparison between a baseline and a shadow run (see
    /// [`crate::race`]). Two runs that executed the same logical
    /// work must produce the same digest even if same-timestamp events
    /// were handled in a different order; a divergence means the handlers
    /// do not commute. Components return `None` (the default) to opt out.
    fn state_digest(&self) -> Option<u64> {
        None
    }

    /// The component's bounded-resource view for the sim-time deadlock
    /// detector: which resources it is blocked on (`waits`), which it
    /// currently occupies and will eventually release (`holds`), and
    /// occupancy gauges for stall diagnosis. Consulted alongside
    /// [`Component::parked_work`] when a stall is detected; see
    /// [`crate::deadlock`]. Components without bounded resources return
    /// `None` (the default).
    fn resource_state(&self) -> Option<ResourceState> {
        None
    }
}

/// A description of unfinished work held by a component, reported to the
/// stall watchdog via [`Component::parked_work`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParkedWork {
    /// The rank the component belongs to, when it models a per-node block.
    pub rank: Option<u32>,
    /// Human-readable description of the parked operation
    /// (e.g. `"WaitAll: 3 outstanding"`, `"tcp session 2: 5 unacked"`).
    pub op: String,
}

/// Scheduling context handed to a component while it executes an event.
pub struct Ctx<'a> {
    now: Time,
    self_id: ComponentId,
    queue: &'a mut EventQueue,
    seq: &'a mut u64,
    timers: &'a mut TimerTable,
    stats: &'a mut Stats,
    stop: &'a mut bool,
    spans: &'a mut SpanRecorder,
    /// `spans.is_enabled()`, copied once per event so the instrumentation
    /// macros' idle branch reads the context, not the recorder.
    spans_on: bool,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component currently executing.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `payload` for delivery to `dst` after `delay`.
    pub fn send<T: Any + Send>(&mut self, dst: Endpoint, delay: Dur, payload: T) {
        self.send_at(dst, self.now + delay, payload);
    }

    /// Schedules `payload` for delivery to `dst` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn send_at<T: Any + Send>(&mut self, dst: Endpoint, at: Time, payload: T) {
        self.send_payload_at(dst, at, Payload::new(payload));
    }

    /// [`Ctx::send_at`] for a value already in a `Box`, such as one taken
    /// out of a payload with [`Payload::into_box`]: the box becomes the
    /// new payload, so forwarding a value allocates nothing.
    pub fn send_box_at<T: Any + Send>(&mut self, dst: Endpoint, at: Time, payload: Box<T>) {
        self.send_payload_at(dst, at, Payload::from_box(payload));
    }

    #[inline]
    fn send_payload_at(&mut self, dst: Endpoint, at: Time, payload: Payload) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let seq = *self.seq;
        *self.seq += 1;
        self.queue.push(at, seq, self.self_id.0, dst, payload);
    }

    /// Schedules `payload` back to `port` of the executing component after `delay`.
    pub fn send_self<T: Any + Send>(&mut self, port: PortId, delay: Dur, payload: T) {
        self.send(Endpoint::new(self.self_id, port), delay, payload);
    }

    /// Arms this component's timer slot `(port, key)`: `payload` arrives on
    /// `port` after `delay`, exactly as a [`Ctx::send_self`] made here
    /// would, unless the slot is re-armed or cancelled first. A re-arm
    /// supersedes the pending deadline; the kernel never delivers a
    /// superseded one (see [`crate::timer`]).
    pub fn arm_timer<T: Any + Send>(&mut self, port: PortId, key: u64, delay: Dur, payload: T) {
        let seq = *self.seq;
        *self.seq += 1;
        self.timers.arm(
            self.queue,
            Endpoint::new(self.self_id, port),
            key,
            self.now + delay,
            seq,
            Payload::new(payload),
        );
    }

    /// Cancels this component's timer slot `(port, key)`: its pending
    /// deadline, if any, is never delivered.
    pub fn cancel_timer(&mut self, port: PortId, key: u64) {
        self.timers.cancel(self.self_id, port, key);
    }

    /// Whether this component's timer slot `(port, key)` has a deadline
    /// pending. False inside the handler the slot's own deadline fired.
    pub fn timer_pending(&self, port: PortId, key: u64) -> bool {
        self.timers.pending(self.self_id, port, key)
    }

    /// Simulation-wide statistics registry. Stamps the current simulated
    /// time first, so when metric windowing is enabled
    /// ([`crate::stats::Stats::enable_windows`]) every write through this
    /// accessor lands in the window containing *now* without call-site
    /// changes.
    pub fn stats(&mut self) -> &mut Stats {
        self.stats.stamp_now(self.now);
        self.stats
    }

    /// Requests the main loop to stop after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Whether span recording is enabled on this simulator.
    /// Instrumentation that must compute attribute values eagerly can
    /// branch on this; plain `span_*` calls are already free when
    /// recording is off.
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        self.spans_on
    }

    /// Opens a span named `name` under `parent` at the current time;
    /// returns its deterministic id ([`SpanId::NONE`] when recording is
    /// off). Pass [`SpanId::NONE`] as `parent` for a root span.
    pub fn span_begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        self.spans.begin(self.now, self.self_id, name, parent, &[])
    }

    /// Opens a span with typed attributes attached.
    pub fn span_begin_attrs(
        &mut self,
        name: &'static str,
        parent: SpanId,
        attrs: &[Attr],
    ) -> SpanId {
        self.spans
            .begin(self.now, self.self_id, name, parent, attrs)
    }

    /// Closes span `id` at the current time. No-op for [`SpanId::NONE`].
    pub fn span_end(&mut self, id: SpanId) {
        self.spans.end(self.now, self.self_id, id);
    }

    /// Closes span `id` at `at` — which may lie in the simulated future,
    /// for work whose completion time is already reserved (a [`crate::pipe::Pipe`]
    /// reservation's end).
    pub fn span_end_at(&mut self, id: SpanId, at: Time) {
        self.spans.end(at, self.self_id, id);
    }

    /// Records a complete `[start, end]` span in one call (both times may
    /// lie in the simulated future); returns its id.
    pub fn span_interval(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Time,
        end: Time,
    ) -> SpanId {
        self.spans
            .interval(self.self_id, name, parent, start, end, &[])
    }

    /// Records a complete `[start, end]` span with attributes attached.
    pub fn span_interval_attrs(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Time,
        end: Time,
        attrs: &[Attr],
    ) -> SpanId {
        self.spans
            .interval(self.self_id, name, parent, start, end, attrs)
    }

    /// Records a point event under `parent` at the current time.
    pub fn span_instant(&mut self, name: &'static str, parent: SpanId) {
        self.spans
            .instant(self.now, self.self_id, name, parent, &[]);
    }

    /// Records a point event with typed attributes attached.
    pub fn span_instant_attrs(&mut self, name: &'static str, parent: SpanId, attrs: &[Attr]) {
        self.spans
            .instant(self.now, self.self_id, name, parent, attrs);
    }

    /// Emits the departure side of a cross-rank flow edge at the current
    /// time, anchored to the producing span `from`; returns the
    /// deterministic [`FlowId`] to carry in the payload ([`FlowId::NONE`]
    /// when recording is off). Every emitted edge must
    /// be joined by a matching [`Ctx::flow_end`] on the receive side —
    /// `accl-lint`'s flow-pairing rule checks this statically.
    pub fn flow_begin(&mut self, name: &'static str, from: SpanId) -> FlowId {
        self.spans.flow_begin(self.now, self.self_id, name, from)
    }

    /// Joins flow edge `flow` into the consuming span `to` at the current
    /// time. No-op for [`FlowId::NONE`].
    pub fn flow_end(&mut self, name: &'static str, flow: FlowId, to: SpanId) {
        self.spans.flow_end(self.now, self.self_id, name, flow, to);
    }
}

/// Why [`Simulator::run`] (or a bounded variant) returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely with no component holding work.
    Drained,
    /// A component called [`Ctx::stop`].
    Stopped,
    /// The time horizon passed with events still pending.
    Horizon,
    /// The event budget was exhausted with events still pending.
    Budget,
    /// The event queue drained (or the stall deadline passed) while at
    /// least one component still held parked work — a hung collective,
    /// lost message, or dead peer. The report names the first stuck
    /// component; [`Simulator::stall_reports`] lists all of them.
    Stalled(StallReport),
}

/// Scheduler observability for one `run*` call: how many events executed
/// and how deep the event queue got. Retrieved via
/// [`Simulator::last_run_summary`]; the event count is also added to
/// the [`Stats`] counter `sim.kernel.events_executed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Why the run returned.
    pub outcome: RunOutcome,
    /// Events executed during this run (not cumulative).
    pub events_executed: u64,
    /// Maximum queue depth observed (checked after every event).
    pub max_queue_depth: usize,
    /// Median queue depth over the sampled series.
    pub queue_depth_p50: usize,
    /// 99th-percentile queue depth over the sampled series.
    pub queue_depth_p99: usize,
    /// Queue depth when the run returned.
    pub final_queue_depth: usize,
}

/// Diagnosis of a stalled simulation: which component was still holding
/// work when the event queue drained, and what that work was. This is the
/// paper's §4.4 "stalled collective" debugging workflow made machine-
/// readable: instead of a silent hang, the run names the parked op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Id of the stuck component.
    pub comp: ComponentId,
    /// Registration name of the stuck component (e.g. `"n2.cclo.uc"`).
    pub component: String,
    /// Rank the component belongs to, if it models a per-node block.
    pub rank: Option<u32>,
    /// The parked operation, as reported by the component.
    pub op: String,
    /// Simulated time at which the stall was detected.
    pub at: Time,
    /// The last few spans recorded by the stuck component (empty unless
    /// span recording was enabled) — what the component was *doing*, not
    /// just which payloads it received.
    pub recent_spans: Vec<String>,
    /// Rendered occupancy gauges (`"component: resource used/cap"`) from
    /// every component that reported a [`ResourceState`] at stall time —
    /// queue depths, credit windows, buffer pools, pause state.
    pub gauges: Vec<String>,
    /// The diagnosed wait-for chain, when the deadlock detector found a
    /// cycle or an orphaned wait over the reported resource states.
    pub deadlock: Option<DeadlockReport>,
}

impl core::fmt::Display for StallReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.rank {
            Some(r) => write!(
                f,
                "stall at {}: {} (rank {}) parked on {}",
                self.at, self.component, r, self.op
            )?,
            None => write!(
                f,
                "stall at {}: {} parked on {}",
                self.at, self.component, self.op
            )?,
        }
        if let Some(deadlock) = &self.deadlock {
            write!(f, "\n    {deadlock}")?;
        }
        for gauge in &self.gauges {
            write!(f, "\n    gauge: {gauge}")?;
        }
        for line in &self.recent_spans {
            write!(f, "\n    span: {line}")?;
        }
        Ok(())
    }
}

/// One captured event delivery (see [`Simulator::enable_trace`]).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Delivery time.
    pub time: Time,
    /// Destination component id.
    pub comp: ComponentId,
    /// Destination port.
    pub port: PortId,
    /// `type_name` of the payload.
    pub payload_type: &'static str,
}

/// Queue-depth gauges are subsampled at this stride to keep the hot loop
/// cheap; the maximum is still tracked on every event.
const DEPTH_SAMPLE_STRIDE: u64 = 64;

/// How many trailing spans a [`StallReport`] carries per stuck component.
const STALL_SPAN_TAIL: usize = 8;

/// The discrete-event simulator.
pub struct Simulator {
    time: Time,
    queue: EventQueue,
    seq: u64,
    components: Vec<Option<Box<dyn Component>>>,
    names: Vec<String>,
    seed: u64,
    stats: Stats,
    spans: SpanRecorder,
    stop: bool,
    executed: u64,
    /// Event trace ring buffer (None = tracing off).
    trace: Option<(Vec<TraceRecord>, usize)>,
    /// Running timeline digest (None = digesting off).
    digest: Option<u64>,
    /// Simulated-time deadline for the stall watchdog (None = only check
    /// at queue drain).
    stall_deadline: Option<Time>,
    /// Scheduler gauges for the most recent `run*` call.
    last_run_summary: Option<RunSummary>,
    /// Tie-set recorder for the race detector (None = off).
    tie_rec: Option<crate::race::TieRecorder>,
    /// Kernel-owned timer slots.
    timers: TimerTable,
    /// Component sets scheduled by [`Simulator::suspend_at`], by queue
    /// entry.
    suspensions: Vec<Vec<ComponentId>>,
    /// Suspended components by id, with the instant each stopped.
    suspended: BTreeMap<u32, (Time, Box<dyn Component>)>,
}

/// What [`Simulator::pop_next`] did with the head of the queue.
#[derive(PartialEq, Eq)]
enum Popped {
    /// The queue was empty.
    Empty,
    /// An entry that delivered nothing (a superseded timer, a suspension,
    /// or a delivery to a suspended component): the clock advanced,
    /// nothing ran.
    Skipped,
    /// An event was delivered.
    Executed,
}

impl Simulator {
    /// Creates an empty simulator with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            time: Time::ZERO,
            queue: EventQueue::default(),
            seq: 0,
            components: Vec::new(),
            names: Vec::new(),
            seed,
            stats: Stats::new(),
            spans: SpanRecorder::default(),
            stop: false,
            executed: 0,
            trace: None,
            digest: None,
            stall_deadline: None,
            last_run_summary: None,
            tie_rec: None,
            timers: TimerTable::default(),
            suspensions: Vec::new(),
            suspended: BTreeMap::new(),
        }
    }

    /// Replaces the FIFO tie-breaking rule for same-timestamp events with
    /// a seeded *channel permutation* (applies to events scheduled from
    /// now on): events keep their program order within one (source
    /// component → destination endpoint) channel, while the interleaving
    /// of distinct channels within a timestamp is shuffled. The timeline
    /// stays total and deterministic for a given `salt`; only the
    /// cross-channel tie order changes — which is precisely the order no
    /// handler may depend on. Shadow runs use this to probe whether
    /// same-timestamp handlers commute — see [`crate::race::shadow_check`].
    pub fn permute_tie_order(&mut self, salt: u64) {
        self.queue.set_tie_salt(Some(salt));
    }

    /// Enables tie-set recording: every delivery is folded into a
    /// tie-normalized trace where same-timestamp deliveries are compared
    /// as an (order-insensitive) set. Must be enabled before the first
    /// event executes to cover the whole timeline.
    pub fn enable_tie_recording(&mut self) {
        self.tie_rec.get_or_insert_with(Default::default);
    }

    /// The tie-normalized canonical trace recorded so far (sorted within
    /// each tie-set), and its digest. See [`crate::race`].
    pub fn tie_trace(&self) -> Option<crate::race::CanonTrace> {
        self.tie_rec.as_ref().map(|r| r.canonical())
    }

    /// Digests of every component that implements
    /// [`Component::state_digest`], in component-id order.
    pub fn state_digests(&self) -> Vec<(ComponentId, u64)> {
        self.components
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let d = slot.as_ref()?.state_digest()?;
                Some((ComponentId(i as u32), d))
            })
            .collect()
    }

    /// Number of events currently pending in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Arms the stall watchdog's simulated-time deadline: if `deadline`
    /// passes while any component still reports [`Component::parked_work`],
    /// the run returns [`RunOutcome::Stalled`] even though events (e.g. an
    /// endless retransmission loop) are still flowing. Without a deadline
    /// the watchdog only fires when the event queue drains.
    pub fn set_stall_deadline(&mut self, deadline: Time) {
        self.stall_deadline = Some(deadline);
    }

    /// The seed this simulator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent, deterministic RNG stream for one component
    /// from the simulator seed and a stable `label` (conventionally the
    /// component's registration name). Streams are decoupled: a component
    /// drawing from its own fork cannot perturb any other component's
    /// randomness. This is the simulation's only source of entropy.
    pub fn fork_rng(&self, label: &str) -> StdRng {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, label.as_bytes());
        StdRng::seed_from_u64(self.seed ^ h)
    }

    /// Enables causal span recording into a bounded ring of `capacity`
    /// events. See [`crate::trace`].
    pub fn enable_spans(&mut self, capacity: usize) {
        self.spans.enable(capacity);
    }

    /// Whether span recording is enabled.
    pub fn spans_enabled(&self) -> bool {
        self.spans.is_enabled()
    }

    /// Enables fixed-width sim-time metric windows: every counter add,
    /// gauge write, and histogram observation made through [`Ctx::stats`]
    /// is additionally routed into the window containing the simulated
    /// time of the write. Integer-only and deterministic. Call before the
    /// run starts. See [`crate::stats::Stats::enable_windows`].
    pub fn enable_metric_windows(&mut self, width: Dur) {
        self.stats.enable_windows(width);
    }

    /// The surviving span ring contents, oldest first.
    pub fn span_events(&self) -> Vec<SpanEvent> {
        self.spans.events()
    }

    /// Span events evicted by the ring bound (0 when sized generously).
    pub fn spans_dropped(&self) -> u64 {
        self.spans.dropped()
    }

    /// Renders the last `n` spans recorded by `comp`, oldest first — the
    /// per-component causal history behind [`StallReport::recent_spans`]
    /// and the race detector's reports.
    pub fn span_tail(&self, comp: ComponentId, n: usize) -> Vec<String> {
        let mut lines: Vec<String> = self
            .spans
            .events()
            .iter()
            .filter(|e| e.comp == comp)
            .map(|e| {
                use crate::trace::SpanEventKind;
                match e.kind {
                    SpanEventKind::Begin => format!(
                        "{} begin {} id={:#018x} parent={:#018x}",
                        e.time, e.name, e.id.0, e.parent.0
                    ),
                    SpanEventKind::End => {
                        format!("{} end id={:#018x}", e.time, e.id.0)
                    }
                    SpanEventKind::Instant => {
                        format!("{} instant {} parent={:#018x}", e.time, e.name, e.parent.0)
                    }
                    SpanEventKind::FlowBegin => {
                        format!("{} flow-begin {} from={:#018x}", e.time, e.name, e.parent.0)
                    }
                    SpanEventKind::FlowEnd => {
                        format!("{} flow-end {} into={:#018x}", e.time, e.name, e.parent.0)
                    }
                }
            })
            .collect();
        if lines.len() > n {
            lines.drain(..lines.len() - n);
        }
        lines
    }

    /// Enables event tracing into a ring buffer of `capacity` records —
    /// the simulation-platform debugging workflow of the paper's §4.2:
    /// when a collective stalls, the last deliveries name the component
    /// and message type where progress stopped.
    pub fn enable_trace(&mut self, capacity: usize) {
        assert!(capacity > 0, "zero-capacity trace");
        self.trace = Some((Vec::with_capacity(capacity), capacity));
    }

    /// Enables the timeline digest: every delivery folds
    /// `(time, seq, dst, type_name)` into an FNV-1a hash, so two runs can
    /// be compared for bit-identical event order without recording full
    /// traces. Must be called before the first event executes to cover
    /// the whole timeline.
    pub fn enable_digest(&mut self) {
        if self.digest.is_none() {
            self.digest = Some(FNV_OFFSET);
        }
    }

    /// The running timeline digest, if [`Simulator::enable_digest`] was
    /// called.
    pub fn timeline_digest(&self) -> Option<u64> {
        self.digest
    }

    /// The captured trace, oldest first.
    pub fn trace(&self) -> Vec<TraceRecord> {
        match &self.trace {
            None => Vec::new(),
            Some((ring, cap)) => {
                if ring.len() < *cap {
                    ring.clone()
                } else {
                    // The ring wraps at `executed % cap`.
                    let split = (self.executed as usize) % cap;
                    let mut out = ring[split..].to_vec();
                    out.extend_from_slice(&ring[..split]);
                    out
                }
            }
        }
    }

    /// Renders the last `n` trace records with component names.
    pub fn trace_tail(&self, n: usize) -> String {
        let trace = self.trace();
        let start = trace.len().saturating_sub(n);
        trace[start..]
            .iter()
            .map(|r| {
                format!(
                    "{} -> {}.{:?} [{}]\n",
                    r.time,
                    self.name(r.comp),
                    r.port,
                    r.payload_type
                )
            })
            .collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Total events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Scheduler gauges for the most recent `run*` call.
    pub fn last_run_summary(&self) -> Option<&RunSummary> {
        self.last_run_summary.as_ref()
    }

    /// Registers a component and returns its id.
    pub fn add(&mut self, name: impl Into<String>, comp: impl Component) -> ComponentId {
        let id = self.reserve(name);
        self.install(id, comp);
        id
    }

    /// Reserves a component id without installing the component yet.
    ///
    /// Two-phase registration lets mutually-connected components (e.g. the
    /// CCLO's uC and DMP, which address each other) be constructed with each
    /// other's endpoints before either exists.
    pub fn reserve(&mut self, name: impl Into<String>) -> ComponentId {
        let id = ComponentId(u32::try_from(self.components.len()).expect("too many components"));
        self.components.push(None);
        self.names.push(name.into());
        id
    }

    /// Installs `comp` into a slot previously obtained from
    /// [`Simulator::reserve`], or reboots a suspended component with it.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds a running component.
    pub fn install(&mut self, id: ComponentId, comp: impl Component) {
        assert!(
            self.components[id.index()].is_none(),
            "component {} installed twice",
            self.name(id)
        );
        self.suspended.remove(&id.0);
        self.components[id.index()] = Some(Box::new(comp));
    }

    /// Schedules a fail-stop of `comps` at `at`: from then on their timer
    /// slots are cancelled and every delivery to them (same-time ones
    /// scheduled after this call included) is dropped and counted in
    /// `sim.kernel.suspended_drops`. Their state stays readable.
    pub fn suspend_at(&mut self, at: Time, comps: Vec<ComponentId>) {
        assert!(at >= self.time, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        let idx = u32::try_from(self.suspensions.len()).expect("too many suspensions");
        self.suspensions.push(comps);
        self.queue.push_suspend(at, seq, idx);
    }

    /// The instant `comp` was suspended, if it is suspended.
    pub fn suspended_since(&self, comp: ComponentId) -> Option<Time> {
        self.suspended.get(&comp.0).map(|&(at, _)| at)
    }

    /// Suspends the components of scheduled set `idx` that are running.
    fn suspend_now(&mut self, idx: u32) {
        let comps = core::mem::take(&mut self.suspensions[idx as usize]);
        self.suspend(&comps);
    }

    /// Fail-stops those of `comps` that are running, now: what
    /// [`Simulator::suspend_at`] does at its instant, so that
    /// [`Simulator::install`] can reboot them.
    pub fn suspend(&mut self, comps: &[ComponentId]) {
        for &comp in comps {
            if let Some(c) = self.components[comp.index()].take() {
                self.timers.cancel_all(comp);
                self.suspended.insert(comp.0, (self.time, c));
            }
        }
    }

    /// The registration name of `id`.
    pub fn name(&self, id: ComponentId) -> &str {
        &self.names[id.index()]
    }

    /// Number of registered (or reserved) components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Borrows an installed (or suspended) component, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the component is missing or of a different type.
    pub fn component<T: Component>(&self, id: ComponentId) -> &T {
        let comp = self.components[id.index()]
            .as_deref()
            .or_else(|| self.suspended.get(&id.0).map(|(_, comp)| comp.as_ref()))
            .unwrap_or_else(|| panic!("component {} not installed", self.name(id)));
        (comp as &dyn Any).downcast_ref::<T>().unwrap_or_else(|| {
            panic!(
                "component {} is not a {}",
                self.name(id),
                core::any::type_name::<T>()
            )
        })
    }

    /// Mutably borrows an installed (or suspended) component, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the component is missing or of a different type.
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> &mut T {
        let name = self.names[id.index()].clone();
        let comp = match &mut self.components[id.index()] {
            Some(comp) => Some(comp),
            None => self.suspended.get_mut(&id.0).map(|(_, comp)| comp),
        }
        .unwrap_or_else(|| panic!("component {name} not installed"));
        (comp.as_mut() as &mut dyn Any)
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("component {name} is not a {}", core::any::type_name::<T>()))
    }

    /// Schedules `payload` for delivery to `dst` at absolute time `at`
    /// from outside any component (e.g. test or benchmark setup).
    pub fn post<T: Any + Send>(&mut self, dst: Endpoint, at: Time, payload: T) {
        assert!(at >= self.time, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue
            .push(at, seq, SRC_EXTERNAL, dst, Payload::new(payload));
    }

    /// Cancels timer slot `(port, key)` of component `comp` from outside
    /// any handler (see [`Ctx::cancel_timer`]), e.g. when a harness resets
    /// the state the timer guarded.
    pub fn cancel_timer(&mut self, comp: ComponentId, port: PortId, key: u64) {
        self.timers.cancel(comp, port, key);
    }

    /// Whether timer slot `(port, key)` of component `comp` has a deadline
    /// pending.
    pub fn timer_pending(&self, comp: ComponentId, port: PortId, key: u64) -> bool {
        self.timers.pending(comp, port, key)
    }

    /// Read-only statistics registry.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Executes a single event, skipping any timer entries that deliver
    /// nothing ahead of it. Returns `false` if the queue drained.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses a reserved-but-uninstalled component.
    pub fn step(&mut self) -> bool {
        loop {
            match self.pop_next() {
                Popped::Empty => return false,
                Popped::Skipped => {}
                Popped::Executed => return true,
            }
        }
    }

    /// Pops the head of the queue and delivers it, unless it is a timer
    /// entry that delivers nothing (see [`crate::timer`]). Such an entry,
    /// and with the queue empty the latest deadline ever armed, still
    /// advances the clock (a drained run ends at its last deadline, as if
    /// the timer had fired and done nothing) but is not an event.
    fn pop_next(&mut self) -> Popped {
        let Some((time, seq, entry)) = self.queue.pop_key() else {
            return match self.timers.trailing_deadline(self.time) {
                Some(t) => {
                    self.time = t;
                    Popped::Skipped
                }
                None => Popped::Empty,
            };
        };
        debug_assert!(time >= self.time, "event queue went backwards");
        self.time = time;
        let (dst, payload) = match entry {
            Entry::Event(idx) => self.queue.take(idx),
            Entry::Timer(id) => match self.timers.fire(&mut self.queue, id, time, seq) {
                Some(ev) => ev,
                None => return Popped::Skipped,
            },
            Entry::Suspend(idx) => {
                self.suspend_now(idx);
                return Popped::Skipped;
            }
        };
        // Take the component out of its slot so the handler can borrow the
        // simulator internals mutably without aliasing itself.
        let Some(mut comp) = self.components[dst.comp.index()].take() else {
            assert!(
                self.suspended.contains_key(&dst.comp.0),
                "event {payload:?} addressed to uninstalled component {}",
                self.names[dst.comp.index()]
            );
            self.stats.add(&SUSPENDED_DROPS, 1);
            return Popped::Skipped;
        };
        if self.trace.is_some() || self.digest.is_some() || self.tie_rec.is_some() {
            self.note_delivery(time, seq, dst, payload.type_name());
        }
        self.executed += 1;
        let mut ctx = Ctx {
            now: self.time,
            self_id: dst.comp,
            queue: &mut self.queue,
            seq: &mut self.seq,
            timers: &mut self.timers,
            stats: &mut self.stats,
            stop: &mut self.stop,
            spans_on: self.spans.is_enabled(),
            spans: &mut self.spans,
        };
        comp.on_event(&mut ctx, dst.port, payload);
        self.components[dst.comp.index()] = Some(comp);
        Popped::Executed
    }

    /// Records a delivery into the trace ring, the timeline digest and/or
    /// the race detector's tie-sets. Out of line so the common no-observer
    /// `step` stays lean.
    #[inline(never)]
    fn note_delivery(&mut self, time: Time, seq: u64, dst: Endpoint, type_name: &'static str) {
        if let Some((ring, cap)) = &mut self.trace {
            let rec = TraceRecord {
                time,
                comp: dst.comp,
                port: dst.port,
                payload_type: type_name,
            };
            if ring.len() < *cap {
                ring.push(rec);
            } else {
                let idx = (self.executed as usize) % *cap;
                ring[idx] = rec;
            }
        }
        if let Some(digest) = &mut self.digest {
            fnv1a(digest, &time.as_ps().to_le_bytes());
            fnv1a(digest, &seq.to_le_bytes());
            fnv1a(digest, &dst.comp.0.to_le_bytes());
            fnv1a(digest, &dst.port.0.to_le_bytes());
            fnv1a(digest, type_name.as_bytes());
        }
        if let Some(rec) = &mut self.tie_rec {
            rec.record(time, dst, type_name);
        }
    }

    /// Runs until the event queue drains or a component calls [`Ctx::stop`].
    pub fn run(&mut self) -> RunOutcome {
        self.run_bounded(Time::MAX, u64::MAX)
    }

    /// Runs until `horizon` (exclusive), queue drain, or stop.
    pub fn run_until(&mut self, horizon: Time) -> RunOutcome {
        self.run_bounded(horizon, u64::MAX)
    }

    /// Runs with both a time horizon and an event budget.
    ///
    /// The event budget is a guard against accidental event storms (a
    /// mis-configured retransmission timer, say); production experiments set
    /// it to `u64::MAX`.
    pub fn run_bounded(&mut self, horizon: Time, max_events: u64) -> RunOutcome {
        let events_before = self.executed;
        let mut gauges = DepthGauges::new();
        let outcome = self.run_loop(horizon, max_events, &mut gauges);
        let executed = self.executed - events_before;
        self.stats.add(&EVENTS_EXECUTED, executed);
        let superseded = self.timers.take_superseded();
        if superseded > 0 {
            self.stats.add(&TIMERS_SUPERSEDED, superseded);
        }
        let summary = gauges.summarize(outcome.clone(), executed, self.queue.len());
        self.last_run_summary = Some(summary);
        outcome
    }

    fn run_loop(&mut self, horizon: Time, max_events: u64, gauges: &mut DepthGauges) -> RunOutcome {
        self.stop = false;
        let mut budget = max_events;
        let mut deadline_pending = self.stall_deadline;
        // Fast path for unbounded runs (the common case): no horizon or
        // deadline peeks in the per-event loop.
        if horizon == Time::MAX && max_events == u64::MAX && deadline_pending.is_none() {
            loop {
                if self.stop {
                    return RunOutcome::Stopped;
                }
                match self.pop_next() {
                    Popped::Empty => {
                        return match self.first_stall_report() {
                            Some(report) => RunOutcome::Stalled(report),
                            None => RunOutcome::Drained,
                        };
                    }
                    Popped::Skipped => gauges.observe_depth(self.queue.len()),
                    Popped::Executed => gauges.observe(self.executed, self.queue.len()),
                }
            }
        }
        loop {
            if self.stop {
                return RunOutcome::Stopped;
            }
            // Stall watchdog, deadline edge: sweep for parked work the
            // first time simulated time reaches the deadline — including
            // when the next pending event would jump past it (a lone
            // far-future timer must not mask the stall). Checked once so
            // the sweep cost is not paid per event.
            if let Some(deadline) = deadline_pending {
                let crossing =
                    self.time >= deadline || self.next_time().is_some_and(|t| t >= deadline);
                if crossing {
                    deadline_pending = None;
                    self.time = self.time.max(deadline.min(horizon));
                    if let Some(report) = self.first_stall_report() {
                        return RunOutcome::Stalled(report);
                    }
                }
            }
            match self.next_time() {
                None => {
                    // Stall watchdog, drain edge: a clean drain means no
                    // component should still be holding work.
                    return match self.first_stall_report() {
                        Some(report) => RunOutcome::Stalled(report),
                        None => RunOutcome::Drained,
                    };
                }
                Some(t) if t >= horizon => {
                    self.time = horizon.min(t);
                    return RunOutcome::Horizon;
                }
                Some(_) => {}
            }
            if budget == 0 {
                return RunOutcome::Budget;
            }
            if self.pop_next() == Popped::Executed {
                budget -= 1;
                gauges.observe(self.executed, self.queue.len());
            } else {
                gauges.observe_depth(self.queue.len());
            }
        }
    }

    /// Time of the next entry [`Simulator::pop_next`] would take.
    fn next_time(&self) -> Option<Time> {
        self.queue
            .peek_time()
            .or_else(|| self.timers.trailing_deadline(self.time))
    }

    /// The stall report of the lowest-id stuck component, if any.
    fn first_stall_report(&self) -> Option<StallReport> {
        self.stall_reports().into_iter().next()
    }

    /// Sweeps every installed component for parked work and returns one
    /// [`StallReport`] per stuck component, in component-id order. Each
    /// report carries the cluster-wide resource gauges and, when the
    /// wait-for graph closes, the deadlock diagnosis.
    pub fn stall_reports(&self) -> Vec<StallReport> {
        let states = self.resource_states();
        let deadlock = deadlock::analyze(&states);
        let gauges: Vec<String> = states
            .iter()
            .flat_map(|(name, st)| st.gauges.iter().map(move |g| format!("{name}: {g}")))
            .collect();
        self.components
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let parked = slot.as_ref()?.parked_work()?;
                let comp = ComponentId(i as u32);
                Some(StallReport {
                    comp,
                    component: self.names[i].clone(),
                    rank: parked.rank,
                    op: parked.op,
                    at: self.time,
                    recent_spans: self.span_tail(comp, STALL_SPAN_TAIL),
                    gauges: gauges.clone(),
                    deadlock: deadlock.clone(),
                })
            })
            .collect()
    }

    /// The non-empty [`ResourceState`]s of every installed component, as
    /// `(registration name, state)` in component-id order — the input to
    /// the deadlock detector's wait-for graph.
    pub fn resource_states(&self) -> Vec<(String, ResourceState)> {
        self.components
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let st = slot.as_ref()?.resource_state()?;
                if st.is_empty() {
                    return None;
                }
                Some((self.names[i].clone(), st))
            })
            .collect()
    }
}

/// Queue-depth tracking for one `run*` call: exact maximum, subsampled
/// series for percentiles.
struct DepthGauges {
    max: usize,
    samples: Vec<usize>,
}

impl DepthGauges {
    fn new() -> Self {
        DepthGauges {
            max: 0,
            samples: Vec::new(),
        }
    }

    #[inline]
    fn observe(&mut self, executed: u64, depth: usize) {
        self.observe_depth(depth);
        if executed.is_multiple_of(DEPTH_SAMPLE_STRIDE) {
            self.samples.push(depth);
        }
    }

    /// Tracks the maximum only: after a skipped timer deadline, which
    /// leaves the sampled (per-event) series alone.
    #[inline]
    fn observe_depth(&mut self, depth: usize) {
        if depth > self.max {
            self.max = depth;
        }
    }

    fn summarize(mut self, outcome: RunOutcome, executed: u64, final_depth: usize) -> RunSummary {
        self.samples.sort_unstable();
        let pct = |p: f64| -> usize {
            if self.samples.is_empty() {
                return 0;
            }
            let rank = (p * (self.samples.len() - 1) as f64).round() as usize;
            self.samples[rank.min(self.samples.len() - 1)]
        };
        RunSummary {
            outcome,
            events_executed: executed,
            max_queue_depth: self.max,
            queue_depth_p50: pct(0.50),
            queue_depth_p99: pct(0.99),
            final_queue_depth: final_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A component that counts pings and optionally echoes them to a peer.
    struct Pinger {
        received: Vec<(u64, u32)>,
        peer: Option<Endpoint>,
        bounces_left: u32,
    }

    #[derive(Clone, Copy)]
    struct Ping(u32);

    impl Component for Pinger {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
            let ping = payload.downcast::<Ping>();
            self.received.push((ctx.now().as_ps(), ping.0));
            if let (Some(peer), true) = (self.peer, self.bounces_left > 0) {
                self.bounces_left -= 1;
                ctx.send(peer, Dur::from_ns(10), Ping(ping.0 + 1));
            }
        }
    }

    #[test]
    fn ping_pong_between_two_components() {
        let mut sim = Simulator::new(1);
        let a = sim.reserve("a");
        let b = sim.reserve("b");
        sim.install(
            a,
            Pinger {
                received: vec![],
                peer: Some(Endpoint::of(b)),
                bounces_left: 3,
            },
        );
        sim.install(
            b,
            Pinger {
                received: vec![],
                peer: Some(Endpoint::of(a)),
                bounces_left: 3,
            },
        );
        sim.post(Endpoint::of(a), Time::ZERO, Ping(0));
        assert_eq!(sim.run(), RunOutcome::Drained);
        // a gets pings 0, 2, 4, 6 at t = 0, 20ns, 40ns, 60ns... but bounce
        // budget of 3 per side caps the exchange at 7 total events.
        let a_ref = sim.component::<Pinger>(a);
        let b_ref = sim.component::<Pinger>(b);
        assert_eq!(a_ref.received.len() + b_ref.received.len(), 7);
        assert_eq!(a_ref.received[0], (0, 0));
        assert_eq!(b_ref.received[0], (10_000, 1));
        assert_eq!(a_ref.received[1], (20_000, 2));
        assert_eq!(sim.events_executed(), 7);
    }

    /// Forwards every `[u64; 8]` it receives to `to`, in the box it came in.
    struct BoxForwarder(Endpoint);

    impl Component for BoxForwarder {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
            let value = payload.into_box::<[u64; 8]>();
            ctx.send_box_at(self.0, ctx.now() + Dur::from_ns(5), value);
        }
    }

    #[test]
    fn send_box_at_forwards_the_value_and_its_type_name() {
        let mut sim = Simulator::new(0);
        let sink = sim.add("sink", crate::mailbox::Mailbox::<[u64; 8]>::new());
        let b = sim.add("b", BoxForwarder(Endpoint::of(sink)));
        let a = sim.add("a", BoxForwarder(Endpoint::of(b)));
        sim.enable_trace(8);
        sim.post(Endpoint::of(a), Time::ZERO, [7u64; 8]);
        assert_eq!(sim.run(), RunOutcome::Drained);
        let mb = sim.component::<crate::mailbox::Mailbox<[u64; 8]>>(sink);
        assert_eq!(mb.items(), [(Time::from_ns(10), [7u64; 8])]);
        let types: Vec<_> = sim.trace().iter().map(|r| r.payload_type).collect();
        assert_eq!(types, [core::any::type_name::<[u64; 8]>(); 3]);
    }

    #[test]
    fn horizon_stops_before_future_events() {
        let mut sim = Simulator::new(0);
        let a = sim.add(
            "a",
            Pinger {
                received: vec![],
                peer: None,
                bounces_left: 0,
            },
        );
        sim.post(Endpoint::of(a), Time::from_ps(5_000), Ping(1));
        sim.post(Endpoint::of(a), Time::from_ps(15_000), Ping(2));
        assert_eq!(sim.run_until(Time::from_ps(10_000)), RunOutcome::Horizon);
        assert_eq!(sim.component::<Pinger>(a).received.len(), 1);
        assert_eq!(sim.now(), Time::from_ps(10_000));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.component::<Pinger>(a).received.len(), 2);
    }

    #[test]
    fn event_budget_limits_execution() {
        struct SelfLooper;
        impl Component for SelfLooper {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, _payload: Payload) {
                ctx.send_self(port, Dur::from_ns(1), ());
            }
        }
        let mut sim = Simulator::new(0);
        let a = sim.add("loop", SelfLooper);
        sim.post(Endpoint::of(a), Time::ZERO, ());
        assert_eq!(sim.run_bounded(Time::MAX, 100), RunOutcome::Budget);
        assert_eq!(sim.events_executed(), 100);
    }

    #[test]
    fn stop_terminates_run() {
        struct Stopper;
        impl Component for Stopper {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _payload: Payload) {
                ctx.stop();
            }
        }
        let mut sim = Simulator::new(0);
        let a = sim.add("stopper", Stopper);
        sim.post(Endpoint::of(a), Time::from_ps(7), ());
        sim.post(Endpoint::of(a), Time::from_ps(9), ());
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.now(), Time::from_ps(7));
    }

    #[test]
    #[should_panic(expected = "uninstalled component")]
    fn event_to_reserved_slot_panics() {
        let mut sim = Simulator::new(0);
        let a = sim.reserve("ghost");
        sim.post(Endpoint::of(a), Time::ZERO, ());
        sim.run();
    }

    #[test]
    fn simultaneous_events_execute_in_scheduling_order() {
        let mut sim = Simulator::new(0);
        let a = sim.add(
            "a",
            Pinger {
                received: vec![],
                peer: None,
                bounces_left: 0,
            },
        );
        for i in 0..10 {
            sim.post(Endpoint::of(a), Time::from_ps(100), Ping(i));
        }
        sim.run();
        let got: Vec<u32> = sim
            .component::<Pinger>(a)
            .received
            .iter()
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn trace_captures_deliveries_in_order() {
        let mut sim = Simulator::new(0);
        sim.enable_trace(16);
        let a = sim.add(
            "a",
            Pinger {
                received: vec![],
                peer: None,
                bounces_left: 0,
            },
        );
        for i in 0..3u64 {
            sim.post(Endpoint::of(a), Time::from_ps(i * 10), Ping(i as u32));
        }
        sim.run();
        let trace = sim.trace();
        assert_eq!(trace.len(), 3);
        assert!(trace.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(trace[0].payload_type.contains("Ping"));
        let tail = sim.trace_tail(2);
        assert_eq!(tail.matches("Ping").count(), 2);
    }

    #[test]
    fn trace_ring_keeps_the_newest_records() {
        let mut sim = Simulator::new(0);
        sim.enable_trace(4);
        let a = sim.add(
            "a",
            Pinger {
                received: vec![],
                peer: None,
                bounces_left: 0,
            },
        );
        for i in 0..10u64 {
            sim.post(Endpoint::of(a), Time::from_ps(i), Ping(i as u32));
        }
        sim.run();
        let trace = sim.trace();
        assert_eq!(trace.len(), 4);
        // Oldest-first and ending with the final delivery.
        assert_eq!(trace[0].time, Time::from_ps(6));
        assert_eq!(trace[3].time, Time::from_ps(9));
    }

    /// A component that holds parked work until it receives `n` pings.
    struct Collector {
        rank: u32,
        want: u32,
        got: u32,
    }

    impl Component for Collector {
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _payload: Payload) {
            self.got += 1;
        }

        fn parked_work(&self) -> Option<ParkedWork> {
            (self.got < self.want).then(|| ParkedWork {
                rank: Some(self.rank),
                op: format!("WaitAll: {} of {} received", self.got, self.want),
            })
        }
    }

    #[test]
    fn watchdog_reports_parked_work_on_drain() {
        let mut sim = Simulator::new(0);
        let a = sim.add(
            "n0.collector",
            Collector {
                rank: 0,
                want: 2,
                got: 0,
            },
        );
        // Only one of the two expected pings ever arrives.
        sim.post(Endpoint::of(a), Time::from_ns(5), ());
        match sim.run() {
            RunOutcome::Stalled(report) => {
                assert_eq!(report.comp, a);
                assert_eq!(report.component, "n0.collector");
                assert_eq!(report.rank, Some(0));
                assert_eq!(report.op, "WaitAll: 1 of 2 received");
                assert_eq!(report.at, Time::from_ns(5));
                assert!(report.to_string().contains("n0.collector"));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_stays_quiet_when_work_completes() {
        let mut sim = Simulator::new(0);
        let a = sim.add(
            "collector",
            Collector {
                rank: 0,
                want: 2,
                got: 0,
            },
        );
        sim.post(Endpoint::of(a), Time::from_ns(5), ());
        sim.post(Endpoint::of(a), Time::from_ns(9), ());
        assert_eq!(sim.run(), RunOutcome::Drained);
    }

    #[test]
    fn watchdog_deadline_fires_amid_event_storms() {
        // A self-looping component keeps the queue busy forever (a
        // retransmission storm); the deadline still surfaces the stall.
        struct Storm;
        impl Component for Storm {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, _payload: Payload) {
                ctx.send_self(port, Dur::from_us(1), ());
            }
        }
        let mut sim = Simulator::new(0);
        let storm = sim.add("storm", Storm);
        let stuck = sim.add(
            "n3.collector",
            Collector {
                rank: 3,
                want: 1,
                got: 0,
            },
        );
        sim.post(Endpoint::of(storm), Time::ZERO, ());
        sim.set_stall_deadline(Time::from_us(50));
        match sim.run() {
            RunOutcome::Stalled(report) => {
                assert_eq!(report.comp, stuck);
                assert_eq!(report.rank, Some(3));
                assert!(sim.now() >= Time::from_us(50));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    /// A component blocked on a named resource, for deadlock-report tests.
    struct Waiter {
        waits: Vec<String>,
        holds: Vec<String>,
    }

    impl Component for Waiter {
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _payload: Payload) {}

        fn parked_work(&self) -> Option<ParkedWork> {
            (!self.waits.is_empty()).then(|| ParkedWork {
                rank: None,
                op: format!("waiting on {}", self.waits.join(", ")),
            })
        }

        fn resource_state(&self) -> Option<ResourceState> {
            Some(ResourceState {
                waits: self.waits.clone(),
                holds: self.holds.clone(),
                gauges: vec![crate::deadlock::ResourceGauge {
                    name: "credits".into(),
                    used: self.waits.len() as u64,
                    capacity: Some(4),
                }],
            })
        }
    }

    #[test]
    fn stall_report_carries_deadlock_cycle_and_gauges() {
        let mut sim = Simulator::new(0);
        sim.add(
            "a",
            Waiter {
                waits: vec!["r1".into()],
                holds: vec!["r2".into()],
            },
        );
        sim.add(
            "b",
            Waiter {
                waits: vec!["r2".into()],
                holds: vec!["r1".into()],
            },
        );
        match sim.run() {
            RunOutcome::Stalled(report) => {
                let deadlock = report.deadlock.as_ref().expect("cycle diagnosed");
                assert_eq!(deadlock.kind, crate::deadlock::DeadlockKind::Cycle);
                assert_eq!(deadlock.chain, vec!["a", "r1", "b", "r2"]);
                assert!(report.gauges.iter().any(|g| g.contains("a: credits 1/4")));
                let rendered = report.to_string();
                assert!(rendered.contains("wait-for cycle"), "{rendered}");
                assert!(rendered.contains("gauge: b: credits 1/4"), "{rendered}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn stall_report_names_orphaned_wait() {
        let mut sim = Simulator::new(0);
        sim.add(
            "n0.poe",
            Waiter {
                waits: vec!["net.txcredit(n0)".into()],
                holds: vec![],
            },
        );
        match sim.run() {
            RunOutcome::Stalled(report) => {
                let deadlock = report.deadlock.as_ref().expect("orphan diagnosed");
                assert_eq!(deadlock.kind, crate::deadlock::DeadlockKind::OrphanedWait);
                assert_eq!(deadlock.chain, vec!["n0.poe", "net.txcredit(n0)"]);
                assert!(report.to_string().contains("orphaned wait"));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn stall_reports_list_every_stuck_component() {
        let mut sim = Simulator::new(0);
        for rank in 0..3u32 {
            sim.add(
                format!("n{rank}.collector"),
                Collector {
                    rank,
                    want: 1,
                    got: 0,
                },
            );
        }
        assert!(matches!(sim.run(), RunOutcome::Stalled(_)));
        let reports = sim.stall_reports();
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports.iter().filter_map(|r| r.rank).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn determinism_same_seed_same_timeline() {
        fn run_once(seed: u64) -> Vec<(u64, u32)> {
            use rand::RngExt;
            struct Jitterer {
                peer: Option<Endpoint>,
                log: Vec<(u64, u32)>,
                remaining: u32,
                rng: StdRng,
            }
            impl Component for Jitterer {
                fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
                    let v = payload.downcast::<u32>();
                    self.log.push((ctx.now().as_ps(), v));
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        let jitter = self.rng.random_range(1..1000u64);
                        let peer = self.peer.unwrap_or(Endpoint::of(ctx.self_id()));
                        ctx.send(peer, Dur::from_ps(jitter), v + 1);
                    }
                }
            }
            let mut sim = Simulator::new(seed);
            let a = sim.add(
                "a",
                Jitterer {
                    peer: None,
                    log: vec![],
                    remaining: 50,
                    rng: sim.fork_rng("a"),
                },
            );
            sim.post(Endpoint::of(a), Time::ZERO, 0u32);
            sim.run();
            sim.component::<Jitterer>(a).log.clone()
        }
        assert_eq!(run_once(42), run_once(42));
        assert_ne!(run_once(42), run_once(43));
    }

    /// Workload with pseudo-random near/far delays used for the digest
    /// tests.
    struct JitterMix {
        remaining: u32,
        rng: StdRng,
    }

    impl JitterMix {
        fn new(sim: &Simulator, remaining: u32) -> JitterMix {
            JitterMix {
                remaining,
                rng: sim.fork_rng("mix"),
            }
        }
    }

    impl Component for JitterMix {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: Payload) {
            use rand::RngExt;
            let v = payload.downcast::<u32>();
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            let delay = match v % 5 {
                0 => Dur::from_us(self.rng.random_range(1..200u64)), // far
                _ => Dur::from_ps(self.rng.random_range(1..5000u64)), // near
            };
            ctx.send_self(port, delay, v + 1);
            if v.is_multiple_of(3) {
                // A second simultaneous event exercises seq tie-breaks.
                ctx.send_self(port, delay, v + 1000);
            }
        }
    }

    #[test]
    fn digest_detects_timeline_differences() {
        let mut sim = Simulator::new(0);
        sim.enable_digest();
        let a = sim.add("mix", JitterMix::new(&sim, 10));
        sim.post(Endpoint::of(a), Time::ZERO, 0u32);
        sim.run();
        let d1 = sim.timeline_digest().unwrap();

        let mut sim = Simulator::new(0);
        sim.enable_digest();
        let a = sim.add("mix", JitterMix::new(&sim, 11));
        sim.post(Endpoint::of(a), Time::ZERO, 0u32);
        sim.run();
        let d2 = sim.timeline_digest().unwrap();
        assert_ne!(d1, d2);
    }

    /// Counts its deliveries; its first arms timer slot `(1, 1)` 100 ns
    /// out and sends itself a message 30 ns out.
    #[derive(Default)]
    struct Ticker {
        got: u32,
    }

    impl Component for Ticker {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _payload: Payload) {
            self.got += 1;
            if self.got == 1 {
                ctx.arm_timer(PortId(1), 1, Dur::from_ns(100), ());
                ctx.send_self(PortId::DEFAULT, Dur::from_ns(30), ());
            }
        }
    }

    #[test]
    fn suspended_component_runs_nothing_until_reinstalled() {
        let mut sim = Simulator::new(0);
        sim.enable_trace(64);
        let a = sim.add("a", Ticker::default());
        let b = sim.add("b", Ticker::default());
        for c in [a, b] {
            sim.post(Endpoint::of(c), Time::ZERO, ());
        }
        sim.suspend_at(Time::from_ns(20), vec![a]);
        sim.post(Endpoint::of(a), Time::from_ns(20), ());
        sim.post(Endpoint::of(a), Time::from_ns(50), ());
        assert_eq!(sim.run(), RunOutcome::Drained);

        // `a` ran its first message only: the same-time post, the later
        // post and its own self-send were dropped and counted, and its
        // timer slot never fired. `b` ran all three of its deliveries.
        assert_eq!(sim.component::<Ticker>(a).got, 1);
        assert_eq!(sim.component::<Ticker>(b).got, 3);
        assert_eq!(sim.suspended_since(a), Some(Time::from_ns(20)));
        assert_eq!(sim.suspended_since(b), None);
        assert!(!sim.timer_pending(a, PortId(1), 1));
        assert_eq!(sim.stats().counter("sim.kernel.suspended_drops"), 3);
        assert_eq!(sim.events_executed(), 4);
        let ran_a: Vec<Time> = sim
            .trace()
            .iter()
            .filter(|r| r.comp == a)
            .map(|r| r.time)
            .collect();
        assert_eq!(ran_a, vec![Time::ZERO]);

        // A fresh instance in the suspended slot runs again.
        sim.install(a, Ticker::default());
        assert_eq!(sim.suspended_since(a), None);
        sim.post(Endpoint::of(a), sim.now(), ());
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.component::<Ticker>(a).got, 3);
        assert_eq!(sim.stats().counter("sim.kernel.suspended_drops"), 3);
    }

    #[test]
    fn run_summary_reports_depth_and_event_gauges() {
        let mut sim = Simulator::new(0);
        let a = sim.add(
            "a",
            Pinger {
                received: vec![],
                peer: None,
                bounces_left: 0,
            },
        );
        for i in 0..100u64 {
            sim.post(Endpoint::of(a), Time::from_ps(i), Ping(i as u32));
        }
        assert_eq!(sim.run(), RunOutcome::Drained);
        let summary = sim.last_run_summary().expect("run recorded a summary");
        assert_eq!(summary.outcome, RunOutcome::Drained);
        assert_eq!(summary.events_executed, 100);
        assert_eq!(summary.max_queue_depth, 99);
        assert_eq!(summary.final_queue_depth, 0);
        assert!(summary.queue_depth_p50 <= summary.queue_depth_p99);
        assert!(summary.queue_depth_p99 <= summary.max_queue_depth);
        assert_eq!(sim.stats().counter("sim.kernel.events_executed"), 100);
    }
}
