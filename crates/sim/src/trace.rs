//! Causal span tracing: sim-time spans with parent-child causality,
//! recorded into a bounded ring with stable, deterministic ids.
//!
//! The paper's evaluation is built on latency *attribution* (Fig. 9's
//! PCIe-vs-collective breakdown, Fig. 8/13's invocation penalties). This
//! module is the measurement substrate: components open spans
//! ([`crate::sim::Ctx::span_begin`] / [`crate::sim::Ctx::span_end`]), link
//! them causally by carrying a [`SpanId`] in payloads, and attach typed
//! [`AttrValue`] attributes. A single collective then yields a complete
//! multi-rank timeline exportable as Chrome/Perfetto `trace_event` JSON
//! ([`chrome_trace_json`]). Latency attribution over that timeline is the
//! `accl-obs` critical-path walk, which charges each interval of a
//! collective to the span (and so the component) that set it.
//!
//! # Determinism contract
//!
//! Recording is read-only observation: it never schedules events, draws
//! randomness, or perturbs the timeline. Span ids are *content-derived* —
//! FNV-1a over `(component, span name, parent id, per-(component, name,
//! parent) ordinal)` — not allocation-order counters, so ids and
//! timestamps replay bit-identically across `QueueKind` A/B and across
//! the race detector's tie-order permutations (two tied handlers may swap
//! execution order, but each span keeps the id derived from its causal
//! position, not from global arrival order at the component). The whole module
//! is integer-only in sim-visible paths and passes `accl-lint`.
//!
//! # Overhead contract
//!
//! The `trace` cargo feature gates all recording. [`COMPILED`] is `false`
//! without the feature, every recording entry point starts with a
//! `const`-foldable `if !COMPILED { return }`, and the [`trace_span!`] /
//! [`trace_instant!`] macros do not even evaluate their attribute
//! arguments — the instrumented hot paths compile to exactly the
//! uninstrumented code (guarded by the `micro_simcore` bench). With the
//! feature on but recording not enabled ([`crate::sim::Simulator::enable_spans`]
//! not called), the cost is one branch per call site.

use std::collections::BTreeMap;

use crate::digest::{fnv1a, FNV_OFFSET, FNV_PRIME};
use crate::event::ComponentId;
use crate::json::quote;
use crate::time::{Dur, Time};

/// Whether span recording is compiled into this build (the `trace` cargo
/// feature). When `false`, every recording entry point is a no-op the
/// optimizer removes entirely.
pub const COMPILED: bool = cfg!(feature = "trace");

/// Identity of one span. `SpanId::NONE` (zero) means "no span" — the
/// parent of a root span, or any id produced while tracing is disabled.
///
/// Ids are deterministic: FNV-1a of the recording component, the span
/// name, the parent id, and the ordinal of that `(component, name,
/// parent)` triple — see the module docs. Payload structs carry a
/// `SpanId` to hand causality across component boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (parent of roots; produced when tracing is off).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Identity of one cross-component *flow edge*: an explicit causal arrow
/// from a producing span (Tx side of a handoff) to the consuming span (Rx
/// side), carried through payloads exactly like a [`SpanId`]. Flow ids are
/// derived by the same content-derived FNV machinery as span ids, so they
/// replay bit-identically; `FlowId::NONE` (zero) means "no flow" and is
/// what every emission returns while tracing is disabled.
///
/// Flows exist because parent links alone cannot express a *join*: the
/// receive-side span of a Tx→Rx handoff has the wire span as its parent,
/// but when the handoff crosses ranks the consumer may also causally
/// depend on state owned by another chain.
/// Emit with [`crate::sim::Ctx::flow_begin`], join with
/// [`crate::sim::Ctx::flow_end`]; exporters render them as Chrome `s`/`f`
/// flow arrows and `accl-obs` treats them as extra DAG edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u64);

impl FlowId {
    /// The absent flow (produced when tracing is off).
    pub const NONE: FlowId = FlowId(0);

    /// Whether this is [`FlowId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// A typed attribute value. Deliberately float-free: attributes ride in
/// sim-visible code and must not introduce platform-dependent rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned quantity (counts, lengths, ranks, tickets).
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A static label (op names, protocol names).
    Str(&'static str),
    /// A byte count (rendered with a unit by exporters).
    Bytes(u64),
    /// A duration.
    Dur(Dur),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<u16> for AttrValue {
    fn from(v: u16) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

impl From<Dur> for AttrValue {
    fn from(v: Dur) -> Self {
        AttrValue::Dur(v)
    }
}

/// One `key = value` span attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// Attribute name.
    pub key: &'static str,
    /// Attribute value.
    pub value: AttrValue,
}

/// What a [`SpanEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanEventKind {
    /// A span opened at `time`.
    Begin,
    /// A span closed at `time`.
    End,
    /// A point event (no duration).
    Instant,
    /// A flow edge departed: `id` is the [`FlowId`] (as a raw u64),
    /// `parent` the producing span it is anchored to.
    FlowBegin,
    /// A flow edge arrived: `id` is the [`FlowId`], `parent` the
    /// consuming span it joins into.
    FlowEnd,
}

/// One record in the span ring: a span opening, closing, or a point event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Simulated time of the event. Interval spans recorded via
    /// [`crate::sim::Ctx::span_interval`] may carry times in the simulated
    /// future (a pipe reservation's end); exporters sort by time.
    pub time: Time,
    /// Whether this opens, closes, or marks.
    pub kind: SpanEventKind,
    /// The span's id (`Begin`/`End` pairs share it; instants get their own).
    pub id: SpanId,
    /// Causal parent ([`SpanId::NONE`] for roots). Meaningful on
    /// `Begin`/`Instant`.
    pub parent: SpanId,
    /// Component that recorded the event.
    pub comp: ComponentId,
    /// Span name (`layer.stage` convention, e.g. `"uc.call"`).
    pub name: &'static str,
    /// Typed attributes attached at this event.
    pub attrs: Vec<Attr>,
}

/// The bounded span ring plus the deterministic id allocator. Owned by the
/// simulator; enabled via [`crate::sim::Simulator::enable_spans`].
#[derive(Debug, Default)]
pub struct SpanRecorder {
    enabled: bool,
    cap: usize,
    ring: Vec<SpanEvent>,
    /// Total events recorded (ring rotates at `recorded % cap`).
    recorded: u64,
    /// Per-(component, name, parent) ordinals feeding the id hash.
    ordinals: BTreeMap<(u32, &'static str, SpanId), u64>,
}

impl SpanRecorder {
    /// Enables recording into a ring of `capacity` events.
    pub(crate) fn enable(&mut self, capacity: usize) {
        assert!(capacity > 0, "zero-capacity span ring");
        if !COMPILED {
            panic!("span recording requested but accl-sim was built without the `trace` feature");
        }
        if !self.enabled {
            self.enabled = true;
            self.cap = capacity;
            self.ring = Vec::with_capacity(capacity.min(4096));
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        COMPILED && self.enabled
    }

    /// Events recorded but evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.recorded.saturating_sub(self.ring.len() as u64)
    }

    /// Derives the deterministic id for the next `(comp, name, parent)`
    /// span. The parent participates in both the ordinal key and the hash
    /// so a span's id is a function of its *causal position* — the Nth
    /// `"net.queue"` child of one particular frame span — not of the
    /// global arrival order at the component. Same-timestamp events from
    /// different causes can then execute in any tie order without ids
    /// migrating between causal chains (the permuted-tie-order golden
    /// digest depends on this).
    fn next_id(&mut self, comp: ComponentId, name: &'static str, parent: SpanId) -> SpanId {
        let ord = self
            .ordinals
            .entry((comp.index() as u32, name, parent))
            .or_insert(0);
        *ord += 1;
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &(comp.index() as u32).to_le_bytes());
        fnv1a(&mut h, name.as_bytes());
        fnv1a(&mut h, &parent.0.to_le_bytes());
        fnv1a(&mut h, &ord.to_le_bytes());
        // Zero is reserved for NONE; remix the (astronomically unlikely)
        // collision instead of emitting it.
        SpanId(if h == 0 { FNV_PRIME } else { h })
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.ring.len() < self.cap {
            self.ring.push(ev);
        } else {
            let idx = (self.recorded as usize) % self.cap;
            self.ring[idx] = ev;
        }
        self.recorded += 1;
    }

    /// Records a span opening at `time`; returns its id.
    pub(crate) fn begin(
        &mut self,
        time: Time,
        comp: ComponentId,
        name: &'static str,
        parent: SpanId,
        attrs: &[Attr],
    ) -> SpanId {
        if !COMPILED || !self.enabled {
            return SpanId::NONE;
        }
        let id = self.next_id(comp, name, parent);
        self.push(SpanEvent {
            time,
            kind: SpanEventKind::Begin,
            id,
            parent,
            comp,
            name,
            attrs: attrs.to_vec(),
        });
        id
    }

    /// Records a span closing at `time`. No-op for [`SpanId::NONE`].
    pub(crate) fn end(&mut self, time: Time, comp: ComponentId, id: SpanId, attrs: &[Attr]) {
        if !COMPILED || !self.enabled || id.is_none() {
            return;
        }
        self.push(SpanEvent {
            time,
            kind: SpanEventKind::End,
            id,
            parent: SpanId::NONE,
            comp,
            name: "",
            attrs: attrs.to_vec(),
        });
    }

    /// Records a point event at `time`.
    pub(crate) fn instant(
        &mut self,
        time: Time,
        comp: ComponentId,
        name: &'static str,
        parent: SpanId,
        attrs: &[Attr],
    ) {
        if !COMPILED || !self.enabled {
            return;
        }
        let id = self.next_id(comp, name, parent);
        self.push(SpanEvent {
            time,
            kind: SpanEventKind::Instant,
            id,
            parent,
            comp,
            name,
            attrs: attrs.to_vec(),
        });
    }

    /// Records the departure side of a cross-component flow edge at
    /// `time`, anchored to the producing span `from`; returns the
    /// deterministic [`FlowId`] to carry in the payload. The id is derived
    /// by the same `(component, name, anchor)` ordinal hash as span ids,
    /// so it replays bit-identically and never collides with `NONE`.
    pub(crate) fn flow_begin(
        &mut self,
        time: Time,
        comp: ComponentId,
        name: &'static str,
        from: SpanId,
    ) -> FlowId {
        if !COMPILED || !self.enabled {
            return FlowId::NONE;
        }
        let id = self.next_id(comp, name, from);
        self.push(SpanEvent {
            time,
            kind: SpanEventKind::FlowBegin,
            id,
            parent: from,
            comp,
            name,
            attrs: Vec::new(),
        });
        FlowId(id.0)
    }

    /// Records the arrival side of a flow edge at `time`, joining it into
    /// the consuming span `to`. No-op for [`FlowId::NONE`] (the edge was
    /// emitted while tracing was off, or never emitted).
    pub(crate) fn flow_end(
        &mut self,
        time: Time,
        comp: ComponentId,
        name: &'static str,
        flow: FlowId,
        to: SpanId,
    ) {
        if !COMPILED || !self.enabled || flow.is_none() {
            return;
        }
        self.push(SpanEvent {
            time,
            kind: SpanEventKind::FlowEnd,
            id: SpanId(flow.0),
            parent: to,
            comp,
            name,
            attrs: Vec::new(),
        });
    }

    /// Records a complete `[start, end]` span in one call (e.g. a pipe
    /// reservation whose end is already known); returns its id.
    pub(crate) fn interval(
        &mut self,
        comp: ComponentId,
        name: &'static str,
        parent: SpanId,
        start: Time,
        end: Time,
        attrs: &[Attr],
    ) -> SpanId {
        if !COMPILED || !self.enabled {
            return SpanId::NONE;
        }
        debug_assert!(end >= start, "inverted span interval");
        let id = self.begin(start, comp, name, parent, attrs);
        self.end(end, comp, id, &[]);
        id
    }

    /// The surviving ring contents, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        if self.ring.len() < self.cap || self.cap == 0 {
            self.ring.clone()
        } else {
            let split = (self.recorded as usize) % self.cap;
            let mut out = self.ring[split..].to_vec();
            out.extend_from_slice(&self.ring[..split]);
            out
        }
    }
}

/// Opens a span (with optional `key = value` attributes) through a
/// [`crate::sim::Ctx`], evaluating nothing when tracing is compiled out.
///
/// ```ignore
/// let sp = trace_span!(ctx, "uc.call", parent_id, "op" = "allreduce", "len" = len);
/// ```
#[macro_export]
macro_rules! trace_span {
    ($ctx:expr, $name:expr, $parent:expr) => {
        if $crate::trace::COMPILED {
            $ctx.span_begin($name, $parent)
        } else {
            $crate::trace::SpanId::NONE
        }
    };
    ($ctx:expr, $name:expr, $parent:expr, $($key:literal = $val:expr),+ $(,)?) => {
        if $crate::trace::COMPILED {
            $ctx.span_begin_attrs(
                $name,
                $parent,
                &[$($crate::trace::Attr {
                    key: $key,
                    value: $crate::trace::AttrValue::from($val),
                }),+],
            )
        } else {
            $crate::trace::SpanId::NONE
        }
    };
}

/// Closes a span opened by [`trace_span!`]. Compiles away with the ring.
#[macro_export]
macro_rules! trace_end {
    ($ctx:expr, $id:expr) => {
        if $crate::trace::COMPILED {
            $ctx.span_end($id);
        }
    };
    ($ctx:expr, $id:expr, at: $time:expr) => {
        if $crate::trace::COMPILED {
            $ctx.span_end_at($id, $time);
        }
    };
}

/// Records an instant (point) event, evaluating nothing when tracing is
/// compiled out.
#[macro_export]
macro_rules! trace_instant {
    ($ctx:expr, $name:expr, $parent:expr) => {
        if $crate::trace::COMPILED {
            $ctx.span_instant($name, $parent);
        }
    };
    ($ctx:expr, $name:expr, $parent:expr, $($key:literal = $val:expr),+ $(,)?) => {
        if $crate::trace::COMPILED {
            $ctx.span_instant_attrs(
                $name,
                $parent,
                &[$($crate::trace::Attr {
                    key: $key,
                    value: $crate::trace::AttrValue::from($val),
                }),+],
            );
        }
    };
}

/// Order-sensitive FNV-1a digest of a span event list, canonicalized by a
/// stable sort on `(time, name, id, kind)` so same-timestamp *record*
/// order does not matter — the "golden span digest" replay and
/// queue-A/B tests pin. It hashes ids and parents, so it is exact about
/// causal attachment; for invariance under the race detector's permuted
/// tie order use [`span_canon_digest`] instead.
pub fn span_digest(events: &[SpanEvent]) -> u64 {
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.time, e.name, e.id, e.kind));
    let mut h = FNV_OFFSET;
    for e in sorted {
        fnv1a(&mut h, &e.time.as_ps().to_le_bytes());
        fnv1a(&mut h, &[e.kind as u8]);
        fnv1a(&mut h, &e.id.0.to_le_bytes());
        fnv1a(&mut h, &e.parent.0.to_le_bytes());
        fnv1a(&mut h, &(e.comp.index() as u32).to_le_bytes());
        fnv1a(&mut h, e.name.as_bytes());
    }
    h
}

/// Tie-normalized span digest: the sorted multiset of
/// `(kind, component, name)` tuples, with times, ids, parents and
/// attributes quotiented out.
///
/// This is the span-stream analogue of the race detector's canonical
/// delivery records, `(component, port, payload type)` — deliberately
/// insensitive to *which* of several same-typed, same-timestamp events a
/// handler saw first, because cross-channel tie order is exactly the
/// thing no handler may depend on. Under a permuted tie order both
/// timing and causal attachment may legitimately move (when two frames
/// reach a switch egress at the same instant, which one queues and which
/// one grabs the wire is an arbitration choice, and that choice shifts
/// downstream arrival times); what must not move is the *population* of
/// work — every component still records the same spans, the same number
/// of times. Compare with [`span_digest`], which additionally pins
/// timing, ids and parents and is the replay/queue-invariance bar.
pub fn span_canon_digest(events: &[SpanEvent]) -> u64 {
    let mut recs: Vec<(u8, u32, &'static str)> = events
        .iter()
        .map(|e| (e.kind as u8, e.comp.index() as u32, e.name))
        .collect();
    recs.sort_unstable();
    let mut h = FNV_OFFSET;
    for (kind, comp, name) in recs {
        fnv1a(&mut h, &[kind]);
        fnv1a(&mut h, &comp.to_le_bytes());
        fnv1a(&mut h, name.as_bytes());
    }
    h
}

/// Maximum parent-chain depth over the event list (a root span is depth 1).
pub fn max_span_depth(events: &[SpanEvent]) -> usize {
    let mut parents: BTreeMap<SpanId, SpanId> = BTreeMap::new();
    for e in events {
        if matches!(e.kind, SpanEventKind::Begin | SpanEventKind::Instant) {
            parents.insert(e.id, e.parent);
        }
    }
    let mut max = 0usize;
    for &id in parents.keys() {
        let mut depth = 0usize;
        let mut cur = id;
        while !cur.is_none() && depth <= parents.len() {
            depth += 1;
            cur = parents.get(&cur).copied().unwrap_or(SpanId::NONE);
        }
        max = max.max(depth);
    }
    max
}

fn attr_json(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) | AttrValue::Bytes(n) => format!("{n}"),
        AttrValue::I64(n) => format!("{n}"),
        AttrValue::Str(s) => quote(s),
        AttrValue::Dur(d) => format!("\"{d}\""),
    }
}

fn args_json(attrs: &[Attr]) -> String {
    if attrs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = attrs
        .iter()
        .map(|a| format!("{}: {}", quote(a.key), attr_json(&a.value)))
        .collect();
    format!(", \"args\": {{{}}}", body.join(", "))
}

/// `pid` for the Chrome export: ranks (components named `n<r>.…`) map to
/// process `r`; everything else (harness components) to `u32::MAX`.
fn pid_of(name: &str) -> u32 {
    name.strip_prefix('n')
        .and_then(|rest| rest.split('.').next())
        .and_then(|digits| digits.parse::<u32>().ok())
        .unwrap_or(u32::MAX)
}

/// Exports the simulator's span ring as Chrome/Perfetto `trace_event` JSON
/// (the `{"traceEvents": […]}` object form). Matched begin/end pairs
/// become complete (`"ph": "X"`) events; instants become `"ph": "i"`;
/// an unmatched begin (still-open span, or its end was evicted from the
/// ring) becomes a `"ph": "B"` without an `E`, which Perfetto renders as
/// unterminated. Timestamps are microseconds (the format's unit), emitted
/// with picosecond precision.
pub fn chrome_trace_json(sim: &crate::sim::Simulator) -> String {
    let events = sim.span_events();
    // Pair Begin/End by id (ids are unique by construction).
    let mut ends: BTreeMap<SpanId, Time> = BTreeMap::new();
    for e in &events {
        if e.kind == SpanEventKind::End {
            ends.insert(e.id, e.time);
        }
    }
    let ts = |t: Time| -> String {
        let ps = t.as_ps();
        format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
    };
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    // Process/thread naming metadata.
    let mut named: BTreeMap<(u32, u32), &str> = BTreeMap::new();
    for e in &events {
        let name = sim.name(e.comp);
        named
            .entry((pid_of(name), e.comp.index() as u32))
            .or_insert(name);
    }
    let mut pids: Vec<u32> = named.keys().map(|&(p, _)| p).collect();
    pids.dedup();
    for pid in pids {
        let label = if pid == u32::MAX {
            "harness".to_string()
        } else {
            format!("rank {pid}")
        };
        push(
            format!(
                "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {pid}, \"tid\": 0, \
                 \"args\": {{\"name\": \"{label}\"}}}}"
            ),
            &mut out,
        );
    }
    for (&(pid, tid), name) in &named {
        push(
            format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {pid}, \"tid\": {tid}, \
                 \"args\": {{\"name\": {}}}}}",
                quote(name)
            ),
            &mut out,
        );
    }
    for e in &events {
        let pid = pid_of(sim.name(e.comp));
        let tid = e.comp.index() as u32;
        let cat = e.name.split('.').next().unwrap_or("span");
        match e.kind {
            SpanEventKind::Begin => {
                let common = format!(
                    "\"name\": {}, \"cat\": {}, \"pid\": {}, \"tid\": {}, \
                     \"ts\": {}{}",
                    quote(e.name),
                    quote(cat),
                    pid,
                    tid,
                    ts(e.time),
                    args_json(&e.attrs),
                );
                match ends.get(&e.id) {
                    Some(&end) => {
                        let dur_ps = end.as_ps().saturating_sub(e.time.as_ps());
                        push(
                            format!(
                                "{{\"ph\": \"X\", {common}, \"dur\": {}.{:06}}}",
                                dur_ps / 1_000_000,
                                dur_ps % 1_000_000
                            ),
                            &mut out,
                        );
                    }
                    None => push(format!("{{\"ph\": \"B\", {common}}}"), &mut out),
                }
            }
            SpanEventKind::Instant => push(
                format!(
                    "{{\"ph\": \"i\", \"s\": \"t\", \"name\": {}, \"cat\": {}, \
                     \"pid\": {}, \"tid\": {}, \"ts\": {}{}}}",
                    quote(e.name),
                    quote(cat),
                    pid,
                    tid,
                    ts(e.time),
                    args_json(&e.attrs),
                ),
                &mut out,
            ),
            // Chrome flow events: `s` (start) on the producing slice,
            // `f` with `bp: "e"` (bind to enclosing slice end) on the
            // consuming slice. Pairs share `cat`, `name`, and `id`; the
            // id is the deterministic FlowId rendered in hex.
            SpanEventKind::FlowBegin => push(
                format!(
                    "{{\"ph\": \"s\", \"id\": \"{:#x}\", \"name\": {}, \
                     \"cat\": \"flow\", \"pid\": {}, \"tid\": {}, \"ts\": {}}}",
                    e.id.0,
                    quote(e.name),
                    pid,
                    tid,
                    ts(e.time),
                ),
                &mut out,
            ),
            SpanEventKind::FlowEnd => push(
                format!(
                    "{{\"ph\": \"f\", \"bp\": \"e\", \"id\": \"{:#x}\", \"name\": {}, \
                     \"cat\": \"flow\", \"pid\": {}, \"tid\": {}, \"ts\": {}}}",
                    e.id.0,
                    quote(e.name),
                    pid,
                    tid,
                    ts(e.time),
                ),
                &mut out,
            ),
            SpanEventKind::End => {}
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        time_ps: u64,
        kind: SpanEventKind,
        id: u64,
        parent: u64,
        name: &'static str,
    ) -> SpanEvent {
        SpanEvent {
            time: Time::from_ps(time_ps),
            kind,
            id: SpanId(id),
            parent: SpanId(parent),
            comp: ComponentId(0),
            name,
            attrs: vec![],
        }
    }

    #[test]
    fn depth_walks_parent_chain() {
        use SpanEventKind::Begin;
        let events = vec![
            ev(0, Begin, 1, 0, "a"),
            ev(0, Begin, 2, 1, "b"),
            ev(0, Begin, 3, 2, "c"),
        ];
        assert_eq!(max_span_depth(&events), 3);
        assert_eq!(max_span_depth(&[]), 0);
    }

    #[test]
    fn digest_is_invariant_to_record_order() {
        use SpanEventKind::Begin;
        let a = ev(5, Begin, 1, 0, "x");
        let b = ev(5, Begin, 2, 0, "y");
        let fwd = span_digest(&[a.clone(), b.clone()]);
        let rev = span_digest(&[b, a]);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn canon_digest_quotients_out_causal_attachment() {
        use SpanEventKind::Begin;
        // Two tied frames at a switch egress: under a permuted tie order
        // the queue/wire roles swap parents (and hence ids). The strict
        // digest distinguishes the runs; the canonical one must not.
        let run_a = [
            ev(5, Begin, 10, 1, "net.queue"),
            ev(5, Begin, 11, 2, "net.wire"),
        ];
        let run_b = [
            ev(8, Begin, 12, 2, "net.queue"),
            ev(5, Begin, 13, 1, "net.wire"),
        ];
        assert_ne!(span_digest(&run_a), span_digest(&run_b));
        assert_eq!(span_canon_digest(&run_a), span_canon_digest(&run_b));
        // But it still detects missing or renamed work.
        let renamed = [
            ev(5, Begin, 10, 1, "net.hop"),
            ev(5, Begin, 11, 2, "net.wire"),
        ];
        assert_ne!(span_canon_digest(&run_a), span_canon_digest(&renamed));
        assert_ne!(span_canon_digest(&run_a), span_canon_digest(&run_a[..1]));
    }
}
