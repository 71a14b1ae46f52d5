//! Causal span tracing: sim-time spans with parent-child causality,
//! recorded into a bounded ring with stable, deterministic ids.
//!
//! The paper's evaluation is built on latency *attribution* (Fig. 9's
//! PCIe-vs-collective breakdown, Fig. 8/13's invocation penalties). This
//! module is the measurement substrate: components open spans
//! ([`crate::sim::Ctx::span_begin`] / [`crate::sim::Ctx::span_end`]), link
//! them causally by carrying a [`SpanId`] in payloads, and attach typed
//! [`AttrValue`] attributes. A single collective then yields a complete
//! multi-rank timeline. The kernel owns no export format: `accl-obs`
//! snapshots the ring into its `TraceDoc` run artifact, renders that as
//! Chrome/Perfetto `trace_event` JSON (`accl-obs perfetto`), and walks
//! its critical path, which charges each interval of a collective to the
//! span (and so the component) that set it.
//!
//! # Determinism contract
//!
//! Recording is read-only observation: it never schedules events, draws
//! randomness, or perturbs the timeline. Span ids are *content-derived* —
//! FNV-1a over `(component, span name, parent id, per-(component, name,
//! parent) ordinal)` — not allocation-order counters, so ids and
//! timestamps replay bit-identically run to run and across the race
//! detector's tie-order permutations (two tied handlers may swap
//! execution order, but each span keeps the id derived from its causal
//! position, not from global arrival order at the component). The whole module
//! is integer-only in sim-visible paths and passes `accl-lint`.
//!
//! # Overhead contract
//!
//! Recording is a runtime switch ([`crate::sim::Simulator::enable_spans`]);
//! there is one build. While it is off, every recording entry point returns
//! after one predictable branch, and the [`trace_span!`] /
//! [`trace_instant!`] macros branch on [`crate::sim::Ctx::spans_enabled`]
//! before evaluating their attribute arguments. The `micro_simcore` bench
//! gates the idle cost: its `chain_1m_spans_off` row opens and closes an
//! attributed span on every event with recording off and must stay within
//! 2% of the uninstrumented `chain_1m_events` row of the same build.

use std::collections::BTreeMap;

use crate::digest::{fnv1a, FNV_OFFSET, FNV_PRIME};
use crate::event::ComponentId;
use crate::time::Time;

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
/// [`crate::sim::Ctx::flow_end`]; `accl-obs` treats them as extra DAG
/// edges and renders them as Chrome `s`/`f` flow arrows.
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
    /// An unsigned quantity (byte counts, lengths, ranks, tickets).
    U64(u64),
    /// A static label (op names, protocol names).
    Str(&'static str),
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

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
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
    /// future (a pipe reservation's end), so ring order is not time order.
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
    /// Typed attributes (only `Begin` and `Instant` carry any).
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
        if !self.enabled {
            self.enabled = true;
            self.cap = capacity;
            self.ring = Vec::with_capacity(capacity.min(4096));
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
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

    /// Appends one event to the ring; returns its id. `id` is given for
    /// the closing side of a span or flow and derived otherwise. Out of
    /// line and cold: the entry points below check `enabled` inline, so an
    /// idle call site carries one branch and no recording code.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        time: Time,
        kind: SpanEventKind,
        comp: ComponentId,
        name: &'static str,
        id: Option<SpanId>,
        parent: SpanId,
        attrs: &[Attr],
    ) -> SpanId {
        let id = id.unwrap_or_else(|| self.next_id(comp, name, parent));
        let ev = SpanEvent {
            time,
            kind,
            id,
            parent,
            comp,
            name,
            attrs: attrs.to_vec(),
        };
        if self.ring.len() < self.cap {
            self.ring.push(ev);
        } else {
            let idx = (self.recorded as usize) % self.cap;
            self.ring[idx] = ev;
        }
        self.recorded += 1;
        id
    }

    /// Records a span opening at `time`; returns its id.
    #[inline]
    pub(crate) fn begin(
        &mut self,
        time: Time,
        comp: ComponentId,
        name: &'static str,
        parent: SpanId,
        attrs: &[Attr],
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.record(time, SpanEventKind::Begin, comp, name, None, parent, attrs)
    }

    /// Records a span closing at `time`. No-op for [`SpanId::NONE`].
    #[inline]
    pub(crate) fn end(&mut self, time: Time, comp: ComponentId, id: SpanId) {
        if !self.enabled || id.is_none() {
            return;
        }
        let none = SpanId::NONE;
        self.record(time, SpanEventKind::End, comp, "", Some(id), none, &[]);
    }

    /// Records a point event at `time`.
    #[inline]
    pub(crate) fn instant(
        &mut self,
        time: Time,
        comp: ComponentId,
        name: &'static str,
        parent: SpanId,
        attrs: &[Attr],
    ) {
        if !self.enabled {
            return;
        }
        let kind = SpanEventKind::Instant;
        self.record(time, kind, comp, name, None, parent, attrs);
    }

    /// Records the departure side of a cross-component flow edge at
    /// `time`, anchored to the producing span `from`; returns the
    /// deterministic [`FlowId`] to carry in the payload. The id is derived
    /// by the same `(component, name, anchor)` ordinal hash as span ids,
    /// so it replays bit-identically and never collides with `NONE`.
    #[inline]
    pub(crate) fn flow_begin(
        &mut self,
        time: Time,
        comp: ComponentId,
        name: &'static str,
        from: SpanId,
    ) -> FlowId {
        if !self.enabled {
            return FlowId::NONE;
        }
        let id = self.record(time, SpanEventKind::FlowBegin, comp, name, None, from, &[]);
        FlowId(id.0)
    }

    /// Records the arrival side of a flow edge at `time`, joining it into
    /// the consuming span `to`. No-op for [`FlowId::NONE`] (the edge was
    /// emitted while tracing was off, or never emitted).
    #[inline]
    pub(crate) fn flow_end(
        &mut self,
        time: Time,
        comp: ComponentId,
        name: &'static str,
        flow: FlowId,
        to: SpanId,
    ) {
        if !self.enabled || flow.is_none() {
            return;
        }
        let id = Some(SpanId(flow.0));
        self.record(time, SpanEventKind::FlowEnd, comp, name, id, to, &[]);
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
        debug_assert!(end >= start, "inverted span interval");
        let id = self.begin(start, comp, name, parent, attrs);
        self.end(end, comp, id);
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
/// [`crate::sim::Ctx`], evaluating nothing while recording is off.
///
/// ```ignore
/// let sp = trace_span!(ctx, "uc.call", parent_id, "op" = "allreduce", "len" = len);
/// ```
#[macro_export]
macro_rules! trace_span {
    ($ctx:expr, $name:expr, $parent:expr) => {
        if $ctx.spans_enabled() {
            $ctx.span_begin($name, $parent)
        } else {
            $crate::trace::SpanId::NONE
        }
    };
    ($ctx:expr, $name:expr, $parent:expr, $($key:literal = $val:expr),+ $(,)?) => {
        if $ctx.spans_enabled() {
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

/// Closes a span opened by [`trace_span!`]; nothing while recording is off.
#[macro_export]
macro_rules! trace_end {
    ($ctx:expr, $id:expr) => {
        if $ctx.spans_enabled() {
            $ctx.span_end($id);
        }
    };
}

/// Records an instant (point) event, evaluating nothing while recording is
/// off.
#[macro_export]
macro_rules! trace_instant {
    ($ctx:expr, $name:expr, $parent:expr) => {
        if $ctx.spans_enabled() {
            $ctx.span_instant($name, $parent);
        }
    };
    ($ctx:expr, $name:expr, $parent:expr, $($key:literal = $val:expr),+ $(,)?) => {
        if $ctx.spans_enabled() {
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
