//! The self-contained trace interchange model.
//!
//! A [`TraceDoc`] is everything the analyses need, detached from the live
//! simulator: component names, the span/flow event stream with its
//! attributes, and (when the run enabled metric windows) the windowed
//! counter/histogram series. It is built from a finished cluster
//! ([`TraceDoc::from_cluster`]) and round-trips losslessly through the
//! `accl-obs-trace-v1` JSON form in [`crate::json`]. All times are
//! integer picoseconds. It is the one run artifact: the Chrome/Perfetto
//! JSON is a rendering of it ([`crate::perfetto`]).

use accl_core::AcclCluster;
use accl_sim::stats::{Histogram, Stats};
use accl_sim::trace::{AttrValue, SpanEvent, SpanEventKind};

/// Schema tag written into (and required from) every serialized trace.
pub const SCHEMA: &str = "accl-obs-trace-v1";

/// What one [`ObsEvent`] records — the owned mirror of
/// [`SpanEventKind`], with single-letter codes matching the Chrome
/// `trace_event` phases used in the JSON form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsKind {
    /// Span opened (`"B"`).
    Begin,
    /// Span closed (`"E"`).
    End,
    /// Point event (`"I"`).
    Instant,
    /// Flow edge departed (`"s"`); `id` is the flow id, `parent` the
    /// producing (anchor) span.
    FlowBegin,
    /// Flow edge arrived (`"f"`); `id` is the flow id, `parent` the
    /// consuming (join) span.
    FlowEnd,
}

impl ObsKind {
    /// The single-letter code used in the JSON form.
    pub fn code(self) -> &'static str {
        match self {
            ObsKind::Begin => "B",
            ObsKind::End => "E",
            ObsKind::Instant => "I",
            ObsKind::FlowBegin => "s",
            ObsKind::FlowEnd => "f",
        }
    }

    /// Parses a single-letter code.
    pub fn from_code(code: &str) -> Option<ObsKind> {
        Some(match code {
            "B" => ObsKind::Begin,
            "E" => ObsKind::End,
            "I" => ObsKind::Instant,
            "s" => ObsKind::FlowBegin,
            "f" => ObsKind::FlowEnd,
            _ => return None,
        })
    }
}

/// An owned span attribute value: the mirror of [`AttrValue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsValue {
    /// An unsigned quantity.
    U64(u64),
    /// A label.
    Str(String),
}

/// One span or flow event, owned (no `'static` name borrows) so a parsed
/// trace is indistinguishable from a freshly captured one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Simulated time, picoseconds.
    pub time_ps: u64,
    /// What happened.
    pub kind: ObsKind,
    /// Span id (begin/end share it) or flow id (for flow events).
    pub id: u64,
    /// Causal parent span for `Begin`/`Instant`; anchor span for
    /// `FlowBegin`; join span for `FlowEnd`; zero for `End`/roots.
    pub parent: u64,
    /// Index into [`TraceDoc::components`].
    pub comp: u32,
    /// Span name (`layer.stage` convention).
    pub name: String,
    /// The span's `key = value` attributes, in recording order.
    pub attrs: Vec<(String, ObsValue)>,
}

/// Integer summary of one [`Histogram`] inside one window: enough for the
/// SLO series without shipping raw buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Observations in the window.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Median (bucket floor, 0 when empty).
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistSummary {
    /// Summarizes a live histogram.
    pub fn of(h: &Histogram) -> HistSummary {
        HistSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            p50: h.percentile_permille(500).unwrap_or(0),
            p99: h.percentile_permille(990).unwrap_or(0),
            p999: h.percentile_permille(999).unwrap_or(0),
        }
    }
}

/// One fixed-width sim-time window of metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowRow {
    /// Window index (`start = idx * width_ps`).
    pub idx: u64,
    /// Counter deltas accumulated inside the window, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// Last gauge value written inside the window, sorted by key.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries of observations inside the window, sorted by key.
    pub hists: Vec<(String, HistSummary)>,
}

/// The full windowed series of a run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowSeries {
    /// Window width, picoseconds.
    pub width_ps: u64,
    /// Populated windows in index order (empty windows are absent).
    pub rows: Vec<WindowRow>,
}

impl WindowSeries {
    /// Extracts the series from a run's merged [`Stats`]. Returns `None`
    /// when windowing was never enabled.
    pub fn from_stats(stats: &Stats) -> Option<WindowSeries> {
        let width_ps = stats.window_width()?.as_ps();
        let rows = stats
            .windows()
            .map(|(idx, w)| WindowRow {
                idx,
                counters: w.counters().map(|(k, v)| (k.to_string(), v)).collect(),
                gauges: w.gauges().map(|(k, v)| (k.to_string(), v)).collect(),
                hists: w
                    .histograms()
                    .map(|(k, h)| (k.to_string(), HistSummary::of(h)))
                    .collect(),
            })
            .collect();
        Some(WindowSeries { width_ps, rows })
    }
}

/// A complete, self-contained trace snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceDoc {
    /// Workload label (`allreduce8`, `dlrm`, …).
    pub workload: String,
    /// Simulation seed the run used.
    pub seed: u64,
    /// Component names, indexed by [`ObsEvent::comp`].
    pub components: Vec<String>,
    /// The span/flow event stream, in ring order.
    pub events: Vec<ObsEvent>,
    /// Windowed metric series, when the run enabled windows.
    pub windows: Option<WindowSeries>,
}

impl TraceDoc {
    /// Snapshots a finished cluster's span ring, component table and
    /// metric windows. Panics if span events were dropped by the ring
    /// bound — an analysis over a truncated causal graph would silently
    /// misattribute, so captures must size the ring for the workload.
    ///
    /// `_workers` is ignored: the simulator runs one sequential event
    /// loop. The parameter is kept only for the `perfbench` benchmark,
    /// which still passes a worker count.
    pub fn from_cluster(
        cluster: &AcclCluster,
        workload: &str,
        seed: u64,
        _workers: usize,
    ) -> TraceDoc {
        assert_eq!(
            cluster.sim.spans_dropped(),
            0,
            "span ring overflowed; raise the capture capacity"
        );
        let components: Vec<String> = (0..cluster.sim.component_count())
            .map(|i| {
                cluster
                    .sim
                    .name(accl_sim::event::ComponentId::from_index(i))
                    .to_string()
            })
            .collect();
        let events = cluster
            .sim
            .span_events()
            .iter()
            .map(|e| ObsEvent {
                time_ps: e.time.as_ps(),
                kind: kind_of(e),
                id: e.id.0,
                parent: e.parent.0,
                comp: e.comp.index() as u32,
                name: e.name.to_string(),
                attrs: e
                    .attrs
                    .iter()
                    .map(|a| {
                        let value = match a.value {
                            AttrValue::U64(v) => ObsValue::U64(v),
                            AttrValue::Str(s) => ObsValue::Str(s.to_string()),
                        };
                        (a.key.to_string(), value)
                    })
                    .collect(),
            })
            .collect();
        TraceDoc {
            workload: workload.to_string(),
            seed,
            components,
            events,
            windows: WindowSeries::from_stats(cluster.sim.stats()),
        }
    }

    /// Component name for an event's `comp` index.
    pub fn comp_name(&self, comp: u32) -> &str {
        self.components
            .get(comp as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// The rank a component belongs to, from the `n<rank>.…` naming
    /// convention; `None` for harness components.
    pub fn rank_of(&self, comp: u32) -> Option<u32> {
        rank_of_name(self.comp_name(comp))
    }

    /// The component's kind with the rank prefix stripped: `n3.poe.tx`
    /// becomes `poe.tx`; harness names pass through unchanged.
    pub fn comp_kind(&self, comp: u32) -> &str {
        let name = self.comp_name(comp);
        match rank_of_name(name) {
            Some(_) => name.split_once('.').map(|(_, rest)| rest).unwrap_or(name),
            None => name,
        }
    }
}

/// Parses the rank out of an `n<rank>.…` component name.
pub fn rank_of_name(name: &str) -> Option<u32> {
    let rest = name.strip_prefix('n')?;
    let digits = rest.split('.').next()?;
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

fn kind_of(e: &SpanEvent) -> ObsKind {
    match e.kind {
        SpanEventKind::Begin => ObsKind::Begin,
        SpanEventKind::End => ObsKind::End,
        SpanEventKind::Instant => ObsKind::Instant,
        SpanEventKind::FlowBegin => ObsKind::FlowBegin,
        SpanEventKind::FlowEnd => ObsKind::FlowEnd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_parsing_follows_component_naming() {
        assert_eq!(rank_of_name("n3.poe.tx"), Some(3));
        assert_eq!(rank_of_name("n12.driver"), Some(12));
        assert_eq!(rank_of_name("n3.net.port"), Some(3));
        assert_eq!(rank_of_name("switch"), None);
        assert_eq!(rank_of_name("net.harness"), None);
        assert_eq!(rank_of_name("n"), None);
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in [
            ObsKind::Begin,
            ObsKind::End,
            ObsKind::Instant,
            ObsKind::FlowBegin,
            ObsKind::FlowEnd,
        ] {
            assert_eq!(ObsKind::from_code(k.code()), Some(k));
        }
        assert_eq!(ObsKind::from_code("X"), None);
    }
}
