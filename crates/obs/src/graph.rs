//! The span DAG: parent-child tree edges plus cross-component flow edges.
//!
//! Built once from a [`TraceDoc`]'s event stream and shared by the
//! critical-path walk and the diff. Everything is keyed by the
//! deterministic span ids, so two graphs built from bit-identical runs
//! are structurally identical.

use std::collections::BTreeMap;

use crate::model::{ObsKind, TraceDoc};

/// Static facts about one span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInfo {
    /// Begin time, picoseconds.
    pub begin_ps: u64,
    /// End time, when the ring holds the matching `End`.
    pub end_ps: Option<u64>,
    /// Parent span id (zero for roots).
    pub parent: u64,
    /// Component index in the source [`TraceDoc`].
    pub comp: u32,
    /// Span name.
    pub name: String,
}

/// The assembled DAG.
#[derive(Debug, Default)]
pub struct SpanGraph {
    /// Every span with a recorded `Begin`, by id.
    pub spans: BTreeMap<u64, SpanInfo>,
    /// Tree edges: parent id → child ids (ascending).
    pub children: BTreeMap<u64, Vec<u64>>,
    /// Flow edges, join side: consuming span id → producing (anchor)
    /// span ids. Only flows whose begin AND end both survived in the
    /// ring become edges.
    pub joins: BTreeMap<u64, Vec<u64>>,
    /// Flow begins that never joined (emitted edge with no receive side);
    /// `(flow id, anchor span)`. Nonempty sets indicate lost frames or a
    /// missing `flow_end` call — surfaced, never silently dropped.
    pub dangling_flows: Vec<(u64, u64)>,
}

impl SpanGraph {
    /// Builds the DAG from a trace document.
    pub fn build(doc: &TraceDoc) -> SpanGraph {
        let mut g = SpanGraph::default();
        let mut flow_begin: BTreeMap<u64, u64> = BTreeMap::new(); // flow id -> anchor span
        let mut flow_end: BTreeMap<u64, u64> = BTreeMap::new(); // flow id -> join span
        for e in &doc.events {
            match e.kind {
                ObsKind::Begin => {
                    g.spans.insert(
                        e.id,
                        SpanInfo {
                            begin_ps: e.time_ps,
                            end_ps: None,
                            parent: e.parent,
                            comp: e.comp,
                            name: e.name.clone(),
                        },
                    );
                    if e.parent != 0 {
                        g.children.entry(e.parent).or_default().push(e.id);
                    }
                }
                ObsKind::End => {
                    if let Some(info) = g.spans.get_mut(&e.id) {
                        info.end_ps = Some(e.time_ps);
                    }
                }
                ObsKind::Instant => {}
                ObsKind::FlowBegin => {
                    flow_begin.insert(e.id, e.parent);
                }
                ObsKind::FlowEnd => {
                    flow_end.insert(e.id, e.parent);
                }
            }
        }
        for (flow, anchor) in &flow_begin {
            match flow_end.get(flow) {
                Some(&join) if join != 0 && *anchor != 0 => {
                    g.joins.entry(join).or_default().push(*anchor);
                }
                _ => g.dangling_flows.push((*flow, *anchor)),
            }
        }
        for kids in g.children.values_mut() {
            kids.sort_unstable();
        }
        for anchors in g.joins.values_mut() {
            anchors.sort_unstable();
        }
        g
    }

    /// Root spans — parentless, with both begin and end recorded — whose
    /// name passes `filter`, ordered by `(begin, id)`.
    pub fn roots(&self, filter: impl Fn(&str) -> bool) -> Vec<u64> {
        let mut roots: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|(_, s)| s.parent == 0 && s.end_ps.is_some() && filter(&s.name))
            .map(|(&id, s)| (s.begin_ps, id))
            .collect();
        roots.sort_unstable();
        roots.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ObsEvent;

    fn ev(time_ps: u64, kind: ObsKind, id: u64, parent: u64, name: &str) -> ObsEvent {
        ObsEvent {
            time_ps,
            kind,
            id,
            parent,
            comp: 0,
            name: name.to_string(),
            attrs: vec![],
        }
    }

    #[test]
    fn builds_tree_and_flow_edges() {
        use ObsKind::{Begin, End, FlowBegin, FlowEnd};
        let doc = TraceDoc {
            events: vec![
                ev(0, Begin, 1, 0, "driver.coll"),
                ev(5, Begin, 2, 1, "net.wire"),
                ev(9, FlowBegin, 100, 2, "poe.flow"),
                ev(10, Begin, 3, 1, "rx.chunk"),
                ev(10, FlowEnd, 100, 3, "poe.flow"),
                ev(12, FlowBegin, 101, 2, "poe.flow"), // dangling: no end
                ev(20, End, 2, 0, ""),
                ev(25, End, 3, 0, ""),
                ev(30, End, 1, 0, ""),
            ],
            ..TraceDoc::default()
        };
        let g = SpanGraph::build(&doc);
        assert_eq!(g.children.get(&1), Some(&vec![2, 3]));
        assert_eq!(g.joins.get(&3), Some(&vec![2]));
        assert_eq!(g.dangling_flows, vec![(101, 2)]);
        assert_eq!(g.roots(|n| n == "driver.coll"), vec![1]);
        assert_eq!(g.roots(|_| true), vec![1]);
    }

    #[test]
    fn unclosed_roots_are_not_roots() {
        use ObsKind::Begin;
        let doc = TraceDoc {
            events: vec![ev(0, Begin, 1, 0, "driver.coll")],
            ..TraceDoc::default()
        };
        let g = SpanGraph::build(&doc);
        assert!(g.roots(|_| true).is_empty());
    }
}
