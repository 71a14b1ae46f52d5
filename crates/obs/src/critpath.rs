//! Exact causal critical paths and integer-exact latency attribution.
//!
//! The walk answers "what chain of work determined this collective's
//! end-to-end time?" by moving a time cursor backward from the root
//! span's end. At every step the span currently holding the cursor is
//! charged for the interval back to the *reach* of its latest-reaching
//! unvisited dependency (tree child or flow anchor), and the walk
//! descends into that dependency; when none remains, the span is charged
//! back to its own begin and the walk pops to its predecessor on the
//! descent stack. Two rules define a dependency's reach:
//!
//! - a dependency that began before the cursor and is still running at
//!   it reaches the cursor (it is clipped there, not skipped), so a wait
//!   overlapped by its sibling's work stays on the path;
//! - a dependency reaches as far as the latest clipped end in its
//!   unvisited subtree, so a short POE segment whose queue and wire
//!   children run for microseconds hands that time to them.
//!
//! The emitted segments are contiguous and tile `[begin(root),
//! end(root)]` exactly, so the per-`(component, span type)` attribution
//! table sums to the end-to-end latency to the picosecond — asserted,
//! not rounded.
//!
//! Determinism: candidate choice is a pure max over `(reach, begin, id)`
//! of content-derived span ids, so bit-identical traces (the replay
//! contract across queue kinds) yield bit-identical
//! paths and digests.

use std::collections::BTreeSet;

use accl_sim::digest::{fnv1a, FNV_OFFSET};

use crate::graph::SpanGraph;
use crate::model::TraceDoc;

/// One interval of a critical path, charged to one span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The span on the path during this interval.
    pub span: u64,
    /// Its component index.
    pub comp: u32,
    /// Its span name.
    pub name: String,
    /// Interval start, picoseconds (inclusive).
    pub from_ps: u64,
    /// Interval end, picoseconds (exclusive).
    pub to_ps: u64,
}

/// The critical path of one root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The root span id.
    pub root: u64,
    /// Root begin, picoseconds.
    pub begin_ps: u64,
    /// Root end, picoseconds.
    pub end_ps: u64,
    /// Path segments in chronological order; contiguous, tiling
    /// `[begin_ps, end_ps]` exactly.
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// End-to-end duration of the root.
    pub fn total_ps(&self) -> u64 {
        self.end_ps - self.begin_ps
    }

    /// Sum of all segment durations (equals [`CriticalPath::total_ps`]
    /// by construction; exposed so tests can assert exactness).
    pub fn attributed_ps(&self) -> u64 {
        self.segments.iter().map(|s| s.to_ps - s.from_ps).sum()
    }
}

/// Walks the exact critical path of `root`. Returns `None` when the root
/// has no begin/end pair in the graph.
pub fn critical_path(g: &SpanGraph, root: u64) -> Option<CriticalPath> {
    let root_info = g.spans.get(&root)?;
    let t0 = root_info.begin_ps;
    let t1 = root_info.end_ps?;
    let mut segments: Vec<Segment> = Vec::new();
    let mut visited: BTreeSet<u64> = BTreeSet::new();
    visited.insert(root);
    let mut stack: Vec<u64> = vec![root];
    let mut cursor = t1;
    // Each iteration either shrinks `[t0, cursor]`, grows `visited`, or
    // shrinks the stack; the bound is a safety net, not a correctness
    // device.
    let mut fuel = 4 * g.spans.len() + 8;
    while let Some(&cur) = stack.last() {
        fuel = fuel.checked_sub(1).expect("critical-path walk diverged");
        let info = &g.spans[&cur];
        // Latest-reaching unvisited dependency that overlaps the root
        // window before the cursor.
        let mut best: Option<(u64, u64, u64)> = None; // (reach, begin, id)
        let deps = g
            .children
            .get(&cur)
            .into_iter()
            .flatten()
            .chain(g.joins.get(&cur).into_iter().flatten());
        for &dep in deps {
            if visited.contains(&dep) {
                continue;
            }
            let Some(dep_reach) = reach(g, &visited, dep, cursor) else {
                continue;
            };
            if dep_reach <= t0 {
                continue;
            }
            let key = (dep_reach, g.spans[&dep].begin_ps, dep);
            if best.is_none_or(|b| key > b) {
                best = Some(key);
            }
        }
        match best {
            Some((dep_reach, _, dep)) => {
                // `cur` is on the path from the dependency's reach up to
                // the cursor; then the dependency takes over.
                let lo = dep_reach.max(t0);
                if cursor > lo {
                    segments.push(Segment {
                        span: cur,
                        comp: info.comp,
                        name: info.name.clone(),
                        from_ps: lo,
                        to_ps: cursor,
                    });
                    cursor = lo;
                }
                visited.insert(dep);
                stack.push(dep);
            }
            None => {
                // Nothing below explains the interval: `cur` itself is
                // responsible back to its begin, then its predecessor
                // resumes.
                let lo = info.begin_ps.max(t0);
                if cursor > lo {
                    segments.push(Segment {
                        span: cur,
                        comp: info.comp,
                        name: info.name.clone(),
                        from_ps: lo,
                        to_ps: cursor,
                    });
                    cursor = lo;
                }
                stack.pop();
            }
        }
        if cursor == t0 {
            break;
        }
    }
    // The stack bottoms out at the root, whose begin is t0, so the final
    // pop (or the early break) always lands the cursor on t0.
    debug_assert_eq!(cursor, t0, "critical path did not reach the root begin");
    segments.reverse();
    Some(CriticalPath {
        root,
        begin_ps: t0,
        end_ps: t1,
        segments,
    })
}

/// Where `id` stops explaining time before `cursor`: the latest end,
/// clipped at the cursor, over `id` and its unvisited descendants. A span
/// still running at the cursor counts up to the cursor, and a short span
/// whose children outlast it (a POE segment and its wire time) reaches as
/// far as they do. `None` when `id` is unclosed or starts after the
/// cursor.
fn reach(g: &SpanGraph, visited: &BTreeSet<u64>, id: u64, cursor: u64) -> Option<u64> {
    let d = g.spans.get(&id)?;
    let end = d.end_ps?;
    if d.begin_ps >= cursor && end > cursor {
        return None;
    }
    let mut reach_ps = end.min(cursor);
    for &kid in g.children.get(&id).into_iter().flatten() {
        if reach_ps == cursor {
            break;
        }
        if !visited.contains(&kid) {
            if let Some(r) = reach(g, visited, kid, cursor) {
                reach_ps = reach_ps.max(r);
            }
        }
    }
    Some(reach_ps)
}

/// One row of the attribution table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionRow {
    /// Component kind (rank prefix stripped, e.g. `poe.tx`).
    pub comp_kind: String,
    /// Span name.
    pub name: String,
    /// Rank the component belongs to (`None` for harness components).
    pub rank: Option<u32>,
    /// Critical-path time charged, picoseconds.
    pub ps: u64,
}

/// Critical-path latency attribution over one or more roots, grouped by
/// `(component kind, span type, rank)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Rows, largest share first (ties by key for determinism).
    pub rows: Vec<AttributionRow>,
    /// Sum of all root durations, picoseconds. Equals the sum of all
    /// rows by construction.
    pub total_ps: u64,
}

impl Attribution {
    /// Sum of all rows (equals [`Attribution::total_ps`] by
    /// construction; exposed for exactness assertions).
    pub fn attributed_ps(&self) -> u64 {
        self.rows.iter().map(|r| r.ps).sum()
    }

    /// Renders an aligned human-readable table.
    pub fn table(&self, title: &str) -> String {
        let total = self.total_ps.max(1);
        let mut out = format!("{title}\n");
        out.push_str(&format!(
            "  {:<22} {:<18} {:>5} {:>14} {:>6}\n",
            "component", "span", "rank", "time(ps)", "share"
        ));
        for r in &self.rows {
            let rank = r.rank.map(|r| r.to_string()).unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "  {:<22} {:<18} {:>5} {:>14} {:>5}%\n",
                r.comp_kind,
                r.name,
                rank,
                r.ps,
                u128::from(r.ps) * 100 / u128::from(total)
            ));
        }
        out.push_str(&format!(
            "  {:<22} {:<18} {:>5} {:>14} {:>5}%\n",
            "total", "", "", self.total_ps, 100
        ));
        out
    }
}

/// Aggregates critical-path segments into the attribution table.
pub fn attribute(doc: &TraceDoc, paths: &[CriticalPath]) -> Attribution {
    use std::collections::BTreeMap;
    let mut by_key: BTreeMap<(String, String, Option<u32>), u64> = BTreeMap::new();
    let mut total = 0u64;
    for p in paths {
        total += p.total_ps();
        for s in &p.segments {
            let key = (
                doc.comp_kind(s.comp).to_string(),
                s.name.clone(),
                doc.rank_of(s.comp),
            );
            *by_key.entry(key).or_insert(0) += s.to_ps - s.from_ps;
        }
    }
    let mut rows: Vec<AttributionRow> = by_key
        .into_iter()
        .map(|((comp_kind, name, rank), ps)| AttributionRow {
            comp_kind,
            name,
            rank,
            ps,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.ps.cmp(&a.ps)
            .then_with(|| (&a.comp_kind, &a.name, a.rank).cmp(&(&b.comp_kind, &b.name, b.rank)))
    });
    Attribution {
        rows,
        total_ps: total,
    }
}

/// Order-sensitive FNV-1a digest over every segment of every path. Two
/// runs with bit-identical span streams produce equal digests; any
/// change to what is on the critical path — not merely how long the run
/// took — changes it. This is the value the CI regression gate pins.
pub fn critical_path_digest(paths: &[CriticalPath]) -> u64 {
    let mut ordered: Vec<&CriticalPath> = paths.iter().collect();
    ordered.sort_by_key(|p| (p.begin_ps, p.root));
    let mut h = FNV_OFFSET;
    for p in ordered {
        fnv1a(&mut h, &p.root.to_le_bytes());
        fnv1a(&mut h, &p.begin_ps.to_le_bytes());
        fnv1a(&mut h, &p.end_ps.to_le_bytes());
        for s in &p.segments {
            fnv1a(&mut h, &s.span.to_le_bytes());
            fnv1a(&mut h, &s.comp.to_le_bytes());
            fnv1a(&mut h, s.name.as_bytes());
            fnv1a(&mut h, &s.from_ps.to_le_bytes());
            fnv1a(&mut h, &s.to_ps.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ObsEvent, ObsKind, TraceDoc};

    fn ev(time_ps: u64, kind: ObsKind, id: u64, parent: u64, name: &str) -> ObsEvent {
        ObsEvent {
            time_ps,
            kind,
            id,
            parent,
            comp: 0,
            name: name.to_string(),
        }
    }

    fn doc(events: Vec<ObsEvent>) -> TraceDoc {
        TraceDoc {
            components: vec!["n0.test".to_string()],
            events,
            ..TraceDoc::default()
        }
    }

    #[test]
    fn path_tiles_root_window_exactly() {
        use ObsKind::{Begin, End};
        // root [0,100]; child a [10,40]; child b [30,70]. b finishes
        // last so it owns [30,70]. a is still running when the cursor
        // reaches b's begin, so it is clipped there and owns [10,30]:
        // only the head [0,10] stays with the root.
        let d = doc(vec![
            ev(0, Begin, 1, 0, "driver.coll"),
            ev(10, Begin, 2, 1, "uc.decode"),
            ev(30, Begin, 3, 1, "net.wire"),
            ev(40, End, 2, 0, ""),
            ev(70, End, 3, 0, ""),
            ev(100, End, 1, 0, ""),
        ]);
        let g = SpanGraph::build(&d);
        let p = critical_path(&g, 1).unwrap();
        assert_eq!(p.total_ps(), 100);
        assert_eq!(p.attributed_ps(), p.total_ps());
        // Chronological, contiguous.
        let mut cursor = p.begin_ps;
        for s in &p.segments {
            assert_eq!(s.from_ps, cursor);
            assert!(s.to_ps > s.from_ps);
            cursor = s.to_ps;
        }
        assert_eq!(cursor, p.end_ps);
        let names: Vec<(&str, u64, u64)> = p
            .segments
            .iter()
            .map(|s| (s.name.as_str(), s.from_ps, s.to_ps))
            .collect();
        assert_eq!(
            names,
            vec![
                ("driver.coll", 0, 10),
                ("uc.decode", 10, 30),
                ("net.wire", 30, 70),
                ("driver.coll", 70, 100),
            ]
        );
    }

    #[test]
    fn anchor_reaches_as_far_as_its_children() {
        use ObsKind::{Begin, End, FlowBegin, FlowEnd};
        // A segment [5,10] hands its frame to a queue [10,30] and the wire
        // [30,60]; the receive span [60,70] joins the segment's flow edge.
        // The segment ends long before the receive begins, but its
        // subtree reaches 60, so the queue and the wire own that time
        // instead of the receive span.
        let d = doc(vec![
            ev(0, Begin, 1, 0, "driver.coll"),
            ev(5, Begin, 2, 0, "poe.seg"),
            ev(5, FlowBegin, 100, 2, "poe.flow"),
            ev(10, End, 2, 0, ""),
            ev(10, Begin, 3, 2, "net.queue"),
            ev(30, End, 3, 0, ""),
            ev(30, Begin, 4, 2, "net.wire"),
            ev(60, End, 4, 0, ""),
            ev(60, Begin, 5, 1, "poe.rx"),
            ev(60, FlowEnd, 100, 5, "poe.flow"),
            ev(70, End, 5, 0, ""),
            ev(100, End, 1, 0, ""),
        ]);
        let g = SpanGraph::build(&d);
        let p = critical_path(&g, 1).unwrap();
        assert_eq!(p.attributed_ps(), p.total_ps());
        let names: Vec<(&str, u64, u64)> = p
            .segments
            .iter()
            .map(|s| (s.name.as_str(), s.from_ps, s.to_ps))
            .collect();
        assert_eq!(
            names,
            vec![
                ("driver.coll", 0, 5),
                ("poe.seg", 5, 10),
                ("net.queue", 10, 30),
                ("net.wire", 30, 60),
                ("poe.rx", 60, 70),
                ("driver.coll", 70, 100),
            ]
        );
    }

    #[test]
    fn flow_edges_pull_remote_work_onto_the_path() {
        use ObsKind::{Begin, End, FlowBegin, FlowEnd};
        // root [0,100] with local child rx [80,95]; a remote chain
        // tx [5,75] flows into rx. Without the flow edge the interval
        // [0,80] falls to the root; with it, tx explains [5,75].
        let d = doc(vec![
            ev(0, Begin, 1, 0, "driver.coll"),
            ev(5, Begin, 2, 0, "tx.seg"), // parentless remote producer
            ev(70, FlowBegin, 100, 2, "poe.flow"),
            ev(75, End, 2, 0, ""),
            ev(80, Begin, 3, 1, "rx.chunk"),
            ev(80, FlowEnd, 100, 3, "poe.flow"),
            ev(95, End, 3, 0, ""),
            ev(100, End, 1, 0, ""),
        ]);
        let g = SpanGraph::build(&d);
        let p = critical_path(&g, 1).unwrap();
        assert_eq!(p.attributed_ps(), 100);
        let names: Vec<(&str, u64, u64)> = p
            .segments
            .iter()
            .map(|s| (s.name.as_str(), s.from_ps, s.to_ps))
            .collect();
        assert_eq!(
            names,
            vec![
                ("driver.coll", 0, 5),
                ("tx.seg", 5, 75),
                ("rx.chunk", 75, 95),
                ("driver.coll", 95, 100),
            ]
        );
    }

    #[test]
    fn attribution_sums_to_total_and_digest_is_stable() {
        use ObsKind::{Begin, End};
        let d = doc(vec![
            ev(0, Begin, 1, 0, "driver.coll"),
            ev(10, Begin, 2, 1, "net.wire"),
            ev(60, End, 2, 0, ""),
            ev(80, End, 1, 0, ""),
        ]);
        let g = SpanGraph::build(&d);
        let p = critical_path(&g, 1).unwrap();
        let a = attribute(&d, std::slice::from_ref(&p));
        assert_eq!(a.attributed_ps(), a.total_ps);
        assert_eq!(a.total_ps, 80);
        let d1 = critical_path_digest(std::slice::from_ref(&p));
        let d2 = critical_path_digest(&[critical_path(&g, 1).unwrap()]);
        assert_eq!(d1, d2);
    }

    #[test]
    fn missing_root_yields_none() {
        let d = doc(vec![]);
        let g = SpanGraph::build(&d);
        assert!(critical_path(&g, 7).is_none());
    }
}
