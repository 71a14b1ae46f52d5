//! MTTR / recovery-span attribution.
//!
//! Walks a trace of a self-healing run (crash → suspect → confirm →
//! survivor reissue → rejoin) and pins each recovery milestone to the
//! span stream:
//!
//!  - **first suspect** — the earliest `uc.suspect` instant: the adaptive
//!    detector's suspect-level deadline fired but the peer was given a
//!    confirm-level grace period.
//!  - **failure confirmed** — the earliest `uc.abort` instant: a
//!    confirm-level deadline expired and a collective was aborted with a
//!    typed verdict.
//!  - **last confirmation** — the latest `uc.abort`: retries and the
//!    other survivors finish diagnosing; recovery can begin.
//!  - **service restored** — the end of the first root collective
//!    (`driver.coll`) that *starts* after the last confirmation and
//!    completes: the shrunk survivor group is doing useful work again.
//!    `suspect → restored` is the MTTR the paper-style availability
//!    argument cares about.
//!  - **full strength** — the final round: the begin/end envelope of the
//!    last completed root collective on every rank, i.e. the re-expanded
//!    world (the rejoined node included) finishing a collective.
//!
//! All arithmetic is integer picoseconds on span timestamps, so the table
//! is bit-identical across hosts and reruns — CI can diff it like
//! any other artifact. Availability is summarized from the
//! same windowed counters the SLO series renders: a window is *degraded*
//! when `driver.calls_failed` ticked inside it.

use crate::model::{ObsKind, TraceDoc, WindowRow, WindowSeries};

/// One completed root collective span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Root {
    begin_ps: u64,
    end_ps: u64,
    comp: u32,
}

/// The recovery milestones extracted from one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryTimeline {
    /// Earliest `uc.suspect` instant (falls back to the first abort when
    /// the run had no suspect-level firing, e.g. a fixed watchdog).
    pub suspected_ps: u64,
    /// Earliest `uc.abort` instant.
    pub confirmed_ps: u64,
    /// Latest `uc.abort` instant.
    pub last_confirm_ps: u64,
    /// End of the first root collective that began after the last
    /// confirmation and completed.
    pub restored_ps: u64,
    /// Begin of the final (full-strength) collective round.
    pub rejoin_begin_ps: u64,
    /// End of the final collective round across every rank.
    pub full_strength_ps: u64,
}

impl RecoveryTimeline {
    /// Mean-time-to-repair: first suspicion until the survivors complete
    /// a collective again.
    pub fn mttr_ps(&self) -> u64 {
        self.restored_ps.saturating_sub(self.suspected_ps)
    }

    /// First suspicion until the re-expanded world completes a
    /// collective.
    pub fn full_recovery_ps(&self) -> u64 {
        self.full_strength_ps.saturating_sub(self.suspected_ps)
    }

    /// Renders the milestone table with per-phase deltas.
    pub fn table(&self, header: &str) -> String {
        let rows = [
            ("first suspect", self.suspected_ps),
            ("failure confirmed", self.confirmed_ps),
            ("last confirmation", self.last_confirm_ps),
            ("service restored (survivors)", self.restored_ps),
            ("rejoined round begins", self.rejoin_begin_ps),
            ("full strength restored", self.full_strength_ps),
        ];
        let mut out = format!(
            "{header}\n  {:<30} {:>16} {:>16}\n",
            "milestone", "t_ps", "+delta_ps"
        );
        let mut prev: Option<u64> = None;
        for (label, t) in rows {
            let delta = match prev {
                Some(p) => format!("{}", t.saturating_sub(p)),
                None => "-".to_string(),
            };
            out.push_str(&format!("  {label:<30} {t:>16} {delta:>16}\n"));
            prev = Some(t);
        }
        out.push_str(&format!(
            "  MTTR (suspect -> service restored): {} ps\n",
            self.mttr_ps()
        ));
        out.push_str(&format!(
            "  full recovery (suspect -> full strength): {} ps\n",
            self.full_recovery_ps()
        ));
        out
    }
}

/// All completed root `driver.coll` spans, in begin order.
fn completed_roots(doc: &TraceDoc) -> Vec<Root> {
    let mut begins: Vec<(u64, u64, u32)> = Vec::new(); // (id, begin, comp)
    let mut roots = Vec::new();
    for e in &doc.events {
        match e.kind {
            ObsKind::Begin if e.name == "driver.coll" && e.parent == 0 => {
                begins.push((e.id, e.time_ps, e.comp));
            }
            ObsKind::End => {
                if let Some(pos) = begins.iter().position(|&(id, _, _)| id == e.id) {
                    let (_, begin_ps, comp) = begins.swap_remove(pos);
                    roots.push(Root {
                        begin_ps,
                        end_ps: e.time_ps,
                        comp,
                    });
                }
            }
            _ => {}
        }
    }
    roots.sort_by_key(|r| (r.begin_ps, r.comp));
    roots
}

/// Extracts the recovery timeline, or `None` when the trace holds no
/// failure (no `uc.abort` instant) or no post-recovery collective.
pub fn analyze(doc: &TraceDoc) -> Option<RecoveryTimeline> {
    let mut suspects = Vec::new();
    let mut aborts = Vec::new();
    for e in &doc.events {
        if e.kind == ObsKind::Instant {
            match e.name.as_str() {
                "uc.suspect" => suspects.push(e.time_ps),
                "uc.abort" => aborts.push(e.time_ps),
                _ => {}
            }
        }
    }
    let confirmed_ps = *aborts.iter().min()?;
    let last_confirm_ps = *aborts.iter().max()?;
    let suspected_ps = suspects
        .iter()
        .min()
        .copied()
        .unwrap_or(confirmed_ps)
        .min(confirmed_ps);

    let roots = completed_roots(doc);
    let restored_ps = roots
        .iter()
        .filter(|r| r.begin_ps > last_confirm_ps)
        .map(|r| r.end_ps)
        .min()?;

    // The final round: every rank's *last* completed root collective.
    // After a successful rejoin that round spans the full world, the
    // restarted rank included.
    let mut last_per_comp: Vec<(u32, Root)> = Vec::new();
    for r in &roots {
        match last_per_comp.iter_mut().find(|(c, _)| *c == r.comp) {
            Some((_, best)) => {
                if (r.end_ps, r.begin_ps) > (best.end_ps, best.begin_ps) {
                    *best = *r;
                }
            }
            None => last_per_comp.push((r.comp, *r)),
        }
    }
    let rejoin_begin_ps = last_per_comp.iter().map(|(_, r)| r.begin_ps).min()?;
    let full_strength_ps = last_per_comp.iter().map(|(_, r)| r.end_ps).max()?;

    Some(RecoveryTimeline {
        suspected_ps,
        confirmed_ps,
        last_confirm_ps,
        restored_ps,
        rejoin_begin_ps,
        full_strength_ps,
    })
}

/// Integer availability of one metric window, in milli (0–1000): the
/// share of root collective completions inside the window that were not
/// failures. A window with no completions counts as fully available —
/// quiet is not an outage.
pub fn window_availability_milli(row: &WindowRow) -> u64 {
    let get = |key: &str| {
        row.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let calls: u64 = get("driver.calls");
    let failed: u64 = get("driver.calls_failed");
    if calls == 0 {
        return 1000;
    }
    calls.saturating_sub(failed) * 1000 / calls
}

/// Whole-run availability summary over the windowed series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvailabilitySummary {
    /// Populated windows in the series.
    pub windows: u64,
    /// Windows in which at least one collective failed.
    pub degraded_windows: u64,
    /// Root collective completions across the run.
    pub calls: u64,
    /// Failed completions across the run.
    pub failed: u64,
}

impl AvailabilitySummary {
    /// Overall availability in milli (0–1000).
    pub fn availability_milli(&self) -> u64 {
        if self.calls == 0 {
            return 1000;
        }
        self.calls.saturating_sub(self.failed) * 1000 / self.calls
    }
}

/// Summarizes availability over a run's windowed counters.
pub fn availability(w: &WindowSeries) -> AvailabilitySummary {
    let mut s = AvailabilitySummary {
        windows: w.rows.len() as u64,
        degraded_windows: 0,
        calls: 0,
        failed: 0,
    };
    for row in &w.rows {
        let get = |key: &str| {
            row.counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        let calls = get("driver.calls");
        let failed = get("driver.calls_failed");
        s.calls += calls;
        s.failed += failed;
        if failed > 0 {
            s.degraded_windows += 1;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ObsEvent;

    fn ev(time_ps: u64, kind: ObsKind, id: u64, comp: u32, name: &str) -> ObsEvent {
        ObsEvent {
            time_ps,
            kind,
            id,
            parent: 0,
            comp,
            name: name.to_string(),
            attrs: vec![],
        }
    }

    /// Two ranks fail a collective (suspect at 10, aborts at 20/22), the
    /// survivor reissue completes at 40, and the full-strength round on
    /// both ranks completes at 60.
    fn doc() -> TraceDoc {
        TraceDoc {
            events: vec![
                ev(1, ObsKind::Begin, 1, 0, "driver.coll"),
                ev(1, ObsKind::Begin, 2, 1, "driver.coll"),
                ev(10, ObsKind::Instant, 3, 0, "uc.suspect"),
                ev(20, ObsKind::Instant, 4, 0, "uc.abort"),
                ev(22, ObsKind::Instant, 5, 1, "uc.abort"),
                ev(23, ObsKind::End, 1, 0, "driver.coll"),
                ev(23, ObsKind::End, 2, 1, "driver.coll"),
                // Survivor reissue on rank 0 only.
                ev(30, ObsKind::Begin, 6, 0, "driver.coll"),
                ev(40, ObsKind::End, 6, 0, "driver.coll"),
                // Full-strength round on both ranks.
                ev(50, ObsKind::Begin, 7, 0, "driver.coll"),
                ev(51, ObsKind::Begin, 8, 1, "driver.coll"),
                ev(59, ObsKind::End, 7, 0, "driver.coll"),
                ev(60, ObsKind::End, 8, 1, "driver.coll"),
            ],
            ..TraceDoc::default()
        }
    }

    #[test]
    fn milestones_are_pinned_to_the_span_stream() {
        let t = analyze(&doc()).expect("timeline present");
        assert_eq!(t.suspected_ps, 10);
        assert_eq!(t.confirmed_ps, 20);
        assert_eq!(t.last_confirm_ps, 22);
        assert_eq!(t.restored_ps, 40);
        assert_eq!(t.rejoin_begin_ps, 50);
        assert_eq!(t.full_strength_ps, 60);
        assert_eq!(t.mttr_ps(), 30);
        assert_eq!(t.full_recovery_ps(), 50);
        let table = t.table("recovery timeline");
        assert!(table.contains("service restored"));
        assert!(table.contains("MTTR (suspect -> service restored): 30 ps"));
    }

    #[test]
    fn a_clean_trace_has_no_timeline() {
        let mut d = doc();
        d.events.retain(|e| e.name != "uc.abort");
        assert_eq!(analyze(&d), None);
    }

    #[test]
    fn suspect_falls_back_to_the_first_abort() {
        let mut d = doc();
        d.events.retain(|e| e.name != "uc.suspect");
        let t = analyze(&d).expect("timeline present");
        assert_eq!(t.suspected_ps, 20);
    }

    #[test]
    fn window_availability_is_integer_milli() {
        let row = WindowRow {
            idx: 0,
            counters: vec![
                ("driver.calls".to_string(), 4),
                ("driver.calls_failed".to_string(), 1),
            ],
            gauges: vec![],
            hists: vec![],
        };
        assert_eq!(window_availability_milli(&row), 750);
        let idle = WindowRow::default();
        assert_eq!(window_availability_milli(&idle), 1000);
    }

    #[test]
    fn availability_summary_counts_degraded_windows() {
        let w = WindowSeries {
            width_ps: 100,
            rows: vec![
                WindowRow {
                    idx: 0,
                    counters: vec![
                        ("driver.calls".to_string(), 2),
                        ("driver.calls_failed".to_string(), 2),
                    ],
                    gauges: vec![],
                    hists: vec![],
                },
                WindowRow {
                    idx: 5,
                    counters: vec![("driver.calls".to_string(), 2)],
                    gauges: vec![],
                    hists: vec![],
                },
            ],
        };
        let s = availability(&w);
        assert_eq!(s.windows, 2);
        assert_eq!(s.degraded_windows, 1);
        assert_eq!(s.calls, 4);
        assert_eq!(s.failed, 2);
        assert_eq!(s.availability_milli(), 500);
    }
}
