//! The sim-time race detector.
//!
//! The simulator's bit-replay contract defines the order of same-timestamp
//! events as scheduling (`seq`) order. That rule makes every run
//! reproducible — but it can *mask* logical races: two handlers that fire
//! at the same simulated instant and do not commute will still replay
//! bit-identically, right up until an innocent refactor reorders their
//! scheduling and the golden digests silently move. This module makes such
//! latent races visible, in the spirit of happens-before race detectors
//! (ThreadSanitizer) transplanted to discrete-event simulated time:
//!
//! 1. **Tie-set recording** ([`TieRecorder`], enabled via
//!    `Simulator::enable_tie_recording`): the kernel groups deliveries that
//!    share a timestamp into *tie-sets* and canonicalizes each set by
//!    sorting its `(component, port, payload type)` records — an
//!    order-insensitive view of "what happened at t".
//! 2. **Shadow execution** ([`shadow_check`]): the same simulation is
//!    re-executed with a seeded *channel permutation* of the tie order
//!    (`Simulator::permute_tie_order`) — cross-timestamp order untouched,
//!    each (source → destination) channel's FIFO order untouched, but the
//!    interleaving of distinct channels within a timestamp shuffled. Same-
//!    channel order is program order (a happens-before edge, like a FIFO
//!    stream's byte order); cross-channel tie order is exactly the thing
//!    no handler may depend on. If all tied handlers commute, the
//!    canonical trace and every [`crate::sim::Component::state_digest`]
//!    must come out identical; the first divergence names the exact
//!    `(time, component, event type)` whose handlers raced.
//!
//! Both halves are runtime switches on an ordinary build. Off, they cost
//! the kernel no key space and no per-event work: the channel rank rides in
//! the high bits of the event key's existing order word only while a salt
//! is set, and tie recording shares the out-of-line delivery-observer
//! branch with the timeline digest.

use crate::digest::{fnv1a, FNV_OFFSET};
use crate::event::{ComponentId, Endpoint};
use crate::sim::{RunOutcome, Simulator};
use crate::time::Time;

/// One canonicalized delivery record: `(component, port, payload type)`.
pub type CanonRec = (u32, u16, &'static str);

/// A tie-normalized trace: per distinct timestamp, the sorted set of
/// deliveries that executed at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonTrace {
    /// `(time, sorted deliveries at that time)`, in time order.
    pub sets: Vec<(Time, Vec<CanonRec>)>,
}

impl CanonTrace {
    /// Order-sensitive digest across tie-sets (order-insensitive within
    /// each): the "golden digest" two shadow runs must reproduce.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (t, recs) in &self.sets {
            fnv1a(&mut h, &t.as_ps().to_le_bytes());
            for (comp, port, ty) in recs {
                fnv1a(&mut h, &comp.to_le_bytes());
                fnv1a(&mut h, &port.to_le_bytes());
                fnv1a(&mut h, ty.as_bytes());
            }
        }
        h
    }
}

/// Groups deliveries into tie-sets as the kernel executes. Owned by the
/// simulator; see `Simulator::enable_tie_recording`.
#[derive(Debug, Default)]
pub struct TieRecorder {
    done: Vec<(Time, Vec<CanonRec>)>,
    cur_time: Option<Time>,
    cur: Vec<CanonRec>,
}

impl TieRecorder {
    /// Records one delivery. Deliveries must arrive in non-decreasing time
    /// order (the kernel's execution order).
    pub(crate) fn record(&mut self, time: Time, dst: Endpoint, type_name: &'static str) {
        if self.cur_time != Some(time) {
            self.flush();
            self.cur_time = Some(time);
        }
        self.cur
            .push((dst.comp.index() as u32, dst.port.0, type_name));
    }

    fn flush(&mut self) {
        if let Some(t) = self.cur_time.take() {
            let mut set = core::mem::take(&mut self.cur);
            set.sort_unstable();
            self.done.push((t, set));
        }
    }

    /// The canonical trace recorded so far (cheap clone of the record
    /// vectors; intended for end-of-run comparison).
    pub(crate) fn canonical(&self) -> CanonTrace {
        let mut sets = self.done.clone();
        if let Some(t) = self.cur_time {
            let mut set = self.cur.clone();
            set.sort_unstable();
            sets.push((t, set));
        }
        CanonTrace { sets }
    }
}

/// Diagnosis of a sim-time race: the `(time, component, event type)` whose
/// same-timestamp handlers do not commute.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Timestamp of the tie-set where the runs diverged.
    pub time: Time,
    /// Component whose delivery record (or final state) diverged.
    pub comp: ComponentId,
    /// Registration name of that component.
    pub component: String,
    /// Payload type of the diverging delivery (or of the tied deliveries,
    /// for a state divergence).
    pub payload_type: String,
    /// Tie-order salt of the shadow run that exposed the race.
    pub salt: u64,
    /// What diverged: the canonical trace or a final state digest.
    pub detail: String,
    /// The last few spans recorded by the implicated component in the
    /// baseline run (empty if it recorded none) — the causal history
    /// leading into the racing tie-set, not just delivery lines.
    pub recent_spans: Vec<String>,
}

impl core::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "sim-time race at {}: handlers of {} for [{}] do not commute under tie permutation \
             (salt {}): {}",
            self.time, self.component, self.payload_type, self.salt, self.detail
        )?;
        for line in &self.recent_spans {
            write!(f, "\n    span: {line}")?;
        }
        Ok(())
    }
}

/// Outcome of a clean [`shadow_check`]: the golden digest every permuted
/// run reproduced, plus how many tie-sets actually exercised a permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowOutcome {
    /// Digest of the tie-normalized canonical trace.
    pub golden_digest: u64,
    /// Tie-sets with more than one event (the ones a permutation can
    /// reorder). Zero means the check was vacuous.
    pub contended_ties: usize,
}

/// Runs `build` once under the FIFO tie rule (baseline) and once per salt
/// with a permuted tie order, then diffs the tie-normalized traces and the
/// per-component state digests.
///
/// `build` receives a fresh [`Simulator`] (already recording, with the
/// shadow permutation armed) and must register components and post the
/// initial events; `shadow_check` then drives each run to completion with
/// `Simulator::run`.
///
/// Returns the golden [`ShadowOutcome`] when every shadow run commutes, or
/// the first [`RaceReport`] naming the diverging
/// `(time, component, event type)`.
pub fn shadow_check<F>(seed: u64, salts: &[u64], build: F) -> Result<ShadowOutcome, RaceReport>
where
    F: Fn(&mut Simulator),
{
    let run = |salt: Option<u64>| -> (Simulator, CanonTrace, RunOutcome) {
        let mut sim = Simulator::new(seed);
        sim.enable_tie_recording();
        // Record spans too, so a diverging run's RaceReport can show the
        // causal history of the racing component, not just its delivery
        // lines.
        sim.enable_spans(1 << 16);
        if let Some(s) = salt {
            sim.permute_tie_order(s);
        }
        build(&mut sim);
        let outcome = sim.run();
        let trace = sim.tie_trace().expect("tie recording enabled");
        (sim, trace, outcome)
    };

    let (base_sim, base_trace, base_outcome) = run(None);
    let base_digests = base_sim.state_digests();
    for &salt in salts {
        let (sim, trace, outcome) = run(Some(salt));
        if let Some(report) = diff_traces(&base_sim, &base_trace, &trace, salt) {
            return Err(report);
        }
        if outcome != base_outcome {
            return Err(RaceReport {
                time: sim.now(),
                comp: ComponentId(0),
                component: "<run outcome>".into(),
                payload_type: format!("{base_outcome:?} vs {outcome:?}"),
                salt,
                detail: "permuted tie order changed how the run terminated".into(),
                recent_spans: Vec::new(),
            });
        }
        let digests = sim.state_digests();
        if let Some(report) = diff_digests(&base_sim, &base_trace, &base_digests, &digests, salt) {
            return Err(report);
        }
    }
    let contended_ties = base_trace.sets.iter().filter(|(_, s)| s.len() > 1).count();
    Ok(ShadowOutcome {
        golden_digest: base_trace.digest(),
        contended_ties,
    })
}

/// First divergence between two canonical traces, if any.
fn diff_traces(
    base_sim: &Simulator,
    base: &CanonTrace,
    shadow: &CanonTrace,
    salt: u64,
) -> Option<RaceReport> {
    let n = base.sets.len().min(shadow.sets.len());
    for i in 0..n {
        let (bt, bset) = &base.sets[i];
        let (st, sset) = &shadow.sets[i];
        if bt != st {
            // A whole tie-set moved in time: attribute to its first record.
            let &(comp, _, ty) = bset.first().or(sset.first())?;
            return Some(report_at(
                base_sim,
                *bt.min(st),
                comp,
                ty,
                salt,
                format!("tie-set #{i} executed at {bt} in the baseline but {st} in the shadow run"),
            ));
        }
        if bset != sset {
            // Same instant, different deliveries: name the first differing
            // record.
            let m = bset.len().min(sset.len());
            let idx = (0..m).find(|&j| bset[j] != sset[j]).unwrap_or(m);
            let &(comp, _, ty) = bset.get(idx).or(sset.get(idx))?;
            return Some(report_at(
                base_sim,
                *bt,
                comp,
                ty,
                salt,
                format!("deliveries at {bt} differ between baseline and shadow run (record {idx})"),
            ));
        }
    }
    if base.sets.len() != shadow.sets.len() {
        let (t, set) = base
            .sets
            .get(n)
            .or(shadow.sets.get(n))
            .expect("length mismatch implies an extra set");
        let &(comp, _, ty) = set.first()?;
        return Some(report_at(
            base_sim,
            *t,
            comp,
            ty,
            salt,
            format!(
                "run lengths differ: {} tie-sets vs {}",
                base.sets.len(),
                shadow.sets.len()
            ),
        ));
    }
    None
}

/// First per-component state divergence, attributed to the last contended
/// tie-set that delivered to the diverging component.
fn diff_digests(
    base_sim: &Simulator,
    base_trace: &CanonTrace,
    base: &[(ComponentId, u64)],
    shadow: &[(ComponentId, u64)],
    salt: u64,
) -> Option<RaceReport> {
    for ((bc, bd), (_, sd)) in base.iter().zip(shadow) {
        if bd != sd {
            // The trace matched, so the divergence came from handler
            // ordering inside a contended tie-set addressed to this
            // component; name the last such set.
            let hit = base_trace.sets.iter().rev().find_map(|(t, set)| {
                if set.len() < 2 {
                    return None;
                }
                set.iter()
                    .find(|&&(c, _, _)| c == bc.index() as u32)
                    .map(|&(c, _, ty)| (*t, c, ty))
            });
            let (time, comp, ty) = hit.unwrap_or((Time::ZERO, bc.index() as u32, "<unknown>"));
            return Some(report_at(
                base_sim,
                time,
                comp,
                ty,
                salt,
                format!("final state digest diverged: {bd:#018x} vs {sd:#018x}"),
            ));
        }
    }
    None
}

fn report_at(
    sim: &Simulator,
    time: Time,
    comp: u32,
    payload_type: &str,
    salt: u64,
    detail: String,
) -> RaceReport {
    let comp = ComponentId(comp);
    RaceReport {
        time,
        comp,
        component: sim.name(comp).to_string(),
        payload_type: payload_type.to_string(),
        salt,
        detail,
        recent_spans: sim.span_tail(comp, 8),
    }
}
