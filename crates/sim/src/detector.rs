//! Adaptive phi-accrual-style failure detection, integer-only.
//!
//! The classic phi-accrual detector (Hayashibara et al.) models heartbeat
//! inter-arrival times with a normal distribution and reports a continuous
//! suspicion level `phi = -log10(P(gap > elapsed))`. Floating-point math and
//! log tables are both banned in timing paths here (the bit-replay contract
//! requires digest-identical state across runs and tie permutations), so
//! this module reformulates the detector as **deadline scheduling over
//! integer statistics**:
//!
//! - Each observed stream (a peer's acks, notifications, local DMA
//!   completions) keeps a fixed-size ring of recent inter-arrival gaps in
//!   integer picoseconds ([`GapHistory`]).
//! - From the ring we derive the integer mean `m` and mean absolute
//!   deviation `d` — both exact `Dur` arithmetic, no floats, no division
//!   beyond a single truncating integer divide.
//! - A suspicion threshold `phi` (expressed in **milli-phi**, e.g. 4000 for
//!   "4.0") maps to a wait bound `m + phi·(d + jitter_floor)/1000`: the
//!   deadline by which the next observation is due before the stream is
//!   escalated to that suspicion level.
//!
//! Two thresholds give the two-level **suspect / confirm** escalation: a
//! degraded link whose gaps stretch raises suspicion (cheap, recoverable)
//! long before the confirm deadline kills the session. Because every
//! quantity is a deterministic function of the observation sequence, the
//! detector folds into component state digests and replays bit-identically.

use std::collections::BTreeMap;

use crate::digest::fnv_fold;
use crate::time::{Dur, Time};

/// Number of inter-arrival gaps retained per stream. Small and fixed so the
/// state digest covers the exact window content deterministically.
pub const GAP_WINDOW: usize = 16;

/// Escalation level of an adaptive timeout decision.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DetectLevel {
    /// Soft suspicion: the stream is late beyond the suspect threshold.
    /// Raises counters/spans but must not abort work.
    Suspect,
    /// Hard confirmation: the stream is late beyond the confirm threshold.
    /// The caller may declare the peer failed and abort.
    Confirm,
}

/// Configuration for a [`FailureDetector`].
///
/// All thresholds are integers; `phi` values are in milli-units so "phi =
/// 8.5" is `8500` without any floating point.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DetectorCfg {
    /// Minimum gap samples before adaptive deadlines are trusted; below
    /// this the detector reports `None` and callers fall back to a fixed
    /// timeout (or the permissive `cap`).
    pub min_samples: usize,
    /// Milli-phi threshold for the suspect level (e.g. 4000 = 4.0).
    pub suspect_phi_milli: u64,
    /// Milli-phi threshold for the confirm level (e.g. 8000 = 8.0).
    pub confirm_phi_milli: u64,
    /// Additive deviation floor: protects against a run of identical gaps
    /// collapsing the deviation to zero and making the deadline brittle.
    pub jitter_floor: Dur,
    /// Lower clamp on any computed wait (avoid sub-microsecond flapping).
    pub floor: Dur,
    /// Upper clamp on any computed wait (bound detection latency even for
    /// wildly dispersed histories).
    pub cap: Dur,
}

impl Default for DetectorCfg {
    fn default() -> Self {
        DetectorCfg {
            min_samples: 4,
            suspect_phi_milli: 4_000,
            confirm_phi_milli: 8_000,
            jitter_floor: Dur::from_us(50),
            floor: Dur::from_us(100),
            cap: Dur::from_ms(100),
        }
    }
}

/// Ring of recent inter-arrival gaps for one observed stream.
#[derive(Clone, Debug, Default)]
pub struct GapHistory {
    ring: [Dur; GAP_WINDOW],
    len: usize,
    next: usize,
    last: Option<Time>,
}

impl GapHistory {
    /// A fresh, empty history.
    pub fn new() -> Self {
        GapHistory::default()
    }

    /// Records an observation at `now`. The first observation only anchors
    /// the stream; subsequent ones append `now - last` to the ring.
    /// Observations at or before `last` contribute a zero gap (same-instant
    /// ticks are legal under tie permutation).
    pub fn observe(&mut self, now: Time) {
        if let Some(last) = self.last {
            let gap = now.since(last);
            self.ring[self.next] = gap;
            self.next = (self.next + 1) % GAP_WINDOW;
            self.len = (self.len + 1).min(GAP_WINDOW);
        }
        self.last = Some(self.last.map_or(now, |l| l.max(now)));
    }

    /// Number of gap samples currently held (saturates at [`GAP_WINDOW`]).
    pub fn samples(&self) -> usize {
        self.len
    }

    /// Integer mean of the held gaps ([`Dur::ZERO`] when empty).
    pub fn mean(&self) -> Dur {
        if self.len == 0 {
            return Dur::ZERO;
        }
        let mut sum = Dur::ZERO;
        for g in &self.ring[..self.len] {
            sum += *g;
        }
        sum / self.len as u64
    }

    /// Integer mean absolute deviation of the held gaps around [`Self::mean`].
    pub fn deviation(&self) -> Dur {
        if self.len == 0 {
            return Dur::ZERO;
        }
        let m = self.mean();
        let mut sum = Dur::ZERO;
        for &g in &self.ring[..self.len] {
            sum += g.max(m) - g.min(m);
        }
        sum / self.len as u64
    }

    /// Deadline wait for a milli-phi threshold:
    /// `mean + phi_milli · (deviation + jitter_floor) / 1000`.
    pub fn wait_for(&self, phi_milli: u64, jitter_floor: Dur) -> Dur {
        self.mean() + (self.deviation() + jitter_floor) * phi_milli / 1_000
    }

    /// Clears the history (used when a peer's incarnation changes: gaps
    /// measured against the previous incarnation are meaningless).
    pub fn reset(&mut self) {
        *self = GapHistory::default();
    }

    /// Folds the exact window content into a running state digest.
    pub fn fold_digest(&self, hash: &mut u64) {
        fnv_fold(hash, &(self.len as u64).to_le_bytes());
        fnv_fold(hash, &(self.next as u64).to_le_bytes());
        for g in &self.ring[..self.len] {
            fnv_fold(hash, &g.as_ps().to_le_bytes());
        }
        fnv_fold(hash, &self.last.map_or(u64::MAX, Time::as_ps).to_le_bytes());
    }
}

/// Multi-stream adaptive failure detector: one [`GapHistory`] per peer key,
/// plus the clamped suspect/confirm deadline computation.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    cfg: DetectorCfg,
    peers: BTreeMap<u32, GapHistory>,
}

impl FailureDetector {
    /// A detector with the given thresholds and no history.
    pub fn new(cfg: DetectorCfg) -> Self {
        FailureDetector {
            cfg,
            peers: BTreeMap::new(),
        }
    }

    /// The configuration in effect.
    pub fn cfg(&self) -> &DetectorCfg {
        &self.cfg
    }

    /// Records an observation of `peer` at `now`.
    pub fn observe(&mut self, peer: u32, now: Time) {
        self.peers.entry(peer).or_default().observe(now);
    }

    /// Forgets `peer`'s history (incarnation change / rejoin).
    pub fn reset_peer(&mut self, peer: u32) {
        self.peers.remove(&peer);
    }

    /// Gap samples held for `peer`.
    pub fn samples(&self, peer: u32) -> usize {
        self.peers.get(&peer).map_or(0, GapHistory::samples)
    }

    /// Clamped adaptive wait for `peer` at `level`, or `None` when fewer
    /// than `min_samples` gaps are held (caller falls back to fixed).
    pub fn wait(&self, peer: u32, level: DetectLevel) -> Option<Dur> {
        let h = self.peers.get(&peer)?;
        if h.samples() < self.cfg.min_samples {
            return None;
        }
        let phi = match level {
            DetectLevel::Suspect => self.cfg.suspect_phi_milli,
            DetectLevel::Confirm => self.cfg.confirm_phi_milli,
        };
        Some(
            h.wait_for(phi, self.cfg.jitter_floor)
                .max(self.cfg.floor)
                .min(self.cfg.cap),
        )
    }

    /// The most pessimistic (largest) clamped wait across all peers with
    /// enough history, or `None` if no peer qualifies. Used when a call
    /// waits on several peers at once (WaitAll).
    pub fn max_wait(&self, level: DetectLevel) -> Option<Dur> {
        self.peers
            .keys()
            .filter_map(|&p| self.wait(p, level))
            .fold(None, |acc, w| Some(acc.map_or(w, |a: Dur| a.max(w))))
    }

    /// Folds detector state (peer set + exact window contents) into a
    /// running digest. BTreeMap iteration keeps the fold order canonical.
    pub fn fold_digest(&self, hash: &mut u64) {
        fnv_fold(hash, &(self.peers.len() as u64).to_le_bytes());
        for (peer, h) in &self.peers {
            fnv_fold(hash, &u64::from(*peer).to_le_bytes());
            h.fold_digest(hash);
        }
    }

    /// Standalone digest of the detector state.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0u64;
        self.fold_digest(&mut h);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(detector: &mut FailureDetector, peer: u32, gap_us: u64, n: usize) {
        let mut t = Time::ZERO;
        for _ in 0..=n {
            detector.observe(peer, t);
            t += Dur::from_us(gap_us);
        }
    }

    #[test]
    fn no_deadline_before_min_samples() {
        let mut d = FailureDetector::new(DetectorCfg::default());
        d.observe(7, Time::from_us(1));
        d.observe(7, Time::from_us(2));
        d.observe(7, Time::from_us(3));
        // 2 gaps < min_samples (4): stay on the fixed fallback.
        assert_eq!(d.wait(7, DetectLevel::Suspect), None);
        assert_eq!(d.wait(7, DetectLevel::Confirm), None);
    }

    #[test]
    fn steady_stream_deadline_tracks_mean_plus_margin() {
        let cfg = DetectorCfg {
            jitter_floor: Dur::from_us(10),
            floor: Dur::ZERO,
            ..DetectorCfg::default()
        };
        let mut d = FailureDetector::new(cfg);
        steady(&mut d, 0, 100, 8);
        // mean 100us, deviation 0: suspect = 100 + 4*(0+10) = 140us,
        // confirm = 100 + 8*10 = 180us.
        assert_eq!(d.wait(0, DetectLevel::Suspect), Some(Dur::from_us(140)));
        assert_eq!(d.wait(0, DetectLevel::Confirm), Some(Dur::from_us(180)));
    }

    #[test]
    fn dispersed_gaps_widen_the_deadline() {
        let cfg = DetectorCfg {
            jitter_floor: Dur::ZERO,
            floor: Dur::ZERO,
            ..DetectorCfg::default()
        };
        let mut d = FailureDetector::new(cfg);
        let mut t = Time::ZERO;
        // Alternate 50us / 150us gaps: mean 100us, MAD 50us.
        for i in 0..9 {
            d.observe(3, t);
            t += Dur::from_us(if i % 2 == 0 { 50 } else { 150 });
        }
        assert_eq!(d.wait(3, DetectLevel::Suspect), Some(Dur::from_us(300)));
        assert_eq!(d.wait(3, DetectLevel::Confirm), Some(Dur::from_us(500)));
    }

    #[test]
    fn clamps_apply() {
        let cfg = DetectorCfg {
            jitter_floor: Dur::ZERO,
            floor: Dur::from_us(200),
            cap: Dur::from_us(250),
            ..DetectorCfg::default()
        };
        let mut d = FailureDetector::new(cfg);
        steady(&mut d, 1, 1, 8); // tiny gaps: raw wait way below floor
        assert_eq!(d.wait(1, DetectLevel::Suspect), Some(Dur::from_us(200)));
        steady(&mut d, 2, 10_000, 8); // huge gaps: raw wait way above cap
        assert_eq!(d.wait(2, DetectLevel::Confirm), Some(Dur::from_us(250)));
        assert_eq!(d.max_wait(DetectLevel::Confirm), Some(Dur::from_us(250)));
    }

    #[test]
    fn window_slides() {
        let mut h = GapHistory::new();
        let mut t = Time::ZERO;
        // Fill the window with 1us gaps, then shift to 9us gaps.
        for _ in 0..=GAP_WINDOW {
            h.observe(t);
            t += Dur::from_us(1);
        }
        assert_eq!(h.samples(), GAP_WINDOW);
        assert_eq!(h.mean(), Dur::from_us(1));
        for _ in 0..=GAP_WINDOW {
            t += Dur::from_us(9);
            h.observe(t);
        }
        assert_eq!(h.mean(), Dur::from_us(9));
        assert_eq!(h.deviation(), Dur::ZERO);
    }

    #[test]
    fn digest_is_a_pure_function_of_observations() {
        let run = || {
            let mut d = FailureDetector::new(DetectorCfg::default());
            steady(&mut d, 0, 70, 6);
            steady(&mut d, 5, 130, 3);
            d.state_digest()
        };
        assert_eq!(run(), run());
        let mut other = FailureDetector::new(DetectorCfg::default());
        steady(&mut other, 0, 70, 6);
        assert_ne!(run(), other.state_digest(), "peer 5 history must show up");
    }

    #[test]
    fn reset_clears_history() {
        let mut d = FailureDetector::new(DetectorCfg::default());
        steady(&mut d, 9, 100, 8);
        assert!(d.wait(9, DetectLevel::Confirm).is_some());
        d.reset_peer(9);
        assert_eq!(d.samples(9), 0);
        assert_eq!(d.wait(9, DetectLevel::Confirm), None);
    }
}
