//! Bandwidth-limited FIFO resources.
//!
//! [`Pipe`] is the timing model shared by every serial resource in the
//! simulation: a network link serializing frames, a PCIe DMA channel, an HBM
//! pseudo-channel, or the CCLO's 64 B/cycle internal datapath. Work items
//! occupy the resource back-to-back; reserving a transfer returns the
//! interval it occupies, which callers convert into event schedules.
//!
//! This "next-free bookkeeping" style is equivalent to simulating an
//! output-queued FIFO explicitly, but costs O(1) per transfer instead of an
//! event per queue slot.
//!
//! # Arithmetic
//!
//! Occupancy is tracked in **fixed-point picoseconds** (32 fractional
//! bits). The serialization cost of one byte is the integer
//! `round(1e12 * 2^32 / bytes_per_sec)`; reservations accumulate byte
//! counts against that constant at full precision and only truncate to
//! whole picoseconds when reporting `(start, end)` instants. Two
//! consequences the rest of the stack relies on:
//!
//! - **No drift**: back-to-back reservations of `k` and `n - k` bytes end
//!   at exactly the same instant as one reservation of `n` bytes (for any
//!   split), because `k*c + (n-k)*c == n*c` in integer math. Per-`reserve`
//!   float rounding used to break this for odd splits.
//! - **Determinism**: no floating point on the reservation path, so
//!   timelines cannot vary with compiler float contraction or platform
//!   rounding modes.
//!
//! Common configured rates are exactly representable: 100 Gb/s is
//! 80 ps/byte (`80 << 32`), 8 Gb/s is 1000 ps/byte, one 64 B beat per
//! 4 ns cycle is 62.5 ps/byte (`125 << 31`).

use crate::time::{Dur, Time};

/// Fractional bits of the fixed-point picosecond representation.
const FP_BITS: u32 = 32;

/// A FIFO resource with fixed bandwidth and an optional fixed per-item overhead.
#[derive(Debug, Clone)]
pub struct Pipe {
    /// Configured bandwidth, kept only for reporting.
    bytes_per_sec: f64,
    /// Serialization cost of one byte, in fixed-point picoseconds.
    cost_per_byte_fp: u128,
    per_item: Dur,
    /// Earliest idle instant, in fixed-point picoseconds.
    next_free_fp: u128,
    /// Accumulated busy time, in fixed-point picoseconds.
    busy_fp: u128,
    items: u64,
    bytes: u64,
}

impl Pipe {
    /// Creates a pipe with `gbps` (10^9 bits/s) of bandwidth.
    pub fn gbps(gbps: f64) -> Self {
        Self::bytes_per_sec(gbps * 1e9 / 8.0)
    }

    /// Creates a pipe with `bps` bytes/second of bandwidth.
    pub fn bytes_per_sec(bps: f64) -> Self {
        assert!(bps > 0.0, "pipe bandwidth must be positive");
        let cost = (1e12 * (1u64 << FP_BITS) as f64 / bps).round();
        Pipe {
            bytes_per_sec: bps,
            cost_per_byte_fp: cost as u128,
            per_item: Dur::ZERO,
            next_free_fp: 0,
            busy_fp: 0,
            items: 0,
            bytes: 0,
        }
    }

    /// Adds a fixed overhead charged per reserved item (e.g. a DMA descriptor
    /// setup or per-packet header processing).
    pub fn with_per_item(mut self, overhead: Dur) -> Self {
        self.per_item = overhead;
        self
    }

    /// The configured bandwidth in bytes/second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Earliest instant at which the resource is idle.
    pub fn next_free(&self) -> Time {
        Time::from_ps((self.next_free_fp >> FP_BITS) as u64)
    }

    /// Time the resource has spent busy so far.
    pub fn busy_time(&self) -> Dur {
        Dur::from_ps((self.busy_fp >> FP_BITS) as u64)
    }

    /// Items reserved so far.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Bytes reserved so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }

    /// Occupancy cost of `bytes` in `items` units, in fixed-point ps.
    #[inline]
    fn cost_fp(&self, bytes: u64, items: u64) -> u128 {
        bytes as u128 * self.cost_per_byte_fp
            + ((self.per_item.as_ps() as u128) << FP_BITS) * items as u128
    }

    /// Pure query: how long would `bytes` occupy this resource?
    pub fn service_time(&self, bytes: u64) -> Dur {
        Dur::from_ps((self.cost_fp(bytes, 1) >> FP_BITS) as u64)
    }

    /// Reserves the resource for `bytes` arriving at `now`.
    ///
    /// Returns `(start, end)`: the transfer begins when the resource frees up
    /// (no earlier than `now`) and ends after its serialization time.
    #[inline]
    pub fn reserve(&mut self, now: Time, bytes: u64) -> (Time, Time) {
        self.reserve_batch(now, bytes, 1)
    }

    /// Reserves one back-to-back burst of `items` units totalling `bytes`.
    ///
    /// Equivalent in occupancy to `items` consecutive `reserve` calls over
    /// the same bytes — the per-item overhead is charged `items` times —
    /// but returns a single `(start, end)` interval and counts as one
    /// scheduling decision.
    pub fn reserve_batch(&mut self, now: Time, bytes: u64, items: u64) -> (Time, Time) {
        let start_fp = self.next_free_fp.max((now.as_ps() as u128) << FP_BITS);
        let cost = self.cost_fp(bytes, items);
        let end_fp = start_fp + cost;
        self.next_free_fp = end_fp;
        self.busy_fp += cost;
        self.items += items;
        self.bytes += bytes;
        (
            Time::from_ps((start_fp >> FP_BITS) as u64),
            Time::from_ps((end_fp >> FP_BITS) as u64),
        )
    }

    /// Queueing delay a `bytes`-sized item arriving `now` would experience
    /// before starting service.
    pub fn queuing_delay(&self, now: Time) -> Dur {
        self.next_free().since(now)
    }

    /// Resets occupancy bookkeeping (bandwidth configuration is kept).
    pub fn reset(&mut self) {
        self.next_free_fp = 0;
        self.busy_fp = 0;
        self.items = 0;
        self.bytes = 0;
    }
}

/// A fixed-latency stage, e.g. link propagation or a switch forwarding delay.
///
/// Unlike [`Pipe`], a `Latency` stage is infinitely parallel: items do not
/// queue behind each other, they are merely delayed.
#[derive(Debug, Clone, Copy)]
pub struct Latency(pub Dur);

impl Latency {
    /// Creates a fixed-latency stage of `ns` nanoseconds.
    pub fn from_ns(ns: u64) -> Self {
        Latency(Dur::from_ns(ns))
    }

    /// When an item entering at `now` exits this stage.
    pub fn through(&self, now: Time) -> Time {
        now + self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_transfers_queue() {
        let mut p = Pipe::gbps(100.0); // 12.5 GB/s
        let t0 = Time::ZERO;
        let (s1, e1) = p.reserve(t0, 1250); // 100 ns
        assert_eq!(s1, t0);
        assert_eq!(e1, Time::from_ps(100_000));
        // Second transfer arrives while the first is in flight: it queues.
        let (s2, e2) = p.reserve(Time::from_ps(50_000), 1250);
        assert_eq!(s2, e1);
        assert_eq!(e2, Time::from_ps(200_000));
        assert_eq!(p.items(), 2);
        assert_eq!(p.bytes_moved(), 2500);
        assert_eq!(p.busy_time(), Dur::from_ns(200));
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut p = Pipe::gbps(100.0);
        p.reserve(Time::ZERO, 1250);
        // Arrives long after the pipe freed up: starts immediately.
        let (s, _) = p.reserve(Time::from_ps(1_000_000), 1250);
        assert_eq!(s, Time::from_ps(1_000_000));
        assert_eq!(p.busy_time(), Dur::from_ns(200));
    }

    #[test]
    fn per_item_overhead_is_charged() {
        let mut p = Pipe::gbps(100.0).with_per_item(Dur::from_ns(50));
        let (_, e) = p.reserve(Time::ZERO, 1250);
        assert_eq!(e, Time::from_ps(150_000));
        assert_eq!(p.service_time(1250), Dur::from_ns(150));
    }

    #[test]
    fn queuing_delay_reports_backlog() {
        let mut p = Pipe::gbps(8.0); // 1 GB/s
        p.reserve(Time::ZERO, 1_000_000); // busy 1 ms
        assert_eq!(p.queuing_delay(Time::from_ps(0)), Dur::from_us(1_000));
        assert_eq!(p.queuing_delay(Time::from_ps(10u64.pow(9))), Dur::ZERO);
    }

    #[test]
    fn latency_stage_is_parallel() {
        let l = Latency::from_ns(500);
        assert_eq!(l.through(Time::ZERO), Time::from_ps(500_000));
        assert_eq!(l.through(Time::from_ps(100)), Time::from_ps(500_100));
    }

    #[test]
    fn reset_preserves_bandwidth() {
        let mut p = Pipe::gbps(100.0);
        p.reserve(Time::ZERO, 10_000);
        p.reset();
        assert_eq!(p.items(), 0);
        assert_eq!(p.next_free(), Time::ZERO);
        let (s, _) = p.reserve(Time::ZERO, 1250);
        assert_eq!(s, Time::ZERO);
    }

    #[test]
    fn split_reservations_end_exactly_where_one_would() {
        // The fixed-point accumulator makes segmentation timing-neutral
        // even at rates where one byte is not a whole picosecond and for
        // odd splits; f64-per-call rounding used to drift here.
        for gbps in [100.0, 400.0, 123.0, 17.3] {
            for n in [1u64, 3, 1249, 1250, 1500, 1 << 20] {
                for k in [1u64, n / 3 + 1, n / 2, n - 1] {
                    let k = k.min(n);
                    let mut whole = Pipe::gbps(gbps);
                    let (_, e1) = whole.reserve(Time::ZERO, n);
                    let mut halves = Pipe::gbps(gbps);
                    halves.reserve(Time::ZERO, k);
                    let (_, e2) = halves.reserve(Time::ZERO, n - k);
                    assert_eq!(e1, e2, "gbps={gbps} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn reserve_batch_matches_consecutive_reserves() {
        let mut batched = Pipe::gbps(100.0).with_per_item(Dur::from_ns(50));
        let mut serial = Pipe::gbps(100.0).with_per_item(Dur::from_ns(50));
        let (bs, be) = batched.reserve_batch(Time::ZERO, 4 * 1250, 4);
        let mut last = (Time::ZERO, Time::ZERO);
        for _ in 0..4 {
            last = serial.reserve(Time::ZERO, 1250);
        }
        assert_eq!(bs, Time::ZERO);
        assert_eq!(be, last.1);
        assert_eq!(batched.items(), 4);
        assert_eq!(batched.bytes_moved(), 5000);
        assert_eq!(batched.busy_time(), serial.busy_time());
    }
}
