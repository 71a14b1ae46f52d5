//! Simulated time and durations.
//!
//! The simulator tracks virtual time in integer **picoseconds**. A `u64`
//! picosecond counter can represent roughly 213 days of simulated time,
//! far beyond any experiment in this repository, while being fine-grained
//! enough to express single clock cycles of a 250 MHz FPGA (4000 ps) and
//! serialization delays of individual network flits without rounding drift.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of simulated time, in picoseconds since simulation start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time, in picoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The largest representable instant.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates an instant `ns` nanoseconds after the epoch.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates an instant `us` microseconds after the epoch.
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates an instant `ms` milliseconds after the epoch.
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Creates a duration from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Dur(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Dur(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * 1_000_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000_000)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the nearest picosecond.
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration: {ns} ns");
        // allow_nondeterminism(float-timing): audited unit boundary — one rounding from a config-time float, never accumulated
        Dur((ns * 1e3).round() as u64)
    }

    /// Creates a duration from fractional microseconds, rounding to the nearest picosecond.
    pub fn from_us_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0, "negative duration: {us} us");
        // allow_nondeterminism(float-timing): audited unit boundary — one rounding from a config-time float, never accumulated
        Dur((us * 1e6).round() as u64)
    }

    /// Serialization time of `bytes` over a `gbps` (10^9 bits/second) channel.
    ///
    /// # Examples
    ///
    /// ```
    /// use accl_sim::time::Dur;
    /// // 1500 bytes at 100 Gb/s take 120 ns.
    /// assert_eq!(Dur::for_bytes_gbps(1500, 100.0), Dur::from_ns(120));
    /// ```
    pub fn for_bytes_gbps(bytes: u64, gbps: f64) -> Self {
        debug_assert!(gbps > 0.0, "non-positive rate: {gbps} Gb/s");
        // allow_nondeterminism(float-timing): audited unit boundary — one rounding from a config-time float, never accumulated
        Dur(((bytes as f64) * 8_000.0 / gbps).round() as u64)
    }

    /// Transfer time of `bytes` over a channel of `bytes_per_sec` bandwidth.
    pub fn for_bytes_bw(bytes: u64, bytes_per_sec: f64) -> Self {
        debug_assert!(bytes_per_sec > 0.0);
        // allow_nondeterminism(float-timing): audited unit boundary — one rounding from a config-time float, never accumulated
        Dur(((bytes as f64) * 1e12 / bytes_per_sec).round() as u64)
    }

    /// Duration of `cycles` clock cycles at `mhz` megahertz.
    ///
    /// # Examples
    ///
    /// ```
    /// use accl_sim::time::Dur;
    /// // One cycle at 250 MHz is 4 ns.
    /// assert_eq!(Dur::for_cycles(1, 250.0), Dur::from_ns(4));
    /// ```
    pub fn for_cycles(cycles: u64, mhz: f64) -> Self {
        debug_assert!(mhz > 0.0);
        // allow_nondeterminism(float-timing): audited unit boundary — one rounding from a config-time float, never accumulated
        Dur(((cycles as f64) * 1e6 / mhz).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration in (fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The larger of two durations.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Achieved goodput transferring `bytes` within this duration, in Gb/s.
    ///
    /// Returns 0.0 for a zero-length duration.
    pub fn goodput_gbps(self, bytes: u64) -> f64 {
        if self.0 == 0 {
            return 0.0;
        }
        (bytes as f64) * 8_000.0 / (self.0 as f64)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(
            self.0
                .checked_sub(rhs.0)
                .expect("time subtraction underflow"),
        )
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self
            .0
            .checked_sub(rhs.0)
            .expect("time subtraction underflow"))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self
            .0
            .checked_sub(rhs.0)
            .expect("duration subtraction underflow"))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_ps(1_000);
        let d = Dur::from_ns(3);
        assert_eq!((t + d).as_ps(), 4_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), Dur::ZERO);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Dur::from_us(1), Dur::from_ns(1_000));
        assert_eq!(Dur::from_ms(1), Dur::from_us(1_000));
        assert_eq!(Dur::from_secs(1), Dur::from_ms(1_000));
        assert_eq!(Dur::from_ns_f64(1.5).as_ps(), 1_500);
        assert_eq!(Dur::from_us_f64(0.001), Dur::from_ns(1));
    }

    #[test]
    fn serialization_time_100gbps() {
        // 12.5 GB/s: 1 MiB should take ~83.886 us.
        let d = Dur::for_bytes_gbps(1 << 20, 100.0);
        assert!((d.as_us_f64() - 83.886).abs() < 0.01, "{d}");
        // And the reported goodput must invert the calculation.
        assert!((d.goodput_gbps(1 << 20) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_and_cycles() {
        // 16 GB/s moving 64 B = 4 ns.
        assert_eq!(Dur::for_bytes_bw(64, 16e9), Dur::from_ns(4));
        assert_eq!(Dur::for_cycles(250, 250.0), Dur::from_us(1));
        assert_eq!(Dur::for_cycles(100, 100.0), Dur::from_us(1));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Dur::from_ns(5);
        let b = Dur::from_ns(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.saturating_sub(a), Dur::from_ns(2));
        assert_eq!(a.saturating_sub(b), Dur::ZERO);
        assert_eq!(Time::from_ps(5).max(Time::from_ps(9)).as_ps(), 9);
    }

    #[test]
    fn mul_div() {
        assert_eq!(Dur::from_ns(4) * 250, Dur::from_us(1));
        assert_eq!(Dur::from_us(1) / 250, Dur::from_ns(4));
    }
}
