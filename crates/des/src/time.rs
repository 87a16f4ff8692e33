//! Simulation time.
//!
//! The simulator uses a **picosecond** integer timeline. At 200 Gb/s a single
//! byte serializes in 40 ps, so nanosecond resolution would accumulate
//! rounding error across multi-megabyte transfers; picoseconds keep every
//! serialization time exact while still covering > 200 days of simulated time
//! in a `u64`.
//!
//! Two newtypes keep instants and durations from being confused:
//! [`SimTime`] is a point on the timeline, [`SimDuration`] is a span.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An instant on the simulated timeline, in picoseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant `ps` picoseconds after simulation start.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Instant `ns` nanoseconds after simulation start.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Instant `us` microseconds after simulation start.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Instant `ms` milliseconds after simulation start.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This instant expressed in (truncated) nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }
    /// This instant expressed in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// This instant expressed in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Span from `earlier` to `self`. Panics in debug builds if `earlier`
    /// is after `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "since(): {earlier:?} is after {self:?}");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is after `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Span of `ps` picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Span of `ns` nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    /// Span of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    /// Span of `ms` milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Span of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_S)
    }
    /// Span of `s` fractional seconds (rounded to the nearest picosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        SimDuration((s * PS_PER_S as f64).round() as u64)
    }
    /// Span of `ns` fractional nanoseconds (rounded to the nearest picosecond).
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        SimDuration((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This span in (truncated) nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }
    /// This span in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// This span in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// This span in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    /// This span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale by a float factor, rounding to the nearest picosecond.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative scale");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

/// Exact picoseconds: a duration's `Debug` is part of run identities
/// (see `congestion::run_identity` in the experiments crate), so it must
/// not round. `Display` is the human-readable form.
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

/// Render a picosecond count with a human-friendly unit.
fn format_ps(ps: u64) -> String {
    if ps >= PS_PER_S {
        format!("{:.3}s", ps as f64 / PS_PER_S as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

/// Duration of serializing `bytes` bytes onto a link of `gbps` gigabits per
/// second (decimal gigabits, as in "200 Gb/s").
///
/// Exact in picoseconds when `8000 % gbps == 0` (true for 100, 200, 400,
/// 25, 50...): e.g. 200 Gb/s → 40 ps per byte.
#[inline]
pub fn serialization_time(bytes: u64, gbps: f64) -> SimDuration {
    debug_assert!(gbps > 0.0);
    // bits / (gbps * 1e9 bits/s) in seconds = bits / gbps in ns = bits*1000/gbps in ps
    SimDuration(((bytes * 8) as f64 * 1000.0 / gbps).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_ns(5).as_ps(), 5_000);
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_ps(), 2 * PS_PER_MS);
        assert_eq!(SimDuration::from_secs(1).as_ps(), PS_PER_S);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(100);
        let d = SimDuration::from_ns(50);
        assert_eq!((t + d).as_ns(), 150);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(d + d, SimDuration::from_ns(100));
        assert_eq!(d * 3, SimDuration::from_ns(150));
        assert_eq!((d * 3) / 3, d);
    }

    #[test]
    fn since_and_saturating() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(30);
        assert_eq!(b.since(a).as_ns(), 20);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn serialization_exact_at_200gbps() {
        // 200 Gb/s → 40 ps per byte.
        assert_eq!(serialization_time(1, 200.0).as_ps(), 40);
        assert_eq!(serialization_time(4096, 200.0).as_ps(), 4096 * 40);
        // 100 Gb/s → 80 ps per byte.
        assert_eq!(serialization_time(1, 100.0).as_ps(), 80);
    }

    #[test]
    fn serialization_scales_linearly() {
        let one = serialization_time(1000, 25.0);
        let four = serialization_time(4000, 25.0);
        assert_eq!(one.as_ps() * 4, four.as_ps());
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_ps(12)), "12ps");
        assert_eq!(format!("{}", SimDuration::from_ns(350)), "350.000ns");
        assert_eq!(format!("{}", SimDuration::from_us(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_ms(7)), "7.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3.000s");
    }

    #[test]
    fn float_conversions() {
        assert!((SimDuration::from_us(1).as_us_f64() - 1.0).abs() < 1e-12);
        assert!((SimDuration::from_ms(1).as_ms_f64() - 1.0).abs() < 1e-12);
        assert!((SimDuration::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-9);
        assert_eq!(SimDuration::from_ns_f64(1.5).as_ps(), 1500);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration::from_ps(100).mul_f64(0.333).as_ps(), 33);
        assert_eq!(SimDuration::from_ps(100).mul_f64(1.5).as_ps(), 150);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimTime::ZERO < SimTime::MAX);
        assert!(SimDuration::from_ns(1) < SimDuration::from_us(1));
    }
}
