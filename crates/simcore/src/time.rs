//! Integer-nanosecond simulation time.
//!
//! All simulation timestamps are [`SimTime`] (nanoseconds since simulation
//! start) and all intervals are [`SimDuration`]. Using integers instead of
//! `f64` seconds makes event ordering exact and reproducible: two events
//! computed along different code paths either collide on the same nanosecond
//! (and are then ordered FIFO by the event queue) or do not — there is no
//! epsilon ambiguity.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second, as a convenience constant.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant in simulated time, in nanoseconds since the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond. Panics on negative or non-finite input.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating float-to-int cast of a finite, non-negative value (asserted above)"
    )]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is later than
    /// `self` (simulation logic never runs time backwards).
    #[expect(
        clippy::expect_used,
        reason = "checked time arithmetic panics loudly on overflow, the alternative to a silent wraparound corrupting digests"
    )]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is after self"),
        )
    }

    /// Saturating version of [`SimTime::since`], returning zero when
    /// `earlier > self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Panics on negative or non-finite input.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating float-to-int cast of a finite, non-negative value (asserted above)"
    )]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This duration expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True iff this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor, rounding to the nearest
    /// nanosecond.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating float-to-int cast of a finite, non-negative value (asserted above)"
    )]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k.is_finite() && k >= 0.0, "invalid scale: {k}");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The serialization time of `bytes` on a link of `rate_bps` bits/s.
    ///
    /// This is the canonical way the network layer converts packet sizes to
    /// time; centralizing it here keeps rounding identical everywhere.
    pub fn transmission(bytes: u64, rate_bps: u64) -> SimDuration {
        assert!(rate_bps > 0, "link rate must be positive");
        // Fast path: for every realistic packet size the product fits u64,
        // and a 64-bit division is several times cheaper than the u128
        // `__udivti3` call. Identical truncation semantics either way.
        if let Some(bits) = bytes.checked_mul(8).and_then(|b| b.checked_mul(NANOS_PER_SEC)) {
            return SimDuration(bits / rate_bps);
        }
        let bits = (bytes as u128) * 8 * NANOS_PER_SEC as u128;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a serialization time past u64 nanoseconds (584 years) is no simulated link"
        )]
        SimDuration((bits / rate_bps as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "checked time arithmetic panics loudly on overflow, the alternative to a silent wraparound corrupting digests"
    )]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "checked time arithmetic panics loudly on overflow, the alternative to a silent wraparound corrupting digests"
    )]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "checked time arithmetic panics loudly on overflow, the alternative to a silent wraparound corrupting digests"
    )]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "checked time arithmetic panics loudly on overflow, the alternative to a silent wraparound corrupting digests"
    )]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("SimDuration underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "checked time arithmetic panics loudly on overflow, the alternative to a silent wraparound corrupting digests"
    )]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

/// `{:?}` rounds to the microsecond; `{:#?}` prints the exact nanoseconds,
/// so an alternate `Debug` rendering of a struct tells apart any two values
/// that differ (the probe cache keys on it).
impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            write!(f, "t={}ns", self.0)
        } else {
            write!(f, "t={:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

/// As for [`SimTime`]: `{:#?}` is exact nanoseconds.
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            write!(f, "{}ns", self.0)
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(250).as_secs_f64(), 0.25);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), NANOS_PER_SEC / 2);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!((t - SimTime::from_secs(1)).as_millis_f64(), 500.0);
        assert_eq!(
            t - SimDuration::from_millis(1500),
            SimTime::ZERO
        );
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn since_panics_backwards() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn transmission_time() {
        // 1000 bytes at 8 Mb/s = 1 ms.
        assert_eq!(
            SimDuration::transmission(1000, 8_000_000),
            SimDuration::from_millis(1)
        );
        // 40-byte packet at 10 Gb/s = 32 ns.
        assert_eq!(
            SimDuration::transmission(40, 10_000_000_000),
            SimDuration::from_nanos(32)
        );
    }

    #[test]
    fn mul_div() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(25));
    }

    #[test]
    fn alternate_debug_is_exact() {
        let d = SimDuration::from_nanos(100_400);
        assert_eq!(format!("{d:?}"), "0.000100s");
        assert_eq!(format!("{d:#?}"), "100400ns");
        assert_eq!(format!("{:?}", SimTime::from_nanos(1)), "t=0.000000s");
        assert_eq!(format!("{:#?}", SimTime::from_nanos(1)), "t=1ns");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
