//! Virtual time for the simulation.
//!
//! The simulator keeps time as an integer number of nanoseconds since the
//! start of the run. [`SimTime`] is an instant, [`SimDuration`] a span.
//! Nanosecond resolution keeps wire-time arithmetic (0.8 µs per byte on a
//! 10 Mbit/s Ethernet) exact in integers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, measured in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use desim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(250);
/// assert_eq!(t.as_nanos(), 250_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the instant as nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) microseconds since simulation start.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as (fractional) milliseconds since simulation start.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the instant as (fractional) seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the duration elapsed since an `earlier` instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is in the future"),
        )
    }

    /// Returns the duration since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

/// A span of virtual time, measured in nanoseconds.
///
/// # Examples
///
/// ```
/// use desim::SimDuration;
///
/// let wire = SimDuration::from_nanos(800) * 1500; // 1500 bytes at 10 Mbit/s
/// assert_eq!(wire.as_micros_f64(), 1200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Returns the span in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamping at zero.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}us", ns as f64 / 1_000.0)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1_000_000.0)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1_000_000_000.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// Shorthand for [`SimDuration::from_micros`].
pub const fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

/// Shorthand for [`SimDuration::from_millis`].
pub const fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Shorthand for [`SimDuration::from_secs`].
pub const fn secs(v: u64) -> SimDuration {
    SimDuration::from_secs(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + us(100) + ms(2);
        assert_eq!(t.as_nanos(), 2_100_000);
        assert_eq!(
            t - SimTime::from_nanos(100_000),
            SimDuration::from_millis(2)
        );
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(us(10) * 3, us(30));
        assert_eq!(ms(1) / 4, us(250));
        assert_eq!(
            vec![us(1), us(2), us(3)].into_iter().sum::<SimDuration>(),
            us(6)
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", us(70)), "70.000us");
        assert_eq!(format!("{}", ms(12)), "12.000ms");
        assert_eq!(format!("{}", secs(3)), "3.000s");
        assert_eq!(format!("{}", SimDuration::ZERO), "0s");
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(us(1).saturating_sub(us(5)), SimDuration::ZERO);
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(SimTime::from_nanos(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = us(1) - us(2);
    }
}
