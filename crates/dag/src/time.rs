//! Integer time values.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use crate::Rational;

/// An integer amount of time, in abstract "ticks".
///
/// The paper draws node WCETs uniformly from `[1, 100]`, so all model
/// quantities — per-node WCETs `C_i`, the offloaded WCET `C_off`, graph
/// volume `vol(G)`, critical-path length `len(G)`, periods, deadlines,
/// simulated start/finish times and makespans — are exact integers. `Ticks`
/// is the shared newtype for all of them; only the response-time *bounds*
/// (which divide by the core count `m`) leave the integers and are
/// represented as [`Rational`].
///
/// Arithmetic on `Ticks` panics on overflow in debug builds (like the
/// underlying `u64`); use [`Ticks::checked_add`] and friends where inputs
/// are untrusted.
///
/// # Examples
///
/// ```
/// use hetrta_dag::Ticks;
///
/// let a = Ticks::new(3);
/// let b = Ticks::new(4);
/// assert_eq!(a + b, Ticks::new(7));
/// assert_eq!((a + b).get(), 7);
/// assert!(Ticks::ZERO.is_zero());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticks(u64);

impl Ticks {
    /// The zero duration (used e.g. for the synchronization node `v_sync`
    /// and for dummy source/sink nodes).
    pub const ZERO: Ticks = Ticks(0);

    /// One tick.
    pub const ONE: Ticks = Ticks(1);

    /// The maximum representable time value.
    pub const MAX: Ticks = Ticks(u64::MAX);

    /// Creates a time value from a raw tick count.
    #[must_use]
    pub const fn new(ticks: u64) -> Self {
        Ticks(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns `true` if this value is zero ticks.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: Ticks) -> Option<Ticks> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Ticks(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` on underflow.
    #[must_use]
    pub const fn checked_sub(self, rhs: Ticks) -> Option<Ticks> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Ticks(v)),
            None => None,
        }
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Ticks) -> Ticks {
        Ticks(self.0.max(other.0))
    }

    /// Returns the smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Ticks) -> Ticks {
        Ticks(self.0.min(other.0))
    }

    /// Division rounding towards positive infinity.
    ///
    /// Useful for workload lower bounds such as `ceil(vol / m)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub const fn div_ceil(self, divisor: u64) -> Ticks {
        assert!(divisor != 0, "division by zero");
        Ticks(self.0.div_ceil(divisor))
    }

    /// Converts to an exact [`Rational`].
    ///
    /// # Panics
    ///
    /// Panics if the tick count exceeds `i128::MAX` (impossible for `u64`).
    #[must_use]
    pub fn to_rational(self) -> Rational {
        Rational::from_integer(self.0 as i128)
    }

    /// Converts to `f64` (lossy above 2^53; fine for model-scale values).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Debug for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl From<u64> for Ticks {
    fn from(v: u64) -> Self {
        Ticks(v)
    }
}

impl From<Ticks> for u64 {
    fn from(v: Ticks) -> Self {
        v.0
    }
}

impl Add for Ticks {
    type Output = Ticks;
    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl AddAssign for Ticks {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub for Ticks {
    type Output = Ticks;
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl SubAssign for Ticks {
    fn sub_assign(&mut self, rhs: Ticks) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ticks {
    type Output = Ticks;
    fn mul(self, rhs: u64) -> Ticks {
        Ticks(self.0 * rhs)
    }
}

impl Div<u64> for Ticks {
    type Output = Ticks;
    fn div(self, rhs: u64) -> Ticks {
        Ticks(self.0 / rhs)
    }
}

impl Rem<u64> for Ticks {
    type Output = Ticks;
    fn rem(self, rhs: u64) -> Ticks {
        Ticks(self.0 % rhs)
    }
}

impl Sum for Ticks {
    fn sum<I: Iterator<Item = Ticks>>(iter: I) -> Ticks {
        iter.fold(Ticks::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Ticks> for Ticks {
    fn sum<I: Iterator<Item = &'a Ticks>>(iter: I) -> Ticks {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        assert_eq!(Ticks::new(2) + Ticks::new(3), Ticks::new(5));
        assert_eq!(Ticks::new(5) - Ticks::new(3), Ticks::new(2));
        assert_eq!(Ticks::new(5) * 3, Ticks::new(15));
        assert_eq!(Ticks::new(7) / 2, Ticks::new(3));
        assert_eq!(Ticks::new(7) % 2, Ticks::new(1));
    }

    #[test]
    fn div_ceil_rounds_up() {
        assert_eq!(Ticks::new(7).div_ceil(2), Ticks::new(4));
        assert_eq!(Ticks::new(8).div_ceil(2), Ticks::new(4));
        assert_eq!(Ticks::ZERO.div_ceil(3), Ticks::ZERO);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_ceil_zero_divisor_panics() {
        let _ = Ticks::new(1).div_ceil(0);
    }

    #[test]
    fn checked_and_saturating() {
        assert_eq!(Ticks::MAX.checked_add(Ticks::ONE), None);
        assert_eq!(Ticks::ZERO.checked_sub(Ticks::ONE), None);
        assert_eq!(Ticks::MAX.saturating_add(Ticks::ONE), Ticks::MAX);
        assert_eq!(Ticks::ZERO.saturating_sub(Ticks::ONE), Ticks::ZERO);
        assert_eq!(
            Ticks::new(3).checked_add(Ticks::new(4)),
            Some(Ticks::new(7))
        );
    }

    #[test]
    fn sum_of_iterator() {
        let values = [Ticks::new(1), Ticks::new(2), Ticks::new(3)];
        let total: Ticks = values.iter().sum();
        assert_eq!(total, Ticks::new(6));
        let total: Ticks = values.into_iter().sum();
        assert_eq!(total, Ticks::new(6));
    }

    #[test]
    fn min_max() {
        assert_eq!(Ticks::new(3).max(Ticks::new(5)), Ticks::new(5));
        assert_eq!(Ticks::new(3).min(Ticks::new(5)), Ticks::new(3));
    }

    #[test]
    fn rational_conversion() {
        assert_eq!(Ticks::new(5).to_rational(), Rational::from_integer(5));
    }

    #[test]
    fn display_is_plain_number() {
        assert_eq!(format!("{}", Ticks::new(42)), "42");
        assert_eq!(format!("{:?}", Ticks::new(42)), "42t");
    }
}
