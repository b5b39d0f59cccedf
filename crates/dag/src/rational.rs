//! Exact rational arithmetic for response-time values.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number with `i128` numerator and denominator.
///
/// The response-time equations of the paper divide integer workloads by the
/// core count `m` (e.g. `R_hom = len + (vol − len)/m`, Eq. 1). Using floats
/// would make comparisons such as `C_off ≥ R_hom(G_par)` — which select the
/// analysis scenario of Theorem 1 — fragile. All analysis results are
/// therefore exact `Rational` values.
///
/// Values are kept normalized: the denominator is strictly positive and
/// `gcd(|num|, den) == 1`. All model-scale quantities (WCETs ≤ 100, a few
/// hundred nodes, `m ≤ 2^16`) are far below `i128` limits, so plain
/// (panicking-on-overflow-in-debug) arithmetic is used.
///
/// # Examples
///
/// ```
/// use hetrta_dag::Rational;
///
/// let r = Rational::new(10, 4);
/// assert_eq!(r, Rational::new(5, 2));
/// assert_eq!(r + Rational::from_integer(1), Rational::new(7, 2));
/// assert_eq!(r.to_f64(), 2.5);
/// assert_eq!(r.ceil(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };

    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates the rational `num / den`, normalized.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub const fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut n, mut d) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if d < 0 {
            n = -n;
            d = -d;
        }
        Rational { num: n, den: d }
    }

    /// Creates a rational from an integer.
    #[must_use]
    pub const fn from_integer(v: i128) -> Self {
        Rational { num: v, den: 1 }
    }

    /// Numerator of the normalized representation.
    #[must_use]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// Denominator of the normalized representation (always positive).
    #[must_use]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// `true` if the value is an integer.
    #[must_use]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// `true` if the value is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` if the value is strictly negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Largest integer `≤ self`.
    #[must_use]
    pub const fn floor(self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            (self.num - (self.den - 1)) / self.den
        }
    }

    /// Smallest integer `≥ self`.
    #[must_use]
    pub const fn ceil(self) -> i128 {
        if self.num >= 0 {
            (self.num + self.den - 1) / self.den
        } else {
            self.num / self.den
        }
    }

    /// Lossy conversion to `f64`, for reporting.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Absolute value.
    #[must_use]
    pub const fn abs(self) -> Self {
        Rational {
            num: if self.num < 0 { -self.num } else { self.num },
            den: self.den,
        }
    }

    /// Returns the larger of two rationals.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two rationals.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Checked addition, `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        let num = self
            .num
            .checked_mul(rhs.den)?
            .checked_add(rhs.num.checked_mul(self.den)?)?;
        let den = self.den.checked_mul(rhs.den)?;
        Some(Rational::new(num, den))
    }

    /// Checked multiplication, `None` on overflow.
    #[must_use]
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let (a, d) = (self.num / g1, rhs.den / g1);
        let (b, c) = (rhs.num / g2, self.den / g2);
        Some(Rational::new(a.checked_mul(b)?, c.checked_mul(d)?))
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i128> for Rational {
    fn from(v: i128) -> Self {
        Rational::from_integer(v)
    }
}

impl From<u64> for Rational {
    fn from(v: u64) -> Self {
        Rational::from_integer(v as i128)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_integer(v as i128)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "rational division by zero");
        Rational::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(10, 4), Rational::new(5, 2));
        assert_eq!(Rational::new(-10, -4), Rational::new(5, 2));
        assert_eq!(Rational::new(10, -4), Rational::new(-5, 2));
        assert_eq!(Rational::new(0, 7), Rational::ZERO);
        assert_eq!(Rational::new(0, -7).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn assign_ops() {
        let mut r = Rational::new(1, 2);
        r += Rational::new(1, 2);
        assert_eq!(r, Rational::ONE);
        r -= Rational::new(1, 4);
        assert_eq!(r, Rational::new(3, 4));
        r *= Rational::from_integer(4);
        assert_eq!(r, Rational::from_integer(3));
        r /= Rational::from_integer(2);
        assert_eq!(r, Rational::new(3, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 7) == Rational::ONE);
        assert_eq!(
            Rational::new(2, 3).max(Rational::new(3, 4)),
            Rational::new(3, 4)
        );
        assert_eq!(
            Rational::new(2, 3).min(Rational::new(3, 4)),
            Rational::new(2, 3)
        );
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_integer(5).floor(), 5);
        assert_eq!(Rational::from_integer(5).ceil(), 5);
    }

    #[test]
    fn division_by_zero_panics() {
        let r = std::panic::catch_unwind(|| Rational::ONE / Rational::ZERO);
        assert!(r.is_err());
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Rational::new(5, 2)), "5/2");
        assert_eq!(format!("{}", Rational::from_integer(5)), "5");
    }

    #[test]
    fn sum_iterator() {
        let total: Rational = (1..=4).map(|i| Rational::new(1, i)).sum();
        assert_eq!(total, Rational::new(25, 12));
    }

    #[test]
    fn is_predicates() {
        assert!(Rational::ZERO.is_zero());
        assert!(Rational::from_integer(3).is_integer());
        assert!(!Rational::new(1, 2).is_integer());
        assert!(Rational::new(-1, 2).is_negative());
        assert!(!Rational::new(1, 2).is_negative());
    }
}
