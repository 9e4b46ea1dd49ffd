//! Double-precision complex numbers.
//!
//! A minimal, dependency-free complex type tailored to the needs of the quantum simulator:
//! arithmetic operators, conjugation, modulus, polar form and the exponential map used to
//! build phase gates.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```rust
/// use mathkit::complex::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::new(3.0, -1.0);
/// assert_eq!(a + b, Complex64::new(4.0, 1.0));
/// assert_eq!(a * b, Complex64::new(5.0, 5.0));
/// assert_eq!(a.conj(), Complex64::new(1.0, -2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    ///
    /// ```rust
    /// # use mathkit::complex::Complex64;
    /// let z = Complex64::new(0.5, -0.25);
    /// assert_eq!(z.re, 0.5);
    /// assert_eq!(z.im, -0.25);
    /// ```
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    ///
    /// ```rust
    /// # use mathkit::complex::Complex64;
    /// assert_eq!(Complex64::real(2.0), Complex64::new(2.0, 0.0));
    /// ```
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    ///
    /// ```rust
    /// # use mathkit::complex::Complex64;
    /// assert_eq!(Complex64::imag(2.0), Complex64::new(0.0, 2.0));
    /// ```
    #[inline]
    pub const fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub(crate) fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Returns `e^{iθ}`, the unit phase used by phase gates and measurement bases.
    ///
    /// ```rust
    /// # use mathkit::complex::Complex64;
    /// let z = Complex64::cis(0.0);
    /// assert_eq!(z, Complex64::ONE);
    /// ```
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²` (a Born-rule probability when `z` is an amplitude).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// # Panics
    ///
    /// Panics if `z` is exactly zero.
    #[inline]
    pub(crate) fn recip(self) -> Self {
        let d = self.norm_sqr();
        assert!(d != 0.0, "attempted to invert the zero complex number");
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl From<(f64, f64)> for Complex64 {
    fn from((re, im): (f64, f64)) -> Self {
        Self::new(re, im)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.re * rhs, self.im * rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs * self
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    // Division by a complex number *is* multiplication by its reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |acc, z| acc + z)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |acc, z| acc + *z)
    }
}

impl Product for Complex64 {
    fn product<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ONE, |acc, z| acc * z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq_c;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Complex64::ZERO, Complex64::new(0.0, 0.0));
        assert_eq!(Complex64::ONE, Complex64::new(1.0, 0.0));
        assert_eq!(Complex64::I, Complex64::new(0.0, 1.0));
        assert_eq!(Complex64::real(3.5), Complex64::new(3.5, 0.0));
        assert_eq!(Complex64::imag(-1.25), Complex64::new(0.0, -1.25));
        assert_eq!(Complex64::from((1.0, 2.0)), Complex64::new(1.0, 2.0));
        assert_eq!(Complex64::from(4.0), Complex64::real(4.0));
    }

    #[test]
    fn addition_and_subtraction() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-0.5, 4.0);
        assert_eq!(a + b, Complex64::new(0.5, 6.0));
        assert_eq!(a - b, Complex64::new(1.5, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn multiplication_follows_i_squared_is_minus_one() {
        assert_eq!(Complex64::I * Complex64::I, -Complex64::ONE);
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(4.0, -1.0);
        assert_eq!(a * b, Complex64::new(11.0, 10.0));
        assert_eq!(a * 2.0, Complex64::new(4.0, 6.0));
        assert_eq!(2.0 * a, Complex64::new(4.0, 6.0));
    }

    #[test]
    fn division_and_reciprocal() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(4.0, -1.0);
        let q = (a * b) / b;
        assert!(approx_eq_c(q, a, 1e-12));
        assert!(approx_eq_c(a * a.recip(), Complex64::ONE, 1e-12));
    }

    #[test]
    #[should_panic(expected = "zero complex")]
    fn reciprocal_of_zero_panics() {
        let _ = Complex64::ZERO.recip();
    }

    #[test]
    fn conjugation_and_norm() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, 4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        // |z|^2 == z * conj(z)
        assert!(approx_eq_c(
            z * z.conj(),
            Complex64::real(z.norm_sqr()),
            1e-12
        ));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, FRAC_PI_4);
        assert!((z.norm() - 2.0).abs() < 1e-12);
        assert!((z.im.atan2(z.re) - FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn cis_covers_the_protocol_measurement_phases() {
        // The DI check uses phases 0, ±π/4, π/2; all must be unit modulus.
        for theta in [0.0, FRAC_PI_4, -FRAC_PI_4, FRAC_PI_2] {
            let z = Complex64::cis(theta);
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [
            Complex64::new(1.0, 1.0),
            Complex64::new(2.0, -1.0),
            Complex64::new(-3.0, 0.5),
        ];
        let s: Complex64 = xs.iter().sum();
        assert_eq!(s, Complex64::new(0.0, 0.5));
        let p: Complex64 = xs.iter().copied().product();
        // (1+i)(2-i) = 3+i ; (3+i)(-3+0.5i) = -9.5 - 1.5i
        assert!(approx_eq_c(p, Complex64::new(-9.5, -1.5), 1e-12));
    }

    #[test]
    fn display_formats_sign_correctly() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }
}
