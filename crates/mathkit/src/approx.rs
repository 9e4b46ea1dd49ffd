//! Tolerant floating-point comparison helpers.
//!
//! Quantum simulation is numerically noisy (repeated unitary application, Kraus channel
//! renormalisation), so exact equality is almost never the right check. These helpers give the
//! rest of the workspace one consistent definition of "close enough".

use crate::complex::Complex64;

/// Returns `true` when `|a - b| <= tol`.
///
/// ```rust
/// # use mathkit::approx_eq;
/// assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
/// assert!(!approx_eq(1.0, 1.1, 1e-10));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Returns `true` when two complex numbers agree to within `tol` in both components.
#[inline]
pub(crate) fn approx_eq_c(a: Complex64, b: Complex64, tol: f64) -> bool {
    approx_eq(a.re, b.re, tol) && approx_eq(a.im, b.im, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_comparisons() {
        assert!(approx_eq(0.1 + 0.2, 0.3, 1e-12));
        assert!(!approx_eq(0.1, 0.2, 1e-3));
    }

    #[test]
    fn complex_comparisons() {
        let a = Complex64::new(1.0, -1.0);
        let b = Complex64::new(1.0 + 5e-11, -1.0 - 5e-11);
        assert!(approx_eq_c(a, b, 1e-10));
        assert!(!approx_eq_c(a, b, 1e-12));
    }
}
