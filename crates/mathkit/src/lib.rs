//! # mathkit — hand-rolled complex arithmetic and dense linear algebra
//!
//! The UA-DI-QSDC reproduction deliberately avoids external linear-algebra crates; everything
//! the quantum simulator needs lives here:
//!
//! - [`complex::Complex64`] — double-precision complex numbers.
//! - [`vector::CVector`] — dense complex vectors (quantum state amplitudes).
//! - [`matrix::CMatrix`] — dense complex matrices (gates, density matrices, Kraus operators).
//! - `approx` — tolerant floating-point comparison helpers used throughout the tests.
//!
//! ## Example
//!
//! ```rust
//! use mathkit::complex::Complex64;
//! use mathkit::matrix::CMatrix;
//!
//! // The Hadamard gate is unitary.
//! let h = CMatrix::from_rows(&[
//!     vec![Complex64::new(1.0, 0.0), Complex64::new(1.0, 0.0)],
//!     vec![Complex64::new(1.0, 0.0), Complex64::new(-1.0, 0.0)],
//! ]).scale(Complex64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0));
//! assert!(h.is_unitary(1e-12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
pub mod complex;
pub mod matrix;
pub mod vector;

#[cfg(test)]
mod properties;

pub use approx::approx_eq;
pub use complex::Complex64;
pub use matrix::CMatrix;
pub use vector::CVector;

/// Crate-wide default tolerance for floating-point comparisons.
///
/// All "is this unitary / normalised / Hermitian" style checks in the simulator default to
/// this tolerance unless the caller supplies a stricter one.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;
