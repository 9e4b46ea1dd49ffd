//! Dense complex vectors.
//!
//! [`CVector`] is the amplitude container behind the statevector simulator: it supports the
//! inner product, norms, normalisation, scaling, tensor (Kronecker) products, and Born-rule
//! probability extraction.

use crate::approx::approx_eq;
use crate::complex::Complex64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, heap-allocated vector of [`Complex64`] entries.
///
/// # Examples
///
/// ```rust
/// use mathkit::complex::Complex64;
/// use mathkit::vector::CVector;
///
/// let plus = CVector::from_reals(&[std::f64::consts::FRAC_1_SQRT_2; 2]);
/// assert!(plus.is_normalized(1e-12));
/// assert!((plus.probability(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CVector {
    data: Vec<Complex64>,
}

impl CVector {
    /// Creates a vector from a `Vec` of complex entries.
    pub fn new(data: Vec<Complex64>) -> Self {
        Self { data }
    }

    /// Creates a zero vector of the given dimension.
    ///
    /// ```rust
    /// # use mathkit::vector::CVector;
    /// let v = CVector::zeros(4);
    /// assert_eq!(v.len(), 4);
    /// assert!(v.norm() == 0.0);
    /// ```
    pub fn zeros(dim: usize) -> Self {
        Self {
            data: vec![Complex64::ZERO; dim],
        }
    }

    /// Creates a computational-basis vector `|index⟩` of the given dimension.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    ///
    /// ```rust
    /// # use mathkit::vector::CVector;
    /// let e2 = CVector::basis(4, 2);
    /// assert_eq!(e2.probability(2), 1.0);
    /// ```
    pub fn basis(dim: usize, index: usize) -> Self {
        assert!(
            index < dim,
            "basis index {index} out of range for dimension {dim}"
        );
        let mut v = Self::zeros(dim);
        v.data[index] = Complex64::ONE;
        v
    }

    /// Creates a vector from real entries (imaginary parts zero).
    pub fn from_reals(reals: &[f64]) -> Self {
        Self {
            data: reals.iter().map(|&r| Complex64::real(r)).collect(),
        }
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` for the zero-dimensional vector.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying amplitudes.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable view of the underlying amplitudes.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Iterator over the amplitudes.
    pub fn iter(&self) -> std::slice::Iter<'_, Complex64> {
        self.data.iter()
    }

    /// Hermitian inner product `⟨self|other⟩` (conjugate-linear in `self`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    ///
    /// ```rust
    /// # use mathkit::vector::CVector;
    /// # use mathkit::complex::Complex64;
    /// let a = CVector::basis(2, 0);
    /// let b = CVector::basis(2, 1);
    /// assert_eq!(a.inner(&b), Complex64::ZERO);
    /// assert_eq!(a.inner(&a), Complex64::ONE);
    /// ```
    pub fn inner(&self, other: &CVector) -> Complex64 {
        assert_eq!(
            self.len(),
            other.len(),
            "inner product of vectors with different dimensions"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Euclidean (ℓ²) norm.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Squared norm (total probability when the vector is a quantum state).
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Returns `true` when the norm is within `tol` of 1.
    pub fn is_normalized(&self, tol: f64) -> bool {
        approx_eq(self.norm_sqr(), 1.0, tol)
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, factor: Complex64) -> CVector {
        CVector {
            data: self.data.iter().map(|z| *z * factor).collect(),
        }
    }

    /// Born-rule probability of the computational-basis outcome `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn probability(&self, index: usize) -> f64 {
        self.data[index].norm_sqr()
    }

    /// Full Born-rule probability distribution over basis outcomes.
    pub fn probabilities(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.norm_sqr()).collect()
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    ///
    /// ```rust
    /// # use mathkit::vector::CVector;
    /// let zero = CVector::basis(2, 0);
    /// let one = CVector::basis(2, 1);
    /// let zo = zero.kron(&one);
    /// assert_eq!(zo.probability(1), 1.0); // |01⟩ = index 1
    /// ```
    pub fn kron(&self, other: &CVector) -> CVector {
        let mut data = Vec::with_capacity(self.len() * other.len());
        for a in &self.data {
            for b in &other.data {
                data.push(*a * *b);
            }
        }
        CVector { data }
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> CVector {
        CVector {
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Fidelity `|⟨self|other⟩|²` between two pure states.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn fidelity(&self, other: &CVector) -> f64 {
        self.inner(other).norm_sqr()
    }
}

impl fmt::Display for CVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, z) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{z}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for CVector {
    type Output = Complex64;
    fn index(&self, index: usize) -> &Complex64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for CVector {
    fn index_mut(&mut self, index: usize) -> &mut Complex64 {
        &mut self.data[index]
    }
}

impl From<Vec<Complex64>> for CVector {
    fn from(data: Vec<Complex64>) -> Self {
        Self { data }
    }
}

impl FromIterator<Complex64> for CVector {
    fn from_iter<I: IntoIterator<Item = Complex64>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a CVector {
    type Item = &'a Complex64;
    type IntoIter = std::slice::Iter<'a, Complex64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add for &CVector {
    type Output = CVector;
    fn add(self, rhs: &CVector) -> CVector {
        assert_eq!(
            self.len(),
            rhs.len(),
            "adding vectors of different dimensions"
        );
        CVector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CVector {
    type Output = CVector;
    fn sub(self, rhs: &CVector) -> CVector {
        assert_eq!(
            self.len(),
            rhs.len(),
            "subtracting vectors of different dimensions"
        );
        CVector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &CVector {
    type Output = CVector;
    fn neg(self) -> CVector {
        self.scale(-Complex64::ONE)
    }
}

impl Mul<Complex64> for &CVector {
    type Output = CVector;
    fn mul(self, rhs: Complex64) -> CVector {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{approx_eq, approx_eq_c};
    use std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn basis_vectors_are_orthonormal() {
        for i in 0..4 {
            for j in 0..4 {
                let ei = CVector::basis(4, i);
                let ej = CVector::basis(4, j);
                let expected = if i == j {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                assert_eq!(ei.inner(&ej), expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_index_out_of_range_panics() {
        let _ = CVector::basis(2, 2);
    }

    #[test]
    fn norm_and_normalisation() {
        let v = CVector::from_reals(&[3.0, 4.0]);
        assert_eq!(v.norm(), 5.0);
        let n = CVector::from_reals(&[0.6, 0.8]);
        assert!(n.is_normalized(1e-12));
        assert!(approx_eq(n.probability(0), 0.36, 1e-12));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let plus = CVector::from_reals(&[FRAC_1_SQRT_2, FRAC_1_SQRT_2]);
        let zero = CVector::basis(2, 0);
        let combined = plus.kron(&zero);
        assert_eq!(combined.len(), 4);
        // |+⟩⊗|0⟩ has amplitude 1/√2 on |00⟩ (index 0) and |10⟩ (index 2).
        assert!(approx_eq(combined.probability(0), 0.5, 1e-12));
        assert!(approx_eq(combined.probability(2), 0.5, 1e-12));
        assert!(approx_eq(combined.probability(1), 0.0, 1e-12));
    }

    #[test]
    fn inner_product_is_conjugate_linear_in_first_argument() {
        let a = CVector::new(vec![Complex64::I, Complex64::ZERO]);
        let b = CVector::basis(2, 0);
        // ⟨i·e0|e0⟩ = conj(i) = -i
        assert!(approx_eq_c(a.inner(&b), -Complex64::I, 1e-12));
    }

    #[test]
    fn fidelity_of_orthogonal_and_identical_states() {
        let a = CVector::basis(2, 0);
        let b = CVector::basis(2, 1);
        assert_eq!(a.fidelity(&b), 0.0);
        assert_eq!(a.fidelity(&a), 1.0);
    }

    #[test]
    fn arithmetic_operators() {
        let a = CVector::from_reals(&[1.0, 2.0]);
        let b = CVector::from_reals(&[0.5, -1.0]);
        assert_eq!((&a + &b).as_slice()[1], Complex64::real(1.0));
        assert_eq!((&a - &b).as_slice()[0], Complex64::real(0.5));
        assert_eq!((-&a).as_slice()[0], Complex64::real(-1.0));
        assert_eq!(
            (&a * Complex64::real(2.0)).as_slice()[1],
            Complex64::real(4.0)
        );
    }

    #[test]
    fn probabilities_sum_to_norm_sqr() {
        let v = CVector::new(vec![
            Complex64::new(0.3, 0.4),
            Complex64::new(-0.1, 0.2),
            Complex64::new(0.0, 0.5),
        ]);
        let total: f64 = v.probabilities().iter().sum();
        assert!(approx_eq(total, v.norm_sqr(), 1e-12));
    }

    #[test]
    fn indexing_and_iteration() {
        let mut v = CVector::zeros(3);
        v[1] = Complex64::I;
        assert_eq!(v[1], Complex64::I);
        assert_eq!(v.iter().count(), 3);
        let collected: CVector = v.iter().copied().collect();
        assert_eq!(collected, v);
    }

    #[test]
    fn display_is_nonempty() {
        let v = CVector::basis(2, 0);
        assert!(!format!("{v}").is_empty());
    }
}
