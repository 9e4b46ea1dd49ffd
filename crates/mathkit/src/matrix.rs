//! Dense complex matrices.
//!
//! [`CMatrix`] is the workhorse behind gates, density matrices and Kraus operators. It is a
//! simple row-major dense matrix; the dimensions in this project stay small (at most a few
//! dozen qubits' worth of 2×2 / 4×4 blocks tensored together for density-matrix simulation of
//! EPR pairs), so no sparse or blocked representations are needed.

use crate::approx::{approx_eq, approx_eq_c};
use crate::complex::Complex64;
use crate::vector::CVector;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense row-major complex matrix.
///
/// # Examples
///
/// ```rust
/// use mathkit::complex::Complex64;
/// use mathkit::matrix::CMatrix;
///
/// let x = CMatrix::from_rows(&[
///     vec![Complex64::ZERO, Complex64::ONE],
///     vec![Complex64::ONE, Complex64::ZERO],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert!(x.is_hermitian(1e-12));
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl Clone for CMatrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s existing buffer when it
    /// is large enough — the allocation-free path the per-trial hot loops
    /// rely on (see `clone_from` on `DensityMatrix` / `EprPair`).
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl CMatrix {
    /// Creates a matrix from explicit dimensions and row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged (different lengths) or empty.
    pub fn from_rows(rows: &[Vec<Complex64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// ```rust
    /// # use mathkit::matrix::CMatrix;
    /// let id = CMatrix::identity(4);
    /// assert!(id.is_unitary(1e-12));
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diagonal(diag: &[Complex64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds the outer product `|a⟩⟨b|` of two vectors.
    pub fn outer(a: &CVector, b: &CVector) -> Self {
        let mut m = Self::zeros(a.len(), b.len());
        for i in 0..a.len() {
            for j in 0..b.len() {
                m[(i, j)] = a[i] * b[j].conj();
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the row-major data.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable view of the row-major data (for in-place kernels that update a
    /// matrix without reallocating it).
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Conjugate transpose (Hermitian adjoint) `A†`.
    pub fn adjoint(&self) -> CMatrix {
        let mut m = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                m[(j, i)] = self[(i, j)].conj();
            }
        }
        m
    }

    /// Element-wise complex conjugate (no transpose).
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, factor: Complex64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| *z * factor).collect(),
        }
    }

    /// Matrix trace.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product dimension mismatch: {}x{} times {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == Complex64::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Applies the matrix to a vector: `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn apply(&self, v: &CVector) -> CVector {
        assert_eq!(
            self.cols,
            v.len(),
            "matrix-vector dimension mismatch: {}x{} times {}",
            self.rows,
            self.cols,
            v.len()
        );
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let mut acc = Complex64::ZERO;
            for j in 0..self.cols {
                acc += self[(i, j)] * v[j];
            }
            out.push(acc);
        }
        CVector::new(out)
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    ///
    /// ```rust
    /// # use mathkit::matrix::CMatrix;
    /// let id2 = CMatrix::identity(2);
    /// let id4 = id2.kron(&id2);
    /// assert_eq!(id4.rows(), 4);
    /// assert!(id4.is_unitary(1e-12));
    /// ```
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == Complex64::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Returns `true` when `A† A = I` to within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let product = self.adjoint().matmul(self);
        product.approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// Returns `true` when `A = A†` to within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.approx_eq(&self.adjoint(), tol)
    }

    /// Returns `true` when every entry of `self - other` is within `tol`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| approx_eq_c(*a, *b, tol))
    }

    /// Returns `true` when the matrix is a valid density matrix: Hermitian, unit trace, and
    /// positive semi-definite (checked via all 1×1 and 2×2 principal minors plus diagonal
    /// non-negativity — sufficient for the small matrices used in this project combined with
    /// the trace/Hermiticity requirements; a full eigenvalue check is available via
    /// [`CMatrix::eigenvalues_hermitian_2x2`] for 2×2 blocks).
    pub fn is_density_matrix(&self, tol: f64) -> bool {
        if !self.is_hermitian(tol) {
            return false;
        }
        if !approx_eq(self.trace().re, 1.0, tol) || !approx_eq(self.trace().im, 0.0, tol) {
            return false;
        }
        // Diagonal entries of a PSD matrix are non-negative.
        for i in 0..self.rows {
            if self[(i, i)].re < -tol {
                return false;
            }
        }
        // All 2x2 principal minors must be non-negative for PSD.
        for i in 0..self.rows {
            for j in (i + 1)..self.rows {
                let minor = self[(i, i)] * self[(j, j)] - self[(i, j)] * self[(j, i)];
                if minor.re < -tol.max(1e-9) {
                    return false;
                }
            }
        }
        true
    }

    /// Eigenvalues of a Hermitian 2×2 matrix (returned in ascending order).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not 2×2.
    pub fn eigenvalues_hermitian_2x2(&self) -> [f64; 2] {
        assert!(
            self.rows == 2 && self.cols == 2,
            "eigenvalues_hermitian_2x2 requires a 2x2 matrix"
        );
        let a = self[(0, 0)].re;
        let d = self[(1, 1)].re;
        let b = self[(0, 1)];
        let mean = (a + d) / 2.0;
        let disc = ((a - d) / 2.0).powi(2) + b.norm_sqr();
        let root = disc.max(0.0).sqrt();
        [mean - root, mean + root]
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "adding matrices of different shapes");
        assert_eq!(self.cols, rhs.cols, "adding matrices of different shapes");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            self.rows, rhs.rows,
            "subtracting matrices of different shapes"
        );
        assert_eq!(
            self.cols, rhs.cols,
            "subtracting matrices of different shapes"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        self.scale(-Complex64::ONE)
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

impl Mul<&CVector> for &CMatrix {
    type Output = CVector;
    fn mul(self, rhs: &CVector) -> CVector {
        self.apply(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn pauli_x() -> CMatrix {
        CMatrix::from_rows(&[
            vec![Complex64::ZERO, Complex64::ONE],
            vec![Complex64::ONE, Complex64::ZERO],
        ])
    }

    fn pauli_y() -> CMatrix {
        CMatrix::from_rows(&[
            vec![Complex64::ZERO, -Complex64::I],
            vec![Complex64::I, Complex64::ZERO],
        ])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::diagonal(&[Complex64::ONE, -Complex64::ONE])
    }

    fn hadamard() -> CMatrix {
        CMatrix::from_rows(&[
            vec![Complex64::ONE, Complex64::ONE],
            vec![Complex64::ONE, -Complex64::ONE],
        ])
        .scale(Complex64::real(FRAC_1_SQRT_2))
    }

    #[test]
    fn construction_and_shape() {
        let m = CMatrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(!m.is_square());
        let id = CMatrix::identity(3);
        assert!(id.is_square());
        assert_eq!(id.trace(), Complex64::real(3.0));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_data_length_panics() {
        let _ = CMatrix::new(2, 2, vec![Complex64::ZERO; 3]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_rows_panic() {
        let _ = CMatrix::from_rows(&[vec![Complex64::ZERO], vec![Complex64::ZERO, Complex64::ONE]]);
    }

    #[test]
    fn pauli_algebra() {
        let x = pauli_x();
        let y = pauli_y();
        let z = pauli_z();
        let id = CMatrix::identity(2);
        // X² = Y² = Z² = I
        assert!(x.matmul(&x).approx_eq(&id, 1e-12));
        assert!(y.matmul(&y).approx_eq(&id, 1e-12));
        assert!(z.matmul(&z).approx_eq(&id, 1e-12));
        // XY = iZ
        assert!(x.matmul(&y).approx_eq(&z.scale(Complex64::I), 1e-12));
        // anti-commutation: XZ = -ZX
        assert!(x
            .matmul(&z)
            .approx_eq(&z.matmul(&x).scale(-Complex64::ONE), 1e-12));
    }

    #[test]
    fn pauli_and_hadamard_are_unitary_and_hermitian() {
        for m in [pauli_x(), pauli_y(), pauli_z(), hadamard()] {
            assert!(m.is_unitary(1e-12));
            assert!(m.is_hermitian(1e-12));
        }
    }

    #[test]
    fn adjoint_and_transpose() {
        let m = CMatrix::from_rows(&[
            vec![Complex64::new(1.0, 2.0), Complex64::new(3.0, -1.0)],
            vec![Complex64::new(0.0, 1.0), Complex64::new(-2.0, 0.5)],
        ]);
        let a = m.adjoint();
        assert_eq!(a[(0, 1)], Complex64::new(0.0, -1.0));
        assert_eq!(a[(1, 0)], Complex64::new(3.0, 1.0));
        // (AB)† = B†A†
        let x = pauli_x();
        let lhs = m.matmul(&x).adjoint();
        let rhs = x.adjoint().matmul(&m.adjoint());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn matrix_vector_application() {
        let h = hadamard();
        let zero = CVector::basis(2, 0);
        let plus = h.apply(&zero);
        assert!((plus.probability(0) - 0.5).abs() < 1e-12);
        assert!((plus.probability(1) - 0.5).abs() < 1e-12);
        // H² = I so applying twice returns |0⟩
        let back = h.apply(&plus);
        assert!((back.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kron_builds_bell_projector_dimensions() {
        let x = pauli_x();
        let id = CMatrix::identity(2);
        let xi = x.kron(&id);
        assert_eq!(xi.rows(), 4);
        assert!(xi.is_unitary(1e-12));
        // (X⊗I)(X⊗I) = I⊗I
        assert!(xi.matmul(&xi).approx_eq(&CMatrix::identity(4), 1e-12));
    }

    #[test]
    fn kron_of_vectors_matches_matrix_outer_structure() {
        let a = CVector::basis(2, 1);
        let b = CVector::basis(2, 0);
        let ab = a.kron(&b); // |10⟩ = index 2
        let proj = CMatrix::outer(&ab, &ab);
        assert_eq!(proj.trace(), Complex64::ONE);
        assert!(proj.is_hermitian(1e-12));
        assert!(proj.is_density_matrix(1e-9));
    }

    #[test]
    fn density_matrix_checks() {
        // Maximally mixed single-qubit state.
        let mixed = CMatrix::identity(2).scale(Complex64::real(0.5));
        assert!(mixed.is_density_matrix(1e-12));
        // A Pauli is Hermitian but has trace 0 → not a density matrix.
        assert!(!pauli_x().is_density_matrix(1e-12));
        // A non-Hermitian matrix is rejected.
        let bad = CMatrix::from_rows(&[
            vec![Complex64::real(0.5), Complex64::ONE],
            vec![Complex64::ZERO, Complex64::real(0.5)],
        ]);
        assert!(!bad.is_density_matrix(1e-12));
    }

    #[test]
    fn eigenvalues_of_hermitian_2x2() {
        let z = pauli_z();
        let [lo, hi] = z.eigenvalues_hermitian_2x2();
        assert!((lo + 1.0).abs() < 1e-12);
        assert!((hi - 1.0).abs() < 1e-12);
        let mixed = CMatrix::identity(2).scale(Complex64::real(0.5));
        let [a, b] = mixed.eigenvalues_hermitian_2x2();
        assert!((a - 0.5).abs() < 1e-12 && (b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn operator_overloads() {
        let x = pauli_x();
        let z = pauli_z();
        let sum = &x + &z;
        assert_eq!(sum[(0, 0)], Complex64::ONE);
        let diff = &x - &x;
        assert!(diff.approx_eq(&CMatrix::zeros(2, 2), 0.0));
        let prod = &x * &z;
        assert!(prod.is_unitary(1e-12));
        let neg = -&x;
        assert_eq!(neg[(0, 1)], -Complex64::ONE);
        let v = CVector::basis(2, 0);
        let applied = &x * &v;
        assert_eq!(applied.probability(1), 1.0);
    }

    #[test]
    fn outer_product_of_bell_state_is_projector() {
        // |Φ+⟩ = (|00⟩ + |11⟩)/√2
        let mut amps = vec![Complex64::ZERO; 4];
        amps[0] = Complex64::real(FRAC_1_SQRT_2);
        amps[3] = Complex64::real(FRAC_1_SQRT_2);
        let phi = CVector::new(amps);
        let rho = CMatrix::outer(&phi, &phi);
        assert!(rho.is_density_matrix(1e-9));
        // Projector: ρ² = ρ
        assert!(rho.matmul(&rho).approx_eq(&rho, 1e-12));
    }
}
