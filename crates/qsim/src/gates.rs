//! The gate library.
//!
//! Every unitary the UA-DI-QSDC emulation needs, as plain [`CMatrix`] constructors:
//! Pauli operators (the protocol's message/identity encoding alphabet), Hadamard, phase and
//! rotation gates, the general single-qubit `U(θ, φ, λ)`, the basis-change unitary for the
//! DI-check measurement bases `B(θ) = {(|0⟩ + e^{iθ}|1⟩)/√2, (|0⟩ − e^{iθ}|1⟩)/√2}`, and the
//! two-qubit CNOT / CZ / SWAP gates used for Bell-pair preparation and Bell-state measurement.

use mathkit::complex::Complex64;
use mathkit::matrix::CMatrix;
use std::f64::consts::FRAC_1_SQRT_2;

/// 2×2 identity gate.
///
/// The paper models the quantum channel between Alice and Bob as a chain of η identity gates,
/// so this innocuous gate is actually the star of the evaluation section.
pub fn identity() -> CMatrix {
    CMatrix::identity(2)
}

/// Pauli-X (bit flip, σx).
pub fn pauli_x() -> CMatrix {
    CMatrix::from_rows(&[
        vec![Complex64::ZERO, Complex64::ONE],
        vec![Complex64::ONE, Complex64::ZERO],
    ])
}

/// Pauli-Y (σy).
pub fn pauli_y() -> CMatrix {
    CMatrix::from_rows(&[
        vec![Complex64::ZERO, -Complex64::I],
        vec![Complex64::I, Complex64::ZERO],
    ])
}

/// Pauli-Z (phase flip, σz).
pub fn pauli_z() -> CMatrix {
    CMatrix::diagonal(&[Complex64::ONE, -Complex64::ONE])
}

/// `iσy` — the fourth encoding operator of the protocol (encodes the bit pair `11`).
///
/// Using `iσy` instead of `σy` keeps the matrix real, exactly as in the paper.
pub(crate) fn i_pauli_y() -> CMatrix {
    pauli_y().scale(Complex64::I)
}

/// Hadamard gate.
pub fn hadamard() -> CMatrix {
    CMatrix::from_rows(&[
        vec![Complex64::ONE, Complex64::ONE],
        vec![Complex64::ONE, -Complex64::ONE],
    ])
    .scale(Complex64::real(FRAC_1_SQRT_2))
}

/// Rotation about the X axis by `theta`.
pub fn rx(theta: f64) -> CMatrix {
    let c = Complex64::real((theta / 2.0).cos());
    let s = Complex64::imag(-(theta / 2.0).sin());
    CMatrix::from_rows(&[vec![c, s], vec![s, c]])
}

/// Rotation about the Y axis by `theta`.
pub fn ry(theta: f64) -> CMatrix {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    CMatrix::from_rows(&[
        vec![Complex64::real(c), Complex64::real(-s)],
        vec![Complex64::real(s), Complex64::real(c)],
    ])
}

/// Rotation about the Z axis by `theta`.
pub fn rz(theta: f64) -> CMatrix {
    CMatrix::diagonal(&[Complex64::cis(-theta / 2.0), Complex64::cis(theta / 2.0)])
}

/// General single-qubit unitary `U(θ, φ, λ)` in the standard OpenQASM parameterisation.
///
/// ```text
/// U = [[cos(θ/2),            -e^{iλ} sin(θ/2)       ],
///      [e^{iφ} sin(θ/2),      e^{i(φ+λ)} cos(θ/2)   ]]
/// ```
pub fn u3(theta: f64, phi: f64, lambda: f64) -> CMatrix {
    let half = theta / 2.0;
    CMatrix::from_rows(&[
        vec![
            Complex64::real(half.cos()),
            -Complex64::cis(lambda) * half.sin(),
        ],
        vec![
            Complex64::cis(phi) * half.sin(),
            Complex64::cis(phi + lambda) * half.cos(),
        ],
    ])
}

/// Basis-change unitary for the DI-check measurement basis
/// `B(θ) = {(|0⟩ + e^{iθ}|1⟩)/√2, (|0⟩ − e^{iθ}|1⟩)/√2}`.
///
/// The returned matrix `V(θ)` maps the basis vectors onto the computational basis,
/// i.e. measuring in `B(θ)` is equivalent to applying `V(θ)` and measuring in Z.
/// Column `k` of `V(θ)†` is the `k`-th basis vector.
pub(crate) fn basis_change(theta: f64) -> CMatrix {
    // Basis vectors: b0 = (|0⟩ + e^{iθ}|1⟩)/√2, b1 = (|0⟩ − e^{iθ}|1⟩)/√2.
    // V = Σ_k |k⟩⟨b_k| so V has ⟨b_k| as rows.
    let e = Complex64::cis(theta).conj();
    CMatrix::from_rows(&[
        vec![Complex64::real(FRAC_1_SQRT_2), e * FRAC_1_SQRT_2],
        vec![Complex64::real(FRAC_1_SQRT_2), -e * FRAC_1_SQRT_2],
    ])
}

/// CNOT with qubit ordering (control, target): `|c t⟩ → |c, t ⊕ c⟩`.
pub fn cnot() -> CMatrix {
    let mut m = CMatrix::zeros(4, 4);
    m[(0, 0)] = Complex64::ONE; // |00⟩ → |00⟩
    m[(1, 1)] = Complex64::ONE; // |01⟩ → |01⟩
    m[(2, 3)] = Complex64::ONE; // |11⟩ → |10⟩
    m[(3, 2)] = Complex64::ONE; // |10⟩ → |11⟩
    m
}

/// Controlled version of an arbitrary single-qubit unitary, control on the first qubit.
///
/// # Panics
///
/// Panics if `u` is not 2×2.
pub fn controlled(u: &CMatrix) -> CMatrix {
    assert!(
        u.rows() == 2 && u.cols() == 2,
        "controlled() requires a single-qubit unitary"
    );
    let mut m = CMatrix::identity(4);
    for i in 0..2 {
        for j in 0..2 {
            m[(2 + i, 2 + j)] = u[(i, j)];
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::vector::CVector;
    use mathkit::DEFAULT_TOLERANCE;

    #[test]
    fn all_single_qubit_gates_are_unitary() {
        let gates: Vec<(&str, CMatrix)> = vec![
            ("I", identity()),
            ("X", pauli_x()),
            ("Y", pauli_y()),
            ("Z", pauli_z()),
            ("iY", i_pauli_y()),
            ("H", hadamard()),
            ("RX", rx(0.7)),
            ("RY", ry(-1.3)),
            ("RZ", rz(2.1)),
            ("U3", u3(0.4, 1.1, -0.6)),
            ("B(π/4)", basis_change(std::f64::consts::FRAC_PI_4)),
        ];
        for (name, g) in gates {
            assert!(g.is_unitary(DEFAULT_TOLERANCE), "{name} is not unitary");
        }
    }

    #[test]
    fn two_qubit_gates_are_unitary() {
        for g in [cnot(), controlled(&hadamard())] {
            assert!(g.is_unitary(DEFAULT_TOLERANCE));
        }
    }

    #[test]
    fn cnot_truth_table() {
        let g = cnot();
        // |10⟩ (index 2) → |11⟩ (index 3)
        let v = g.apply(&CVector::basis(4, 2));
        assert!((v.probability(3) - 1.0).abs() < 1e-12);
        // |11⟩ → |10⟩
        let v = g.apply(&CVector::basis(4, 3));
        assert!((v.probability(2) - 1.0).abs() < 1e-12);
        // |00⟩, |01⟩ unchanged
        for idx in [0usize, 1] {
            let v = g.apply(&CVector::basis(4, idx));
            assert!((v.probability(idx) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hadamard_conjugates_x_and_z() {
        // HXH = Z and HZH = X
        let h = hadamard();
        assert!(h.matmul(&pauli_x()).matmul(&h).approx_eq(&pauli_z(), 1e-12));
        assert!(h.matmul(&pauli_z()).matmul(&h).approx_eq(&pauli_x(), 1e-12));
    }

    #[test]
    fn i_pauli_y_is_real_and_encodes_11() {
        let g = i_pauli_y();
        // iY = [[0, 1], [-1, 0]]
        assert_eq!(g[(0, 1)], Complex64::ONE);
        assert_eq!(g[(1, 0)], -Complex64::ONE);
        assert!(g.is_unitary(1e-12));
        // iY = X·Z (the composition of bit and phase flip), up to sign conventions: XZ = -iY.
        let xz = pauli_x().matmul(&pauli_z());
        assert!(xz.approx_eq(&g.scale(-Complex64::ONE), 1e-12));
    }

    #[test]
    fn rotation_gates_at_special_angles() {
        use std::f64::consts::PI;
        // RX(π) = -iX
        assert!(rx(PI).approx_eq(&pauli_x().scale(-Complex64::I), 1e-12));
        // RY(π) = -iY
        assert!(ry(PI).approx_eq(&pauli_y().scale(-Complex64::I), 1e-12));
        // RZ(π) = -iZ
        assert!(rz(PI).approx_eq(&pauli_z().scale(-Complex64::I), 1e-12));
        // Zero-angle rotations are the identity.
        for g in [rx(0.0), ry(0.0), rz(0.0)] {
            assert!(g.approx_eq(&identity(), 1e-12));
        }
    }

    #[test]
    fn u3_reduces_to_named_gates() {
        use std::f64::consts::{FRAC_PI_2, PI};
        // U(π/2, 0, π) = H
        assert!(u3(FRAC_PI_2, 0.0, PI).approx_eq(&hadamard(), 1e-12));
        // U(π, 0, π) = X
        assert!(u3(PI, 0.0, PI).approx_eq(&pauli_x(), 1e-12));
        // U(0, 0, λ) = diag(1, e^{iλ})
        let p = CMatrix::diagonal(&[Complex64::ONE, Complex64::cis(1.234)]);
        assert!(u3(0.0, 0.0, 1.234).approx_eq(&p, 1e-12));
    }

    #[test]
    fn basis_change_maps_basis_vectors_to_computational_basis() {
        let theta = 0.77;
        let v = basis_change(theta);
        // b0 = (|0⟩ + e^{iθ}|1⟩)/√2 should map to |0⟩.
        let b0 = CVector::new(vec![
            Complex64::real(FRAC_1_SQRT_2),
            Complex64::cis(theta) * FRAC_1_SQRT_2,
        ]);
        let mapped = v.apply(&b0);
        assert!((mapped.probability(0) - 1.0).abs() < 1e-12);
        // b1 maps to |1⟩.
        let b1 = CVector::new(vec![
            Complex64::real(FRAC_1_SQRT_2),
            -Complex64::cis(theta) * FRAC_1_SQRT_2,
        ]);
        let mapped = v.apply(&b1);
        assert!((mapped.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn basis_change_at_zero_is_hadamard() {
        assert!(basis_change(0.0).approx_eq(&hadamard(), 1e-12));
    }

    #[test]
    fn controlled_gate_acts_only_on_control_one_subspace() {
        let ch = controlled(&hadamard());
        // |00⟩ and |01⟩ untouched.
        for idx in [0usize, 1] {
            let v = ch.apply(&CVector::basis(4, idx));
            assert!((v.probability(idx) - 1.0).abs() < 1e-12);
        }
        // |10⟩ → (|10⟩ + |11⟩)/√2
        let v = ch.apply(&CVector::basis(4, 2));
        assert!((v.probability(2) - 0.5).abs() < 1e-12);
        assert!((v.probability(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "single-qubit unitary")]
    fn controlled_rejects_wrong_dimension() {
        let _ = controlled(&CMatrix::identity(4));
    }
}
