//! Property-based tests for the hand-rolled linear algebra.

use crate::approx::{approx_eq, approx_eq_c};
use crate::complex::Complex64;
use crate::matrix::CMatrix;
use crate::vector::CVector;
use proptest::prelude::*;

/// Strategy for a "reasonable" complex number (bounded so products stay finite).
fn complex() -> impl Strategy<Value = Complex64> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Complex64::new(re, im))
}

/// Strategy for a non-zero complex number.
fn nonzero_complex() -> impl Strategy<Value = Complex64> {
    complex().prop_filter("non-zero", |z| z.norm() > 1e-3)
}

/// Strategy for a complex vector of the given dimension.
fn cvector(dim: usize) -> impl Strategy<Value = CVector> {
    prop::collection::vec(complex(), dim).prop_map(CVector::new)
}

/// Strategy for a 2x2 complex matrix.
fn cmatrix2() -> impl Strategy<Value = CMatrix> {
    prop::collection::vec(complex(), 4).prop_map(|d| CMatrix::new(2, 2, d))
}

/// Strategy for a random single-qubit unitary built from Euler angles.
fn unitary2() -> impl Strategy<Value = CMatrix> {
    (
        0.0f64..std::f64::consts::TAU,
        0.0f64..std::f64::consts::TAU,
        0.0f64..std::f64::consts::TAU,
    )
        .prop_map(|(theta, phi, lambda)| {
            // Standard U(θ, φ, λ) parameterisation.
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
        })
}

proptest! {
    #[test]
    fn complex_addition_commutes(a in complex(), b in complex()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn complex_multiplication_commutes(a in complex(), b in complex()) {
        let ab = a * b;
        let ba = b * a;
        prop_assert!(approx_eq_c(ab, ba, 1e-9));
    }

    #[test]
    fn complex_multiplication_distributes(a in complex(), b in complex(), c in complex()) {
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        prop_assert!(approx_eq_c(lhs, rhs, 1e-8));
    }

    #[test]
    fn conjugation_is_involutive(a in complex()) {
        prop_assert_eq!(a.conj().conj(), a);
    }

    #[test]
    fn norm_is_multiplicative(a in complex(), b in complex()) {
        prop_assert!(approx_eq((a * b).norm(), a.norm() * b.norm(), 1e-7));
    }

    #[test]
    fn reciprocal_is_inverse(a in nonzero_complex()) {
        prop_assert!(approx_eq_c(a * a.recip(), Complex64::ONE, 1e-9));
    }

    #[test]
    fn polar_round_trips(r in 0.001f64..10.0, theta in -3.0f64..3.0) {
        let z = Complex64::from_polar(r, theta);
        prop_assert!(approx_eq(z.norm(), r, 1e-9));
        prop_assert!(approx_eq(z.im.atan2(z.re), theta, 1e-9));
    }

    #[test]
    fn inner_product_conjugate_symmetry(a in cvector(4), b in cvector(4)) {
        let ab = a.inner(&b);
        let ba = b.inner(&a);
        prop_assert!(approx_eq_c(ab, ba.conj(), 1e-8));
    }

    #[test]
    fn cauchy_schwarz(a in cvector(3), b in cvector(3)) {
        let inner = a.inner(&b).norm();
        prop_assert!(inner <= a.norm() * b.norm() + 1e-7);
    }

    #[test]
    fn kron_norm_is_product_of_norms(a in cvector(2), b in cvector(2)) {
        let k = a.kron(&b);
        prop_assert!(approx_eq(k.norm(), a.norm() * b.norm(), 1e-7));
    }

    #[test]
    fn matrix_product_is_associative(a in cmatrix2(), b in cmatrix2(), c in cmatrix2()) {
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-6));
    }

    #[test]
    fn adjoint_reverses_products(a in cmatrix2(), b in cmatrix2()) {
        let lhs = a.matmul(&b).adjoint();
        let rhs = b.adjoint().matmul(&a.adjoint());
        prop_assert!(lhs.approx_eq(&rhs, 1e-8));
    }

    #[test]
    fn trace_is_cyclic(a in cmatrix2(), b in cmatrix2()) {
        let lhs = a.matmul(&b).trace();
        let rhs = b.matmul(&a).trace();
        prop_assert!(approx_eq_c(lhs, rhs, 1e-7));
    }

    #[test]
    fn random_euler_unitary_is_unitary(u in unitary2()) {
        prop_assert!(u.is_unitary(1e-9));
    }

    #[test]
    fn unitaries_preserve_norm(u in unitary2(), v in cvector(2)) {
        let before = v.norm();
        let after = u.apply(&v).norm();
        prop_assert!(approx_eq(before, after, 1e-8));
    }

    #[test]
    fn kron_of_unitaries_is_unitary(u in unitary2(), w in unitary2()) {
        prop_assert!(u.kron(&w).is_unitary(1e-8));
    }

    #[test]
    fn outer_product_trace_is_inner_product(a in cvector(3), b in cvector(3)) {
        // tr(|a⟩⟨b|) = ⟨b|a⟩
        let m = CMatrix::outer(&a, &b);
        prop_assert!(approx_eq_c(m.trace(), b.inner(&a), 1e-7));
    }
}
