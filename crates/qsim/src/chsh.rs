//! CHSH polynomial estimation.
//!
//! Both rounds of the DI security check estimate the CHSH polynomial
//! `S = ⟨a1 b1⟩ + ⟨a1 b2⟩ + ⟨a2 b1⟩ − ⟨a2 b2⟩` from measurement records collected on the
//! check pairs; the protocol continues only if `S > 2` (no local-hidden-variable model).
//! This module provides the record type, the finite-sample estimator and the analytic value
//! for an arbitrary two-qubit state.

use crate::measurement::{MeasurementBasis, MeasurementOutcome};
use crate::statevector::StateVector;
use mathkit::complex::Complex64;
use mathkit::matrix::CMatrix;
use serde::{Deserialize, Serialize};

/// The ideal CHSH value achievable by quantum mechanics (Tsirelson's bound), `2√2`.
pub const TSIRELSON_BOUND: f64 = 2.0 * std::f64::consts::SQRT_2;

/// One DI-check measurement event: which bases Alice and Bob chose and what they observed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurementRecord {
    /// Index of Alice's basis (1 or 2 participate in CHSH; 0 is the key-round basis `A0`).
    pub alice_setting: usize,
    /// Index of Bob's basis (1 or 2).
    pub bob_setting: usize,
    /// Alice's ±1 outcome.
    pub alice_outcome: MeasurementOutcome,
    /// Bob's ±1 outcome.
    pub bob_outcome: MeasurementOutcome,
}

impl MeasurementRecord {
    /// Creates a record.
    pub fn new(
        alice_setting: usize,
        bob_setting: usize,
        alice_outcome: MeasurementOutcome,
        bob_outcome: MeasurementOutcome,
    ) -> Self {
        Self {
            alice_setting,
            bob_setting,
            alice_outcome,
            bob_outcome,
        }
    }

    /// The product of the two ±1 outcomes.
    pub(crate) fn product(&self) -> f64 {
        self.alice_outcome.value() * self.bob_outcome.value()
    }
}

/// Estimates the correlator `⟨a_j b_k⟩` from the records with Alice setting `j` and Bob
/// setting `k`. Returns `None` when no record matches (the caller decides whether that is an
/// abort condition). The reference the one-pass [`chsh_value`] is held to.
#[cfg(test)]
pub(crate) fn correlator(
    records: &[MeasurementRecord],
    alice_setting: usize,
    bob_setting: usize,
) -> Option<f64> {
    let mut tally = Tally::default();
    for record in records {
        if record.alice_setting == alice_setting && record.bob_setting == bob_setting {
            tally.add(record);
        }
    }
    tally.mean()
}

/// Estimates the CHSH polynomial `S = ⟨a1 b1⟩ + ⟨a1 b2⟩ + ⟨a2 b1⟩ − ⟨a2 b2⟩` from measurement
/// records. Returns `None` if any of the four setting combinations has no data.
///
/// One pass over the records; each correlator adds its products in record order.
pub fn chsh_value(records: &[MeasurementRecord]) -> Option<f64> {
    let mut tallies = [[Tally::default(); 2]; 2];
    for record in records {
        if let (1..=2, 1..=2) = (record.alice_setting, record.bob_setting) {
            tallies[record.alice_setting - 1][record.bob_setting - 1].add(record);
        }
    }
    let [[t11, t12], [t21, t22]] = tallies;
    Some(t11.mean()? + t12.mean()? + t21.mean()? - t22.mean()?)
}

/// Running sum and count of the record products of one setting pair.
#[derive(Clone, Copy, Default)]
struct Tally {
    sum: f64,
    count: usize,
}

impl Tally {
    fn add(&mut self, record: &MeasurementRecord) {
        self.sum += record.product();
        self.count += 1;
    }

    fn mean(self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// The observable measured by a basis `B(θ) = {|0⟩ ± e^{iθ}|1⟩}`: `cos θ·X + sin θ·Y`.
pub(crate) fn basis_observable(theta: f64) -> CMatrix {
    let x = crate::gates::pauli_x();
    let y = crate::gates::pauli_y();
    &x.scale(Complex64::real(theta.cos())) + &y.scale(Complex64::real(theta.sin()))
}

/// Analytic correlator `⟨O(θ_A) ⊗ O(θ_B)⟩` for an arbitrary two-qubit pure state.
pub fn analytic_correlator(state: &StateVector, theta_a: f64, theta_b: f64) -> f64 {
    assert_eq!(
        state.num_qubits(),
        2,
        "analytic correlator is defined for two qubits"
    );
    let obs = basis_observable(theta_a).kron(&basis_observable(theta_b));
    state.expectation(&obs)
}

/// Analytic CHSH value of a two-qubit pure state using the protocol's measurement bases.
pub fn analytic_chsh(state: &StateVector) -> f64 {
    let a1 = MeasurementBasis::alice(1).angle();
    let a2 = MeasurementBasis::alice(2).angle();
    let b1 = MeasurementBasis::bob(1).angle();
    let b2 = MeasurementBasis::bob(2).angle();
    analytic_correlator(state, a1, b1)
        + analytic_correlator(state, a1, b2)
        + analytic_correlator(state, a2, b1)
        - analytic_correlator(state, a2, b2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bell::BellState;
    use crate::measurement::MeasurementOutcome::{Minus, Plus};

    #[test]
    fn tsirelson_bound_value() {
        assert!((TSIRELSON_BOUND - 2.828_427).abs() < 1e-5);
    }

    #[test]
    fn correlator_of_perfectly_correlated_records() {
        let records = vec![
            MeasurementRecord::new(1, 1, Plus, Plus),
            MeasurementRecord::new(1, 1, Minus, Minus),
            MeasurementRecord::new(1, 2, Plus, Minus),
        ];
        assert_eq!(correlator(&records, 1, 1), Some(1.0));
        assert_eq!(correlator(&records, 1, 2), Some(-1.0));
        assert_eq!(correlator(&records, 2, 2), None);
    }

    #[test]
    fn chsh_value_requires_all_settings() {
        let mut records = vec![
            MeasurementRecord::new(1, 1, Plus, Plus),
            MeasurementRecord::new(1, 2, Plus, Plus),
            MeasurementRecord::new(2, 1, Plus, Plus),
        ];
        assert_eq!(chsh_value(&records), None);
        records.push(MeasurementRecord::new(2, 2, Plus, Minus));
        assert_eq!(chsh_value(&records), Some(4.0));
    }

    #[test]
    fn record_product() {
        assert_eq!(MeasurementRecord::new(1, 1, Plus, Minus).product(), -1.0);
        assert_eq!(MeasurementRecord::new(1, 1, Minus, Minus).product(), 1.0);
    }

    #[test]
    fn analytic_chsh_of_phi_plus_reaches_tsirelson() {
        let state = BellState::PhiPlus.statevector();
        let s = analytic_chsh(&state);
        assert!(
            (s - TSIRELSON_BOUND).abs() < 1e-10,
            "Φ+ with the protocol bases must reach 2√2, got {s}"
        );
    }

    #[test]
    fn analytic_chsh_of_product_state_respects_classical_bound() {
        let state = StateVector::new(2); // |00⟩
        let s = analytic_chsh(&state);
        assert!(
            s.abs() <= 2.0 + 1e-9,
            "separable state must not violate CHSH, got {s}"
        );
    }

    #[test]
    fn analytic_correlator_matches_cosine_law() {
        // For Φ+ and equatorial observables, E(θa, θb) = cos(θa + θb).
        let state = BellState::PhiPlus.statevector();
        for (ta, tb) in [(0.0, 0.3), (0.7, -0.2), (1.2, 1.2)] {
            let e = analytic_correlator(&state, ta, tb);
            assert!((e - (ta + tb).cos()).abs() < 1e-10);
        }
    }

    #[test]
    fn basis_observable_is_hermitian_and_unit_eigenvalues() {
        for theta in [0.0, 0.4, -1.3] {
            let o = basis_observable(theta);
            assert!(o.is_hermitian(1e-12));
            let eigs = o.eigenvalues_hermitian_2x2();
            assert!((eigs[0] + 1.0).abs() < 1e-12);
            assert!((eigs[1] - 1.0).abs() < 1e-12);
        }
    }
}
