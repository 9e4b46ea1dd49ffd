//! Property-based tests for the quantum simulator.

use crate::bell::{bell_measure, BellState};
use crate::gates;
use crate::measurement::MeasurementOutcome;
use crate::pauli::Pauli;
use crate::statevector::StateVector;
use mathkit::complex::Complex64;
use proptest::prelude::*;
use rand::SeedableRng;

fn angle() -> impl Strategy<Value = f64> {
    -std::f64::consts::PI..std::f64::consts::PI
}

fn pauli() -> impl Strategy<Value = Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::Z),
        Just(Pauli::X),
        Just(Pauli::IY),
    ]
}

fn bell_state() -> impl Strategy<Value = BellState> {
    prop_oneof![
        Just(BellState::PhiPlus),
        Just(BellState::PhiMinus),
        Just(BellState::PsiPlus),
        Just(BellState::PsiMinus),
    ]
}

proptest! {
    /// Any sequence of gates drawn from the protocol's alphabet keeps the state normalised.
    #[test]
    fn unitary_evolution_preserves_normalisation(
        seed in 0u64..1000,
        ops in prop::collection::vec(0usize..6, 1..40),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut state = StateVector::new(3);
        for op in ops {
            match op {
                0 => state.apply_single(&gates::hadamard(), 0),
                1 => state.apply_single(&gates::pauli_x(), 1),
                2 => state.apply_single(&gates::rz(std::f64::consts::FRAC_PI_2), 2),
                3 => state.apply_two(&gates::cnot(), 0, 1),
                4 => state.apply_two(&gates::controlled(&gates::pauli_z()), 1, 2),
                _ => { let _ = state.measure(0, &mut rng); }
            }
            prop_assert!(state.is_normalized(1e-8));
        }
    }

    /// U3 unitaries with arbitrary Euler angles keep probabilities summing to one.
    #[test]
    fn arbitrary_single_qubit_rotations_preserve_probability(
        theta in angle(), phi in angle(), lambda in angle()
    ) {
        let mut state = StateVector::new(2);
        state.apply_single(&gates::u3(theta, phi, lambda), 0);
        state.apply_single(&gates::u3(lambda, theta, phi), 1);
        let total: f64 = state.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// The Pauli-encoding / Bell-measurement round trip always recovers the encoded operator,
    /// regardless of which Bell state the pair started in.
    #[test]
    fn pauli_encoding_round_trip(start in bell_state(), p in pauli(), seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut state = start.statevector();
        state.apply_single(&p.matrix(), 0);
        let outcome = bell_measure(&mut state, 0, 1, &mut rng);
        prop_assert_eq!(outcome.state, start.after_pauli(p));
    }

    /// Cover operations compose: applying cover then encoding equals applying the composed
    /// Pauli (this is the algebra the authentication step relies on).
    #[test]
    fn cover_operation_composition(cover in pauli(), encode in pauli(), seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut state = BellState::PhiPlus.statevector();
        state.apply_single(&cover.matrix(), 0);
        state.apply_single(&encode.matrix(), 0);
        let outcome = bell_measure(&mut state, 0, 1, &mut rng);
        prop_assert_eq!(outcome.state.encoding_pauli(), cover.compose(encode));
    }

    /// Basis-change measurement statistics: measuring the +1 eigenstate of B(θ) in basis B(θ)
    /// always yields +1, for any θ.
    #[test]
    fn basis_eigenstate_measurement_is_deterministic(theta in angle(), seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let amps = mathkit::vector::CVector::new(vec![
            Complex64::real(std::f64::consts::FRAC_1_SQRT_2),
            Complex64::cis(theta) * std::f64::consts::FRAC_1_SQRT_2,
        ]);
        let mut state = StateVector::from_amplitudes(amps).unwrap();
        prop_assert_eq!(state.measure_in_basis(0, theta, &mut rng), MeasurementOutcome::Plus);
    }

    /// The analytic CHSH value never exceeds Tsirelson's bound for any two-qubit pure state
    /// reachable by local rotations of a Bell state.
    #[test]
    fn chsh_respects_tsirelson(theta in angle(), phi in angle(), lambda in angle()) {
        let mut state = BellState::PhiPlus.statevector();
        state.apply_single(&gates::u3(theta, phi, lambda), 0);
        let s = crate::chsh::analytic_chsh(&state);
        prop_assert!(s.abs() <= crate::chsh::TSIRELSON_BOUND + 1e-9);
    }

    /// Sampling indices from any circuit-produced state only returns indices with non-zero
    /// probability.
    #[test]
    fn sampling_respects_support(seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut state = StateVector::new(2);
        state.apply_single(&gates::hadamard(), 0);
        state.apply_two(&gates::cnot(), 0, 1);
        let probs = state.probabilities();
        for idx in state.sample_indices(200, &mut rng) {
            prop_assert!(probs[idx] > 0.0);
        }
    }
}
