//! Bit-identity properties of the compiled channel kernels.
//!
//! [`KrausChannel::compile`] promises that applying a [`CompiledChannel`]
//! replays the exact floating-point operation sequence of the one-shot
//! methods — not merely "close", but the same bits. These properties pin
//! that contract across random channels, placements, register sizes, and
//! input states, on both simulation substrates (exact density application
//! and sampled statevector / density trajectories). Comparisons use
//! `f64::to_bits`, so a single ULP of drift fails.

use crate::KrausChannel;
use mathkit::complex::Complex64;
use proptest::prelude::*;
use qsim::density::DensityMatrix;
use qsim::gates;
use qsim::statevector::StateVector;
use rand::{Rng, SeedableRng};

/// A random channel from the library's constructors, with its arity.
fn channel() -> impl Strategy<Value = KrausChannel> {
    prop_oneof![
        (0.0..1.0f64).prop_map(KrausChannel::depolarizing),
        (0.0..1.0f64).prop_map(KrausChannel::bit_flip),
        (0.0..1.0f64).prop_map(KrausChannel::phase_flip),
        (0.0..1.0f64).prop_map(KrausChannel::amplitude_damping),
        (0.0..1.0f64).prop_map(KrausChannel::phase_damping),
        (0.0..1.0f64).prop_map(KrausChannel::depolarizing_two_qubit),
    ]
}

/// A random register state: seeded single-qubit rotations plus entangling
/// gates, so the density matrix has no special structure the kernels could
/// accidentally rely on.
fn random_state(num_qubits: usize, seed: u64) -> StateVector {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut psi = StateVector::new(num_qubits);
    for qubit in 0..num_qubits {
        let (theta, phi, lambda) = (rng.gen::<f64>() * 3.0, rng.gen::<f64>(), rng.gen::<f64>());
        psi.apply_single(&gates::u3(theta, phi, lambda), qubit);
    }
    for qubit in 1..num_qubits {
        psi.apply_two(&gates::cnot(), qubit - 1, qubit);
    }
    psi
}

/// Distinct targets for an `arity`-qubit channel on a `num_qubits` register,
/// derived from a free index choice.
fn targets(arity: usize, num_qubits: usize, pick: usize) -> Vec<usize> {
    match arity {
        1 => vec![pick % num_qubits],
        2 => {
            let a = pick % num_qubits;
            let b = (a + 1 + pick / num_qubits % (num_qubits - 1)) % num_qubits;
            vec![a, b]
        }
        other => panic!("no library channel has arity {other}"),
    }
}

fn density_bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
    rho.matrix()
        .as_slice()
        .iter()
        .map(|z: &Complex64| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn state_bits(psi: &StateVector) -> Vec<(u64, u64)> {
    psi.amplitudes()
        .iter()
        .map(|z: &Complex64| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

proptest! {
    /// Exact density-matrix application: compiled kernels reproduce the
    /// one-shot embed-and-apply path bit for bit, across every placement —
    /// the dim-4 fast path (2-qubit registers), the strided targeted path
    /// (3..=4), and the legacy embed fallback (5+).
    #[test]
    fn compiled_apply_is_bit_identical_to_one_shot(
        channel in channel(),
        num_qubits in 2usize..6,
        pick in 0usize..64,
        seed in 0u64..1000,
    ) {
        let targets = targets(channel.num_qubits(), num_qubits, pick);
        let base = DensityMatrix::from_statevector(&random_state(num_qubits, seed));
        let compiled = channel.compile(&targets, num_qubits);

        let mut fast = base.clone();
        compiled.apply(&mut fast);
        let mut slow = base;
        channel.apply(&mut slow, &targets);

        prop_assert_eq!(density_bits(&fast), density_bits(&slow));
    }

    /// Sampled statevector trajectories: same seed, same branch choice,
    /// same post-state bits as the qsim reference sampler.
    #[test]
    fn compiled_sample_is_bit_identical_on_statevector(
        channel in channel(),
        num_qubits in 2usize..6,
        pick in 0usize..64,
        seed in 0u64..1000,
        steps in 1usize..8,
    ) {
        let targets = targets(channel.num_qubits(), num_qubits, pick);
        let base = random_state(num_qubits, seed);
        let compiled = channel.compile(&targets, num_qubits);

        let mut fast = base.clone();
        let mut slow = base;
        let mut fast_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut slow_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..steps {
            let fast_branch = compiled.sample(&mut fast, &mut fast_rng).unwrap();
            let slow_branch = slow
                .apply_kraus_sampled(channel.operators(), &targets, &mut slow_rng)
                .unwrap();
            prop_assert_eq!(fast_branch, slow_branch);
            prop_assert_eq!(state_bits(&fast), state_bits(&slow));
        }
    }

    /// Sampled density trajectories: the mixed-state unravelling agrees the
    /// same way.
    #[test]
    fn compiled_sample_density_is_bit_identical(
        channel in channel(),
        num_qubits in 2usize..5,
        pick in 0usize..64,
        seed in 0u64..1000,
        steps in 1usize..6,
    ) {
        let targets = targets(channel.num_qubits(), num_qubits, pick);
        let base = DensityMatrix::from_statevector(&random_state(num_qubits, seed));
        let compiled = channel.compile(&targets, num_qubits);

        let mut fast = base.clone();
        let mut slow = base;
        let mut fast_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xd1ce);
        let mut slow_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xd1ce);
        for _ in 0..steps {
            let fast_branch = compiled.sample_density(&mut fast, &mut fast_rng).unwrap();
            let slow_branch = slow
                .apply_kraus_sampled(channel.operators(), &targets, &mut slow_rng)
                .unwrap();
            prop_assert_eq!(fast_branch, slow_branch);
            prop_assert_eq!(density_bits(&fast), density_bits(&slow));
        }
    }
}
