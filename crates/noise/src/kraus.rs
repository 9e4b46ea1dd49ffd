//! Kraus-operator noise channels.
//!
//! Every noise process in the reproduction is a completely-positive trace-preserving (CPTP)
//! map written as a set of Kraus operators `{K_i}` with `Σ K_i† K_i = I`. The constructors
//! here cover the textbook single-qubit channels plus the composite *thermal relaxation*
//! channel used to model idling qubits on `ibm_brisbane`.

use crate::compiled::CompiledChannel;
use mathkit::complex::Complex64;
use mathkit::matrix::CMatrix;
use qsim::density::DensityMatrix;
use qsim::gates;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A named CPTP map given by its Kraus operators.
///
/// # Examples
///
/// ```rust
/// use noise::KrausChannel;
///
/// let channel = KrausChannel::depolarizing(0.1);
/// assert!(channel.is_trace_preserving(1e-10));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KrausChannel {
    name: String,
    operators: Vec<CMatrix>,
}

impl KrausChannel {
    /// Creates a channel from raw Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics if the operator list is empty, the operators have mismatched dimensions, or the
    /// completeness relation `Σ K_i† K_i = I` fails by more than `1e-6`.
    pub fn new<S: Into<String>>(name: S, operators: Vec<CMatrix>) -> Self {
        assert!(
            !operators.is_empty(),
            "a Kraus channel needs at least one operator"
        );
        let dim = operators[0].rows();
        assert!(
            operators.iter().all(|k| k.rows() == dim && k.cols() == dim),
            "all Kraus operators must be square with equal dimension"
        );
        let channel = Self {
            name: name.into(),
            operators,
        };
        assert!(
            channel.is_trace_preserving(1e-6),
            "Kraus operators do not satisfy the completeness relation"
        );
        channel
    }

    /// The identity (noiseless) channel on a single qubit.
    pub fn identity() -> Self {
        Self {
            name: "identity".into(),
            operators: vec![gates::identity()],
        }
    }

    /// Single-qubit depolarizing channel: with probability `p` the state is replaced by one
    /// of the three non-identity Paulis chosen uniformly (`p/4` each, identity `1 − 3p/4`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn depolarizing(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        let ops = vec![
            gates::identity().scale(Complex64::real((1.0 - 3.0 * p / 4.0).sqrt())),
            gates::pauli_x().scale(Complex64::real((p / 4.0).sqrt())),
            gates::pauli_y().scale(Complex64::real((p / 4.0).sqrt())),
            gates::pauli_z().scale(Complex64::real((p / 4.0).sqrt())),
        ];
        Self {
            name: format!("depolarizing(p={p})"),
            operators: ops,
        }
    }

    /// Two-qubit depolarizing channel: with probability `p` one of the 15 non-identity
    /// two-qubit Pauli products is applied (uniformly).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub(crate) fn depolarizing_two_qubit(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        let paulis = [
            gates::identity(),
            gates::pauli_x(),
            gates::pauli_y(),
            gates::pauli_z(),
        ];
        let mut ops = Vec::with_capacity(16);
        for (i, a) in paulis.iter().enumerate() {
            for (j, b) in paulis.iter().enumerate() {
                let weight = if i == 0 && j == 0 {
                    1.0 - 15.0 * p / 16.0
                } else {
                    p / 16.0
                };
                ops.push(a.kron(b).scale(Complex64::real(weight.sqrt())));
            }
        }
        Self {
            name: format!("depolarizing2q(p={p})"),
            operators: ops,
        }
    }

    /// Bit-flip channel: applies `X` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub(crate) fn bit_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        Self {
            name: format!("bit_flip(p={p})"),
            operators: vec![
                gates::identity().scale(Complex64::real((1.0 - p).sqrt())),
                gates::pauli_x().scale(Complex64::real(p.sqrt())),
            ],
        }
    }

    /// Phase-flip channel: applies `Z` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn phase_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        Self {
            name: format!("phase_flip(p={p})"),
            operators: vec![
                gates::identity().scale(Complex64::real((1.0 - p).sqrt())),
                gates::pauli_z().scale(Complex64::real(p.sqrt())),
            ],
        }
    }

    /// Amplitude-damping channel with decay probability `gamma` (models T1 relaxation).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is outside `[0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        let k0 = CMatrix::from_rows(&[
            vec![Complex64::ONE, Complex64::ZERO],
            vec![Complex64::ZERO, Complex64::real((1.0 - gamma).sqrt())],
        ]);
        let k1 = CMatrix::from_rows(&[
            vec![Complex64::ZERO, Complex64::real(gamma.sqrt())],
            vec![Complex64::ZERO, Complex64::ZERO],
        ]);
        Self {
            name: format!("amplitude_damping(γ={gamma})"),
            operators: vec![k0, k1],
        }
    }

    /// Phase-damping channel with dephasing probability `lambda` (models pure dephasing).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside `[0, 1]`.
    pub(crate) fn phase_damping(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
        let k0 = CMatrix::from_rows(&[
            vec![Complex64::ONE, Complex64::ZERO],
            vec![Complex64::ZERO, Complex64::real((1.0 - lambda).sqrt())],
        ]);
        let k1 = CMatrix::from_rows(&[
            vec![Complex64::ZERO, Complex64::ZERO],
            vec![Complex64::ZERO, Complex64::real(lambda.sqrt())],
        ]);
        Self {
            name: format!("phase_damping(λ={lambda})"),
            operators: vec![k0, k1],
        }
    }

    /// Thermal-relaxation channel for a qubit idling for `duration_ns` on hardware with the
    /// given `t1_us` and `t2_us` times: amplitude damping with `γ = 1 − e^{−t/T1}` composed
    /// with pure dephasing chosen so the total coherence decay matches `e^{−t/T2}`.
    ///
    /// # Panics
    ///
    /// Panics if the times are non-positive or `t2 > 2·t1` (unphysical).
    pub(crate) fn thermal_relaxation(t1_us: f64, t2_us: f64, duration_ns: f64) -> Self {
        assert!(t1_us > 0.0 && t2_us > 0.0, "T1 and T2 must be positive");
        assert!(
            t2_us <= 2.0 * t1_us + 1e-12,
            "T2 must not exceed 2·T1 (got T1={t1_us}, T2={t2_us})"
        );
        assert!(duration_ns >= 0.0, "duration must be non-negative");
        let t_us = duration_ns / 1000.0;
        let gamma = 1.0 - (-t_us / t1_us).exp();
        // Pure-dephasing rate: 1/Tφ = 1/T2 − 1/(2 T1).
        let inv_tphi = (1.0 / t2_us - 1.0 / (2.0 * t1_us)).max(0.0);
        let lambda = 1.0 - (-t_us * inv_tphi).exp();
        let damping = Self::amplitude_damping(gamma);
        let dephasing = Self::phase_damping(lambda);
        let mut composed = dephasing.compose(&damping);
        composed.name =
            format!("thermal_relaxation(T1={t1_us}µs, T2={t2_us}µs, t={duration_ns}ns)");
        composed
    }

    /// Channel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The Kraus operators of the channel.
    pub(crate) fn operators(&self) -> &[CMatrix] {
        &self.operators
    }

    /// Dimension the channel acts on (2 for single-qubit, 4 for two-qubit).
    pub(crate) fn dim(&self) -> usize {
        self.operators[0].rows()
    }

    /// Number of qubits the channel acts on.
    pub fn num_qubits(&self) -> usize {
        self.dim().trailing_zeros() as usize
    }

    /// Checks the completeness relation `Σ K_i† K_i = I` to within `tol`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        let dim = self.dim();
        let mut sum = CMatrix::zeros(dim, dim);
        for k in &self.operators {
            sum = &sum + &k.adjoint().matmul(k);
        }
        sum.approx_eq(&CMatrix::identity(dim), tol)
    }

    /// Sequential composition: `self ∘ other` (apply `other` first, then `self`).
    ///
    /// # Panics
    ///
    /// Panics if the channels act on different dimensions.
    pub fn compose(&self, other: &KrausChannel) -> KrausChannel {
        assert_eq!(
            self.dim(),
            other.dim(),
            "cannot compose channels of different dimensions"
        );
        let mut ops = Vec::with_capacity(self.operators.len() * other.operators.len());
        for a in &self.operators {
            for b in &other.operators {
                ops.push(a.matmul(b));
            }
        }
        KrausChannel {
            name: format!("{} ∘ {}", self.name, other.name),
            operators: ops,
        }
    }

    /// Compiles this channel against a fixed `(targets, num_qubits)`
    /// placement — the fast path for channels applied more than a handful
    /// of times (see [`crate::compiled`]).
    ///
    /// The compiled form precomputes the embedded operators, their
    /// adjoints, the sparse structure the kernels iterate, and the strided
    /// index tables for targeted-qubit application; applying it is
    /// bit-identical to the one-shot methods on this type but performs no
    /// per-call validation, embedding, or steady-state heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if the target list length does not match the channel arity,
    /// or the targets are invalid for a `num_qubits` register (the checks
    /// the one-shot methods perform per call happen here, once).
    pub fn compile(&self, targets: &[usize], num_qubits: usize) -> CompiledChannel {
        self.check_arity(targets);
        CompiledChannel::new(self, targets, num_qubits)
    }

    /// Applies the channel to the given qubits of a density matrix.
    ///
    /// One-shot convenience: validates and embeds per call. For repeated
    /// application of the same placement, [`compile`](Self::compile) first.
    ///
    /// # Panics
    ///
    /// Panics if the target list length does not match the channel arity or the targets are
    /// invalid for the register.
    pub fn apply(&self, rho: &mut DensityMatrix, qubits: &[usize]) {
        self.check_arity(qubits);
        rho.apply_kraus(&self.operators, qubits);
    }

    fn check_arity(&self, qubits: &[usize]) {
        assert_eq!(
            qubits.len(),
            self.num_qubits(),
            "channel acts on {} qubit(s) but {} target(s) were given",
            self.num_qubits(),
            qubits.len()
        );
    }

    /// Average gate fidelity of this single-qubit channel with respect to the identity,
    /// computed via the entanglement fidelity of one half of a `|Φ+⟩` pair:
    /// `F_avg = (2 F_e + 1) / 3`.
    ///
    /// # Panics
    ///
    /// Panics if called on a multi-qubit channel.
    #[cfg(test)]
    pub(crate) fn average_fidelity(&self) -> f64 {
        assert_eq!(
            self.num_qubits(),
            1,
            "average_fidelity is defined for single-qubit channels"
        );
        let bell = qsim::bell::BellState::PhiPlus.statevector();
        let mut rho = DensityMatrix::from_statevector(&bell);
        rho.apply_kraus(&self.operators, &[0]);
        let entanglement_fidelity = rho.fidelity_with_pure(&bell);
        (2.0 * entanglement_fidelity + 1.0) / 3.0
    }
}

impl fmt::Display for KrausChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} Kraus operators)",
            self.name,
            self.operators.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::bell::BellState;
    use qsim::statevector::StateVector;

    #[test]
    fn constructors_are_trace_preserving() {
        let channels = vec![
            KrausChannel::identity(),
            KrausChannel::depolarizing(0.3),
            KrausChannel::depolarizing_two_qubit(0.2),
            KrausChannel::bit_flip(0.1),
            KrausChannel::phase_flip(0.25),
            KrausChannel::amplitude_damping(0.4),
            KrausChannel::phase_damping(0.15),
            KrausChannel::thermal_relaxation(233.04, 145.75, 60.0),
        ];
        for c in channels {
            assert!(c.is_trace_preserving(1e-9), "{c} is not trace preserving");
        }
    }

    #[test]
    #[should_panic(expected = "completeness")]
    fn new_rejects_incomplete_operators() {
        let _ = KrausChannel::new(
            "broken",
            vec![gates::identity().scale(Complex64::real(0.5))],
        );
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn depolarizing_rejects_bad_probability() {
        let _ = KrausChannel::depolarizing(1.5);
    }

    #[test]
    fn identity_channel_changes_nothing() {
        let mut rho = DensityMatrix::from_statevector(&BellState::PhiPlus.statevector());
        let before = rho.clone();
        KrausChannel::identity().apply(&mut rho, &[0]);
        assert_eq!(rho, before);
    }

    #[test]
    fn depolarizing_limits() {
        // p = 0 → identity; p = 1 → maximally mixed single-qubit marginal.
        let mut rho = DensityMatrix::new(1);
        KrausChannel::depolarizing(0.0).apply(&mut rho, &[0]);
        assert!((rho.probability_one(0) - 0.0).abs() < 1e-12);
        let mut rho = DensityMatrix::new(1);
        KrausChannel::depolarizing(1.0).apply(&mut rho, &[0]);
        assert!((rho.probability_one(0) - 0.5).abs() < 1e-10);
        assert!((rho.purity() - 0.5).abs() < 1e-10);
    }

    #[test]
    fn bit_flip_flips_with_given_probability() {
        let mut rho = DensityMatrix::new(1);
        KrausChannel::bit_flip(0.3).apply(&mut rho, &[0]);
        assert!((rho.probability_one(0) - 0.3).abs() < 1e-10);
    }

    #[test]
    fn phase_flip_leaves_populations_untouched() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_single(&gates::hadamard(), 0);
        let before_p1 = rho.probability_one(0);
        KrausChannel::phase_flip(0.4).apply(&mut rho, &[0]);
        assert!((rho.probability_one(0) - before_p1).abs() < 1e-10);
        // but coherence (purity) is reduced
        assert!(rho.purity() < 1.0);
    }

    #[test]
    fn amplitude_damping_decays_towards_ground_state() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_single(&gates::pauli_x(), 0); // |1⟩
        KrausChannel::amplitude_damping(0.6).apply(&mut rho, &[0]);
        assert!((rho.probability_one(0) - 0.4).abs() < 1e-10);
        // Full damping lands exactly in |0⟩.
        let mut rho = DensityMatrix::new(1);
        rho.apply_single(&gates::pauli_x(), 0);
        KrausChannel::amplitude_damping(1.0).apply(&mut rho, &[0]);
        assert!((rho.probability_one(0) - 0.0).abs() < 1e-10);
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn thermal_relaxation_with_zero_duration_is_identity() {
        let c = KrausChannel::thermal_relaxation(233.04, 145.75, 0.0);
        let mut rho = DensityMatrix::from_statevector(&BellState::PhiPlus.statevector());
        let before = rho.clone();
        c.apply(&mut rho, &[0]);
        assert!(rho.matrix().approx_eq(before.matrix(), 1e-10));
    }

    #[test]
    fn thermal_relaxation_reduces_bell_fidelity_monotonically() {
        let bell = BellState::PhiPlus.statevector();
        let mut last = 1.0;
        for duration in [60.0, 600.0, 6000.0, 42_000.0] {
            let c = KrausChannel::thermal_relaxation(233.04, 145.75, duration);
            let mut rho = DensityMatrix::from_statevector(&bell);
            c.apply(&mut rho, &[0]);
            let f = rho.fidelity_with_pure(&bell);
            assert!(f < last, "fidelity must decrease with idle time");
            last = f;
        }
        assert!(last > 0.5, "42µs idle should not fully destroy the pair");
    }

    #[test]
    #[should_panic(expected = "T2 must not exceed")]
    fn thermal_relaxation_rejects_unphysical_t2() {
        let _ = KrausChannel::thermal_relaxation(100.0, 300.0, 60.0);
    }

    #[test]
    fn composition_matches_sequential_application() {
        let a = KrausChannel::bit_flip(0.2);
        let b = KrausChannel::phase_flip(0.3);
        let composed = a.compose(&b);
        assert!(composed.is_trace_preserving(1e-9));

        let mut rho_seq = DensityMatrix::new(1);
        rho_seq.apply_single(&gates::hadamard(), 0);
        b.apply(&mut rho_seq, &[0]);
        a.apply(&mut rho_seq, &[0]);

        let mut rho_comp = DensityMatrix::new(1);
        rho_comp.apply_single(&gates::hadamard(), 0);
        composed.apply(&mut rho_comp, &[0]);

        assert!(rho_seq.matrix().approx_eq(rho_comp.matrix(), 1e-10));
    }

    #[test]
    fn two_qubit_depolarizing_acts_on_pairs() {
        let mut rho = DensityMatrix::from_statevector(&BellState::PhiPlus.statevector());
        KrausChannel::depolarizing_two_qubit(0.1).apply(&mut rho, &[0, 1]);
        let f = rho.fidelity_with_pure(&BellState::PhiPlus.statevector());
        assert!(f < 1.0 && f > 0.85);
    }

    #[test]
    fn average_fidelity_of_identity_and_depolarizing() {
        assert!((KrausChannel::identity().average_fidelity() - 1.0).abs() < 1e-10);
        // Depolarizing with parameter p has F_avg = 1 − p/2 under this convention.
        let p = 0.2;
        let f = KrausChannel::depolarizing(p).average_fidelity();
        assert!((f - (1.0 - p / 2.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "channel acts on")]
    fn apply_with_wrong_arity_panics() {
        let mut rho = DensityMatrix::new(2);
        KrausChannel::depolarizing(0.1).apply(&mut rho, &[0, 1]);
    }

    #[test]
    fn applying_noise_only_to_one_half_of_a_bell_pair_keeps_probabilities_valid() {
        let mut rho = DensityMatrix::from_statevector(&BellState::PhiPlus.statevector());
        KrausChannel::thermal_relaxation(233.04, 145.75, 42_000.0).apply(&mut rho, &[0]);
        let probs = rho.probabilities();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| p >= -1e-12));
        // The state is still closer to Φ+ than to any other Bell state.
        let f_target = rho.fidelity_with_pure(&BellState::PhiPlus.statevector());
        for other in [BellState::PhiMinus, BellState::PsiPlus, BellState::PsiMinus] {
            assert!(f_target > rho.fidelity_with_pure(&other.statevector()));
        }
    }

    #[test]
    fn display_includes_name_and_operator_count() {
        let c = KrausChannel::depolarizing(0.5);
        let text = c.to_string();
        assert!(text.contains("depolarizing"));
        assert!(text.contains('4'));
        assert_eq!(c.num_qubits(), 1);
        assert_eq!(KrausChannel::depolarizing_two_qubit(0.1).num_qubits(), 2);
    }

    #[test]
    fn trajectory_step_matches_channel_statistics_on_statevectors() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let channel = KrausChannel::bit_flip(0.3);
        let mut flips = 0;
        let n = 4000;
        for _ in 0..n {
            let mut psi = StateVector::new(1);
            if psi
                .apply_kraus_sampled(channel.operators(), &[0], &mut rng)
                .unwrap()
                == 1
            {
                flips += 1;
            }
            assert!(psi.is_normalized(1e-12));
        }
        let frac = flips as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "flip fraction {frac}");
    }

    #[test]
    fn trajectory_mean_approximates_the_exact_channel_on_densities() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let channel = KrausChannel::thermal_relaxation(233.04, 145.75, 6000.0);
        let bell = BellState::PhiPlus.statevector();
        let mut exact = DensityMatrix::from_statevector(&bell);
        channel.apply(&mut exact, &[0]);
        let n = 3000;
        let mut mean = mathkit::CMatrix::zeros(4, 4);
        for _ in 0..n {
            let mut rho = DensityMatrix::from_statevector(&bell);
            rho.apply_kraus_sampled(channel.operators(), &[0], &mut rng)
                .unwrap();
            mean = &mean + rho.matrix();
        }
        mean = mean.scale(Complex64::real(1.0 / n as f64));
        assert!(
            mean.approx_eq(exact.matrix(), 0.03),
            "trajectory mean must approximate the exact channel"
        );
    }

    #[test]
    fn zero_probability_trajectory_branches_are_never_selected() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // bit_flip(0.0) carries an exactly-zero X branch: the trajectory step
        // must never pick it (picking it would renormalise a zero vector).
        let channel = KrausChannel::bit_flip(0.0);
        for _ in 0..200 {
            let mut psi = StateVector::new(1);
            assert_eq!(
                psi.apply_kraus_sampled(channel.operators(), &[0], &mut rng),
                Ok(0)
            );
            assert!(psi.is_normalized(1e-12), "no NaN poisoning");
        }
    }

    #[test]
    #[should_panic(expected = "channel acts on")]
    fn trajectory_step_with_wrong_arity_panics() {
        let _ = KrausChannel::depolarizing(0.1).compile(&[0, 1], 2);
    }

    #[test]
    fn statevector_reference_unchanged_by_channel_on_density_copy() {
        // Sanity: converting to a density matrix and applying noise never mutates the source.
        let psi = StateVector::new(2);
        let mut rho = DensityMatrix::from_statevector(&psi);
        KrausChannel::depolarizing(0.7).apply(&mut rho, &[1]);
        assert!((psi.probabilities()[0] - 1.0).abs() < 1e-12);
    }
}
