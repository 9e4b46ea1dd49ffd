//! Pure-state (statevector) simulation.
//!
//! [`StateVector`] holds the 2^n complex amplitudes of an n-qubit register and supports
//! applying arbitrary unitaries to any subset of qubits, projective measurement (in the
//! computational basis or in the parameterised bases used by the DI security check), and
//! multi-shot sampling.

use crate::error::QsimError;
use crate::gates;
use crate::measurement::MeasurementOutcome;
use mathkit::complex::Complex64;
use mathkit::matrix::CMatrix;
use mathkit::vector::CVector;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A pure quantum state of `n` qubits.
///
/// Qubit `0` is the leftmost (most significant) qubit of the basis label:
/// `|q0 q1 … q_{n-1}⟩` has index `q0·2^{n-1} + … + q_{n-1}`.
///
/// # Examples
///
/// ```rust
/// use qsim::statevector::StateVector;
/// use qsim::gates;
///
/// let mut psi = StateVector::new(2);
/// psi.apply_single(&gates::hadamard(), 0);
/// psi.apply_two(&gates::cnot(), 0, 1);
/// let probs = psi.probabilities();
/// assert!((probs[0] - 0.5).abs() < 1e-12); // |00⟩
/// assert!((probs[3] - 0.5).abs() < 1e-12); // |11⟩
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: CVector,
}

impl StateVector {
    /// Creates the all-zeros state `|0…0⟩` on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero or large enough to overflow the amplitude vector
    /// (more than 24 qubits is rejected to keep memory bounded).
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits > 0, "register must have at least one qubit");
        assert!(
            num_qubits <= 24,
            "statevector simulation limited to 24 qubits"
        );
        let mut amplitudes = CVector::zeros(1 << num_qubits);
        amplitudes[0] = Complex64::ONE;
        Self {
            num_qubits,
            amplitudes,
        }
    }

    /// Creates a state from raw amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if the length is not a power of two and
    /// [`QsimError::NotNormalized`] if the amplitudes are not normalised.
    pub(crate) fn from_amplitudes(amplitudes: CVector) -> Result<Self, QsimError> {
        let len = amplitudes.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(QsimError::DimensionMismatch {
                expected: len.next_power_of_two().max(2),
                actual: len,
            });
        }
        if !amplitudes.is_normalized(1e-8) {
            return Err(QsimError::NotNormalized);
        }
        Ok(Self {
            num_qubits: len.trailing_zeros() as usize,
            amplitudes,
        })
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension of the underlying Hilbert space (`2^n`).
    pub(crate) fn dim(&self) -> usize {
        1 << self.num_qubits
    }

    /// Immutable view of the amplitudes.
    pub fn amplitudes(&self) -> &CVector {
        &self.amplitudes
    }

    /// Mutable view of the amplitudes, for the in-place compiled kernels
    /// (`crate::kernel`). Crate-private: external callers go through the
    /// validated operations so the state stays normalised.
    pub(crate) fn amplitudes_mut(&mut self) -> &mut CVector {
        &mut self.amplitudes
    }

    /// Consumes the state and returns the amplitude vector.
    pub fn into_amplitudes(self) -> CVector {
        self.amplitudes
    }

    /// Born-rule probabilities of all `2^n` basis outcomes.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.probabilities()
    }

    /// Returns `true` when the total probability is within `tol` of 1.
    pub fn is_normalized(&self, tol: f64) -> bool {
        self.amplitudes.is_normalized(tol)
    }

    /// Renormalises the state in place (used after noise injection and by the
    /// sampled trajectory step).
    ///
    /// # Panics
    ///
    /// Panics when the state has (near-)zero norm; use
    /// `StateVector::try_renormalize` for the fallible variant.
    pub fn renormalize(&mut self) {
        self.try_renormalize()
            .expect("renormalize: state has (near-)zero norm");
    }

    /// Renormalises the state in place, guarding against the zero vector.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::ZeroNorm`] when the norm is below
    /// `MIN_NORM` (or not finite): dividing by it would
    /// poison every amplitude with NaN or infinity. The state is left
    /// untouched in that case.
    pub(crate) fn try_renormalize(&mut self) -> Result<(), QsimError> {
        let norm = self.amplitudes.norm();
        if !norm.is_finite() || norm <= Self::MIN_NORM {
            return Err(QsimError::ZeroNorm);
        }
        self.amplitudes = self.amplitudes.scale(Complex64::real(1.0 / norm));
        Ok(())
    }

    /// Smallest norm [`try_renormalize`](Self::try_renormalize) accepts, and
    /// the probability floor below which a Kraus branch counts as impossible
    /// in [`apply_kraus_sampled`](Self::apply_kraus_sampled).
    pub(crate) const MIN_NORM: f64 = 1e-12;

    /// Applies one **sampled trajectory step** of the CPTP map `{K_i}` to the
    /// given qubits: selects branch `i` with the Born probability
    /// `p_i = ‖K_i|ψ⟩‖²` and replaces the state with the renormalised branch
    /// state `K_i|ψ⟩ / √p_i`. Averaging `|ψ⟩⟨ψ|` over many samples reproduces
    /// the exact channel action `Σ_i K_i ρ K_i†` — the Monte-Carlo
    /// wavefunction (quantum-trajectory) unravelling of the channel.
    ///
    /// Exactly one `f64` is drawn from `rng` per call, so a caller's RNG
    /// stream advances identically no matter which branch wins. Branches with
    /// probability at or below `MIN_NORM` are never
    /// selected, so a ≈ 0-probability Kraus operator (e.g. the flip branch of
    /// `bit_flip(0.0)`) cannot zero out the state.
    ///
    /// Returns the index of the selected Kraus operator.
    ///
    /// # Errors
    ///
    /// - The target-validation errors of [`StateVector::try_apply_unitary`]
    ///   (dimension mismatch, out-of-range or duplicate qubits).
    /// - [`QsimError::ZeroNorm`] when every branch has vanishing probability
    ///   (an empty or numerically annihilating operator set); the state is
    ///   left untouched.
    pub fn apply_kraus_sampled<R: Rng + ?Sized>(
        &mut self,
        operators: &[CMatrix],
        qubits: &[usize],
        rng: &mut R,
    ) -> Result<usize, QsimError> {
        let mut branches: Vec<StateVector> = Vec::with_capacity(operators.len());
        let mut probabilities: Vec<f64> = Vec::with_capacity(operators.len());
        for op in operators {
            let mut branch = self.clone();
            branch.try_apply_unitary(op, qubits)?;
            probabilities.push(branch.amplitudes.norm_sqr());
            branches.push(branch);
        }
        let index = sample_branch_index(&probabilities, rng)?;
        let mut chosen = branches.swap_remove(index);
        chosen.try_renormalize()?;
        *self = chosen;
        Ok(index)
    }

    /// Bit position (shift amount) of `qubit` in a basis index.
    #[inline]
    fn bit(&self, qubit: usize) -> usize {
        self.num_qubits - 1 - qubit
    }

    fn check_qubit(&self, qubit: usize) -> Result<(), QsimError> {
        if qubit >= self.num_qubits {
            Err(QsimError::QubitOutOfRange {
                qubit,
                num_qubits: self.num_qubits,
            })
        } else {
            Ok(())
        }
    }

    /// Applies a single-qubit unitary to `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range or the gate is not 2×2. Use
    /// [`StateVector::try_apply_unitary`] for a fallible variant.
    pub fn apply_single(&mut self, gate: &CMatrix, qubit: usize) {
        self.try_apply_unitary(gate, &[qubit])
            .expect("apply_single: invalid gate application");
    }

    /// Applies a two-qubit unitary to `(qubit_a, qubit_b)`, with `qubit_a` the more
    /// significant index of the gate matrix.
    ///
    /// # Panics
    ///
    /// Panics if the qubits are out of range, equal, or the gate is not 4×4.
    pub fn apply_two(&mut self, gate: &CMatrix, qubit_a: usize, qubit_b: usize) {
        self.try_apply_unitary(gate, &[qubit_a, qubit_b])
            .expect("apply_two: invalid gate application");
    }

    /// Applies a `2^k × 2^k` unitary to the ordered list of `k` target qubits.
    ///
    /// The first qubit in `qubits` corresponds to the most significant bit of the gate's
    /// basis ordering.
    ///
    /// # Errors
    ///
    /// - [`QsimError::QubitOutOfRange`] if any target is outside the register.
    /// - [`QsimError::DuplicateQubit`] if a target repeats.
    /// - [`QsimError::DimensionMismatch`] if the matrix dimension is not `2^k`.
    pub fn try_apply_unitary(&mut self, gate: &CMatrix, qubits: &[usize]) -> Result<(), QsimError> {
        let k = qubits.len();
        let gate_dim = 1usize << k;
        if gate.rows() != gate_dim || gate.cols() != gate_dim {
            return Err(QsimError::DimensionMismatch {
                expected: gate_dim,
                actual: gate.rows(),
            });
        }
        for (i, &q) in qubits.iter().enumerate() {
            self.check_qubit(q)?;
            if qubits[..i].contains(&q) {
                return Err(QsimError::DuplicateQubit(q));
            }
        }

        let shifts: Vec<usize> = qubits.iter().map(|&q| self.bit(q)).collect();
        let target_mask: usize = shifts.iter().map(|&s| 1usize << s).sum();
        let dim = self.dim();
        let amps = self.amplitudes.as_mut_slice();

        // Iterate over every basis index whose target bits are all zero; each such index is
        // the anchor of a 2^k-dimensional block the gate acts on.
        let mut scratch_in = vec![Complex64::ZERO; gate_dim];
        let mut scratch_out = vec![Complex64::ZERO; gate_dim];
        for base in 0..dim {
            if base & target_mask != 0 {
                continue;
            }
            // Gather the block.
            #[allow(clippy::needless_range_loop)]
            // `sub` indexes both the scratch block and the bit pattern
            for sub in 0..gate_dim {
                let mut idx = base;
                for (bit_pos, &shift) in shifts.iter().enumerate() {
                    if (sub >> (k - 1 - bit_pos)) & 1 == 1 {
                        idx |= 1 << shift;
                    }
                }
                scratch_in[sub] = amps[idx];
            }
            // Multiply.
            for (row, out) in scratch_out.iter_mut().enumerate() {
                let mut acc = Complex64::ZERO;
                for (col, &amp) in scratch_in.iter().enumerate() {
                    acc += gate[(row, col)] * amp;
                }
                *out = acc;
            }
            // Scatter back.
            #[allow(clippy::needless_range_loop)]
            // `sub` indexes both the scratch block and the bit pattern
            for sub in 0..gate_dim {
                let mut idx = base;
                for (bit_pos, &shift) in shifts.iter().enumerate() {
                    if (sub >> (k - 1 - bit_pos)) & 1 == 1 {
                        idx |= 1 << shift;
                    }
                }
                amps[idx] = scratch_out[sub];
            }
        }
        Ok(())
    }

    /// Probability that measuring `qubit` in the computational basis yields `1`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    pub fn probability_one(&self, qubit: usize) -> f64 {
        self.check_qubit(qubit)
            .expect("probability_one: qubit out of range");
        let mask = 1usize << self.bit(qubit);
        self.amplitudes
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, z)| z.norm_sqr())
            .sum()
    }

    /// Measures `qubit` in the computational (Z) basis, collapsing the state.
    ///
    /// Returns the observed bit.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    pub fn measure<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> u8 {
        let p1 = self.probability_one(qubit);
        let outcome = if rng.gen::<f64>() < p1 { 1u8 } else { 0u8 };
        self.collapse(qubit, outcome);
        outcome
    }

    /// Projects `qubit` onto the given computational-basis outcome and renormalises.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range or the projected state has zero probability.
    pub(crate) fn collapse(&mut self, qubit: usize, outcome: u8) {
        self.check_qubit(qubit)
            .expect("collapse: qubit out of range");
        let mask = 1usize << self.bit(qubit);
        let keep_set = outcome == 1;
        for (i, amp) in self.amplitudes.as_mut_slice().iter_mut().enumerate() {
            if ((i & mask) != 0) != keep_set {
                *amp = Complex64::ZERO;
            }
        }
        let norm = self.amplitudes.norm();
        assert!(
            norm > 1e-12,
            "collapse onto a zero-probability outcome (qubit {qubit}, outcome {outcome})"
        );
        self.amplitudes = self.amplitudes.scale(Complex64::real(1.0 / norm));
    }

    /// Measures `qubit` in the basis `B(θ) = {(|0⟩ + e^{iθ}|1⟩)/√2, (|0⟩ − e^{iθ}|1⟩)/√2}`,
    /// collapsing the state.
    ///
    /// This is exactly the measurement the DI security check performs; the returned
    /// [`MeasurementOutcome`] maps bit `0` (first basis vector) to eigenvalue `+1` and bit `1`
    /// to `−1`.
    pub fn measure_in_basis<R: Rng + ?Sized>(
        &mut self,
        qubit: usize,
        theta: f64,
        rng: &mut R,
    ) -> MeasurementOutcome {
        let rotation = gates::basis_change(theta);
        self.apply_single(&rotation, qubit);
        let bit = self.measure(qubit, rng);
        // Rotate back so that subsequent operations see the post-measurement state expressed
        // in the computational basis of the original frame.
        self.apply_single(&rotation.adjoint(), qubit);
        MeasurementOutcome::from_bit(bit)
    }

    /// Measures every qubit in the computational basis, collapsing the state.
    ///
    /// Returns the bits in qubit order (index 0 first).
    pub fn measure_all<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<u8> {
        (0..self.num_qubits).map(|q| self.measure(q, rng)).collect()
    }

    /// Samples `shots` full-register outcomes from the current distribution **without**
    /// collapsing the state. Returns basis indices.
    pub fn sample_indices<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<usize> {
        let probs = self.probabilities();
        let mut cumulative = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for p in &probs {
            acc += p;
            cumulative.push(acc);
        }
        (0..shots)
            .map(|_| {
                let r: f64 = rng.gen::<f64>() * acc;
                match cumulative.binary_search_by(|c| c.partial_cmp(&r).unwrap()) {
                    Ok(i) | Err(i) => i.min(probs.len() - 1),
                }
            })
            .collect()
    }

    /// Formats a basis index as a bitstring in qubit order.
    pub(crate) fn bitstring(&self, index: usize) -> String {
        (0..self.num_qubits)
            .map(|q| {
                if index & (1 << self.bit(q)) != 0 {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }

    /// The density matrix `|ψ⟩⟨ψ|` of this pure state.
    pub(crate) fn to_density_matrix(&self) -> CMatrix {
        CMatrix::outer(&self.amplitudes, &self.amplitudes)
    }

    /// Fidelity `|⟨ψ|φ⟩|²` with another pure state.
    ///
    /// # Panics
    ///
    /// Panics if the registers have different sizes.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "fidelity of states with different register sizes"
        );
        self.amplitudes.fidelity(&other.amplitudes)
    }

    /// Expectation value `⟨ψ|O|ψ⟩` of a Hermitian observable on the full register.
    ///
    /// # Panics
    ///
    /// Panics if the observable dimension does not match the register.
    pub fn expectation(&self, observable: &CMatrix) -> f64 {
        assert_eq!(
            observable.rows(),
            self.dim(),
            "observable dimension does not match register"
        );
        let applied = observable.apply(&self.amplitudes);
        self.amplitudes.inner(&applied).re
    }
}

/// Born-samples one Kraus branch from the given weights — the selection core
/// shared by [`StateVector::apply_kraus_sampled`] and
/// [`DensityMatrix::apply_kraus_sampled`](crate::density::DensityMatrix::apply_kraus_sampled),
/// so the two substrates can never diverge in branch statistics.
///
/// Draws exactly one `f64` from `rng` (one uniform draw over the total
/// weight); the first viable branch — probability above
/// [`StateVector::MIN_NORM`] — whose cumulative weight exceeds the draw wins,
/// and the last viable branch absorbs floating-point shortfall at the top of
/// the range.
///
/// # Errors
///
/// [`QsimError::ZeroNorm`] when the total weight vanishes (or is not finite)
/// or no branch is individually viable.
pub(crate) fn sample_branch_index<R: Rng + ?Sized>(
    probabilities: &[f64],
    rng: &mut R,
) -> Result<usize, QsimError> {
    let total: f64 = probabilities.iter().sum();
    if !total.is_finite() || total <= StateVector::MIN_NORM {
        return Err(QsimError::ZeroNorm);
    }
    let draw = rng.gen::<f64>() * total;
    let mut cumulative = 0.0;
    let mut selected = None;
    let mut last_viable = None;
    for (index, &p) in probabilities.iter().enumerate() {
        cumulative += p;
        if p > StateVector::MIN_NORM {
            last_viable = Some(index);
            if selected.is_none() && draw < cumulative {
                selected = Some(index);
            }
        }
    }
    selected.or(last_viable).ok_or(QsimError::ZeroNorm)
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, amp) in self.amplitudes.iter().enumerate() {
            if amp.norm_sqr() > 1e-12 {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "({amp})|{}⟩", self.bitstring(i))?;
                first = false;
            }
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(12345)
    }

    fn bell_phi_plus() -> StateVector {
        let mut s = StateVector::new(2);
        s.apply_single(&gates::hadamard(), 0);
        s.apply_two(&gates::cnot(), 0, 1);
        s
    }

    #[test]
    fn new_state_is_all_zeros() {
        let s = StateVector::new(3);
        assert_eq!(s.num_qubits(), 3);
        assert_eq!(s.dim(), 8);
        assert!((s.probabilities()[0] - 1.0).abs() < 1e-12);
        assert!(s.is_normalized(1e-12));
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubit_register_panics() {
        let _ = StateVector::new(0);
    }

    #[test]
    fn from_amplitudes_validates() {
        let ok = StateVector::from_amplitudes(CVector::from_reals(&[FRAC_1_SQRT_2, FRAC_1_SQRT_2]));
        assert!(ok.is_ok());
        let err = StateVector::from_amplitudes(CVector::from_reals(&[1.0, 1.0]));
        assert_eq!(err.unwrap_err(), QsimError::NotNormalized);
        let err = StateVector::from_amplitudes(CVector::from_reals(&[1.0, 0.0, 0.0]));
        assert!(matches!(err, Err(QsimError::DimensionMismatch { .. })));
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut s = StateVector::new(1);
        s.apply_single(&gates::hadamard(), 0);
        assert!((s.probability_one(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pauli_x_flips_the_correct_qubit() {
        let mut s = StateVector::new(3);
        s.apply_single(&gates::pauli_x(), 1);
        // Expect |010⟩ = index 2.
        assert!((s.probabilities()[2] - 1.0).abs() < 1e-12);
        assert_eq!(s.bitstring(2), "010");
    }

    #[test]
    fn bell_pair_preparation_gives_phi_plus() {
        let s = bell_phi_plus();
        let probs = s.probabilities();
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[3] - 0.5).abs() < 1e-12);
        assert!(probs[1].abs() < 1e-12 && probs[2].abs() < 1e-12);
    }

    #[test]
    fn cnot_on_non_adjacent_qubits() {
        // 3-qubit register, CNOT between qubit 0 (control) and qubit 2 (target).
        let mut s = StateVector::new(3);
        s.apply_single(&gates::pauli_x(), 0); // |100⟩
        s.apply_two(&gates::cnot(), 0, 2);
        // Expect |101⟩ = index 5.
        assert!((s.probabilities()[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_unitary_rejects_bad_input() {
        let mut s = StateVector::new(2);
        assert!(matches!(
            s.try_apply_unitary(&gates::cnot(), &[0, 0]),
            Err(QsimError::DuplicateQubit(0))
        ));
        assert!(matches!(
            s.try_apply_unitary(&gates::cnot(), &[0, 5]),
            Err(QsimError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            s.try_apply_unitary(&gates::hadamard(), &[0, 1]),
            Err(QsimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn measurement_of_basis_state_is_deterministic() {
        let mut s = StateVector::new(2);
        s.apply_single(&gates::pauli_x(), 1); // |01⟩
        let mut r = rng();
        assert_eq!(s.measure(0, &mut r), 0);
        assert_eq!(s.measure(1, &mut r), 1);
    }

    #[test]
    fn bell_pair_measurements_are_perfectly_correlated() {
        let mut r = rng();
        for _ in 0..50 {
            let mut s = bell_phi_plus();
            let a = s.measure(0, &mut r);
            let b = s.measure(1, &mut r);
            assert_eq!(a, b, "Φ+ must give identical outcomes on both halves");
        }
    }

    #[test]
    fn collapse_renormalises() {
        let mut s = bell_phi_plus();
        s.collapse(0, 1);
        assert!(s.is_normalized(1e-12));
        // After projecting qubit 0 to 1, the state is |11⟩.
        assert!((s.probabilities()[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero-probability")]
    fn collapse_onto_impossible_outcome_panics() {
        let mut s = StateVector::new(1); // |0⟩
        s.collapse(0, 1);
    }

    #[test]
    fn measure_in_basis_theta_zero_matches_x_basis_statistics() {
        // |0⟩ measured in B(0) (the X basis) is ±1 with probability 1/2 each.
        let mut r = rng();
        let mut plus = 0;
        let n = 2000;
        for _ in 0..n {
            let mut s = StateVector::new(1);
            if s.measure_in_basis(0, 0.0, &mut r) == crate::measurement::MeasurementOutcome::Plus {
                plus += 1;
            }
        }
        let frac = plus as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn measure_in_basis_eigenstate_is_deterministic() {
        // The state (|0⟩ + e^{iθ}|1⟩)/√2 is the +1 eigenstate of B(θ).
        let theta = 1.234;
        let mut r = rng();
        for _ in 0..20 {
            let amps = CVector::new(vec![
                Complex64::real(FRAC_1_SQRT_2),
                Complex64::cis(theta) * FRAC_1_SQRT_2,
            ]);
            let mut s = StateVector::from_amplitudes(amps).unwrap();
            assert_eq!(
                s.measure_in_basis(0, theta, &mut r),
                crate::measurement::MeasurementOutcome::Plus
            );
        }
    }

    #[test]
    fn sample_indices_matches_distribution() {
        let s = bell_phi_plus();
        let mut r = rng();
        let samples = s.sample_indices(4000, &mut r);
        let count00 = samples.iter().filter(|&&i| i == 0).count();
        let count11 = samples.iter().filter(|&&i| i == 3).count();
        assert_eq!(count00 + count11, 4000, "only |00⟩ and |11⟩ may appear");
        let frac = count00 as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.05);
    }

    #[test]
    fn fidelity_and_density_matrix() {
        let s = bell_phi_plus();
        assert!((s.fidelity(&s) - 1.0).abs() < 1e-12);
        let zero = StateVector::new(2);
        assert!((s.fidelity(&zero) - 0.5).abs() < 1e-12);
        let rho = s.to_density_matrix();
        assert!(rho.is_density_matrix(1e-9));
    }

    #[test]
    fn expectation_of_z_on_zero_state() {
        let s = StateVector::new(1);
        assert!((s.expectation(&gates::pauli_z()) - 1.0).abs() < 1e-12);
        let mut minus = StateVector::new(1);
        minus.apply_single(&gates::pauli_x(), 0);
        assert!((minus.expectation(&gates::pauli_z()) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_chsh_observable_on_bell_state() {
        // ⟨Φ+| (A ⊗ B) |Φ+⟩ for A = Z, B = (Z + X)/√2 equals 1/√2.
        let s = bell_phi_plus();
        let b = (&gates::pauli_z() + &gates::pauli_x()).scale(Complex64::real(FRAC_1_SQRT_2));
        let obs = gates::pauli_z().kron(&b);
        assert!((s.expectation(&obs) - FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn display_shows_nonzero_terms() {
        let s = bell_phi_plus();
        let text = s.to_string();
        assert!(text.contains("|00⟩"));
        assert!(text.contains("|11⟩"));
        assert!(!text.contains("|01⟩"));
    }

    #[test]
    fn bitstring_round_trip() {
        let s = StateVector::new(4);
        assert_eq!(s.bitstring(0b1010), "1010");
        assert_eq!(s.bitstring(0b0001), "0001");
    }

    #[test]
    fn try_renormalize_rejects_the_zero_vector() {
        let mut zero = bell_phi_plus();
        for amp in [0, 1, 2, 3] {
            zero.amplitudes[amp] = Complex64::ZERO;
        }
        assert_eq!(zero.try_renormalize(), Err(QsimError::ZeroNorm));
        // The state is untouched — no NaN poisoning.
        assert!(zero.amplitudes().iter().all(|z| z.re == 0.0 && z.im == 0.0));
        let mut fine = bell_phi_plus();
        fine.amplitudes[0] *= Complex64::real(2.0);
        assert!(fine.try_renormalize().is_ok());
        assert!(fine.is_normalized(1e-12));
    }

    #[test]
    #[should_panic(expected = "(near-)zero norm")]
    fn renormalize_panics_on_the_zero_vector() {
        let mut s = StateVector::new(1);
        s.amplitudes[0] = Complex64::ZERO;
        s.renormalize();
    }

    #[test]
    fn sampled_bit_flip_matches_the_channel_statistics() {
        // bit_flip(0.3)-style Kraus pair: √0.7·I, √0.3·X.
        let ops = vec![
            gates::identity().scale(Complex64::real(0.7f64.sqrt())),
            gates::pauli_x().scale(Complex64::real(0.3f64.sqrt())),
        ];
        let mut r = rng();
        let mut flips = 0;
        let n = 4000;
        for _ in 0..n {
            let mut s = StateVector::new(1);
            let branch = s.apply_kraus_sampled(&ops, &[0], &mut r).unwrap();
            assert!(s.is_normalized(1e-12), "every trajectory stays normalised");
            if branch == 1 {
                flips += 1;
                assert!((s.probability_one(0) - 1.0).abs() < 1e-12);
            }
        }
        let frac = flips as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "flip fraction {frac}");
    }

    #[test]
    fn zero_probability_branches_are_never_selected() {
        // bit_flip(0.0): the X branch carries exactly zero weight; selecting
        // it would renormalise a zero vector.
        let ops = vec![gates::identity(), gates::pauli_x().scale(Complex64::ZERO)];
        let mut r = rng();
        for _ in 0..200 {
            let mut s = StateVector::new(1);
            assert_eq!(s.apply_kraus_sampled(&ops, &[0], &mut r).unwrap(), 0);
            assert!(s.is_normalized(1e-12));
        }
    }

    #[test]
    fn all_vanishing_branches_are_a_zero_norm_error() {
        let ops = vec![gates::identity().scale(Complex64::ZERO)];
        let mut s = bell_phi_plus();
        let before = s.clone();
        let mut r = rng();
        assert_eq!(
            s.apply_kraus_sampled(&ops, &[0], &mut r),
            Err(QsimError::ZeroNorm)
        );
        assert_eq!(s, before, "a failed step must leave the state untouched");
        // An empty operator set is equally impossible.
        assert_eq!(
            s.apply_kraus_sampled(&[], &[0], &mut r),
            Err(QsimError::ZeroNorm)
        );
    }

    #[test]
    fn sampled_step_validates_targets() {
        let mut s = StateVector::new(2);
        let mut r = rng();
        assert!(matches!(
            s.apply_kraus_sampled(&[gates::identity()], &[5], &mut r),
            Err(QsimError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            s.apply_kraus_sampled(&[gates::cnot()], &[0], &mut r),
            Err(QsimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn sampled_trajectories_average_to_the_exact_channel() {
        // Mean of |ψ⟩⟨ψ| over sampled depolarizing trajectories approximates
        // Σ K ρ K† on a Bell pair half.
        let p: f64 = 0.4;
        let ops = vec![
            gates::identity().scale(Complex64::real((1.0 - 3.0 * p / 4.0).sqrt())),
            gates::pauli_x().scale(Complex64::real((p / 4.0).sqrt())),
            gates::pauli_y().scale(Complex64::real((p / 4.0).sqrt())),
            gates::pauli_z().scale(Complex64::real((p / 4.0).sqrt())),
        ];
        // Exact channel action via the density representation.
        let mut rho = crate::density::DensityMatrix::from_statevector(&bell_phi_plus());
        rho.apply_kraus(&ops, &[0]);
        let exact = rho.matrix().clone();
        let mut r = rng();
        let n = 4000;
        let mut mean = CMatrix::zeros(4, 4);
        for _ in 0..n {
            let mut s = bell_phi_plus();
            s.apply_kraus_sampled(&ops, &[0], &mut r).unwrap();
            mean = &mean + &s.to_density_matrix();
        }
        mean = mean.scale(Complex64::real(1.0 / n as f64));
        assert!(
            mean.approx_eq(&exact, 0.03),
            "trajectory mean must approximate the exact channel"
        );
    }

    #[test]
    fn three_qubit_ghz_state() {
        let mut s = StateVector::new(3);
        s.apply_single(&gates::hadamard(), 0);
        s.apply_two(&gates::cnot(), 0, 1);
        s.apply_two(&gates::cnot(), 1, 2);
        let probs = s.probabilities();
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[7] - 0.5).abs() < 1e-12);
        // All three measurement outcomes agree.
        let mut r = rng();
        let bits = s.clone().measure_all(&mut r);
        assert!(bits.iter().all(|&b| b == bits[0]));
    }
}
