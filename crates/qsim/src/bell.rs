//! Bell states and Bell-state measurement (BSM).
//!
//! The protocol's whole data path is Bell-state algebra: the source distributes `|Φ+⟩` pairs,
//! Alice's Pauli encoding maps `|Φ+⟩` to one of the four Bell states, and Bob decodes with a
//! Bell-state measurement. This module names the four states, builds them, and implements the
//! BSM as the standard CNOT + Hadamard disentangling circuit followed by computational-basis
//! readout.

use crate::gates;
use crate::pauli::Pauli;
use crate::statevector::StateVector;
use mathkit::complex::Complex64;
use mathkit::vector::CVector;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

/// One of the four maximally entangled two-qubit Bell states.
///
/// # Examples
///
/// ```rust
/// use qsim::bell::BellState;
/// use qsim::pauli::Pauli;
///
/// // Applying σx to the first qubit of |Φ+⟩ yields |Ψ+⟩.
/// assert_eq!(BellState::PhiPlus.after_pauli(Pauli::X), BellState::PsiPlus);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BellState {
    /// `|Φ+⟩ = (|00⟩ + |11⟩)/√2` — the state the EPR source emits.
    PhiPlus,
    /// `|Φ−⟩ = (|00⟩ − |11⟩)/√2`.
    PhiMinus,
    /// `|Ψ+⟩ = (|01⟩ + |10⟩)/√2`.
    PsiPlus,
    /// `|Ψ−⟩ = (|01⟩ − |10⟩)/√2`.
    PsiMinus,
}

impl BellState {
    /// All four Bell states in the order `Φ+, Φ−, Ψ+, Ψ−`.
    pub const ALL: [BellState; 4] = [
        BellState::PhiPlus,
        BellState::PhiMinus,
        BellState::PsiPlus,
        BellState::PsiMinus,
    ];

    /// The two-qubit statevector of this Bell state.
    pub fn statevector(self) -> StateVector {
        let s = FRAC_1_SQRT_2;
        let amps = match self {
            BellState::PhiPlus => vec![
                Complex64::real(s),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::real(s),
            ],
            BellState::PhiMinus => vec![
                Complex64::real(s),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::real(-s),
            ],
            BellState::PsiPlus => vec![
                Complex64::ZERO,
                Complex64::real(s),
                Complex64::real(s),
                Complex64::ZERO,
            ],
            BellState::PsiMinus => vec![
                Complex64::ZERO,
                Complex64::real(s),
                Complex64::real(-s),
                Complex64::ZERO,
            ],
        };
        StateVector::from_amplitudes(CVector::new(amps))
            .expect("Bell state amplitudes are normalised by construction")
    }

    /// The Bell state obtained by applying `pauli` to the **first** qubit of `self`,
    /// ignoring global phase.
    ///
    /// This is the encoding map of the protocol: starting from `|Φ+⟩`, the operators
    /// `I, σz, σx, iσy` produce `Φ+, Φ−, Ψ+, Ψ−` respectively.
    pub fn after_pauli(self, pauli: Pauli) -> BellState {
        // Represent Bell states by (flip, phase) bits: Φ+=(0,0), Φ−=(0,1), Ψ+=(1,0), Ψ−=(1,1).
        let (flip, phase_bit) = self.flip_phase_bits();
        let (px, pz) = pauli.to_bits();
        // σx on the first qubit toggles the flip bit; σz toggles the phase bit; a phase bit
        // toggling also occurs when σz acts on the flipped component (global-phase-free rule
        // for the first qubit is a straight XOR).
        BellState::from_flip_phase_bits(flip ^ px, phase_bit ^ pz)
    }

    /// The Pauli operator that maps `|Φ+⟩` to this Bell state (the decoding map of the
    /// protocol: Bob observes this Bell state ⇒ Alice applied this operator ⇒ these 2 bits).
    pub fn encoding_pauli(self) -> Pauli {
        let (flip, phase_bit) = self.flip_phase_bits();
        Pauli::from_bits(flip, phase_bit)
    }

    fn flip_phase_bits(self) -> (bool, bool) {
        match self {
            BellState::PhiPlus => (false, false),
            BellState::PhiMinus => (false, true),
            BellState::PsiPlus => (true, false),
            BellState::PsiMinus => (true, true),
        }
    }

    fn from_flip_phase_bits(flip: bool, phase: bool) -> Self {
        match (flip, phase) {
            (false, false) => BellState::PhiPlus,
            (false, true) => BellState::PhiMinus,
            (true, false) => BellState::PsiPlus,
            (true, true) => BellState::PsiMinus,
        }
    }

    /// The position of this state in [`BellState::ALL`].
    pub fn to_index(self) -> usize {
        let (flip, phase) = self.flip_phase_bits();
        (usize::from(flip) << 1) | usize::from(phase)
    }

    /// Inverse of [`BellState::to_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index > 3`.
    pub fn from_index(index: usize) -> Self {
        assert!(index < 4, "Bell-state index {index} out of range (0..=3)");
        Self::from_flip_phase_bits(index & 0b10 != 0, index & 0b01 != 0)
    }

    /// The (pure) density matrix of this Bell state, built once per process.
    ///
    /// This is the materialisation target when a Pauli-frame-tracked pair
    /// has to re-enter the exact density substrate (e.g. when an active
    /// eavesdropper tap needs the full state): cloning from the static
    /// reference into an existing buffer is allocation-free.
    pub fn density_ref(self) -> &'static crate::density::DensityMatrix {
        static DENSITIES: std::sync::OnceLock<[crate::density::DensityMatrix; 4]> =
            std::sync::OnceLock::new();
        &DENSITIES.get_or_init(|| {
            BellState::ALL
                .map(|b| crate::density::DensityMatrix::from_statevector(&b.statevector()))
        })[self.to_index()]
    }

    /// Conventional ket notation.
    pub fn symbol(self) -> &'static str {
        match self {
            BellState::PhiPlus => "|Φ+⟩",
            BellState::PhiMinus => "|Φ−⟩",
            BellState::PsiPlus => "|Ψ+⟩",
            BellState::PsiMinus => "|Ψ−⟩",
        }
    }
}

impl fmt::Display for BellState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// The result of a Bell-state measurement: the identified Bell state plus the raw bits the
/// disentangling circuit produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BellOutcome {
    /// The Bell state the measurement projected onto.
    pub state: BellState,
    /// Raw bit measured on the first (control) qubit after the disentangling circuit.
    pub bit_a: u8,
    /// Raw bit measured on the second (target) qubit after the disentangling circuit.
    pub bit_b: u8,
}

impl fmt::Display for BellOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (bits {}{})", self.state, self.bit_a, self.bit_b)
    }
}

// The disentangling circuit's gates, built once per process: Bell-state
// measurements run on every decoded qubit of every trial.
fn disentangle_cnot() -> &'static mathkit::matrix::CMatrix {
    static CNOT: std::sync::OnceLock<mathkit::matrix::CMatrix> = std::sync::OnceLock::new();
    CNOT.get_or_init(gates::cnot)
}

fn disentangle_hadamard() -> &'static mathkit::matrix::CMatrix {
    static HADAMARD: std::sync::OnceLock<mathkit::matrix::CMatrix> = std::sync::OnceLock::new();
    HADAMARD.get_or_init(gates::hadamard)
}

/// Performs a Bell-state measurement on qubits `(a, b)` of `state`, collapsing them.
///
/// The implementation is the textbook disentangling circuit: CNOT with control `a`, target
/// `b`, then Hadamard on `a`, then a computational-basis measurement of both qubits. The raw
/// bits `(m_a, m_b)` identify the Bell state as
/// `00 → Φ+`, `10 → Φ−`, `01 → Ψ+`, `11 → Ψ−`.
pub fn bell_measure<R: Rng + ?Sized>(
    state: &mut StateVector,
    a: usize,
    b: usize,
    rng: &mut R,
) -> BellOutcome {
    state.apply_two(disentangle_cnot(), a, b);
    state.apply_single(disentangle_hadamard(), a);
    let bit_a = state.measure(a, rng);
    let bit_b = state.measure(b, rng);
    let bell = match (bit_a, bit_b) {
        (0, 0) => BellState::PhiPlus,
        (1, 0) => BellState::PhiMinus,
        (0, 1) => BellState::PsiPlus,
        (1, 1) => BellState::PsiMinus,
        _ => unreachable!("measurement bits are always 0 or 1"),
    };
    BellOutcome {
        state: bell,
        bit_a,
        bit_b,
    }
}

/// Performs a Bell-state measurement on qubits `(a, b)` of a density matrix, collapsing them.
///
/// Identical convention to [`bell_measure`], but for the noisy (mixed-state) back-end.
pub fn bell_measure_density<R: Rng + ?Sized>(
    rho: &mut crate::density::DensityMatrix,
    a: usize,
    b: usize,
    rng: &mut R,
) -> BellOutcome {
    let (bit_a, bit_b) = if rho.num_qubits() == 2 {
        bell_measure_density_pair(rho, a, b, rng)
    } else {
        rho.apply_two(disentangle_cnot(), a, b);
        rho.apply_single(disentangle_hadamard(), a);
        let bit_a = rho.measure(a, rng);
        let bit_b = rho.measure(b, rng);
        (bit_a, bit_b)
    };
    let bell = match (bit_a, bit_b) {
        (0, 0) => BellState::PhiPlus,
        (1, 0) => BellState::PhiMinus,
        (0, 1) => BellState::PsiPlus,
        (1, 1) => BellState::PsiMinus,
        _ => unreachable!("measurement bits are always 0 or 1"),
    };
    BellOutcome {
        state: bell,
        bit_a,
        bit_b,
    }
}

/// Two-qubit fast path for [`bell_measure_density`]: the four outcome
/// probabilities are the Bell-basis quadratic forms `⟨B|ρ|B⟩`, read
/// directly off four matrix entries each, and the post-measurement state —
/// the computational basis state `|m_a m_b⟩` the disentangling circuit
/// leaves behind — is written in place. Same two RNG draws (Alice's bit,
/// then Bob's conditional bit) as the circuit path.
fn bell_measure_density_pair<R: Rng + ?Sized>(
    rho: &mut crate::density::DensityMatrix,
    a: usize,
    b: usize,
    rng: &mut R,
) -> (u8, u8) {
    assert!(a < 2 && b < 2 && a != b, "invalid Bell-measurement qubits");
    let stride_a = 1usize << (1 - a);
    let stride_b = 1usize << (1 - b);
    let idx = |x: usize, y: usize| x * stride_a + y * stride_b;
    let m = rho.matrix_mut().as_mut_slice();
    // ⟨B|ρ|B⟩ for B = (|u⟩ ± |v⟩)/√2: ½(ρ_uu + ρ_vv) ± Re ρ_uv.
    let quad = |m: &[Complex64], u: usize, v: usize| -> (f64, f64) {
        let base = 0.5 * (m[u * 4 + u].re + m[v * 4 + v].re);
        let cross = m[u * 4 + v].re;
        (base + cross, base - cross)
    };
    // Outcome (m_a, m_b) projects onto 00 → Φ+, 10 → Φ−, 01 → Ψ+, 11 → Ψ−.
    let (d00, d10) = quad(m, idx(0, 0), idx(1, 1));
    let (d01, d11) = quad(m, idx(0, 1), idx(1, 0));
    let p_a1 = (d10 + d11).clamp(0.0, 1.0);
    let bit_a = u8::from(rng.gen::<f64>() < p_a1);
    let (da0, da1) = if bit_a == 1 { (d10, d11) } else { (d00, d01) };
    let p_a = da0 + da1;
    assert!(
        p_a > 1e-12,
        "collapse onto a zero-probability outcome (qubit {a}, outcome {bit_a})"
    );
    let p_b1 = (da1 / p_a).clamp(0.0, 1.0);
    let bit_b = u8::from(rng.gen::<f64>() < p_b1);
    let p_b = if bit_b == 1 { p_b1 } else { 1.0 - p_b1 };
    assert!(
        p_b > 1e-12,
        "collapse onto a zero-probability outcome (qubit {b}, outcome {bit_b})"
    );
    let winner = idx(bit_a as usize, bit_b as usize);
    m.fill(Complex64::ZERO);
    m[winner * 4 + winner] = Complex64::ONE;
    (bit_a, bit_b)
}

/// The Bell-diagonal of a two-qubit density matrix: the four fidelities
/// `⟨B|ρ|B⟩` in [`BellState::ALL`] order, each read off four matrix entries
/// via the same quadratic forms as the BSM fast path. They sum to `Tr ρ`.
///
/// This is the "re-twirl" primitive of the Pauli-frame substrate: projecting
/// a state back onto the Bell-diagonal channel after a non-Pauli operation
/// (an eavesdropper's measurement, say) means sampling a Bell label from
/// exactly this distribution.
///
/// # Panics
///
/// Panics if `rho` is not a two-qubit state.
pub fn bell_diagonal_probabilities(rho: &crate::density::DensityMatrix) -> [f64; 4] {
    assert_eq!(
        rho.num_qubits(),
        2,
        "the Bell diagonal is defined for two-qubit states"
    );
    let m = rho.matrix().as_slice();
    let quad = |u: usize, v: usize| -> (f64, f64) {
        let base = 0.5 * (m[u * 4 + u].re + m[v * 4 + v].re);
        let cross = m[u * 4 + v].re;
        (base + cross, base - cross)
    };
    let (phi_plus, phi_minus) = quad(0b00, 0b11);
    let (psi_plus, psi_minus) = quad(0b01, 0b10);
    [phi_plus, phi_minus, psi_plus, psi_minus]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityMatrix;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    /// Prepares `|Φ+⟩` on qubits `(a, b)` of a register holding `|0⟩` on both.
    fn prepare_phi_plus(state: &mut StateVector, a: usize, b: usize) {
        state.apply_single(&gates::hadamard(), a);
        state.apply_two(&gates::cnot(), a, b);
    }

    #[test]
    fn statevectors_are_normalised_and_orthogonal() {
        for (i, a) in BellState::ALL.iter().enumerate() {
            let va = a.statevector();
            assert!(va.is_normalized(1e-12));
            for (j, b) in BellState::ALL.iter().enumerate() {
                let f = va.fidelity(&b.statevector());
                if i == j {
                    assert!((f - 1.0).abs() < 1e-12);
                } else {
                    assert!(f < 1e-12, "{a} and {b} must be orthogonal");
                }
            }
        }
    }

    #[test]
    fn pauli_encoding_produces_the_expected_bell_states() {
        // Verify the algebraic rule against actual statevector simulation.
        for pauli in Pauli::ALL {
            let mut s = StateVector::new(2);
            prepare_phi_plus(&mut s, 0, 1);
            s.apply_single(&pauli.matrix(), 0);
            let expected = BellState::PhiPlus.after_pauli(pauli);
            let fidelity = s.fidelity(&expected.statevector());
            assert!(
                (fidelity - 1.0).abs() < 1e-12,
                "{pauli} on Φ+ should give {expected}, fidelity {fidelity}"
            );
        }
    }

    #[test]
    fn encoding_and_decoding_are_inverse() {
        for pauli in Pauli::ALL {
            let encoded = BellState::PhiPlus.after_pauli(pauli);
            assert_eq!(encoded.encoding_pauli(), pauli);
        }
    }

    #[test]
    fn after_pauli_acts_transitively_on_all_states() {
        // The Klein four-group action must be compatible with composition.
        for start in BellState::ALL {
            for p in Pauli::ALL {
                for q in Pauli::ALL {
                    let step = start.after_pauli(p).after_pauli(q);
                    let combined = start.after_pauli(p.compose(q));
                    assert_eq!(step, combined);
                }
            }
        }
    }

    #[test]
    fn bell_measurement_identifies_each_state() {
        let mut r = rng();
        for bell in BellState::ALL {
            for _ in 0..20 {
                let mut s = bell.statevector();
                let outcome = bell_measure(&mut s, 0, 1, &mut r);
                assert_eq!(
                    outcome.state, bell,
                    "BSM must identify {bell} deterministically"
                );
            }
        }
    }

    #[test]
    fn bell_measurement_decodes_pauli_encoded_messages() {
        let mut r = rng();
        for pauli in Pauli::ALL {
            let mut s = StateVector::new(2);
            prepare_phi_plus(&mut s, 0, 1);
            s.apply_single(&pauli.matrix(), 0);
            let outcome = bell_measure(&mut s, 0, 1, &mut r);
            assert_eq!(outcome.state.encoding_pauli(), pauli);
        }
    }

    #[test]
    fn bell_measurement_on_density_matrix_matches() {
        let mut r = rng();
        for bell in BellState::ALL {
            let mut rho = DensityMatrix::from_statevector(&bell.statevector());
            let outcome = bell_measure_density(&mut rho, 0, 1, &mut r);
            assert_eq!(outcome.state, bell);
        }
    }

    #[test]
    fn bell_measurement_in_larger_register() {
        // Qubits 1 and 3 of a 4-qubit register hold the pair.
        let mut r = rng();
        let mut s = StateVector::new(4);
        prepare_phi_plus(&mut s, 1, 3);
        s.apply_single(&Pauli::X.matrix(), 1);
        let outcome = bell_measure(&mut s, 1, 3, &mut r);
        assert_eq!(outcome.state, BellState::PsiPlus);
    }

    #[test]
    fn index_round_trips_and_density_refs_are_the_pure_states() {
        for (i, bell) in BellState::ALL.into_iter().enumerate() {
            assert_eq!(bell.to_index(), i);
            assert_eq!(BellState::from_index(i), bell);
            let rho = bell.density_ref();
            assert!((rho.fidelity_with_pure(&bell.statevector()) - 1.0).abs() < 1e-12);
            assert!((rho.purity() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_out_of_range() {
        let _ = BellState::from_index(4);
    }

    #[test]
    fn bell_diagonal_of_pure_states_and_mixtures() {
        for (i, bell) in BellState::ALL.into_iter().enumerate() {
            let probs =
                bell_diagonal_probabilities(&DensityMatrix::from_statevector(&bell.statevector()));
            for (j, p) in probs.into_iter().enumerate() {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((p - expected).abs() < 1e-12, "{bell}: p[{j}] = {p}");
            }
        }
        // The maximally mixed state is the uniform Bell mixture.
        let probs = bell_diagonal_probabilities(&DensityMatrix::maximally_mixed(2));
        for p in probs {
            assert!((p - 0.25).abs() < 1e-12);
        }
        // A separable |00⟩⟨00| splits evenly across the two Φ states.
        let probs = bell_diagonal_probabilities(&DensityMatrix::new(2));
        assert!((probs[0] - 0.5).abs() < 1e-12 && (probs[1] - 0.5).abs() < 1e-12);
        assert!(probs[2].abs() < 1e-12 && probs[3].abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "two-qubit")]
    fn bell_diagonal_rejects_wrong_register_size() {
        let _ = bell_diagonal_probabilities(&DensityMatrix::new(3));
    }

    #[test]
    fn outcome_display_and_label() {
        let o = BellOutcome {
            state: BellState::PsiMinus,
            bit_a: 1,
            bit_b: 1,
        };
        assert!(o.to_string().contains("Ψ−"));
        assert_eq!(BellState::PhiPlus.to_string(), "|Φ+⟩");
    }
}
