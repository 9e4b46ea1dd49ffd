//! Man-in-the-middle attack.
//!
//! Eve intercepts the whole sequence `S_A` and keeps it, forwarding a freshly prepared
//! sequence `Q_E` of single qubits to Bob instead (paper Section III-C). The forwarded qubits
//! are completely uncorrelated with Bob's halves, so the second DI check measures classical
//! correlations only (`S ≤ 2`) and the protocol aborts before any message-bearing measurement
//! is made.

use crate::epr::{EprPair, ALICE_QUBIT, BOB_QUBIT};
use crate::quantum::ChannelTap;
use qsim::density::DensityMatrix;
use qsim::gates;
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How Eve prepares the substitute qubits she forwards to Bob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubstituteState {
    /// Uniformly random computational-basis states `|0⟩` / `|1⟩`.
    RandomComputational,
    /// Always `|0⟩`.
    Zero,
    /// Uniformly random states from `{|0⟩, |1⟩, |+⟩, |−⟩}`.
    RandomBb84,
}

impl fmt::Display for SubstituteState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubstituteState::RandomComputational => write!(f, "random |0⟩/|1⟩"),
            SubstituteState::Zero => write!(f, "|0⟩"),
            SubstituteState::RandomBb84 => write!(f, "random BB84 state"),
        }
    }
}

/// The man-in-the-middle eavesdropper.
///
/// # Examples
///
/// ```rust
/// use qchannel::taps::ManInTheMiddleAttack;
/// use qchannel::quantum::ChannelTap;
/// use qchannel::epr::EprPair;
/// use rand::SeedableRng;
///
/// let mut eve = ManInTheMiddleAttack::random_computational();
/// let mut pair = EprPair::ideal();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// eve.on_transmit(&mut pair, &mut rng);
/// assert_eq!(eve.stolen_qubits(), 1);
/// // At best Eve's substitute matches Bob's collapsed bit, which caps the
/// // fidelity at 1/2 (up to floating-point rounding).
/// assert!(pair.fidelity_phi_plus() <= 0.5 + 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManInTheMiddleAttack {
    substitute: SubstituteState,
    stolen_qubits: usize,
    /// How many stolen qubits Eve read as `1` in the Z basis (her attempt at reading the
    /// message — futile, since each half of a Bell state is maximally mixed).
    stolen_ones: usize,
}

impl ManInTheMiddleAttack {
    /// Eve substitutes uniformly random computational-basis qubits.
    pub fn random_computational() -> Self {
        Self::new(SubstituteState::RandomComputational)
    }

    /// Eve substitutes `|0⟩` qubits.
    pub fn zeros() -> Self {
        Self::new(SubstituteState::Zero)
    }

    /// Creates the attack with an explicit substitute-state policy.
    pub fn new(substitute: SubstituteState) -> Self {
        Self {
            substitute,
            stolen_qubits: 0,
            stolen_ones: 0,
        }
    }

    /// Number of qubits Eve has stolen so far.
    pub fn stolen_qubits(&self) -> usize {
        self.stolen_qubits
    }

    /// How many of the Z-basis values Eve read from the stolen qubits were `1`.
    #[cfg(test)]
    pub(crate) fn stolen_ones(&self) -> usize {
        self.stolen_ones
    }

    fn fresh_substitute(&self, rng: &mut dyn RngCore) -> DensityMatrix {
        let mut qubit = DensityMatrix::new(1);
        match self.substitute {
            SubstituteState::Zero => {}
            SubstituteState::RandomComputational => {
                if rng.gen::<bool>() {
                    qubit.apply_single(&gates::pauli_x(), 0);
                }
            }
            SubstituteState::RandomBb84 => {
                if rng.gen::<bool>() {
                    qubit.apply_single(&gates::pauli_x(), 0);
                }
                if rng.gen::<bool>() {
                    qubit.apply_single(&gates::hadamard(), 0);
                }
            }
        }
        qubit
    }
}

impl ChannelTap for ManInTheMiddleAttack {
    fn on_transmit(&mut self, pair: &mut EprPair, rng: &mut dyn RngCore) {
        self.stolen_qubits += 1;
        // Eve keeps Alice's qubit: she measures it in the Z basis for her records (this is all
        // she can ever extract), then replaces the flying qubit with a fresh substitute that
        // is uncorrelated with Bob's half.
        let stolen_bit = pair.density_mut().measure(ALICE_QUBIT, rng);
        self.stolen_ones += usize::from(stolen_bit);
        let bob_half = pair.density().partial_trace(&[BOB_QUBIT]);
        let substitute = self.fresh_substitute(rng);
        *pair = EprPair::from_density(substitute.tensor(&bob_half));
    }

    fn acts_on_emission(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "man-in-the-middle"
    }
}

impl fmt::Display for ManInTheMiddleAttack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "man-in-the-middle substituting {} ({} qubits stolen)",
            self.substitute, self.stolen_qubits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(66)
    }

    #[test]
    fn substitution_breaks_all_quantum_correlation() {
        let mut r = rng();
        for policy in [
            SubstituteState::RandomComputational,
            SubstituteState::Zero,
            SubstituteState::RandomBb84,
        ] {
            let mut eve = ManInTheMiddleAttack::new(policy);
            let mut pair = EprPair::ideal();
            eve.on_transmit(&mut pair, &mut r);
            assert!(
                pair.fidelity_phi_plus() <= 0.5 + 1e-9,
                "substituted pair must be separable under {policy}"
            );
            assert!((pair.density().trace() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stolen_bits_are_uniform_regardless_of_encoding() {
        let mut r = rng();
        let mut eve = ManInTheMiddleAttack::zeros();
        let trials = 2000;
        for _ in 0..trials {
            let mut pair = EprPair::ideal();
            pair.apply_alice_pauli(qsim::pauli::Pauli::IY);
            eve.on_transmit(&mut pair, &mut r);
        }
        assert_eq!(eve.stolen_qubits(), trials);
        let frac = eve.stolen_ones() as f64 / trials as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "each half of a Bell pair is maximally mixed; Eve's bits must be uniform, got {frac}"
        );
    }

    #[test]
    fn bob_half_is_preserved_by_the_substitution() {
        // Eve's substitution must not touch the qubit already sitting with Bob.
        let mut r = rng();
        let mut eve = ManInTheMiddleAttack::zeros();
        let mut pair = EprPair::ideal();
        // Collapse Alice's half so Bob's half has a definite Z value.
        let alice_bit = pair.density_mut().measure(ALICE_QUBIT, &mut r);
        eve.on_transmit(&mut pair, &mut r);
        let bob_prob_one = pair.density().probability_one(BOB_QUBIT);
        assert!((bob_prob_one - f64::from(alice_bit)).abs() < 1e-9);
    }

    #[test]
    fn accessors_and_display() {
        let eve = ManInTheMiddleAttack::new(SubstituteState::RandomBb84);
        assert_eq!(eve.stolen_qubits(), 0);
        assert_eq!(eve.stolen_ones(), 0);
        assert_eq!(eve.name(), "man-in-the-middle");
        assert!(eve.to_string().contains("man-in-the-middle"));
        assert_eq!(SubstituteState::Zero.to_string(), "|0⟩");
    }
}
