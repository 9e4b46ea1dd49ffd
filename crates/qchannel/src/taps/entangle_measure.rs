//! Entangle-and-measure attack.
//!
//! Eve attaches an ancilla qubit (prepared in `|0⟩`) to each flying qubit with a CNOT and
//! measures the ancilla, hoping to learn the encoded information without blocking the channel
//! (paper Section III-D). The monogamy of entanglement means her ancilla can only become
//! correlated with the flying qubit at the expense of the Alice–Bob entanglement, so the CHSH
//! value estimated in the second DI check drops (to 2 for a full-strength CNOT) and the attack
//! is detected.

use crate::epr::{EprPair, ALICE_QUBIT, BOB_QUBIT};
use crate::quantum::ChannelTap;
use qsim::density::DensityMatrix;
use qsim::gates;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The entangle-and-measure eavesdropper.
///
/// The `strength` parameter interpolates between no interaction (0.0) and a full CNOT (1.0)
/// by applying a controlled-RX(πs) instead of a controlled-X; this is useful for studying the
/// information-vs-disturbance trade-off.
///
/// # Examples
///
/// ```rust
/// use qchannel::taps::EntangleMeasureAttack;
/// use qchannel::quantum::ChannelTap;
/// use qchannel::epr::EprPair;
/// use rand::SeedableRng;
///
/// let mut eve = EntangleMeasureAttack::full();
/// let mut pair = EprPair::ideal();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// eve.on_transmit(&mut pair, &mut rng);
/// assert_eq!(eve.ancillas_measured(), 1);
/// assert!(pair.fidelity_phi_plus() < 0.75);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntangleMeasureAttack {
    strength: f64,
    ancillas_measured: usize,
    ancilla_ones: usize,
}

impl EntangleMeasureAttack {
    /// Full-strength attack: a genuine CNOT onto the ancilla.
    pub fn full() -> Self {
        Self::with_strength(1.0)
    }

    /// Partial-strength attack: controlled-RX(π·strength) onto the ancilla.
    ///
    /// # Panics
    ///
    /// Panics if `strength` is outside `[0, 1]`.
    pub fn with_strength(strength: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&strength),
            "attack strength must lie in [0, 1]"
        );
        Self {
            strength,
            ancillas_measured: 0,
            ancilla_ones: 0,
        }
    }

    /// Number of ancillas Eve has measured.
    pub fn ancillas_measured(&self) -> usize {
        self.ancillas_measured
    }

    /// How many of the bits Eve observed on her ancillas were `1`.
    pub fn ancilla_ones(&self) -> usize {
        self.ancilla_ones
    }
}

impl ChannelTap for EntangleMeasureAttack {
    fn on_transmit(&mut self, pair: &mut EprPair, rng: &mut dyn RngCore) {
        self.ancillas_measured += 1;
        // Attach |0⟩ ancilla as qubit 2, entangle with the flying qubit, measure it, then trace
        // it back out so the pair stays a two-qubit object for the rest of the protocol.
        let extended = pair.density().tensor(&DensityMatrix::new(1));
        let mut extended = extended;
        let interaction = if (self.strength - 1.0).abs() < 1e-12 {
            gates::cnot()
        } else {
            gates::controlled(&gates::rx(std::f64::consts::PI * self.strength))
        };
        extended.apply_unitary(&interaction, &[ALICE_QUBIT, 2]);
        let bit = extended.measure(2, rng);
        self.ancilla_ones += usize::from(bit);
        let reduced = extended.partial_trace(&[ALICE_QUBIT, BOB_QUBIT]);
        *pair = EprPair::from_density(reduced);
    }

    fn acts_on_emission(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "entangle-and-measure"
    }
}

impl fmt::Display for EntangleMeasureAttack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entangle-and-measure (strength {:.2}, {} ancillas)",
            self.strength, self.ancillas_measured
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(88)
    }

    #[test]
    fn full_attack_degrades_bell_fidelity_to_one_half() {
        let mut r = rng();
        let mut eve = EntangleMeasureAttack::full();
        let mut pair = EprPair::ideal();
        eve.on_transmit(&mut pair, &mut r);
        // A CNOT copy in the computational basis fully dephases the pair: fidelity 1/2.
        assert!((pair.fidelity_phi_plus() - 0.5).abs() < 1e-9);
        assert!((pair.density().trace() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_strength_attack_changes_nothing() {
        let mut r = rng();
        let mut eve = EntangleMeasureAttack::with_strength(0.0);
        let mut pair = EprPair::ideal();
        eve.on_transmit(&mut pair, &mut r);
        assert!((pair.fidelity_phi_plus() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ancilla_bits_are_uniform() {
        // Eve's ancilla copies the computational value of a maximally mixed qubit — pure noise.
        let mut r = rng();
        let mut eve = EntangleMeasureAttack::full();
        let trials = 2000;
        for _ in 0..trials {
            let mut pair = EprPair::ideal();
            pair.apply_alice_pauli(qsim::pauli::Pauli::Z);
            eve.on_transmit(&mut pair, &mut r);
        }
        assert_eq!(eve.ancillas_measured(), trials);
        let frac = eve.ancilla_ones() as f64 / trials as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "ancilla bits must be uniform, got {frac}"
        );
    }

    #[test]
    #[should_panic(expected = "strength must lie in")]
    fn invalid_strength_panics() {
        let _ = EntangleMeasureAttack::with_strength(1.5);
    }

    #[test]
    fn accessors_and_display() {
        let eve = EntangleMeasureAttack::with_strength(0.5);
        assert_eq!(eve.ancillas_measured(), 0);
        assert_eq!(eve.name(), "entangle-and-measure");
        assert!(eve.to_string().contains("0.50"));
    }
}
