//! Intercept-and-resend attack.
//!
//! Eve captures each flying qubit, measures it in an orthonormal basis `{|u⟩, |v⟩}` of her
//! choice and resends the post-measurement state to Bob (paper Section III-B). Whatever basis
//! she picks, the measurement breaks the entanglement — the resent qubit is in a product state
//! with Bob's half — so the CHSH value Bob estimates in the second DI check cannot exceed the
//! classical bound 2 and the protocol aborts.

use crate::epr::{EprPair, ALICE_QUBIT};
use crate::quantum::ChannelTap;
use qsim::gates;
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which basis Eve measures the intercepted qubits in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InterceptBasis {
    /// The computational (Z) basis.
    Computational,
    /// The Hadamard (X) basis.
    Hadamard,
    /// The equatorial basis `B(θ) = {|0⟩ ± e^{iθ}|1⟩}` at a fixed angle.
    Equatorial(
        /// The basis angle θ.
        f64,
    ),
    /// A fresh uniformly random equatorial angle for every qubit.
    RandomPerQubit,
}

impl fmt::Display for InterceptBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterceptBasis::Computational => write!(f, "Z basis"),
            InterceptBasis::Hadamard => write!(f, "X basis"),
            InterceptBasis::Equatorial(theta) => write!(f, "B({theta:.3})"),
            InterceptBasis::RandomPerQubit => write!(f, "random basis per qubit"),
        }
    }
}

/// The intercept-and-resend eavesdropper.
///
/// # Examples
///
/// ```rust
/// use qchannel::taps::InterceptResendAttack;
/// use qchannel::quantum::ChannelTap;
/// use qchannel::epr::EprPair;
/// use rand::SeedableRng;
///
/// let mut eve = InterceptResendAttack::computational();
/// let mut pair = EprPair::ideal();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// eve.on_transmit(&mut pair, &mut rng);
/// // The measurement destroyed the entanglement.
/// assert!(pair.fidelity_phi_plus() < 0.75);
/// assert_eq!(eve.intercepted(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterceptResendAttack {
    basis: InterceptBasis,
    intercepted: usize,
    captured_ones: usize,
}

impl InterceptResendAttack {
    /// Eve measures in the given basis.
    pub fn new(basis: InterceptBasis) -> Self {
        Self {
            basis,
            intercepted: 0,
            captured_ones: 0,
        }
    }

    /// Eve measures every qubit in the computational (Z) basis.
    pub fn computational() -> Self {
        Self::new(InterceptBasis::Computational)
    }

    /// Eve measures every qubit in the Hadamard (X) basis.
    pub fn hadamard() -> Self {
        Self::new(InterceptBasis::Hadamard)
    }

    /// The basis Eve uses.
    pub fn basis(&self) -> InterceptBasis {
        self.basis
    }

    /// How many qubits Eve has intercepted so far.
    pub fn intercepted(&self) -> usize {
        self.intercepted
    }

    /// How many of the bits Eve recorded (one per intercepted qubit) were `1`. Her bits carry
    /// essentially no information about the message because the encoding lives in the *joint*
    /// Bell state, so this stays near half of [`InterceptResendAttack::intercepted`].
    #[cfg(test)]
    pub(crate) fn captured_ones(&self) -> usize {
        self.captured_ones
    }
}

impl ChannelTap for InterceptResendAttack {
    fn on_transmit(&mut self, pair: &mut EprPair, rng: &mut dyn RngCore) {
        self.intercepted += 1;
        let rho = pair.density_mut();
        let bit = match self.basis {
            InterceptBasis::Computational => rho.measure(ALICE_QUBIT, rng),
            InterceptBasis::Hadamard => {
                rho.apply_single(&gates::hadamard(), ALICE_QUBIT);
                let bit = rho.measure(ALICE_QUBIT, rng);
                rho.apply_single(&gates::hadamard(), ALICE_QUBIT);
                bit
            }
            InterceptBasis::Equatorial(theta) => {
                rho.measure_in_basis(ALICE_QUBIT, theta, rng).to_bit()
            }
            InterceptBasis::RandomPerQubit => {
                let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                rho.measure_in_basis(ALICE_QUBIT, theta, rng).to_bit()
            }
        };
        self.captured_ones += usize::from(bit);
    }

    fn acts_on_emission(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "intercept-and-resend"
    }
}

impl fmt::Display for InterceptResendAttack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "intercept-and-resend in {} ({} qubits intercepted)",
            self.basis, self.intercepted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(55)
    }

    #[test]
    fn interception_destroys_entanglement_in_every_basis() {
        let mut r = rng();
        for attack in [
            InterceptResendAttack::computational(),
            InterceptResendAttack::hadamard(),
            InterceptResendAttack::new(InterceptBasis::Equatorial(0.7)),
            InterceptResendAttack::new(InterceptBasis::RandomPerQubit),
        ] {
            let mut eve = attack;
            let mut pair = EprPair::ideal();
            eve.on_transmit(&mut pair, &mut r);
            // After a local projective measurement the state is separable: the reduced purity
            // of Bob's half must be far from maximally mixed only if correlations are gone —
            // check via fidelity with Φ+ (≤ 1/2 for any separable state).
            assert!(
                pair.fidelity_phi_plus() <= 0.5 + 1e-9,
                "separable states cannot have Φ+ fidelity above 1/2 ({})",
                eve
            );
        }
    }

    #[test]
    fn eve_records_one_bit_per_interception() {
        let mut r = rng();
        let mut eve = InterceptResendAttack::computational();
        let mut ones = 0;
        for _ in 0..10 {
            let mut pair = EprPair::ideal();
            eve.on_transmit(&mut pair, &mut r);
            // Her Z-basis bit is the outcome the pair collapsed to.
            ones += usize::from(pair.density().probability_one(ALICE_QUBIT) > 0.5);
            assert_eq!(eve.captured_ones(), ones);
        }
        assert_eq!(eve.intercepted(), 10);
        assert!(eve.captured_ones() <= eve.intercepted());
        assert_eq!(eve.basis(), InterceptBasis::Computational);
        assert_eq!(eve.name(), "intercept-and-resend");
        assert!(eve.to_string().contains("10 qubits"));
    }

    #[test]
    fn captured_bits_carry_no_message_information() {
        // Alice encodes a *fixed* message Pauli; Eve's Z-basis bits are still uniformly
        // random because each half of a Bell state is maximally mixed.
        let mut r = rng();
        let mut eve = InterceptResendAttack::computational();
        let trials = 2000;
        for _ in 0..trials {
            let mut pair = EprPair::ideal();
            pair.apply_alice_pauli(qsim::pauli::Pauli::X);
            eve.on_transmit(&mut pair, &mut r);
        }
        assert_eq!(eve.intercepted(), trials);
        let frac = eve.captured_ones() as f64 / trials as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "Eve's bits must look uniform, got {frac}"
        );
    }

    #[test]
    fn display_of_bases() {
        assert_eq!(InterceptBasis::Computational.to_string(), "Z basis");
        assert_eq!(InterceptBasis::Hadamard.to_string(), "X basis");
        assert!(InterceptBasis::Equatorial(0.5)
            .to_string()
            .contains("B(0.5"));
        assert!(InterceptBasis::RandomPerQubit
            .to_string()
            .contains("random"));
    }
}
