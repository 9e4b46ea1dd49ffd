//! Pre-shared secret identities.
//!
//! Alice and Bob each hold a secret identity of `2l` bits (`id_A`, `id_B`). An identity is
//! encoded onto `l` qubits, two bits per qubit, with the same Pauli alphabet as the message.
//! Because the protocol never publishes the raw Bell results of the identity blocks (Alice's
//! block) or masks them with cover operations (Bob's block), the identities stay **reusable**
//! across sessions.

use crate::error::ProtocolError;
use qsim::pauli::Pauli;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A secret identity string of `2l` bits.
///
/// # Examples
///
/// ```rust
/// use protocol::identity::IdentityString;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let id = IdentityString::random(4, &mut rng); // l = 4 → 8 bits
/// assert_eq!(id.bit_len(), 8);
/// assert_eq!(id.qubit_len(), 4);
/// assert_eq!(id.as_paulis().len(), 4);
/// ```
///
/// Decoding goes through [`IdentityString::from_bits`], so an empty or
/// odd-length identity fails at decode instead of in a session.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct IdentityString {
    bits: Vec<bool>,
}

impl IdentityString {
    /// Creates an identity from raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OddIdentityLength`] if the bit count is odd, and
    /// [`ProtocolError::InvalidConfig`] if it is empty.
    pub fn from_bits(bits: Vec<bool>) -> Result<Self, ProtocolError> {
        if bits.is_empty() {
            return Err(ProtocolError::InvalidConfig(
                "identity strings must not be empty".into(),
            ));
        }
        if !bits.len().is_multiple_of(2) {
            return Err(ProtocolError::OddIdentityLength(bits.len()));
        }
        Ok(Self { bits })
    }

    /// Generates a uniformly random identity of `l` qubits (`2l` bits).
    ///
    /// # Panics
    ///
    /// Panics if `l` is zero.
    pub fn random<R: Rng + ?Sized>(l: usize, rng: &mut R) -> Self {
        assert!(l > 0, "identity must cover at least one qubit");
        Self {
            bits: (0..2 * l).map(|_| rng.gen::<bool>()).collect(),
        }
    }

    /// Number of bits (`2l`).
    pub fn bit_len(&self) -> usize {
        self.bits.len()
    }

    /// Number of qubits the identity occupies (`l`).
    pub fn qubit_len(&self) -> usize {
        self.bits.len() / 2
    }

    /// The identity as the Pauli operators that encode it (two bits per operator, MSB first).
    pub fn as_paulis(&self) -> Vec<Pauli> {
        self.paulis().collect()
    }

    /// [`as_paulis`](Self::as_paulis) without the allocation.
    pub(crate) fn paulis(&self) -> impl Iterator<Item = Pauli> + '_ {
        self.bits
            .chunks(2)
            .map(|pair| Pauli::from_bits(pair[0], pair[1]))
    }
}

impl fmt::Display for IdentityString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bits {
            write!(f, "{}", if *b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// The pair of pre-shared identities `(id_A, id_B)` known to both legitimate parties (and to
/// nobody else).
///
/// Decoding goes through [`IdentityPair::new`], so identities of different
/// lengths fail at decode instead of in a session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct IdentityPair {
    /// Alice's identity `id_A`.
    pub alice: IdentityString,
    /// Bob's identity `id_B`.
    pub bob: IdentityString,
}

impl IdentityPair {
    /// Creates a pair from two identities.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if the identities have different lengths (the
    /// protocol reserves `l` qubits for each, so they must match).
    pub fn new(alice: IdentityString, bob: IdentityString) -> Result<Self, ProtocolError> {
        if alice.bit_len() != bob.bit_len() {
            return Err(ProtocolError::InvalidConfig(format!(
                "id_A has {} bits but id_B has {} bits; they must be equal",
                alice.bit_len(),
                bob.bit_len()
            )));
        }
        Ok(Self { alice, bob })
    }

    /// Generates a fresh random identity pair with `l` qubits (`2l` bits) per identity.
    ///
    /// # Panics
    ///
    /// Panics if `l` is zero.
    pub fn generate<R: Rng + ?Sized>(l: usize, rng: &mut R) -> Self {
        Self {
            alice: IdentityString::random(l, rng),
            bob: IdentityString::random(l, rng),
        }
    }

    /// Number of qubits each identity occupies (`l`).
    pub fn qubit_len(&self) -> usize {
        self.alice.qubit_len()
    }
}

impl Deserialize for IdentityString {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let bits = Vec::<bool>::from_value(value.get_field("bits")?)?;
        Self::from_bits(bits).map_err(|e| serde::Error::new(format!("invalid identity: {e}")))
    }
}

impl Deserialize for IdentityPair {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let alice = IdentityString::from_value(value.get_field("alice")?)?;
        let bob = IdentityString::from_value(value.get_field("bob")?)?;
        Self::new(alice, bob).map_err(|e| serde::Error::new(format!("invalid identity pair: {e}")))
    }
}

impl fmt::Display for IdentityPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "id_A={}, id_B={}", self.alice, self.bob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    #[test]
    fn random_identity_has_requested_size() {
        let id = IdentityString::random(8, &mut rng());
        assert_eq!(id.bit_len(), 16);
        assert_eq!(id.qubit_len(), 8);
        assert_eq!(id.as_paulis().len(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_length_identity_panics() {
        let _ = IdentityString::random(0, &mut rng());
    }

    #[test]
    fn from_bits_validation() {
        assert!(IdentityString::from_bits(vec![true, false]).is_ok());
        assert_eq!(
            IdentityString::from_bits(vec![true]),
            Err(ProtocolError::OddIdentityLength(1))
        );
        assert!(matches!(
            IdentityString::from_bits(vec![]),
            Err(ProtocolError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pauli_mapping_follows_paper_rule() {
        let id =
            IdentityString::from_bits(vec![false, false, false, true, true, false, true, true])
                .unwrap();
        assert_eq!(
            id.as_paulis(),
            vec![Pauli::I, Pauli::Z, Pauli::X, Pauli::IY]
        );
    }

    #[test]
    fn identity_pair_generation_and_validation() {
        let pair = IdentityPair::generate(6, &mut rng());
        assert_eq!(pair.qubit_len(), 6);
        assert_ne!(
            pair.alice, pair.bob,
            "independent identities should differ (w.h.p.)"
        );
        let ok = IdentityPair::new(pair.alice.clone(), pair.bob.clone());
        assert!(ok.is_ok());
        let bad = IdentityPair::new(
            IdentityString::random(2, &mut rng()),
            IdentityString::random(3, &mut rng()),
        );
        assert!(matches!(bad, Err(ProtocolError::InvalidConfig(_))));
    }

    #[test]
    fn display_renders_bits() {
        let id = IdentityString::from_bits(vec![true, false]).unwrap();
        assert_eq!(id.to_string(), "10");
        let pair = IdentityPair::new(id.clone(), id).unwrap();
        assert!(pair.to_string().contains("id_A=10"));
    }

    #[test]
    fn two_generated_pairs_differ() {
        let mut r = rng();
        let a = IdentityPair::generate(16, &mut r);
        let b = IdentityPair::generate(16, &mut r);
        assert_ne!(a, b);
    }
}
