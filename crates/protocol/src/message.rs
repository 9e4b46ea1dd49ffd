//! Secret messages and check-bit padding.
//!
//! Alice's `n`-bit secret message `m` is padded with `c` random check bits at random positions
//! to form `m'` of length `n + c = 2N`; the check bits are later revealed publicly so Bob can
//! estimate the transmission error rate without exposing any message bit.

use crate::error::ProtocolError;
use qsim::pauli::Pauli;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The secret `n`-bit message Alice wants to deliver.
///
/// # Examples
///
/// ```rust
/// use protocol::SecretMessage;
///
/// let m = SecretMessage::from_bits(vec![true, false, true, true]);
/// assert_eq!(m.len(), 4);
/// assert_eq!(m.to_bitstring(), "1011");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SecretMessage {
    bits: Vec<bool>,
}

impl SecretMessage {
    /// Creates a message from raw bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// Creates a message from an ASCII `0`/`1` string.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if the string contains other characters.
    pub fn from_bitstring(s: &str) -> Result<Self, ProtocolError> {
        let mut bits = Vec::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '0' => bits.push(false),
                '1' => bits.push(true),
                other => {
                    return Err(ProtocolError::InvalidConfig(format!(
                        "message bitstring contains non-binary character {other:?}"
                    )))
                }
            }
        }
        Ok(Self { bits })
    }

    /// Generates a uniformly random message of `n` bits.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        Self {
            bits: (0..n).map(|_| rng.gen::<bool>()).collect(),
        }
    }

    /// Encodes a UTF-8 string as a message (8 bits per byte, MSB first).
    pub fn from_text(text: &str) -> Self {
        let bits = text
            .bytes()
            .flat_map(|byte| (0..8).rev().map(move |i| (byte >> i) & 1 == 1))
            .collect();
        Self { bits }
    }

    /// Decodes the message back to text (lossy: trailing partial bytes are dropped, invalid
    /// UTF-8 is replaced).
    pub fn to_text_lossy(&self) -> String {
        let bytes: Vec<u8> = self
            .bits
            .chunks(8)
            .filter(|chunk| chunk.len() == 8)
            .map(|chunk| chunk.iter().fold(0u8, |acc, &b| (acc << 1) | u8::from(b)))
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` for the empty message.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The raw bits.
    pub(crate) fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The message as an ASCII `0`/`1` string.
    pub fn to_bitstring(&self) -> String {
        self.bits
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }

    /// Bit error rate relative to another message of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub(crate) fn bit_error_rate(&self, other: &SecretMessage) -> f64 {
        assert_eq!(self.len(), other.len(), "messages must have equal length");
        self.error_rate_against(other.bits.iter().copied())
    }

    /// The fraction of this message's bits that differ from `other`, which
    /// yields one bit per message bit.
    fn error_rate_against(&self, other: impl Iterator<Item = bool>) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let errors = self
            .bits
            .iter()
            .zip(other)
            .filter(|(a, b)| **a != *b)
            .count();
        errors as f64 / self.len() as f64
    }
}

impl fmt::Display for SecretMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bitstring())
    }
}

/// The padded message `m'`: the secret bits plus `c` check bits at random positions, ready to
/// be encoded two bits per qubit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PaddedMessage {
    bits: Vec<bool>,
    check_positions: Vec<usize>,
    check_values: Vec<bool>,
}

impl PaddedMessage {
    /// Builds `m'` by inserting `check_bits` random check bits into `message` at random
    /// positions.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if the total length `n + c` is odd (it must be
    /// `2N` to map onto `N` qubits) or the message is empty.
    pub(crate) fn embed<R: Rng + ?Sized>(
        message: &SecretMessage,
        check_bits: usize,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        let mut padded = Self::empty();
        padded.embed_into(message, check_bits, rng, &mut Vec::new())?;
        Ok(padded)
    }

    /// A padded message with no bits: the scratch value
    /// [`embed_into`](Self::embed_into) overwrites.
    pub(crate) const fn empty() -> Self {
        Self {
            bits: Vec::new(),
            check_positions: Vec::new(),
            check_values: Vec::new(),
        }
    }

    /// [`embed`](Self::embed) into this value's buffers, with `slots` as
    /// scratch: draw for draw the same padding, without allocating once the
    /// buffers are warm.
    pub(crate) fn embed_into<R: Rng + ?Sized>(
        &mut self,
        message: &SecretMessage,
        check_bits: usize,
        rng: &mut R,
        slots: &mut Vec<usize>,
    ) -> Result<(), ProtocolError> {
        if message.is_empty() {
            return Err(ProtocolError::InvalidConfig(
                "cannot pad an empty message".into(),
            ));
        }
        let total = message.len() + check_bits;
        if !total.is_multiple_of(2) {
            return Err(ProtocolError::InvalidConfig(format!(
                "padded length n + c = {total} must be even (two bits per qubit)"
            )));
        }
        // Choose which of the `total` slots hold check bits.
        slots.clear();
        slots.extend(0..total);
        slots.shuffle(rng);
        self.check_positions.clear();
        self.check_positions.extend_from_slice(&slots[..check_bits]);
        self.check_positions.sort_unstable();
        self.check_values.clear();
        self.check_values
            .extend((0..check_bits).map(|_| rng.gen::<bool>()));

        self.bits.clear();
        let mut message_iter = message.bits().iter();
        let mut check_iter = self.check_values.iter();
        for slot in 0..total {
            if self.check_positions.binary_search(&slot).is_ok() {
                self.bits
                    .push(*check_iter.next().expect("one value per check position"));
            } else {
                self.bits.push(
                    *message_iter
                        .next()
                        .expect("message bits fill non-check slots"),
                );
            }
        }
        Ok(())
    }

    /// Total length `2N = n + c`.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Number of qubits needed (`N`).
    pub fn qubit_len(&self) -> usize {
        self.bits.len() / 2
    }

    /// The padded bits `m'`.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The check-bit positions (sorted).
    pub(crate) fn check_positions(&self) -> &[usize] {
        &self.check_positions
    }

    /// The check-bit values, in position order.
    pub(crate) fn check_values(&self) -> &[bool] {
        &self.check_values
    }

    /// The Pauli operators encoding `m'`, two bits per operator.
    pub fn as_paulis(&self) -> Vec<Pauli> {
        self.paulis().collect()
    }

    /// [`as_paulis`](Self::as_paulis) without the allocation.
    pub(crate) fn paulis(&self) -> impl Iterator<Item = Pauli> + '_ {
        self.bits
            .chunks(2)
            .map(|pair| Pauli::from_bits(pair[0], pair[1]))
    }

    /// Rebuilds padded bits from decoded Pauli operators (Bob's decoding step).
    pub(crate) fn bits_from_paulis(paulis: &[Pauli]) -> Vec<bool> {
        paulis
            .iter()
            .flat_map(|p| {
                let (msb, lsb) = p.to_bits();
                [msb, lsb]
            })
            .collect()
    }

    /// Error rate observed on the check bits of a received bit string relative to this padded
    /// message's check values.
    ///
    /// # Panics
    ///
    /// Panics if `received` has a different length.
    pub(crate) fn check_bit_error_rate(&self, received: &[bool]) -> f64 {
        assert_eq!(received.len(), self.len(), "received length mismatch");
        if self.check_positions.is_empty() {
            return 0.0;
        }
        let errors = self
            .check_positions
            .iter()
            .zip(self.check_values.iter())
            .filter(|(&pos, &val)| received[pos] != val)
            .count();
        errors as f64 / self.check_positions.len() as f64
    }

    /// Strips the check bits out of a received bit string, recovering the message bits.
    ///
    /// # Panics
    ///
    /// Panics if `received` has a different length.
    pub(crate) fn extract_message(&self, received: &[bool]) -> SecretMessage {
        SecretMessage::from_bits(self.message_bits(received).collect())
    }

    /// `sent.bit_error_rate(&self.extract_message(received))`, without
    /// building the extracted message.
    ///
    /// # Panics
    ///
    /// Panics if `received` has a different length, or `sent` does not fill
    /// this message's non-check slots.
    pub(crate) fn message_bit_error_rate(&self, received: &[bool], sent: &SecretMessage) -> f64 {
        assert_eq!(
            self.len() - self.check_positions.len(),
            sent.len(),
            "messages must have equal length"
        );
        sent.error_rate_against(self.message_bits(received))
    }

    /// The bits of `received` outside the check positions, in order.
    fn message_bits<'a>(&'a self, received: &'a [bool]) -> impl Iterator<Item = bool> + 'a {
        assert_eq!(received.len(), self.len(), "received length mismatch");
        received
            .iter()
            .enumerate()
            .filter(|(i, _)| self.check_positions.binary_search(i).is_err())
            .map(|(_, &b)| b)
    }
}

impl fmt::Display for PaddedMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "m' ({} bits, {} check bits)",
            self.len(),
            self.check_positions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(17)
    }

    #[test]
    fn secret_message_constructors() {
        let m = SecretMessage::from_bitstring("1010").unwrap();
        assert_eq!(m.bits(), &[true, false, true, false]);
        assert_eq!(m.to_bitstring(), "1010");
        assert_eq!(m.to_string(), "1010");
        assert!(SecretMessage::from_bitstring("10a1").is_err());
        let r = SecretMessage::random(32, &mut rng());
        assert_eq!(r.len(), 32);
        assert!(!r.is_empty());
    }

    #[test]
    fn text_round_trip() {
        let m = SecretMessage::from_text("Hi");
        assert_eq!(m.len(), 16);
        assert_eq!(m.to_text_lossy(), "Hi");
    }

    #[test]
    fn bit_error_rate() {
        let a = SecretMessage::from_bitstring("1100").unwrap();
        let b = SecretMessage::from_bitstring("1001").unwrap();
        assert!((a.bit_error_rate(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.bit_error_rate(&a), 0.0);
    }

    #[test]
    fn embedding_preserves_message_and_length() {
        let mut r = rng();
        let message = SecretMessage::random(20, &mut r);
        let padded = PaddedMessage::embed(&message, 6, &mut r).unwrap();
        assert_eq!(padded.len(), 26);
        assert_eq!(padded.qubit_len(), 13);
        assert_eq!(padded.check_positions().len(), 6);
        assert_eq!(padded.check_values().len(), 6);
        assert_eq!(padded.extract_message(padded.bits()), message);
        assert!(padded.to_string().contains("check"));
    }

    #[test]
    fn embedding_rejects_odd_total_and_empty_message() {
        let mut r = rng();
        let message = SecretMessage::random(5, &mut r);
        assert!(PaddedMessage::embed(&message, 2, &mut r).is_err());
        let empty = SecretMessage::from_bits(vec![]);
        assert!(PaddedMessage::embed(&empty, 2, &mut r).is_err());
    }

    #[test]
    fn pauli_round_trip() {
        let mut r = rng();
        let message = SecretMessage::random(10, &mut r);
        let padded = PaddedMessage::embed(&message, 4, &mut r).unwrap();
        let paulis = padded.as_paulis();
        assert_eq!(paulis.len(), padded.qubit_len());
        let recovered = PaddedMessage::bits_from_paulis(&paulis);
        assert_eq!(recovered, padded.bits());
    }

    #[test]
    fn check_bit_error_rate_detects_flips() {
        let mut r = rng();
        let message = SecretMessage::random(8, &mut r);
        let padded = PaddedMessage::embed(&message, 4, &mut r).unwrap();
        // Error-free reception.
        assert_eq!(padded.check_bit_error_rate(padded.bits()), 0.0);
        // Flip every check bit.
        let mut corrupted = padded.bits().to_vec();
        for &pos in padded.check_positions() {
            corrupted[pos] = !corrupted[pos];
        }
        assert!((padded.check_bit_error_rate(&corrupted) - 1.0).abs() < 1e-12);
        // Flipping a non-check bit does not affect the check error rate.
        let mut corrupted = padded.bits().to_vec();
        let non_check = (0..padded.len())
            .find(|i| padded.check_positions().binary_search(i).is_err())
            .unwrap();
        corrupted[non_check] = !corrupted[non_check];
        assert_eq!(padded.check_bit_error_rate(&corrupted), 0.0);
    }

    #[test]
    fn extract_message_recovers_payload_despite_check_bit_errors() {
        let mut r = rng();
        let message = SecretMessage::random(8, &mut r);
        let padded = PaddedMessage::embed(&message, 4, &mut r).unwrap();
        let mut corrupted = padded.bits().to_vec();
        for &pos in padded.check_positions() {
            corrupted[pos] = !corrupted[pos];
        }
        assert_eq!(padded.extract_message(&corrupted), message);
    }

    #[test]
    fn embedding_into_warm_buffers_matches_a_fresh_embedding() {
        let (mut fresh_rng, mut pooled_rng) = (rng(), rng());
        let mut pooled = PaddedMessage::empty();
        let mut slots = Vec::new();
        for (bits, check_bits) in [(14, 6), (8, 2), (20, 4), (8, 0)] {
            let message = SecretMessage::random(bits, &mut fresh_rng);
            let fresh = PaddedMessage::embed(&message, check_bits, &mut fresh_rng).unwrap();
            let _ = SecretMessage::random(bits, &mut pooled_rng);
            pooled
                .embed_into(&message, check_bits, &mut pooled_rng, &mut slots)
                .unwrap();
            assert_eq!(pooled, fresh);
        }
    }

    #[test]
    fn message_bit_error_rate_matches_the_extracted_message() {
        let mut r = rng();
        let message = SecretMessage::random(10, &mut r);
        let padded = PaddedMessage::embed(&message, 4, &mut r).unwrap();
        for flip in 0..padded.len() {
            let mut received = padded.bits().to_vec();
            received[flip] = !received[flip];
            received[(flip * 5) % padded.len()] ^= true;
            assert_eq!(
                padded.message_bit_error_rate(&received, &message),
                message.bit_error_rate(&padded.extract_message(&received))
            );
        }
    }

    #[test]
    fn check_positions_are_sorted_and_within_range() {
        let mut r = rng();
        for _ in 0..20 {
            let message = SecretMessage::random(14, &mut r);
            let padded = PaddedMessage::embed(&message, 6, &mut r).unwrap();
            let pos = padded.check_positions();
            assert!(pos.windows(2).all(|w| w[0] < w[1]));
            assert!(pos.iter().all(|&p| p < padded.len()));
        }
    }

    #[test]
    fn zero_check_bits_is_allowed() {
        let mut r = rng();
        let message = SecretMessage::random(8, &mut r);
        let padded = PaddedMessage::embed(&message, 0, &mut r).unwrap();
        assert_eq!(padded.check_bit_error_rate(padded.bits()), 0.0);
        assert_eq!(padded.extract_message(padded.bits()), message);
    }
}
