//! Session configuration.
//!
//! [`SessionConfig`] gathers every knob of a UA-DI-QSDC run: message and check-bit lengths,
//! the DI-check budget `d`, abort thresholds, and the quantum channel specification. The
//! builder validates the combination (for example `n + c` must be even so the padded message
//! maps onto whole qubits).

use crate::error::ProtocolError;
use qchannel::quantum::ChannelSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Complete configuration of one protocol session.
///
/// # Examples
///
/// ```rust
/// use protocol::config::SessionConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SessionConfig::builder()
///     .message_bits(32)
///     .check_bits(8)
///     .di_check_pairs(200)
///     .build()?;
/// assert_eq!(config.padded_bits(), 40);
/// assert_eq!(config.message_qubits(), 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    message_bits: usize,
    check_bits: usize,
    di_check_pairs: usize,
    chsh_abort_threshold: f64,
    auth_error_tolerance: f64,
    check_bit_error_tolerance: f64,
    channel: ChannelSpec,
}

impl SessionConfig {
    /// Starts a builder with sensible defaults (16 message bits, 4 check bits, 256 DI-check
    /// pairs per round, CHSH abort threshold 2, 15 % auth / integrity tolerances, ideal
    /// channel).
    pub fn builder() -> SessionConfigBuilder {
        SessionConfigBuilder::default()
    }

    /// Number of secret message bits `n`.
    pub fn message_bits(&self) -> usize {
        self.message_bits
    }

    /// Number of integrity check bits `c`.
    pub fn check_bits(&self) -> usize {
        self.check_bits
    }

    /// Length of the padded message `m'` in bits (`n + c = 2N`).
    pub fn padded_bits(&self) -> usize {
        self.message_bits + self.check_bits
    }

    /// Number of message-carrying qubits `N`.
    pub fn message_qubits(&self) -> usize {
        self.padded_bits() / 2
    }

    /// Number of EPR pairs sacrificed per DI-security-check round (`d`).
    pub fn di_check_pairs(&self) -> usize {
        self.di_check_pairs
    }

    /// The CHSH value below which (or at which) the protocol aborts. The paper requires
    /// `S = 2√2 − ε > 2`, so the default threshold is the classical bound 2.
    pub fn chsh_abort_threshold(&self) -> f64 {
        self.chsh_abort_threshold
    }

    /// Maximum tolerated fraction of mismatched identity qubits before an authentication
    /// abort.
    pub fn auth_error_tolerance(&self) -> f64 {
        self.auth_error_tolerance
    }

    /// Maximum tolerated error rate on the revealed check bits before an integrity abort.
    pub fn check_bit_error_tolerance(&self) -> f64 {
        self.check_bit_error_tolerance
    }

    /// The quantum channel specification used when Alice sends her qubits to Bob.
    pub fn channel(&self) -> &ChannelSpec {
        &self.channel
    }

    /// Total EPR pairs a session consumes for an identity of `l` qubits:
    /// `N + 2l + 2d` (paper, Section II step 1).
    #[cfg(test)]
    pub(crate) fn total_pairs(&self, identity_qubits: usize) -> usize {
        self.message_qubits() + 2 * identity_qubits + 2 * self.di_check_pairs
    }
}

impl fmt::Display for SessionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SessionConfig(n={}, c={}, d={}, CHSH>{}, auth_tol={}, chk_tol={}, {})",
            self.message_bits,
            self.check_bits,
            self.di_check_pairs,
            self.chsh_abort_threshold,
            self.auth_error_tolerance,
            self.check_bit_error_tolerance,
            self.channel
        )
    }
}

/// Builder for [`SessionConfig`].
#[derive(Debug, Clone)]
pub struct SessionConfigBuilder {
    message_bits: usize,
    check_bits: usize,
    di_check_pairs: usize,
    chsh_abort_threshold: f64,
    auth_error_tolerance: f64,
    check_bit_error_tolerance: f64,
    channel: ChannelSpec,
}

impl Default for SessionConfigBuilder {
    fn default() -> Self {
        Self {
            message_bits: 16,
            check_bits: 4,
            di_check_pairs: 256,
            chsh_abort_threshold: 2.0,
            auth_error_tolerance: 0.15,
            check_bit_error_tolerance: 0.15,
            channel: ChannelSpec::ideal(),
        }
    }
}

impl SessionConfigBuilder {
    /// Sets the number of secret message bits `n`.
    #[must_use]
    pub fn message_bits(mut self, n: usize) -> Self {
        self.message_bits = n;
        self
    }

    /// Sets the number of integrity check bits `c`.
    #[must_use]
    pub fn check_bits(mut self, c: usize) -> Self {
        self.check_bits = c;
        self
    }

    /// Sets the DI-check pair budget `d` per round.
    #[must_use]
    pub fn di_check_pairs(mut self, d: usize) -> Self {
        self.di_check_pairs = d;
        self
    }

    /// Sets the CHSH abort threshold (protocol aborts when `S ≤ threshold`).
    #[must_use]
    pub fn chsh_abort_threshold(mut self, threshold: f64) -> Self {
        self.chsh_abort_threshold = threshold;
        self
    }

    /// Sets the authentication error tolerance (fraction of identity qubits allowed to
    /// mismatch).
    #[must_use]
    pub fn auth_error_tolerance(mut self, tolerance: f64) -> Self {
        self.auth_error_tolerance = tolerance;
        self
    }

    /// Sets the check-bit error tolerance for the final integrity verification.
    #[must_use]
    pub fn check_bit_error_tolerance(mut self, tolerance: f64) -> Self {
        self.check_bit_error_tolerance = tolerance;
        self
    }

    /// Sets the quantum channel specification.
    #[must_use]
    pub fn channel(mut self, channel: ChannelSpec) -> Self {
        self.channel = channel;
        self
    }

    /// Validates the configuration and builds it.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] when:
    /// - the message is empty,
    /// - `n + c` is odd,
    /// - fewer than 16 DI-check pairs are budgeted (the CHSH estimate would be meaningless),
    /// - any tolerance / threshold is outside its valid range.
    pub fn build(self) -> Result<SessionConfig, ProtocolError> {
        if self.message_bits == 0 {
            return Err(ProtocolError::InvalidConfig(
                "message must contain at least one bit".into(),
            ));
        }
        if !(self.message_bits + self.check_bits).is_multiple_of(2) {
            return Err(ProtocolError::InvalidConfig(format!(
                "n + c must be even, got {} + {}",
                self.message_bits, self.check_bits
            )));
        }
        if self.di_check_pairs < 16 {
            return Err(ProtocolError::InvalidConfig(format!(
                "at least 16 DI-check pairs are required for a usable CHSH estimate, got {}",
                self.di_check_pairs
            )));
        }
        if !(0.0..=4.0).contains(&self.chsh_abort_threshold) {
            return Err(ProtocolError::InvalidConfig(
                "CHSH abort threshold must lie in [0, 4]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.auth_error_tolerance)
            || !(0.0..=1.0).contains(&self.check_bit_error_tolerance)
        {
            return Err(ProtocolError::InvalidConfig(
                "tolerances must lie in [0, 1]".into(),
            ));
        }
        Ok(SessionConfig {
            message_bits: self.message_bits,
            check_bits: self.check_bits,
            di_check_pairs: self.di_check_pairs,
            chsh_abort_threshold: self.chsh_abort_threshold,
            auth_error_tolerance: self.auth_error_tolerance,
            check_bit_error_tolerance: self.check_bit_error_tolerance,
            channel: self.channel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noise::DeviceModel;

    #[test]
    fn default_builder_produces_valid_config() {
        let config = SessionConfig::builder().build().unwrap();
        assert_eq!(config.message_bits(), 16);
        assert_eq!(config.check_bits(), 4);
        assert_eq!(config.padded_bits(), 20);
        assert_eq!(config.message_qubits(), 10);
        assert_eq!(config.di_check_pairs(), 256);
        assert_eq!(config.chsh_abort_threshold(), 2.0);
        assert!(config.channel().device().is_ideal());
        // N + 2l + 2d with l = 4: 10 + 8 + 512 = 530
        assert_eq!(config.total_pairs(4), 530);
        assert!(config.to_string().contains("n=16"));
    }

    #[test]
    fn builder_overrides() {
        let config = SessionConfig::builder()
            .message_bits(32)
            .check_bits(8)
            .di_check_pairs(64)
            .chsh_abort_threshold(2.2)
            .auth_error_tolerance(0.0)
            .check_bit_error_tolerance(0.25)
            .channel(ChannelSpec::noisy_identity_chain(
                10,
                DeviceModel::ibm_brisbane_like(),
            ))
            .build()
            .unwrap();
        assert_eq!(config.message_bits(), 32);
        assert_eq!(config.check_bits(), 8);
        assert_eq!(config.di_check_pairs(), 64);
        assert!((config.chsh_abort_threshold() - 2.2).abs() < 1e-12);
        assert_eq!(config.auth_error_tolerance(), 0.0);
        assert!((config.check_bit_error_tolerance() - 0.25).abs() < 1e-12);
        assert_eq!(config.channel().length(), 10);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SessionConfig::builder().message_bits(0).build().is_err());
        assert!(SessionConfig::builder()
            .message_bits(3)
            .check_bits(2)
            .build()
            .is_err());
        assert!(SessionConfig::builder().di_check_pairs(4).build().is_err());
        assert!(SessionConfig::builder()
            .chsh_abort_threshold(5.0)
            .build()
            .is_err());
        assert!(SessionConfig::builder()
            .auth_error_tolerance(1.5)
            .build()
            .is_err());
        assert!(SessionConfig::builder()
            .check_bit_error_tolerance(-0.1)
            .build()
            .is_err());
    }
}
