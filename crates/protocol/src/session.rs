//! Session outcome types: the observable vocabulary of a run.
//!
//! The six-phase session orchestration lives in [`crate::engine`]; this module
//! keeps what a finished session *looks like* — [`SessionOutcome`],
//! [`SessionStatus`], [`AbortStage`], [`ResourceUsage`], [`Impersonation`].
//! All execution entry points live on [`crate::engine::SessionEngine`].

use crate::auth::AuthReport;
use crate::config::SessionConfig;
use crate::di_check::DiCheckReport;
use crate::message::SecretMessage;
use qchannel::classical::Transcript;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which party, if any, is being impersonated by an eavesdropper who does not know the
/// corresponding pre-shared identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Impersonation {
    /// Both parties are legitimate.
    None,
    /// Eve plays Alice (she does not know `id_A`, so she encodes random Paulis on `C_A`).
    OfAlice,
    /// Eve plays Bob (she does not know `id_B`, so she encodes random Paulis on `D_B`).
    OfBob,
}

impl fmt::Display for Impersonation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Impersonation::None => write!(f, "none"),
            Impersonation::OfAlice => write!(f, "Eve impersonates Alice"),
            Impersonation::OfBob => write!(f, "Eve impersonates Bob"),
        }
    }
}

/// The protocol stage at which a session aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AbortStage {
    /// The first DI security check (after entanglement sharing).
    DiCheck1,
    /// Alice's verification of Bob's identity.
    BobAuthentication,
    /// Bob's verification of Alice's identity.
    AliceAuthentication,
    /// The second DI security check (after transmission).
    DiCheck2,
    /// The final check-bit integrity verification.
    IntegrityCheck,
}

impl fmt::Display for AbortStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortStage::DiCheck1 => write!(f, "DI check round 1"),
            AbortStage::BobAuthentication => write!(f, "Bob authentication"),
            AbortStage::AliceAuthentication => write!(f, "Alice authentication"),
            AbortStage::DiCheck2 => write!(f, "DI check round 2"),
            AbortStage::IntegrityCheck => write!(f, "integrity check"),
        }
    }
}

/// Terminal status of a session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionStatus {
    /// Bob received and accepted the message.
    Delivered,
    /// The protocol aborted at the given stage.
    Aborted {
        /// The stage at which the abort occurred.
        stage: AbortStage,
        /// Human-readable reason.
        reason: String,
    },
}

impl SessionStatus {
    /// Returns `true` for a delivered message.
    pub fn is_delivered(&self) -> bool {
        matches!(self, SessionStatus::Delivered)
    }
}

impl fmt::Display for SessionStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionStatus::Delivered => write!(f, "delivered"),
            SessionStatus::Aborted { stage, reason } => write!(f, "aborted at {stage}: {reason}"),
        }
    }
}

/// Resource accounting for one session (feeds Table I's cost columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Total EPR pairs consumed (`N + 2l + 2d`).
    pub total_pairs: usize,
    /// Pairs carrying message bits (`N`).
    pub message_pairs: usize,
    /// Pairs carrying identity bits (`2l`).
    pub identity_pairs: usize,
    /// Pairs sacrificed in the two DI checks (`2d`).
    pub check_pairs: usize,
    /// Qubits Alice physically transmitted to Bob through the quantum channel.
    pub transmitted_qubits: usize,
    /// Messages exchanged on the classical channel.
    pub classical_messages: usize,
    /// Data qubits transmitted per secret message bit (1 for this protocol: each transmitted
    /// qubit of a message pair carries two bits, of which one is padding/check overhead in the
    /// worst case; Table I counts the asymptotic cost, `N` qubits for `2N` bits → ½ pair, i.e.
    /// one qubit, per bit).
    pub qubits_per_message_bit: f64,
}

impl ResourceUsage {
    /// The session's planned resource accounting: every field except the
    /// transcript-dependent `classical_messages` (left at zero) is a pure
    /// function of the configuration and the identity length, so Table I's
    /// cost columns can be checked without running a session. Every
    /// Outcomes-mode [`SessionOutcome`] carries this value with the
    /// transcript's message count filled in.
    #[must_use]
    pub fn planned(config: &SessionConfig, identity_qubits: usize) -> Self {
        let padded_bits = config.message_bits() + config.check_bits();
        let message_pairs = padded_bits / 2;
        let identity_pairs = 2 * identity_qubits;
        let check_pairs = 2 * config.di_check_pairs();
        let total_pairs = message_pairs + identity_pairs + check_pairs;
        Self {
            total_pairs,
            message_pairs,
            identity_pairs,
            check_pairs,
            // The second DI check draws its pairs from those Bob already
            // holds, so only `d` of the `2d` check pairs cross the channel.
            transmitted_qubits: total_pairs - config.di_check_pairs(),
            classical_messages: 0,
            qubits_per_message_bit: message_pairs as f64 / padded_bits as f64 * 2.0,
        }
    }
}

/// Everything observable about one finished session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// Delivered or aborted (and where / why).
    pub status: SessionStatus,
    /// Report of the first DI check, if it ran.
    pub di_check_round1: Option<DiCheckReport>,
    /// Report of the second DI check, if it ran.
    pub di_check_round2: Option<DiCheckReport>,
    /// Alice's verification of Bob's identity, if it ran.
    pub bob_auth: Option<AuthReport>,
    /// Bob's verification of Alice's identity, if it ran.
    pub alice_auth: Option<AuthReport>,
    /// The secret message Alice attempted to send.
    pub sent_message: SecretMessage,
    /// The message Bob decoded (only on delivery).
    pub received_message: Option<SecretMessage>,
    /// Error rate observed on the revealed check bits (only when decoding ran).
    pub check_bit_error_rate: Option<f64>,
    /// True bit error rate between sent and received message (ground truth, only on delivery).
    pub message_bit_error_rate: Option<f64>,
    /// The full public classical transcript (what Eve gets to see).
    pub transcript: Transcript,
    /// Resource accounting.
    pub resources: ResourceUsage,
}

impl SessionOutcome {
    /// Returns `true` when the message was delivered.
    pub fn is_delivered(&self) -> bool {
        self.status.is_delivered()
    }

    /// Returns `true` when the protocol aborted at the given stage.
    pub fn aborted_at(&self, stage: AbortStage) -> bool {
        matches!(&self.status, SessionStatus::Aborted { stage: s, .. } if *s == stage)
    }

    /// Fraction of message bits delivered correctly (1.0 on a perfect run, `None` if the
    /// session aborted before decoding).
    pub fn message_accuracy(&self) -> Option<f64> {
        self.message_bit_error_rate.map(|e| 1.0 - e)
    }
}

impl fmt::Display for SessionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session {}", self.status)?;
        if let Some(r1) = &self.di_check_round1 {
            write!(f, "; S1={:?}", r1.chsh)?;
        }
        if let Some(r2) = &self.di_check_round2 {
            write!(f, "; S2={:?}", r2.chsh)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SessionConfig;
    use crate::engine::{Scenario, SessionEngine};
    use crate::identity::IdentityPair;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn small_config() -> SessionConfig {
        SessionConfig::builder()
            .message_bits(16)
            .check_bits(4)
            .di_check_pairs(220)
            .build()
            .unwrap()
    }

    #[test]
    fn planned_resources_match_the_live_accounting() {
        // `ResourceUsage::planned` must agree field for field with the
        // engine's per-outcome accounting (up to the transcript-dependent
        // classical message count) — it is what the `table1` binary's
        // campaign path prints.
        let identities = IdentityPair::generate(4, &mut rng(33));
        let config = small_config();
        let scenario = Scenario::new(config.clone(), identities.clone());
        let outcome = SessionEngine::new(33).run(&scenario).unwrap();
        let planned = ResourceUsage::planned(&config, identities.qubit_len());
        let live = ResourceUsage {
            classical_messages: 0,
            ..outcome.resources
        };
        assert_eq!(planned, live);
        assert!(outcome.resources.classical_messages > 0);
    }

    #[test]
    fn abort_stage_and_status_display() {
        assert_eq!(AbortStage::DiCheck1.to_string(), "DI check round 1");
        assert_eq!(Impersonation::OfBob.to_string(), "Eve impersonates Bob");
        assert!(SessionStatus::Delivered.is_delivered());
        let aborted = SessionStatus::Aborted {
            stage: AbortStage::IntegrityCheck,
            reason: "too many errors".into(),
        };
        assert!(!aborted.is_delivered());
        assert!(aborted.to_string().contains("integrity"));
    }
}
