//! Baseline: DI-QSDC without user authentication.
//!
//! The closest prior work (Zhou et al. 2020, row 1 of Table I) is a DI-QSDC protocol with the
//! same resource (EPR pairs), the same encoding (dense-coding Paulis) and the same decoding
//! (BSM), but **no identity authentication**. [`run_baseline_di_qsdc`] implements that shape so
//! the comparison rows of Table I are backed by runnable code and so the impersonation
//! experiment can show the concrete difference: the baseline happily delivers a message to an
//! impersonator, the proposed protocol does not.

use crate::config::SessionConfig;
use crate::di_check::{run_di_check, DiCheckReport, DiCheckRound};
use crate::error::ProtocolError;
use crate::message::{PaddedMessage, SecretMessage};
use qchannel::epr::EprPair;
use qchannel::quantum::{ChannelTap, QuantumChannel};
use qsim::pauli::Pauli;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Outcome of a baseline (no-authentication) DI-QSDC run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineOutcome {
    /// `true` when the message reached the receiver (whoever that was).
    pub delivered: bool,
    /// Reason for an abort, when not delivered.
    pub abort_reason: Option<String>,
    /// First-round CHSH report.
    pub di_check_round1: Option<DiCheckReport>,
    /// Second-round CHSH report.
    pub di_check_round2: Option<DiCheckReport>,
    /// The message that was sent.
    pub sent_message: SecretMessage,
    /// The message the receiver decoded (on delivery).
    pub received_message: Option<SecretMessage>,
    /// Check-bit error rate observed by the receiver.
    pub check_bit_error_rate: Option<f64>,
    /// Ground-truth message bit error rate (on delivery).
    pub message_bit_error_rate: Option<f64>,
    /// Total EPR pairs consumed (`N + 2d`).
    pub total_pairs: usize,
}

impl BaselineOutcome {
    /// Fraction of message bits delivered correctly.
    pub fn message_accuracy(&self) -> Option<f64> {
        self.message_bit_error_rate.map(|e| 1.0 - e)
    }
}

impl fmt::Display for BaselineOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.delivered {
            write!(f, "baseline DI-QSDC: delivered")
        } else {
            write!(
                f,
                "baseline DI-QSDC: aborted ({})",
                self.abort_reason.as_deref().unwrap_or("unknown")
            )
        }
    }
}

/// Runs the no-authentication baseline: entanglement sharing, first DI check, Pauli encoding,
/// transmission, second DI check, BSM decoding — the proposed protocol minus phases dealing
/// with `id_A` / `id_B`.
///
/// The `tap` lets the same attack strategies used against the full protocol run against the
/// baseline. Because there is no authentication, an impersonation "attack" cannot be detected
/// at all — exactly the gap the paper's contribution closes.
///
/// # Errors
///
/// Returns a [`ProtocolError`] on configuration misuse.
pub fn run_baseline_di_qsdc<R: Rng>(
    config: &SessionConfig,
    message: &SecretMessage,
    tap: &mut dyn ChannelTap,
    rng: &mut R,
) -> Result<BaselineOutcome, ProtocolError> {
    if message.len() != config.message_bits() {
        return Err(ProtocolError::MessageLengthMismatch {
            expected: config.message_bits(),
            actual: message.len(),
        });
    }
    let d = config.di_check_pairs();
    let padded = PaddedMessage::embed(message, config.check_bits(), rng)?;
    let n_qubits = padded.qubit_len();
    let total_pairs = n_qubits + 2 * d;
    let channel = QuantumChannel::new(config.channel().clone());

    // Entanglement sharing.
    let mut pairs: Vec<EprPair> = Vec::with_capacity(total_pairs);
    for _ in 0..total_pairs {
        let mut pair = EprPair::from_noisy_source(config.channel().device());
        channel.distribute_tapped(&mut pair, tap, rng);
        pairs.push(pair);
    }

    // First DI check.
    let mut positions: Vec<usize> = (0..total_pairs).collect();
    positions.shuffle(rng);
    let check1: Vec<usize> = positions[..d].to_vec();
    let rest: Vec<usize> = positions[d..].to_vec();
    let mut check1_pairs: Vec<EprPair> = check1.iter().map(|&p| pairs[p].clone()).collect();
    let (report1, _) = run_di_check(
        DiCheckRound::First,
        &mut check1_pairs,
        config.chsh_abort_threshold(),
        rng,
    );
    if !report1.passed {
        return Ok(BaselineOutcome {
            delivered: false,
            abort_reason: Some(format!("first DI check failed: {report1}")),
            di_check_round1: Some(report1),
            di_check_round2: None,
            sent_message: message.clone(),
            received_message: None,
            check_bit_error_rate: None,
            message_bit_error_rate: None,
            total_pairs,
        });
    }

    // Encoding and transmission.
    let mut rest = rest;
    rest.shuffle(rng);
    let check2: Vec<usize> = rest[..d].to_vec();
    let ma: Vec<usize> = rest[d..d + n_qubits].to_vec();
    for (pauli, &pos) in padded.as_paulis().iter().zip(&ma) {
        pairs[pos].apply_alice_pauli(*pauli);
    }
    for &pos in check2.iter().chain(&ma) {
        channel.transmit_tapped(&mut pairs[pos], tap, rng);
    }

    // Second DI check.
    let mut check2_pairs: Vec<EprPair> = check2.iter().map(|&p| pairs[p].clone()).collect();
    let (report2, _) = run_di_check(
        DiCheckRound::Second,
        &mut check2_pairs,
        config.chsh_abort_threshold(),
        rng,
    );
    if !report2.passed {
        return Ok(BaselineOutcome {
            delivered: false,
            abort_reason: Some(format!("second DI check failed: {report2}")),
            di_check_round1: Some(report1),
            di_check_round2: Some(report2),
            sent_message: message.clone(),
            received_message: None,
            check_bit_error_rate: None,
            message_bit_error_rate: None,
            total_pairs,
        });
    }

    // Decoding.
    let mut received_paulis: Vec<Pauli> = Vec::with_capacity(n_qubits);
    for &pos in &ma {
        received_paulis.push(pairs[pos].bell_measure(rng).state.encoding_pauli());
    }
    let received_bits = PaddedMessage::bits_from_paulis(&received_paulis);
    let check_error = padded.check_bit_error_rate(&received_bits);
    if check_error > config.check_bit_error_tolerance() {
        return Ok(BaselineOutcome {
            delivered: false,
            abort_reason: Some(format!("check-bit error rate {check_error:.3} too high")),
            di_check_round1: Some(report1),
            di_check_round2: Some(report2),
            sent_message: message.clone(),
            received_message: None,
            check_bit_error_rate: Some(check_error),
            message_bit_error_rate: None,
            total_pairs,
        });
    }
    let received = padded.extract_message(&received_bits);
    let error_rate = message.bit_error_rate(&received);
    Ok(BaselineOutcome {
        delivered: true,
        abort_reason: None,
        di_check_round1: Some(report1),
        di_check_round2: Some(report2),
        sent_message: message.clone(),
        received_message: Some(received),
        check_bit_error_rate: Some(check_error),
        message_bit_error_rate: Some(error_rate),
        total_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noise::DeviceModel;
    use qchannel::quantum::{ChannelSpec, NoTap};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn config() -> SessionConfig {
        SessionConfig::builder()
            .message_bits(16)
            .check_bits(4)
            .di_check_pairs(220)
            .build()
            .unwrap()
    }

    #[test]
    fn honest_baseline_delivers_exactly() {
        let mut r = rng(1);
        let message = SecretMessage::random(16, &mut r);
        let outcome = run_baseline_di_qsdc(&config(), &message, &mut NoTap, &mut r).unwrap();
        assert!(outcome.delivered, "{outcome}");
        assert_eq!(outcome.received_message.as_ref().unwrap(), &message);
        assert_eq!(outcome.message_accuracy(), Some(1.0));
        assert_eq!(outcome.total_pairs, 10 + 2 * 220);
    }

    #[test]
    fn baseline_uses_fewer_pairs_than_the_authenticated_protocol() {
        // No identity blocks → 2l fewer pairs.
        let cfg = config();
        let mut r = rng(2);
        let message = SecretMessage::random(16, &mut r);
        let outcome = run_baseline_di_qsdc(&cfg, &message, &mut NoTap, &mut r).unwrap();
        assert_eq!(outcome.total_pairs + 2 * 5, cfg.total_pairs(5));
    }

    #[test]
    fn baseline_on_noisy_channel_still_delivers() {
        let cfg = SessionConfig::builder()
            .message_bits(16)
            .check_bits(4)
            .di_check_pairs(220)
            .channel(ChannelSpec::noisy_identity_chain(
                10,
                DeviceModel::ibm_brisbane_like(),
            ))
            .build()
            .unwrap();
        let mut r = rng(3);
        let message = SecretMessage::random(16, &mut r);
        let outcome = run_baseline_di_qsdc(&cfg, &message, &mut NoTap, &mut r).unwrap();
        assert!(outcome.delivered, "{outcome}");
        assert!(outcome.message_accuracy().unwrap() > 0.8);
    }

    #[test]
    fn baseline_detects_entanglement_destroying_taps() {
        struct DephaseTap;
        impl ChannelTap for DephaseTap {
            fn on_transmit(&mut self, pair: &mut EprPair, _rng: &mut dyn rand::RngCore) {
                noise::KrausChannel::phase_flip(0.5).apply(pair.density_mut(), &[0]);
            }
            fn name(&self) -> &str {
                "dephase"
            }
        }
        let mut r = rng(4);
        let message = SecretMessage::random(16, &mut r);
        let mut tap = DephaseTap;
        let outcome = run_baseline_di_qsdc(&config(), &message, &mut tap, &mut r).unwrap();
        assert!(!outcome.delivered);
        assert!(outcome.abort_reason.unwrap().contains("second DI check"));
    }

    #[test]
    fn baseline_has_no_defence_against_impersonation() {
        // The whole point of the paper: without authentication, anyone who controls the
        // receiving end gets the message. There is no identity check to abort on, so the
        // baseline always delivers to the impersonator on an honest channel.
        let mut r = rng(5);
        let message = SecretMessage::random(16, &mut r);
        let outcome = run_baseline_di_qsdc(&config(), &message, &mut NoTap, &mut r).unwrap();
        assert!(outcome.delivered);
        assert!(outcome.abort_reason.is_none());
    }

    #[test]
    fn message_length_mismatch_is_rejected() {
        let mut r = rng(6);
        let message = SecretMessage::random(3, &mut r);
        assert!(matches!(
            run_baseline_di_qsdc(&config(), &message, &mut NoTap, &mut r),
            Err(ProtocolError::MessageLengthMismatch { .. })
        ));
    }

    #[test]
    fn display_for_both_outcomes() {
        let mut r = rng(7);
        let message = SecretMessage::random(16, &mut r);
        let ok = run_baseline_di_qsdc(&config(), &message, &mut NoTap, &mut r).unwrap();
        assert!(ok.to_string().contains("delivered"));
    }
}
