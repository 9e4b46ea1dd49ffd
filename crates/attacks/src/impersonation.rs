//! Impersonation attack.
//!
//! Eve pretends to be Alice (to inject a message) or Bob (to receive one) without knowing the
//! corresponding pre-shared identity. All she can do is apply uniformly random Pauli operators
//! on the identity block, which the legitimate peer detects with probability `1 − (1/4)^l`
//! (paper Section III-A). This module runs that attack end-to-end against the real protocol
//! and reports the measured detection rate next to the analytic value.

use protocol::auth::impersonation_detection_probability;
use protocol::config::SessionConfig;
use protocol::engine::{Adversary, Parallelism, Scenario, SessionEngine};
use protocol::error::ProtocolError;
use protocol::identity::IdentityPair;
use protocol::session::Impersonation;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregated results of repeated impersonation attempts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpersonationSummary {
    /// Who Eve impersonated.
    pub target: Impersonation,
    /// Identity length `l` in qubits.
    pub identity_qubits: usize,
    /// Number of attempted sessions.
    pub trials: usize,
    /// Sessions in which the legitimate party detected Eve (protocol aborted at the
    /// authentication stage protecting against this impersonation).
    pub detected: usize,
    /// Sessions in which the message was delivered to / accepted from Eve.
    pub undetected_deliveries: usize,
    /// Measured detection rate.
    pub detection_rate: f64,
    /// The analytic detection probability `1 − (1/4)^l`.
    pub analytic_probability: f64,
}

impl ImpersonationSummary {
    /// Absolute gap between the measured and analytic detection rate.
    #[cfg(test)]
    pub(crate) fn deviation(&self) -> f64 {
        (self.detection_rate - self.analytic_probability).abs()
    }
}

impl fmt::Display for ImpersonationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (l={}): detected {}/{} = {:.4} (analytic {:.4})",
            self.target,
            self.identity_qubits,
            self.detected,
            self.trials,
            self.detection_rate,
            self.analytic_probability
        )
    }
}

/// Runs `trials` impersonation attempts against the full protocol and summarises detection.
///
/// The relevant detection stage depends on the target: when Eve impersonates Bob, the real
/// Alice catches her at the Bob-authentication step; when Eve impersonates Alice, the real Bob
/// catches her at the Alice-authentication step.
///
/// Trials fan out across all available cores ([`Parallelism::Auto`]) unless the
/// [`Parallelism::ENV_VAR`] environment variable selects another policy; the engine's
/// per-trial RNG streams keep the summary bit-identical under every policy.
///
/// # Errors
///
/// Propagates configuration errors from the underlying sessions.
///
/// # Panics
///
/// Panics when `target` is [`Impersonation::None`], or when the
/// [`Parallelism::ENV_VAR`] environment variable is set to an unparsable
/// value (a misconfigured override fails loudly rather than silently running
/// serial).
pub fn run_impersonation_trials<R: Rng>(
    config: &SessionConfig,
    identities: &IdentityPair,
    target: Impersonation,
    trials: usize,
    rng: &mut R,
) -> Result<ImpersonationSummary, ProtocolError> {
    assert!(
        target != Impersonation::None,
        "run_impersonation_trials needs an actual impersonation target"
    );
    let adversary = Adversary::from_impersonation(target);
    let detection_stage = adversary
        .detection_stage()
        .expect("impersonation adversaries have a detection stage");
    let scenario = Scenario::new(config.clone(), identities.clone())
        .with_label("impersonation")
        .with_adversary(adversary);
    let summary = SessionEngine::new(rng.next_u64())
        .with_parallelism(Parallelism::from_env().unwrap_or(Parallelism::Auto))
        .run_trials(&scenario, trials)?;
    let detected = summary.aborted_at(detection_stage);
    let l = identities.qubit_len();
    Ok(ImpersonationSummary {
        target,
        identity_qubits: l,
        trials,
        detected,
        undetected_deliveries: summary.delivered,
        detection_rate: if trials == 0 {
            0.0
        } else {
            detected as f64 / trials as f64
        },
        analytic_probability: impersonation_detection_probability(l),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn config() -> SessionConfig {
        SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(220)
            .auth_error_tolerance(0.0)
            .build()
            .unwrap()
    }

    #[test]
    fn impersonating_bob_detection_rate_matches_analytic_value() {
        let mut r = rng(101);
        let identities = IdentityPair::generate(2, &mut r);
        let summary =
            run_impersonation_trials(&config(), &identities, Impersonation::OfBob, 120, &mut r)
                .unwrap();
        // l = 2 → analytic detection probability 0.9375.
        assert!(summary.deviation() < 0.08, "{summary}");
        assert_eq!(summary.trials, 120);
        assert_eq!(summary.identity_qubits, 2);
        assert!(summary.detection_rate > 0.8);
    }

    #[test]
    fn impersonating_alice_detection_rate_matches_analytic_value() {
        let mut r = rng(102);
        let identities = IdentityPair::generate(2, &mut r);
        let summary =
            run_impersonation_trials(&config(), &identities, Impersonation::OfAlice, 120, &mut r)
                .unwrap();
        assert!(summary.deviation() < 0.08, "{summary}");
        assert!(summary.to_string().contains("Alice"));
    }

    #[test]
    fn longer_identities_are_detected_essentially_always() {
        let mut r = rng(103);
        let identities = IdentityPair::generate(8, &mut r);
        let summary =
            run_impersonation_trials(&config(), &identities, Impersonation::OfBob, 60, &mut r)
                .unwrap();
        assert!(summary.detected >= 59, "{summary}");
        assert_eq!(summary.undetected_deliveries, 0);
        assert!(summary.analytic_probability > 0.99998);
    }

    #[test]
    fn single_qubit_identity_lets_some_attempts_slip_through() {
        // l = 1 → detection probability only 0.75; with 200 trials we expect ~50 successes.
        let mut r = rng(104);
        let identities = IdentityPair::generate(1, &mut r);
        let summary =
            run_impersonation_trials(&config(), &identities, Impersonation::OfBob, 200, &mut r)
                .unwrap();
        assert!(summary.undetected_deliveries > 20, "{summary}");
        assert!((summary.detection_rate - 0.75).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "actual impersonation target")]
    fn none_target_is_rejected() {
        let mut r = rng(105);
        let identities = IdentityPair::generate(2, &mut r);
        let _ = run_impersonation_trials(&config(), &identities, Impersonation::None, 1, &mut r);
    }
}
