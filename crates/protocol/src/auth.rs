//! Mutual identity authentication.
//!
//! The authentication phase (paper Section II, step 4) runs in two directions:
//!
//! - **Alice verifies Bob.** Alice applied secret *cover operations* to the `D_A` qubits, Bob
//!   encodes `id_B` on the partner qubits and publicly announces the Bell results. Because of
//!   the covers, the announced results look uniformly random to Eve (keeping `id_B` reusable),
//!   but Alice — who knows both the covers and `id_B` — can predict every result exactly.
//! - **Bob verifies Alice.** Alice encoded `id_A` on the `C_A` qubits; Bob Bell-measures them
//!   and compares against the `id_A` he already knows. These results are *never* announced,
//!   keeping `id_A` reusable.
//!
//! An impersonator who does not know the relevant identity can only guess the right Pauli with
//! probability 1/4 per qubit, so either check catches them with probability `1 − (1/4)^l`.

use crate::identity::IdentityString;
use qsim::bell::BellState;
use qsim::pauli::Pauli;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether an authentication check accepted or rejected the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AuthVerdict {
    /// The observed error rate was within tolerance.
    Accept,
    /// Too many identity qubits mismatched — assume an impersonator (or a hopeless channel).
    Reject,
}

impl fmt::Display for AuthVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthVerdict::Accept => write!(f, "accept"),
            AuthVerdict::Reject => write!(f, "reject"),
        }
    }
}

/// The result of one directional authentication check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuthReport {
    /// Which identity was being verified (`"id_A"` or `"id_B"`).
    pub identity: String,
    /// Number of identity qubits examined (`l`).
    pub qubits: usize,
    /// Number of mismatching qubits.
    pub mismatches: usize,
    /// The mismatch fraction.
    pub error_rate: f64,
    /// The tolerance that was applied.
    pub tolerance: f64,
    /// The verdict.
    pub verdict: AuthVerdict,
}

/// What one authentication check counted: an [`AuthReport`] before its
/// identity string is built, so a caller that only needs the verdict
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuthTally {
    identity: &'static str,
    qubits: usize,
    mismatches: usize,
    tolerance: f64,
}

impl AuthTally {
    fn error_rate(&self) -> f64 {
        if self.qubits == 0 {
            0.0
        } else {
            self.mismatches as f64 / self.qubits as f64
        }
    }

    fn verdict(&self) -> AuthVerdict {
        if self.error_rate() <= self.tolerance {
            AuthVerdict::Accept
        } else {
            AuthVerdict::Reject
        }
    }

    /// Returns `true` when the peer was accepted.
    pub(crate) fn passed(&self) -> bool {
        self.verdict() == AuthVerdict::Accept
    }

    /// The full report.
    pub(crate) fn report(&self) -> AuthReport {
        AuthReport {
            identity: self.identity.to_string(),
            qubits: self.qubits,
            mismatches: self.mismatches,
            error_rate: self.error_rate(),
            tolerance: self.tolerance,
            verdict: self.verdict(),
        }
    }
}

impl AuthReport {
    /// Returns `true` when the peer was accepted.
    #[cfg(test)]
    pub(crate) fn passed(&self) -> bool {
        self.verdict == AuthVerdict::Accept
    }
}

impl fmt::Display for AuthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} verification: {}/{} mismatches ({:.1}% > {:.1}% ⇒ reject) → {}",
            self.identity,
            self.mismatches,
            self.qubits,
            self.error_rate * 100.0,
            self.tolerance * 100.0,
            self.verdict
        )
    }
}

/// The Bell state Alice expects Bob to announce for one `(D_A, D_B)` pair, given her cover
/// operation and the `id_B` Pauli for that position.
pub fn expected_bob_result(cover: Pauli, id_b_pauli: Pauli) -> BellState {
    BellState::PhiPlus.after_pauli(cover.compose(id_b_pauli))
}

/// Alice's verification of Bob: compares the Bell states Bob announced for the `(D_A, D_B)`
/// pairs against the states she can predict from her cover operations and the shared `id_B`.
///
/// # Panics
///
/// Panics if `announced`, `covers` and the identity disagree on the number of qubits.
pub fn verify_bob(
    announced: &[BellState],
    covers: &[Pauli],
    id_b: &IdentityString,
    tolerance: f64,
) -> AuthReport {
    tally_bob(announced, covers, id_b, tolerance).report()
}

/// [`verify_bob`] without building the report.
pub(crate) fn tally_bob(
    announced: &[BellState],
    covers: &[Pauli],
    id_b: &IdentityString,
    tolerance: f64,
) -> AuthTally {
    let l = id_b.qubit_len();
    assert_eq!(
        announced.len(),
        l,
        "one announced Bell result per identity qubit"
    );
    assert_eq!(covers.len(), l, "one cover operation per identity qubit");
    let mismatches = announced
        .iter()
        .zip(covers.iter())
        .zip(id_b.paulis())
        .filter(|((observed, cover), id_pauli)| {
            **observed != expected_bob_result(**cover, *id_pauli)
        })
        .count();
    AuthTally {
        identity: "id_B",
        qubits: l,
        mismatches,
        tolerance,
    }
}

/// Bob's verification of Alice: compares the Bell states he measured on the `C_A` pairs
/// against the states `id_A` should have produced.
///
/// # Panics
///
/// Panics if `measured` and the identity disagree on the number of qubits.
pub fn verify_alice(measured: &[BellState], id_a: &IdentityString, tolerance: f64) -> AuthReport {
    tally_alice(measured, id_a, tolerance).report()
}

/// [`verify_alice`] without building the report.
pub(crate) fn tally_alice(
    measured: &[BellState],
    id_a: &IdentityString,
    tolerance: f64,
) -> AuthTally {
    let l = id_a.qubit_len();
    assert_eq!(
        measured.len(),
        l,
        "one measured Bell result per identity qubit"
    );
    let mismatches = measured
        .iter()
        .zip(id_a.paulis())
        .filter(|(observed, id_pauli)| **observed != BellState::PhiPlus.after_pauli(*id_pauli))
        .count();
    AuthTally {
        identity: "id_A",
        qubits: l,
        mismatches,
        tolerance,
    }
}

/// The analytic probability that an impersonator who guesses Paulis uniformly at random is
/// detected by an `l`-qubit identity check with zero tolerance: `1 − (1/4)^l`
/// (paper, Section III-A).
pub fn impersonation_detection_probability(l: usize) -> f64 {
    1.0 - 0.25f64.powi(l as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::pauli::Pauli;
    use rand::Rng;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(4)
    }

    fn identity_with_paulis(paulis: &[Pauli]) -> IdentityString {
        let bits = paulis
            .iter()
            .flat_map(|p| {
                let (a, b) = p.to_bits();
                [a, b]
            })
            .collect();
        IdentityString::from_bits(bits).unwrap()
    }

    #[test]
    fn honest_bob_passes_verification() {
        let mut r = rng();
        for _ in 0..20 {
            let l = 6;
            let id_b = IdentityString::random(l, &mut r);
            let covers: Vec<Pauli> = (0..l).map(|_| Pauli::random(&mut r)).collect();
            let announced: Vec<BellState> = covers
                .iter()
                .zip(id_b.as_paulis())
                .map(|(c, p)| expected_bob_result(*c, p))
                .collect();
            let report = verify_bob(&announced, &covers, &id_b, 0.0);
            assert!(report.passed(), "{report}");
            assert_eq!(report.mismatches, 0);
        }
    }

    #[test]
    fn honest_alice_passes_verification() {
        let id_a = identity_with_paulis(&[Pauli::I, Pauli::X, Pauli::IY, Pauli::Z]);
        let measured: Vec<BellState> = id_a
            .as_paulis()
            .into_iter()
            .map(|p| BellState::PhiPlus.after_pauli(p))
            .collect();
        let report = verify_alice(&measured, &id_a, 0.0);
        assert!(report.passed());
        assert_eq!(report.error_rate, 0.0);
        assert_eq!(report.identity, "id_A");
    }

    #[test]
    fn random_guessing_is_detected_with_high_probability() {
        let mut r = rng();
        let l = 8;
        let trials = 400;
        let mut detected = 0;
        for _ in 0..trials {
            let id_b = IdentityString::random(l, &mut r);
            let covers: Vec<Pauli> = (0..l).map(|_| Pauli::random(&mut r)).collect();
            // Eve announces what she gets from random Pauli guesses.
            let announced: Vec<BellState> = covers
                .iter()
                .map(|c| expected_bob_result(*c, Pauli::random(&mut r)))
                .collect();
            if !verify_bob(&announced, &covers, &id_b, 0.0).passed() {
                detected += 1;
            }
        }
        let rate = detected as f64 / trials as f64;
        let expected = impersonation_detection_probability(l);
        assert!(
            (rate - expected).abs() < 0.02,
            "detection rate {rate} should be close to {expected}"
        );
    }

    #[test]
    fn detection_probability_formula() {
        assert!((impersonation_detection_probability(1) - 0.75).abs() < 1e-12);
        assert!((impersonation_detection_probability(2) - 0.9375).abs() < 1e-12);
        assert!(impersonation_detection_probability(16) > 0.999_999);
    }

    #[test]
    fn tolerance_allows_some_channel_noise() {
        let id_a = identity_with_paulis(&[Pauli::I; 10]);
        let mut measured: Vec<BellState> = id_a
            .as_paulis()
            .into_iter()
            .map(|p| BellState::PhiPlus.after_pauli(p))
            .collect();
        // One noisy flip out of ten.
        measured[3] = BellState::PsiMinus;
        let strict = verify_alice(&measured, &id_a, 0.0);
        assert!(!strict.passed());
        let tolerant = verify_alice(&measured, &id_a, 0.15);
        assert!(tolerant.passed());
        assert_eq!(tolerant.mismatches, 1);
        assert!((tolerant.error_rate - 0.1).abs() < 1e-12);
    }

    #[test]
    fn wrong_identity_guess_fails_with_certainty_when_all_qubits_differ() {
        // If Eve uses an identity whose every Pauli differs from the real one, detection is
        // certain even with a generous tolerance.
        let id_a = identity_with_paulis(&[Pauli::I, Pauli::I, Pauli::I, Pauli::I]);
        let wrong = identity_with_paulis(&[Pauli::X, Pauli::X, Pauli::X, Pauli::X]);
        let measured: Vec<BellState> = wrong
            .as_paulis()
            .into_iter()
            .map(|p| BellState::PhiPlus.after_pauli(p))
            .collect();
        let report = verify_alice(&measured, &id_a, 0.5);
        assert!(!report.passed());
        assert_eq!(report.mismatches, 4);
    }

    #[test]
    fn announced_results_look_random_thanks_to_covers() {
        // With uniformly random covers, the announced Bell results are uniform over the four
        // Bell states irrespective of id_B — that is what keeps id_B reusable.
        let mut r = rng();
        let id_b = identity_with_paulis(&[Pauli::Z; 2]); // fixed, heavily biased identity
        let mut counts = std::collections::HashMap::new();
        for _ in 0..4000 {
            let cover = Pauli::random(&mut r);
            let announced = expected_bob_result(cover, id_b.as_paulis()[0]);
            *counts.entry(announced).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4, "all four Bell states must appear");
        for (&state, &count) in &counts {
            let frac = count as f64 / 4000.0;
            assert!(
                (frac - 0.25).abs() < 0.05,
                "announced {state} frequency {frac} is not ≈ 1/4"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one cover operation per identity qubit")]
    fn mismatched_cover_count_panics() {
        let id_b = IdentityString::random(3, &mut rng());
        let announced = vec![BellState::PhiPlus; 3];
        let _ = verify_bob(&announced, &[Pauli::I], &id_b, 0.0);
    }

    #[test]
    fn report_display_and_verdict() {
        let tally = |identity, qubits, mismatches| AuthTally {
            identity,
            qubits,
            mismatches,
            tolerance: 0.0,
        };
        let report = tally("id_B", 4, 1).report();
        assert!(!report.passed());
        assert_eq!(report.verdict, AuthVerdict::Reject);
        assert!(report.to_string().contains("id_B"));
        assert_eq!(AuthVerdict::Accept.to_string(), "accept");
        assert_eq!(AuthVerdict::Reject.to_string(), "reject");
        let empty = tally("id_A", 0, 0).report();
        assert!(empty.passed());
        let _ = rng().gen::<bool>();
    }
}
