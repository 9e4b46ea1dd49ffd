//! Property tests for deterministic parallel execution: for *random*
//! scenarios, master seeds, and trial counts, `run_trials` must produce
//! field-for-field identical summaries under every [`Parallelism`] mode —
//! including the zero-trial edge case where `detection_rate` falls back to
//! 0.0 instead of dividing by zero.

use proptest::prelude::*;
use protocol::engine::{Adversary, Parallelism, Scenario, SessionEngine};
use protocol::identity::IdentityPair;
use protocol::SessionConfig;
use qchannel::taps::{InterceptBasis, SubstituteState};
use rand::SeedableRng;

/// The parallel policies every property is checked against, serial first.
const MODES: [Parallelism; 4] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(5),
    Parallelism::Auto,
];

fn scenario(
    message_bits: usize,
    check_bits: usize,
    identity_qubits: usize,
    adversary_index: usize,
    identity_seed: u64,
) -> Scenario {
    let config = SessionConfig::builder()
        .message_bits(message_bits)
        .check_bits(check_bits)
        .di_check_pairs(24)
        .build()
        .expect("generated config is valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(identity_seed);
    let identities = IdentityPair::generate(identity_qubits, &mut rng);
    let adversary = match adversary_index {
        0 => Adversary::Honest,
        1 => Adversary::ImpersonateAlice,
        2 => Adversary::ImpersonateBob,
        3 => Adversary::InterceptResend(InterceptBasis::Computational),
        4 => Adversary::ManInTheMiddle(SubstituteState::RandomBb84),
        _ => Adversary::EntangleMeasure { strength: 0.5 },
    };
    Scenario::new(config, identities).with_adversary(adversary)
}

proptest! {
    #[test]
    fn run_trials_is_identical_under_every_parallelism_mode(
        half_message in 1usize..5,
        check_pairs in 0usize..3,
        identity_qubits in 1usize..4,
        adversary_index in 0usize..6,
        identity_seed in 0u64..1_000_000,
        master_seed in 0u64..1_000_000,
        trials in 0usize..4,
    ) {
        // message + check bits must be even: draw both in units of whole pairs.
        let scenario = scenario(
            2 * half_message,
            2 * check_pairs,
            identity_qubits,
            adversary_index,
            identity_seed,
        );
        let reference = SessionEngine::new(master_seed)
            .run_trials(&scenario, trials)
            .expect("serial trials run");
        prop_assert_eq!(reference.trials, trials);
        if trials == 0 {
            prop_assert_eq!(reference.detection_rate(), 0.0);
            prop_assert_eq!(reference.mean_chsh_round1, None);
        }
        for mode in MODES {
            let summary = SessionEngine::new(master_seed)
                .with_parallelism(mode)
                .run_trials(&scenario, trials)
                .expect("parallel trials run");
            // Field-for-field equality, not just PartialEq: a regression in a
            // single mean shows up by name.
            prop_assert_eq!(&summary.label, &reference.label, "label under {}", mode);
            prop_assert_eq!(&summary.adversary, &reference.adversary, "adversary under {}", mode);
            prop_assert_eq!(summary.trials, reference.trials, "trials under {}", mode);
            prop_assert_eq!(summary.delivered, reference.delivered, "delivered under {}", mode);
            prop_assert_eq!(
                summary.aborted_di_check1,
                reference.aborted_di_check1,
                "aborted_di_check1 under {}", mode
            );
            prop_assert_eq!(
                summary.aborted_bob_auth,
                reference.aborted_bob_auth,
                "aborted_bob_auth under {}", mode
            );
            prop_assert_eq!(
                summary.aborted_alice_auth,
                reference.aborted_alice_auth,
                "aborted_alice_auth under {}", mode
            );
            prop_assert_eq!(
                summary.aborted_di_check2,
                reference.aborted_di_check2,
                "aborted_di_check2 under {}", mode
            );
            prop_assert_eq!(
                summary.aborted_integrity,
                reference.aborted_integrity,
                "aborted_integrity under {}", mode
            );
            prop_assert_eq!(
                summary.mean_chsh_round1,
                reference.mean_chsh_round1,
                "mean_chsh_round1 under {}", mode
            );
            prop_assert_eq!(
                summary.mean_chsh_round2,
                reference.mean_chsh_round2,
                "mean_chsh_round2 under {}", mode
            );
            prop_assert_eq!(
                summary.mean_message_accuracy,
                reference.mean_message_accuracy,
                "mean_message_accuracy under {}", mode
            );
            prop_assert_eq!(summary.detection_rate(), reference.detection_rate());
        }
    }

    #[test]
    fn run_outcomes_matches_serial_under_every_mode(
        master_seed in 0u64..1_000_000,
        trials in 1usize..4,
    ) {
        let scenario = scenario(4, 0, 2, 0, master_seed);
        let reference = SessionEngine::new(master_seed)
            .run_outcomes(&scenario, trials)
            .expect("serial outcomes run");
        for mode in MODES {
            let outcomes = SessionEngine::new(master_seed)
                .with_parallelism(mode)
                .run_outcomes(&scenario, trials)
                .expect("parallel outcomes run");
            prop_assert_eq!(&outcomes, &reference, "outcomes under {}", mode);
        }
    }
}
