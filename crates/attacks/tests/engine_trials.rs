//! Engine-level attack trials: each channel attack of the paper's Section III
//! runs through `SessionEngine` and is always detected, and attacked runs
//! shard and merge byte-identically like honest ones.

use protocol::config::SessionConfig;
use protocol::engine::{Adversary, Scenario, SessionEngine};
use protocol::identity::IdentityPair;
use qchannel::taps::{InterceptBasis, SubstituteState};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn config() -> SessionConfig {
    SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(200)
        .build()
        .unwrap()
}

fn scenario(identities: &IdentityPair, adversary: Adversary) -> Scenario {
    Scenario::new(config(), identities.clone()).with_adversary(adversary)
}

#[test]
fn honest_channel_delivers_every_time() {
    let identities = IdentityPair::generate(3, &mut rng(1));
    let summary = SessionEngine::new(1)
        .run_trials(&scenario(&identities, Adversary::Honest), 6)
        .unwrap();
    assert_eq!(summary.delivered, 6, "{summary}");
    assert_eq!(summary.total_aborts(), 0);
    assert!(summary.mean_chsh_round1.unwrap() > 2.3);
    assert!(summary.mean_chsh_round2.unwrap() > 2.3);
}

#[test]
fn intercept_resend_is_always_detected() {
    let identities = IdentityPair::generate(3, &mut rng(2));
    let summary = SessionEngine::new(2)
        .run_trials(
            &scenario(
                &identities,
                Adversary::InterceptResend(InterceptBasis::Computational),
            ),
            6,
        )
        .unwrap();
    assert_eq!(summary.delivered, 0, "{summary}");
    assert!((summary.detection_rate() - 1.0).abs() < 1e-9);
    // Round 1 happens before transmission, so it still looks quantum…
    assert!(summary.mean_chsh_round1.unwrap() > 2.3);
    // …but once the qubits have flown through Eve the violation is gone.
    if let Some(s2) = summary.mean_chsh_round2 {
        assert!(s2 <= 2.1, "S2 must collapse under interception, got {s2}");
    }
    assert_eq!(summary.adversary, "intercept-and-resend");
}

#[test]
fn mitm_is_always_detected() {
    let identities = IdentityPair::generate(3, &mut rng(3));
    let summary = SessionEngine::new(3)
        .run_trials(
            &scenario(
                &identities,
                Adversary::ManInTheMiddle(SubstituteState::RandomComputational),
            ),
            6,
        )
        .unwrap();
    assert_eq!(summary.delivered, 0, "{summary}");
    assert!(summary.detection_rate() > 0.99);
}

#[test]
fn entangle_measure_is_always_detected() {
    let identities = IdentityPair::generate(3, &mut rng(4));
    let summary = SessionEngine::new(4)
        .run_trials(
            &scenario(&identities, Adversary::EntangleMeasure { strength: 1.0 }),
            6,
        )
        .unwrap();
    assert_eq!(summary.delivered, 0, "{summary}");
    assert!(summary.detection_rate() > 0.99);
}

#[test]
fn sharded_adversary_trials_merge_to_the_single_process_summary() {
    // The engine's shard pipeline applies unchanged to attacked
    // scenarios: split, execute shards on independent engines, merge —
    // byte-identical to the whole run.
    use protocol::engine::{merge_shard_results, ShardOutput};
    let identities = IdentityPair::generate(3, &mut rng(6));
    let scenario = scenario(
        &identities,
        Adversary::ManInTheMiddle(SubstituteState::RandomComputational),
    );
    let engine = SessionEngine::new(31);
    let whole = engine.run_trials(&scenario, 5).unwrap();
    let results = engine
        .plan(&scenario, 5)
        .split_into(3)
        .iter()
        .map(|plan| {
            SessionEngine::new(0)
                .execute_shard(plan, ShardOutput::Summary)
                .unwrap()
        })
        .collect::<Vec<_>>();
    let merged = merge_shard_results(results)
        .unwrap()
        .into_summary()
        .unwrap();
    assert_eq!(merged, whole);
    assert_eq!(merged.delivered, 0, "{merged}");
}
