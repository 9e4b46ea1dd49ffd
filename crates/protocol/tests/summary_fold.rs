//! Bit identity of the Summary-mode fold.
//!
//! A Summary-mode run folds each trial on the worker that ran it and records
//! only what the summary reads; it never builds a `SessionOutcome`. These
//! tests pin that fold to the Outcomes-mode reference. For every built-in
//! adversary and an honest run over a noisy channel, for trial counts that
//! leave ragged last chunks, and under several worker counts (plus the
//! policy named by `UA_DI_QSDC_PARALLELISM`, when it is set):
//!
//! - the `run_trials` summary is byte-identical (serde JSON) to
//!   `TrialSummaryBuilder::record` folded serially over `run_outcomes`;
//! - three `execute_shard` Summary shards merge to the same bytes.

use protocol::engine::{
    Adversary, Parallelism, Scenario, SessionEngine, ShardMerger, ShardOutput, TrialSummary,
    TrialSummaryBuilder,
};
use protocol::identity::IdentityPair;
use protocol::SecretMessage;
use protocol::SessionConfig;
use qchannel::quantum::ChannelSpec;
use qchannel::taps::{InterceptBasis, SubstituteState};
use rand::SeedableRng;

const SEED: u64 = 0x5eed_f01d;

/// One trial, a chunk-sized count and its neighbours, and one count that
/// spans many chunks with a ragged tail.
const TRIALS: [usize; 6] = [1, 7, 63, 64, 65, 513];

const MODES: [Parallelism; 4] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(3),
    Parallelism::Threads(5),
];

fn config(channel: ChannelSpec) -> SessionConfig {
    SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(24)
        .auth_error_tolerance(0.34)
        .channel(channel)
        .build()
        .expect("valid configuration")
}

fn scenarios() -> Vec<Scenario> {
    let identities = IdentityPair::generate(3, &mut rand::rngs::StdRng::seed_from_u64(SEED));
    let base = Scenario::new(config(ChannelSpec::ideal()), identities.clone());
    let adversaries = [
        Adversary::Honest,
        Adversary::ImpersonateAlice,
        Adversary::ImpersonateBob,
        Adversary::InterceptResend(InterceptBasis::Computational),
        Adversary::ManInTheMiddle(SubstituteState::RandomComputational),
        Adversary::EntangleMeasure { strength: 0.5 },
    ];
    let mut scenarios: Vec<Scenario> = adversaries
        .into_iter()
        .map(|adversary| {
            base.clone()
                .with_label(adversary.name())
                .with_adversary(adversary)
        })
        .collect();
    // 100 noisy identity gates: enough decoherence that some honest sessions
    // abort at the later checks, little enough that others deliver.
    let noisy = ChannelSpec::noisy_identity_chain(100, noise::DeviceModel::ibm_brisbane_like());
    scenarios.push(Scenario::new(config(noisy), identities).with_label("honest-noisy-channel"));
    // A fixed message is borrowed by every trial instead of drawn.
    scenarios.push(
        base.with_label("honest-fixed-message")
            .with_message(SecretMessage::from_bitstring("10110010").unwrap()),
    );
    scenarios
}

fn json(summary: &TrialSummary) -> String {
    serde::json::to_string(summary)
}

/// The Outcomes-mode reference: every outcome recorded serially.
fn recorded_outcomes(scenario: &Scenario, trials: usize) -> String {
    let mut builder = TrialSummaryBuilder::new(scenario.label.clone(), scenario.adversary.name());
    for outcome in SessionEngine::new(SEED)
        .run_outcomes(scenario, trials)
        .expect("outcomes run")
    {
        builder.record(&outcome);
    }
    json(&builder.finish())
}

#[test]
fn summary_folds_equal_recorded_outcomes_and_merged_shards() {
    let modes: Vec<Parallelism> = MODES.into_iter().chain(Parallelism::from_env()).collect();
    let mut stages_seen = 0usize;
    for scenario in scenarios() {
        for trials in TRIALS {
            let expected = recorded_outcomes(&scenario, trials);
            for &parallelism in &modes {
                let case = format!("{} x {trials} on {parallelism}", scenario.label);
                let engine = SessionEngine::new(SEED).with_parallelism(parallelism);
                let summary = engine.run_trials(&scenario, trials).expect("summary run");
                assert_eq!(json(&summary), expected, "run_trials: {case}");

                let mut merger = ShardMerger::new();
                for plan in engine.plan(&scenario, trials).split_into(3) {
                    let shard = engine
                        .execute_shard(&plan, ShardOutput::Summary)
                        .expect("shard run");
                    merger.push(shard).expect("in-order shard");
                }
                let merged = merger
                    .finish()
                    .expect("complete run")
                    .into_summary()
                    .expect("summary payload");
                assert_eq!(json(&merged), expected, "merged shards: {case}");
            }
            if trials == 513 {
                let summary = SessionEngine::new(SEED)
                    .run_trials(&scenario, trials)
                    .unwrap();
                stages_seen |= usize::from(summary.delivered > 0)
                    | usize::from(summary.aborted_di_check1 > 0) << 1
                    | usize::from(summary.aborted_bob_auth > 0) << 2
                    | usize::from(summary.aborted_alice_auth > 0) << 3
                    | usize::from(summary.aborted_di_check2 > 0) << 4;
            }
        }
    }
    assert_eq!(
        stages_seen, 0b11111,
        "the scenarios must reach delivery and every abort before decoding"
    );
}
