//! Property tests for the plan / execute / merge pipeline: for **either
//! production backend**, *any* partition of a run into shards — including
//! empty and single-trial shards — executed on independent engines and merged
//! in trial order, must be byte-identical to the unsharded run on that
//! backend, and `TrialSummaryBuilder::merge` must match serial accumulation
//! bit for bit.

use proptest::prelude::*;
use protocol::engine::{
    merge_shard_results, Adversary, BackendKind, Scenario, SessionEngine, ShardMerger, ShardOutput,
    ShardPlan, TrialSummary,
};
use protocol::identity::IdentityPair;
use protocol::SessionConfig;
use qchannel::taps::{InterceptBasis, SubstituteState};
use rand::SeedableRng;

fn backend(backend_index: usize) -> BackendKind {
    BackendKind::ALL[backend_index % BackendKind::ALL.len()]
}

fn scenario(adversary_index: usize, identity_seed: u64) -> Scenario {
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(24)
        .build()
        .expect("generated config is valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(identity_seed);
    let identities = IdentityPair::generate(2, &mut rng);
    let adversary = match adversary_index {
        0 => Adversary::Honest,
        1 => Adversary::ImpersonateBob,
        2 => Adversary::InterceptResend(InterceptBasis::Computational),
        3 => Adversary::ManInTheMiddle(SubstituteState::RandomBb84),
        _ => Adversary::EntangleMeasure { strength: 0.5 },
    };
    Scenario::new(config, identities).with_adversary(adversary)
}

/// Turns random cut values into a contiguous partition of `0..trials`.
/// Duplicate cuts produce empty shards on purpose — they must merge cleanly.
fn partition(whole: &ShardPlan, trials: usize, cuts: &[usize]) -> Vec<ShardPlan> {
    let mut boundaries: Vec<usize> = cuts.iter().map(|c| c % (trials + 1)).collect();
    boundaries.push(0);
    boundaries.push(trials);
    boundaries.sort_unstable();
    boundaries
        .windows(2)
        .map(|pair| whole.subrange(pair[0], pair[1] - pair[0]))
        .collect()
}

/// Regression: shard results produced on different simulation substrates must
/// never fold into one run (the backend used to be invisible to the
/// plan fingerprint and the merger).
#[test]
fn mixing_backends_in_one_merge_is_rejected() {
    use protocol::engine::MergeError;
    let base = scenario(0, 99);
    let engine = SessionEngine::new(99);
    let mut results = Vec::new();
    for (index, kind) in BackendKind::ALL.into_iter().enumerate() {
        let plans = engine
            .plan(&base.clone().with_backend(kind), 4)
            .split_into(2);
        results.push(
            engine
                .execute_shard(&plans[index % plans.len()], ShardOutput::Summary)
                .expect("shard executes"),
        );
    }
    assert!(matches!(
        merge_shard_results(results),
        Err(MergeError::BackendMismatch { .. })
    ));
}

proptest! {
    #[test]
    fn any_partition_merges_to_the_unsharded_run(
        trials in 0usize..6,
        cuts in proptest::collection::vec(0usize..64, 0..5),
        adversary_index in 0usize..5,
        backend_index in 0usize..BackendKind::ALL.len(),
        identity_seed in 0u64..1_000_000,
        master_seed in 0u64..1_000_000,
    ) {
        let scenario = scenario(adversary_index, identity_seed).with_backend(backend(backend_index));
        let engine = SessionEngine::new(master_seed);
        let whole_outcomes = engine.run_outcomes(&scenario, trials).expect("whole run");
        let whole_summary = engine.run_trials(&scenario, trials).expect("whole summary");
        let plans = partition(&engine.plan(&scenario, trials), trials, &cuts);
        prop_assert_eq!(plans.iter().map(|p| p.trial_count).sum::<usize>(), trials);

        // Execute every shard on its own engine with an unrelated master
        // seed: the plan alone must determine the results.
        let execute = |output: ShardOutput| {
            plans
                .iter()
                .enumerate()
                .map(|(i, plan)| {
                    SessionEngine::new(master_seed ^ (i as u64 + 1) << 7)
                        .execute_shard(plan, output)
                        .expect("shard executes")
                })
                .collect::<Vec<_>>()
        };

        // In-order streaming merge of outcome payloads.
        let mut merger = ShardMerger::new();
        for result in execute(ShardOutput::Outcomes) {
            merger.push(result).expect("in-order push");
        }
        let merged = merger.finish().expect("complete merge").into_outcomes().unwrap();
        prop_assert_eq!(&merged, &whole_outcomes);
        prop_assert_eq!(
            serde::json::to_string(&merged),
            serde::json::to_string(&whole_outcomes),
            "sharded outcomes must serialize byte-identically"
        );

        // Out-of-order merge of summary partials (reversed, then sorted by
        // `merge_shard_results`).
        let mut results = execute(ShardOutput::Summary);
        results.reverse();
        let merged: TrialSummary = merge_shard_results(results)
            .expect("complete merge")
            .into_summary()
            .unwrap();
        prop_assert_eq!(&merged, &whole_summary);
        prop_assert_eq!(
            serde::json::to_string(&merged),
            serde::json::to_string(&whole_summary),
            "sharded summary must serialize byte-identically"
        );
    }

    #[test]
    fn builder_merge_matches_serial_accumulation(
        trials in 0usize..6,
        cuts in proptest::collection::vec(0usize..64, 0..5),
        adversary_index in 0usize..5,
        backend_index in 0usize..BackendKind::ALL.len(),
        identity_seed in 0u64..1_000_000,
        master_seed in 0u64..1_000_000,
    ) {
        use protocol::engine::TrialSummaryBuilder;
        let scenario = scenario(adversary_index, identity_seed).with_backend(backend(backend_index));
        let engine = SessionEngine::new(master_seed);
        let outcomes = engine.run_outcomes(&scenario, trials).expect("outcomes");

        // Serial accumulation: one builder records every outcome in order.
        let mut serial = TrialSummaryBuilder::new("s", "a");
        for outcome in &outcomes {
            serial.record(outcome);
        }

        // Partitioned accumulation: per-segment partials merged in order.
        let mut boundaries: Vec<usize> = cuts.iter().map(|c| c % (trials + 1)).collect();
        boundaries.push(0);
        boundaries.push(trials);
        boundaries.sort_unstable();
        let mut merged = TrialSummaryBuilder::new("s", "a");
        for pair in boundaries.windows(2) {
            let mut partial = TrialSummaryBuilder::new("s", "a");
            for outcome in &outcomes[pair[0]..pair[1]] {
                partial.record(outcome);
            }
            merged.merge(partial);
        }

        let merged = merged.finish();
        let serial = serial.finish();
        prop_assert_eq!(&merged, &serial);
        // Bit-for-bit, not just `==`: compare the raw bits of every mean.
        prop_assert_eq!(
            merged.mean_chsh_round1.map(f64::to_bits),
            serial.mean_chsh_round1.map(f64::to_bits)
        );
        prop_assert_eq!(
            merged.mean_chsh_round2.map(f64::to_bits),
            serial.mean_chsh_round2.map(f64::to_bits)
        );
        prop_assert_eq!(
            merged.mean_message_accuracy.map(f64::to_bits),
            serial.mean_message_accuracy.map(f64::to_bits)
        );
        prop_assert_eq!(serde::json::to_string(&merged), serde::json::to_string(&serial));
    }
}
