//! Campaign lowering tests: any declarative parameter-space campaign,
//! expanded onto per-point shard queues and drained by an interleaved,
//! crash-prone fleet, folds into a report **bit-identical** (`f64::to_bits`
//! on every rate, plus the serialized bytes) to executing each point
//! directly with a [`SessionEngine`] — plus expansion unit tests (empty
//! spaces, explicit point lists, duplicate rejection, fingerprint
//! stability) and the integrity checks of sampled-point records.

use proptest::prelude::*;
use protocol::engine::campaign::PointWork;
use protocol::engine::circuit::FIG2_MESSAGES;
use protocol::engine::{
    derive_point_seed, Adversary, Axis, AxisValue, BackendKind, Campaign, CampaignError,
    CampaignRun, CampaignSpace, CampaignWorkload, CircuitDevice, CircuitExperiment, ClaimOutcome,
    Parallelism, Scenario, SessionEngine, ShardQueue, ShardWorker, SubmitOutcome,
};
use protocol::identity::IdentityPair;
use protocol::SessionConfig;
use qchannel::taps::InterceptBasis;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique campaign directory, removed on drop (also on assertion panics).
struct TempCampaignDir(PathBuf);

impl TempCampaignDir {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        TempCampaignDir(std::env::temp_dir().join(format!(
            "ua-di-qsdc-campaign-proptest-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempCampaignDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn base_scenario(identity_seed: u64) -> Scenario {
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(24)
        .build()
        .expect("generated config is valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(identity_seed);
    let identities = IdentityPair::generate(2, &mut rng);
    Scenario::new(config, identities)
}

fn session_campaign(
    identity_seed: u64,
    master_seed: u64,
    trials: usize,
    axes: Vec<Axis>,
) -> Campaign {
    Campaign {
        label: "proptest".into(),
        master_seed,
        trials,
        workload: CampaignWorkload::Session {
            base: base_scenario(identity_seed),
        },
        space: CampaignSpace::Grid(axes),
    }
}

// ------------------------------------------------------------- expansion --

#[test]
fn empty_grid_and_empty_point_list_are_rejected() {
    let grid = session_campaign(1, 2, 3, vec![]);
    assert!(matches!(grid.expand(), Err(CampaignError::EmptySpace)));
    let mut points = grid.clone();
    points.space = CampaignSpace::Points(vec![]);
    assert!(matches!(points.expand(), Err(CampaignError::EmptySpace)));
}

#[test]
fn empty_axis_is_rejected_by_name() {
    let campaign = session_campaign(1, 2, 3, vec![Axis::Eta(vec![10]), Axis::Backend(vec![])]);
    match campaign.expand() {
        Err(CampaignError::EmptyAxis { axis }) => assert_eq!(axis, "backend"),
        other => panic!("expected EmptyAxis, got {other:?}"),
    }
}

#[test]
fn explicit_point_list_expands_as_written() {
    let mut campaign = session_campaign(1, 5, 2, vec![]);
    campaign.space = CampaignSpace::Points(vec![vec![
        AxisValue::Adversary(Adversary::InterceptResend(InterceptBasis::Computational)),
        AxisValue::Trials(4),
    ]]);
    let points = campaign.expand().expect("single point expands");
    assert_eq!(points.len(), 1);
    assert_eq!(
        points[0].trials, 4,
        "Trials coordinate overrides the default"
    );
    assert_eq!(points[0].seed, derive_point_seed(5, 0));
    let PointWork::Session(scenario) = &points[0].work else {
        panic!("session point");
    };
    assert!(scenario.label.contains("intercept-and-resend"));
}

#[test]
fn duplicate_points_are_rejected() {
    let campaign = session_campaign(1, 2, 3, vec![Axis::Eta(vec![10, 10])]);
    match campaign.expand() {
        Err(CampaignError::DuplicatePoint { first, second }) => {
            assert_eq!((first, second), (0, 1));
        }
        other => panic!("expected DuplicatePoint, got {other:?}"),
    }
}

#[test]
fn campaign_fingerprint_is_stable() {
    // Locked literal: a fingerprint change breaks every stored campaign
    // directory and sample record in the wild, so it must be deliberate.
    // The backend axis is spelled out (not `BackendKind::ALL`) so adding a
    // substrate never silently moves this pin.
    let campaign = session_campaign(
        7,
        99,
        2,
        vec![
            Axis::Eta(vec![0, 10]),
            Axis::Backend(vec![BackendKind::DensityMatrix, BackendKind::Statevector]),
        ],
    );
    assert_eq!(campaign.fingerprint(), 0x5a30_173b_98da_34ab_u64);
    // Point labels never reach the fingerprint.
    let mut relabeled = campaign.clone();
    relabeled.label = "something else".into();
    assert_eq!(relabeled.fingerprint(), campaign.fingerprint());
    // Widening an axis (e.g. onto the twirled substrate) is new content and
    // must re-fingerprint.
    let mut widened = campaign.clone();
    widened.space = CampaignSpace::Grid(vec![
        Axis::Eta(vec![0, 10]),
        Axis::Backend(BackendKind::ALL.to_vec()),
    ]);
    assert_ne!(widened.fingerprint(), campaign.fingerprint());
}

/// A campaign worker renews the lease on the shard it runs, so a shard
/// that outlives `lease_ms` is not stolen by a second `campaign run` on the
/// same directory and executed twice.
#[test]
fn a_running_campaign_shard_keeps_its_lease() {
    let campaign = session_campaign(3, 4, 2, vec![Axis::Eta(vec![0])]);
    let tmp = TempCampaignDir::new();
    let run = CampaignRun::init(&tmp.0, &campaign, 2).expect("run initializes");
    let worker = ShardWorker {
        engine: SessionEngine::new(0),
        name: "slow-worker".into(),
        lease_ms: 1000,
        poll_ms: 10,
        throttle_ms: 3000,
    };
    let queue = run.point_queue(0).expect("session point queue");
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| run.run(&worker));
        while queue.status().expect("queue status").leased == 0 && !runner.is_finished() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Twice the lease after the claim, still inside the 3 s throttle.
        std::thread::sleep(Duration::from_millis(2000));
        let claim = queue.claim("second-worker", 1000).expect("claim succeeds");
        assert!(
            matches!(claim, ClaimOutcome::Wait { .. }),
            "a live worker's shard was handed out again: {claim:?}"
        );
        runner
            .join()
            .expect("runner thread")
            .expect("campaign completes");
    });
}

// ------------------------------------------------------ sampled records --

/// The stored Fig. 2 campaign at a smaller shot budget.
fn fig2_campaign(shots: usize) -> Campaign {
    let device = CircuitDevice::IbmBrisbaneLike;
    Campaign {
        label: "fig2".into(),
        master_seed: 20240916,
        trials: shots,
        workload: CampaignWorkload::Sampled(CircuitExperiment::Fig2Histogram { device, eta: 10 }),
        space: CampaignSpace::Grid(vec![Axis::Message(
            FIG2_MESSAGES.map(String::from).to_vec(),
        )]),
    }
}

/// An edited sample record fails `report` by name and counts as not done;
/// `run` re-samples it, as it does a record written without a checksum.
#[test]
fn edited_sample_records_fail_by_name_and_are_resampled() {
    // The fingerprint of `crates/bench/campaigns/fig2.json`, stamped on
    // every sample record of a stored fig2 run.
    assert_eq!(fig2_campaign(1024).fingerprint(), 0x3180_01e0_d4a6_f3da_u64);
    let tmp = TempCampaignDir::new();
    let campaign = fig2_campaign(32);
    let run = CampaignRun::init(&tmp.0, &campaign, 8).expect("run initializes");
    let worker = ShardWorker::default();
    let reference = serde::json::to_string(&run.run(&worker).expect("run drains"));
    assert_eq!(
        reference,
        serde::json::to_string(&campaign.run_direct(Parallelism::Serial).unwrap())
    );
    let record = tmp.0.join("samples").join("point-0000.json");
    let original = std::fs::read_to_string(&record).expect("record exists");

    let counts = original.find("\"counts\":[").expect("record holds counts") + 10;
    let first = counts + original[counts..].find(',').expect("four counts");
    let tampered = format!("{}999{}", &original[..counts], &original[first..]);
    let unchecked = original.replace(
        &original[original.find("\"checksum\"").unwrap()..original.find("\"payload\"").unwrap()],
        "",
    );
    for edited in [tampered, unchecked] {
        std::fs::write(&record, &edited).unwrap();
        match run.report() {
            Err(CampaignError::Corrupt { path, reason }) => {
                assert_eq!(path, record, "{reason}");
            }
            other => panic!("{edited}: expected Corrupt, got {other:?}"),
        }
        assert_eq!(run.status().unwrap().points_done, 3, "{edited}");
        let report = run.run(&worker).expect("run re-samples the record");
        assert_eq!(serde::json::to_string(&report), reference, "{edited}");
        assert_eq!(std::fs::read_to_string(&record).unwrap(), original);
    }
}

// ------------------------------------------------------- queue equivalence --

const LEASE_MS: u64 = 10_000;

/// Drains every point queue of `run` with interleaved claims across points
/// (the `schedule` picks which still-undrained point serves each claim) and
/// a worker SIGKILLed right after claim number `kill_point` — its lease must
/// expire before that shard is stolen.
fn drain_interleaved_with_kill(run: &CampaignRun, schedule: &[usize], kill_point: usize) {
    let engine = SessionEngine::new(0); // seed irrelevant: the plans govern
    let queues: Vec<ShardQueue> = (0..run.points().len())
        .map(|i| run.point_queue(i).expect("session point queue"))
        .collect();
    let mut drained = vec![false; queues.len()];
    let mut clock: u64 = 1;
    let mut step = 0usize;
    let mut claims = 0usize;
    let mut killed = false;
    while drained.iter().any(|d| !d) {
        let scheduled = schedule[step % schedule.len()] % queues.len();
        step += 1;
        clock += 1;
        let Some(index) = (0..queues.len())
            .map(|offset| (scheduled + offset) % queues.len())
            .find(|&i| !drained[i])
        else {
            break;
        };
        match queues[index]
            .claim_at("fleet", LEASE_MS, clock)
            .expect("claim never fails on a healthy directory")
        {
            ClaimOutcome::Claimed(plan) => {
                claims += 1;
                if !killed && claims == kill_point + 1 {
                    // SIGKILL between claim and submit: the shard stays leased
                    // until the lease expires, then the fleet steals it.
                    killed = true;
                    continue;
                }
                let result = engine
                    .execute_shard(&plan, protocol::engine::ShardOutput::Summary)
                    .expect("shard executes");
                match queues[index].submit(&result).expect("submit never fails") {
                    SubmitOutcome::Recorded | SubmitOutcome::AlreadyDone => {}
                }
            }
            ClaimOutcome::Wait { .. } => {
                // Only the killed worker's lease blocks progress: expire it.
                clock += LEASE_MS;
            }
            ClaimOutcome::Drained => drained[index] = true,
        }
    }
}

proptest! {
    #[test]
    fn queued_campaign_reports_match_direct_execution(
        eta_count in 1usize..3,
        with_adversary_axis in 0usize..2,
        trials in 1usize..3,
        shard_trials in 1usize..3,
        schedule in proptest::collection::vec(0usize..8, 1..10),
        kill_point in 0usize..10,
        identity_seed in 0u64..1_000_000,
        master_seed in 0u64..1_000_000,
    ) {
        let mut axes = vec![Axis::Eta((0..eta_count).map(|i| i * 10).collect())];
        if with_adversary_axis == 1 {
            axes.push(Axis::Adversary(vec![
                Adversary::Honest,
                Adversary::InterceptResend(InterceptBasis::Computational),
            ]));
        }
        let campaign = session_campaign(identity_seed, master_seed, trials, axes);

        // The in-process reference, and per-point direct engine runs.
        let direct = campaign
            .run_direct(Parallelism::Serial)
            .expect("direct run succeeds");
        let engine = SessionEngine::new(master_seed);
        let points = campaign.expand().expect("campaign expands");

        // The fleet path: per-point queues, interleaved claims, one kill.
        let tmp = TempCampaignDir::new();
        let run = CampaignRun::init(&tmp.0, &campaign, shard_trials).expect("run initializes");
        drain_interleaved_with_kill(&run, &schedule, kill_point);

        // A process restart: reopen the directory and fold the report.
        let reopened = CampaignRun::open(&tmp.0).expect("campaign directory reopens");
        let status = reopened.status().expect("status");
        prop_assert!(status.complete());
        let report = reopened.report().expect("complete campaign folds");

        prop_assert_eq!(report.points.len(), points.len());
        for (point_report, point) in report.points.iter().zip(&points) {
            let summary = point_report.summary.as_ref().expect("session summary");
            let PointWork::Session(scenario) = &point.work else {
                panic!("session scenario");
            };
            let whole = engine.run_trials(scenario, point.trials).expect("direct point run");
            prop_assert_eq!(summary, &whole);
            prop_assert_eq!(
                summary.mean_chsh_round1.map(f64::to_bits),
                whole.mean_chsh_round1.map(f64::to_bits)
            );
            prop_assert_eq!(
                summary.mean_chsh_round2.map(f64::to_bits),
                whole.mean_chsh_round2.map(f64::to_bits)
            );
            prop_assert_eq!(
                summary.mean_message_accuracy.map(f64::to_bits),
                whole.mean_message_accuracy.map(f64::to_bits)
            );
        }
        // …and the whole report serializes byte-identically to run_direct.
        prop_assert_eq!(
            serde::json::to_string(&report),
            serde::json::to_string(&direct),
            "queued campaign report must serialize byte-identically"
        );
    }
}
