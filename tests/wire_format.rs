//! Golden wire-format fixtures for the cross-process shard pipeline.
//!
//! `ShardPlan`, `ShardResult` and `MergeCheckpoint` are shipped between
//! processes (and persisted on shared disks) as JSON, so a fleet depends on
//! their exact shape. The canonical files under `tests/fixtures/` lock that
//! format: each test asserts that **today's code still parses the checked-in
//! bytes** to the expected value *and* still serializes that value to the
//! identical bytes — any accidental field rename, reorder, or representation
//! change turns these tests red before it breaks a fleet.
//!
//! To regenerate after an *intentional* format change (which requires a
//! checkpoint-version bump for `MergeCheckpoint`):
//!
//! ```text
//! UA_DI_QSDC_UPDATE_FIXTURES=1 cargo test --test wire_format
//! ```

use bench::shard_io::demo_scenario;
use ua_di_qsdc::prelude::*;
use ua_di_qsdc::protocol::engine::queue::{content_fingerprint, CHECKPOINT_VERSION};

use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// In update mode, (re)writes the fixture; otherwise asserts the checked-in
/// bytes equal today's serialization of the same value.
fn check_bytes(name: &str, generated: &str) -> String {
    let path = fixture_path(name);
    if std::env::var_os(ua_di_qsdc::protocol::env_keys::UPDATE_FIXTURES).is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, generated).unwrap();
        return generated.to_string();
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {}: {e}\n(run with UA_DI_QSDC_UPDATE_FIXTURES=1 to create it)",
            path.display()
        )
    });
    assert_eq!(
        on_disk, generated,
        "{name}: today's serialization diverged from the checked-in wire format"
    );
    on_disk
}

/// The deterministic artifacts every fixture derives from: the `shardctl`
/// demo scenario, a 6-trial run planned under seed 99, and the sub-shard
/// covering trials 2..4.
fn artifacts() -> (Scenario, ShardPlan, ShardPlan) {
    let scenario =
        demo_scenario("intercept", 7, BackendKind::DensityMatrix).expect("demo scenario builds");
    let whole = SessionEngine::new(99).plan(&scenario, 6);
    let sub = whole.subrange(2, 2);
    (scenario, whole, sub)
}

#[test]
fn shard_plan_wire_format_is_stable() {
    let (scenario, whole, sub) = artifacts();
    let text = check_bytes("shard_plan.json", &serde::json::to_string(&sub));
    let parsed: ShardPlan = serde::json::from_str(&text).expect("fixture still parses");
    assert_eq!(parsed, sub);
    // The parsed plan is fully usable: provenance validates and the
    // fingerprint still matches the scenario it carries.
    parsed.validate().expect("fixture plan validates");
    assert_eq!(parsed.scenario, scenario);
    assert_eq!(parsed.fingerprint, scenario.fingerprint());
    assert_eq!(parsed.master_seed, whole.master_seed);
    assert_eq!((parsed.trial_start, parsed.trial_count), (2, 2));
}

#[test]
fn shard_result_wire_formats_are_stable() {
    let (_, _, sub) = artifacts();
    let engine = SessionEngine::new(0);
    for (name, output) in [
        ("shard_result_summary.json", ShardOutput::Summary),
        ("shard_result_outcomes.json", ShardOutput::Outcomes),
    ] {
        let result = engine.execute_shard(&sub, output).expect("shard executes");
        let text = check_bytes(name, &serde::json::to_string(&result));
        let parsed: ShardResult = serde::json::from_str(&text).expect("fixture still parses");
        assert_eq!(parsed, result, "{name}");
        let payload: &ShardPayload = &parsed.payload;
        assert_eq!(payload.kind(), output.as_str());
        assert_eq!(payload.trials(), 2);
    }
}

/// The deterministic campaign every campaign fixture derives from: the demo
/// scenario swept over η × both backends, two trials per point, seed 99.
fn fixture_campaign() -> Campaign {
    let base =
        demo_scenario("intercept", 7, BackendKind::DensityMatrix).expect("demo scenario builds");
    Campaign {
        label: "wire-fixture".to_string(),
        master_seed: 99,
        trials: 2,
        workload: CampaignWorkload::Session { base },
        space: CampaignSpace::Grid(vec![
            Axis::Eta(vec![0, 10]),
            Axis::Backend(BackendKind::ALL.to_vec()),
        ]),
    }
}

#[test]
fn campaign_wire_format_is_stable() {
    let campaign = fixture_campaign();
    let text = check_bytes("campaign.json", &serde::json::to_string(&campaign));
    let parsed: Campaign = serde::json::from_str(&text).expect("fixture still parses");
    assert_eq!(parsed, campaign);
    // The parsed campaign is fully usable: it expands to the same points
    // (grid product, last axis fastest) under the same fingerprint.
    assert_eq!(parsed.fingerprint(), campaign.fingerprint());
    let points = parsed.expand().expect("fixture campaign expands");
    assert_eq!(points.len(), 2 * BackendKind::ALL.len());
    assert_eq!(
        points[1].coords[1],
        AxisValue::Backend(BackendKind::Statevector)
    );
    // The fixture bytes pin every backend's canonical serde name — including
    // the twirled substrate.
    for kind in BackendKind::ALL {
        assert!(
            text.contains(&format!("\"{kind}\"")),
            "fixture must spell out {kind}"
        );
    }
}

#[test]
fn campaign_report_wire_format_is_stable() {
    let report = fixture_campaign()
        .run_direct(Parallelism::Serial)
        .expect("fixture campaign runs");
    let text = check_bytes("campaign_report.json", &serde::json::to_string(&report));
    let parsed: CampaignReport = serde::json::from_str(&text).expect("fixture still parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.points.len(), 2 * BackendKind::ALL.len());
    for point in &parsed.points {
        let point: &CampaignPointReport = point;
        let summary = point.summary.as_ref().expect("session points summarize");
        assert_eq!(summary.trials, 2);
        // The demo scenario is adversarial, so the interval lands in the
        // detection column — and a Wilson interval always brackets its rate.
        let interval: RateInterval = point
            .detection
            .or(point.false_alarm)
            .expect("abort rate is classified");
        assert!(interval.lower <= interval.rate && interval.rate <= interval.upper);
    }
}

/// `shardctl queue status` / `shardctl campaign status` print these over
/// JSON pipes, so fleet tooling parses them; their shapes are wire format
/// just like the checkpoints they summarize.
#[test]
fn status_wire_formats_are_stable() {
    let queue = QueueStatus {
        total_shards: 3,
        pending: 1,
        leased: 1,
        done: 1,
        trials_done: 2,
        trials_total: 6,
    };
    let text = check_bytes("queue_status.json", &serde::json::to_string(&queue));
    let parsed: QueueStatus = serde::json::from_str(&text).expect("fixture still parses");
    assert_eq!(parsed, queue);
    assert!(!parsed.complete());

    let campaign = CampaignStatus {
        points_total: 8,
        points_done: 8,
        trials_done: 16,
        trials_total: 16,
    };
    let text = check_bytes("campaign_status.json", &serde::json::to_string(&campaign));
    let parsed: CampaignStatus = serde::json::from_str(&text).expect("fixture still parses");
    assert_eq!(parsed, campaign);
    assert!(parsed.complete());
}

/// The `qsdc-serve` protocol: every request, every response, and the spool
/// job manifest. One fixture per direction locks the full enum surface —
/// a deployed client survives a server upgrade exactly as long as these
/// bytes do not move.
#[test]
fn serve_wire_formats_are_stable() {
    use ua_di_qsdc::protocol::wire::{
        ErrorKind, JobManifest, JobSpec, JobState, Request, Response, MANIFEST_VERSION,
        WIRE_VERSION,
    };
    let (scenario, _, _) = artifacts();
    let engine = SessionEngine::new(99);
    let summary = engine
        .run_trials(&scenario, 2)
        .expect("fixture summary runs");

    let requests = vec![
        Request::Submit {
            job: JobSpec::Session {
                scenario: scenario.clone(),
                trials: 6,
                seed: 99,
            },
        },
        Request::Submit {
            job: JobSpec::Campaign {
                campaign: fixture_campaign(),
            },
        },
        Request::Cancel { job: 1 },
        Request::Status { job: 1 },
        Request::Ping,
    ];
    let text = check_bytes("serve_requests.json", &serde::json::to_string(&requests));
    let parsed: Vec<Request> = serde::json::from_str(&text).expect("fixture still parses");
    assert_eq!(parsed, requests);

    let responses = vec![
        Response::Hello {
            server: "qsdc-serve fixture".to_string(),
            wire_version: WIRE_VERSION,
            quota: 4,
            snapshot_trials: 8,
        },
        Response::Accepted { job: 1 },
        Response::Busy {
            in_flight: 4,
            quota: 4,
        },
        Response::Snapshot {
            job: 1,
            trials_done: 2,
            trials_total: 6,
            summary: summary.clone(),
        },
        Response::Done {
            job: 1,
            summary: Some(summary),
            report: None,
        },
        Response::Cancelled { job: 2 },
        Response::Status {
            job: 1,
            state: JobState::Running,
            trials_done: 2,
            trials_total: 6,
        },
        Response::Pong,
        Response::Error {
            kind: ErrorKind::Malformed,
            message: "not a request".to_string(),
        },
        Response::Error {
            kind: ErrorKind::TooLarge,
            message: "job needs 39062500 shards of 256 trials; \
                      the limit is MAX_JOB_SHARDS = 4096 per job"
                .to_string(),
        },
    ];
    let text = check_bytes("serve_responses.json", &serde::json::to_string(&responses));
    let parsed: Vec<Response> = serde::json::from_str(&text).expect("fixture still parses");
    assert_eq!(parsed, responses);
    // Every named error kind and job state keeps its canonical spelling.
    for kind in [
        ErrorKind::Malformed,
        ErrorKind::Oversized,
        ErrorKind::UnknownJob,
        ErrorKind::Unsupported,
        ErrorKind::TooLarge,
        ErrorKind::Internal,
    ] {
        let json = serde::json::to_string(&kind);
        assert_eq!(serde::json::from_str::<ErrorKind>(&json).unwrap(), kind);
    }
    for state in [JobState::Running, JobState::Done, JobState::Cancelled] {
        let json = serde::json::to_string(&state);
        assert_eq!(serde::json::from_str::<JobState>(&json).unwrap(), state);
    }

    let manifest = JobManifest {
        version: MANIFEST_VERSION,
        job: 1,
        client: "client-127.0.0.1:40000".to_string(),
        spec: JobSpec::Session {
            scenario,
            trials: 6,
            seed: 99,
        },
        shard_trials: 2,
    };
    let text = check_bytes(
        "serve_job_manifest.json",
        &serde::json::to_string(&manifest),
    );
    let parsed: JobManifest = serde::json::from_str(&text).expect("fixture still parses");
    assert_eq!(parsed, manifest);
    assert_eq!(parsed.version, MANIFEST_VERSION);
}

#[test]
fn merge_checkpoint_wire_format_is_stable() {
    let (_, whole, sub) = artifacts();
    let engine = SessionEngine::new(0);
    let done_result = engine
        .execute_shard(&whole.subrange(0, 2), ShardOutput::Summary)
        .expect("shard executes");
    let done_bytes = serde::json::to_string(&done_result).into_bytes();
    // One slot in each lifecycle state, so the fixture locks all three
    // `SlotState` encodings (the lease expiry is a fixed instant — wall
    // clocks have no place in a golden file).
    let checkpoint = MergeCheckpoint {
        version: CHECKPOINT_VERSION,
        plan: whole.clone(),
        output: ShardOutput::Summary,
        shards: vec![
            ShardSlot {
                trial_start: 0,
                trial_count: 2,
                state: SlotState::Done {
                    result_fingerprint: content_fingerprint(&done_bytes),
                },
            },
            ShardSlot {
                trial_start: 2,
                trial_count: 2,
                state: SlotState::Leased {
                    worker: "fleet-worker-1".to_string(),
                    expires_at_ms: 1_700_000_000_000,
                },
            },
            ShardSlot {
                trial_start: 4,
                trial_count: 2,
                state: SlotState::Pending,
            },
        ],
    };
    let text = check_bytes(
        "merge_checkpoint.json",
        &serde::json::to_string(&checkpoint),
    );
    let parsed: MergeCheckpoint = serde::json::from_str(&text).expect("fixture still parses");
    assert_eq!(parsed, checkpoint);
    assert_eq!(parsed.version, CHECKPOINT_VERSION);
    parsed
        .plan
        .validate()
        .expect("fixture checkpoint plan validates");
    // The checkpointed sub-ranges still re-derive valid, re-stamped plans.
    let rederived = parsed.plan.subrange(2, 2);
    assert_eq!(rederived, sub);
}

/// Nesting depth of a parsed document: 0 for scalars, 1 + the deepest child
/// for arrays and objects.
fn nesting_depth(value: &serde::Value) -> usize {
    match value {
        serde::Value::Seq(items) => 1 + items.iter().map(nesting_depth).max().unwrap_or(0),
        serde::Value::Map(entries) => {
            1 + entries
                .iter()
                .map(|(_, v)| nesting_depth(v))
                .max()
                .unwrap_or(0)
        }
        _ => 0,
    }
}

/// The JSON parser's nesting cap must leave real documents plenty of
/// headroom: every checked-in fixture and stored campaign nests at most a
/// quarter as deep as `serde::json::MAX_DEPTH`.
#[test]
fn checked_in_documents_nest_well_below_the_parser_depth_cap() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut deepest = (0, PathBuf::new());
    let mut documents = 0;
    for dir in ["tests/fixtures", "crates/bench/campaigns"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("directory lists") {
            let path = entry.expect("entry reads").path();
            if path.extension().is_none_or(|ext| ext != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("document reads");
            let value = serde::json::parse(&text).expect("document parses");
            documents += 1;
            let depth = nesting_depth(&value);
            if depth > deepest.0 {
                deepest = (depth, path);
            }
        }
    }
    assert!(documents >= 10, "found only {documents} documents");
    assert!(
        deepest.0 * 4 <= serde::json::MAX_DEPTH,
        "{} nests {} levels, too close to MAX_DEPTH {}",
        deepest.1.display(),
        deepest.0,
        serde::json::MAX_DEPTH
    );
}
