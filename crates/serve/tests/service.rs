//! In-process service tests: protocol semantics, fairness-adjacent
//! behaviors (quota backpressure, cancellation), streaming snapshots, and
//! the malformed-input paths — every failure answered by name, never a
//! server panic or a dropped connection.

mod common;

use common::{campaign, scenario, TempDir};
use protocol::engine::{
    Axis, CampaignSpace, CampaignWorkload, CircuitDevice, CircuitExperiment, Parallelism,
    SessionEngine, TrialSummary,
};
use protocol::wire::{ErrorKind, JobSpec, JobState, Request, Response};
use serve::{Client, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn start_server(spool: &TempDir, workers: usize, quota: usize, snapshot_trials: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        spool_dir: spool.0.clone(),
        workers,
        quota,
        snapshot_trials,
    })
    .expect("server starts")
}

/// A zero cadence would split every job into 1-trial shards, so the server
/// refuses to start with it, naming the field.
#[test]
fn a_zero_snapshot_cadence_is_refused_at_start() {
    let spool = TempDir::new("zero-cadence");
    let error = Server::start(ServerConfig {
        spool_dir: spool.0.clone(),
        snapshot_trials: 0,
        ..ServerConfig::default()
    })
    .err()
    .expect("a zero cadence is refused");
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    assert!(error.to_string().contains("snapshot_trials"), "{error}");
}

#[test]
fn session_job_streams_snapshots_and_finishes_byte_identically() {
    let spool = TempDir::new("session");
    let server = start_server(&spool, 2, 4, 4);
    let mut client = Client::connect(server.local_addr()).expect("connects");
    assert_eq!(client.quota(), 4);
    assert_eq!(client.snapshot_trials(), 4);

    let scenario = scenario(7);
    let trials = 16usize;
    let seed = 99u64;
    let response = client
        .submit(JobSpec::Session {
            scenario: scenario.clone(),
            trials,
            seed,
        })
        .expect("submit round-trips");
    let Response::Accepted { job } = response else {
        panic!("expected Accepted, got {response:?}");
    };

    let (done, snapshots) = client.wait_done(job).expect("job completes");
    let Response::Done {
        summary: Some(summary),
        report: None,
        ..
    } = &done
    else {
        panic!("expected session Done, got {done:?}");
    };

    // The served summary is byte-identical to a local run of the same
    // scenario, trials and seed.
    let local = SessionEngine::new(seed)
        .run_trials(&scenario, trials)
        .expect("local run");
    assert_eq!(
        serde::json::to_string(summary),
        serde::json::to_string(&local)
    );

    // Every streamed snapshot is the merged contiguous prefix — itself
    // byte-identical to a local run of that prefix — and each one is
    // strictly past the one before.
    assert!(
        !snapshots.is_empty(),
        "a 16-trial job at cadence 4 must stream at least one snapshot"
    );
    let mut last = 0;
    for snapshot in &snapshots {
        let Response::Snapshot {
            trials_done,
            trials_total,
            summary,
            ..
        } = snapshot
        else {
            panic!("expected Snapshot, got {snapshot:?}");
        };
        assert_eq!(*trials_total, trials as u64);
        assert!(*trials_done > last && *trials_done < trials as u64);
        last = *trials_done;
        let prefix = SessionEngine::new(seed)
            .run_trials(&scenario, *trials_done as usize)
            .expect("prefix run");
        assert_eq!(
            serde::json::to_string(summary),
            serde::json::to_string(&prefix)
        );
    }

    // The spooled result file holds exactly the summary's bytes.
    let result_path = spool.0.join(format!("job-{job:010}")).join("result.json");
    let on_disk = std::fs::read_to_string(result_path).expect("result.json exists");
    assert_eq!(on_disk, serde::json::to_string(&local));

    // Status after completion answers from the spool.
    client.send(&Request::Status { job }).expect("status sends");
    let status = client.recv().expect("status answered");
    let Response::Status {
        state: JobState::Done,
        trials_done,
        trials_total,
        ..
    } = status
    else {
        panic!("expected Done status, got {status:?}");
    };
    assert_eq!((trials_done, trials_total), (trials as u64, trials as u64));
}

#[test]
fn campaign_job_folds_the_same_report_as_a_direct_run() {
    let spool = TempDir::new("campaign");
    let server = start_server(&spool, 2, 4, 4);
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let campaign = campaign(11, 6);
    let response = client
        .submit(JobSpec::Campaign {
            campaign: campaign.clone(),
        })
        .expect("submit round-trips");
    let Response::Accepted { job } = response else {
        panic!("expected Accepted, got {response:?}");
    };
    let (done, snapshots) = client.wait_done(job).expect("job completes");
    assert!(snapshots.is_empty(), "campaigns do not stream snapshots");
    let Response::Done {
        summary: None,
        report: Some(report),
        ..
    } = &done
    else {
        panic!("expected campaign Done, got {done:?}");
    };

    let direct = campaign
        .run_direct(Parallelism::Serial)
        .expect("direct run");
    assert_eq!(
        serde::json::to_string(report),
        serde::json::to_string(&direct)
    );
}

#[test]
fn quota_exhaustion_answers_busy_and_releases_on_completion() {
    let spool = TempDir::new("quota");
    let server = start_server(&spool, 1, 1, 64);
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let spec = JobSpec::Session {
        scenario: scenario(3),
        trials: 64,
        seed: 5,
    };
    let first = client.submit(spec.clone()).expect("first submit");
    let Response::Accepted { job } = first else {
        panic!("expected Accepted, got {first:?}");
    };

    // The second submission must be refused by name — never silently
    // dropped, never queued past the quota.
    let second = client.submit(spec.clone()).expect("second submit");
    let Response::Busy { in_flight, quota } = second else {
        panic!("expected Busy, got {second:?}");
    };
    assert_eq!((in_flight, quota), (1, 1));

    // Completion releases the slot.
    let (done, _) = client.wait_done(job).expect("first job finishes");
    assert!(matches!(done, Response::Done { .. }));
    let third = client.submit(spec).expect("third submit");
    assert!(
        matches!(third, Response::Accepted { .. }),
        "slot must be free after Done, got {third:?}"
    );
}

#[test]
fn cancellation_stops_scheduling_and_survives_in_the_spool() {
    let spool = TempDir::new("cancel");
    let server = start_server(&spool, 1, 4, 2);
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // A long job keeps the single worker busy while we cancel the second.
    let long = client
        .submit(JobSpec::Session {
            scenario: scenario(21),
            trials: 64,
            seed: 1,
        })
        .expect("long submit");
    let Response::Accepted { job: long_job } = long else {
        panic!("expected Accepted, got {long:?}");
    };
    let victim = client
        .submit(JobSpec::Session {
            scenario: scenario(22),
            trials: 64,
            seed: 2,
        })
        .expect("victim submit");
    let Response::Accepted { job: victim_job } = victim else {
        panic!("expected Accepted, got {victim:?}");
    };

    client
        .send(&Request::Cancel { job: victim_job })
        .expect("cancel sends");
    let mut long_done = None;
    // Snapshots of either job, and on a slow host the long job's Done, may
    // interleave before the answer.
    loop {
        match client.recv().expect("response") {
            Response::Cancelled { job } => {
                assert_eq!(job, victim_job);
                break;
            }
            Response::Snapshot { .. } => {}
            done @ Response::Done { .. } => long_done = Some(done),
            other => panic!("unexpected response {other:?}"),
        }
    }

    let victim_dir = spool.0.join(format!("job-{victim_job:010}"));
    assert!(
        victim_dir.join("cancelled.json").exists(),
        "cancellation must be durable"
    );

    // The long job still completes; after `Cancelled` the victim streams
    // nothing, and it never produces a result.
    while long_done.is_none() {
        match client.recv().expect("response") {
            Response::Snapshot { job, .. } if job == victim_job => {
                panic!("job {victim_job} streamed a snapshot after Cancelled")
            }
            Response::Snapshot { .. } => {}
            done @ Response::Done { .. } => long_done = Some(done),
            other => panic!("unexpected response {other:?}"),
        }
    }
    let done = long_done.expect("loop ends on Done");
    assert!(
        matches!(done, Response::Done { job, .. } if job == long_job),
        "expected the long job's Done, got {done:?}"
    );
    assert!(
        !victim_dir.join("result.json").exists(),
        "a cancelled job must not be finalized"
    );

    // Status reports the cancellation; cancelling an unknown job fails by
    // name. Both jobs are over, so nothing else can interleave.
    client
        .send(&Request::Status { job: victim_job })
        .expect("status sends");
    let status = client.recv().expect("status answered");
    assert!(
        matches!(
            status,
            Response::Status {
                state: JobState::Cancelled,
                ..
            }
        ),
        "expected Cancelled status, got {status:?}"
    );
    client
        .send(&Request::Cancel { job: 999_999 })
        .expect("cancel sends");
    let unknown = client.recv().expect("cancel answered");
    assert!(
        matches!(
            unknown,
            Response::Error {
                kind: ErrorKind::UnknownJob,
                ..
            }
        ),
        "expected UnknownJob, got {unknown:?}"
    );
}

/// A job's `Accepted` reaches the wire before any of its `Snapshot`s or
/// its `Done`, even for one-shard jobs submitted back to back and finished
/// by a worker as soon as it can see them.
#[test]
fn accepted_precedes_every_response_of_its_job() {
    let spool = TempDir::new("ack-order");
    let jobs = 32;
    let server = start_server(&spool, 2, jobs, 8);
    let mut client = Client::connect(server.local_addr()).expect("connects");
    for seed in 0..jobs as u64 {
        client
            .send(&Request::Submit {
                job: JobSpec::Session {
                    scenario: scenario(seed),
                    trials: 2,
                    seed,
                },
            })
            .expect("submit sends");
    }

    let mut accepted = std::collections::BTreeSet::new();
    let mut done = 0;
    while done < jobs {
        match client.recv().expect("response") {
            Response::Accepted { job } => assert!(accepted.insert(job), "job {job} acked twice"),
            Response::Done { job, .. } => {
                assert!(accepted.contains(&job), "job {job}: Done before Accepted");
                done += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(accepted.len(), jobs);
}

/// Two workers racing over many multi-shard jobs: each job's `Accepted`
/// comes first, and its snapshots strictly increase, stop short of the
/// total, and are exact prefixes — byte-identical to a local run of the
/// same prefix.
#[test]
fn concurrent_jobs_stream_strictly_increasing_exact_prefixes() {
    let spool = TempDir::new("snapshot-order");
    let (jobs, trials, cadence) = (20u64, 64usize, 4usize);
    let server = start_server(&spool, 2, jobs as usize, cadence);
    let mut client = Client::connect(server.local_addr()).expect("connects");
    for seed in 0..jobs {
        client
            .send(&Request::Submit {
                job: JobSpec::Session {
                    scenario: scenario(seed),
                    trials,
                    seed,
                },
            })
            .expect("submit sends");
    }

    // One connection's requests are answered in order, so the n-th
    // `Accepted` belongs to seed n. Each job's snapshots in arrival order.
    let mut streamed: BTreeMap<u64, (u64, Vec<(u64, TrialSummary)>)> = BTreeMap::new();
    let mut done = 0;
    while done < jobs {
        match client.recv().expect("response") {
            Response::Accepted { job } => {
                let seed = streamed.len() as u64;
                assert!(streamed.insert(job, (seed, Vec::new())).is_none());
            }
            Response::Snapshot {
                job,
                trials_done,
                trials_total,
                summary,
            } => {
                let (_, snapshots) = streamed
                    .get_mut(&job)
                    .unwrap_or_else(|| panic!("job {job}: Snapshot before Accepted"));
                assert_eq!(trials_total, trials as u64);
                assert!(
                    trials_done < trials_total,
                    "job {job}: a snapshot covers the whole run"
                );
                if let Some(&(last, _)) = snapshots.last() {
                    assert!(
                        trials_done > last,
                        "job {job}: snapshot of {trials_done} trials after one of {last}"
                    );
                }
                snapshots.push((trials_done, summary));
            }
            Response::Done { job, .. } => {
                assert!(
                    streamed.contains_key(&job),
                    "job {job}: Done before Accepted"
                );
                done += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    assert!(
        streamed
            .values()
            .any(|(_, snapshots)| !snapshots.is_empty()),
        "16-shard jobs at cadence 4 must stream"
    );
    for (job, (seed, snapshots)) in &streamed {
        for (trials_done, summary) in snapshots {
            let prefix = SessionEngine::new(*seed)
                .run_trials(&scenario(*seed), *trials_done as usize)
                .expect("prefix run");
            assert_eq!(
                serde::json::to_string(summary),
                serde::json::to_string(&prefix),
                "job {job}: a snapshot of {trials_done} trials is not that prefix"
            );
        }
    }
}

/// A job that would split into more shards than the server admits is
/// refused by name before anything is allocated for it — `trials: 10^10`
/// once drove the server out of memory — and the connection lives on.
#[test]
fn oversized_jobs_are_refused_as_too_large() {
    let spool = TempDir::new("too-large");
    let server = start_server(&spool, 1, 4, 8);
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let response = client
        .submit(JobSpec::Session {
            scenario: scenario(1),
            trials: 10_000_000_000,
            seed: 0,
        })
        .expect("submit round-trips");
    let Response::Error { kind, message } = response else {
        panic!("expected Error, got {response:?}");
    };
    assert_eq!(kind, ErrorKind::TooLarge);
    assert!(
        message.contains(&serve::MAX_JOB_SHARDS.to_string()),
        "the refusal must name the limit: {message}"
    );
    assert_eq!(std::fs::read_dir(&spool.0).expect("spool").count(), 0);

    client.send(&Request::Ping).expect("ping sends");
    let pong = client.recv().expect("pong");
    assert!(
        matches!(pong, Response::Pong),
        "expected Pong, got {pong:?}"
    );
}

#[test]
fn malformed_truncated_and_oversized_requests_fail_by_name() {
    let spool = TempDir::new("malformed");
    let server = start_server(&spool, 1, 4, 8);
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let expect_error = |client: &mut Client, kind: ErrorKind, what: &str| {
        let response = client.recv().expect("server answers");
        let Response::Error { kind: got, .. } = response else {
            panic!("{what}: expected Error, got {response:?}");
        };
        assert_eq!(got, kind, "{what}");
    };

    // Non-JSON garbage.
    client.send_raw("this is not json").expect("sends");
    expect_error(&mut client, ErrorKind::Malformed, "garbage line");

    // Truncated JSON (a prefix of a real request).
    client
        .send_raw("{\"Submit\":{\"job\":{\"Sess")
        .expect("sends");
    expect_error(&mut client, ErrorKind::Malformed, "truncated JSON");

    // Valid JSON that is not a request.
    client.send_raw("{\"Frobnicate\":{}}").expect("sends");
    expect_error(&mut client, ErrorKind::Malformed, "unknown request");

    // An oversized line (past the 1 MiB frame cap) is rejected without
    // buffering it all and without killing the connection.
    let oversized = "x".repeat((1 << 20) + 64);
    client.send_raw(&oversized).expect("sends");
    expect_error(&mut client, ErrorKind::Oversized, "oversized line");

    // The connection survived every error.
    client.send(&Request::Ping).expect("ping sends");
    let pong = client.recv().expect("pong");
    assert!(
        matches!(pong, Response::Pong),
        "expected Pong, got {pong:?}"
    );

    // Non-UTF-8 bytes on a raw socket fail by name too (and the server
    // stays up for the next client).
    let mut raw = TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut hello = String::new();
    BufReader::new(raw.try_clone().expect("clone"))
        .read_line(&mut hello)
        .expect("hello line");
    assert!(hello.contains("Hello"), "banner: {hello}");
    raw.write_all(&[0xff, 0xfe, 0x90, b'\n']).expect("writes");
    let mut reply = Vec::new();
    let mut reader = BufReader::new(&mut raw);
    let mut byte = [0u8; 1];
    while reader.read(&mut byte).expect("reads") == 1 && byte[0] != b'\n' {
        reply.push(byte[0]);
    }
    let reply = String::from_utf8(reply).expect("reply is UTF-8");
    assert!(
        reply.contains("Malformed"),
        "expected Malformed error, got {reply}"
    );
}

/// An identity the constructors refuse fails its `Submit` at decode, so it
/// never reaches a worker: the lone worker then serves the next job.
#[test]
fn an_odd_length_identity_is_malformed_and_the_worker_stays_free() {
    let spool = TempDir::new("odd-identity");
    let server = start_server(&spool, 1, 4, 8);
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let scenario = scenario(7);
    let (trials, seed) = (8usize, 99u64);
    let job = JobSpec::Session {
        scenario: scenario.clone(),
        trials,
        seed,
    };

    let valid = serde::json::to_string(&Request::Submit { job: job.clone() });
    let alice = serde::json::to_string(&scenario.identities.alice);
    let odd = valid.replacen(&alice, r#"{"bits":[true,false,true]}"#, 1);
    assert_ne!(odd, valid);
    client.send_raw(&odd).expect("sends");
    let response = client.recv().expect("server answers");
    let Response::Error {
        kind: ErrorKind::Malformed,
        message,
    } = &response
    else {
        panic!("expected a Malformed error, got {response:?}");
    };
    assert!(message.contains("even number of bits, got 3"), "{message}");

    let response = client.submit(job).expect("submit round-trips");
    let Response::Accepted { job } = response else {
        panic!("expected Accepted, got {response:?}");
    };
    let (done, _) = client.wait_done(job).expect("job completes");
    let Response::Done {
        summary: Some(summary),
        ..
    } = &done
    else {
        panic!("expected session Done, got {done:?}");
    };
    let local = SessionEngine::new(seed)
        .run_trials(&scenario, trials)
        .expect("local run");
    assert_eq!(
        serde::json::to_string(summary),
        serde::json::to_string(&local)
    );
}

#[test]
fn deeply_nested_frames_fail_by_name_and_the_server_survives() {
    let spool = TempDir::new("nesting");
    let server = start_server(&spool, 1, 4, 8);
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // Well under the frame cap, but far deeper than the parser recurses.
    client.send_raw(&"[".repeat(200_000)).expect("sends");
    let response = client.recv().expect("server answers");
    assert!(
        matches!(
            response,
            Response::Error {
                kind: ErrorKind::Malformed,
                ..
            }
        ),
        "expected Malformed, got {response:?}"
    );

    client.send(&Request::Ping).expect("ping sends");
    let pong = client.recv().expect("pong");
    assert!(
        matches!(pong, Response::Pong),
        "expected Pong, got {pong:?}"
    );
}

#[test]
fn sampled_campaigns_are_refused_as_unsupported() {
    let spool = TempDir::new("sampled");
    let server = start_server(&spool, 1, 4, 8);
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let mut sampled = campaign(5, 2);
    sampled.workload = CampaignWorkload::Sampled(CircuitExperiment::Fig2Histogram {
        device: CircuitDevice::IbmBrisbaneLike,
        eta: 10,
    });
    sampled.space = CampaignSpace::Grid(vec![Axis::Message(vec!["00".into()])]);
    let response = client
        .submit(JobSpec::Campaign { campaign: sampled })
        .expect("submit round-trips");
    let Response::Error { kind, message } = response else {
        panic!("expected Error, got {response:?}");
    };
    assert_eq!(kind, ErrorKind::Unsupported);
    assert!(
        message.contains("no shard queue"),
        "reason must explain the refusal: {message}"
    );

    // The refused submission must not leak its quota slot.
    for _ in 0..4 {
        let ok = client
            .submit(JobSpec::Session {
                scenario: scenario(1),
                trials: 2,
                seed: 0,
            })
            .expect("submit");
        let Response::Accepted { job } = ok else {
            panic!("quota slot leaked: {ok:?}");
        };
        let (done, _) = client.wait_done(job).expect("finishes");
        assert!(matches!(done, Response::Done { .. }));
    }
}

#[test]
fn status_of_unknown_jobs_fails_by_name() {
    let spool = TempDir::new("status");
    let server = start_server(&spool, 1, 4, 8);
    let mut client = Client::connect(server.local_addr()).expect("connects");
    client
        .send(&Request::Status { job: 42 })
        .expect("status sends");
    let response = client.recv().expect("answered");
    assert!(
        matches!(
            response,
            Response::Error {
                kind: ErrorKind::UnknownJob,
                ..
            }
        ),
        "expected UnknownJob, got {response:?}"
    );
}
