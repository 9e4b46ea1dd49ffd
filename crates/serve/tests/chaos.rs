//! Crash-chaos suite for `qsdc-serve`: SIGKILL the server process
//! mid-flight, restart it on the same spool, and byte-diff every job's
//! final `result.json` against an uninterrupted single-process drain of
//! the identical job set. Nothing the kill can interrupt — a checkpoint
//! write, a leased shard, a half-lowered job — may change a single output
//! byte or lose a single accepted job.

mod common;

use common::{campaign, scenario, TempDir};
use protocol::engine::{QueueError, SessionEngine, ShardOutput};
use protocol::env_keys;
use protocol::wire::{JobManifest, JobSpec, JobState, Request, Response, MANIFEST_VERSION};
use serve::spool::{Spool, SpoolError, WorkClaim};
use serve::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Shard granularity (= snapshot cadence) used on both the served and the
/// reference side; byte-identity requires the same split.
const SHARD_TRIALS: usize = 4;

/// Kill-window guard: the test waits until at least this many trials have
/// been executed before pulling the plug, so the kill genuinely lands
/// mid-flight.
const KILL_AFTER_TRIALS: u64 = 24;

fn spawn_server(spool: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qsdc-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--spool",
            spool.to_str().expect("utf-8 spool path"),
            "--workers",
            "2",
            "--quota",
            "8",
            "--snapshot-trials",
            &SHARD_TRIALS.to_string(),
        ])
        .env_remove(env_keys::SERVE_ADDR)
        .env_remove(env_keys::SERVE_SPOOL)
        .env_remove(env_keys::SERVE_WORKERS)
        .env_remove(env_keys::SERVE_QUOTA)
        .env_remove(env_keys::SERVE_SNAPSHOT_TRIALS)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server binary spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("server prints its address");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("banner has an address")
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("unparseable banner {banner:?}: {e}"));
    (child, addr)
}

/// The job set both sides run: two session sweeps of different sizes plus
/// a two-point campaign — mixed shapes, one client, deterministic ids.
fn job_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::Session {
            scenario: scenario(101),
            trials: 96,
            seed: 7,
        },
        JobSpec::Session {
            scenario: scenario(102),
            trials: 48,
            seed: 8,
        },
        JobSpec::Campaign {
            campaign: campaign(103, 12),
        },
    ]
}

/// Sum of `trials_done` over the given jobs, via `Status` polls.
fn total_progress(client: &mut Client, jobs: &[u64]) -> u64 {
    let mut total = 0;
    for &job in jobs {
        client.send(&Request::Status { job }).expect("status sends");
        loop {
            match client.recv().expect("status answered") {
                Response::Status {
                    job: j,
                    trials_done,
                    ..
                } if j == job => {
                    total += trials_done;
                    break;
                }
                // Snapshots and completions interleave with the answer.
                Response::Snapshot { .. } | Response::Done { .. } => continue,
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    total
}

/// Polls until every listed job's status is `Done` (answered from the
/// spool once the restarted server finishes the recovered jobs).
fn wait_all_done(addr: SocketAddr, jobs: &[u64], deadline: Duration) {
    let start = Instant::now();
    let mut client = Client::connect(addr).expect("reconnects");
    loop {
        let mut done = 0;
        for &job in jobs {
            client.send(&Request::Status { job }).expect("status sends");
            loop {
                match client.recv().expect("status answered") {
                    Response::Status { job: j, state, .. } if j == job => {
                        if state == JobState::Done {
                            done += 1;
                        }
                        break;
                    }
                    Response::Snapshot { .. } | Response::Done { .. } => continue,
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        if done == jobs.len() {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "jobs not finished after {deadline:?}: {done}/{} done",
            jobs.len()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Drains the same job set in-process, uninterrupted and serial — the
/// reference the killed-and-restarted server must match byte for byte.
fn reference_results(dir: &Path, specs: &[JobSpec], first_id: u64) -> Vec<Vec<u8>> {
    let spool = Spool::open(dir).expect("reference spool opens");
    let engine = SessionEngine::new(0);
    let mut outputs = Vec::new();
    for (offset, spec) in specs.iter().enumerate() {
        let id = first_id + offset as u64;
        let manifest = JobManifest {
            version: MANIFEST_VERSION,
            job: id,
            client: "reference".to_string(),
            spec: spec.clone(),
            shard_trials: SHARD_TRIALS,
        };
        let work = spool.lower(&manifest).expect("reference job lowers");
        loop {
            match work.claim("reference", 60_000).expect("claim succeeds") {
                WorkClaim::Claimed { queue, plan } => {
                    let result = engine
                        .execute_shard(&plan, ShardOutput::Summary)
                        .expect("shard executes");
                    queue.submit(&result).expect("submit succeeds");
                }
                WorkClaim::Wait => panic!("no other workers can hold leases here"),
                WorkClaim::Drained => break,
            }
        }
        spool.finalize(id, &work).expect("reference job finalizes");
        outputs.push(std::fs::read(spool.result_path(id)).expect("reference result"));
    }
    outputs
}

#[test]
fn sigkill_and_restart_finish_every_job_byte_identically() {
    let server_spool = TempDir::new("chaos-spool");
    let reference_spool = TempDir::new("chaos-reference");

    // --- First server: accept the jobs, make some progress, die hard. ---
    let (mut child, addr) = spawn_server(&server_spool.0);
    let mut client = Client::connect(addr).expect("connects");
    let specs = job_specs();
    let mut jobs = Vec::new();
    for spec in &specs {
        let response = client.submit(spec.clone()).expect("submit round-trips");
        let Response::Accepted { job } = response else {
            panic!("expected Accepted, got {response:?}");
        };
        jobs.push(job);
    }

    // A fourth job is cancelled before the kill: the restart must not
    // resurrect it.
    let cancelled = client
        .submit(JobSpec::Session {
            scenario: scenario(104),
            trials: 40,
            seed: 9,
        })
        .expect("submit round-trips");
    let Response::Accepted { job: cancelled_job } = cancelled else {
        panic!("expected Accepted, got {cancelled:?}");
    };
    client
        .send(&Request::Cancel { job: cancelled_job })
        .expect("cancel sends");
    loop {
        match client.recv().expect("cancel answered") {
            Response::Cancelled { job } => {
                assert_eq!(job, cancelled_job);
                break;
            }
            Response::Snapshot { .. } | Response::Done { .. } => continue,
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Let the worker pool get genuinely mid-flight, then SIGKILL.
    let kill_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let progress = total_progress(&mut client, &jobs);
        if progress >= KILL_AFTER_TRIALS {
            break;
        }
        assert!(
            Instant::now() < kill_deadline,
            "server made no progress before the kill window"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("server reaped");
    drop(client);

    // --- Second server: same spool, fresh port; it must finish every
    // accepted job with no client attached. ---
    let (mut child, addr) = spawn_server(&server_spool.0);
    wait_all_done(addr, &jobs, Duration::from_secs(120));
    child.kill().expect("cleanup kill");
    child.wait().expect("server reaped");

    // --- Byte-diff against the uninterrupted reference. ---
    let reference = reference_results(&reference_spool.0, &specs, jobs[0]);
    let server_side = Spool::open(&server_spool.0).expect("server spool reopens");
    for (offset, &job) in jobs.iter().enumerate() {
        let served = std::fs::read(server_side.result_path(job)).expect("served result");
        assert_eq!(
            served, reference[offset],
            "job {job}: killed-and-restarted output differs from the uninterrupted run"
        );
    }

    // The cancelled job stayed cancelled: marker intact, no result, and a
    // rescan does not schedule it.
    let cancelled_dir = server_spool.0.join(format!("job-{cancelled_job:010}"));
    assert!(cancelled_dir.join("cancelled.json").exists());
    assert!(!cancelled_dir.join("result.json").exists());
    let rescanned = server_side.scan().expect("rescan succeeds");
    assert!(
        rescanned.is_empty(),
        "every job is finished or cancelled; nothing should rescan"
    );
}

#[test]
fn tampered_result_files_fail_the_snapshot_by_name() {
    // A done shard's result file edited into different but valid JSON must
    // fail the streaming snapshot by name, as it fails `recover` and
    // `merge`, instead of streaming counts the shard never produced.
    let dir = TempDir::new("chaos-tamper");
    let spool = Spool::open(&dir.0).expect("spool opens");
    let job = scenario(5);
    let manifest = JobManifest {
        version: MANIFEST_VERSION,
        job: 1,
        client: "tamper".to_string(),
        spec: JobSpec::Session {
            scenario: job.clone(),
            trials: 8,
            seed: 17,
        },
        shard_trials: SHARD_TRIALS,
    };
    let work = spool.lower(&manifest).expect("job lowers");
    let WorkClaim::Claimed { queue, plan } = work.claim("tamper", 60_000).expect("claims") else {
        panic!("a fresh job has a claimable shard");
    };
    let result = SessionEngine::new(0)
        .execute_shard(&plan, ShardOutput::Summary)
        .expect("shard executes");
    queue.submit(&result).expect("submit succeeds");
    let prefix = SessionEngine::new(17)
        .run_trials(&job, SHARD_TRIALS)
        .unwrap();
    assert_eq!(
        spool.snapshot(&queue).expect("intact snapshot"),
        Some((SHARD_TRIALS as u64, prefix))
    );

    let path = queue.result_path(&queue.checkpoint().expect("checkpoint loads").shards[0]);
    let text = std::fs::read_to_string(&path).expect("result file reads");
    let tampered = text.replacen("\"delivered\":", "\"delivered\":1", 1);
    assert_ne!(tampered, text, "the result file records deliveries");
    std::fs::write(&path, tampered).expect("result file rewrites");

    let error = spool.snapshot(&queue).expect_err("tampered snapshot");
    assert!(
        matches!(&error, SpoolError::Queue(QueueError::Corrupt { path: named, .. }) if *named == path),
        "{error}"
    );
    assert!(
        error.to_string().contains(&path.display().to_string()),
        "{error}"
    );
}
