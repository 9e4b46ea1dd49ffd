//! `queue-fine-shards`: one `ShardQueue` per drain, holding a few hundred
//! one-trial shards of a cheap scenario, drained by in-process workers
//! running the `shardctl queue work` loop (claim → heartbeat →
//! execute_shard → drop guard → submit), then merged. Compute is
//! negligible; every queue operation locks, reloads and rewrites the
//! checkpoint, so the cost grows with the square of the shard count.

use crate::common::{self, derive_seed, summary_bytes, Report};
use crate::kernel::{put_session_counts, put_session_layer};
use crate::stats;
use crate::trace::{self, TraceMode, TracingBackend};
use protocol::engine::{
    ClaimOutcome, Scenario, SessionEngine, ShardOutput, ShardQueue, SubmitOutcome,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One-trial shards per queue.
pub const SHARDS: usize = 256;
/// Lease long enough that no live shard is ever stolen.
const LEASE_MS: u64 = 60_000;
/// Re-poll interval when every claimable shard is leased elsewhere.
const POLL: Duration = Duration::from_millis(2);

/// The workload: a scenario, its worker count, and a directory for queues.
pub struct Fabric {
    pub scenario: Scenario,
    pub workers: usize,
    pub dir: PathBuf,
    /// Queue directories created so far (each drain gets a fresh one).
    pub queues: AtomicUsize,
}

/// What the workers observed over one or more drains.
#[derive(Debug, Default)]
pub struct DrainStats {
    pub trials: usize,
    /// Per drain: its wall time (init → workers → merge) and the range of
    /// its shards in `cycle_ms`.
    pub drain_walls: Vec<(Duration, std::ops::Range<usize>)>,
    /// Claim → submit time of every executed shard, in ms.
    pub cycle_ms: Vec<f64>,
    pub claim_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub heartbeat_us: Vec<f64>,
    pub merge_ms: Vec<f64>,
    pub execute: Duration,
    pub claims: usize,
    pub waits: usize,
    pub submits: usize,
    pub already_done: usize,
    pub checkpoint_bytes: u64,
    /// Bytes written by claim and submit calls, and how many were measured.
    pub write_bytes: u64,
    pub write_ops: u64,
    /// Merged summary bytes and the master seed of every drain.
    pub merged: Vec<(u64, String)>,
    pub summaries: Vec<protocol::engine::TrialSummary>,
}

impl DrainStats {
    /// Wall time summed over drains.
    fn wall(&self) -> Duration {
        self.drain_walls.iter().map(|(wall, _)| *wall).sum()
    }

    fn absorb(&mut self, other: DrainStats) {
        self.cycle_ms.extend(other.cycle_ms);
        self.claim_us.extend(other.claim_us);
        self.submit_us.extend(other.submit_us);
        self.heartbeat_us.extend(other.heartbeat_us);
        self.execute += other.execute;
        self.claims += other.claims;
        self.waits += other.waits;
        self.submits += other.submits;
        self.already_done += other.already_done;
        self.write_bytes += other.write_bytes;
        self.write_ops += other.write_ops;
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One worker's loop over a queue, the same sequence `shardctl queue work`
/// runs. `count_io` reads the thread's write counter around every claim and
/// submit.
fn work(
    queue: &ShardQueue,
    name: &str,
    engine: &SessionEngine,
    count_io: bool,
) -> Result<DrainStats, String> {
    let mut stats = DrainStats::default();
    let io = || {
        if count_io {
            trace::thread_write_bytes()
        } else {
            None
        }
    };
    let written = |before: Option<u64>, after: Option<u64>, stats: &mut DrainStats| {
        if let (Some(before), Some(after)) = (before, after) {
            stats.write_bytes += after - before;
            stats.write_ops += 1;
        }
    };
    loop {
        let io_claim = io();
        let start = Instant::now();
        let claimed = queue.claim(name, LEASE_MS).map_err(|e| e.to_string())?;
        let claim_took = start.elapsed();
        written(io_claim, io(), &mut stats);
        stats.claims += 1;
        match claimed {
            ClaimOutcome::Claimed(plan) => {
                stats.claim_us.push(micros(claim_took));
                let beat_start = Instant::now();
                let beat = queue.heartbeat(name, &plan, LEASE_MS);
                let spawn = beat_start.elapsed();
                let exec_start = Instant::now();
                let result = engine
                    .execute_shard(&plan, ShardOutput::Summary)
                    .map_err(|e| e.to_string())?;
                stats.execute += exec_start.elapsed();
                let join_start = Instant::now();
                drop(beat);
                stats
                    .heartbeat_us
                    .push(micros(spawn + join_start.elapsed()));
                let io_submit = io();
                let submit_start = Instant::now();
                let outcome = queue.submit(&result).map_err(|e| e.to_string())?;
                stats.submit_us.push(micros(submit_start.elapsed()));
                written(io_submit, io(), &mut stats);
                stats.submits += 1;
                if outcome == SubmitOutcome::AlreadyDone {
                    stats.already_done += 1;
                }
                stats.cycle_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            ClaimOutcome::Wait { .. } => {
                stats.waits += 1;
                std::thread::sleep(POLL);
            }
            ClaimOutcome::Drained => return Ok(stats),
        }
    }
}

impl Fabric {
    /// Inits a queue of [`SHARDS`] one-trial shards under `master_seed` in
    /// a fresh directory, drains it with the worker pool, and merges. The
    /// directories are removed by [`clean`](Self::clean), outside the timed
    /// region.
    fn drain(
        &self,
        master_seed: u64,
        shards: usize,
        engine: &SessionEngine,
        count_io: bool,
        stats: &mut DrainStats,
    ) -> Result<(), String> {
        let dir = self.dir.join(format!(
            "queue-{}",
            self.queues.fetch_add(1, Ordering::Relaxed)
        ));
        let start = Instant::now();
        let plan = SessionEngine::new(master_seed).plan(&self.scenario, shards);
        let queue =
            ShardQueue::init(&dir, &plan, 1, ShardOutput::Summary).map_err(|e| e.to_string())?;
        let outcomes: Vec<Result<DrainStats, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|w| {
                    let queue = &queue;
                    scope.spawn(move || work(queue, &format!("worker-{w}"), engine, count_io))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("worker panicked".to_string()))
                })
                .collect()
        });
        let first_cycle = stats.cycle_ms.len();
        for outcome in outcomes {
            stats.absorb(outcome?);
        }
        let cycles = first_cycle..stats.cycle_ms.len();
        let merge_start = Instant::now();
        let merged = queue.merge().map_err(|e| e.to_string())?;
        stats
            .merge_ms
            .push(merge_start.elapsed().as_secs_f64() * 1e3);
        stats.drain_walls.push((start.elapsed(), cycles));
        stats.checkpoint_bytes = stats
            .checkpoint_bytes
            .max(file_len(&queue.checkpoint_path()));
        let summary = merged.into_summary().ok_or("merged run holds no summary")?;
        stats.summaries.push(summary.clone());
        stats.merged.push((master_seed, summary_bytes(&summary)));
        stats.trials += shards;
        Ok(())
    }

    /// Set-up: a warm drain of a small queue through the whole path
    /// (threads, files, engine), untimed by the workload.
    pub fn warm_up(&self, seed: u64) -> Result<(), String> {
        let mut stats = DrainStats::default();
        let drained = self.drain(
            derive_seed(seed, u64::MAX),
            32,
            &SessionEngine::new(0),
            false,
            &mut stats,
        );
        self.clean();
        drained
    }

    /// Removes every queue directory drained so far.
    fn clean(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Runs drain `index` (master seed `derive_seed(seed, index)`, so two
    /// passes over the same indices produce the same merged bytes) and
    /// accounts its shards in `report`.
    fn drain_once(
        &self,
        seed: u64,
        index: usize,
        engine: &SessionEngine,
        count_io: bool,
        stats: &mut DrainStats,
        report: &mut Report,
    ) {
        let outcome = self.drain(
            derive_seed(seed, index as u64),
            SHARDS,
            engine,
            count_io,
            stats,
        );
        report.attempted += SHARDS as u64;
        if let Err(error) = outcome {
            report.failed += SHARDS as u64;
            report.errors.push(format!("drain {index}: {error}"));
        }
    }

    /// Drains fresh queues until `seconds` pass (at least one).
    fn drains(&self, seed: u64, seconds: f64, report: &mut Report) -> DrainStats {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let engine = SessionEngine::new(0);
        let mut stats = DrainStats::default();
        let mut index = 0;
        while index == 0 || Instant::now() < deadline {
            self.drain_once(seed, index, &engine, false, &mut stats, report);
            index += 1;
        }
        self.clean();
        stats
    }

    /// Checks every merged run against an in-process `run_trials` of the
    /// same plan.
    fn verify(&self, stats: &DrainStats, report: &mut Report) {
        for summary in &stats.summaries {
            report.summary(summary, SHARDS, false);
        }
        for (master_seed, merged) in &stats.merged {
            let local = SessionEngine::new(*master_seed).run_trials(&self.scenario, SHARDS);
            report.op(match local {
                Ok(local) if summary_bytes(&local) == *merged => Ok(()),
                _ => Err(format!(
                    "merged queue run (seed {master_seed}) differs from the in-process run"
                )),
            });
        }
    }

    /// The end-to-end run.
    pub fn run(&self, seed: u64, seconds: f64, report: &mut Report) {
        let stats = self.drains(seed, seconds, report);
        self.verify(&stats, report);
        let windows: Vec<stats::Window> = stats
            .drain_walls
            .iter()
            .map(|(wall, cycles)| stats::Window {
                trials: SHARDS,
                busy_s: wall.as_secs_f64(),
                latencies_ms: stats.cycle_ms[cycles.clone()].to_vec(),
            })
            .collect();
        common::put_quiet_windows(report, &windows);
    }

    /// One more drain with per-thread write accounting around every claim
    /// and submit (kept apart so the `/proc` reads do not skew timings).
    fn io_drain(&self, seed: u64, index: usize, report: &mut Report) -> DrainStats {
        let mut stats = DrainStats::default();
        self.drain_once(
            seed,
            index,
            &SessionEngine::new(0),
            true,
            &mut stats,
            report,
        );
        self.clean();
        stats
    }

    /// The queue layer's metrics from live timing of every operation over
    /// `seconds` of drains.
    pub fn queue_layer(&self, seed: u64, seconds: f64, report: &mut Report) {
        let stats = self.drains(seed, seconds, report);
        self.verify(&stats, report);
        let io = self.io_drain(seed, stats.drain_walls.len(), report);
        put_queue_layer(&stats, &io, report);
    }

    /// The traced run on this workload. Each drain runs twice back to back,
    /// untraced and with a timed tracer, so both see the same machine
    /// state; their merged runs must be byte-identical. One drain with a
    /// hashing tracer and one with write accounting follow.
    pub fn run_traced(&self, seed: u64, seconds: f64, report: &mut Report) {
        let tracer = |mode| Arc::new(TracingBackend::new(self.scenario.backend.backend(), mode));
        let (timed, hashed) = (tracer(TraceMode::Timed), tracer(TraceMode::HashInputs));
        let plain = SessionEngine::new(0);
        let timed_engine = SessionEngine::new(0).with_backend(timed.clone());
        let deadline = Instant::now() + Duration::from_secs_f64(0.8 * seconds);
        let (mut reference, mut traced) = (DrainStats::default(), DrainStats::default());
        let mut index = 0;
        while index == 0 || Instant::now() < deadline {
            self.drain_once(seed, index, &plain, false, &mut reference, report);
            self.drain_once(seed, index, &timed_engine, false, &mut traced, report);
            index += 1;
        }
        self.clean();
        let mut hashed_stats = DrainStats::default();
        let hash_engine = SessionEngine::new(0).with_backend(hashed.clone());
        self.drain_once(seed, 0, &hash_engine, false, &mut hashed_stats, report);
        for (i, ours) in traced.merged.iter().chain(&hashed_stats.merged).enumerate() {
            report.op(if reference.merged.contains(ours) {
                Ok(())
            } else {
                Err(format!("traced drain {i} differs from the untraced one"))
            });
        }
        self.verify(&reference, report);
        let io = self.io_drain(seed, index, report);
        put_queue_layer(&reference, &io, report);
        put_session_layer(
            report,
            &timed,
            &hashed,
            traced.trials as f64,
            traced.execute.as_nanos() as f64,
        );
        put_session_counts(report, "queue-fine-shards", seed, self.workers);
        report.put(
            "trace.overhead",
            traced.wall().as_secs_f64() / reference.wall().as_secs_f64(),
            "ratio",
        );
        common::micro_benchmarks(
            &self.scenario,
            seed,
            Duration::from_secs_f64(0.08 * seconds),
            report,
        );
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Reports the `queue.*` metrics of a run of drains (write volume from a
/// separate accounted drain).
fn put_queue_layer(stats: &DrainStats, io: &DrainStats, report: &mut Report) {
    let pct = |samples: &[f64], p: f64| {
        stats::percentile(&stats::sorted(samples.to_vec()), p).unwrap_or(0.0)
    };
    let n = Some(stats.claim_us.len());
    report.put_n("queue.claim.p50_us", pct(&stats.claim_us, 50.0), "us", n);
    report.put_n("queue.claim.p90_us", pct(&stats.claim_us, 90.0), "us", n);
    let n = Some(stats.submit_us.len());
    report.put_n("queue.submit.p50_us", pct(&stats.submit_us, 50.0), "us", n);
    report.put_n("queue.submit.p90_us", pct(&stats.submit_us, 90.0), "us", n);
    report.put_n(
        "queue.heartbeat_us",
        stats::median(&stats.heartbeat_us).unwrap_or(0.0),
        "us",
        Some(stats.heartbeat_us.len()),
    );
    report.put_n(
        "queue.merge_ms",
        stats::median(&stats.merge_ms).unwrap_or(0.0),
        "ms",
        Some(stats.merge_ms.len()),
    );
    let cycles_ms: f64 = stats.cycle_ms.iter().sum();
    report.put(
        "queue.execute_share",
        stats::ratio(stats.execute.as_secs_f64() * 1e3, cycles_ms),
        "frac",
    );
    report.put(
        "queue.checkpoint_bytes",
        stats.checkpoint_bytes as f64,
        "bytes",
    );
    report.put(
        "queue.write_bytes_per_op",
        stats::ratio(io.write_bytes as f64, io.write_ops as f64),
        "bytes",
    );
    report.put(
        "queue.wait_frac",
        stats::ratio(stats.waits as f64, stats.claims as f64),
        "frac",
    );
    report.put(
        "queue.already_done_frac",
        stats::ratio(stats.already_done as f64, stats.submits as f64),
        "frac",
    );
}
