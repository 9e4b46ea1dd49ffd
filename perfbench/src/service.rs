//! `serve-open-loop`: an in-process `qsdc-serve` with two workers and a
//! quota high enough that `Busy` means overload, driven from at most two
//! connections. A seeded job mix (mostly single-shard sessions, some
//! attacked, plus multi-shard jobs that stream snapshots) is sent open-loop
//! on a fixed schedule at each rung of a rate ladder, every job timed from
//! the moment it was due; bursts of jobs sent all at once measure the
//! server's capacity.
//!
//! The `serve` layer is also replayed in-process, call by call, through the
//! same public functions the server's worker loop uses (`Spool::lower` →
//! `JobWork::claim` → heartbeat + `execute_shard` → `ShardQueue::submit` →
//! `Spool::snapshot` → `Spool::finalize`), so the live latency can be set
//! against the service time the calls account for.
//!
//! A started `Server` cannot be stopped and its idle workers keep polling,
//! so every phase that starts one runs last in its process.

use crate::common::{self, derive_seed, summary_bytes, Report};
use crate::kernel::{put_session_counts, put_session_layer};
use crate::stats::{self, Rung};
use crate::trace::{TraceMode, TracingBackend};
use protocol::engine::{Adversary, Scenario, SessionEngine, ShardOutput, TrialSummary};
use protocol::wire::{JobManifest, JobSpec, Request, Response, MANIFEST_VERSION};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::spool::WorkClaim;
use serve::{Client, JobOutcome, Server, ServerConfig, Spool};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Streaming cadence and shard size of the server.
pub const SNAPSHOT_TRIALS: usize = 8;
/// Trials of a single-shard job and of a multi-shard job.
const SMALL_TRIALS: usize = 8;
const MULTI_TRIALS: usize = 32;
/// Per-client quota: high enough that a `Busy` reply means overload.
const QUOTA: usize = 100_000;
/// The ladder's offered loads in jobs per second, lowest first.
pub const RATES: [(&str, f64); 3] = [("low", 50.0), ("mid", 150.0), ("high", 300.0)];
/// Jobs of one capacity burst: a second or more of work for the server.
pub const BURST_JOBS: usize = 400;
/// Capacity bursts per run; the reported capacity is their median.
pub const BURSTS: usize = 3;
/// Mix jobs the traced replay draws from (more than its time budget uses).
const TRACED_JOBS: usize = 1024;
/// The p90 a rung must meet to count towards `max_rate_jobs_per_s`.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// How long unfinished jobs may take after the last send.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// Lease of replayed shards (the server's default).
const LEASE_MS: u64 = 5_000;

/// One job of the seeded mix.
#[derive(Debug, Clone)]
pub struct MixJob {
    pub spec: JobSpec,
    /// The `Submit` request line, newline included.
    line: String,
    pub trials: usize,
    pub attacked: bool,
    shards: usize,
}

impl MixJob {
    fn session(&self) -> (&Scenario, usize, u64) {
        match &self.spec {
            JobSpec::Session {
                scenario,
                trials,
                seed,
            } => (scenario, *trials, *seed),
            JobSpec::Campaign { .. } => unreachable!("the mix holds session jobs only"),
        }
    }

    /// The in-process result the server's `Done` must equal.
    fn expected(&self) -> Result<TrialSummary, String> {
        let (scenario, trials, seed) = self.session();
        SessionEngine::new(seed)
            .run_trials(scenario, trials)
            .map_err(|e| e.to_string())
    }
}

/// The seeded job mix: 80% single-shard honest sessions, 15% single-shard
/// intercept-resend sessions, 5% four-shard honest sessions. Attacked jobs
/// run the demo session, whose 64 DI-check pairs catch every interception;
/// the lean session's 16 let one through now and then. The four-shard jobs
/// stay under a tenth of the mix so that a p90 is a single-shard job's.
pub fn job_mix(seed: u64, count: usize) -> Vec<MixJob> {
    let honest = common::lean_scenario(seed, Adversary::Honest, "serve-honest");
    let attacked = common::demo_scenario(seed, common::intercept(), "serve-intercept");
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5e7e));
    (0..count)
        .map(|_| {
            let draw: f64 = rng.gen();
            let (scenario, trials, attacked) = if draw < 0.80 {
                (&honest, SMALL_TRIALS, false)
            } else if draw < 0.95 {
                (&attacked, SMALL_TRIALS, true)
            } else {
                (&honest, MULTI_TRIALS, false)
            };
            let spec = JobSpec::Session {
                scenario: scenario.clone(),
                trials,
                seed: rng.gen(),
            };
            let mut line = serde::json::to_string(&Request::Submit { job: spec.clone() });
            line.push('\n');
            MixJob {
                spec,
                line,
                trials,
                attacked,
                shards: trials.div_ceil(SNAPSHOT_TRIALS),
            }
        })
        .collect()
}

/// Rungs at `rates`, with `seconds` split evenly over them.
pub fn ladder(seconds: f64, rates: &[(&'static str, f64)]) -> Vec<Rung> {
    rates
        .iter()
        .map(|&(name, rate)| Rung {
            name,
            rate,
            seconds: seconds / rates.len() as f64,
        })
        .collect()
}

/// A running server with its job mixes.
pub struct Service {
    pub server: Server,
    /// The ladder's jobs, one per scheduled send.
    pub mix: Vec<MixJob>,
    /// The capacity burst's jobs.
    pub burst: Vec<MixJob>,
    pub rungs: Vec<Rung>,
    pub connections: usize,
}

impl Service {
    /// Builds the mixes for `rungs` and a burst of `burst` jobs, starts a
    /// server on a fresh spool under `dir`, and reads its greeting once. No
    /// job warms the server up: over the wire every warm-up job would wait
    /// on the delayed-ACK timer (see `NOTES.md`), and the first jobs of the
    /// `low` rung are too few to move its p90.
    pub fn start(
        seed: u64,
        rungs: Vec<Rung>,
        burst: usize,
        threads: usize,
        dir: &Path,
    ) -> Result<Service, String> {
        let mix = job_mix(seed, stats::open_loop_schedule(&rungs).len());
        let burst = job_mix(derive_seed(seed, 0xb0b5), burst);
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            spool_dir: dir.join("spool"),
            workers: threads,
            quota: QUOTA,
            snapshot_trials: SNAPSHOT_TRIALS,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Service {
            server,
            mix,
            burst,
            rungs,
            connections: threads,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum JobState {
    Pending,
    Done(Box<TrialSummary>),
    Failed(String),
}

#[derive(Debug)]
struct JobRecord {
    rung: usize,
    due: Instant,
    sent: Option<Instant>,
    accepted: Option<Instant>,
    done: Option<Instant>,
    state: JobState,
}

#[derive(Debug, Default)]
struct Shared {
    records: Vec<JobRecord>,
    /// Per connection, the jobs whose direct reply is still due, in order.
    awaiting: Vec<VecDeque<usize>>,
    ids: HashMap<u64, usize>,
    /// Terminal responses that overtook their job's `Accepted`: the server
    /// registers a job with its workers before it answers the submit, so a
    /// fast job can finish first.
    early: HashMap<u64, (JobState, Instant)>,
    resolved: usize,
    busy: usize,
}

impl Shared {
    fn resolve(&mut self, index: usize, state: JobState, at: Instant) {
        let record = &mut self.records[index];
        if record.state == JobState::Pending {
            record.state = state;
            record.done = Some(at);
            self.resolved += 1;
        }
    }

    fn terminal(&mut self, job: u64, state: JobState, at: Instant) {
        match self.ids.get(&job) {
            Some(&index) => self.resolve(index, state, at),
            None => {
                self.early.insert(job, (state, at));
            }
        }
    }

    fn handle(&mut self, conn: usize, response: Response, at: Instant) {
        match response {
            Response::Accepted { job } => {
                if let Some(index) = self.awaiting[conn].pop_front() {
                    self.records[index].accepted = Some(at);
                    self.ids.insert(job, index);
                    if let Some((state, done)) = self.early.remove(&job) {
                        self.resolve(index, state, done);
                    }
                }
            }
            Response::Busy { .. } => {
                self.busy += 1;
                if let Some(index) = self.awaiting[conn].pop_front() {
                    self.resolve(index, JobState::Failed("refused with Busy".into()), at);
                }
            }
            Response::Error { kind, message } => {
                // A direct answer to the oldest submit (a job failing later
                // also lands here; either way the run has failed).
                if let Some(index) = self.awaiting[conn].pop_front() {
                    self.resolve(index, JobState::Failed(format!("{kind:?}: {message}")), at);
                }
            }
            Response::Done { job, summary, .. } => {
                let state = match summary {
                    Some(summary) => JobState::Done(Box::new(summary)),
                    None => JobState::Failed("Done without a summary".into()),
                };
                self.terminal(job, state, at);
            }
            Response::Cancelled { job } => {
                self.terminal(job, JobState::Failed("cancelled".into()), at);
            }
            Response::Hello { .. }
            | Response::Snapshot { .. }
            | Response::Status { .. }
            | Response::Pong => {}
        }
    }
}

/// Reads one connection's responses until it closes or `stop` is raised.
fn read_loop(stream: TcpStream, conn: usize, shared: &(Mutex<Shared>, Condvar), stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) if line.last() == Some(&b'\n') => {
                let at = Instant::now();
                let parsed = std::str::from_utf8(&line)
                    .ok()
                    .and_then(|text| serde::json::from_str::<Response>(text).ok());
                if let Some(response) = parsed {
                    let mut state = shared.0.lock().expect("load state lock poisoned");
                    state.handle(conn, response, at);
                    shared.1.notify_all();
                }
                line.clear();
            }
            Ok(_) => return,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// What one open-loop drive measured.
#[derive(Debug, Default)]
pub struct LadderRun {
    /// Per rung: latency from due time to `Done`, in ms, of finished jobs.
    pub latency_ms: Vec<Vec<f64>>,
    pub failed: Vec<usize>,
    pub growing: Vec<bool>,
    pub accept_ms: Vec<f64>,
    pub done_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub busy: usize,
    pub backlog_end: usize,
    /// Per finished job: seconds from the first due send to its `Done`,
    /// and its trials.
    pub completions: Vec<(f64, usize)>,
}

impl Service {
    /// The ladder: every mix job at its scheduled due time.
    pub fn run_ladder(&self, report: &mut Report) -> Result<LadderRun, String> {
        let schedule = stats::open_loop_schedule(&self.rungs);
        self.drive(&self.mix, &schedule, self.rungs.len(), report)
    }

    /// The capacity bursts: [`BURST_JOBS`] burst jobs at a time, all due
    /// at once. Returns the median over bursts of the drain's throughput in
    /// trials per second (see [`stats::drain_rate`]), which follows the cost
    /// of lowering, claiming, executing, submitting and finalizing a job,
    /// and the jobs the drains span.
    pub fn run_bursts(&self, report: &mut Report) -> Result<(f64, usize), String> {
        let (mut rates, mut jobs) = (Vec::new(), 0);
        for burst in self.burst.chunks(BURST_JOBS) {
            let schedule = vec![stats::Send { rung: 0, due: 0.0 }; burst.len()];
            let run = self.drive(burst, &schedule, 1, report)?;
            let (rate, spanned) = stats::drain_rate(&run.completions)
                .ok_or_else(|| "too few burst jobs finished to time the drain".to_string())?;
            rates.push(rate);
            jobs += spanned;
        }
        let rate = stats::median(&rates).ok_or("no capacity burst ran")?;
        Ok((rate, jobs))
    }

    /// Sends `jobs[i]` when `schedule[i]` is due, round-robin over the
    /// connections and whatever the replies, waits for stragglers up to
    /// the drain deadline, and checks every `Done` against an in-process
    /// run of the same job.
    fn drive(
        &self,
        jobs: &[MixJob],
        schedule: &[stats::Send],
        rungs: usize,
        report: &mut Report,
    ) -> Result<LadderRun, String> {
        let addr: SocketAddr = self.server.local_addr();
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..self.connections {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            readers.push(stream.try_clone().map_err(|e| e.to_string())?);
            writers.push(stream);
        }
        let start = Instant::now() + Duration::from_millis(20);
        let shared = Arc::new((
            Mutex::new(Shared {
                records: schedule
                    .iter()
                    .map(|send| JobRecord {
                        rung: send.rung,
                        due: start + Duration::from_secs_f64(send.due),
                        sent: None,
                        accepted: None,
                        done: None,
                        state: JobState::Pending,
                    })
                    .collect(),
                awaiting: vec![VecDeque::new(); self.connections],
                ..Shared::default()
            }),
            Condvar::new(),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(conn, stream)| {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || read_loop(stream, conn, &shared, &stop))
            })
            .collect();

        let mut backlog: Vec<Vec<(f64, f64)>> = vec![Vec::new(); rungs];
        for (index, send) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(send.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let conn = index % self.connections;
            {
                let mut state = shared.0.lock().expect("load state lock poisoned");
                state.awaiting[conn].push_back(index);
                state.records[index].sent = Some(Instant::now());
                let outstanding = index + 1 - state.resolved;
                backlog[send.rung].push((send.due, outstanding as f64));
            }
            if let Err(error) = writers[conn].write_all(jobs[index].line.as_bytes()) {
                let mut state = shared.0.lock().expect("load state lock poisoned");
                state.resolve(
                    index,
                    JobState::Failed(format!("send: {error}")),
                    Instant::now(),
                );
            }
        }
        let backlog_end = {
            let state = shared.0.lock().expect("load state lock poisoned");
            schedule.len() - state.resolved
        };
        let deadline = Instant::now() + DRAIN_DEADLINE;
        {
            let mut state = shared.0.lock().expect("load state lock poisoned");
            while state.resolved < schedule.len() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                state = shared
                    .1
                    .wait_timeout(state, deadline - now)
                    .expect("load state lock poisoned")
                    .0;
            }
        }
        stop.store(true, Ordering::SeqCst);
        for writer in &writers {
            let _ = writer.shutdown(Shutdown::Both);
        }
        for handle in handles {
            handle.join().map_err(|_| "reader thread panicked")?;
        }
        let state = Arc::try_unwrap(shared)
            .map_err(|_| "reader threads still hold the load state")?
            .0
            .into_inner()
            .expect("load state lock poisoned");
        let mut run = LadderRun {
            latency_ms: vec![Vec::new(); rungs],
            failed: vec![0; rungs],
            busy: state.busy,
            backlog_end,
            ..LadderRun::default()
        };
        let ms =
            |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
        for (record, job) in state.records.iter().zip(jobs) {
            if let Some(sent) = record.sent {
                let due_s = record.due.saturating_duration_since(start).as_secs_f64();
                let sent_s = sent.saturating_duration_since(start).as_secs_f64();
                run.lag_ms.push(stats::lag_ms(due_s, sent_s));
            }
            let before = report.failed;
            match &record.state {
                JobState::Done(summary) => verify_done(job, summary, report),
                JobState::Failed(why) => report.op(Err(why.clone())),
                JobState::Pending => report.op(Err("unfinished at the drain deadline".into())),
            }
            if report.failed > before {
                run.failed[record.rung] += 1;
                continue;
            }
            let (Some(sent), Some(accepted), Some(done)) =
                (record.sent, record.accepted, record.done)
            else {
                continue;
            };
            run.latency_ms[record.rung].push(ms(record.due, done));
            run.completions.push((ms(start, done) / 1e3, job.trials));
            run.accept_ms.push(ms(sent, accepted));
            run.done_ms.push(ms(accepted, done));
        }
        run.growing = backlog.iter().map(|b| stats::backlog_growing(b)).collect();
        Ok(run)
    }
}

/// A `Done` summary must pass the per-summary checks and equal the
/// in-process run of the same job byte for byte.
fn verify_done(job: &MixJob, summary: &TrialSummary, report: &mut Report) {
    report.summary(summary, job.trials, job.attacked);
    report.op(matches_expected(job, summary));
}

fn matches_expected(job: &MixJob, summary: &TrialSummary) -> Result<(), String> {
    let expected = job.expected()?;
    if summary_bytes(&expected) != summary_bytes(summary) {
        return Err(format!(
            "{}: Done differs from the in-process run",
            summary.label
        ));
    }
    Ok(())
}

/// Per-call timings of the in-process replay, in microseconds.
#[derive(Debug, Default)]
pub struct Replay {
    lower: Vec<f64>,
    claim: Vec<f64>,
    execute: Vec<f64>,
    submit: Vec<f64>,
    snapshot: Vec<f64>,
    finalize: Vec<f64>,
    /// Per job: time inside the job's span but outside its timed calls
    /// (heartbeat spawn and join, replay glue), in µs.
    self_us: Vec<f64>,
    /// Service time per job, in ms.
    job_ms: Vec<f64>,
    pub execute_total: Duration,
    pub wall: Duration,
    pub trials: usize,
    /// The finalized summary of every replayed job.
    summaries: Vec<TrialSummary>,
}

/// Runs `body` as a child span of a replayed job: records its duration in
/// `samples` (µs) and its interval, in ns from `origin`, in `spans`.
fn timed<T>(
    samples: &mut Vec<f64>,
    spans: &mut Vec<(u64, u64)>,
    origin: Instant,
    body: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = body();
    let end = Instant::now();
    samples.push((end - start).as_secs_f64() * 1e6);
    let ns = |t: Instant| (t - origin).as_nanos() as u64;
    spans.push((ns(start), ns(end)));
    out
}

/// Replays the first `count` jobs of the mix on a fresh spool under `dir`,
/// executing shards with `engine`.
pub fn replay(
    mix: &[MixJob],
    count: usize,
    dir: &Path,
    engine: &SessionEngine,
) -> Result<Replay, String> {
    let spool = Spool::open(dir).map_err(|e| e.to_string())?;
    let mut replay = Replay::default();
    let start = Instant::now();
    for (index, job) in mix.iter().take(count).enumerate() {
        let id = index as u64 + 1;
        let manifest = JobManifest {
            version: MANIFEST_VERSION,
            job: id,
            client: "replay".to_string(),
            spec: job.spec.clone(),
            shard_trials: SNAPSHOT_TRIALS,
        };
        // The job's span runs from the start of `lower` to the end of
        // `finalize`; every timed call inside it is a child span.
        let mut spans = Vec::new();
        let origin = Instant::now();
        let work = timed(&mut replay.lower, &mut spans, origin, || {
            spool.lower(&manifest)
        })
        .map_err(|e| e.to_string())?;
        for shard in 0..job.shards {
            let claim = timed(&mut replay.claim, &mut spans, origin, || {
                work.claim("replay", LEASE_MS)
            });
            let Ok(WorkClaim::Claimed { queue, plan }) = claim else {
                return Err(format!("replay job {id}: shard {shard} was not claimable"));
            };
            let beat = queue.heartbeat("replay", &plan, LEASE_MS);
            let result = timed(&mut replay.execute, &mut spans, origin, || {
                engine.execute_shard(&plan, ShardOutput::Summary)
            });
            drop(beat);
            let (s, e) = spans[spans.len() - 1];
            replay.execute_total += Duration::from_nanos(e - s);
            let result = result.map_err(|e| e.to_string())?;
            timed(&mut replay.submit, &mut spans, origin, || {
                queue.submit(&result)
            })
            .map_err(|e| e.to_string())?;
            if shard + 1 < job.shards {
                timed(&mut replay.snapshot, &mut spans, origin, || {
                    spool.snapshot(&queue)
                })
                .map_err(|e| e.to_string())?;
            }
        }
        let outcome = timed(&mut replay.finalize, &mut spans, origin, || {
            spool.finalize(id, &work)
        });
        let span = (0, (Instant::now() - origin).as_nanos() as u64);
        let JobOutcome::Session(summary) = outcome.map_err(|e| e.to_string())? else {
            return Err(format!("replay job {id} finalized to a campaign report"));
        };
        replay.job_ms.push(span.1 as f64 / 1e6);
        replay
            .self_us
            .push(stats::self_time(span, &spans) as f64 / 1e3);
        replay.trials += job.trials;
        replay.summaries.push(summary);
    }
    replay.wall = start.elapsed();
    Ok(replay)
}

/// Encode and decode time of one job's `Submit` and `Done`, in µs; each
/// round trip must return the message it started from.
fn wire_costs(
    mix: &[MixJob],
    summaries: &[TrialSummary],
    report: &mut Report,
) -> (Vec<f64>, Vec<f64>) {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for (job, summary) in mix.iter().zip(summaries) {
        let submit = Request::Submit {
            job: job.spec.clone(),
        };
        let done = Response::Done {
            job: 1,
            summary: Some(summary.clone()),
            report: None,
        };
        let start = Instant::now();
        let submit_line = serde::json::to_string(&submit);
        let done_line = serde::json::to_string(&done);
        encode.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        let submit_back = serde::json::from_str::<Request>(&submit_line);
        let done_back = serde::json::from_str::<Response>(&done_line);
        decode.push(start.elapsed().as_secs_f64() * 1e6);
        report.op(
            if submit_back.ok() == Some(submit) && done_back.ok() == Some(done) {
                Ok(())
            } else {
                Err("a wire round trip changed a message".to_string())
            },
        );
    }
    (encode, decode)
}

fn median(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

/// The `serve`, `wire` and `loadgen` metrics: an untraced replay of the
/// mix's first jobs, then the live ladder and the capacity bursts on a
/// fresh server, last because that server outlives them.
pub fn serve_layer(seed: u64, seconds: f64, threads: usize, dir: &Path, report: &mut Report) {
    let rungs = ladder(0.75 * seconds, &RATES);
    let mix = job_mix(seed, stats::open_loop_schedule(&rungs).len());
    let replayed = replay_for(
        &mix,
        0.15 * seconds,
        &dir.join("replay"),
        &SessionEngine::new(0),
    );
    let replayed = match replayed {
        Ok(replayed) => replayed,
        Err(error) => {
            report.op(Err(error));
            return;
        }
    };
    for (job, summary) in mix.iter().zip(&replayed.summaries) {
        verify_done(job, summary, report);
    }
    for (name, samples) in [
        ("lower", &replayed.lower),
        ("claim", &replayed.claim),
        ("execute", &replayed.execute),
        ("submit", &replayed.submit),
        ("snapshot", &replayed.snapshot),
        ("finalize", &replayed.finalize),
        ("self", &replayed.self_us),
    ] {
        report.put_n(
            &format!("serve.{name}_us"),
            median(samples),
            "us",
            Some(samples.len()),
        );
    }
    let (encode, decode) = wire_costs(&mix, &replayed.summaries, report);
    report.put_n("wire.encode_us", median(&encode), "us", Some(encode.len()));
    report.put_n("wire.decode_us", median(&decode), "us", Some(decode.len()));

    let service = match Service::start(seed, rungs, BURSTS * BURST_JOBS, threads, &dir.join("live"))
    {
        Ok(service) => service,
        Err(error) => {
            report.op(Err(error));
            return;
        }
    };
    let run = match service.run_ladder(report) {
        Ok(run) => run,
        Err(error) => {
            report.op(Err(error));
            return;
        }
    };
    put_ladder(report, &service.rungs, &run, "serve.");
    report.put_n(
        "serve.accept_ms.p50",
        median(&run.accept_ms),
        "ms",
        Some(run.accept_ms.len()),
    );
    report.put_n(
        "serve.done_ms.p50",
        median(&run.done_ms),
        "ms",
        Some(run.done_ms.len()),
    );
    let low_p50 = stats::percentile(&stats::sorted(run.latency_ms[0].clone()), 50.0).unwrap_or(0.0);
    report.put(
        "serve.unaccounted_ms",
        low_p50 - median(&replayed.job_ms),
        "ms",
    );
    let sent = run.lag_ms.len() as f64;
    report.put(
        "serve.busy_frac",
        stats::ratio(run.busy as f64, sent),
        "frac",
    );
    report.put("serve.backlog_end", run.backlog_end as f64, "count");
    let sorted_lag = stats::sorted(run.lag_ms.clone());
    report.put_n(
        "loadgen.lag_p90_ms",
        stats::percentile(&sorted_lag, 90.0).unwrap_or(0.0),
        "ms",
        Some(sorted_lag.len()),
    );
    match service.run_bursts(report) {
        Ok((rate, jobs)) => report.put_n("serve.capacity_trials_per_s", rate, "1/s", Some(jobs)),
        Err(error) => report.op(Err(error)),
    }
}

/// Replays mix jobs until `seconds` of replay time pass (at least four).
fn replay_for(
    mix: &[MixJob],
    seconds: f64,
    dir: &Path,
    engine: &SessionEngine,
) -> Result<Replay, String> {
    // Calibrate on four jobs, then size the replay to the budget.
    let probe = replay(mix, 4, &dir.join("calibrate"), engine)?;
    let per_job = probe.wall.as_secs_f64() / 4.0;
    let count = ((seconds / per_job) as usize).clamp(4, mix.len());
    replay(mix, count, &dir.join("run"), engine)
}

/// Reports the ladder: per-rung p50/p90 (under `prefix`) and the highest
/// rate that met the latency limit.
fn put_ladder(report: &mut Report, rungs: &[Rung], run: &LadderRun, prefix: &str) {
    let mut p90 = Vec::new();
    for (rung, samples) in rungs.iter().zip(&run.latency_ms) {
        let sorted = stats::sorted(samples.clone());
        let n = Some(sorted.len());
        let tail = stats::percentile(&sorted, 90.0);
        report.put_n(
            &format!("{prefix}job_p50_ms.{}", rung.name),
            stats::percentile(&sorted, 50.0).unwrap_or(0.0),
            "ms",
            n,
        );
        report.put_n(
            &format!("{prefix}job_p90_ms.{}", rung.name),
            tail.unwrap_or(0.0),
            "ms",
            n,
        );
        p90.push(tail);
    }
    let best = stats::max_rate(rungs, &p90, &run.growing, &run.failed, LATENCY_LIMIT_MS);
    report.put(
        &format!("{prefix}max_rate_jobs_per_s"),
        best.map_or(0.0, |r| r.rate),
        "1/s",
    );
}

/// The end-to-end run on a started service: job latency at the `low`
/// rung, timed from each job's due time, and completed trials per wall
/// second from the first due send to the last completion.
pub fn run(service: &Service, report: &mut Report) {
    match service.run_ladder(report) {
        Ok(run) => {
            let trials: usize = run.completions.iter().map(|c| c.1).sum();
            let seconds = run.completions.iter().map(|c| c.0).fold(0.0, f64::max);
            report.put_n(
                "trials_per_s",
                stats::ratio(trials as f64, seconds),
                "1/s",
                Some(run.completions.len()),
            );
            common::put_latency(report, "job_p50_ms", "job_p90_ms", &run.latency_ms[0]);
        }
        Err(error) => report.op(Err(error)),
    }
}

/// The traced run on this workload: mix jobs replayed in chunks of eight,
/// each chunk untraced and with a timed tracer back to back (every other
/// chunk also with a hashing tracer), whose results must agree byte for
/// byte; then the serve layer, whose live server comes last.
pub fn run_traced(seed: u64, seconds: f64, threads: usize, dir: &Path, report: &mut Report) {
    const CHUNK: usize = 8;
    let mix = job_mix(seed, TRACED_JOBS);
    let honest = common::lean_scenario(seed, Adversary::Honest, "serve-honest");
    let tracer = |mode| Arc::new(TracingBackend::new(honest.backend.backend(), mode));
    let (timed, hashed) = (tracer(TraceMode::Timed), tracer(TraceMode::HashInputs));
    let engines = [
        SessionEngine::new(0),
        SessionEngine::new(0).with_backend(timed.clone()),
        SessionEngine::new(0).with_backend(hashed.clone()),
    ];
    let deadline = Instant::now() + Duration::from_secs_f64(0.35 * seconds);
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let (mut execute, mut trials) = (Duration::ZERO, 0);
    for (chunk, jobs) in mix.chunks(CHUNK).enumerate() {
        if chunk > 0 && Instant::now() >= deadline {
            break;
        }
        let passes = if chunk % 2 == 0 { 3 } else { 2 };
        let mut results = Vec::new();
        for (pass, engine) in engines.iter().take(passes).enumerate() {
            match replay(
                jobs,
                jobs.len(),
                &dir.join(format!("replay-{chunk}-{pass}")),
                engine,
            ) {
                Ok(replayed) => {
                    match pass {
                        0 => untraced += replayed.wall,
                        1 => {
                            traced += replayed.wall;
                            execute += replayed.execute_total;
                            trials += replayed.trials;
                        }
                        _ => {}
                    }
                    results.push(
                        replayed
                            .summaries
                            .iter()
                            .map(summary_bytes)
                            .collect::<Vec<_>>(),
                    );
                }
                Err(error) => report.op(Err(error)),
            }
        }
        for (pass, ours) in results.iter().enumerate().skip(1) {
            report.op(if *ours == results[0] {
                Ok(())
            } else {
                Err(format!(
                    "traced replay {pass} of chunk {chunk} differs from the untraced one"
                ))
            });
        }
    }
    put_session_layer(
        report,
        &timed,
        &hashed,
        trials as f64,
        execute.as_nanos() as f64,
    );
    put_session_counts(report, "serve-open-loop", seed, threads);
    report.put(
        "trace.overhead",
        traced.as_secs_f64() / untraced.as_secs_f64(),
        "ratio",
    );
    common::micro_benchmarks(
        &honest,
        seed,
        Duration::from_secs_f64(0.05 * seconds),
        report,
    );
    serve_layer(seed, 0.55 * seconds, threads, dir, report);
}
