//! The TCP server: accept loop, per-connection request handling, and the
//! shared worker pool that drains every live job's queues.
//!
//! One thread per connection parses newline-delimited
//! [`protocol::wire::Request`] lines (with an explicit size cap —
//! an oversized or malformed line earns an
//! [`Error`](protocol::wire::Response::Error) response, never a panic or a
//! dropped connection); `workers` pool threads repeatedly ask the
//! [`Registry`] for the fair schedule, claim one shard, execute it with a
//! lease [heartbeat](protocol::engine::ShardQueue::heartbeat) held (so a
//! slow shard is never stolen from a live worker), submit, stream a
//! snapshot if the job crossed its cadence, and finalize jobs whose last
//! shard just landed.
//!
//! All durable state lives in the [`Spool`]; the process can be SIGKILLed
//! at any instant and a restarted server ([`Server::start`] rescans the
//! spool) finishes every accepted job byte-identically.

use crate::registry::{CancelOutcome, Registry, ResponseSink};
use crate::spool::{JobOutcome, JobWork, Spool, SpoolError, WorkClaim};
use protocol::engine::{
    Axis, AxisValue, CampaignSpace, SessionEngine, ShardOutput, ShardPlan, ShardQueue,
};
use protocol::wire::{
    ErrorKind, JobManifest, JobSpec, JobState, Request, Response, MANIFEST_VERSION, WIRE_VERSION,
};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Hard cap on one request line's length. A line past this is answered
/// with [`ErrorKind::Oversized`] and discarded up to its newline; the
/// connection survives.
pub const MAX_FRAME: usize = 1 << 20;

/// Admission limit: the most shards one job may be split into. Lowering
/// allocates a plan per shard and every queue operation rewrites a
/// checkpoint of all of them, so a `Submit` past this is answered with
/// [`ErrorKind::TooLarge`] before anything is reserved or spooled. At the
/// default 256-trial cadence it admits sessions of up to ~10⁶ trials.
pub const MAX_JOB_SHARDS: u64 = 4096;

/// Tunables for one server instance. All fields have serving defaults; the
/// binary overrides them from `UA_DI_QSDC_SERVE_*` (see
/// [`protocol::env_keys`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Spool directory for job state (created if absent).
    pub spool_dir: PathBuf,
    /// Worker pool size.
    pub workers: usize,
    /// Max unfinished jobs per client before [`Response::Busy`].
    pub quota: usize,
    /// Streaming-snapshot cadence in trials (also the shard granularity
    /// jobs are split at); `0` disables streaming.
    pub snapshot_trials: usize,
    /// Shard lease length in milliseconds (heartbeats renew it while a
    /// worker is alive).
    pub lease_ms: u64,
    /// Worker re-poll interval when nothing is claimable.
    pub poll_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            spool_dir: PathBuf::from("serve-spool"),
            workers: 2,
            quota: 4,
            snapshot_trials: 256,
            lease_ms: 5_000,
            poll_ms: 25,
        }
    }
}

/// A running server. Threads are detached: the server serves until the
/// process exits (the crash-consistency story makes a SIGKILL an ordinary
/// shutdown).
pub struct Server {
    local_addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds, rescans the spool (recovering every unfinished job), and
    /// spawns the worker pool plus the accept loop.
    ///
    /// # Errors
    ///
    /// Bind failures, or a damaged spool (reported loudly rather than
    /// silently skipping jobs).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let spool = Spool::open(&config.spool_dir).map_err(io_other)?;
        let recovered = spool.scan().map_err(io_other)?;
        let next_job = spool.next_job_id().map_err(io_other)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let inner = Arc::new(Inner {
            registry: Registry::new(),
            spool,
            config,
            next_job: AtomicU64::new(next_job),
        });
        for (manifest, work) in recovered {
            let work = Arc::new(work);
            let trials_total = work.progress().map_err(io_other)?.1;
            // Recovered jobs have no connected client: no snapshots stream.
            inner
                .registry
                .add_job(manifest.job, None, work, trials_total, 0);
        }

        for index in 0..inner.config.workers.max(1) {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name(format!("serve-worker-{index}"))
                .spawn(move || worker_loop(&inner, index))?;
        }
        {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&inner, listener))?;
        }
        Ok(Server { local_addr, inner })
    }

    /// The bound address (resolves ephemeral ports for tests/tools).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of jobs currently live in the scheduler.
    pub fn live_jobs(&self) -> usize {
        self.inner.registry.live_jobs()
    }
}

struct Inner {
    registry: Registry,
    spool: Spool,
    config: ServerConfig,
    next_job: AtomicU64,
}

fn io_other(error: SpoolError) -> io::Error {
    io::Error::other(error.to_string())
}

// ------------------------------------------------------------ worker pool --

fn worker_loop(inner: &Arc<Inner>, index: usize) {
    let worker = format!("serve-worker-{index}");
    loop {
        let schedule = inner.registry.schedule();
        let mut claimed = false;
        for entry in schedule {
            match entry.work.claim(&worker, inner.config.lease_ms) {
                Ok(WorkClaim::Claimed { queue, plan }) => {
                    claimed = true;
                    run_shard(inner, &worker, entry.job, &entry.work, &queue, &plan);
                    // Back to the fair schedule rather than draining this
                    // job's queue to exhaustion.
                    break;
                }
                Ok(WorkClaim::Wait) => {}
                Ok(WorkClaim::Drained) => try_finalize(inner, entry.job, &entry.work),
                Err(error) => fail_job(inner, entry.job, &error),
            }
        }
        if !claimed {
            inner
                .registry
                .wait_for_work(Duration::from_millis(inner.config.poll_ms.max(1)));
        }
    }
}

/// Executes one claimed shard under a lease heartbeat, submits it, streams
/// a snapshot if the job crossed its cadence, and finalizes a completed
/// job.
fn run_shard(
    inner: &Arc<Inner>,
    worker: &str,
    job: u64,
    work: &Arc<JobWork>,
    queue: &ShardQueue,
    plan: &ShardPlan,
) {
    let beat = queue.heartbeat(worker, plan, inner.config.lease_ms);
    // The master seed is irrelevant here: a shard plan carries its own
    // derived trial seeds. Every spooled queue is initialized with summary
    // payloads (see Spool::lower).
    let engine = SessionEngine::new(0);
    let result = match engine.execute_shard(plan, ShardOutput::Summary) {
        Ok(result) => result,
        Err(error) => {
            drop(beat);
            fail_job(inner, job, &error);
            return;
        }
    };
    drop(beat);
    if let Err(error) = queue.submit(&result) {
        fail_job(inner, job, &error);
        return;
    }

    if matches!(work.as_ref(), JobWork::Session { .. }) {
        stream_snapshot(inner, job, work, queue);
    }
    try_finalize(inner, job, work);
}

/// Streams an incremental summary if the job just crossed its snapshot
/// cadence and its client is still connected.
fn stream_snapshot(inner: &Arc<Inner>, job: u64, work: &Arc<JobWork>, queue: &ShardQueue) {
    let Ok((trials_done, trials_total)) = work.progress() else {
        return;
    };
    if !inner.registry.snapshot_due(job, trials_done) {
        return;
    }
    let Some(sink) = inner.registry.sink_for_job(job) else {
        return;
    };
    match inner.spool.snapshot(queue) {
        // A fold that already covers the whole run is not streamed: that
        // state is announced by `Done` (racing workers may finish the last
        // shard between the cadence gate and the fold).
        Ok(Some((prefix_trials, _))) if prefix_trials >= trials_total => {}
        // A job cancelled (or finished) while its shard ran must not stream
        // after its `Cancelled`: liveness is checked under the write lock.
        Ok(Some((prefix_trials, summary))) => sink.send_if(
            &Response::Snapshot {
                job,
                trials_done: prefix_trials,
                trials_total,
                summary,
            },
            &|| inner.registry.is_live(job),
        ),
        Ok(None) => {}
        Err(error) => eprintln!("serve: snapshot of job {job} failed: {error}"),
    }
}

/// Merges and persists a job whose every shard is done, exactly once.
fn try_finalize(inner: &Arc<Inner>, job: u64, work: &Arc<JobWork>) {
    match work.complete() {
        Ok(true) => {}
        Ok(false) => return,
        Err(error) => {
            fail_job(inner, job, &error);
            return;
        }
    }
    if !inner.registry.begin_finalize(job) {
        return;
    }
    match inner.spool.finalize(job, work) {
        Ok(outcome) => {
            let sink = inner.registry.finish_job(job);
            if let Some(sink) = sink {
                let (summary, report) = match outcome {
                    JobOutcome::Session(summary) => (Some(summary), None),
                    JobOutcome::Campaign(report) => (None, Some(report)),
                };
                sink.send(&Response::Done {
                    job,
                    summary,
                    report,
                });
            }
        }
        Err(error) => {
            // Leave the job on disk (a restart can retry the merge); stop
            // scheduling it and tell the owner.
            inner.registry.abort_finalize(job);
            fail_job(inner, job, &error);
        }
    }
}

/// Removes a failing job from the schedule and reports the failure to its
/// owner. The job directory stays in the spool, so an operator (or a
/// restart) can diagnose and resume it.
fn fail_job(inner: &Arc<Inner>, job: u64, error: &dyn std::fmt::Display) {
    eprintln!("serve: job {job} failed: {error}");
    if let Some(sink) = inner.registry.finish_job(job) {
        sink.send(&Response::Error {
            kind: ErrorKind::Internal,
            message: format!("job {job} failed: {error}"),
        });
    }
}

// ------------------------------------------------------------ connections --

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let inner = Arc::clone(inner);
                let spawned = thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || handle_connection(&inner, stream));
                if let Err(error) = spawned {
                    eprintln!("serve: could not spawn connection thread: {error}");
                }
            }
            Err(error) => eprintln!("serve: accept failed: {error}"),
        }
    }
}

/// A shared, mutex-serialized write half: request replies (from the
/// connection thread) and streamed snapshots (from workers) interleave
/// whole lines, never bytes.
struct TcpSink {
    stream: Mutex<TcpStream>,
}

impl ResponseSink for TcpSink {
    fn send_if(&self, response: &Response, live: &dyn Fn() -> bool) {
        let mut line = serde::json::to_string(response);
        line.push('\n');
        let mut stream = self.stream.lock().unwrap_or_else(|p| p.into_inner());
        if live() {
            // Best-effort: a vanished client does not stop its jobs.
            let _ = stream.write_all(line.as_bytes());
        }
    }
}

/// Accept-time socket setup. Every response is one `write_all` of a whole
/// line, so Nagle's algorithm has nothing to coalesce; left on, it holds a
/// reply behind the previous unacknowledged one until the client's
/// delayed-ACK timer fires (~40 ms on Linux).
fn configure_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    if let Err(error) = configure_stream(&stream) {
        eprintln!("serve: could not set TCP_NODELAY: {error}");
    }
    let write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(error) => {
            eprintln!("serve: could not clone connection: {error}");
            return;
        }
    };
    let sink: Arc<dyn ResponseSink> = Arc::new(TcpSink {
        stream: Mutex::new(write_half),
    });
    let client = inner.registry.register_client(Arc::clone(&sink));
    sink.send(&Response::Hello {
        server: "qsdc-serve".to_string(),
        wire_version: WIRE_VERSION,
        quota: inner.config.quota,
        snapshot_trials: inner.config.snapshot_trials,
    });

    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, MAX_FRAME) {
            Ok(Frame::Eof) | Err(_) => break,
            Ok(Frame::Oversized) => sink.send(&Response::Error {
                kind: ErrorKind::Oversized,
                message: format!("request line exceeds {MAX_FRAME} bytes"),
            }),
            Ok(Frame::Line(bytes)) => {
                let Ok(text) = String::from_utf8(bytes) else {
                    sink.send(&Response::Error {
                        kind: ErrorKind::Malformed,
                        message: "request line is not UTF-8".to_string(),
                    });
                    continue;
                };
                if text.trim().is_empty() {
                    continue;
                }
                match serde::json::from_str::<Request>(&text) {
                    Ok(request) => dispatch(inner, client, &sink, request),
                    Err(error) => sink.send(&Response::Error {
                        kind: ErrorKind::Malformed,
                        message: format!("unparseable request: {error}"),
                    }),
                }
            }
        }
    }
    inner.registry.client_gone(client);
}

fn dispatch(inner: &Arc<Inner>, client: u64, sink: &Arc<dyn ResponseSink>, request: Request) {
    match request {
        Request::Ping => sink.send(&Response::Pong),
        Request::Submit { job } => submit(inner, client, sink, job),
        Request::Cancel { job } => cancel(inner, client, sink, job),
        Request::Status { job } => status(inner, sink, job),
    }
}

fn submit(inner: &Arc<Inner>, client: u64, sink: &Arc<dyn ResponseSink>, spec: JobSpec) {
    let shard_trials = inner.config.snapshot_trials.max(1);
    let slots = shard_slots(&spec, shard_trials);
    if slots > MAX_JOB_SHARDS {
        sink.send(&Response::Error {
            kind: ErrorKind::TooLarge,
            message: format!(
                "job needs {slots} shards of {shard_trials} trials; \
                 the limit is MAX_JOB_SHARDS = {MAX_JOB_SHARDS} per job"
            ),
        });
        return;
    }
    if let Err((in_flight, quota)) = inner.registry.reserve_slot(client, inner.config.quota) {
        sink.send(&Response::Busy { in_flight, quota });
        return;
    }
    let job = inner.next_job.fetch_add(1, Ordering::Relaxed);
    let manifest = JobManifest {
        version: MANIFEST_VERSION,
        job,
        client: format!("client-{client}"),
        spec,
        shard_trials,
    };
    let lowered = inner
        .spool
        .lower(&manifest)
        .and_then(|work| work.progress().map(|(_, total)| (work, total)));
    match lowered {
        Ok((work, trials_total)) => {
            let snapshot_trials = match work {
                JobWork::Session { .. } => inner.config.snapshot_trials as u64,
                // Campaign reports fold per-point; no incremental stream.
                JobWork::Campaign { .. } => 0,
            };
            // The job is durable, so it can be acknowledged; doing so before
            // the workers can see it puts `Accepted` ahead of its `Snapshot`s
            // and `Done` on the wire.
            sink.send(&Response::Accepted { job });
            inner.registry.add_job(
                job,
                Some(client),
                Arc::new(work),
                trials_total,
                snapshot_trials,
            );
        }
        Err(SpoolError::Unsupported { reason }) => {
            inner.registry.release_slot(client);
            sink.send(&Response::Error {
                kind: ErrorKind::Unsupported,
                message: reason,
            });
        }
        Err(error) => {
            inner.registry.release_slot(client);
            sink.send(&Response::Error {
                kind: ErrorKind::Internal,
                message: format!("could not spool job: {error}"),
            });
        }
    }
}

fn cancel(inner: &Arc<Inner>, client: u64, sink: &Arc<dyn ResponseSink>, job: u64) {
    match inner.registry.cancel(job, client) {
        CancelOutcome::Cancelled => {
            if let Err(error) = inner.spool.mark_cancelled(job) {
                eprintln!("serve: could not mark job {job} cancelled: {error}");
            }
            sink.send(&Response::Cancelled { job });
        }
        CancelOutcome::Unknown => sink.send(&Response::Error {
            kind: ErrorKind::UnknownJob,
            message: format!("no live job {job} owned by this client"),
        }),
    }
}

fn status(inner: &Arc<Inner>, sink: &Arc<dyn ResponseSink>, job: u64) {
    if let Some(work) = inner.registry.job_work(job) {
        match work.progress() {
            Ok((trials_done, trials_total)) => sink.send(&Response::Status {
                job,
                state: JobState::Running,
                trials_done,
                trials_total,
            }),
            Err(error) => sink.send(&Response::Error {
                kind: ErrorKind::Internal,
                message: format!("could not read job {job} progress: {error}"),
            }),
        }
        return;
    }
    match inner.spool.lookup(job) {
        Ok(crate::spool::SpoolLookup::Done { manifest }) => {
            let total = spec_trials(inner, &manifest);
            sink.send(&Response::Status {
                job,
                state: JobState::Done,
                trials_done: total,
                trials_total: total,
            });
        }
        Ok(crate::spool::SpoolLookup::Cancelled { manifest }) => {
            let total = spec_trials(inner, &manifest);
            sink.send(&Response::Status {
                job,
                state: JobState::Cancelled,
                trials_done: 0,
                trials_total: total,
            });
        }
        Ok(crate::spool::SpoolLookup::InFlight { manifest }) => {
            // Lowered but not scheduled (e.g. a failed job awaiting restart).
            let progress = inner
                .spool
                .reopen(&manifest)
                .and_then(|work| work.progress());
            let (trials_done, trials_total) = progress.unwrap_or((0, 0));
            sink.send(&Response::Status {
                job,
                state: JobState::Running,
                trials_done,
                trials_total,
            });
        }
        Ok(crate::spool::SpoolLookup::Absent) => sink.send(&Response::Error {
            kind: ErrorKind::UnknownJob,
            message: format!("no job {job} in this server's spool"),
        }),
        Err(error) => sink.send(&Response::Error {
            kind: ErrorKind::Internal,
            message: format!("could not look up job {job}: {error}"),
        }),
    }
}

/// Shards a job splits into at `shard_trials` trials per shard, computed
/// from the spec alone (no plan, no campaign expansion) and saturating
/// rather than overflowing. For a campaign it is an upper bound: the point
/// count times the shards of the largest trial budget any point can carry.
fn shard_slots(spec: &JobSpec, shard_trials: usize) -> u64 {
    let shards = |trials: usize| (trials as u64).div_ceil(shard_trials.max(1) as u64);
    let campaign = match spec {
        JobSpec::Session { trials, .. } => return shards(*trials),
        JobSpec::Campaign { campaign } => campaign,
    };
    let (points, budget) = match &campaign.space {
        CampaignSpace::Grid(axes) => (
            axes.iter().fold(1u64, |product, axis| {
                product.saturating_mul(axis.len() as u64)
            }),
            axes.iter()
                .filter_map(|axis| match axis {
                    Axis::Trials(values) => values.iter().max(),
                    _ => None,
                })
                .fold(campaign.trials, |budget, &trials| budget.max(trials)),
        ),
        CampaignSpace::Points(points) => (
            points.len() as u64,
            points
                .iter()
                .flatten()
                .filter_map(|coord| match coord {
                    AxisValue::Trials(trials) => Some(trials),
                    _ => None,
                })
                .fold(campaign.trials, |budget, &trials| budget.max(trials)),
        ),
    };
    points.saturating_mul(shards(budget))
}

/// Total trials a manifest's spec describes, for status answers about jobs
/// whose queues are gone or not worth reopening.
fn spec_trials(inner: &Arc<Inner>, manifest: &JobManifest) -> u64 {
    match &manifest.spec {
        JobSpec::Session { trials, .. } => *trials as u64,
        JobSpec::Campaign { campaign } => inner
            .spool
            .reopen(manifest)
            .and_then(|work| work.progress())
            .map(|(_, total)| total)
            .unwrap_or_else(|_| {
                campaign
                    .expand()
                    .map(|points| points.iter().map(|p| p.trials as u64).sum())
                    .unwrap_or(0)
            }),
    }
}

// ---------------------------------------------------------------- framing --

/// One parsed read from a connection.
pub enum Frame {
    /// A complete line (without its trailing newline).
    Line(Vec<u8>),
    /// The line exceeded the cap; it was discarded up to its newline.
    Oversized,
    /// The peer closed the connection (a truncated trailing line counts:
    /// the request can never complete).
    Eof,
}

/// Reads one newline-terminated frame with a hard length cap. Never
/// allocates beyond `max + one buffer` for a hostile line.
///
/// # Errors
///
/// Underlying socket read errors.
pub fn read_frame(reader: &mut impl BufRead, max: usize) -> io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(Frame::Eof);
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            if line.len() > max {
                return Ok(Frame::Oversized);
            }
            return Ok(Frame::Line(line));
        }
        line.extend_from_slice(buf);
        let chunk = buf.len();
        reader.consume(chunk);
        if line.len() > max {
            return discard_to_newline(reader);
        }
    }
}

/// Consumes the rest of an over-long line so the connection can continue
/// at the next frame boundary.
fn discard_to_newline(reader: &mut impl BufRead) -> io::Result<Frame> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(Frame::Eof);
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            reader.consume(pos + 1);
            return Ok(Frame::Oversized);
        }
        let chunk = buf.len();
        reader.consume(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Every accepted connection leaves the setup with Nagle off, so a
    /// reply never waits on the peer's delayed ACK.
    #[test]
    fn accepted_streams_have_nodelay_set() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connects");
        let (accepted, _) = listener.accept().expect("accepts");
        configure_stream(&accepted).expect("configures");
        assert!(accepted.nodelay().expect("reads the option"));
    }

    /// The sink reads liveness while it holds the connection's write lock,
    /// so a snapshot cannot pass the check before a `Cancelled` written
    /// under that lock and go out after it; a failed check sends nothing.
    #[test]
    fn send_if_reads_liveness_under_the_write_lock() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connects");
        let sink = TcpSink {
            stream: Mutex::new(listener.accept().expect("accepts").0),
        };
        let checked_under_lock = std::cell::Cell::new(false);
        sink.send_if(&Response::Pong, &|| {
            checked_under_lock.set(sink.stream.try_lock().is_err());
            false
        });
        assert!(checked_under_lock.get());
        drop(sink);
        let mut received = String::new();
        peer.read_to_string(&mut received).expect("reads to EOF");
        assert_eq!(received, "", "a response that failed its check was sent");
    }

    fn scenario() -> protocol::engine::Scenario {
        use rand::SeedableRng;
        protocol::engine::Scenario::new(
            protocol::SessionConfig::builder()
                .build()
                .expect("config builds"),
            protocol::identity::IdentityPair::generate(
                2,
                &mut rand::rngs::StdRng::seed_from_u64(1),
            ),
        )
    }

    fn session(trials: usize) -> JobSpec {
        JobSpec::Session {
            scenario: scenario(),
            trials,
            seed: 0,
        }
    }

    /// `Accepted` goes out before the workers can see the job, so it
    /// precedes every `Snapshot` and `Done` of that job on the wire.
    #[test]
    fn submit_acknowledges_before_scheduling() {
        struct Recorder {
            inner: Arc<Inner>,
            scheduled_at_ack: Mutex<Option<bool>>,
        }
        impl ResponseSink for Recorder {
            fn send_if(&self, response: &Response, _live: &dyn Fn() -> bool) {
                if let Response::Accepted { job } = response {
                    let scheduled = self.inner.registry.is_live(*job);
                    *self.scheduled_at_ack.lock().expect("not poisoned") = Some(scheduled);
                }
            }
        }

        let dir =
            std::env::temp_dir().join(format!("ua-di-qsdc-server-ack-{}", std::process::id()));
        let inner = Arc::new(Inner {
            registry: Registry::new(),
            spool: Spool::open(&dir).expect("spool opens"),
            config: ServerConfig::default(),
            next_job: AtomicU64::new(1),
        });
        let recorder = Arc::new(Recorder {
            inner: Arc::clone(&inner),
            scheduled_at_ack: Mutex::new(None),
        });
        let sink: Arc<dyn ResponseSink> = recorder.clone();
        let client = inner.registry.register_client(Arc::clone(&sink));
        submit(&inner, client, &sink, session(2));
        let scheduled_at_ack = *recorder.scheduled_at_ack.lock().expect("not poisoned");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            scheduled_at_ack,
            Some(false),
            "acknowledged after scheduling"
        );
        assert!(
            inner.registry.is_live(1),
            "the job is scheduled after its ack"
        );
    }

    /// The admission count needs no expansion: a session's shards follow
    /// from its trial count, a campaign's from its axis lengths and largest
    /// trial budget, and absurd sizes saturate instead of overflowing.
    #[test]
    fn shard_slots_count_without_expanding() {
        assert_eq!(shard_slots(&session(0), 8), 0);
        assert_eq!(shard_slots(&session(17), 8), 3);
        assert_eq!(shard_slots(&session(10_000_000_000), 256), 39_062_500);

        let campaign = |trials, space| JobSpec::Campaign {
            campaign: protocol::engine::Campaign {
                label: "slots".to_string(),
                master_seed: 0,
                trials,
                workload: protocol::engine::CampaignWorkload::Session { base: scenario() },
                space,
            },
        };
        let grid = CampaignSpace::Grid(vec![Axis::Eta(vec![0, 10, 20]), Axis::Trials(vec![4, 40])]);
        // Six points, each charged the 40-trial budget: 5 shards of 8.
        assert_eq!(shard_slots(&campaign(1, grid), 8), 30);
        let points = CampaignSpace::Points(vec![vec![], vec![AxisValue::Eta(10)]]);
        assert_eq!(shard_slots(&campaign(9, points), 8), 4);
        let huge = CampaignSpace::Grid(vec![Axis::Eta(vec![0; 1 << 16]); 5]);
        assert_eq!(shard_slots(&campaign(1, huge), 8), u64::MAX);
    }

    /// Frames split across buffer boundaries reassemble; the cap rejects a
    /// hostile line without buffering it and resynchronizes at its newline.
    #[test]
    fn read_frame_reassembles_caps_and_resynchronizes() {
        let mut input = Cursor::new(b"short\n".to_vec());
        let Frame::Line(line) = read_frame(&mut input, 16).expect("reads") else {
            panic!("expected a line");
        };
        assert_eq!(line, b"short");

        // A line one past the cap is Oversized; the following frame is
        // still delivered intact.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&[b'x'; 17]);
        hostile.push(b'\n');
        hostile.extend_from_slice(b"next\n");
        let mut input = Cursor::new(hostile);
        assert!(matches!(
            read_frame(&mut input, 16).expect("reads"),
            Frame::Oversized
        ));
        let Frame::Line(line) = read_frame(&mut input, 16).expect("reads") else {
            panic!("expected the next line");
        };
        assert_eq!(line, b"next");
        assert!(matches!(
            read_frame(&mut input, 16).expect("reads"),
            Frame::Eof
        ));

        // A line exactly at the cap still passes.
        let mut exact = vec![b'y'; 16];
        exact.push(b'\n');
        let mut input = Cursor::new(exact);
        assert!(matches!(
            read_frame(&mut input, 16).expect("reads"),
            Frame::Line(line) if line.len() == 16
        ));

        // A truncated trailing line (no newline before EOF) is EOF: the
        // request can never complete.
        let mut input = Cursor::new(b"{\"Ping\"".to_vec());
        assert!(matches!(
            read_frame(&mut input, 16).expect("reads"),
            Frame::Eof
        ));
    }
}
