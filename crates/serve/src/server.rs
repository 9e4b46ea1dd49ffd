//! The TCP server: accept loop, per-connection request handling, and the
//! shared worker pool that drains every live job's queues.
//!
//! One thread per connection parses newline-delimited
//! [`protocol::wire::Request`] lines (with an explicit size cap —
//! an oversized or malformed line earns an
//! [`Error`](protocol::wire::Response::Error) response, never a panic or a
//! dropped connection); `workers` pool threads repeatedly ask the
//! [`Registry`] for the fair schedule, claim one shard, run it on their
//! own serial [`ShardWorker`] (which heartbeats the lease until the submit
//! returns, so a slow shard is never stolen from a live worker), count the
//! recorded shard in the registry, fold a snapshot when one is due, and
//! finalize the job whose last shard just landed. A worker that finds
//! nothing to claim parks until a job is submitted.
//!
//! Workers never write to a connection themselves: they hand each fold,
//! `Done` and job failure to the [`Registry`], which sends a live job's
//! asynchronous messages to its owner (and drops a stale snapshot). The
//! connection thread writes only its direct answers, `Cancelled` among
//! them.
//!
//! All durable state lives in the [`Spool`]; the process can be SIGKILLed
//! at any instant and a restarted server ([`Server::start`] rescans the
//! spool and re-issues every lease it finds) finishes every accepted job
//! byte-identically. A spool must have one server at a time.

use crate::registry::{CancelOutcome, Registry, ResponseSink, ShardRecord};
use crate::spool::{JobOutcome, JobWork, Spool, SpoolError, SpoolLookup, WorkClaim};
use protocol::engine::{
    Axis, AxisValue, CampaignSpace, ShardOutput, ShardPlan, ShardQueue, ShardWorker, SubmitOutcome,
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

/// Hard cap on one request line's length. A line past this is answered
/// with [`ErrorKind::Oversized`] and discarded up to its newline; the
/// connection survives.
pub(crate) const MAX_FRAME: usize = 1 << 20;

/// Admission limit: the most shards one job may be split into. Lowering
/// allocates a plan per shard and every queue operation rewrites a
/// checkpoint of all of them, so a `Submit` past this is answered with
/// [`ErrorKind::TooLarge`] before anything is reserved or spooled. At the
/// default 256-trial cadence it admits sessions of up to ~10⁶ trials.
pub const MAX_JOB_SHARDS: u64 = 4096;

/// Shard lease length in milliseconds; a live worker's heartbeat renews it.
const LEASE_MS: u64 = 5_000;

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
    /// Streaming-snapshot cadence in trials, which is also the shard
    /// granularity jobs are split at. Must be at least 1.
    pub snapshot_trials: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            spool_dir: PathBuf::from("serve-spool"),
            workers: 2,
            quota: 4,
            snapshot_trials: 256,
        }
    }
}

/// A running server. Threads are detached: the server serves until the
/// process exits (the crash-consistency story makes a SIGKILL an ordinary
/// shutdown).
pub struct Server {
    local_addr: SocketAddr,
}

impl Server {
    /// Binds, rescans the spool (recovering every unfinished job), and
    /// spawns the worker pool plus the accept loop.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `snapshot_trials` is 0, bind
    /// failures, or a damaged spool (reported loudly rather than silently
    /// skipping jobs).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        if config.snapshot_trials == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot_trials must be at least 1",
            ));
        }
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
        for (manifest, work, progress) in recovered {
            // Recovered jobs have no connected client: no snapshots stream.
            inner
                .registry
                .add_job(manifest.job, None, Arc::new(work), progress);
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
        Ok(Server { local_addr })
    }

    /// The bound address (resolves ephemeral ports for tests/tools).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
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
    // Serial: the pool already runs one shard per worker thread.
    let worker = ShardWorker {
        name: format!("serve-worker-{index}"),
        lease_ms: LEASE_MS,
        ..ShardWorker::default()
    };
    loop {
        let epoch = inner.registry.work_epoch();
        let schedule = inner.registry.schedule();
        let mut claimed = false;
        for entry in schedule {
            match entry.work.claim(&worker.name, worker.lease_ms) {
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
            inner.registry.wait_for_work(epoch);
        }
    }
}

/// Executes and submits one claimed shard, counts it in the registry,
/// streams a snapshot when one is due, and finalizes a completed job.
fn run_shard(
    inner: &Arc<Inner>,
    worker: &ShardWorker,
    job: u64,
    work: &Arc<JobWork>,
    queue: &ShardQueue,
    plan: &ShardPlan,
) {
    // Every spooled queue is initialized with summary payloads (see
    // Spool::lower).
    let trials = match worker.execute(queue, plan, ShardOutput::Summary) {
        Ok(SubmitOutcome::Recorded) => plan.trial_count as u64,
        Ok(SubmitOutcome::AlreadyDone) => 0,
        Err(error) => {
            fail_job(inner, job, &error);
            return;
        }
    };
    match inner.registry.record_shard(job, trials) {
        ShardRecord::Counted => {}
        ShardRecord::SnapshotDue => stream_snapshot(inner, job, queue),
        ShardRecord::Complete => try_finalize(inner, job, work),
    }
}

/// Folds a session job's done prefix and hands it to the registry, which
/// streams it to the owner unless it is stale.
fn stream_snapshot(inner: &Arc<Inner>, job: u64, queue: &ShardQueue) {
    match inner.spool.snapshot(queue) {
        Ok(Some((trials_done, summary))) => {
            inner.registry.stream_snapshot(job, trials_done, summary);
        }
        Ok(None) => {}
        Err(error) => eprintln!("serve: snapshot of job {job} failed: {error}"),
    }
}

/// Merges and persists a job whose every shard is done, exactly once, and
/// has the registry announce it. The caller knows the job is complete: its
/// claim found every queue drained, or its record completed the job.
fn try_finalize(inner: &Arc<Inner>, job: u64, work: &Arc<JobWork>) {
    if !inner.registry.begin_finalize(job) {
        return;
    }
    match inner.spool.finalize(job, work) {
        Ok(outcome) => {
            let (summary, report) = match outcome {
                JobOutcome::Session(summary) => (Some(summary), None),
                JobOutcome::Campaign(report) => (None, Some(report)),
            };
            let done = Response::Done {
                job,
                summary,
                report,
            };
            inner.registry.finish_job(job, &done);
        }
        Err(error) => {
            // Leave the job on disk (a restart can retry the merge); stop
            // scheduling it and tell the owner.
            fail_job(inner, job, &error);
        }
    }
}

/// Removes a failing job from the schedule and reports the failure to its
/// owner. The job directory stays in the spool, so an operator (or a
/// restart) can diagnose and resume it.
fn fail_job(inner: &Arc<Inner>, job: u64, error: &dyn std::fmt::Display) {
    eprintln!("serve: job {job} failed: {error}");
    let failed = Response::Error {
        kind: ErrorKind::Internal,
        message: format!("job {job} failed: {error}"),
    };
    inner.registry.finish_job(job, &failed);
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
/// connection thread) and a job's asynchronous messages (from workers,
/// through the registry) interleave whole lines, never bytes.
struct TcpSink {
    stream: Mutex<TcpStream>,
}

impl ResponseSink for TcpSink {
    fn send_if(&self, response: &Response, admit: &dyn Fn() -> bool) {
        let mut line = serde::json::to_string(response);
        line.push('\n');
        let mut stream = self.stream.lock().unwrap_or_else(|p| p.into_inner());
        if admit() {
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
    let shard_trials = inner.config.snapshot_trials;
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
    match inner.spool.lower(&manifest) {
        Ok(work) => {
            // The job is durable, so it can be acknowledged; doing so before
            // the workers can see it puts `Accepted` ahead of its `Snapshot`s
            // and `Done` on the wire.
            sink.send(&Response::Accepted { job });
            let progress = (0, spec_trials(&manifest));
            inner
                .registry
                .add_job(job, Some(client), Arc::new(work), progress);
        }
        Err(error) => {
            inner.registry.release_slot(client);
            let (kind, message) = match error {
                SpoolError::Unsupported { reason } => (ErrorKind::Unsupported, reason),
                error => (ErrorKind::Internal, format!("could not spool job: {error}")),
            };
            sink.send(&Response::Error { kind, message });
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
    let answer = match inner.registry.progress(job) {
        Some((trials_done, trials_total)) => Ok((JobState::Running, trials_done, trials_total)),
        None => spooled_status(inner, job),
    };
    sink.send(&match answer {
        Ok((state, trials_done, trials_total)) => Response::Status {
            job,
            state,
            trials_done,
            trials_total,
        },
        Err((kind, message)) => Response::Error { kind, message },
    });
}

/// `(state, trials_done, trials_total)` of a job that is not live, from
/// the spool alone, or the error to answer instead.
fn spooled_status(inner: &Inner, job: u64) -> Result<(JobState, u64, u64), (ErrorKind, String)> {
    match inner.spool.lookup(job) {
        Ok(SpoolLookup::Done { manifest }) => {
            let total = spec_trials(&manifest);
            Ok((JobState::Done, total, total))
        }
        Ok(SpoolLookup::Cancelled { manifest }) => {
            Ok((JobState::Cancelled, 0, spec_trials(&manifest)))
        }
        // Lowered but not scheduled (e.g. a failed job awaiting restart).
        Ok(SpoolLookup::InFlight { manifest }) => inner
            .spool
            .reopen(&manifest)
            .and_then(|work| work.progress())
            .map(|(trials_done, trials_total)| (JobState::Running, trials_done, trials_total))
            .map_err(|error| {
                let message = format!("could not read job {job} progress: {error}");
                (ErrorKind::Internal, message)
            }),
        Ok(SpoolLookup::Absent) => Err((
            ErrorKind::UnknownJob,
            format!("no job {job} in this server's spool"),
        )),
        Err(error) => Err((
            ErrorKind::Internal,
            format!("could not look up job {job}: {error}"),
        )),
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

/// Total trials a manifest's spec describes: the total of a job just
/// lowered, and of status answers about jobs whose queues are gone or not
/// worth reopening.
fn spec_trials(manifest: &JobManifest) -> u64 {
    match &manifest.spec {
        JobSpec::Session { trials, .. } => *trials as u64,
        JobSpec::Campaign { campaign } => campaign
            .expand()
            .map(|points| points.iter().map(|p| p.trials as u64).sum())
            .unwrap_or(0),
    }
}

// ---------------------------------------------------------------- framing --

/// One parsed read from a connection.
pub(crate) enum Frame {
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
pub(crate) fn read_frame(reader: &mut impl BufRead, max: usize) -> io::Result<Frame> {
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
    use crate::registry::tests::Recorder;
    use std::collections::BTreeMap;
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

    /// The sink runs its admission check while it holds the connection's
    /// write lock, so a snapshot cannot pass the check before a `Cancelled`
    /// (or a longer snapshot) written under that lock and go out after it;
    /// a failed check sends nothing.
    #[test]
    fn send_if_checks_admission_under_the_write_lock() {
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

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ua-di-qsdc-server-{tag}-{}", std::process::id()))
    }

    /// Server state over a spool at `dir`, with no worker or connection
    /// threads, splitting jobs into 2-trial shards.
    fn inner_at(dir: &std::path::Path) -> Arc<Inner> {
        Arc::new(Inner {
            registry: Registry::new(),
            spool: Spool::open(dir).expect("spool opens"),
            config: ServerConfig {
                snapshot_trials: 2,
                ..ServerConfig::default()
            },
            next_job: AtomicU64::new(1),
        })
    }

    /// `Accepted` goes out before the workers can see the job, so it
    /// precedes every `Snapshot` and `Done` of that job on the wire.
    #[test]
    fn submit_acknowledges_before_scheduling() {
        struct AckWatcher {
            inner: Arc<Inner>,
            scheduled_at_ack: Mutex<Option<bool>>,
        }
        impl ResponseSink for AckWatcher {
            fn send_if(&self, response: &Response, _admit: &dyn Fn() -> bool) {
                if let Response::Accepted { job } = response {
                    let scheduled = self.inner.registry.progress(*job).is_some();
                    *self.scheduled_at_ack.lock().expect("not poisoned") = Some(scheduled);
                }
            }
        }

        let dir = temp_dir("ack");
        let inner = inner_at(&dir);
        let recorder = Arc::new(AckWatcher {
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
            inner.registry.progress(1).is_some(),
            "the job is scheduled after its ack"
        );
    }

    /// What happens to the owner at one point of an explored order.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        Cancel,
        Disconnect,
    }

    /// Every order of `shards` chains of three steps each, as the sequence
    /// of shards whose next step runs.
    fn interleavings(shards: usize) -> Vec<Vec<usize>> {
        fn extend(left: &mut [usize], order: &mut Vec<usize>, all: &mut Vec<Vec<usize>>) {
            if left.iter().all(|&steps| steps == 0) {
                all.push(order.clone());
            }
            for shard in 0..left.len() {
                if left[shard] > 0 {
                    left[shard] -= 1;
                    order.push(shard);
                    extend(left, order, all);
                    order.pop();
                    left[shard] += 1;
                }
            }
        }
        let mut all = Vec::new();
        extend(&mut vec![3; shards], &mut Vec::new(), &mut all);
        all
    }

    /// A session job of `shards` 2-trial shards, explored step by step
    /// through the workers' own calls with no thread: the shard results
    /// are computed once, and the serialized local run of every prefix is
    /// the reference for snapshots and `result.json`.
    struct Explorer {
        inner: Arc<Inner>,
        spec: JobSpec,
        results: Vec<protocol::engine::ShardResult>,
        prefixes: BTreeMap<u64, String>,
    }

    impl Explorer {
        fn new(dir: &std::path::Path, shards: usize) -> Explorer {
            use rand::SeedableRng;
            let config = protocol::SessionConfig::builder()
                .message_bits(8)
                .check_bits(2)
                .di_check_pairs(16)
                .build()
                .expect("config builds");
            let identities = protocol::identity::IdentityPair::generate(
                2,
                &mut rand::rngs::StdRng::seed_from_u64(1),
            );
            let scenario = protocol::engine::Scenario::new(config, identities);
            let trials = 2 * shards;
            let engine = protocol::engine::SessionEngine::new(7);
            let results = engine
                .plan(&scenario, trials)
                .split_max(2)
                .iter()
                .map(|plan| {
                    engine
                        .execute_shard(plan, ShardOutput::Summary)
                        .expect("shard runs")
                })
                .collect();
            let prefixes = (1..=shards as u64)
                .map(|shard| {
                    let summary = engine
                        .run_trials(&scenario, 2 * shard as usize)
                        .expect("prefix runs");
                    (2 * shard, serde::json::to_string(&summary))
                })
                .collect();
            Explorer {
                inner: inner_at(dir),
                spec: JobSpec::Session {
                    scenario,
                    trials,
                    seed: 7,
                },
                results,
                prefixes,
            }
        }

        /// Lowers a fresh job for a fresh client, runs each shard's steps
        /// (submit and record, then fold, then deliver or finalize) in
        /// `order`, fires `event` before step `at`, and checks what the
        /// owner received.
        fn run(&self, order: &[usize], event: Option<(usize, Event)>) {
            let inner = &self.inner;
            let recorder = Arc::new(Recorder::default());
            let sink: Arc<dyn ResponseSink> = recorder.clone();
            let client = inner.registry.register_client(Arc::clone(&sink));
            // A second slot held throughout shows the job's slot is
            // released exactly once.
            inner.registry.reserve_slot(client, 2).expect("slot");
            submit(inner, client, &sink, self.spec.clone());
            let [Response::Accepted { job }] = recorder.sent()[..] else {
                panic!("expected Accepted, got {:?}", recorder.sent());
            };
            let work = inner
                .registry
                .schedule()
                .into_iter()
                .find(|entry| entry.job == job)
                .expect("the job is scheduled")
                .work;
            let queue = ShardQueue::open(inner.spool.job_dir(job).join(crate::spool::QUEUE_DIR))
                .expect("queue opens");

            let shards = self.results.len();
            let mut steps_done = vec![0; shards];
            let mut records = vec![ShardRecord::Counted; shards];
            let mut folds = vec![None; shards];
            let mut sent_at_event = None;
            for at in 0..=order.len() {
                if let Some((_, happening)) = event.filter(|&(point, _)| point == at) {
                    sent_at_event = Some(recorder.sent().len());
                    match happening {
                        Event::Cancel => cancel(inner, client, &sink, job),
                        Event::Disconnect => inner.registry.client_gone(client),
                    }
                }
                let Some(&shard) = order.get(at) else {
                    break;
                };
                match steps_done[shard] {
                    0 => {
                        let result = &self.results[shard];
                        let trials = match queue.submit(result).expect("submits") {
                            SubmitOutcome::Recorded => result.trial_count as u64,
                            SubmitOutcome::AlreadyDone => 0,
                        };
                        records[shard] = inner.registry.record_shard(job, trials);
                    }
                    1 if records[shard] == ShardRecord::SnapshotDue => {
                        folds[shard] = inner.spool.snapshot(&queue).expect("folds");
                    }
                    2 => match (records[shard], folds[shard].take()) {
                        (ShardRecord::SnapshotDue, Some((trials_done, summary))) => {
                            inner.registry.stream_snapshot(job, trials_done, summary);
                        }
                        (ShardRecord::Complete, _) => try_finalize(inner, job, &work),
                        _ => {}
                    },
                    _ => {}
                }
                steps_done[shard] += 1;
            }
            self.check(&recorder.sent(), job, client, event, sent_at_event);
            let _ = std::fs::remove_dir_all(inner.spool.job_dir(job));
        }

        fn check(
            &self,
            sent: &[Response],
            job: u64,
            client: u64,
            event: Option<(usize, Event)>,
            sent_at_event: Option<usize>,
        ) {
            let context = format!("{event:?}: {sent:?}");
            let trials_total = 2 * self.results.len() as u64;
            let mut streamed = 0;
            let mut terminal = 0;
            for (index, response) in sent.iter().enumerate() {
                // After `Done` or `Cancelled` only the answer to a later
                // cancel may come.
                assert!(
                    terminal == 0
                        || matches!(
                            response,
                            Response::Error {
                                kind: ErrorKind::UnknownJob,
                                ..
                            }
                        ),
                    "a message after the end: {context}"
                );
                match response {
                    Response::Accepted { .. } => assert_eq!(index, 0, "{context}"),
                    Response::Snapshot {
                        trials_done,
                        trials_total: total,
                        summary,
                        ..
                    } => {
                        assert_eq!(*total, trials_total, "{context}");
                        assert!(streamed < *trials_done, "not increasing: {context}");
                        assert!(*trials_done < trials_total, "whole run: {context}");
                        assert_eq!(
                            serde::json::to_string(summary),
                            self.prefixes[trials_done],
                            "not the prefix: {context}"
                        );
                        streamed = *trials_done;
                    }
                    Response::Done { summary, .. } => {
                        let summary = summary.as_ref().expect("a session summary");
                        assert_eq!(
                            serde::json::to_string(summary),
                            self.prefixes[&trials_total],
                            "{context}"
                        );
                        terminal += 1;
                    }
                    Response::Cancelled { .. } => terminal += 1,
                    Response::Error {
                        kind: ErrorKind::UnknownJob,
                        ..
                    } if terminal == 1 => {}
                    other => panic!("unexpected {other:?}: {context}"),
                }
            }
            match event {
                Some((_, Event::Disconnect)) => {
                    let before = sent_at_event.expect("the event fired");
                    assert_eq!(sent.len(), before, "sent after disconnect: {context}");
                    assert!(terminal <= 1, "{context}");
                }
                _ => assert_eq!(terminal, 1, "{context}"),
            }
            // The job is over, finished on disk unless it was cancelled, and
            // its slot came back exactly once.
            assert_eq!(self.inner.registry.progress(job), None, "{context}");
            if !sent.iter().any(|r| matches!(r, Response::Cancelled { .. })) {
                let result = std::fs::read_to_string(self.inner.spool.result_path(job));
                assert_eq!(
                    result.expect("result.json"),
                    self.prefixes[&trials_total],
                    "{context}"
                );
            }
            assert_eq!(
                self.inner.registry.reserve_slot(client, 2),
                Ok(()),
                "{context}"
            );
            assert_eq!(
                self.inner.registry.reserve_slot(client, 2),
                Err((2, 2)),
                "{context}"
            );
        }
    }

    /// Every order of three shards' submit-and-record, fold and
    /// deliver-or-finalize steps (9!/(3!)³ = 1,680), each on a freshly
    /// lowered job: snapshots strictly increase, are exact prefixes and
    /// never cover the run, and the owner gets exactly one `Done`, last,
    /// with the slot released exactly once.
    #[test]
    fn every_step_order_of_three_shards_streams_in_order() {
        let dir = temp_dir("explore-orders");
        let explorer = Explorer::new(&dir, 3);
        let orders = interleavings(3);
        assert_eq!(orders.len(), 1_680);
        for order in &orders {
            explorer.run(order, None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `Cancel` or a disconnect at every point of every step order of
    /// two shards: nothing follows `Cancelled` or `Done`, a disconnected
    /// owner hears nothing more, each connected owner gets exactly one of
    /// them, and the slot is released exactly once.
    #[test]
    fn a_cancel_or_disconnect_at_every_point_keeps_the_order() {
        let dir = temp_dir("explore-events");
        let explorer = Explorer::new(&dir, 2);
        let orders = interleavings(2);
        assert_eq!(orders.len(), 20);
        for order in &orders {
            for at in 0..=order.len() {
                for event in [Event::Cancel, Event::Disconnect] {
                    explorer.run(order, Some((at, event)));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job on disk but not live answers `Status` from its checkpoint, and
    /// a damaged checkpoint is reported as an internal error rather than
    /// hidden behind `Running 0/0`.
    #[test]
    fn status_of_a_damaged_spooled_job_is_an_internal_error() {
        let dir = temp_dir("status");
        let inner = inner_at(&dir);
        let manifest = JobManifest {
            version: MANIFEST_VERSION,
            job: 1,
            client: "test".to_string(),
            spec: session(2),
            shard_trials: 2,
        };
        inner.spool.lower(&manifest).expect("job lowers");
        let responses = Arc::new(Recorder::default());
        let sink: Arc<dyn ResponseSink> = responses.clone();
        status(&inner, &sink, 1);
        let checkpoint = inner
            .spool
            .job_dir(1)
            .join(crate::spool::QUEUE_DIR)
            .join(protocol::engine::queue::CHECKPOINT_FILE);
        std::fs::write(checkpoint, b"not a checkpoint").expect("overwrites the checkpoint");
        status(&inner, &sink, 1);
        let _ = std::fs::remove_dir_all(&dir);

        let answered = responses.sent();
        assert!(
            matches!(
                answered.as_slice(),
                [
                    Response::Status {
                        state: JobState::Running,
                        trials_done: 0,
                        trials_total: 2,
                        ..
                    },
                    Response::Error {
                        kind: ErrorKind::Internal,
                        ..
                    },
                ]
            ),
            "answered {answered:?}"
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
