//! The `qsdc-serve` wire protocol: request/response types for the
//! multi-tenant session service.
//!
//! Clients speak **newline-delimited JSON** over a plain TCP stream: every
//! line is one serialized [`Request`] (client → server) or [`Response`]
//! (server → client). The protocol is strictly line-oriented — a message
//! never contains a raw newline, a line never contains two messages — so a
//! client can be written with nothing but a socket and a JSON parser.
//!
//! These shapes are wire format in exactly the sense of the shard pipeline's
//! [`ShardPlan`](crate::engine::ShardPlan) and friends: they cross process
//! (and machine) boundaries, so their serialized bytes are locked by golden
//! fixtures under `tests/fixtures/` and any accidental rename or reorder
//! turns a fixture test red before it breaks a deployed client.
//!
//! A session with the server looks like:
//!
//! ```text
//! S: {"Hello":{"server":"qsdc-serve 0.2.0","wire_version":1,"quota":4,"snapshot_trials":8}}
//! C: {"Submit":{"job":{"Session":{"scenario":{...},"trials":64,"seed":7}}}}
//! S: {"Accepted":{"job":1}}
//! S: {"Snapshot":{"job":1,"trials_done":8,"trials_total":64,"summary":{...}}}
//! S: ...
//! S: {"Done":{"job":1,"summary":{...},"report":null}}
//! ```
//!
//! Backpressure is explicit: a `Submit` past the client's in-flight quota is
//! answered with [`Response::Busy`] — never silently dropped — and the
//! client retries after one of its jobs finishes. See `docs/service.md` for
//! the full grammar and semantics.

use crate::engine::{Campaign, CampaignReport, Scenario, TrialSummary};
use serde::{Deserialize, Serialize};

/// The wire-protocol version spoken by this build. The server announces it
/// in [`Response::Hello`]; clients reject servers they do not understand
/// rather than misinterpreting frames.
pub const WIRE_VERSION: u32 = 1;

/// The spool job-manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u32 = 1;

/// The work a client submits: a single-scenario sweep or a whole campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// Run `trials` trials of one scenario under `seed`, exactly as
    /// [`SessionEngine::run_trials`](crate::engine::SessionEngine::run_trials)
    /// would — the result is byte-identical to the local run.
    Session {
        /// The scenario to execute.
        scenario: Scenario,
        /// Number of trials.
        trials: usize,
        /// The engine's master seed.
        seed: u64,
    },
    /// Run a stored campaign definition (session workloads only — sampled
    /// workloads run circuit experiments, which have no shard queue, and
    /// are refused with [`ErrorKind::Unsupported`]).
    Campaign {
        /// The campaign to execute.
        campaign: Campaign,
    },
}

/// One client → server message (one JSON line).
/// (Variant size skew is fine: requests are parsed once per line, not
/// stored in bulk.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Submit a job. Answered with [`Response::Accepted`] or
    /// [`Response::Busy`].
    Submit {
        /// What to run.
        job: JobSpec,
    },
    /// Cancel an accepted job. Workers stop claiming its shards; the job is
    /// marked cancelled in the spool so a restarted server does not resume
    /// it. Answered with [`Response::Cancelled`] or an `UnknownJob` error.
    Cancel {
        /// The job id from [`Response::Accepted`].
        job: u64,
    },
    /// Ask for a job's progress. Answered with [`Response::Status`].
    Status {
        /// The job id from [`Response::Accepted`].
        job: u64,
    },
    /// Liveness probe. Answered with [`Response::Pong`].
    Ping,
}

/// A job's lifecycle state as reported by [`Response::Status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted and being drained by the worker pool.
    Running,
    /// Every shard done; the final result is written and sent.
    Done,
    /// Cancelled by the client; no result will be produced.
    Cancelled,
}

/// Why the server refused a request (the `kind` of [`Response::Error`]).
/// Named kinds so tests — and clients — can match on the cause instead of
/// parsing prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The line was not valid JSON, or parsed to no known [`Request`].
    Malformed,
    /// The line exceeded the server's maximum frame length. The remainder
    /// of the oversized line is discarded; the connection stays usable.
    Oversized,
    /// A `Cancel`/`Status` named a job this server does not know.
    UnknownJob,
    /// The job is well-formed but not servable (e.g. a sampled-workload
    /// campaign, whose circuit points have no shard queue).
    Unsupported,
    /// The job would split into more shards than the server admits per
    /// job; the message names the limit. Nothing was reserved or spooled.
    TooLarge,
    /// The server hit an internal fault (I/O, queue corruption) serving the
    /// request; the message carries the underlying error's rendering.
    Internal,
}

/// One server → client message (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The greeting sent once per connection, before any request.
    Hello {
        /// Server name and version, for diagnostics.
        server: String,
        /// The protocol version ([`WIRE_VERSION`]); clients must check it.
        wire_version: u32,
        /// This client's in-flight job quota.
        quota: usize,
        /// Snapshot streaming granularity: a [`Response::Snapshot`] is sent
        /// roughly every this many completed trials.
        snapshot_trials: usize,
    },
    /// The submitted job was accepted under this id and spooled durably —
    /// from here on, even a SIGKILLed server finishes it after restart.
    Accepted {
        /// The job's id, unique per spool directory.
        job: u64,
    },
    /// Backpressure: the client already has `in_flight` unfinished jobs, at
    /// or above its quota. The submission was **not** enqueued; retry after
    /// one of the in-flight jobs completes.
    Busy {
        /// The client's currently unfinished job count.
        in_flight: usize,
        /// The per-client in-flight quota.
        quota: usize,
    },
    /// A streaming progress snapshot: the merged summary of the contiguous
    /// completed prefix of the job's trials. Sent roughly every
    /// `snapshot_trials` completed trials (session jobs only).
    Snapshot {
        /// The job this snapshot belongs to.
        job: u64,
        /// Trials covered by this snapshot (the contiguous done prefix).
        trials_done: u64,
        /// The job's total trial count.
        trials_total: u64,
        /// Summary over the first `trials_done` trials, byte-identical to a
        /// local run of that prefix.
        summary: TrialSummary,
    },
    /// The job finished. Exactly one of `summary` (session jobs) or
    /// `report` (campaign jobs) is present.
    Done {
        /// The finished job.
        job: u64,
        /// The final merged summary of a session job.
        summary: Option<TrialSummary>,
        /// The folded report of a campaign job.
        report: Option<CampaignReport>,
    },
    /// The job was cancelled; no result will be produced.
    Cancelled {
        /// The cancelled job.
        job: u64,
    },
    /// Progress report for a [`Request::Status`].
    Status {
        /// The queried job.
        job: u64,
        /// Lifecycle state.
        state: JobState,
        /// Completed trials so far.
        trials_done: u64,
        /// The job's total trial count.
        trials_total: u64,
    },
    /// Liveness answer to [`Request::Ping`].
    Pong,
    /// The request was refused; `kind` names the cause.
    Error {
        /// The named cause.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// The durable record of an accepted job, written to
/// `spool/job-NNNNNNNNNN/job.json` before the job is acknowledged. A
/// restarted server rescans the spool, reopens each manifest, and finishes
/// every job that has no final result yet — byte-identically, because the
/// shard queue under the same directory is the real persistence layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobManifest {
    /// Manifest format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// The job id ([`Response::Accepted`]).
    pub job: u64,
    /// The submitting client's identity (diagnostics only).
    pub client: String,
    /// What to run.
    pub spec: JobSpec,
    /// Shard granularity the job was lowered with (also the snapshot
    /// streaming interval for session jobs).
    pub shard_trials: usize,
}
