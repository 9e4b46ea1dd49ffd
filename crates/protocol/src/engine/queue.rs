//! A resumable, work-stealing shard queue persisted to a shared directory.
//!
//! The `shard` module makes a sweep *location-independent*:
//! a [`ShardPlan`] fully determines its trials, so shards execute anywhere
//! and merge back byte-identically. This module adds the missing *scheduler*
//! for a heterogeneous fleet: instead of hand-assigning one static shard per
//! worker (and restarting the whole sweep when any worker dies), a
//! [`ShardQueue`] decomposes the run into fine-grained sub-plans and hands
//! them out on a **claim/lease** basis:
//!
//! - A fast worker simply claims again sooner, so it naturally drains more
//!   shards than a slow one — no capacity model required.
//! - A claim is a *lease*, not an assignment: if the worker dies (or just
//!   stalls past its lease), the shard becomes claimable again and another
//!   worker re-executes it. Re-execution is always safe because a shard's
//!   result is a pure function of its plan — whichever worker submits first,
//!   the recorded bytes are identical.
//!
//! All coordination happens through one shared directory (local disk, NFS, or
//! any shared filesystem) — no network daemon:
//!
//! ```text
//! queue-dir/
//!   checkpoint.json   the MergeCheckpoint: whole-run plan + per-shard state
//!   queue.lock        advisory file lock serializing checkpoint mutations
//!   results/          one ShardResult JSON file per completed shard
//! ```
//!
//! The `checkpoint.json` manifest **is** the [`MergeCheckpoint`]: a
//! versioned, serde-persisted record of the whole-run plan, the payload kind,
//! and every shard's completion state — including a content fingerprint of
//! each completed result file. Checkpoint writes are atomic (write-temp +
//! rename), so a worker SIGKILLed at any instant leaves the directory either
//! before or after its last transition, never in between. A killed sweep
//! therefore resumes exactly where it stopped: completed shards are trusted
//! (their fingerprints still verify), expired leases are re-issued, and the
//! final [`merge`](ShardQueue::merge) is byte-identical to an uninterrupted
//! single-process run.
//!
//! A [`ShardWorker`] is the worker loop: claim, execute under a lease
//! heartbeat, submit, until the queue is drained.
//!
//! ```rust
//! use protocol::engine::{Scenario, SessionEngine, ShardOutput, ShardQueue, ShardWorker};
//! use protocol::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let identities = IdentityPair::generate(3, &mut rng);
//! let config = SessionConfig::builder()
//!     .message_bits(8)
//!     .check_bits(2)
//!     .di_check_pairs(24)
//!     .build()?;
//! let scenario = Scenario::new(config, identities);
//!
//! let engine = SessionEngine::new(42);
//! let dir = std::env::temp_dir().join(format!("queue-doc-{}", std::process::id()));
//! let queue = ShardQueue::init(&dir, &engine.plan(&scenario, 6), 2, ShardOutput::Summary)?;
//!
//! // Any number of workers, possibly on other machines, drain the queue:
//! let worker = ShardWorker { name: "worker-1".into(), ..ShardWorker::default() };
//! assert_eq!(worker.drain(&queue, ShardOutput::Summary)?, 3);
//! let merged = queue.merge()?.into_summary().unwrap();
//! assert_eq!(merged, engine.run_trials(&scenario, 6)?);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```
//!
//! The `shardctl queue` subcommands (in the `bench` crate) expose the same
//! operations between processes: `init`, `claim`, `submit`, `status`,
//! `resume`, and `work`, which runs a [`ShardWorker`].

use super::shard::{
    MergeError, MergedRun, RunHeader, ShardMerger, ShardOutput, ShardPayload, ShardPlan,
    ShardResult,
};
use super::SessionEngine;
use crate::error::ProtocolError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// The on-disk checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Name of the checkpoint manifest inside a queue directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";
/// Name of the advisory lock file inside a queue directory.
pub(crate) const LOCK_FILE: &str = "queue.lock";
/// Name of the results subdirectory inside a queue directory.
pub(crate) const RESULTS_DIR: &str = "results";
/// The shortest lease [`ShardQueue::claim`] will grant, in milliseconds.
///
/// A zero-length lease expires the instant it is granted (`expires_at_ms ==
/// now_ms`, which the claimable predicate already treats as expired), so the
/// same shard is immediately re-claimable and gets executed twice. Leases
/// below this floor are rejected with [`QueueError::LeaseTooShort`] rather
/// than silently granted as instant-steal tokens.
pub(crate) const MIN_LEASE_MS: u64 = 10;

/// Stable 64-bit FNV-1a content fingerprint of a result file's bytes, as
/// recorded in [`SlotState::Done`]. Any later corruption of the file —
/// truncation, bit rot, a concurrent partial write — is detected by
/// re-hashing at merge time.
pub fn content_fingerprint(bytes: &[u8]) -> u64 {
    super::fnv1a64(bytes)
}

/// The latest wall-clock reading [`now_ms`] has handed out, shared across
/// the process so a backwards-stepping system clock can never time-travel
/// lease arithmetic (see [`monotonic_ms`]).
static LAST_WALL_MS: AtomicU64 = AtomicU64::new(0);

/// Milliseconds since the UNIX epoch — the wall clock leases are expressed
/// in. The `*_at` method variants accept an explicit clock for deterministic
/// tests.
///
/// Readings are clamped to be non-decreasing across the process: a system
/// clock stepped backwards (NTP slew, VM migration) returns the last
/// observed time instead of a smaller one, because a backwards jump would
/// make every live lease look expired and trigger fleet-wide duplicate
/// re-execution.
///
/// # Errors
///
/// [`QueueError::Clock`] when the system clock reads before the UNIX epoch —
/// previously this was swallowed as `t = 0`, which mass-expired every live
/// lease; now the caller fails loudly instead.
pub(crate) fn now_ms() -> Result<u64, QueueError> {
    // detlint: allow(wall-clock): lease expiry is wall time by design; results use *_at variants
    let raw = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .map_err(|e| QueueError::Clock {
            message: e.to_string(),
        })?;
    Ok(monotonic_ms(raw, &LAST_WALL_MS))
}

/// Clamps `candidate` against the largest reading recorded in `last`,
/// recording `candidate` when it is the new maximum. The returned sequence
/// is non-decreasing no matter how the underlying clock jumps. Factored out
/// of [`now_ms`] (which feeds it the process-wide cell) so the saturation
/// behaviour is unit-testable with an injected clock.
fn monotonic_ms(candidate: u64, last: &AtomicU64) -> u64 {
    let previous = last.fetch_max(candidate, Ordering::Relaxed);
    candidate.max(previous)
}

// -------------------------------------------------------------- checkpoint --

/// The lifecycle state of one shard slot in the checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SlotState {
    /// Not yet claimed by any worker (or reclaimed after a lease expired).
    Pending,
    /// Claimed by a worker; claimable again once the lease expires.
    Leased {
        /// The claiming worker's self-reported name (diagnostics only —
        /// results are accepted from any worker).
        worker: String,
        /// Wall-clock lease expiry, in milliseconds since the UNIX epoch.
        expires_at_ms: u64,
    },
    /// Completed: the result file is on disk.
    Done {
        /// [`content_fingerprint`] of the result file's exact bytes.
        result_fingerprint: u64,
    },
}

/// One shard's entry in the checkpoint: its trial range plus completion
/// state. The sub-plan itself is not duplicated here — it is re-derived from
/// the whole-run plan via [`ShardPlan::subrange`], which re-stamps
/// provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSlot {
    /// First trial index of this shard's range.
    pub trial_start: u64,
    /// Number of trials in this shard.
    pub trial_count: usize,
    /// Current lifecycle state.
    pub state: SlotState,
}

impl ShardSlot {
    /// Name of this slot's result file inside `RESULTS_DIR`. Zero-padded so
    /// lexical order equals trial order.
    pub fn result_file_name(&self) -> String {
        format!(
            "shard-{:010}-{:06}.json",
            self.trial_start, self.trial_count
        )
    }
}

/// The versioned, serde-persisted record of a queued sweep: the whole-run
/// [`ShardPlan`], the payload kind every worker must produce, and every
/// shard's completion state (with per-shard result-file fingerprints). This
/// is the `checkpoint.json` manifest of a queue directory; together with the
/// results directory it is everything needed to resume a killed sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergeCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]); readers reject versions they
    /// do not understand rather than misinterpreting the manifest.
    pub version: u32,
    /// The whole-run plan this queue drains.
    pub plan: ShardPlan,
    /// The payload kind every shard of this run produces.
    pub output: ShardOutput,
    /// Per-shard state, in trial order.
    pub shards: Vec<ShardSlot>,
}

impl MergeCheckpoint {
    /// Counts of slots per state: `(pending, leased, done)`.
    fn state_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for slot in &self.shards {
            match slot.state {
                SlotState::Pending => counts.0 += 1,
                SlotState::Leased { .. } => counts.1 += 1,
                SlotState::Done { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

/// A point-in-time summary of a queue's progress (see
/// [`ShardQueue::status`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueStatus {
    /// Total shard slots in the checkpoint.
    pub total_shards: usize,
    /// Slots not yet claimed.
    pub pending: usize,
    /// Slots currently leased to a worker.
    pub leased: usize,
    /// Completed slots.
    pub done: usize,
    /// Trials covered by completed slots.
    pub trials_done: u64,
    /// Trials of the whole run.
    pub trials_total: usize,
}

impl QueueStatus {
    /// `true` once every shard is done.
    pub fn complete(&self) -> bool {
        self.done == self.total_shards
    }
}

impl fmt::Display for QueueStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} shards done ({}/{} trials), {} leased, {} pending",
            self.done,
            self.total_shards,
            self.trials_done,
            self.trials_total,
            self.leased,
            self.pending
        )
    }
}

/// What [`ShardQueue::claim`] handed back.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimOutcome {
    /// A shard was leased to the caller: execute this sub-plan and
    /// [`submit`](ShardQueue::submit) its result. (Boxed: a plan carries its
    /// whole scenario, which would dominate the enum's size.)
    Claimed(Box<ShardPlan>),
    /// Nothing is claimable right now, but other workers hold live leases —
    /// poll again (a lease may expire, or the queue may drain).
    Wait {
        /// Number of currently leased shards.
        leased: usize,
    },
    /// Every shard is done; the worker can exit.
    Drained,
}

/// What [`ShardQueue::submit`] did with a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The result was persisted and its slot marked done.
    Recorded,
    /// Another worker already completed this shard (a benign work-stealing
    /// race — both results are bit-identical by construction); the submission
    /// was discarded.
    AlreadyDone,
}

// ------------------------------------------------------------------ errors --

/// Why a queue operation failed. Every filesystem-shaped failure names the
/// offending file, and merge-stage failures carry the precise
/// [`MergeError`] — a fault-injection suite (and an operator) can tell a
/// truncated result file from a corrupted one from a checkpoint that belongs
/// to a different plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QueueError {
    /// An I/O operation failed on `path`.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error rendering.
        message: String,
    },
    /// A file held syntactically invalid JSON (e.g. truncated mid-write).
    Parse {
        /// The unparseable file.
        path: PathBuf,
        /// The parser's diagnosis.
        message: String,
    },
    /// The checkpoint was written by an incompatible format version.
    Version {
        /// The checkpoint file.
        path: PathBuf,
        /// Version found on disk.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The checkpoint's plan fails [`ShardPlan::validate`] — the manifest was
    /// edited after it was written.
    InvalidPlan(crate::error::ProtocolError),
    /// A checkpoint shard slot's trial range lies outside its plan's range —
    /// the manifest was corrupted or edited after it was written.
    InvalidSlot {
        /// The checkpoint file.
        path: PathBuf,
        /// The out-of-range slot's first trial.
        trial_start: u64,
        /// The out-of-range slot's trial count.
        trial_count: usize,
    },
    /// The directory holds no checkpoint — it is not an initialized queue.
    NotInitialized {
        /// The absent checkpoint file.
        path: PathBuf,
    },
    /// `init` on a directory that already holds a checkpoint.
    AlreadyInitialized {
        /// The existing checkpoint file.
        path: PathBuf,
    },
    /// A submitted result's trial range matches no slot of the checkpoint.
    UnknownShard {
        /// The alien result's first trial.
        trial_start: u64,
        /// The alien result's trial count.
        trial_count: usize,
    },
    /// A claim (or lease extension) asked for a lease shorter than
    /// `MIN_LEASE_MS`. A zero-length lease is an instant-steal token — the
    /// shard would be re-claimable the moment it was granted and executed
    /// twice — so too-short leases are refused instead of granted.
    LeaseTooShort {
        /// The lease the caller asked for, in milliseconds.
        lease_ms: u64,
        /// The smallest lease this queue grants (`MIN_LEASE_MS`).
        min_ms: u64,
    },
    /// A heartbeat tried to extend a lease the worker does not currently
    /// hold: the slot is pending (the lease expired and was reclaimed),
    /// already done, or leased to another worker. The caller must treat its
    /// shard as lost — another worker may already be re-executing it.
    LeaseNotHeld {
        /// First trial of the shard whose lease was refused.
        trial_start: u64,
        /// Trial count of the shard whose lease was refused.
        trial_count: usize,
        /// The worker whose heartbeat was refused.
        worker: String,
        /// The slot's actual state: `pending`, `done`, or `leased to <w>`.
        state: String,
    },
    /// The system wall clock read before the UNIX epoch, so lease expiry
    /// times cannot be computed. Previously this was swallowed as `t = 0`,
    /// which made every live lease look expired and triggered fleet-wide
    /// duplicate re-execution; now it fails loudly.
    Clock {
        /// The underlying [`std::time::SystemTimeError`] rendering.
        message: String,
    },
    /// A completed result file's bytes no longer hash to the fingerprint the
    /// checkpoint recorded at submit time.
    Corrupt {
        /// The corrupted result file.
        path: PathBuf,
        /// Fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the bytes on disk.
        found: u64,
    },
    /// A result file the checkpoint marks done is missing from the results
    /// directory.
    Missing {
        /// The expected result file.
        path: PathBuf,
    },
    /// A merge-stage check failed; `path` names the offending result file
    /// when one is involved (a header mismatch against the plan during
    /// `submit` carries no file).
    Merge {
        /// The offending result file, if the failure is file-shaped.
        path: Option<PathBuf>,
        /// The precise merge failure.
        error: MergeError,
    },
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::Io { path, message } => {
                write!(f, "I/O error on {}: {message}", path.display())
            }
            QueueError::Parse { path, message } => write!(
                f,
                "invalid JSON in {} (truncated or corrupt): {message}",
                path.display()
            ),
            QueueError::Version {
                path,
                found,
                supported,
            } => write!(
                f,
                "checkpoint {} is format version {found}, this build supports {supported}",
                path.display()
            ),
            QueueError::InvalidPlan(error) => {
                write!(f, "checkpoint plan fails validation: {error}")
            }
            QueueError::InvalidSlot {
                path,
                trial_start,
                trial_count,
            } => write!(
                f,
                "checkpoint {} holds a shard slot covering trials {trial_start}..{} outside \
                 its plan's range; the manifest was corrupted or edited",
                path.display(),
                trial_start.saturating_add(*trial_count as u64)
            ),
            QueueError::NotInitialized { path } => write!(
                f,
                "no queue checkpoint at {}: the directory is not an initialized queue",
                path.display()
            ),
            QueueError::AlreadyInitialized { path } => {
                write!(f, "queue already initialized: {} exists", path.display())
            }
            QueueError::UnknownShard {
                trial_start,
                trial_count,
            } => write!(
                f,
                "result for trials {trial_start}..{} matches no shard of this queue",
                trial_start + *trial_count as u64
            ),
            QueueError::LeaseTooShort { lease_ms, min_ms } => write!(
                f,
                "lease of {lease_ms} ms is below the {min_ms} ms minimum: it would expire the \
                 instant it was granted and the shard would be executed twice"
            ),
            QueueError::LeaseNotHeld {
                trial_start,
                trial_count,
                worker,
                state,
            } => write!(
                f,
                "worker {worker} no longer holds the lease on trials {trial_start}..{} \
                 (slot is {state}); treat the shard as lost",
                trial_start.saturating_add(*trial_count as u64)
            ),
            QueueError::Clock { message } => write!(
                f,
                "system wall clock reads before the UNIX epoch ({message}); refusing to \
                 compute lease expiries from it"
            ),
            QueueError::Corrupt {
                path,
                expected,
                found,
            } => write!(
                f,
                "result file {} is corrupt: content fingerprint {found:#018x} does not match \
                 the checkpoint's {expected:#018x}",
                path.display()
            ),
            QueueError::Missing { path } => write!(
                f,
                "result file {} is marked done in the checkpoint but missing on disk",
                path.display()
            ),
            QueueError::Merge { path, error } => match path {
                Some(path) => write!(f, "cannot merge {}: {error}", path.display()),
                None => write!(f, "merge failed: {error}"),
            },
        }
    }
}

impl std::error::Error for QueueError {}

// ------------------------------------------------------------------- queue --

/// A claimable, resumable work queue over one sharded run, backed by a
/// shared directory (see the [module docs](self) for the layout and the
/// lease/work-stealing semantics).
///
/// A `ShardQueue` value is just the directory handle; all state lives on
/// disk, so any number of `ShardQueue`s in any number of processes (or
/// machines sharing the filesystem) operate on the same sweep. Mutating
/// operations serialize through an advisory file lock; checkpoint writes are
/// atomic (temp file + rename), so readers never observe a partial manifest.
#[derive(Debug, Clone)]
pub struct ShardQueue {
    dir: PathBuf,
}

impl ShardQueue {
    /// Creates a queue directory for `plan`, decomposed into sub-shards of at
    /// most `shard_trials` trials each (fine-grained shards are what let
    /// heterogeneous workers balance load — slow workers simply claim fewer).
    ///
    /// # Errors
    ///
    /// [`QueueError::AlreadyInitialized`] when the directory already holds a
    /// checkpoint, [`QueueError::InvalidPlan`] when the plan fails
    /// [`ShardPlan::validate`], or an I/O error.
    ///
    /// # Panics
    ///
    /// Panics when `shard_trials` is 0 (as [`ShardPlan::split_max`] does).
    pub fn init(
        dir: impl Into<PathBuf>,
        plan: &ShardPlan,
        shard_trials: usize,
        output: ShardOutput,
    ) -> Result<Self, QueueError> {
        let queue = Self { dir: dir.into() };
        plan.validate().map_err(QueueError::InvalidPlan)?;
        fs::create_dir_all(queue.results_dir()).map_err(|e| QueueError::Io {
            path: queue.results_dir(),
            message: e.to_string(),
        })?;
        // The existence check happens under the lock: two racing `init`s must
        // resolve to one checkpoint and one AlreadyInitialized error, never a
        // silent overwrite.
        let _lock = queue.lock()?;
        let checkpoint_path = queue.checkpoint_path();
        if checkpoint_path.exists() {
            return Err(QueueError::AlreadyInitialized {
                path: checkpoint_path,
            });
        }
        let shards = plan
            .split_max(shard_trials)
            .into_iter()
            .map(|sub| ShardSlot {
                trial_start: sub.trial_start,
                trial_count: sub.trial_count,
                state: SlotState::Pending,
            })
            .collect();
        let checkpoint = MergeCheckpoint {
            version: CHECKPOINT_VERSION,
            plan: plan.clone(),
            output,
            shards,
        };
        queue.save(&checkpoint)?;
        Ok(queue)
    }

    /// Opens an existing queue directory, verifying that its checkpoint
    /// parses, carries a supported version, and holds a valid plan with
    /// in-range slots.
    ///
    /// # Errors
    ///
    /// [`QueueError::NotInitialized`] / [`QueueError::Parse`] /
    /// [`QueueError::Version`] / [`QueueError::InvalidPlan`] /
    /// [`QueueError::InvalidSlot`] as appropriate.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, QueueError> {
        let queue = Self { dir: dir.into() };
        queue.load()?;
        Ok(queue)
    }

    /// The queue directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the checkpoint manifest.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }

    /// Path of the results directory.
    pub(crate) fn results_dir(&self) -> PathBuf {
        self.dir.join(RESULTS_DIR)
    }

    /// Path of a slot's result file.
    pub fn result_path(&self, slot: &ShardSlot) -> PathBuf {
        self.results_dir().join(slot.result_file_name())
    }

    /// Reads the current checkpoint (no lock needed: checkpoint writes are
    /// atomic renames, so this sees a consistent manifest).
    ///
    /// # Errors
    ///
    /// As for [`open`](Self::open).
    pub fn checkpoint(&self) -> Result<MergeCheckpoint, QueueError> {
        self.load()
    }

    /// Claims the next available shard for `worker` under a lease of
    /// `lease_ms` milliseconds of wall-clock time, re-issuing any lease that
    /// has already expired (the work-stealing path: a dead worker's shards
    /// come back automatically).
    ///
    /// # Errors
    ///
    /// Checkpoint load/store failures, [`QueueError::LeaseTooShort`] for
    /// leases under `MIN_LEASE_MS`, or [`QueueError::Clock`] when the
    /// system clock is unusable.
    pub fn claim(&self, worker: &str, lease_ms: u64) -> Result<ClaimOutcome, QueueError> {
        self.claim_at(worker, lease_ms, now_ms()?)
    }

    /// [`claim`](Self::claim) with an explicit clock (milliseconds since the
    /// UNIX epoch) for deterministic tests.
    ///
    /// # Errors
    ///
    /// Checkpoint load/store failures, or [`QueueError::LeaseTooShort`] for
    /// leases under `MIN_LEASE_MS`.
    pub fn claim_at(
        &self,
        worker: &str,
        lease_ms: u64,
        now_ms: u64,
    ) -> Result<ClaimOutcome, QueueError> {
        if lease_ms < MIN_LEASE_MS {
            return Err(QueueError::LeaseTooShort {
                lease_ms,
                min_ms: MIN_LEASE_MS,
            });
        }
        let _lock = self.lock()?;
        let mut checkpoint = self.load()?;
        let claimable = checkpoint.shards.iter_mut().find(|slot| match &slot.state {
            SlotState::Pending => true,
            SlotState::Leased { expires_at_ms, .. } => *expires_at_ms <= now_ms,
            SlotState::Done { .. } => false,
        });
        let Some(slot) = claimable else {
            let (_, leased, done) = checkpoint.state_counts();
            return Ok(if done == checkpoint.shards.len() {
                ClaimOutcome::Drained
            } else {
                ClaimOutcome::Wait { leased }
            });
        };
        slot.state = SlotState::Leased {
            worker: worker.to_string(),
            expires_at_ms: now_ms.saturating_add(lease_ms),
        };
        let plan = subplan(&checkpoint.plan, slot.trial_start, slot.trial_count);
        self.save(&checkpoint)?;
        Ok(ClaimOutcome::Claimed(Box::new(plan)))
    }

    /// Extends `worker`'s lease on the shard covering `plan`'s trial range
    /// to `lease_ms` milliseconds from now — the heartbeat a slow-but-alive
    /// worker sends so its shard is not stolen mid-run and computed twice.
    ///
    /// Worker-identity-checked: only the current leaseholder may extend. A
    /// lease that has nominally expired but not yet been stolen is still
    /// re-assertable by its holder (the extension happens under the queue
    /// lock, so it races cleanly with a would-be thief's claim: whichever
    /// lands first wins and the other sees the slot's new state). A
    /// heartbeat never shortens a lease. Returns the new expiry time.
    ///
    /// # Errors
    ///
    /// [`QueueError::LeaseNotHeld`] when the slot is pending, done, or
    /// leased to someone else; [`QueueError::UnknownShard`] when the range
    /// matches no slot; [`QueueError::LeaseTooShort`] for extensions under
    /// [`MIN_LEASE_MS`]; [`QueueError::Clock`] when the system clock is
    /// unusable; or checkpoint load/store failures.
    pub(crate) fn extend_lease(
        &self,
        worker: &str,
        plan: &ShardPlan,
        lease_ms: u64,
    ) -> Result<u64, QueueError> {
        self.extend_lease_at(worker, plan, lease_ms, now_ms()?)
    }

    /// `extend_lease` with an explicit clock for
    /// deterministic tests.
    ///
    /// # Errors
    ///
    /// As for `extend_lease`.
    pub fn extend_lease_at(
        &self,
        worker: &str,
        plan: &ShardPlan,
        lease_ms: u64,
        now_ms: u64,
    ) -> Result<u64, QueueError> {
        if lease_ms < MIN_LEASE_MS {
            return Err(QueueError::LeaseTooShort {
                lease_ms,
                min_ms: MIN_LEASE_MS,
            });
        }
        let _lock = self.lock()?;
        let mut checkpoint = self.load()?;
        let Some(slot) = checkpoint
            .shards
            .iter_mut()
            .find(|s| s.trial_start == plan.trial_start && s.trial_count == plan.trial_count)
        else {
            return Err(QueueError::UnknownShard {
                trial_start: plan.trial_start,
                trial_count: plan.trial_count,
            });
        };
        let refused = |state: String| QueueError::LeaseNotHeld {
            trial_start: plan.trial_start,
            trial_count: plan.trial_count,
            worker: worker.to_string(),
            state,
        };
        match &mut slot.state {
            SlotState::Leased {
                worker: holder,
                expires_at_ms,
            } if holder == worker => {
                *expires_at_ms = (*expires_at_ms).max(now_ms.saturating_add(lease_ms));
                let extended = *expires_at_ms;
                self.save(&checkpoint)?;
                Ok(extended)
            }
            SlotState::Leased { worker: holder, .. } => Err(refused(format!("leased to {holder}"))),
            SlotState::Pending => Err(refused("pending".to_string())),
            SlotState::Done { .. } => Err(refused("done".to_string())),
        }
    }

    /// Spawns a heartbeat thread that re-extends `worker`'s lease on `plan`
    /// every `lease_ms / 3` milliseconds until the returned guard is
    /// dropped, so a shard whose execution legitimately outlives its lease
    /// is never stolen from a live worker. The thread stops on its own the
    /// moment an extension is refused (the lease was lost — the executor's
    /// submit path handles the resulting benign duplicate).
    ///
    /// Drop the guard right after [`submit`](Self::submit); dropping joins
    /// the thread.
    pub fn heartbeat(&self, worker: &str, plan: &ShardPlan, lease_ms: u64) -> LeaseHeartbeat {
        let queue = self.clone();
        let worker = worker.to_string();
        let plan = plan.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let period = Duration::from_millis((lease_ms / 3).max(1));
        let handle = thread::spawn(move || loop {
            thread::park_timeout(period);
            if flag.load(Ordering::Relaxed) {
                break;
            }
            if queue.extend_lease(&worker, &plan, lease_ms).is_err() {
                break;
            }
        });
        LeaseHeartbeat {
            stop,
            handle: Some(handle),
        }
    }

    /// Persists a completed shard result and marks its slot done. Accepts a
    /// valid result for any non-done slot regardless of who holds the lease:
    /// results are pure functions of their plans, so a late submission from a
    /// presumed-dead worker is bit-identical to the re-executed one and
    /// recording whichever arrives first is safe.
    ///
    /// # Errors
    ///
    /// [`QueueError::Merge`] when the result's header does not belong to this
    /// queue's plan (wrong fingerprint / seed / backend / total, or a payload
    /// whose length or kind is wrong), [`QueueError::UnknownShard`] when its
    /// range matches no slot, or checkpoint/result I/O failures.
    pub fn submit(&self, result: &ShardResult) -> Result<SubmitOutcome, QueueError> {
        let _lock = self.lock()?;
        let mut checkpoint = self.load()?;
        validate_result_header(&checkpoint, result, None)?;
        let Some(slot) = checkpoint
            .shards
            .iter_mut()
            .find(|s| s.trial_start == result.trial_start && s.trial_count == result.trial_count)
        else {
            return Err(QueueError::UnknownShard {
                trial_start: result.trial_start,
                trial_count: result.trial_count,
            });
        };
        if matches!(slot.state, SlotState::Done { .. }) {
            return Ok(SubmitOutcome::AlreadyDone);
        }
        let bytes = serde::json::to_string(result).into_bytes();
        let fingerprint = content_fingerprint(&bytes);
        let path = self.results_dir().join(slot.result_file_name());
        write_atomically(&path, &bytes)?;
        slot.state = SlotState::Done {
            result_fingerprint: fingerprint,
        };
        self.save(&checkpoint)?;
        Ok(SubmitOutcome::Recorded)
    }

    /// The queue's current progress.
    ///
    /// # Errors
    ///
    /// Checkpoint load failures.
    pub fn status(&self) -> Result<QueueStatus, QueueError> {
        Ok(status_of(&self.load()?))
    }

    /// Recovers a (possibly killed) sweep: verifies every completed result
    /// file on disk against its checkpointed fingerprint, then returns every
    /// expired lease to the pending state so workers can re-claim the dead
    /// workers' shards. Returns the status after recovery.
    ///
    /// The verification is deliberately strict — a truncated or corrupted
    /// result file fails the resume with an error naming that file rather
    /// than being silently re-executed, so an operator sees the fault before
    /// trusting the directory again.
    ///
    /// # Errors
    ///
    /// [`QueueError::Missing`] / [`QueueError::Corrupt`] /
    /// [`QueueError::Parse`] / [`QueueError::Merge`] naming the offending
    /// result file, checkpoint load/store failures, or
    /// [`QueueError::Clock`] when the system clock is unusable.
    pub fn recover(&self) -> Result<QueueStatus, QueueError> {
        self.recover_at(now_ms()?)
    }

    /// [`recover`](Self::recover) with an explicit clock for deterministic
    /// tests. `u64::MAX` expires every lease: the restart path of a process
    /// that is the queue's only user.
    ///
    /// # Errors
    ///
    /// As for [`recover`](Self::recover).
    pub fn recover_at(&self, now_ms: u64) -> Result<QueueStatus, QueueError> {
        let _lock = self.lock()?;
        let mut checkpoint = self.load()?;
        // Verify completed work first: resuming must fail loudly on a
        // damaged results directory, never paper over it.
        self.verified_done_results(&checkpoint)?;
        let status = expire_leases(&mut checkpoint, now_ms);
        self.save(&checkpoint)?;
        Ok(status)
    }

    /// The whole resume path in one pass over the results directory:
    /// [`recover`](Self::recover), plus — when recovery leaves every shard
    /// done — the final merge of the already-verified results. Returns the
    /// post-recovery status and, for a complete sweep, the merged run
    /// (byte-identical to the uninterrupted single-process sweep).
    ///
    /// # Errors
    ///
    /// As for [`recover`](Self::recover) and [`merge`](Self::merge).
    pub fn resume(&self) -> Result<(QueueStatus, Option<MergedRun>), QueueError> {
        self.resume_at(now_ms()?)
    }

    /// [`resume`](Self::resume) with an explicit clock for deterministic
    /// tests.
    ///
    /// # Errors
    ///
    /// As for [`resume`](Self::resume).
    pub(crate) fn resume_at(
        &self,
        now_ms: u64,
    ) -> Result<(QueueStatus, Option<MergedRun>), QueueError> {
        let _lock = self.lock()?;
        let mut checkpoint = self.load()?;
        let results = self.verified_done_results(&checkpoint)?;
        let status = expire_leases(&mut checkpoint, now_ms);
        self.save(&checkpoint)?;
        let merged = if status.complete() {
            Some(fold_results(results)?)
        } else {
            None
        };
        Ok((status, merged))
    }

    /// Folds every completed shard through a [`ShardMerger`] in trial order —
    /// verifying each result file's fingerprint and header on the way — and
    /// returns the merged run, byte-identical to the uninterrupted
    /// single-process sweep.
    ///
    /// # Errors
    ///
    /// [`QueueError::Merge`] with [`MergeError::Incomplete`] when shards are
    /// still outstanding; otherwise file faults
    /// ([`QueueError::Missing`] / [`QueueError::Corrupt`] /
    /// [`QueueError::Parse`]) or merge-stage failures, each naming the
    /// offending result file.
    pub fn merge(&self) -> Result<MergedRun, QueueError> {
        let checkpoint = self.load()?;
        let status = status_of(&checkpoint);
        if !status.complete() {
            return Err(QueueError::Merge {
                path: None,
                error: MergeError::Incomplete {
                    merged: status.trials_done,
                    total: checkpoint.plan.trial_count,
                },
            });
        }
        fold_results(self.verified_done_results(&checkpoint)?)
    }

    /// Folds the contiguous run of done shards at the front of the queue
    /// into one payload: `(prefix_trials, payload)`, or `None` while the
    /// first shard is not done. Each result file is verified exactly as
    /// [`merge`](Self::merge) verifies it, so the prefix is byte-identical to
    /// the same trials merged from a finished sweep. Takes no lock: the
    /// checkpoint is read atomically and done result files never change.
    ///
    /// # Errors
    ///
    /// Checkpoint load failures, or file faults ([`QueueError::Missing`] /
    /// [`QueueError::Corrupt`] / [`QueueError::Parse`] /
    /// [`QueueError::Merge`]) naming the offending result file.
    pub fn done_prefix(&self) -> Result<Option<(u64, ShardPayload)>, QueueError> {
        let checkpoint = self.load()?;
        let mut prefix: Option<(u64, ShardPayload)> = None;
        for slot in &checkpoint.shards {
            let SlotState::Done { result_fingerprint } = slot.state else {
                break;
            };
            let (path, result) = self.verified_result_bytes(slot, result_fingerprint)?;
            validate_result_header(&checkpoint, &result, Some(path))?;
            let trials = slot.trial_count as u64;
            match &mut prefix {
                None => prefix = Some((trials, result.payload)),
                Some((done, payload)) => {
                    *done += trials;
                    payload.append(result.payload);
                }
            }
        }
        Ok(prefix)
    }

    /// Reads, checksum-verifies, parses and header-checks every completed
    /// slot's result file, in trial order.
    fn verified_done_results(
        &self,
        checkpoint: &MergeCheckpoint,
    ) -> Result<Vec<(PathBuf, ShardResult)>, QueueError> {
        let mut results = Vec::new();
        for slot in &checkpoint.shards {
            if let SlotState::Done { result_fingerprint } = slot.state {
                let (path, result) = self.verified_result_bytes(slot, result_fingerprint)?;
                validate_result_header(checkpoint, &result, Some(path.clone()))?;
                results.push((path, result));
            }
        }
        Ok(results)
    }

    /// Reads, checksum-verifies and parses one completed slot's result file.
    fn verified_result_bytes(
        &self,
        slot: &ShardSlot,
        expected_fingerprint: u64,
    ) -> Result<(PathBuf, ShardResult), QueueError> {
        let path = self.result_path(slot);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(QueueError::Missing { path });
            }
            Err(e) => {
                return Err(QueueError::Io {
                    path,
                    message: e.to_string(),
                });
            }
        };
        let found = content_fingerprint(&bytes);
        if found != expected_fingerprint {
            return Err(QueueError::Corrupt {
                path,
                expected: expected_fingerprint,
                found,
            });
        }
        let text = String::from_utf8(bytes).map_err(|e| QueueError::Parse {
            path: path.clone(),
            message: e.to_string(),
        })?;
        let result: ShardResult = serde::json::from_str(&text).map_err(|e| QueueError::Parse {
            path: path.clone(),
            message: e.to_string(),
        })?;
        Ok((path, result))
    }

    /// Takes the queue's advisory file lock (blocking). Dropping the guard
    /// releases it.
    fn lock(&self) -> Result<File, QueueError> {
        let path = self.dir.join(LOCK_FILE);
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)
            .map_err(|e| QueueError::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
        file.lock().map_err(|e| QueueError::Io {
            path,
            message: e.to_string(),
        })?;
        Ok(file)
    }

    /// Loads and fully validates the checkpoint.
    fn load(&self) -> Result<MergeCheckpoint, QueueError> {
        let path = self.checkpoint_path();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(QueueError::NotInitialized { path });
            }
            Err(e) => {
                return Err(QueueError::Io {
                    path,
                    message: e.to_string(),
                });
            }
        };
        // Version-gate before full decoding: a future format may not even
        // parse as today's shapes.
        let value = serde::json::parse(&text).map_err(|e| QueueError::Parse {
            path: path.clone(),
            message: e.to_string(),
        })?;
        let version =
            u32::from_value(value.get_field("version").map_err(|e| QueueError::Parse {
                path: path.clone(),
                message: e.to_string(),
            })?)
            .map_err(|e| QueueError::Parse {
                path: path.clone(),
                message: e.to_string(),
            })?;
        if version != CHECKPOINT_VERSION {
            return Err(QueueError::Version {
                path,
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let checkpoint = MergeCheckpoint::from_value(&value).map_err(|e| QueueError::Parse {
            path: path.clone(),
            message: e.to_string(),
        })?;
        checkpoint
            .plan
            .validate()
            .map_err(QueueError::InvalidPlan)?;
        // Range-check every slot against the plan so a corrupt or hand-edited
        // manifest surfaces as an error here, not as a panic when a slot's
        // sub-plan is later re-derived.
        let plan = &checkpoint.plan;
        for slot in &checkpoint.shards {
            let in_range = slot.trial_start >= plan.trial_start
                && slot
                    .trial_start
                    .checked_add(slot.trial_count as u64)
                    .is_some_and(|end| end <= plan.trial_end());
            if !in_range {
                return Err(QueueError::InvalidSlot {
                    path,
                    trial_start: slot.trial_start,
                    trial_count: slot.trial_count,
                });
            }
        }
        Ok(checkpoint)
    }

    /// Atomically persists the checkpoint (write temp + rename).
    fn save(&self, checkpoint: &MergeCheckpoint) -> Result<(), QueueError> {
        write_atomically(
            &self.checkpoint_path(),
            serde::json::to_string(checkpoint).as_bytes(),
        )
    }
}

/// The guard of a running [`ShardQueue::heartbeat`] thread. Dropping it
/// stops the heartbeat and joins the thread; the lease is then left to
/// expire naturally (a completed shard's slot is `Done` anyway, so expiry
/// is moot).
#[derive(Debug)]
pub struct LeaseHeartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Drop for LeaseHeartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

// ------------------------------------------------------------------ worker --

/// Why a [`ShardWorker`] stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerError {
    /// A claim or submit failed.
    Queue(QueueError),
    /// The engine could not execute a claimed shard.
    Execute(ProtocolError),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Queue(error) => write!(f, "{error}"),
            WorkerError::Execute(error) => write!(f, "shard execution failed: {error}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// The one consumer of a [`ShardQueue`]: claim a shard, hold its lease
/// [`heartbeat`](ShardQueue::heartbeat), execute, submit. The campaign
/// runner, `shardctl queue work` and `qsdc-serve` all drain their queues
/// through it, so the lease protocol has one owner.
#[derive(Debug, Clone)]
pub struct ShardWorker {
    /// Executes claimed shards (each plan carries its run's master seed).
    pub engine: SessionEngine,
    /// Worker name recorded on leases.
    pub name: String,
    /// Lease length in milliseconds; the heartbeat renews it.
    pub lease_ms: u64,
    /// Sleep between claims while every open shard is leased, in ms.
    pub poll_ms: u64,
    /// Chaos hook: sleep this long between claim and execute (0 = off), so
    /// a test can kill the worker while it provably holds a lease.
    pub throttle_ms: u64,
}

impl Default for ShardWorker {
    fn default() -> Self {
        Self {
            engine: SessionEngine::new(0),
            name: "shard-worker".into(),
            lease_ms: 30_000,
            poll_ms: 200,
            throttle_ms: 0,
        }
    }
}

impl ShardWorker {
    /// Executes the claimed shard `plan` and submits its result to `queue`,
    /// heartbeating the lease from before the throttle until the submit
    /// returns, so a shard that outlives `lease_ms` is never stolen.
    ///
    /// # Errors
    ///
    /// The engine's or the submit's failure.
    pub fn execute(
        &self,
        queue: &ShardQueue,
        plan: &ShardPlan,
        output: ShardOutput,
    ) -> Result<SubmitOutcome, WorkerError> {
        let _beat = queue.heartbeat(&self.name, plan, self.lease_ms);
        if self.throttle_ms > 0 {
            thread::sleep(Duration::from_millis(self.throttle_ms));
        }
        let result = self
            .engine
            .execute_shard(plan, output)
            .map_err(WorkerError::Execute)?;
        queue.submit(&result).map_err(WorkerError::Queue)
    }

    /// Claims and [`execute`](Self::execute)s shards until `queue` is
    /// drained, sleeping `poll_ms` while other workers hold every open
    /// shard. Returns the number of results this worker recorded.
    ///
    /// # Errors
    ///
    /// The first claim, execute or submit failure.
    pub fn drain(&self, queue: &ShardQueue, output: ShardOutput) -> Result<usize, WorkerError> {
        let mut recorded = 0;
        loop {
            let claim = queue.claim(&self.name, self.lease_ms);
            match claim.map_err(WorkerError::Queue)? {
                ClaimOutcome::Claimed(plan) => {
                    if self.execute(queue, &plan, output)? == SubmitOutcome::Recorded {
                        recorded += 1;
                    }
                }
                ClaimOutcome::Wait { .. } => {
                    thread::sleep(Duration::from_millis(self.poll_ms.max(1)));
                }
                ClaimOutcome::Drained => return Ok(recorded),
            }
        }
    }
}

/// Re-derives a slot's sub-plan from the whole-run plan (re-stamping
/// provenance on the way, via [`ShardPlan::subrange`]). Safe to call only on
/// slots [`load`](ShardQueue::load) has range-checked against the plan.
fn subplan(whole: &ShardPlan, trial_start: u64, trial_count: usize) -> ShardPlan {
    whole.subrange((trial_start - whole.trial_start) as usize, trial_count)
}

/// Returns every lease that has expired by `now_ms` to the pending state and
/// reports the resulting status.
fn expire_leases(checkpoint: &mut MergeCheckpoint, now_ms: u64) -> QueueStatus {
    for slot in &mut checkpoint.shards {
        if let SlotState::Leased { expires_at_ms, .. } = slot.state {
            if expires_at_ms <= now_ms {
                slot.state = SlotState::Pending;
            }
        }
    }
    status_of(checkpoint)
}

/// Folds verified results (in trial order) into one merged run, naming the
/// source file of any shard the merger rejects.
fn fold_results(results: Vec<(PathBuf, ShardResult)>) -> Result<MergedRun, QueueError> {
    let mut merger = ShardMerger::new();
    for (path, result) in results {
        merger.push(result).map_err(|error| QueueError::Merge {
            path: Some(path),
            error,
        })?;
    }
    merger
        .finish()
        .map_err(|error| QueueError::Merge { path: None, error })
}

fn status_of(checkpoint: &MergeCheckpoint) -> QueueStatus {
    let (pending, leased, done) = checkpoint.state_counts();
    QueueStatus {
        total_shards: checkpoint.shards.len(),
        pending,
        leased,
        done,
        trials_done: checkpoint
            .shards
            .iter()
            .filter(|s| matches!(s.state, SlotState::Done { .. }))
            .map(|s| s.trial_count as u64)
            .sum(),
        trials_total: checkpoint.plan.trial_count,
    }
}

/// Rejects a result whose header does not belong to the checkpoint's plan —
/// the "checkpoint from a different plan" fault surfaces here as the precise
/// [`MergeError`] the header check would raise at merge time.
fn validate_result_header(
    checkpoint: &MergeCheckpoint,
    result: &ShardResult,
    path: Option<PathBuf>,
) -> Result<(), QueueError> {
    RunHeader::of_plan(&checkpoint.plan)
        .check(result)
        .and_then(|()| {
            // The queue knows its payload kind up front, from the checkpoint.
            if result.payload.kind() == checkpoint.output.as_str() {
                Ok(())
            } else {
                Err(MergeError::MixedPayloads)
            }
        })
        .map_err(|error| QueueError::Merge { path, error })
}

/// Writes `bytes` to `path` atomically: write a sibling temp file, then
/// rename over the target. A crash at any instant leaves either the old file
/// or the new one, never a torn write. Nothing is fsynced, so the guarantee
/// covers a killed process, not a power loss.
///
/// # Errors
///
/// [`QueueError::Io`] naming the temp file or the target, whichever failed.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), QueueError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes).map_err(|e| QueueError::Io {
        path: tmp.clone(),
        message: e.to_string(),
    })?;
    fs::rename(&tmp, path).map_err(|e| QueueError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SessionConfig;
    use crate::engine::{Scenario, SessionEngine};
    use crate::identity::IdentityPair;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique queue directory, removed on drop.
    struct TempQueueDir(PathBuf);

    impl TempQueueDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "ua-di-qsdc-queue-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            TempQueueDir(dir)
        }
    }

    impl Drop for TempQueueDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn scenario(seed: u64) -> Scenario {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let identities = IdentityPair::generate(3, &mut rng);
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(24)
            .build()
            .unwrap();
        Scenario::new(config, identities)
    }

    fn drain(queue: &ShardQueue, engine: &SessionEngine, output: ShardOutput, now: u64) {
        loop {
            match queue.claim_at("w", 1_000, now).unwrap() {
                ClaimOutcome::Claimed(plan) => {
                    let result = engine.execute_shard(&plan, output).unwrap();
                    assert_eq!(queue.submit(&result).unwrap(), SubmitOutcome::Recorded);
                }
                ClaimOutcome::Drained => break,
                ClaimOutcome::Wait { .. } => unreachable!("single worker never waits"),
            }
        }
    }

    #[test]
    fn drained_queue_merges_to_the_unsharded_run() {
        let tmp = TempQueueDir::new("drain");
        let scenario = scenario(1);
        let engine = SessionEngine::new(41);
        let plan = engine.plan(&scenario, 7);
        let queue = ShardQueue::init(&tmp.0, &plan, 2, ShardOutput::Summary).unwrap();
        assert_eq!(queue.status().unwrap().total_shards, 4);
        drain(&queue, &engine, ShardOutput::Summary, 0);
        let status = queue.status().unwrap();
        assert!(status.complete());
        assert_eq!(status.trials_done, 7);
        let merged = queue.merge().unwrap().into_summary().unwrap();
        assert_eq!(merged, engine.run_trials(&scenario, 7).unwrap());
        // Re-opening the directory sees the same finished sweep.
        let reopened = ShardQueue::open(&tmp.0).unwrap();
        assert!(reopened.status().unwrap().complete());
        assert_eq!(
            serde::json::to_string(&reopened.merge().unwrap().into_summary().unwrap()),
            serde::json::to_string(&engine.run_trials(&scenario, 7).unwrap())
        );
    }

    #[test]
    fn expired_leases_are_reissued_and_live_ones_are_not() {
        let tmp = TempQueueDir::new("lease");
        let scenario = scenario(2);
        let engine = SessionEngine::new(42);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 4), 2, ShardOutput::Summary).unwrap();
        // Worker a claims both shards and dies without submitting.
        let ClaimOutcome::Claimed(first) = queue.claim_at("a", 1_000, 0).unwrap() else {
            panic!("first claim");
        };
        let ClaimOutcome::Claimed(second) = queue.claim_at("a", 1_000, 0).unwrap() else {
            panic!("second claim");
        };
        assert_ne!(first.trial_start, second.trial_start);
        // While the leases live, worker b must wait…
        assert_eq!(
            queue.claim_at("b", 1_000, 500).unwrap(),
            ClaimOutcome::Wait { leased: 2 }
        );
        // …after expiry it steals the shards and finishes the run.
        let ClaimOutcome::Claimed(stolen) = queue.claim_at("b", 1_000, 1_500).unwrap() else {
            panic!("stolen claim");
        };
        assert_eq!(stolen.trial_start, first.trial_start);
        queue
            .submit(&engine.execute_shard(&stolen, ShardOutput::Summary).unwrap())
            .unwrap();
        drain(&queue, &engine, ShardOutput::Summary, 3_000);
        assert_eq!(
            queue.merge().unwrap().into_summary().unwrap(),
            engine.run_trials(&scenario, 4).unwrap()
        );
    }

    #[test]
    fn recover_returns_expired_leases_to_pending() {
        let tmp = TempQueueDir::new("recover");
        let scenario = scenario(3);
        let engine = SessionEngine::new(43);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 4), 2, ShardOutput::Summary).unwrap();
        let ClaimOutcome::Claimed(plan) = queue.claim_at("a", 1_000, 0).unwrap() else {
            panic!("claim");
        };
        queue
            .submit(&engine.execute_shard(&plan, ShardOutput::Summary).unwrap())
            .unwrap();
        let ClaimOutcome::Claimed(_) = queue.claim_at("a", 1_000, 0).unwrap() else {
            panic!("claim");
        };
        // Before expiry the lease survives recovery; after it, recovery
        // returns the shard to pending.
        assert_eq!(queue.recover_at(500).unwrap().leased, 1);
        let status = queue.recover_at(1_500).unwrap();
        assert_eq!((status.leased, status.pending, status.done), (0, 1, 1));
    }

    #[test]
    fn late_duplicate_submissions_are_benign() {
        let tmp = TempQueueDir::new("dup");
        let scenario = scenario(4);
        let engine = SessionEngine::new(44);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 2), 2, ShardOutput::Outcomes).unwrap();
        let ClaimOutcome::Claimed(plan) = queue.claim_at("a", 10, 0).unwrap() else {
            panic!("claim");
        };
        let result = engine.execute_shard(&plan, ShardOutput::Outcomes).unwrap();
        assert_eq!(queue.submit(&result).unwrap(), SubmitOutcome::Recorded);
        // The presumed-dead worker's late submission of the same shard.
        assert_eq!(queue.submit(&result).unwrap(), SubmitOutcome::AlreadyDone);
        assert_eq!(
            queue.merge().unwrap().into_outcomes().unwrap(),
            engine.run_outcomes(&scenario, 2).unwrap()
        );
    }

    #[test]
    fn foreign_and_malformed_results_are_rejected() {
        let tmp = TempQueueDir::new("foreign");
        let base = scenario(5);
        let engine = SessionEngine::new(45);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&base, 2), 2, ShardOutput::Summary).unwrap();
        let plan = engine.plan(&base, 2);
        let good = engine.execute_shard(&plan, ShardOutput::Summary).unwrap();

        // A result from a different run (checkpoint from a different plan).
        let alien_engine = SessionEngine::new(9_999);
        let alien = alien_engine
            .execute_shard(&alien_engine.plan(&scenario(55), 2), ShardOutput::Summary)
            .unwrap();
        assert!(matches!(
            queue.submit(&alien),
            Err(QueueError::Merge {
                error: MergeError::FingerprintMismatch { .. },
                ..
            })
        ));

        // Same plan, wrong payload kind.
        let outcomes = engine.execute_shard(&plan, ShardOutput::Outcomes).unwrap();
        assert!(matches!(
            queue.submit(&outcomes),
            Err(QueueError::Merge {
                error: MergeError::MixedPayloads,
                ..
            })
        ));

        // Same plan, but the header claims fewer trials than the payload
        // holds (a corrupt result).
        let mut truncated = good.clone();
        truncated.trial_count = 1;
        assert!(matches!(
            queue.submit(&truncated),
            Err(QueueError::Merge {
                error: MergeError::PayloadLength { .. },
                ..
            })
        ));

        // Same plan, valid result, but a range matching no slot.
        let half = engine
            .execute_shard(&plan.subrange(0, 1), ShardOutput::Summary)
            .unwrap();
        assert!(matches!(
            queue.submit(&half),
            Err(QueueError::UnknownShard {
                trial_start: 0,
                trial_count: 1
            })
        ));

        // The valid result still lands afterwards.
        assert_eq!(queue.submit(&good).unwrap(), SubmitOutcome::Recorded);
    }

    #[test]
    fn corrupt_and_missing_result_files_fail_resume_by_name() {
        let tmp = TempQueueDir::new("corrupt");
        let scenario = scenario(6);
        let engine = SessionEngine::new(46);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 4), 2, ShardOutput::Summary).unwrap();
        drain(&queue, &engine, ShardOutput::Summary, 0);
        let checkpoint = queue.checkpoint().unwrap();
        let first = queue.result_path(&checkpoint.shards[0]);

        // Truncate the file: the checksum no longer matches.
        let original = fs::read(&first).unwrap();
        fs::write(&first, &original[..original.len() / 2]).unwrap();
        let err = queue.recover_at(0).unwrap_err();
        assert!(matches!(err, QueueError::Corrupt { .. }), "{err}");
        assert!(err
            .to_string()
            .contains(&checkpoint.shards[0].result_file_name()));
        assert!(matches!(queue.merge(), Err(QueueError::Corrupt { .. })));

        // Delete it: resume names the missing file.
        fs::remove_file(&first).unwrap();
        let err = queue.recover_at(0).unwrap_err();
        assert!(matches!(err, QueueError::Missing { .. }), "{err}");

        // Restore the original bytes: the sweep is whole again.
        fs::write(&first, &original).unwrap();
        assert!(queue.recover_at(0).unwrap().complete());
        assert_eq!(
            queue.merge().unwrap().into_summary().unwrap(),
            engine.run_trials(&scenario, 4).unwrap()
        );
    }

    #[test]
    fn version_and_plan_tampering_are_rejected() {
        let tmp = TempQueueDir::new("version");
        let scenario = scenario(7);
        let engine = SessionEngine::new(47);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 2), 2, ShardOutput::Summary).unwrap();

        // Double init is refused.
        assert!(matches!(
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 2), 2, ShardOutput::Summary),
            Err(QueueError::AlreadyInitialized { .. })
        ));

        // A checkpoint from the future is refused by version.
        let mut checkpoint = queue.checkpoint().unwrap();
        checkpoint.version = CHECKPOINT_VERSION + 1;
        fs::write(queue.checkpoint_path(), serde::json::to_string(&checkpoint)).unwrap();
        assert!(matches!(
            ShardQueue::open(&tmp.0),
            Err(QueueError::Version { found, .. }) if found == CHECKPOINT_VERSION + 1
        ));

        // A checkpoint whose plan range was edited fails plan validation.
        checkpoint.version = CHECKPOINT_VERSION;
        checkpoint.plan.total_trials = 1;
        fs::write(queue.checkpoint_path(), serde::json::to_string(&checkpoint)).unwrap();
        assert!(matches!(
            ShardQueue::open(&tmp.0),
            Err(QueueError::InvalidPlan(_))
        ));

        // Truncated checkpoint JSON is a parse error naming the file.
        fs::write(queue.checkpoint_path(), "{\"version\": 1, \"plan").unwrap();
        let err = ShardQueue::open(&tmp.0).unwrap_err();
        assert!(matches!(err, QueueError::Parse { .. }), "{err}");
        assert!(err.to_string().contains(CHECKPOINT_FILE));
    }

    #[test]
    fn out_of_range_slots_and_uninitialized_dirs_are_errors_not_panics() {
        let tmp = TempQueueDir::new("slots");

        // Opening a directory that holds no checkpoint is its own error.
        let err = ShardQueue::open(&tmp.0).unwrap_err();
        assert!(matches!(err, QueueError::NotInitialized { .. }), "{err}");
        assert!(
            err.to_string().contains("not an initialized queue"),
            "{err}"
        );

        let scenario = scenario(13);
        let engine = SessionEngine::new(53);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 4), 2, ShardOutput::Summary).unwrap();

        // A slot edited to lie outside the plan's range must be rejected at
        // load time (previously re-deriving its sub-plan panicked).
        let mut checkpoint = queue.checkpoint().unwrap();
        checkpoint.shards[1].trial_count = 40;
        fs::write(queue.checkpoint_path(), serde::json::to_string(&checkpoint)).unwrap();
        for result in [
            ShardQueue::open(&tmp.0).map(|_| ()),
            queue.claim_at("w", 1_000, 0).map(|_| ()),
            queue.status().map(|_| ()),
        ] {
            let err = result.unwrap_err();
            assert!(matches!(err, QueueError::InvalidSlot { .. }), "{err}");
            assert!(err.to_string().contains(CHECKPOINT_FILE), "{err}");
        }
    }

    #[test]
    fn resume_recovers_and_merges_in_one_pass() {
        let tmp = TempQueueDir::new("resume");
        let scenario = scenario(14);
        let engine = SessionEngine::new(54);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 4), 2, ShardOutput::Summary).unwrap();

        // One shard done, one leased to a dead worker.
        let ClaimOutcome::Claimed(plan) = queue.claim_at("a", 1_000, 0).unwrap() else {
            panic!("claim");
        };
        queue
            .submit(&engine.execute_shard(&plan, ShardOutput::Summary).unwrap())
            .unwrap();
        let ClaimOutcome::Claimed(orphan) = queue.claim_at("dead", 1_000, 0).unwrap() else {
            panic!("claim");
        };

        // Incomplete resume: lease expired back to pending, no merge yet.
        let (status, merged) = queue.resume_at(2_000).unwrap();
        assert_eq!((status.pending, status.leased, status.done), (1, 0, 1));
        assert!(merged.is_none());

        // Finish the orphaned shard; resume now merges in the same call.
        queue
            .submit(&engine.execute_shard(&orphan, ShardOutput::Summary).unwrap())
            .unwrap();
        let (status, merged) = queue.resume_at(3_000).unwrap();
        assert!(status.complete());
        assert_eq!(
            merged.unwrap().into_summary().unwrap(),
            engine.run_trials(&scenario, 4).unwrap()
        );
    }

    #[test]
    fn checkpoint_serde_round_trips() {
        let tmp = TempQueueDir::new("serde");
        let scenario = scenario(8);
        let engine = SessionEngine::new(48);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 3), 1, ShardOutput::Summary).unwrap();
        let ClaimOutcome::Claimed(plan) = queue.claim_at("w", 5_000, 100).unwrap() else {
            panic!("claim");
        };
        queue
            .submit(&engine.execute_shard(&plan, ShardOutput::Summary).unwrap())
            .unwrap();
        let checkpoint = queue.checkpoint().unwrap();
        let json = serde::json::to_string(&checkpoint);
        let back: MergeCheckpoint = serde::json::from_str(&json).unwrap();
        assert_eq!(back, checkpoint, "via {json}");
        // All three slot states appear and render.
        let status = queue.status().unwrap();
        assert_eq!((status.pending, status.leased, status.done), (2, 0, 1));
        assert!(status.to_string().contains("1/3 shards done"));
        assert!(!status.complete());
        assert!(matches!(
            queue.merge(),
            Err(QueueError::Merge {
                error: MergeError::Incomplete {
                    merged: 1,
                    total: 3
                },
                ..
            })
        ));
    }

    #[test]
    fn zero_trial_runs_queue_and_merge_cleanly() {
        let tmp = TempQueueDir::new("empty");
        let scenario = scenario(9);
        let engine = SessionEngine::new(49);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 0), 4, ShardOutput::Summary).unwrap();
        drain(&queue, &engine, ShardOutput::Summary, 0);
        let merged = queue.merge().unwrap().into_summary().unwrap();
        assert_eq!(merged.trials, 0);
    }

    #[test]
    fn zero_and_too_short_leases_are_rejected() {
        let tmp = TempQueueDir::new("minlease");
        let scenario = scenario(20);
        let engine = SessionEngine::new(60);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 4), 2, ShardOutput::Summary).unwrap();
        // The regression: lease_ms == 0 made expires_at_ms == now_ms, which
        // the claimable predicate treats as already expired — the same shard
        // was instantly re-claimable and executed twice. Now it is refused.
        for lease_ms in [0, MIN_LEASE_MS - 1] {
            let err = queue.claim_at("a", lease_ms, 100).unwrap_err();
            assert!(
                matches!(
                    err,
                    QueueError::LeaseTooShort {
                        lease_ms: l,
                        min_ms: MIN_LEASE_MS
                    } if l == lease_ms
                ),
                "{err}"
            );
        }
        // Nothing was leased by the refused claims, and the floor itself is
        // grantable: the same worker's immediate re-claim gets the *other*
        // shard, not a stolen copy of the first.
        let ClaimOutcome::Claimed(first) = queue.claim_at("a", MIN_LEASE_MS, 100).unwrap() else {
            panic!("floor-length lease is grantable");
        };
        let ClaimOutcome::Claimed(second) = queue.claim_at("a", MIN_LEASE_MS, 100).unwrap() else {
            panic!("second shard is claimable");
        };
        assert_ne!(first.trial_start, second.trial_start);
        // Extensions are floored identically.
        assert!(matches!(
            queue.extend_lease_at("a", &first, 0, 100),
            Err(QueueError::LeaseTooShort { lease_ms: 0, .. })
        ));
    }

    #[test]
    fn wall_clock_readings_never_step_backwards() {
        // The injected-clock seam of now_ms(): a candidate below the last
        // observed reading saturates to it instead of time-travelling (a
        // backwards-stepped clock mass-expires every live lease otherwise).
        let cell = AtomicU64::new(0);
        assert_eq!(monotonic_ms(100, &cell), 100);
        assert_eq!(monotonic_ms(40, &cell), 100, "backwards step saturates");
        assert_eq!(monotonic_ms(100, &cell), 100);
        assert_eq!(monotonic_ms(250, &cell), 250, "forward steps pass through");
        assert_eq!(cell.load(Ordering::Relaxed), 250);
        // The live clock is usable and non-decreasing across calls.
        let first = now_ms().expect("post-epoch clock reads");
        let second = now_ms().expect("post-epoch clock reads");
        assert!(second >= first);
    }

    #[test]
    fn lease_extension_is_identity_checked() {
        let tmp = TempQueueDir::new("extend");
        let scenario = scenario(21);
        let engine = SessionEngine::new(61);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 4), 2, ShardOutput::Summary).unwrap();
        let ClaimOutcome::Claimed(plan) = queue.claim_at("a", 1_000, 0).unwrap() else {
            panic!("claim");
        };

        // The holder extends; the lease moves out and never shrinks.
        assert_eq!(
            queue.extend_lease_at("a", &plan, 1_000, 500).unwrap(),
            1_500
        );
        assert_eq!(
            queue.extend_lease_at("a", &plan, 1_000, 100).unwrap(),
            1_500,
            "a heartbeat never shortens a lease"
        );

        // A non-holder's extension is refused by name.
        let err = queue.extend_lease_at("b", &plan, 1_000, 600).unwrap_err();
        assert!(
            matches!(&err, QueueError::LeaseNotHeld { worker, state, .. }
                if worker == "b" && state == "leased to a"),
            "{err}"
        );

        // "b" takes the other shard; after that, the heartbeat is what keeps
        // "a"'s shard from being stolen at its original t=1000 expiry.
        let ClaimOutcome::Claimed(other) = queue.claim_at("b", 10_000, 600).unwrap() else {
            panic!("second shard is claimable");
        };
        assert_ne!(other.trial_start, plan.trial_start);
        assert_eq!(
            queue.claim_at("b", 1_000, 1_200).unwrap(),
            ClaimOutcome::Wait { leased: 2 }
        );

        // Once the extended lease lapses and "b" steals the shard, the old
        // holder's heartbeat is refused — it must treat the shard as lost.
        let ClaimOutcome::Claimed(stolen) = queue.claim_at("b", 1_000, 2_000).unwrap() else {
            panic!("steal after expiry");
        };
        assert_eq!(stolen.trial_start, plan.trial_start);
        let err = queue.extend_lease_at("a", &plan, 1_000, 2_100).unwrap_err();
        assert!(
            matches!(&err, QueueError::LeaseNotHeld { worker, state, .. }
                if worker == "a" && state == "leased to b"),
            "{err}"
        );

        // Done slots refuse extensions too.
        queue
            .submit(&engine.execute_shard(&stolen, ShardOutput::Summary).unwrap())
            .unwrap();
        let err = queue
            .extend_lease_at("b", &stolen, 1_000, 2_200)
            .unwrap_err();
        assert!(
            matches!(&err, QueueError::LeaseNotHeld { state, .. } if state == "done"),
            "{err}"
        );
        // ...and so does a slot recovered back to pending after its holder
        // stopped beating.
        queue.recover_at(20_000).unwrap();
        let err = queue
            .extend_lease_at("b", &other, 1_000, 20_100)
            .unwrap_err();
        assert!(
            matches!(&err, QueueError::LeaseNotHeld { state, .. } if state == "pending"),
            "{err}"
        );

        // A range matching no slot is an UnknownShard, not a panic.
        let alien = engine.plan(&scenario, 4).subrange(1, 1);
        assert!(matches!(
            queue.extend_lease_at("a", &alien, 1_000, 2_400),
            Err(QueueError::UnknownShard { .. })
        ));
    }

    #[test]
    fn heartbeat_guard_keeps_a_slow_worker_alive() {
        let tmp = TempQueueDir::new("heartbeat");
        let scenario = scenario(22);
        let engine = SessionEngine::new(62);
        let queue =
            ShardQueue::init(&tmp.0, &engine.plan(&scenario, 2), 2, ShardOutput::Summary).unwrap();
        let ClaimOutcome::Claimed(plan) = queue.claim("slow", 30).unwrap() else {
            panic!("claim");
        };
        {
            let _beat = queue.heartbeat("slow", &plan, 30);
            // Simulated slow execution: several lease lengths long. The
            // heartbeat (period 10 ms) must keep the lease live throughout.
            thread::sleep(Duration::from_millis(150));
            assert_eq!(
                queue.claim("thief", 1_000).unwrap(),
                ClaimOutcome::Wait { leased: 1 },
                "a heartbeating worker is never stolen from"
            );
            queue
                .submit(&engine.execute_shard(&plan, ShardOutput::Summary).unwrap())
                .unwrap();
        }
        let status = queue.status().unwrap();
        assert_eq!(status.done, 1);
    }

    #[test]
    fn queues_over_subranged_plans_use_plan_relative_offsets() {
        // A queue over a plan that is itself a subrange of a larger run —
        // slot offsets must be taken relative to the plan's own start, and
        // the claimed sub-plans must execute the *window's* trials.
        let tmp = TempQueueDir::new("subrange");
        let scenario = scenario(10);
        let engine = SessionEngine::new(50);
        let window = engine.plan(&scenario, 9).subrange(3, 4);
        let queue = ShardQueue::init(&tmp.0, &window, 3, ShardOutput::Outcomes).unwrap();
        let mut starts = Vec::new();
        loop {
            match queue.claim_at("w", 1_000, 0).unwrap() {
                ClaimOutcome::Claimed(plan) => {
                    assert!(plan.validate().is_ok(), "claimed sub-plans are re-stamped");
                    starts.push(plan.trial_start);
                    let result = engine.execute_shard(&plan, ShardOutput::Outcomes).unwrap();
                    queue.submit(&result).unwrap();
                }
                ClaimOutcome::Drained => break,
                ClaimOutcome::Wait { .. } => unreachable!(),
            }
        }
        assert_eq!(starts, vec![3, 6]);
        // The window alone cannot merge into a whole run (trials 0..3 are
        // missing), and the merger says so rather than inventing coverage.
        assert!(matches!(
            queue.merge(),
            Err(QueueError::Merge {
                error: MergeError::Gap { .. },
                ..
            })
        ));
    }
}
