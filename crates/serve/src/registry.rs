//! In-memory multiplexing state: which clients are connected, which jobs
//! are live, how far each live job has got, and in what order workers
//! should try them.
//!
//! The registry is the only mutable shared state of the server; everything
//! durable lives in the [`Spool`](crate::spool::Spool). Workers count
//! each shard they record here ([`Registry::record_shard`]), so a live
//! job's progress is never re-read from disk. Idle workers park here until
//! a job is added: a server is its spool's only user, so nothing else makes
//! a shard claimable.
//!
//! The registry also sends a live job's asynchronous messages to its
//! owner: snapshots ([`Registry::stream_snapshot`]) and the final `Done`
//! or `Error` ([`Registry::finish_job`]). A snapshot is admitted under the
//! owner's write lock only while the job is live and past the last one
//! sent, so snapshots strictly increase and none follows `Done` or
//! `Cancelled`.
//!
//! Its scheduling
//! policy is **fair round-robin across clients**: [`Registry::schedule`]
//! interleaves one job from each client bucket in rotation before moving to
//! anyone's second job, and the rotation origin advances on every call — a
//! tenant with fifty queued campaigns cannot starve a tenant with one
//! scenario.
//!
//! Quotas are enforced here too: a client holds a *slot* per unfinished job
//! ([`Registry::reserve_slot`]); past the quota the server answers
//! [`Busy`](protocol::wire::Response::Busy) instead of queueing unboundedly.
//! Jobs recovered from the spool after a restart belong to no live client
//! (they are scheduled from their own bucket and their results land in the
//! spool for later [`Status`](protocol::wire::Request::Status) polls).

use crate::spool::JobWork;
use protocol::engine::TrialSummary;
use protocol::wire::Response;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

/// Where a job's asynchronous responses (snapshots, completion) are
/// written. The server implements this over a shared TCP write half; tests
/// implement it over a vector.
pub(crate) trait ResponseSink: Send + Sync {
    /// Delivers one response if `admit()`, called exactly once under the
    /// sink's write lock, returns true: a response made stale by a
    /// concurrent writer (a snapshot racing its job's `Cancelled` or a
    /// longer snapshot) is dropped rather than sent after it. Delivery is
    /// best-effort: a sink whose client vanished silently discards (the
    /// job itself keeps running — its result is in the spool).
    fn send_if(&self, response: &Response, admit: &dyn Fn() -> bool);

    /// Delivers one response unconditionally.
    fn send(&self, response: &Response) {
        self.send_if(response, &|| true);
    }
}

/// One schedulable job, in the fair order chosen by [`Registry::schedule`].
#[derive(Clone)]
pub(crate) struct ScheduleEntry {
    /// The job id.
    pub job: u64,
    /// The job's executable queues.
    pub work: Arc<JobWork>,
}

/// What a job needs after one of its shards was recorded; see
/// [`Registry::record_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardRecord {
    /// Nothing more to do.
    Counted,
    /// Fold the done prefix for [`Registry::stream_snapshot`].
    SnapshotDue,
    /// Every trial of the job is recorded: it is ready to finalize.
    Complete,
}

/// Why a cancellation request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CancelOutcome {
    /// The job was removed from scheduling; mark it in the spool.
    Cancelled,
    /// No live job with this id belongs to the requesting client.
    Unknown,
}

struct JobEntry {
    /// Owning client, or `None` for jobs recovered from the spool.
    client: Option<u64>,
    work: Arc<JobWork>,
    /// Trials of the job's recorded shards: seeded when the job is added,
    /// then counted by the workers that record them.
    trials_done: u64,
    trials_total: u64,
    /// `trials_done` of the last snapshot sent to the owner (0 before the
    /// first).
    streamed: u64,
    /// Set by the first worker that sees the job complete; later workers
    /// (and the racing drain of a just-finished queue) skip finalization.
    finalizing: bool,
}

struct ClientEntry {
    /// `None` once the connection dropped; jobs keep running detached.
    sink: Option<Arc<dyn ResponseSink>>,
    /// Unfinished jobs holding quota slots.
    in_flight: usize,
}

#[derive(Default)]
struct State {
    clients: BTreeMap<u64, ClientEntry>,
    jobs: BTreeMap<u64, JobEntry>,
    next_client: u64,
    /// Rotation origin for fair scheduling; advances every `schedule` call.
    cursor: u64,
    /// Bumped by every `add_job`, so a worker can tell whether work arrived
    /// since it last looked (see `wait_for_work`).
    work_epoch: u64,
}

impl State {
    /// The sink of `job`'s owner while the owner is connected.
    fn owner_sink(&self, job: &JobEntry) -> Option<Arc<dyn ResponseSink>> {
        self.clients.get(&job.client?)?.sink.clone()
    }

    /// Returns one of `client`'s quota slots (forgetting a disconnected
    /// client left with none) and the client's sink while it is connected.
    fn release(&mut self, client: u64) -> Option<Arc<dyn ResponseSink>> {
        let entry = self.clients.get_mut(&client)?;
        entry.in_flight = entry.in_flight.saturating_sub(1);
        let sink = entry.sink.clone();
        if sink.is_none() && entry.in_flight == 0 {
            self.clients.remove(&client);
        }
        sink
    }
}

/// The server's shared scheduling state. See the module docs.
#[derive(Default)]
pub(crate) struct Registry {
    state: Mutex<State>,
    wake: Condvar,
}

impl Registry {
    /// A fresh registry with no clients or jobs.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Registers a connected client and returns its id.
    pub(crate) fn register_client(&self, sink: Arc<dyn ResponseSink>) -> u64 {
        let mut state = self.lock();
        let id = state.next_client;
        state.next_client += 1;
        state.clients.insert(
            id,
            ClientEntry {
                sink: Some(sink),
                in_flight: 0,
            },
        );
        id
    }

    /// Marks a client's connection gone. Its unfinished jobs keep running
    /// (results stay in the spool); the client record disappears once the
    /// last of them finishes.
    pub(crate) fn client_gone(&self, client: u64) {
        let mut state = self.lock();
        if let Some(entry) = state.clients.get_mut(&client) {
            entry.sink = None;
            if entry.in_flight == 0 {
                state.clients.remove(&client);
            }
        }
    }

    /// Reserves one quota slot for a submission, or reports
    /// `Err((in_flight, quota))` for a [`Busy`](Response::Busy) answer.
    /// Reserve *before* lowering the job to disk (so two racing submissions
    /// cannot both squeeze under the quota) and release on lowering
    /// failure.
    ///
    /// # Errors
    ///
    /// `Err((in_flight, quota))` when the client is at its quota.
    pub(crate) fn reserve_slot(&self, client: u64, quota: usize) -> Result<(), (usize, usize)> {
        let mut state = self.lock();
        let entry = state.clients.get_mut(&client).ok_or((quota, quota))?;
        if entry.in_flight >= quota {
            return Err((entry.in_flight, quota));
        }
        entry.in_flight += 1;
        Ok(())
    }

    /// Returns a reserved slot after a failed lowering.
    pub(crate) fn release_slot(&self, client: u64) {
        self.lock().release(client);
    }

    /// Adds a lowered job to the schedule and wakes the worker pool.
    /// `client: None` marks a job recovered from the spool; `progress` is
    /// its `(trials_done, trials_total)` so far.
    pub(crate) fn add_job(
        &self,
        job: u64,
        client: Option<u64>,
        work: Arc<JobWork>,
        (trials_done, trials_total): (u64, u64),
    ) {
        let mut state = self.lock();
        state.jobs.insert(
            job,
            JobEntry {
                client,
                work,
                trials_done,
                trials_total,
                streamed: 0,
                finalizing: false,
            },
        );
        state.work_epoch += 1;
        drop(state);
        self.wake.notify_all();
    }

    /// The live jobs in fair order: one job per client bucket in rotation
    /// (recovered jobs form their own bucket), then everyone's second job,
    /// and so on. The rotation origin advances each call, so no client is
    /// permanently "first".
    pub(crate) fn schedule(&self) -> Vec<ScheduleEntry> {
        let mut state = self.lock();
        // Bucket job ids by owner; the map is ordered, so bucket order (and
        // therefore the whole schedule) is deterministic for a given state.
        let mut buckets: BTreeMap<Option<u64>, Vec<ScheduleEntry>> = BTreeMap::new();
        for (&job, entry) in &state.jobs {
            if entry.finalizing {
                continue;
            }
            buckets
                .entry(entry.client)
                .or_default()
                .push(ScheduleEntry {
                    job,
                    work: Arc::clone(&entry.work),
                });
        }
        let rotation = state.cursor as usize;
        state.cursor = state.cursor.wrapping_add(1);
        drop(state);

        let buckets: Vec<Vec<ScheduleEntry>> = buckets.into_values().collect();
        if buckets.is_empty() {
            return Vec::new();
        }
        let start = rotation % buckets.len();
        let deepest = buckets.iter().map(Vec::len).max().unwrap_or(0);
        let mut order = Vec::with_capacity(buckets.iter().map(Vec::len).sum());
        for depth in 0..deepest {
            for offset in 0..buckets.len() {
                let bucket = &buckets[(start + offset) % buckets.len()];
                if let Some(entry) = bucket.get(depth) {
                    order.push(entry.clone());
                }
            }
        }
        order
    }

    /// `(trials_done, trials_total)` of a live job, if any.
    pub(crate) fn progress(&self, job: u64) -> Option<(u64, u64)> {
        self.lock()
            .jobs
            .get(&job)
            .map(|entry| (entry.trials_done, entry.trials_total))
    }

    /// True exactly once per job: the calling worker owns finalization
    /// (merging and writing `result.json`). Returns `false` for unknown
    /// jobs and for jobs someone else is already finalizing.
    pub(crate) fn begin_finalize(&self, job: u64) -> bool {
        let mut state = self.lock();
        match state.jobs.get_mut(&job) {
            Some(entry) if !entry.finalizing => {
                entry.finalizing = true;
                true
            }
            _ => false,
        }
    }

    /// Removes a finished or failed job, releases its quota slot, and sends
    /// `response` (its `Done` or `Error`) to the owner if it is still
    /// connected. A job no longer live (cancelled, or already failed)
    /// sends nothing.
    pub(crate) fn finish_job(&self, job: u64, response: &Response) {
        let owner = {
            let mut state = self.lock();
            let client = state.jobs.remove(&job).and_then(|entry| entry.client);
            client.and_then(|client| state.release(client))
        };
        if let Some(sink) = owner {
            sink.send(response);
        }
    }

    /// Cancels a live job owned by `client`: removes it from scheduling and
    /// releases its slot. Jobs owned by other clients (or by no client) are
    /// reported [`Unknown`](CancelOutcome::Unknown) — ids are not leaked
    /// across tenants.
    pub(crate) fn cancel(&self, job: u64, client: u64) -> CancelOutcome {
        let mut state = self.lock();
        let owned = matches!(state.jobs.get(&job), Some(entry) if entry.client == Some(client));
        if !owned {
            return CancelOutcome::Unknown;
        }
        state.jobs.remove(&job);
        state.release(client);
        CancelOutcome::Cancelled
    }

    /// Counts a shard of `job` that recorded `trials` trials (0 when
    /// another worker had already recorded it) and reports what the job
    /// needs next.
    ///
    /// Exactly one of the workers recording a job's last shards sees
    /// [`Complete`](ShardRecord::Complete); a record of 0 trials, or of a
    /// job cancelled or failed while the shard ran, never does. A snapshot
    /// is due after every shard that records trials without completing a
    /// session job whose owner is still connected: every shard is one
    /// snapshot cadence long, so each crosses a cadence boundary, and
    /// completion is announced by `Done` instead.
    pub(crate) fn record_shard(&self, job: u64, trials: u64) -> ShardRecord {
        let mut state = self.lock();
        let Some(entry) = state.jobs.get_mut(&job).filter(|_| trials > 0) else {
            return ShardRecord::Counted;
        };
        entry.trials_done += trials;
        if entry.trials_done >= entry.trials_total {
            return ShardRecord::Complete;
        }
        let entry = &state.jobs[&job];
        if entry.work.is_session() && state.owner_sink(entry).is_some() {
            ShardRecord::SnapshotDue
        } else {
            ShardRecord::Counted
        }
    }

    /// Sends the fold of `job`'s first `trials_done` trials to its
    /// connected owner as a [`Snapshot`](Response::Snapshot), admitted
    /// under the owner's write lock only while the job is live and
    /// `streamed < trials_done < trials_total`; admitting it advances
    /// `streamed`. A stale fold is dropped.
    pub(crate) fn stream_snapshot(&self, job: u64, trials_done: u64, summary: TrialSummary) {
        let owner = {
            let state = self.lock();
            let entry = state.jobs.get(&job);
            entry.and_then(|entry| Some((state.owner_sink(entry)?, entry.trials_total)))
        };
        let Some((sink, trials_total)) = owner else {
            return;
        };
        let snapshot = Response::Snapshot {
            job,
            trials_done,
            trials_total,
            summary,
        };
        sink.send_if(&snapshot, &|| match self.lock().jobs.get_mut(&job) {
            Some(entry) if entry.streamed < trials_done && trials_done < entry.trials_total => {
                entry.streamed = trials_done;
                true
            }
            _ => false,
        });
    }

    /// The current work epoch. A worker reads it *before* calling
    /// [`schedule`](Self::schedule) and hands it to
    /// [`wait_for_work`](Self::wait_for_work), so a job added in between is
    /// never slept through.
    pub(crate) fn work_epoch(&self) -> u64 {
        self.lock().work_epoch
    }

    /// Parks a worker until a job is added after the worker read
    /// `seen_epoch`; returns at once when one already was. No timeout is
    /// needed: leases expire only when their holder dies, and a restart
    /// re-issues every lease a dead process held (see
    /// [`JobWork::recover`]).
    pub(crate) fn wait_for_work(&self, seen_epoch: u64) {
        let state = self.lock();
        let _unused = self
            .wake
            .wait_while(state, |state| state.work_epoch == seen_epoch)
            .unwrap_or_else(|poison| poison.into_inner());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spool::Spool;
    use protocol::engine::{Axis, Campaign, CampaignSpace, CampaignWorkload, Scenario};
    use protocol::identity::IdentityPair;
    use protocol::wire::{JobManifest, JobSpec, MANIFEST_VERSION};
    use protocol::SessionConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    struct NullSink;

    impl ResponseSink for NullSink {
        fn send_if(&self, _response: &Response, _admit: &dyn Fn() -> bool) {}
    }

    /// Keeps every response its check admits, in write order.
    #[derive(Default)]
    pub(crate) struct Recorder(Mutex<Vec<Response>>);

    impl ResponseSink for Recorder {
        fn send_if(&self, response: &Response, admit: &dyn Fn() -> bool) {
            let mut sent = self.0.lock().expect("not poisoned");
            if admit() {
                sent.push(response.clone());
            }
        }
    }

    impl Recorder {
        /// The responses written so far.
        pub(crate) fn sent(&self) -> Vec<Response> {
            self.0.lock().expect("not poisoned").clone()
        }
    }

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            TempDir(
                std::env::temp_dir()
                    .join(format!("ua-di-qsdc-registry-{tag}-{}", std::process::id())),
            )
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tiny_scenario() -> Scenario {
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(16)
            .build()
            .expect("config builds");
        let mut rng = StdRng::seed_from_u64(1);
        Scenario::new(config, IdentityPair::generate(2, &mut rng))
    }

    fn lowered(dir: &std::path::Path, job: u64, spec: JobSpec) -> Arc<JobWork> {
        let manifest = JobManifest {
            version: MANIFEST_VERSION,
            job,
            client: "test".to_string(),
            spec,
            shard_trials: 2,
        };
        let spool = Spool::open(dir).expect("spool opens");
        Arc::new(spool.lower(&manifest).expect("job lowers"))
    }

    /// A session job of 4 trials in two 2-trial shards.
    fn tiny_work(dir: &std::path::Path, tag: u64) -> Arc<JobWork> {
        let spec = JobSpec::Session {
            scenario: tiny_scenario(),
            trials: 4,
            seed: tag,
        };
        lowered(dir, tag, spec)
    }

    /// A one-point campaign job of 4 trials in two 2-trial shards.
    fn tiny_campaign_work(dir: &std::path::Path, tag: u64) -> Arc<JobWork> {
        let campaign = Campaign {
            label: "registry-test".to_string(),
            master_seed: tag,
            trials: 4,
            workload: CampaignWorkload::Session {
                base: tiny_scenario(),
            },
            space: CampaignSpace::Grid(vec![Axis::Eta(vec![0])]),
        };
        lowered(dir, tag, JobSpec::Campaign { campaign })
    }

    /// The schedule interleaves clients — one job each in rotation before
    /// anyone's second — and the rotation origin advances per call.
    #[test]
    fn schedule_is_fair_round_robin_with_rotating_origin() {
        let dir = TempDir::new("fairness");
        let registry = Registry::new();
        let a = registry.register_client(Arc::new(NullSink));
        let b = registry.register_client(Arc::new(NullSink));
        // Client a holds jobs 1 and 2; client b holds job 3.
        registry.add_job(1, Some(a), tiny_work(&dir.0, 1), (0, 4));
        registry.add_job(2, Some(a), tiny_work(&dir.0, 2), (0, 4));
        registry.add_job(3, Some(b), tiny_work(&dir.0, 3), (0, 4));

        let order = |entries: Vec<ScheduleEntry>| -> Vec<u64> {
            entries.into_iter().map(|e| e.job).collect()
        };
        // Rotation 0 starts at a's bucket; b still gets its job before a's
        // second one.
        assert_eq!(order(registry.schedule()), vec![1, 3, 2]);
        // Rotation 1 starts at b's bucket: a cannot monopolize the front.
        assert_eq!(order(registry.schedule()), vec![3, 1, 2]);
        assert_eq!(order(registry.schedule()), vec![1, 3, 2]);
    }

    /// A job added between a worker's epoch read and its wait is not slept
    /// through: the wait returns at once. The wait has no timeout, so it
    /// runs on its own thread and a lost wake-up fails the test instead of
    /// hanging it.
    #[test]
    fn a_job_added_before_the_wait_is_not_slept_through() {
        let dir = TempDir::new("wakeup");
        let registry = Arc::new(Registry::new());
        let seen = registry.work_epoch();
        registry.add_job(1, None, tiny_work(&dir.0, 1), (0, 4));
        let (woke, wakeups) = mpsc::channel();
        let waiter = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                registry.wait_for_work(seen);
                let _ = woke.send(());
            })
        };
        assert!(
            wakeups.recv_timeout(Duration::from_secs(10)).is_ok(),
            "the wait slept through a job already queued"
        );
        waiter.join().expect("the waiter does not panic");
    }

    /// Progress is the workers' count: a recorded shard advances it and
    /// asks for a snapshot; a shard another worker already recorded (0
    /// trials) does neither, and never completes the job.
    #[test]
    fn an_already_done_record_neither_advances_nor_snapshots() {
        let dir = TempDir::new("already-done");
        let registry = Registry::new();
        let client = registry.register_client(Arc::new(NullSink));
        registry.add_job(1, Some(client), tiny_work(&dir.0, 1), (0, 4));
        assert_eq!(registry.progress(1), Some((0, 4)));

        assert_eq!(registry.record_shard(1, 2), ShardRecord::SnapshotDue);
        assert_eq!(registry.progress(1), Some((2, 4)));

        assert_eq!(registry.record_shard(1, 0), ShardRecord::Counted);
        assert_eq!(registry.progress(1), Some((2, 4)));

        assert_eq!(registry.record_shard(1, 2), ShardRecord::Complete);
        assert_eq!(
            registry.record_shard(1, 0),
            ShardRecord::Counted,
            "a 0-trial record completed the job again"
        );
        assert_eq!(registry.progress(1), Some((4, 4)));
    }

    /// When two workers record a job's last two shards at once, exactly one
    /// of them sees the job complete.
    #[test]
    fn racing_last_shards_complete_the_job_exactly_once() {
        let dir = TempDir::new("race");
        let registry = Arc::new(Registry::new());
        registry.add_job(1, None, tiny_work(&dir.0, 1), (0, 4));
        let start = Arc::new(Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    registry.record_shard(1, 2) == ShardRecord::Complete
                })
            })
            .collect();
        let completions = workers
            .into_iter()
            .map(|worker| worker.join().expect("the worker does not panic"))
            .filter(|&complete| complete)
            .count();
        assert_eq!(completions, 1);
    }

    /// A job cancelled (or failed) while its shard ran is not counted.
    #[test]
    fn recording_a_cancelled_job_counts_nothing() {
        let dir = TempDir::new("cancelled");
        let registry = Registry::new();
        let client = registry.register_client(Arc::new(NullSink));
        registry.add_job(1, Some(client), tiny_work(&dir.0, 1), (0, 4));
        assert_eq!(registry.cancel(1, client), CancelOutcome::Cancelled);
        assert_eq!(registry.record_shard(1, 2), ShardRecord::Counted);
        assert_eq!(registry.progress(1), None);
    }

    /// Snapshots stream only mid-run, only for session jobs, and only to a
    /// connected owner.
    #[test]
    fn snapshots_are_due_only_mid_session_to_a_connected_owner() {
        let dir = TempDir::new("snapshots");
        let registry = Registry::new();
        let client = registry.register_client(Arc::new(NullSink));
        let gone = registry.register_client(Arc::new(NullSink));
        registry.add_job(1, Some(client), tiny_campaign_work(&dir.0, 1), (0, 4));
        registry.add_job(2, None, tiny_work(&dir.0, 2), (0, 4));
        registry.add_job(3, Some(client), tiny_work(&dir.0, 3), (2, 4));
        registry.add_job(4, Some(gone), tiny_work(&dir.0, 4), (0, 4));
        registry.client_gone(gone);

        let record = |job| registry.record_shard(job, 2);
        assert_eq!(record(1), ShardRecord::Counted, "a campaign job streamed");
        assert_eq!(record(2), ShardRecord::Counted, "a recovered job streamed");
        assert_eq!(record(3), ShardRecord::Complete, "the last shard streamed");
        assert_eq!(
            record(4),
            ShardRecord::Counted,
            "a disconnected owner streamed"
        );
    }

    /// Quota slots are reserved atomically and released by completion and
    /// cancellation.
    #[test]
    fn quota_slots_reserve_and_release() {
        let dir = TempDir::new("quota");
        let registry = Registry::new();
        let client = registry.register_client(Arc::new(NullSink));
        assert_eq!(registry.reserve_slot(client, 2), Ok(()));
        assert_eq!(registry.reserve_slot(client, 2), Ok(()));
        assert_eq!(registry.reserve_slot(client, 2), Err((2, 2)));
        registry.add_job(1, Some(client), tiny_work(&dir.0, 1), (0, 4));
        registry.add_job(2, Some(client), tiny_work(&dir.0, 2), (0, 4));

        // Finishing one job frees one slot.
        assert!(registry.begin_finalize(1));
        assert!(!registry.begin_finalize(1), "finalize is exactly-once");
        registry.finish_job(1, &Response::Pong);
        assert!(registry.progress(1).is_none());
        assert_eq!(registry.reserve_slot(client, 2), Ok(()));

        // Cancelling is identity-checked and frees the slot too.
        let intruder = registry.register_client(Arc::new(NullSink));
        assert_eq!(registry.cancel(2, intruder), CancelOutcome::Unknown);
        assert!(registry.progress(2).is_some());
        assert_eq!(registry.cancel(2, client), CancelOutcome::Cancelled);
        assert!(registry.progress(2).is_none());
        assert_eq!(registry.reserve_slot(client, 2), Ok(()));
    }

    /// A snapshot goes out only past the last one sent and short of the
    /// whole run, and nothing goes out after the job's `Done`, which its
    /// owner receives exactly once.
    #[test]
    fn the_registry_admits_only_strictly_increasing_partial_snapshots() {
        let dir = TempDir::new("admission");
        let registry = Registry::new();
        let recorder = Arc::new(Recorder::default());
        let client = registry.register_client(recorder.clone());
        let scenario = tiny_scenario();
        // The folds are never compared here; any summary does.
        let summary = protocol::engine::SessionEngine::new(1)
            .run_trials(&scenario, 1)
            .expect("runs");
        registry.add_job(1, Some(client), tiny_work(&dir.0, 1), (0, 4));

        for trials_done in [2, 2, 1, 4, 3] {
            registry.stream_snapshot(1, trials_done, summary.clone());
        }
        let done = Response::Done {
            job: 1,
            summary: None,
            report: None,
        };
        registry.finish_job(1, &done);
        registry.finish_job(1, &done);
        registry.stream_snapshot(1, 3, summary);

        let sent: Vec<Option<u64>> = recorder
            .sent()
            .iter()
            .map(|response| match response {
                Response::Snapshot { trials_done, .. } => Some(*trials_done),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![Some(2), Some(3), None]);
    }
}
