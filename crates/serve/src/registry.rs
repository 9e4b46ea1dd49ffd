//! In-memory multiplexing state: which clients are connected, which jobs
//! are live, and in what order workers should try them.
//!
//! The registry is the only mutable shared state of the server; everything
//! durable lives in the [`Spool`](crate::spool::Spool). Its scheduling
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
use protocol::wire::Response;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Where a job's asynchronous responses (snapshots, completion) are
/// written. The server implements this over a shared TCP write half; tests
/// implement it over a vector.
pub trait ResponseSink: Send + Sync {
    /// Delivers one response if `live()` still holds when the sink is about
    /// to write it. The check runs under the sink's write lock, so a
    /// response made stale by a concurrent writer (a snapshot racing its
    /// job's `Cancelled`) is dropped rather than sent after it. Delivery
    /// is best-effort: a sink whose client vanished silently discards (the
    /// job itself keeps running — its result is in the spool).
    fn send_if(&self, response: &Response, live: &dyn Fn() -> bool);

    /// Delivers one response unconditionally.
    fn send(&self, response: &Response) {
        self.send_if(response, &|| true);
    }
}

/// One schedulable job, in the fair order chosen by [`Registry::schedule`].
#[derive(Clone)]
pub struct ScheduleEntry {
    /// The job id.
    pub job: u64,
    /// The job's executable queues.
    pub work: Arc<JobWork>,
}

/// Why a cancellation request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was removed from scheduling; mark it in the spool.
    Cancelled,
    /// No live job with this id belongs to the requesting client.
    Unknown,
}

struct JobEntry {
    /// Owning client, or `None` for jobs recovered from the spool.
    client: Option<u64>,
    work: Arc<JobWork>,
    trials_total: u64,
    /// Snapshot cadence in trials (0 disables streaming for the job).
    snapshot_trials: u64,
    /// Trials covered by the last streamed snapshot.
    last_snapshot: u64,
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
}

/// The server's shared scheduling state. See the module docs.
#[derive(Default)]
pub struct Registry {
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
    pub fn register_client(&self, sink: Arc<dyn ResponseSink>) -> u64 {
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
    pub fn client_gone(&self, client: u64) {
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
    pub fn reserve_slot(&self, client: u64, quota: usize) -> Result<(), (usize, usize)> {
        let mut state = self.lock();
        let entry = state.clients.get_mut(&client).ok_or((quota, quota))?;
        if entry.in_flight >= quota {
            return Err((entry.in_flight, quota));
        }
        entry.in_flight += 1;
        Ok(())
    }

    /// Returns a reserved slot after a failed lowering.
    pub fn release_slot(&self, client: u64) {
        let mut state = self.lock();
        if let Some(entry) = state.clients.get_mut(&client) {
            entry.in_flight = entry.in_flight.saturating_sub(1);
        }
    }

    /// Adds a lowered job to the schedule and wakes the worker pool.
    /// `client: None` marks a job recovered from the spool.
    pub fn add_job(
        &self,
        job: u64,
        client: Option<u64>,
        work: Arc<JobWork>,
        trials_total: u64,
        snapshot_trials: u64,
    ) {
        let mut state = self.lock();
        state.jobs.insert(
            job,
            JobEntry {
                client,
                work,
                trials_total,
                snapshot_trials,
                last_snapshot: 0,
                finalizing: false,
            },
        );
        drop(state);
        self.wake.notify_all();
    }

    /// The live jobs in fair order: one job per client bucket in rotation
    /// (recovered jobs form their own bucket), then everyone's second job,
    /// and so on. The rotation origin advances each call, so no client is
    /// permanently "first".
    pub fn schedule(&self) -> Vec<ScheduleEntry> {
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

    /// The executable work of a live job, if any.
    pub fn job_work(&self, job: u64) -> Option<Arc<JobWork>> {
        self.lock().jobs.get(&job).map(|e| Arc::clone(&e.work))
    }

    /// Whether `job` is still scheduled: not yet finished, failed or
    /// cancelled.
    pub fn is_live(&self, job: u64) -> bool {
        self.lock().jobs.contains_key(&job)
    }

    /// The sink of the client owning `job`, when both are still around.
    pub fn sink_for_job(&self, job: u64) -> Option<Arc<dyn ResponseSink>> {
        let state = self.lock();
        let client = state.jobs.get(&job)?.client?;
        state.clients.get(&client)?.sink.clone()
    }

    /// True exactly once per job: the calling worker owns finalization
    /// (merging and writing `result.json`). Returns `false` for unknown
    /// jobs and for jobs someone else is already finalizing.
    pub fn begin_finalize(&self, job: u64) -> bool {
        let mut state = self.lock();
        match state.jobs.get_mut(&job) {
            Some(entry) if !entry.finalizing => {
                entry.finalizing = true;
                true
            }
            _ => false,
        }
    }

    /// Undoes [`begin_finalize`](Self::begin_finalize) after a finalization
    /// failure, so another worker can retry.
    pub fn abort_finalize(&self, job: u64) {
        let mut state = self.lock();
        if let Some(entry) = state.jobs.get_mut(&job) {
            entry.finalizing = false;
        }
    }

    /// Removes a finished job, releases its quota slot, and returns the
    /// owner's sink (if the client is still connected) for the final
    /// [`Done`](Response::Done) delivery.
    pub fn finish_job(&self, job: u64) -> Option<Arc<dyn ResponseSink>> {
        let mut state = self.lock();
        let entry = state.jobs.remove(&job)?;
        let client = entry.client?;
        let client_entry = state.clients.get_mut(&client)?;
        client_entry.in_flight = client_entry.in_flight.saturating_sub(1);
        let sink = client_entry.sink.clone();
        if client_entry.sink.is_none() && client_entry.in_flight == 0 {
            state.clients.remove(&client);
        }
        sink
    }

    /// Cancels a live job owned by `client`: removes it from scheduling and
    /// releases its slot. Jobs owned by other clients (or by no client) are
    /// reported [`Unknown`](CancelOutcome::Unknown) — ids are not leaked
    /// across tenants.
    pub fn cancel(&self, job: u64, client: u64) -> CancelOutcome {
        let mut state = self.lock();
        let owned = matches!(state.jobs.get(&job), Some(entry) if entry.client == Some(client));
        if !owned {
            return CancelOutcome::Unknown;
        }
        state.jobs.remove(&job);
        if let Some(client_entry) = state.clients.get_mut(&client) {
            client_entry.in_flight = client_entry.in_flight.saturating_sub(1);
        }
        CancelOutcome::Cancelled
    }

    /// Snapshot gate: true when `trials_done` crossed the job's cadence
    /// since the last streamed snapshot (and records the new watermark).
    pub fn snapshot_due(&self, job: u64, trials_done: u64) -> bool {
        let mut state = self.lock();
        let Some(entry) = state.jobs.get_mut(&job) else {
            return false;
        };
        if entry.snapshot_trials == 0 || trials_done >= entry.trials_total {
            // Completion is announced by `Done`, not a trailing snapshot.
            return false;
        }
        if trials_done >= entry.last_snapshot + entry.snapshot_trials {
            entry.last_snapshot = trials_done;
            true
        } else {
            false
        }
    }

    /// Parks a worker until new work arrives or `timeout` passes (leases
    /// expire on wall time, so workers must re-poll even without new
    /// submissions).
    pub fn wait_for_work(&self, timeout: Duration) {
        let state = self.lock();
        let _unused = self
            .wake
            .wait_timeout(state, timeout)
            .unwrap_or_else(|poison| poison.into_inner());
    }

    /// Number of live jobs (diagnostics and tests).
    pub fn live_jobs(&self) -> usize {
        self.lock().jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocol::engine::{Scenario, SessionEngine, ShardOutput, ShardQueue};
    use protocol::identity::IdentityPair;
    use protocol::SessionConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;

    struct NullSink;

    impl ResponseSink for NullSink {
        fn send_if(&self, _response: &Response, _live: &dyn Fn() -> bool) {}
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

    fn tiny_work(dir: &std::path::Path, tag: u64) -> Arc<JobWork> {
        let plan = SessionEngine::new(tag).plan(&tiny_scenario(), 2);
        let queue = ShardQueue::init(
            dir.join(format!("job-{tag}")),
            &plan,
            2,
            ShardOutput::Summary,
        )
        .expect("queue inits");
        Arc::new(JobWork::Session { queue })
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
        registry.add_job(1, Some(a), tiny_work(&dir.0, 1), 2, 0);
        registry.add_job(2, Some(a), tiny_work(&dir.0, 2), 2, 0);
        registry.add_job(3, Some(b), tiny_work(&dir.0, 3), 2, 0);

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
        registry.add_job(1, Some(client), tiny_work(&dir.0, 1), 2, 0);
        registry.add_job(2, Some(client), tiny_work(&dir.0, 2), 2, 0);

        // Finishing one job frees one slot.
        assert!(registry.begin_finalize(1));
        assert!(!registry.begin_finalize(1), "finalize is exactly-once");
        assert!(registry.finish_job(1).is_some());
        assert!(!registry.is_live(1));
        assert_eq!(registry.reserve_slot(client, 2), Ok(()));

        // Cancelling is identity-checked and frees the slot too.
        let intruder = registry.register_client(Arc::new(NullSink));
        assert_eq!(registry.cancel(2, intruder), CancelOutcome::Unknown);
        assert!(registry.is_live(2));
        assert_eq!(registry.cancel(2, client), CancelOutcome::Cancelled);
        assert!(!registry.is_live(2));
        assert_eq!(registry.reserve_slot(client, 2), Ok(()));
    }
}
