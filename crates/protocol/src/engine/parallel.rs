//! Deterministic multi-threaded trial execution.
//!
//! Because every trial of a [`Scenario`](super::Scenario) draws from an RNG
//! stream that is a pure function of `(master seed, scenario fingerprint,
//! trial index)`, trials are embarrassingly parallel: any assignment of trials
//! to threads produces the same per-trial results. This module supplies the
//! scheduler that exploits that property without changing a single bit of
//! output:
//!
//! - [`Parallelism`] selects how many worker threads a
//!   [`SessionEngine`](super::SessionEngine) uses ([`Parallelism::Serial`],
//!   [`Parallelism::Threads`], [`Parallelism::Auto`]).
//! - [`scatter`] / [`scatter_visit`] run an indexed task set across workers.
//!   Tasks are claimed in chunks from an atomic cursor (no work stealing, no
//!   dependencies beyond `std`), and finished chunks are re-delivered to the
//!   caller **in strict task-index order**, so folds over the results are
//!   byte-identical to a serial loop — including the floating-point
//!   accumulation order inside
//!   [`TrialSummaryBuilder`](super::TrialSummaryBuilder).
//! - [`ExecutorStats`] reports how the work was actually spread: per-worker
//!   task counts and the wall time of the whole run.
//!
//! # Thread-safety contract
//!
//! The scheduler shares the engine and scenario *by reference* across workers
//! and builds all per-trial state (RNG, channel tap) inside the worker that
//! runs the trial. That makes the bounds audit short:
//!
//! - [`Backend`](super::Backend) is `Send + Sync` by declaration, so the
//!   engine's `Arc<dyn Backend>` crosses threads freely.
//! - [`Adversary::custom`](super::Adversary::custom) factories are
//!   `Fn() -> Box<dyn ChannelTap> + Send + Sync`, so scenarios stay `Sync`;
//!   the produced tap never leaves the worker that called the factory, so
//!   `ChannelTap` itself needs no `Send` bound.
//!
//! Both facts are locked in by compile-time assertions in this module's tests.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How many trial-ahead chunks each worker's share of the task set is split
/// into. Larger values smooth out load imbalance (sessions that abort early
/// are much cheaper than delivered ones) at the cost of more scheduling
/// round-trips.
const CHUNKS_PER_WORKER: usize = 4;

// -------------------------------------------------------------- parallelism --

/// The execution policy of a [`SessionEngine`](super::SessionEngine): how many
/// worker threads fan trials out.
///
/// Every mode produces bit-for-bit identical results — the choice only affects
/// wall time. The textual form accepted by [`FromStr`] (and therefore by the
/// [`UA_DI_QSDC_PARALLELISM`](Parallelism::ENV_VAR) environment variable) is
/// `serial`, `auto`, `threads:N`, or a bare thread count `N`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Run every trial on the calling thread (the default).
    #[default]
    Serial,
    /// Fan trials out across exactly `n` worker threads. `0` and `1` degrade
    /// to [`Parallelism::Serial`].
    Threads(usize),
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Parallelism {
    /// The environment variable [`Parallelism::from_env`] reads.
    pub const ENV_VAR: &'static str = crate::env_keys::PARALLELISM;

    /// The number of worker threads this policy resolves to on the current
    /// machine (always at least 1).
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Reads the policy from the [`UA_DI_QSDC_PARALLELISM`](Self::ENV_VAR)
    /// environment variable; `None` when it is unset.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set to something unparsable — a
    /// misconfigured run must fail loudly, not silently fall back to serial.
    pub fn from_env() -> Option<Parallelism> {
        // detlint: allow(wall-clock): the designated policy read site — bins call this once at startup
        let raw = std::env::var(Self::ENV_VAR).ok()?;
        match raw.parse() {
            Ok(parallelism) => Some(parallelism),
            Err(err) => panic!("invalid {}: {err}", Self::ENV_VAR),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Serial => f.write_str("serial"),
            Parallelism::Threads(n) => write!(f, "threads:{n}"),
            Parallelism::Auto => f.write_str("auto"),
        }
    }
}

/// Error returned when parsing a [`Parallelism`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseParallelismError(String);

impl fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` is not a parallelism policy (expected `serial`, `auto`, `threads:N` or `N`)",
            self.0
        )
    }
}

impl std::error::Error for ParseParallelismError {}

impl FromStr for Parallelism {
    type Err = ParseParallelismError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.trim().to_ascii_lowercase();
        match normalized.as_str() {
            "serial" => return Ok(Parallelism::Serial),
            "auto" => return Ok(Parallelism::Auto),
            _ => {}
        }
        let count = normalized
            .strip_prefix("threads:")
            .unwrap_or(&normalized)
            .parse::<usize>()
            .map_err(|_| ParseParallelismError(s.to_string()))?;
        Ok(Parallelism::Threads(count))
    }
}

// ------------------------------------------------------------------- stats --

/// How one parallel execution actually unfolded: worker utilisation and wall
/// time. Returned by
/// [`SessionEngine::run_trials_with_stats`](super::SessionEngine::run_trials_with_stats)
/// and
/// [`SessionEngine::execute_shard_with_stats`](super::SessionEngine::execute_shard_with_stats).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorStats {
    /// Worker threads used (1 for a serial run).
    pub workers: usize,
    /// Total tasks (trials) requested. After a cancellation (see
    /// [`scatter_visit`]) fewer may actually have been delivered;
    /// [`tasks_per_worker`](Self::tasks_per_worker) counts those.
    pub tasks: usize,
    /// Tasks computed by each worker (indexed by worker id) and delivered to
    /// the caller.
    pub tasks_per_worker: Vec<usize>,
    /// Wall-clock duration of the whole execution.
    pub wall_time: Duration,
}

impl ExecutorStats {
    /// Tasks completed per wall-clock second (0.0 for an instantaneous run).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.tasks as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for ExecutorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks over {} worker(s) in {:?} (per-worker {:?})",
            self.tasks, self.workers, self.wall_time, self.tasks_per_worker
        )
    }
}

// --------------------------------------------------------------- scheduler --

/// One batch of finished tasks travelling from a worker back to the caller.
struct ChunkResult<T> {
    chunk: usize,
    worker: usize,
    results: Vec<T>,
}

/// Sets the shared cancellation flag if the owning worker unwinds (a panicking
/// task), so sibling workers stop claiming chunks instead of computing the
/// rest of the task set before the panic re-raises at scope join.
struct CancelOnPanic<'a> {
    cancelled: &'a AtomicBool,
    armed: bool,
}

impl CancelOnPanic<'_> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for CancelOnPanic<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cancelled.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs `task(0..tasks)` under the given policy and collects the results in
/// task-index order.
///
/// The task function must be a pure function of its index (up to interior
/// caches) — that is what makes the fan-out invisible in the results.
pub fn scatter<T, F>(parallelism: Parallelism, tasks: usize, task: F) -> (Vec<T>, ExecutorStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut results = Vec::with_capacity(tasks);
    let stats = scatter_visit(parallelism, tasks, task, |_, value| {
        results.push(value);
        ControlFlow::Continue(())
    });
    (results, stats)
}

/// Runs `task(0..tasks)` under the given policy, streaming every result to
/// `visit` **in strict task-index order** on the calling thread.
///
/// This is the deterministic-fold primitive: tasks complete out of order on
/// the workers, but `visit(i, _)` is always called with `i` ascending from 0,
/// so order-sensitive folds (running means, first-error selection) behave
/// exactly as in a serial loop. Out-of-order chunks are buffered until their
/// predecessors arrive; with the balanced chunk costs typical of trial sweeps
/// that bounds memory by the scheduling skew, though a pathologically slow
/// early chunk can in the worst case buffer every later result (there is no
/// backpressure on the result channel).
///
/// Returning [`ControlFlow::Break`] from `visit` cancels the remaining work —
/// immediately in the serial path, best-effort in the threaded path (workers
/// finish their in-flight chunk, claim no new ones, and nothing further is
/// delivered). After a cancellation, [`ExecutorStats::tasks_per_worker`]
/// counts only the work that was delivered.
pub fn scatter_visit<T, F, V>(
    parallelism: Parallelism,
    tasks: usize,
    task: F,
    mut visit: V,
) -> ExecutorStats
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    V: FnMut(usize, T) -> ControlFlow<()>,
{
    // detlint: allow(wall-clock): ExecutorStats wall-time telemetry; results never read it
    let started = Instant::now();
    let workers = parallelism.worker_count().min(tasks.max(1));
    if workers <= 1 {
        let mut completed = 0usize;
        for index in 0..tasks {
            let flow = visit(index, task(index));
            completed += 1;
            if flow.is_break() {
                break;
            }
        }
        return ExecutorStats {
            workers: 1,
            tasks,
            tasks_per_worker: vec![completed],
            wall_time: started.elapsed(),
        };
    }

    let chunk_len = tasks.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let chunk_count = tasks.div_ceil(chunk_len);
    let cursor = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let mut tasks_per_worker = vec![0usize; workers];
    let (sender, receiver) = mpsc::channel::<ChunkResult<T>>();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let sender = sender.clone();
            let cursor = &cursor;
            let cancelled = &cancelled;
            let task = &task;
            scope.spawn(move || {
                let guard = CancelOnPanic {
                    cancelled,
                    armed: true,
                };
                loop {
                    if cancelled.load(Ordering::Relaxed) {
                        break;
                    }
                    let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                    if chunk >= chunk_count {
                        break;
                    }
                    let start = chunk * chunk_len;
                    let end = (start + chunk_len).min(tasks);
                    let results: Vec<T> = (start..end).map(task).collect();
                    if sender
                        .send(ChunkResult {
                            chunk,
                            worker,
                            results,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                guard.disarm();
            });
        }
        drop(sender);

        // Re-deliver chunks in index order; park early arrivals until their
        // predecessors land. Worker tallies are taken at delivery, so after a
        // cancellation the stats reflect what the caller actually saw.
        let mut parked: BTreeMap<usize, (usize, Vec<T>)> = BTreeMap::new();
        let mut next_chunk = 0usize;
        let mut received = 0usize;
        'deliver: while received < chunk_count {
            // A closed channel means a worker panicked; leaving the scope
            // re-raises that panic on this thread.
            let Ok(message) = receiver.recv() else {
                break;
            };
            received += 1;
            parked.insert(message.chunk, (message.worker, message.results));
            while let Some((worker, results)) = parked.remove(&next_chunk) {
                let base = next_chunk * chunk_len;
                for (offset, value) in results.into_iter().enumerate() {
                    tasks_per_worker[worker] += 1;
                    if visit(base + offset, value).is_break() {
                        cancelled.store(true, Ordering::Relaxed);
                        break 'deliver;
                    }
                }
                next_chunk += 1;
            }
        }
    });

    ExecutorStats {
        workers,
        tasks,
        tasks_per_worker,
        wall_time: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Scenario, SessionEngine};

    /// The whole point of the scheduler: engines and scenarios cross thread
    /// boundaries by reference.
    #[test]
    fn engine_and_scenario_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SessionEngine>();
        assert_send_sync::<Scenario>();
        assert_send_sync::<Parallelism>();
        assert_send_sync::<ExecutorStats>();
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Parallelism::Serial.worker_count(), 1);
        assert_eq!(Parallelism::Threads(0).worker_count(), 1);
        assert_eq!(Parallelism::Threads(6).worker_count(), 6);
        assert!(Parallelism::Auto.worker_count() >= 1);
    }

    #[test]
    fn parallelism_parses_and_displays() {
        for (text, expected) in [
            ("serial", Parallelism::Serial),
            ("Serial", Parallelism::Serial),
            ("auto", Parallelism::Auto),
            ("threads:2", Parallelism::Threads(2)),
            (" THREADS:8 ", Parallelism::Threads(8)),
            ("4", Parallelism::Threads(4)),
        ] {
            assert_eq!(text.parse::<Parallelism>().unwrap(), expected, "{text}");
        }
        for text in ["", "fast", "threads:", "threads:x", "-1"] {
            let err = text.parse::<Parallelism>().unwrap_err();
            assert!(err.to_string().contains("not a parallelism policy"));
        }
        assert_eq!(Parallelism::Serial.to_string(), "serial");
        assert_eq!(Parallelism::Threads(3).to_string(), "threads:3");
        assert_eq!(Parallelism::Auto.to_string(), "auto");
        assert_eq!(Parallelism::default(), Parallelism::Serial);
    }

    #[test]
    fn scatter_preserves_task_order_under_every_policy() {
        let expected: Vec<usize> = (0..137).map(|i| i * i).collect();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(8),
            Parallelism::Auto,
        ] {
            let (results, stats) = scatter(parallelism, 137, |i| i * i);
            assert_eq!(results, expected, "{parallelism}");
            assert_eq!(stats.tasks, 137);
            assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 137);
            assert_eq!(stats.tasks_per_worker.len(), stats.workers);
        }
    }

    #[test]
    fn scatter_visit_delivers_in_strict_index_order() {
        for parallelism in [Parallelism::Threads(4), Parallelism::Serial] {
            let mut seen = Vec::new();
            let stats = scatter_visit(
                parallelism,
                100,
                |i| i,
                |index, value| {
                    assert_eq!(index, value);
                    seen.push(index);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(seen, (0..100).collect::<Vec<_>>());
            assert_eq!(stats.tasks, 100);
        }
    }

    #[test]
    fn breaking_from_visit_cancels_the_remaining_work() {
        // Serial: exact fail-fast — nothing past the breaking index runs.
        let executed = AtomicUsize::new(0);
        let mut visited = 0usize;
        scatter_visit(
            Parallelism::Serial,
            1_000,
            |i| {
                executed.fetch_add(1, Ordering::Relaxed);
                i
            },
            |index, _| {
                visited += 1;
                if index == 2 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(visited, 3);
        assert_eq!(executed.load(Ordering::Relaxed), 3);

        // Threaded: best-effort — workers may still compute in-flight chunks,
        // but nothing past the break is *delivered*, and the stats count only
        // delivered work.
        let mut visited = 0usize;
        let stats = scatter_visit(
            Parallelism::Threads(2),
            100_000,
            |i| i,
            |index, _| {
                visited += 1;
                if index == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(visited, 1, "nothing is delivered after a break");
        assert_eq!(
            stats.tasks_per_worker.iter().sum::<usize>(),
            1,
            "stats count delivered work only: {stats}"
        );
        assert_eq!(stats.tasks, 100_000, "`tasks` reports the requested count");
    }

    #[test]
    fn empty_task_sets_are_fine() {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(8)] {
            let (results, stats) = scatter(parallelism, 0, |i| i);
            assert!(results.is_empty());
            assert_eq!(stats.tasks, 0);
            assert_eq!(stats.workers, 1, "no tasks need no fan-out");
            assert_eq!(stats.throughput(), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate_and_cancel_siblings() {
        // The panicking worker's CancelOnPanic guard flips the shared flag so
        // sibling workers stop claiming chunks; the panic itself re-raises on
        // the calling thread when the scope joins (std::thread::scope panics
        // with its own message for unjoined panicked threads).
        let _ = scatter(Parallelism::Threads(2), 64, |i| {
            if i == 7 {
                panic!("task 7 exploded");
            }
            i
        });
    }

    #[test]
    fn more_workers_than_tasks_degrades_gracefully() {
        let (results, stats) = scatter(Parallelism::Threads(16), 3, |i| i + 1);
        assert_eq!(results, vec![1, 2, 3]);
        assert!(stats.workers <= 3);
        assert!(stats.to_string().contains("worker"));
    }
}
