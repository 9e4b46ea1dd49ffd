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
//! - `fold` runs an indexed task set across workers. Tasks are claimed in
//!   chunks of consecutive indices from an atomic cursor (no work stealing,
//!   no dependencies beyond `std`). Each worker folds a chunk into one
//!   payload on its own thread and sends that payload, not the per-task
//!   results, to the caller, which joins the payloads **in chunk order**.
//!   Within a chunk tasks fold in index order, so a fold whose join is an
//!   exact in-order concatenation is byte-identical to a serial loop —
//!   including the floating-point accumulation order inside
//!   [`TrialSummaryBuilder`](super::TrialSummaryBuilder). A summary-mode
//!   run therefore never moves a per-trial outcome between threads.
//!   [`scatter`] is the same fold with a `Vec` accumulator.
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
//! - A [`Scenario`](super::Scenario) is plain data, so it is `Sync`; each
//!   worker builds its own tap with
//!   [`Adversary::make_tap`](super::Adversary::make_tap) and the tap never
//!   leaves that worker, so `ChannelTap` itself needs no `Send` bound.
//!
//! Both facts are locked in by compile-time assertions in this module's tests.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;
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
    /// Total tasks (trials) requested. After a failed task (see `fold`)
    /// fewer may actually have been delivered;
    /// [`tasks_per_worker`](Self::tasks_per_worker) counts those.
    pub tasks: usize,
    /// Tasks computed by each worker (indexed by worker id) and delivered to
    /// the caller: folded into the result, or before the first error.
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

/// One chunk of consecutive tasks, folded on the worker that ran it.
struct ChunkFold<A, E> {
    chunk: usize,
    worker: usize,
    /// The fold over the chunk's tasks up to (not including) the first
    /// failing one.
    acc: A,
    /// Tasks folded into `acc`.
    folded: usize,
    /// The error that stopped the chunk, if one did.
    error: Option<E>,
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
/// task-index order: `fold` with a `Vec` accumulator.
///
/// The task function must be a pure function of its index (up to interior
/// caches) — that is what makes the fan-out invisible in the results.
pub fn scatter<T, F>(parallelism: Parallelism, tasks: usize, task: F) -> (Vec<T>, ExecutorStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (results, stats) = fold(
        parallelism,
        tasks,
        Vec::with_capacity,
        |results, index| {
            results.push(task(index));
            Ok::<(), Infallible>(())
        },
        |results, mut next| results.append(&mut next),
    );
    let Ok(results) = results;
    (results, stats)
}

/// Folds `step(acc, i)` over every task `i` in `0..tasks` under the given
/// policy: the deterministic-fold primitive of the engine.
///
/// The task set is cut into chunks of consecutive indices. Each chunk is
/// folded **on the worker that runs it**, into a fresh accumulator from
/// `new(chunk_len)`, with `i` ascending. The calling thread then joins the
/// chunk accumulators with `join(acc, next)` **in chunk order**, so an
/// order-sensitive fold (running means, sample logs) whose `join` is an exact
/// in-order concatenation equals a serial loop bit for bit. The serial path
/// is the same fold with one chunk.
///
/// A chunk stops at its first failing task. The first failed chunk in order
/// wins, which makes the returned error the first error in task order, as in
/// a serial loop. Failure cancels the remaining work: at once in the serial
/// path, best-effort in the threaded path (workers finish their in-flight
/// chunk and claim no new ones). [`ExecutorStats::tasks_per_worker`] counts
/// only the tasks delivered: those folded into the returned accumulator, or
/// on failure those before the first error.
///
/// Chunks that finish early wait on the calling thread until their
/// predecessors arrive. With the balanced chunk costs typical of trial sweeps
/// that bounds memory by the scheduling skew. There is no backpressure, so
/// with a `Vec` accumulator a pathologically slow early chunk can in the
/// worst case park every later result; an accumulator that holds a few
/// numbers per task (a summary partial) makes that harmless.
pub(crate) fn fold<A, E, N, S, J>(
    parallelism: Parallelism,
    tasks: usize,
    new: N,
    step: S,
    mut join: J,
) -> (Result<A, E>, ExecutorStats)
where
    A: Send,
    E: Send,
    N: Fn(usize) -> A + Sync,
    S: Fn(&mut A, usize) -> Result<(), E> + Sync,
    J: FnMut(&mut A, A),
{
    // detlint: allow(wall-clock): ExecutorStats wall-time telemetry; results never read it
    let started = Instant::now();
    let fold_chunk = |chunk: usize, worker: usize, range: Range<usize>| {
        let mut acc = new(range.len());
        let mut folded = 0usize;
        let mut error = None;
        for index in range {
            if let Err(failure) = step(&mut acc, index) {
                error = Some(failure);
                break;
            }
            folded += 1;
        }
        ChunkFold {
            chunk,
            worker,
            acc,
            folded,
            error,
        }
    };

    let workers = parallelism.worker_count().min(tasks.max(1));
    if workers <= 1 {
        let whole = fold_chunk(0, 0, 0..tasks);
        let stats = ExecutorStats {
            workers: 1,
            tasks,
            tasks_per_worker: vec![whole.folded],
            wall_time: started.elapsed(),
        };
        return (whole.error.map_or(Ok(whole.acc), Err), stats);
    }

    let chunk_len = tasks.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let chunk_count = tasks.div_ceil(chunk_len);
    let cursor = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let mut tasks_per_worker = vec![0usize; workers];
    let mut joined: Option<A> = None;
    let mut failure: Option<E> = None;
    let (sender, receiver) = mpsc::channel::<ChunkFold<A, E>>();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let sender = sender.clone();
            let cursor = &cursor;
            let cancelled = &cancelled;
            let fold_chunk = &fold_chunk;
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
                    let done = fold_chunk(chunk, worker, start..(start + chunk_len).min(tasks));
                    if done.error.is_some() {
                        // Every earlier chunk is already claimed, so the
                        // caller still receives all it needs to find the
                        // first error; later chunks are wasted work.
                        cancelled.store(true, Ordering::Relaxed);
                    }
                    if sender.send(done).is_err() {
                        break;
                    }
                }
                guard.disarm();
            });
        }
        drop(sender);

        // Join chunks in index order; park early arrivals until their
        // predecessors land. Worker tallies are taken at delivery, so the
        // stats reflect what the caller actually folded.
        let mut parked: BTreeMap<usize, ChunkFold<A, E>> = BTreeMap::new();
        let mut next_chunk = 0usize;
        'deliver: while next_chunk < chunk_count {
            // A closed channel means a worker panicked; leaving the scope
            // re-raises that panic on this thread.
            let Ok(done) = receiver.recv() else {
                break;
            };
            parked.insert(done.chunk, done);
            while let Some(done) = parked.remove(&next_chunk) {
                tasks_per_worker[done.worker] += done.folded;
                if let Some(error) = done.error {
                    failure = Some(error);
                    cancelled.store(true, Ordering::Relaxed);
                    break 'deliver;
                }
                match &mut joined {
                    Some(acc) => join(acc, done.acc),
                    None => joined = Some(done.acc),
                }
                next_chunk += 1;
            }
        }
    });

    let stats = ExecutorStats {
        workers,
        tasks,
        tasks_per_worker,
        wall_time: started.elapsed(),
    };
    let result = match failure {
        Some(error) => Err(error),
        None => Ok(joined.expect("a task set with workers has at least one chunk")),
    };
    (result, stats)
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
    fn fold_joins_chunk_payloads_in_task_order() {
        // A string accumulator is order-sensitive: any out-of-order join or
        // any task folded twice shows up in the text.
        let expected: String = (0..100).map(|i| format!("{i},")).collect();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(7),
        ] {
            let chunks = AtomicUsize::new(0);
            let (text, stats) = fold(
                parallelism,
                100,
                |_| {
                    chunks.fetch_add(1, Ordering::Relaxed);
                    String::new()
                },
                |text, i| {
                    text.push_str(&format!("{i},"));
                    Ok::<(), ()>(())
                },
                |text, next| text.push_str(&next),
            );
            assert_eq!(text.unwrap(), expected, "{parallelism}");
            assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 100);
            let chunks = chunks.load(Ordering::Relaxed);
            if stats.workers == 1 {
                assert_eq!(chunks, 1, "the serial path is one chunk");
            } else {
                assert!(
                    chunks > 1 && chunks < 100,
                    "one payload per chunk: {chunks}"
                );
            }
        }
    }

    #[test]
    fn the_first_error_in_task_order_wins_under_every_worker_count() {
        // 200 tasks on n workers make 4n chunks; 90 sits in a middle chunk
        // for every count below, and 150 fails later. With workers, task 90
        // holds its chunk until task 150 has failed, so the later failure
        // always reaches the caller first. The caller must still report 90
        // and count exactly the 90 tasks before it.
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(5),
            Parallelism::Threads(8),
        ] {
            let threaded = parallelism.worker_count() > 1;
            for _ in 0..4 {
                let later_failed = AtomicBool::new(false);
                let (result, stats) = fold(
                    parallelism,
                    200,
                    |_| 0usize,
                    |count, i| match i {
                        90 => {
                            while threaded && !later_failed.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                            Err(i)
                        }
                        150 => {
                            later_failed.store(true, Ordering::Release);
                            Err(i)
                        }
                        _ => {
                            *count += 1;
                            Ok(())
                        }
                    },
                    |count, next| *count += next,
                );
                assert_eq!(result, Err(90), "{parallelism}");
                assert_eq!(
                    stats.tasks_per_worker.iter().sum::<usize>(),
                    90,
                    "stats count delivered tasks only: {stats}"
                );
                assert_eq!(stats.tasks, 200, "`tasks` reports the requested count");
            }
        }
    }

    #[test]
    fn a_serial_failure_stops_at_once() {
        let executed = AtomicUsize::new(0);
        let (result, stats) = fold(
            Parallelism::Serial,
            1_000,
            |_| (),
            |_, i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 2 {
                    Err("task 2 failed")
                } else {
                    Ok(())
                }
            },
            |_, _| {},
        );
        assert_eq!(result, Err("task 2 failed"));
        assert_eq!(executed.load(Ordering::Relaxed), 3);
        assert_eq!(stats.tasks_per_worker, vec![2]);
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
