//! The two in-process workloads: `eta50-honest` (serial, kernel-bound) and
//! `intercept-ideal` (parallel, bookkeeping-bound). A job is one
//! `SessionEngine::run_trials` call on a batch of trials with its own
//! derived master seed.

use crate::common::{self, derive_seed, summary_bytes, Report};
use crate::stats;
use crate::trace::{self, TraceMode, TracingBackend};
use protocol::engine::{Parallelism, Scenario, SessionEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `intercept-ideal` batches behind `protocol.parallel.worker_imbalance`.
const IMBALANCE_BATCHES: u64 = 16;

/// One in-process workload.
pub struct Kernel {
    pub scenario: Scenario,
    pub parallelism: Parallelism,
    /// Trials per `run_trials` call.
    pub batch: usize,
    /// Whether the scenario is attacked (every trial must abort).
    pub attacked: bool,
}

impl Kernel {
    /// `eta50-honest`: serial honest sessions on the η=50 brisbane chain.
    pub fn eta50_honest(seed: u64) -> Kernel {
        Kernel {
            scenario: common::eta50_scenario(seed),
            parallelism: Parallelism::Serial,
            batch: 1,
            attacked: false,
        }
    }

    /// `intercept-ideal`: the intercept-resend demo on `threads` workers.
    pub fn intercept_ideal(seed: u64, threads: usize) -> Kernel {
        Kernel {
            scenario: common::demo_scenario(seed, common::intercept(), "shardctl-intercept"),
            parallelism: Parallelism::Threads(threads),
            batch: 512,
            attacked: true,
        }
    }

    /// The engine of job `job`: its own derived master seed, the
    /// workload's parallelism.
    pub fn engine(&self, seed: u64, job: u64) -> SessionEngine {
        SessionEngine::new(derive_seed(seed, job)).with_parallelism(self.parallelism)
    }

    /// Warms the thread pools and allocator with untimed batches (at least
    /// four, and at least sixteen trials, so the warm-up's length does not
    /// hinge on which few trials abort early).
    pub fn warm_up(&self, seed: u64) {
        for job in 0..(16 / self.batch).max(4) as u64 {
            let _ = self
                .engine(seed ^ 0x5eed, job)
                .run_trials(&self.scenario, self.batch);
        }
    }

    /// Runs one checked batch and returns its summary bytes.
    fn job(&self, engine: &SessionEngine, report: &mut Report) -> Option<String> {
        match engine.run_trials(&self.scenario, self.batch) {
            Ok(summary) => {
                report.summary(&summary, self.batch, self.attacked);
                Some(summary_bytes(&summary))
            }
            Err(error) => {
                report.op(Err(format!("run_trials failed: {error}")));
                None
            }
        }
    }

    /// The end-to-end run: batches back to back for `seconds`, then a
    /// serial re-run of the first batch that must reproduce it byte for
    /// byte.
    pub fn run(&self, seed: u64, seconds: f64, report: &mut Report) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut jobs = Vec::new();
        let mut first = None;
        let mut job = 0u64;
        while job == 0 || Instant::now() < deadline {
            let engine = self.engine(seed, job);
            let start = Instant::now();
            let bytes = self.job(&engine, report);
            let took = start.elapsed();
            jobs.push((self.batch, took.as_secs_f64()));
            if job == 0 {
                first = bytes;
            }
            job += 1;
        }
        let serial =
            SessionEngine::new(derive_seed(seed, 0)).run_trials(&self.scenario, self.batch);
        report.op(match (serial, first) {
            (Ok(serial), Some(first)) if summary_bytes(&serial) == first => Ok(()),
            _ => Err("first batch does not replay byte-identically on one thread".to_string()),
        });
        common::put_quiet_windows(report, &stats::windows(&jobs, 0.5));
    }

    /// The traced run of `workload`. Each batch runs untraced and then with
    /// a timed tracer, back to back so both see the same machine state;
    /// every other batch runs a third time with a hashing tracer. All runs
    /// of a batch must agree byte for byte.
    pub fn run_traced(
        &self,
        workload: &str,
        seed: u64,
        threads: usize,
        seconds: f64,
        report: &mut Report,
    ) {
        let tracer = |mode| Arc::new(TracingBackend::new(self.scenario.backend.backend(), mode));
        let (timed, hashed) = (tracer(TraceMode::Timed), tracer(TraceMode::HashInputs));
        let deadline = Instant::now() + Duration::from_secs_f64(0.8 * seconds);
        let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
        let mut batches = 0u64;
        while batches == 0 || Instant::now() < deadline {
            let engine = self.engine(seed, batches);
            let start = Instant::now();
            let outcome = engine.run_trials(&self.scenario, self.batch);
            untraced += start.elapsed();
            let reference = match outcome {
                Ok(summary) => {
                    report.summary(&summary, self.batch, self.attacked);
                    summary_bytes(&summary)
                }
                Err(error) => {
                    report.op(Err(format!("run_trials failed: {error}")));
                    String::new()
                }
            };
            let mut tracers = vec![&timed];
            if batches.is_multiple_of(2) {
                tracers.push(&hashed);
            }
            for tracer in tracers {
                let engine = engine.clone().with_backend(tracer.clone());
                let start = Instant::now();
                let outcome = engine.run_trials(&self.scenario, self.batch);
                if Arc::ptr_eq(tracer, &timed) {
                    traced += start.elapsed();
                }
                report.op(match outcome {
                    Ok(summary) if summary_bytes(&summary) == reference => Ok(()),
                    _ => Err(format!(
                        "traced batch {batches} differs from the untraced one"
                    )),
                });
            }
            batches += 1;
        }
        let trials = (batches as usize * self.batch) as f64;
        let workers = self.parallelism.worker_count() as f64;
        put_session_layer(
            report,
            &timed,
            &hashed,
            trials,
            traced.as_nanos() as f64 * workers,
        );
        put_session_counts(report, workload, seed, threads);
        report.put(
            "trace.overhead",
            traced.as_secs_f64() / untraced.as_secs_f64(),
            "ratio",
        );
        common::micro_benchmarks(
            &self.scenario,
            seed,
            Duration::from_secs_f64(0.1 * seconds),
            report,
        );
    }
}

/// `protocol.parallel.worker_imbalance` of `intercept-ideal`'s batches on
/// `threads` workers: the busiest worker's tasks over the mean worker's,
/// averaged over the batches.
fn worker_imbalance(seed: u64, threads: usize) -> Result<f64, String> {
    let kernel = Kernel::intercept_ideal(seed, threads);
    let mut imbalance = Vec::new();
    for job in 0..IMBALANCE_BATCHES {
        let (_, run) = kernel
            .engine(seed, job)
            .run_trials_with_stats(&kernel.scenario, kernel.batch)
            .map_err(|e| format!("run_trials failed: {e}"))?;
        let counts: Vec<f64> = run.tasks_per_worker.iter().map(|&n| n as f64).collect();
        let busiest = counts.iter().copied().fold(0.0, f64::max);
        imbalance.push(stats::ratio(busiest, stats::mean(&counts).unwrap_or(0.0)));
    }
    Ok(stats::mean(&imbalance).expect("at least one batch"))
}

/// Reports the `qchannel` spans and the session's self time from a timed
/// tracer, and the distinct transmit inputs from a hashing one: `busy_ns`
/// is the traced time spent in trials (wall time times workers for a
/// parallel run), of which everything outside emit and transmit spans is
/// the session layer's own.
pub fn put_session_layer(
    report: &mut Report,
    timed: &TracingBackend,
    hashed: &TracingBackend,
    trials: f64,
    busy_ns: f64,
) {
    for (name, span) in [("emit", &timed.emit), ("transmit", &timed.transmit)] {
        let calls = span.calls() as f64;
        let nanos = span.nanos() as f64;
        report.put(
            &format!("qchannel.{name}.calls_per_trial"),
            calls / trials,
            "count",
        );
        report.put_n(
            &format!("qchannel.{name}.ns_per_call"),
            stats::ratio(nanos, calls),
            "ns",
            Some(calls as usize),
        );
        report.put(&format!("qchannel.{name}.share"), nanos / busy_ns, "frac");
    }
    let self_ns = busy_ns - timed.emit.nanos() as f64 - timed.transmit.nanos() as f64;
    report.put("protocol.session.self_ns_per_trial", self_ns / trials, "ns");
    report.put("protocol.session.self_share", self_ns / busy_ns, "frac");
    report.put_measured(
        "qchannel.transmit.distinct_input_frac",
        hashed
            .distinct_input_frac()
            .ok_or_else(|| "no density-matrix transmit input was hashed".to_string()),
        "frac",
    );
    report.put("trace.clock_ns", trace::clock_ns(), "ns");
}

/// The session metrics a traced run takes from outside its own timed work:
/// heap allocations per trial of `workload`'s sessions, counted by the
/// `perfbench-allocs` binary, and the scatter scheduler's worker imbalance
/// from `intercept-ideal`'s batches, the workload that drives that
/// scheduler (serial and fabric runs hand each engine call one worker, so
/// they have nothing to balance).
pub fn put_session_counts(report: &mut Report, workload: &str, seed: u64, threads: usize) {
    report.put_measured(
        "protocol.session.allocs_per_trial",
        trace::allocs_per_trial(workload, seed, threads),
        "count",
    );
    report.put_measured(
        "protocol.parallel.worker_imbalance",
        worker_imbalance(seed, threads),
        "ratio",
    );
}
