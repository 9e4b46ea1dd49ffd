//! The repository benchmark: four workloads, each aimed at one layer, with
//! end-to-end metrics measured untraced and a separate traced run that
//! breaks time down by layer from outside, by timing calls into each
//! layer's public functions.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bash perfbench/run.sh --all [--seed n] [--seconds s]
//! ```
//!
//! `run.sh` builds this binary and `perfbench-allocs`, the allocation
//! counter that traced runs spawn, then runs this one. One run prints a
//! human-readable report (provenance, then every metric with its unit and
//! sample count) on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric untraced, every per-layer metric traced). It exits
//! non-zero when any output check fails. `--all` runs every workload
//! both ways in child processes and prints one table. Workloads, metrics
//! and the layer each one watches are described in `perfbench/NOTES.md`.

use perfbench::common::{self, Report};
use perfbench::{fabric, kernel, service, stats, trace};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = [
    "eta50-honest",
    "intercept-ideal",
    "queue-fine-shards",
    "serve-open-loop",
];

/// End-to-end metrics, reported untraced by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run.
const PER_LAYER: [(&str, &str); 50] = [
    ("qchannel.emit.calls_per_trial", "count"),
    ("qchannel.emit.ns_per_call", "ns"),
    ("qchannel.emit.share", "frac"),
    ("qchannel.transmit.calls_per_trial", "count"),
    ("qchannel.transmit.ns_per_call", "ns"),
    ("qchannel.transmit.share", "frac"),
    ("qchannel.transmit.distinct_input_frac", "frac"),
    ("qchannel.bell_measure.ns_per_call", "ns"),
    ("protocol.session.self_ns_per_trial", "ns"),
    ("protocol.session.self_share", "frac"),
    ("protocol.session.allocs_per_trial", "count"),
    ("protocol.di_check.ns_per_round", "ns"),
    ("protocol.auth.ns_per_verify", "ns"),
    ("protocol.parallel.worker_imbalance", "ratio"),
    ("queue.claim.p50_us", "us"),
    ("queue.claim.p90_us", "us"),
    ("queue.submit.p50_us", "us"),
    ("queue.submit.p90_us", "us"),
    ("queue.heartbeat_us", "us"),
    ("queue.merge_ms", "ms"),
    ("queue.execute_share", "frac"),
    ("queue.checkpoint_bytes", "bytes"),
    ("queue.write_bytes_per_op", "bytes"),
    ("queue.wait_frac", "frac"),
    ("queue.already_done_frac", "frac"),
    ("serve.job_p50_ms.low", "ms"),
    ("serve.job_p90_ms.low", "ms"),
    ("serve.job_p50_ms.mid", "ms"),
    ("serve.job_p90_ms.mid", "ms"),
    ("serve.job_p50_ms.high", "ms"),
    ("serve.job_p90_ms.high", "ms"),
    ("serve.max_rate_jobs_per_s", "1/s"),
    ("serve.capacity_trials_per_s", "1/s"),
    ("serve.accept_ms.p50", "ms"),
    ("serve.done_ms.p50", "ms"),
    ("serve.lower_us", "us"),
    ("serve.claim_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.snapshot_us", "us"),
    ("serve.finalize_us", "us"),
    ("serve.self_us", "us"),
    ("serve.unaccounted_ms", "ms"),
    ("serve.busy_frac", "frac"),
    ("serve.backlog_end", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("loadgen.lag_p90_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.clock_ns", "ns"),
];

/// Times the workload is set up in an untraced run; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 9;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
    };
    let mut all = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--all" => all = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match &args.workload {
        Some(name) if !WORKLOADS.contains(&name.as_str()) => Err(format!(
            "unknown workload {name} (expected one of {WORKLOADS:?})"
        )),
        None if !all => Err("pass --workload <name> or --all".into()),
        _ => Ok(args),
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The git revision of the checkout, read from `.git` without running git.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|line| line.ends_with(reference))
                            .map(|line| line[..line.find(' ').unwrap_or(0)].to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let resolved = resolved.trim();
    if resolved.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        resolved.to_string()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args, workload: &str, threads: usize) {
    eprintln!("perfbench {workload} (trace {})", u8::from(args.trace));
    eprintln!(
        "  provenance: available_parallelism={} cpu=\"{}\" rustc=\"{}\" git={} profile={} seed={} seconds={} threads={threads}",
        cores(),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        git_revision(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.seed,
        args.seconds,
    );
}

/// Sets the workload up and hands it to `measure`, then repeats the
/// set-up until it has run `repeats` times, and returns the median set-up
/// time. The repeats follow the measured phase because a set-up can leave
/// threads behind (a started server cannot be stopped, and its idle
/// workers poll), and nothing may run beside the measurement.
fn timed_setups<T>(
    repeats: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    measure: impl FnOnce(T),
) -> Result<f64, String> {
    let start = Instant::now();
    let first = setup(0)?;
    let mut times = vec![start.elapsed().as_secs_f64()];
    measure(first);
    for index in 1..repeats {
        let start = Instant::now();
        drop(setup(index)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(stats::median(&times).expect("at least one set-up"))
}

fn queue_fabric(seed: u64, threads: usize, dir: &Path) -> fabric::Fabric {
    fabric::Fabric {
        scenario: common::demo_scenario(
            seed,
            protocol::engine::Adversary::Honest,
            "shardctl-honest",
        ),
        workers: threads,
        dir: dir.join("queues"),
        queues: Default::default(),
    }
}

/// Set-up of the queue workload: inputs, a queue init, and a warm drain.
fn queue_setup(seed: u64, threads: usize, dir: &Path) -> Result<fabric::Fabric, String> {
    let fabric = queue_fabric(seed, threads, dir);
    let plan = protocol::engine::SessionEngine::new(seed).plan(&fabric.scenario, fabric::SHARDS);
    let probe = fabric.dir.join("setup");
    protocol::engine::ShardQueue::init(&probe, &plan, 1, protocol::engine::ShardOutput::Summary)
        .map_err(|e| e.to_string())?;
    fabric.warm_up(seed)?;
    Ok(fabric)
}

fn run_workload(args: &Args, workload: &str, dir: &Path) -> Result<Report, String> {
    let threads = cores().min(2);
    let compute_threads = if workload == "eta50-honest" {
        1
    } else {
        threads
    };
    provenance(args, workload, compute_threads);
    if compute_threads > cores() {
        return Err(format!(
            "flagged: {workload} needs {compute_threads} threads on {} cores; not reported",
            cores()
        ));
    }
    let (seed, s, traced) = (args.seed, args.seconds, args.trace);
    // A traced run reports no set-up time, so it sets up once.
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut report = Report::default();
    let setup_s = match workload {
        "eta50-honest" | "intercept-ideal" => timed_setups(
            repeats,
            |_| {
                let kernel = if workload == "eta50-honest" {
                    kernel::Kernel::eta50_honest(seed)
                } else {
                    kernel::Kernel::intercept_ideal(seed, threads)
                };
                kernel.warm_up(seed);
                Ok(kernel)
            },
            |kernel| {
                if traced {
                    kernel.run_traced(workload, seed, threads, 0.55 * s, &mut report);
                    queue_fabric(seed, threads, dir).queue_layer(seed, 0.15 * s, &mut report);
                    service::serve_layer(seed, 0.3 * s, threads, &dir.join("serve"), &mut report);
                } else {
                    kernel.run(seed, s, &mut report);
                }
            },
        )?,
        "queue-fine-shards" => timed_setups(
            repeats,
            |_| queue_setup(seed, threads, dir),
            |fabric| {
                if traced {
                    fabric.run_traced(seed, 0.6 * s, &mut report);
                    service::serve_layer(seed, 0.4 * s, threads, &dir.join("serve"), &mut report);
                } else {
                    fabric.run(seed, s, &mut report);
                }
            },
        )?,
        "serve-open-loop" if traced => {
            queue_fabric(seed, threads, dir).queue_layer(seed, 0.3 * s, &mut report);
            service::run_traced(seed, 0.7 * s, threads, &dir.join("serve"), &mut report);
            0.0
        }
        "serve-open-loop" => timed_setups(
            repeats,
            |index| {
                service::Service::start(
                    seed,
                    service::ladder(s, &service::RATES[..2]),
                    0,
                    threads,
                    &dir.join(format!("setup-{index}")),
                )
            },
            |service| service::run(&service, &mut report),
        )?,
        other => unreachable!("workload {other} was validated"),
    };
    report.check_delivery();
    if !traced {
        report.put("setup_s", setup_s, "s");
        report.put("peak_rss_mb", trace::peak_rss_mb(), "MiB");
    }
    Ok(report)
}

/// Formats the result line; errors when a metric is missing, unexpected
/// or not finite.
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in expected {
        let metric = report
            .metrics
            .iter()
            .rev()
            .find(|m| m.name == *name)
            .ok_or(format!("metric {name} was not measured"))?;
        if metric.unit != *unit || !metric.value.is_finite() {
            return Err(format!(
                "metric {name} = {} {} (expected a finite value in {unit})",
                metric.value, metric.unit
            ));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            metric.value
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.errors.is_empty(),
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    ))
}

fn print_report(report: &Report) {
    for metric in &report.metrics {
        let samples = metric
            .samples
            .map(|n| format!("  (n={n})"))
            .unwrap_or_default();
        eprintln!(
            "  {:<40} {:>16.4} {}{samples}",
            metric.name, metric.value, metric.unit
        );
    }
    eprintln!(
        "  {:<40} {:>16.4} frac  (n={})",
        "failed_frac",
        stats::ratio(report.failed as f64, report.attempted as f64),
        report.attempted
    );
    for note in &report.notes {
        eprintln!("  note: {note}");
    }
    for error in &report.errors {
        eprintln!("  check failed: {error}");
    }
}

fn single(args: &Args, workload: &str) -> ExitCode {
    // Nothing may hang: past this deadline the run fails without a result.
    let limit = Duration::from_secs_f64(2.0 * args.seconds + 100.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: deadline of {limit:?} passed; aborting without a result");
        std::process::exit(3);
    });
    let dir = PathBuf::from(".bench_build")
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| run_workload(args, workload, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let report = match outcome {
        Ok(report) => report,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    print_report(&report);
    match result_line(&report, args.trace) {
        Ok(line) => {
            println!("{line}");
            if report.failed == 0 && report.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}

/// Runs every workload untraced and traced in child processes (so peak RSS
/// and allocator counts stay per workload) and prints one table.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("perfbench: cannot locate this executable: {error}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut table = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output();
            let line = match output {
                Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .last()
                    .unwrap_or_default()
                    .to_string(),
                Ok(out) => {
                    ok = false;
                    format!("failed with {}", out.status)
                }
                Err(error) => {
                    ok = false;
                    format!("could not run: {error}")
                }
            };
            table.push((workload, trace, line));
        }
    }
    println!("workload            trace  result");
    for (workload, trace, line) in table {
        println!("{workload:<19} {trace:<6} {line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    match args.workload.clone() {
        Some(workload) => single(&args, &workload),
        None => all(&args),
    }
}
