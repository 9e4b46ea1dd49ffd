//! `perfbench-allocs`: heap allocations per trial of one workload's
//! sessions, counted by a counting global allocator. Traced `perfbench`
//! runs spawn it, so that the benchmark binary itself runs on the system
//! allocator and its timings carry no counter cost.
//!
//! ```text
//! perfbench-allocs --workload <name> --seed <n> --threads <t>
//! ```
//!
//! Prints one number. The counter is process-wide, so nothing else in the
//! process runs while it counts.

use alloc_counter::CountingAllocator;
use perfbench::common;
use perfbench::kernel::Kernel;
use protocol::engine::{Adversary, Scenario, SessionEngine, ShardOutput, ShardPlan};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// Allocations per trial of a kernel workload's `run_trials` batches,
/// worker threads included, after the workload's own warm-up.
fn batch_allocs(kernel: &Kernel, seed: u64) -> Result<f64, String> {
    kernel.warm_up(seed);
    let batches = (16 / kernel.batch).max(4) as u64;
    let before = CountingAllocator::allocations();
    for job in 0..batches {
        kernel
            .engine(seed, job)
            .run_trials(&kernel.scenario, kernel.batch)
            .map_err(|e| e.to_string())?;
    }
    let trials = batches as f64 * kernel.batch as f64;
    Ok((CountingAllocator::allocations() - before) as f64 / trials)
}

/// Allocations per trial of `execute_shard` on one-trial plans of
/// `scenario`, run serially after one warm shard: the session share of
/// each shard the fabric workloads execute.
fn shard_allocs(scenario: &Scenario, seed: u64) -> Result<f64, String> {
    const TRIALS: usize = 64;
    let engine = SessionEngine::new(0);
    let shards = SessionEngine::new(seed)
        .plan(scenario, TRIALS + 1)
        .split_max(1);
    let execute = |shard: &ShardPlan| {
        engine
            .execute_shard(shard, ShardOutput::Summary)
            .map_err(|e| e.to_string())
    };
    execute(&shards[0])?;
    let before = CountingAllocator::allocations();
    for shard in &shards[1..] {
        std::hint::black_box(execute(shard)?);
    }
    Ok((CountingAllocator::allocations() - before) as f64 / TRIALS as f64)
}

fn count(workload: &str, seed: u64, threads: usize) -> Result<f64, String> {
    match workload {
        "eta50-honest" => batch_allocs(&Kernel::eta50_honest(seed), seed),
        "intercept-ideal" => batch_allocs(&Kernel::intercept_ideal(seed, threads), seed),
        "queue-fine-shards" => shard_allocs(
            &common::demo_scenario(seed, Adversary::Honest, "shardctl-honest"),
            seed,
        ),
        "serve-open-loop" => shard_allocs(
            &common::lean_scenario(seed, Adversary::Honest, "serve-honest"),
            seed,
        ),
        other => Err(format!("unknown workload {other}")),
    }
}

fn parse_args() -> Result<(String, u64, usize), String> {
    let (mut workload, mut seed, mut threads) = (None, 1, 1);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => threads = value.parse().map_err(|e| format!("--threads: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let workload = workload.ok_or_else(|| "pass --workload <name>".to_string())?;
    Ok((workload, seed, threads))
}

fn main() -> ExitCode {
    match parse_args().and_then(|(workload, seed, threads)| count(&workload, seed, threads)) {
        Ok(allocs) => {
            println!("{allocs}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench-allocs: {error}");
            ExitCode::from(2)
        }
    }
}
