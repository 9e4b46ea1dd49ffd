//! `shardctl` — ship the engine's plan / execute / merge stages between
//! processes (and machines) as JSON, and drive a whole fleet through a
//! resumable work queue.
//!
//! The per-trial RNG stream contract makes every trial location-independent,
//! so a sweep split into shards, executed by separate `shardctl run`
//! processes, and merged reproduces the single-process results byte for byte.
//!
//! ```text
//! # One process, one pipe:
//! shardctl scenario --preset intercept --seed 7 \
//!   | shardctl plan --trials 1000 --seed 42 --shards 4 \
//!   | shardctl run \
//!   | shardctl merge
//!
//! # Or one process per shard (e.g. one per machine):
//! shardctl scenario --preset intercept --seed 7 > scenario.json
//! shardctl plan --scenario scenario.json --trials 1000 --seed 42 --shards 4 > plans.json
//! for i in 0 1 2 3; do shardctl run --plans plans.json --index $i > result-$i.json; done
//! shardctl merge result-*.json
//!
//! # Or a self-balancing fleet on a shared directory (survives SIGKILL):
//! shardctl scenario --preset intercept --seed 7 > scenario.json
//! shardctl queue init --dir sweep/ --scenario scenario.json --trials 1000 --seed 42
//! shardctl queue work --dir sweep/ --worker alpha &    # any number of workers,
//! shardctl queue work --dir sweep/ --worker beta  &    # on any machines sharing
//! wait                                                 # the filesystem
//! shardctl queue resume --dir sweep/                   # merge (or resume a killed sweep)
//! ```
//!
//! `run` and `queue work` honour the `UA_DI_QSDC_PARALLELISM` environment
//! variable, so each worker process additionally fans its shard's trials
//! across its own cores.

use bench::campaigns::stored_campaign;
use bench::shard_io::{self, MergeFileError};
use protocol::engine::{
    BackendKind, Campaign, CampaignRun, ClaimOutcome, MergedRun, Scenario, SessionEngine,
    ShardOutput, ShardPlan, ShardQueue, ShardResult, ShardWorker, SubmitOutcome,
};
use std::process::ExitCode;

const USAGE: &str = "\
shardctl — plan / run / merge / queue sharded UA-DI-QSDC sweeps as JSON

USAGE:
    shardctl scenario [--preset NAME] [--seed N] [--backend KIND]
        Write a deterministic demo scenario to stdout.
        Presets: honest, impersonate-alice, impersonate-bob, intercept,
        mitm, entangle (default: honest).
        Backends: density-matrix (default), statevector, pauli-twirled.

    shardctl plan --trials N [--seed N] [--shards K | --shard-trials M]
                  [--scenario FILE] [--backend KIND]
        Read a scenario (FILE or stdin), split a run of N trials under
        master seed N into shards, write a JSON array of shard plans.
        --backend overrides the scenario's simulation substrate before
        planning (the substrate is part of the run's fingerprint).
        Default: --seed 0, --shards 1.

    shardctl run [--plans FILE] [--index I] [--output summary|outcomes]
        Read a JSON array of shard plans (FILE or stdin), execute them (or
        only plan I) on the substrate each plan declares, write a JSON
        array of shard results. Trials fan out per the
        UA_DI_QSDC_PARALLELISM environment variable.
        Default: --output summary.

    shardctl merge [FILE...]
        Read one or more JSON arrays of shard results (FILEs or stdin),
        merge them in trial order, write the merged run: a TrialSummary
        for summary payloads, an outcome array for outcome payloads.
        Results from different backends never merge, a merge failure
        names the offending file, and listing the same file twice is a
        duplicate-shard error.

    shardctl queue init --dir DIR --trials N [--seed N] [--scenario FILE]
                        [--shard-trials M] [--backend KIND]
                        [--output summary|outcomes]
        Create a resumable work queue in DIR (checkpoint + results
        directory) for a run of N trials, decomposed into claimable
        shards of at most M trials (default 8). Workers on any machines
        sharing DIR drain it cooperatively.

    shardctl queue claim --dir DIR --worker NAME [--lease-ms N]
        Lease the next claimable shard to NAME and print its plan JSON.
        Exit 3 when everything claimable is leased elsewhere (poll
        again), exit 4 when the queue is drained. Default lease: 60000.

    shardctl queue submit --dir DIR [--result FILE]
        Read one executed shard result (FILE or stdin; a JSON object or
        a 1-element array as `run` writes it) and record it. A result
        for a shard another worker already completed is discarded
        harmlessly.

    shardctl queue status --dir DIR
        Print the queue's progress as JSON (and human-readable, to
        stderr).

    shardctl queue work --dir DIR --worker NAME [--lease-ms N] [--poll-ms N]
        Run a fleet worker: claim, execute, submit, repeat, until the
        queue is drained. Faster workers naturally claim more shards;
        if this process is killed its leases expire and other workers
        re-execute the shards. Default: --lease-ms 60000, --poll-ms 500.
        Chaos-testing hook: UA_DI_QSDC_QUEUE_THROTTLE_MS=N stalls the
        worker for N ms between claiming and executing each shard, so a
        test can SIGKILL it while it provably holds a lease.

    shardctl queue resume --dir DIR
        Resume a (possibly killed) sweep: verify every completed result
        file against its checkpointed fingerprint, return expired leases
        to the pending state, and — when every shard is done — print the
        merged run, byte-identical to `shardctl merge` on an
        uninterrupted run. Exit 3 while shards remain (start workers).

    shardctl campaign plan --dir DIR (--campaign FILE | --stored NAME)
                           [--shard-trials M]
        Expand a declarative campaign (a parameter-space sweep; a JSON
        file, or one of the checked-in definitions: fig2, fig3,
        ablation_backend, demo) into a resumable run directory: one
        shard queue per session point, one sample slot per circuit
        point. Default shard size: 8 trials.

    shardctl campaign run --dir DIR [--campaign FILE | --stored NAME]
                          [--worker NAME] [--lease-ms N] [--poll-ms N]
                          [--shard-trials M]
        Drain a campaign run directory (initialising it first when a
        campaign is given and DIR is untouched) and print the campaign
        report JSON — byte-identical to an in-process run of the same
        campaign. Workers on any machines sharing DIR cooperate; the
        UA_DI_QSDC_QUEUE_THROTTLE_MS chaos hook stalls each shard
        between claim and execute, as in `queue work`.

    shardctl campaign resume --dir DIR [--worker NAME] [--lease-ms N]
                             [--poll-ms N]
        Resume a (possibly killed) campaign: verify completed shards,
        recover expired leases on every point queue, drain the rest,
        and print the report — byte-identical to an uninterrupted run.

    shardctl campaign status --dir DIR
        Print the campaign's progress as JSON (and human-readable, to
        stderr).

    shardctl campaign report --dir DIR
        Print the report of a fully drained campaign without executing
        anything. Fails while points remain outstanding.
";

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("shardctl: {message}");
    std::process::exit(2)
}

fn read_input(path: Option<&str>) -> String {
    match path {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}"))),
        None => std::io::read_to_string(std::io::stdin())
            .unwrap_or_else(|e| fail(format_args!("cannot read stdin: {e}"))),
    }
}

/// One `--flag value` pair puller over the raw argument list.
struct Args {
    args: Vec<String>,
}

impl Args {
    fn take_flag(&mut self, flag: &str) -> Option<String> {
        let position = self.args.iter().position(|a| a == flag)?;
        if position + 1 >= self.args.len() {
            fail(format_args!("{flag} requires a value"));
        }
        self.args.remove(position);
        Some(self.args.remove(position))
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        self.take_flag(flag).map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| fail(format_args!("invalid value `{raw}` for {flag}")))
        })
    }

    fn finish_positional(self) -> Vec<String> {
        if let Some(stray) = self.args.iter().find(|a| a.starts_with("--")) {
            fail(format_args!("unknown option `{stray}`"));
        }
        self.args
    }

    fn finish(self) {
        if let Some(stray) = self.args.first() {
            fail(format_args!("unexpected argument `{stray}`"));
        }
    }
}

fn scenario_cmd(mut args: Args) {
    let preset = args
        .take_flag("--preset")
        .unwrap_or_else(|| "honest".into());
    let seed: u64 = args.take_parsed("--seed").unwrap_or(7);
    let backend: BackendKind = args.take_parsed("--backend").unwrap_or_default();
    args.finish();
    let scenario = shard_io::demo_scenario(&preset, seed, backend).unwrap_or_else(|e| fail(e));
    println!("{}", serde::json::to_string(&scenario));
}

fn plan_cmd(mut args: Args) {
    let trials: usize = args
        .take_parsed("--trials")
        .unwrap_or_else(|| fail("plan requires --trials"));
    let seed: u64 = args.take_parsed("--seed").unwrap_or(0);
    let shards: Option<usize> = args.take_parsed("--shards");
    let shard_trials: Option<usize> = args.take_parsed("--shard-trials");
    let scenario_path = args.take_flag("--scenario");
    let backend: Option<BackendKind> = args.take_parsed("--backend");
    args.finish();
    let mut scenario: Scenario = serde::json::from_str(&read_input(scenario_path.as_deref()))
        .unwrap_or_else(|e| fail(format_args!("invalid scenario JSON: {e}")));
    if let Some(backend) = backend {
        // Before planning: the substrate is part of the fingerprint the plan
        // pins, so every derived shard carries (and reproduces on) it.
        scenario.backend = backend;
    }
    let whole = SessionEngine::new(seed).plan(&scenario, trials);
    let plans = match (shards, shard_trials) {
        (Some(_), Some(_)) => fail("--shards and --shard-trials are mutually exclusive"),
        (_, Some(0)) => fail("--shard-trials must be at least 1"),
        (Some(0), _) => fail("--shards must be at least 1"),
        (None, Some(per_shard)) => whole.split_max(per_shard),
        (count, None) => whole.split_into(count.unwrap_or(1)),
    };
    eprintln!(
        "planned {} trials of `{}` (seed {seed}, backend {}) into {} shard(s)",
        trials,
        scenario.label,
        scenario.backend,
        plans.len()
    );
    println!("{}", serde::json::to_string(&plans));
}

fn parse_output(args: &mut Args) -> ShardOutput {
    args.take_flag("--output")
        .map(|raw| raw.parse().unwrap_or_else(|e| fail(e)))
        .unwrap_or(ShardOutput::Summary)
}

fn run_cmd(mut args: Args) {
    let plans_path = args.take_flag("--plans");
    let index: Option<usize> = args.take_parsed("--index");
    let output = parse_output(&mut args);
    args.finish();
    let plans: Vec<ShardPlan> = serde::json::from_str(&read_input(plans_path.as_deref()))
        .unwrap_or_else(|e| fail(format_args!("invalid shard plan JSON: {e}")));
    let selected: Vec<&ShardPlan> = match index {
        Some(index) => vec![plans.get(index).unwrap_or_else(|| {
            fail(format_args!(
                "--index {index} out of range (plans: {})",
                plans.len()
            ))
        })],
        None => plans.iter().collect(),
    };
    let parallelism = bench::announce_parallelism();
    // The engine's own seed is irrelevant: each plan carries the run's seed.
    let engine = SessionEngine::new(0).with_parallelism(parallelism);
    let results: Vec<ShardResult> = selected
        .into_iter()
        .map(|plan| {
            let (result, stats) = engine
                .execute_shard_with_stats(plan, output)
                .unwrap_or_else(|e| fail(format_args!("shard execution failed: {e}")));
            eprintln!(
                "executed trials {}..{} on the {} backend: {stats} ({:.1} trials/s)",
                plan.trial_start,
                plan.trial_end(),
                plan.backend(),
                stats.throughput()
            );
            result
        })
        .collect();
    println!("{}", serde::json::to_string(&results));
}

fn merge_cmd(args: Args) {
    let files = args.finish_positional();
    let merged = if files.is_empty() {
        let results: Vec<ShardResult> = serde::json::from_str(&read_input(None))
            .unwrap_or_else(|e| fail(format_args!("invalid shard result JSON on stdin: {e}")));
        let sources = results
            .into_iter()
            .map(|r| ("<stdin>".to_string(), r))
            .collect();
        shard_io::merge_sources(sources).unwrap_or_else(|e| fail(e))
    } else {
        shard_io::merge_result_files(&files).unwrap_or_else(|e: MergeFileError| fail(e))
    };
    print_merged(&merged);
}

fn print_merged(merged: &MergedRun) {
    match merged {
        MergedRun::Summary(summary) => eprintln!("merged run: {summary}"),
        MergedRun::Outcomes(outcomes) => eprintln!("merged run: {} outcomes", outcomes.len()),
    }
    println!("{}", shard_io::merged_run_to_json(merged));
}

// -------------------------------------------------------------------- queue --

fn open_queue(args: &mut Args) -> ShardQueue {
    let dir = args
        .take_flag("--dir")
        .unwrap_or_else(|| fail("queue commands require --dir"));
    ShardQueue::open(&dir).unwrap_or_else(|e| fail(e))
}

fn queue_init_cmd(mut args: Args) {
    let dir = args
        .take_flag("--dir")
        .unwrap_or_else(|| fail("queue init requires --dir"));
    let trials: usize = args
        .take_parsed("--trials")
        .unwrap_or_else(|| fail("queue init requires --trials"));
    let seed: u64 = args.take_parsed("--seed").unwrap_or(0);
    let shard_trials: usize = args.take_parsed("--shard-trials").unwrap_or(8);
    if shard_trials == 0 {
        fail("--shard-trials must be at least 1");
    }
    let scenario_path = args.take_flag("--scenario");
    let backend: Option<BackendKind> = args.take_parsed("--backend");
    let output = parse_output(&mut args);
    args.finish();
    let mut scenario: Scenario = serde::json::from_str(&read_input(scenario_path.as_deref()))
        .unwrap_or_else(|e| fail(format_args!("invalid scenario JSON: {e}")));
    if let Some(backend) = backend {
        scenario.backend = backend;
    }
    let plan = SessionEngine::new(seed).plan(&scenario, trials);
    let queue = ShardQueue::init(&dir, &plan, shard_trials, output).unwrap_or_else(|e| fail(e));
    let status = queue.status().unwrap_or_else(|e| fail(e));
    eprintln!(
        "initialized queue in {dir}: {} trials of `{}` (seed {seed}, backend {}, {} payload) \
         as {} claimable shard(s)",
        trials, scenario.label, scenario.backend, output, status.total_shards
    );
}

fn queue_claim_cmd(mut args: Args) -> ExitCode {
    let worker = args
        .take_flag("--worker")
        .unwrap_or_else(|| fail("queue claim requires --worker"));
    let lease_ms: u64 = args.take_parsed("--lease-ms").unwrap_or(60_000);
    let queue = open_queue(&mut args);
    args.finish();
    match queue.claim(&worker, lease_ms).unwrap_or_else(|e| fail(e)) {
        ClaimOutcome::Claimed(plan) => {
            eprintln!("claimed {plan}");
            println!("{}", serde::json::to_string(&plan));
            ExitCode::SUCCESS
        }
        ClaimOutcome::Wait { leased } => {
            eprintln!("nothing claimable: {leased} shard(s) leased elsewhere; poll again");
            ExitCode::from(3)
        }
        ClaimOutcome::Drained => {
            eprintln!("queue drained: every shard is done");
            ExitCode::from(4)
        }
    }
}

fn queue_submit_cmd(mut args: Args) {
    let result_path = args.take_flag("--result");
    let queue = open_queue(&mut args);
    args.finish();
    let text = read_input(result_path.as_deref());
    // Accept both one result object and the 1-element array `run` writes.
    let result: ShardResult = serde::json::from_str(&text)
        .or_else(|_| {
            serde::json::from_str::<Vec<ShardResult>>(&text).and_then(|mut batch| {
                if batch.len() == 1 {
                    Ok(batch.remove(0))
                } else {
                    Err(serde::Error::new(format!(
                        "expected exactly one shard result, got {}",
                        batch.len()
                    )))
                }
            })
        })
        .unwrap_or_else(|e| fail(format_args!("invalid shard result JSON: {e}")));
    match queue.submit(&result).unwrap_or_else(|e| fail(e)) {
        SubmitOutcome::Recorded => eprintln!(
            "recorded trials {}..{}",
            result.trial_start,
            result.trial_end()
        ),
        SubmitOutcome::AlreadyDone => eprintln!(
            "trials {}..{} were already completed by another worker; discarded",
            result.trial_start,
            result.trial_end()
        ),
    }
}

fn queue_status_cmd(mut args: Args) {
    let queue = open_queue(&mut args);
    args.finish();
    let status = queue.status().unwrap_or_else(|e| fail(e));
    eprintln!("{status}");
    println!("{}", serde::json::to_string(&status));
}

/// The shard worker of `queue work` and `campaign run/resume`: `--worker`
/// (required when `name` is `None`), `--lease-ms` and `--poll-ms` over the
/// given defaults, an engine with the environment's parallelism, and the
/// `UA_DI_QSDC_QUEUE_THROTTLE_MS` chaos hook, which stalls each shard
/// between claim and execute so a test can SIGKILL this process while it
/// provably holds a lease.
fn shard_worker(args: &mut Args, name: Option<&str>, lease_ms: u64, poll_ms: u64) -> ShardWorker {
    let name = args
        .take_flag("--worker")
        .or(name.map(String::from))
        .unwrap_or_else(|| fail("queue work requires --worker"));
    ShardWorker {
        engine: SessionEngine::new(0).with_parallelism(bench::announce_parallelism()),
        name,
        lease_ms: args.take_parsed("--lease-ms").unwrap_or(lease_ms),
        poll_ms: args.take_parsed("--poll-ms").unwrap_or(poll_ms),
        throttle_ms: std::env::var(protocol::env_keys::QUEUE_THROTTLE_MS)
            .ok()
            .and_then(|raw| raw.parse().ok())
            .unwrap_or(0),
    }
}

fn queue_work_cmd(mut args: Args) {
    let worker = shard_worker(&mut args, None, 60_000, 500);
    let queue = open_queue(&mut args);
    args.finish();
    let output = queue.checkpoint().unwrap_or_else(|e| fail(e)).output;
    let recorded = worker.drain(&queue, output).unwrap_or_else(|e| fail(e));
    eprintln!(
        "[{}] queue drained after {recorded} shard(s); exiting",
        worker.name
    );
}

fn queue_resume_cmd(mut args: Args) -> ExitCode {
    let queue = open_queue(&mut args);
    args.finish();
    // One pass over the results directory: verify, recover expired leases,
    // and (when complete) merge the already-verified results.
    let (status, merged) = queue.resume().unwrap_or_else(|e| fail(e));
    eprintln!("recovered checkpoint: {status}");
    let Some(merged) = merged else {
        eprintln!(
            "{} shard(s) still outstanding — start `shardctl queue work` workers to drain them",
            status.total_shards - status.done
        );
        return ExitCode::from(3);
    };
    print_merged(&merged);
    ExitCode::SUCCESS
}

// ----------------------------------------------------------------- campaign --

/// Reads the campaign definition named by `--campaign FILE` or
/// `--stored NAME`, if either flag is present.
fn take_campaign(args: &mut Args) -> Option<Campaign> {
    let file = args.take_flag("--campaign");
    let stored = args.take_flag("--stored");
    match (file, stored) {
        (Some(_), Some(_)) => fail("--campaign and --stored are mutually exclusive"),
        (Some(path), None) => Some(
            serde::json::from_str(&read_input(Some(&path)))
                .unwrap_or_else(|e| fail(format_args!("invalid campaign JSON: {e}"))),
        ),
        (None, Some(name)) => Some(stored_campaign(&name).unwrap_or_else(|e| fail(e))),
        (None, None) => None,
    }
}

fn campaign_dir(args: &mut Args) -> String {
    args.take_flag("--dir")
        .unwrap_or_else(|| fail("campaign commands require --dir"))
}

fn campaign_init(dir: &str, campaign: &Campaign, shard_trials: usize) -> CampaignRun {
    if shard_trials == 0 {
        fail("--shard-trials must be at least 1");
    }
    let run = CampaignRun::init(dir, campaign, shard_trials).unwrap_or_else(|e| fail(e));
    let status = run.status().unwrap_or_else(|e| fail(e));
    eprintln!(
        "initialized campaign `{}` in {dir}: {status}",
        campaign.label
    );
    run
}

fn campaign_plan_cmd(mut args: Args) {
    let dir = campaign_dir(&mut args);
    let campaign = take_campaign(&mut args)
        .unwrap_or_else(|| fail("campaign plan requires --campaign FILE or --stored NAME"));
    let shard_trials: usize = args.take_parsed("--shard-trials").unwrap_or(8);
    args.finish();
    campaign_init(&dir, &campaign, shard_trials);
}

fn campaign_run_cmd(mut args: Args) {
    let dir = campaign_dir(&mut args);
    let campaign = take_campaign(&mut args);
    let shard_trials: usize = args.take_parsed("--shard-trials").unwrap_or(8);
    let worker = shard_worker(&mut args, Some("campaign-worker"), 30_000, 200);
    args.finish();
    let run = match campaign {
        // A campaign was given: initialise the directory unless it already is.
        Some(campaign) => match CampaignRun::open(&dir) {
            Ok(run) => {
                if run.campaign().fingerprint() != campaign.fingerprint() {
                    fail(format_args!(
                        "{dir} holds a different campaign (`{}`)",
                        run.campaign().label
                    ));
                }
                run
            }
            Err(_) => campaign_init(&dir, &campaign, shard_trials),
        },
        None => CampaignRun::open(&dir).unwrap_or_else(|e| fail(e)),
    };
    let report = run.run(&worker).unwrap_or_else(|e| fail(e));
    eprintln!(
        "campaign `{}` drained: {} point(s)",
        report.label,
        report.points.len()
    );
    println!("{}", serde::json::to_string(&report));
}

fn campaign_resume_cmd(mut args: Args) {
    let dir = campaign_dir(&mut args);
    let worker = shard_worker(&mut args, Some("campaign-worker"), 30_000, 200);
    args.finish();
    let run = CampaignRun::open(&dir).unwrap_or_else(|e| fail(e));
    let report = run.resume(&worker).unwrap_or_else(|e| fail(e));
    eprintln!(
        "campaign `{}` resumed and drained: {} point(s)",
        report.label,
        report.points.len()
    );
    println!("{}", serde::json::to_string(&report));
}

fn campaign_status_cmd(mut args: Args) {
    let dir = campaign_dir(&mut args);
    args.finish();
    let run = CampaignRun::open(&dir).unwrap_or_else(|e| fail(e));
    let status = run.status().unwrap_or_else(|e| fail(e));
    eprintln!("{status}");
    println!("{}", serde::json::to_string(&status));
}

fn campaign_report_cmd(mut args: Args) {
    let dir = campaign_dir(&mut args);
    args.finish();
    let run = CampaignRun::open(&dir).unwrap_or_else(|e| fail(e));
    let report = run.report().unwrap_or_else(|e| fail(e));
    eprintln!(
        "campaign `{}`: {} point(s)",
        report.label,
        report.points.len()
    );
    println!("{}", serde::json::to_string(&report));
}

fn campaign_cmd(mut raw: Vec<String>) {
    if raw.is_empty() {
        fail("campaign requires a subcommand: plan, run, resume, status or report");
    }
    let sub = raw.remove(0);
    let args = Args { args: raw };
    match sub.as_str() {
        "plan" => campaign_plan_cmd(args),
        "run" => campaign_run_cmd(args),
        "resume" => campaign_resume_cmd(args),
        "status" => campaign_status_cmd(args),
        "report" => campaign_report_cmd(args),
        other => fail(format_args!(
            "unknown campaign subcommand `{other}`; see --help"
        )),
    }
}

fn queue_cmd(mut raw: Vec<String>) -> ExitCode {
    if raw.is_empty() {
        fail("queue requires a subcommand: init, claim, submit, status, work or resume");
    }
    let sub = raw.remove(0);
    let args = Args { args: raw };
    match sub.as_str() {
        "init" => queue_init_cmd(args),
        "claim" => return queue_claim_cmd(args),
        "submit" => queue_submit_cmd(args),
        "status" => queue_status_cmd(args),
        "work" => queue_work_cmd(args),
        "resume" => return queue_resume_cmd(args),
        other => fail(format_args!(
            "unknown queue subcommand `{other}`; see --help"
        )),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if raw.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = raw.remove(0);
    if command == "queue" {
        return queue_cmd(raw);
    }
    if command == "campaign" {
        campaign_cmd(raw);
        return ExitCode::SUCCESS;
    }
    let args = Args { args: raw };
    match command.as_str() {
        "scenario" => scenario_cmd(args),
        "plan" => plan_cmd(args),
        "run" => run_cmd(args),
        "merge" => merge_cmd(args),
        other => fail(format_args!("unknown subcommand `{other}`; see --help")),
    }
    ExitCode::SUCCESS
}
