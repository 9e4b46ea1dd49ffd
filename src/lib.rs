//! # UA-DI-QSDC — facade crate
//!
//! This crate re-exports the whole reproduction of *"User-Authenticated Device-Independent
//! Quantum Secure Direct Communication Protocol"* (Das, Basu, Paul, Rao; 2024) as a single
//! dependency. The underlying crates are:
//!
//! - [`mathkit`] — hand-rolled complex arithmetic and dense linear algebra.
//! - [`qsim`] — statevector / density-matrix simulator, gate library, circuits, measurement.
//! - [`noise`] — Kraus noise channels and NISQ device models (ibm_brisbane-like preset).
//! - [`qchannel`] — quantum channel (noisy identity-gate chain), authenticated classical
//!   channel, and the channel taps of the paper's attacks (intercept-and-resend,
//!   man-in-the-middle, entangle-and-measure).
//! - [`protocol`] — the UA-DI-QSDC protocol, its baselines, and the session execution engine.
//! - [`attacks`] — impersonation trials and the information-leakage audit.
//! - [`analysis`] — statistics and table/figure data generation.
//!
//! ## Quickstart
//!
//! Execution is declarative: describe a [`prelude::Scenario`] (configuration, identities,
//! optional fixed message, adversary), then hand it to a [`prelude::SessionEngine`], which
//! derives a deterministic RNG stream per trial from its master seed — every run, trial
//! batch, and multi-scenario sweep replays bit for bit. Because each trial's stream is
//! independent of execution order, the engine can fan trials out across worker threads
//! ([`prelude::Parallelism`]) without changing a single bit of any result — serial and
//! threaded runs are interchangeable, so pick threads for speed and serial for debugging.
//!
//! ```rust
//! use ua_di_qsdc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let identities = IdentityPair::generate(8, &mut rng_from_seed(7));
//! let config = SessionConfig::builder()
//!     .message_bits(16)
//!     .check_bits(4)
//!     .di_check_pairs(220)
//!     .channel(ChannelSpec::noisy_identity_chain(10, DeviceModel::ibm_brisbane_like()))
//!     .build()?;
//!
//! let engine = SessionEngine::new(42);
//! let honest = Scenario::new(config.clone(), identities.clone());
//! let outcome = engine.run(&honest)?;
//! assert!(outcome.is_delivered());
//!
//! // Attacked variants are one adversary away, and batches aggregate trials per scenario.
//! let attacked = honest
//!     .clone()
//!     .with_label("impersonation")
//!     .with_adversary(Adversary::ImpersonateBob);
//! let summaries = engine.run_batch(&[honest, attacked.clone()], 3)?;
//! assert_eq!(summaries[0].delivered, 3);
//! assert!(summaries[1].detection_rate() > 0.9);
//!
//! // The same trials across all cores: a bit-identical summary, plus executor stats.
//! let threaded = engine.with_parallelism(Parallelism::Auto);
//! let (parallel_summary, stats) = threaded.run_trials_with_stats(&attacked, 3)?;
//! assert_eq!(parallel_summary, summaries[1]);
//! assert_eq!(stats.tasks, 3);
//! # Ok(())
//! # }
//! ```
//!
//! ## Sharded sweeps
//!
//! The same determinism contract extends across processes and machines: every run decomposes
//! into explicit **plan → execute → merge** stages. A
//! [`prelude::ShardPlan`] is plain serde data — scenario, master seed, fingerprint, trial
//! range — so a sweep splits into shards that execute anywhere and merge back byte-identically:
//!
//! ```rust
//! use ua_di_qsdc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let identities = IdentityPair::generate(4, &mut rng_from_seed(7));
//! let config = SessionConfig::builder()
//!     .message_bits(8)
//!     .check_bits(2)
//!     .di_check_pairs(24)
//!     .build()?;
//! let scenario = Scenario::new(config, identities);
//!
//! let engine = SessionEngine::new(42);
//! let whole = engine.run_trials(&scenario, 8)?;
//!
//! // Split the run; execute each shard on an unrelated engine (as another
//! // machine would — the plan alone determines every trial); merge in order.
//! let mut merger = ShardMerger::new();
//! for plan in engine.plan(&scenario, 8).split_into(4) {
//!     merger.push(SessionEngine::new(0).execute_shard(&plan, ShardOutput::Summary)?)?;
//! }
//! assert_eq!(merger.finish()?.into_summary().unwrap(), whole);
//! # Ok(())
//! # }
//! ```
//!
//! The `shardctl` binary (in the `bench` crate) ships the three stages between processes as
//! JSON — `run` workers can live on different machines, and the merge still reproduces the
//! single-process sweep byte for byte:
//!
//! ```text
//! shardctl scenario --preset intercept | shardctl plan --trials 1000 --seed 42 --shards 4 \
//!   | shardctl run | shardctl merge
//! ```
//!
//! ## Resumable queues
//!
//! Static shard assignment assumes identical, immortal workers. For a heterogeneous fleet,
//! a [`prelude::ShardQueue`] (`protocol::engine::queue`) turns the same run into a claimable
//! work queue on a shared directory: workers take fine-grained sub-plans on a *lease* basis
//! (fast workers simply claim more; a dead worker's leases expire and its shards are
//! re-issued), and every completed result is persisted with a content fingerprint in a
//! versioned on-disk `MergeCheckpoint`. Checkpoint writes are atomic, so a sweep SIGKILLed
//! at any instant resumes exactly where it stopped — and because every shard is a pure
//! function of its plan, the resumed merge is **byte-identical** to an uninterrupted run:
//!
//! ```rust
//! use ua_di_qsdc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let identities = IdentityPair::generate(4, &mut rng_from_seed(7));
//! let config = SessionConfig::builder().message_bits(8).check_bits(2).di_check_pairs(24).build()?;
//! let scenario = Scenario::new(config, identities);
//! let engine = SessionEngine::new(42);
//!
//! let dir = std::env::temp_dir().join(format!("ua-qsdc-quickstart-{}", std::process::id()));
//! let queue = ShardQueue::init(&dir, &engine.plan(&scenario, 6), 2, ShardOutput::Summary)?;
//! // A worker loops: claim a lease, execute, submit. (Normally many
//! // processes on many machines share the directory.)
//! ShardWorker::default().drain(&queue, ShardOutput::Summary)?;
//! assert_eq!(
//!     queue.merge()?.into_summary().unwrap(),
//!     engine.run_trials(&scenario, 6)?, // == the uninterrupted run, byte for byte
//! );
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```
//!
//! Between processes, the `shardctl queue` subcommands drive the same directory — `init`
//! creates it, any number of `work` processes drain it cooperatively, and `resume` verifies
//! the checkpoint (naming any corrupt result file) and prints the merged run:
//!
//! ```text
//! shardctl queue init --dir sweep/ --scenario scenario.json --trials 100000 --seed 42
//! shardctl queue work --dir sweep/ --worker alpha &   # start/kill workers freely,
//! shardctl queue work --dir sweep/ --worker beta  &   # on any machines sharing sweep/
//! shardctl queue resume --dir sweep/                  # == the unsharded run, byte for byte
//! ```
//!
//! ## Campaigns
//!
//! One level above single sweeps, a [`prelude::Campaign`] (`protocol::engine::campaign`)
//! makes a whole parameter space declarative: one or more [`prelude::Axis`] value lists
//! (η, adversary, backend, attack strength, trial budget — a cartesian grid, or an explicit
//! point list) over a base scenario. Expansion derives every point a fingerprinted scenario
//! and an independent seed, so the set executes in any order, on any fleet, and folds into a
//! [`prelude::CampaignReport`] with per-point summaries and Wilson-scored detection /
//! false-alarm intervals:
//!
//! ```rust
//! use ua_di_qsdc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let identities = IdentityPair::generate(4, &mut rng_from_seed(7));
//! let config = SessionConfig::builder().message_bits(8).check_bits(2).di_check_pairs(24).build()?;
//!
//! let campaign = Campaign {
//!     label: "adversary-sweep".into(),
//!     master_seed: 42,
//!     trials: 2,
//!     workload: CampaignWorkload::Session { base: Scenario::new(config, identities) },
//!     space: CampaignSpace::Grid(vec![
//!         Axis::Adversary(vec![Adversary::Honest, Adversary::ImpersonateBob]),
//!         Axis::Backend(BackendKind::ALL.to_vec()),
//!     ]),
//! };
//! // Grid product, last axis fastest: 2 adversaries × every backend.
//! assert_eq!(campaign.expand()?.len(), 2 * BackendKind::ALL.len());
//!
//! let report = campaign.run_direct(Parallelism::Serial)?;
//! let honest = report.points[0].false_alarm.as_ref().unwrap();
//! let attacked = report.points[BackendKind::ALL.len()].detection.as_ref().unwrap();
//! assert!(attacked.rate > honest.rate);
//! assert!(attacked.lower <= attacked.rate && attacked.rate <= attacked.upper);
//! # Ok(())
//! # }
//! ```
//!
//! A [`prelude::CampaignRun`] lowers the same campaign onto per-point `ShardQueue`s in a
//! shared directory, so a fleet drains it resumably — kill any worker, `resume`, and the
//! report is byte-identical. The `shardctl campaign plan/run/resume/status/report`
//! subcommands drive that directory between processes, and the `fig2`, `fig3`,
//! `ablation_backend`, `table1` and `attack_*` binaries are formatters over checked-in
//! campaign definitions (`crates/bench/campaigns/*.json`):
//!
//! ```text
//! shardctl campaign run --dir campaign/ --stored demo     # or --campaign mysweep.json
//! kill -9 %1 && shardctl campaign resume --dir campaign/  # == uninterrupted, byte for byte
//! ```
//!
//! ## The session service
//!
//! For many tenants sharing one long-lived process, `qsdc-serve` (the `serve` crate) serves
//! the same jobs over the wire: clients submit serde `Scenario`/`Campaign` jobs as
//! newline-delimited JSON (`protocol::wire`, golden-fixture-locked), and the server
//! multiplexes them onto a shared worker pool with fair round-robin scheduling across
//! clients, per-client quotas answered with explicit `Busy` backpressure (work is never
//! silently dropped), streaming incremental `TrialSummary` snapshots, and cancellation.
//! Every accepted job is lowered onto a spooled [`prelude::ShardQueue`] *before* it is
//! acknowledged, so a SIGKILLed server restarted on the same spool finishes every job —
//! byte-identical to an uninterrupted run, and to the same job run locally
//! (see `docs/service.md`):
//!
//! ```rust
//! use ua_di_qsdc::prelude::*;
//! use protocol::wire::{JobSpec, Response};
//! use serve::{Client, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let identities = IdentityPair::generate(2, &mut rng_from_seed(7));
//! let config = SessionConfig::builder().message_bits(8).check_bits(2).di_check_pairs(16).build()?;
//! let scenario = Scenario::new(config, identities);
//!
//! let dir = std::env::temp_dir().join(format!("ua-qsdc-serve-quickstart-{}", std::process::id()));
//! let server = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port; real deployments pass --addr
//!     spool_dir: dir.clone(),
//!     ..ServerConfig::default()
//! })?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let Response::Accepted { job } =
//!     client.submit(JobSpec::Session { scenario: scenario.clone(), trials: 4, seed: 42 })?
//! else { panic!("under quota, so the job is accepted") };
//! let (done, _snapshots) = client.wait_done(job)?;
//! let Response::Done { summary: Some(summary), .. } = done else { panic!("session jobs end in Done") };
//! assert_eq!(summary, SessionEngine::new(42).run_trials(&scenario, 4)?); // == the local run
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```
//!
//! The `serve-open-loop` workload of the repository benchmark (`perfbench/` at the
//! repository root) is the matching load generator: an in-process server fed a mixed job
//! stream on an open-loop schedule, reporting job latency percentiles, trials/sec and a
//! per-layer breakdown of the service path.
//!
//! ## Simulation backends
//!
//! Every scenario declares its simulation substrate via [`prelude::BackendKind`] (see
//! `docs/backends.md` for the full comparison): the default `density-matrix` backend
//! reproduces the paper's exact emulation, `statevector` runs the same sessions as sampled
//! pure-state trajectories (one Born-sampled Kraus branch per noise application — cheaper,
//! and approximate rather than exact), and `pauli-twirled` lowers every noise placement to
//! its Pauli twirl at compile time and tracks each EPR pair as a two-bit Pauli frame —
//! integer-only trial loops, two to three orders of magnitude faster on noisy-channel
//! sweeps. The kind is part of the scenario fingerprint, so the substrates draw disjoint RNG
//! streams, a shipped `ShardPlan` reproduces on the right substrate anywhere, and the merger
//! refuses to fold results from different backends into one run. Select it with
//! [`with_backend`](prelude::Scenario::with_backend) in code, or `--backend` on `shardctl`
//! and the attack sweep binaries; the `ablation_backend` binary sweeps detection-rate curves
//! on every substrate and reports where (and at what speedup) they diverge from the exact
//! emulation:
//!
//! ```rust
//! use ua_di_qsdc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let identities = IdentityPair::generate(4, &mut rng_from_seed(7));
//! let config = SessionConfig::builder().message_bits(8).check_bits(2).di_check_pairs(64).build()?;
//! let sampled = Scenario::new(config.clone(), identities.clone())
//!     .with_backend(BackendKind::Statevector);
//! assert!(SessionEngine::new(42).run(&sampled)?.is_delivered());
//! let twirled = Scenario::new(config, identities).with_backend(BackendKind::PauliTwirled);
//! assert!(SessionEngine::new(42).run(&twirled)?.is_delivered());
//! # Ok(())
//! # }
//! ```
//!
//! ## Determinism
//!
//! The reproducibility invariants the workspace lives by — and the `detlint` tool that
//! statically enforces them — are documented in `docs/determinism.md`.

#![forbid(unsafe_code)]

pub use analysis;
pub use attacks;
pub use mathkit;
pub use noise;
pub use protocol;
pub use qchannel;
pub use qsim;

/// Convenience re-exports covering the most common entry points of the reproduction.
pub mod prelude {
    pub use analysis::prelude::*;
    pub use attacks::prelude::*;
    pub use noise::prelude::*;
    pub use protocol::prelude::*;
    pub use qchannel::prelude::*;
    pub use qsim::prelude::*;

    pub use mathkit::complex::Complex64;

    /// Build a deterministic RNG from a seed; the reproduction uses this everywhere so that
    /// examples, tests and benches are repeatable.
    pub fn rng_from_seed(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }
}
