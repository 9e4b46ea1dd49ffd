//! # protocol — the UA-DI-QSDC protocol and its execution engine
//!
//! This crate is the paper's core contribution: the first device-independent quantum secure
//! direct communication protocol with user identity authentication (UA-DI-QSDC). It follows
//! the six phases of Section II:
//!
//! 1. **Entanglement sharing** — a source distributes `N + 2l + 2d` EPR pairs.
//! 2. **First DI security check** — `d` pairs are sacrificed to estimate the CHSH polynomial
//!    ([`di_check`]); the protocol continues only if `S¹ > 2`.
//! 3. **Alice's encoding** — the padded message `m'` and identity `id_A` are encoded with
//!    Pauli operators; cover operations hide the `D_A` block (`message`, [`identity`]).
//! 4. **Authentication** — Bob encodes `id_B`, both parties verify each other ([`auth`]).
//! 5. **Second DI security check** — Bob alone estimates `S²` on the reserved pairs.
//! 6. **Message decoding** — Bob Bell-measures the remaining pairs and checks the integrity
//!    bits.
//!
//! All execution goes through [`engine`]: describe *what* to run as a declarative
//! [`engine::Scenario`] (configuration, identities, optional fixed message, and a single
//! [`engine::Adversary`] covering every eavesdropper of Section III), then hand it to an
//! [`engine::SessionEngine`], which resolves the simulation [`engine::Backend`] from the
//! scenario's [`engine::BackendKind`] and derives a deterministic RNG stream per trial from
//! its master seed — single runs, trial batches and
//! multi-scenario sweeps all reproduce bit-for-bit from one seed. Because each trial's RNG
//! stream is independent of execution order, the engine also fans trials out across worker
//! threads ([`engine::parallel`]): pick an [`engine::Parallelism`] policy (`Serial`,
//! `Threads(n)`, or `Auto`) via [`engine::SessionEngine::with_parallelism`] and every mode
//! returns bit-for-bit identical results, only faster.
//!
//! Runs also decompose into the explicit **plan → execute → merge** stages of
//! `engine::shard`: a serde [`engine::ShardPlan`] carves a trial range into shippable
//! shards, [`engine::SessionEngine::execute_shard`] turns one shard into an
//! [`engine::ShardResult`], and an [`engine::ShardMerger`] folds results back in trial order —
//! byte-identical to the unsharded run, whether the shards ran on one machine or twenty (see
//! the `shardctl` binary in the `bench` crate for the multi-process form).
//!
//! [`wire`] is the serde vocabulary of the session service: job specs, requests, responses,
//! and the spooled job manifest, all golden-fixture-locked so the newline-delimited JSON
//! protocol `qsdc-serve` (the `serve` crate) speaks cannot drift silently. The service lowers
//! every accepted job onto an [`engine::queue::ShardQueue`] before acknowledging it, which is
//! what makes a SIGKILLed server resume byte-identically (see `docs/service.md`).
//!
//! [`baselines`] adds a runnable DI-QSDC without authentication (the Zhou et al. 2020 shape)
//! and [`descriptor`] carries the feature/cost rows of the paper's Table I. [`session`] keeps
//! the observable vocabulary of a run (`SessionOutcome`, `SessionStatus`, …).
//!
//! ## Example
//!
//! ```rust
//! use protocol::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let identities = IdentityPair::generate(6, &mut rng);
//! let config = SessionConfig::builder()
//!     .message_bits(16)
//!     .check_bits(4)
//!     .di_check_pairs(200)
//!     .build()?;
//!
//! let engine = SessionEngine::new(42);
//! // One honest session…
//! let outcome = engine.run(&Scenario::new(config.clone(), identities.clone()))?;
//! assert!(outcome.is_delivered());
//! // …and an attacked batch, summarised per scenario.
//! let scenarios = vec![
//!     Scenario::new(config.clone(), identities.clone()).with_label("honest"),
//!     Scenario::new(config, identities)
//!         .with_label("impersonation")
//!         .with_adversary(Adversary::ImpersonateBob),
//! ];
//! let summaries = engine.run_batch(&scenarios, 4)?;
//! assert_eq!(summaries[0].delivered, 4);
//! assert!(summaries[1].detection_rate() > 0.9);
//! # Ok(())
//! # }
//! ```
//!
//! ## Sharded sweeps
//!
//! Because a [`engine::ShardPlan`] fully determines its trials, a sweep can be split, executed
//! by independent processes, and merged back byte-identically — in-process via
//! [`engine::SessionEngine::plan`] / [`engine::SessionEngine::execute_shard`] /
//! [`engine::ShardMerger`], or between processes with the `bench` crate's `shardctl` binary:
//!
//! ```text
//! shardctl scenario --preset intercept > scenario.json
//! shardctl plan --scenario scenario.json --trials 1000 --seed 42 --shards 4 > plans.json
//! for i in 0 1 2 3; do shardctl run --plans plans.json --index $i > result-$i.json; done
//! shardctl merge result-*.json     # == the unsharded run, byte for byte
//! ```
//!
//! ## Resumable queues
//!
//! Static shard assignment is the degenerate schedule. For a heterogeneous (and mortal)
//! fleet, [`engine::queue`] provides a [`engine::ShardQueue`]: a work queue on a shared
//! directory that hands fine-grained sub-plans to workers on a claim/lease basis — slow
//! workers claim fewer shards, dead workers' leases expire and their shards are re-issued —
//! and persists every completed result (with a content fingerprint) in a versioned
//! [`engine::MergeCheckpoint`]. Checkpoint writes are atomic, so a SIGKILLed sweep resumes
//! exactly where it stopped, and the resumed merge is byte-identical to an uninterrupted
//! run. `shardctl queue init/claim/submit/status/work/resume` expose the same operations to
//! a fleet of processes; the CI `queue-chaos` job kills a worker mid-run and byte-diffs the
//! resumed merge against the single-process sweep.
//!
//! ## Campaigns
//!
//! One level above single sweeps, [`engine::campaign`] makes whole parameter spaces
//! declarative: a serde [`engine::Campaign`] sweeps one or more [`engine::Axis`] value lists
//! (cartesian grid or explicit point list — η, adversary, backend, attack strength, trial
//! budget) over a base scenario. [`engine::Campaign::expand`] turns the declaration into
//! fingerprinted points, [`engine::Campaign::run_direct`] executes them in-process, and
//! [`engine::CampaignRun`] lowers them onto per-point [`engine::ShardQueue`]s so a fleet can
//! drain — and crash, and [`engine::CampaignRun::resume`] — the sweep with byte-identical
//! results. The folded [`engine::CampaignReport`] carries every point's coordinates,
//! [`engine::TrialSummary`] and Wilson-intervalled detection / false-alarm rates
//! ([`engine::RateInterval`]). `shardctl campaign plan/run/resume/report` expose the same
//! operations to a fleet of processes, and the `fig2`, `fig3`, `ablation_backend`, `table1`
//! and `attack_*` binaries are now formatters over checked-in campaign definitions.
//!
//! ## Simulation backends
//!
//! Three production substrates implement the [`engine::Backend`] seam, selected per scenario by
//! [`engine::BackendKind`] ([`engine::Scenario::with_backend`], or `--backend` on `shardctl`
//! and the attack sweep binaries): the default `engine::DensityMatrixBackend` applies every
//! noise channel exactly (the paper's emulation), `engine::StatevectorBackend` runs
//! sessions as sampled pure-state trajectories (one Born-sampled Kraus branch per noise
//! application), and `engine::PauliTwirledBackend` lowers every channel to its Pauli twirl
//! at compile time and tracks each pair as a two-bit Pauli frame — the integer-only substrate
//! for billion-trial sweeps. The kind is folded into [`engine::Scenario::fingerprint`], so the
//! substrates draw disjoint RNG streams, shipped plans reproduce on the right backend
//! cross-process, and [`engine::ShardMerger`] rejects any attempt to fold results from
//! different substrates into one run. The `bench` crate's `ablation_backend` binary quantifies
//! where the sampled and twirled substrates' detection-rate curves diverge from the exact
//! emulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod baselines;
pub mod config;
pub mod descriptor;
pub mod di_check;
pub mod engine;
pub mod env_keys;
pub mod error;
pub mod identity;
mod message;
pub mod session;
pub mod wire;

pub use config::SessionConfig;
pub use engine::{
    Adversary, Axis, AxisValue, Backend, BackendKind, Campaign, CampaignReport, CampaignRun,
    CampaignSpace, CampaignWorkload, MergeCheckpoint, MergedRun, Parallelism, RateInterval,
    Scenario, SessionEngine, ShardMerger, ShardOutput, ShardPlan, ShardQueue, ShardResult,
    TrialSummary,
};
pub use error::ProtocolError;
pub use identity::{IdentityPair, IdentityString};
pub use message::SecretMessage;
pub use session::Impersonation;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::baselines::run_baseline_di_qsdc;
    pub use crate::config::SessionConfig;
    pub use crate::descriptor::ProtocolDescriptor;
    pub use crate::engine::{
        derive_point_seed, merge_shard_results, Adversary, Axis, AxisValue, Backend, BackendKind,
        Campaign, CampaignError, CampaignPointReport, CampaignReport, CampaignRun, CampaignSpace,
        CampaignStatus, CampaignWorkload, CircuitDevice, CircuitExperiment, ClaimOutcome,
        MergeCheckpoint, MergeError, MergedRun, Parallelism, QueueError, QueueStatus, RateInterval,
        Scenario, SessionEngine, ShardMerger, ShardOutput, ShardPayload, ShardPlan, ShardQueue,
        ShardResult, ShardSlot, ShardWorker, SlotState, SubmitOutcome, TrialSummary,
    };
    pub use crate::error::ProtocolError;
    pub use crate::identity::{IdentityPair, IdentityString};
    pub use crate::message::SecretMessage;
    pub use crate::session::Impersonation;
}
