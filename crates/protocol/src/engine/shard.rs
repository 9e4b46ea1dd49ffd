//! Plan / execute / merge: the sharded execution pipeline.
//!
//! Every engine run decomposes into three explicit stages, and the per-trial
//! RNG stream contract (`master seed`, scenario fingerprint, trial index)
//! makes each stage location-independent:
//!
//! 1. **Plan** — [`SessionEngine::plan`] captures *what* to run as a
//!    [`ShardPlan`]: the scenario, the master seed, the scenario fingerprint
//!    and a trial range. Plans are plain serde data; [`ShardPlan::split_into`]
//!    and [`ShardPlan::split_max`] carve a run into contiguous sub-plans that
//!    can be shipped to any number of processes or machines.
//! 2. **Execute** — [`SessionEngine::execute_shard`] turns one plan into a
//!    [`ShardResult`]: either the ordered [`SessionOutcome`]s of the range or
//!    a mergeable [`TrialSummaryBuilder`] partial, as selected by
//!    [`ShardOutput`]. Execution is a pure function of the plan (plus the
//!    engine's backend): the engine's own master seed is ignored in favour of
//!    the plan's, so a shard reproduces bit-for-bit wherever it runs.
//! 3. **Merge** — [`ShardMerger`] folds results back together in trial order,
//!    detecting gaps, overlaps, backend/fingerprint/seed mismatches, mixed
//!    payloads and incomplete coverage. Because [`TrialSummaryBuilder::merge`] is
//!    order-respecting and exact, the merged [`TrialSummary`] is bit-for-bit
//!    the summary of the unsharded run; the same holds trivially for merged
//!    outcome lists.
//!
//! Single-machine execution is the degenerate case: `run`, `run_outcomes`,
//! `run_trials` and `run_batch` on [`SessionEngine`] run whole ranges through
//! the same executor stage, with the plan elided and the merge the identity.
//! The `shardctl` binary (in the `bench` crate) ships the same three stages
//! as JSON between processes:
//!
//! ```text
//! shardctl plan --scenario scenario.json --trials 1000 --seed 42 --shards 4 \
//!   | shardctl run | shardctl merge
//! ```
//!
//! ```rust
//! use protocol::engine::{Scenario, SessionEngine, ShardOutput, ShardMerger};
//! use protocol::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let identities = IdentityPair::generate(4, &mut rng);
//! let config = SessionConfig::builder()
//!     .message_bits(8)
//!     .check_bits(2)
//!     .di_check_pairs(24)
//!     .build()?;
//! let scenario = Scenario::new(config, identities);
//!
//! let engine = SessionEngine::new(42);
//! let whole = engine.run_trials(&scenario, 6)?;
//!
//! // The same six trials as three shards, e.g. on three machines…
//! let mut merger = ShardMerger::new();
//! for plan in engine.plan(&scenario, 6).split_into(3) {
//!     // …each executed by an *independent* engine (seed comes from the plan).
//!     let result = SessionEngine::new(0).execute_shard(&plan, ShardOutput::Summary)?;
//!     merger.push(result)?;
//! }
//! assert_eq!(merger.finish()?.into_summary().unwrap(), whole);
//! # Ok(())
//! # }
//! ```

use super::parallel::{self, ExecutorStats};
use super::{
    BackendKind, OutcomeSink, Scenario, Session, SessionEngine, SummarySink, TrialSummary,
    TrialSummaryBuilder,
};
use crate::di_check::CheckTables;
use crate::error::ProtocolError;
use crate::message::SecretMessage;
use crate::session::{ResourceUsage, SessionOutcome};
use qchannel::compiled::CompiledQuantumChannel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

// --------------------------------------------------------------------- plan --

/// A serde round-trippable description of one shard of a run: *scenario +
/// trial range + master seed + fingerprint*. The unit of work shipped to
/// workers.
///
/// A fresh plan from [`SessionEngine::plan`] covers the whole run
/// (`trial_start == 0`, `trial_count == total_trials`); the splitters carve it
/// into contiguous sub-plans. The stored [`fingerprint`](Self::fingerprint)
/// pins the RNG streams the executor will derive; [`validate`](Self::validate)
/// rejects a plan whose scenario no longer hashes to it (e.g. a hand-edited
/// JSON file).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// The scenario every trial of this shard runs.
    pub scenario: Scenario,
    /// The master seed of the *run* (not the shard): trial streams derive
    /// from it, so every shard of a run carries the same seed.
    pub master_seed: u64,
    /// The scenario fingerprint, precomputed at planning time.
    pub fingerprint: u64,
    /// First trial index of this shard's range.
    pub trial_start: u64,
    /// Number of trials in this shard (may be 0 for a degenerate shard).
    pub trial_count: usize,
    /// Total trials of the whole run this shard was split from; the merger
    /// uses it to detect incomplete coverage.
    pub total_trials: usize,
    /// Provenance stamp over the plan's *execution header* — fingerprint,
    /// master seed and trial range (see `provenance_stamp`).
    /// [`validate`](Self::validate) rejects a plan whose range fields were
    /// edited after planning; the splitters re-stamp the sub-plans they
    /// legitimately derive.
    pub plan_stamp: u64,
}

impl ShardPlan {
    /// The provenance stamp [`validate`](Self::validate) expects for this
    /// plan's current header fields: a stable hash over (fingerprint, master
    /// seed, trial range, total trials).
    ///
    /// The scenario fingerprint alone cannot witness the trial range: a plan
    /// whose range was subranged (or hand-edited) after planning — e.g. a
    /// stale `total_trials` that would fool the merger's completeness check —
    /// used to pass [`validate`](Self::validate). Every legitimate
    /// constructor ([`SessionEngine::plan`], [`subrange`](Self::subrange) and
    /// the splitters built on it) stamps the plan; any later edit of a header
    /// field is detected as a stamp mismatch.
    pub(crate) fn provenance_stamp(&self) -> u64 {
        let mut bytes = Vec::with_capacity(53);
        bytes.extend_from_slice(b"shard-plan-v1");
        for field in [
            self.fingerprint,
            self.master_seed,
            self.trial_start,
            self.trial_count as u64,
            self.total_trials as u64,
        ] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        super::fnv1a64(&bytes)
    }
    /// One-past-the-last trial index of this shard's range.
    pub fn trial_end(&self) -> u64 {
        self.trial_start + self.trial_count as u64
    }

    /// The simulation substrate this shard's trials run on (declared by the
    /// plan's scenario and covered by the fingerprint, so a worker process
    /// reconstructs the right backend from the plan alone).
    pub fn backend(&self) -> BackendKind {
        self.scenario.backend
    }

    /// Checks internal consistency: the stored fingerprint must match the
    /// scenario (a mismatch means the plan was edited after planning and
    /// would silently derive different RNG streams), and the trial range must
    /// lie within the run.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] describing the inconsistency.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        let actual = self.scenario.fingerprint();
        if actual != self.fingerprint {
            return Err(ProtocolError::InvalidConfig(format!(
                "shard plan fingerprint {:#018x} does not match its scenario (which hashes to \
                 {actual:#018x}); the plan was modified after planning",
                self.fingerprint
            )));
        }
        let stamp = self.provenance_stamp();
        if stamp != self.plan_stamp {
            return Err(ProtocolError::InvalidConfig(format!(
                "shard plan stamp {:#018x} does not match its header (which stamps to \
                 {stamp:#018x}); the seed or trial range was modified after planning",
                self.plan_stamp
            )));
        }
        if self.trial_end() > self.total_trials as u64 {
            return Err(ProtocolError::InvalidConfig(format!(
                "shard trial range {}..{} exceeds the run's {} total trials",
                self.trial_start,
                self.trial_end(),
                self.total_trials
            )));
        }
        Ok(())
    }

    /// The sub-plan covering `count` trials starting `offset` trials into
    /// this shard's range.
    ///
    /// # Panics
    ///
    /// Panics when `offset + count` exceeds this shard's trial count.
    pub fn subrange(&self, offset: usize, count: usize) -> ShardPlan {
        assert!(
            offset + count <= self.trial_count,
            "subrange {offset}..{} exceeds the shard's {} trials",
            offset + count,
            self.trial_count
        );
        let mut shard = ShardPlan {
            scenario: self.scenario.clone(),
            master_seed: self.master_seed,
            fingerprint: self.fingerprint,
            trial_start: self.trial_start + offset as u64,
            trial_count: count,
            total_trials: self.total_trials,
            plan_stamp: 0,
        };
        // The sub-plan's range differs from its parent's, so it carries its
        // own provenance stamp.
        shard.plan_stamp = shard.provenance_stamp();
        shard
    }

    /// Splits this plan into exactly `shards` contiguous sub-plans of
    /// near-equal size (the first `trial_count % shards` get one extra
    /// trial). When `shards > trial_count`, the surplus sub-plans are empty —
    /// harmless to execute and merge.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is 0.
    pub fn split_into(&self, shards: usize) -> Vec<ShardPlan> {
        assert!(shards > 0, "a run cannot be split into zero shards");
        let base = self.trial_count / shards;
        let extra = self.trial_count % shards;
        let mut offset = 0usize;
        (0..shards)
            .map(|index| {
                let count = base + usize::from(index < extra);
                let shard = self.subrange(offset, count);
                offset += count;
                shard
            })
            .collect()
    }

    /// Splits this plan into contiguous sub-plans of at most `shard_trials`
    /// trials each. An empty plan yields itself, so pipelines stay
    /// well-formed for zero-trial runs.
    ///
    /// # Panics
    ///
    /// Panics when `shard_trials` is 0.
    pub fn split_max(&self, shard_trials: usize) -> Vec<ShardPlan> {
        assert!(shard_trials > 0, "shards must hold at least one trial");
        if self.trial_count == 0 {
            return vec![self.clone()];
        }
        (0..self.trial_count.div_ceil(shard_trials))
            .map(|index| {
                let offset = index * shard_trials;
                self.subrange(offset, shard_trials.min(self.trial_count - offset))
            })
            .collect()
    }
}

impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard trials {}..{} of {} for {} (seed {}, fingerprint {:#018x})",
            self.trial_start,
            self.trial_end(),
            self.total_trials,
            self.scenario,
            self.master_seed,
            self.fingerprint
        )
    }
}

// ------------------------------------------------------------------- result --

/// What the executor should produce for a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutput {
    /// Every [`SessionOutcome`] of the range, in trial order (the sharded
    /// sibling of [`SessionEngine::run_outcomes`]).
    Outcomes,
    /// A mergeable [`TrialSummaryBuilder`] partial (the sharded sibling of
    /// [`SessionEngine::run_trials`]). Far smaller on the wire.
    Summary,
}

impl ShardOutput {
    /// The payload kind as a short label (also the serialized form).
    pub fn as_str(&self) -> &'static str {
        match self {
            ShardOutput::Outcomes => "outcomes",
            ShardOutput::Summary => "summary",
        }
    }
}

impl fmt::Display for ShardOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ShardOutput {
    type Err = String;
    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw {
            "outcomes" => Ok(ShardOutput::Outcomes),
            "summary" => Ok(ShardOutput::Summary),
            other => Err(format!(
                "unknown shard output kind `{other}` (expected `summary` or `outcomes`)"
            )),
        }
    }
}

impl Serialize for ShardOutput {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for ShardOutput {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        value.as_str()?.parse().map_err(serde::Error::new)
    }
}

/// The payload of a [`ShardResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardPayload {
    /// Ordered per-trial outcomes.
    Outcomes(Vec<SessionOutcome>),
    /// A summary partial, mergeable in trial order.
    Summary(TrialSummaryBuilder),
}

impl ShardPayload {
    /// The payload kind as a short label.
    pub fn kind(&self) -> &'static str {
        match self {
            ShardPayload::Outcomes(_) => "outcomes",
            ShardPayload::Summary(_) => "summary",
        }
    }

    /// Number of trials recorded in this payload.
    pub fn trials(&self) -> usize {
        match self {
            ShardPayload::Outcomes(outcomes) => outcomes.len(),
            ShardPayload::Summary(builder) => builder.trials_recorded(),
        }
    }

    /// Folds `next`, the payload of the trials immediately following this
    /// one's, onto this payload. Callers check first that the kinds match.
    pub(super) fn append(&mut self, next: ShardPayload) {
        match (self, next) {
            (ShardPayload::Outcomes(all), ShardPayload::Outcomes(mut outcomes)) => {
                all.append(&mut outcomes);
            }
            (ShardPayload::Summary(partial), ShardPayload::Summary(other)) => partial.merge(other),
            _ => unreachable!("payload kinds are checked before they are folded"),
        }
    }
}

/// The executed form of one [`ShardPlan`]: the plan's header (seed,
/// fingerprint, trial range) plus the produced payload. Serde
/// round-trippable, so workers ship it back as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    /// The run's master seed, copied from the plan.
    pub master_seed: u64,
    /// The scenario fingerprint, copied from the plan.
    pub fingerprint: u64,
    /// The substrate the shard was executed on, copied from the plan's
    /// scenario. The merger rejects results whose backends disagree, so
    /// results computed on different substrates can never be folded into one
    /// "byte-identical" run.
    pub backend: BackendKind,
    /// First trial index of the executed range.
    pub trial_start: u64,
    /// Number of trials executed.
    pub trial_count: usize,
    /// Total trials of the run this shard belongs to.
    pub total_trials: usize,
    /// The produced outcomes or summary partial.
    pub payload: ShardPayload,
}

impl ShardResult {
    /// One-past-the-last trial index of the executed range.
    pub fn trial_end(&self) -> u64 {
        self.trial_start + self.trial_count as u64
    }
}

// ----------------------------------------------------------------- executor --

impl SessionEngine {
    /// Stage 1 of the pipeline: the whole-run [`ShardPlan`] for `trials`
    /// trials of `scenario` under this engine's master seed. Split it with
    /// [`ShardPlan::split_into`] / [`ShardPlan::split_max`] to distribute the
    /// run.
    pub fn plan(&self, scenario: &Scenario, trials: usize) -> ShardPlan {
        let mut plan = ShardPlan {
            fingerprint: scenario.fingerprint(),
            scenario: scenario.clone(),
            master_seed: self.master_seed(),
            trial_start: 0,
            trial_count: trials,
            total_trials: trials,
            plan_stamp: 0,
        };
        plan.plan_stamp = plan.provenance_stamp();
        plan
    }

    /// Stage 2 of the pipeline: executes one shard and returns its result.
    ///
    /// Execution is a pure function of the *plan*: the plan's master seed
    /// governs every trial stream (the engine's own seed is deliberately
    /// ignored) and the plan's scenario declares the
    /// [`BackendKind`] to simulate on, so any engine on any machine
    /// reproduces the same `ShardResult` bit for bit. The engine contributes
    /// only the [`Parallelism`](super::Parallelism) policy the shard's trials
    /// fan out under — unless a fixed custom backend override was installed
    /// via [`SessionEngine::with_backend`], which takes precedence and must
    /// not be mixed with the shard pipeline (the result would still advertise
    /// the scenario's kind).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] when the plan fails [`ShardPlan::validate`]
    /// or on the first configuration error a trial reports (fail-fast, in
    /// trial order).
    pub fn execute_shard(
        &self,
        plan: &ShardPlan,
        output: ShardOutput,
    ) -> Result<ShardResult, ProtocolError> {
        self.execute_shard_with_stats(plan, output)
            .map(|(result, _)| result)
    }

    /// [`execute_shard`](Self::execute_shard) plus the [`ExecutorStats`] of
    /// the fan-out.
    ///
    /// # Errors
    ///
    /// As for [`execute_shard`](Self::execute_shard).
    pub fn execute_shard_with_stats(
        &self,
        plan: &ShardPlan,
        output: ShardOutput,
    ) -> Result<(ShardResult, ExecutorStats), ProtocolError> {
        plan.validate()?;
        let (payload, stats) = self.execute_trials(
            &plan.scenario,
            plan.fingerprint,
            plan.master_seed,
            plan.trial_start,
            plan.trial_count,
            output,
        )?;
        Ok((
            ShardResult {
                master_seed: plan.master_seed,
                fingerprint: plan.fingerprint,
                backend: plan.backend(),
                trial_start: plan.trial_start,
                trial_count: plan.trial_count,
                total_trials: plan.total_trials,
                payload,
            },
            stats,
        ))
    }

    /// The executor stage proper, and the engine's only trial loop: runs one
    /// contiguous trial range of a scenario with a precomputed fingerprint
    /// under an explicit master seed.
    ///
    /// Every entry point reaches the session body through here —
    /// `execute_shard` after validating a deserialized plan, and `run`,
    /// `run_outcomes`, `run_trials` and `run_batch` directly for the
    /// in-process whole-run case (the scenario is borrowed and already
    /// fingerprinted there, so no plan needs to be built or re-validated).
    /// It is also the one place a scenario's noise program is compiled.
    pub(super) fn execute_trials(
        &self,
        scenario: &Scenario,
        fingerprint: u64,
        master_seed: u64,
        trial_start: u64,
        trial_count: usize,
        output: ShardOutput,
    ) -> Result<(ShardPayload, ExecutorStats), ProtocolError> {
        if trial_count > 0 {
            scenario.adversary.validate()?;
        }
        // Compile the scenario's noise program once for the whole range; the
        // compiled placements are immutable, so workers share them freely.
        let program = CompiledQuantumChannel::from(scenario.config.channel().clone());
        let tables = CheckTables::new(&program);
        let backend = self.backend_for(scenario);
        let impersonation = scenario.adversary.impersonation();
        let resources = ResourceUsage::planned(&scenario.config, scenario.identities.qubit_len());
        // Each worker folds its chunk of trials into one payload; in Summary
        // mode no per-trial outcome is ever built.
        let (payload, stats) = parallel::fold(
            self.parallelism,
            trial_count,
            |chunk_trials| match output {
                ShardOutput::Outcomes => ShardPayload::Outcomes(Vec::with_capacity(chunk_trials)),
                ShardOutput::Summary => ShardPayload::Summary(TrialSummaryBuilder::new(
                    scenario.label.clone(),
                    scenario.adversary.name(),
                )),
            },
            |payload, index| {
                // A shard is self-contained: every stream derives from the
                // *run's* master seed (from the plan), not this engine's, so
                // it reproduces identically on any engine.
                let mut rng = trial_rng(master_seed, fingerprint, trial_start + index as u64);
                let random;
                let message = match &scenario.message {
                    Some(message) => message,
                    None => {
                        random = SecretMessage::random(scenario.config.message_bits(), &mut rng);
                        &random
                    }
                };
                let session = Session {
                    backend,
                    tables: &tables,
                    config: &scenario.config,
                    identities: &scenario.identities,
                    message,
                    impersonation,
                };
                let mut tap = scenario.adversary.make_tap();
                match payload {
                    ShardPayload::Outcomes(outcomes) => {
                        let mut sink = OutcomeSink::new(message.clone(), resources);
                        session.run(tap.as_mut(), &mut rng, &mut sink)?;
                        outcomes.push(sink.finish());
                    }
                    ShardPayload::Summary(builder) => {
                        session.run(tap.as_mut(), &mut rng, &mut SummarySink::new(builder))?;
                    }
                }
                Ok::<(), ProtocolError>(())
            },
            ShardPayload::append,
        );
        Ok((payload?, stats))
    }
}

/// The RNG for one trial of one scenario: a deterministic function of
/// `(master seed, scenario fingerprint, trial index)` only.
fn trial_rng(master_seed: u64, fingerprint: u64, trial: u64) -> StdRng {
    let mut state = master_seed ^ fingerprint.wrapping_mul(0xa24b_aed4_963e_e407);
    let _ = rand::splitmix64(&mut state);
    state ^= trial.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    StdRng::seed_from_u64(rand::splitmix64(&mut state))
}

// ------------------------------------------------------------------- merger --

/// Why a merge was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// A shard was executed on a different simulation substrate than the
    /// run's other shards — results from different backends approximate the
    /// same physics differently and must never be folded into one run.
    BackendMismatch {
        /// Substrate established by the first shard.
        expected: BackendKind,
        /// The offending shard's substrate.
        found: BackendKind,
    },
    /// A shard's scenario fingerprint differs from the first shard's — the
    /// results belong to different runs.
    FingerprintMismatch {
        /// Fingerprint established by the first shard.
        expected: u64,
        /// The offending shard's fingerprint.
        found: u64,
    },
    /// A shard's master seed differs from the first shard's.
    SeedMismatch {
        /// Seed established by the first shard.
        expected: u64,
        /// The offending shard's seed.
        found: u64,
    },
    /// A shard reports a different run size than the first shard.
    TotalMismatch {
        /// Total trials established by the first shard.
        expected: usize,
        /// The offending shard's total.
        found: usize,
    },
    /// The next shard starts after the end of the merged range: trials in
    /// between are missing.
    Gap {
        /// Trial index the merger expected next.
        expected_start: u64,
        /// Where the offending shard actually starts.
        found_start: u64,
    },
    /// The next shard starts before the end of the merged range: trials would
    /// be double-counted.
    Overlap {
        /// Trial index the merger expected next.
        expected_start: u64,
        /// Where the offending shard actually starts.
        found_start: u64,
    },
    /// A shard's payload records a different number of trials than its
    /// header claims (a corrupt or truncated result).
    PayloadLength {
        /// Trials the header claims.
        expected: usize,
        /// Trials the payload actually holds.
        found: usize,
    },
    /// Outcome and summary payloads cannot be merged together.
    MixedPayloads,
    /// `finish` was called before any shard was pushed.
    Empty,
    /// `finish` was called before the merged range covered the whole run.
    Incomplete {
        /// Trials merged so far.
        merged: u64,
        /// Total trials the run requires.
        total: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::BackendMismatch { expected, found } => write!(
                f,
                "shard was executed on the {found} backend, but the run's shards were \
                 executed on {expected}"
            ),
            MergeError::FingerprintMismatch { expected, found } => write!(
                f,
                "shard fingerprint {found:#018x} does not match the run's {expected:#018x}"
            ),
            MergeError::SeedMismatch { expected, found } => {
                write!(
                    f,
                    "shard master seed {found} does not match the run's {expected}"
                )
            }
            MergeError::TotalMismatch { expected, found } => write!(
                f,
                "shard claims a run of {found} total trials, the merge expects {expected}"
            ),
            MergeError::Gap {
                expected_start,
                found_start,
            } => write!(
                f,
                "gap in trial coverage: expected a shard starting at trial {expected_start}, \
                 got one starting at {found_start}"
            ),
            MergeError::Overlap {
                expected_start,
                found_start,
            } => write!(
                f,
                "overlapping shards: trials up to {expected_start} are already merged, \
                 got a shard starting at {found_start}"
            ),
            MergeError::PayloadLength { expected, found } => write!(
                f,
                "shard payload holds {found} trials but its header claims {expected}"
            ),
            MergeError::MixedPayloads => {
                f.write_str("cannot merge outcome payloads with summary payloads")
            }
            MergeError::Empty => f.write_str("no shard results to merge"),
            MergeError::Incomplete { merged, total } => write!(
                f,
                "merged shards cover only {merged} of the run's {total} trials"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// The output of a completed merge.
#[derive(Debug, Clone, PartialEq)]
pub enum MergedRun {
    /// The ordered outcomes of the whole run — identical to
    /// [`SessionEngine::run_outcomes`] on the unsharded run.
    Outcomes(Vec<SessionOutcome>),
    /// The finished summary of the whole run — bit-for-bit identical to
    /// [`SessionEngine::run_trials`] on the unsharded run.
    Summary(TrialSummary),
}

impl MergedRun {
    /// The merged outcomes, when the shards carried outcome payloads.
    pub fn into_outcomes(self) -> Option<Vec<SessionOutcome>> {
        match self {
            MergedRun::Outcomes(outcomes) => Some(outcomes),
            MergedRun::Summary(_) => None,
        }
    }

    /// The merged summary, when the shards carried summary partials.
    pub fn into_summary(self) -> Option<TrialSummary> {
        match self {
            MergedRun::Summary(summary) => Some(summary),
            MergedRun::Outcomes(_) => None,
        }
    }
}

/// Stage 3 of the pipeline: folds [`ShardResult`]s back into one run, **in
/// trial order**.
///
/// [`push`](Self::push) requires results in ascending trial order and rejects
/// gaps, overlaps, backend/fingerprint/seed/total mismatches, corrupt
/// payloads and mixed payload kinds; [`finish`](Self::finish) additionally rejects
/// incomplete coverage. For results collected out of order, use
/// [`merge_shard_results`], which sorts first.
#[derive(Debug, Default)]
pub struct ShardMerger {
    expected: Option<RunHeader>,
    merged: Option<ShardPayload>,
    next_trial: u64,
}

/// The identity every shard of one run shares: what a result's header must
/// match before its payload may be folded into the run.
#[derive(Debug, Clone, Copy)]
pub(super) struct RunHeader {
    master_seed: u64,
    fingerprint: u64,
    backend: BackendKind,
    total_trials: usize,
}

impl RunHeader {
    /// The identity of the run `plan` belongs to.
    pub(super) fn of_plan(plan: &ShardPlan) -> Self {
        Self {
            master_seed: plan.master_seed,
            fingerprint: plan.fingerprint,
            backend: plan.backend(),
            total_trials: plan.total_trials,
        }
    }

    /// The identity `result` claims for its run.
    fn of_result(result: &ShardResult) -> Self {
        Self {
            master_seed: result.master_seed,
            fingerprint: result.fingerprint,
            backend: result.backend,
            total_trials: result.total_trials,
        }
    }

    /// Rejects a result that belongs to another run, or whose payload holds
    /// a different number of trials than its header claims.
    pub(super) fn check(&self, result: &ShardResult) -> Result<(), MergeError> {
        // Backend first: two backends imply two fingerprints as well, and
        // the substrate mismatch is the actionable diagnosis.
        if result.backend != self.backend {
            return Err(MergeError::BackendMismatch {
                expected: self.backend,
                found: result.backend,
            });
        }
        if result.fingerprint != self.fingerprint {
            return Err(MergeError::FingerprintMismatch {
                expected: self.fingerprint,
                found: result.fingerprint,
            });
        }
        if result.master_seed != self.master_seed {
            return Err(MergeError::SeedMismatch {
                expected: self.master_seed,
                found: result.master_seed,
            });
        }
        if result.total_trials != self.total_trials {
            return Err(MergeError::TotalMismatch {
                expected: self.total_trials,
                found: result.total_trials,
            });
        }
        if result.payload.trials() != result.trial_count {
            return Err(MergeError::PayloadLength {
                expected: result.trial_count,
                found: result.payload.trials(),
            });
        }
        Ok(())
    }
}

impl ShardMerger {
    /// An empty merger; the first pushed shard establishes the run's
    /// identity (seed, fingerprint, total trials) and payload kind.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the next shard (by trial order) onto the merge.
    ///
    /// # Errors
    ///
    /// Any [`MergeError`] except [`MergeError::Empty`] /
    /// [`MergeError::Incomplete`] (those are `finish`-time checks).
    pub fn push(&mut self, result: ShardResult) -> Result<(), MergeError> {
        // Every check runs before any state mutates: a rejected shard must
        // leave the merger exactly as it was (in particular, a bad *first*
        // shard must not establish the run's identity).
        let header = self
            .expected
            .unwrap_or_else(|| RunHeader::of_result(&result));
        header.check(&result)?;
        match result.trial_start.cmp(&self.next_trial) {
            std::cmp::Ordering::Greater => {
                return Err(MergeError::Gap {
                    expected_start: self.next_trial,
                    found_start: result.trial_start,
                });
            }
            std::cmp::Ordering::Less => {
                return Err(MergeError::Overlap {
                    expected_start: self.next_trial,
                    found_start: result.trial_start,
                });
            }
            std::cmp::Ordering::Equal => {}
        }
        if let Some(merged) = &self.merged {
            if merged.kind() != result.payload.kind() {
                return Err(MergeError::MixedPayloads);
            }
        }
        // All checks passed — commit.
        self.expected = Some(header);
        self.next_trial = result.trial_end();
        match &mut self.merged {
            None => self.merged = Some(result.payload),
            Some(merged) => merged.append(result.payload),
        }
        Ok(())
    }

    /// Completes the merge.
    ///
    /// # Errors
    ///
    /// [`MergeError::Empty`] when nothing was pushed,
    /// [`MergeError::Incomplete`] when the merged range does not cover the
    /// whole run.
    pub fn finish(self) -> Result<MergedRun, MergeError> {
        let header = self.expected.ok_or(MergeError::Empty)?;
        if self.next_trial != header.total_trials as u64 {
            return Err(MergeError::Incomplete {
                merged: self.next_trial,
                total: header.total_trials,
            });
        }
        Ok(
            match self.merged.expect("a header implies at least one payload") {
                ShardPayload::Outcomes(outcomes) => MergedRun::Outcomes(outcomes),
                ShardPayload::Summary(partial) => MergedRun::Summary(partial.finish()),
            },
        )
    }
}

/// Merges shard results collected in any order: sorts by trial range, then
/// folds through a [`ShardMerger`].
///
/// # Errors
///
/// Propagates any [`MergeError`] of the fold, including incomplete coverage.
pub fn merge_shard_results(
    results: impl IntoIterator<Item = ShardResult>,
) -> Result<MergedRun, MergeError> {
    let mut results: Vec<ShardResult> = results.into_iter().collect();
    // Empty shards share their start with the following shard; the count key
    // orders them first so the fold sees a seamless range.
    results.sort_by_key(|r| (r.trial_start, r.trial_count));
    let mut merger = ShardMerger::new();
    for result in results {
        merger.push(result)?;
    }
    merger.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SessionConfig;
    use crate::engine::Parallelism;
    use crate::identity::IdentityPair;
    use rand::SeedableRng;

    fn scenario(seed: u64) -> Scenario {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let identities = IdentityPair::generate(3, &mut rng);
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(24)
            .build()
            .unwrap();
        Scenario::new(config, identities)
    }

    #[test]
    fn whole_run_plan_covers_everything() {
        let engine = SessionEngine::new(9);
        let plan = engine.plan(&scenario(1), 10);
        assert_eq!(plan.trial_start, 0);
        assert_eq!(plan.trial_count, 10);
        assert_eq!(plan.total_trials, 10);
        assert_eq!(plan.trial_end(), 10);
        assert_eq!(plan.master_seed, 9);
        assert_ne!(plan.trial_count, 0);
        assert!(plan.validate().is_ok());
        assert!(plan.to_string().contains("trials 0..10 of 10"));
    }

    #[test]
    fn split_into_partitions_the_range_contiguously() {
        let plan = SessionEngine::new(2).plan(&scenario(2), 11);
        let shards = plan.split_into(4);
        assert_eq!(shards.len(), 4);
        assert_eq!(
            shards.iter().map(|s| s.trial_count).collect::<Vec<_>>(),
            vec![3, 3, 3, 2]
        );
        let mut next = 0u64;
        for shard in &shards {
            assert_eq!(shard.trial_start, next);
            assert_eq!(shard.total_trials, 11);
            assert!(shard.validate().is_ok());
            next = shard.trial_end();
        }
        assert_eq!(next, 11);
        // More shards than trials: the surplus shards are empty but valid.
        let sparse = plan.split_into(20);
        assert_eq!(sparse.len(), 20);
        assert_eq!(sparse.iter().map(|s| s.trial_count).sum::<usize>(), 11);
        assert_eq!(sparse[19].trial_count, 0);
        assert!(sparse[19].validate().is_ok());
    }

    #[test]
    fn split_max_caps_every_shard() {
        let plan = SessionEngine::new(3).plan(&scenario(3), 10);
        let shards = plan.split_max(4);
        assert_eq!(
            shards.iter().map(|s| s.trial_count).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        let empty = SessionEngine::new(3).plan(&scenario(3), 0);
        let shards = empty.split_max(4);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].trial_count, 0);
    }

    #[test]
    fn tampered_plans_are_rejected() {
        let engine = SessionEngine::new(4);
        let mut plan = engine.plan(&scenario(4), 3);
        plan.fingerprint ^= 1;
        assert!(matches!(
            plan.validate(),
            Err(ProtocolError::InvalidConfig(_))
        ));
        assert!(matches!(
            engine.execute_shard(&plan, ShardOutput::Summary),
            Err(ProtocolError::InvalidConfig(_))
        ));
        let mut oversized = engine.plan(&scenario(4), 3);
        oversized.trial_count = 5;
        assert!(matches!(
            oversized.validate(),
            Err(ProtocolError::InvalidConfig(_))
        ));
    }

    #[test]
    fn edited_trial_ranges_are_rejected() {
        // Regression: the scenario fingerprint cannot witness the trial
        // range, so a plan whose range fields were edited after planning used
        // to pass `validate` as long as the range stayed within `total`.
        let engine = SessionEngine::new(21);
        let sub = engine.plan(&scenario(21), 10).subrange(0, 5);
        assert!(sub.validate().is_ok(), "legitimate sub-plans validate");

        // The motivating case: a stale `total` — shrink the run so the
        // merger would believe 5 merged trials complete a 5-trial run.
        let mut shrunk = sub.clone();
        shrunk.total_trials = 5;
        let err = shrunk.validate().unwrap_err();
        assert!(err.to_string().contains("stamp"), "{err}");

        // Any other header edit is equally detected…
        for edit in [
            |p: &mut ShardPlan| p.trial_start = 1,
            |p: &mut ShardPlan| p.trial_count = 4,
            |p: &mut ShardPlan| p.master_seed ^= 1,
        ] {
            let mut tampered = sub.clone();
            edit(&mut tampered);
            assert!(
                matches!(tampered.validate(), Err(ProtocolError::InvalidConfig(_))),
                "edited header fields must fail validation"
            );
            assert!(matches!(
                engine.execute_shard(&tampered, ShardOutput::Summary),
                Err(ProtocolError::InvalidConfig(_))
            ));
        }

        // …while every split of a valid plan re-stamps and stays valid.
        for shard in sub.split_into(3) {
            assert_eq!(shard.plan_stamp, shard.provenance_stamp());
            assert!(shard.validate().is_ok());
        }
        for shard in sub.split_max(2) {
            assert!(shard.validate().is_ok());
        }
    }

    #[test]
    fn execution_uses_the_plans_seed_not_the_engines() {
        let scenario = scenario(5);
        let plan = SessionEngine::new(1234).plan(&scenario, 2);
        let on_other_engine = SessionEngine::new(999)
            .execute_shard(&plan, ShardOutput::Outcomes)
            .unwrap();
        let reference = SessionEngine::new(1234).run_outcomes(&scenario, 2).unwrap();
        assert_eq!(
            on_other_engine.payload,
            ShardPayload::Outcomes(reference),
            "a shard must reproduce identically on any engine"
        );
    }

    #[test]
    fn sharded_outcomes_and_summaries_match_the_unsharded_run() {
        let scenario = scenario(6);
        let engine = SessionEngine::new(77);
        let trials = 7;
        let whole_outcomes = engine.run_outcomes(&scenario, trials).unwrap();
        let whole_summary = engine.run_trials(&scenario, trials).unwrap();
        for shards in [1usize, 2, 3, 7, 9] {
            let plans = engine.plan(&scenario, trials).split_into(shards);
            let outcome_results: Vec<ShardResult> = plans
                .iter()
                .map(|p| engine.execute_shard(p, ShardOutput::Outcomes).unwrap())
                .collect();
            let merged = merge_shard_results(outcome_results)
                .unwrap()
                .into_outcomes()
                .unwrap();
            assert_eq!(merged, whole_outcomes, "{shards} shards (outcomes)");
            let summary_results: Vec<ShardResult> = plans
                .iter()
                .map(|p| engine.execute_shard(p, ShardOutput::Summary).unwrap())
                .collect();
            let merged = merge_shard_results(summary_results)
                .unwrap()
                .into_summary()
                .unwrap();
            assert_eq!(merged, whole_summary, "{shards} shards (summary)");
            assert_eq!(
                serde::json::to_string(&merged),
                serde::json::to_string(&whole_summary),
                "{shards} shards must merge byte-identically"
            );
        }
    }

    #[test]
    fn shards_execute_under_any_parallelism_policy() {
        let scenario = scenario(7);
        let engine = SessionEngine::new(7);
        let plan = engine.plan(&scenario, 5).subrange(1, 3);
        let serial = engine.execute_shard(&plan, ShardOutput::Outcomes).unwrap();
        for mode in [Parallelism::Threads(2), Parallelism::Auto] {
            let threaded = SessionEngine::new(7)
                .with_parallelism(mode)
                .execute_shard_with_stats(&plan, ShardOutput::Outcomes)
                .unwrap();
            assert_eq!(threaded.0, serial, "{mode}");
            assert_eq!(threaded.1.tasks, 3);
        }
    }

    #[test]
    fn merger_detects_gaps_overlaps_and_mismatches() {
        let scenario = scenario(8);
        let engine = SessionEngine::new(8);
        let plans = engine.plan(&scenario, 6).split_into(3);
        let results: Vec<ShardResult> = plans
            .iter()
            .map(|p| engine.execute_shard(p, ShardOutput::Summary).unwrap())
            .collect();

        // Gap: skip the middle shard.
        let mut merger = ShardMerger::new();
        merger.push(results[0].clone()).unwrap();
        assert_eq!(
            merger.push(results[2].clone()),
            Err(MergeError::Gap {
                expected_start: 2,
                found_start: 4
            })
        );

        // Overlap: push the same shard twice.
        let mut merger = ShardMerger::new();
        merger.push(results[0].clone()).unwrap();
        assert_eq!(
            merger.push(results[0].clone()),
            Err(MergeError::Overlap {
                expected_start: 2,
                found_start: 0
            })
        );

        // Fingerprint mismatch: a shard of a different run.
        let mut merger = ShardMerger::new();
        merger.push(results[0].clone()).unwrap();
        let mut alien = results[1].clone();
        alien.fingerprint ^= 1;
        assert!(matches!(
            merger.push(alien),
            Err(MergeError::FingerprintMismatch { .. })
        ));

        // Seed mismatch.
        let mut merger = ShardMerger::new();
        merger.push(results[0].clone()).unwrap();
        let mut reseeded = results[1].clone();
        reseeded.master_seed += 1;
        assert!(matches!(
            merger.push(reseeded),
            Err(MergeError::SeedMismatch { .. })
        ));

        // Total mismatch.
        let mut merger = ShardMerger::new();
        merger.push(results[0].clone()).unwrap();
        let mut resized = results[1].clone();
        resized.total_trials = 9;
        assert!(matches!(
            merger.push(resized),
            Err(MergeError::TotalMismatch { .. })
        ));

        // Corrupt payload: header claims more trials than the payload holds.
        let mut merger = ShardMerger::new();
        let mut corrupt = results[0].clone();
        corrupt.trial_count += 1;
        corrupt.total_trials += 1;
        assert_eq!(
            merger.push(corrupt),
            Err(MergeError::PayloadLength {
                expected: 3,
                found: 2
            })
        );
        // A rejected shard leaves the merger untouched — in particular, a bad
        // *first* shard must not establish the run's identity, so the real
        // shards still merge cleanly afterwards.
        for result in &results {
            merger.push(result.clone()).unwrap();
        }
        assert!(merger.finish().is_ok());

        // Mixed payloads.
        let mut merger = ShardMerger::new();
        merger.push(results[0].clone()).unwrap();
        let outcomes = engine
            .execute_shard(&plans[1], ShardOutput::Outcomes)
            .unwrap();
        assert_eq!(merger.push(outcomes), Err(MergeError::MixedPayloads));

        // Empty and incomplete finishes.
        assert_eq!(ShardMerger::new().finish().unwrap_err(), MergeError::Empty);
        let mut merger = ShardMerger::new();
        merger.push(results[0].clone()).unwrap();
        assert_eq!(
            merger.finish().unwrap_err(),
            MergeError::Incomplete {
                merged: 2,
                total: 6
            }
        );

        // Every error has a distinct human-readable rendering.
        for error in [
            MergeError::Gap {
                expected_start: 1,
                found_start: 2,
            },
            MergeError::MixedPayloads,
            MergeError::Empty,
        ] {
            assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn cross_backend_merges_are_rejected() {
        // Regression test: a ShardPlan/ShardResult used to identify a run by
        // scenario + seed + trial range only, so the merger would silently
        // fold shards computed on different simulation substrates into one
        // "byte-identical" run. The backend is now part of the scenario
        // fingerprint AND carried explicitly on every result.
        let density = scenario(12);
        let statevector = density.clone().with_backend(BackendKind::Statevector);
        let engine = SessionEngine::new(12);
        let density_plans = engine.plan(&density, 4).split_into(2);
        let statevector_plans = engine.plan(&statevector, 4).split_into(2);
        assert_eq!(density_plans[0].backend(), BackendKind::DensityMatrix);
        assert_eq!(statevector_plans[1].backend(), BackendKind::Statevector);
        assert_ne!(
            density_plans[0].fingerprint, statevector_plans[0].fingerprint,
            "the backend must be covered by the fingerprint"
        );
        for output in [ShardOutput::Summary, ShardOutput::Outcomes] {
            let first = engine.execute_shard(&density_plans[0], output).unwrap();
            assert_eq!(first.backend, BackendKind::DensityMatrix);
            let second = engine.execute_shard(&statevector_plans[1], output).unwrap();
            assert_eq!(second.backend, BackendKind::Statevector);

            let mut merger = ShardMerger::new();
            merger.push(first.clone()).unwrap();
            let err = merger.push(second.clone()).unwrap_err();
            assert_eq!(
                err,
                MergeError::BackendMismatch {
                    expected: BackendKind::DensityMatrix,
                    found: BackendKind::Statevector,
                }
            );
            assert!(err.to_string().contains("statevector"), "{err}");
            assert!(err.to_string().contains("density-matrix"), "{err}");
            // The order-insensitive entry point rejects the mix as well.
            assert!(matches!(
                merge_shard_results([first, second]),
                Err(MergeError::BackendMismatch { .. })
            ));
        }
        // A consistent statevector run still merges byte-identically.
        let results: Vec<ShardResult> = statevector_plans
            .iter()
            .map(|p| engine.execute_shard(p, ShardOutput::Summary).unwrap())
            .collect();
        let merged = merge_shard_results(results)
            .unwrap()
            .into_summary()
            .unwrap();
        assert_eq!(merged, engine.run_trials(&statevector, 4).unwrap());
    }

    #[test]
    fn pauli_twirled_shards_never_merge_into_exact_runs() {
        // Regression guard for the twirled substrate: its detection
        // statistics are an approximation of the exact backends', so a
        // twirled shard folded into a density-matrix (or statevector) run
        // would silently bias the merged rates. The merger must reject the
        // mix in both push orders.
        let exact = scenario(13);
        let twirled = exact.clone().with_backend(BackendKind::PauliTwirled);
        let engine = SessionEngine::new(13);
        let exact_shard = engine
            .execute_shard(&engine.plan(&exact, 2), ShardOutput::Summary)
            .unwrap();
        let twirled_shard = engine
            .execute_shard(&engine.plan(&twirled, 2), ShardOutput::Summary)
            .unwrap();
        assert_eq!(twirled_shard.backend, BackendKind::PauliTwirled);
        assert_ne!(
            exact_shard.fingerprint, twirled_shard.fingerprint,
            "the twirled substrate must draw a disjoint trial stream"
        );

        let mut merger = ShardMerger::new();
        merger.push(exact_shard.clone()).unwrap();
        assert_eq!(
            merger.push(twirled_shard.clone()).unwrap_err(),
            MergeError::BackendMismatch {
                expected: BackendKind::DensityMatrix,
                found: BackendKind::PauliTwirled,
            }
        );
        let mut merger = ShardMerger::new();
        merger.push(twirled_shard.clone()).unwrap();
        let err = merger.push(exact_shard).unwrap_err();
        assert_eq!(
            err,
            MergeError::BackendMismatch {
                expected: BackendKind::PauliTwirled,
                found: BackendKind::DensityMatrix,
            }
        );
        assert!(err.to_string().contains("pauli-twirled"), "{err}");
        // A consistent twirled run still merges byte-identically.
        let results: Vec<ShardResult> = engine
            .plan(&twirled, 4)
            .split_into(2)
            .iter()
            .map(|p| engine.execute_shard(p, ShardOutput::Summary).unwrap())
            .collect();
        let merged = merge_shard_results(results)
            .unwrap()
            .into_summary()
            .unwrap();
        assert_eq!(merged, engine.run_trials(&twirled, 4).unwrap());
    }

    #[test]
    fn plans_and_results_serde_round_trip() {
        let scenario = scenario(10);
        let engine = SessionEngine::new(10);
        for plan in engine.plan(&scenario, 4).split_into(3) {
            let json = serde::json::to_string(&plan);
            let back: ShardPlan = serde::json::from_str(&json).unwrap();
            assert_eq!(back, plan, "via {json}");
            for output in [ShardOutput::Outcomes, ShardOutput::Summary] {
                let result = engine.execute_shard(&back, output).unwrap();
                let json = serde::json::to_string(&result);
                let restored: ShardResult = serde::json::from_str(&json).unwrap();
                assert_eq!(restored, result, "{output} payload must round-trip");
            }
        }
    }

    #[test]
    fn empty_shards_merge_cleanly() {
        let scenario = scenario(11);
        let engine = SessionEngine::new(11);
        let plans = engine.plan(&scenario, 2).split_into(5);
        let results: Vec<ShardResult> = plans
            .iter()
            .map(|p| engine.execute_shard(p, ShardOutput::Summary).unwrap())
            .collect();
        let merged = merge_shard_results(results)
            .unwrap()
            .into_summary()
            .unwrap();
        assert_eq!(merged, engine.run_trials(&scenario, 2).unwrap());
        // A zero-trial run merges to a zero-trial summary.
        let empty = engine
            .execute_shard(&engine.plan(&scenario, 0), ShardOutput::Summary)
            .unwrap();
        let merged = merge_shard_results([empty])
            .unwrap()
            .into_summary()
            .unwrap();
        assert_eq!(merged.trials, 0);
    }
}
