//! The session execution engine: one coherent, batch-capable API for running
//! UA-DI-QSDC sessions under any adversarial setting.
//!
//! - [`Scenario`] declaratively bundles *what* to run: a [`SessionConfig`], the
//!   pre-shared [`IdentityPair`], an optional fixed [`SecretMessage`] (random
//!   per trial when absent) and an [`Adversary`].
//! - [`SessionEngine`] knows *how* to run it: which [`Backend`] simulates the
//!   quantum substrate and which master seed derives the per-trial RNG
//!   streams. [`SessionEngine::run`] executes one session,
//!   [`SessionEngine::run_outcomes`] returns every outcome of `n` sessions,
//!   [`SessionEngine::run_trials`] aggregates them into a [`TrialSummary`],
//!   and [`SessionEngine::run_batch`] does so for each of many scenarios in
//!   turn.
//!
//! Every trial draws its randomness from a stream derived from
//! `(master seed, scenario fingerprint, trial index)`, so results are
//! bit-for-bit reproducible, independent of execution order, and independent
//! of which other scenarios share the batch. The [`parallel`] module turns
//! that property into wall-clock speed: configure the engine with a
//! [`Parallelism`] policy (e.g.
//! [`with_parallelism(Parallelism::Auto)`](SessionEngine::with_parallelism))
//! and every entry point fans a scenario's trials across worker threads while
//! returning exactly the serial results;
//! [`run_trials_with_stats`](SessionEngine::run_trials_with_stats) additionally
//! reports an [`ExecutorStats`] with per-worker trial counts and wall time.
//!
//! The same contract extends beyond one process: every run decomposes into
//! the explicit plan → execute → merge stages of the `shard` module — a
//! serde [`ShardPlan`] splits a trial range across workers or machines,
//! [`SessionEngine::execute_shard`] turns one shard into a [`ShardResult`],
//! and a [`ShardMerger`] folds results back in trial order, byte-identical to
//! the unsharded run. Every entry point above is the whole-run special case
//! of that pipeline: they all run their trials through the executor stage
//! behind `execute_shard`. For a heterogeneous fleet, the [`queue`] module
//! schedules those shards dynamically: a [`ShardQueue`] on a shared directory
//! hands sub-plans out on a claim/lease basis and persists progress in a
//! resumable, fingerprint-verified [`MergeCheckpoint`]. One level up, the
//! [`campaign`] module makes whole parameter sweeps declarative: a serde
//! [`Campaign`] expands a grid of axes over a base scenario and lowers every
//! point onto this same pipeline, folding the merged runs into a
//! [`CampaignReport`] with confidence-intervalled detection rates.
//!
//! ```rust
//! use protocol::engine::{Adversary, Scenario, SessionEngine};
//! use protocol::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let identities = IdentityPair::generate(6, &mut rng);
//! let config = SessionConfig::builder()
//!     .message_bits(16)
//!     .check_bits(4)
//!     .di_check_pairs(60)
//!     .build()?;
//! let scenario = Scenario::new(config, identities);
//! let engine = SessionEngine::new(42);
//! let outcome = engine.run(&scenario)?;
//! assert!(outcome.is_delivered());
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod circuit;
pub mod parallel;
pub mod queue;
mod shard;

pub use campaign::{
    derive_point_seed, Axis, AxisValue, Campaign, CampaignError, CampaignPointReport,
    CampaignReport, CampaignRun, CampaignSpace, CampaignStatus, CampaignWorkload, RateInterval,
};
pub use circuit::{CircuitDevice, CircuitExperiment};
pub use parallel::{ExecutorStats, Parallelism};
pub use queue::{
    ClaimOutcome, MergeCheckpoint, QueueError, QueueStatus, ShardQueue, ShardSlot, ShardWorker,
    SlotState, SubmitOutcome,
};
pub use shard::{
    merge_shard_results, MergeError, MergedRun, ShardMerger, ShardOutput, ShardPayload, ShardPlan,
    ShardResult,
};

use crate::auth::{self, AuthTally};
use crate::config::SessionConfig;
use crate::di_check::{run_di_check_into, CheckTables, DiCheckReport, DiCheckRound};
use crate::error::ProtocolError;
use crate::identity::{IdentityPair, IdentityString};
use crate::message::{PaddedMessage, SecretMessage};
use crate::session::{AbortStage, Impersonation, ResourceUsage, SessionOutcome, SessionStatus};
use qchannel::classical::{ClassicalMessage, Party, Transcript};
use qchannel::compiled::CompiledQuantumChannel;
use qchannel::epr::EprPair;
use qchannel::quantum::{ChannelTap, NoTap};
use qchannel::taps::{
    EntangleMeasureAttack, InterceptBasis, InterceptResendAttack, ManInTheMiddleAttack,
    SubstituteState,
};
use qsim::bell::BellState;
use qsim::chsh::MeasurementRecord;
use qsim::density::DensityMatrix;
use qsim::pauli::Pauli;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

// ------------------------------------------------------------------ backend --

/// The simulation substrate a [`SessionEngine`] runs sessions on.
///
/// The default `DensityMatrixBackend` reproduces the paper's emulation
/// (density-matrix pairs, noisy identity-gate channel). Alternative backends —
/// sparse simulators, GPU batches, hardware adapters — implement the same two
/// hooks and plug into the engine unchanged.
pub trait Backend: fmt::Debug + Send + Sync {
    /// Short human-readable backend name (for reports).
    fn name(&self) -> &str;

    /// Emits one entangled pair from the (possibly adversary-controlled)
    /// source and distributes it to the two parties.
    ///
    /// The channel arrives **precompiled**: the engine compiles a
    /// scenario's noise program once per run or shard and every trial runs
    /// against the compiled placements, so backends never pay per-call
    /// channel construction, validation, or embedding.
    fn emit_pair(
        &self,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) -> EprPair;

    /// Emits one pair into `slot`, reusing its buffers where the backend
    /// supports it. Behaviourally identical to
    /// `*slot = self.emit_pair(channel, tap, rng)` — the default does
    /// exactly that — but backends with allocation-free emission override
    /// it so the engine's pooled trial loop never touches the heap.
    fn emit_pair_into(
        &self,
        slot: &mut EprPair,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        *slot = self.emit_pair(channel, tap, rng);
    }

    /// Transmits Alice's half of `pair` to Bob through the channel, letting
    /// the tap act first.
    fn transmit(
        &self,
        channel: &CompiledQuantumChannel,
        pair: &mut EprPair,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    );
}

/// The default backend: density-matrix pairs from a noisy source, transmitted
/// through the η-identity-gate channel (the paper's Section IV emulation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DensityMatrixBackend;

impl Backend for DensityMatrixBackend {
    fn name(&self) -> &str {
        "density-matrix"
    }

    fn emit_pair(
        &self,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) -> EprPair {
        let mut pair = channel.emit_noisy_pair();
        channel.distribute_tapped(&mut pair, tap, rng);
        pair
    }

    fn emit_pair_into(
        &self,
        slot: &mut EprPair,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        channel.emit_noisy_pair_into(slot);
        channel.distribute_tapped(slot, tap, rng);
    }

    fn transmit(
        &self,
        channel: &CompiledQuantumChannel,
        pair: &mut EprPair,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        channel.transmit_tapped(pair, tap, rng);
    }
}

/// The sampled pure-state backend: Monte-Carlo wavefunction trajectories.
///
/// Where [`DensityMatrixBackend`] applies every noise channel exactly
/// (`ρ → Σᵢ Kᵢ ρ Kᵢ†`), this backend Born-samples **one** Kraus branch per
/// channel application and renormalises (`|ψ⟩ → Kᵢ|ψ⟩/√pᵢ`), so noisy EPR
/// emission and η-gate transmission evolve as a single stochastic pure-state
/// trajectory per pair. Averaged over trials the substrates agree; per trial
/// the sampled substrate is an approximation whose detection-rate curves the
/// `ablation_backend` binary (bench crate) quantifies against the exact
/// emulation.
///
/// Channel taps keep acting on the pair's density representation, exactly as
/// on the default backend. When a tap leaves a pair mixed (e.g.
/// entangle-and-measure traces out its ancilla), transmission falls back to
/// branch-sampling on the density matrix — the same one-branch-per-step
/// unravelling, without requiring purity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StatevectorBackend;

/// Purity tolerance under which a pair still counts as pure for trajectory
/// extraction.
const PURITY_TOL: f64 = 1e-9;

impl Backend for StatevectorBackend {
    fn name(&self) -> &str {
        "statevector"
    }

    fn emit_pair(
        &self,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) -> EprPair {
        let mut psi = BellState::PhiPlus.statevector();
        // The compiled placements exist exactly when the device is noisy, so
        // the trajectory (and its RNG draws) matches the one-shot path.
        if let Some(source) = channel.source() {
            source
                .sample(&mut psi, rng)
                .expect("source-noise trajectory step on a normalised pair");
        }
        for prep in [channel.prep_alice(), channel.prep_bob()]
            .into_iter()
            .flatten()
        {
            prep.sample(&mut psi, rng)
                .expect("state-prep trajectory step on a normalised pair");
        }
        let mut pair = EprPair::from_density(DensityMatrix::from_statevector(&psi));
        channel.distribute_tapped(&mut pair, tap, rng);
        pair
    }

    fn transmit(
        &self,
        channel: &CompiledQuantumChannel,
        pair: &mut EprPair,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        // Same tap contract as the physical channel: Eve acts at the channel
        // entrance, then the (here: sampled) noise applies.
        tap.on_transmit(pair, rng);
        let spec = channel.spec();
        // `gate_alice` is compiled exactly when the device is noisy.
        let Some(gate) = channel.gate_alice() else {
            return;
        };
        if spec.length() == 0 {
            return;
        }
        let idle = channel.idle_bob();
        if let Some(mut psi) = pair.density().as_pure_state(PURITY_TOL) {
            for _ in 0..spec.length() {
                gate.sample(&mut psi, rng)
                    .expect("gate-noise trajectory step on a normalised pair");
                if let Some(idle) = idle {
                    idle.sample(&mut psi, rng)
                        .expect("idle-noise trajectory step on a normalised pair");
                }
            }
            *pair = EprPair::from_density(DensityMatrix::from_statevector(&psi));
        } else {
            for _ in 0..spec.length() {
                gate.sample_density(pair.density_mut(), rng)
                    .expect("gate-noise trajectory step on a unit-trace pair");
                if let Some(idle) = idle {
                    idle.sample_density(pair.density_mut(), rng)
                        .expect("idle-noise trajectory step on a unit-trace pair");
                }
            }
        }
    }
}

/// The Pauli-twirled stabilizer backend: integer-only Pauli-frame tracking
/// for billion-trial sweeps.
///
/// At compile time every noise placement of the scenario's channel is
/// projected onto its Pauli twirl (`p_P = |Tr(P·Kᵢ)|²/d²` summed over Kraus
/// operators) and the whole emission / transmission program collapses into
/// two Klein-group distributions (see [`qchannel::TwirledProgram`]). Each
/// trial then tracks every pair as a **Pauli frame** — two bits naming which
/// Bell state it is — so the honest data path runs on integer/bitmask
/// arithmetic: no complex numbers, no 4×4 matrices, no heap allocation.
///
/// The lowering is *exact* when every placement is already Pauli-diagonal
/// (depolarizing, bit/phase flip — e.g. the emission leg of the brisbane
/// device) and a Pauli-twirled *approximation* otherwise (amplitude damping
/// twirls approximately); [`qchannel::TwirledProgram::is_exact`] reports
/// which regime a compiled scenario is in, and the `ablation_backend` binary
/// (bench crate) quantifies the divergence against the exact substrates.
///
/// Channel taps still see the full density matrix: before an **active** tap
/// hook runs, the pair materialises its Bell state into the (stale) density
/// buffer in place; afterwards the state is re-projected onto the Bell
/// diagonal with one RNG draw ([`EprPair::twirl_to_frame`]) — the twirl
/// approximation applied at the tap boundary. Passive taps
/// ([`ChannelTap::acts_on_emission`] / [`ChannelTap::acts_on_transmit`]
/// returning `false`, e.g. `NoTap` on emission for the stock attacks) skip
/// the round-trip entirely, keeping the hot path integer-only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PauliTwirledBackend;

impl Backend for PauliTwirledBackend {
    fn name(&self) -> &str {
        "pauli-twirled"
    }

    fn emit_pair(
        &self,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) -> EprPair {
        let mut pair = EprPair::ideal();
        self.emit_pair_into(&mut pair, channel, tap, rng);
        pair
    }

    fn emit_pair_into(
        &self,
        slot: &mut EprPair,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        // Frame-tracked emission: reset to Φ+ and kick by one sample of the
        // precompiled emission distribution (at most one f64 draw).
        channel.emit_twirled_pair_into(slot, rng);
        if tap.acts_on_emission() {
            // Active source-side tap: materialise, let it act on the full
            // density matrix, then re-project onto the Bell diagonal.
            slot.density_mut();
            channel.distribute_tapped(slot, tap, rng);
            slot.twirl_to_frame(rng);
        }
    }

    fn transmit(
        &self,
        channel: &CompiledQuantumChannel,
        pair: &mut EprPair,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        // Same contract as the physical channel: the tap acts at the channel
        // entrance, then the (here: twirled) noise applies.
        if tap.acts_on_transmit() {
            pair.density_mut();
            tap.on_transmit(pair, rng);
            pair.twirl_to_frame(rng);
        }
        channel.transmit_twirled(pair, rng);
    }
}

/// Declares [`BackendKind`]: the enum, its exhaustive-by-construction
/// [`ALL`](BackendKind::ALL) table, the canonical name / alias parser and the
/// [`Backend`] binding — all generated from one variant list, so adding a
/// substrate is a one-entry change that cannot leave `ALL`, `as_str`,
/// `FromStr` or `backend()` out of sync.
macro_rules! backend_kinds {
    (
        $(
            $(#[$meta:meta])*
            $variant:ident {
                name: $name:literal,
                aliases: [$($alias:literal),* $(,)?],
                backend: $backend:expr $(,)?
            }
        ),* $(,)?
    ) => {
        /// Names one of the production simulation substrates — the serde
        /// face of the [`Backend`] seam.
        ///
        /// Every [`Scenario`] carries a `BackendKind` (and every
        /// [`ShardPlan`] / [`ShardResult`] inherits it), and any non-default
        /// kind is folded into [`Scenario::fingerprint`], so plans, shard
        /// results and per-trial RNG streams are pinned to the substrate
        /// that produced them; the [`ShardMerger`] rejects cross-backend
        /// merges with [`MergeError::BackendMismatch`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
        pub enum BackendKind {
            $( $(#[$meta])* $variant, )*
        }

        impl BackendKind {
            /// Every production substrate, in ablation order. Generated
            /// from the same variant list as the enum itself, so the table
            /// is exhaustive by construction.
            pub const ALL: [BackendKind; 0 $(+ { let _ = $name; 1 })*] =
                [ $( BackendKind::$variant, )* ];

            /// The canonical CLI / serde name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( BackendKind::$variant => $name, )*
                }
            }

            /// The backend implementation this kind names.
            pub fn backend(self) -> &'static dyn Backend {
                match self {
                    $( BackendKind::$variant => $backend, )*
                }
            }
        }

        impl std::str::FromStr for BackendKind {
            type Err = String;

            fn from_str(name: &str) -> Result<Self, Self::Err> {
                match name {
                    $( $name $( | $alias )* => Ok(BackendKind::$variant), )*
                    other => {
                        let expected = BackendKind::ALL
                            .iter()
                            .map(|kind| format!("`{kind}`"))
                            .collect::<Vec<_>>()
                            .join(", ");
                        Err(format!(
                            "unknown backend `{other}` (expected one of {expected})"
                        ))
                    }
                }
            }
        }
    };
}

backend_kinds! {
    /// Exact density-matrix evolution — the paper's Section IV emulation
    /// (`DensityMatrixBackend`; the default).
    #[default]
    DensityMatrix {
        name: "density-matrix",
        aliases: ["density", "dm"],
        backend: &DensityMatrixBackend,
    },
    /// Sampled pure-state trajectories (`StatevectorBackend`).
    Statevector {
        name: "statevector",
        aliases: ["sv", "trajectory"],
        backend: &StatevectorBackend,
    },
    /// Integer-only Pauli-frame tracking over twirled channels
    /// (`PauliTwirledBackend`).
    PauliTwirled {
        name: "pauli-twirled",
        aliases: ["twirled", "pt", "stabilizer"],
        backend: &PauliTwirledBackend,
    },
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for BackendKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().into())
    }
}

impl Deserialize for BackendKind {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            // Scenario/ShardPlan/ShardResult JSON written before the backend
            // selector existed has no `backend` field (the derived
            // deserializer hands us Null): those runs were density-matrix by
            // construction, matching the fingerprint rule that omits the
            // default kind so pre-backend runs stay valid.
            serde::Value::Null => Ok(BackendKind::default()),
            serde::Value::Str(name) => name.parse().map_err(serde::Error::new),
            other => Err(serde::Error::new(format!(
                "expected a backend name, got {}",
                other.kind()
            ))),
        }
    }
}

// ---------------------------------------------------------------- adversary --

/// The unified adversary vocabulary of a [`Scenario`].
///
/// This single enum covers what the legacy API split across the
/// [`Impersonation`] parameter and the generic `ChannelTap` type parameter:
/// impersonation of either party and the three channel attacks of the
/// paper's Section III. It is plain data: every variant compares by value
/// and round-trips through serde (decoding validates the parameters).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Adversary {
    /// No adversary: both parties legitimate, channel untapped.
    Honest,
    /// Eve plays Alice without knowing `id_A` (Section III-A).
    ImpersonateAlice,
    /// Eve plays Bob without knowing `id_B` (Section III-A).
    ImpersonateBob,
    /// Eve measures each flying qubit in the given basis and resends it
    /// (Section III-B).
    InterceptResend(InterceptBasis),
    /// Eve keeps the real qubits and forwards fresh substitutes
    /// (Section III-C).
    ManInTheMiddle(SubstituteState),
    /// Eve entangles an ancilla of the given coupling strength with each
    /// flying qubit and measures it (Section III-D).
    EntangleMeasure {
        /// Interaction strength in `[0, 1]`: 0 = no coupling, 1 = full CNOT.
        strength: f64,
    },
}

impl Adversary {
    /// The adversary's display name (used in [`TrialSummary::adversary`]).
    pub fn name(&self) -> String {
        match self {
            Adversary::Honest => "honest".into(),
            Adversary::ImpersonateAlice => "impersonate-alice".into(),
            Adversary::ImpersonateBob => "impersonate-bob".into(),
            Adversary::InterceptResend(_) => "intercept-and-resend".into(),
            Adversary::ManInTheMiddle(_) => "man-in-the-middle".into(),
            Adversary::EntangleMeasure { .. } => "entangle-and-measure".into(),
        }
    }

    /// Which party, if any, this adversary impersonates.
    pub fn impersonation(&self) -> Impersonation {
        match self {
            Adversary::ImpersonateAlice => Impersonation::OfAlice,
            Adversary::ImpersonateBob => Impersonation::OfBob,
            _ => Impersonation::None,
        }
    }

    /// The adversary corresponding to a legacy [`Impersonation`] target
    /// (inverse of [`Adversary::impersonation`]).
    pub fn from_impersonation(target: Impersonation) -> Adversary {
        match target {
            Impersonation::None => Adversary::Honest,
            Impersonation::OfAlice => Adversary::ImpersonateAlice,
            Impersonation::OfBob => Adversary::ImpersonateBob,
        }
    }

    /// The protocol stage expected to catch this adversary, where the paper
    /// pins one down: the authentication step protecting the impersonated
    /// party. Channel attacks have no single stage (first detection depends
    /// on tolerances) and return `None`.
    pub fn detection_stage(&self) -> Option<AbortStage> {
        match self {
            Adversary::ImpersonateAlice => Some(AbortStage::AliceAuthentication),
            Adversary::ImpersonateBob => Some(AbortStage::BobAuthentication),
            _ => None,
        }
    }

    /// Validates the adversary's parameters (e.g. the entangle-measure
    /// coupling strength must lie in `[0, 1]`).
    fn validate(&self) -> Result<(), ProtocolError> {
        if let Adversary::EntangleMeasure { strength } = self {
            if !(0.0..=1.0).contains(strength) {
                return Err(ProtocolError::InvalidConfig(format!(
                    "entangle-measure strength must lie in [0, 1], got {strength}"
                )));
            }
        }
        Ok(())
    }

    /// Builds a fresh channel tap for one session.
    pub fn make_tap(&self) -> Box<dyn ChannelTap> {
        match self {
            Adversary::Honest | Adversary::ImpersonateAlice | Adversary::ImpersonateBob => {
                Box::new(NoTap)
            }
            Adversary::InterceptResend(basis) => Box::new(InterceptResendAttack::new(*basis)),
            Adversary::ManInTheMiddle(substitute) => {
                Box::new(ManInTheMiddleAttack::new(*substitute))
            }
            Adversary::EntangleMeasure { strength } => {
                Box::new(EntangleMeasureAttack::with_strength(*strength))
            }
        }
    }
}

impl fmt::Display for Adversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl Deserialize for Adversary {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(tag) => match tag.as_str() {
                "Honest" => Ok(Adversary::Honest),
                "ImpersonateAlice" => Ok(Adversary::ImpersonateAlice),
                "ImpersonateBob" => Ok(Adversary::ImpersonateBob),
                other => Err(serde::Error::new(format!(
                    "unknown adversary variant `{other}`"
                ))),
            },
            serde::Value::Map(entries) if entries.len() == 1 => {
                let (tag, inner) = &entries[0];
                match tag.as_str() {
                    "InterceptResend" => Ok(Adversary::InterceptResend(
                        InterceptBasis::from_value(inner)?,
                    )),
                    "ManInTheMiddle" => Ok(Adversary::ManInTheMiddle(SubstituteState::from_value(
                        inner,
                    )?)),
                    "EntangleMeasure" => {
                        let strength = f64::from_value(inner.get_field("strength")?)?;
                        let adversary = Adversary::EntangleMeasure { strength };
                        adversary
                            .validate()
                            .map_err(|e| serde::Error::new(format!("invalid adversary: {e}")))?;
                        Ok(adversary)
                    }
                    other => Err(serde::Error::new(format!(
                        "unknown adversary variant `{other}`"
                    ))),
                }
            }
            other => Err(serde::Error::new(format!(
                "expected adversary, got {}",
                other.kind()
            ))),
        }
    }
}

// ----------------------------------------------------------------- scenario --

/// A declarative description of one kind of session to execute.
///
/// Scenarios are plain data: cloneable, comparable and serde
/// round-trippable, so whole experiment suites can be stored, shipped to
/// remote workers, or replayed later.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Display label (used in [`TrialSummary::label`]).
    pub label: String,
    /// The protocol configuration.
    pub config: SessionConfig,
    /// The pre-shared identities.
    pub identities: IdentityPair,
    /// The message Alice sends; `None` draws a fresh random message of the
    /// configured length for every trial.
    pub message: Option<SecretMessage>,
    /// The adversarial setting.
    pub adversary: Adversary,
    /// The simulation substrate trials of this scenario run on. Part of the
    /// physical fingerprint: two scenarios differing only in backend draw
    /// disjoint per-trial RNG streams and their shard results can never be
    /// merged into one run.
    pub backend: BackendKind,
}

impl Scenario {
    /// An honest scenario with a fresh random message per trial, on the
    /// default [`BackendKind::DensityMatrix`] substrate.
    pub fn new(config: SessionConfig, identities: IdentityPair) -> Self {
        Self {
            label: "session".into(),
            config,
            identities,
            message: None,
            adversary: Adversary::Honest,
            backend: BackendKind::default(),
        }
    }

    /// Sets the display label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Fixes the message Alice sends in every trial.
    #[must_use]
    pub fn with_message(mut self, message: SecretMessage) -> Self {
        self.message = Some(message);
        self
    }

    /// Sets the adversarial setting.
    #[must_use]
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the simulation substrate.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// A stable 64-bit fingerprint of the scenario's *physical* content —
    /// configuration, identities, message, adversary and (non-default)
    /// backend — used to derive per-trial RNG streams that do not depend on
    /// batch order.
    ///
    /// The display [`label`](Scenario::label) is deliberately excluded:
    /// renaming a scenario for reporting purposes must not change any
    /// simulated result. The default [`BackendKind::DensityMatrix`] is
    /// likewise omitted (rather than hashed as an explicit field) so
    /// fingerprints — and therefore the recorded RNG streams — of every
    /// scenario that predates the backend selector stay valid; any other
    /// backend hashes in and forces disjoint streams.
    pub fn fingerprint(&self) -> u64 {
        let mut physical = vec![
            ("config".into(), self.config.to_value()),
            ("identities".into(), self.identities.to_value()),
            ("message".into(), self.message.to_value()),
            ("adversary".into(), self.adversary.to_value()),
        ];
        if self.backend != BackendKind::default() {
            physical.push(("backend".into(), self.backend.to_value()));
        }
        fnv1a64(serde::json::to_string(&serde::Value::Map(physical)).as_bytes())
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario `{}` vs {} ({}) on {}",
            self.label, self.adversary, self.config, self.backend
        )
    }
}

// ------------------------------------------------------------ trial summary --

/// Aggregated statistics of repeated sessions of one [`Scenario`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialSummary {
    /// The scenario's label.
    pub label: String,
    /// The adversary's display name.
    pub adversary: String,
    /// Number of sessions executed.
    pub trials: usize,
    /// Sessions in which the message was delivered.
    pub delivered: usize,
    /// Aborts at the first DI check.
    pub aborted_di_check1: usize,
    /// Aborts at Bob authentication.
    pub aborted_bob_auth: usize,
    /// Aborts at Alice authentication.
    pub aborted_alice_auth: usize,
    /// Aborts at the second DI check.
    pub aborted_di_check2: usize,
    /// Aborts at the final integrity check.
    pub aborted_integrity: usize,
    /// Mean CHSH value of the first check (over sessions where it was
    /// estimated).
    pub mean_chsh_round1: Option<f64>,
    /// Mean CHSH value of the second check.
    pub mean_chsh_round2: Option<f64>,
    /// Mean message accuracy over delivered sessions.
    pub mean_message_accuracy: Option<f64>,
}

impl TrialSummary {
    fn empty(label: String, adversary: String) -> Self {
        Self {
            label,
            adversary,
            trials: 0,
            delivered: 0,
            aborted_di_check1: 0,
            aborted_bob_auth: 0,
            aborted_alice_auth: 0,
            aborted_di_check2: 0,
            aborted_integrity: 0,
            mean_chsh_round1: None,
            mean_chsh_round2: None,
            mean_message_accuracy: None,
        }
    }

    /// Total aborts across all stages.
    pub fn total_aborts(&self) -> usize {
        self.aborted_di_check1
            + self.aborted_bob_auth
            + self.aborted_alice_auth
            + self.aborted_di_check2
            + self.aborted_integrity
    }

    /// Fraction of sessions in which the protocol aborted (the adversary was
    /// detected).
    pub fn detection_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / self.trials as f64
        }
    }

    /// Aborts recorded at the given stage.
    pub fn aborted_at(&self, stage: AbortStage) -> usize {
        match stage {
            AbortStage::DiCheck1 => self.aborted_di_check1,
            AbortStage::BobAuthentication => self.aborted_bob_auth,
            AbortStage::AliceAuthentication => self.aborted_alice_auth,
            AbortStage::DiCheck2 => self.aborted_di_check2,
            AbortStage::IntegrityCheck => self.aborted_integrity,
        }
    }
}

impl fmt::Display for TrialSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {}: {} trials, {} delivered, detection rate {:.3} (S1 {:?}, S2 {:?})",
            self.label,
            self.adversary,
            self.trials,
            self.delivered,
            self.detection_rate(),
            self.mean_chsh_round1,
            self.mean_chsh_round2
        )
    }
}

/// Streaming accumulator behind [`TrialSummary`]: record outcomes one at a
/// time, then [`finish`](TrialSummaryBuilder::finish).
///
/// The builder doubles as the *mergeable partial* of the shard pipeline
/// (`shard`): it is serde round-trippable, and
/// [`merge`](TrialSummaryBuilder::merge) folds another partial onto this one.
/// To make merged partials bit-identical to serial accumulation for *any*
/// partition of a trial range, the mean accumulators keep their samples in
/// trial order (O(trials) memory, a few `f64` per trial) and defer the
/// left-to-right sum to `finish` — the identical addition sequence a serial
/// `sum += x` loop performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialSummaryBuilder {
    summary: TrialSummary,
    chsh1: MeanAccumulator,
    chsh2: MeanAccumulator,
    accuracies: MeanAccumulator,
}

/// Ordered sample log for a mean over optionally-present values. The sum is
/// computed left-to-right at [`mean`](Self::mean) time, so concatenating two
/// logs and summing equals summing while streaming — the property that makes
/// shard partials merge exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct MeanAccumulator {
    samples: Vec<f64>,
}

impl MeanAccumulator {
    fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    fn append(&mut self, mut other: MeanAccumulator) {
        self.samples.append(&mut other.samples);
    }

    fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            let sum = self.samples.iter().fold(0.0f64, |acc, &x| acc + x);
            Some(sum / self.samples.len() as f64)
        }
    }
}

impl TrialSummaryBuilder {
    /// Starts an empty summary with the given labels.
    pub fn new(label: impl Into<String>, adversary: impl Into<String>) -> Self {
        Self {
            summary: TrialSummary::empty(label.into(), adversary.into()),
            chsh1: MeanAccumulator::default(),
            chsh2: MeanAccumulator::default(),
            accuracies: MeanAccumulator::default(),
        }
    }

    /// Folds one session outcome into the summary.
    pub fn record(&mut self, outcome: &SessionOutcome) {
        let stage = match &outcome.status {
            SessionStatus::Delivered => None,
            SessionStatus::Aborted { stage, .. } => Some(*stage),
        };
        let chsh = |report: &Option<DiCheckReport>| report.as_ref().and_then(|r| r.chsh);
        self.record_trial(
            stage,
            [
                chsh(&outcome.di_check_round1),
                chsh(&outcome.di_check_round2),
            ],
            outcome.message_accuracy(),
        );
    }

    /// Folds one trial, given only what the summary reads: the abort stage
    /// (`None` on delivery), the CHSH values of the DI-check rounds that
    /// estimated one, and the message accuracy of a delivered session.
    fn record_trial(
        &mut self,
        stage: Option<AbortStage>,
        chsh: [Option<f64>; 2],
        accuracy: Option<f64>,
    ) {
        self.summary.trials += 1;
        match stage {
            None => self.summary.delivered += 1,
            Some(AbortStage::DiCheck1) => self.summary.aborted_di_check1 += 1,
            Some(AbortStage::BobAuthentication) => self.summary.aborted_bob_auth += 1,
            Some(AbortStage::AliceAuthentication) => self.summary.aborted_alice_auth += 1,
            Some(AbortStage::DiCheck2) => self.summary.aborted_di_check2 += 1,
            Some(AbortStage::IntegrityCheck) => self.summary.aborted_integrity += 1,
        }
        if let Some(s) = chsh[0] {
            self.chsh1.push(s);
        }
        if let Some(s) = chsh[1] {
            self.chsh2.push(s);
        }
        if let Some(accuracy) = accuracy {
            self.accuracies.push(accuracy);
        }
    }

    /// Folds the partial accumulated by `other` onto this one, **in trial
    /// order**: `other` must hold the trials immediately following this
    /// builder's. Under that contract the merged builder is field-for-field
    /// and bit-for-bit identical to one that recorded every outcome serially
    /// — counts add, and the sample logs concatenate so the deferred mean
    /// sums run over the exact same sequence. Order bookkeeping (which trial
    /// range a partial covers, gaps, overlaps) is the job of
    /// [`ShardMerger`]; this method only
    /// performs the fold.
    pub fn merge(&mut self, other: TrialSummaryBuilder) {
        self.summary.trials += other.summary.trials;
        self.summary.delivered += other.summary.delivered;
        self.summary.aborted_di_check1 += other.summary.aborted_di_check1;
        self.summary.aborted_bob_auth += other.summary.aborted_bob_auth;
        self.summary.aborted_alice_auth += other.summary.aborted_alice_auth;
        self.summary.aborted_di_check2 += other.summary.aborted_di_check2;
        self.summary.aborted_integrity += other.summary.aborted_integrity;
        self.chsh1.append(other.chsh1);
        self.chsh2.append(other.chsh2);
        self.accuracies.append(other.accuracies);
    }

    /// Number of outcomes recorded so far (including merged partials).
    pub(crate) fn trials_recorded(&self) -> usize {
        self.summary.trials
    }

    /// Finalises the means and returns the summary.
    pub fn finish(mut self) -> TrialSummary {
        self.summary.mean_chsh_round1 = self.chsh1.mean();
        self.summary.mean_chsh_round2 = self.chsh2.mean();
        self.summary.mean_message_accuracy = self.accuracies.mean();
        self.summary
    }
}

pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ------------------------------------------------------------------- engine --

/// Executes [`Scenario`]s on a [`Backend`] with deterministic per-trial RNG
/// streams derived from a master seed.
///
/// The engine is `Send + Sync`; its [`Parallelism`] policy (default
/// [`Parallelism::Serial`]) controls whether trial loops fan out across
/// worker threads. Every policy yields bit-for-bit identical results.
#[derive(Debug, Clone)]
pub struct SessionEngine {
    master_seed: u64,
    /// `None` resolves the backend per scenario from its [`BackendKind`];
    /// `Some` is a fixed override for custom substrates.
    backend: Option<Arc<dyn Backend>>,
    parallelism: Parallelism,
}

impl Default for SessionEngine {
    fn default() -> Self {
        Self::new(0)
    }
}

impl SessionEngine {
    /// Creates an engine that runs serially and resolves the simulation
    /// substrate per scenario from its [`BackendKind`] (so a deserialized
    /// [`ShardPlan`] reproduces on the right substrate without any engine
    /// configuration).
    pub fn new(master_seed: u64) -> Self {
        Self {
            master_seed,
            backend: None,
            parallelism: Parallelism::Serial,
        }
    }

    /// Installs a fixed simulation backend, overriding every scenario's
    /// declared [`BackendKind`] — the escape hatch for custom substrates
    /// (sparse simulators, GPU batches, hardware adapters) that have no
    /// `BackendKind` name.
    ///
    /// Because fingerprints and shard metadata keep advertising the
    /// *scenario's* kind, do not combine a custom override with the shard
    /// pipeline: results produced under an override would carry another
    /// substrate's identity.
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The backend a given scenario's trials run on: the fixed override when
    /// one was installed, the scenario's [`BackendKind`] otherwise.
    fn backend_for<'a>(&'a self, scenario: &Scenario) -> &'a dyn Backend {
        match &self.backend {
            Some(fixed) => fixed.as_ref(),
            None => scenario.backend.backend(),
        }
    }

    /// Sets the execution policy: how many worker threads every entry point
    /// (`run_outcomes`, `run_trials`, `run_batch`, `execute_shard`) fans one
    /// scenario's trials across. Results are identical under every policy;
    /// only wall time changes.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The master seed every trial stream is derived from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The active backend's name: the fixed override's when one was installed
    /// via [`with_backend`](Self::with_backend), `"scenario-selected"`
    /// otherwise (each scenario's [`BackendKind`] then chooses the
    /// substrate).
    pub fn backend_name(&self) -> &str {
        match &self.backend {
            Some(fixed) => fixed.name(),
            None => "scenario-selected",
        }
    }

    /// Runs trial 0 of the scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on configuration misuse; protocol aborts
    /// are reported inside the [`SessionOutcome`].
    pub fn run(&self, scenario: &Scenario) -> Result<SessionOutcome, ProtocolError> {
        let mut outcomes = self.run_outcomes(scenario, 1)?;
        Ok(outcomes.pop().expect("a one-trial run yields one outcome"))
    }

    /// Runs trials `0..trials` of the scenario and returns every outcome —
    /// the per-outcome sibling of [`run_trials`](Self::run_trials), for
    /// callers that need more than the aggregate (e.g. transcripts). Each
    /// trial has its own RNG stream, so outcome `i` is the same whatever
    /// `trials` is, and trials fan out across workers under the engine's
    /// [`Parallelism`] policy.
    ///
    /// # Errors
    ///
    /// Propagates the first configuration error encountered.
    pub fn run_outcomes(
        &self,
        scenario: &Scenario,
        trials: usize,
    ) -> Result<Vec<SessionOutcome>, ProtocolError> {
        // The whole-run special case of the shard pipeline: same executor
        // stage as `execute_shard`, with the plan elided (the scenario is
        // borrowed and fingerprinted exactly once; the merge is the identity).
        let (payload, _) = self.execute_trials(
            scenario,
            scenario.fingerprint(),
            self.master_seed,
            0,
            trials,
            ShardOutput::Outcomes,
        )?;
        let ShardPayload::Outcomes(outcomes) = payload else {
            unreachable!("an Outcomes execution produces an Outcomes payload")
        };
        Ok(outcomes)
    }

    /// Runs `trials` sessions of the scenario and aggregates the outcomes.
    /// Trials fan out across workers under the engine's [`Parallelism`]
    /// policy; outcomes are folded in trial order, so the summary is
    /// bit-identical to a serial run.
    ///
    /// # Errors
    ///
    /// Propagates the first configuration error encountered.
    pub fn run_trials(
        &self,
        scenario: &Scenario,
        trials: usize,
    ) -> Result<TrialSummary, ProtocolError> {
        self.run_trials_with_stats(scenario, trials)
            .map(|(summary, _)| summary)
    }

    /// [`run_trials`](Self::run_trials) plus the [`ExecutorStats`] of the
    /// fan-out.
    ///
    /// # Errors
    ///
    /// Propagates the first configuration error encountered.
    pub fn run_trials_with_stats(
        &self,
        scenario: &Scenario,
        trials: usize,
    ) -> Result<(TrialSummary, ExecutorStats), ProtocolError> {
        // The whole-run special case of the shard pipeline with a summary
        // payload: task order, fold order and error semantics are exactly
        // those of the sharded path, so a single-machine summary is
        // byte-identical to any merged multi-shard execution of the same run.
        let (payload, stats) = self.execute_trials(
            scenario,
            scenario.fingerprint(),
            self.master_seed,
            0,
            trials,
            ShardOutput::Summary,
        )?;
        let ShardPayload::Summary(builder) = payload else {
            unreachable!("a Summary execution produces a Summary payload")
        };
        Ok((builder.finish(), stats))
    }

    /// Runs `trials` sessions of every scenario, one scenario after another,
    /// and returns one summary per scenario, in order. Each summary is
    /// exactly [`run_trials`](Self::run_trials) on its scenario, so results
    /// do not depend on batch composition, order, or the engine's
    /// [`Parallelism`] policy.
    ///
    /// # Errors
    ///
    /// Propagates the first configuration error encountered, in scenario
    /// order.
    pub fn run_batch(
        &self,
        scenarios: &[Scenario],
        trials: usize,
    ) -> Result<Vec<TrialSummary>, ProtocolError> {
        scenarios
            .iter()
            .map(|scenario| self.run_trials(scenario, trials))
            .collect()
    }
}

// -------------------------------------------------- six-phase session body --

/// Where the session body records what it learns: the one seam between the
/// six phases and what a run keeps of them. The body calls it for each
/// public message, each DI-check round, each authentication check and once
/// at the end; messages and abort strings arrive as closures, built only by
/// a sink that keeps them.
pub(crate) trait SessionSink {
    /// `sender` publishes `message` on the classical channel.
    fn announce(&mut self, sender: Party, message: impl FnOnce() -> ClassicalMessage);
    /// A DI-check round finished with `report`.
    fn di_check(&mut self, report: &DiCheckReport);
    /// The check of `verified`'s identity finished with `tally`.
    fn auth(&mut self, verified: Party, tally: &AuthTally);
    /// The session ended.
    fn end(&mut self, end: SessionEnd<'_>);
}

/// How a session ended, as handed to [`SessionSink::end`].
pub(crate) enum SessionEnd<'a> {
    /// The protocol aborted at `stage`.
    Aborted {
        stage: AbortStage,
        /// Set when decoding ran (an integrity-check abort).
        check_bit_error_rate: Option<f64>,
        /// The status reason.
        reason: &'a dyn Fn() -> String,
    },
    /// Bob accepted the message.
    Delivered {
        check_bit_error_rate: f64,
        message_bit_error_rate: f64,
        /// The message Bob decoded.
        received: &'a dyn Fn() -> SecretMessage,
    },
}

/// The Outcomes-mode sink: builds the full [`SessionOutcome`], transcript
/// included.
pub(crate) struct OutcomeSink {
    outcome: SessionOutcome,
}

impl OutcomeSink {
    /// A sink for a session sending `sent_message` with the planned
    /// `resources`.
    pub(crate) fn new(sent_message: SecretMessage, resources: ResourceUsage) -> Self {
        Self {
            outcome: SessionOutcome {
                status: SessionStatus::Delivered,
                di_check_round1: None,
                di_check_round2: None,
                bob_auth: None,
                alice_auth: None,
                sent_message,
                received_message: None,
                check_bit_error_rate: None,
                message_bit_error_rate: None,
                transcript: Transcript::new(),
                resources,
            },
        }
    }

    /// The finished outcome, its classical message count taken from the
    /// transcript.
    pub(crate) fn finish(mut self) -> SessionOutcome {
        self.outcome.resources.classical_messages = self.outcome.transcript.len();
        self.outcome
    }
}

impl SessionSink for OutcomeSink {
    fn announce(&mut self, sender: Party, message: impl FnOnce() -> ClassicalMessage) {
        self.outcome.transcript.push(sender, message());
    }

    fn di_check(&mut self, report: &DiCheckReport) {
        let slot = match report.round {
            DiCheckRound::First => &mut self.outcome.di_check_round1,
            DiCheckRound::Second => &mut self.outcome.di_check_round2,
        };
        *slot = Some(report.clone());
    }

    fn auth(&mut self, verified: Party, tally: &AuthTally) {
        let slot = match verified {
            Party::Bob => &mut self.outcome.bob_auth,
            Party::Alice => &mut self.outcome.alice_auth,
        };
        *slot = Some(tally.report());
    }

    fn end(&mut self, end: SessionEnd<'_>) {
        let outcome = &mut self.outcome;
        match end {
            SessionEnd::Aborted {
                stage,
                check_bit_error_rate,
                reason,
            } => {
                outcome.status = SessionStatus::Aborted {
                    stage,
                    reason: reason(),
                };
                outcome.check_bit_error_rate = check_bit_error_rate;
            }
            SessionEnd::Delivered {
                check_bit_error_rate,
                message_bit_error_rate,
                received,
            } => {
                outcome.check_bit_error_rate = Some(check_bit_error_rate);
                outcome.message_bit_error_rate = Some(message_bit_error_rate);
                outcome.received_message = Some(received());
            }
        }
    }
}

/// The Summary-mode sink: records the trial straight into a summary
/// partial. It builds no message, string or outcome.
pub(crate) struct SummarySink<'a> {
    builder: &'a mut TrialSummaryBuilder,
    chsh: [Option<f64>; 2],
}

impl<'a> SummarySink<'a> {
    /// A sink recording one trial into `builder`.
    pub(crate) fn new(builder: &'a mut TrialSummaryBuilder) -> Self {
        Self {
            builder,
            chsh: [None; 2],
        }
    }
}

impl SessionSink for SummarySink<'_> {
    fn announce(&mut self, _: Party, _: impl FnOnce() -> ClassicalMessage) {}

    fn di_check(&mut self, report: &DiCheckReport) {
        let round = match report.round {
            DiCheckRound::First => 0,
            DiCheckRound::Second => 1,
        };
        self.chsh[round] = report.chsh;
    }

    fn auth(&mut self, _: Party, _: &AuthTally) {}

    fn end(&mut self, end: SessionEnd<'_>) {
        let (stage, accuracy) = match end {
            SessionEnd::Aborted { stage, .. } => (Some(stage), None),
            SessionEnd::Delivered {
                message_bit_error_rate,
                ..
            } => (None, Some(1.0 - message_bit_error_rate)),
        };
        self.builder.record_trial(stage, self.chsh, accuracy);
    }
}

/// The per-thread scratch one session body works in: the pair store plus
/// every per-trial buffer. Each session overwrites them in place (pairs via
/// [`Backend::emit_pair_into`]), so a warm thread's trial loop allocates
/// nothing for them.
struct SessionScratch {
    pairs: Vec<EprPair>,
    positions: Vec<usize>,
    paulis: Vec<Pauli>,
    covers: Vec<Pauli>,
    bell_results: Vec<BellState>,
    records: Vec<MeasurementRecord>,
    received_bits: Vec<bool>,
    padded: PaddedMessage,
    slots: Vec<usize>,
}

impl SessionScratch {
    const fn new() -> Self {
        Self {
            pairs: Vec::new(),
            positions: Vec::new(),
            paulis: Vec::new(),
            covers: Vec::new(),
            bell_results: Vec::new(),
            records: Vec::new(),
            received_bits: Vec::new(),
            padded: PaddedMessage::empty(),
            slots: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<SessionScratch> =
        const { std::cell::RefCell::new(SessionScratch::new()) };
}

/// One session's fixed inputs: the substrate, the DI-check outcome tables
/// of the precompiled noise program, which also hold that program (both
/// built once per scenario by the caller, shared across trials), and the
/// scenario data the six phases read.
pub(crate) struct Session<'a> {
    pub(crate) backend: &'a dyn Backend,
    pub(crate) tables: &'a CheckTables<'a>,
    pub(crate) config: &'a SessionConfig,
    pub(crate) identities: &'a IdentityPair,
    pub(crate) message: &'a SecretMessage,
    pub(crate) impersonation: Impersonation,
}

impl Session<'_> {
    /// Runs one complete UA-DI-QSDC session through all six phases of the
    /// paper, recording into `sink`. The scratch buffers come from (and
    /// return to) the thread's pool.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on configuration misuse; protocol aborts
    /// are reported to the sink.
    pub(crate) fn run<R: Rng>(
        &self,
        tap: &mut dyn ChannelTap,
        rng: &mut R,
        sink: &mut impl SessionSink,
    ) -> Result<(), ProtocolError> {
        SCRATCH.with(|cell| {
            let mut scratch = std::mem::replace(&mut *cell.borrow_mut(), SessionScratch::new());
            let result = self.run_in(&mut scratch, tap, rng, sink);
            *cell.borrow_mut() = scratch;
            result
        })
    }

    fn run_in<R: Rng>(
        &self,
        scratch: &mut SessionScratch,
        tap: &mut dyn ChannelTap,
        rng: &mut R,
        sink: &mut impl SessionSink,
    ) -> Result<(), ProtocolError> {
        let Session {
            backend,
            tables,
            config,
            identities,
            message,
            impersonation,
        } = *self;
        let channel = tables.program();
        let SessionScratch {
            pairs,
            positions: all_positions,
            paulis,
            covers,
            bell_results,
            records,
            received_bits,
            padded,
            slots,
        } = scratch;
        if message.len() != config.message_bits() {
            return Err(ProtocolError::MessageLengthMismatch {
                expected: config.message_bits(),
                actual: message.len(),
            });
        }

        let l = identities.qubit_len();
        let d = config.di_check_pairs();
        padded.embed_into(message, config.check_bits(), rng, slots)?;
        let n_qubits = padded.qubit_len();
        let total_pairs = n_qubits + 2 * l + 2 * d;

        // -------------------------------------------------------------- phase 1: sharing --
        // The pooled pairs are overwritten in place; only a cold pool (first
        // trial on this thread, or a larger scenario) grows the store.
        if pairs.len() < total_pairs {
            pairs.resize_with(total_pairs, EprPair::ideal);
        } else {
            pairs.truncate(total_pairs);
        }
        for pair in pairs.iter_mut() {
            backend.emit_pair_into(pair, channel, tap, rng);
        }

        // --------------------------------------------------- phase 2: DI check round one --
        all_positions.clear();
        all_positions.extend(0..total_pairs);
        all_positions.shuffle(rng);
        let check1_positions = &all_positions[..d];
        sink.announce(Party::Alice, || ClassicalMessage::Positions {
            purpose: "di-check-1".into(),
            positions: check1_positions.to_vec(),
        });
        // The positions are a permutation's prefix, so they are distinct.
        let report1 = run_di_check_into(
            DiCheckRound::First,
            pairs,
            check1_positions,
            tables,
            config.chsh_abort_threshold(),
            rng,
            records,
        );
        sink.announce(Party::Alice, || ClassicalMessage::BasisChoices {
            round: 1,
            settings: records
                .iter()
                .map(|r| (r.alice_setting, r.bob_setting))
                .collect(),
        });
        sink.announce(Party::Bob, || ClassicalMessage::CheckOutcomes {
            round: 1,
            outcomes: records
                .iter()
                .map(|r| (r.alice_outcome.to_bit(), r.bob_outcome.to_bit()))
                .collect(),
        });
        sink.di_check(&report1);
        if !report1.passed {
            abort(
                sink,
                Party::Alice,
                || format!("first DI check failed: {report1}"),
                AbortStage::DiCheck1,
                None,
                &|| report1.to_string(),
            );
            return Ok(());
        }

        // ------------------------------------------------------- phase 3: Alice encoding --
        all_positions[d..].shuffle(rng);
        let rest = &all_positions[d..];
        let check2_positions = &rest[..d];
        let ma_positions = &rest[d..d + n_qubits];
        let ca_positions = &rest[d + n_qubits..d + n_qubits + l];
        let da_positions = &rest[d + n_qubits + l..d + n_qubits + 2 * l];

        for (pauli, &pos) in padded.paulis().zip(ma_positions) {
            pairs[pos].apply_alice_pauli(pauli);
        }
        // id_A encoding — Eve-as-Alice must guess.
        identity_paulis(
            paulis,
            &identities.alice,
            l,
            impersonation == Impersonation::OfAlice,
            rng,
        );
        for (pauli, &pos) in paulis.iter().zip(ca_positions) {
            pairs[pos].apply_alice_pauli(*pauli);
        }
        // Cover operations on D_A.
        covers.clear();
        covers.extend((0..l).map(|_| Pauli::random(rng)));
        for (cover, &pos) in covers.iter().zip(da_positions) {
            pairs[pos].apply_alice_pauli(*cover);
        }

        // --------------------------------------------------------- phase 4: transmission --
        // Alice sends every qubit she still holds (check-2, message, identity and cover blocks).
        for &pos in rest {
            backend.transmit(channel, &mut pairs[pos], tap, rng);
        }

        // ------------------------------------------------------ phase 4b: authentication --
        sink.announce(Party::Alice, || ClassicalMessage::Positions {
            purpose: "DA".into(),
            positions: da_positions.to_vec(),
        });
        // Bob encodes id_B on the partner qubits and announces the Bell results.
        identity_paulis(
            paulis,
            &identities.bob,
            l,
            impersonation == Impersonation::OfBob,
            rng,
        );
        bell_results.clear();
        for (pauli, &pos) in paulis.iter().zip(da_positions) {
            pairs[pos].apply_bob_pauli(*pauli);
            bell_results.push(pairs[pos].bell_measure(rng).state);
        }
        sink.announce(Party::Bob, || ClassicalMessage::BellResults {
            block: "DB-auth".into(),
            results: bell_results
                .iter()
                .map(|s| s.encoding_pauli().to_index())
                .collect(),
        });
        // Alice (the real one) verifies Bob. When Eve impersonates Alice she has no id_B to
        // check against and simply continues, so the abort decision is skipped in that case.
        let bob = auth::tally_bob(
            bell_results,
            covers,
            &identities.bob,
            config.auth_error_tolerance(),
        );
        sink.auth(Party::Bob, &bob);
        if impersonation != Impersonation::OfAlice && !bob.passed() {
            abort(
                sink,
                Party::Alice,
                || format!("Bob authentication failed: {}", bob.report()),
                AbortStage::BobAuthentication,
                None,
                &|| bob.report().to_string(),
            );
            return Ok(());
        }

        // Alice reveals C_A; Bob verifies id_A. The Bell results are *not* announced.
        sink.announce(Party::Alice, || ClassicalMessage::Positions {
            purpose: "CA".into(),
            positions: ca_positions.to_vec(),
        });
        bell_results.clear();
        for &pos in ca_positions {
            bell_results.push(pairs[pos].bell_measure(rng).state);
        }
        let alice = auth::tally_alice(
            bell_results,
            &identities.alice,
            config.auth_error_tolerance(),
        );
        sink.auth(Party::Alice, &alice);
        if impersonation != Impersonation::OfBob && !alice.passed() {
            abort(
                sink,
                Party::Bob,
                || format!("Alice authentication failed: {}", alice.report()),
                AbortStage::AliceAuthentication,
                None,
                &|| alice.report().to_string(),
            );
            return Ok(());
        }
        sink.announce(Party::Bob, || ClassicalMessage::Ack {
            phase: "authentication".into(),
        });

        // --------------------------------------------------- phase 5: DI check round two --
        sink.announce(Party::Alice, || ClassicalMessage::Positions {
            purpose: "di-check-2".into(),
            positions: check2_positions.to_vec(),
        });
        let report2 = run_di_check_into(
            DiCheckRound::Second,
            pairs,
            check2_positions,
            tables,
            config.chsh_abort_threshold(),
            rng,
            records,
        );
        sink.announce(Party::Bob, || ClassicalMessage::Ack {
            phase: "di-check-2".into(),
        });
        sink.di_check(&report2);
        if !report2.passed {
            abort(
                sink,
                Party::Bob,
                || format!("second DI check failed: {report2}"),
                AbortStage::DiCheck2,
                None,
                &|| report2.to_string(),
            );
            return Ok(());
        }

        // -------------------------------------------------------------- phase 6: decode --
        received_bits.clear();
        for &pos in ma_positions {
            let (msb, lsb) = pairs[pos]
                .bell_measure(rng)
                .state
                .encoding_pauli()
                .to_bits();
            received_bits.extend([msb, lsb]);
        }
        sink.announce(Party::Alice, || ClassicalMessage::CheckBitsReveal {
            positions: padded.check_positions().to_vec(),
            values: padded.check_values().to_vec(),
        });
        let check_error = padded.check_bit_error_rate(received_bits);
        if check_error > config.check_bit_error_tolerance() {
            abort(
                sink,
                Party::Bob,
                || format!("check-bit error rate {check_error:.3} exceeds tolerance"),
                AbortStage::IntegrityCheck,
                Some(check_error),
                &|| format!("check-bit error rate {check_error:.3}"),
            );
            return Ok(());
        }
        sink.announce(Party::Bob, || ClassicalMessage::Ack {
            phase: "message-received".into(),
        });
        sink.end(SessionEnd::Delivered {
            check_bit_error_rate: check_error,
            message_bit_error_rate: padded.message_bit_error_rate(received_bits, message),
            received: &|| padded.extract_message(received_bits),
        });
        Ok(())
    }
}

/// Fills `out` with the `l` Paulis encoding `identity`, or with `l` random
/// guesses when an impersonator who does not know it encodes instead.
fn identity_paulis<R: Rng>(
    out: &mut Vec<Pauli>,
    identity: &IdentityString,
    l: usize,
    guessed: bool,
    rng: &mut R,
) {
    out.clear();
    if guessed {
        out.extend((0..l).map(|_| Pauli::random(rng)));
    } else {
        out.extend(identity.paulis());
    }
}

/// Announces an abort (`announcement` is what `sender` says publicly) and
/// ends the session at `stage`.
fn abort(
    sink: &mut impl SessionSink,
    sender: Party,
    announcement: impl FnOnce() -> String,
    stage: AbortStage,
    check_bit_error_rate: Option<f64>,
    reason: &dyn Fn() -> String,
) {
    sink.announce(sender, || ClassicalMessage::Abort {
        reason: announcement(),
    });
    sink.end(SessionEnd::Aborted {
        stage,
        check_bit_error_rate,
        reason,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use noise::DeviceModel;
    use qchannel::quantum::ChannelSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn small_config() -> SessionConfig {
        SessionConfig::builder()
            .message_bits(16)
            .check_bits(4)
            .di_check_pairs(220)
            .build()
            .unwrap()
    }

    fn small_scenario(seed: u64) -> Scenario {
        let identities = IdentityPair::generate(5, &mut rng(seed));
        Scenario::new(small_config(), identities)
    }

    #[test]
    fn honest_scenario_delivers_the_exact_message() {
        let message = SecretMessage::from_bitstring("1010011100101101").unwrap();
        let scenario = small_scenario(11).with_message(message.clone());
        let outcome = SessionEngine::new(1).run(&scenario).unwrap();
        assert!(outcome.is_delivered(), "{}", outcome.status);
        assert_eq!(outcome.received_message.as_ref().unwrap(), &message);
        assert_eq!(outcome.message_bit_error_rate, Some(0.0));
        assert_eq!(outcome.check_bit_error_rate, Some(0.0));
        assert_eq!(outcome.message_accuracy(), Some(1.0));
        assert!(outcome.di_check_round1.as_ref().unwrap().passed);
        assert!(outcome.di_check_round2.as_ref().unwrap().passed);
        assert!(outcome.bob_auth.as_ref().unwrap().passed());
        assert!(outcome.alice_auth.as_ref().unwrap().passed());
        assert!(!outcome.transcript.contains_abort());
        assert!(outcome.resources.classical_messages > 5);
        assert_eq!(
            outcome.resources.total_pairs,
            scenario.config.total_pairs(scenario.identities.qubit_len())
        );
    }

    #[test]
    fn random_message_scenario_delivers() {
        let outcome = SessionEngine::new(23).run(&small_scenario(23)).unwrap();
        assert!(outcome.is_delivered());
        assert_eq!(
            outcome.sent_message.bits(),
            outcome.received_message.as_ref().unwrap().bits()
        );
    }

    #[test]
    fn short_noisy_channel_still_delivers_with_high_accuracy() {
        let identities = IdentityPair::generate(5, &mut rng(37));
        let config = SessionConfig::builder()
            .message_bits(24)
            .check_bits(8)
            .di_check_pairs(220)
            .channel(ChannelSpec::noisy_identity_chain(
                10,
                DeviceModel::ibm_brisbane_like(),
            ))
            .build()
            .unwrap();
        let scenario = Scenario::new(config, identities);
        let outcome = SessionEngine::new(37).run(&scenario).unwrap();
        assert!(outcome.is_delivered(), "{}", outcome.status);
        assert!(outcome.message_accuracy().unwrap() > 0.85);
        let s2 = outcome.di_check_round2.unwrap().chsh.unwrap();
        assert!(s2 > 2.0, "noisy but honest channel keeps S2 > 2, got {s2}");
    }

    #[test]
    fn message_length_mismatch_is_an_error() {
        let scenario =
            small_scenario(5).with_message(SecretMessage::from_bitstring("101").unwrap());
        let err = SessionEngine::new(5).run(&scenario);
        assert!(matches!(
            err,
            Err(ProtocolError::MessageLengthMismatch {
                expected: 16,
                actual: 3
            })
        ));
    }

    #[test]
    fn impersonating_bob_is_caught_by_alice() {
        let identities = IdentityPair::generate(8, &mut rng(71));
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(64)
            .auth_error_tolerance(0.0)
            .build()
            .unwrap();
        let scenario = Scenario::new(config, identities).with_adversary(Adversary::ImpersonateBob);
        let outcome = SessionEngine::new(71).run(&scenario).unwrap();
        assert!(
            outcome.aborted_at(AbortStage::BobAuthentication),
            "{}",
            outcome.status
        );
        assert!(outcome.transcript.contains_abort());
        assert!(outcome.received_message.is_none());
    }

    #[test]
    fn impersonating_alice_is_caught_by_bob() {
        let identities = IdentityPair::generate(8, &mut rng(72));
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(64)
            .auth_error_tolerance(0.0)
            .build()
            .unwrap();
        let scenario =
            Scenario::new(config, identities).with_adversary(Adversary::ImpersonateAlice);
        let outcome = SessionEngine::new(72).run(&scenario).unwrap();
        assert!(
            outcome.aborted_at(AbortStage::AliceAuthentication),
            "{}",
            outcome.status
        );
        assert!(outcome.received_message.is_none());
    }

    #[test]
    fn every_session_exit_counts_its_transcript() {
        // Every exit, abort or delivery, must count the messages it
        // published, and only an abort ends on an `abort` announcement. At
        // every exit the Summary-mode fold of the trial must equal recording
        // its Outcomes-mode outcome.
        let identities = IdentityPair::generate(4, &mut rng(17));
        let config = |auth_error_tolerance, chsh_abort_threshold, channel| {
            SessionConfig::builder()
                .message_bits(8)
                .check_bits(4)
                .di_check_pairs(64)
                .auth_error_tolerance(auth_error_tolerance)
                .chsh_abort_threshold(chsh_abort_threshold)
                .channel(channel)
                .build()
                .unwrap()
        };
        let strict = Scenario::new(config(0.0, 2.0, ChannelSpec::ideal()), identities.clone());
        // A noisy channel decoheres Alice's qubit in flight: mild enough for
        // the first check to pass, strong enough to reach the later checks.
        let noisy = ChannelSpec::noisy_identity_chain(100, DeviceModel::ibm_brisbane_like());
        let scenarios = [
            strict.clone(),
            // No estimate exceeds the algebraic maximum 4 (above Tsirelson's
            // 2√2), so the first DI check always aborts.
            Scenario::new(config(0.0, 4.0, ChannelSpec::ideal()), identities.clone()),
            strict.clone().with_adversary(Adversary::ImpersonateBob),
            strict.with_adversary(Adversary::ImpersonateAlice),
            Scenario::new(config(1.0, 2.0, noisy), identities),
        ];
        let mut exits = Vec::new();
        let engine = SessionEngine::new(17);
        for scenario in &scenarios {
            let plan = engine.plan(scenario, 16);
            let outcomes = engine.run_outcomes(scenario, 16).unwrap();
            for (trial, outcome) in outcomes.into_iter().enumerate() {
                let mut recorded =
                    TrialSummaryBuilder::new(scenario.label.clone(), scenario.adversary.name());
                recorded.record(&outcome);
                let folded = engine
                    .execute_shard(&plan.subrange(trial, 1), ShardOutput::Summary)
                    .unwrap()
                    .payload;
                assert_eq!(folded, ShardPayload::Summary(recorded), "{outcome}");
                assert_eq!(
                    outcome.resources.classical_messages,
                    outcome.transcript.len(),
                    "{outcome}"
                );
                let last = outcome.transcript.iter().last().unwrap();
                assert_eq!(
                    last.message.kind() == "abort",
                    !outcome.is_delivered(),
                    "{outcome}"
                );
                let exit = match outcome.status {
                    SessionStatus::Delivered => None,
                    SessionStatus::Aborted { stage, .. } => Some(stage),
                };
                if !exits.contains(&exit) {
                    exits.push(exit);
                }
            }
        }
        for exit in [
            None,
            Some(AbortStage::DiCheck1),
            Some(AbortStage::BobAuthentication),
            Some(AbortStage::AliceAuthentication),
            Some(AbortStage::DiCheck2),
            Some(AbortStage::IntegrityCheck),
        ] {
            assert!(exits.contains(&exit), "{exit:?} not reached: {exits:?}");
        }
    }

    #[test]
    fn builtin_channel_adversaries_are_detected() {
        let identities = IdentityPair::generate(4, &mut rng(41));
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(220)
            .auth_error_tolerance(1.0)
            .build()
            .unwrap();
        let engine = SessionEngine::new(41);
        for adversary in [
            Adversary::InterceptResend(InterceptBasis::Computational),
            Adversary::ManInTheMiddle(SubstituteState::RandomComputational),
            Adversary::EntangleMeasure { strength: 1.0 },
        ] {
            let scenario = Scenario::new(config.clone(), identities.clone())
                .with_label(adversary.name())
                .with_adversary(adversary.clone());
            let summary = engine.run_trials(&scenario, 3).unwrap();
            assert_eq!(summary.delivered, 0, "{summary}");
            assert!(summary.detection_rate() > 0.99, "{summary}");
            // Round 1 runs before transmission, so it passes: the attack is
            // caught later.
            assert_eq!(summary.aborted_di_check1, 0, "{summary}");
        }
    }

    #[test]
    fn transcript_never_contains_message_or_alice_identity_results() {
        let outcome = SessionEngine::new(123).run(&small_scenario(123)).unwrap();
        // The only Bell results on the wire are the covered DB-auth block.
        let bell_msgs = outcome.transcript.messages_of_kind("bell-results");
        assert_eq!(bell_msgs.len(), 1);
        // No transcript message kind carries message bits; the decoded message only lives in
        // the outcome struct (Bob's private memory).
        for entry in outcome.transcript.iter() {
            assert_ne!(entry.message.kind(), "message");
        }
    }

    #[test]
    fn identical_engines_replay_identical_outcomes() {
        let scenario = small_scenario(7);
        let a = &SessionEngine::new(2024).run_outcomes(&scenario, 4).unwrap()[3];
        let b = &SessionEngine::new(2024).run_outcomes(&scenario, 4).unwrap()[3];
        assert_eq!(a, b);
        let c = &SessionEngine::new(2025).run_outcomes(&scenario, 4).unwrap()[3];
        assert_ne!(
            a.sent_message, c.sent_message,
            "different master seeds diverge"
        );
    }

    #[test]
    fn trial_streams_are_independent_of_batch_composition() {
        let honest = small_scenario(301).with_label("honest");
        let attacked = small_scenario(302)
            .with_label("intercept")
            .with_adversary(Adversary::InterceptResend(InterceptBasis::Computational));
        let engine = SessionEngine::new(9);
        let alone = engine.run_trials(&attacked, 2).unwrap();
        let batch = engine
            .run_batch(&[honest.clone(), attacked.clone()], 2)
            .unwrap();
        assert_eq!(batch[1], alone, "batch membership must not change results");
        let reordered = engine.run_batch(&[attacked, honest], 2).unwrap();
        assert_eq!(reordered[0], alone, "batch order must not change results");
    }

    #[test]
    fn trial_summary_accounting_is_consistent() {
        let scenario = small_scenario(88)
            .with_adversary(Adversary::ImpersonateBob)
            .with_label("imp-bob");
        let summary = SessionEngine::new(88).run_trials(&scenario, 5).unwrap();
        assert_eq!(summary.trials, 5);
        assert_eq!(summary.adversary, "impersonate-bob");
        assert_eq!(
            summary.delivered + summary.total_aborts(),
            5,
            "every trial either delivers or aborts: {summary}"
        );
        assert_eq!(
            summary.aborted_at(AbortStage::BobAuthentication),
            summary.aborted_bob_auth
        );
        assert!(summary.to_string().contains("imp-bob"));
    }

    #[test]
    fn relabelling_a_scenario_does_not_change_results() {
        let base = small_scenario(61).with_label("before");
        let renamed = base.clone().with_label("after-rename");
        assert_eq!(
            base.fingerprint(),
            renamed.fingerprint(),
            "labels are display-only and must not affect the RNG stream"
        );
        let engine = SessionEngine::new(61);
        let a = engine.run(&base).unwrap();
        let b = engine.run(&renamed).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_entangle_strength_is_an_error_not_a_panic() {
        let scenario =
            small_scenario(62).with_adversary(Adversary::EntangleMeasure { strength: 1.5 });
        let err = SessionEngine::new(62).run(&scenario);
        assert!(
            matches!(err, Err(ProtocolError::InvalidConfig(_))),
            "{err:?}"
        );
        // The same guard applies at the serde boundary.
        let json = r#"{"EntangleMeasure":{"strength":1.5}}"#;
        assert!(serde::json::from_str::<Adversary>(json).is_err());
    }

    #[test]
    fn impersonation_mapping_round_trips() {
        for target in [
            Impersonation::None,
            Impersonation::OfAlice,
            Impersonation::OfBob,
        ] {
            let adversary = Adversary::from_impersonation(target);
            assert_eq!(adversary.impersonation(), target);
        }
        assert_eq!(
            Adversary::ImpersonateBob.detection_stage(),
            Some(AbortStage::BobAuthentication)
        );
        assert_eq!(
            Adversary::ImpersonateAlice.detection_stage(),
            Some(AbortStage::AliceAuthentication)
        );
        assert_eq!(Adversary::Honest.detection_stage(), None);
    }

    #[test]
    fn adversary_serde_round_trips() {
        for adversary in [
            Adversary::Honest,
            Adversary::ImpersonateAlice,
            Adversary::ImpersonateBob,
            Adversary::InterceptResend(InterceptBasis::Equatorial(0.4)),
            Adversary::ManInTheMiddle(SubstituteState::RandomBb84),
            Adversary::EntangleMeasure { strength: 0.25 },
        ] {
            let json = serde::json::to_string(&adversary);
            let back: Adversary = serde::json::from_str(&json).unwrap();
            assert_eq!(back, adversary, "via {json}");
        }
        // Circuit campaigns are plain data too, fingerprint included.
        let device = CircuitDevice::IbmBrisbaneLike;
        for (experiment, axis) in [
            (
                CircuitExperiment::Fig2Histogram { device, eta: 10 },
                Axis::Message(vec!["00".into(), "11".into()]),
            ),
            (
                CircuitExperiment::Fig3Accuracy { device },
                Axis::Eta(vec![10, 700]),
            ),
        ] {
            let campaign = Campaign {
                label: "round-trip".into(),
                master_seed: 5,
                trials: 8,
                workload: CampaignWorkload::Sampled(experiment),
                space: CampaignSpace::Grid(vec![axis]),
            };
            let json = serde::json::to_string(&campaign);
            let back: Campaign = serde::json::from_str(&json).unwrap();
            assert_eq!(back, campaign, "via {json}");
            assert_eq!(back.fingerprint(), campaign.fingerprint(), "via {json}");
            assert_eq!(serde::json::to_string(&back), json);
        }
    }

    #[test]
    fn every_parallelism_mode_replays_the_serial_results() {
        let scenarios = [
            small_scenario(501).with_label("honest"),
            small_scenario(502)
                .with_label("intercept")
                .with_adversary(Adversary::InterceptResend(InterceptBasis::Computational)),
            small_scenario(503)
                .with_label("imp-bob")
                .with_adversary(Adversary::ImpersonateBob),
        ];
        // The intercept tap is stateful (it counts what it intercepted): each
        // session builds a fresh one inside the worker that runs the trial.
        let serial_engine = SessionEngine::new(2025);
        let serial_outcomes = serial_engine.run_outcomes(&scenarios[0], 4).unwrap();
        let serial_batch = serial_engine.run_batch(&scenarios, 3).unwrap();
        assert_eq!(
            serial_batch[1].delivered, 0,
            "intercepting everything must abort"
        );
        for parallelism in [
            Parallelism::Threads(2),
            Parallelism::Threads(8),
            Parallelism::Auto,
        ] {
            let engine = SessionEngine::new(2025).with_parallelism(parallelism);
            assert_eq!(
                engine.run_outcomes(&scenarios[0], 4).unwrap(),
                serial_outcomes,
                "{parallelism}"
            );
            assert_eq!(
                engine.run_batch(&scenarios, 3).unwrap(),
                serial_batch,
                "{parallelism}"
            );
        }
    }

    #[test]
    fn interleaved_programs_on_one_thread_replay_separate_runs() {
        // Two noisy channels with different exact states and pool sizes,
        // run in turn on one thread that keeps its pair pool: each run
        // replays its separate run. (That a pair another program tagged is
        // never read through these tables is `di_check`'s unit tests' job:
        // emission re-tags every pooled pair before a check reads it.)
        let scenario = |eta: usize, d: usize, seed: u64| {
            let config = SessionConfig::builder()
                .message_bits(8)
                .check_bits(2)
                .di_check_pairs(d)
                .channel(ChannelSpec::noisy_identity_chain(
                    eta,
                    DeviceModel::ibm_brisbane_like(),
                ))
                .build()
                .unwrap();
            Scenario::new(config, IdentityPair::generate(4, &mut rng(seed)))
        };
        let (a, b) = (scenario(3, 220, 61), scenario(9, 150, 62));
        let engine = SessionEngine::new(61).with_parallelism(Parallelism::Serial);
        // Each separate run on a thread whose pair pool starts empty.
        let alone = |s: &Scenario| {
            std::thread::scope(|t| {
                t.spawn(|| engine.run_outcomes(s, 3).unwrap())
                    .join()
                    .unwrap()
            })
        };
        let (alone_a, alone_b) = (alone(&a), alone(&b));
        for _ in 0..2 {
            assert_eq!(engine.run_outcomes(&a, 3).unwrap(), alone_a);
            assert_eq!(engine.run_outcomes(&b, 3).unwrap(), alone_b);
        }
    }

    #[test]
    fn executor_stats_account_for_every_trial() {
        let scenario = small_scenario(77);
        let engine = SessionEngine::new(77).with_parallelism(Parallelism::Threads(3));
        let (summary, stats) = engine.run_trials_with_stats(&scenario, 7).unwrap();
        assert_eq!(summary.trials, 7);
        assert_eq!(stats.tasks, 7);
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 7);
        assert!(stats.workers <= 3);
        assert!(stats.wall_time > std::time::Duration::ZERO);
    }

    #[test]
    fn parallel_error_reporting_matches_serial() {
        let scenario =
            small_scenario(31).with_adversary(Adversary::EntangleMeasure { strength: 7.0 });
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let engine = SessionEngine::new(31).with_parallelism(parallelism);
            assert!(matches!(
                engine.run_trials(&scenario, 3),
                Err(ProtocolError::InvalidConfig(_))
            ));
            assert!(matches!(
                engine.run_batch(std::slice::from_ref(&scenario), 2),
                Err(ProtocolError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn zero_trials_and_empty_batches_work_under_parallelism() {
        let scenario = small_scenario(8);
        for parallelism in [Parallelism::Serial, Parallelism::Threads(8)] {
            let engine = SessionEngine::new(8).with_parallelism(parallelism);
            let summary = engine.run_trials(&scenario, 0).unwrap();
            assert_eq!(summary.trials, 0);
            assert_eq!(summary.detection_rate(), 0.0);
            assert!(engine.run_batch(&[], 5).unwrap().is_empty());
            let batch = engine
                .run_batch(std::slice::from_ref(&scenario), 0)
                .unwrap();
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].trials, 0);
        }
    }

    #[test]
    fn statevector_backend_delivers_and_replays() {
        let identities = IdentityPair::generate(5, &mut rng(43));
        let config = SessionConfig::builder()
            .message_bits(24)
            .check_bits(8)
            .di_check_pairs(220)
            .channel(ChannelSpec::noisy_identity_chain(
                10,
                DeviceModel::ibm_brisbane_like(),
            ))
            .build()
            .unwrap();
        let scenario = Scenario::new(config, identities).with_backend(BackendKind::Statevector);
        let outcome = SessionEngine::new(43).run(&scenario).unwrap();
        assert!(outcome.is_delivered(), "{}", outcome.status);
        assert!(
            outcome.message_accuracy().unwrap() > 0.8,
            "sampled trajectories keep a short channel usable, got {:?}",
            outcome.message_accuracy()
        );
        let s2 = outcome.di_check_round2.as_ref().unwrap().chsh.unwrap();
        assert!(s2 > 2.0, "honest sampled channel keeps S2 > 2, got {s2}");
        // Bit-for-bit replay on a fresh engine.
        let replay = SessionEngine::new(43).run(&scenario).unwrap();
        assert_eq!(outcome, replay);
    }

    #[test]
    fn statevector_backend_on_an_ideal_channel_delivers_exactly() {
        let message = SecretMessage::from_bitstring("1010011100101101").unwrap();
        let scenario = small_scenario(44)
            .with_message(message.clone())
            .with_backend(BackendKind::Statevector);
        let outcome = SessionEngine::new(44).run(&scenario).unwrap();
        assert!(outcome.is_delivered(), "{}", outcome.status);
        assert_eq!(outcome.received_message.as_ref().unwrap(), &message);
        assert_eq!(outcome.message_accuracy(), Some(1.0));
    }

    #[test]
    fn statevector_backend_detects_channel_adversaries() {
        let identities = IdentityPair::generate(4, &mut rng(45));
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(220)
            .auth_error_tolerance(1.0)
            .build()
            .unwrap();
        let engine = SessionEngine::new(45);
        for adversary in [
            Adversary::InterceptResend(InterceptBasis::Computational),
            Adversary::ManInTheMiddle(SubstituteState::RandomComputational),
            Adversary::EntangleMeasure { strength: 1.0 },
        ] {
            let scenario = Scenario::new(config.clone(), identities.clone())
                .with_label(adversary.name())
                .with_adversary(adversary)
                .with_backend(BackendKind::Statevector);
            let summary = engine.run_trials(&scenario, 3).unwrap();
            assert_eq!(summary.delivered, 0, "{summary}");
            assert!(summary.detection_rate() > 0.99, "{summary}");
        }
    }

    #[test]
    fn pauli_twirled_backend_delivers_and_replays() {
        let identities = IdentityPair::generate(5, &mut rng(81));
        let config = SessionConfig::builder()
            .message_bits(24)
            .check_bits(8)
            .di_check_pairs(220)
            // Five identity qubits make the auth stage sensitive to a single
            // twirled Pauli error; this test targets delivery + replay, so
            // give authentication the same headroom a longer id would.
            .auth_error_tolerance(0.4)
            .channel(ChannelSpec::noisy_identity_chain(
                10,
                DeviceModel::ibm_brisbane_like(),
            ))
            .build()
            .unwrap();
        let scenario = Scenario::new(config, identities).with_backend(BackendKind::PauliTwirled);
        let outcome = SessionEngine::new(81).run(&scenario).unwrap();
        assert!(outcome.is_delivered(), "{}", outcome.status);
        assert!(
            outcome.message_accuracy().unwrap() > 0.8,
            "the twirled substrate keeps a short channel usable, got {:?}",
            outcome.message_accuracy()
        );
        let s2 = outcome.di_check_round2.as_ref().unwrap().chsh.unwrap();
        assert!(s2 > 2.0, "honest twirled channel keeps S2 > 2, got {s2}");
        let replay = SessionEngine::new(81).run(&scenario).unwrap();
        assert_eq!(outcome, replay);
    }

    #[test]
    fn pauli_twirled_backend_on_an_ideal_channel_delivers_exactly() {
        let message = SecretMessage::from_bitstring("1010011100101101").unwrap();
        let scenario = small_scenario(82)
            .with_message(message.clone())
            .with_backend(BackendKind::PauliTwirled);
        let outcome = SessionEngine::new(82).run(&scenario).unwrap();
        assert!(outcome.is_delivered(), "{}", outcome.status);
        assert_eq!(outcome.received_message.as_ref().unwrap(), &message);
        assert_eq!(outcome.message_accuracy(), Some(1.0));
        assert_eq!(outcome.check_bit_error_rate, Some(0.0));
        let s1 = outcome.di_check_round1.as_ref().unwrap().chsh.unwrap();
        assert!(s1 > 2.0, "ideal frames violate the classical bound, {s1}");
    }

    #[test]
    fn pauli_twirled_backend_detects_channel_adversaries() {
        let identities = IdentityPair::generate(4, &mut rng(83));
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(220)
            .auth_error_tolerance(1.0)
            .build()
            .unwrap();
        let engine = SessionEngine::new(83);
        for adversary in [
            Adversary::InterceptResend(InterceptBasis::Computational),
            Adversary::ManInTheMiddle(SubstituteState::RandomComputational),
            Adversary::EntangleMeasure { strength: 1.0 },
        ] {
            let scenario = Scenario::new(config.clone(), identities.clone())
                .with_label(adversary.name())
                .with_adversary(adversary)
                .with_backend(BackendKind::PauliTwirled);
            let summary = engine.run_trials(&scenario, 3).unwrap();
            assert_eq!(summary.delivered, 0, "{summary}");
            assert!(summary.detection_rate() > 0.99, "{summary}");
        }
    }

    #[test]
    fn pauli_twirled_trials_fan_out_deterministically() {
        let scenario = small_scenario(84).with_backend(BackendKind::PauliTwirled);
        let serial = SessionEngine::new(84).run_trials(&scenario, 4).unwrap();
        let threaded = SessionEngine::new(84)
            .with_parallelism(Parallelism::Threads(4))
            .run_trials(&scenario, 4)
            .unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn backend_kind_round_trips_and_resolves() {
        assert_eq!(BackendKind::default(), BackendKind::DensityMatrix);
        for kind in BackendKind::ALL {
            assert_eq!(kind.backend().name(), kind.as_str());
            assert_eq!(kind.to_string(), kind.as_str());
            let parsed: BackendKind = kind.as_str().parse().unwrap();
            assert_eq!(parsed, kind);
            let json = serde::json::to_string(&kind);
            let back: BackendKind = serde::json::from_str(&json).unwrap();
            assert_eq!(back, kind, "via {json}");
        }
        assert_eq!("dm".parse::<BackendKind>(), Ok(BackendKind::DensityMatrix));
        assert_eq!("sv".parse::<BackendKind>(), Ok(BackendKind::Statevector));
        for alias in ["pauli-twirled", "twirled", "pt", "stabilizer"] {
            assert_eq!(alias.parse::<BackendKind>(), Ok(BackendKind::PauliTwirled));
        }
        let err = "quantum-annealer".parse::<BackendKind>().unwrap_err();
        for kind in BackendKind::ALL {
            assert!(
                err.contains(kind.as_str()),
                "the parse error must list `{kind}`: {err}"
            );
        }
        assert!(serde::json::from_str::<BackendKind>("\"nope\"").is_err());
        assert!(serde::json::from_str::<BackendKind>("3").is_err());
    }

    #[test]
    fn backend_choice_is_part_of_the_fingerprint() {
        let density = small_scenario(46);
        // An explicit default is the same physical scenario (streams and
        // fingerprints of pre-BackendKind runs stay valid).
        assert_eq!(
            density.fingerprint(),
            density
                .clone()
                .with_backend(BackendKind::DensityMatrix)
                .fingerprint()
        );
        let statevector = density.clone().with_backend(BackendKind::Statevector);
        assert_ne!(
            density.fingerprint(),
            statevector.fingerprint(),
            "substrates must draw disjoint trial streams"
        );
        assert_ne!(density, statevector);
        // The backend survives the serde round trip, fingerprint included.
        let json = serde::json::to_string(&statevector);
        let back: Scenario = serde::json::from_str(&json).unwrap();
        assert_eq!(back.backend, BackendKind::Statevector);
        assert_eq!(back.fingerprint(), statevector.fingerprint());
        assert!(statevector.to_string().contains("statevector"));
    }

    #[test]
    fn scenarios_without_a_backend_field_deserialize_as_density_matrix() {
        // JSON written before the backend selector existed must keep parsing
        // (and keep its fingerprint): those runs were density-matrix by
        // construction.
        let scenario = small_scenario(48);
        let json = serde::json::to_string(&scenario);
        let legacy = json.replace(",\"backend\":\"density-matrix\"", "");
        assert_ne!(legacy, json, "the backend field must have been serialized");
        let back: Scenario = serde::json::from_str(&legacy).unwrap();
        assert_eq!(back, scenario);
        assert_eq!(back.backend, BackendKind::DensityMatrix);
        assert_eq!(back.fingerprint(), scenario.fingerprint());
    }

    #[test]
    fn identities_the_constructors_refuse_fail_at_decode_by_name() {
        let scenario = small_scenario(49);
        let json = serde::json::to_string(&scenario);
        let back: Scenario = serde::json::from_str(&json).unwrap();
        assert_eq!(
            serde::json::to_string(&back),
            json,
            "a valid scenario round-trips"
        );
        let identities = serde::json::to_string(&scenario.identities);
        let bits = |n: usize| serde::json::to_string(&vec![true; n]);
        for (alice, bob, fault) in [
            (
                9,
                10,
                "identity strings must have an even number of bits, got 9",
            ),
            (8, 10, "id_A has 8 bits but id_B has 10 bits"),
            (0, 0, "identity strings must not be empty"),
        ] {
            let edited = json.replacen(
                &identities,
                &format!(
                    r#"{{"alice":{{"bits":{}}},"bob":{{"bits":{}}}}}"#,
                    bits(alice),
                    bits(bob)
                ),
                1,
            );
            assert_ne!(edited, json);
            let err = serde::json::from_str::<Scenario>(&edited).unwrap_err();
            assert!(err.to_string().contains(fault), "{alice}/{bob} bits: {err}");
        }
    }

    #[test]
    fn statevector_trials_fan_out_deterministically() {
        let scenario = small_scenario(47).with_backend(BackendKind::Statevector);
        let serial = SessionEngine::new(47).run_trials(&scenario, 4).unwrap();
        let threaded = SessionEngine::new(47)
            .with_parallelism(Parallelism::Threads(4))
            .run_trials(&scenario, 4)
            .unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn backend_seam_is_exercised() {
        /// Counts backend calls while delegating to the default substrate.
        #[derive(Debug, Default)]
        struct CountingBackend {
            emitted: std::sync::atomic::AtomicUsize,
            transmitted: std::sync::atomic::AtomicUsize,
        }
        impl Backend for CountingBackend {
            fn name(&self) -> &str {
                "counting"
            }
            fn emit_pair(
                &self,
                channel: &CompiledQuantumChannel,
                tap: &mut dyn ChannelTap,
                rng: &mut dyn RngCore,
            ) -> EprPair {
                self.emitted
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                DensityMatrixBackend.emit_pair(channel, tap, rng)
            }
            fn transmit(
                &self,
                channel: &CompiledQuantumChannel,
                pair: &mut EprPair,
                tap: &mut dyn ChannelTap,
                rng: &mut dyn RngCore,
            ) {
                self.transmitted
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                DensityMatrixBackend.transmit(channel, pair, tap, rng);
            }
        }
        let backend = Arc::new(CountingBackend::default());
        let scenario = small_scenario(55);
        let engine = SessionEngine::new(55).with_backend(backend.clone());
        assert_eq!(engine.backend_name(), "counting");
        let outcome = engine.run(&scenario).unwrap();
        assert!(outcome.is_delivered());
        let total = scenario.config.total_pairs(scenario.identities.qubit_len());
        assert_eq!(
            backend.emitted.load(std::sync::atomic::Ordering::Relaxed),
            total
        );
        assert_eq!(
            backend
                .transmitted
                .load(std::sync::atomic::Ordering::Relaxed),
            total - scenario.config.di_check_pairs()
        );
    }
}
