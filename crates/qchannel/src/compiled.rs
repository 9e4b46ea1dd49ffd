//! The quantum channel, compiled for the per-trial hot loop.
//!
//! [`QuantumChannel::transmit`](crate::quantum::QuantumChannel::transmit) is honest but wasteful when called once per
//! trial: it rebuilds the device's identity-gate channel (4 Kraus operators)
//! and idle channel from calibration numbers on **every call**, then pays
//! per-application validation and embedding for each of the η gates in the
//! chain. The emission path ([`EprPair::from_noisy_source`]) rebuilds the
//! 16-operator two-qubit gate channel and the state-prep channel the same
//! way.
//!
//! [`CompiledQuantumChannel`] does all of that once: it derives every noise
//! channel the spec can need, compiles each against its fixed qubit
//! placement (see [`noise::compiled`]), and exposes the same
//! emit/transmit/tap surface. Results are **bit-identical** to the one-shot
//! path — the compiled kernels replay the exact floating-point operation
//! sequence — so seeded runs are unaffected; only the per-trial cost drops.
//!
//! Compiled form is derived state: it is intentionally not serialisable and
//! is rebuilt from the (serialisable) [`ChannelSpec`] wherever needed.

use crate::epr::{ideal_rho, EprPair, ExactState, Provenance, ALICE_QUBIT, BOB_QUBIT};
use crate::quantum::{ChannelSpec, ChannelTap};
use noise::compiled::CompiledChannel;
use noise::twirl::{PauliDistribution, TwirledChannel};
use qsim::density::DensityMatrix;
use rand::Rng;
use rand::RngCore;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The Pauli-twirled lowering of a compiled channel: everything the
/// stabilizer backend needs per trial, reduced to **two** Klein-group
/// distributions.
///
/// The emission distribution is the XOR-convolution of the twirls of the
/// source and both state-prep placements; the transmit distribution is the
/// per-slot gate⊛idle convolution raised to the chain length by repeated
/// squaring. One pair therefore costs at most one `f64` draw per leg,
/// independent of the chain length — the η-gate loop is folded away at
/// compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct TwirledProgram {
    emission: PauliDistribution,
    transmit: PauliDistribution,
    /// The individual placement twirls, in compile order (source, prep A,
    /// prep B, gate, idle) — kept for reports and exactness audits.
    placements: Vec<TwirledChannel>,
    exact: bool,
}

impl TwirledProgram {
    // detlint: allow(hot-path-alloc): compile-time constructor; transmit paths never re-enter it
    fn new(channel: &CompiledQuantumChannel) -> Self {
        let mut placements = Vec::new();
        let mut emission = PauliDistribution::default();
        for compiled in [&channel.source, &channel.prep_alice, &channel.prep_bob]
            .into_iter()
            .flatten()
        {
            let twirled = compiled.twirl();
            emission = emission.convolve(&twirled.frame_distribution());
            placements.push(twirled);
        }
        let mut per_slot = PauliDistribution::default();
        for compiled in [&channel.gate_alice, &channel.idle_bob]
            .into_iter()
            .flatten()
        {
            let twirled = compiled.twirl();
            per_slot = per_slot.convolve(&twirled.frame_distribution());
            placements.push(twirled);
        }
        let transmit = per_slot.convolution_power(channel.spec.length());
        let exact = placements.iter().all(TwirledChannel::is_exact);
        Self {
            emission,
            transmit,
            placements,
            exact,
        }
    }

    /// The Klein-group distribution of one full emission (source + preps).
    #[cfg(test)]
    pub(crate) fn emission(&self) -> &PauliDistribution {
        &self.emission
    }

    /// The Klein-group distribution of one full transmission (whole chain).
    #[cfg(test)]
    pub(crate) fn transmit(&self) -> &PauliDistribution {
        &self.transmit
    }

    /// The individual placement twirls, in compile order.
    #[cfg(test)]
    pub(crate) fn placements(&self) -> &[TwirledChannel] {
        &self.placements
    }

    /// `true` when every lowered placement was already Pauli-diagonal, so
    /// the twirled program simulates the exact channel rather than its
    /// twirled approximation.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// `true` when both legs are the identity point mass (ideal channel):
    /// the backend skips the RNG draws entirely.
    pub fn is_trivial(&self) -> bool {
        self.emission.is_trivial() && self.transmit.is_trivial()
    }
}

impl fmt::Display for TwirledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TwirledProgram[{} placements, emission {}, transmit {}, {}]",
            self.placements.len(),
            self.emission,
            self.transmit,
            if self.exact { "exact" } else { "approximate" },
        )
    }
}

/// A [`QuantumChannel`](crate::quantum::QuantumChannel) with every noise placement precompiled.
///
/// Build with [`QuantumChannel::compile`](crate::quantum::QuantumChannel::compile). The compiled placements cover
/// both backends: exact density application (`apply`) and trajectory
/// sampling (`sample`/`sample_density`) share each placement.
///
/// The exact density path is a deterministic function of its input, so the
/// program computes the emitted state ρ_E and the transmitted state
/// ρ_T = chain(ρ_E) once each, on first use, and copies them into pairs.
/// Pairs it writes this way carry a provenance tag naming the program
/// ([`CompiledQuantumChannel::exact_state_of`]); a clone is the same
/// program and keeps its id.
#[derive(Debug, Clone)]
pub struct CompiledQuantumChannel {
    /// Process-unique: tags of one program never match another's.
    id: u64,
    spec: ChannelSpec,
    /// Source noise: the device's two-qubit gate channel on the whole pair.
    /// Present iff the device is not ideal (matching the legacy gating).
    source: Option<CompiledChannel>,
    /// State-preparation error on Alice's / Bob's qubit. Present iff the
    /// device is not ideal.
    prep_alice: Option<CompiledChannel>,
    prep_bob: Option<CompiledChannel>,
    /// One noisy identity gate on the flying qubit. Present iff the device
    /// is not ideal (a zero-length chain simply never applies it).
    gate_alice: Option<CompiledChannel>,
    /// Thermal idling on Bob's stored qubit per gate slot. Present iff the
    /// device is not ideal **and** models partner idling.
    idle_bob: Option<CompiledChannel>,
    /// The Pauli-twirled lowering of the placements above, for the
    /// stabilizer backend. Always present (trivial for ideal channels).
    twirled: TwirledProgram,
    /// ρ_E: `|Φ+⟩` after the source and state-prep placements.
    emitted: OnceLock<DensityMatrix>,
    /// ρ_T: ρ_E after the whole η chain.
    transmitted: OnceLock<DensityMatrix>,
}

impl CompiledQuantumChannel {
    // detlint: allow(hot-path-alloc): compile-time constructor; transmit paths never re-enter it
    pub(crate) fn new(spec: ChannelSpec) -> Self {
        let device = spec.device();
        let (source, prep_alice, prep_bob, gate_alice, idle_bob) = if device.is_ideal() {
            (None, None, None, None, None)
        } else {
            let prep = device.state_prep_channel();
            (
                Some(
                    device
                        .two_qubit_gate_channel()
                        .compile(&[ALICE_QUBIT, BOB_QUBIT], 2),
                ),
                Some(prep.compile(&[ALICE_QUBIT], 2)),
                Some(prep.compile(&[BOB_QUBIT], 2)),
                Some(device.identity_gate_channel().compile(&[ALICE_QUBIT], 2)),
                device.idle_partner_noise().then(|| {
                    device
                        .idle_channel(device.identity_gate_time_ns())
                        .compile(&[BOB_QUBIT], 2)
                }),
            )
        };
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let mut channel = Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            spec,
            source,
            prep_alice,
            prep_bob,
            gate_alice,
            idle_bob,
            twirled: TwirledProgram {
                emission: PauliDistribution::default(),
                transmit: PauliDistribution::default(),
                placements: Vec::new(),
                exact: true,
            },
            emitted: OnceLock::new(),
            transmitted: OnceLock::new(),
        };
        channel.twirled = TwirledProgram::new(&channel);
        channel
    }

    /// The channel's spec.
    pub fn spec(&self) -> &ChannelSpec {
        &self.spec
    }

    /// Source noise (two-qubit gate channel on the pair), when the device
    /// is noisy.
    pub fn source(&self) -> Option<&CompiledChannel> {
        self.source.as_ref()
    }

    /// State-preparation error on Alice's qubit, when the device is noisy.
    pub fn prep_alice(&self) -> Option<&CompiledChannel> {
        self.prep_alice.as_ref()
    }

    /// State-preparation error on Bob's qubit, when the device is noisy.
    pub fn prep_bob(&self) -> Option<&CompiledChannel> {
        self.prep_bob.as_ref()
    }

    /// One noisy identity gate on the flying qubit, when the device is
    /// noisy.
    pub fn gate_alice(&self) -> Option<&CompiledChannel> {
        self.gate_alice.as_ref()
    }

    /// Thermal idling on Bob's stored qubit per gate slot, when the device
    /// is noisy and models partner idling.
    pub fn idle_bob(&self) -> Option<&CompiledChannel> {
        self.idle_bob.as_ref()
    }

    /// The Pauli-twirled lowering of this channel's placements.
    pub fn twirled(&self) -> &TwirledProgram {
        &self.twirled
    }

    /// Emits one pair in the **Pauli-frame representation**: the twirled
    /// backend's emission path. The pair is reset to a frame-tracked `|Φ+⟩`
    /// and kicked by one sample of the emission distribution — at most one
    /// `f64` draw, no density work, no allocation.
    pub fn emit_twirled_pair_into<R: Rng + ?Sized>(&self, pair: &mut EprPair, rng: &mut R) {
        pair.reset_frame_ideal();
        if !self.twirled.emission.is_trivial() {
            pair.apply_alice_pauli(self.twirled.emission.sample(rng));
        }
    }

    /// Transmits Alice's half under the twirled channel: one sample of the
    /// precomputed whole-chain distribution, whatever the chain length.
    /// Works on pairs in either representation (the frame kick and the
    /// density Pauli are the same logical map).
    pub fn transmit_twirled<R: Rng + ?Sized>(&self, pair: &mut EprPair, rng: &mut R) {
        if !self.twirled.transmit.is_trivial() {
            pair.apply_alice_pauli(self.twirled.transmit.sample(rng));
        }
    }

    fn tag(&self, state: ExactState) -> Provenance {
        Provenance {
            state,
            program: self.id,
        }
    }

    /// The exact state `pair` holds, when this program wrote it and nothing
    /// has touched the pair since: a tagged pair's density matrix equals
    /// [`CompiledQuantumChannel::emitted_state`] or
    /// [`CompiledQuantumChannel::transmitted_state`] bit for bit.
    pub fn exact_state_of(&self, pair: &EprPair) -> Option<ExactState> {
        pair.provenance()
            .filter(|tag| tag.program == self.id)
            .map(|tag| tag.state)
    }

    /// ρ_E, the state every density-matrix emission yields: `|Φ+⟩` after
    /// the source and both state-prep placements. Computed on first use.
    // detlint: allow(hot-path-alloc): runs once per program inside get_or_init; emissions and transmits copy into the pair's own buffer
    pub fn emitted_state(&self) -> &DensityMatrix {
        self.emitted.get_or_init(|| {
            let mut rho = ideal_rho().clone();
            for placement in [&self.source, &self.prep_alice, &self.prep_bob]
                .into_iter()
                .flatten()
            {
                placement.apply(&mut rho);
            }
            rho
        })
    }

    /// ρ_T, what [`CompiledQuantumChannel::transmit`] makes of ρ_E: the
    /// whole η chain applied to it. Computed on first use.
    // detlint: allow(hot-path-alloc): runs once per program inside get_or_init; emissions and transmits copy into the pair's own buffer
    pub fn transmitted_state(&self) -> &DensityMatrix {
        self.transmitted.get_or_init(|| {
            let mut rho = self.emitted_state().clone();
            self.apply_chain(&mut rho);
            rho
        })
    }

    /// Emits one pair from the (noisy) source — bit-identical to
    /// [`EprPair::from_noisy_source`] with this spec's device, without
    /// rebuilding the source channels per call.
    pub fn emit_noisy_pair(&self) -> EprPair {
        let mut pair = EprPair::ideal();
        self.emit_noisy_pair_into(&mut pair);
        pair
    }

    /// Emits one pair into `pair`, reusing its buffers: the allocation-free
    /// form of [`CompiledQuantumChannel::emit_noisy_pair`] for pooled pairs.
    /// Whatever state `pair` held before is discarded; the pair now holds ρ_E
    /// and is tagged [`ExactState::Emitted`].
    pub fn emit_noisy_pair_into(&self, pair: &mut EprPair) {
        pair.set_exact(self.emitted_state(), self.tag(ExactState::Emitted));
    }

    /// Transmits Alice's half of `pair` to Bob — bit-identical to
    /// [`QuantumChannel::transmit`](crate::quantum::QuantumChannel::transmit), without rebuilding the gate/idle
    /// channels per call. A pair this program emitted and nothing touched
    /// since receives a copy of ρ_T instead of running the chain, and is
    /// tagged [`ExactState::Transmitted`].
    pub fn transmit<R: RngCore + ?Sized>(&self, pair: &mut EprPair, _rng: &mut R) {
        if self.exact_state_of(pair) == Some(ExactState::Emitted) {
            pair.set_exact(self.transmitted_state(), self.tag(ExactState::Transmitted));
        } else if self.gate_alice.is_some() && self.spec.length() > 0 {
            self.apply_chain(pair.density_mut());
        }
    }

    /// The η chain: one noisy identity gate on Alice's qubit per slot, each
    /// followed by Bob's idling when the device models it.
    fn apply_chain(&self, rho: &mut DensityMatrix) {
        let Some(gate) = &self.gate_alice else {
            return;
        };
        for _ in 0..self.spec.length() {
            gate.apply(rho);
            if let Some(idle) = &self.idle_bob {
                idle.apply(rho);
            }
        }
    }

    /// Transmits with an eavesdropper tap attached: the tap's
    /// [`ChannelTap::on_transmit`] runs first, then the physical noise —
    /// the compiled form of [`QuantumChannel::transmit_tapped`](crate::quantum::QuantumChannel::transmit_tapped).
    pub fn transmit_tapped(
        &self,
        pair: &mut EprPair,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        tap.on_transmit(pair, rng);
        self.transmit(pair, rng);
    }

    /// Distributes a freshly emitted pair, letting the tap act first — the
    /// compiled form of [`QuantumChannel::distribute_tapped`](crate::quantum::QuantumChannel::distribute_tapped).
    pub fn distribute_tapped(
        &self,
        pair: &mut EprPair,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        tap.on_pair_emitted(pair, rng);
    }
}

impl From<ChannelSpec> for CompiledQuantumChannel {
    fn from(spec: ChannelSpec) -> Self {
        Self::new(spec)
    }
}

impl fmt::Display for CompiledQuantumChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompiledQuantumChannel[{}]", self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantum::QuantumChannel;
    use noise::DeviceModel;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    fn pair_bits(pair: &EprPair) -> Vec<(u64, u64)> {
        pair.density()
            .matrix()
            .as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn ideal_channel_compiles_to_no_placements() {
        let compiled = QuantumChannel::default().compile();
        assert!(compiled.source().is_none());
        assert!(compiled.gate_alice().is_none());
        assert!(compiled.idle_bob().is_none());
        let mut pair = EprPair::ideal();
        compiled.transmit(&mut pair, &mut rng());
        assert!((pair.fidelity_phi_plus() - 1.0).abs() < 1e-12);
        assert_eq!(
            pair_bits(&compiled.emit_noisy_pair()),
            pair_bits(&EprPair::ideal())
        );
    }

    #[test]
    fn compiled_transmit_is_bit_identical_to_one_shot() {
        let channel = QuantumChannel::new(ChannelSpec::noisy_identity_chain(
            25,
            DeviceModel::ibm_brisbane_like(),
        ));
        let compiled = channel.compile();
        let mut fast = EprPair::ideal();
        let mut slow = EprPair::ideal();
        compiled.transmit(&mut fast, &mut rng());
        channel.transmit(&mut slow, &mut rng());
        assert_eq!(pair_bits(&fast), pair_bits(&slow));
    }

    #[test]
    fn compiled_emission_is_bit_identical_to_one_shot() {
        let device = DeviceModel::ibm_brisbane_like();
        let channel = QuantumChannel::new(ChannelSpec::noisy_identity_chain(10, device.clone()));
        let compiled = channel.compile();
        assert_eq!(
            pair_bits(&compiled.emit_noisy_pair()),
            pair_bits(&EprPair::from_noisy_source(&device))
        );
    }

    #[test]
    fn ideal_channel_twirls_to_the_trivial_program() {
        let compiled = QuantumChannel::default().compile();
        let program = compiled.twirled();
        assert!(program.is_trivial());
        assert!(program.is_exact());
        assert!(program.placements().is_empty());
        // Emission still produces a frame-tracked Φ+ pair.
        let mut pair = EprPair::ideal();
        let mut r = rng();
        compiled.emit_twirled_pair_into(&mut pair, &mut r);
        compiled.transmit_twirled(&mut pair, &mut r);
        assert!(pair.is_frame_tracked());
        assert_eq!(
            pair.frame().unwrap().state(),
            qsim::bell::BellState::PhiPlus
        );
    }

    #[test]
    fn noisy_chain_twirls_to_a_nontrivial_program() {
        let compiled = QuantumChannel::new(ChannelSpec::noisy_identity_chain(
            25,
            DeviceModel::ibm_brisbane_like(),
        ))
        .compile();
        let program = compiled.twirled();
        assert!(!program.is_trivial());
        // Thermal relaxation (amplitude damping) is not Pauli-diagonal, so
        // the brisbane chain twirls approximately.
        assert!(!program.is_exact());
        // source + prep×2 + gate (+ idle when partner idling is modelled).
        let expected = if compiled.idle_bob().is_some() { 5 } else { 4 };
        assert_eq!(program.placements().len(), expected);
        assert!(program.to_string().contains("approximate"));
    }

    #[test]
    fn twirled_sampling_matches_the_analytic_convolution() {
        use qsim::pauli::Pauli;
        use qsim::pauli_frame::PauliFrame;
        let compiled = QuantumChannel::new(ChannelSpec::noisy_identity_chain(
            25,
            DeviceModel::ibm_brisbane_like(),
        ))
        .compile();
        let program = compiled.twirled();
        // Analytic label distribution: emission ⊛ transmit pushed onto the
        // Bell labels of a kicked Φ+.
        let full = program.emission().convolve(program.transmit());
        let mut expect = [0.0f64; 4];
        for (pauli, p) in Pauli::ALL.into_iter().zip(full.probabilities()) {
            let mut frame = PauliFrame::ideal();
            frame.apply_pauli(pauli);
            expect[frame.state().to_index()] += p;
        }
        let mut r = rng();
        let trials = 20_000;
        let mut counts = [0usize; 4];
        let mut pair = EprPair::ideal();
        for _ in 0..trials {
            compiled.emit_twirled_pair_into(&mut pair, &mut r);
            compiled.transmit_twirled(&mut pair, &mut r);
            counts[pair.frame().unwrap().state().to_index()] += 1;
        }
        for (label, (&count, want)) in counts.iter().zip(expect).enumerate() {
            let got = count as f64 / trials as f64;
            assert!(
                (got - want).abs() < 0.01,
                "label {label}: sampled {got} vs analytic {want}"
            );
        }
        // And for weak noise the twirled program stays close to the exact
        // channel's Bell diagonal.
        let mut dense = compiled.emit_noisy_pair();
        compiled.transmit(&mut dense, &mut r);
        let exact = qsim::bell::bell_diagonal_probabilities(dense.density());
        for (want, got) in exact.into_iter().zip(expect) {
            assert!(
                (got - want).abs() < 0.02,
                "twirl must stay near the exact Bell diagonal ({got} vs {want})"
            );
        }
    }

    fn brisbane(eta: usize) -> CompiledQuantumChannel {
        QuantumChannel::new(ChannelSpec::noisy_identity_chain(
            eta,
            DeviceModel::ibm_brisbane_like(),
        ))
        .compile()
    }

    #[test]
    fn tagged_emission_and_transmission_match_the_chain() {
        for compiled in [
            QuantumChannel::default().compile(),
            brisbane(0),
            brisbane(7),
        ] {
            let mut pair = EprPair::ideal();
            compiled.emit_noisy_pair_into(&mut pair);
            assert_eq!(compiled.exact_state_of(&pair), Some(ExactState::Emitted));
            assert_eq!(
                pair_bits(&pair),
                pair_bits(&EprPair::from_noisy_source(compiled.spec().device()))
            );
            // The same state without its tag runs the chain itself.
            let mut untagged = pair.clone();
            untagged.density_mut();
            compiled.transmit(&mut pair, &mut rng());
            compiled.transmit(&mut untagged, &mut rng());
            assert_eq!(
                compiled.exact_state_of(&pair),
                Some(ExactState::Transmitted)
            );
            assert_eq!(compiled.exact_state_of(&untagged), None);
            assert_eq!(pair_bits(&pair), pair_bits(&untagged));
            assert_eq!(
                pair.density().matrix(),
                compiled.transmitted_state().matrix()
            );
            // A second transmit of a transmitted pair runs the chain again;
            // only a chain that changes nothing leaves it holding ρ_T.
            compiled.transmit(&mut pair, &mut rng());
            compiled.transmit(&mut untagged, &mut rng());
            let unchanged = compiled.gate_alice().is_none() || compiled.spec().length() == 0;
            assert_eq!(
                compiled.exact_state_of(&pair),
                unchanged.then_some(ExactState::Transmitted)
            );
            assert_eq!(pair_bits(&pair), pair_bits(&untagged));
        }
    }

    #[test]
    fn tags_name_the_program_that_wrote_them() {
        let (a, b) = (brisbane(3), brisbane(3));
        let mut pair = EprPair::ideal();
        a.emit_noisy_pair_into(&mut pair);
        assert_eq!(b.exact_state_of(&pair), None);
        assert_eq!(a.clone().exact_state_of(&pair), Some(ExactState::Emitted));
        // Program b does not take a's tag as proof of its own ρ_E.
        b.transmit(&mut pair, &mut rng());
        assert_eq!(b.exact_state_of(&pair), None);
        assert_eq!(a.exact_state_of(&pair), None);
    }

    #[test]
    fn a_tap_that_leaves_the_pair_alone_keeps_the_tag() {
        use crate::quantum::NoTap;
        use crate::taps::InterceptResendAttack;
        let compiled = brisbane(3);
        let mut pair = EprPair::ideal();
        compiled.emit_noisy_pair_into(&mut pair);
        compiled.distribute_tapped(&mut pair, &mut NoTap, &mut rng());
        compiled.transmit_tapped(&mut pair, &mut NoTap, &mut rng());
        assert_eq!(
            compiled.exact_state_of(&pair),
            Some(ExactState::Transmitted)
        );
        compiled.emit_noisy_pair_into(&mut pair);
        compiled.transmit_tapped(
            &mut pair,
            &mut InterceptResendAttack::computational(),
            &mut rng(),
        );
        assert_eq!(compiled.exact_state_of(&pair), None);
    }

    /// Runs `touch` on an emitted and on a transmitted pair of a noisy
    /// program and checks that it cleared the tag.
    fn assert_clears(touch: impl Fn(&mut EprPair)) {
        let compiled = brisbane(3);
        for transmitted in [false, true] {
            let mut pair = EprPair::ideal();
            compiled.emit_noisy_pair_into(&mut pair);
            if transmitted {
                compiled.transmit(&mut pair, &mut rng());
            }
            assert!(compiled.exact_state_of(&pair).is_some());
            touch(&mut pair);
            assert_eq!(compiled.exact_state_of(&pair), None);
        }
    }

    #[test]
    fn density_mut_clears_the_tag() {
        assert_clears(|pair| {
            pair.density_mut();
        });
    }

    #[test]
    fn alice_pauli_clears_the_tag() {
        assert_clears(|pair| pair.apply_alice_pauli(qsim::pauli::Pauli::I));
    }

    #[test]
    fn bob_pauli_clears_the_tag() {
        assert_clears(|pair| pair.apply_bob_pauli(qsim::pauli::Pauli::I));
    }

    #[test]
    fn basis_measurements_clear_the_tag() {
        use qsim::measurement::BasisPhase;
        assert_clears(|pair| {
            pair.measure_both_in_bases(BasisPhase::new(0.0), BasisPhase::new(0.5), &mut rng());
        });
        assert_clears(|pair| {
            pair.measure_alice_in_basis(0.0, &mut rng());
        });
        assert_clears(|pair| {
            pair.measure_bob_in_basis(0.0, &mut rng());
        });
    }

    #[test]
    fn bell_measurement_clears_the_tag() {
        assert_clears(|pair| {
            pair.bell_measure(&mut rng());
        });
    }

    #[test]
    fn computational_measurement_clears_the_tag() {
        assert_clears(|pair| {
            pair.measure_computational(&mut rng());
        });
    }

    #[test]
    fn mark_consumed_clears_the_tag() {
        assert_clears(EprPair::mark_consumed);
    }

    #[test]
    fn twirl_to_frame_clears_the_tag() {
        assert_clears(|pair| pair.twirl_to_frame(&mut rng()));
    }

    #[test]
    fn frame_reset_clears_the_tag() {
        assert_clears(|pair| pair.reset_frame_ideal());
        // And so do the twirled backend's emission and transmission.
        let compiled = brisbane(3);
        assert_clears(|pair| compiled.emit_twirled_pair_into(pair, &mut rng()));
    }

    #[test]
    fn clone_from_carries_the_source_tag() {
        let compiled = brisbane(3);
        let mut tagged = EprPair::ideal();
        compiled.emit_noisy_pair_into(&mut tagged);
        assert_clears(|pair| pair.clone_from(&EprPair::ideal()));
        let mut copy = EprPair::ideal();
        copy.clone_from(&tagged);
        assert_eq!(compiled.exact_state_of(&copy), Some(ExactState::Emitted));
        assert_eq!(
            compiled.exact_state_of(&tagged.clone()),
            Some(ExactState::Emitted)
        );
    }

    #[test]
    fn tapped_paths_invoke_the_tap() {
        use qsim::pauli::Pauli;
        struct FlipTap(usize);
        impl ChannelTap for FlipTap {
            fn on_pair_emitted(&mut self, _pair: &mut EprPair, _rng: &mut dyn RngCore) {
                self.0 += 1;
            }
            fn on_transmit(&mut self, pair: &mut EprPair, _rng: &mut dyn RngCore) {
                self.0 += 1;
                pair.apply_alice_pauli(Pauli::Z);
            }
        }
        let compiled = QuantumChannel::default().compile();
        let mut tap = FlipTap(0);
        let mut pair = EprPair::ideal();
        let mut r = rng();
        compiled.distribute_tapped(&mut pair, &mut tap, &mut r);
        compiled.transmit_tapped(&mut pair, &mut tap, &mut r);
        assert_eq!(tap.0, 2);
        assert!((pair.fidelity_with(qsim::bell::BellState::PhiMinus) - 1.0).abs() < 1e-10);
    }
}
