//! The EPR-pair working unit.
//!
//! Every resource the protocol consumes is one `|Φ+⟩` pair: Alice holds the first qubit (the
//! one that later flies through the quantum channel), Bob holds the second. [`EprPair`] wraps
//! a two-qubit density matrix with that fixed role assignment and exposes exactly the
//! operations the protocol needs: Pauli encoding on either half, basis measurements for the
//! DI check, Bell-state measurement for decoding, and fidelity bookkeeping.

use noise::DeviceModel;
use qsim::bell::{bell_diagonal_probabilities, bell_measure_density, BellOutcome, BellState};
use qsim::density::DensityMatrix;
use qsim::measurement::{BasisPhase, MeasurementOutcome};
use qsim::pauli::Pauli;
use qsim::pauli_frame::PauliFrame;
use qsim::statevector::StateVector;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of Alice's qubit inside an [`EprPair`].
pub const ALICE_QUBIT: usize = 0;
/// Index of Bob's qubit inside an [`EprPair`].
pub(crate) const BOB_QUBIT: usize = 1;

/// One shared `|Φ+⟩` pair (possibly degraded by noise or an eavesdropper).
///
/// # Examples
///
/// ```rust
/// use qchannel::epr::EprPair;
/// use qsim::pauli::Pauli;
/// use qsim::bell::BellState;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut pair = EprPair::ideal();
/// pair.apply_alice_pauli(Pauli::X);
/// let outcome = pair.bell_measure(&mut rng);
/// assert_eq!(outcome.state, BellState::PsiPlus);
/// ```
/// The pair carries **two representations**:
///
/// - the exact density matrix `rho` (always allocated), and
/// - an optional Pauli **frame** — when `frame` is `Some`, the logical
///   state is the (pure) Bell state of the frame and `rho` is a *stale*
///   buffer kept around so re-materialising is allocation-free.
///
/// The exact backends never set a frame, so their behaviour is unchanged.
/// The Pauli-twirled backend keeps pairs frame-tracked through the honest
/// data path (integer-only updates) and drops back to the density
/// representation only when an active eavesdropper tap needs the full
/// state, re-projecting afterwards with [`EprPair::twirl_to_frame`].
///
/// A density-backed pair may also carry a **provenance tag**: proof that
/// `rho` still holds, bit for bit, one of the exact states a compiled
/// channel program computed once (see
/// [`CompiledQuantumChannel::exact_state_of`](crate::compiled::CompiledQuantumChannel::exact_state_of)).
/// Only the program's emission and transmission set it; every other
/// `&mut` path clears it, so a tagged pair is one nothing has touched since.
#[derive(Debug)]
pub struct EprPair {
    rho: DensityMatrix,
    frame: Option<PauliFrame>,
    tag: Option<Provenance>,
}

/// Which of a compiled program's exact states a pair holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactState {
    /// The program's emitted state ρ_E, untouched since emission.
    Emitted,
    /// The program's ρ_T: ρ_E after the whole channel, with no tap acting.
    Transmitted,
}

/// An [`ExactState`] and the id of the program that wrote it: programs
/// differ in their states, so a tag names its writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Provenance {
    pub(crate) state: ExactState,
    pub(crate) program: u64,
}

impl Serialize for EprPair {
    /// Serializes the **logical state** in the legacy `{rho: …}` wire
    /// shape: frame-tracked pairs materialise their Bell state, so readers
    /// never see the representation split.
    fn to_value(&self) -> serde::Value {
        let rho_value = match self.frame {
            Some(f) => f.state().density_ref().to_value(),
            None => self.rho.to_value(),
        };
        serde::Value::Map(vec![("rho".to_string(), rho_value)])
    }
}

impl Clone for EprPair {
    fn clone(&self) -> Self {
        Self {
            rho: self.rho.clone(),
            frame: self.frame,
            tag: self.tag,
        }
    }

    /// Copies `source` into `self`, reusing `self`'s density buffer. The
    /// copy holds the same state, so it keeps the source's tag.
    fn clone_from(&mut self, source: &Self) {
        self.rho.clone_from(&source.rho);
        self.frame = source.frame;
        self.tag = source.tag;
    }
}

impl PartialEq for EprPair {
    /// Compares the **logical state**, independent of representation: a
    /// frame-tracked pair equals a density-backed pair holding the same
    /// pure Bell state.
    fn eq(&self, other: &Self) -> bool {
        match (self.frame, other.frame) {
            (Some(a), Some(b)) => a == b,
            (None, None) => self.rho == other.rho,
            (Some(a), None) => a.state().density_ref() == &other.rho,
            (None, Some(b)) => &self.rho == b.state().density_ref(),
        }
    }
}

impl Deserialize for EprPair {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let rho = DensityMatrix::from_value(value.get_field("rho")?)?;
        Ok(Self::from_density(rho))
    }
}

pub(crate) fn ideal_rho() -> &'static DensityMatrix {
    static IDEAL: std::sync::OnceLock<DensityMatrix> = std::sync::OnceLock::new();
    IDEAL.get_or_init(|| DensityMatrix::from_statevector(&BellState::PhiPlus.statevector()))
}

impl EprPair {
    /// Creates a perfect `|Φ+⟩` pair.
    ///
    /// The protocol emits one pair per transmitted qubit, so the reference
    /// state is built once per process and cloned thereafter.
    pub fn ideal() -> Self {
        Self::from_density(ideal_rho().clone())
    }

    /// Overwrites this pair with `rho`, reusing the existing density
    /// buffer, and tags it: the caller vouches that `rho` is the exact
    /// state `tag` names.
    pub(crate) fn set_exact(&mut self, rho: &DensityMatrix, tag: Provenance) {
        self.rho.clone_from(rho);
        self.frame = None;
        self.tag = Some(tag);
    }

    /// The pair's provenance tag, if nothing has touched it since a
    /// compiled program wrote it.
    pub(crate) fn provenance(&self) -> Option<Provenance> {
        self.tag
    }

    /// Marks the pair as measured without writing its collapsed state: a
    /// caller that drew its outcomes from a table of its exact state drops
    /// the tag here, so nothing reads the pair as that state again.
    pub fn mark_consumed(&mut self) {
        self.tag = None;
    }

    /// Resets this pair to the perfect `|Φ+⟩` state in the **Pauli-frame
    /// representation**: the emission hot path of the twirled backend. No
    /// density work at all — the stale buffer is left untouched until (if
    /// ever) an active tap forces materialisation.
    pub(crate) fn reset_frame_ideal(&mut self) {
        self.tag = None;
        match &mut self.frame {
            Some(f) => f.reset(),
            None => self.frame = Some(PauliFrame::ideal()),
        }
    }

    /// The pair's Pauli frame, when it is frame-tracked.
    #[cfg(test)]
    pub(crate) fn frame(&self) -> Option<PauliFrame> {
        self.frame
    }

    /// `true` while the pair lives in the Pauli-frame representation.
    pub fn is_frame_tracked(&self) -> bool {
        self.frame.is_some()
    }

    /// Projects the pair onto the Bell-diagonal channel and samples one
    /// Bell label — the **re-twirl** step that returns a density-backed
    /// pair to the frame representation after an active eavesdropper tap
    /// acted on the full state. One `f64` draw; a no-op on pairs that are
    /// already frame-tracked.
    ///
    /// The sampled distribution is exactly
    /// [`bell_diagonal_probabilities`], i.e. the Pauli twirl of whatever
    /// the tap left behind.
    pub fn twirl_to_frame<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.tag = None;
        if self.frame.is_some() {
            return;
        }
        let probs = bell_diagonal_probabilities(&self.rho);
        let total: f64 = probs.iter().sum();
        let draw = rng.gen::<f64>() * total;
        let mut acc = 0.0;
        let mut index = 3;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if draw < acc {
                index = i;
                break;
            }
        }
        self.frame = Some(PauliFrame::new(BellState::from_index(index)));
    }

    /// Creates a pair emitted by a noisy source: a perfect `|Φ+⟩` degraded by the device's
    /// two-qubit gate channel and per-qubit state-preparation error (a simple but honest model
    /// of an imperfect entanglement source).
    pub fn from_noisy_source(device: &DeviceModel) -> Self {
        let mut pair = Self::ideal();
        if !device.is_ideal() {
            device
                .two_qubit_gate_channel()
                .apply(&mut pair.rho, &[ALICE_QUBIT, BOB_QUBIT]);
            let prep = device.state_prep_channel();
            prep.apply(&mut pair.rho, &[ALICE_QUBIT]);
            prep.apply(&mut pair.rho, &[BOB_QUBIT]);
        }
        pair
    }

    /// Wraps an existing two-qubit density matrix as a pair.
    ///
    /// # Panics
    ///
    /// Panics if the density matrix is not exactly two qubits.
    pub fn from_density(rho: DensityMatrix) -> Self {
        assert_eq!(rho.num_qubits(), 2, "an EPR pair is exactly two qubits");
        Self {
            rho,
            frame: None,
            tag: None,
        }
    }

    /// Builds a (separable) pair of fresh single qubits in the state `|a⟩ ⊗ |b⟩` — what a
    /// man-in-the-middle attacker substitutes for the real pair.
    pub fn separable(alice_bit: u8, bob_bit: u8) -> Self {
        let mut state = StateVector::new(2);
        if alice_bit == 1 {
            state.apply_single(&qsim::gates::pauli_x(), ALICE_QUBIT);
        }
        if bob_bit == 1 {
            state.apply_single(&qsim::gates::pauli_x(), BOB_QUBIT);
        }
        Self::from_density(DensityMatrix::from_statevector(&state))
    }

    /// Immutable view of the underlying density matrix.
    ///
    /// # Panics
    ///
    /// Panics on frame-tracked pairs: the density buffer is stale there.
    /// Call [`EprPair::density_mut`] first (or keep using the frame API).
    pub fn density(&self) -> &DensityMatrix {
        assert!(
            self.frame.is_none(),
            "the density buffer of a frame-tracked EprPair is stale; materialise with density_mut() first"
        );
        &self.rho
    }

    /// Mutable view of the underlying density matrix (used by eavesdropper taps).
    ///
    /// Frame-tracked pairs **materialise** here: the frame's Bell state is
    /// copied into the existing density buffer (no allocation) and the
    /// frame is dropped, so the caller always sees the logical state.
    pub fn density_mut(&mut self) -> &mut DensityMatrix {
        self.tag = None;
        if let Some(f) = self.frame.take() {
            self.rho.clone_from(f.state().density_ref());
        }
        &mut self.rho
    }

    /// Consumes the pair and returns the density matrix.
    #[cfg(test)]
    pub(crate) fn into_density(mut self) -> DensityMatrix {
        self.density_mut();
        self.rho
    }

    /// Applies a Pauli encoding operator to Alice's qubit (message / identity encoding).
    pub fn apply_alice_pauli(&mut self, pauli: Pauli) {
        self.tag = None;
        match &mut self.frame {
            Some(f) => f.apply_pauli(pauli),
            None => pauli.apply_to_density(&mut self.rho, ALICE_QUBIT),
        }
    }

    /// Applies a Pauli encoding operator to Bob's qubit (Bob encoding `id_B` on `D_B`).
    pub fn apply_bob_pauli(&mut self, pauli: Pauli) {
        self.tag = None;
        match &mut self.frame {
            // A Pauli on either half of a Bell state moves the label the
            // same way (the transpose trick — our alphabet is real up to
            // the global sign of iσy, which no Bell label can see).
            Some(f) => f.apply_pauli(pauli),
            None => pauli.apply_to_density(&mut self.rho, BOB_QUBIT),
        }
    }

    /// Measures Alice's qubit in the basis `B(θ)` (DI-check measurement), collapsing the pair.
    #[cfg(test)]
    pub(crate) fn measure_alice_in_basis<R: Rng + ?Sized>(
        &mut self,
        theta: f64,
        rng: &mut R,
    ) -> MeasurementOutcome {
        self.density_mut().measure_in_basis(ALICE_QUBIT, theta, rng)
    }

    /// Measures Bob's qubit in the basis `B(θ)` (DI-check measurement), collapsing the pair.
    #[cfg(test)]
    pub(crate) fn measure_bob_in_basis<R: Rng + ?Sized>(
        &mut self,
        theta: f64,
        rng: &mut R,
    ) -> MeasurementOutcome {
        self.density_mut().measure_in_basis(BOB_QUBIT, theta, rng)
    }

    /// Measures Alice's half in `B(θ_a)` and then Bob's half in `B(θ_b)` —
    /// one CHSH record. Equivalent to measuring Alice's half and then
    /// Bob's half on their own (same two RNG draws, same
    /// distribution), via the fused two-qubit kernel
    /// [`DensityMatrix::measure_two_in_bases`]. Each basis comes with its
    /// phase, built once by the caller.
    pub fn measure_both_in_bases<R: Rng + ?Sized>(
        &mut self,
        basis_a: BasisPhase,
        basis_b: BasisPhase,
        rng: &mut R,
    ) -> (MeasurementOutcome, MeasurementOutcome) {
        self.tag = None;
        match self.frame {
            Some(f) => f.measure_in_bases(basis_a.angle(), basis_b.angle(), rng),
            None => self
                .rho
                .measure_two_in_bases(ALICE_QUBIT, basis_a, BOB_QUBIT, basis_b, rng),
        }
    }

    /// Performs a Bell-state measurement across the two halves (Bob's decoding measurement).
    pub fn bell_measure<R: Rng + ?Sized>(&mut self, rng: &mut R) -> BellOutcome {
        self.tag = None;
        match self.frame {
            // Frame-tracked pairs are in a definite Bell state: the BSM is
            // deterministic and needs no RNG draw and no density work.
            Some(f) => f.bell_outcome(),
            None => bell_measure_density(&mut self.rho, ALICE_QUBIT, BOB_QUBIT, rng),
        }
    }

    /// Measures both halves in the computational basis (used by some attack strategies).
    pub fn measure_computational<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (u8, u8) {
        self.tag = None;
        match self.frame {
            Some(f) => f.measure_computational(rng),
            None => self
                .rho
                .measure_two_computational(ALICE_QUBIT, BOB_QUBIT, rng),
        }
    }

    /// Fidelity of the pair with the ideal `|Φ+⟩` state.
    pub fn fidelity_phi_plus(&self) -> f64 {
        self.fidelity_with(BellState::PhiPlus)
    }

    /// Fidelity of the pair with an arbitrary Bell state.
    pub fn fidelity_with(&self, bell: BellState) -> f64 {
        match self.frame {
            Some(f) => {
                if f.state() == bell {
                    1.0
                } else {
                    0.0
                }
            }
            None => self.rho.fidelity_with_pure(&bell.statevector()),
        }
    }

    /// Purity of the two-qubit state.
    pub fn purity(&self) -> f64 {
        match self.frame {
            Some(_) => 1.0,
            None => self.rho.purity(),
        }
    }

    /// Returns `true` when the reduced state of either half is (close to) maximally mixed —
    /// a quick entanglement sanity check for tests.
    #[cfg(test)]
    pub(crate) fn halves_look_maximally_mixed(&self, tol: f64) -> bool {
        if self.frame.is_some() {
            // Every Bell state has maximally mixed halves.
            return true;
        }
        let a = self.rho.partial_trace(&[ALICE_QUBIT]);
        let b = self.rho.partial_trace(&[BOB_QUBIT]);
        (a.purity() - 0.5).abs() <= tol && (b.purity() - 0.5).abs() <= tol
    }
}

impl Default for EprPair {
    fn default() -> Self {
        Self::ideal()
    }
}

impl fmt::Display for EprPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EprPair(F(Φ+)={:.4}, purity={:.4})",
            self.fidelity_phi_plus(),
            self.purity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn ideal_pair_is_phi_plus() {
        let pair = EprPair::ideal();
        assert!((pair.fidelity_phi_plus() - 1.0).abs() < 1e-10);
        assert!((pair.purity() - 1.0).abs() < 1e-10);
        assert!(pair.halves_look_maximally_mixed(1e-9));
        assert_eq!(EprPair::default(), pair);
    }

    #[test]
    fn noisy_source_pairs_are_slightly_degraded() {
        let pair = EprPair::from_noisy_source(&DeviceModel::ibm_brisbane_like());
        let f = pair.fidelity_phi_plus();
        assert!(f < 1.0, "noisy source must not be perfect");
        assert!(f > 0.97, "but the degradation should be small, got {f}");
        let ideal = EprPair::from_noisy_source(&DeviceModel::ideal());
        assert!((ideal.fidelity_phi_plus() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn pauli_encoding_and_bell_measurement_round_trip() {
        let mut r = rng();
        for pauli in Pauli::ALL {
            let mut pair = EprPair::ideal();
            pair.apply_alice_pauli(pauli);
            let outcome = pair.bell_measure(&mut r);
            assert_eq!(outcome.state.encoding_pauli(), pauli);
        }
    }

    #[test]
    fn bob_side_encoding_composes_with_alice_side() {
        // Applying P on Alice's half and Q on Bob's half of Φ+ yields the Bell state of the
        // composed operator (because Q applied to Bob's half of Φ+ equals Qᵀ on Alice's half,
        // and our alphabet is real so Qᵀ ~ Q up to the global sign of iσy).
        let mut r = rng();
        for a in Pauli::ALL {
            for b in Pauli::ALL {
                let mut pair = EprPair::ideal();
                pair.apply_alice_pauli(a);
                pair.apply_bob_pauli(b);
                let outcome = pair.bell_measure(&mut r);
                assert_eq!(outcome.state.encoding_pauli(), a.compose(b));
            }
        }
    }

    #[test]
    fn separable_pairs_have_no_entanglement() {
        let pair = EprPair::separable(0, 1);
        assert!(!pair.halves_look_maximally_mixed(0.1));
        assert!((pair.fidelity_phi_plus() - 0.0).abs() < 1e-10);
        let mut r = rng();
        let mut pair = EprPair::separable(1, 1);
        assert_eq!(pair.measure_computational(&mut r), (1, 1));
    }

    #[test]
    fn basis_measurements_on_phi_plus_are_correlated_at_equal_angles() {
        // Measuring both halves of Φ+ in B(θ_A) and B(−θ_A) gives perfectly correlated ±1
        // outcomes (the conjugated-phase convention — see qsim::measurement).
        let mut r = rng();
        for _ in 0..50 {
            let mut pair = EprPair::ideal();
            let a = pair.measure_alice_in_basis(std::f64::consts::FRAC_PI_4, &mut r);
            let b = pair.measure_bob_in_basis(-std::f64::consts::FRAC_PI_4, &mut r);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn from_density_requires_two_qubits() {
        let rho = DensityMatrix::new(2);
        let pair = EprPair::from_density(rho);
        assert_eq!(pair.density().num_qubits(), 2);
    }

    #[test]
    #[should_panic(expected = "exactly two qubits")]
    fn from_density_rejects_wrong_size() {
        let _ = EprPair::from_density(DensityMatrix::new(3));
    }

    #[test]
    fn frame_tracked_pairs_match_density_semantics() {
        let mut r = rng();
        for a in Pauli::ALL {
            for b in Pauli::ALL {
                let mut framed = EprPair::ideal();
                framed.reset_frame_ideal();
                assert!(framed.is_frame_tracked());
                framed.apply_alice_pauli(a);
                framed.apply_bob_pauli(b);

                let mut dense = EprPair::ideal();
                dense.apply_alice_pauli(a);
                dense.apply_bob_pauli(b);

                // Logical-state equality across representations.
                assert_eq!(framed, dense);
                assert_eq!(dense, framed);
                let outcome = framed.bell_measure(&mut r);
                assert_eq!(outcome.state.encoding_pauli(), a.compose(b));
                assert_eq!(outcome, dense.bell_measure(&mut r));
                assert_eq!(framed.fidelity_with(outcome.state), 1.0);
                assert!((framed.purity() - 1.0).abs() < 1e-12);
                assert!(framed.halves_look_maximally_mixed(1e-9));
            }
        }
    }

    #[test]
    fn materialisation_recovers_the_bell_density() {
        let mut pair = EprPair::ideal();
        pair.reset_frame_ideal();
        pair.apply_alice_pauli(Pauli::X);
        // density_mut materialises Ψ+ into the stale buffer and drops the frame.
        let rho = pair.density_mut().clone();
        assert!(!pair.is_frame_tracked());
        assert_eq!(&rho, BellState::PsiPlus.density_ref());
        assert!((pair.fidelity_with(BellState::PsiPlus) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn density_view_of_frame_tracked_pair_panics() {
        let mut pair = EprPair::ideal();
        pair.reset_frame_ideal();
        let _ = pair.density();
    }

    #[test]
    fn twirl_to_frame_projects_onto_the_bell_diagonal() {
        let mut r = rng();
        // A pure Bell state twirls to itself, deterministically.
        for bell in [
            BellState::PhiPlus,
            BellState::PhiMinus,
            BellState::PsiPlus,
            BellState::PsiMinus,
        ] {
            let mut pair = EprPair::from_density(bell.density_ref().clone());
            pair.twirl_to_frame(&mut r);
            assert_eq!(pair.frame().unwrap().state(), bell);
            // Idempotent on frame-tracked pairs.
            pair.twirl_to_frame(&mut r);
            assert_eq!(pair.frame().unwrap().state(), bell);
        }
        // A separable |00⟩⊗⟨00| state has Bell diagonal (1/2, 1/2, 0, 0):
        // the twirl never lands on a Ψ label.
        let mut phi = 0usize;
        for _ in 0..200 {
            let mut pair = EprPair::separable(0, 0);
            pair.twirl_to_frame(&mut r);
            match pair.frame().unwrap().state() {
                BellState::PhiPlus | BellState::PhiMinus => phi += 1,
                other => panic!("|00⟩ must twirl to a Φ label, got {other:?}"),
            }
        }
        assert_eq!(phi, 200);
    }

    #[test]
    fn serde_round_trip_materialises_the_frame() {
        use serde::{Deserialize as _, Serialize as _};
        let mut pair = EprPair::ideal();
        pair.reset_frame_ideal();
        pair.apply_alice_pauli(Pauli::Z);
        let value = pair.to_value();
        let back = EprPair::from_value(&value).unwrap();
        assert!(!back.is_frame_tracked());
        assert_eq!(back, pair, "wire shape carries the logical state");
    }

    #[test]
    fn set_exact_clears_the_frame() {
        let mut pair = EprPair::ideal();
        pair.reset_frame_ideal();
        pair.apply_alice_pauli(Pauli::X);
        let tag = Provenance {
            state: ExactState::Emitted,
            program: 0,
        };
        pair.set_exact(ideal_rho(), tag);
        assert!(!pair.is_frame_tracked());
        assert_eq!(pair.provenance(), Some(tag));
        assert!((pair.fidelity_phi_plus() - 1.0).abs() < 1e-12);
        // And reset_frame_ideal reuses an existing frame in place.
        pair.reset_frame_ideal();
        pair.apply_bob_pauli(Pauli::IY);
        pair.reset_frame_ideal();
        assert_eq!(pair.frame().unwrap().state(), BellState::PhiPlus);
    }

    #[test]
    fn frame_measurements_are_statistically_faithful() {
        // CHSH-style correlator check: frame-tracked measurement at angles
        // (θa, θb) must reproduce the analytic cos(θa + θb) correlation.
        let mut r = rng();
        let (ta, tb) = (0.3, -0.9);
        let trials = 4000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let mut pair = EprPair::ideal();
            pair.reset_frame_ideal();
            let (a, b) =
                pair.measure_both_in_bases(BasisPhase::new(ta), BasisPhase::new(tb), &mut r);
            sum += a.value() * b.value();
        }
        let expect = (ta + tb).cos();
        let got = sum / trials as f64;
        assert!(
            (got - expect).abs() < 0.05,
            "frame correlator {got} vs analytic {expect}"
        );
    }

    #[test]
    fn display_and_accessors() {
        let mut pair = EprPair::ideal();
        assert!(pair.to_string().contains("F(Φ+)"));
        pair.density_mut()
            .apply_single(&qsim::gates::pauli_x(), ALICE_QUBIT);
        assert!((pair.fidelity_with(BellState::PsiPlus) - 1.0).abs() < 1e-10);
        let rho = pair.into_density();
        assert_eq!(rho.num_qubits(), 2);
    }
}
