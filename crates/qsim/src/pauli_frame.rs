//! Pauli-frame (stabilizer) tracking of EPR pairs.
//!
//! Under Pauli noise and the protocol's Clifford data path, a `|Φ+⟩` pair
//! never leaves the set of four Bell states: every operation either relabels
//! the state (a Pauli on either half — the Klein four-group action of
//! [`BellState::after_pauli`]) or reads it out. A [`PauliFrame`] exploits
//! that closure by storing **only the Bell label** — two bits — instead of a
//! 4×4 complex density matrix, and replaces every per-pair kernel with
//! integer/bitmask updates plus (for the CHSH measurements) one analytic
//! cosine.
//!
//! This is the substrate behind the engine's `pauli-twirled` backend: noise
//! channels are first projected onto Pauli channels (see `noise::twirl`),
//! after which frame tracking is *exact* — the sampled Bell-label
//! distribution equals the Bell-diagonal of the twirled density matrix.
//!
//! ## Measurement conventions
//!
//! All samplers reproduce the distributions of the density-matrix kernels
//! on Bell-diagonal states:
//!
//! - equatorial correlators follow the conjugated-phase convention of
//!   [`crate::measurement`]: a pair in Bell state with flip bit `f` and
//!   phase bit `p` measured in bases `B(θ_a) ⊗ B(θ_b)` has
//!   `E = (−1)^p · cos(θ_a + (−1)^f · θ_b)` with uniform ±1 marginals;
//! - computational-basis outcomes are uniform with `b = a ⊕ f`;
//! - a Bell-state measurement on a definite Bell state is deterministic.
//!
//! A frame is **consumed** by measurement: the samplers return outcomes
//! without modelling the collapsed post-measurement product state (the
//! protocol never touches a pair again after measuring it).

use crate::bell::{BellOutcome, BellState};
use crate::measurement::MeasurementOutcome;
use crate::pauli::Pauli;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The Pauli frame of one EPR pair: its current Bell label.
///
/// # Examples
///
/// ```rust
/// use qsim::pauli_frame::PauliFrame;
/// use qsim::pauli::Pauli;
/// use qsim::bell::BellState;
///
/// let mut frame = PauliFrame::ideal();
/// frame.apply_pauli(Pauli::X);
/// assert_eq!(frame.state(), BellState::PsiPlus);
/// // Applying the same Pauli on the other half undoes the relabelling.
/// frame.apply_pauli(Pauli::X);
/// assert_eq!(frame.state(), BellState::PhiPlus);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PauliFrame {
    state: BellState,
}

impl PauliFrame {
    /// A fresh `|Φ+⟩` frame — what the ideal source emits.
    pub fn ideal() -> Self {
        Self {
            state: BellState::PhiPlus,
        }
    }

    /// Wraps an arbitrary Bell label.
    pub fn new(state: BellState) -> Self {
        Self { state }
    }

    /// The Bell state this frame currently labels.
    pub fn state(self) -> BellState {
        self.state
    }

    /// The `(flip, phase)` bits of the current label.
    pub(crate) fn bits(self) -> (bool, bool) {
        self.state.encoding_pauli().to_bits()
    }

    /// Resets the frame to `|Φ+⟩` in place.
    pub fn reset(&mut self) {
        self.state = BellState::PhiPlus;
    }

    /// Applies a Pauli to **either half** of the pair.
    ///
    /// Up to global phase, `P ⊗ I` and `I ⊗ P` act identically on the Bell
    /// label (the transpose trick: `(I ⊗ P)|Φ+⟩ = (Pᵀ ⊗ I)|Φ+⟩`, and the
    /// alphabet `{I, σz, σx, iσy}` is real so `Pᵀ ~ P` up to sign), so a
    /// single XOR covers Alice-side encoding, Bob-side cover operations,
    /// and sampled channel noise on either qubit.
    pub fn apply_pauli(&mut self, pauli: Pauli) {
        self.state = self.state.after_pauli(pauli);
    }

    /// The equatorial CHSH correlator `E(θ_a, θ_b) = ⟨B(θ_a) ⊗ B(θ_b)⟩` of
    /// the current Bell state under the conjugated-phase convention of
    /// [`crate::measurement`].
    pub(crate) fn correlator(self, theta_a: f64, theta_b: f64) -> f64 {
        let (flip, phase) = self.bits();
        let sign = if phase { -1.0 } else { 1.0 };
        let b = if flip { -theta_b } else { theta_b };
        sign * (theta_a + b).cos()
    }

    /// Samples one CHSH record: Alice's outcome in `B(θ_a)`, then Bob's in
    /// `B(θ_b)` — the frame analogue of
    /// `DensityMatrix::measure_two_in_bases`. Exactly two `f64` draws.
    ///
    /// Alice's marginal is uniform (each half of a Bell state is maximally
    /// mixed); Bob then agrees with probability `(1 + E)/2`.
    pub fn measure_in_bases<R: Rng + ?Sized>(
        self,
        theta_a: f64,
        theta_b: f64,
        rng: &mut R,
    ) -> (MeasurementOutcome, MeasurementOutcome) {
        let bit_a = u8::from(rng.gen::<f64>() < 0.5);
        let p_same = (0.5 * (1.0 + self.correlator(theta_a, theta_b))).clamp(0.0, 1.0);
        let bit_b = if rng.gen::<f64>() < p_same {
            bit_a
        } else {
            bit_a ^ 1
        };
        (
            MeasurementOutcome::from_bit(bit_a),
            MeasurementOutcome::from_bit(bit_b),
        )
    }

    /// Samples a computational-basis readout of both halves. One `f64`
    /// draw: Alice's bit is uniform and Bob's is then fixed to
    /// `a ⊕ flip` (`Φ` states correlate, `Ψ` states anti-correlate).
    pub fn measure_computational<R: Rng + ?Sized>(self, rng: &mut R) -> (u8, u8) {
        let a = u8::from(rng.gen::<f64>() < 0.5);
        let (flip, _) = self.bits();
        (a, a ^ u8::from(flip))
    }

    /// The Bell-state measurement outcome of this frame. Deterministic — a
    /// BSM on a definite Bell state always identifies it — with the raw-bit
    /// convention of [`crate::bell::bell_measure`] (`bit_a` is the phase
    /// bit, `bit_b` the flip bit).
    pub fn bell_outcome(self) -> BellOutcome {
        let (flip, phase) = self.bits();
        BellOutcome {
            state: self.state,
            bit_a: u8::from(phase),
            bit_b: u8::from(flip),
        }
    }
}

impl Default for PauliFrame {
    fn default() -> Self {
        Self::ideal()
    }
}

impl fmt::Display for PauliFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PauliFrame({})", self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bell::bell_measure_density;
    use crate::density::DensityMatrix;
    use crate::measurement::MeasurementBasis;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn frame_tracks_the_klein_group_action_on_both_halves() {
        for start in BellState::ALL {
            for p in Pauli::ALL {
                let mut frame = PauliFrame::new(start);
                frame.apply_pauli(p);
                assert_eq!(frame.state(), start.after_pauli(p));
                // The same Pauli again (other half, same XOR) cancels.
                frame.apply_pauli(p);
                assert_eq!(frame.state(), start);
            }
        }
        let mut frame = PauliFrame::default();
        frame.apply_pauli(Pauli::IY);
        frame.reset();
        assert_eq!(frame.state(), BellState::PhiPlus);
        assert!(frame.to_string().contains("Φ+"));
    }

    #[test]
    fn correlators_match_the_density_matrix_expectation() {
        // E(θa, θb) from the analytic formula must match the exact
        // probability-weighted mean of the density-matrix sampler.
        let mut r = rng(3);
        let trials = 4000;
        for bell in BellState::ALL {
            for a in [MeasurementBasis::alice(0), MeasurementBasis::alice(2)] {
                for b in [MeasurementBasis::bob(1), MeasurementBasis::bob(2)] {
                    let frame = PauliFrame::new(bell);
                    let analytic = frame.correlator(a.angle(), b.angle());
                    let mut sum = 0.0;
                    for _ in 0..trials {
                        let mut rho = DensityMatrix::from_statevector(&bell.statevector());
                        let (oa, ob) = rho.measure_two_in_bases(0, a.into(), 1, b.into(), &mut r);
                        sum += oa.value() * ob.value();
                    }
                    let sampled = sum / trials as f64;
                    assert!(
                        (analytic - sampled).abs() < 0.06,
                        "{bell} {a:?}⊗{b:?}: analytic {analytic} vs density-sampled {sampled}"
                    );
                }
            }
        }
    }

    #[test]
    fn frame_sampler_agrees_with_its_own_correlator_and_has_uniform_marginals() {
        let mut r = rng(5);
        let trials = 6000;
        for bell in BellState::ALL {
            let frame = PauliFrame::new(bell);
            let (ta, tb) = (std::f64::consts::FRAC_PI_4, -std::f64::consts::FRAC_PI_4);
            let mut sum = 0.0;
            let mut alice_plus = 0usize;
            for _ in 0..trials {
                let (a, b) = frame.measure_in_bases(ta, tb, &mut r);
                sum += a.value() * b.value();
                alice_plus += usize::from(a == crate::measurement::MeasurementOutcome::Plus);
            }
            let e = sum / trials as f64;
            assert!(
                (e - frame.correlator(ta, tb)).abs() < 0.05,
                "{bell}: sampled {e} vs analytic {}",
                frame.correlator(ta, tb)
            );
            let marginal = alice_plus as f64 / trials as f64;
            assert!((marginal - 0.5).abs() < 0.05, "{bell}: marginal {marginal}");
        }
    }

    #[test]
    fn computational_readout_correlates_via_the_flip_bit() {
        let mut r = rng(7);
        for bell in BellState::ALL {
            let frame = PauliFrame::new(bell);
            let (flip, _) = frame.bits();
            let mut ones = 0usize;
            for _ in 0..2000 {
                let (a, b) = frame.measure_computational(&mut r);
                assert_eq!(b, a ^ u8::from(flip));
                ones += a as usize;
            }
            let frac = ones as f64 / 2000.0;
            assert!((frac - 0.5).abs() < 0.05, "{bell}: biased marginal {frac}");
        }
    }

    #[test]
    fn bell_outcome_matches_the_density_bsm_convention() {
        let mut r = rng(9);
        for bell in BellState::ALL {
            let outcome = PauliFrame::new(bell).bell_outcome();
            assert_eq!(outcome.state, bell);
            let mut rho = DensityMatrix::from_statevector(&bell.statevector());
            let reference = bell_measure_density(&mut rho, 0, 1, &mut r);
            assert_eq!(
                (outcome.bit_a, outcome.bit_b),
                (reference.bit_a, reference.bit_b)
            );
        }
    }
}
