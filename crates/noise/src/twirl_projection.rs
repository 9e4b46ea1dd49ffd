//! Properties of the Pauli twirl lowering ([`KrausChannel::twirl`]).
//!
//! The twirl of a channel is **defined** as the diagonal of its χ matrix in
//! the Pauli basis — equivalently, the Bell diagonal of its Choi state.
//! These properties pin that identity against the independent density-matrix
//! implementation: for random channels from the library's constructors, the
//! twirled probability vector must be a probability distribution, must equal
//! the Bell diagonal of `(Λ ⊗ I)|Φ⁺⟩⟨Φ⁺|` computed with the exact kernels,
//! and the exactness classification must match each constructor's known
//! χ structure. The Klein-group convolution algebra (the compile-time object
//! the frame backend samples from) must be commutative, associative, and
//! order-invariant, so folding an η-gate chain is independent of compile
//! order.

use crate::twirl::PauliDistribution;
use crate::KrausChannel;
use proptest::prelude::*;
use qsim::bell::{bell_diagonal_probabilities, BellState};
use qsim::density::DensityMatrix;
use qsim::pauli::Pauli;

/// A random channel from the library's constructors, avoiding the exact
/// boundary rates where amplitude damping degenerates to identity.
fn channel() -> impl Strategy<Value = KrausChannel> {
    prop_oneof![
        (0.0..1.0f64).prop_map(KrausChannel::depolarizing),
        (0.0..1.0f64).prop_map(KrausChannel::bit_flip),
        (0.0..1.0f64).prop_map(KrausChannel::phase_flip),
        (0.01..0.99f64).prop_map(KrausChannel::amplitude_damping),
        (0.0..1.0f64).prop_map(KrausChannel::phase_damping),
        (0.0..1.0f64).prop_map(KrausChannel::depolarizing_two_qubit),
    ]
}

/// The Bell diagonal of the channel's Choi state, computed with the exact
/// density kernels: the channel applied to one half (arity 1) or both halves
/// (arity 2) of `|Φ⁺⟩`.
fn choi_bell_diagonal(channel: &KrausChannel) -> [f64; 4] {
    let mut rho = DensityMatrix::from_statevector(&BellState::PhiPlus.statevector());
    match channel.num_qubits() {
        1 => channel.apply(&mut rho, &[0]),
        2 => channel.apply(&mut rho, &[0, 1]),
        other => panic!("no library channel has arity {other}"),
    }
    bell_diagonal_probabilities(&rho)
}

proptest! {
    /// The twirl is a probability distribution, and so is its pushforward
    /// onto the Klein four-group.
    #[test]
    fn twirl_is_a_probability_distribution(channel in channel()) {
        let twirled = channel.twirl();
        prop_assert!(twirled.probabilities().iter().all(|&p| p >= -1e-12));
        let total: f64 = twirled.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "probabilities sum to {total}");
        let frame: f64 = twirled.frame_distribution().probabilities().iter().sum();
        prop_assert!((frame - 1.0).abs() < 1e-9, "frame pushforward sums to {frame}");
    }

    /// The frame distribution equals the Bell diagonal of the Choi state.
    ///
    /// For a single-qubit channel this holds for **any** channel, exact or
    /// not: distinct Paulis move `|Φ⁺⟩` to orthogonal Bell states, so every
    /// discarded χ off-diagonal lands strictly off the Bell diagonal. For a
    /// two-qubit channel, products with equal Klein masks could interfere on
    /// the diagonal, so the identity is asserted only when the twirl is
    /// exact (the library's two-qubit channel is Pauli-diagonal, so in
    /// practice both arms are exercised).
    #[test]
    fn twirl_equals_the_bell_diagonal_of_the_choi_state(channel in channel()) {
        let twirled = channel.twirl();
        if channel.num_qubits() == 1 || twirled.is_exact() {
            let choi = choi_bell_diagonal(&channel);
            let frame = twirled.frame_distribution().probabilities();
            for (pauli, bell) in Pauli::ALL.into_iter().zip(BellState::ALL) {
                let (p, q) = (
                    frame[pauli.to_index() as usize],
                    choi[bell.to_index()],
                );
                prop_assert!(
                    (p - q).abs() < 1e-9,
                    "{pauli:?}/{bell:?}: twirl {p} vs Choi diagonal {q}"
                );
            }
        }
    }

    /// The exactness flag matches each constructor's known χ structure:
    /// Pauli-diagonal channels (and phase damping, whose *map* is a phase
    /// flip) twirl losslessly, amplitude damping never does.
    #[test]
    fn exactness_classification_matches_the_constructors(
        p in 0.0..1.0f64,
        gamma in 0.01..0.99f64,
    ) {
        prop_assert!(KrausChannel::depolarizing(p).twirl().is_exact());
        prop_assert!(KrausChannel::bit_flip(p).twirl().is_exact());
        prop_assert!(KrausChannel::phase_flip(p).twirl().is_exact());
        prop_assert!(KrausChannel::phase_damping(p).twirl().is_exact());
        prop_assert!(KrausChannel::depolarizing_two_qubit(p).twirl().is_exact());
        prop_assert!(!KrausChannel::amplitude_damping(gamma).twirl().is_exact());
    }

    /// The Klein-group convolution is commutative and associative within
    /// rounding, `point_mass(I)` is its identity, and folding a chain is
    /// invariant under compile order — the property the `TwirledProgram`
    /// compiler relies on when it folds placements in program order.
    #[test]
    fn convolution_is_an_order_invariant_abelian_monoid(
        a in channel(),
        b in channel(),
        c in channel(),
    ) {
        let (a, b, c) = (
            a.twirl().frame_distribution(),
            b.twirl().frame_distribution(),
            c.twirl().frame_distribution(),
        );
        let close = |x: PauliDistribution, y: PauliDistribution| {
            x.probabilities()
                .iter()
                .zip(y.probabilities())
                .all(|(p, q)| (p - q).abs() < 1e-12)
        };
        prop_assert!(close(a.convolve(&b), b.convolve(&a)));
        prop_assert!(close(a.convolve(&b).convolve(&c), a.convolve(&b.convolve(&c))));
        prop_assert!(close(a.convolve(&PauliDistribution::point_mass(Pauli::I)), a));
        // Every order of the three-element chain folds to the same table.
        let forward = a.convolve(&b).convolve(&c);
        prop_assert!(close(c.convolve(&a).convolve(&b), forward));
        prop_assert!(close(b.convolve(&c).convolve(&a), forward));
    }

    /// Repeated-squaring `convolution_power` matches the literal n-fold
    /// convolution — the η-gate chain collapse is not an approximation.
    #[test]
    fn convolution_power_matches_the_literal_chain(
        channel in channel(),
        eta in 0usize..40,
    ) {
        let step = channel.twirl().frame_distribution();
        let mut literal = PauliDistribution::point_mass(Pauli::I);
        for _ in 0..eta {
            literal = literal.convolve(&step);
        }
        let fast = step.convolution_power(eta);
        for (p, q) in literal.probabilities().iter().zip(fast.probabilities()) {
            prop_assert!((p - q).abs() < 1e-12);
        }
    }
}
