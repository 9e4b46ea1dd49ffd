//! Pauli twirling: projecting Kraus channels onto Pauli channels.
//!
//! Twirling a channel `Λ` over the Pauli group replaces it by the average
//! `Λ_T(ρ) = (1/4ⁿ) Σ_P P† Λ(P ρ P†) P`, which is always a **Pauli
//! channel**: a classical probability distribution over Pauli errors,
//!
//! ```text
//! Λ_T(ρ) = Σ_P p_P · P ρ P†,   p_P = |Tr(P K_i)|² summed over i, / d².
//! ```
//!
//! The twirled probabilities are exactly the diagonal of the channel's χ
//! (process) matrix in the Pauli basis; the off-diagonal χ entries are what
//! twirling discards. A channel therefore **equals its twirl** — twirling
//! is lossless — iff its χ matrix is already diagonal. The reproduction's
//! device model splits cleanly along that line: the depolarizing gate
//! channels and bit-flip state-prep errors are Pauli-diagonal (exact),
//! while thermal relaxation carries amplitude damping whose `|0⟩⟨1|` jump
//! operator has off-diagonal χ weight (approximate).
//!
//! [`TwirledChannel`] precomputes the probability vector once per placement
//! with a cumulative table for `O(log k)` sampling. [`PauliDistribution`]
//! is its pushforward onto the Klein four-group action on a Bell label
//! (`I, σz, σx, iσy` on either half of an EPR pair): 4 probabilities that
//! can be **convolved** — composing independent Pauli channels multiplies
//! group elements, i.e. XOR-convolves distributions — so a whole η-gate
//! transmission chain collapses to one precomputed table and one draw.

use crate::compiled::CompiledChannel;
use crate::kraus::KrausChannel;
use mathkit::complex::Complex64;
use mathkit::matrix::CMatrix;
use qsim::pauli::Pauli;
use rand::Rng;
use std::fmt;

/// Scaled tolerance for "is this χ entry zero": generous against f64
/// accumulation over 16-operator channels, far below any physical rate.
const CHI_ZERO_TOL: f64 = 1e-9;

/// The trace `Tr(P · K)` of a Pauli-product against a Kraus operator.
fn pauli_trace(pauli_product: &CMatrix, k: &CMatrix) -> Complex64 {
    let dim = k.rows();
    let p = pauli_product.as_slice();
    let m = k.as_slice();
    let mut sum = Complex64::ZERO;
    for i in 0..dim {
        for j in 0..dim {
            sum += p[i * dim + j] * m[j * dim + i];
        }
    }
    sum
}

/// The tensor product of per-qubit Paulis for a base-4 multi-index, first
/// qubit as the most significant digit.
fn pauli_product_matrix(index: usize, num_qubits: usize) -> CMatrix {
    let mut m: Option<CMatrix> = None;
    for q in 0..num_qubits {
        let digit = (index >> (2 * (num_qubits - 1 - q))) & 0b11;
        let factor = Pauli::from_index(digit as u8).matrix();
        m = Some(match m {
            None => factor,
            Some(acc) => acc.kron(&factor),
        });
    }
    m.expect("at least one qubit")
}

/// The Klein four-group element a Pauli multi-index acts as on a Bell
/// label: the composition of its per-qubit digits (a Pauli on *either*
/// half of an EPR pair XORs the label the same way, so only the product
/// matters).
fn frame_mask(index: usize, num_qubits: usize) -> Pauli {
    let mut mask = Pauli::I;
    for q in 0..num_qubits {
        let digit = (index >> (2 * (num_qubits - 1 - q))) & 0b11;
        mask = mask.compose(Pauli::from_index(digit as u8));
    }
    mask
}

/// A Kraus channel lowered to its Pauli twirl: a probability vector over
/// the `4ⁿ` Pauli products on the channel's qubits.
///
/// Build with [`KrausChannel::twirl`] or [`CompiledChannel::twirl`].
///
/// # Examples
///
/// ```rust
/// use noise::KrausChannel;
///
/// let twirled = KrausChannel::depolarizing(0.1).twirl();
/// // Depolarizing is already a Pauli channel: twirling is lossless.
/// assert!(twirled.is_exact());
/// assert!((twirled.probability(0) - (1.0 - 3.0 * 0.1 / 4.0)).abs() < 1e-12);
///
/// let damped = KrausChannel::amplitude_damping(0.2).twirl();
/// // Amplitude damping has off-diagonal χ weight: twirling approximates.
/// assert!(!damped.is_exact());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TwirledChannel {
    name: String,
    num_qubits: usize,
    probs: Vec<f64>,
    cumulative: Vec<f64>,
    frame_masks: Vec<Pauli>,
    exact: bool,
}

impl TwirledChannel {
    // detlint: allow(hot-path-alloc): compile-time twirl derivation; trials only index the finished tables
    pub(crate) fn of(channel: &KrausChannel) -> Self {
        let num_qubits = channel.num_qubits();
        let dim = channel.dim();
        let size = 1usize << (2 * num_qubits);
        // One Pauli trace per (multi-index, Kraus operator).
        let traces: Vec<Vec<Complex64>> = (0..size)
            .map(|p| {
                let pm = pauli_product_matrix(p, num_qubits);
                channel
                    .operators()
                    .iter()
                    .map(|k| pauli_trace(&pm, k))
                    .collect()
            })
            .collect();
        let d2 = (dim * dim) as f64;
        let probs: Vec<f64> = traces
            .iter()
            .map(|row| row.iter().map(|t| t.norm_sqr()).sum::<f64>() / d2)
            .collect();
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "twirl of `{}` is not a probability distribution (sum {total})",
            channel.name()
        );
        // χ off-diagonals: Σ_i Tr(P K_i) · conj(Tr(Q K_i)). The iσy phase of
        // our alphabet only rotates rows/columns, so zero-ness is unaffected.
        let exact = (0..size).all(|p| {
            (p + 1..size).all(|q| {
                let chi: Complex64 = traces[p]
                    .iter()
                    .zip(&traces[q])
                    .map(|(a, b)| *a * b.conj())
                    .fold(Complex64::ZERO, |acc, z| acc + z);
                chi.norm() / d2 < CHI_ZERO_TOL
            })
        });
        let mut cumulative = Vec::with_capacity(size);
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cumulative.push(acc);
        }
        let frame_masks = (0..size).map(|i| frame_mask(i, num_qubits)).collect();
        Self {
            name: format!("twirl({})", channel.name()),
            num_qubits,
            probs,
            cumulative,
            frame_masks,
            exact,
        }
    }

    /// Name of the twirled channel (derived from the source channel).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits the channel acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of Pauli products (`4ⁿ`).
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Always false: a twirl has at least one Pauli product.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The probability of the Pauli product with the given base-4
    /// multi-index (per-qubit digits in `I, σz, σx, iσy` order, first
    /// qubit most significant).
    pub fn probability(&self, index: usize) -> f64 {
        self.probs[index]
    }

    /// The full probability vector.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// `true` when the source channel already was a Pauli channel, so the
    /// twirl reproduces it **exactly**; `false` when off-diagonal χ weight
    /// was discarded and the twirl is an approximation.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Samples a Pauli-product multi-index — one `f64` draw, `O(log 4ⁿ)`
    /// binary search over the cumulative table.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let r = rng.gen::<f64>();
        self.cumulative
            .partition_point(|&c| c <= r)
            .min(self.probs.len() - 1)
    }

    /// The pushforward of this channel onto the Klein four-group action on
    /// a Bell label: multiple Pauli products can act as the same label
    /// relabelling (e.g. `X ⊗ X` acts as identity on `|Φ+⟩`), so the
    /// 4-element distribution is the exact per-pair sampling object.
    pub fn frame_distribution(&self) -> PauliDistribution {
        let mut probs = [0.0; 4];
        for (i, &p) in self.probs.iter().enumerate() {
            probs[self.frame_masks[i].to_index() as usize] += p;
        }
        PauliDistribution::from_probs(probs)
    }
}

impl fmt::Display for TwirledChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} Pauli products, {})",
            self.name,
            self.len(),
            if self.exact { "exact" } else { "approximate" }
        )
    }
}

impl KrausChannel {
    /// Projects this channel onto its Pauli twirl (see the module docs).
    pub fn twirl(&self) -> TwirledChannel {
        TwirledChannel::of(self)
    }
}

impl CompiledChannel {
    /// The Pauli twirl of this placement's source channel.
    pub fn twirl(&self) -> TwirledChannel {
        self.source_channel().twirl()
    }
}

/// A probability distribution over the Klein four-group `{I, σz, σx, iσy}`
/// acting on a Bell label, with its cumulative table.
///
/// This is the per-pair sampling unit of the Pauli-frame substrate. Its
/// algebra is the group algebra of the Klein four-group: composing two
/// independent Pauli channels XOR-convolves their distributions, so a chain
/// of channels — even an η-gate transmission line — folds into **one**
/// distribution at compile time and costs one draw per pair at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauliDistribution {
    probs: [f64; 4],
    cumulative: [f64; 4],
}

impl PauliDistribution {
    /// The distribution concentrated on one Pauli (the identity of the
    /// convolution algebra when `pauli` is `I`).
    pub(crate) fn point_mass(pauli: Pauli) -> Self {
        let mut probs = [0.0; 4];
        probs[pauli.to_index() as usize] = 1.0;
        Self::from_probs(probs)
    }

    /// Builds a distribution from probabilities in [`Pauli::ALL`] order.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are negative or do not sum to 1 within
    /// `1e-6`.
    pub(crate) fn from_probs(probs: [f64; 4]) -> Self {
        assert!(
            probs.iter().all(|&p| p >= -1e-12),
            "negative probability in {probs:?}"
        );
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "probabilities sum to {total}, not 1"
        );
        let mut cumulative = [0.0; 4];
        let mut acc = 0.0;
        for (c, &p) in cumulative.iter_mut().zip(&probs) {
            acc += p;
            *c = acc;
        }
        Self { probs, cumulative }
    }

    /// The probabilities in [`Pauli::ALL`] order.
    pub fn probabilities(&self) -> [f64; 4] {
        self.probs
    }

    /// `true` when the distribution is (numerically) all identity — the
    /// sampling fast path can skip the draw entirely.
    pub fn is_trivial(&self) -> bool {
        self.probs[0] >= 1.0
    }

    /// Convolution over the Klein four-group: the distribution of
    /// `P ∘ Q` with `P ~ self`, `Q ~ other` — the composition law of
    /// independent Pauli channels.
    #[must_use]
    pub fn convolve(&self, other: &PauliDistribution) -> PauliDistribution {
        let mut probs = [0.0; 4];
        for (i, &a) in self.probs.iter().enumerate() {
            for (j, &b) in other.probs.iter().enumerate() {
                let k = Pauli::from_index(i as u8)
                    .compose(Pauli::from_index(j as u8))
                    .to_index() as usize;
                probs[k] += a * b;
            }
        }
        // Convolution preserves normalisation exactly up to rounding; feed
        // through the constructor to rebuild the cumulative table.
        PauliDistribution::from_probs(probs)
    }

    /// The `n`-fold convolution power — `n` independent applications of
    /// this channel, computed by repeated squaring (`O(log n)` convolutions
    /// at compile time instead of `n` draws per pair at run time).
    #[must_use]
    pub fn convolution_power(&self, n: usize) -> PauliDistribution {
        let mut result = PauliDistribution::point_mass(Pauli::I);
        let mut base = *self;
        let mut exp = n;
        while exp > 0 {
            if exp & 1 == 1 {
                result = result.convolve(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.convolve(&base);
            }
        }
        result
    }

    /// Samples one Pauli — a single `f64` draw against the cumulative
    /// table (at most three comparisons).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli {
        let r = rng.gen::<f64>();
        let index = self.cumulative.partition_point(|&c| c <= r).min(3);
        Pauli::from_index(index as u8)
    }
}

impl Default for PauliDistribution {
    fn default() -> Self {
        Self::point_mass(Pauli::I)
    }
}

impl fmt::Display for PauliDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PauliDistribution[I={:.4}, Z={:.4}, X={:.4}, iY={:.4}]",
            self.probs[0], self.probs[1], self.probs[2], self.probs[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::density::DensityMatrix;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Applies the twirled channel exactly: Σ_P p_P · P ρ P†.
    fn apply_twirled(twirled: &TwirledChannel, rho: &DensityMatrix) -> CMatrix {
        let dim = 1usize << twirled.num_qubits();
        let mut out = CMatrix::zeros(dim, dim);
        for index in 0..twirled.len() {
            let p = pauli_product_matrix(index, twirled.num_qubits());
            let term = p.matmul(rho.matrix()).matmul(&p.adjoint());
            out = &out + &term.scale(Complex64::real(twirled.probability(index)));
        }
        out
    }

    /// Applies the group-averaged twirl of `channel` exactly:
    /// (1/4ⁿ) Σ_P P† Λ(P ρ P†) P. Pauli conjugation is unitary, so every
    /// intermediate stays a valid density matrix.
    fn apply_group_average(channel: &KrausChannel, rho: &DensityMatrix) -> CMatrix {
        let n = channel.num_qubits();
        let dim = channel.dim();
        let size = 1usize << (2 * n);
        let mut out = CMatrix::zeros(dim, dim);
        let qubits: Vec<usize> = (0..n).collect();
        for index in 0..size {
            let p = pauli_product_matrix(index, n);
            let conjugated = p.matmul(rho.matrix()).matmul(&p.adjoint());
            let mut inner =
                DensityMatrix::from_matrix(conjugated).expect("Pauli conjugation preserves states");
            channel.apply(&mut inner, &qubits);
            let back = p.adjoint().matmul(inner.matrix()).matmul(&p);
            out = &out + &back.scale(Complex64::real(1.0 / size as f64));
        }
        out
    }

    #[test]
    fn pauli_diagonal_channels_twirl_exactly() {
        for channel in [
            KrausChannel::identity(),
            KrausChannel::depolarizing(0.3),
            KrausChannel::bit_flip(0.2),
            KrausChannel::phase_flip(0.4),
            KrausChannel::depolarizing_two_qubit(0.15),
        ] {
            let twirled = channel.twirl();
            assert!(twirled.is_exact(), "{channel} should twirl exactly");
            let total: f64 = twirled.probabilities().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn damping_channels_twirl_approximately() {
        for channel in [
            KrausChannel::amplitude_damping(0.3),
            KrausChannel::thermal_relaxation(233.04, 145.75, 6000.0),
        ] {
            let twirled = channel.twirl();
            assert!(!twirled.is_exact(), "{channel} has off-diagonal χ weight");
        }
        // Pure dephasing is diagonal: phase damping twirls exactly to a
        // phase-flip channel.
        assert!(KrausChannel::phase_damping(0.3).twirl().is_exact());
    }

    #[test]
    fn depolarizing_probabilities_are_the_textbook_rates() {
        let p = 0.2;
        let twirled = KrausChannel::depolarizing(p).twirl();
        assert!(
            (twirled.probability(Pauli::I.to_index() as usize) - (1.0 - 3.0 * p / 4.0)).abs()
                < 1e-12
        );
        for pauli in [Pauli::Z, Pauli::X, Pauli::IY] {
            assert!((twirled.probability(pauli.to_index() as usize) - p / 4.0).abs() < 1e-12);
        }
        assert_eq!(twirled.len(), 4);
        assert_eq!(twirled.num_qubits(), 1);
        assert!(!twirled.is_empty());
        assert!(twirled.to_string().contains("exact"));
    }

    #[test]
    fn twirled_channel_is_the_group_averaged_channel() {
        // The probability-vector lowering must agree with the literal
        // group average (1/4ⁿ) Σ_P P† Λ(P ρ P†) P on arbitrary states —
        // including for channels where twirling is approximate.
        let mut r = rng(21);
        let channels = [
            KrausChannel::amplitude_damping(0.35),
            KrausChannel::thermal_relaxation(233.04, 145.75, 3000.0),
            KrausChannel::depolarizing(0.25),
        ];
        for channel in &channels {
            let twirled = channel.twirl();
            for _ in 0..6 {
                let rho = random_density(&mut r);
                let a = apply_twirled(&twirled, &rho);
                let b = apply_group_average(channel, &rho);
                assert!(
                    a.approx_eq(&b, 1e-9),
                    "twirl lowering disagrees with group average for {channel}"
                );
            }
            let mixed = DensityMatrix::maximally_mixed(1);
            assert!(apply_twirled(&twirled, &mixed)
                .approx_eq(&apply_group_average(channel, &mixed), 1e-9));
        }
    }

    fn random_density(r: &mut rand::rngs::StdRng) -> DensityMatrix {
        use qsim::statevector::StateVector;
        let mut psi = StateVector::new(1);
        psi.apply_single(&qsim::gates::ry(r.gen::<f64>() * std::f64::consts::PI), 0);
        psi.apply_single(&qsim::gates::rz(r.gen::<f64>() * std::f64::consts::TAU), 0);
        DensityMatrix::from_statevector(&psi)
    }

    #[test]
    fn sampling_follows_the_probability_vector() {
        let mut r = rng(4);
        let twirled = KrausChannel::depolarizing(0.4).twirl();
        let mut counts = [0usize; 4];
        let n = 20_000;
        for _ in 0..n {
            counts[twirled.sample(&mut r)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frequency = c as f64 / n as f64;
            assert!(
                (frequency - twirled.probability(i)).abs() < 0.02,
                "index {i}: frequency {frequency} vs probability {}",
                twirled.probability(i)
            );
        }
    }

    #[test]
    fn frame_distribution_folds_two_qubit_products() {
        // X⊗X, Y⊗Y, Z⊗Z all act trivially on a Bell label; the two-qubit
        // depolarizing pushforward must reflect that.
        let p = 0.16;
        let twirled = KrausChannel::depolarizing_two_qubit(p).twirl();
        let frame = twirled.frame_distribution();
        let probs = frame.probabilities();
        // p(I-action) = (1 − 15p/16) + 3·(p/16); the rest splits evenly.
        assert!((probs[0] - (1.0 - 15.0 * p / 16.0 + 3.0 * p / 16.0)).abs() < 1e-12);
        for prob in probs.iter().skip(1) {
            assert!((prob - 4.0 * p / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_matches_channel_composition() {
        let a = KrausChannel::bit_flip(0.2).twirl().frame_distribution();
        let b = KrausChannel::phase_flip(0.3).twirl().frame_distribution();
        let composed = KrausChannel::bit_flip(0.2)
            .compose(&KrausChannel::phase_flip(0.3))
            .twirl()
            .frame_distribution();
        let convolved = a.convolve(&b);
        for k in 0..4 {
            assert!(
                (convolved.probabilities()[k] - composed.probabilities()[k]).abs() < 1e-12,
                "index {k}"
            );
        }
    }

    #[test]
    fn convolution_power_matches_repeated_convolution() {
        let step = KrausChannel::depolarizing(0.01)
            .twirl()
            .frame_distribution();
        let mut manual = PauliDistribution::point_mass(Pauli::I);
        for _ in 0..25 {
            manual = manual.convolve(&step);
        }
        let fast = step.convolution_power(25);
        for k in 0..4 {
            assert!((manual.probabilities()[k] - fast.probabilities()[k]).abs() < 1e-12);
        }
        // Zero power is the identity of the algebra.
        assert!(step.convolution_power(0).is_trivial());
        assert!(PauliDistribution::default().is_trivial());
        assert!(!step.is_trivial());
    }

    #[test]
    fn distribution_sampling_follows_probabilities() {
        let mut r = rng(6);
        let dist = PauliDistribution::from_probs([0.55, 0.25, 0.15, 0.05]);
        let mut counts = [0usize; 4];
        let n = 20_000;
        for _ in 0..n {
            counts[dist.sample(&mut r).to_index() as usize] += 1;
        }
        for (k, count) in counts.iter().enumerate() {
            let freq = *count as f64 / n as f64;
            assert!(
                (freq - dist.probabilities()[k]).abs() < 0.02,
                "Pauli {k}: {freq}"
            );
        }
        assert!(dist.to_string().contains("0.55"));
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn from_probs_rejects_unnormalised_input() {
        let _ = PauliDistribution::from_probs([0.5, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn compiled_placement_twirl_matches_the_channel_twirl() {
        let channel = KrausChannel::depolarizing(0.1);
        let compiled = channel.compile(&[1], 2);
        assert_eq!(
            compiled.twirl().probabilities(),
            channel.twirl().probabilities()
        );
        assert!(compiled.twirl().is_exact());
    }
}
