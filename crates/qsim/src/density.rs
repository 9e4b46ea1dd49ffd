//! Mixed-state (density-matrix) simulation.
//!
//! Noise makes pure-state simulation insufficient: the `ibm_brisbane`-style channel model is a
//! completely-positive trace-preserving (CPTP) map expressed with Kraus operators, so the
//! noisy executor in the `noise` crate runs on [`DensityMatrix`]. The representation is a
//! dense `2^n × 2^n` matrix; the protocol only ever needs a handful of qubits at a time
//! (EPR pairs plus the occasional eavesdropper ancilla), so this stays cheap.

use crate::error::QsimError;
use crate::gates;
use crate::measurement::{BasisPhase, MeasurementOutcome};
use crate::statevector::StateVector;
use mathkit::complex::Complex64;
use mathkit::matrix::CMatrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

thread_local! {
    /// Per-thread cache of DI-check basis rotations keyed by `θ.to_bits()`:
    /// `(θ, V(θ), V(θ)†)`. The protocol measures in a handful of fixed CHSH
    /// angles thousands of times per trial batch, so
    /// [`DensityMatrix::measure_in_basis`] builds each rotation once per
    /// thread instead of once per measurement.
    static BASIS_CACHE: RefCell<Vec<(u64, CMatrix, CMatrix)>> = const { RefCell::new(Vec::new()) };
}

/// Entries a `BASIS_CACHE` holds before falling back to per-call
/// construction (the protocol only ever uses four angles).
const BASIS_CACHE_CAP: usize = 32;

/// A mixed quantum state of `n` qubits represented by its density matrix.
///
/// Qubit ordering matches [`StateVector`]: qubit `0` is the most significant bit of a basis
/// index.
///
/// # Examples
///
/// ```rust
/// use qsim::density::DensityMatrix;
/// use qsim::statevector::StateVector;
/// use qsim::gates;
///
/// let mut psi = StateVector::new(2);
/// psi.apply_single(&gates::hadamard(), 0);
/// psi.apply_two(&gates::cnot(), 0, 1);
/// let rho = DensityMatrix::from_statevector(&psi);
/// assert!((rho.purity() - 1.0).abs() < 1e-10);
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: CMatrix,
}

impl Clone for DensityMatrix {
    fn clone(&self) -> Self {
        Self {
            num_qubits: self.num_qubits,
            rho: self.rho.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s matrix buffer — the
    /// allocation-free reset the per-trial pair pool relies on.
    fn clone_from(&mut self, source: &Self) {
        self.num_qubits = source.num_qubits;
        self.rho.clone_from(&source.rho);
    }
}

/// Embeds a `2^k`-dimensional operator acting on `qubits` into the full `2^n`-dimensional
/// space, with identity on all other qubits. The first entry of `qubits` is the most
/// significant bit of the operator's basis ordering.
pub(crate) fn embed_operator(op: &CMatrix, qubits: &[usize], num_qubits: usize) -> CMatrix {
    let k = qubits.len();
    let dim = 1usize << num_qubits;
    let shifts: Vec<usize> = qubits.iter().map(|&q| num_qubits - 1 - q).collect();
    let target_mask: usize = shifts.iter().map(|&s| 1usize << s).sum();
    let mut full = CMatrix::zeros(dim, dim);
    for row in 0..dim {
        // Sub-index of the target qubits within this row.
        let mut row_sub = 0usize;
        for (bit_pos, &shift) in shifts.iter().enumerate() {
            if row & (1 << shift) != 0 {
                row_sub |= 1 << (k - 1 - bit_pos);
            }
        }
        let row_rest = row & !target_mask;
        for col_sub in 0..(1usize << k) {
            let val = op[(row_sub, col_sub)];
            if val == Complex64::ZERO {
                continue;
            }
            let mut col = row_rest;
            for (bit_pos, &shift) in shifts.iter().enumerate() {
                if col_sub & (1 << (k - 1 - bit_pos)) != 0 {
                    col |= 1 << shift;
                }
            }
            full[(row, col)] = val;
        }
    }
    full
}

/// The 4×4 storage of a two-qubit register, for the fixed-size kernels.
fn pair_ref(state: &DensityMatrix) -> Option<&[Complex64; 16]> {
    (state.num_qubits == 2).then(|| {
        state
            .rho
            .as_slice()
            .try_into()
            .expect("a two-qubit density matrix has 16 entries")
    })
}

/// Mutable [`pair_ref`].
pub(crate) fn pair_mut(state: &mut DensityMatrix) -> Option<&mut [Complex64; 16]> {
    (state.num_qubits == 2).then(|| {
        state
            .rho
            .as_mut_slice()
            .try_into()
            .expect("a two-qubit density matrix has 16 entries")
    })
}

// The two-qubit kernels below are generic over the measured qubit's bit in
// a basis index (`MASK`: 2 for qubit 0, 1 for qubit 1) or over both qubits'
// strides (`SA`, `SB`), so every index is a constant. Each one performs the
// floating-point operations of its any-size body in the same order, so the
// results agree to the bit (`crate::kernel_identity` checks this). The steps
// the pair measurement shares with its outcome tables are inlined: called
// through, they cost the kernel ~7% per measured pair.

/// [`DensityMatrix::probability_one`] on a two-qubit register: the same
/// two diagonal entries, summed by the same `Sum`.
fn probability_one_pair<const MASK: usize>(rho: &[Complex64; 16]) -> f64 {
    [MASK, MASK | (3 ^ MASK)]
        .into_iter()
        .map(|i| rho[i * 5].re)
        .sum()
}

/// [`DensityMatrix::collapse`] on a two-qubit register. The kept block is
/// rows and columns `k0 < k1`, the two indices whose `MASK` bit equals
/// `outcome`.
fn collapse_pair<const MASK: usize>(rho: &mut [Complex64; 16], qubit: usize, outcome: u8) {
    let k0 = if outcome == 1 { MASK } else { 0 };
    let k1 = k0 | (3 ^ MASK);
    let mut p = 0.0;
    p += rho[k0 * 5].re;
    p += rho[k1 * 5].re;
    assert!(
        p > 1e-12,
        "collapse onto a zero-probability outcome (qubit {qubit}, outcome {outcome})"
    );
    let factor = Complex64::real(1.0 / p);
    let kept = [k0 * 4 + k0, k0 * 4 + k1, k1 * 4 + k0, k1 * 4 + k1];
    let values = kept.map(|at| rho[at] * factor);
    rho.fill(Complex64::ZERO);
    for (at, value) in kept.into_iter().zip(values) {
        rho[at] = value;
    }
}

/// Alice's side of [`DensityMatrix::measure_two_in_bases`] on a two-qubit
/// register whose measured qubits have basis-index strides `SA` (Alice's
/// side of the record) and `SB`: `(Tr ρ, p(a = 1))`.
#[inline(always)]
fn alice_one_probability<const SA: usize, const SB: usize>(
    rho: &[Complex64; 16],
    e_a: Complex64,
) -> (f64, f64) {
    let idx = |x: usize, y: usize| x * SA + y * SB;
    // Measuring in B(θ) is projecting onto the rank-1 projector
    // P_m(θ) = |v_m⟩⟨v_m| with v_m(θ) = (|0⟩ ± e^{iθ}|1⟩)/√2
    // (+ for m = 0, − for m = 1), equivalently the 2×2 matrix
    // ½ [[1, ±e^{-iθ}], [±e^{+iθ}, 1]].
    //
    // Alice's marginal: p(a = 1) = Tr((P₁(θ_a) ⊗ I) ρ). Expanding the
    // projector and using Hermiticity of ρ this is
    // ½·Tr(ρ) − Re(e^{-iθ_a}·t_a) with t_a = Σ_b ρ[(1,b), (0,b)].
    let trace = rho[0].re + rho[5].re + rho[10].re + rho[15].re;
    let t_a = rho[idx(1, 0) * 4 + idx(0, 0)] + rho[idx(1, 1) * 4 + idx(0, 1)];
    let cross_a = (e_a.conj() * t_a).re;
    (trace, (0.5 * trace - cross_a).clamp(0.0, 1.0))
}

/// The product `v_a(θ_a) ⊗ v_1(θ_b)` of Alice's selected basis vector
/// (sign `s_a`: `+1` for her outcome 0, `−1` for 1) and Bob's outcome-1
/// vector, in the register's index order.
#[inline(always)]
fn product_vector<const SA: usize, const SB: usize>(
    e_a: Complex64,
    e_b: Complex64,
    s_a: f64,
) -> [Complex64; 4] {
    let idx = |x: usize, y: usize| x * SA + y * SB;
    let amp = |x: usize, s: f64, e: Complex64| -> Complex64 {
        if x == 0 {
            Complex64::real(std::f64::consts::FRAC_1_SQRT_2)
        } else {
            e * (s * std::f64::consts::FRAC_1_SQRT_2)
        }
    };
    let mut psi = [Complex64::ZERO; 4];
    for x in 0..2 {
        let va = amp(x, s_a, e_a);
        for y in 0..2 {
            psi[idx(x, y)] = va * amp(y, -1.0, e_b);
        }
    }
    psi
}

/// Bob's conditional `p(b = 1 | a) = ⟨ψ|ρ|ψ⟩ / p(a)`, with `ψ` the
/// [`product_vector`] for Alice's outcome (both projectors are rank-1).
#[inline(always)]
fn bob_one_probability(rho: &[Complex64; 16], trace: f64, psi: &[Complex64; 4], p_a: f64) -> f64 {
    // ⟨ψ|ρ|ψ⟩ = Σ_r |ψ_r|²ρ_rr + 2 Σ_{r<c} Re(ψ̄_r ρ_rc ψ_c); every
    // |ψ_r|² is ¼, so the diagonal part is ¼·Tr(ρ).
    let mut cross = 0.0;
    for r in 0..4 {
        for c in (r + 1)..4 {
            cross += (psi[r].conj() * rho[r * 4 + c] * psi[c]).re;
        }
    }
    let joint = 0.25 * trace + 2.0 * cross;
    (joint / p_a).clamp(0.0, 1.0)
}

/// Alice's outcome probability given `p(a = 1)`.
#[inline(always)]
fn outcome_probability(p_one: f64, bit: u8) -> f64 {
    if bit == 1 {
        p_one
    } else {
        1.0 - p_one
    }
}

/// The draw step shared by the pair kernel and [`PairProbabilities::draw`]:
/// one `f64` against `p(a = 1)`, then one against Bob's conditional, which
/// `bob_one(bit_a, p(bit_a))` supplies; each selected outcome must have
/// non-zero probability.
#[inline(always)]
fn draw_pair<R: Rng + ?Sized>(
    (qubit_a, qubit_b): (usize, usize),
    p_a1: f64,
    bob_one: impl FnOnce(u8, f64) -> f64,
    rng: &mut R,
) -> (u8, u8) {
    let bit_a = u8::from(rng.gen::<f64>() < p_a1);
    let p_a = outcome_probability(p_a1, bit_a);
    assert!(
        p_a > 1e-12,
        "collapse onto a zero-probability outcome (qubit {qubit_a}, outcome {bit_a})"
    );
    let p_b1 = bob_one(bit_a, p_a);
    let bit_b = u8::from(rng.gen::<f64>() < p_b1);
    let p_b = outcome_probability(p_b1, bit_b);
    assert!(
        p_b > 1e-12,
        "collapse onto a zero-probability outcome (qubit {qubit_b}, outcome {bit_b})"
    );
    (bit_a, bit_b)
}

/// The outcome probabilities [`DensityMatrix::measure_two_in_bases`] draws
/// against on a two-qubit register, computed without touching the state:
/// `p(a = 1)` and Bob's `p(b = 1 | a)` for each of Alice's outcomes.
///
/// [`PairProbabilities::draw`] makes the kernel's two draws against these
/// values, so a state measured many times in the same bases is reduced to
/// this table once, with the same outcomes draw for draw. The kernel also
/// writes the collapsed post-state; drawing from the table leaves it to the
/// caller, who no longer needs the state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairProbabilities {
    qubits: (usize, usize),
    alice_one: f64,
    bob_one: [f64; 2],
}

impl PairProbabilities {
    /// Draws the two outcomes exactly as [`DensityMatrix::measure_two_in_bases`]
    /// would on the state this table was computed from: the same two `f64`
    /// draws against the same thresholds.
    ///
    /// # Panics
    ///
    /// Panics, with the kernel's message, when an outcome with
    /// (numerically) zero probability would be selected.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (MeasurementOutcome, MeasurementOutcome) {
        let (bit_a, bit_b) = draw_pair(
            self.qubits,
            self.alice_one,
            |bit_a, _| self.bob_one[usize::from(bit_a)],
            rng,
        );
        (
            MeasurementOutcome::from_bit(bit_a),
            MeasurementOutcome::from_bit(bit_b),
        )
    }
}

/// [`DensityMatrix::pair_probabilities_in_bases`] on the 4×4 storage.
fn pair_probabilities<const SA: usize, const SB: usize>(
    rho: &[Complex64; 16],
    e_a: Complex64,
    e_b: Complex64,
) -> PairProbabilities {
    let (trace, alice_one) = alice_one_probability::<SA, SB>(rho, e_a);
    let bob_one = [0u8, 1].map(|bit_a| {
        let psi = product_vector::<SA, SB>(e_a, e_b, if bit_a == 0 { 1.0 } else { -1.0 });
        bob_one_probability(rho, trace, &psi, outcome_probability(alice_one, bit_a))
    });
    PairProbabilities {
        qubits: (2 - SA, 2 - SB),
        alice_one,
        bob_one,
    }
}

/// [`DensityMatrix::measure_two_in_bases`] on a two-qubit register whose
/// measured qubits have basis-index strides `SA` (Alice's side of the
/// record) and `SB`: the probability step, the draw step, and the
/// post-measurement state. Returns the two bits.
fn measure_pair_in_bases<const SA: usize, const SB: usize, R: Rng + ?Sized>(
    rho: &mut [Complex64; 16],
    e_a: Complex64,
    e_b: Complex64,
    rng: &mut R,
) -> (u8, u8) {
    let idx = |x: usize, y: usize| x * SA + y * SB;
    let (trace, p_a1) = alice_one_probability::<SA, SB>(rho, e_a);
    let mut psi = [Complex64::ZERO; 4];
    let (bit_a, bit_b) = draw_pair(
        (2 - SA, 2 - SB),
        p_a1,
        |bit_a, p_a| {
            psi = product_vector::<SA, SB>(e_a, e_b, if bit_a == 0 { 1.0 } else { -1.0 });
            bob_one_probability(rho, trace, &psi, p_a)
        },
        rng,
    );
    // Both qubits are now fully measured: the post-measurement state is
    // the pure product of the selected basis vectors. ψ already holds
    // the product for Bob's outcome 1; flip his phase sign for 0.
    if bit_b == 0 {
        for x in 0..2 {
            psi[idx(x, 1)] = -psi[idx(x, 1)];
        }
    }
    for (r, amp_r) in psi.iter().enumerate() {
        for (c, amp_c) in psi.iter().enumerate() {
            rho[r * 4 + c] = *amp_r * amp_c.conj();
        }
    }
    (bit_a, bit_b)
}

impl DensityMatrix {
    /// Creates the pure state `|0…0⟩⟨0…0|` on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero or greater than 12 (a 12-qubit density matrix already
    /// has 16.7 M entries).
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits > 0, "register must have at least one qubit");
        assert!(
            num_qubits <= 12,
            "density-matrix simulation limited to 12 qubits"
        );
        let dim = 1 << num_qubits;
        let mut rho = CMatrix::zeros(dim, dim);
        rho[(0, 0)] = Complex64::ONE;
        Self { num_qubits, rho }
    }

    /// Builds the density matrix of a pure state.
    pub fn from_statevector(state: &StateVector) -> Self {
        Self {
            num_qubits: state.num_qubits(),
            rho: state.to_density_matrix(),
        }
    }

    /// Builds a density matrix directly from a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if the matrix is not square with a
    /// power-of-two dimension, and [`QsimError::NotNormalized`] if it is not a valid density
    /// matrix (Hermitian, unit trace, positive).
    pub fn from_matrix(rho: CMatrix) -> Result<Self, QsimError> {
        let dim = rho.rows();
        if !rho.is_square() || dim == 0 || !dim.is_power_of_two() {
            return Err(QsimError::DimensionMismatch {
                expected: dim.next_power_of_two().max(2),
                actual: dim,
            });
        }
        if !rho.is_density_matrix(1e-7) {
            return Err(QsimError::NotNormalized);
        }
        Ok(Self {
            num_qubits: dim.trailing_zeros() as usize,
            rho,
        })
    }

    /// The maximally mixed state `I / 2^n`.
    pub fn maximally_mixed(num_qubits: usize) -> Self {
        assert!(num_qubits > 0 && num_qubits <= 12);
        let dim = 1 << num_qubits;
        Self {
            num_qubits,
            rho: CMatrix::identity(dim).scale(Complex64::real(1.0 / dim as f64)),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Hilbert-space dimension `2^n`.
    pub(crate) fn dim(&self) -> usize {
        1 << self.num_qubits
    }

    /// Immutable view of the underlying matrix.
    pub fn matrix(&self) -> &CMatrix {
        &self.rho
    }

    /// Mutable view of the underlying matrix, for the in-place compiled
    /// kernels (`crate::kernel`). Crate-private: external callers go through
    /// the validated operations so `ρ` stays a valid density matrix.
    pub(crate) fn matrix_mut(&mut self) -> &mut CMatrix {
        &mut self.rho
    }

    /// Trace of the density matrix (should always be ≈ 1).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Purity `Tr(ρ²)`; 1 for pure states, `1/2^n` for the maximally mixed state.
    pub fn purity(&self) -> f64 {
        self.rho.matmul(&self.rho).trace().re
    }

    /// Applies a unitary to the given qubits: `ρ → U ρ U†`.
    ///
    /// Runs in place over the targeted qubits' index strides — the embedded
    /// `2^n × 2^n` operator is never materialised, and nothing is allocated
    /// beyond a reusable thread-local block buffer. Equivalent to
    /// conjugating with `embed_operator`'s embedding (the two-qubit gate
    /// fast path dominates the protocol's workloads).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`StateVector::try_apply_unitary`].
    pub fn try_apply_unitary(&mut self, gate: &CMatrix, qubits: &[usize]) -> Result<(), QsimError> {
        self.validate_targets(gate, qubits)?;
        if qubits.len() > 4 {
            // Wide gates are outside every hot path; keep the simple
            // embedded form rather than growing the stride tables.
            let full = embed_operator(gate, qubits, self.num_qubits);
            self.rho = full.matmul(&self.rho).matmul(&full.adjoint());
            return Ok(());
        }
        if qubits.len() == 1 {
            self.apply_unitary_1q(gate, qubits[0]);
        } else if gate.rows() == self.dim() && qubits.iter().enumerate().all(|(i, &q)| q == i) {
            // The gate covers the whole register in natural qubit order —
            // the 2-qubit gates on the protocol's EPR pairs land here.
            self.apply_unitary_dense(gate);
        } else {
            self.apply_unitary_strided(gate, qubits);
        }
        Ok(())
    }

    /// Single-qubit fast path: conjugates the two strided row/column slices
    /// in place with the four gate entries held in registers.
    fn apply_unitary_1q(&mut self, gate: &CMatrix, qubit: usize) {
        let dim = self.dim();
        let stride = 1usize << (self.num_qubits - 1 - qubit);
        let (u00, u01, u10, u11) = (gate[(0, 0)], gate[(0, 1)], gate[(1, 0)], gate[(1, 1)]);
        let rho = self.rho.as_mut_slice();
        // Left pass ρ ← U·ρ over paired rows (target bit clear / set).
        for base in 0..dim {
            if base & stride != 0 {
                continue;
            }
            let (head, tail) = rho[base * dim..].split_at_mut(stride * dim);
            let top = &mut head[..dim];
            let bottom = &mut tail[..dim];
            for (t, b) in top.iter_mut().zip(bottom.iter_mut()) {
                let (x, y) = (*t, *b);
                *t = u00 * x + u01 * y;
                *b = u10 * x + u11 * y;
            }
        }
        // Right pass ρ ← ρ·U† over paired columns:
        // (ρU†)[i][c] = Σ_r ρ[i][r]·conj(U[c][r]).
        let (c00, c01, c10, c11) = (u00.conj(), u01.conj(), u10.conj(), u11.conj());
        for row in rho.chunks_exact_mut(dim) {
            for base in 0..dim {
                if base & stride != 0 {
                    continue;
                }
                let (x, y) = (row[base], row[base | stride]);
                row[base] = x * c00 + y * c01;
                row[base | stride] = x * c10 + y * c11;
            }
        }
    }

    /// Full-register fast path: two dense in-place products over the flat
    /// storage, skipping zero gate entries (CNOT-style gates are sparse).
    /// Only reachable with `gate.rows() == dim ≤ 16`, so a stack block
    /// suffices — no heap traffic.
    fn apply_unitary_dense(&mut self, gate: &CMatrix) {
        let dim = self.dim();
        let u = gate.as_slice();
        let rho = self.rho.as_mut_slice();
        let mut scratch = [Complex64::ZERO; 16];
        let block = &mut scratch[..dim];
        // Left pass ρ ← U·ρ, one column at a time.
        for j in 0..dim {
            for (i, slot) in block.iter_mut().enumerate() {
                *slot = rho[i * dim + j];
            }
            for (r, u_row) in u.chunks_exact(dim).enumerate() {
                let mut acc = Complex64::ZERO;
                for (&g, &amp) in u_row.iter().zip(block.iter()) {
                    if g != Complex64::ZERO {
                        acc += g * amp;
                    }
                }
                rho[r * dim + j] = acc;
            }
        }
        // Right pass ρ ← ρ·U†, one row at a time.
        for row in rho.chunks_exact_mut(dim) {
            block.copy_from_slice(row);
            for (slot, u_row) in row.iter_mut().zip(u.chunks_exact(dim)) {
                let mut acc = Complex64::ZERO;
                for (&g, &amp) in u_row.iter().zip(block.iter()) {
                    if g != Complex64::ZERO {
                        acc += amp * g.conj();
                    }
                }
                *slot = acc;
            }
        }
    }

    /// General strided path: iterates only the targeted qubits' index
    /// strides — the embedded `2^n × 2^n` operator is never materialised
    /// and the gather block lives on the stack.
    fn apply_unitary_strided(&mut self, gate: &CMatrix, qubits: &[usize]) {
        let dim = self.dim();
        let gate_dim = gate.rows();
        let gate_qubits = qubits.len();
        // Strides of the targeted qubits inside a basis index, most
        // significant target first (same convention as `embed_operator`).
        let mut offsets = [0usize; 16];
        let mut target_mask = 0usize;
        for (bit_pos, &q) in qubits.iter().enumerate() {
            let shift = self.num_qubits - 1 - q;
            target_mask |= 1 << shift;
            let bit = 1usize << (gate_qubits - 1 - bit_pos);
            for (sub, offset) in offsets.iter_mut().enumerate().take(gate_dim) {
                if sub & bit != 0 {
                    *offset |= 1 << shift;
                }
            }
        }
        let offsets = &offsets[..gate_dim];
        let mut scratch = [Complex64::ZERO; 16];
        let block = &mut scratch[..gate_dim];
        let rho = self.rho.as_mut_slice();
        // Left pass: ρ ← U·ρ, one strided gate application per column of
        // each targeted row block.
        for base in 0..dim {
            if base & target_mask != 0 {
                continue;
            }
            for j in 0..dim {
                for (sub, slot) in block.iter_mut().enumerate() {
                    *slot = rho[(base | offsets[sub]) * dim + j];
                }
                for (row, &offset) in offsets.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (col, &amp) in block.iter().enumerate() {
                        acc += gate[(row, col)] * amp;
                    }
                    rho[(base | offset) * dim + j] = acc;
                }
            }
        }
        // Right pass: ρ ← ρ·U†, one strided application per targeted column
        // block of each row ((ρU†)[i][c] = Σ_r ρ[i][r]·conj(U[c][r])).
        for row_start in (0..dim * dim).step_by(dim) {
            let row = &mut rho[row_start..row_start + dim];
            for base in 0..dim {
                if base & target_mask != 0 {
                    continue;
                }
                for (sub, slot) in block.iter_mut().enumerate() {
                    *slot = row[base | offsets[sub]];
                }
                for (col, &offset) in offsets.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (r, &amp) in block.iter().enumerate() {
                        acc += amp * gate[(col, r)].conj();
                    }
                    row[base | offset] = acc;
                }
            }
        }
    }

    /// Applies a unitary to the given qubits, panicking on invalid input.
    ///
    /// # Panics
    ///
    /// Panics if the qubits are out of range / duplicated or the gate has the wrong dimension.
    pub fn apply_unitary(&mut self, gate: &CMatrix, qubits: &[usize]) {
        self.try_apply_unitary(gate, qubits)
            .expect("apply_unitary: invalid gate application");
    }

    /// Applies a single-qubit unitary.
    pub fn apply_single(&mut self, gate: &CMatrix, qubit: usize) {
        self.apply_unitary(gate, &[qubit]);
    }

    /// Applies a two-qubit unitary.
    pub fn apply_two(&mut self, gate: &CMatrix, qubit_a: usize, qubit_b: usize) {
        self.apply_unitary(gate, &[qubit_a, qubit_b]);
    }

    /// Applies a CPTP map given by Kraus operators `{K_i}` to the given qubits:
    /// `ρ → Σ_i K_i ρ K_i†`.
    ///
    /// # Errors
    ///
    /// Returns an error if the target qubits are invalid or any Kraus operator has the wrong
    /// dimension. The completeness relation `Σ K_i† K_i = I` is *not* enforced here (noise
    /// builders in the `noise` crate validate it); this keeps the method usable for
    /// post-selected maps in tests.
    pub(crate) fn try_apply_kraus(
        &mut self,
        kraus_ops: &[CMatrix],
        qubits: &[usize],
    ) -> Result<(), QsimError> {
        if kraus_ops.is_empty() {
            return Ok(());
        }
        for op in kraus_ops {
            self.validate_targets(op, qubits)?;
        }
        let dim = self.dim();
        let mut out = CMatrix::zeros(dim, dim);
        for op in kraus_ops {
            let full = embed_operator(op, qubits, self.num_qubits);
            let term = full.matmul(&self.rho).matmul(&full.adjoint());
            out = &out + &term;
        }
        self.rho = out;
        Ok(())
    }

    /// Applies a CPTP map, panicking on invalid targets.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as `DensityMatrix::try_apply_kraus`.
    pub fn apply_kraus(&mut self, kraus_ops: &[CMatrix], qubits: &[usize]) {
        self.try_apply_kraus(kraus_ops, qubits)
            .expect("apply_kraus: invalid channel application");
    }

    /// Applies one **sampled trajectory step** of the CPTP map `{K_i}`:
    /// selects branch `i` with probability `p_i = Tr(K_i ρ K_i†)` and replaces
    /// the state with the renormalised branch `K_i ρ K_i† / p_i`. Averaging
    /// over many samples reproduces the exact channel action — the
    /// mixed-state generalisation of
    /// [`StateVector::apply_kraus_sampled`], with which it agrees in
    /// distribution on pure states.
    ///
    /// Exactly one `f64` is drawn from `rng` per call; branches with
    /// probability at or below `StateVector::MIN_NORM` are never selected.
    ///
    /// Returns the index of the selected Kraus operator.
    ///
    /// # Errors
    ///
    /// The target-validation errors of `DensityMatrix::try_apply_kraus`,
    /// plus [`QsimError::ZeroNorm`] when every branch has vanishing
    /// probability. The state is left untouched on error.
    pub fn apply_kraus_sampled<R: Rng + ?Sized>(
        &mut self,
        kraus_ops: &[CMatrix],
        qubits: &[usize],
        rng: &mut R,
    ) -> Result<usize, QsimError> {
        let mut branches: Vec<CMatrix> = Vec::with_capacity(kraus_ops.len());
        let mut probabilities: Vec<f64> = Vec::with_capacity(kraus_ops.len());
        for op in kraus_ops {
            self.validate_targets(op, qubits)?;
            let full = embed_operator(op, qubits, self.num_qubits);
            let branch = full.matmul(&self.rho).matmul(&full.adjoint());
            probabilities.push(branch.trace().re);
            branches.push(branch);
        }
        let index = crate::statevector::sample_branch_index(&probabilities, rng)?;
        let probability = probabilities[index];
        self.rho = branches
            .swap_remove(index)
            .scale(Complex64::real(1.0 / probability));
        Ok(index)
    }

    /// Extracts the statevector of a (numerically) pure state: `Some(|ψ⟩)`
    /// with `|ψ⟩⟨ψ| ≈ ρ` when the purity `Tr(ρ²)` is within `tol` of 1,
    /// `None` for mixed states. The returned state is normalised; its global
    /// phase is fixed by the column used for extraction and is physically
    /// irrelevant.
    pub fn as_pure_state(&self, tol: f64) -> Option<StateVector> {
        if (self.purity() - 1.0).abs() > tol {
            return None;
        }
        // For ρ = |ψ⟩⟨ψ| the column j equals ψ · ψ_j*, so the column under
        // the largest diagonal entry, renormalised, recovers ψ up to phase.
        let dim = self.dim();
        let mut best = 0;
        let mut best_weight = f64::NEG_INFINITY;
        for i in 0..dim {
            let weight = self.rho[(i, i)].re;
            if weight > best_weight {
                best_weight = weight;
                best = i;
            }
        }
        let column = mathkit::vector::CVector::new((0..dim).map(|r| self.rho[(r, best)]).collect());
        let norm = column.norm();
        if !norm.is_finite() || norm <= StateVector::MIN_NORM {
            return None;
        }
        StateVector::from_amplitudes(column.scale(Complex64::real(1.0 / norm))).ok()
    }

    fn validate_targets(&self, op: &CMatrix, qubits: &[usize]) -> Result<(), QsimError> {
        let k = qubits.len();
        let expected = 1usize << k;
        if op.rows() != expected || op.cols() != expected {
            return Err(QsimError::DimensionMismatch {
                expected,
                actual: op.rows(),
            });
        }
        for (i, &q) in qubits.iter().enumerate() {
            if q >= self.num_qubits {
                return Err(QsimError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
            if qubits[..i].contains(&q) {
                return Err(QsimError::DuplicateQubit(q));
            }
        }
        Ok(())
    }

    /// Probability that measuring `qubit` in the computational basis yields `1`.
    pub fn probability_one(&self, qubit: usize) -> f64 {
        assert!(qubit < self.num_qubits, "qubit out of range");
        match (pair_ref(self), qubit) {
            (Some(rho), 0) => probability_one_pair::<2>(rho),
            (Some(rho), _) => probability_one_pair::<1>(rho),
            (None, _) => self.probability_one_strided(qubit),
        }
    }

    /// The any-size body of [`DensityMatrix::probability_one`].
    pub(crate) fn probability_one_strided(&self, qubit: usize) -> f64 {
        let shift = self.num_qubits - 1 - qubit;
        let mask = 1usize << shift;
        (0..self.dim())
            .filter(|i| i & mask != 0)
            .map(|i| self.rho[(i, i)].re)
            .sum()
    }

    /// Diagonal of the density matrix: the Born-rule probabilities of all basis outcomes.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim())
            .map(|i| self.rho[(i, i)].re.max(0.0))
            .collect()
    }

    /// Measures `qubit` in the computational basis, collapsing the state.
    pub fn measure<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> u8 {
        let p1 = self.probability_one(qubit).clamp(0.0, 1.0);
        let outcome = if rng.gen::<f64>() < p1 { 1u8 } else { 0u8 };
        self.collapse(qubit, outcome);
        outcome
    }

    /// Projects `qubit` onto `outcome` and renormalises.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has (numerically) zero probability.
    pub(crate) fn collapse(&mut self, qubit: usize, outcome: u8) {
        assert!(qubit < self.num_qubits, "qubit out of range");
        match (pair_mut(self), qubit) {
            (Some(rho), 0) => collapse_pair::<2>(rho, qubit, outcome),
            (Some(rho), _) => collapse_pair::<1>(rho, qubit, outcome),
            (None, _) => self.collapse_strided(qubit, outcome),
        }
    }

    /// The any-size body of [`DensityMatrix::collapse`].
    pub(crate) fn collapse_strided(&mut self, qubit: usize, outcome: u8) {
        let shift = self.num_qubits - 1 - qubit;
        let mask = 1usize << shift;
        let keep_set = outcome == 1;
        let dim = self.dim();
        let rho = self.rho.as_mut_slice();
        let mut p = 0.0;
        for i in 0..dim {
            if ((i & mask) != 0) == keep_set {
                p += rho[i * dim + i].re;
            }
        }
        assert!(
            p > 1e-12,
            "collapse onto a zero-probability outcome (qubit {qubit}, outcome {outcome})"
        );
        // Project and renormalise in place: zero every entry outside the
        // kept block, scale the kept block — no projected copy.
        let factor = Complex64::real(1.0 / p);
        for i in 0..dim {
            let keep_row = ((i & mask) != 0) == keep_set;
            let row = &mut rho[i * dim..(i + 1) * dim];
            for (j, entry) in row.iter_mut().enumerate() {
                if keep_row && ((j & mask) != 0) == keep_set {
                    *entry *= factor;
                } else {
                    *entry = Complex64::ZERO;
                }
            }
        }
    }

    /// Measures `qubit` in the basis `B(θ)`, collapsing the state, and returns the ±1 outcome.
    pub fn measure_in_basis<R: Rng + ?Sized>(
        &mut self,
        qubit: usize,
        theta: f64,
        rng: &mut R,
    ) -> MeasurementOutcome {
        let bit = BASIS_CACHE.with(|cell| {
            let cache = &mut *cell.borrow_mut();
            let key = theta.to_bits();
            let index = match cache.iter().position(|(k, _, _)| *k == key) {
                Some(index) => index,
                None if cache.len() < BASIS_CACHE_CAP => {
                    let rotation = gates::basis_change(theta);
                    let adjoint = rotation.adjoint();
                    cache.push((key, rotation, adjoint));
                    cache.len() - 1
                }
                None => {
                    // Cache full (a sweep over many angles): fall back to
                    // per-call construction.
                    let rotation = gates::basis_change(theta);
                    self.apply_single(&rotation, qubit);
                    let bit = self.measure(qubit, rng);
                    self.apply_single(&rotation.adjoint(), qubit);
                    return bit;
                }
            };
            let (_, rotation, adjoint) = &cache[index];
            self.apply_single(rotation, qubit);
            let bit = self.measure(qubit, rng);
            self.apply_single(adjoint, qubit);
            bit
        });
        MeasurementOutcome::from_bit(bit)
    }

    /// Measures qubit `qubit_a` in basis `B(θ_a)` and then qubit `qubit_b`
    /// in basis `B(θ_b)`, collapsing the state — the CHSH-record
    /// measurement. Equivalent to two [`DensityMatrix::measure_in_basis`]
    /// calls (two RNG draws, in the same order), but on a two-qubit
    /// register the outcomes come straight from projector traces and the
    /// post-measurement state — a pure product of the two selected basis
    /// vectors — is written directly, skipping the rotate/collapse/unrotate
    /// round-trips entirely.
    ///
    /// Each basis comes with its phase `e^{iθ}` ([`BasisPhase`]), so a loop
    /// over fixed bases builds the phases once and the two-qubit kernel
    /// makes no transcendental call.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range, or when an
    /// outcome with (numerically) zero probability would be selected.
    pub fn measure_two_in_bases<R: Rng + ?Sized>(
        &mut self,
        qubit_a: usize,
        basis_a: BasisPhase,
        qubit_b: usize,
        basis_b: BasisPhase,
        rng: &mut R,
    ) -> (MeasurementOutcome, MeasurementOutcome) {
        assert!(
            qubit_a < self.num_qubits && qubit_b < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(qubit_a, qubit_b, "measured qubits must be distinct");
        let (e_a, e_b) = (basis_a.phase(), basis_b.phase());
        let (bit_a, bit_b) = match pair_mut(self) {
            Some(rho) if qubit_a == 0 => measure_pair_in_bases::<2, 1, R>(rho, e_a, e_b, rng),
            Some(rho) => measure_pair_in_bases::<1, 2, R>(rho, e_a, e_b, rng),
            None => {
                // On larger registers the remaining qubits stay entangled
                // with nothing we can shortcut; run the two measurements
                // plainly.
                let a = self.measure_in_basis(qubit_a, basis_a.angle(), rng);
                let b = self.measure_in_basis(qubit_b, basis_b.angle(), rng);
                return (a, b);
            }
        };
        (
            MeasurementOutcome::from_bit(bit_a),
            MeasurementOutcome::from_bit(bit_b),
        )
    }

    /// The outcome probabilities [`DensityMatrix::measure_two_in_bases`]
    /// would draw against with the same arguments, without measuring: the
    /// probability step of that kernel on its own.
    ///
    /// # Panics
    ///
    /// Panics unless the register holds exactly two qubits and the qubits
    /// are `0` and `1` in either order.
    pub fn pair_probabilities_in_bases(
        &self,
        qubit_a: usize,
        basis_a: BasisPhase,
        qubit_b: usize,
        basis_b: BasisPhase,
    ) -> PairProbabilities {
        assert!(qubit_a < 2 && qubit_b < 2, "qubit out of range");
        assert_ne!(qubit_a, qubit_b, "measured qubits must be distinct");
        let (e_a, e_b) = (basis_a.phase(), basis_b.phase());
        match pair_ref(self) {
            Some(rho) if qubit_a == 0 => pair_probabilities::<2, 1>(rho, e_a, e_b),
            Some(rho) => pair_probabilities::<1, 2>(rho, e_a, e_b),
            None => panic!("outcome tables cover two-qubit registers only"),
        }
    }

    /// Measures qubits `qubit_a` then `qubit_b` in the computational basis,
    /// collapsing the state. Equivalent to two [`DensityMatrix::measure`]
    /// calls (two RNG draws, in the same order); on a two-qubit register
    /// the outcome probabilities come straight from the diagonal and the
    /// post-measurement basis state is written directly.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range, or when an
    /// outcome with (numerically) zero probability would be selected.
    pub fn measure_two_computational<R: Rng + ?Sized>(
        &mut self,
        qubit_a: usize,
        qubit_b: usize,
        rng: &mut R,
    ) -> (u8, u8) {
        assert!(
            qubit_a < self.num_qubits && qubit_b < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(qubit_a, qubit_b, "measured qubits must be distinct");
        if self.num_qubits != 2 {
            let a = self.measure(qubit_a, rng);
            let b = self.measure(qubit_b, rng);
            return (a, b);
        }
        let stride_a = 1usize << (self.num_qubits - 1 - qubit_a);
        let stride_b = 1usize << (self.num_qubits - 1 - qubit_b);
        let dim = self.dim();
        let idx = |x: usize, y: usize| x * stride_a + y * stride_b;
        let diag = |x: usize, y: usize| self.rho.as_slice()[idx(x, y) * dim + idx(x, y)].re;
        let p_a1 = (diag(1, 0) + diag(1, 1)).clamp(0.0, 1.0);
        let bit_a = u8::from(rng.gen::<f64>() < p_a1);
        let p_a = diag(bit_a as usize, 0) + diag(bit_a as usize, 1);
        assert!(
            p_a > 1e-12,
            "collapse onto a zero-probability outcome (qubit {qubit_a}, outcome {bit_a})"
        );
        let p_b1 = (diag(bit_a as usize, 1) / p_a).clamp(0.0, 1.0);
        let bit_b = u8::from(rng.gen::<f64>() < p_b1);
        let p_b = if bit_b == 1 { p_b1 } else { 1.0 - p_b1 };
        assert!(
            p_b > 1e-12,
            "collapse onto a zero-probability outcome (qubit {qubit_b}, outcome {bit_b})"
        );
        let winner = idx(bit_a as usize, bit_b as usize);
        let rho = self.rho.as_mut_slice();
        rho.fill(Complex64::ZERO);
        rho[winner * dim + winner] = Complex64::ONE;
        (bit_a, bit_b)
    }

    /// Tensor product `self ⊗ other`: appends `other`'s qubits after this register's qubits.
    ///
    /// Used by eavesdropper models that attach an ancilla to a flying qubit.
    ///
    /// # Panics
    ///
    /// Panics if the combined register would exceed the 12-qubit density-matrix limit.
    pub fn tensor(&self, other: &DensityMatrix) -> DensityMatrix {
        let total = self.num_qubits + other.num_qubits;
        assert!(
            total <= 12,
            "density-matrix simulation limited to 12 qubits"
        );
        DensityMatrix {
            num_qubits: total,
            rho: self.rho.kron(&other.rho),
        }
    }

    /// Partial trace keeping only the listed qubits (in the order given).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty, has duplicates, or references qubits outside the register.
    pub fn partial_trace(&self, keep: &[usize]) -> DensityMatrix {
        assert!(!keep.is_empty(), "must keep at least one qubit");
        for (i, &q) in keep.iter().enumerate() {
            assert!(q < self.num_qubits, "qubit {q} out of range");
            assert!(!keep[..i].contains(&q), "duplicate qubit {q} in keep list");
        }
        let k = keep.len();
        let keep_shifts: Vec<usize> = keep.iter().map(|&q| self.num_qubits - 1 - q).collect();
        let traced: Vec<usize> = (0..self.num_qubits)
            .filter(|q| !keep.contains(q))
            .map(|q| self.num_qubits - 1 - q)
            .collect();
        let out_dim = 1usize << k;
        let mut out = CMatrix::zeros(out_dim, out_dim);
        let traced_dim = 1usize << traced.len();
        for row_sub in 0..out_dim {
            for col_sub in 0..out_dim {
                let mut acc = Complex64::ZERO;
                for env in 0..traced_dim {
                    let mut row = 0usize;
                    let mut col = 0usize;
                    for (bit_pos, &shift) in keep_shifts.iter().enumerate() {
                        if row_sub & (1 << (k - 1 - bit_pos)) != 0 {
                            row |= 1 << shift;
                        }
                        if col_sub & (1 << (k - 1 - bit_pos)) != 0 {
                            col |= 1 << shift;
                        }
                    }
                    for (env_pos, &shift) in traced.iter().enumerate() {
                        if env & (1 << env_pos) != 0 {
                            row |= 1 << shift;
                            col |= 1 << shift;
                        }
                    }
                    acc += self.rho[(row, col)];
                }
                out[(row_sub, col_sub)] = acc;
            }
        }
        DensityMatrix {
            num_qubits: k,
            rho: out,
        }
    }

    /// Fidelity `⟨ψ|ρ|ψ⟩` between this (possibly mixed) state and a pure reference state.
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ.
    pub fn fidelity_with_pure(&self, reference: &StateVector) -> f64 {
        assert_eq!(
            self.num_qubits,
            reference.num_qubits(),
            "fidelity of states with different register sizes"
        );
        let applied = self.rho.apply(reference.amplitudes());
        reference.amplitudes().inner(&applied).re.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn bell_density() -> DensityMatrix {
        let mut rho = DensityMatrix::new(2);
        rho.apply_single(&gates::hadamard(), 0);
        rho.apply_two(&gates::cnot(), 0, 1);
        rho
    }

    #[test]
    fn new_density_matrix_is_pure_zero_state() {
        let rho = DensityMatrix::new(2);
        assert_eq!(rho.num_qubits(), 2);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.probabilities()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_statevector_round_trip() {
        let mut psi = StateVector::new(2);
        psi.apply_single(&gates::hadamard(), 0);
        psi.apply_two(&gates::cnot(), 0, 1);
        let rho = DensityMatrix::from_statevector(&psi);
        assert!((rho.purity() - 1.0).abs() < 1e-10);
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn from_matrix_validates() {
        let good = CMatrix::identity(2).scale(Complex64::real(0.5));
        assert!(DensityMatrix::from_matrix(good).is_ok());
        let not_square = CMatrix::zeros(2, 3);
        assert!(matches!(
            DensityMatrix::from_matrix(not_square),
            Err(QsimError::DimensionMismatch { .. })
        ));
        let not_normalised = CMatrix::identity(2);
        assert!(matches!(
            DensityMatrix::from_matrix(not_normalised),
            Err(QsimError::NotNormalized)
        ));
    }

    #[test]
    fn maximally_mixed_has_minimal_purity() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.purity() - 0.25).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let rho = bell_density();
        let probs = rho.probabilities();
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[3] - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn sampled_kraus_step_matches_channel_statistics() {
        // bit_flip(0.25)-style Kraus pair applied as trajectory steps.
        let ops = vec![
            gates::identity().scale(Complex64::real(0.75f64.sqrt())),
            gates::pauli_x().scale(Complex64::real(0.25f64.sqrt())),
        ];
        let mut r = rng();
        let mut flips = 0;
        let n = 4000;
        for _ in 0..n {
            let mut rho = DensityMatrix::new(1);
            let branch = rho.apply_kraus_sampled(&ops, &[0], &mut r).unwrap();
            assert!((rho.trace() - 1.0).abs() < 1e-10, "branches renormalise");
            if branch == 1 {
                flips += 1;
                assert!((rho.probability_one(0) - 1.0).abs() < 1e-10);
            }
        }
        let frac = flips as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "flip fraction {frac}");
    }

    #[test]
    fn sampled_kraus_step_works_on_mixed_states() {
        // On the maximally mixed state every Pauli branch is equally likely
        // and leaves the state maximally mixed — the mixed-state case the
        // statevector unravelling cannot represent.
        let p: f64 = 0.8;
        let ops = vec![
            gates::identity().scale(Complex64::real((1.0 - 3.0 * p / 4.0).sqrt())),
            gates::pauli_x().scale(Complex64::real((p / 4.0).sqrt())),
            gates::pauli_y().scale(Complex64::real((p / 4.0).sqrt())),
            gates::pauli_z().scale(Complex64::real((p / 4.0).sqrt())),
        ];
        let mut r = rng();
        let mut rho = DensityMatrix::maximally_mixed(1);
        for _ in 0..20 {
            rho.apply_kraus_sampled(&ops, &[0], &mut r).unwrap();
            assert!((rho.trace() - 1.0).abs() < 1e-10);
            assert!((rho.purity() - 0.5).abs() < 1e-10);
        }
    }

    #[test]
    fn sampled_kraus_step_rejects_vanishing_and_invalid_branches() {
        let mut rho = bell_density();
        let before = rho.clone();
        let mut r = rng();
        assert_eq!(
            rho.apply_kraus_sampled(&[gates::identity().scale(Complex64::ZERO)], &[0], &mut r),
            Err(QsimError::ZeroNorm)
        );
        assert_eq!(rho, before, "a failed step leaves the state untouched");
        assert!(matches!(
            rho.apply_kraus_sampled(&[gates::identity()], &[7], &mut r),
            Err(QsimError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn pure_states_round_trip_through_as_pure_state() {
        let mut psi = StateVector::new(2);
        psi.apply_single(&gates::hadamard(), 0);
        psi.apply_two(&gates::cnot(), 0, 1);
        psi.apply_single(&gates::pauli_z(), 1); // give an amplitude a sign
        let rho = DensityMatrix::from_statevector(&psi);
        let extracted = rho.as_pure_state(1e-9).expect("state is pure");
        // Equal up to global phase ⇒ fidelity 1 and identical density matrix.
        assert!((extracted.fidelity(&psi) - 1.0).abs() < 1e-10);
        assert!(DensityMatrix::from_statevector(&extracted)
            .matrix()
            .approx_eq(rho.matrix(), 1e-10));
    }

    #[test]
    fn mixed_states_have_no_pure_extraction() {
        assert!(DensityMatrix::maximally_mixed(2)
            .as_pure_state(1e-9)
            .is_none());
        let mut slightly_mixed = bell_density();
        slightly_mixed.apply_kraus(
            &[
                gates::identity().scale(Complex64::real(0.9f64.sqrt())),
                gates::pauli_z().scale(Complex64::real(0.1f64.sqrt())),
            ],
            &[0],
        );
        assert!(slightly_mixed.as_pure_state(1e-9).is_none());
    }

    #[test]
    fn apply_unitary_validates_input() {
        let mut rho = DensityMatrix::new(2);
        assert!(matches!(
            rho.try_apply_unitary(&gates::cnot(), &[0, 0]),
            Err(QsimError::DuplicateQubit(0))
        ));
        assert!(matches!(
            rho.try_apply_unitary(&gates::hadamard(), &[4]),
            Err(QsimError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            rho.try_apply_unitary(&gates::hadamard(), &[0, 1]),
            Err(QsimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn depolarizing_kraus_reduces_purity() {
        // Hand-rolled depolarizing channel with p = 0.5 on a pure |0⟩ state.
        let p: f64 = 0.5;
        let kraus = vec![
            gates::identity().scale(Complex64::real((1.0 - 3.0 * p / 4.0).sqrt())),
            gates::pauli_x().scale(Complex64::real((p / 4.0).sqrt())),
            gates::pauli_y().scale(Complex64::real((p / 4.0).sqrt())),
            gates::pauli_z().scale(Complex64::real((p / 4.0).sqrt())),
        ];
        let mut rho = DensityMatrix::new(1);
        rho.apply_kraus(&kraus, &[0]);
        assert!(
            (rho.trace() - 1.0).abs() < 1e-10,
            "CPTP map preserves trace"
        );
        assert!(rho.purity() < 1.0);
        // Probability of |1⟩ after depolarizing |0⟩ with p=0.5 is p/2 = 0.25.
        assert!((rho.probability_one(0) - 0.25).abs() < 1e-10);
    }

    #[test]
    fn empty_kraus_list_is_a_no_op() {
        let mut rho = bell_density();
        let before = rho.clone();
        rho.apply_kraus(&[], &[0]);
        assert_eq!(rho, before);
    }

    #[test]
    fn measurement_statistics_on_bell_state() {
        let mut r = rng();
        let mut agree = 0;
        for _ in 0..200 {
            let mut rho = bell_density();
            let a = rho.measure(0, &mut r);
            let b = rho.measure(1, &mut r);
            if a == b {
                agree += 1;
            }
        }
        assert_eq!(agree, 200, "Φ+ halves must always agree in the Z basis");
    }

    #[test]
    fn collapse_renormalises() {
        let mut rho = bell_density();
        rho.collapse(0, 1);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!((rho.probabilities()[3] - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "zero-probability")]
    fn collapse_onto_impossible_outcome_panics() {
        let mut rho = DensityMatrix::new(1);
        rho.collapse(0, 1);
    }

    #[test]
    fn partial_trace_of_bell_state_is_maximally_mixed() {
        let rho = bell_density();
        let reduced = rho.partial_trace(&[0]);
        assert_eq!(reduced.num_qubits(), 1);
        assert!((reduced.purity() - 0.5).abs() < 1e-10);
        assert!((reduced.probability_one(0) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn partial_trace_of_product_state_keeps_the_factor() {
        let mut rho = DensityMatrix::new(2);
        rho.apply_single(&gates::pauli_x(), 1); // |01⟩
        let q0 = rho.partial_trace(&[0]);
        assert!((q0.probability_one(0) - 0.0).abs() < 1e-12);
        let q1 = rho.partial_trace(&[1]);
        assert!((q1.probability_one(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_in_basis_statistics() {
        // |0⟩ measured in B(π/4): probabilities are 1/2, 1/2.
        let mut r = rng();
        let mut plus = 0;
        let n = 2000;
        for _ in 0..n {
            let mut rho = DensityMatrix::new(1);
            if rho.measure_in_basis(0, std::f64::consts::FRAC_PI_4, &mut r)
                == crate::measurement::MeasurementOutcome::Plus
            {
                plus += 1;
            }
        }
        let frac = plus as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05);
    }

    #[test]
    fn tensor_product_appends_qubits() {
        let mut a = DensityMatrix::new(1);
        a.apply_single(&gates::pauli_x(), 0); // |1⟩
        let b = DensityMatrix::new(1); // |0⟩
        let ab = a.tensor(&b);
        assert_eq!(ab.num_qubits(), 2);
        // |10⟩ = index 2
        assert!((ab.probabilities()[2] - 1.0).abs() < 1e-12);
        // Tracing out the appended qubit recovers the original.
        let back = ab.partial_trace(&[0]);
        assert!((back.probability_one(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn embed_operator_matches_kron_for_adjacent_qubits() {
        // Embedding X on qubit 1 of 2 should equal I ⊗ X.
        let embedded = embed_operator(&gates::pauli_x(), &[1], 2);
        let expected = gates::identity().kron(&gates::pauli_x());
        assert!(embedded.approx_eq(&expected, 1e-12));
        // Embedding on qubit 0 should equal X ⊗ I.
        let embedded = embed_operator(&gates::pauli_x(), &[0], 2);
        let expected = gates::pauli_x().kron(&gates::identity());
        assert!(embedded.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn embed_operator_handles_reversed_qubit_order() {
        // CNOT with control = qubit 1, target = qubit 0 maps |01⟩ → |11⟩.
        let embedded = embed_operator(&gates::cnot(), &[1, 0], 2);
        let mut rho = DensityMatrix::new(2);
        rho.apply_single(&gates::pauli_x(), 1); // |01⟩
        rho.apply_unitary(&gates::cnot(), &[1, 0]);
        assert!((rho.probabilities()[3] - 1.0).abs() < 1e-12);
        assert!(embedded.is_unitary(1e-12));
    }
}
