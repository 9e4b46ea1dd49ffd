//! The Pauli encoding alphabet.
//!
//! The UA-DI-QSDC protocol encodes two classical bits per qubit by applying one of the four
//! unitaries `{I, σz, σx, iσy}`; the same alphabet doubles as the *cover operations* Alice
//! applies to the DA qubits so that Bob's identity stays reusable. [`Pauli`] names the four
//! operators and knows the paper's bit-pair mapping.

use crate::gates;
use mathkit::complex::Complex64;
use mathkit::matrix::CMatrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the four encoding operators `{I, σz, σx, iσy}` used by the protocol.
///
/// The paper's encoding rule (Section II, step 3):
///
/// | bits | operator |
/// |------|----------|
/// | `00` | `I`      |
/// | `01` | `σz`     |
/// | `10` | `σx`     |
/// | `11` | `iσy`    |
///
/// # Examples
///
/// ```rust
/// use qsim::pauli::Pauli;
///
/// assert_eq!(Pauli::from_bits(true, false), Pauli::X);
/// assert_eq!(Pauli::Z.to_bits(), (false, true));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Pauli {
    /// Identity — encodes `00`.
    #[default]
    I,
    /// Pauli-Z — encodes `01`.
    Z,
    /// Pauli-X — encodes `10`.
    X,
    /// `iσy` — encodes `11`.
    IY,
}

impl Pauli {
    /// All four operators in bit-pair order `00, 01, 10, 11`.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::Z, Pauli::X, Pauli::IY];

    /// Maps a bit pair `(b1, b0)` — most-significant bit first — to its encoding operator.
    ///
    /// ```rust
    /// # use qsim::pauli::Pauli;
    /// assert_eq!(Pauli::from_bits(false, false), Pauli::I);
    /// assert_eq!(Pauli::from_bits(false, true), Pauli::Z);
    /// assert_eq!(Pauli::from_bits(true, false), Pauli::X);
    /// assert_eq!(Pauli::from_bits(true, true), Pauli::IY);
    /// ```
    pub fn from_bits(msb: bool, lsb: bool) -> Self {
        match (msb, lsb) {
            (false, false) => Pauli::I,
            (false, true) => Pauli::Z,
            (true, false) => Pauli::X,
            (true, true) => Pauli::IY,
        }
    }

    /// Maps a 2-bit integer (`0..=3`) to its encoding operator.
    ///
    /// # Panics
    ///
    /// Panics if `value > 3`.
    pub fn from_index(value: u8) -> Self {
        match value {
            0 => Pauli::I,
            1 => Pauli::Z,
            2 => Pauli::X,
            3 => Pauli::IY,
            _ => panic!("Pauli index {value} out of range (0..=3)"),
        }
    }

    /// Returns the `(msb, lsb)` bit pair this operator encodes.
    pub fn to_bits(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::Z => (false, true),
            Pauli::X => (true, false),
            Pauli::IY => (true, true),
        }
    }

    /// Returns the 2-bit integer (`0..=3`) this operator encodes.
    pub fn to_index(self) -> u8 {
        match self {
            Pauli::I => 0,
            Pauli::Z => 1,
            Pauli::X => 2,
            Pauli::IY => 3,
        }
    }

    /// The 2×2 unitary matrix of this operator.
    pub fn matrix(self) -> CMatrix {
        match self {
            Pauli::I => gates::identity(),
            Pauli::Z => gates::pauli_z(),
            Pauli::X => gates::pauli_x(),
            Pauli::IY => gates::i_pauli_y(),
        }
    }

    /// Applies this operator to one qubit of a density matrix: `ρ → P ρ P†`.
    ///
    /// Equivalent to `rho.apply_single(&self.matrix(), qubit)`, but Pauli
    /// conjugation is a pure permutation-with-signs of the entries, so the
    /// encoding hot path (one Pauli per transmitted qubit) runs without a
    /// single multiplication or allocation. Two-qubit registers take a
    /// fixed-size body with constant indices.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn apply_to_density(self, rho: &mut crate::density::DensityMatrix, qubit: usize) {
        assert!(qubit < rho.num_qubits(), "qubit out of range");
        match (crate::density::pair_mut(rho), qubit) {
            (Some(m), 0) => self.apply_to_pair::<2>(m),
            (Some(m), _) => self.apply_to_pair::<1>(m),
            (None, _) => self.apply_to_density_strided(rho, qubit),
        }
    }

    /// [`Pauli::apply_to_density`] on a two-qubit register, where `MASK` is
    /// the target qubit's bit in a basis index. The same moves and sign
    /// flips as the any-size body, so the result is the same to the bit.
    fn apply_to_pair<const MASK: usize>(self, m: &mut [Complex64; 16]) {
        // The two row (and column) indices with the target bit clear.
        const fn clear(mask: usize) -> [usize; 2] {
            [0, 3 ^ mask]
        }
        match self {
            Pauli::I => {}
            // ZρZ: negate entries whose row/column target bits differ.
            Pauli::Z => {
                for i in clear(MASK) {
                    for j in clear(MASK) {
                        let (a, b) = (i * 4 + (j | MASK), (i | MASK) * 4 + j);
                        m[a] = -m[a];
                        m[b] = -m[b];
                    }
                }
            }
            // XρX: exchange entries across the target-bit flip.
            Pauli::X => {
                for i in clear(MASK) {
                    for j in 0..4 {
                        m.swap(i * 4 + j, (i | MASK) * 4 + (j ^ MASK));
                    }
                }
            }
            // (iY)ρ(iY)†: the X exchange with a sign wherever the row and
            // column target bits of the destination differ.
            Pauli::IY => {
                for i in clear(MASK) {
                    for j in clear(MASK) {
                        // Destination column bit clear: a plain exchange.
                        m.swap(i * 4 + j, (i | MASK) * 4 + (j | MASK));
                        // Destination column bit set: exchange and negate.
                        let (a, b) = (i * 4 + (j | MASK), (i | MASK) * 4 + j);
                        let moved = m[b];
                        m[b] = -m[a];
                        m[a] = -moved;
                    }
                }
            }
        }
    }

    /// The any-size body of [`Pauli::apply_to_density`].
    pub(crate) fn apply_to_density_strided(
        self,
        rho: &mut crate::density::DensityMatrix,
        qubit: usize,
    ) {
        let num_qubits = rho.num_qubits();
        let dim = 1usize << num_qubits;
        let mask = 1usize << (num_qubits - 1 - qubit);
        let m = rho.matrix_mut().as_mut_slice();
        match self {
            Pauli::I => {}
            // ZρZ: negate entries whose row/column target bits differ.
            Pauli::Z => {
                for i in 0..dim {
                    for j in 0..dim {
                        if ((i ^ j) & mask) != 0 {
                            m[i * dim + j] = -m[i * dim + j];
                        }
                    }
                }
            }
            // XρX: exchange entries across the target-bit flip.
            Pauli::X => {
                for i in 0..dim {
                    if i & mask != 0 {
                        continue;
                    }
                    let ix = i ^ mask;
                    for j in 0..dim {
                        m.swap(i * dim + j, ix * dim + (j ^ mask));
                    }
                }
            }
            // (iY)ρ(iY)†: the X exchange with a sign wherever the row and
            // column target bits of the destination differ.
            Pauli::IY => {
                for i in 0..dim {
                    if i & mask != 0 {
                        continue;
                    }
                    let ix = i ^ mask;
                    for j in 0..dim {
                        let a = i * dim + j;
                        let b = ix * dim + (j ^ mask);
                        let moved = m[b];
                        if j & mask != 0 {
                            m[b] = -m[a];
                            m[a] = -moved;
                        } else {
                            m[b] = m[a];
                            m[a] = moved;
                        }
                    }
                }
            }
        }
    }

    /// Samples a uniformly random operator — how Eve behaves when she does not know the
    /// identity string, and how Alice picks cover operations.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_index(rng.gen_range(0..4u8))
    }

    /// Group composition: the operator equivalent to applying `self` **after** `other`,
    /// ignoring global phase.
    ///
    /// The four operators form the Klein four-group modulo phase, which is what makes the
    /// cover-operation bookkeeping in the authentication step work: Alice can undo her cover
    /// operation on paper by composing indices.
    ///
    /// ```rust
    /// # use qsim::pauli::Pauli;
    /// assert_eq!(Pauli::X.compose(Pauli::Z), Pauli::IY);
    /// assert_eq!(Pauli::Z.compose(Pauli::Z), Pauli::I);
    /// ```
    pub fn compose(self, other: Pauli) -> Pauli {
        // Using the bit-pair representation (x, z) where operator = X^x Z^z up to phase:
        // I=(0,0), Z=(0,1), X=(1,0), iY=(1,1); composition is XOR of the pairs.
        let (ax, az) = self.to_bits();
        let (bx, bz) = other.to_bits();
        Pauli::from_bits(ax ^ bx, az ^ bz)
    }

    /// Human-readable operator symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Pauli::I => "I",
            Pauli::Z => "σz",
            Pauli::X => "σx",
            Pauli::IY => "iσy",
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bit_round_trip() {
        for p in Pauli::ALL {
            let (msb, lsb) = p.to_bits();
            assert_eq!(Pauli::from_bits(msb, lsb), p);
            assert_eq!(Pauli::from_index(p.to_index()), p);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_large_values() {
        let _ = Pauli::from_index(4);
    }

    #[test]
    fn matrices_are_unitary_and_match_gate_library() {
        for p in Pauli::ALL {
            assert!(p.matrix().is_unitary(1e-12));
        }
        assert!(Pauli::X.matrix().approx_eq(&gates::pauli_x(), 1e-12));
        assert!(Pauli::IY.matrix().approx_eq(&gates::i_pauli_y(), 1e-12));
    }

    #[test]
    fn composition_is_klein_four_group() {
        // Every element is its own inverse.
        for p in Pauli::ALL {
            assert_eq!(p.compose(p), Pauli::I);
        }
        // Composition is commutative (mod phase).
        for a in Pauli::ALL {
            for b in Pauli::ALL {
                assert_eq!(a.compose(b), b.compose(a));
            }
        }
        // Closure with the expected values.
        assert_eq!(Pauli::X.compose(Pauli::Z), Pauli::IY);
        assert_eq!(Pauli::X.compose(Pauli::IY), Pauli::Z);
        assert_eq!(Pauli::Z.compose(Pauli::IY), Pauli::X);
    }

    #[test]
    fn composition_matches_matrix_product_up_to_phase() {
        for a in Pauli::ALL {
            for b in Pauli::ALL {
                let composed = a.compose(b).matrix();
                let product = a.matrix().matmul(&b.matrix());
                // The product must equal the composed operator up to a global phase factor.
                // Find the first non-zero entry and compare ratios.
                let mut phase = None;
                'outer: for i in 0..2 {
                    for j in 0..2 {
                        if composed[(i, j)].norm() > 1e-9 {
                            phase = Some(product[(i, j)] / composed[(i, j)]);
                            break 'outer;
                        }
                    }
                }
                let phase = phase.expect("composed Pauli has a non-zero entry");
                assert!(
                    (phase.norm() - 1.0).abs() < 1e-9,
                    "phase must be unimodular"
                );
                assert!(product.approx_eq(&composed.scale(phase), 1e-9));
            }
        }
    }

    #[test]
    fn random_sampling_covers_all_operators() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(Pauli::random(&mut rng));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn display_and_default() {
        assert_eq!(Pauli::IY.to_string(), "iσy");
        assert_eq!(Pauli::default(), Pauli::I);
    }
}
