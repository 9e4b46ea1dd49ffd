//! Measurement bases and outcomes.
//!
//! The DI security check of the protocol has Alice measure in one of three bases
//! `B_{A_j} = {|0⟩ ± e^{iA_j}|1⟩}` with `A_0 = π/4`, `A_1 = 0`, `A_2 = π/2`, and Bob in one of
//! two bases with `B_1 = π/4`, `B_2 = −π/4`. This module names those bases and the ±1-valued
//! outcomes they produce.

use mathkit::complex::Complex64;
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
use std::fmt;

/// A single-qubit measurement basis of the form `{(|0⟩ + e^{iθ}|1⟩)/√2, (|0⟩ − e^{iθ}|1⟩)/√2}`.
///
/// # Examples
///
/// ```rust
/// use qsim::measurement::MeasurementBasis;
///
/// let a0 = MeasurementBasis::alice(0);
/// assert!((a0.angle() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MeasurementBasis {
    /// Phase angle θ of the basis.
    angle: f64,
    /// Human-readable label ("A0", "B1", …).
    label: &'static str,
}

impl Deserialize for MeasurementBasis {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let angle = f64::from_value(value.get_field("angle")?)?;
        let label = String::from_value(value.get_field("label")?)?;
        // The label field is `&'static str` (so the type stays `Copy`); map the
        // serialized form back onto the known label set.
        let label = ["A0", "A1", "A2", "B1", "B2"]
            .into_iter()
            .find(|&known| known == label)
            .unwrap_or("custom");
        Ok(Self { angle, label })
    }
}

impl MeasurementBasis {
    /// Alice's measurement basis `A_j` of the DI check: `A_0 = π/4`, `A_1 = 0`, `A_2 = π/2`.
    ///
    /// # Panics
    ///
    /// Panics if `j > 2`.
    pub fn alice(j: usize) -> Self {
        match j {
            0 => Self {
                angle: FRAC_PI_4,
                label: "A0",
            },
            1 => Self {
                angle: 0.0,
                label: "A1",
            },
            2 => Self {
                angle: FRAC_PI_2,
                label: "A2",
            },
            _ => panic!("Alice only has bases A0, A1, A2 (got index {j})"),
        }
    }

    /// Bob's measurement basis `B_k` of the DI check.
    ///
    /// The paper lists `B_1 = π/4`, `B_2 = −π/4` with basis vectors `|0⟩ ± e^{iB_k}|1⟩`.
    /// Taken literally, those phases give a CHSH value of **zero** on `|Φ+⟩` (because
    /// `⟨Y⊗Y⟩ = −1`, equatorial correlators are `cos(θ_A + θ_B)`). We therefore conjugate
    /// Bob's phase — `B_1 = −π/4`, `B_2 = +π/4` — which is the standard DI-QKD convention
    /// (Acín et al. 2007) and restores the intended `S = 2√2` for the honest protocol. The
    /// labels keep the paper's names.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not 1 or 2.
    pub(crate) fn bob(k: usize) -> Self {
        match k {
            1 => Self {
                angle: -FRAC_PI_4,
                label: "B1",
            },
            2 => Self {
                angle: FRAC_PI_4,
                label: "B2",
            },
            _ => panic!("Bob only has bases B1 and B2 (got index {k})"),
        }
    }

    /// All three of Alice's DI-check bases.
    pub fn alice_all() -> [Self; 3] {
        [Self::alice(0), Self::alice(1), Self::alice(2)]
    }

    /// Both of Bob's DI-check bases.
    pub fn bob_all() -> [Self; 2] {
        [Self::bob(1), Self::bob(2)]
    }

    /// Phase angle θ of the basis.
    pub fn angle(&self) -> f64 {
        self.angle
    }
}

impl fmt::Display for MeasurementBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(θ={:.4})", self.label, self.angle)
    }
}

/// A basis angle `θ` together with its phase `e^{iθ}`.
///
/// The fused pair measurement ([`crate::density::DensityMatrix::measure_two_in_bases`])
/// needs `e^{iθ}` for both bases. Building the phase once per basis — not once per measured
/// pair — takes every transcendental call out of the DI-check loop. The phase is the same
/// `Complex64::cis(θ)` value either way, so results are unchanged to the bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasisPhase {
    angle: f64,
    phase: Complex64,
}

impl BasisPhase {
    /// The phase of the basis `B(θ)`.
    pub fn new(angle: f64) -> Self {
        Self {
            angle,
            phase: Complex64::cis(angle),
        }
    }

    /// The basis angle `θ`.
    pub fn angle(self) -> f64 {
        self.angle
    }

    /// The phase `e^{iθ}`.
    pub(crate) fn phase(self) -> Complex64 {
        self.phase
    }
}

impl From<MeasurementBasis> for BasisPhase {
    fn from(basis: MeasurementBasis) -> Self {
        Self::new(basis.angle())
    }
}

/// A ±1-valued measurement outcome, as used in CHSH correlators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MeasurementOutcome {
    /// Eigenvalue +1 (bit 0).
    Plus,
    /// Eigenvalue −1 (bit 1).
    Minus,
}

impl MeasurementOutcome {
    /// Maps a measured bit to an outcome: `0 → +1`, `1 → −1`.
    pub(crate) fn from_bit(bit: u8) -> Self {
        if bit == 0 {
            MeasurementOutcome::Plus
        } else {
            MeasurementOutcome::Minus
        }
    }

    /// The underlying bit: `+1 → 0`, `−1 → 1`.
    pub fn to_bit(self) -> u8 {
        match self {
            MeasurementOutcome::Plus => 0,
            MeasurementOutcome::Minus => 1,
        }
    }

    /// The eigenvalue as a float (`+1.0` or `−1.0`).
    pub fn value(self) -> f64 {
        match self {
            MeasurementOutcome::Plus => 1.0,
            MeasurementOutcome::Minus => -1.0,
        }
    }
}

impl fmt::Display for MeasurementOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasurementOutcome::Plus => write!(f, "+1"),
            MeasurementOutcome::Minus => write!(f, "-1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alice_bases_match_the_paper() {
        assert!((MeasurementBasis::alice(0).angle() - FRAC_PI_4).abs() < 1e-15);
        assert!((MeasurementBasis::alice(1).angle() - 0.0).abs() < 1e-15);
        assert!((MeasurementBasis::alice(2).angle() - FRAC_PI_2).abs() < 1e-15);
        assert_eq!(MeasurementBasis::alice(0).label, "A0");
        assert_eq!(MeasurementBasis::alice_all().len(), 3);
    }

    #[test]
    fn bob_bases_are_the_phase_conjugated_paper_angles() {
        assert!((MeasurementBasis::bob(1).angle() + FRAC_PI_4).abs() < 1e-15);
        assert!((MeasurementBasis::bob(2).angle() - FRAC_PI_4).abs() < 1e-15);
        assert_eq!(MeasurementBasis::bob(1).label, "B1");
        assert_eq!(MeasurementBasis::bob_all().len(), 2);
    }

    #[test]
    #[should_panic(expected = "A0, A1, A2")]
    fn alice_basis_index_out_of_range_panics() {
        let _ = MeasurementBasis::alice(3);
    }

    #[test]
    #[should_panic(expected = "B1 and B2")]
    fn bob_basis_index_out_of_range_panics() {
        let _ = MeasurementBasis::bob(0);
    }

    #[test]
    fn outcome_bit_round_trip() {
        assert_eq!(MeasurementOutcome::from_bit(0), MeasurementOutcome::Plus);
        assert_eq!(MeasurementOutcome::from_bit(1), MeasurementOutcome::Minus);
        assert_eq!(MeasurementOutcome::Plus.to_bit(), 0);
        assert_eq!(MeasurementOutcome::Minus.to_bit(), 1);
        assert_eq!(MeasurementOutcome::Plus.value(), 1.0);
        assert_eq!(MeasurementOutcome::Minus.value(), -1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MeasurementOutcome::Plus.to_string(), "+1");
        assert_eq!(MeasurementOutcome::Minus.to_string(), "-1");
        assert!(MeasurementBasis::alice(0).to_string().contains("A0"));
    }
}
