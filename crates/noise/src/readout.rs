//! Classical readout (assignment) errors.
//!
//! Superconducting hardware mis-assigns measurement outcomes with probabilities of order one
//! percent; the paper lumps these into the "additional sources of error beyond channel noise,
//! such as calibration and readout errors". [`ReadoutError`] flips measured bits with
//! configurable asymmetric probabilities.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An asymmetric classical bit-flip error applied to measurement outcomes.
///
/// # Examples
///
/// ```rust
/// use noise::readout::ReadoutError;
/// use rand::SeedableRng;
///
/// let err = ReadoutError::symmetric(0.02);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let flipped = (0..10_000).filter(|_| err.apply(0, &mut rng) == 1).count();
/// assert!((flipped as f64 / 10_000.0 - 0.02).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadoutError {
    /// Probability of reading `1` when the true outcome is `0`.
    p01: f64,
    /// Probability of reading `0` when the true outcome is `1`.
    p10: f64,
}

impl ReadoutError {
    /// Creates an asymmetric readout error.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(p01: f64, p10: f64) -> Self {
        assert!((0.0..=1.0).contains(&p01), "p01 must be in [0, 1]");
        assert!((0.0..=1.0).contains(&p10), "p10 must be in [0, 1]");
        Self { p01, p10 }
    }

    /// Creates a symmetric readout error with flip probability `p` in both directions.
    pub fn symmetric(p: f64) -> Self {
        Self::new(p, p)
    }

    /// The perfect (error-free) readout.
    pub fn ideal() -> Self {
        Self { p01: 0.0, p10: 0.0 }
    }

    /// Probability of reading `1` when the true outcome is `0`.
    pub fn p01(&self) -> f64 {
        self.p01
    }

    /// Probability of reading `0` when the true outcome is `1`.
    pub fn p10(&self) -> f64 {
        self.p10
    }

    /// Returns `true` when both flip probabilities are zero.
    pub fn is_ideal(&self) -> bool {
        self.p01 == 0.0 && self.p10 == 0.0
    }

    /// Applies the error to a single measured bit.
    pub fn apply<R: Rng + ?Sized>(&self, bit: u8, rng: &mut R) -> u8 {
        let flip_prob = if bit == 0 { self.p01 } else { self.p10 };
        if flip_prob > 0.0 && rng.gen::<f64>() < flip_prob {
            1 - bit
        } else {
            bit
        }
    }
}

impl Default for ReadoutError {
    fn default() -> Self {
        Self::ideal()
    }
}

impl fmt::Display for ReadoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "readout(p01={}, p10={})", self.p01, self.p10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(4242)
    }

    #[test]
    fn ideal_readout_never_flips() {
        let e = ReadoutError::ideal();
        assert!(e.is_ideal());
        let mut r = rng();
        for bit in [0u8, 1u8] {
            for _ in 0..100 {
                assert_eq!(e.apply(bit, &mut r), bit);
            }
        }
    }

    #[test]
    fn symmetric_flip_rate_matches_probability() {
        let e = ReadoutError::symmetric(0.1);
        let mut r = rng();
        let n = 20_000;
        let flips0 = (0..n).filter(|_| e.apply(0, &mut r) == 1).count() as f64 / n as f64;
        let flips1 = (0..n).filter(|_| e.apply(1, &mut r) == 0).count() as f64 / n as f64;
        assert!((flips0 - 0.1).abs() < 0.01);
        assert!((flips1 - 0.1).abs() < 0.01);
    }

    #[test]
    fn asymmetric_probabilities_are_respected() {
        let e = ReadoutError::new(0.0, 0.5);
        let mut r = rng();
        assert_eq!(e.apply(0, &mut r), 0);
        let n = 10_000;
        let flips1 = (0..n).filter(|_| e.apply(1, &mut r) == 0).count() as f64 / n as f64;
        assert!((flips1 - 0.5).abs() < 0.02);
        assert_eq!(e.p01(), 0.0);
        assert_eq!(e.p10(), 0.5);
    }

    #[test]
    #[should_panic(expected = "p01 must be in")]
    fn invalid_probability_panics() {
        let _ = ReadoutError::new(1.5, 0.0);
    }

    #[test]
    fn default_is_ideal_and_display_is_informative() {
        assert!(ReadoutError::default().is_ideal());
        assert!(ReadoutError::symmetric(0.02).to_string().contains("0.02"));
    }
}
