//! Compile-once/apply-many channel placements.
//!
//! A [`KrausChannel`] is placement-free: it knows its operators but not
//! which qubits of which register it will act on. The legacy one-shot
//! methods ([`KrausChannel::apply`] and friends) therefore re-validate the
//! targets and re-embed every operator into the full register space on
//! **every call** — wasted work when the same channel hits the same qubits
//! millions of times across a sweep.
//!
//! [`CompiledChannel`] fixes the placement once:
//!
//! ```rust
//! use noise::KrausChannel;
//! use qsim::DensityMatrix;
//!
//! // Compile once per (channel, targets, register size)...
//! let damp = KrausChannel::amplitude_damping(0.05).compile(&[1], 2);
//!
//! // ...then apply as often as you like: no validation, no embedding,
//! // no steady-state heap allocation.
//! let mut rho = DensityMatrix::new(2);
//! for _ in 0..1000 {
//!     damp.apply(&mut rho);
//! }
//! assert!((rho.trace() - 1.0).abs() < 1e-12);
//! ```
//!
//! # Determinism contract
//!
//! The compiled kernels replay the exact floating-point operation sequence
//! of the one-shot methods they replace (see [`qsim::kernel`]), so results
//! are **bit-identical** (`f64::to_bits`), not merely close, and the
//! sampled entry points draw exactly one `f64` per call — swapping a
//! one-shot call for its compiled form never perturbs a seeded run.

use crate::kraus::KrausChannel;
use qsim::density::DensityMatrix;
use qsim::error::QsimError;
use qsim::kernel::CompiledKraus;
use qsim::statevector::StateVector;
use rand::Rng;
use std::fmt;

/// A [`KrausChannel`] compiled against a fixed `(targets, num_qubits)`
/// placement — the fast path for every per-trial channel application.
///
/// Build with [`KrausChannel::compile`]. Not serialisable by design:
/// compiled form is derived state, rebuilt from the channel on load.
#[derive(Debug, Clone)]
pub struct CompiledChannel {
    name: String,
    targets: Vec<usize>,
    kernel: CompiledKraus,
    /// The placement-free source channel, kept so derived lowerings (the
    /// Pauli twirl of [`CompiledChannel::twirl`]) can reach the operators.
    source: KrausChannel,
}

impl CompiledChannel {
    // detlint: allow(hot-path-alloc): compile-time constructor; the per-trial loop only calls apply/sample
    pub(crate) fn new(channel: &KrausChannel, targets: &[usize], num_qubits: usize) -> Self {
        let kernel = CompiledKraus::compile(channel.operators(), targets, num_qubits)
            .unwrap_or_else(|e| {
                panic!(
                    "cannot compile channel `{}` onto qubits {:?} of a {}-qubit register: {}",
                    channel.name(),
                    targets,
                    num_qubits,
                    e
                )
            });
        Self {
            name: channel.name().to_string(),
            targets: targets.to_vec(),
            kernel,
            source: channel.clone(),
        }
    }

    /// Name of the source channel.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The placement-free channel this placement was compiled from.
    pub(crate) fn source_channel(&self) -> &KrausChannel {
        &self.source
    }

    /// Register size the placement was compiled for.
    pub fn num_qubits(&self) -> usize {
        self.kernel.num_qubits()
    }

    /// Number of Kraus operators (trajectory branches).
    pub(crate) fn num_branches(&self) -> usize {
        self.kernel.len()
    }

    /// Applies the channel exactly, in place — bit-identical to
    /// [`KrausChannel::apply`] with the compiled targets.
    ///
    /// # Panics
    ///
    /// Panics if `rho` has a different register size than the placement
    /// was compiled for.
    pub fn apply(&self, rho: &mut DensityMatrix) {
        self.kernel.apply(rho);
    }

    /// Applies one sampled trajectory step to a pure state — bit-identical
    /// to [`StateVector::apply_kraus_sampled`] with the channel's operators
    /// and targets, one `f64` drawn from `rng` per call. Returns the
    /// selected branch index.
    ///
    /// # Errors
    ///
    /// [`QsimError::ZeroNorm`] when every branch has vanishing
    /// probability; the state is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `psi` has a different register size than the placement
    /// was compiled for.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        psi: &mut StateVector,
        rng: &mut R,
    ) -> Result<usize, QsimError> {
        self.kernel.sample(psi, rng)
    }

    /// Applies one sampled trajectory step to a mixed state — bit-identical
    /// to [`DensityMatrix::apply_kraus_sampled`] with the channel's operators
    /// and targets. Returns the selected branch index.
    ///
    /// # Errors
    ///
    /// [`QsimError::ZeroNorm`] when every branch has vanishing
    /// probability; the state is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `rho` has a different register size than the placement
    /// was compiled for.
    pub fn sample_density<R: Rng + ?Sized>(
        &self,
        rho: &mut DensityMatrix,
        rng: &mut R,
    ) -> Result<usize, QsimError> {
        self.kernel.sample_density(rho, rng)
    }
}

impl fmt::Display for CompiledChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on qubits {:?} of {} ({} branches)",
            self.name,
            self.targets,
            self.num_qubits(),
            self.num_branches()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn density_bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
        rho.matrix()
            .as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn compiled_apply_matches_one_shot() {
        let channel = KrausChannel::depolarizing(0.2);
        let compiled = channel.compile(&[1], 2);
        let mut a = DensityMatrix::new(2);
        a.apply_single(&qsim::gates::hadamard(), 0);
        a.apply_two(&qsim::gates::cnot(), 0, 1);
        let mut b = a.clone();
        compiled.apply(&mut a);
        channel.apply(&mut b, &[1]);
        assert_eq!(density_bits(&a), density_bits(&b));
    }

    #[test]
    fn compiled_sample_matches_one_shot() {
        let channel = KrausChannel::amplitude_damping(0.3);
        let compiled = channel.compile(&[0], 2);
        let mut psi_a = qsim::bell::BellState::PhiPlus.statevector();
        let mut psi_b = psi_a.clone();
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let a = compiled.sample(&mut psi_a, &mut rng_a).unwrap();
            let b = psi_b
                .apply_kraus_sampled(channel.operators(), &[0], &mut rng_b)
                .unwrap();
            assert_eq!(a, b);
        }
        let bits_a: Vec<_> = psi_a
            .amplitudes()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect();
        let bits_b: Vec<_> = psi_b
            .amplitudes()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect();
        assert_eq!(bits_a, bits_b);
    }

    #[test]
    fn display_names_the_placement() {
        let compiled = KrausChannel::depolarizing(0.1).compile(&[0], 2);
        let text = compiled.to_string();
        assert!(text.contains("depolarizing"), "got {text}");
        assert!(text.contains("[0]"), "got {text}");
        assert_eq!(compiled.num_qubits(), 2);
        assert_eq!(compiled.num_branches(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot compile channel")]
    fn compile_rejects_bad_targets() {
        KrausChannel::depolarizing(0.1).compile(&[7], 2);
    }
}
