//! # qsim — a from-scratch quantum simulator for the UA-DI-QSDC reproduction
//!
//! The paper emulates its protocol on IBM's `ibm_brisbane` superconducting hardware; this
//! crate is the substitute substrate: a statevector and density-matrix simulator with the full
//! gate set, measurement machinery (including arbitrary single-qubit bases and Bell-state
//! measurement), a small circuit IR, and shot sampling.
//!
//! ## Conventions
//!
//! - Qubit `0` is the **leftmost** qubit in a ket: for a 2-qubit register the basis state
//!   `|q0 q1⟩ = |10⟩` has index `0b10 = 2`.
//! - Gates are plain [`mathkit::CMatrix`] unitaries; the named constructors in [`gates`] cover
//!   every gate the paper needs.
//! - Measurement outcomes are `u8` bits (`0`/`1`); correlation helpers map them to `±1`.
//!
//! ## Example: prepare and measure an EPR pair
//!
//! ```rust
//! use qsim::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut state = StateVector::new(2);
//! state.apply_single(&gates::hadamard(), 0);
//! state.apply_two(&gates::cnot(), 0, 1);
//! // |Φ+⟩: both outcomes correlated.
//! let (a, b) = (state.measure(0, &mut rng), state.measure(1, &mut rng));
//! assert_eq!(a, b);
//! ```
//!
//! ## Kernels
//!
//! Operator application is in-place and targeted: [`kernel::CompiledKraus`] precomputes the
//! strided index tables for a fixed `(operators, targets, num_qubits)` placement and updates
//! only the targeted qubits' strides — the embedded `2ⁿ×2ⁿ` operator is never materialised,
//! 2-qubit registers take fixed-dim fast paths, and scratch lives in thread-local buffers so
//! steady-state application is allocation-free. Unitary application and measurement collapse
//! on [`DensityMatrix`] use the same machinery, and `measure_two_in_bases` fuses a pair
//! measurement into one pass. Most users reach this through `noise::KrausChannel::compile`;
//! the architecture and its determinism contract (compiled application is bit-identical to
//! the legacy embed path) are documented in `docs/kernels.md` at the repo root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bell;
pub mod chsh;
pub mod circuit;
pub mod counts;
pub mod density;
pub mod error;
pub mod gates;
pub mod kernel;
#[cfg(test)]
mod kernel_identity;
pub mod measurement;
pub mod pauli;
pub mod pauli_frame;
#[cfg(test)]
mod properties;
pub mod statevector;

pub use bell::{BellOutcome, BellState};
pub use circuit::{Circuit, Operation};
pub use counts::Counts;
pub use density::DensityMatrix;
pub use error::QsimError;
pub use kernel::CompiledKraus;
pub use pauli::Pauli;
pub use pauli_frame::PauliFrame;
pub use statevector::StateVector;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::bell::{BellOutcome, BellState};
    pub use crate::chsh::{chsh_value, MeasurementRecord};
    pub use crate::circuit::{Circuit, Operation};
    pub use crate::counts::Counts;
    pub use crate::density::DensityMatrix;
    pub use crate::error::QsimError;
    pub use crate::gates;
    pub use crate::measurement::{MeasurementBasis, MeasurementOutcome};
    pub use crate::pauli::Pauli;
    pub use crate::pauli_frame::PauliFrame;
    pub use crate::statevector::StateVector;
}
