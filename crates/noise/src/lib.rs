//! # noise — Kraus channels and NISQ device models
//!
//! The paper runs its protocol on IBM's `ibm_brisbane` (127-qubit Eagle r3) and reports the
//! hardware's calibration data: 60 ns identity gates with error 2.41 × 10⁻⁴, median
//! T1 = 233.04 µs, median T2 = 145.75 µs, 4.5 % error per layered gate on a 100-qubit chain.
//! This crate turns those numbers into a simulable noise model:
//!
//! - [`kraus::KrausChannel`] — CPTP maps (depolarizing, bit/phase flip, amplitude damping,
//!   phase damping, thermal relaxation) expressed as Kraus operators and validated for
//!   completeness.
//! - [`readout::ReadoutError`] — classical assignment errors applied to measured bits.
//! - [`device::DeviceModel`] — a named bundle of gate times, gate errors, T1/T2 and readout
//!   error, with the `ibm_brisbane_like` and `ideal` presets.
//! - [`compiled::CompiledChannel`] — a channel fixed at one qubit placement, precompiled for
//!   repeated application.
//! - [`executor::NoisyExecutor`] — runs a [`qsim::Circuit`] on the density-matrix back-end,
//!   inserting the device's noise after every gate and corrupting measured bits with the
//!   readout error.
//!
//! ## Compile once, apply many
//!
//! The one-shot [`KrausChannel::apply`] validates targets and embeds operators on **every
//! call**. Hot loops should compile the placement once with [`KrausChannel::compile`] and
//! replay it: application is bit-identical — the compiled kernels run the exact
//! floating-point operation sequence of the one-shot path, and the compiled samplers draw the
//! same `f64`s in the same order as qsim's `apply_kraus_sampled` — but validation, embedding,
//! and steady-state heap allocation drop to zero. See `docs/kernels.md` in the repo root for
//! the full architecture.
//!
//! ```rust
//! use noise::prelude::*;
//! use qsim::density::DensityMatrix;
//!
//! let channel = KrausChannel::depolarizing(0.05);
//! // Fix the placement once: qubit 0 of a 2-qubit register…
//! let compiled = channel.compile(&[0], 2);
//! let mut rho = DensityMatrix::new(2);
//! // …then apply it as often as the sweep needs, allocation-free.
//! for _ in 0..1000 {
//!     compiled.apply(&mut rho);
//! }
//! ```
//!
//! ## Example
//!
//! ```rust
//! use noise::prelude::*;
//! use qsim::circuit::CircuitBuilder;
//! use rand::SeedableRng;
//!
//! let device = DeviceModel::ibm_brisbane_like();
//! let circuit = CircuitBuilder::new(2, 2)
//!     .h(0)
//!     .cnot(0, 1)
//!     .identity_chain(0, 10)
//!     .measure(0, 0)
//!     .measure(1, 1)
//!     .build();
//! let executor = NoisyExecutor::new(device);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let counts = executor.sample(&circuit, 256, &mut rng).unwrap();
//! assert_eq!(counts.total(), 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
#[cfg(test)]
mod compiled_identity;
pub mod device;
mod executor;
mod kraus;
pub mod readout;
pub mod twirl;
#[cfg(test)]
mod twirl_projection;

pub use compiled::CompiledChannel;
pub use device::DeviceModel;
pub use executor::NoisyExecutor;
pub use kraus::KrausChannel;
pub use readout::ReadoutError;
pub use twirl::{PauliDistribution, TwirledChannel};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::compiled::CompiledChannel;
    pub use crate::device::DeviceModel;
    pub use crate::executor::NoisyExecutor;
    pub use crate::kraus::KrausChannel;
    pub use crate::twirl::{PauliDistribution, TwirledChannel};
}
