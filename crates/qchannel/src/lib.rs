//! # qchannel — quantum and classical channels for the UA-DI-QSDC reproduction
//!
//! The protocol runs over two channels:
//!
//! - a **quantum channel** carrying Alice's qubits to Bob, which the paper emulates as a chain
//!   of η noisy identity gates (60 ns each on `ibm_brisbane`) — see [`quantum::QuantumChannel`]
//!   and [`quantum::ChannelSpec`];
//! - an **authenticated public classical channel** used for position/basis/outcome
//!   announcements, which an eavesdropper can read but not forge — every message lands in a
//!   session's [`classical::Transcript`] (see [`classical::ClassicalMessage`]).
//!
//! The crate also defines [`epr::EprPair`], the two-qubit working unit the whole protocol is
//! built from, and [`quantum::ChannelTap`], the hook eavesdropper models implement to touch
//! qubits in flight. The standard tap library — intercept-and-resend,
//! man-in-the-middle, and entangle-and-measure — lives in [`taps`].
//!
//! ## Example
//!
//! ```rust
//! use qchannel::prelude::*;
//! use noise::DeviceModel;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let channel = QuantumChannel::new(ChannelSpec::noisy_identity_chain(10, DeviceModel::ibm_brisbane_like()));
//! let mut pair = EprPair::ideal();
//! channel.transmit(&mut pair, &mut rng);
//! assert!(pair.fidelity_phi_plus() > 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classical;
pub mod compiled;
pub mod epr;
pub mod quantum;
pub mod taps;

pub use classical::{ClassicalMessage, Transcript};
pub use compiled::CompiledQuantumChannel;
pub use epr::EprPair;
pub use quantum::{ChannelSpec, ChannelTap, QuantumChannel};
pub use taps::{
    EntangleMeasureAttack, InterceptBasis, InterceptResendAttack, ManInTheMiddleAttack,
    SubstituteState,
};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::classical::{ClassicalMessage, Transcript};
    pub use crate::compiled::CompiledQuantumChannel;
    pub use crate::epr::EprPair;
    pub use crate::quantum::{ChannelSpec, ChannelTap, QuantumChannel};
    pub use crate::taps::{
        EntangleMeasureAttack, InterceptBasis, InterceptResendAttack, ManInTheMiddleAttack,
        SubstituteState,
    };
}
