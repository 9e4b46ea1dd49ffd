//! # attacks — eavesdropper analyses for the UA-DI-QSDC reproduction
//!
//! Section III of the paper analyses five attack strategies; Section IV simulates them. The
//! channel-level tap implementations live in [`qchannel::taps`] (re-exported here under their
//! historical module paths); this crate layers the protocol-level analyses on top:
//!
//! - [`impersonation`] — Eve plays Alice or Bob without knowing the pre-shared identity;
//!   detection probability `1 − (1/4)^l`.
//! - [`intercept_resend`] / [`mitm`] / [`entangle_measure`] — the channel attacks; the second
//!   DI check sees `S ≤ 2` and the protocol aborts.
//! - [`leakage`] — an audit of the public classical transcript confirming that nothing
//!   correlated with the message or the identities is ever published.
//!
//! Attacked sessions are executed through [`protocol::engine::SessionEngine`]: pick an
//! [`protocol::engine::Adversary`], put it in a [`protocol::engine::Scenario`], and ask the
//! engine for trials.
//!
//! ## Example
//!
//! ```rust
//! use protocol::prelude::*;
//! use qchannel::taps::InterceptBasis;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let identities = IdentityPair::generate(4, &mut rng);
//! let config = SessionConfig::builder().message_bits(8).check_bits(2).di_check_pairs(200).build()?;
//! let scenario = Scenario::new(config, identities)
//!     .with_adversary(Adversary::InterceptResend(InterceptBasis::Computational));
//! let summary = SessionEngine::new(1).run_trials(&scenario, 5)?;
//! assert_eq!(summary.delivered, 0, "intercept-and-resend must never get a message through");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entangle_measure;
pub mod impersonation;
pub mod intercept_resend;
pub mod leakage;
pub mod mitm;

pub use entangle_measure::EntangleMeasureAttack;
pub use impersonation::{run_impersonation_trials, ImpersonationSummary};
pub use intercept_resend::InterceptResendAttack;
pub use leakage::LeakageAudit;
pub use mitm::ManInTheMiddleAttack;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::entangle_measure::EntangleMeasureAttack;
    pub use crate::impersonation::{run_impersonation_trials, ImpersonationSummary};
    pub use crate::intercept_resend::InterceptResendAttack;
    pub use crate::leakage::LeakageAudit;
    pub use crate::mitm::ManInTheMiddleAttack;
}
