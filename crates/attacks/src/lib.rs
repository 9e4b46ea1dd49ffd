//! # attacks — eavesdropper analyses for the UA-DI-QSDC reproduction
//!
//! Section III of the paper analyses five attack strategies; Section IV simulates them. The
//! three channel attacks (intercept-and-resend, man-in-the-middle, entangle-and-measure) are
//! taps in [`qchannel::taps`]; the second DI check sees `S ≤ 2` under each of them and the
//! protocol aborts. This crate layers the protocol-level analyses on top:
//!
//! - [`impersonation`] — Eve plays Alice or Bob without knowing the pre-shared identity;
//!   detection probability `1 − (1/4)^l`.
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

pub mod impersonation;
pub mod leakage;

pub use impersonation::run_impersonation_trials;
pub use leakage::LeakageAudit;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::impersonation::run_impersonation_trials;
    pub use crate::leakage::LeakageAudit;
}
