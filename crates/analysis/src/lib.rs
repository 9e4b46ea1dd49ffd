//! # analysis — statistics and experiment-data plumbing for the UA-DI-QSDC evaluation
//!
//! The bench harness produces the paper's tables and figures; this crate supplies the shared
//! machinery:
//!
//! - [`stats`] — means, standard deviations, binomial confidence intervals, linear trends.
//! - [`rows`] — one plain-data row type per experiment (Fig. 2 histogram row, Fig. 3 sweep
//!   point, attack summaries, Table I rows) so results can be serialised and rendered
//!   uniformly.
//! - [`report`] — markdown and CSV rendering of row collections.
//! - [`histogram`] — helpers for turning [`qsim::Counts`] into figure rows and fidelities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod report;
pub mod rows;
pub mod stats;

pub use report::{render_csv, render_markdown_table};
pub use rows::{AccuracyPoint, AttackRow, DetectionPoint, Table1Row};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::histogram::counts_to_row;
    pub use crate::report::{render_csv, render_markdown_table};
    pub use crate::rows::{AccuracyPoint, AttackRow, DetectionPoint, Table1Row};
    pub use crate::stats::{linear_trend, mean, population_std_dev};
}
