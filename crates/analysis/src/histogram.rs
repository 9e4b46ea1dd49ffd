//! Helpers for turning shot-count histograms into figure rows.

use crate::rows::HistogramRow;
use qsim::counts::Counts;

/// The four two-bit outcome labels in display order.
pub(crate) const MESSAGE_LABELS: [&str; 4] = ["00", "01", "10", "11"];

/// The ideal (noise-free) outcome distribution when `encoded` was sent: a point mass on the
/// encoded label.
///
/// # Panics
///
/// Panics if `encoded` is not one of `00`, `01`, `10`, `11`.
pub(crate) fn ideal_distribution_for(encoded: &str) -> [f64; 4] {
    let mut dist = [0.0; 4];
    let index = MESSAGE_LABELS
        .iter()
        .position(|&l| l == encoded)
        .unwrap_or_else(|| panic!("{encoded:?} is not a 2-bit message label"));
    dist[index] = 1.0;
    dist
}

/// Converts a [`Counts`] histogram for one encoded message into a Fig. 2 row, computing the
/// classical fidelity against the ideal point-mass distribution.
///
/// # Panics
///
/// Panics if `encoded` is not one of the four 2-bit labels.
pub fn counts_to_row(encoded: &str, counts: &Counts) -> HistogramRow {
    let ideal = ideal_distribution_for(encoded);
    let fidelity = counts.fidelity_with(&MESSAGE_LABELS, &ideal);
    HistogramRow {
        encoded: encoded.to_string(),
        counts: [
            counts.get("00"),
            counts.get("01"),
            counts.get("10"),
            counts.get("11"),
        ],
        shots: counts.total(),
        fidelity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2a_counts() -> Counts {
        // The paper's Fig. 2(a): Alice encoded "00".
        let mut c = Counts::new();
        c.record_many("00", 957);
        c.record_many("01", 40);
        c.record_many("10", 25);
        c.record_many("11", 2);
        c
    }

    #[test]
    fn ideal_distributions_are_point_masses() {
        assert_eq!(ideal_distribution_for("00"), [1.0, 0.0, 0.0, 0.0]);
        assert_eq!(ideal_distribution_for("11"), [0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "not a 2-bit message label")]
    fn invalid_label_panics() {
        let _ = ideal_distribution_for("2");
    }

    #[test]
    fn counts_to_row_matches_paper_numbers() {
        let row = counts_to_row("00", &fig2a_counts());
        assert_eq!(row.counts, [957, 40, 25, 2]);
        assert_eq!(row.shots, 1024);
        assert!((row.accuracy() - 957.0 / 1024.0).abs() < 1e-12);
        // The paper reports average fidelity ≥ 0.95 for η = 10; 957/1024 ≈ 0.934 is the raw
        // point-mass fidelity of panel (a) alone.
        assert!(row.fidelity > 0.9);
    }

    #[test]
    fn empty_counts_give_zero_row() {
        let row = counts_to_row("01", &Counts::new());
        assert_eq!(row.shots, 0);
        assert_eq!(row.counts, [0; 4]);
        assert_eq!(row.accuracy(), 0.0);
    }
}
