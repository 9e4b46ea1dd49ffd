//! Shot-count histograms.
//!
//! IBM back-ends report experiment results as a map from classical bitstring to the number of
//! shots that produced it (the paper's Fig. 2 is exactly such a histogram with 1024 shots).
//! [`Counts`] reproduces that interface.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A histogram of measurement outcomes keyed by bitstring.
///
/// # Examples
///
/// ```rust
/// use qsim::counts::Counts;
///
/// let mut counts = Counts::new();
/// counts.record("00");
/// counts.record("00");
/// counts.record("11");
/// assert_eq!(counts.total(), 3);
/// assert_eq!(counts.get("00"), 2);
/// assert_eq!(counts.most_frequent(), Some(("00", 2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Counts {
    histogram: BTreeMap<String, u64>,
}

impl Counts {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds counts from an iterator of bitstrings.
    pub(crate) fn from_outcomes<I, S>(outcomes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut counts = Self::new();
        for o in outcomes {
            counts.record(o);
        }
        counts
    }

    /// Records a single observation of `outcome`.
    pub fn record<S: Into<String>>(&mut self, outcome: S) {
        *self.histogram.entry(outcome.into()).or_insert(0) += 1;
    }

    /// Records `n` observations of `outcome` at once.
    pub fn record_many<S: Into<String>>(&mut self, outcome: S, n: u64) {
        if n > 0 {
            *self.histogram.entry(outcome.into()).or_insert(0) += n;
        }
    }

    /// Number of shots recorded for `outcome` (0 when never seen).
    pub fn get(&self, outcome: &str) -> u64 {
        self.histogram.get(outcome).copied().unwrap_or(0)
    }

    /// Total number of shots.
    pub fn total(&self) -> u64 {
        self.histogram.values().sum()
    }

    /// Relative frequency of `outcome` (0 when no shots at all).
    pub fn frequency(&self, outcome: &str) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(outcome) as f64 / total as f64
        }
    }

    /// The most frequent outcome and its count (ties broken by lexicographic order).
    pub fn most_frequent(&self) -> Option<(&str, u64)> {
        self.histogram
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterator over `(bitstring, count)` pairs in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.histogram.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Counts) {
        for (k, v) in &other.histogram {
            *self.histogram.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Empirical probability distribution over the given outcome labels (missing labels get
    /// probability 0; outcomes not in `labels` are ignored).
    pub(crate) fn distribution(&self, labels: &[&str]) -> Vec<f64> {
        labels.iter().map(|l| self.frequency(l)).collect()
    }

    /// Classical (Bhattacharyya-squared style) fidelity with an ideal probability
    /// distribution over the given labels: `F = (Σ √(p_i q_i))²`.
    ///
    /// This is the quantity the paper reports as "fidelity of the final measurement outcome
    /// compared to the ideal simulation" (≥ 0.95 in Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics if `labels` and `ideal` have different lengths.
    pub fn fidelity_with(&self, labels: &[&str], ideal: &[f64]) -> f64 {
        assert_eq!(
            labels.len(),
            ideal.len(),
            "labels and ideal distribution must have equal length"
        );
        let empirical = self.distribution(labels);
        let overlap: f64 = empirical
            .iter()
            .zip(ideal.iter())
            .map(|(p, q)| (p * q).sqrt())
            .sum();
        overlap * overlap
    }

    /// Fraction of shots equal to the single expected outcome — the "accuracy" metric of
    /// the paper's Fig. 3.
    pub fn accuracy(&self, expected: &str) -> f64 {
        self.frequency(expected)
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.histogram.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<String> for Counts {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        Self::from_outcomes(iter)
    }
}

impl Extend<String> for Counts {
    fn extend<I: IntoIterator<Item = String>>(&mut self, iter: I) {
        for o in iter {
            self.record(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counts {
        let mut c = Counts::new();
        c.record_many("00", 957);
        c.record_many("01", 40);
        c.record_many("10", 25);
        c.record_many("11", 2);
        c
    }

    #[test]
    fn recording_and_totals() {
        let c = sample();
        assert_eq!(c.total(), 1024);
        assert_eq!(c.iter().count(), 4);
        assert_eq!(c.get("00"), 957);
        assert_eq!(c.get("absent"), 0);
    }

    #[test]
    fn record_many_zero_is_ignored() {
        let mut c = Counts::new();
        c.record_many("00", 0);
        assert_eq!(c, Counts::new());
    }

    #[test]
    fn frequencies_and_accuracy() {
        let c = sample();
        assert!((c.frequency("00") - 957.0 / 1024.0).abs() < 1e-12);
        assert!((c.accuracy("00") - 957.0 / 1024.0).abs() < 1e-12);
        assert_eq!(Counts::new().frequency("00"), 0.0);
    }

    #[test]
    fn most_frequent_picks_the_mode() {
        let c = sample();
        assert_eq!(c.most_frequent(), Some(("00", 957)));
        assert_eq!(Counts::new().most_frequent(), None);
    }

    #[test]
    fn merge_adds_histograms() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total(), 2048);
        assert_eq!(a.get("11"), 4);
    }

    #[test]
    fn distribution_over_fixed_labels() {
        let c = sample();
        let d = c.distribution(&["00", "01", "10", "11"]);
        assert_eq!(d.len(), 4);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let with_missing = c.distribution(&["00", "zz"]);
        assert_eq!(with_missing[1], 0.0);
    }

    #[test]
    fn fidelity_against_ideal_point_mass() {
        // The Fig. 2(a) histogram: ideal distribution is a point mass on "00".
        let c = sample();
        let f = c.fidelity_with(&["00", "01", "10", "11"], &[1.0, 0.0, 0.0, 0.0]);
        assert!((f - 957.0 / 1024.0).abs() < 1e-12);
        assert!(f >= 0.93, "paper reports ≥0.95-ish fidelity for η=10");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn fidelity_with_mismatched_lengths_panics() {
        let c = sample();
        let _ = c.fidelity_with(&["00"], &[0.5, 0.5]);
    }

    #[test]
    fn iterator_and_from_iterator() {
        let c: Counts = vec!["0".to_string(), "1".to_string(), "0".to_string()]
            .into_iter()
            .collect();
        assert_eq!(c.get("0"), 2);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![("0", 2), ("1", 1)]);
        let mut c2 = Counts::new();
        c2.extend(vec!["1".to_string()]);
        assert_eq!(c2.get("1"), 1);
    }

    #[test]
    fn display_contains_all_outcomes() {
        let c = sample();
        let text = c.to_string();
        for key in ["00", "01", "10", "11"] {
            assert!(text.contains(key));
        }
    }
}
