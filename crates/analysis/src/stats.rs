//! Small statistics toolkit.

/// Arithmetic mean; `None` for an empty slice.
///
/// ```rust
/// # use analysis::stats::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(mean(&[]), None);
/// ```
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Population standard deviation; `None` for an empty slice.
pub fn population_std_dev(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    let variance = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64;
    Some(variance.sqrt())
}

/// Wilson-score confidence interval for a binomial proportion.
///
/// Unlike the normal-approximation (Wald) interval, the Wilson
/// score stays well-behaved at the extremes (`successes == 0` or
/// `successes == trials`) and for small `trials`, which is exactly where
/// detection/false-alarm rates live — campaign reports use it for their
/// uncertainty columns. Returns `(lower, upper)`, both clamped to `[0, 1]`.
///
/// ```rust
/// # use analysis::stats::wilson_interval;
/// let (lo, hi) = wilson_interval(0, 20, 1.96);
/// assert_eq!(lo, 0.0);
/// assert!(hi > 0.0 && hi < 0.2); // Wald would collapse to (0, 0)
/// ```
///
/// # Panics
///
/// Panics if `successes > trials`, `trials == 0`, or `z` is negative.
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    assert!(trials > 0, "confidence interval needs at least one trial");
    assert!(successes <= trials, "successes cannot exceed trials");
    assert!(z >= 0.0, "z-score must be non-negative");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = p + z2 / (2.0 * n);
    let half_width = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    // At the degenerate proportions the bound is exactly 0 or 1 in exact
    // arithmetic; pin it so rounding in the division cannot leak a
    // 0.999…8-style bound into serialized reports.
    let lower = if successes == 0 {
        0.0
    } else {
        ((centre - half_width) / denom).max(0.0)
    };
    let upper = if successes == trials {
        1.0
    } else {
        ((centre + half_width) / denom).min(1.0)
    };
    (lower, upper)
}

/// Least-squares linear trend `y ≈ slope·x + intercept` over paired samples.
///
/// Returns `None` when fewer than two distinct x values are supplied.
pub fn linear_trend(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Some((slope, intercept))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert!((population_std_dev(&xs).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(population_std_dev(&[]), None);
    }

    #[test]
    fn wilson_interval_brackets_the_proportion() {
        // Mid-range: close to (but tighter against the extremes than) Wald.
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!((lo - 0.4038).abs() < 5e-4, "lo = {lo}");
        assert!((hi - 0.5962).abs() < 5e-4, "hi = {hi}");
        // Extremes: non-degenerate, unlike the Wald interval.
        let (lo, hi) = wilson_interval(0, 20, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.1 && hi < 0.2, "hi = {hi}");
        let (lo, hi) = wilson_interval(20, 20, 1.96);
        assert_eq!(hi, 1.0);
        assert!(lo > 0.8 && lo < 0.9, "lo = {lo}");
        // z = 0 collapses to the point estimate.
        let (lo, hi) = wilson_interval(3, 4, 0.0);
        assert_eq!((lo, hi), (0.75, 0.75));
        // More trials tighten the interval.
        let narrow = wilson_interval(500, 1000, 1.96);
        let wide = wilson_interval(5, 10, 1.96);
        assert!(narrow.1 - narrow.0 < wide.1 - wide.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_interval_rejects_zero_trials() {
        let _ = wilson_interval(0, 0, 1.96);
    }

    #[test]
    fn linear_trend_recovers_slope() {
        let points: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 - 0.5 * i as f64)).collect();
        let (slope, intercept) = linear_trend(&points).unwrap();
        assert!((slope + 0.5).abs() < 1e-9);
        assert!((intercept - 3.0).abs() < 1e-9);
        assert_eq!(linear_trend(&[(1.0, 1.0)]), None);
        assert_eq!(linear_trend(&[(1.0, 1.0), (1.0, 2.0)]), None);
    }
}
