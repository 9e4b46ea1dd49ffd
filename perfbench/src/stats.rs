//! The benchmark's own arithmetic: percentiles, self time, the open-loop
//! schedule and the backlog-growth test. Everything here is a pure function
//! so the unit tests below pin it down.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `pct` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n` samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// The tail percentile to report for `n` samples: the highest of p99, p90
/// and p50 that still leaves at least ten samples beyond it, or `None` when
/// even the median would not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 90.0, 50.0]
        .into_iter()
        .find(|&pct| samples_beyond(n, pct) >= 10)
}

/// Sorts a sample in place and returns it (NaN-free input assumed: every
/// sample is a measured duration or count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// A layer's self time: the span's duration minus the part of the span that
/// its child spans cover. Children may overlap one another or stick out of
/// the parent; only their union inside `[start, end)` is subtracted.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// One rung of the open-loop rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Rung name (`low`, `mid`, `high`).
    pub name: &'static str,
    /// Offered load in jobs per second.
    pub rate: f64,
    /// How long the rung offers that load, in seconds.
    pub seconds: f64,
}

/// One scheduled send of the open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Send {
    /// Index of the rung the send belongs to.
    pub rung: usize,
    /// Due time in seconds from the start of the ladder.
    pub due: f64,
}

/// The open-loop schedule: rungs run back to back, and each sends at its
/// rate on a fixed grid, independent of when replies come back.
pub fn open_loop_schedule(rungs: &[Rung]) -> Vec<Send> {
    let mut sends = Vec::new();
    let mut start = 0.0;
    for (index, rung) in rungs.iter().enumerate() {
        let count = (rung.rate * rung.seconds).floor() as usize;
        sends.extend((0..count).map(|k| Send {
            rung: index,
            due: start + k as f64 / rung.rate,
        }));
        start += rung.seconds;
    }
    sends
}

/// How late the generator ran for one send, in milliseconds (never
/// negative: an early send is a scheduling bug, not negative lag).
pub fn lag_ms(due_s: f64, sent_s: f64) -> f64 {
    ((sent_s - due_s) * 1e3).max(0.0)
}

/// Whether a backlog sampled over one rung, as `(seconds, outstanding jobs)`
/// pairs, grew across the rung: the least-squares trend over the rung's
/// span must add more than two jobs and more than half the mean backlog.
/// A steady backlog wobbles around its mean; an overloaded one climbs
/// linearly.
pub fn backlog_growing(samples: &[(f64, f64)]) -> bool {
    if samples.len() < 3 {
        return false;
    }
    let n = samples.len() as f64;
    let mean_t = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let mean_b = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let cov: f64 = samples
        .iter()
        .map(|s| (s.0 - mean_t) * (s.1 - mean_b))
        .sum();
    let var: f64 = samples.iter().map(|s| (s.0 - mean_t).powi(2)).sum();
    if var == 0.0 {
        return false;
    }
    let span = samples.last().map_or(0.0, |s| s.0) - samples[0].0;
    let growth = cov / var * span;
    growth > 2.0 && growth > 0.5 * mean_b
}

/// The highest rung that met the latency limit with no growing backlog and
/// no failed job, as `(rate, name)`; `None` when no rung did.
pub fn max_rate<'a>(
    rungs: &'a [Rung],
    p90_ms: &[Option<f64>],
    growing: &[bool],
    failed: &[usize],
    limit_ms: f64,
) -> Option<&'a Rung> {
    rungs
        .iter()
        .enumerate()
        .filter(|&(i, _)| p90_ms[i].is_some_and(|p| p <= limit_ms) && !growing[i] && failed[i] == 0)
        .map(|(_, rung)| rung)
        .next_back()
}

/// A stretch of consecutive jobs: trials done, busy seconds, and each
/// job's latency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    pub trials: usize,
    pub busy_s: f64,
    pub latencies_ms: Vec<f64>,
}

impl Window {
    fn rate(&self) -> f64 {
        ratio(self.trials as f64, self.busy_s)
    }
}

/// Groups jobs, as `(trials, seconds)`, into windows that close once they
/// hold at least `min_busy_s` seconds of work (a short tail window joins
/// the one before it).
pub fn windows(jobs: &[(usize, f64)], min_busy_s: f64) -> Vec<Window> {
    let mut out: Vec<Window> = Vec::new();
    let mut open = Window::default();
    for &(trials, seconds) in jobs {
        open.trials += trials;
        open.busy_s += seconds;
        open.latencies_ms.push(seconds * 1e3);
        if open.busy_s >= min_busy_s {
            out.push(std::mem::take(&mut open));
        }
    }
    if !open.latencies_ms.is_empty() {
        match out.last_mut() {
            Some(last) => {
                last.trials += open.trials;
                last.busy_s += open.busy_s;
                last.latencies_ms.extend(open.latencies_ms);
            }
            None => out.push(open),
        }
    }
    out
}

/// The end-to-end statistics of a run over its least-disturbed windows:
/// the fastest quarter (at least one) by throughput. Returns the median
/// throughput of those windows, their job latencies, and how many windows
/// were kept. Every window does the same kind of work, so a slower program
/// slows every window; a neighbour contending for the host slows only some.
pub fn quiet_windows(windows: &[Window]) -> (f64, Vec<f64>, usize) {
    let mut ranked: Vec<&Window> = windows.iter().collect();
    ranked.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    let keep = windows.len().div_ceil(4).max(1).min(windows.len());
    let kept = &ranked[..keep];
    let rates: Vec<f64> = kept.iter().map(|w| w.rate()).collect();
    let latencies = kept
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    (median(&rates).unwrap_or(0.0), latencies, keep)
}

/// Throughput of a burst's drain: trials per second between its first and
/// last tenth of completions, which leaves out the ramp-up before the
/// server is saturated and the tail as it empties. `completions` holds
/// `(seconds, trials)` per finished job. Returns the rate and the jobs it
/// spans, or `None` with fewer than ten completions or no time between the
/// two marks.
pub fn drain_rate(completions: &[(f64, usize)]) -> Option<(f64, usize)> {
    let n = completions.len();
    if n < 10 {
        return None;
    }
    let mut sorted = completions.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (first, last) = (n / 10, n - 1 - n / 10);
    let seconds = sorted[last].0 - sorted[first].0;
    let span = &sorted[first + 1..=last];
    let trials: usize = span.iter().map(|c| c.1).sum();
    (seconds > 0.0).then(|| (trials as f64 / seconds, span.len()))
}

/// `numerator / denominator`, or 0 for an empty denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(tail_percentile(100), Some(90.0));
        // 99 samples leave 9 beyond p90, so only the median qualifies.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 120)]), 70);
        // A child outside the parent is ignored; one covering it leaves 0.
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
    }

    #[test]
    fn open_loop_schedule_is_a_fixed_grid_per_rung() {
        let rungs = [
            Rung {
                name: "low",
                rate: 2.0,
                seconds: 1.5,
            },
            Rung {
                name: "high",
                rate: 4.0,
                seconds: 1.0,
            },
        ];
        let sends = open_loop_schedule(&rungs);
        let dues: Vec<f64> = sends.iter().map(|s| s.due).collect();
        assert_eq!(dues, vec![0.0, 0.5, 1.0, 1.5, 1.75, 2.0, 2.25]);
        assert_eq!(sends.iter().filter(|s| s.rung == 0).count(), 3);
        assert_eq!(sends.iter().filter(|s| s.rung == 1).count(), 4);
    }

    #[test]
    fn lag_counts_lateness_only() {
        assert!((lag_ms(1.0, 1.0125) - 12.5).abs() < 1e-9);
        assert_eq!(lag_ms(1.0, 0.999), 0.0);
    }

    #[test]
    fn backlog_growth_separates_steady_from_climbing() {
        let steady: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 * 0.05, 3.0 + if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        assert!(!backlog_growing(&steady));
        let climbing: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 * 0.05, i as f64 * 0.2))
            .collect();
        assert!(backlog_growing(&climbing));
        // A small drift under two jobs is noise, not growth.
        let drift: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 * 0.05, i as f64 * 0.015))
            .collect();
        assert!(!backlog_growing(&drift));
        assert!(!backlog_growing(&[(0.0, 1.0), (1.0, 9.0)]));
    }

    #[test]
    fn windows_close_on_busy_time_and_quiet_ones_are_kept() {
        let jobs = [(1, 0.2), (1, 0.2), (1, 0.2), (2, 0.5), (1, 0.1)];
        let ws = windows(&jobs, 0.4);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].trials, 2);
        // The short tail (0.2 s) joins the last full window.
        assert_eq!(ws[1].trials, 4);
        assert!((ws[1].busy_s - 0.8).abs() < 1e-12);
        assert_eq!(ws[1].latencies_ms.len(), 3);
        assert!(windows(&[], 0.4).is_empty());
        assert_eq!(windows(&[(3, 0.1)], 0.4).len(), 1);

        // Eight windows at 10/s and four contended ones at 5/s: the kept
        // quarter (three windows) is all fast.
        let mut ws: Vec<Window> = (0..12)
            .map(|i| Window {
                trials: if i % 3 == 0 { 5 } else { 10 },
                busy_s: 1.0,
                latencies_ms: vec![i as f64],
            })
            .collect();
        let (rate, latencies, kept) = quiet_windows(&ws);
        assert_eq!((rate, kept, latencies.len()), (10.0, 3, 3));
        ws.truncate(1);
        assert_eq!(quiet_windows(&ws).2, 1);
        assert_eq!(quiet_windows(&[]).2, 0);
    }

    #[test]
    fn drain_rate_skips_the_ramp_and_the_tail() {
        // 100 jobs of 10 trials, one every 10 ms, with a slow first and last
        // completion that the rate must not see.
        let mut completions: Vec<(f64, usize)> =
            (0..100).map(|i| (1.0 + i as f64 * 0.01, 10)).collect();
        completions[0].0 = 0.0;
        completions[99].0 = 9.0;
        completions.reverse();
        let (rate, jobs) = drain_rate(&completions).expect("enough completions");
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        assert_eq!(jobs, 79);
        assert_eq!(drain_rate(&completions[..9]), None);
        assert_eq!(drain_rate(&[(1.0, 1); 20]), None);
    }

    #[test]
    fn max_rate_is_the_highest_passing_rung() {
        let rungs = [
            Rung {
                name: "low",
                rate: 10.0,
                seconds: 1.0,
            },
            Rung {
                name: "mid",
                rate: 20.0,
                seconds: 1.0,
            },
            Rung {
                name: "high",
                rate: 40.0,
                seconds: 1.0,
            },
        ];
        let p90 = [Some(20.0), Some(80.0), Some(150.0)];
        let pick = max_rate(&rungs, &p90, &[false; 3], &[0; 3], 100.0);
        assert_eq!(pick.map(|r| r.name), Some("mid"));
        let pick = max_rate(&rungs, &p90, &[false, true, false], &[0; 3], 100.0);
        assert_eq!(pick.map(|r| r.name), Some("low"));
        let pick = max_rate(&rungs, &p90, &[false; 3], &[1, 0, 0], 100.0);
        assert_eq!(pick.map(|r| r.name), Some("mid"));
        assert!(max_rate(&rungs, &[None; 3], &[false; 3], &[0; 3], 100.0).is_none());
    }
}
