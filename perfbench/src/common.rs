//! What every workload shares: the seeded scenarios, output checks, the
//! metric report, and the micro-benchmarks of the session's building blocks.

use crate::stats;
use noise::DeviceModel;
use protocol::auth;
use protocol::di_check::{run_di_check_at, DiCheckRound};
use protocol::engine::{Adversary, Scenario, TrialSummary};
use protocol::identity::IdentityPair;
use protocol::SessionConfig;
use qchannel::compiled::CompiledQuantumChannel;
use qchannel::epr::EprPair;
use qchannel::quantum::ChannelSpec;
use qchannel::taps::InterceptBasis;
use qsim::bell::BellState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Derives the `index`-th stream seed of a benchmark seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    rand::splitmix64(&mut state)
}

fn identities(seed: u64, qubits: usize) -> IdentityPair {
    IdentityPair::generate(qubits, &mut StdRng::seed_from_u64(seed))
}

/// Honest sessions on the η = 50 `ibm_brisbane`-like identity-gate chain:
/// the paper's noisy-channel regime.
pub fn eta50_scenario(seed: u64) -> Scenario {
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(220)
        .auth_error_tolerance(1.0)
        .channel(ChannelSpec::noisy_identity_chain(
            50,
            DeviceModel::ibm_brisbane_like(),
        ))
        .build()
        .expect("the η=50 configuration is valid");
    Scenario::new(config, identities(seed, 4)).with_label("sweep-honest-eta50")
}

/// The `shardctl` demo session (ideal channel, 64 DI-check pairs) under the
/// given adversary.
pub fn demo_scenario(seed: u64, adversary: Adversary, label: &str) -> Scenario {
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(64)
        .build()
        .expect("the demo configuration is valid");
    Scenario::new(config, identities(seed, 4))
        .with_label(label)
        .with_adversary(adversary)
}

/// The intercept-resend tap of the attack-simulation path.
pub fn intercept() -> Adversary {
    Adversary::InterceptResend(InterceptBasis::Computational)
}

/// A lean session (16 DI-check pairs, 2 identity qubits) for service jobs.
pub fn lean_scenario(seed: u64, adversary: Adversary, label: &str) -> Scenario {
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(16)
        .build()
        .expect("the lean configuration is valid");
    Scenario::new(config, identities(seed, 2))
        .with_label(label)
        .with_adversary(adversary)
}

/// The per-summary output check: the trial count is right and honest rows
/// never fail authentication. Delivery is checked over the whole run by
/// [`Report::check_delivery`]: a DI check estimates CHSH from a finite
/// sample, so an honest session occasionally aborts and an intercepted one
/// very occasionally slips through.
pub fn check_summary(summary: &TrialSummary, trials: usize, attacked: bool) -> Result<(), String> {
    if summary.trials != trials {
        return Err(format!(
            "{}: {} trials summarised, {trials} run",
            summary.label, summary.trials
        ));
    }
    if !attacked && summary.aborted_bob_auth + summary.aborted_alice_auth != 0 {
        return Err(format!(
            "{}: honest row failed authentication {} times",
            summary.label,
            summary.aborted_bob_auth + summary.aborted_alice_auth
        ));
    }
    Ok(())
}

/// Canonical bytes of a summary, for byte-identity checks.
pub fn summary_bytes(summary: &TrialSummary) -> String {
    serde::json::to_string(summary)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic over samples.
    pub samples: Option<usize>,
}

/// Everything one run reports: metrics, operation counts, failed checks.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Caveats printed with the human-readable report.
    pub notes: Vec<String>,
    /// Honest and attacked trials checked, and how many of each delivered.
    honest: (usize, usize),
    attacked: (usize, usize),
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_n(name, value, unit, None);
    }

    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Puts a value that a fallible measurement produced; a failed one
    /// counts as a failed operation and leaves the metric out, so the run
    /// reports no result.
    pub fn put_measured(&mut self, name: &str, value: Result<f64, String>, unit: &'static str) {
        match value {
            Ok(value) => self.put(name, value, unit),
            Err(error) => self.op(Err(format!("{name}: {error}"))),
        }
    }

    /// Records the outcome of one checked operation.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = outcome {
            self.fail(error);
        }
    }

    /// Records one checked summary (see [`check_summary`]).
    pub fn summary(&mut self, summary: &TrialSummary, trials: usize, attacked: bool) {
        let tally = if attacked {
            &mut self.attacked
        } else {
            &mut self.honest
        };
        tally.0 += summary.trials;
        tally.1 += summary.delivered;
        self.op(check_summary(summary, trials, attacked));
    }

    /// The run-level half of the output check: honest rows deliver at
    /// least a quarter of their trials (the lean service sessions, with 16
    /// DI-check pairs, deliver about half), and attacked rows deliver at
    /// most one trial in a thousand (intercept-resend against 64 DI-check
    /// pairs slips through about once in 10^6 trials).
    pub fn check_delivery(&mut self) {
        for (kind, (trials, delivered)) in [("honest", self.honest), ("attacked", self.attacked)] {
            if trials > 0 {
                self.notes.push(format!(
                    "{kind} rows delivered {delivered} of {trials} trials"
                ));
            }
        }
        let (trials, delivered) = self.honest;
        if delivered * 4 < trials {
            self.op(Err(format!(
                "honest rows delivered only {delivered} of {trials} trials"
            )));
        }
        let (trials, delivered) = self.attacked;
        if delivered * 1000 > trials {
            self.op(Err(format!(
                "attacked rows delivered {delivered} of {trials} trials"
            )));
        }
    }

    /// Counts one failed operation (already attempted).
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }
}

/// The end-to-end throughput and job latency of a run, taken over its
/// least-disturbed windows (see [`stats::quiet_windows`]).
pub fn put_quiet_windows(report: &mut Report, windows: &[stats::Window]) {
    let (rate, latencies_ms, kept) = stats::quiet_windows(windows);
    report.put_n("trials_per_s", rate, "1/s", Some(kept));
    report.notes.push(format!(
        "trials_per_s and job latency use the fastest {kept} of {} windows",
        windows.len()
    ));
    put_latency(report, "job_p50_ms", "job_p90_ms", &latencies_ms);
}

/// Median and p90 of latency samples in milliseconds. A p90 needs 100
/// samples to leave ten beyond it; with fewer it is still reported, with
/// its sample count, and the report notes which tail the sample supports.
pub fn put_latency(report: &mut Report, p50: &str, p90: &str, samples_ms: &[f64]) {
    let sorted = stats::sorted(samples_ms.to_vec());
    let n = sorted.len();
    if stats::samples_beyond(n, 90.0) < 10 {
        let supported = stats::tail_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
        report.notes.push(format!(
            "{p90}: {n} samples leave fewer than ten beyond p90 (highest supported tail: {supported})"
        ));
    }
    report.put_n(
        p50,
        stats::percentile(&sorted, 50.0).unwrap_or(0.0),
        "ms",
        Some(n),
    );
    report.put_n(
        p90,
        stats::percentile(&sorted, 90.0).unwrap_or(0.0),
        "ms",
        Some(n),
    );
}

/// Times repeated calls of `body` for about `budget`, returning nanoseconds
/// per unit of work (`body` returns the units it did and the time it took,
/// so untimed preparation inside it is excluded).
fn per_unit_ns(budget: Duration, mut body: impl FnMut() -> (u64, Duration)) -> f64 {
    let end = Instant::now() + budget;
    let (mut units, mut spent) = (0u64, Duration::ZERO);
    while units == 0 || Instant::now() < end {
        let (n, d) = body();
        units += n;
        spent += d;
    }
    spent.as_nanos() as f64 / units as f64
}

/// Micro-benchmarks of the public building blocks a trial calls, on pairs
/// from the scenario's own compiled channel: one DI-check round, one Bell
/// measurement and one authentication verify. Scaled by the per-trial
/// counts (two DI rounds, `2l` Bell measurements, two verifies) they
/// predict how much of a trial these blocks can account for.
pub fn micro_benchmarks(scenario: &Scenario, seed: u64, budget: Duration, report: &mut Report) {
    let channel = CompiledQuantumChannel::from(scenario.config.channel().clone());
    let backend = scenario.backend.backend();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tap = scenario.adversary.make_tap();
    let d = scenario.config.di_check_pairs();
    let template: Vec<EprPair> = (0..d)
        .map(|_| {
            let mut pair = backend.emit_pair(&channel, tap.as_mut(), &mut rng);
            backend.transmit(&channel, &mut pair, tap.as_mut(), &mut rng);
            pair
        })
        .collect();
    let positions: Vec<usize> = (0..d).collect();
    let threshold = scenario.config.chsh_abort_threshold();
    let mut work = template.clone();
    let third = budget / 3;

    let di_ns = per_unit_ns(third, || {
        work.clone_from(&template);
        let start = Instant::now();
        let (report, _) = run_di_check_at(
            DiCheckRound::First,
            &mut work,
            &positions,
            threshold,
            &mut rng,
        );
        std::hint::black_box(report);
        (1, start.elapsed())
    });
    let bell_ns = per_unit_ns(third, || {
        work.clone_from(&template);
        let start = Instant::now();
        for pair in work.iter_mut() {
            std::hint::black_box(pair.bell_measure(&mut rng));
        }
        (work.len() as u64, start.elapsed())
    });
    let ids = &scenario.identities;
    let covers = ids.alice.as_paulis();
    let id_b = ids.bob.as_paulis();
    let announced: Vec<BellState> = covers
        .iter()
        .zip(&id_b)
        .map(|(&c, &b)| auth::expected_bob_result(c, b))
        .collect();
    let measured: Vec<BellState> = ids
        .alice
        .as_paulis()
        .into_iter()
        .map(|p| BellState::PhiPlus.after_pauli(p))
        .collect();
    let tolerance = scenario.config.auth_error_tolerance();
    let auth_ns = per_unit_ns(third, || {
        let start = Instant::now();
        for _ in 0..64 {
            std::hint::black_box(auth::verify_bob(&announced, &covers, &ids.bob, tolerance));
            std::hint::black_box(auth::verify_alice(&measured, &ids.alice, tolerance));
        }
        (128, start.elapsed())
    });
    report.put("protocol.di_check.ns_per_round", di_ns, "ns");
    report.put("qchannel.bell_measure.ns_per_call", bell_ns, "ns");
    report.put("protocol.auth.ns_per_verify", auth_ns, "ns");
}
