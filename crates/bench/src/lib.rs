//! # bench — experiment harness regenerating every table and figure of the paper
//!
//! Each experiment of the evaluation section has one `cargo run -p bench --bin …` binary that
//! prints its rows. Everything is deterministic (seeded RNG), so the printed tables are
//! reproducible.
//!
//! | Paper artefact | Source | Binary |
//! |---|---|---|
//! | Table I | [`table1_rows`], stored campaign `table1` | `table1` |
//! | Fig. 2 (a–d) | [`campaigns::fig2_campaign`] | `fig2` |
//! | Fig. 3 | [`campaigns::fig3_campaign`] | `fig3` |
//! | Impersonation sim (Sec. III-A/IV) | [`impersonation_experiment`] | `attack_impersonation` |
//! | Intercept-resend sim (Sec. III-B/IV) | [`campaigns::attack_campaign`] | `attack_intercept` |
//! | MITM sim (Sec. III-C/IV) | [`campaigns::attack_campaign`] | `attack_mitm` |
//! | Entangle-measure sim (Sec. III-D/IV) | [`campaigns::attack_campaign`] | `attack_entangle` |
//! | Info-leakage audit (Sec. III-E) | [`leakage_experiment`] | `attack_leakage` |
//! | CHSH behaviour (Sec. II) | [`chsh_baseline_experiment`] | `chsh_baseline` |
//! | Backend ablation (Sec. IV emulation vs trajectories) | [`campaigns::ablation_campaign`] | `ablation_backend` |
//!
//! The `fig2`, `fig3`, `ablation_backend`, `table1` and
//! `attack_intercept`/`attack_mitm`/`attack_entangle` binaries are
//! formatters over **stored campaign definitions** (see [`campaigns`]): each
//! drives the checked-in `crates/bench/campaigns/*.json` declaration through
//! the campaign engine. `tests/figure_outputs.rs` pins their stdout and rows
//! to golden fixtures. The `shardctl campaign` subcommands run the same
//! definitions resumably on a queue fleet.
//!
//! The channel-attack binaries additionally accept `--backend KIND` (any
//! [`BackendKind`] name or alias) to re-run their sweep on another
//! simulation substrate; `shardctl` takes the same
//! flag on its `scenario` and `plan` subcommands.
//!
//! Performance is not measured here: the repository benchmark lives in
//! `perfbench/` at the repository root (workloads and metrics in its
//! `NOTES.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaigns;
pub mod shard_io;

use analysis::report::render_markdown_table;
use analysis::rows::{AttackRow, DetectionPoint, Table1Row};
use analysis::stats::mean;
use attacks::impersonation::run_impersonation_trials;
use attacks::leakage::LeakageAudit;
use noise::DeviceModel;
use protocol::config::SessionConfig;
use protocol::descriptor::ProtocolDescriptor;
use protocol::di_check::{run_di_check, DiCheckRound};
use protocol::engine::parallel::scatter;
use protocol::engine::{
    derive_point_seed, BackendKind, Parallelism, Scenario, SessionEngine, TrialSummary,
};
use protocol::identity::IdentityPair;
use protocol::session::Impersonation;
use qchannel::epr::EprPair;
use qchannel::quantum::ChannelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// The execution policy every experiment in this crate runs under: the
/// [`Parallelism::ENV_VAR`] environment variable when set (`serial`, `auto`,
/// `threads:N`), all available cores otherwise.
///
/// Every experiment is deterministic *per point* — engine trials by the
/// per-trial RNG stream contract, sweep points by [`derive_point_seed`] — so
/// for a given seed the policy changes wall time only, never a number in a table
/// (CI runs `tests/figure_outputs.rs` under several policies to prove it).
/// Wall time itself is measured by the repository benchmark in `perfbench/`,
/// not by these binaries.
fn engine_parallelism() -> Parallelism {
    Parallelism::from_env().unwrap_or(Parallelism::Auto)
}

/// `engine_parallelism` plus the standard stderr banner every binary in
/// this crate prints: the selected policy, the resolved worker count, and the
/// environment variable that overrides it.
pub fn announce_parallelism() -> Parallelism {
    let parallelism = engine_parallelism();
    eprintln!(
        "engine parallelism: {parallelism} ({} worker threads; override via {})",
        parallelism.worker_count(),
        Parallelism::ENV_VAR
    );
    parallelism
}

/// Exits with a usage error when the process was given any argument — the
/// CLI of the binaries that print one fixed artefact.
pub fn reject_args() {
    if let Some(flag) = std::env::args().nth(1) {
        eprintln!("unknown option `{flag}` (this binary takes no options)");
        std::process::exit(2);
    }
}

/// Parses the optional `--backend KIND` (or `--backend=KIND`) flag from the
/// process arguments — the CLI of the channel-attack binaries. Defaults to
/// the density-matrix substrate; exits with a usage error on an unknown kind
/// or any unrecognised argument, so a typo can never silently fall back to
/// the default substrate.
fn backend_from_args() -> BackendKind {
    fn parse_kind(raw: &str) -> BackendKind {
        raw.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }
    let mut backend = BackendKind::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--backend" {
            let raw = args.next().unwrap_or_else(|| {
                let kinds: Vec<&str> = BackendKind::ALL.iter().map(|k| k.as_str()).collect();
                eprintln!("--backend requires a value ({})", kinds.join(" | "));
                std::process::exit(2)
            });
            backend = parse_kind(&raw);
        } else if let Some(raw) = flag.strip_prefix("--backend=") {
            backend = parse_kind(raw);
        } else {
            eprintln!("unknown option `{flag}` (supported: --backend KIND)");
            std::process::exit(2);
        }
    }
    backend
}

/// The η values of the paper's Fig. 3 sweep: 10 to 700 in steps of 10 (0.6 µs to 42 µs),
/// as stored in `campaigns/fig3.json`.
#[cfg(test)]
fn fig3_eta_values() -> Vec<usize> {
    (1..=70).map(|i| i * 10).collect()
}

/// Renders Table I from the protocol descriptors.
pub fn table1_rows() -> Vec<Table1Row> {
    ProtocolDescriptor::table1()
        .into_iter()
        .map(|d| Table1Row {
            protocol: d.name.clone(),
            resource: d.resource.to_string(),
            measurement: d.measurement.to_string(),
            qubits_per_bit: d.qubits_per_message_bit,
            user_authentication: d.user_authentication,
        })
        .collect()
}

/// Default session configuration used by the attack experiments (small message, generous
/// DI-check budget so honest aborts are negligible, strict authentication).
fn attack_session_config() -> SessionConfig {
    SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(220)
        .auth_error_tolerance(0.0)
        .build()
        .expect("attack session config is valid")
}

/// Runs the impersonation experiment for each identity length in `l_values`, measuring the
/// detection rate against the analytic `1 − (1/4)^l`. The per-`l` trial loops fan out across
/// cores inside [`run_impersonation_trials`]; the sweep itself stays sequential because each
/// point consumes the shared RNG stream (keeping historic outputs bit-identical).
pub fn impersonation_experiment(
    l_values: &[usize],
    target: Impersonation,
    trials: usize,
    seed: u64,
) -> Vec<DetectionPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = attack_session_config();
    l_values
        .iter()
        .map(|&l| {
            let identities = IdentityPair::generate(l, &mut rng);
            let summary = run_impersonation_trials(&config, &identities, target, trials, &mut rng)
                .expect("impersonation trials run");
            DetectionPoint {
                identity_qubits: l,
                trials,
                measured: summary.detection_rate,
                analytic: summary.analytic_probability,
            }
        })
        .collect()
}

/// The channel-attack strategies of Sections III-B/C/D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelAttackKind {
    /// Intercept-and-resend in the computational basis.
    InterceptResend,
    /// Man-in-the-middle source substitution.
    ManInTheMiddle,
    /// Entangle-and-measure with a full CNOT ancilla.
    EntangleMeasure,
}

/// The whole `main` of the `attack_intercept`, `attack_mitm` and
/// `attack_entangle` binaries: parses `--backend`, runs the attack's stored
/// campaign (rebuilt on the requested substrate) and prints the attacked row
/// and its honest control as a markdown table.
pub fn attack_binary_main(kind: ChannelAttackKind) {
    let backend = backend_from_args();
    announce_parallelism();
    let (attacked, honest) = campaigns::attack_experiment_rows(kind, backend).unwrap_or_else(|e| {
        eprintln!("{}: {e}", campaigns::attack_campaign_name(kind));
        std::process::exit(2)
    });
    let (title, expected_shape) = match kind {
        ChannelAttackKind::InterceptResend => (
            "Intercept-and-resend",
            "S1 ≈ 2√2 in both rows; S2 ≤ 2 only under attack → protocol aborts.",
        ),
        ChannelAttackKind::ManInTheMiddle => (
            "Man-in-the-middle",
            "Eve's substituted qubits give S2 ≤ 2 → protocol aborts every time.",
        ),
        ChannelAttackKind::EntangleMeasure => (
            "Entangle-and-measure",
            "monogamy of entanglement pushes S2 to ≈ 0 under a full CNOT probe.",
        ),
    };
    println!("# {title} attack vs honest channel ({backend} backend)\n");
    let cells: Vec<Vec<String>> = [attacked, honest]
        .iter()
        .map(|r| {
            vec![
                r.attack.clone(),
                r.trials.to_string(),
                r.delivered.to_string(),
                format!("{:.3}", r.detection_rate),
                format!("{:.3}", r.mean_chsh_round1.unwrap_or(f64::NAN)),
                format!("{:.3}", r.mean_chsh_round2.unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_markdown_table(
            &[
                "scenario",
                "trials",
                "delivered",
                "detection rate",
                "mean S1",
                "mean S2"
            ],
            &cells
        )
    );
    println!("expected shape: {expected_shape}");
}

fn summary_to_row(summary: TrialSummary) -> AttackRow {
    let detection_rate = summary.detection_rate();
    AttackRow {
        attack: if summary.adversary.is_empty() || summary.adversary == "honest" {
            "honest (no attack)".into()
        } else {
            summary.adversary
        },
        trials: summary.trials,
        delivered: summary.delivered,
        detection_rate,
        mean_chsh_round1: summary.mean_chsh_round1,
        mean_chsh_round2: summary.mean_chsh_round2,
    }
}

/// Builds the honest η-sweep workload behind the `ablation_backend` Pareto
/// table: an honest session over `eta` noisy identity gates of an
/// `ibm_brisbane`-like channel — the regime the paper's detection-rate curves
/// integrate over, where per-trial channel simulation (not protocol
/// bookkeeping) dominates the cost and the substrates separate.
pub fn sweep_scenario(eta: usize, seed: u64, backend: BackendKind) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(4, &mut rng);
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(220)
        .auth_error_tolerance(1.0)
        .channel(ChannelSpec::noisy_identity_chain(
            eta,
            DeviceModel::ibm_brisbane_like(),
        ))
        .build()
        .expect("sweep config is valid");
    Scenario::new(config, identities)
        .with_label(format!("sweep-honest-eta{eta}"))
        .with_backend(backend)
}

/// One grid point of the backend-ablation sweep: one adversary, one channel
/// length, one simulation substrate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BackendAblationRow {
    /// Adversary display name (`honest`, `intercept-resend`, `mitm`).
    pub adversary: &'static str,
    /// Channel length in identity gates (the paper's η, the Fig. 3 axis).
    pub eta: usize,
    /// The substrate the sessions ran on.
    pub backend: BackendKind,
    /// Sessions executed.
    pub trials: usize,
    /// Sessions in which the message was delivered.
    pub delivered: usize,
    /// Fraction of sessions that aborted (the adversary was detected).
    pub detection_rate: f64,
    /// Mean CHSH value of the second check, where it was estimated.
    pub mean_chsh_round2: Option<f64>,
}

/// The adversaries the backend ablation sweeps, in row order: the honest
/// control plus the two channel attacks whose detection-rate curves the paper
/// plots (intercept-resend and MITM).
pub const ABLATION_ADVERSARIES: [&str; 3] = ["honest", "intercept-resend", "mitm"];

/// Runs the information-leakage audit (Section III-E): executes `sessions` honest sessions
/// with a fixed identity pair and audits the accumulated public transcripts.
pub fn leakage_experiment(sessions: usize, seed: u64) -> LeakageAudit {
    let mut rng = StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(4, &mut rng);
    let scenario =
        Scenario::new(attack_session_config(), identities.clone()).with_label("leakage-audit");
    let transcripts: Vec<_> = SessionEngine::new(seed)
        .with_parallelism(engine_parallelism())
        .run_outcomes(&scenario, sessions)
        .expect("honest session runs")
        .into_iter()
        .map(|outcome| outcome.transcript)
        .collect();
    LeakageAudit::with_identity(&transcripts, &identities.bob)
}

/// One row of the CHSH-estimation experiment: check-pair budget `d`, mean estimated `S` over
/// repetitions, and its spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChshPoint {
    /// Number of check pairs per round.
    pub check_pairs: usize,
    /// Depolarizing noise applied to each pair before the check.
    pub depolarizing: f64,
    /// Mean estimated CHSH value.
    pub mean_chsh: f64,
    /// Standard deviation of the estimate across repetitions.
    pub std_dev: f64,
}

/// Estimates how the CHSH statistic behaves as a function of the check-pair budget `d` and the
/// pair noise level — the supporting experiment behind the choice of `d` ("several hundred to
/// a few thousand pairs", paper Section II step 1). Grid points run in parallel (see
/// `engine_parallelism`), each on its own derived seed.
pub fn chsh_baseline_experiment(
    d_values: &[usize],
    depolarizing_levels: &[f64],
    repetitions: usize,
    seed: u64,
) -> Vec<ChshPoint> {
    let grid: Vec<(f64, usize)> = depolarizing_levels
        .iter()
        .flat_map(|&p| d_values.iter().map(move |&d| (p, d)))
        .collect();
    let (points, _stats) = scatter(engine_parallelism(), grid.len(), |index| {
        let (p, d) = grid[index];
        let mut rng = StdRng::seed_from_u64(derive_point_seed(seed, index as u64));
        let mut estimates = Vec::with_capacity(repetitions);
        for _ in 0..repetitions {
            let mut pairs: Vec<EprPair> = (0..d)
                .map(|_| {
                    let mut pair = EprPair::ideal();
                    if p > 0.0 {
                        noise::KrausChannel::depolarizing(p).apply(pair.density_mut(), &[0]);
                    }
                    pair
                })
                .collect();
            let (report, _) = run_di_check(DiCheckRound::First, &mut pairs, 2.0, &mut rng);
            if let Some(s) = report.chsh {
                estimates.push(s);
            }
        }
        let mean_chsh = mean(&estimates).unwrap_or(0.0);
        let std_dev = analysis::stats::population_std_dev(&estimates).unwrap_or(0.0);
        ChshPoint {
            check_pairs: d,
            depolarizing: p,
            mean_chsh,
            std_dev,
        }
    });
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use campaigns::{
        ablation_campaign, ablation_rows, attack_campaign, attack_rows, fig2_campaign, fig2_rows,
        fig3_campaign, fig3_points,
    };
    use protocol::engine::CircuitDevice;

    #[test]
    fn fig2_on_ideal_device_is_perfect() {
        let report = campaigns::run(&fig2_campaign(CircuitDevice::Ideal, 10, 64, 1)).unwrap();
        let rows = fig2_rows(&report).unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert_eq!(
                row.accuracy(),
                1.0,
                "ideal device decodes {} perfectly",
                row.encoded
            );
            assert!((row.fidelity - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fig2_on_noisy_device_keeps_high_fidelity_at_eta_10() {
        let campaign = fig2_campaign(CircuitDevice::IbmBrisbaneLike, 10, 256, 2);
        let rows = fig2_rows(&campaigns::run(&campaign).unwrap()).unwrap();
        for row in &rows {
            assert!(
                row.accuracy() > 0.85,
                "η=10 accuracy for {} should be ≥0.85, got {}",
                row.encoded,
                row.accuracy()
            );
        }
    }

    #[test]
    fn fig3_accuracy_decreases_with_channel_length() {
        let campaign = fig3_campaign(CircuitDevice::IbmBrisbaneLike, &[10, 700], 128, 3);
        let points = fig3_points(&campaigns::run(&campaign).unwrap()).unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[0].accuracy > points[1].accuracy + 0.1);
        assert!((points[1].duration_us - 42.0).abs() < 1e-9);
    }

    #[test]
    fn fig3_eta_values_match_paper_sweep() {
        let etas = fig3_eta_values();
        assert_eq!(etas.len(), 70);
        assert_eq!(etas[0], 10);
        assert_eq!(*etas.last().unwrap(), 700);
    }

    #[test]
    fn table1_has_five_rows_and_one_ua_protocol() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.iter().filter(|r| r.user_authentication).count(), 1);
    }

    #[test]
    fn impersonation_experiment_tracks_analytic_curve() {
        let points = impersonation_experiment(&[1, 4], Impersonation::OfBob, 40, 4);
        assert_eq!(points.len(), 2);
        assert!(points[0].analytic < points[1].analytic);
        for p in points {
            assert!(p.deviation() < 0.2);
        }
    }

    #[test]
    fn channel_attacks_are_detected_and_honest_control_delivers() {
        for kind in [
            ChannelAttackKind::InterceptResend,
            ChannelAttackKind::ManInTheMiddle,
            ChannelAttackKind::EntangleMeasure,
        ] {
            let report = campaigns::run(&attack_campaign(kind, BackendKind::default(), 3, 5));
            let (attacked, honest) = attack_rows(&report.unwrap()).unwrap();
            assert_eq!(attacked.delivered, 0, "{kind:?} must never deliver");
            assert!(attacked.detection_rate > 0.99);
            assert_eq!(honest.delivered, 3);
        }
    }

    #[test]
    fn channel_attack_campaign_runs_on_every_backend() {
        for backend in BackendKind::ALL {
            let campaign = attack_campaign(ChannelAttackKind::InterceptResend, backend, 3, 8);
            let (attacked, honest) = attack_rows(&campaigns::run(&campaign).unwrap()).unwrap();
            assert_eq!(attacked.delivered, 0, "{backend} must detect the attack");
            assert!(attacked.detection_rate > 0.99, "{backend}");
            assert_eq!(honest.delivered, 3, "{backend} honest control delivers");
        }
    }

    #[test]
    fn backend_ablation_covers_the_full_grid() {
        let rows = ablation_rows(&campaigns::run(&ablation_campaign(&[0], 3, 9)).unwrap()).unwrap();
        // One η × three adversaries × every backend.
        assert_eq!(
            rows.len(),
            ABLATION_ADVERSARIES.len() * BackendKind::ALL.len()
        );
        for group in rows.chunks(BackendKind::ALL.len()) {
            for (row, kind) in group.iter().zip(BackendKind::ALL) {
                assert_eq!(row.adversary, group[0].adversary);
                assert_eq!(row.eta, group[0].eta);
                assert_eq!(row.backend, kind);
            }
        }
        for row in &rows {
            assert_eq!(row.trials, 3);
            match row.adversary {
                "honest" => assert_eq!(
                    row.delivered, 3,
                    "honest control must deliver on {}",
                    row.backend
                ),
                _ => assert!(
                    row.detection_rate > 0.99,
                    "{} on {} must be detected",
                    row.adversary,
                    row.backend
                ),
            }
        }
    }

    #[test]
    fn leakage_experiment_is_clean() {
        // Few sessions keep the test fast; the finite-sample bias of the plug-in mutual
        // information estimator with 12×4 samples is ≈ 0.14 bits, so the bound is loose here
        // (the attack_leakage binary runs 40 sessions and lands near zero).
        let audit = leakage_experiment(12, 6);
        assert!(audit.structurally_clean());
        assert!(audit.bell_distribution_bias() < 0.25);
        assert!(audit.mutual_information_with_id_b.unwrap() < 0.45);
    }

    #[test]
    fn chsh_baseline_mean_tracks_noise_level() {
        let points = chsh_baseline_experiment(&[200], &[0.0, 0.3], 3, 7);
        assert_eq!(points.len(), 2);
        assert!(points[0].mean_chsh > points[1].mean_chsh);
        assert!(points[0].mean_chsh > 2.4);
        assert!(points[0].std_dev >= 0.0);
    }
}
