//! Backend ablation: detection-rate curves on the exact density-matrix
//! emulation vs the sampled statevector-trajectory and pauli-twirled
//! stabilizer substrates — an accuracy-vs-throughput Pareto report.
//!
//! Sweeps the Fig. 2/3 channel-length grid (η identity gates on an
//! `ibm_brisbane`-like device) for the honest control, intercept-resend and
//! MITM adversaries on **every** production backend, then reports where each
//! cheaper substrate's curves diverge from the paper's emulation, how much
//! faster it runs the same workload, and the distortion bought per unit of
//! speedup.
//!
//! The sweep is the checked-in `campaigns/ablation_backend.json` definition (rebuilt via
//! [`bench::campaigns::ablation_campaign`] when any flag overrides the stored defaults).
//!
//! ```text
//! cargo run --release -p bench --bin ablation_backend -- \
//!     [--trials N] [--seed N] [--etas CSV]
//! ```

use analysis::report::render_markdown_table;
use bench::campaigns::{ablation_campaign, ablation_rows, run, stored_campaign};
use bench::{BackendAblationRow, ABLATION_ADVERSARIES};
use protocol::engine::{BackendKind, Parallelism, SessionEngine};

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("ablation_backend: {message}");
    std::process::exit(2)
}

fn parse_args() -> (usize, u64, Vec<usize>) {
    let mut trials = 20usize;
    let mut seed = 11u64;
    let mut etas = vec![0usize, 10, 50];
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(format_args!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--trials" => {
                trials = value("--trials")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("invalid --trials: {e}")));
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("invalid --seed: {e}")));
            }
            "--etas" => {
                etas = value("--etas")
                    .split(',')
                    .map(|raw| {
                        raw.trim().parse().unwrap_or_else(|e| {
                            fail(format_args!("invalid --etas entry `{raw}`: {e}"))
                        })
                    })
                    .collect();
                if etas.is_empty() {
                    fail("--etas needs at least one channel length");
                }
            }
            other => fail(format_args!("unknown option `{other}`")),
        }
    }
    (trials, seed, etas)
}

fn rows_from_campaign(etas: &[usize], trials: usize, seed: u64) -> Vec<BackendAblationRow> {
    // The stored definition covers the default arguments; any override
    // rebuilds the same campaign shape over the requested grid.
    let campaign = if (trials, seed, etas) == (20, 11, &[0usize, 10, 50][..]) {
        stored_campaign("ablation_backend").expect("ablation campaign is checked in")
    } else {
        ablation_campaign(etas, trials, seed)
    };
    run(&campaign)
        .and_then(|report| ablation_rows(&report))
        .unwrap_or_else(|e| fail(e))
}

fn fmt_chsh(value: Option<f64>) -> String {
    value.map_or_else(|| "—".into(), |s| format!("{s:.3}"))
}

/// Measures serial honest-sweep throughput (trials/sec) of one substrate at
/// the grid's largest η — the workload where the substrates separate.
fn sweep_throughput(eta: usize, seed: u64, backend: BackendKind) -> f64 {
    const WARMUP: usize = 8;
    const TRIALS: usize = 96;
    let engine = SessionEngine::new(seed).with_parallelism(Parallelism::Serial);
    let scenario = bench::sweep_scenario(eta, seed, backend);
    engine
        .run_trials(&scenario, WARMUP)
        .unwrap_or_else(|e| fail(format_args!("throughput warm-up failed: {e}")));
    let start = std::time::Instant::now();
    engine
        .run_trials(&scenario, TRIALS)
        .unwrap_or_else(|e| fail(format_args!("throughput trials failed: {e}")));
    TRIALS as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let (trials, seed, etas) = parse_args();
    bench::announce_parallelism();
    eprintln!(
        "sweeping η ∈ {etas:?} × {:?} × {:?} at {trials} trials (seed {seed})",
        ABLATION_ADVERSARIES,
        BackendKind::ALL.map(BackendKind::as_str),
    );
    let rows = rows_from_campaign(&etas, trials, seed);

    println!("# Backend ablation: exact emulation vs sampled trajectories vs pauli twirling\n");
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.adversary.to_string(),
                r.eta.to_string(),
                r.backend.to_string(),
                r.trials.to_string(),
                r.delivered.to_string(),
                format!("{:.3}", r.detection_rate),
                fmt_chsh(r.mean_chsh_round2),
            ]
        })
        .collect();
    println!(
        "{}",
        render_markdown_table(
            &[
                "scenario",
                "eta",
                "backend",
                "trials",
                "delivered",
                "detection rate",
                "mean S2",
            ],
            &cells
        )
    );

    // Rows come back grid-major (η, adversary, then backend), so each chunk
    // is one scenario on every substrate, density-matrix first: the
    // divergence table is each cheaper substrate's pointwise difference from
    // that exact reference.
    let alternates: Vec<BackendKind> = BackendKind::ALL[1..].to_vec();
    println!("## Divergence from the density-matrix emulation\n");
    // Per alternate substrate: the scenario with the largest |Δ detection|.
    let mut worst: Vec<Option<(&BackendAblationRow, f64)>> = vec![None; alternates.len()];
    let divergence: Vec<Vec<String>> = rows
        .chunks(BackendKind::ALL.len())
        .map(|group| {
            let density = &group[0];
            let mut cells = vec![
                density.adversary.to_string(),
                density.eta.to_string(),
                format!("{:.3}", density.detection_rate),
            ];
            for (slot, row) in worst.iter_mut().zip(&group[1..]) {
                let delta = row.detection_rate - density.detection_rate;
                if slot.is_none_or(|(_, w)| delta.abs() > w.abs()) {
                    *slot = Some((density, delta));
                }
                cells.push(format!("{:.3}", row.detection_rate));
                cells.push(format!("{delta:+.3}"));
            }
            cells
        })
        .collect();
    let mut headers = vec![
        "scenario".to_string(),
        "eta".to_string(),
        "density-matrix".to_string(),
    ];
    for backend in &alternates {
        headers.push(backend.to_string());
        headers.push(format!("Δ {backend}"));
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_markdown_table(&headers, &divergence));
    for (backend, slot) in alternates.iter().zip(&worst) {
        if let Some((row, delta)) = slot {
            println!(
                "largest `{backend}` divergence: {:+.3} detection rate for `{}` at η={}.",
                delta, row.adversary, row.eta
            );
        }
    }

    // The Pareto view: what each substrate pays in curve fidelity per unit
    // of honest-sweep speedup. Throughput is measured live (serial, at the
    // grid's largest η), so this section is machine-dependent — the grid and
    // divergence tables above are the deterministic part of the report.
    let pareto_eta = etas.iter().copied().max().unwrap_or(0);
    println!("\n## Accuracy-vs-throughput Pareto (serial honest sweep at η={pareto_eta})\n");
    let reference = sweep_throughput(pareto_eta, seed, BackendKind::DensityMatrix);
    let pareto: Vec<Vec<String>> = BackendKind::ALL
        .into_iter()
        .map(|backend| {
            let throughput = if backend == BackendKind::DensityMatrix {
                reference
            } else {
                sweep_throughput(pareto_eta, seed, backend)
            };
            let speedup = throughput / reference;
            let max_divergence = alternates
                .iter()
                .position(|&b| b == backend)
                .and_then(|i| worst[i])
                .map_or(0.0, |(_, delta)| delta.abs());
            vec![
                backend.to_string(),
                format!("{throughput:.1}"),
                format!("{speedup:.1}x"),
                format!("{max_divergence:.3}"),
                format!("{:.4}", max_divergence / speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_markdown_table(
            &[
                "backend",
                "trials/s",
                "speedup",
                "max abs Δ detection",
                "abs Δ per unit speedup",
            ],
            &pareto
        )
    );
}
