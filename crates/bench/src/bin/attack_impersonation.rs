//! Impersonation-attack simulation (Sections III-A and IV): measured detection rate versus
//! the analytic probability 1 − (1/4)^l for a range of identity lengths.

use analysis::report::render_markdown_table;
use protocol::session::Impersonation;

fn main() {
    bench::reject_args();
    bench::announce_parallelism();
    println!("# Impersonation attack — detection probability vs identity length\n");
    for (target, label) in [
        (Impersonation::OfBob, "Eve impersonates Bob (Alice detects)"),
        (
            Impersonation::OfAlice,
            "Eve impersonates Alice (Bob detects)",
        ),
    ] {
        let points = bench::impersonation_experiment(&[1, 2, 3, 4, 6, 8], target, 200, 77);
        println!("## {label}\n");
        let cells: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.identity_qubits.to_string(),
                    p.trials.to_string(),
                    format!("{:.4}", p.measured),
                    format!("{:.4}", p.analytic),
                    format!("{:.4}", p.deviation()),
                ]
            })
            .collect();
        println!(
            "{}",
            render_markdown_table(
                &[
                    "l (identity qubits)",
                    "trials",
                    "measured detection",
                    "1 - (1/4)^l",
                    "|deviation|"
                ],
                &cells
            )
        );
    }
}
