//! CHSH-estimation behaviour: how the estimated S value and its spread depend on the
//! check-pair budget d and the pair noise level (supports the paper's choice of "several
//! hundred to a few thousand pairs" for each DI-check round).

use analysis::report::render_markdown_table;

fn main() {
    bench::reject_args();
    bench::announce_parallelism();
    let points =
        bench::chsh_baseline_experiment(&[50, 100, 200, 400, 800], &[0.0, 0.05, 0.2], 8, 99);
    println!("# CHSH estimation vs check-pair budget and noise\n");
    let cells: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.check_pairs.to_string(),
                format!("{:.2}", p.depolarizing),
                format!("{:.3}", p.mean_chsh),
                format!("{:.3}", p.std_dev),
            ]
        })
        .collect();
    println!(
        "{}",
        render_markdown_table(
            &["d (check pairs)", "depolarizing p", "mean S", "std dev"],
            &cells
        )
    );
    println!("ideal value 2√2 ≈ 2.828; classical bound 2; abort whenever S ≤ 2.");
}
