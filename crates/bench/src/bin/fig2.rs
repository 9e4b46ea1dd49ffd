//! Regenerates Fig. 2: Bob's measurement outcomes for each 2-bit message sent over a channel
//! of η = 10 noisy identity gates with 1024 shots on the ibm_brisbane-like noise model.
//!
//! The figure is a formatter over the checked-in `campaigns/fig2.json` definition.

use analysis::report::render_markdown_table;
use bench::campaigns::{fig2_rows, run, stored_campaign};
use noise::DeviceModel;

fn main() {
    bench::reject_args();
    bench::announce_parallelism();
    let device = DeviceModel::ibm_brisbane_like();
    let campaign = stored_campaign("fig2").expect("fig2 campaign is checked in");
    let report = run(&campaign).expect("fig2 campaign runs");
    let rows = fig2_rows(&report).expect("fig2 rows recover");
    println!(
        "# Fig. 2 — Bob's decoded counts (η = 10, 1024 shots, {})\n",
        device.name()
    );
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.encoded.clone(),
                r.counts[0].to_string(),
                r.counts[1].to_string(),
                r.counts[2].to_string(),
                r.counts[3].to_string(),
                format!("{:.4}", r.accuracy()),
                format!("{:.4}", r.fidelity),
            ]
        })
        .collect();
    println!(
        "{}",
        render_markdown_table(
            &["encoded", "count 00", "count 01", "count 10", "count 11", "accuracy", "fidelity"],
            &cells
        )
    );
    let mean_fidelity: f64 = rows.iter().map(|r| r.fidelity).sum::<f64>() / rows.len() as f64;
    println!("mean fidelity over the four panels: {mean_fidelity:.4} (paper: ≥ 0.95)");
}
