//! Regenerates Fig. 3: accuracy of Bob's measurement versus channel length (number of
//! identity operators, 10 ≤ η ≤ 700 in steps of 10).
//!
//! The figure is a formatter over the checked-in `campaigns/fig3.json` definition.

use analysis::report::render_csv;
use bench::campaigns::{fig3_points, run, stored_campaign};
use noise::DeviceModel;

fn main() {
    bench::reject_args();
    bench::announce_parallelism();
    let device = DeviceModel::ibm_brisbane_like();
    let campaign = stored_campaign("fig3").expect("fig3 campaign is checked in");
    let report = run(&campaign).expect("fig3 campaign runs");
    let points = fig3_points(&report).expect("fig3 points recover");
    println!(
        "# Fig. 3 — accuracy vs channel length ({})\n",
        device.name()
    );
    let cells: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.eta.to_string(),
                format!("{:.2}", p.duration_us),
                format!("{:.4}", p.accuracy),
            ]
        })
        .collect();
    println!(
        "{}",
        render_csv(&["eta", "duration_us", "accuracy"], &cells)
    );
    let first = points.first().expect("sweep has points");
    let last = points.last().expect("sweep has points");
    println!(
        "accuracy at η={} : {:.3}   |   accuracy at η={} : {:.3} (paper: drops below ~0.60 near η = 700)",
        first.eta, first.accuracy, last.eta, last.accuracy
    );
    if let Some(cross) = points.iter().find(|p| p.accuracy < 0.6) {
        println!(
            "first point below 60% accuracy: η = {} ({:.2} µs)",
            cross.eta, cross.duration_us
        );
    } else {
        println!("no point fell below 60% accuracy in this sweep");
    }
}
