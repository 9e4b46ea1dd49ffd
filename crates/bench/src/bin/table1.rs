//! Regenerates Table I: comparison between state-of-the-art DI-QSDC protocols and the
//! proposed UA-DI-QSDC protocol. The static descriptor rows are cross-checked against a live
//! engine run — the sessions must deliver, and the protocol's planned resource accounting
//! ([`ResourceUsage::planned`]) must reproduce the UA-DI-QSDC row's qubits-per-message-bit
//! figure (a `protocol` unit test locks the planned arithmetic to the engine's live
//! per-outcome accounting).
//!
//! The verification sessions run the checked-in `campaigns/table1.json` definition.

use analysis::report::render_markdown_table;
use bench::campaigns::{run, stored_campaign, table1_summary};
use protocol::engine::CampaignWorkload;
use protocol::session::ResourceUsage;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("table1: {message}");
    std::process::exit(2)
}

fn main() {
    bench::reject_args();
    bench::announce_parallelism();
    let rows = bench::table1_rows();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.protocol.clone(),
                r.resource.clone(),
                r.measurement.clone(),
                format!("{}", r.qubits_per_bit),
                if r.user_authentication { "Yes" } else { "No" }.to_string(),
            ]
        })
        .collect();
    println!("# Table I — DI-QSDC protocol comparison\n");
    println!(
        "{}",
        render_markdown_table(
            &[
                "Protocol",
                "Resource type",
                "Measurement for decoding",
                "Qubits per message bit",
                "UA"
            ],
            &cells
        )
    );

    // Cross-check the UA-DI-QSDC row against a live engine run: the honest
    // verification sessions must deliver, and the planned accounting must
    // reproduce the claimed qubits-per-message-bit figure.
    let campaign = stored_campaign("table1").expect("table1 campaign is checked in");
    let summary = run(&campaign)
        .and_then(|report| table1_summary(&report))
        .unwrap_or_else(|e| fail(e));
    let CampaignWorkload::Session { base } = &campaign.workload else {
        fail("the table1 campaign runs sessions")
    };
    let planned = ResourceUsage::planned(&base.config, base.identities.qubit_len());
    let claimed = rows
        .iter()
        .find(|r| r.user_authentication)
        .expect("Table I contains the UA-DI-QSDC row")
        .qubits_per_bit;
    println!(
        "\nEngine cross-check ({} sessions, {} EPR pairs each): {}/{} delivered; planned \
         accounting gives {} qubits per message bit, Table I claims {claimed}.",
        summary.trials,
        planned.total_pairs,
        summary.delivered,
        summary.trials,
        planned.qubits_per_message_bit,
    );
    assert_eq!(
        summary.delivered, summary.trials,
        "honest ideal-channel verification sessions must all deliver"
    );
    assert!(
        (planned.qubits_per_message_bit - claimed).abs() < f64::EPSILON,
        "planned qubits/bit {} diverges from the descriptor's {claimed}",
        planned.qubits_per_message_bit
    );
}
