//! Golden outputs of the paper's artefacts.
//!
//! Every figure and table binary formats a stored campaign. These tests pin
//! what that path prints and returns to fixtures under `tests/fixtures/`,
//! frozen from the hand-rolled loops the campaigns replaced:
//!
//! - `<binary>.stdout` — the full stdout of `fig2`, `table1` and the three
//!   channel-attack binaries at their default arguments;
//! - `*_rows.json`, `fig3_points.json`, `table1_summary.json` — the
//!   serialized rows of small runs of every campaign builder.
//!
//! The binaries inherit `UA_DI_QSDC_PARALLELISM`, so running this suite
//! under several policies proves the outputs do not depend on parallelism.
//! Regenerate the fixtures (only for a deliberate output change) with:
//!
//! ```text
//! UA_DI_QSDC_UPDATE_FIXTURES=1 cargo test -p bench --test figure_outputs
//! ```

use bench::campaigns::{
    ablation_campaign, ablation_rows, attack_campaign, attack_rows, fig2_campaign, fig2_rows,
    fig3_campaign, fig3_points, run, stored_campaign, table1_summary,
};
use bench::ChannelAttackKind;
use protocol::engine::{BackendKind, Campaign, CircuitDevice, TrialSummary};
use std::path::PathBuf;
use std::process::Command;

/// In update mode, (re)writes the fixture; otherwise asserts the checked-in
/// bytes equal `generated`.
fn check_fixture(name: &str, generated: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os(protocol::env_keys::UPDATE_FIXTURES).is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, generated).unwrap();
        return;
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {}: {e}\n(run with {}=1 to create it)",
            path.display(),
            protocol::env_keys::UPDATE_FIXTURES
        )
    });
    assert_eq!(
        on_disk, generated,
        "{name}: output diverged from the fixture"
    );
}

/// Every binary that used to take `--legacy`, with its Cargo-built path.
const BINARIES: [(&str, &str); 7] = [
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("attack_intercept", env!("CARGO_BIN_EXE_attack_intercept")),
    ("attack_mitm", env!("CARGO_BIN_EXE_attack_mitm")),
    ("attack_entangle", env!("CARGO_BIN_EXE_attack_entangle")),
    ("ablation_backend", env!("CARGO_BIN_EXE_ablation_backend")),
];

fn binary(name: &str) -> &'static str {
    BINARIES
        .iter()
        .find(|(bin, _)| *bin == name)
        .map(|(_, path)| *path)
        .expect("known binary")
}

#[test]
fn binaries_print_the_frozen_stdout() {
    for name in [
        "fig2",
        "table1",
        "attack_intercept",
        "attack_mitm",
        "attack_entangle",
    ] {
        let output = Command::new(binary(name)).output().expect("binary runs");
        assert!(
            output.status.success(),
            "{name} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
        check_fixture(&format!("{name}.stdout"), &stdout);
    }
}

#[test]
fn legacy_flag_is_an_unknown_option() {
    for (name, path) in BINARIES {
        let output = Command::new(path)
            .arg("--legacy")
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(2), "{name} --legacy");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("unknown option `--legacy`"),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn fig2_rows_match_the_fixture() {
    let campaign = fig2_campaign(CircuitDevice::IbmBrisbaneLike, 10, 64, 20240916);
    let rows = fig2_rows(&run(&campaign).unwrap()).unwrap();
    check_fixture("fig2_rows.json", &serde::json::to_string(&rows));
}

#[test]
fn fig3_points_match_the_fixture() {
    let campaign = fig3_campaign(CircuitDevice::IbmBrisbaneLike, &[10, 50], 64, 424242);
    let points = fig3_points(&run(&campaign).unwrap()).unwrap();
    check_fixture("fig3_points.json", &serde::json::to_string(&points));
}

#[test]
fn ablation_rows_match_the_fixture() {
    let rows = ablation_rows(&run(&ablation_campaign(&[0], 3, 11)).unwrap()).unwrap();
    check_fixture("ablation_rows.json", &serde::json::to_string(&rows));
}

#[test]
fn attack_rows_match_the_fixtures() {
    for (kind, backend, trials, seed, name) in [
        (
            ChannelAttackKind::InterceptResend,
            BackendKind::DensityMatrix,
            5,
            11,
            "attack_intercept",
        ),
        (
            ChannelAttackKind::ManInTheMiddle,
            BackendKind::DensityMatrix,
            5,
            13,
            "attack_mitm",
        ),
        (
            ChannelAttackKind::EntangleMeasure,
            BackendKind::DensityMatrix,
            5,
            17,
            "attack_entangle",
        ),
        (
            ChannelAttackKind::InterceptResend,
            BackendKind::PauliTwirled,
            4,
            11,
            "attack_intercept_pauli_twirled",
        ),
    ] {
        let report = run(&attack_campaign(kind, backend, trials, seed)).unwrap();
        let rows = attack_rows(&report).unwrap();
        check_fixture(&format!("{name}_rows.json"), &serde::json::to_string(&rows));
    }
}

#[test]
fn table1_summary_matches_the_fixture() {
    let campaign = Campaign {
        trials: 2,
        ..stored_campaign("table1").unwrap()
    };
    let summary = table1_summary(&run(&campaign).unwrap()).unwrap();
    // Labels are display-only: the fixture keeps the name the verification
    // scenario was frozen under, the campaign names its point.
    let summary = TrialSummary {
        label: "table1-verification".into(),
        ..summary
    };
    check_fixture("table1_summary.json", &serde::json::to_string(&summary));
}
