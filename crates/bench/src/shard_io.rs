//! File-level plumbing for sharded sweeps: the helpers behind `shardctl`'s
//! `merge` and `queue` subcommands, exposed as a library so tests (notably
//! the fault-injection suite) can drive them directly.
//!
//! Everything here is strict by design: a truncated JSON file, a duplicated
//! result, or a shard from a different run each fails with an error that
//! **names the offending file** and carries the precise underlying
//! [`MergeError`] — never a panic, and never a silent skip.

use protocol::engine::{
    Adversary, BackendKind, MergeError, MergedRun, Scenario, ShardMerger, ShardResult,
};
use protocol::identity::IdentityPair;
use protocol::SessionConfig;
use qchannel::taps::{InterceptBasis, SubstituteState};
use rand::SeedableRng;
use std::fmt;

/// Why reading or merging shard result files failed. Each fault class is a
/// distinct variant so callers (and tests) can tell a truncated file from a
/// duplicated one from a cross-run shard.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeFileError {
    /// The same file was listed twice — merging it twice would double-count
    /// its trials.
    DuplicateFile {
        /// The repeated path.
        file: String,
    },
    /// A file could not be read.
    Read {
        /// The unreadable path.
        file: String,
        /// The I/O error rendering.
        message: String,
    },
    /// A file held syntactically or structurally invalid JSON (e.g.
    /// truncated by a dying worker).
    Parse {
        /// The unparseable path.
        file: String,
        /// The parser's diagnosis.
        message: String,
    },
    /// A shard was rejected by the merger; `file` names its source.
    Merge {
        /// The offending shard's source file.
        file: String,
        /// The rejected shard's trial range, for the error message.
        trial_range: (u64, u64),
        /// The precise merge failure.
        error: MergeError,
    },
    /// The final fold failed (empty or incomplete coverage) — no single file
    /// is at fault.
    Finish {
        /// The precise merge failure.
        error: MergeError,
    },
}

impl fmt::Display for MergeFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeFileError::DuplicateFile { file } => write!(
                f,
                "duplicate shard result file `{file}`: each result may be merged only once"
            ),
            MergeFileError::Read { file, message } => {
                write!(f, "cannot read {file}: {message}")
            }
            MergeFileError::Parse { file, message } => {
                write!(f, "invalid shard result JSON in {file}: {message}")
            }
            MergeFileError::Merge {
                file,
                trial_range: (start, end),
                error,
            } => write!(f, "cannot merge {file} (trials {start}..{end}): {error}"),
            MergeFileError::Finish { error } => write!(f, "merge failed: {error}"),
        }
    }
}

impl std::error::Error for MergeFileError {}

/// The first file that appears twice in the list, if any. Merging the same
/// result file twice would double-count its trials (surfacing, at best, as an
/// opaque overlap error), so it is rejected up front by name.
pub(crate) fn find_duplicate_file(files: &[String]) -> Option<&String> {
    files
        .iter()
        .enumerate()
        .find(|(i, file)| files[..*i].contains(file))
        .map(|(_, file)| file)
}

/// Reads one shard result file (a JSON array of [`ShardResult`]s, as
/// `shardctl run` writes it).
///
/// # Errors
///
/// [`MergeFileError::Read`] or [`MergeFileError::Parse`], naming the file.
pub(crate) fn read_result_file(file: &str) -> Result<Vec<ShardResult>, MergeFileError> {
    let text = std::fs::read_to_string(file).map_err(|e| MergeFileError::Read {
        file: file.to_string(),
        message: e.to_string(),
    })?;
    serde::json::from_str(&text).map_err(|e| MergeFileError::Parse {
        file: file.to_string(),
        message: e.to_string(),
    })
}

/// Merges shard results with per-shard provenance: the same trial-order fold
/// as [`protocol::engine::merge_shard_results`], but a failure names the
/// source (file) whose shard was rejected.
///
/// # Errors
///
/// [`MergeFileError::Merge`] naming the rejected shard's source, or
/// [`MergeFileError::Finish`] when coverage is empty/incomplete.
pub fn merge_sources(mut sources: Vec<(String, ShardResult)>) -> Result<MergedRun, MergeFileError> {
    // Sort exactly as `merge_shard_results` does (empty shards share their
    // start with the following shard; the count key orders them first).
    sources.sort_by(|(_, a), (_, b)| {
        (a.trial_start, a.trial_count).cmp(&(b.trial_start, b.trial_count))
    });
    let mut merger = ShardMerger::new();
    for (source, result) in sources {
        let trial_range = (result.trial_start, result.trial_end());
        merger.push(result).map_err(|error| MergeFileError::Merge {
            file: source,
            trial_range,
            error,
        })?;
    }
    merger
        .finish()
        .map_err(|error| MergeFileError::Finish { error })
}

/// The whole `shardctl merge FILES` pipeline as a function: reject duplicate
/// paths, read and parse every file, fold all shards in trial order.
///
/// # Errors
///
/// Any [`MergeFileError`]; every file-shaped fault names its file.
pub fn merge_result_files(files: &[String]) -> Result<MergedRun, MergeFileError> {
    if let Some(duplicate) = find_duplicate_file(files) {
        return Err(MergeFileError::DuplicateFile {
            file: duplicate.clone(),
        });
    }
    let mut sources: Vec<(String, ShardResult)> = Vec::new();
    for file in files {
        let batch = read_result_file(file)?;
        sources.extend(batch.into_iter().map(|r| (file.clone(), r)));
    }
    merge_sources(sources)
}

/// Serializes a merged run exactly as `shardctl merge` (and `shardctl queue
/// resume`) print it — one JSON line, so the two paths stay byte-comparable.
pub fn merged_run_to_json(merged: &MergedRun) -> String {
    match merged {
        MergedRun::Summary(summary) => serde::json::to_string(summary),
        MergedRun::Outcomes(outcomes) => serde::json::to_string(outcomes),
    }
}

/// The adversary preset names `shardctl scenario --preset` accepts.
#[cfg(test)]
pub(crate) const SCENARIO_PRESETS: [&str; 6] = [
    "honest",
    "impersonate-alice",
    "impersonate-bob",
    "intercept",
    "mitm",
    "entangle",
];

/// Builds the deterministic demo scenario behind `shardctl scenario`: a
/// small-message config with a generous DI budget, identities from `seed`,
/// and the preset's adversary, on `backend`.
///
/// # Errors
///
/// A human-readable message for an unknown preset.
pub fn demo_scenario(preset: &str, seed: u64, backend: BackendKind) -> Result<Scenario, String> {
    let adversary = match preset {
        "honest" => Adversary::Honest,
        "impersonate-alice" => Adversary::ImpersonateAlice,
        "impersonate-bob" => Adversary::ImpersonateBob,
        "intercept" => Adversary::InterceptResend(InterceptBasis::Computational),
        "mitm" => Adversary::ManInTheMiddle(SubstituteState::RandomComputational),
        "entangle" => Adversary::EntangleMeasure { strength: 1.0 },
        other => return Err(format!("unknown preset `{other}`")),
    };
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(64)
        .build()
        .map_err(|e| e.to_string())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(4, &mut rng);
    Ok(Scenario::new(config, identities)
        .with_label(format!("shardctl-{preset}"))
        .with_adversary(adversary)
        .with_backend(backend))
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocol::engine::{SessionEngine, ShardOutput};

    fn results(backend: BackendKind) -> Vec<ShardResult> {
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(24)
            .build()
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let identities = IdentityPair::generate(2, &mut rng);
        let scenario = Scenario::new(config, identities).with_backend(backend);
        let engine = SessionEngine::new(5);
        engine
            .plan(&scenario, 4)
            .split_into(2)
            .iter()
            .map(|p| engine.execute_shard(p, ShardOutput::Summary).unwrap())
            .collect()
    }

    #[test]
    fn duplicate_files_are_found_by_name() {
        let files = vec!["a.json".to_string(), "b.json".to_string()];
        assert_eq!(find_duplicate_file(&files), None);
        let twice = vec![
            "a.json".to_string(),
            "b.json".to_string(),
            "a.json".to_string(),
        ];
        assert_eq!(find_duplicate_file(&twice), Some(&"a.json".to_string()));
        assert!(matches!(
            merge_result_files(&twice),
            Err(MergeFileError::DuplicateFile { file }) if file == "a.json"
        ));
    }

    #[test]
    fn merge_sources_names_the_offending_file() {
        let shards = results(BackendKind::DensityMatrix);
        // Clean merge works out of order.
        let ok = merge_sources(vec![
            ("b.json".into(), shards[1].clone()),
            ("a.json".into(), shards[0].clone()),
        ]);
        assert!(ok.is_ok());
        // Duplicate shard *content* (same range from two files) is an
        // overlap naming the second file.
        let err = merge_sources(vec![
            ("a.json".into(), shards[0].clone()),
            ("copy-of-a.json".into(), shards[0].clone()),
            ("b.json".into(), shards[1].clone()),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("copy-of-a.json"), "{err}");
        assert!(err.to_string().contains("overlap"), "{err}");
        assert!(matches!(
            err,
            MergeFileError::Merge {
                error: MergeError::Overlap { .. },
                ..
            }
        ));
        // A cross-backend shard is rejected naming its file and substrate.
        let alien = results(BackendKind::Statevector);
        let err = merge_sources(vec![
            ("a.json".into(), shards[0].clone()),
            ("sv.json".into(), alien[1].clone()),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("sv.json"), "{err}");
        assert!(err.to_string().contains("statevector"), "{err}");
    }

    #[test]
    fn demo_scenarios_cover_every_preset_and_reject_unknown_ones() {
        for preset in SCENARIO_PRESETS {
            let scenario = demo_scenario(preset, 7, BackendKind::DensityMatrix).unwrap();
            assert_eq!(scenario.label, format!("shardctl-{preset}"));
        }
        let statevector = demo_scenario("honest", 7, BackendKind::Statevector).unwrap();
        assert_eq!(statevector.backend, BackendKind::Statevector);
        assert!(demo_scenario("quantum-cat", 7, BackendKind::DensityMatrix).is_err());
    }
}
