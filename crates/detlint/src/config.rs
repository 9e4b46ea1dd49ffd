//! The rule catalog's scoping policy: which paths each rule patrols.
//!
//! All scoping is data, not code, so the golden tests can lint synthetic
//! trees with a custom [`Config`] while `cargo run -p detlint` uses
//! [`Config::workspace`] — the checked-in policy for this repository.
//! Paths are workspace-relative with forward slashes.

/// Scoping policy for one lint run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes never scanned at all (fixture inputs, generated code).
    pub exclude: Vec<String>,
    /// Path prefixes exempt from the `wall-clock` rule (vendored compat
    /// shims, the benchmark). Binary entry points (`/bin/` and crate `src/main.rs`),
    /// tests, benches and examples are exempt structurally, not by this
    /// list.
    pub wall_clock_exempt: Vec<String>,
    /// Path prefixes where `unordered-iter` applies: the crates that feed
    /// fingerprints, serialized artifacts, or merge folds.
    pub unordered_scope: Vec<String>,
    /// Exact files holding the allocation-free kernel hot paths.
    pub hot_modules: Vec<String>,
    /// Path prefixes of crates allowed to contain `unsafe` (and to omit
    /// `#![forbid(unsafe_code)]` from their root).
    pub unsafe_allowlist: Vec<String>,
    /// Exact files whose `pub` serde-derived types must be fixture-covered.
    pub wire_modules: Vec<String>,
    /// The test file that parses the golden fixtures; a wire type counts as
    /// covered when this file names it.
    pub wire_witness: String,
    /// Directory of golden wire fixtures (must be non-empty).
    pub fixtures_dir: String,
    /// Environment-variable prefix owned by this workspace.
    pub env_key_prefix: String,
    /// The one module allowed to spell env-key string literals.
    pub env_keys_home: String,
}

impl Config {
    /// The checked-in policy for this repository.
    pub fn workspace() -> Config {
        Config {
            exclude: vec![
                "target/".into(),
                // detlint's own golden-test inputs deliberately violate
                // every rule; they are linted by the golden suite under
                // synthetic paths, never as workspace sources.
                "crates/detlint/tests/inputs/".into(),
            ],
            wall_clock_exempt: vec![
                "crates/compat/".into(),
                // The repository benchmark times the workspace from the
                // outside; clocks are its instrument, and nothing it
                // measures feeds a result.
                "perfbench/".into(),
            ],
            unordered_scope: vec![
                "crates/protocol/src/".into(),
                "crates/noise/src/".into(),
                "crates/qchannel/src/".into(),
                "crates/qsim/src/".into(),
                "crates/analysis/src/".into(),
                "crates/attacks/src/".into(),
                "crates/bench/src/".into(),
                "crates/serve/src/".into(),
                "src/".into(),
            ],
            hot_modules: vec![
                "crates/qsim/src/kernel.rs".into(),
                "crates/qsim/src/pauli_frame.rs".into(),
                "crates/noise/src/compiled.rs".into(),
                "crates/noise/src/twirl.rs".into(),
                "crates/qchannel/src/compiled.rs".into(),
            ],
            unsafe_allowlist: vec![
                // The counting global allocator is the workspace's single
                // sanctioned `unsafe` (GlobalAlloc has an unsafe contract).
                "crates/compat/alloc_counter/".into(),
            ],
            wire_modules: vec![
                "crates/protocol/src/engine/shard.rs".into(),
                "crates/protocol/src/engine/queue.rs".into(),
                "crates/protocol/src/engine/campaign.rs".into(),
                "crates/protocol/src/wire.rs".into(),
            ],
            wire_witness: "tests/wire_format.rs".into(),
            fixtures_dir: "tests/fixtures".into(),
            // detlint: allow(env-keys): this is the prefix the rule enforces, not a key read site
            env_key_prefix: "UA_DI_QSDC_".into(),
            env_keys_home: "crates/protocol/src/env_keys.rs".into(),
        }
    }

    /// True when `path` must not be scanned.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path.starts_with(p))
    }

    /// True when the `wall-clock` rule patrols `path`. Binary entry
    /// points — `/bin/` files and a crate's `src/main.rs` — are where
    /// configuration is read and passed down, so the rule skips them.
    pub fn wall_clock_applies(&self, path: &str) -> bool {
        !path.contains("/bin/")
            && !path.ends_with("/src/main.rs")
            && !self.wall_clock_exempt.iter().any(|p| path.starts_with(p))
    }

    /// True when the `unordered-iter` rule patrols `path`.
    pub fn unordered_applies(&self, path: &str) -> bool {
        self.unordered_scope.iter().any(|p| path.starts_with(p))
    }

    /// True when `path` is a designated allocation-free kernel module.
    pub fn is_hot_module(&self, path: &str) -> bool {
        self.hot_modules.iter().any(|p| p == path)
    }

    /// True when the crate owning `path` may contain `unsafe`.
    pub fn unsafe_allowed(&self, path: &str) -> bool {
        self.unsafe_allowlist.iter().any(|p| path.starts_with(p))
    }

    /// True when `path` is a crate root (`src/lib.rs`) whose header the
    /// `unsafe-audit` rule must check.
    pub fn is_crate_root(&self, path: &str) -> bool {
        path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::workspace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_entry_points_are_exempt_from_wall_clock() {
        let config = Config::workspace();
        // Both binary forms: `src/bin/*.rs` and a crate's `src/main.rs`.
        assert!(!config.wall_clock_applies("crates/bench/src/bin/shardctl.rs"));
        assert!(!config.wall_clock_applies("crates/serve/src/main.rs"));
        // Exempt-by-prefix (vendored shims, the benchmark).
        assert!(!config.wall_clock_applies("crates/compat/rand/src/lib.rs"));
        assert!(!config.wall_clock_applies("perfbench/src/trace.rs"));
        // Library code stays patrolled — including a module merely named
        // like an entry point outside `src/`.
        assert!(config.wall_clock_applies("crates/serve/src/server.rs"));
        assert!(config.wall_clock_applies("crates/protocol/src/engine.rs"));
    }
}
