//! The workspace's environment-variable names, spelled exactly once.
//!
//! Every knob this reproduction reads from the process environment is named
//! `UA_DI_QSDC_*`, and every read site refers to these constants — never to
//! a string literal. The `detlint` tool's `env-keys` rule enforces this
//! statically: a `"UA_DI_QSDC_…"` literal anywhere outside this module is a
//! diagnostic, so a typo cannot silently fork the configuration surface
//! into two variables that each half of the code reads.
//!
//! Environment reads themselves are restricted by the `wall-clock` rule to
//! binary entry points, tests, and explicitly waived library sites (the
//! policy is documented in `docs/determinism.md`): configuration is read
//! once at the edge and passed down, so a result can never depend on
//! ambient process state that a replay would not reproduce.

/// Selects the execution policy (`serial`, `threads:N`, or `auto`); read by
/// [`Parallelism::from_env`](crate::engine::Parallelism::from_env).
pub(crate) const PARALLELISM: &str = "UA_DI_QSDC_PARALLELISM";

/// Chaos-testing hook: stalls a fleet worker for N milliseconds between
/// claiming and executing each shard, so a test can SIGKILL it while it
/// provably holds a lease. Read once by the `shardctl` binary into the
/// [`ShardWorker::throttle_ms`](crate::engine::ShardWorker::throttle_ms)
/// of `queue work` and `campaign run/resume`.
pub const QUEUE_THROTTLE_MS: &str = "UA_DI_QSDC_QUEUE_THROTTLE_MS";

/// When set, golden-fixture tests rewrite their checked-in fixtures instead
/// of asserting against them.
pub const UPDATE_FIXTURES: &str = "UA_DI_QSDC_UPDATE_FIXTURES";

/// The `host:port` the `qsdc-serve` binary listens on (default
/// `127.0.0.1:7878`; `:0` picks an ephemeral port and prints it). Read by
/// the `qsdc-serve` binary only.
pub const SERVE_ADDR: &str = "UA_DI_QSDC_SERVE_ADDR";

/// The `qsdc-serve` spool directory: every accepted job is lowered onto a
/// shard queue under it, which is what makes a SIGKILLed server resumable.
/// Read by the `qsdc-serve` binary only.
pub const SERVE_SPOOL: &str = "UA_DI_QSDC_SERVE_SPOOL";

/// Worker-pool size of the `qsdc-serve` binary (default 2). Read by the
/// `qsdc-serve` binary only.
pub const SERVE_WORKERS: &str = "UA_DI_QSDC_SERVE_WORKERS";

/// Per-client in-flight job quota of the `qsdc-serve` binary; submissions
/// past it are answered with a `Busy` response. Read by the `qsdc-serve`
/// binary only.
pub const SERVE_QUOTA: &str = "UA_DI_QSDC_SERVE_QUOTA";

/// Shard granularity (and therefore snapshot-streaming interval, in trials)
/// the `qsdc-serve` binary lowers session jobs with; a positive integer.
/// Read by the `qsdc-serve` binary only.
pub const SERVE_SNAPSHOT_TRIALS: &str = "UA_DI_QSDC_SERVE_SNAPSHOT_TRIALS";

#[cfg(test)]
mod tests {
    #[test]
    fn every_key_carries_the_workspace_prefix() {
        for key in [
            super::PARALLELISM,
            super::QUEUE_THROTTLE_MS,
            super::UPDATE_FIXTURES,
            super::SERVE_ADDR,
            super::SERVE_SPOOL,
            super::SERVE_WORKERS,
            super::SERVE_QUOTA,
            super::SERVE_SNAPSHOT_TRIALS,
        ] {
            assert!(key.starts_with("UA_DI_QSDC_"), "{key}");
        }
    }
}
