//! `qsdc-serve`: a multi-tenant session service over the shard-queue fabric.
//!
//! The execution fabric (shard plans, the work-stealing
//! [`ShardQueue`](protocol::engine::ShardQueue), campaigns) is fleet-grade
//! but, before this crate, reachable only through
//! one-shot CLIs. `qsdc-serve` turns it into a long-lived daemon: clients
//! connect over plain TCP, submit [`Scenario`](protocol::engine::Scenario)
//! and [`Campaign`](protocol::engine::Campaign) jobs as newline-delimited
//! JSON ([`protocol::wire`]), and the server multiplexes every job onto one
//! shared worker pool:
//!
//! - **Fair round-robin across clients.** The scheduler interleaves clients,
//!   not jobs: a tenant with fifty queued jobs cannot starve a tenant with
//!   one.
//! - **Quotas with backpressure.** Each client may hold a bounded number of
//!   unfinished jobs; a submission past the quota is answered with an
//!   explicit [`Busy`](protocol::wire::Response::Busy) — never silently
//!   dropped.
//! - **Streaming snapshots.** Session jobs stream incremental
//!   [`TrialSummary`](protocol::engine::TrialSummary) snapshots roughly
//!   every `snapshot_trials` completed trials (the merged contiguous prefix,
//!   byte-identical to a local run of the same prefix).
//! - **Cancellation.** A cancelled job stops being scheduled and is marked
//!   in the spool so a restart does not resurrect it.
//! - **Crash-safe by construction.** Every accepted job is lowered onto a
//!   [`ShardQueue`](protocol::engine::ShardQueue) under the server's spool
//!   directory *before* it is
//!   acknowledged. The queue's checkpoint/lease/merge machinery is the
//!   persistence layer — a SIGKILLed server rescans the spool on restart and
//!   finishes every unfinished job **byte-identically** to an uninterrupted
//!   run.
//!
//! The binary is `qsdc-serve` (see `src/main.rs`); the library exposes the
//! same server embeddable in-process (the `serve-open-loop` workload of the
//! repository benchmark in `perfbench/` and the chaos tests use it), plus a
//! minimal blocking [`Client`] for tests and tooling. Protocol grammar and semantics: `docs/service.md`.
#![forbid(unsafe_code)]

mod client;
mod registry;
mod server;
pub mod spool;

pub use client::Client;
pub use server::{Server, ServerConfig, MAX_JOB_SHARDS};
pub use spool::{JobOutcome, Spool};
