//! The repository benchmark's workloads, tracing and arithmetic, shared by
//! its two binaries: `perfbench` (the benchmark, on the system allocator)
//! and `perfbench-allocs` (allocation counts under a counting allocator,
//! spawned by traced runs so that untraced timings carry no counter cost).

pub mod common;
pub mod fabric;
pub mod kernel;
pub mod service;
pub mod stats;
pub mod trace;
