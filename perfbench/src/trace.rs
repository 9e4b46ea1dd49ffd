//! Outside-in tracing: spans taken around calls into the program's public
//! functions, never inside them.
//!
//! [`TracingBackend`] wraps a scenario's own [`Backend`] and is installed
//! with `SessionEngine::with_backend`. It forwards every call unchanged, so
//! RNG streams and results stay byte-identical, and around each call it
//! records either a timed span or (in the hashing pass) a hash of the exact
//! input state, never both: hashing inside a timed pass would be billed to
//! the session layer's self time.

use protocol::engine::Backend;
use qchannel::compiled::CompiledQuantumChannel;
use qchannel::epr::EprPair;
use qchannel::quantum::ChannelTap;
use rand::RngCore;
use std::collections::HashSet;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Call count and total nanoseconds of one span kind.
#[derive(Debug, Default)]
pub struct SpanTotals {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl SpanTotals {
    fn record(&self, start: Option<Instant>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(start) = start {
            self.nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent inside the calls (0 in a hashing pass).
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// What a [`TracingBackend`] records besides call counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Time every emit and transmit call.
    Timed,
    /// Hash the exact `f64` bits of every density matrix entering
    /// `transmit`, to count distinct inputs.
    HashInputs,
}

/// A [`Backend`] that forwards to the scenario's own backend and records
/// spans around `emit` and `transmit`.
#[derive(Debug)]
pub struct TracingBackend {
    inner: &'static dyn Backend,
    mode: TraceMode,
    /// Emission calls (`emit_pair` and `emit_pair_into`).
    pub emit: SpanTotals,
    /// Transmission calls.
    pub transmit: SpanTotals,
    distinct: Mutex<HashSet<u64>>,
    hashed: AtomicU64,
}

impl TracingBackend {
    /// Wraps `inner` (normally `scenario.backend.backend()`).
    pub fn new(inner: &'static dyn Backend, mode: TraceMode) -> Self {
        TracingBackend {
            inner,
            mode,
            emit: SpanTotals::default(),
            transmit: SpanTotals::default(),
            distinct: Mutex::new(HashSet::new()),
            hashed: AtomicU64::new(0),
        }
    }

    fn start(&self) -> Option<Instant> {
        (self.mode == TraceMode::Timed).then(Instant::now)
    }

    /// Distinct exact transmit inputs over hashed inputs, when any
    /// density-matrix input was hashed.
    pub fn distinct_input_frac(&self) -> Option<f64> {
        let hashed = self.hashed.load(Ordering::Relaxed);
        let distinct = self.distinct.lock().expect("hash set lock poisoned").len();
        (hashed > 0).then(|| distinct as f64 / hashed as f64)
    }

    fn hash_input(&self, pair: &EprPair) {
        // Frame-tracked pairs carry no density matrix; only the exact
        // density-matrix substrate has inputs worth hashing.
        if pair.is_frame_tracked() {
            return;
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for entry in pair.density().matrix().as_slice() {
            for word in [entry.re.to_bits(), entry.im.to_bits()] {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        self.hashed.fetch_add(1, Ordering::Relaxed);
        self.distinct
            .lock()
            .expect("hash set lock poisoned")
            .insert(hash);
    }
}

impl Backend for TracingBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn emit_pair(
        &self,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) -> EprPair {
        let start = self.start();
        let pair = self.inner.emit_pair(channel, tap, rng);
        self.emit.record(start);
        pair
    }

    fn emit_pair_into(
        &self,
        slot: &mut EprPair,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        let start = self.start();
        self.inner.emit_pair_into(slot, channel, tap, rng);
        self.emit.record(start);
    }

    fn transmit(
        &self,
        channel: &CompiledQuantumChannel,
        pair: &mut EprPair,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        if self.mode == TraceMode::HashInputs {
            self.hash_input(pair);
        }
        let start = self.start();
        self.inner.transmit(channel, pair, tap, rng);
        self.transmit.record(start);
    }
}

/// Cost of one `Instant::now()` read, in nanoseconds (median of batches).
pub fn clock_ns() -> f64 {
    const READS: u32 = 20_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            (last - start).as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    crate::stats::median(&batches).expect("nine batches")
}

/// Heap allocations per trial of `workload`'s sessions, counted by the
/// `perfbench-allocs` binary built beside this one. The benchmark itself
/// runs on the system allocator, so its timings carry no counter cost.
pub fn allocs_per_trial(workload: &str, seed: u64, threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .with_file_name(format!("perfbench-allocs{}", std::env::consts::EXE_SUFFIX));
    let output = Command::new(&exe)
        .args(["--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--threads",
            &threads.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("{} failed with {}", exe.display(), output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("{} printed {text:?}: {e}", exe.display()))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes the calling thread has passed to write-type system calls so far
/// (`wchar` of `/proc/thread-self/io`), when the kernel exposes it.
pub fn thread_write_bytes() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/io")
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
}
