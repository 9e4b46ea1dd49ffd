//! Allocation-regression tests for the compiled-kernel hot path.
//!
//! This binary installs the workspace's [`alloc_counter::CountingAllocator`]
//! as the global allocator (one binary, one allocator — which is why these
//! tests live in their own integration-test file) and asserts two levels of
//! the tentpole contract:
//!
//! 1. the compiled emit/encode/transmit/measure kernel loop is **allocation-free**
//!    in steady state — exactly zero heap allocations per pair once the
//!    thread-local pools and scratch buffers are warm;
//! 2. a whole Summary-mode engine trial stays under a per-trial allocation
//!    budget, serial and on two worker threads, so bookkeeping growth
//!    (transcripts, outcomes, per-trial delivery across threads) cannot
//!    silently come back.
//!
//! The global counters are process-wide, so every measured window runs
//! inside the one `#[test]` of this binary: the test harness then has no
//! other test thread to spawn, run or report while a window is open.

use protocol::engine::{BackendKind, Parallelism, SessionEngine};
use qchannel::epr::{EprPair, ALICE_QUBIT};
use qchannel::quantum::QuantumChannel;
use qsim::measurement::BasisPhase;
use qsim::pauli::Pauli;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator::new();

/// The allocations one run of `window` performs.
fn allocations_during(window: impl FnOnce()) -> u64 {
    let before = alloc_counter::CountingAllocator::allocations();
    window();
    alloc_counter::CountingAllocator::allocations() - before
}

#[test]
fn hot_paths_stay_within_their_allocation_budgets() {
    compiled_kernel_loop_is_allocation_free_in_steady_state();
    twirled_trial_loop_is_allocation_free_once_warm();
    steady_state_trial_allocations_stay_bounded();
    threaded_summary_trials_fold_on_their_workers();
}

fn compiled_kernel_loop_is_allocation_free_in_steady_state() {
    let scenario = bench::shard_io::demo_scenario("intercept", 7, BackendKind::default())
        .expect("demo scenario");
    let compiled = QuantumChannel::new(scenario.config.channel().clone()).compile();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut pair = EprPair::ideal();
    let angles = [
        0.0,
        std::f64::consts::FRAC_PI_4,
        std::f64::consts::FRAC_PI_2,
    ]
    .map(BasisPhase::new);

    let step = |pair: &mut EprPair, rng: &mut rand::rngs::StdRng| {
        compiled.emit_noisy_pair_into(pair);
        pair.apply_alice_pauli(Pauli::IY);
        compiled.transmit(pair, rng);
        pair.density_mut().measure(ALICE_QUBIT, rng);
        for theta_a in angles {
            for theta_b in angles {
                compiled.emit_noisy_pair_into(pair);
                pair.measure_both_in_bases(theta_a, theta_b, rng);
            }
        }
    };

    // Warm the thread-local scratch buffers and the pair's own storage.
    for _ in 0..8 {
        step(&mut pair, &mut rng);
    }

    let allocations = allocations_during(|| {
        for _ in 0..64 {
            step(&mut pair, &mut rng);
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state kernel loop allocated {allocations} times over 64 iterations"
    );
}

fn twirled_trial_loop_is_allocation_free_once_warm() {
    // The η-sweep workload: 50 noisy identity gates on a brisbane-like
    // device, so both the emission and the convolved transmit distributions
    // are non-trivial — every emit and transmit below really samples a Pauli
    // and XORs it into the frame.
    let scenario = bench::sweep_scenario(50, 7, BackendKind::PauliTwirled);
    let compiled = QuantumChannel::new(scenario.config.channel().clone()).compile();
    assert!(!compiled.twirled().is_trivial(), "sweep noise must twirl");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut pair = EprPair::ideal();
    let angles = [
        0.0,
        std::f64::consts::FRAC_PI_4,
        std::f64::consts::FRAC_PI_2,
    ]
    .map(BasisPhase::new);

    let step = |pair: &mut EprPair, rng: &mut rand::rngs::StdRng| {
        for theta_a in angles {
            for theta_b in angles {
                compiled.emit_twirled_pair_into(pair, rng);
                compiled.transmit_twirled(pair, rng);
                pair.measure_both_in_bases(theta_a, theta_b, rng);
            }
        }
    };

    // One warm-up pass allocates the pair's frame storage; after that the
    // loop is pure integer/bitmask work and may not allocate at all.
    step(&mut pair, &mut rng);

    let allocations = allocations_during(|| {
        for _ in 0..256 {
            step(&mut pair, &mut rng);
        }
    });
    assert_eq!(
        allocations, 0,
        "warm twirled trial loop allocated {allocations} times over 256 iterations"
    );
}

/// Asserts that a warm `run_trials` batch of the intercept-resend demo
/// allocates at most `budget_per_trial` times per trial under `parallelism`.
fn summary_trials_stay_within(parallelism: Parallelism, trials: usize, budget_per_trial: u64) {
    let scenario = bench::shard_io::demo_scenario("intercept", 7, BackendKind::default())
        .expect("demo scenario");
    let engine = SessionEngine::new(7).with_parallelism(parallelism);

    // Warm the thread-local session scratch, basis cache, and kernel scratch.
    engine.run_trials(&scenario, 16).expect("warm-up trials");

    let allocations = allocations_during(|| {
        engine
            .run_trials(&scenario, trials)
            .expect("measured trials");
    });
    let per_trial = allocations / trials as u64;
    assert!(
        per_trial <= budget_per_trial,
        "{parallelism} Summary-mode trials allocate {per_trial}/trial ({allocations} over \
         {trials}), budget is {budget_per_trial}/trial"
    );
}

fn steady_state_trial_allocations_stay_bounded() {
    // Measured 3.7 allocations/trial (235 over 64): ~2 per trial (the
    // intercept tap's box and the random message) plus ~102 per call, 98 of
    // them the scenario fingerprint's JSON (1135 over 512 trials is
    // 2.2/trial). A Summary-mode trial builds no transcript or outcome,
    // so any of that bookkeeping coming back (~48/trial), or a
    // per-interception log in the tap (~5/trial), fails here.
    summary_trials_stay_within(Parallelism::Serial, 64, 4);
}

fn threaded_summary_trials_fold_on_their_workers() {
    // Measured 2.9 allocations/trial (1509 over 512) on two workers: the
    // serial count for 512 trials (2.2/trial) plus thread spawns, one
    // payload per chunk and the chunk reorder buffer. Sending each trial's outcome to the calling thread
    // instead of folding it on its worker costs ~48/trial and fails here.
    summary_trials_stay_within(Parallelism::Threads(2), 512, 3);
}
