//! Device-independent security checks (CHSH rounds).
//!
//! The protocol performs two CHSH-estimation rounds on sacrificed pairs: round one right
//! after entanglement sharing (Alice and Bob each measure their own half) and round two after
//! transmission (Bob measures both halves himself). In the device-independent threat model
//! the parties trust nothing but the observed input–output statistics, so the only decision
//! input is the estimated CHSH value `S`: the protocol continues only if `S` exceeds the
//! classical bound.

use qchannel::compiled::CompiledQuantumChannel;
use qchannel::epr::{EprPair, ExactState};
use qsim::chsh::{chsh_value, MeasurementRecord};
use qsim::density::{DensityMatrix, PairProbabilities};
use qsim::measurement::{BasisPhase, MeasurementBasis};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Which of the two DI-check rounds a report belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiCheckRound {
    /// Round 1 — after entanglement sharing, before Alice's encoding/transmission.
    First,
    /// Round 2 — after transmission, performed entirely by Bob.
    Second,
}

impl fmt::Display for DiCheckRound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiCheckRound::First => write!(f, "round 1"),
            DiCheckRound::Second => write!(f, "round 2"),
        }
    }
}

/// The outcome of one DI-security-check round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiCheckReport {
    /// Which round this is.
    pub round: DiCheckRound,
    /// The estimated CHSH value, if every setting combination collected at least one sample.
    pub chsh: Option<f64>,
    /// Number of pairs sacrificed.
    pub pairs_used: usize,
    /// Number of pairs that actually entered the CHSH estimate (Alice setting ∈ {1, 2}).
    pub pairs_in_estimate: usize,
    /// The abort threshold that was applied.
    pub threshold: f64,
    /// `true` when the round passed (`S > threshold`).
    pub passed: bool,
}

impl fmt::Display for DiCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.chsh {
            Some(s) => write!(
                f,
                "DI check {}: S = {:.4} over {} pairs ({} in estimate) → {}",
                self.round,
                s,
                self.pairs_used,
                self.pairs_in_estimate,
                if self.passed { "continue" } else { "abort" }
            ),
            None => write!(
                f,
                "DI check {}: insufficient statistics over {} pairs → abort",
                self.round, self.pairs_used
            ),
        }
    }
}

/// Runs one DI-check round over the given pairs (consuming them measurement-wise), with both
/// parties choosing settings uniformly at random exactly as the paper prescribes: Alice from
/// `{A0, A1, A2}`, Bob from `{B1, B2}`. Pairs where Alice chose `A0` (the key-generation
/// basis) do not enter the CHSH estimate.
///
/// Returns the report plus the raw records (the protocol publishes these on the classical
/// channel for round one).
pub fn run_di_check<R: Rng + ?Sized>(
    round: DiCheckRound,
    pairs: &mut [EprPair],
    threshold: f64,
    rng: &mut R,
) -> (DiCheckReport, Vec<MeasurementRecord>) {
    let mut records = Vec::with_capacity(pairs.len());
    let report = run_check_loop(round, pairs, None, None, threshold, rng, &mut records);
    (report, records)
}

/// Like [`run_di_check`], but sacrifices only the pairs at the given
/// `positions` (in order), measuring them **in place**. This is the
/// engine's hot path: the check block stays inside the session's pair
/// store, so no pair is cloned just to be measured and dropped.
///
/// Draw-for-draw identical to cloning the pairs at `positions` into a
/// fresh slice and calling [`run_di_check`] on it.
///
/// # Panics
///
/// Panics if any position is out of range. Repeated positions are a
/// logic error (the second visit re-measures an already collapsed
/// pair) and are rejected in debug builds.
pub fn run_di_check_at<R: Rng + ?Sized>(
    round: DiCheckRound,
    pairs: &mut [EprPair],
    positions: &[usize],
    threshold: f64,
    rng: &mut R,
) -> (DiCheckReport, Vec<MeasurementRecord>) {
    debug_assert!(
        {
            let mut seen = std::collections::BTreeSet::new();
            positions.iter().all(|&p| seen.insert(p))
        },
        "DI-check positions must be distinct"
    );
    let mut records = Vec::with_capacity(positions.len());
    let report = run_check_loop(
        round,
        pairs,
        Some(positions),
        None,
        threshold,
        rng,
        &mut records,
    );
    (report, records)
}

/// [`run_di_check_at`] for a session, writing the records into `records`
/// (cleared first) so the engine reuses one buffer across sessions. The
/// caller guarantees distinct positions.
///
/// A pair that `tables`' program tagged draws its outcomes from the table
/// of its exact state, with the same draws and outcomes the kernel would
/// give; the session never reads a check pair again, so its collapsed
/// state is not written, but its tag is dropped. Every other pair is
/// measured in place.
pub(crate) fn run_di_check_into<R: Rng + ?Sized>(
    round: DiCheckRound,
    pairs: &mut [EprPair],
    positions: &[usize],
    tables: &CheckTables<'_>,
    threshold: f64,
    rng: &mut R,
    records: &mut Vec<MeasurementRecord>,
) -> DiCheckReport {
    run_check_loop(
        round,
        pairs,
        Some(positions),
        Some(tables),
        threshold,
        rng,
        records,
    )
}

/// One state's outcome probabilities in every DI-check basis pair, indexed
/// `[alice setting][bob setting − 1]`.
type BasisTable = [[PairProbabilities; 2]; 3];

/// The DI-check outcome tables of one compiled program: the probability
/// step of the pair kernel on the program's exact states ρ_E and ρ_T, in
/// every basis pair. Each table is built the first time a pair in its state
/// is checked, so a run whose pairs are never tagged builds none.
#[derive(Debug)]
pub(crate) struct CheckTables<'a> {
    program: &'a CompiledQuantumChannel,
    emitted: OnceLock<BasisTable>,
    transmitted: OnceLock<BasisTable>,
}

impl<'a> CheckTables<'a> {
    /// Empty tables for `program`'s states.
    pub(crate) fn new(program: &'a CompiledQuantumChannel) -> Self {
        Self {
            program,
            emitted: OnceLock::new(),
            transmitted: OnceLock::new(),
        }
    }

    /// The program these tables belong to: a session reads its channel
    /// from here, so its transmissions and its tables cannot disagree.
    pub(crate) fn program(&self) -> &'a CompiledQuantumChannel {
        self.program
    }

    /// The table of the exact state `pair` holds, when this program tagged
    /// it.
    fn for_pair(&self, pair: &EprPair) -> Option<&BasisTable> {
        Some(match self.program.exact_state_of(pair)? {
            ExactState::Emitted => self
                .emitted
                .get_or_init(|| basis_table(self.program.emitted_state())),
            ExactState::Transmitted => self
                .transmitted
                .get_or_init(|| basis_table(self.program.transmitted_state())),
        })
    }
}

/// The probabilities [`EprPair::measure_both_in_bases`] draws against on a
/// density-backed pair holding `rho`: Alice's half is qubit 0, Bob's 1.
fn basis_table(rho: &DensityMatrix) -> BasisTable {
    let (alice, bob) = check_phases();
    alice.map(|a| bob.map(|b| rho.pair_probabilities_in_bases(0, a, 1, b)))
}

/// The DI-check bases with their phases, Alice's `A0..A2` and Bob's `B1, B2`,
/// built once per process: the check loop then makes no transcendental call
/// per pair, and the phases are the same `cis(θ)` values a per-pair call
/// would build.
fn check_phases() -> &'static ([BasisPhase; 3], [BasisPhase; 2]) {
    static PHASES: std::sync::OnceLock<([BasisPhase; 3], [BasisPhase; 2])> =
        std::sync::OnceLock::new();
    PHASES.get_or_init(|| {
        (
            MeasurementBasis::alice_all().map(BasisPhase::from),
            MeasurementBasis::bob_all().map(BasisPhase::from),
        )
    })
}

fn run_check_loop<R: Rng + ?Sized>(
    round: DiCheckRound,
    pairs: &mut [EprPair],
    positions: Option<&[usize]>,
    tables: Option<&CheckTables<'_>>,
    threshold: f64,
    rng: &mut R,
    records: &mut Vec<MeasurementRecord>,
) -> DiCheckReport {
    let pairs_used = positions.map_or(pairs.len(), <[usize]>::len);
    let (alice, bob) = check_phases();
    records.clear();
    let mut in_estimate = 0usize;
    for i in 0..pairs_used {
        let pair = match positions {
            Some(positions) => &mut pairs[positions[i]],
            None => &mut pairs[i],
        };
        let alice_setting = rng.gen_range(0..3usize);
        let bob_setting = rng.gen_range(1..=2usize);
        let (alice_outcome, bob_outcome) = match tables.and_then(|t| t.for_pair(pair)) {
            Some(table) => {
                let outcomes = table[alice_setting][bob_setting - 1].draw(rng);
                pair.mark_consumed();
                outcomes
            }
            None => pair.measure_both_in_bases(alice[alice_setting], bob[bob_setting - 1], rng),
        };
        if alice_setting == 1 || alice_setting == 2 {
            in_estimate += 1;
            records.push(MeasurementRecord::new(
                alice_setting,
                bob_setting,
                alice_outcome,
                bob_outcome,
            ));
        }
    }
    let chsh = chsh_value(records);
    let passed = chsh.map(|s| s > threshold).unwrap_or(false);
    DiCheckReport {
        round,
        chsh,
        pairs_used,
        pairs_in_estimate: in_estimate,
        threshold,
        passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::pauli::Pauli;
    use rand::{RngCore, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(909)
    }

    fn ideal_pairs(count: usize) -> Vec<EprPair> {
        (0..count).map(|_| EprPair::ideal()).collect()
    }

    #[test]
    fn honest_pairs_violate_chsh() {
        let mut pairs = ideal_pairs(400);
        let (report, records) = run_di_check(DiCheckRound::First, &mut pairs, 2.0, &mut rng());
        assert!(report.passed, "ideal Φ+ pairs must pass: {report}");
        let s = report.chsh.unwrap();
        assert!(
            s > 2.3,
            "CHSH should be well above the classical bound, got {s}"
        );
        assert!(s <= 4.0);
        assert!(!records.is_empty());
        assert!(report.pairs_in_estimate <= report.pairs_used);
    }

    #[test]
    fn separable_pairs_fail_the_check() {
        // A man-in-the-middle style substitution: fresh |00⟩ pairs with no correlations in the
        // X–Y plane measurement bases.
        let mut pairs: Vec<EprPair> = (0..400).map(|_| EprPair::separable(0, 0)).collect();
        let (report, _) = run_di_check(DiCheckRound::Second, &mut pairs, 2.0, &mut rng());
        assert!(!report.passed, "separable states must not pass: {report}");
        let s = report.chsh.unwrap();
        assert!(s.abs() < 1.0, "uncorrelated outcomes give S ≈ 0, got {s}");
    }

    #[test]
    fn dephased_pairs_fail_the_check() {
        // Fully dephasing Alice's qubit (what an intercept-and-resend in the Z basis does)
        // caps the CHSH value at the classical bound.
        let mut pairs = ideal_pairs(400);
        for pair in &mut pairs {
            // Z-basis measurement by Eve == 50/50 Z error from the pair's point of view.
            noise::KrausChannel::phase_flip(0.5).apply(pair.density_mut(), &[0]);
        }
        let (report, _) = run_di_check(DiCheckRound::Second, &mut pairs, 2.0, &mut rng());
        let s = report.chsh.unwrap();
        assert!(
            s <= 2.0 + 0.3,
            "fully dephased pairs cannot exceed 2 (plus noise), got {s}"
        );
        assert!(!report.passed || s <= 2.3);
    }

    #[test]
    fn encoded_pairs_still_violate_chsh() {
        // A Pauli applied by Alice rotates which Bell state the pair is in but does not
        // destroy non-locality; the |S| stays at 2√2 even though its sign structure changes.
        // The protocol never runs the check on encoded pairs, but this documents why the
        // ordering matters: the check is calibrated for Φ+ only.
        let mut pairs = ideal_pairs(300);
        for pair in &mut pairs {
            pair.apply_alice_pauli(Pauli::X);
        }
        let (report, _) = run_di_check(DiCheckRound::First, &mut pairs, 2.0, &mut rng());
        // Ψ+ has correlators cos(θa − θb) under our convention, so the *protocol's* CHSH
        // combination no longer reaches 2√2 — it lands near 0.
        let s = report.chsh.unwrap();
        assert!(
            s.abs() < 1.0,
            "encoded pairs break the calibrated CHSH combination, got {s}"
        );
    }

    #[test]
    fn empty_pair_list_reports_insufficient_statistics() {
        let mut pairs: Vec<EprPair> = Vec::new();
        let (report, records) = run_di_check(DiCheckRound::First, &mut pairs, 2.0, &mut rng());
        assert!(!report.passed);
        assert_eq!(report.chsh, None);
        assert!(records.is_empty());
        assert!(report.to_string().contains("insufficient"));
    }

    #[test]
    fn threshold_is_respected() {
        let mut pairs = ideal_pairs(400);
        let (report, _) = run_di_check(DiCheckRound::First, &mut pairs, 3.9, &mut rng());
        assert!(!report.passed, "a threshold of 3.9 can never be met");
    }

    #[test]
    fn round_display() {
        assert_eq!(DiCheckRound::First.to_string(), "round 1");
        assert_eq!(DiCheckRound::Second.to_string(), "round 2");
    }

    fn brisbane(eta: usize) -> CompiledQuantumChannel {
        CompiledQuantumChannel::from(qchannel::quantum::ChannelSpec::noisy_identity_chain(
            eta,
            noise::DeviceModel::ibm_brisbane_like(),
        ))
    }

    /// `count` pairs `program` emitted, transmitted when asked.
    fn program_pairs(
        program: &CompiledQuantumChannel,
        count: usize,
        transmitted: bool,
    ) -> Vec<EprPair> {
        (0..count)
            .map(|_| {
                let mut pair = EprPair::ideal();
                program.emit_noisy_pair_into(&mut pair);
                if transmitted {
                    program.transmit(&mut pair, &mut rng());
                }
                pair
            })
            .collect()
    }

    /// Runs the session's check on `pairs` with `tables` and the kernel
    /// path on a copy, on equal RNG streams, and checks that both give the
    /// same report, records and next draw.
    fn assert_table_path_matches_the_kernel(pairs: &mut [EprPair], tables: &CheckTables<'_>) {
        let positions: Vec<usize> = (0..pairs.len()).rev().collect();
        let mut kernel_pairs = pairs.to_vec();
        let mut kernel_rng = rng();
        let want = run_di_check_at(
            DiCheckRound::First,
            &mut kernel_pairs,
            &positions,
            2.0,
            &mut kernel_rng,
        );
        let mut table_rng = rng();
        let mut records = Vec::new();
        let report = run_di_check_into(
            DiCheckRound::First,
            pairs,
            &positions,
            tables,
            2.0,
            &mut table_rng,
            &mut records,
        );
        assert_eq!((report, records), want);
        assert_eq!(table_rng.next_u64(), kernel_rng.next_u64());
        for &pos in &positions {
            assert!(tables.program.exact_state_of(&pairs[pos]).is_none());
        }
    }

    #[test]
    fn tagged_pairs_draw_from_their_program_tables_like_the_kernel() {
        use qchannel::quantum::QuantumChannel;
        for program in [
            QuantumChannel::default().compile(),
            brisbane(0),
            brisbane(10),
            brisbane(50),
        ] {
            for transmitted in [false, true] {
                let tables = CheckTables::new(&program);
                let mut pairs = program_pairs(&program, 300, transmitted);
                // Every third pair is touched, so it takes the kernel.
                for pair in pairs.iter_mut().step_by(3) {
                    pair.apply_alice_pauli(Pauli::I);
                }
                assert_table_path_matches_the_kernel(&mut pairs, &tables);
                let built = if transmitted {
                    &tables.transmitted
                } else {
                    &tables.emitted
                };
                assert!(built.get().is_some(), "the table path ran");
            }
        }
    }

    #[test]
    fn pairs_another_program_tagged_take_the_kernel() {
        // Same spec, different program: its tag proves nothing here.
        let (a, b) = (brisbane(10), brisbane(10));
        let tables = CheckTables::new(&b);
        for transmitted in [false, true] {
            let mut pairs = program_pairs(&a, 200, transmitted);
            assert_table_path_matches_the_kernel(&mut pairs, &tables);
            assert!(pairs.iter().all(|pair| a.exact_state_of(pair).is_none()));
        }
        assert!(tables.emitted.get().is_none() && tables.transmitted.get().is_none());
    }

    #[test]
    fn noisy_but_entangled_pairs_still_pass() {
        // Mild depolarizing noise (short channel) keeps S above 2.
        let mut pairs = ideal_pairs(400);
        for pair in &mut pairs {
            noise::KrausChannel::depolarizing(0.05).apply(pair.density_mut(), &[0]);
        }
        let (report, _) = run_di_check(DiCheckRound::Second, &mut pairs, 2.0, &mut rng());
        assert!(report.passed, "{report}");
        assert!(report.chsh.unwrap() > 2.0);
        assert!(report.chsh.unwrap() < qsim::chsh::TSIRELSON_BOUND + 0.3);
    }
}
