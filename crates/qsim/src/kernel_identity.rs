//! Bit-identity of the two-qubit kernels.
//!
//! Every pair kernel (`probability_one`, `collapse`, `measure`,
//! `Pauli::apply_to_density`, `measure_two_in_bases`) and the one-pass
//! `chsh_value` must give the same `f64` bits as the body it replaces, on the
//! same input: the any-size strided body where one is kept for larger
//! registers, else the replaced body itself, copied here as the reference.
//! Each check compares outcomes, every entry of the post-state and the next
//! draw of the RNG. The inputs are random pure and mixed states, `Φ+`, states
//! after the compiled `ibm_brisbane_like` channels, states an intercept
//! measurement collapsed, and states holding `-0.0` entries. The outcome-table
//! path of the pair measurement (probability step, then draw step) is held to
//! the same reference outcomes and next draw.

use crate::chsh::{chsh_value, correlator, MeasurementRecord};
use crate::density::DensityMatrix;
use crate::measurement::{BasisPhase, MeasurementBasis, MeasurementOutcome};
use crate::pauli::Pauli;
use crate::statevector::StateVector;
use mathkit::complex::Complex64;
use mathkit::matrix::CMatrix;
use mathkit::vector::CVector;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
    rho.matrix()
        .as_slice()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn random_pure(rng: &mut StdRng) -> DensityMatrix {
    let amplitudes: Vec<Complex64> = (0..4)
        .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let psi = CVector::new(amplitudes);
    let norm = psi.norm();
    let psi = StateVector::from_amplitudes(psi.scale(Complex64::real(1.0 / norm)))
        .expect("normalised amplitudes");
    DensityMatrix::from_statevector(&psi)
}

fn random_mixed(rng: &mut StdRng) -> DensityMatrix {
    let mut sum = CMatrix::zeros(4, 4);
    let mut weights = [rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()];
    let total: f64 = weights.iter().sum();
    weights.iter_mut().for_each(|w| *w /= total);
    for w in weights {
        let term = random_pure(rng).matrix().scale(Complex64::real(w));
        sum = &sum + &term;
    }
    DensityMatrix::from_matrix(sum).expect("a convex mixture is a density matrix")
}

/// `|00⟩⟨00|` and the diagonal mixture of `|00⟩, |11⟩`, with every zero
/// entry written as `-0.0`.
fn signed_zero_states() -> Vec<DensityMatrix> {
    let neg = Complex64::new(-0.0, -0.0);
    [[1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5]]
        .into_iter()
        .map(|diag| {
            let data = (0..16)
                .map(|at| match diag[at / 4] {
                    d if at % 5 == 0 && d != 0.0 => Complex64::real(d),
                    _ => neg,
                })
                .collect();
            DensityMatrix::from_matrix(CMatrix::new(4, 4, data)).expect("valid state")
        })
        .collect()
}

/// Pairs after the compiled brisbane emission, and after 1, 7, 10 and 50
/// noisy identity gates on top.
fn brisbane_states(rng: &mut StdRng) -> Vec<DensityMatrix> {
    use qchannel::epr::EprPair;
    use qchannel::quantum::{ChannelSpec, QuantumChannel};
    let mut states = Vec::new();
    for eta in [0, 1, 7, 10, 50] {
        let spec = ChannelSpec::noisy_identity_chain(eta, noise::DeviceModel::ibm_brisbane_like());
        let compiled = QuantumChannel::new(spec).compile();
        let mut pair = EprPair::ideal();
        compiled.emit_noisy_pair_into(&mut pair);
        compiled.transmit(&mut pair, rng);
        // `qchannel` links its own build of this crate: carry the state
        // over through the shared `mathkit` matrix, which keeps every bit.
        let state = DensityMatrix::from_matrix(pair.density().matrix().clone())
            .expect("a channel output is a density matrix");
        states.push(state);
    }
    states
}

/// Every input the checks run on: the families above, each state also
/// after an intercept tap's Z measurement of qubit 0 and after a Pauli
/// encoding of that.
fn inputs() -> Vec<DensityMatrix> {
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    let mut states = Vec::new();
    for _ in 0..24 {
        states.push(random_pure(&mut rng));
        states.push(random_mixed(&mut rng));
    }
    states.extend(signed_zero_states());
    states.push(DensityMatrix::from_statevector(
        &crate::bell::BellState::PhiPlus.statevector(),
    ));
    states.extend(brisbane_states(&mut rng));
    let mut collapsed = Vec::new();
    for state in &states {
        let p1 = state.probability_one_strided(0);
        if p1 <= 1e-6 || p1 >= 1.0 - 1e-6 {
            continue;
        }
        for outcome in 0..2u8 {
            let mut tapped = state.clone();
            tapped.collapse_strided(0, outcome);
            collapsed.push(tapped.clone());
            Pauli::IY.apply_to_density_strided(&mut tapped, 1);
            collapsed.push(tapped);
        }
    }
    states.extend(collapsed);
    states
}

/// Runs `body`, turning a panic into its message.
fn caught<T>(body: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).map_err(|payload| {
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    })
}

/// An RNG whose first `gen::<f64>()` draws are scripted: an entry `k`
/// makes the draw exactly `k / 2^53`. After the script it continues a
/// seeded stream, so the "next draw" comparison still sees real bits.
struct ScriptedRng {
    script: Vec<u64>,
    rest: StdRng,
}

impl ScriptedRng {
    fn new(script: &[u64]) -> Self {
        let mut script = script.to_vec();
        script.reverse();
        Self {
            script,
            rest: StdRng::seed_from_u64(0x7363_7269),
        }
    }
}

impl RngCore for ScriptedRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        match self.script.pop() {
            Some(k) => k << 11,
            None => self.rest.next_u64(),
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
}

/// The two draws on either side of the threshold `p` of a `draw < p`
/// outcome: `k − 1` (outcome 1) and `k` (outcome 0), where `k / 2^53` is the
/// first draw at or above `p`. A draw is a multiple of `2^-53`, so two
/// thresholds that no draw can tell apart give the same outcomes for every
/// draw, and two that some draw can tell apart are told apart by these.
fn draws_around(p: f64) -> Vec<u64> {
    let k = (p * (1u64 << 53) as f64).ceil() as u64;
    [k.checked_sub(1), Some(k).filter(|&k| k < 1 << 53)]
        .into_iter()
        .flatten()
        .collect()
}

#[test]
fn probability_one_pair_body_matches_the_strided_body() {
    for state in inputs() {
        for qubit in 0..2 {
            assert_eq!(
                state.probability_one(qubit).to_bits(),
                state.probability_one_strided(qubit).to_bits(),
                "qubit {qubit}"
            );
        }
    }
}

#[test]
fn collapse_pair_body_matches_the_strided_body() {
    for state in inputs() {
        for qubit in 0..2 {
            for outcome in 0..2u8 {
                let mut fast = state.clone();
                let mut strided = state.clone();
                let fast_run = caught(|| fast.collapse(qubit, outcome));
                let strided_run = caught(|| strided.collapse_strided(qubit, outcome));
                assert_eq!(fast_run, strided_run, "qubit {qubit}, outcome {outcome}");
                if fast_run.is_ok() {
                    assert_eq!(
                        bits(&fast),
                        bits(&strided),
                        "qubit {qubit}, outcome {outcome}"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_probability_collapse_panics_by_name_on_both_bodies() {
    let mut checked = 0;
    for state in signed_zero_states() {
        for qubit in 0..2 {
            let expected =
                format!("collapse onto a zero-probability outcome (qubit {qubit}, outcome 1)");
            if state.probability_one_strided(qubit) > 0.0 {
                continue;
            }
            let mut fast = state.clone();
            let mut strided = state.clone();
            assert_eq!(caught(|| fast.collapse(qubit, 1)), Err(expected.clone()));
            assert_eq!(caught(|| strided.collapse_strided(qubit, 1)), Err(expected));
            checked += 1;
        }
    }
    assert_eq!(
        checked, 2,
        "|00⟩ has no weight on outcome 1 of either qubit"
    );
}

#[test]
fn measure_pair_body_matches_the_strided_body() {
    for state in inputs() {
        for qubit in 0..2 {
            // `measure` on a register of three or more qubits.
            let p1 = state.probability_one_strided(qubit).clamp(0.0, 1.0);
            for draw in draws_around(p1) {
                let mut fast_rng = ScriptedRng::new(&[draw]);
                let mut strided_rng = ScriptedRng::new(&[draw]);
                let mut fast = state.clone();
                let mut strided = state.clone();
                let fast_bit = caught(|| fast.measure(qubit, &mut fast_rng));
                let strided_bit = caught(|| {
                    let bit = u8::from(strided_rng.gen::<f64>() < p1);
                    strided.collapse_strided(qubit, bit);
                    bit
                });
                assert_eq!(fast_bit, strided_bit, "qubit {qubit}, draw {draw}");
                assert_eq!(bits(&fast), bits(&strided));
                assert_eq!(fast_rng.next_u64(), strided_rng.next_u64());
            }
        }
    }
}

#[test]
fn pauli_pair_body_matches_the_strided_body() {
    for state in inputs() {
        for pauli in Pauli::ALL {
            for qubit in 0..2 {
                let mut fast = state.clone();
                let mut strided = state.clone();
                pauli.apply_to_density(&mut fast, qubit);
                pauli.apply_to_density_strided(&mut strided, qubit);
                assert_eq!(bits(&fast), bits(&strided), "{pauli:?} on qubit {qubit}");
            }
        }
    }
}

/// The two-basis measurement as it was before the phases were hoisted and
/// the strides fixed: runtime strides, `cis` per call.
fn measure_two_in_bases_reference<R: Rng + ?Sized>(
    state: &mut DensityMatrix,
    qubit_a: usize,
    theta_a: f64,
    qubit_b: usize,
    theta_b: f64,
    rng: &mut R,
    thresholds: &mut Vec<f64>,
) -> (u8, u8) {
    let stride_a = 1usize << (1 - qubit_a);
    let stride_b = 1usize << (1 - qubit_b);
    let dim = 4;
    let idx = |x: usize, y: usize| x * stride_a + y * stride_b;
    let e_a = Complex64::cis(theta_a);
    let e_b = Complex64::cis(theta_b);
    let mut rho = state.matrix().as_slice().to_vec();
    let trace = rho[0].re + rho[5].re + rho[10].re + rho[15].re;
    let t_a = rho[idx(1, 0) * dim + idx(0, 0)] + rho[idx(1, 1) * dim + idx(0, 1)];
    let cross_a = (e_a.conj() * t_a).re;
    let p_a1 = (0.5 * trace - cross_a).clamp(0.0, 1.0);
    thresholds.push(p_a1);
    let bit_a = u8::from(rng.gen::<f64>() < p_a1);
    let p_a = if bit_a == 1 { p_a1 } else { 1.0 - p_a1 };
    assert!(
        p_a > 1e-12,
        "collapse onto a zero-probability outcome (qubit {qubit_a}, outcome {bit_a})"
    );
    let amp = |x: usize, s: f64, e: Complex64| -> Complex64 {
        if x == 0 {
            Complex64::real(std::f64::consts::FRAC_1_SQRT_2)
        } else {
            e * (s * std::f64::consts::FRAC_1_SQRT_2)
        }
    };
    let s_a = if bit_a == 0 { 1.0 } else { -1.0 };
    let mut psi = [Complex64::ZERO; 4];
    for x in 0..2 {
        let va = amp(x, s_a, e_a);
        for y in 0..2 {
            psi[idx(x, y)] = va * amp(y, -1.0, e_b);
        }
    }
    let mut cross = 0.0;
    for r in 0..4 {
        for c in (r + 1)..4 {
            cross += (psi[r].conj() * rho[r * dim + c] * psi[c]).re;
        }
    }
    let joint = 0.25 * trace + 2.0 * cross;
    let p_b1 = (joint / p_a).clamp(0.0, 1.0);
    thresholds.push(p_b1);
    let bit_b = u8::from(rng.gen::<f64>() < p_b1);
    let p_b = if bit_b == 1 { p_b1 } else { 1.0 - p_b1 };
    assert!(
        p_b > 1e-12,
        "collapse onto a zero-probability outcome (qubit {qubit_b}, outcome {bit_b})"
    );
    if bit_b == 0 {
        for x in 0..2 {
            psi[idx(x, 1)] = -psi[idx(x, 1)];
        }
    }
    for (r, amp_r) in psi.iter().enumerate() {
        for (c, amp_c) in psi.iter().enumerate() {
            rho[r * dim + c] = *amp_r * amp_c.conj();
        }
    }
    *state = DensityMatrix::from_matrix(CMatrix::new(4, 4, rho)).expect("a pure product state");
    (bit_a, bit_b)
}

/// Also holds the outcome-table path to the same reference: the probability
/// step once per state and bases, then the draw step per script.
#[test]
fn measure_two_in_bases_matches_the_per_call_body() {
    let mut angles: Vec<f64> = MeasurementBasis::alice_all()
        .into_iter()
        .chain(MeasurementBasis::bob_all())
        .map(|basis| basis.angle())
        .collect();
    let mut angle_rng = StdRng::seed_from_u64(0x616e_676c);
    angles.extend((0..3).map(|_| angle_rng.gen_range(-4.0..4.0)));
    let mut checked = 0;
    for state in inputs() {
        for &theta_a in &angles {
            for &theta_b in &angles {
                for (qubit_a, qubit_b) in [(0, 1), (1, 0)] {
                    let (basis_a, basis_b) = (BasisPhase::new(theta_a), BasisPhase::new(theta_b));
                    // Runs the reference on `script`, returning its outcome,
                    // post-state, next draw and the thresholds it compared.
                    let reference = |script: &[u64]| {
                        let mut rng = ScriptedRng::new(script);
                        let mut state = state.clone();
                        let mut thresholds = Vec::new();
                        let outcome = caught(|| {
                            measure_two_in_bases_reference(
                                &mut state,
                                qubit_a,
                                theta_a,
                                qubit_b,
                                theta_b,
                                &mut rng,
                                &mut thresholds,
                            )
                        });
                        (outcome, bits(&state), rng.next_u64(), thresholds)
                    };
                    let fast = |script: &[u64]| {
                        let mut rng = ScriptedRng::new(script);
                        let mut state = state.clone();
                        let outcome = caught(|| {
                            let (a, b) = state
                                .measure_two_in_bases(qubit_a, basis_a, qubit_b, basis_b, &mut rng);
                            (a.to_bit(), b.to_bit())
                        });
                        (outcome, bits(&state), rng.next_u64())
                    };
                    let table =
                        state.pair_probabilities_in_bases(qubit_a, basis_a, qubit_b, basis_b);
                    let drawn = |script: &[u64]| {
                        let mut rng = ScriptedRng::new(script);
                        let outcome = caught(|| {
                            let (a, b) = table.draw(&mut rng);
                            (a.to_bit(), b.to_bit())
                        });
                        (outcome, rng.next_u64())
                    };
                    // Alice's draw on either side of her threshold, then
                    // Bob's on either side of his conditional one.
                    let mut scripts = Vec::new();
                    for draw_a in draws_around(reference(&[]).3[0]) {
                        scripts.push(vec![draw_a]);
                        if let Some(&p_b1) = reference(&[draw_a]).3.get(1) {
                            for draw_b in draws_around(p_b1) {
                                scripts.push(vec![draw_a, draw_b]);
                            }
                        }
                    }
                    for script in scripts {
                        let (outcome, post, next, _) = reference(&script);
                        let context = format!(
                            "θ_a {theta_a}, θ_b {theta_b}, qubits ({qubit_a}, {qubit_b}), \
                             draws {script:?}"
                        );
                        assert_eq!(drawn(&script), (outcome.clone(), next), "table: {context}");
                        assert_eq!(fast(&script), (outcome, post, next), "{context}");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 0);
}

/// `chsh_value` as it was: one filtered `correlator` pass per count and per
/// sum, for each of the four setting pairs.
fn chsh_value_reference(records: &[MeasurementRecord]) -> Option<f64> {
    let e = |j: usize, k: usize| {
        let matching = || {
            records
                .iter()
                .filter(move |r| r.alice_setting == j && r.bob_setting == k)
        };
        match matching().count() {
            0 => None,
            count => Some(matching().map(MeasurementRecord::product).sum::<f64>() / count as f64),
        }
    };
    Some(e(1, 1)? + e(1, 2)? + e(2, 1)? - e(2, 2)?)
}

#[test]
fn one_pass_chsh_value_matches_the_per_setting_passes() {
    let mut rng = StdRng::seed_from_u64(0x6368_7368);
    let outcome = |rng: &mut StdRng| MeasurementOutcome::from_bit(u8::from(rng.gen::<bool>()));
    for len in [0, 1, 3, 4, 7, 16, 64, 257] {
        for _ in 0..8 {
            let records: Vec<MeasurementRecord> = (0..len)
                .map(|_| {
                    MeasurementRecord::new(
                        rng.gen_range(0..3usize),
                        rng.gen_range(1..=2usize),
                        outcome(&mut rng),
                        outcome(&mut rng),
                    )
                })
                .collect();
            assert_eq!(
                chsh_value(&records).map(f64::to_bits),
                chsh_value_reference(&records).map(f64::to_bits),
                "{len} records"
            );
            for (j, k) in [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2)] {
                let reference = {
                    let matching: Vec<f64> = records
                        .iter()
                        .filter(|r| r.alice_setting == j && r.bob_setting == k)
                        .map(MeasurementRecord::product)
                        .collect();
                    (!matching.is_empty())
                        .then(|| matching.iter().sum::<f64>() / matching.len() as f64)
                };
                assert_eq!(
                    correlator(&records, j, k).map(f64::to_bits),
                    reference.map(f64::to_bits)
                );
            }
        }
    }
}

/// `(1 − ε)|+⟩⟨+| + ε|−⟩⟨−|` on one qubit, `|+⟩⟨+|` on the other: in the
/// `θ = 0` basis the mixed qubit reads `1` with probability `ε`.
fn nearly_plus_states(epsilon: f64) -> Vec<DensityMatrix> {
    let plus = StateVector::from_amplitudes(CVector::new(vec![
        Complex64::real(std::f64::consts::FRAC_1_SQRT_2),
        Complex64::real(std::f64::consts::FRAC_1_SQRT_2),
    ]))
    .expect("normalised");
    let plus = DensityMatrix::from_statevector(&plus);
    let mut mixed = plus.clone();
    mixed.apply_single(&crate::gates::pauli_z(), 0);
    let mixed = &plus.matrix().scale(Complex64::real(1.0 - epsilon))
        + &mixed.matrix().scale(Complex64::real(epsilon));
    let mixed = DensityMatrix::from_matrix(mixed).expect("a mixture of two states");
    vec![mixed.tensor(&plus), plus.tensor(&mixed)]
}

#[test]
fn zero_probability_draw_panics_by_name_on_both_paths() {
    let basis = BasisPhase::new(0.0);
    let mut checked = 0;
    // The nearly-|−⟩ qubit is qubit `noisy`; measured first its outcome 1
    // is Alice's, measured second Bob's, and either way a draw of 0 picks it.
    for (noisy, state) in nearly_plus_states(1e-13).into_iter().enumerate() {
        for (qubit_a, qubit_b) in [(0, 1), (1, 0)] {
            let script: &[u64] = if qubit_a == noisy {
                &[0]
            } else {
                &[1 << 52, 0]
            };
            let expected =
                format!("collapse onto a zero-probability outcome (qubit {noisy}, outcome 1)");
            let mut kernel_state = state.clone();
            let kernel = caught(|| {
                kernel_state.measure_two_in_bases(
                    qubit_a,
                    basis,
                    qubit_b,
                    basis,
                    &mut ScriptedRng::new(script),
                )
            });
            let table = state.pair_probabilities_in_bases(qubit_a, basis, qubit_b, basis);
            let drawn = caught(|| table.draw(&mut ScriptedRng::new(script)));
            assert_eq!(kernel.map(|_| ()), Err(expected.clone()));
            assert_eq!(drawn.map(|_| ()), Err(expected));
            checked += 1;
        }
    }
    assert_eq!(checked, 4);
}
