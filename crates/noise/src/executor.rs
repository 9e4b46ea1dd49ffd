//! Noisy circuit execution.
//!
//! [`NoisyExecutor`] runs a [`qsim::Circuit`] on the density-matrix back-end, inserting the
//! device's noise channel after every gate, optionally applying thermal relaxation to idle
//! spectator qubits, corrupting measured bits with the readout error, and starting from a
//! state-preparation-error-corrupted `|0…0⟩`.

use crate::compiled::CompiledChannel;
use crate::device::DeviceModel;
use qsim::circuit::{Circuit, Operation};
use qsim::counts::Counts;
use qsim::density::DensityMatrix;
use qsim::error::QsimError;
use qsim::gates;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The device's noise channels compiled against one register size, built
/// lazily as gates touch placements. A circuit applies the same few
/// channels at the same few placements thousands of times; deriving the
/// Kraus operators from calibration numbers and embedding them anew per
/// gate dominated execution, so each placement is compiled on first use
/// and replayed from then on (bit-identically — see [`KrausChannel::compile`]).
///
/// [`KrausChannel::compile`]: crate::kraus::KrausChannel::compile
struct NoiseCache {
    num_qubits: usize,
    /// Single-qubit placements, indexed by qubit: state prep, the generic
    /// single-qubit gate channel, the identity-gate channel, and the three
    /// idle durations the executor uses (spectator of a single-qubit gate,
    /// of an identity gate, and of / participant in a two-qubit gate).
    prep: Vec<Option<CompiledChannel>>,
    single: Vec<Option<CompiledChannel>>,
    identity: Vec<Option<CompiledChannel>>,
    idle_single: Vec<Option<CompiledChannel>>,
    idle_identity: Vec<Option<CompiledChannel>>,
    idle_two: Vec<Option<CompiledChannel>>,
    /// Two-qubit gate channel per ordered target pair.
    two_qubit: BTreeMap<(usize, usize), CompiledChannel>,
}

impl NoiseCache {
    fn new(num_qubits: usize) -> Self {
        let empty = || (0..num_qubits).map(|_| None).collect();
        Self {
            num_qubits,
            prep: empty(),
            single: empty(),
            identity: empty(),
            idle_single: empty(),
            idle_identity: empty(),
            idle_two: empty(),
            two_qubit: BTreeMap::new(),
        }
    }

    fn single_qubit(
        slots: &mut [Option<CompiledChannel>],
        qubit: usize,
        num_qubits: usize,
        build: impl FnOnce() -> crate::kraus::KrausChannel,
    ) -> &CompiledChannel {
        slots[qubit].get_or_insert_with(|| build().compile(&[qubit], num_qubits))
    }

    fn two_qubit(&mut self, device: &DeviceModel, a: usize, b: usize) -> &CompiledChannel {
        let num_qubits = self.num_qubits;
        self.two_qubit
            .entry((a, b))
            .or_insert_with(|| device.two_qubit_gate_channel().compile(&[a, b], num_qubits))
    }
}

/// Runs circuits under a device noise model.
///
/// # Examples
///
/// ```rust
/// use noise::device::DeviceModel;
/// use noise::NoisyExecutor;
/// use qsim::circuit::CircuitBuilder;
/// use rand::SeedableRng;
///
/// let circuit = CircuitBuilder::new(1, 1).x(0).measure(0, 0).build();
/// let executor = NoisyExecutor::new(DeviceModel::ideal());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let counts = executor.sample(&circuit, 100, &mut rng).unwrap();
/// assert_eq!(counts.get("1"), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoisyExecutor {
    device: DeviceModel,
}

impl NoisyExecutor {
    /// Creates an executor for the given device model.
    pub fn new(device: DeviceModel) -> Self {
        Self { device }
    }

    /// The device model this executor simulates.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Evolves the quantum part of the circuit (gates, barriers — everything up to the first
    /// measurement or reset) and returns the resulting density matrix together with the index
    /// of the first unprocessed operation.
    ///
    /// # Errors
    ///
    /// Propagates dimension / qubit-range errors from the simulator.
    pub fn evolve_prefix(&self, circuit: &Circuit) -> Result<(DensityMatrix, usize), QsimError> {
        let mut cache = NoiseCache::new(circuit.num_qubits());
        self.evolve_prefix_cached(circuit, &mut cache)
    }

    fn evolve_prefix_cached(
        &self,
        circuit: &Circuit,
        cache: &mut NoiseCache,
    ) -> Result<(DensityMatrix, usize), QsimError> {
        let mut rho = DensityMatrix::new(circuit.num_qubits());
        // State-preparation errors on every qubit.
        if !self.device.is_ideal() {
            for q in 0..circuit.num_qubits() {
                NoiseCache::single_qubit(&mut cache.prep, q, cache.num_qubits, || {
                    self.device.state_prep_channel()
                })
                .apply(&mut rho);
            }
        }
        for (index, op) in circuit.operations().iter().enumerate() {
            match op {
                Operation::Gate {
                    name,
                    matrix,
                    qubits,
                } => {
                    rho.try_apply_unitary(matrix, qubits)?;
                    self.apply_gate_noise(cache, &mut rho, name, qubits, circuit.num_qubits());
                }
                Operation::Barrier => {}
                Operation::Measure { .. } | Operation::Reset { .. } => {
                    return Ok((rho, index));
                }
            }
        }
        Ok((rho, circuit.operations().len()))
    }

    /// Runs the circuit once, returning the final density matrix and the classical register
    /// (readout errors applied).
    ///
    /// # Errors
    ///
    /// Propagates dimension / qubit-range errors from the simulator.
    pub fn run<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> Result<(DensityMatrix, Vec<u8>), QsimError> {
        let mut cache = NoiseCache::new(circuit.num_qubits());
        let (rho, resume_at) = self.evolve_prefix_cached(circuit, &mut cache)?;
        let mut rho = rho;
        let clbits = self.finish(circuit, &mut cache, &mut rho, resume_at, rng)?;
        Ok((rho, clbits))
    }

    /// Executes the circuit `shots` times and histograms the classical register.
    ///
    /// The (deterministic) unitary+noise prefix is evolved once; only the measurement suffix
    /// is re-sampled per shot, which keeps long identity-chain experiments (Fig. 3) cheap.
    ///
    /// # Errors
    ///
    /// Propagates dimension / qubit-range errors from the simulator.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        shots: usize,
        rng: &mut R,
    ) -> Result<Counts, QsimError> {
        let mut cache = NoiseCache::new(circuit.num_qubits());
        let (prefix_rho, resume_at) = self.evolve_prefix_cached(circuit, &mut cache)?;
        let mut counts = Counts::new();
        let mut rho = prefix_rho.clone();
        for _ in 0..shots {
            rho.clone_from(&prefix_rho);
            let clbits = self.finish(circuit, &mut cache, &mut rho, resume_at, rng)?;
            let label: String = clbits
                .iter()
                .map(|b| if *b == 1 { '1' } else { '0' })
                .collect();
            counts.record(label);
        }
        Ok(counts)
    }

    /// Processes the remaining operations (measurements, resets, any trailing gates) of a
    /// circuit starting at operation `resume_at`.
    fn finish<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        cache: &mut NoiseCache,
        rho: &mut DensityMatrix,
        resume_at: usize,
        rng: &mut R,
    ) -> Result<Vec<u8>, QsimError> {
        let mut clbits = vec![0u8; circuit.num_clbits()];
        let readout = self.device.readout();
        for op in &circuit.operations()[resume_at..] {
            match op {
                Operation::Gate {
                    name,
                    matrix,
                    qubits,
                } => {
                    rho.try_apply_unitary(matrix, qubits)?;
                    self.apply_gate_noise(cache, rho, name, qubits, circuit.num_qubits());
                }
                Operation::Barrier => {}
                Operation::Measure { qubit, clbit } => {
                    if *qubit >= circuit.num_qubits() {
                        return Err(QsimError::QubitOutOfRange {
                            qubit: *qubit,
                            num_qubits: circuit.num_qubits(),
                        });
                    }
                    let raw = rho.measure(*qubit, rng);
                    let observed = readout.apply(raw, rng);
                    if *clbit < clbits.len() {
                        clbits[*clbit] = observed;
                    }
                }
                Operation::Reset { qubit } => {
                    let bit = rho.measure(*qubit, rng);
                    if bit == 1 {
                        rho.apply_single(&gates::pauli_x(), *qubit);
                    }
                }
            }
        }
        Ok(clbits)
    }

    /// Applies the device's post-gate noise: the gate-class channel on the targets and, when
    /// enabled, thermal relaxation on every idle spectator qubit for the gate duration.
    /// Every placement comes from the cache, compiled on first touch.
    fn apply_gate_noise(
        &self,
        cache: &mut NoiseCache,
        rho: &mut DensityMatrix,
        gate_name: &str,
        qubits: &[usize],
        num_qubits: usize,
    ) {
        if self.device.is_ideal() {
            return;
        }
        let is_identity = gate_name == "id";
        if qubits.len() >= 2 {
            if let [a, b] = *qubits {
                cache.two_qubit(&self.device, a, b).apply(rho);
            } else {
                // No library gate has arity > 2; preserve the one-shot
                // path's arity panic rather than mis-compiling a placement.
                self.device.two_qubit_gate_channel().apply(rho, qubits);
            }
            // Thermal relaxation on the participating qubits for the (long) 2-qubit gate.
            for &q in qubits {
                NoiseCache::single_qubit(&mut cache.idle_two, q, num_qubits, || {
                    self.device
                        .idle_channel(self.device.gate_duration_ns(2, false))
                })
                .apply(rho);
            }
        } else if is_identity {
            NoiseCache::single_qubit(&mut cache.identity, qubits[0], num_qubits, || {
                self.device.identity_gate_channel()
            })
            .apply(rho);
        } else {
            NoiseCache::single_qubit(&mut cache.single, qubits[0], num_qubits, || {
                self.device.single_qubit_gate_channel()
            })
            .apply(rho);
        }
        if self.device.idle_partner_noise() {
            let slots = match (qubits.len(), is_identity) {
                (1, true) => &mut cache.idle_identity,
                (1, false) => &mut cache.idle_single,
                _ => &mut cache.idle_two,
            };
            for q in 0..num_qubits {
                if !qubits.contains(&q) {
                    NoiseCache::single_qubit(slots, q, num_qubits, || {
                        self.device
                            .idle_channel(self.device.gate_duration_ns(qubits.len(), is_identity))
                    })
                    .apply(rho);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::bell::BellState;
    use qsim::circuit::CircuitBuilder;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    fn bell_circuit(eta: usize) -> Circuit {
        CircuitBuilder::new(2, 2)
            .h(0)
            .cnot(0, 1)
            .identity_chain(0, eta)
            .measure(0, 0)
            .measure(1, 1)
            .build()
    }

    #[test]
    fn ideal_executor_matches_noiseless_statistics() {
        let executor = NoisyExecutor::new(DeviceModel::ideal());
        let counts = executor.sample(&bell_circuit(10), 400, &mut rng()).unwrap();
        assert_eq!(counts.get("01") + counts.get("10"), 0);
        assert_eq!(counts.total(), 400);
    }

    #[test]
    fn noisy_executor_reduces_but_does_not_destroy_correlations_at_eta_10() {
        let executor = NoisyExecutor::new(DeviceModel::ibm_brisbane_like());
        let counts = executor
            .sample(&bell_circuit(10), 1024, &mut rng())
            .unwrap();
        let correlated = counts.get("00") + counts.get("11");
        let frac = correlated as f64 / counts.total() as f64;
        assert!(
            frac > 0.9,
            "short channel should stay highly correlated, got {frac}"
        );
        assert!(frac < 1.0, "noise must show up somewhere over 1024 shots");
    }

    #[test]
    fn long_identity_chain_degrades_correlations() {
        let executor = NoisyExecutor::new(DeviceModel::ibm_brisbane_like());
        let short = executor.sample(&bell_circuit(10), 512, &mut rng()).unwrap();
        let long = executor
            .sample(&bell_circuit(700), 512, &mut rng())
            .unwrap();
        let frac = |c: &Counts| (c.get("00") + c.get("11")) as f64 / c.total() as f64;
        assert!(
            frac(&long) < frac(&short),
            "correlation must degrade with channel length: short {} vs long {}",
            frac(&short),
            frac(&long)
        );
    }

    #[test]
    fn run_returns_density_matrix_and_bits() {
        let executor = NoisyExecutor::new(DeviceModel::ibm_brisbane_like());
        let (rho, bits) = executor.run(&bell_circuit(10), &mut rng()).unwrap();
        assert_eq!(bits.len(), 2);
        assert!((rho.trace() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn evolve_prefix_stops_at_first_measurement() {
        let executor = NoisyExecutor::new(DeviceModel::ideal());
        let circuit = bell_circuit(5);
        let (rho, resume) = executor.evolve_prefix(&circuit).unwrap();
        // 2 preparation gates + 5 identity gates come before the first measurement.
        assert_eq!(resume, 7);
        let bell = BellState::PhiPlus.statevector();
        assert!((rho.fidelity_with_pure(&bell) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn readout_errors_show_up_even_without_gate_noise() {
        let device =
            DeviceModel::ideal().with_readout(crate::readout::ReadoutError::symmetric(0.25));
        let executor = NoisyExecutor::new(device);
        let circuit = CircuitBuilder::new(1, 1).measure(0, 0).build();
        let counts = executor.sample(&circuit, 2000, &mut rng()).unwrap();
        let frac_one = counts.frequency("1");
        assert!((frac_one - 0.25).abs() < 0.04, "got {frac_one}");
    }

    #[test]
    fn state_prep_error_flips_initial_qubits() {
        let device = DeviceModel::ideal().with_state_prep_error(0.3);
        let executor = NoisyExecutor::new(device);
        let circuit = CircuitBuilder::new(1, 1).measure(0, 0).build();
        let counts = executor.sample(&circuit, 2000, &mut rng()).unwrap();
        let frac_one = counts.frequency("1");
        assert!((frac_one - 0.3).abs() < 0.05, "got {frac_one}");
    }

    #[test]
    fn reset_and_trailing_gates_after_measurement_are_processed() {
        let executor = NoisyExecutor::new(DeviceModel::ideal());
        let circuit = CircuitBuilder::new(1, 2)
            .x(0)
            .measure(0, 0)
            .reset(0)
            .x(0)
            .measure(0, 1)
            .build();
        let (_, bits) = executor.run(&circuit, &mut rng()).unwrap();
        assert_eq!(bits, vec![1, 1]);
    }

    #[test]
    fn errors_propagate_from_bad_circuits() {
        let executor = NoisyExecutor::new(DeviceModel::ideal());
        let bad = CircuitBuilder::new(1, 1).measure(4, 0).build();
        assert!(executor.run(&bad, &mut rng()).is_err());
        let bad_gate = CircuitBuilder::new(1, 0)
            .unitary("cx", gates::cnot(), &[0])
            .build();
        assert!(executor.sample(&bad_gate, 4, &mut rng()).is_err());
    }

    #[test]
    fn device_accessor_returns_the_model() {
        let executor = NoisyExecutor::new(DeviceModel::ibm_brisbane_like());
        assert_eq!(executor.device().name(), "ibm_brisbane_like");
    }
}
