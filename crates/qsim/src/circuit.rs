//! A small quantum-circuit IR.
//!
//! The paper models both communicating parties inside a single circuit (Fig. 2's experiments
//! are one circuit per message value: prepare `|Φ+⟩`, encode, push Alice's qubit through η
//! identity gates, Bell-measure). [`Circuit`] is the corresponding IR: an ordered list of
//! [`Operation`]s over a fixed register, built with [`CircuitBuilder`], executable on the
//! statevector back-end directly or on the density-matrix back-end through the noisy executor
//! in the `noise` crate.

use crate::counts::Counts;
use crate::error::QsimError;
use crate::gates;
use crate::statevector::StateVector;
use mathkit::matrix::CMatrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One element of a circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operation {
    /// A unitary gate on one or more qubits.
    Gate {
        /// Human-readable gate name (`"h"`, `"cx"`, `"id"`, …).
        name: String,
        /// The unitary matrix (dimension `2^k` for `k` target qubits).
        matrix: CMatrix,
        /// Target qubits, most significant first.
        qubits: Vec<usize>,
    },
    /// A computational-basis measurement of one qubit into one classical bit.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Classical bit receiving the outcome.
        clbit: usize,
    },
    /// A barrier — semantically a no-op, used to delimit protocol phases in rendered circuits.
    Barrier,
    /// Resets a qubit to `|0⟩` (measure and conditionally flip).
    Reset {
        /// The qubit to reset.
        qubit: usize,
    },
}

impl Operation {
    /// The qubits this operation touches.
    pub(crate) fn qubits(&self) -> Vec<usize> {
        match self {
            Operation::Gate { qubits, .. } => qubits.clone(),
            Operation::Measure { qubit, .. } | Operation::Reset { qubit } => vec![*qubit],
            Operation::Barrier => Vec::new(),
        }
    }

    /// Returns `true` for unitary gate operations.
    pub(crate) fn is_gate(&self) -> bool {
        matches!(self, Operation::Gate { .. })
    }
}

/// An ordered list of operations over a fixed-width quantum and classical register.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    operations: Vec<Operation>,
}

impl Circuit {
    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits in the register.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The operations in program order.
    pub fn operations(&self) -> &[Operation] {
        &self.operations
    }

    /// Number of unitary gate operations (barriers, measurements and resets excluded).
    pub fn gate_count(&self) -> usize {
        self.operations.iter().filter(|op| op.is_gate()).count()
    }

    /// Circuit depth: the length of the longest chain of operations acting on any single
    /// qubit (barriers excluded).
    pub(crate) fn depth(&self) -> usize {
        let mut per_qubit = vec![0usize; self.num_qubits];
        for op in &self.operations {
            let qs = op.qubits();
            if qs.is_empty() {
                continue;
            }
            let level = qs.iter().map(|&q| per_qubit[q]).max().unwrap_or(0) + 1;
            for q in qs {
                per_qubit[q] = level;
            }
        }
        per_qubit.into_iter().max().unwrap_or(0)
    }

    /// Executes the circuit once on the statevector back-end.
    ///
    /// Returns the final state and the classical register (bit `i` of the vector is classical
    /// bit `i`; unmeasured bits stay 0).
    ///
    /// # Errors
    ///
    /// Returns an error if any operation references a qubit outside the register or a gate
    /// matrix has the wrong dimension.
    pub(crate) fn run_statevector<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(StateVector, Vec<u8>), QsimError> {
        let mut state = StateVector::new(self.num_qubits);
        let mut clbits = vec![0u8; self.num_clbits];
        for op in &self.operations {
            match op {
                Operation::Gate { matrix, qubits, .. } => {
                    state.try_apply_unitary(matrix, qubits)?;
                }
                Operation::Measure { qubit, clbit } => {
                    if *qubit >= self.num_qubits {
                        return Err(QsimError::QubitOutOfRange {
                            qubit: *qubit,
                            num_qubits: self.num_qubits,
                        });
                    }
                    let bit = state.measure(*qubit, rng);
                    if *clbit < clbits.len() {
                        clbits[*clbit] = bit;
                    }
                }
                Operation::Barrier => {}
                Operation::Reset { qubit } => {
                    let bit = state.measure(*qubit, rng);
                    if bit == 1 {
                        state.apply_single(&gates::pauli_x(), *qubit);
                    }
                }
            }
        }
        Ok((state, clbits))
    }

    /// Executes the circuit `shots` times and histograms the classical register.
    ///
    /// The classical register is rendered most-significant-bit-first (clbit 0 leftmost), the
    /// same convention as the statevector bitstrings.
    ///
    /// # Errors
    ///
    /// Propagates the first execution error encountered.
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Result<Counts, QsimError> {
        let mut counts = Counts::new();
        for _ in 0..shots {
            let (_, clbits) = self.run_statevector(rng)?;
            let label: String = clbits
                .iter()
                .map(|b| if *b == 1 { '1' } else { '0' })
                .collect();
            counts.record(label);
        }
        Ok(counts)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit: {} qubits, {} clbits, {} ops (depth {})",
            self.num_qubits,
            self.num_clbits,
            self.operations.len(),
            self.depth()
        )?;
        for op in &self.operations {
            match op {
                Operation::Gate { name, qubits, .. } => writeln!(f, "  {name} {qubits:?}")?,
                Operation::Measure { qubit, clbit } => {
                    writeln!(f, "  measure q{qubit} -> c{clbit}")?
                }
                Operation::Barrier => writeln!(f, "  barrier")?,
                Operation::Reset { qubit } => writeln!(f, "  reset q{qubit}")?,
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Circuit`].
///
/// # Examples
///
/// ```rust
/// use qsim::circuit::CircuitBuilder;
/// use rand::SeedableRng;
///
/// let circuit = CircuitBuilder::new(2, 2)
///     .h(0)
///     .cnot(0, 1)
///     .measure(0, 0)
///     .measure(1, 1)
///     .build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let counts = circuit.sample(128, &mut rng).unwrap();
/// assert_eq!(counts.get("01") + counts.get("10"), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    num_qubits: usize,
    num_clbits: usize,
    operations: Vec<Operation>,
}

impl CircuitBuilder {
    /// Starts a builder for a circuit over `num_qubits` qubits and `num_clbits` classical bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        assert!(num_qubits > 0, "circuit must have at least one qubit");
        Self {
            num_qubits,
            num_clbits,
            operations: Vec::new(),
        }
    }

    /// Appends an arbitrary unitary gate.
    pub fn unitary<S: Into<String>>(mut self, name: S, matrix: CMatrix, qubits: &[usize]) -> Self {
        self.operations.push(Operation::Gate {
            name: name.into(),
            matrix,
            qubits: qubits.to_vec(),
        });
        self
    }

    /// Appends an identity gate (the channel element of the paper's emulation).
    pub(crate) fn id(self, qubit: usize) -> Self {
        self.unitary("id", gates::identity(), &[qubit])
    }

    /// Appends `count` identity gates on `qubit` — the paper's model of a quantum channel of
    /// length `count` (each identity is 60 ns on `ibm_brisbane`).
    pub fn identity_chain(mut self, qubit: usize, count: usize) -> Self {
        for _ in 0..count {
            self = self.id(qubit);
        }
        self
    }

    /// Appends a Hadamard gate.
    pub fn h(self, qubit: usize) -> Self {
        self.unitary("h", gates::hadamard(), &[qubit])
    }

    /// Appends a Pauli-X gate.
    pub fn x(self, qubit: usize) -> Self {
        self.unitary("x", gates::pauli_x(), &[qubit])
    }

    /// Appends a CNOT gate.
    pub fn cnot(self, control: usize, target: usize) -> Self {
        self.unitary("cx", gates::cnot(), &[control, target])
    }

    /// Appends a measurement of `qubit` into `clbit`.
    pub fn measure(mut self, qubit: usize, clbit: usize) -> Self {
        self.operations.push(Operation::Measure { qubit, clbit });
        self
    }

    /// Appends a barrier.
    pub fn barrier(mut self) -> Self {
        self.operations.push(Operation::Barrier);
        self
    }

    /// Appends a reset of `qubit` to `|0⟩`.
    pub fn reset(mut self, qubit: usize) -> Self {
        self.operations.push(Operation::Reset { qubit });
        self
    }

    /// Finalises the circuit.
    pub fn build(self) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            num_clbits: self.num_clbits,
            operations: self.operations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    #[test]
    fn builder_produces_expected_metadata() {
        let c = CircuitBuilder::new(3, 2)
            .h(0)
            .cnot(0, 1)
            .barrier()
            .x(2)
            .measure(0, 0)
            .measure(1, 1)
            .build();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_clbits(), 2);
        assert_eq!(c.gate_count(), 3);
        assert_eq!(c.operations().len(), 6);
        // Depth: q0 has h, cnot, measure = 3; q1 has cnot, measure = 3 (cnot at level 2).
        assert_eq!(c.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubit_circuit_panics() {
        let _ = CircuitBuilder::new(0, 0);
    }

    #[test]
    fn bell_circuit_sampling_is_correlated() {
        let c = CircuitBuilder::new(2, 2)
            .h(0)
            .cnot(0, 1)
            .measure(0, 0)
            .measure(1, 1)
            .build();
        let counts = c.sample(512, &mut rng()).unwrap();
        assert_eq!(counts.total(), 512);
        assert_eq!(counts.get("01"), 0);
        assert_eq!(counts.get("10"), 0);
        assert!(counts.get("00") > 180 && counts.get("11") > 180);
    }

    #[test]
    fn identity_chain_does_not_change_ideal_results() {
        let c = CircuitBuilder::new(2, 2)
            .h(0)
            .cnot(0, 1)
            .identity_chain(0, 100)
            .measure(0, 0)
            .measure(1, 1)
            .build();
        assert_eq!(c.gate_count(), 102);
        let counts = c.sample(64, &mut rng()).unwrap();
        assert_eq!(counts.get("01") + counts.get("10"), 0);
    }

    #[test]
    fn reset_forces_zero() {
        let c = CircuitBuilder::new(1, 1)
            .x(0)
            .reset(0)
            .measure(0, 0)
            .build();
        let counts = c.sample(32, &mut rng()).unwrap();
        assert_eq!(counts.get("0"), 32);
    }

    #[test]
    fn run_statevector_reports_out_of_range_errors() {
        let c = CircuitBuilder::new(1, 1).measure(3, 0).build();
        assert!(matches!(
            c.run_statevector(&mut rng()),
            Err(QsimError::QubitOutOfRange { .. })
        ));
        let c = CircuitBuilder::new(1, 0)
            .unitary("bad", gates::cnot(), &[0])
            .build();
        assert!(matches!(
            c.run_statevector(&mut rng()),
            Err(QsimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn measurement_into_out_of_range_clbit_is_ignored() {
        let c = CircuitBuilder::new(1, 1).x(0).measure(0, 5).build();
        let (_, clbits) = c.run_statevector(&mut rng()).unwrap();
        assert_eq!(clbits, vec![0]);
    }

    #[test]
    fn basis_change_then_measure_matches_direct_basis_measurement() {
        // Measuring |0⟩ in B(π/2) through the circuit should be 50/50.
        let c = CircuitBuilder::new(1, 1)
            .unitary(
                "basis_change",
                gates::basis_change(std::f64::consts::FRAC_PI_2),
                &[0],
            )
            .measure(0, 0)
            .build();
        let counts = c.sample(2000, &mut rng()).unwrap();
        let frac = counts.frequency("0");
        assert!((frac - 0.5).abs() < 0.05);
    }

    #[test]
    fn operation_introspection() {
        let g = Operation::Gate {
            name: "cx".into(),
            matrix: gates::cnot(),
            qubits: vec![0, 1],
        };
        assert!(g.is_gate());
        assert_eq!(g.qubits(), vec![0, 1]);
        assert!(Operation::Barrier.qubits().is_empty());
        assert!(!Operation::Barrier.is_gate());
        assert_eq!(Operation::Reset { qubit: 2 }.qubits(), vec![2]);
    }

    #[test]
    fn display_renders_every_operation_kind() {
        let c = CircuitBuilder::new(2, 1)
            .h(0)
            .barrier()
            .reset(1)
            .measure(0, 0)
            .build();
        let text = c.to_string();
        assert!(text.contains("h"));
        assert!(text.contains("barrier"));
        assert!(text.contains("reset"));
        assert!(text.contains("measure"));
    }

    #[test]
    fn depth_of_empty_circuit_is_zero() {
        let c = CircuitBuilder::new(2, 0).build();
        assert_eq!(c.depth(), 0);
        assert_eq!(c.gate_count(), 0);
    }
}
