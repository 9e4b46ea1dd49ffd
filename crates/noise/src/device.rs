//! NISQ device models.
//!
//! A [`DeviceModel`] bundles the calibration numbers the paper quotes for `ibm_brisbane`
//! (gate durations, gate errors, T1/T2, readout error) and turns them into per-operation
//! [`KrausChannel`]s that the noisy executor inserts after every gate.

use crate::kraus::KrausChannel;
use crate::readout::ReadoutError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A bundle of device calibration data sufficient to build a noise model.
///
/// # Examples
///
/// ```rust
/// use noise::device::DeviceModel;
///
/// let device = DeviceModel::ibm_brisbane_like();
/// assert_eq!(device.identity_gate_time_ns(), 60.0);
/// let channel = device.identity_gate_channel();
/// assert!(channel.is_trace_preserving(1e-9));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    name: String,
    identity_gate_time_ns: f64,
    single_qubit_gate_time_ns: f64,
    two_qubit_gate_time_ns: f64,
    identity_gate_error: f64,
    single_qubit_gate_error: f64,
    two_qubit_gate_error: f64,
    t1_us: f64,
    t2_us: f64,
    readout: ReadoutError,
    state_prep_error: f64,
    idle_partner_noise: bool,
}

impl DeviceModel {
    /// A perfect, noiseless device (useful as the "ideal simulation" reference the paper
    /// compares fidelities against).
    pub fn ideal() -> Self {
        Self {
            name: "ideal".into(),
            identity_gate_time_ns: 60.0,
            single_qubit_gate_time_ns: 60.0,
            two_qubit_gate_time_ns: 660.0,
            identity_gate_error: 0.0,
            single_qubit_gate_error: 0.0,
            two_qubit_gate_error: 0.0,
            t1_us: f64::INFINITY,
            t2_us: f64::INFINITY,
            readout: ReadoutError::ideal(),
            state_prep_error: 0.0,
            idle_partner_noise: false,
        }
    }

    /// A noise model calibrated to the numbers the paper reports for `ibm_brisbane`
    /// (127-qubit Eagle r3):
    ///
    /// - identity gate: 60 ns, error 2.41 × 10⁻⁴,
    /// - median T1 = 233.04 µs, median T2 = 145.75 µs,
    /// - readout assignment error ≈ 1.3 % (typical Eagle median),
    /// - two-qubit (ECR) gates ≈ 660 ns with ≈ 7.5 × 10⁻³ error (consistent with the quoted
    ///   4.5 % error per layered gate over a 100-qubit chain),
    /// - small state-preparation error.
    pub fn ibm_brisbane_like() -> Self {
        Self {
            name: "ibm_brisbane_like".into(),
            identity_gate_time_ns: 60.0,
            single_qubit_gate_time_ns: 60.0,
            two_qubit_gate_time_ns: 660.0,
            identity_gate_error: 2.41e-4,
            single_qubit_gate_error: 2.41e-4,
            two_qubit_gate_error: 7.5e-3,
            t1_us: 233.04,
            t2_us: 145.75,
            readout: ReadoutError::symmetric(0.013),
            state_prep_error: 0.002,
            idle_partner_noise: true,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Duration of one identity gate in nanoseconds (60 ns on `ibm_brisbane`).
    pub fn identity_gate_time_ns(&self) -> f64 {
        self.identity_gate_time_ns
    }

    /// Duration of a generic single-qubit gate in nanoseconds.
    pub fn single_qubit_gate_time_ns(&self) -> f64 {
        self.single_qubit_gate_time_ns
    }

    /// Duration of a two-qubit gate in nanoseconds.
    pub fn two_qubit_gate_time_ns(&self) -> f64 {
        self.two_qubit_gate_time_ns
    }

    /// Error probability of one identity gate.
    pub fn identity_gate_error(&self) -> f64 {
        self.identity_gate_error
    }

    /// Median T1 (relaxation) time in microseconds.
    pub fn t1_us(&self) -> f64 {
        self.t1_us
    }

    /// Median T2 (dephasing) time in microseconds.
    pub fn t2_us(&self) -> f64 {
        self.t2_us
    }

    /// The readout error model.
    pub fn readout(&self) -> ReadoutError {
        self.readout
    }

    /// Probability that a qubit is prepared in the wrong basis state.
    pub fn state_prep_error(&self) -> f64 {
        self.state_prep_error
    }

    /// Whether idle (spectator) qubits accumulate thermal relaxation while gates run on other
    /// qubits. On real hardware they do; turning this off isolates pure channel noise (used by
    /// the ablation benchmarks).
    pub fn idle_partner_noise(&self) -> bool {
        self.idle_partner_noise
    }

    /// Returns `true` when the model introduces no errors at all.
    pub fn is_ideal(&self) -> bool {
        self.identity_gate_error == 0.0
            && self.single_qubit_gate_error == 0.0
            && self.two_qubit_gate_error == 0.0
            && self.t1_us.is_infinite()
            && self.t2_us.is_infinite()
            && self.readout.is_ideal()
            && self.state_prep_error == 0.0
    }

    /// Replaces the readout error (builder-style).
    #[must_use]
    pub fn with_readout(mut self, readout: ReadoutError) -> Self {
        self.readout = readout;
        self
    }

    /// Replaces the T1/T2 times (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the times are non-positive or `t2 > 2·t1`.
    #[must_use]
    pub fn with_t1_t2(mut self, t1_us: f64, t2_us: f64) -> Self {
        assert!(t1_us > 0.0 && t2_us > 0.0, "T1 and T2 must be positive");
        assert!(t2_us <= 2.0 * t1_us, "T2 must not exceed 2·T1");
        self.t1_us = t1_us;
        self.t2_us = t2_us;
        self
    }

    /// Replaces the identity-gate error (builder-style).
    #[must_use]
    pub fn with_identity_gate_error(mut self, error: f64) -> Self {
        assert!((0.0..=1.0).contains(&error), "error must be in [0, 1]");
        self.identity_gate_error = error;
        self
    }

    /// Enables or disables idle-spectator thermal noise (builder-style).
    #[must_use]
    pub fn with_idle_partner_noise(mut self, enabled: bool) -> Self {
        self.idle_partner_noise = enabled;
        self
    }

    /// Replaces the state-preparation error (builder-style).
    #[must_use]
    pub fn with_state_prep_error(mut self, error: f64) -> Self {
        assert!((0.0..=1.0).contains(&error), "error must be in [0, 1]");
        self.state_prep_error = error;
        self
    }

    /// Thermal-relaxation channel for a qubit idling for `duration_ns`.
    pub fn idle_channel(&self, duration_ns: f64) -> KrausChannel {
        if self.t1_us.is_infinite() && self.t2_us.is_infinite() {
            return KrausChannel::identity();
        }
        KrausChannel::thermal_relaxation(self.t1_us, self.t2_us, duration_ns)
    }

    /// The noise channel applied after one identity gate: depolarizing with the calibrated
    /// identity-gate error composed with thermal relaxation over the gate duration.
    ///
    /// This is the paper's channel element: a quantum channel of "length η" is η of these.
    pub fn identity_gate_channel(&self) -> KrausChannel {
        self.single_qubit_noise(self.identity_gate_error, self.identity_gate_time_ns)
    }

    /// The noise channel applied after a generic single-qubit gate.
    pub(crate) fn single_qubit_gate_channel(&self) -> KrausChannel {
        self.single_qubit_noise(self.single_qubit_gate_error, self.single_qubit_gate_time_ns)
    }

    /// The noise channel applied after a two-qubit gate (two-qubit depolarizing; thermal
    /// relaxation is added per-qubit by the executor via [`DeviceModel::idle_channel`]).
    pub fn two_qubit_gate_channel(&self) -> KrausChannel {
        if self.two_qubit_gate_error == 0.0 {
            KrausChannel::new("ideal-2q", vec![mathkit::CMatrix::identity(4)])
        } else {
            KrausChannel::depolarizing_two_qubit(self.two_qubit_gate_error)
        }
    }

    /// The duration of a gate given how many qubits it touches and whether it is an identity.
    pub(crate) fn gate_duration_ns(&self, num_qubits: usize, is_identity: bool) -> f64 {
        if num_qubits >= 2 {
            self.two_qubit_gate_time_ns
        } else if is_identity {
            self.identity_gate_time_ns
        } else {
            self.single_qubit_gate_time_ns
        }
    }

    /// The state-preparation error channel (a bit flip with the calibrated probability).
    pub fn state_prep_channel(&self) -> KrausChannel {
        if self.state_prep_error == 0.0 {
            KrausChannel::identity()
        } else {
            KrausChannel::bit_flip(self.state_prep_error)
        }
    }

    fn single_qubit_noise(&self, gate_error: f64, duration_ns: f64) -> KrausChannel {
        let depol = if gate_error == 0.0 {
            KrausChannel::identity()
        } else {
            KrausChannel::depolarizing(gate_error)
        };
        if self.t1_us.is_infinite() && self.t2_us.is_infinite() {
            depol
        } else {
            self.idle_channel(duration_ns).compose(&depol)
        }
    }
}

impl Default for DeviceModel {
    fn default() -> Self {
        Self::ibm_brisbane_like()
    }
}

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (id gate {} ns / err {:.2e}, T1 {} µs, T2 {} µs, {})",
            self.name,
            self.identity_gate_time_ns,
            self.identity_gate_error,
            self.t1_us,
            self.t2_us,
            self.readout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::bell::BellState;
    use qsim::density::DensityMatrix;

    #[test]
    fn ideal_device_is_ideal() {
        let d = DeviceModel::ideal();
        assert!(d.is_ideal());
        assert!(!DeviceModel::ibm_brisbane_like().is_ideal());
        assert_eq!(DeviceModel::default(), DeviceModel::ibm_brisbane_like());
    }

    #[test]
    fn brisbane_preset_matches_paper_calibration() {
        let d = DeviceModel::ibm_brisbane_like();
        assert_eq!(d.identity_gate_time_ns(), 60.0);
        assert!((d.identity_gate_error() - 2.41e-4).abs() < 1e-12);
        assert!((d.t1_us() - 233.04).abs() < 1e-9);
        assert!((d.t2_us() - 145.75).abs() < 1e-9);
        assert!(d.idle_partner_noise());
        assert!(d.name().contains("brisbane"));
    }

    #[test]
    fn gate_channels_are_cptp() {
        let d = DeviceModel::ibm_brisbane_like();
        assert!(d.identity_gate_channel().is_trace_preserving(1e-8));
        assert!(d.single_qubit_gate_channel().is_trace_preserving(1e-8));
        assert!(d.two_qubit_gate_channel().is_trace_preserving(1e-8));
        assert!(d.idle_channel(1000.0).is_trace_preserving(1e-8));
        assert!(d.state_prep_channel().is_trace_preserving(1e-8));
    }

    #[test]
    fn ideal_device_channels_do_nothing() {
        let d = DeviceModel::ideal();
        let bell = BellState::PhiPlus.statevector();
        let mut rho = DensityMatrix::from_statevector(&bell);
        d.identity_gate_channel().apply(&mut rho, &[0]);
        d.idle_channel(5000.0).apply(&mut rho, &[1]);
        assert!((rho.fidelity_with_pure(&bell) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn identity_gate_channel_fidelity_is_high_but_not_perfect() {
        let d = DeviceModel::ibm_brisbane_like();
        let f = d.identity_gate_channel().average_fidelity();
        assert!(f < 1.0);
        assert!(
            f > 0.999,
            "one 60 ns identity gate should barely hurt, got {f}"
        );
    }

    #[test]
    fn seven_hundred_identity_gates_cause_substantial_decay() {
        // The heart of Fig. 3: after η = 700 identity gates the Bell pair has lost a lot of
        // fidelity (accuracy drops below ~60 % once readout errors are added).
        let d = DeviceModel::ibm_brisbane_like();
        let channel = d.identity_gate_channel();
        let idle = d.idle_channel(d.identity_gate_time_ns());
        let bell = BellState::PhiPlus.statevector();
        let mut rho = DensityMatrix::from_statevector(&bell);
        for _ in 0..700 {
            channel.apply(&mut rho, &[0]);
            idle.apply(&mut rho, &[1]);
        }
        let f = rho.fidelity_with_pure(&bell);
        assert!(
            f < 0.75,
            "fidelity after 700 noisy identity gates should be well below 1, got {f}"
        );
        assert!(
            f > 0.3,
            "the pair should not be completely destroyed, got {f}"
        );
    }

    #[test]
    fn builder_style_overrides() {
        let d = DeviceModel::ideal()
            .with_readout(ReadoutError::symmetric(0.05))
            .with_t1_t2(100.0, 150.0)
            .with_identity_gate_error(0.01)
            .with_state_prep_error(0.01)
            .with_idle_partner_noise(true);
        assert!(!d.is_ideal());
        assert_eq!(d.readout().p01(), 0.05);
        assert_eq!(d.t1_us(), 100.0);
        assert!((d.identity_gate_error() - 0.01).abs() < 1e-12);
        assert!(d.idle_partner_noise());
        assert!((d.state_prep_error() - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "T2 must not exceed")]
    fn with_t1_t2_rejects_unphysical_values() {
        let _ = DeviceModel::ideal().with_t1_t2(10.0, 100.0);
    }

    #[test]
    fn gate_durations() {
        let d = DeviceModel::ibm_brisbane_like();
        assert_eq!(d.gate_duration_ns(1, true), 60.0);
        assert_eq!(d.gate_duration_ns(1, false), 60.0);
        assert_eq!(d.gate_duration_ns(2, false), 660.0);
        assert_eq!(d.single_qubit_gate_time_ns(), 60.0);
        assert_eq!(d.two_qubit_gate_time_ns(), 660.0);
    }

    #[test]
    fn display_mentions_device_name() {
        let text = DeviceModel::ibm_brisbane_like().to_string();
        assert!(text.contains("brisbane"));
        assert!(text.contains("readout"));
    }
}
