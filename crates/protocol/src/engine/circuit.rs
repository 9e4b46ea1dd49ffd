//! The paper's circuit-level hardware experiments as closed campaign data.
//!
//! Fig. 2 (the decoded-counts histogram) and Fig. 3 (accuracy against
//! channel length η) sample shots of one message-transfer circuit on a noisy
//! device model instead of running sessions. [`Campaign::expand`] binds each
//! point's coordinates into a [`CircuitPoint`], rejecting any coordinate the
//! [`CircuitExperiment`] cannot apply. A bound point samples as a pure
//! function of its shot budget and its derived seed.
//!
//! An experiment serializes as `{"kind": …, "params": {…}}` under the
//! workload's `Sampled` tag, the shape stored campaigns have always had.
//!
//! [`Campaign::expand`]: super::Campaign::expand

use super::campaign::AxisValue;
use analysis::histogram::counts_to_row;
use analysis::rows::AccuracyPoint;
use noise::{DeviceModel, NoisyExecutor};
use qsim::circuit::{Circuit, CircuitBuilder};
use qsim::counts::Counts;
use qsim::pauli::Pauli;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};
use std::str::FromStr;

/// The four 2-bit messages of Fig. 2 in panel order.
pub const FIG2_MESSAGES: [&str; 4] = ["00", "01", "10", "11"];

/// Serialized kind of [`CircuitExperiment::Fig2Histogram`].
const FIG2_HISTOGRAM: &str = "fig2-histogram";

/// Serialized kind of [`CircuitExperiment::Fig3Accuracy`].
const FIG3_ACCURACY: &str = "fig3-accuracy";

/// Builds the single-EPR-pair message-transfer circuit the paper runs on `ibm_brisbane`:
/// prepare `|Φ+⟩`, apply the encoding Pauli for `message` on Alice's qubit, push it through
/// `eta` identity gates, and Bell-measure.
///
/// # Panics
///
/// Panics if `message` is not one of [`FIG2_MESSAGES`].
fn message_transfer_circuit(message: &str, eta: usize) -> Circuit {
    let pauli = match message {
        "00" => Pauli::I,
        "01" => Pauli::Z,
        "10" => Pauli::X,
        "11" => Pauli::IY,
        other => panic!("{other:?} is not a 2-bit message"),
    };
    let mut builder = CircuitBuilder::new(2, 2).h(0).cnot(0, 1).barrier();
    builder = builder.unitary(pauli.symbol(), pauli.matrix(), &[0]);
    builder = builder.identity_chain(0, eta).barrier();
    // Bell-state measurement: disentangle and read out.
    builder.cnot(0, 1).h(0).measure(0, 0).measure(1, 1).build()
}

/// Decodes the raw Bell-measurement readout histogram into a histogram over decoded 2-bit
/// messages: readout `m_a m_b` identifies the Bell state (`00→Φ+`, `10→Φ−`, `01→Ψ+`,
/// `11→Ψ−`), which decodes to the message via the paper's encoding rule.
fn decode_readout_counts(raw: &Counts) -> Counts {
    let mut decoded = Counts::new();
    for (label, count) in raw.iter() {
        let message = match label {
            "00" => "00",
            "10" => "01",
            "01" => "10",
            "11" => "11",
            other => other,
        };
        decoded.record_many(message, count);
    }
    decoded
}

/// The device model a circuit experiment runs on, stored by name. Closed, so
/// a tweaked [`DeviceModel`] cannot hide under a preset's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitDevice {
    /// [`DeviceModel::ideal`].
    Ideal,
    /// [`DeviceModel::ibm_brisbane_like`], the paper's hardware.
    IbmBrisbaneLike,
}

impl CircuitDevice {
    const ALL: [CircuitDevice; 2] = [CircuitDevice::Ideal, CircuitDevice::IbmBrisbaneLike];

    /// The stored name, which is also the model's [`DeviceModel::name`].
    pub fn name(self) -> &'static str {
        match self {
            CircuitDevice::Ideal => "ideal",
            CircuitDevice::IbmBrisbaneLike => "ibm_brisbane_like",
        }
    }

    /// The noise model the device's circuits sample under.
    fn model(self) -> DeviceModel {
        match self {
            CircuitDevice::Ideal => DeviceModel::ideal(),
            CircuitDevice::IbmBrisbaneLike => DeviceModel::ibm_brisbane_like(),
        }
    }
}

impl FromStr for CircuitDevice {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        let known = Self::ALL.into_iter().find(|device| device.name() == name);
        known.ok_or_else(|| format!("unknown device model `{name}`"))
    }
}

/// A circuit-level experiment of the paper: what each point of a
/// [`CampaignWorkload::Sampled`](super::CampaignWorkload::Sampled) campaign
/// samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitExperiment {
    /// Fig. 2: one point per `Message` coordinate, sending that message
    /// over `eta` identity gates and histogramming the decoded readouts.
    Fig2Histogram {
        /// The device the circuits run on.
        device: CircuitDevice,
        /// Channel length in identity gates, the same for every panel.
        eta: usize,
    },
    /// Fig. 3: one point per `Eta` coordinate, sending all four messages
    /// over that channel length and scoring the decoding accuracy.
    Fig3Accuracy {
        /// The device the circuits run on.
        device: CircuitDevice,
    },
}

impl CircuitExperiment {
    /// Binds one point's coordinates into the circuit run they select
    /// (`Trials` coordinates set the shot budget and bind to nothing).
    ///
    /// # Errors
    ///
    /// Names the coordinate when one cannot apply (a message outside
    /// [`FIG2_MESSAGES`], an axis the experiment has no use for, a second
    /// message or η), or the coordinate the point lacks.
    pub(crate) fn bind(&self, coords: &[AxisValue]) -> Result<CircuitPoint, String> {
        let (device, mut eta, fig2) = match *self {
            CircuitExperiment::Fig2Histogram { device, eta } => (device, Some(eta), true),
            CircuitExperiment::Fig3Accuracy { device } => (device, None, false),
        };
        let mut message = None;
        for coord in coords {
            match coord {
                AxisValue::Trials(_) => {}
                AxisValue::Message(m) if fig2 && message.is_none() => {
                    let known = FIG2_MESSAGES.into_iter().find(|known| *known == m.as_str());
                    message = Some(known.ok_or_else(|| {
                        format!("message `{m}` is not one of {}", FIG2_MESSAGES.join(", "))
                    })?);
                }
                AxisValue::Eta(point_eta) if !fig2 && eta.is_none() => eta = Some(*point_eta),
                _ => {
                    return Err(format!(
                        "{} points cannot apply the coordinate {coord} (an axis they do not \
                         sweep, or a second coordinate of one they do)",
                        self.kind()
                    ))
                }
            }
        }
        match (message, eta) {
            (None, _) if fig2 => Err("fig2-histogram points need a message coordinate".into()),
            (_, None) => Err("fig3-accuracy points need an η coordinate".into()),
            (message, Some(eta)) => Ok(CircuitPoint {
                device,
                eta,
                message,
            }),
        }
    }

    /// The experiment's serialized kind.
    fn kind(&self) -> &'static str {
        match self {
            CircuitExperiment::Fig2Histogram { .. } => FIG2_HISTOGRAM,
            CircuitExperiment::Fig3Accuracy { .. } => FIG3_ACCURACY,
        }
    }
}

impl Serialize for CircuitExperiment {
    fn to_value(&self) -> Value {
        let (device, eta) = match *self {
            CircuitExperiment::Fig2Histogram { device, eta } => (device, Some(eta)),
            CircuitExperiment::Fig3Accuracy { device } => (device, None),
        };
        let mut params = vec![("device".into(), Value::Str(device.name().into()))];
        params.extend(eta.map(|eta| ("eta".into(), eta.to_value())));
        Value::Map(vec![
            ("kind".into(), Value::Str(self.kind().into())),
            ("params".into(), Value::Map(params)),
        ])
    }
}

impl Deserialize for CircuitExperiment {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let kind = value.get_field("kind")?.as_str()?;
        let params = value.get_field("params")?;
        let known: &[&str] = match kind {
            FIG2_HISTOGRAM => &["device", "eta"],
            FIG3_ACCURACY => &["device"],
            other => {
                return Err(serde::Error::new(format!(
                    "unknown circuit experiment `{other}`"
                )))
            }
        };
        if let Value::Map(entries) = params {
            if let Some((key, _)) = entries.iter().find(|(key, _)| !known.contains(&&**key)) {
                return Err(serde::Error::new(format!(
                    "{kind} takes no `{key}` parameter"
                )));
            }
        }
        let device = params.get_field("device")?.as_str()?;
        let device = device.parse().map_err(serde::Error::new)?;
        Ok(match kind {
            FIG2_HISTOGRAM => CircuitExperiment::Fig2Histogram {
                device,
                eta: usize::from_value(params.get_field("eta")?)?,
            },
            _ => CircuitExperiment::Fig3Accuracy { device },
        })
    }
}

/// One bound point of a [`CircuitExperiment`], built by
/// [`Campaign::expand`](super::Campaign::expand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitPoint {
    /// The device the circuits run on.
    device: CircuitDevice,
    /// Channel length in identity gates.
    eta: usize,
    /// A Fig. 2 panel's message; `None` for a Fig. 3 point, which sends every
    /// message of [`FIG2_MESSAGES`] in panel order.
    message: Option<&'static str>,
}

impl CircuitPoint {
    /// Samples `shots` shots per circuit from an RNG seeded with `seed`: a
    /// panel's [`HistogramRow`](analysis::rows::HistogramRow) or a Fig. 3
    /// [`AccuracyPoint`], as a serde value.
    pub(crate) fn sample(&self, shots: usize, seed: u64) -> Value {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = self.device.model();
        let executor = NoisyExecutor::new(model.clone());
        let mut decode = |message| {
            let circuit = message_transfer_circuit(message, self.eta);
            let raw = executor.sample(&circuit, shots, &mut rng);
            decode_readout_counts(&raw.expect("message-transfer circuits are valid"))
        };
        if let Some(message) = self.message {
            return counts_to_row(message, &decode(message)).to_value();
        }
        let (mut correct, mut total) = (0, 0);
        for message in FIG2_MESSAGES {
            let decoded = decode(message);
            correct += decoded.get(message);
            total += decoded.total();
        }
        AccuracyPoint {
            eta: self.eta,
            duration_us: self.eta as f64 * model.identity_gate_time_ns() / 1000.0,
            accuracy: if total == 0 {
                0.0
            } else {
                correct as f64 / total as f64
            },
            shots: total,
        }
        .to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_transfer_circuit_shape() {
        let c = message_transfer_circuit("10", 10);
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_clbits(), 2);
        // 2 prep + 1 encode + 10 channel + 2 BSM gates
        assert_eq!(c.gate_count(), 15);
    }

    #[test]
    #[should_panic(expected = "not a 2-bit message")]
    fn bad_message_panics() {
        let _ = message_transfer_circuit("0", 1);
    }

    #[test]
    fn decode_readout_maps_bell_states_to_messages() {
        let mut raw = Counts::new();
        raw.record_many("10", 5); // Φ− → message 01
        raw.record_many("01", 3); // Ψ+ → message 10
        let decoded = decode_readout_counts(&raw);
        assert_eq!(decoded.get("01"), 5);
        assert_eq!(decoded.get("10"), 3);
    }

    #[test]
    fn unknown_kinds_devices_and_params_fail_at_decode_by_name() {
        for (json, name) in [
            (r#"{"kind":"fig9-scatter","params":{}}"#, "fig9-scatter"),
            (
                r#"{"kind":"fig3-accuracy","params":{"device":"ibm_osaka"}}"#,
                "ibm_osaka",
            ),
            (
                r#"{"kind":"fig3-accuracy","params":{"device":"ideal","eta":10}}"#,
                "`eta`",
            ),
        ] {
            let err = serde::json::from_str::<CircuitExperiment>(json).unwrap_err();
            assert!(err.to_string().contains(name), "{json}: {err}");
        }
    }
}
