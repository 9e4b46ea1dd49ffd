//! Protocol feature/cost descriptors (Table I).
//!
//! The paper's Table I compares the proposed UA-DI-QSDC protocol against four prior DI-QSDC
//! protocols along four axes: resource type, decoding measurement, qubits per message bit and
//! user-authentication support. [`ProtocolDescriptor`] carries one such row; the constructor
//! functions reproduce every row of the table, and the bench harness renders them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The quantum resource a protocol consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceType {
    /// Ordinary two-qubit entanglement (EPR pairs).
    Entanglement,
    /// Hyper-entanglement (entanglement in multiple degrees of freedom).
    HyperEntanglement,
    /// Single-photon (single-qubit) states.
    SingleQubits,
}

impl fmt::Display for ResourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceType::Entanglement => write!(f, "Entanglement"),
            ResourceType::HyperEntanglement => write!(f, "Hyper-entanglement"),
            ResourceType::SingleQubits => write!(f, "Single qubits"),
        }
    }
}

/// The measurement a protocol uses for decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecodingMeasurement {
    /// Bell-state measurement.
    Bsm,
    /// Hyper-entanglement Bell-state measurement.
    Hbsm,
}

impl fmt::Display for DecodingMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodingMeasurement::Bsm => write!(f, "BSM"),
            DecodingMeasurement::Hbsm => write!(f, "HBSM"),
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolDescriptor {
    /// Protocol name / citation.
    pub name: String,
    /// Quantum resource consumed.
    pub resource: ResourceType,
    /// Decoding measurement.
    pub measurement: DecodingMeasurement,
    /// Qubits consumed per message bit.
    pub qubits_per_message_bit: f64,
    /// Whether the protocol authenticates the users.
    pub user_authentication: bool,
    /// Whether this repository contains a runnable implementation of the row.
    pub implemented_here: bool,
}

impl ProtocolDescriptor {
    /// Zhou et al. 2020 — the original DI-QSDC protocol (entanglement, BSM, 1 qubit/bit).
    pub(crate) fn zhou_2020() -> Self {
        Self {
            name: "Zhou et al. [10] (2020)".into(),
            resource: ResourceType::Entanglement,
            measurement: DecodingMeasurement::Bsm,
            qubits_per_message_bit: 1.0,
            user_authentication: false,
            implemented_here: true,
        }
    }

    /// Zhou & Sheng 2022 — one-step DI-QSDC based on hyper-entanglement.
    pub(crate) fn zhou_2022_hyper() -> Self {
        Self {
            name: "Zhou et al. [11] (2022)".into(),
            resource: ResourceType::HyperEntanglement,
            measurement: DecodingMeasurement::Bsm,
            qubits_per_message_bit: 1.0,
            user_authentication: false,
            implemented_here: false,
        }
    }

    /// Zhou et al. 2023 — DI-QSDC with single-photon sources.
    pub(crate) fn zhou_2023_single_photon() -> Self {
        Self {
            name: "Zhou et al. [13] (2023)".into(),
            resource: ResourceType::SingleQubits,
            measurement: DecodingMeasurement::Bsm,
            qubits_per_message_bit: 2.0,
            user_authentication: false,
            implemented_here: false,
        }
    }

    /// Zeng et al. 2023 — high-capacity DI-QSDC based on hyper-encoding.
    pub(crate) fn zeng_2023_hyper_encoding() -> Self {
        Self {
            name: "Zeng et al. [12] (2023)".into(),
            resource: ResourceType::HyperEntanglement,
            measurement: DecodingMeasurement::Hbsm,
            qubits_per_message_bit: 0.5,
            user_authentication: false,
            implemented_here: false,
        }
    }

    /// The proposed UA-DI-QSDC protocol (this repository's core contribution).
    pub(crate) fn proposed() -> Self {
        Self {
            name: "Proposed UA-DI-QSDC".into(),
            resource: ResourceType::Entanglement,
            measurement: DecodingMeasurement::Bsm,
            qubits_per_message_bit: 1.0,
            user_authentication: true,
            implemented_here: true,
        }
    }

    /// All rows of Table I in the paper's order.
    pub fn table1() -> Vec<Self> {
        vec![
            Self::zhou_2020(),
            Self::zhou_2022_hyper(),
            Self::zhou_2023_single_photon(),
            Self::zeng_2023_hyper_encoding(),
            Self::proposed(),
        ]
    }
}

impl fmt::Display for ProtocolDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} | {} | {} | {}",
            self.name,
            self.resource,
            self.measurement,
            self.qubits_per_message_bit,
            if self.user_authentication {
                "Yes"
            } else {
                "No"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_five_rows_in_paper_order() {
        let rows = ProtocolDescriptor::table1();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], ProtocolDescriptor::zhou_2020());
        assert_eq!(rows[4], ProtocolDescriptor::proposed());
    }

    #[test]
    fn only_the_proposed_protocol_authenticates_users() {
        let rows = ProtocolDescriptor::table1();
        let ua_rows: Vec<_> = rows.iter().filter(|r| r.user_authentication).collect();
        assert_eq!(ua_rows.len(), 1);
        assert_eq!(ua_rows[0].name, "Proposed UA-DI-QSDC");
    }

    #[test]
    fn proposed_protocol_costs_one_qubit_per_message_bit() {
        let p = ProtocolDescriptor::proposed();
        assert_eq!(p.qubits_per_message_bit, 1.0);
        assert_eq!(p.resource, ResourceType::Entanglement);
        assert_eq!(p.measurement, DecodingMeasurement::Bsm);
        assert!(p.implemented_here);
    }

    #[test]
    fn costs_match_paper_rows() {
        assert_eq!(ProtocolDescriptor::zhou_2020().qubits_per_message_bit, 1.0);
        assert_eq!(
            ProtocolDescriptor::zhou_2022_hyper().qubits_per_message_bit,
            1.0
        );
        assert_eq!(
            ProtocolDescriptor::zhou_2023_single_photon().qubits_per_message_bit,
            2.0
        );
        assert_eq!(
            ProtocolDescriptor::zeng_2023_hyper_encoding().qubits_per_message_bit,
            0.5
        );
    }

    #[test]
    fn display_renders_columns() {
        let text = ProtocolDescriptor::proposed().to_string();
        assert!(text.contains("Entanglement"));
        assert!(text.contains("BSM"));
        assert!(text.contains("Yes"));
        assert_eq!(ResourceType::SingleQubits.to_string(), "Single qubits");
        assert_eq!(DecodingMeasurement::Hbsm.to_string(), "HBSM");
    }
}
