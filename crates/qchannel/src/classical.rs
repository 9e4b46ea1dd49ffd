//! The authenticated public classical channel.
//!
//! The protocol assumes an *authenticated* classical channel: Eve can read every message but
//! cannot forge or alter them. Each session owns one append-only [`Transcript`] of typed
//! [`ClassicalMessage`]s, pushed in the order the parties speak, and hands it to its outcome;
//! the information-leakage analysis (Section III-E of the paper) audits exactly this
//! transcript to confirm that nothing message- or identity-correlated is ever published.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which protocol party sent a classical message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Party {
    /// The sender (Alice).
    Alice,
    /// The receiver (Bob).
    Bob,
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Party::Alice => write!(f, "Alice"),
            Party::Bob => write!(f, "Bob"),
        }
    }
}

/// A message on the public classical channel.
///
/// The variants mirror the announcements the paper's protocol makes. Crucially there is **no
/// variant carrying message bits, identity bits or the Bell results of the `C_A` (Alice
/// identity) pairs** — that is the information-leakage guarantee the audit checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClassicalMessage {
    /// Announcement of qubit positions selected for some purpose (DI check rounds,
    /// identity blocks, …).
    Positions {
        /// What the positions are for (e.g. `"di-check-1"`, `"DA"`, `"CA"`).
        purpose: String,
        /// The selected positions (indices into the shared sequence).
        positions: Vec<usize>,
    },
    /// Announcement of the measurement settings used on DI-check pairs.
    BasisChoices {
        /// Which DI-check round the settings belong to (1 or 2).
        round: u8,
        /// Per-pair `(alice_setting, bob_setting)` indices.
        settings: Vec<(usize, usize)>,
    },
    /// Announcement of the ±1 outcomes observed on DI-check pairs (as bits).
    CheckOutcomes {
        /// Which DI-check round the outcomes belong to (1 or 2).
        round: u8,
        /// Per-pair `(alice_bit, bob_bit)`.
        outcomes: Vec<(u8, u8)>,
    },
    /// Bob's announced Bell-state-measurement results for the `(D_A, D_B)` authentication
    /// pairs (these look uniformly random to Eve thanks to Alice's cover operations).
    BellResults {
        /// Which block the results belong to (e.g. `"DB-auth"`).
        block: String,
        /// Encoded Bell outcomes (2 bits each, as the index 0–3).
        results: Vec<u8>,
    },
    /// Reveal of the positions and values of the integrity check bits embedded in `m'`.
    CheckBitsReveal {
        /// Positions of the check bits within the padded message.
        positions: Vec<usize>,
        /// The check-bit values.
        values: Vec<bool>,
    },
    /// An abort notification with a human-readable reason.
    Abort {
        /// Why the protocol was aborted.
        reason: String,
    },
    /// Generic acknowledgement used to close phases.
    Ack {
        /// Which phase is acknowledged.
        phase: String,
    },
}

impl ClassicalMessage {
    /// A short tag naming the message kind (used in transcripts and reports).
    pub fn kind(&self) -> &'static str {
        match self {
            ClassicalMessage::Positions { .. } => "positions",
            ClassicalMessage::BasisChoices { .. } => "basis-choices",
            ClassicalMessage::CheckOutcomes { .. } => "check-outcomes",
            ClassicalMessage::BellResults { .. } => "bell-results",
            ClassicalMessage::CheckBitsReveal { .. } => "check-bits",
            ClassicalMessage::Abort { .. } => "abort",
            ClassicalMessage::Ack { .. } => "ack",
        }
    }
}

impl fmt::Display for ClassicalMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind())
    }
}

/// One transcript entry: who said what, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TranscriptEntry {
    /// Sequence number (0-based).
    pub index: usize,
    /// The sending party.
    pub sender: Party,
    /// The message.
    pub message: ClassicalMessage,
}

/// The append-only public record of everything said on the classical channel.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Transcript {
    entries: Vec<TranscriptEntry>,
}

impl Transcript {
    /// Creates an empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a message and returns its sequence number.
    pub fn push(&mut self, sender: Party, message: ClassicalMessage) -> usize {
        let index = self.entries.len();
        self.entries.push(TranscriptEntry {
            index,
            sender,
            message,
        });
        index
    }

    /// Number of messages exchanged.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing has been said yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over the entries in order.
    pub fn iter(&self) -> std::slice::Iter<'_, TranscriptEntry> {
        self.entries.iter()
    }

    /// All messages of a given kind tag.
    pub fn messages_of_kind(&self, kind: &str) -> Vec<&ClassicalMessage> {
        self.entries
            .iter()
            .filter(|e| e.message.kind() == kind)
            .map(|e| &e.message)
            .collect()
    }

    /// Returns `true` when an abort was announced.
    pub fn contains_abort(&self) -> bool {
        !self.messages_of_kind("abort").is_empty()
    }
}

impl<'a> IntoIterator for &'a Transcript {
    type Item = &'a TranscriptEntry;
    type IntoIter = std::slice::Iter<'a, TranscriptEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions_msg() -> ClassicalMessage {
        ClassicalMessage::Positions {
            purpose: "di-check-1".into(),
            positions: vec![1, 5, 9],
        }
    }

    #[test]
    fn transcript_appends_in_order() {
        let mut t = Transcript::new();
        assert!(t.is_empty());
        let i0 = t.push(Party::Alice, positions_msg());
        let i1 = t.push(
            Party::Bob,
            ClassicalMessage::Ack {
                phase: "setup".into(),
            },
        );
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        assert_eq!(t.iter().next().unwrap().sender, Party::Alice);
    }

    #[test]
    fn kind_tags_and_filtering() {
        let mut t = Transcript::new();
        t.push(Party::Alice, positions_msg());
        t.push(
            Party::Alice,
            ClassicalMessage::BasisChoices {
                round: 1,
                settings: vec![(1, 2)],
            },
        );
        t.push(
            Party::Bob,
            ClassicalMessage::CheckOutcomes {
                round: 1,
                outcomes: vec![(0, 1)],
            },
        );
        t.push(
            Party::Bob,
            ClassicalMessage::BellResults {
                block: "DB-auth".into(),
                results: vec![0, 3, 1],
            },
        );
        t.push(
            Party::Alice,
            ClassicalMessage::CheckBitsReveal {
                positions: vec![2],
                values: vec![true],
            },
        );
        t.push(
            Party::Alice,
            ClassicalMessage::Abort {
                reason: "CHSH too low".into(),
            },
        );
        assert_eq!(t.messages_of_kind("positions").len(), 1);
        assert_eq!(t.messages_of_kind("basis-choices").len(), 1);
        assert_eq!(t.messages_of_kind("check-outcomes").len(), 1);
        assert_eq!(t.messages_of_kind("bell-results").len(), 1);
        assert_eq!(t.messages_of_kind("check-bits").len(), 1);
        assert!(t.contains_abort());
    }

    #[test]
    fn no_abort_when_none_sent() {
        let mut t = Transcript::new();
        t.push(Party::Alice, positions_msg());
        assert!(!t.contains_abort());
    }

    #[test]
    fn message_kind_and_display() {
        let m = positions_msg();
        assert_eq!(m.kind(), "positions");
        assert_eq!(m.to_string(), "positions");
    }

    #[test]
    fn party_display() {
        assert_eq!(Party::Alice.to_string(), "Alice");
        assert_eq!(Party::Bob.to_string(), "Bob");
    }
}
