//! The public bulletin board.
//!
//! Mycelium assumes "a public bulletin board (blockchain) that prevents the
//! aggregator from equivocating to the devices" (§3.1, assumption 5). The
//! board is append-only; entries are never modified, and every reader sees
//! the same prefix. Devices post Merkle roots, challenges against the
//! aggregator, and the collective random beacon here.

use mycelium_crypto::sha256::Digest;

/// Kinds of bulletin-board entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// Root of the verifiable map `M1` for an epoch.
    M1Root(Digest),
    /// Root of the verifiable map `M2` for an epoch.
    M2Root(Digest),
    /// Root of a C-round MHT (commitment over all mailbox MHTs).
    CRoundRoot {
        /// C-round number.
        round: u64,
        /// Root digest.
        root: Digest,
    },
    /// The collective random beacon `B` used for hop selection (§3.4).
    Beacon(Vec<u8>),
    /// A device's complaint (e.g. a missing inclusion proof, §3.3/§3.4).
    Complaint {
        /// Complaining device.
        device: u64,
        /// C-round the complaint refers to.
        round: u64,
        /// Free-form reason.
        reason: String,
    },
    /// The aggregator's response to a complaint (an inclusion proof, etc.).
    ComplaintResponse {
        /// Index of the complaint entry being answered.
        complaint_index: usize,
    },
}

/// An append-only public log.
#[derive(Debug, Clone, Default)]
pub struct BulletinBoard {
    entries: Vec<Entry>,
}

impl BulletinBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry; returns its index.
    pub fn post(&mut self, entry: Entry) -> usize {
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// Reads an entry.
    pub fn get(&self, index: usize) -> Option<&Entry> {
        self.entries.get(index)
    }

    /// All entries (the public log).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Unanswered complaints for a given round — if any exist, honest
    /// devices refuse to proceed and the protocol phase restarts (§3.4).
    pub fn open_complaints(&self, round: u64) -> Vec<usize> {
        let answered: Vec<usize> = self
            .entries
            .iter()
            .filter_map(|e| match e {
                Entry::ComplaintResponse { complaint_index } => Some(*complaint_index),
                _ => None,
            })
            .collect();
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Complaint { round: r, .. } if *r == round && !answered.contains(&i) => {
                    Some(i)
                }
                _ => None,
            })
            .collect()
    }

    /// The committed C-round root for `round`, if posted.
    pub fn cround_root(&self, round: u64) -> Option<Digest> {
        self.entries.iter().rev().find_map(|e| match e {
            Entry::CRoundRoot { round: r, root } if *r == round => Some(*root),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_only_and_indexed() {
        let mut b = BulletinBoard::new();
        let i0 = b.post(Entry::Beacon(vec![1, 2, 3]));
        let i1 = b.post(Entry::M1Root([7u8; 32]));
        assert_eq!(i0, 0);
        assert_eq!(i1, 1);
        assert_eq!(b.entries().len(), 2);
        assert_eq!(b.get(0), Some(&Entry::Beacon(vec![1, 2, 3])));
        assert!(b.get(5).is_none());
    }

    #[test]
    fn complaints_and_responses() {
        let mut b = BulletinBoard::new();
        let c = b.post(Entry::Complaint {
            device: 42,
            round: 7,
            reason: "missing inclusion proof".into(),
        });
        assert_eq!(b.open_complaints(7), vec![c]);
        assert!(b.open_complaints(8).is_empty());
        b.post(Entry::ComplaintResponse { complaint_index: c });
        assert!(b.open_complaints(7).is_empty());
    }

    #[test]
    fn cround_roots() {
        let mut b = BulletinBoard::new();
        b.post(Entry::CRoundRoot {
            round: 1,
            root: [1u8; 32],
        });
        b.post(Entry::CRoundRoot {
            round: 2,
            root: [2u8; 32],
        });
        assert_eq!(b.cround_root(1), Some([1u8; 32]));
        assert_eq!(b.cround_root(2), Some([2u8; 32]));
        assert_eq!(b.cround_root(3), None);
    }
}
