//! Merkle hash trees with inclusion proofs.
//!
//! Merkle trees appear throughout Mycelium's communication layer (§3.3):
//! the verifiable maps `M1` (pseudonym → key/device) and `M2`
//! (device → pseudonym hashes) are Merkle trees whose roots are posted to
//! the bulletin board, each mailbox's contents are committed with an inner
//! "mailbox MHT", and a C-round MHT commits over all mailbox roots so the
//! aggregator cannot drop messages without detection.
//!
//! Leaf positions are part of the proof: a device looking up index `n`
//! checks that the authentication path matches the binary representation of
//! `n` (paper §3.3), which this implementation enforces by recomputing the
//! root from `(index, leaf)`.

use crate::sha256::{sha256_concat, Digest};

/// Domain-separation tags prevent leaf/node second-preimage confusion.
const LEAF_TAG: &[u8] = b"\x00mycelium-leaf";
const NODE_TAG: &[u8] = b"\x01mycelium-node";

/// A Merkle tree over an ordered list of byte-string leaves.
///
/// # Examples
///
/// ```
/// use mycelium_crypto::merkle::MerkleTree;
///
/// let tree = MerkleTree::build(&[b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
/// let proof = tree.prove(1).unwrap();
/// assert!(proof.verify(&tree.root(), 1, b"b"));
/// assert!(!proof.verify(&tree.root(), 0, b"b"));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, `levels.last()` = `[root]`.
    levels: Vec<Vec<Digest>>,
    leaf_count: usize,
}

/// An authentication path from a leaf to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionProof {
    /// Sibling hashes from the leaf level upward.
    pub siblings: Vec<Digest>,
}

/// Hashes a leaf value.
pub fn leaf_hash(data: &[u8]) -> Digest {
    sha256_concat(&[LEAF_TAG, data])
}

/// Hashes an interior node.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[NODE_TAG, left, right])
}

/// The padding digest used to complete odd-length levels.
///
/// Padding with a fixed public constant (instead of duplicating the edge
/// node) prevents the classic duplicate-leaf ambiguity where a proof for the
/// last leaf also verifies at the phantom position one past the end.
pub fn pad_hash() -> Digest {
    sha256_concat(&[b"\x02mycelium-pad"])
}

impl MerkleTree {
    /// Builds a tree over the given leaves.
    ///
    /// An empty leaf list yields a single-leaf tree over the empty string,
    /// so every tree has a well-defined root. Odd-length levels are
    /// completed with the public [`pad_hash`] constant, which rules out
    /// phantom-leaf proofs at positions past the end.
    pub fn build(leaves: &[Vec<u8>]) -> Self {
        Self::from_leaf_hashes(leaves.iter().map(|l| leaf_hash(l)).collect())
    }

    /// Builds a tree directly over precomputed leaf digests: [`build`] over
    /// leaves whose [`leaf_hash`]es these are.
    ///
    /// [`build`]: MerkleTree::build
    pub fn from_leaf_hashes(hashes: Vec<Digest>) -> Self {
        let leaf_count = hashes.len().max(1);
        let mut level = if hashes.is_empty() {
            vec![leaf_hash(b"")]
        } else {
            hashes
        };
        let mut levels = vec![level.clone()];
        while level.len() > 1 {
            if level.len() % 2 == 1 {
                level.push(pad_hash());
            }
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                next.push(node_hash(&pair[0], &pair[1]));
            }
            levels.push(next.clone());
            level = next;
        }
        Self { levels, leaf_count }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("tree has at least one level")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaf_count
    }

    /// Returns true when the tree was built from zero leaves.
    pub fn is_empty(&self) -> bool {
        self.levels[0].len() == 1 && self.leaf_count <= 1 && self.levels[0][0] == leaf_hash(b"")
    }

    /// Produces the inclusion proof for leaf `index`.
    ///
    /// Returns `None` if the index is out of range.
    pub fn prove(&self, index: usize) -> Option<InclusionProof> {
        if index >= self.levels[0].len() {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sib = if idx.is_multiple_of(2) {
                // Right sibling, or the public pad digest at a ragged edge.
                *level.get(idx + 1).unwrap_or(&pad_hash())
            } else {
                level[idx - 1]
            };
            siblings.push(sib);
            idx /= 2;
        }
        Some(InclusionProof { siblings })
    }
}

impl InclusionProof {
    /// Verifies that `leaf_data` is the leaf at `index` under `root`.
    ///
    /// The index determines the left/right orientation at every level, so a
    /// proof for one position cannot be replayed for another — this is the
    /// §3.3 check that "the path in the inclusion proof matches the path the
    /// aggregator should have taken for n".
    pub fn verify(&self, root: &Digest, index: usize, leaf_data: &[u8]) -> bool {
        self.verify_leaf_hash(root, index, &leaf_hash(leaf_data))
    }

    /// Verifies against a precomputed leaf digest.
    pub fn verify_leaf_hash(&self, root: &Digest, index: usize, leaf: &Digest) -> bool {
        let mut acc = *leaf;
        let mut idx = index;
        for sib in &self.siblings {
            acc = if idx.is_multiple_of(2) {
                node_hash(&acc, sib)
            } else {
                node_hash(sib, &acc)
            };
            idx /= 2;
        }
        idx == 0 && acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=33 {
            let ls = leaves(n);
            let tree = MerkleTree::build(&ls);
            for (i, l) in ls.iter().enumerate() {
                let p = tree.prove(i).unwrap();
                assert!(p.verify(&tree.root(), i, l), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_index_rejected() {
        let ls = leaves(8);
        let tree = MerkleTree::build(&ls);
        let p = tree.prove(3).unwrap();
        assert!(p.verify(&tree.root(), 3, &ls[3]));
        for wrong in [0usize, 1, 2, 4, 5, 6, 7] {
            assert!(!p.verify(&tree.root(), wrong, &ls[3]), "index {wrong}");
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let ls = leaves(5);
        let tree = MerkleTree::build(&ls);
        let p = tree.prove(2).unwrap();
        assert!(!p.verify(&tree.root(), 2, b"not-the-leaf"));
    }

    #[test]
    fn tampered_proof_rejected() {
        let ls = leaves(16);
        let tree = MerkleTree::build(&ls);
        let mut p = tree.prove(7).unwrap();
        p.siblings[2][0] ^= 1;
        assert!(!p.verify(&tree.root(), 7, &ls[7]));
    }

    #[test]
    fn out_of_range_prove() {
        let tree = MerkleTree::build(&leaves(4));
        assert!(tree.prove(4).is_none());
    }

    #[test]
    fn roots_depend_on_order_and_content() {
        let a = MerkleTree::build(&[b"x".to_vec(), b"y".to_vec()]);
        let b = MerkleTree::build(&[b"y".to_vec(), b"x".to_vec()]);
        assert_ne!(a.root(), b.root());
        let c = MerkleTree::build(&[b"x".to_vec(), b"y".to_vec(), b"z".to_vec()]);
        assert_ne!(a.root(), c.root());
    }

    #[test]
    fn empty_tree_has_root() {
        let t = MerkleTree::build(&[]);
        assert!(t.is_empty());
        let _ = t.root();
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A leaf containing exactly the bytes of two concatenated digests
        // must not collide with the interior node above them.
        let l1 = leaf_hash(b"a");
        let l2 = leaf_hash(b"b");
        let mut fake = Vec::new();
        fake.extend_from_slice(&l1);
        fake.extend_from_slice(&l2);
        assert_ne!(leaf_hash(&fake), node_hash(&l1, &l2));
    }

    #[test]
    fn from_leaf_hashes_matches_build() {
        let ls = leaves(9);
        let t1 = MerkleTree::build(&ls);
        let t2 = MerkleTree::from_leaf_hashes(ls.iter().map(|l| leaf_hash(l)).collect());
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn duplicate_edge_leaf_cannot_prove_phantom_index() {
        // With 3 leaves, the 4th position is a duplicate of leaf 2 at the
        // hash level; a proof must not verify for index 3.
        let ls = leaves(3);
        let tree = MerkleTree::build(&ls);
        let p = tree.prove(2).unwrap();
        assert!(p.verify(&tree.root(), 2, &ls[2]));
        assert!(!p.verify(&tree.root(), 3, &ls[2]));
    }
}
