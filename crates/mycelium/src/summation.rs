//! The verifiable summation tree (§4.2, inherited from Orchard).
//!
//! The aggregator does not just sum the origins' ciphertexts — it builds a
//! binary *summation tree* whose leaves are the individual ciphertexts and
//! whose every interior node is the homomorphic sum of its two children.
//! The tree commits each node by hashing (digest of the node's ciphertext,
//! left child commitment, right child commitment); the root commitment is
//! published. Each device then receives an inclusion proof for its own
//! leaf, and devices *spot-check* random interior nodes by re-adding the
//! two children and comparing digests — a cheating aggregator that drops,
//! duplicates, or alters any contribution is caught with probability
//! growing in the number of checks, while no single party ever has to
//! re-sum everything.

use mycelium_bgv::{BgvError, Ciphertext};
use mycelium_crypto::sha256::{sha256_concat, Digest};
use mycelium_graph::graph::VertexId;
use mycelium_math::par;

use crate::exec::ciphertext_digest;

/// Which aggregation shard owns vertex `v` (as origin *and* as the
/// destination of every contribution addressed to it).
///
/// A splitmix64 finalizer rather than `v % shards`: the assignment is a
/// *hash*, stable under any renumbering-adjacent reasoning and
/// insensitive to stride patterns in vertex ids, and — being pure
/// integer arithmetic on `(v, shards)` — identical across processes,
/// platforms, and `MYC_THREADS` settings. Both aggregation planes (the
/// simulated round and the real TCP round) route through this one
/// function, so their shard topologies mirror each other exactly.
pub fn shard_of(v: VertexId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut x = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// One node of the summation tree.
#[derive(Debug, Clone)]
pub struct SummationNode {
    /// The (partial) homomorphic sum at this node.
    pub sum: Ciphertext,
    /// Commitment: `H(ct-digest ‖ left-commitment ‖ right-commitment)`.
    pub commitment: Digest,
    /// Children indices (`None` for leaves).
    pub children: Option<(usize, usize)>,
}

/// The aggregator's summation tree over origin ciphertexts.
#[derive(Debug)]
pub struct SummationTree {
    /// Nodes in construction order; leaves first, root last.
    pub nodes: Vec<SummationNode>,
    leaf_count: usize,
}

/// Spot-check outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummationError {
    /// A node's ciphertext is not the sum of its children.
    BadNode {
        /// Offending node index.
        index: usize,
    },
    /// A node's commitment does not bind its children's commitments.
    BadCommitment {
        /// Offending node index.
        index: usize,
    },
    /// Index out of range.
    OutOfRange,
}

impl std::fmt::Display for SummationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummationError::BadNode { index } => {
                write!(f, "node {index} is not the sum of its children")
            }
            SummationError::BadCommitment { index } => {
                write!(f, "node {index}'s commitment does not bind its children")
            }
            SummationError::OutOfRange => write!(f, "node index out of range"),
        }
    }
}

impl std::error::Error for SummationError {}

fn leaf_commitment(ct: &Ciphertext) -> Digest {
    sha256_concat(&[b"sum-leaf", &ciphertext_digest(ct)])
}

fn node_commitment(ct: &Ciphertext, left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[b"sum-node", &ciphertext_digest(ct), left, right])
}

impl SummationTree {
    /// Builds the tree over the origins' ciphertexts (all at one level).
    ///
    /// Odd nodes at a level are carried up unchanged.
    ///
    /// # Panics
    ///
    /// Panics on an empty input.
    pub fn build(leaves: Vec<Ciphertext>) -> Result<Self, BgvError> {
        assert!(!leaves.is_empty(), "summation tree needs at least one leaf");
        let leaf_commitments = par::map(&leaves, |_, ct| leaf_commitment(ct));
        let mut nodes: Vec<SummationNode> = leaves
            .into_iter()
            .zip(leaf_commitments)
            .map(|(ct, commitment)| SummationNode {
                commitment,
                sum: ct,
                children: None,
            })
            .collect();
        let leaf_count = nodes.len();
        let mut level: Vec<usize> = (0..nodes.len()).collect();
        // The sums within one tree level are independent: compute each
        // level as one parallel batch, then append in order so node
        // indices (and therefore commitments) match the serial layout.
        while level.len() > 1 {
            let pairs: Vec<(usize, usize)> = level
                .chunks(2)
                .filter(|p| p.len() == 2)
                .map(|p| (p[0], p[1]))
                .collect();
            let computed = par::map(&pairs, |_, &(l, r)| -> Result<_, BgvError> {
                // Fold the right child into a copy of the left in place —
                // one allocation per interior node instead of two.
                let mut sum = nodes[l].sum.clone();
                sum.add_assign(&nodes[r].sum)?;
                let commitment = node_commitment(&sum, &nodes[l].commitment, &nodes[r].commitment);
                Ok((sum, commitment))
            });
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut computed = computed.into_iter();
            for pair in level.chunks(2) {
                if pair.len() == 1 {
                    next.push(pair[0]);
                    continue;
                }
                let (sum, commitment) = computed.next().expect("one result per pair")?;
                nodes.push(SummationNode {
                    sum,
                    commitment,
                    children: Some((pair[0], pair[1])),
                });
                next.push(nodes.len() - 1);
            }
            level = next;
        }
        Ok(Self { nodes, leaf_count })
    }

    /// The root node (the global aggregate the committee decrypts).
    pub fn root(&self) -> &SummationNode {
        self.nodes.last().expect("nonempty tree")
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The path of node indices from leaf `i` to the root — what the
    /// aggregator sends a device as its inclusion proof (§4.2: "its data
    /// has been included in the sum exactly once").
    pub fn inclusion_path(&self, leaf: usize) -> Option<Vec<usize>> {
        if leaf >= self.leaf_count {
            return None;
        }
        let mut path = vec![leaf];
        let mut current = leaf;
        loop {
            let parent = self
                .nodes
                .iter()
                .position(|n| matches!(n.children, Some((l, r)) if l == current || r == current));
            match parent {
                Some(p) => {
                    path.push(p);
                    current = p;
                }
                None => break,
            }
        }
        Some(path)
    }

    /// Device-side check of its inclusion path: every step must be a valid
    /// parent link with a binding commitment, ending at the published root
    /// commitment.
    pub fn verify_inclusion(
        &self,
        leaf: usize,
        own_ct: &Ciphertext,
        root_commitment: &Digest,
    ) -> Result<(), SummationError> {
        let path = self
            .inclusion_path(leaf)
            .ok_or(SummationError::OutOfRange)?;
        // The leaf must be the device's own ciphertext.
        if self.nodes[leaf].commitment != leaf_commitment(own_ct) {
            return Err(SummationError::BadNode { index: leaf });
        }
        for &idx in &path[1..] {
            self.spot_check(idx)?;
        }
        if &self.root().commitment != root_commitment {
            return Err(SummationError::BadCommitment {
                index: self.nodes.len() - 1,
            });
        }
        Ok(())
    }

    /// Spot-checks one interior node: its ciphertext must equal the sum of
    /// its children (exact RNS equality) and its commitment must bind them.
    pub fn spot_check(&self, index: usize) -> Result<(), SummationError> {
        let node = self.nodes.get(index).ok_or(SummationError::OutOfRange)?;
        let (l, r) = match node.children {
            Some(c) => c,
            None => return Ok(()), // Leaves have nothing to re-add.
        };
        let recomputed = self.nodes[l]
            .sum
            .add(&self.nodes[r].sum)
            .map_err(|_| SummationError::BadNode { index })?;
        if recomputed.parts() != node.sum.parts() {
            return Err(SummationError::BadNode { index });
        }
        let expect = node_commitment(
            &node.sum,
            &self.nodes[l].commitment,
            &self.nodes[r].commitment,
        );
        if expect != node.commitment {
            return Err(SummationError::BadCommitment { index });
        }
        Ok(())
    }

    /// Spot-checks a deterministic pseudo-random subset of `count` interior
    /// nodes derived from `seed` (what each device does with its share of
    /// the auditing work).
    pub fn spot_check_random(&self, seed: u64, count: usize) -> Result<(), SummationError> {
        let interior: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].children.is_some())
            .collect();
        if interior.is_empty() {
            return Ok(());
        }
        let mut state = seed | 1;
        for _ in 0..count {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let idx = interior[(state % interior.len() as u64) as usize];
            self.spot_check(idx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_bgv::encoding::encode_monomial;
    use mycelium_bgv::{BgvParams, KeySet};
    use mycelium_math::rng::{SeedableRng, StdRng};

    fn leaves(n: usize) -> (KeySet, Vec<Ciphertext>, StdRng) {
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(313);
        let keys = KeySet::generate_with_relin_levels(&params, &[], &mut rng);
        let cts = (0..n)
            .map(|i| {
                let pt = encode_monomial(i % 7, params.n, params.plaintext_modulus).unwrap();
                Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap()
            })
            .collect();
        (keys, cts, rng)
    }

    #[test]
    fn root_is_the_full_sum() {
        for n in [1usize, 2, 5, 8] {
            let (keys, cts, _) = leaves(n);
            let tree = SummationTree::build(cts).unwrap();
            assert_eq!(tree.leaf_count(), n);
            let pt = tree.root().sum.decrypt(&keys.secret);
            // Values 0..n mod 7, one per leaf.
            let total: u64 = pt.coeffs().iter().sum();
            assert_eq!(total, n as u64, "n={n}");
        }
    }

    #[test]
    fn inclusion_paths_verify() {
        let (_, cts, _) = leaves(6);
        let copies = cts.clone();
        let tree = SummationTree::build(cts).unwrap();
        let root = tree.root().commitment;
        for (i, ct) in copies.iter().enumerate() {
            tree.verify_inclusion(i, ct, &root)
                .unwrap_or_else(|e| panic!("leaf {i}: {e}"));
        }
        assert!(tree.inclusion_path(6).is_none());
    }

    #[test]
    fn wrong_leaf_ciphertext_detected() {
        let (_, cts, _) = leaves(4);
        let foreign = cts[1].clone();
        let tree = SummationTree::build(cts).unwrap();
        let root = tree.root().commitment;
        // Device 0 presents device 1's ciphertext as its own.
        assert!(matches!(
            tree.verify_inclusion(0, &foreign, &root),
            Err(SummationError::BadNode { index: 0 })
        ));
    }

    #[test]
    fn tampered_interior_node_detected() {
        let (_, cts, _) = leaves(4);
        let spare = cts[0].clone();
        let mut tree = SummationTree::build(cts).unwrap();
        // The aggregator swaps an interior partial sum (dropping inputs).
        let interior = tree
            .nodes
            .iter()
            .position(|n| n.children.is_some())
            .unwrap();
        tree.nodes[interior].sum = spare;
        assert!(matches!(
            tree.spot_check(interior),
            Err(SummationError::BadNode { .. })
        ));
        // Random spot checks find it too (all interior nodes get sampled
        // with 16 draws over a 3-interior-node tree).
        assert!(tree.spot_check_random(42, 16).is_err());
    }

    #[test]
    fn forged_commitment_detected() {
        let (_, cts, _) = leaves(4);
        let mut tree = SummationTree::build(cts).unwrap();
        let interior = tree
            .nodes
            .iter()
            .position(|n| n.children.is_some())
            .unwrap();
        tree.nodes[interior].commitment = [0u8; 32];
        assert!(matches!(
            tree.spot_check(interior),
            Err(SummationError::BadCommitment { .. })
        ));
    }

    #[test]
    fn combined_partials_root_bit_identical_to_flat_tree() {
        // Homomorphic addition is exact mod-q addition of RNS residues,
        // so the root sum must be bit-identical for *any* partition of
        // the leaves into shards — the invariant the sharded
        // aggregation plane rests on: the coordinator sums the shards'
        // bare roots in a tree of its own.
        let (_, cts, _) = leaves(9);
        let flat = SummationTree::build(cts.clone()).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let mut buckets: Vec<Vec<Ciphertext>> = vec![Vec::new(); shards];
            for (i, ct) in cts.iter().enumerate() {
                buckets[i % shards].push(ct.clone());
            }
            let parts: Vec<SummationTree> = buckets
                .into_iter()
                .filter(|b| !b.is_empty())
                .map(|b| SummationTree::build(b).unwrap())
                .collect();
            let total_leaves: usize = parts.iter().map(SummationTree::leaf_count).sum();
            assert_eq!(total_leaves, 9);
            let top = SummationTree::build(parts.iter().map(|p| p.root().sum.clone()).collect());
            let top = top.unwrap();
            assert_eq!(
                top.root().sum.parts(),
                flat.root().sum.parts(),
                "shards={shards}"
            );
            // The top tree's interior nodes audit like any other tree.
            top.spot_check_random(17, 16).unwrap();
        }
    }

    #[test]
    fn honest_tree_passes_random_audits() {
        let (_, cts, _) = leaves(9);
        let tree = SummationTree::build(cts).unwrap();
        tree.spot_check_random(7, 32).unwrap();
        tree.spot_check_random(99, 32).unwrap();
    }
}
