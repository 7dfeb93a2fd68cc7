//! A transparent Fiat–Shamir spot-check argument for R1CS satisfaction.
//!
//! The prover Merkle-commits to its witness; the Fiat–Shamir transform
//! (hashing the commitment, the statement digest, and a context string)
//! selects `t` random constraint indices; the prover opens every witness
//! variable those constraints touch, with Merkle inclusion proofs. The
//! verifier recomputes the challenge, checks the openings, and evaluates
//! the selected constraints.
//!
//! A witness with a `δ` fraction of unsatisfied constraints escapes
//! detection with probability `(1 − δ)^t`; for the §4.6 one-hot statements
//! a single dishonest coefficient violates at least one of a handful of
//! constraints, so `t` is chosen to push the escape probability below
//! `2^-40` for the circuit sizes in use. (Succinctness and the
//! zero-knowledge property of the deployed system come from Groth16; see
//! [`crate::cost`] and DESIGN.md.)

use std::collections::HashMap;

use mycelium_crypto::merkle::{leaf_hash, InclusionProof, MerkleTree};
use mycelium_crypto::sha256::{sha256_concat, Digest};

use crate::r1cs::{ConstraintSystem, Var};

/// Default number of spot-checked constraints — what a device's proof
/// checks. A circuit of at most this many constraints is checked whole.
pub const DEFAULT_CHECKS: usize = 48;

/// A spot-check proof.
#[derive(Debug, Clone)]
pub struct Proof {
    /// Merkle root of the witness commitment.
    pub witness_root: Digest,
    /// Opened variables: `(var, value, per-leaf salt, inclusion proof)`.
    pub openings: Vec<Opening>,
    /// Number of constraints checked (`t`).
    pub checks: usize,
}

/// One opened witness variable.
#[derive(Debug, Clone)]
pub struct Opening {
    /// Variable index.
    pub var: Var,
    /// Claimed value.
    pub value: u64,
    /// The per-leaf salt (derived from the prover's master salt, so
    /// unopened leaves stay hidden).
    pub salt: Digest,
    /// Merkle inclusion proof for the salted leaf at index `var`.
    pub proof: InclusionProof,
}

fn leaf_bytes(var: Var, value: u64, salt: &Digest) -> [u8; 48] {
    let mut v = [0u8; 48];
    v[..8].copy_from_slice(&(var as u64).to_le_bytes());
    v[8..16].copy_from_slice(&value.to_le_bytes());
    v[16..].copy_from_slice(salt);
    v
}

fn derive_master_salt(witness: &[u64], context: &[u8]) -> Digest {
    // Deterministic in (witness, statement): good enough for a prover-side
    // secret in this simulation (a deployment would draw it fresh).
    let mut bytes = Vec::with_capacity(witness.len() * 8);
    for w in witness {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    sha256_concat(&[b"zkp-salt", context, &bytes])
}

fn leaf_salt(master: &Digest, var: Var) -> Digest {
    sha256_concat(&[b"zkp-leaf-salt", master, &(var as u64).to_le_bytes()])
}

/// The `count` distinct constraint indices below `total` the challenge
/// selects — all of them, with no hashing, when `count ≥ total`. (The
/// rejection sampler would select the same set, in an order no caller
/// reads: the prover sorts the variables it opens, the verifier checks
/// every selected constraint.)
fn challenge_indices(root: &Digest, statement: &Digest, count: usize, total: usize) -> Vec<usize> {
    if count >= total {
        return (0..total).collect();
    }
    let mut out = Vec::with_capacity(count);
    let mut ctr = 0u64;
    while out.len() < count {
        let d = sha256_concat(&[b"zkp-challenge", root, statement, &ctr.to_le_bytes()]);
        ctr += 1;
        let idx = (u64::from_le_bytes(d[..8].try_into().expect("8 bytes")) % total as u64) as usize;
        if !out.contains(&idx) {
            out.push(idx);
        }
    }
    out
}

/// Produces a proof that `witness` satisfies `cs`, bound to `statement`
/// (e.g. a hash of the ciphertext the plaintext witness corresponds to).
///
/// # Panics
///
/// Panics if the witness does not satisfy the system (honest provers only
/// call this with valid witnesses; a malicious prover would forge the
/// structure, which [`verify`] is designed to catch).
pub fn prove(cs: &ConstraintSystem, witness: &[u64], statement: &Digest, checks: usize) -> Proof {
    assert!(
        cs.is_satisfied(witness),
        "prove called with an unsatisfied witness"
    );
    prove_unchecked(cs, witness, statement, checks)
}

/// Like [`prove`] but without the satisfaction assertion — used by tests
/// and malicious-device simulations that *want* to produce a proof for a
/// bad witness (which must then fail verification).
pub fn prove_unchecked(
    cs: &ConstraintSystem,
    witness: &[u64],
    statement: &Digest,
    checks: usize,
) -> Proof {
    let master = derive_master_salt(witness, statement);
    let salts: Vec<Digest> = (0..witness.len()).map(|v| leaf_salt(&master, v)).collect();
    let tree = MerkleTree::from_leaf_hashes(
        witness
            .iter()
            .zip(&salts)
            .enumerate()
            .map(|(v, (&w, salt))| leaf_hash(&leaf_bytes(v, w, salt)))
            .collect(),
    );
    let root = tree.root();
    let indices = challenge_indices(&root, statement, checks, cs.constraints.len());
    // Open every variable the selected constraints touch.
    let mut vars: Vec<Var> = Vec::new();
    for &i in &indices {
        let con = &cs.constraints[i];
        for lc in [&con.a, &con.b, &con.c] {
            for v in lc.vars() {
                if v != 0 && !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
    }
    vars.sort_unstable();
    let openings = vars
        .into_iter()
        .map(|v| Opening {
            var: v,
            value: witness[v],
            salt: salts[v],
            proof: tree.prove(v).expect("witness variable in tree"),
        })
        .collect();
    Proof {
        witness_root: root,
        openings,
        checks,
    }
}

/// Verifies a proof against the constraint system and statement digest.
pub fn verify(cs: &ConstraintSystem, statement: &Digest, proof: &Proof) -> bool {
    let indices = challenge_indices(
        &proof.witness_root,
        statement,
        proof.checks,
        cs.constraints.len(),
    );
    // Every opening must bind (var, value) to the committed root: the leaf
    // encodes its own index, so an opening cannot be replayed at another
    // position.
    let mut opened: HashMap<Var, u64> = HashMap::new();
    for o in &proof.openings {
        let leaf = leaf_bytes(o.var, o.value, &o.salt);
        if !o.proof.verify(&proof.witness_root, o.var, &leaf) {
            return false;
        }
        opened.insert(o.var, o.value);
    }
    // Every selected constraint must be checkable from the openings and
    // satisfied.
    for &i in &indices {
        match cs.check_constraint(i, &opened) {
            Some(true) => {}
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellformed::{well_formed_circuit, well_formed_witness};
    use mycelium_math::zq::Modulus;

    fn field() -> Modulus {
        Modulus::new_prime(2_147_483_647).unwrap()
    }

    fn statement(tag: u8) -> Digest {
        [tag; 32]
    }

    #[test]
    fn honest_proof_verifies() {
        let c = well_formed_circuit(field(), 16, 8);
        let mut coeffs = vec![0u64; 16];
        coeffs[3] = 1;
        coeffs[9] = 1;
        let w = well_formed_witness(&c, &coeffs);
        let proof = prove(&c.cs, &w, &statement(1), DEFAULT_CHECKS);
        assert!(verify(&c.cs, &statement(1), &proof));
    }

    #[test]
    fn bad_witness_detected() {
        let c = well_formed_circuit(field(), 16, 8);
        let mut coeffs = vec![0u64; 16];
        coeffs[3] = 2; // Oversized coefficient.
        let w = well_formed_witness(&c, &coeffs);
        let proof = prove_unchecked(&c.cs, &w, &statement(2), DEFAULT_CHECKS);
        assert!(!verify(&c.cs, &statement(2), &proof));
    }

    #[test]
    fn double_contribution_detected() {
        let c = well_formed_circuit(field(), 8, 8);
        let w = well_formed_witness(&c, &[1, 1, 0, 0, 0, 0, 0, 0]);
        let proof = prove_unchecked(&c.cs, &w, &statement(3), DEFAULT_CHECKS);
        assert!(!verify(&c.cs, &statement(3), &proof));
    }

    #[test]
    fn wrong_statement_fails() {
        // The challenge is bound to the statement (ciphertext digest), so a
        // proof cannot be replayed for a different ciphertext.
        let c = well_formed_circuit(field(), 8, 8);
        let w = well_formed_witness(&c, &[1, 0, 0, 0, 0, 0, 0, 0]);
        let proof = prove(&c.cs, &w, &statement(4), DEFAULT_CHECKS);
        assert!(verify(&c.cs, &statement(4), &proof));
        // Re-verification under a different statement re-derives different
        // challenge indices; the openings then do not cover them (except
        // with tiny probability for toy circuits — use a larger one).
        let big = well_formed_circuit(field(), 256, 16);
        let mut coeffs = vec![0u64; 256];
        coeffs[7] = 1;
        let wb = well_formed_witness(&big, &coeffs);
        let pb = prove(&big.cs, &wb, &statement(5), 20);
        assert!(verify(&big.cs, &statement(5), &pb));
        assert!(!verify(&big.cs, &statement(6), &pb));
    }

    #[test]
    fn tampered_opening_fails() {
        let c = well_formed_circuit(field(), 8, 8);
        let w = well_formed_witness(&c, &[0, 0, 1, 0, 0, 0, 0, 0]);
        let mut proof = prove(&c.cs, &w, &statement(7), DEFAULT_CHECKS);
        // Claim a different value for some opened variable.
        if let Some(first) = proof.openings.first_mut() {
            first.value += 1;
        }
        assert!(!verify(&c.cs, &statement(7), &proof));
    }

    #[test]
    fn checks_that_cover_the_circuit_select_every_constraint() {
        for total in [0, 1, 6, 33, DEFAULT_CHECKS] {
            let got = challenge_indices(&statement(9), &statement(10), DEFAULT_CHECKS, total);
            assert_eq!(got, (0..total).collect::<Vec<_>>(), "{total} constraints");
        }
        let sampled = challenge_indices(&statement(9), &statement(10), 20, 256);
        let distinct: std::collections::HashSet<_> = sampled.iter().collect();
        assert_eq!(distinct.len(), 20);
        assert!(sampled.iter().all(|&i| i < 256));
    }

    #[test]
    fn detection_probability_scales_with_checks() {
        // With very few checks a sparse violation can slip through; with
        // DEFAULT_CHECKS on these circuit sizes it cannot (every constraint
        // is selected since t exceeds the count).
        let c = well_formed_circuit(field(), 32, 32);
        assert!(c.cs.constraints.len() <= DEFAULT_CHECKS);
        let mut coeffs = vec![0u64; 32];
        coeffs[0] = 5;
        let w = well_formed_witness(&c, &coeffs);
        let p = prove_unchecked(&c.cs, &w, &statement(8), DEFAULT_CHECKS);
        assert!(!verify(&c.cs, &statement(8), &p));
    }
}
