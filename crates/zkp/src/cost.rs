//! The Groth16 cost model (§5, §6.4, §6.6).
//!
//! The paper's prototype proves well-formedness with Groth16 (ZoKrates →
//! bellman) and reports: proof generation ≈ 1 minute per device (§6.4),
//! and aggregator-side verification whose cost is dominated not by the
//! three pairings but by the public-input scalar multiplications — Groth16
//! "scales linearly in the public I/O size, which, in our case, includes
//! the fairly large ciphertexts" (§6.6). This model reproduces those
//! costs; the constants are calibrated so that the Figure 9(b) curve (ZKP
//! verification dominating global aggregation, ~10⁵–10⁶ cores for 10⁹
//! users within 10 hours) matches the paper.

/// Groth16 cost constants.
#[derive(Debug, Clone)]
pub struct Groth16Model {
    /// Proof size in bytes (two G1 + one G2 element on BLS12-381).
    pub proof_bytes: usize,
    /// Proving time per proof in seconds (§6.4: "around a minute").
    pub prove_seconds: f64,
    /// Fixed verification cost (three pairings), seconds.
    pub verify_base_seconds: f64,
    /// Per-public-input-element (32-byte scalar) verification cost: one
    /// G1 scalar multiplication, seconds.
    pub verify_per_element_seconds: f64,
}

impl Default for Groth16Model {
    fn default() -> Self {
        Self {
            proof_bytes: 192,
            prove_seconds: 60.0,
            verify_base_seconds: 0.006,
            verify_per_element_seconds: 75e-6,
        }
    }
}

impl Groth16Model {
    /// Verification time for a statement whose public input is
    /// `public_input_bytes` long (the ciphertexts, per §6.6).
    pub fn verify_seconds(&self, public_input_bytes: usize) -> f64 {
        let elements = public_input_bytes.div_ceil(32);
        self.verify_base_seconds + elements as f64 * self.verify_per_element_seconds
    }

    /// Aggregator cores needed to verify `proofs` proofs (each with the
    /// given public-input size) within `deadline_seconds`.
    pub fn cores_for_verification(
        &self,
        proofs: u64,
        public_input_bytes: usize,
        deadline_seconds: f64,
    ) -> f64 {
        let total = proofs as f64 * self.verify_seconds(public_input_bytes);
        total / deadline_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proof_size_is_constant() {
        let m = Groth16Model::default();
        assert_eq!(m.proof_bytes, 192);
    }

    #[test]
    fn verification_scales_linearly_in_public_input() {
        let m = Groth16Model::default();
        let small = m.verify_seconds(1024);
        let big = m.verify_seconds(4_300_000); // One paper-sized ciphertext.
        assert!(big > 100.0 * small);
        // ≈ 134k elements · 75µs ≈ 10 s — the §6.6 bottleneck.
        assert!(big > 5.0 && big < 20.0, "verify {big} s");
    }

    #[test]
    fn figure9b_scale() {
        // 10^9 participants, one 4.3 MB ciphertext each, 10-hour deadline:
        // the paper's Figure 9(b) shows ~10^5–10^6 cores, dominated by ZKP
        // verification.
        let m = Groth16Model::default();
        let cores = m.cores_for_verification(1_000_000_000, 4_300_000, 10.0 * 3600.0);
        assert!(
            (1e5..1e7).contains(&cores),
            "cores for 1e9 users: {cores:.0}"
        );
        // And smaller populations need proportionally fewer.
        let small = m.cores_for_verification(1_000_000, 4_300_000, 10.0 * 3600.0);
        assert!((cores / small - 1000.0).abs() < 1.0);
    }

    #[test]
    fn device_proving_time_matches_paper() {
        // §6.4: "ZKP proof generation takes around a minute".
        let m = Groth16Model::default();
        assert!((30.0..120.0).contains(&m.prove_seconds));
    }
}
