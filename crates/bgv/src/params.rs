//! BGV parameter sets.
//!
//! The paper's prototype uses ring degree `N = 32768`, a 550-bit ciphertext
//! modulus, and plaintext modulus `t = 2^30` (§5), which gives >128-bit
//! security and supports "bin"-aggregation of over a billion values. Chain
//! primes are chosen `≡ 1 (mod lcm(2N, t))` so the negacyclic NTT exists
//! *and* modulus switching preserves plaintexts exactly.

use std::sync::Arc;

use mycelium_math::ew::packed_len;
use mycelium_math::rns::RnsContext;
use mycelium_math::zq;

/// A BGV parameter set.
#[derive(Debug, Clone)]
pub struct BgvParams {
    /// Ring degree `N` (power of two). Plaintexts are polynomials of degree
    /// `< N`, so the histogram encoding supports up to `N` bins.
    pub n: usize,
    /// Plaintext modulus `t` (a power of two in this workspace). Bin counts
    /// aggregate correctly as long as they stay below `t`.
    pub plaintext_modulus: u64,
    /// Bit size of each chain prime.
    pub prime_bits: u32,
    /// Number of chain primes `L` (the maximum level).
    pub levels: usize,
    /// Standard deviation of the noise distribution.
    pub sigma: f64,
}

impl BgvParams {
    /// Paper-scale parameters (§5): `N = 32768`, `t = 2^30`, 55-bit primes.
    ///
    /// The paper reports a 550-bit modulus (10 × 55-bit primes). Our
    /// from-scratch implementation uses the same prime size but an 18-prime
    /// chain (≈990 bits) so that the degree-10 multiplication chains of the
    /// 1-hop queries fit the noise budget without the (unpublished) noise
    /// optimizations of the paper's prototype; cost models that depend on
    /// ciphertext *size* use [`BgvParams::paper_sized`]. Both presets
    /// preserve the §6.2 generality result: 1-hop queries (≤ 11 sequential
    /// multiplications) succeed and Q1 (100 multiplications) fails.
    pub fn paper() -> Self {
        Self {
            n: 32768,
            plaintext_modulus: 1 << 30,
            prime_bits: 55,
            levels: 18,
            sigma: 3.2,
        }
    }

    /// The paper's exact modulus budget (10 × 55-bit primes ≈ 550 bits),
    /// used for ciphertext-size and bandwidth cost modelling.
    pub fn paper_sized() -> Self {
        Self {
            n: 32768,
            plaintext_modulus: 1 << 30,
            prime_bits: 55,
            levels: 10,
            sigma: 3.2,
        }
    }

    /// Small parameters for unit tests: `N = 1024`, `t = 2^10`, 6 levels.
    ///
    /// NOT secure — the ring is far too small — but exercises every code
    /// path (all parameters flow through the same implementation).
    pub fn test_small() -> Self {
        Self {
            n: 1024,
            plaintext_modulus: 1 << 10,
            prime_bits: 40,
            levels: 6,
            sigma: 3.2,
        }
    }

    /// Mid-size parameters for integration tests and CI-scale benchmarks:
    /// `N = 4096`, `t = 2^16`, 12 levels of 45-bit primes.
    pub fn test_medium() -> Self {
        Self {
            n: 4096,
            plaintext_modulus: 1 << 16,
            prime_bits: 45,
            levels: 12,
            sigma: 3.2,
        }
    }

    /// Generates the modulus-chain primes for this parameter set.
    pub fn chain_primes(&self) -> Vec<u64> {
        let step = lcm(2 * self.n as u64, self.plaintext_modulus);
        zq::primes_congruent(self.prime_bits, step, self.levels)
    }

    /// Builds the RNS context for this parameter set.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (non-power-of-two ring,
    /// prime size too small for the congruence step, ...).
    pub fn build_context(&self) -> Arc<RnsContext> {
        let primes = self.chain_primes();
        RnsContext::new(self.n, &primes).expect("parameter set must yield a valid RNS context")
    }

    /// Size of one ring element at `level` residue rows, each row `n`
    /// residues packed at [`prime_bits`](Self::prime_bits) — the size rule
    /// of the wire codec ([`RnsContext::packed_bytes`] on the context this
    /// parameter set builds), without building the context.
    pub fn poly_bytes(&self, level: usize) -> usize {
        level * packed_len(self.prime_bits, self.n)
    }

    /// Size of one ciphertext in bytes (two ring elements at the top level).
    ///
    /// For the paper-sized preset this is 4.51 MB — 10 rows of 32 768
    /// 55-bit residues per element — against the paper's reported 4.3 MB
    /// per ciphertext (§6.4).
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.poly_bytes(self.levels)
    }

    /// `log2` of the full ciphertext modulus.
    pub fn log_q(&self) -> f64 {
        self.prime_bits as f64 * self.levels as f64
    }

    /// Rough upper bound on the number of *sequential* ciphertext
    /// multiplications this parameter set supports (the §6.2 feasibility
    /// check). Derived from the leveled noise-growth recurrence: each
    /// multiply-then-switch step multiplies the noise by
    /// `≈ N · ν_fresh / q` and consumes one level.
    pub fn max_sequential_muls(&self) -> usize {
        let fresh = self.fresh_noise_log2();
        let growth = (self.n as f64).log2() + fresh - self.prime_bits as f64;
        let mut depth = 0usize;
        let mut noise = fresh;
        // After `depth` multiplications we have dropped `depth` primes.
        while depth + 1 < self.levels {
            let next = noise + growth.max(0.5);
            let remaining = self.prime_bits as f64 * (self.levels - depth - 1) as f64;
            if next + 1.0 >= remaining {
                break;
            }
            noise = next;
            depth += 1;
        }
        depth
    }

    /// `log2` of the fresh-encryption noise bound
    /// `t · (σ√N · (2N + 1) + small)` (coarse but monotone).
    pub fn fresh_noise_log2(&self) -> f64 {
        let t = self.plaintext_modulus as f64;
        let n = self.n as f64;
        (t * (12.0 * self.sigma * n + t)).log2()
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_small_builds() {
        let p = BgvParams::test_small();
        let ctx = p.build_context();
        assert_eq!(ctx.degree(), 1024);
        assert_eq!(ctx.max_level(), 6);
    }

    #[test]
    fn chain_primes_congruence() {
        let p = BgvParams::test_small();
        let step = lcm(2 * p.n as u64, p.plaintext_modulus);
        for q in p.chain_primes() {
            assert_eq!(q % step, 1);
            assert_eq!(q % p.plaintext_modulus, 1);
            assert_eq!(q % (2 * p.n as u64), 1);
        }
    }

    #[test]
    fn paper_sized_ciphertext_matches_reported_size() {
        let p = BgvParams::paper_sized();
        // Two 32768-coefficient polynomials of 10 rows at 55 bits a
        // residue; the paper reports 4.3 MB.
        assert_eq!(p.ciphertext_bytes(), 2 * 10 * 32768 * 55 / 8);
        let mb = p.ciphertext_bytes() as f64 / 1e6;
        assert!((4.3..4.6).contains(&mb), "ciphertext size {mb} MB");
    }

    #[test]
    fn the_size_rule_is_the_contexts() {
        // Every chain prime has exactly `prime_bits` bits, so the size
        // computed from the parameters is the one the context packs to.
        for p in [BgvParams::test_small(), BgvParams::test_medium()] {
            let ctx = p.build_context();
            assert!(ctx.moduli().iter().all(|m| m.bits() == p.prime_bits));
            for level in 1..=p.levels {
                assert_eq!(p.poly_bytes(level), ctx.packed_bytes(level));
            }
            assert_eq!(p.ciphertext_bytes(), 2 * ctx.packed_bytes(p.levels));
        }
    }

    #[test]
    fn generality_depth_bounds() {
        // The §6.2 result: the paper-scale preset supports the ≈10
        // sequential multiplications of a 1-hop query with degree bound 10
        // but nowhere near the 100 required by the 2-hop Q1.
        let p = BgvParams::paper();
        let depth = p.max_sequential_muls();
        assert!(depth >= 10, "paper preset supports depth {depth}");
        assert!(depth < 100, "Q1 must remain infeasible, got {depth}");
        // The 550-bit (paper-sized) chain supports fewer.
        let sized = BgvParams::paper_sized().max_sequential_muls();
        assert!(sized < depth);
    }

    #[test]
    fn lcm_gcd() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(65536, 1 << 30), 1 << 30);
        assert_eq!(lcm(1 << 30, 65536), 1 << 30);
    }
}
