//! Committee election, the Shamir threshold, and the Figure 8 probability
//! curves.
//!
//! Mycelium elects a small committee of user devices per query to hold the
//! decryption key (§4.2). Figure 8 of the paper (whose equations come from
//! the Honeycrisp authors) quantifies the committee-size trade-off:
//!
//! * **privacy failure** — enough malicious members end up on the committee
//!   to reconstruct the secret key (a majority, given the `t ≥ c/2`
//!   threshold of §5), and
//! * **liveness failure** — too few members are honest *and online* to
//!   reach the `t + 1` quorum for decryption.
//!
//! Both are binomial tail probabilities in the committee size `c`.

use mycelium_crypto::kdf::prf_range;

/// Elects `c` distinct committee members from `n` devices using a public
/// random seed (e.g. the bulletin-board beacon), so that the aggregator
/// cannot bias the choice.
///
/// # Panics
///
/// Panics if `c > n`.
pub fn elect(n: u64, c: usize, seed: &[u8]) -> Vec<u64> {
    assert!(c as u64 <= n, "committee larger than the population");
    let mut members = Vec::with_capacity(c);
    let mut counter = 0u64;
    while members.len() < c {
        let pick = prf_range(seed, b"committee-election", counter, n);
        counter += 1;
        if !members.contains(&pick) {
            members.push(pick);
        }
    }
    members
}

/// The Shamir threshold `t = ⌊c/2⌋` of a committee of `c` members: any
/// `t + 1` of them, a majority, decrypt (§5).
pub const fn threshold(c: usize) -> usize {
    c / 2
}

/// Binomial probability mass `P[X = k]` for `X ~ Bin(n, p)`.
pub fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    if k > n {
        return 0.0;
    }
    // Work in log space for numerical stability.
    let mut log = 0.0f64;
    for i in 0..k {
        log += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    if p > 0.0 {
        log += k as f64 * p.ln();
    } else if k > 0 {
        return 0.0;
    }
    if p < 1.0 {
        log += (n - k) as f64 * (1.0 - p).ln();
    } else if k < n {
        return 0.0;
    }
    log.exp()
}

/// Upper-tail probability `P[X ≥ k]` for `X ~ Bin(n, p)`.
pub fn binomial_tail_ge(n: usize, k: usize, p: f64) -> f64 {
    (k..=n).map(|i| binomial_pmf(n, i, p)).sum()
}

/// Figure 8(a): probability that a committee of size `c`, drawn from a
/// population with malicious fraction `malice`, contains enough malicious
/// members (a majority, `⌊c/2⌋ + 1`) to reconstruct the secret key.
pub fn privacy_failure_probability(c: usize, malice: f64) -> f64 {
    binomial_tail_ge(c, threshold(c) + 1, malice)
}

/// Figure 8(b): probability that at least `⌊c/2⌋ + 1` members are honest
/// and online (each member is independently faulty — malicious or offline —
/// with probability `fault`), so the decryption quorum can be met.
pub fn liveness_probability(c: usize, fault: f64) -> f64 {
    binomial_tail_ge(c, threshold(c) + 1, 1.0 - fault)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn election_is_deterministic_and_distinct() {
        let a = elect(1000, 10, b"beacon-1");
        let b = elect(1000, 10, b"beacon-1");
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "members must be distinct");
        assert!(a.iter().all(|&m| m < 1000));
        assert_ne!(a, elect(1000, 10, b"beacon-2"));
    }

    #[test]
    fn election_full_population() {
        let mut all = elect(5, 5, b"x");
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(10usize, 0.3), (25, 0.02), (40, 0.97)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn pmf_edge_cases() {
        assert_eq!(binomial_pmf(5, 6, 0.5), 0.0);
        assert!((binomial_pmf(5, 0, 0.0) - 1.0).abs() < 1e-12);
        assert!((binomial_pmf(5, 5, 1.0) - 1.0).abs() < 1e-12);
        assert_eq!(binomial_pmf(5, 3, 0.0), 0.0);
        assert_eq!(binomial_pmf(5, 3, 1.0), 0.0);
    }

    #[test]
    fn privacy_failure_monotonic() {
        // More malice → more failures; bigger committee → fewer.
        let f1 = privacy_failure_probability(10, 0.01);
        let f2 = privacy_failure_probability(10, 0.04);
        assert!(f2 > f1);
        let f3 = privacy_failure_probability(30, 0.04);
        assert!(f3 < f2);
        // With 2% malice and c=10, failure needs 6 of 10 malicious — tiny.
        assert!(privacy_failure_probability(10, 0.02) < 1e-7);
    }

    #[test]
    fn liveness_behaviour() {
        // With no faults, liveness is certain.
        assert!((liveness_probability(10, 0.0) - 1.0).abs() < 1e-12);
        // Realistic fault rates keep liveness high.
        assert!(liveness_probability(10, 0.05) > 0.999);
        // Extreme churn hurts.
        assert!(liveness_probability(10, 0.6) < 0.5);
        // Larger committees tolerate churn better at fixed fault rate.
        assert!(liveness_probability(40, 0.2) > liveness_probability(10, 0.2));
    }

    #[test]
    fn figure8_shape() {
        // Reproduce the qualitative Figure 8(a) shape: log-probability
        // decreasing in c for every malice rate on the paper's x-axis.
        for &malice in &[0.005, 0.01, 0.02, 0.04] {
            let mut last = 1.0f64;
            for &c in &[10usize, 20, 30, 40] {
                let p = privacy_failure_probability(c, malice);
                assert!(p < last, "c={c} malice={malice}");
                last = p;
            }
        }
    }
}
