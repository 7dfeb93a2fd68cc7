//! Analytic noise planning for query feasibility (§6.2).
//!
//! The query planner must decide *before* running a query whether the HE
//! scheme can execute its multiplication chain — this is exactly the check
//! that makes Q1 (a 2-hop query with `d² = 100` multiplications) infeasible
//! in the paper while every other query runs. It is the only noise model:
//! ciphertexts carry none, and the tests here check it against the noise
//! [`Ciphertext::decrypt_with_noise`](crate::Ciphertext::decrypt_with_noise)
//! measures.

use crate::params::BgvParams;

/// Outcome of planning a multiplication chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainPlan {
    /// Number of sequential multiplications requested.
    pub muls: usize,
    /// Whether the chain fits the noise budget.
    pub feasible: bool,
    /// Predicted noise (log2) at the end of the chain.
    pub final_noise_log2: f64,
    /// Predicted remaining budget in bits (negative if infeasible).
    pub final_budget_bits: f64,
    /// Level the chain ends at.
    pub final_level: usize,
}

/// Plans a sequential chain of `muls` ciphertext multiplications with
/// relinearize + mod-switch after each (the §4.4 local-aggregation shape:
/// one multiplication per neighbor contribution), starting at the top of
/// the chain.
pub fn plan_chain(params: &BgvParams, muls: usize) -> ChainPlan {
    plan_chain_from(params, muls, params.levels)
}

/// [`plan_chain`] for an accumulator that starts at level `start`: every
/// relinearization and switch-down runs `params.levels − start` levels
/// lower in the chain.
pub fn plan_chain_from(params: &BgvParams, muls: usize, start: usize) -> ChainPlan {
    plan_feeds(params, muls, start, params.fresh_noise_log2())
}

/// The chain of [`plan_chain_from`] whose accumulator and operands each
/// enter with `feed_log2` bits of noise.
fn plan_feeds(params: &BgvParams, muls: usize, start: usize, feed_log2: f64) -> ChainPlan {
    let mut noise = feed_log2;
    let mut level = start;
    let log_n = (params.n as f64).log2();
    let t_log = (params.plaintext_modulus as f64).log2();
    let mut feasible = true;
    for _ in 0..muls {
        // Multiply with a feed brought down to this level.
        noise = log_n + noise + feed_log2;
        // Relinearization adds its key-switching term.
        let ks = t_log + params.prime_bits as f64 + (level as f64).log2() + log_n + 4.5;
        noise = log2_sum(noise, ks);
        // Check budget at this level before switching.
        if noise + 1.0 >= params.prime_bits as f64 * level as f64 {
            feasible = false;
            break;
        }
        // Modulus switch (if a level remains).
        if level > 1 {
            level -= 1;
            noise = switched(params, noise);
        } else {
            // No levels left: subsequent multiplications pile up raw noise.
        }
    }
    let budget = params.prime_bits as f64 * level as f64 - 1.0 - noise;
    ChainPlan {
        muls,
        feasible: feasible && budget > 0.0,
        final_noise_log2: noise,
        final_budget_bits: budget,
        final_level: level,
    }
}

/// Noise after one switch-down: divided by the dropped prime, plus the
/// rounding term.
fn switched(params: &BgvParams, noise: f64) -> f64 {
    let rounding = (params.plaintext_modulus as f64).log2() + (params.n as f64).log2();
    log2_sum(noise - params.prime_bits as f64, rounding)
}

/// The lowest level an accumulator of `muls` multiplications can start
/// at, or `None` if not even the top of the chain serves.
///
/// From the returned level the chain is feasible, and its output, switched
/// to level 1 (where every origin output is summed) and added to
/// `leaves − 1` others like it, keeps a positive budget: a sum of
/// `leaves` terms has at most `leaves` times the noise of the largest,
/// `log2(leaves)` bits more. Each operand is a sum of up to `width` fresh
/// ciphertexts (a §4.5 selected subsequence; 1 for a plain feed), so it is
/// priced at fresh + `log2(width)`. More leaves raise the start level: a chain that
/// ends higher is switched down once more before the sum, which leaves it
/// less noise.
pub fn start_level(params: &BgvParams, muls: usize, leaves: usize, width: usize) -> Option<usize> {
    let feed = params.fresh_noise_log2() + (width.max(1) as f64).log2();
    let headroom = (leaves.max(1) as f64).log2();
    (1..=params.levels).find(|&start| {
        let chain = plan_feeds(params, muls, start, feed);
        let at_bottom =
            (1..chain.final_level).fold(chain.final_noise_log2, |noise, _| switched(params, noise));
        chain.feasible && params.prime_bits as f64 - 1.0 - (at_bottom + headroom) > 0.0
    })
}

/// Number of homomorphic multiplications a `k`-hop query with degree bound
/// `d` performs along one root-to-leaf aggregation path (the paper counts
/// `d^k`: Q1 with `d = 10`, `k = 2` needs 100).
pub fn query_mul_count(degree_bound: usize, hops: usize) -> usize {
    degree_bound.pow(hops as u32)
}

/// `log2(2^a + 2^b)` without overflow.
pub(crate) fn log2_sum(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + 2f64.powf(lo - hi)).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_muls_is_fresh() {
        let p = BgvParams::test_small();
        let plan = plan_chain(&p, 0);
        assert!(plan.feasible);
        assert_eq!(plan.final_level, p.levels);
        assert!((plan.final_noise_log2 - p.fresh_noise_log2()).abs() < 1e-9);
    }

    #[test]
    fn budget_decreases_with_depth() {
        let p = BgvParams::test_medium();
        let mut last = f64::INFINITY;
        for muls in 0..6 {
            let plan = plan_chain(&p, muls);
            assert!(plan.final_budget_bits < last);
            last = plan.final_budget_bits;
        }
    }

    #[test]
    fn paper_generality_result() {
        // §6.2: every 1-hop query (≤ d = 10 multiplications) runs; the
        // 2-hop Q1 (100 multiplications) exceeds the noise budget.
        let p = BgvParams::paper();
        let feasible = |hops| plan_chain(&p, query_mul_count(10, hops)).feasible;
        assert!(feasible(1), "1-hop queries must be feasible");
        assert!(!feasible(2), "Q1 must be infeasible");
    }

    #[test]
    fn mul_counts() {
        assert_eq!(query_mul_count(10, 1), 10);
        assert_eq!(query_mul_count(10, 2), 100);
        assert_eq!(query_mul_count(3, 3), 27);
    }

    #[test]
    fn infeasible_chain_reports_negative_budget() {
        let p = BgvParams::test_small();
        let plan = plan_chain(&p, 100);
        assert!(!plan.feasible);
        assert!(plan.final_budget_bits < 0.0);
    }

    #[test]
    fn deeper_chains_need_more_levels() {
        let mut p = BgvParams::test_medium();
        let shallow = plan_chain(&p, 3);
        assert!(shallow.feasible);
        p.levels = 3;
        let constrained = plan_chain(&p, 3);
        assert!(!constrained.feasible || constrained.final_budget_bits < shallow.final_budget_bits);
    }

    fn presets() -> [BgvParams; 4] {
        [
            BgvParams::test_small(),
            BgvParams::test_medium(),
            BgvParams::paper_sized(),
            BgvParams::paper(),
        ]
    }

    #[test]
    fn chain_from_the_top_is_plan_chain() {
        for p in presets() {
            for m in 0..=12 {
                assert_eq!(plan_chain_from(&p, m, p.levels), plan_chain(&p, m));
            }
        }
    }

    #[test]
    fn start_level_is_the_lowest_feasible_level() {
        for p in presets() {
            for m in 0..=12 {
                let Some(s) = start_level(&p, m, 1, 1) else {
                    assert!(!plan_chain(&p, m).feasible, "m {m}: the top serves");
                    continue;
                };
                assert!(plan_chain_from(&p, m, s).feasible, "m {m} from {s}");
                assert!(
                    s == 1 || !plan_chain_from(&p, m, s - 1).feasible,
                    "m {m}: {s} is not the lowest"
                );
            }
        }
    }

    #[test]
    fn a_chain_of_m_muls_starts_at_m_plus_one_at_test_small() {
        // The noise after a multiply-relinearize-switch step does not
        // depend on the level, so the lowest start leaves one level per
        // multiplication and ends at the bottom.
        let p = BgvParams::test_small();
        assert_eq!(start_level(&p, 0, 24, 1), Some(1));
        for m in 1..p.levels {
            assert_eq!(start_level(&p, m, 24, 1), Some(m + 1), "m {m}");
            assert_eq!(plan_chain_from(&p, m, m + 1).final_level, 1);
        }
    }

    #[test]
    fn many_leaves_raise_the_start_level() {
        let p = BgvParams::test_small();
        // Level 1 holds a chain's output with ≈ 13 bits to spare.
        assert_eq!(start_level(&p, 3, 1 << 13, 1), Some(4));
        assert_eq!(start_level(&p, 3, 1 << 14, 1), Some(5));
        // Past what even the top of the chain can sum, there is no start.
        assert_eq!(start_level(&p, 3, usize::MAX, 1), None);
    }

    #[test]
    fn wide_feeds_cost_headroom() {
        let p = BgvParams::test_medium();
        let leaves = (0..20)
            .map(|k| 1 << k)
            .find(|&n| start_level(&p, 3, n, 1) != start_level(&p, 3, n, 16))
            .expect("a width of 16 shows before the leaves run out");
        assert!(start_level(&p, 3, leaves, 16) > start_level(&p, 3, leaves, 1));
    }

    /// Runs `f` feeds of `x^1` the way an origin accumulator does — the
    /// first switched to the planned start, every further one switched to
    /// the accumulator's level, multiplied, relinearized and switched down
    /// — and checks the product decrypts exactly, within the plan's noise.
    fn real_chain_within_plan(p: &BgvParams, f: usize) {
        use crate::ciphertext::{Ciphertext, Plaintext};
        use crate::keys::KeySet;
        use mycelium_math::rng::{SeedableRng, StdRng};

        let muls = f - 1;
        let start = start_level(p, muls, 1, 1).expect("feasible");
        let plan = plan_chain_from(p, muls, start);
        let mut rng = StdRng::seed_from_u64(f as u64);
        // The keys get a stream of their own: they draw on after the
        // secret and public keys, and only at the levels the chain reads.
        let keys = KeySet::generate_deferred(p, &mut rng.clone().with_stream(1));
        let mut x = vec![0u64; p.n];
        x[1] = 1;
        let x = Plaintext::new(x, p.plaintext_modulus).unwrap();
        let mut feed = || Ciphertext::encrypt(&keys.public, &x, &mut rng).unwrap();
        let mut acc = feed().mod_switch_to(start).unwrap();
        for _ in 0..muls {
            let fresh = feed().mod_switch_to(acc.level()).unwrap();
            acc = acc.mul(&fresh).unwrap().relinearize(&keys.relin).unwrap();
            if acc.level() > 1 {
                acc = acc.mod_switch_down().unwrap();
            }
        }
        assert_eq!(acc.level(), plan.final_level, "f {f}");
        let (pt, measured, _) = acc.decrypt_with_noise(&keys.secret);
        let mut want = vec![0u64; p.n];
        want[f] = 1;
        assert_eq!(pt.coeffs(), want.as_slice(), "f {f}: x^{f}");
        assert!(
            measured <= plan.final_noise_log2,
            "f {f}: measured {measured} above the plan's {}",
            plan.final_noise_log2
        );
    }

    #[test]
    fn planned_chains_decrypt_within_the_plan_at_test_small() {
        for f in 1..=6 {
            real_chain_within_plan(&BgvParams::test_small(), f);
        }
    }

    #[test]
    fn planned_chains_decrypt_within_the_plan_at_test_medium() {
        for f in 1..=4 {
            real_chain_within_plan(&BgvParams::test_medium(), f);
        }
    }
}
