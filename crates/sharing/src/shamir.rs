//! Shamir secret sharing over word-sized prime fields.
//!
//! A `(t, n)` sharing hides the secret as the constant term of a random
//! degree-`t` polynomial; any `t + 1` shares reconstruct it by Lagrange
//! interpolation and any `t` shares reveal nothing. The BGV secret key —
//! an RNS ring element — is shared coefficient-wise over each chain prime
//! (the MPC field is the share field, as in the paper's SCALE-MAMBA setup,
//! §5), which is what lets committee members compute *decryption shares*
//! without reconstructing the key (see [`crate::threshold`]).

use mycelium_math::rng::Rng;
use mycelium_math::rns::{Representation, RnsPoly};
use mycelium_math::zq::Modulus;

/// One party's share: the evaluation of the sharing polynomial at `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point (the party index, nonzero).
    pub x: u64,
    /// Share value `f(x)`.
    pub y: u64,
}

/// Splits `secret` into `n` shares with threshold `t` (any `t + 1`
/// reconstruct).
///
/// # Panics
///
/// Panics if `t + 1 > n`, `n == 0`, or `n >= q`.
pub fn share<R: Rng + ?Sized>(
    secret: u64,
    t: usize,
    n: usize,
    modulus: Modulus,
    rng: &mut R,
) -> Vec<Share> {
    assert!(n > 0 && t < n, "invalid threshold parameters");
    assert!(
        (n as u64) < modulus.value(),
        "too many parties for the field"
    );
    let mut coeffs = Vec::with_capacity(t + 1);
    coeffs.push(modulus.reduce(secret));
    for _ in 0..t {
        coeffs.push(rng.gen_range(0..modulus.value()));
    }
    (1..=n as u64)
        .map(|x| Share {
            x,
            y: eval_poly(&coeffs, x, modulus),
        })
        .collect()
}

/// Evaluates the sharing polynomial at `x` (Horner).
pub fn eval_poly(coeffs: &[u64], x: u64, modulus: Modulus) -> u64 {
    let x = modulus.reduce(x);
    coeffs
        .iter()
        .rev()
        .fold(0u64, |acc, &c| modulus.mul_add(acc, x, c))
}

/// Reconstructs the secret (`f(0)`) from at least `t + 1` shares.
///
/// Returns `None` if shares have duplicate `x` coordinates or a zero
/// coordinate.
pub fn reconstruct(shares: &[Share], modulus: Modulus) -> Option<u64> {
    let xs: Vec<u64> = shares.iter().map(|s| s.x).collect();
    let lambda = lagrange_at_zero(&xs, modulus)?;
    let mut acc = 0u64;
    for (s, &l) in shares.iter().zip(&lambda) {
        acc = modulus.add(acc, modulus.mul(l, modulus.reduce(s.y)));
    }
    Some(acc)
}

/// Computes the Lagrange coefficients `λ_i = Π_{j≠i} x_j / (x_j - x_i)`
/// for interpolation at zero.
///
/// Returns `None` on duplicate or zero evaluation points.
pub fn lagrange_at_zero(xs: &[u64], modulus: Modulus) -> Option<Vec<u64>> {
    for (i, &xi) in xs.iter().enumerate() {
        if xi == 0 || xs[..i].contains(&xi) {
            return None;
        }
    }
    let mut out = Vec::with_capacity(xs.len());
    for (i, &xi) in xs.iter().enumerate() {
        let mut num = 1u64;
        let mut den = 1u64;
        for (j, &xj) in xs.iter().enumerate() {
            if i == j {
                continue;
            }
            let xj_r = modulus.reduce(xj);
            let xi_r = modulus.reduce(xi);
            num = modulus.mul(num, xj_r);
            den = modulus.mul(den, modulus.sub(xj_r, xi_r));
        }
        out.push(modulus.mul(num, modulus.inv(den)?));
    }
    Some(out)
}

/// A `(t, n)` sharing of an entire RNS ring element: every coefficient of
/// every residue polynomial is shared independently, and party `i`'s share
/// is itself an [`RnsPoly`].
///
/// This is exactly the form committee members need: the linearity of
/// Shamir sharing means `[c1 · s]_i = c1 · [s]_i` — the partial decryption
/// each member computes locally.
#[derive(Debug, Clone)]
pub struct RnsShares {
    /// `shares[i]` is party `i+1`'s share (evaluation point `i+1`).
    pub shares: Vec<RnsPoly>,
    /// Reconstruction threshold: `t + 1` shares are needed.
    pub threshold: usize,
}

/// Shares an RNS ring element coefficient-wise.
///
/// The input must be in coefficient representation.
///
/// # Panics
///
/// Panics on invalid threshold parameters or NTT-domain input.
pub fn share_rns<R: Rng + ?Sized>(value: &RnsPoly, t: usize, n: usize, rng: &mut R) -> RnsShares {
    assert_eq!(
        value.representation(),
        Representation::Coefficient,
        "share_rns requires coefficient representation"
    );
    assert!(n > 0 && t < n, "invalid threshold parameters");
    let ctx = value.context().clone();
    let level = value.level();
    let degree = ctx.degree();
    let mut per_party: Vec<Vec<Vec<u64>>> = vec![Vec::with_capacity(level); n];
    for (prime_idx, residues) in value.residues().iter().enumerate() {
        let m = ctx.moduli()[prime_idx];
        let mut party_res: Vec<Vec<u64>> = vec![Vec::with_capacity(degree); n];
        for &coeff in residues {
            // One random polynomial per coefficient.
            let mut coeffs = Vec::with_capacity(t + 1);
            coeffs.push(coeff);
            for _ in 0..t {
                coeffs.push(rng.gen_range(0..m.value()));
            }
            for (party, res) in party_res.iter_mut().enumerate() {
                res.push(eval_poly(&coeffs, party as u64 + 1, m));
            }
        }
        for (party, res) in party_res.into_iter().enumerate() {
            per_party[party].push(res);
        }
    }
    let shares = per_party
        .into_iter()
        .map(|residues| RnsPoly::from_residues(ctx.clone(), Representation::Coefficient, residues))
        .collect();
    RnsShares {
        shares,
        threshold: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_math::rng::{SeedableRng, StdRng};
    use mycelium_math::rns::RnsContext;

    /// The oracle for [`share_rns`]: reconstructs an RNS ring element from
    /// `(party_index, share)` pairs (1-based indices).
    ///
    /// Returns `None` with fewer than `threshold + 1` shares or duplicate
    /// indices. `threshold` is the `t` used at sharing time.
    fn reconstruct_rns(indexed_shares: &[(u64, &RnsPoly)], threshold: usize) -> Option<RnsPoly> {
        if indexed_shares.len() < threshold + 1 {
            return None;
        }
        let ctx = indexed_shares[0].1.context().clone();
        let level = indexed_shares[0].1.level();
        let xs: Vec<u64> = indexed_shares.iter().map(|(x, _)| *x).collect();
        let degree = ctx.degree();
        let mut residues = Vec::with_capacity(level);
        for prime_idx in 0..level {
            let m = ctx.moduli()[prime_idx];
            let lambda = lagrange_at_zero(&xs, m)?;
            let mut res = vec![0u64; degree];
            for ((_, sh), &l) in indexed_shares.iter().zip(&lambda) {
                for (c, out) in sh.residues()[prime_idx].iter().zip(res.iter_mut()) {
                    *out = m.add(*out, m.mul(l, *c));
                }
            }
            residues.push(res);
        }
        Some(RnsPoly::from_residues(
            ctx,
            Representation::Coefficient,
            residues,
        ))
    }

    fn field() -> Modulus {
        Modulus::new_prime(2_147_483_647).unwrap() // 2^31 - 1.
    }

    #[test]
    fn share_and_reconstruct() {
        let q = field();
        let mut rng = StdRng::seed_from_u64(1);
        for secret in [0u64, 1, 42, 2_147_483_646] {
            let shares = share(secret, 3, 10, q, &mut rng);
            assert_eq!(shares.len(), 10);
            assert_eq!(reconstruct(&shares[..4], q), Some(secret));
            assert_eq!(reconstruct(&shares[3..8], q), Some(secret));
            // All ten work too.
            assert_eq!(reconstruct(&shares, q), Some(secret));
        }
    }

    #[test]
    fn insufficient_shares_give_wrong_secret() {
        // With only t shares the interpolation yields a value that is (with
        // overwhelming probability) not the secret — and crucially, *any*
        // secret is consistent with t shares.
        let q = field();
        let mut rng = StdRng::seed_from_u64(2);
        let secret = 123456;
        let shares = share(secret, 4, 10, q, &mut rng);
        let wrong = reconstruct(&shares[..4], q).unwrap();
        assert_ne!(wrong, secret);
    }

    #[test]
    fn duplicate_points_rejected() {
        let q = field();
        let s = Share { x: 1, y: 5 };
        assert_eq!(reconstruct(&[s, s], q), None);
        assert_eq!(reconstruct(&[Share { x: 0, y: 1 }], q), None);
    }

    #[test]
    fn lagrange_sums_correctly() {
        // For the constant polynomial f == c, every share is c, and the
        // lagrange coefficients must sum to 1.
        let q = field();
        let xs = [1u64, 5, 9, 2];
        let lambda = lagrange_at_zero(&xs, q).unwrap();
        let sum = lambda.iter().fold(0u64, |a, &l| q.add(a, l));
        assert_eq!(sum, 1);
    }

    #[test]
    fn rns_share_roundtrip() {
        let ctx = RnsContext::with_primes(16, 30, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let value = mycelium_math::sample::uniform_rns(&ctx, 3, &mut rng);
        let sharing = share_rns(&value, 2, 5, &mut rng);
        assert_eq!(sharing.shares.len(), 5);
        let picked: Vec<(u64, &RnsPoly)> = [0usize, 2, 4]
            .iter()
            .map(|&i| (i as u64 + 1, &sharing.shares[i]))
            .collect();
        let rec = reconstruct_rns(&picked, sharing.threshold).unwrap();
        assert_eq!(rec, value);
    }

    #[test]
    fn rns_too_few_shares() {
        let ctx = RnsContext::with_primes(8, 30, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let value = mycelium_math::sample::uniform_rns(&ctx, 2, &mut rng);
        let sharing = share_rns(&value, 2, 5, &mut rng);
        let picked: Vec<(u64, &RnsPoly)> = [0usize, 1]
            .iter()
            .map(|&i| (i as u64 + 1, &sharing.shares[i]))
            .collect();
        assert!(reconstruct_rns(&picked, sharing.threshold).is_none());
    }

    #[test]
    fn shares_are_linear() {
        // [a]_i + [b]_i is a valid share of a + b — the property threshold
        // decryption relies on.
        let ctx = RnsContext::with_primes(8, 30, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let a = mycelium_math::sample::uniform_rns(&ctx, 2, &mut rng);
        let b = mycelium_math::sample::uniform_rns(&ctx, 2, &mut rng);
        let sa = share_rns(&a, 1, 4, &mut rng);
        let sb = share_rns(&b, 1, 4, &mut rng);
        let sum_shares: Vec<RnsPoly> = sa
            .shares
            .iter()
            .zip(&sb.shares)
            .map(|(x, y)| x.add(y))
            .collect();
        let picked: Vec<(u64, &RnsPoly)> = [0usize, 1, 3]
            .iter()
            .map(|&i| (i as u64 + 1, &sum_shares[i]))
            .collect();
        assert_eq!(reconstruct_rns(&picked, 1).unwrap(), a.add(&b));
    }

    #[test]
    #[should_panic(expected = "invalid threshold")]
    fn threshold_must_fit() {
        let q = field();
        let mut rng = StdRng::seed_from_u64(6);
        let _ = share(1, 5, 5, q, &mut rng);
    }
}
