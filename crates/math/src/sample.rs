//! Randomness: the lattice samplers.
//!
//! Lattice cryptography needs three distributions — uniform over `R_Q`,
//! ternary secrets, and discrete Gaussian noise. All samplers take a
//! caller-supplied [`crate::rng::Rng`] so that tests can be deterministic.

use std::sync::Arc;

use crate::rng::Rng;

use crate::rns::{Representation, RnsContext, RnsPoly};

/// Samples a uniform element of `R_{Q_l}` (independent uniform residues per
/// prime, which is exactly uniform modulo `Q_l` by CRT). The result is in
/// coefficient representation.
pub fn uniform_rns<R: Rng + ?Sized>(ctx: &Arc<RnsContext>, level: usize, rng: &mut R) -> RnsPoly {
    let n = ctx.degree();
    let residues: Vec<Vec<u64>> = ctx.moduli()[..level]
        .iter()
        .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
        .collect();
    RnsPoly::from_residues(ctx.clone(), Representation::Coefficient, residues)
}

/// Samples ternary coefficients in `{-1, 0, 1}` (each with probability 1/3),
/// the standard BGV secret-key distribution.
///
/// Draws 2-bit candidates from the keystream and rejects the `11` pattern,
/// which is exactly uniform over three values at an expected ~2.7 bits per
/// coefficient — the sampler is on the encrypt hot path, so it avoids the
/// one-word-per-coefficient cost of `gen_range`.
pub fn ternary_coeffs<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<i64> {
    // Candidates go a byte (four of them) at a time: `TERNARY_BYTES[b]`
    // holds how many of byte b's 2-bit fields survive the rejection and
    // their values, low field first. The stream consumed and the
    // coefficients produced are those of the field-by-field loop; the
    // fields of the last word past the n-th coefficient are dropped, as
    // there.
    let mut out = Vec::with_capacity(n + 4);
    while out.len() < n {
        for b in rng.next_u64().to_le_bytes() {
            let (kept, vals) = TERNARY_BYTES[b as usize];
            out.extend(vals.iter().map(|&v| v as i64));
            out.truncate(out.len() - (4 - kept as usize));
        }
    }
    out.truncate(n);
    out
}

/// Per byte of keystream: the number of 2-bit fields that are not `11`,
/// and those fields minus one, in order, zero-padded.
static TERNARY_BYTES: [(u8, [i8; 4]); 256] = {
    let mut table = [(0u8, [0i8; 4]); 256];
    let mut b = 0;
    while b < 256 {
        let mut field = 0;
        while field < 4 {
            let bits = (b >> (2 * field)) & 3;
            if bits != 3 {
                let kept = table[b].0 as usize;
                table[b].1[kept] = bits as i8 - 1;
                table[b].0 += 1;
            }
            field += 1;
        }
        b += 1;
    }
    table
};

/// Samples discrete Gaussian coefficients distributed as the *rounding* of
/// a continuous Gaussian of standard deviation `sigma` (the common approach
/// in HE libraries; tail cut at `6·sigma`, with the tail mass collapsed
/// onto `±cut` exactly as a round-then-clamp would).
///
/// Implemented by inverting a cumulative distribution table (one uniform
/// word, one guide-table lookup and a short scan per coefficient) rather
/// than running Box–Muller per sample: the distribution is identical, but
/// the hot encrypt path pays no transcendentals. Tables are cached per
/// `sigma`.
pub fn gaussian_coeffs<R: Rng + ?Sized>(n: usize, sigma: f64, rng: &mut R) -> Vec<i64> {
    let table = gaussian_table(sigma);
    let cdf = &table.cdf[..];
    let cut = (cdf.len() as i64 - 1) / 2;
    (0..n)
        .map(|_| {
            let r = rng.next_u64();
            // Smallest k with r < cdf[k], i.e. the number of thresholds
            // ≤ r: those at or below r's top byte come from the guide
            // table, the handful inside it (usually none) from a short
            // scan. The min() folds the probability-2^-64 draw
            // r = u64::MAX onto the top bucket.
            let mut k = table.guide[(r >> 56) as usize] as usize;
            while k < cdf.len() && cdf[k] <= r {
                k += 1;
            }
            k.min(cdf.len() - 1) as i64 - cut
        })
        .collect()
}

/// Cumulative thresholds for the rounded-Gaussian sampler: entry `k` holds
/// `round(2^64 · Pr[X ≤ k - cut])`, so `partition_point(cdf[i] <= r)` on a
/// uniform `r` inverts the CDF. The final entry is pinned to `u64::MAX` so
/// every draw lands in range.
struct GaussianTable {
    cdf: Vec<u64>,
    /// `guide[b]` = number of thresholds `≤ b·2^56`: where the inversion of
    /// a draw with top byte `b` starts.
    guide: [u16; 256],
}

fn gaussian_table(sigma: f64) -> Arc<GaussianTable> {
    use std::sync::{Mutex, OnceLock};
    type TableCache = Mutex<Vec<(u64, Arc<GaussianTable>)>>;
    static CACHE: OnceLock<TableCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let key = sigma.to_bits();
    let mut guard = cache.lock().unwrap();
    if let Some((_, t)) = guard.iter().find(|(k, _)| *k == key) {
        return Arc::clone(t);
    }
    let cut = (6.0 * sigma).ceil() as i64;
    let phi = |x: f64| 0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2));
    let mut cdf = Vec::with_capacity((2 * cut + 1) as usize);
    for k in -cut..=cut {
        // Pr[X ≤ k] for X = clamp(round(N(0, σ²))): the interval
        // (-∞, k+1/2] of the continuous Gaussian, with both tails folded
        // onto ±cut by the clamp.
        let p = if k == cut {
            1.0
        } else {
            phi((k as f64 + 0.5) / sigma)
        };
        let scaled = (p * 18_446_744_073_709_551_616.0).min(u64::MAX as f64);
        cdf.push(if k == cut { u64::MAX } else { scaled as u64 });
    }
    let guide = std::array::from_fn(|b| cdf.partition_point(|&x| x <= (b as u64) << 56) as u16);
    let table = Arc::new(GaussianTable { cdf, guide });
    guard.push((key, Arc::clone(&table)));
    table
}

/// Error function via the Abramowitz–Stegun 7.1.26 rational approximation
/// (absolute error ≤ 1.5e-7 — far below the 2^-64 CDT quantization).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Samples Gaussian noise directly as an [`RnsPoly`] in coefficient
/// representation at the given level.
pub fn gaussian_rns<R: Rng + ?Sized>(
    ctx: &Arc<RnsContext>,
    level: usize,
    sigma: f64,
    rng: &mut R,
) -> RnsPoly {
    let coeffs = gaussian_coeffs(ctx.degree(), sigma, rng);
    RnsPoly::from_signed(ctx.clone(), level, &coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SeedableRng, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn uniform_rns_is_in_range_and_varies() {
        let ctx = RnsContext::with_primes(64, 30, 2).unwrap();
        let mut r = rng();
        let a = uniform_rns(&ctx, 2, &mut r);
        let b = uniform_rns(&ctx, 2, &mut r);
        assert_ne!(a, b);
        for (i, res) in a.residues().iter().enumerate() {
            let q = ctx.moduli()[i].value();
            assert!(res.iter().all(|&x| x < q));
        }
    }

    #[test]
    fn ternary_values_and_balance() {
        let mut r = rng();
        let c = ternary_coeffs(30_000, &mut r);
        assert!(c.iter().all(|&x| (-1..=1).contains(&x)));
        let count_pos = c.iter().filter(|&&x| x == 1).count() as f64;
        let count_neg = c.iter().filter(|&&x| x == -1).count() as f64;
        let count_zero = c.iter().filter(|&&x| x == 0).count() as f64;
        for count in [count_pos, count_neg, count_zero] {
            assert!((count / 30_000.0 - 1.0 / 3.0).abs() < 0.02);
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = rng();
        let sigma = 3.2;
        let c = gaussian_coeffs(50_000, sigma, &mut r);
        let mean = c.iter().sum::<i64>() as f64 / c.len() as f64;
        let var = c.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / c.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.2, "std {}", var.sqrt());
        let cut = (6.0 * sigma).ceil() as i64;
        assert!(c.iter().all(|&x| x.abs() <= cut));
    }

    #[test]
    fn deterministic_under_seed() {
        let ctx = RnsContext::with_primes(16, 30, 1).unwrap();
        let a = uniform_rns(&ctx, 1, &mut StdRng::seed_from_u64(42));
        let b = uniform_rns(&ctx, 1, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
