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
        .map(|m| {
            let mut residue = vec![0u64; n];
            uniform_below(m.value(), &mut residue, rng);
            residue
        })
        .collect();
    RnsPoly::from_residues(ctx.clone(), Representation::Coefficient, residues)
}

/// Fills `out` with uniform values below `q` (`q > 0`): the values of
/// `out.len()` calls of `rng.gen_range(0..q)`, leaving the stream where
/// they would.
///
/// `gen_range` rejects a word above the largest multiple of `q` that fits
/// (`zone`) and draws the next one for the same value. Here the words come
/// in blocks through [`RngCore::fill_u64`], each as long as the values
/// still missing — never a word more than the loop would take — and are
/// kept, in order, where they pass the same test: a rejected word's
/// replacement is the next word, as there. The reduction is a Barrett
/// step on `floor(2^64 / q)` instead of a division.
///
/// [`RngCore::fill_u64`]: crate::rng::RngCore::fill_u64
pub fn uniform_below<R: Rng + ?Sized>(q: u64, out: &mut [u64], rng: &mut R) {
    assert!(q > 0, "cannot sample below 0");
    if q.is_power_of_two() {
        rng.fill_u64(out);
        out.iter_mut().for_each(|v| *v &= q - 1);
        return;
    }
    let zone = u64::MAX - (u64::MAX - q + 1) % q;
    // floor((2^64 - 1) / q) = floor(2^64 / q) when q is no power of two.
    let ratio = u64::MAX / q;
    // The estimate is the quotient or one below it: one correction.
    let reduce = |v: u64| {
        let r = v - ((v as u128 * ratio as u128) >> 64) as u64 * q;
        if r >= q {
            r - q
        } else {
            r
        }
    };
    let mut filled = 0;
    while filled < out.len() {
        rng.fill_u64(&mut out[filled..]);
        let mut kept = filled;
        for read in filled..out.len() {
            let v = out[read];
            if v <= zone {
                out[kept] = reduce(v);
                kept += 1;
            }
        }
        filled = kept;
    }
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
/// `sigma`. The `n` words come from one [`RngCore::fill_u64`] — the words
/// `n` calls of `next_u64` would return — into the buffer that then
/// holds the coefficients.
///
/// [`RngCore::fill_u64`]: crate::rng::RngCore::fill_u64
pub fn gaussian_coeffs<R: Rng + ?Sized>(n: usize, sigma: f64, rng: &mut R) -> Vec<i64> {
    let table = gaussian_table(sigma);
    let cdf = &table.cdf[..];
    let cut = (cdf.len() as i64 - 1) / 2;
    let mut words = vec![0u64; n];
    rng.fill_u64(&mut words);
    // Same size and alignment: the collect reuses the words' allocation.
    words
        .into_iter()
        .map(|r| {
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
    use crate::rng::{RngCore, SeedableRng, StdRng};

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

    /// FIPS 180-4 SHA-256, one block at a time.
    fn sha256(data: &[u8]) -> String {
        const K: [u32; 64] = [
            0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
            0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
            0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
            0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
            0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
            0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
            0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
            0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
            0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
            0xc67178f2,
        ];
        let mut h: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        let mut msg = data.to_vec();
        msg.push(0x80);
        msg.resize(msg.len().div_ceil(64) * 64, 0);
        if msg.len() - data.len() < 9 {
            msg.resize(msg.len() + 64, 0);
        }
        let bits = (data.len() as u64 * 8).to_be_bytes();
        let at = msg.len() - 8;
        msg[at..].copy_from_slice(&bits);
        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 64];
            for i in 0..64 {
                w[i] = if i < 16 {
                    u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap())
                } else {
                    let s0 =
                        w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                    let s1 =
                        w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                    w[i - 16]
                        .wrapping_add(s0)
                        .wrapping_add(w[i - 7])
                        .wrapping_add(s1)
                };
            }
            let mut v = h;
            for i in 0..64 {
                let s1 = v[4].rotate_right(6) ^ v[4].rotate_right(11) ^ v[4].rotate_right(25);
                let ch = (v[4] & v[5]) ^ (!v[4] & v[6]);
                let t1 = v[7]
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = v[0].rotate_right(2) ^ v[0].rotate_right(13) ^ v[0].rotate_right(22);
                let maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
                v.rotate_right(1);
                v[4] = v[4].wrapping_add(t1);
                v[0] = t1.wrapping_add(s0).wrapping_add(maj);
            }
            for (x, y) in h.iter_mut().zip(v) {
                *x = x.wrapping_add(y);
            }
        }
        h.iter().map(|x| format!("{x:08x}")).collect()
    }

    #[test]
    fn sampler_outputs_are_pinned() {
        // The hash itself, on the FIPS 180-2 two-block vector.
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A sampler change that moves a coefficient fails here, before it
        // reaches a ciphertext golden.
        let digest =
            |c: &[i64]| sha256(&c.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>());
        let mut r = StdRng::seed_from_u64(0x5A3D1E);
        let gaussian = gaussian_coeffs(4096, 3.2, &mut r);
        let ternary = ternary_coeffs(4096, &mut r);
        assert_eq!(
            digest(&gaussian),
            "c7e4b2d2325ffc3dab434669fbe2e4f4508734550d9fc0cdb9a0999a1a70409d"
        );
        assert_eq!(
            digest(&ternary),
            "458315399403c2bcf8eaf8bd52ef011d0ad20765c797cd8c9f3e547cfe40c4c2"
        );
    }

    #[test]
    fn bulk_uniform_equals_the_gen_range_loop() {
        // `test_small`'s first chain prime (40 bits, ≡ 1 mod 2048;
        // rejection ≈ 2^-24) and a modulus just above 2^63 (rejection
        // ≈ 1/2), on lengths that end mid-block and after byte-wise reads
        // that leave the stream unaligned.
        let prime = crate::zq::primes_congruent(40, 2048, 1)[0];
        for q in [prime, (1 << 63) + 29, 1 << 20, 3] {
            for (len, skew) in [(0, 0), (1, 0), (7, 3), (1024, 0), (4099, 5)] {
                let mut bulk = rng();
                let mut looped = rng();
                bulk.fill(&mut vec![0u8; skew]);
                looped.fill(&mut vec![0u8; skew]);
                let mut got = vec![0u64; len];
                uniform_below(q, &mut got, &mut bulk);
                let want: Vec<u64> = (0..len).map(|_| looped.gen_range(0..q)).collect();
                assert_eq!(got, want, "q {q} len {len}");
                assert_eq!(bulk.next_u64(), looped.next_u64(), "q {q} len {len}");
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let ctx = RnsContext::with_primes(16, 30, 1).unwrap();
        let a = uniform_rns(&ctx, 1, &mut StdRng::seed_from_u64(42));
        let b = uniform_rns(&ctx, 1, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
