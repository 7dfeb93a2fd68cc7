//! The `x^a` histogram encoding (§4.1) and its query-language extensions.
//!
//! * A contribution `a` is the monomial `x^a`. Homomorphic multiplication
//!   adds exponents; homomorphic addition of many origin-vertex results
//!   yields a polynomial whose `i`-th coefficient counts how many origins
//!   computed `i` — an encrypted histogram.
//! * Coarser bins are formed by summing coefficient ranges after decryption.
//! * `GROUP BY` packs one histogram window per group value into a single
//!   ciphertext (§4.5): group `g` occupies coefficients
//!   `[g·w, (g+1)·w)`; a vertex shifts its contribution into its own window
//!   with a (noise-free) monomial multiplication.
//! * Cross-column comparisons (§4.5) report a *sequence* of ciphertexts,
//!   one per value in the discrete comparison range, with `Enc(x^m)` in the
//!   matching position and `Enc(1)` elsewhere; the origin sums a
//!   subsequence and subtracts `Enc(ℓ-1)`.
//! * `GSUM` clipping (§4.4): after decryption the committee computes
//!   `Σ_{i=a+1}^{b-1} i·p_i + a·Σ_{i≤a} p_i + b·Σ_{i≥b} p_i`.

use std::sync::Arc;

use mycelium_math::rns::RnsContext;

use crate::ciphertext::{BgvError, Plaintext, PreparedPlaintext};

/// Encodes the value `a` as the monomial plaintext `x^a`.
///
/// Returns an error if `a ≥ n` (more bins than the ring degree — the
/// encoding's first limitation listed in §4.1).
pub fn encode_monomial(a: usize, n: usize, t: u64) -> Result<Plaintext, BgvError> {
    if a >= n {
        return Err(BgvError::PlaintextLength { got: a, want: n });
    }
    let mut coeffs = vec![0u64; n];
    coeffs[a] = 1;
    Plaintext::new(coeffs, t)
}

/// Encodes `x^a` pre-lifted into NTT representation at `level`.
///
/// Selection masks and per-group shifts multiply the *same* monomial
/// against many ciphertexts; preparing once amortizes the lift and forward
/// transform (and the Shoup precomputation) across all of them.
pub fn encode_monomial_prepared(
    a: usize,
    ctx: &Arc<RnsContext>,
    level: usize,
    t: u64,
) -> Result<PreparedPlaintext, BgvError> {
    let pt = encode_monomial(a, ctx.degree(), t)?;
    PreparedPlaintext::prepare(&pt, ctx, level)
}

/// Encodes the multiplicative identity `x^0 = 1` (a contribution of zero,
/// and the §4.4 default for dropped-out or predicate-false vertices).
pub fn encode_one(n: usize, t: u64) -> Plaintext {
    encode_monomial(0, n, t).expect("0 < n")
}

/// Encodes the constant `c` at coefficient zero.
pub fn encode_constant(c: u64, n: usize, t: u64) -> Result<Plaintext, BgvError> {
    let mut coeffs = vec![0u64; n];
    coeffs[0] = c % t;
    Plaintext::new(coeffs, t)
}

/// Sums histogram counts into the caller's (half-open) bins, e.g.
/// `[0..3), [3..6), [6..N)` for the "0–2 / 3–5 / more" example of §4.1.
pub fn bin_histogram(counts: &[u64], bins: &[std::ops::Range<usize>]) -> Vec<u64> {
    bins.iter()
        .map(|r| {
            counts[r.start.min(counts.len())..r.end.min(counts.len())]
                .iter()
                .sum()
        })
        .collect()
}

/// The §4.4 `GSUM` clipped sum over a decrypted coefficient vector:
/// values below `a` count as `a`, above `b` as `b`.
///
/// # Panics
///
/// Panics if `a > b`.
pub fn clipped_sum(counts: &[u64], a: u64, b: u64) -> u64 {
    assert!(a <= b, "clipping range must satisfy a <= b");
    let mut total = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        let v = (i as u64).clamp(a, b);
        total += v * c;
    }
    total
}

/// Layout of `GROUP BY` windows inside a single plaintext polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupLayout {
    /// Number of groups.
    pub groups: usize,
    /// Window width (bins per group).
    pub window: usize,
}

impl GroupLayout {
    /// Creates a layout, checking it fits the ring degree.
    pub fn new(groups: usize, window: usize, n: usize) -> Result<Self, BgvError> {
        if groups == 0 || window == 0 || groups * window > n {
            return Err(BgvError::PlaintextLength {
                got: groups * window,
                want: n,
            });
        }
        Ok(Self { groups, window })
    }

    /// The monomial shift that moves a local value into group `g`'s window.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn offset(&self, g: usize) -> usize {
        assert!(g < self.groups, "group index out of range");
        g * self.window
    }

    /// Splits a decrypted coefficient vector into per-group histograms.
    pub fn split(&self, counts: &[u64]) -> Vec<Vec<u64>> {
        (0..self.groups)
            .map(|g| {
                let start = self.offset(g);
                counts[start..(start + self.window).min(counts.len())].to_vec()
            })
            .collect()
    }
}

/// The §4.5 sequence encoding for a cross-column comparison.
///
/// For a `BETWEEN`-bounded column value `m ∈ [lo, hi]`, the destination
/// reports one plaintext per value in the range: `x^m` at the position of
/// `m`, and `1` everywhere else. Returns an error when `m` is outside the
/// range or the monomial does not fit.
pub fn encode_sequence(
    m: usize,
    lo: usize,
    hi: usize,
    n: usize,
    t: u64,
) -> Result<Vec<Plaintext>, BgvError> {
    if m < lo || m > hi {
        return Err(BgvError::PlaintextOutOfRange {
            value: m as u64,
            modulus: (hi + 1) as u64,
        });
    }
    (lo..=hi)
        .map(|v| {
            if v == m {
                encode_monomial(m, n, t)
            } else {
                Ok(encode_one(n, t))
            }
        })
        .collect()
}

/// Number of ciphertexts a sequence encoding requires (`hi - lo + 1`) —
/// the quantity Figure 6 reports per query.
pub fn sequence_length(lo: usize, hi: usize) -> usize {
    hi.saturating_sub(lo) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphertext::Ciphertext;
    use crate::keys::KeySet;
    use crate::params::BgvParams;
    use mycelium_math::rng::{SeedableRng, StdRng};

    #[test]
    fn monomial_bounds() {
        assert!(encode_monomial(1023, 1024, 16).is_ok());
        assert!(encode_monomial(1024, 1024, 16).is_err());
        let pt = encode_monomial(5, 16, 4).unwrap();
        assert_eq!(pt.coeffs()[5], 1);
        assert_eq!(pt.coeffs().iter().sum::<u64>(), 1);
    }

    #[test]
    fn histogram_binning() {
        let counts = vec![1, 2, 3, 4, 5, 6, 7];
        let bins = bin_histogram(&counts, &[0..3, 3..6, 6..100]);
        assert_eq!(bins, vec![6, 15, 7]);
    }

    #[test]
    fn clipped_sum_cases() {
        // Counts: one origin with value 0, two with value 3, one with 10.
        let mut counts = vec![0u64; 16];
        counts[0] = 1;
        counts[3] = 2;
        counts[10] = 1;
        // Unclipped sum = 0 + 6 + 10 = 16.
        assert_eq!(clipped_sum(&counts, 0, 15), 16);
        // Clip to [1, 5]: 1 + 3 + 3 + 5 = 12.
        assert_eq!(clipped_sum(&counts, 1, 5), 12);
        // Clip to [4, 4]: everything is 4: 16.
        assert_eq!(clipped_sum(&counts, 4, 4), 16);
    }

    #[test]
    #[should_panic(expected = "a <= b")]
    fn clip_rejects_inverted_range() {
        clipped_sum(&[1], 5, 2);
    }

    #[test]
    fn group_layout() {
        let l = GroupLayout::new(4, 8, 64).unwrap();
        assert_eq!(l.offset(0), 0);
        assert_eq!(l.offset(3), 24);
        assert!(GroupLayout::new(4, 20, 64).is_err());
        let mut counts = vec![0u64; 64];
        counts[2] = 5; // Group 0, value 2.
        counts[26] = 7; // Group 3, value 2.
        let split = l.split(&counts);
        assert_eq!(split[0][2], 5);
        assert_eq!(split[3][2], 7);
        assert_eq!(split[1].iter().sum::<u64>(), 0);
    }

    #[test]
    fn sequence_encoding_shape() {
        let seq = encode_sequence(7, 5, 14, 32, 16).unwrap();
        assert_eq!(seq.len(), sequence_length(5, 14));
        assert_eq!(seq.len(), 10);
        for (i, pt) in seq.iter().enumerate() {
            let v = 5 + i;
            if v == 7 {
                assert_eq!(pt.coeffs()[7], 1);
                assert_eq!(pt.coeffs()[0], 0);
            } else {
                assert_eq!(pt.coeffs()[0], 1);
            }
        }
        assert!(encode_sequence(3, 5, 14, 32, 16).is_err());
    }

    #[test]
    fn sequence_combination_end_to_end() {
        // §4.5 worked example: subsequence of length 3 containing
        // Enc(1), Enc(x^m), Enc(1) sums to Enc(2 + x^m); subtracting
        // Enc(2) leaves exactly Enc(x^m).
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(11);
        let ks = KeySet::generate_with_relin_levels(&params, &[], &mut rng);
        let t = params.plaintext_modulus;
        let m = 9usize;
        let seq = encode_sequence(m, 8, 10, params.n, t).unwrap();
        let cts: Vec<Ciphertext> = seq
            .iter()
            .map(|pt| Ciphertext::encrypt(&ks.public, pt, &mut rng).unwrap())
            .collect();
        let mut sum = cts[0].clone();
        for ct in &cts[1..] {
            sum = sum.add(ct).unwrap();
        }
        let ell = cts.len() as u64;
        let correction = encode_constant(ell - 1, params.n, t).unwrap();
        let result = sum.sub_plain(&correction).unwrap().decrypt(&ks.secret);
        assert_eq!(result.coeffs()[m], 1);
        assert_eq!(result.coeffs().iter().sum::<u64>(), 1);
    }

    #[test]
    fn prepared_monomial_matches_direct_multiply() {
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(13);
        let ks = KeySet::generate_with_relin_levels(&params, &[], &mut rng);
        let t = params.plaintext_modulus;
        let ct = Ciphertext::encrypt(
            &ks.public,
            &encode_monomial(2, params.n, t).unwrap(),
            &mut rng,
        )
        .unwrap();
        let prepared = encode_monomial_prepared(5, ks.public.context(), ct.level(), t).unwrap();
        let direct = ct
            .mul_plain(&encode_monomial(5, params.n, t).unwrap())
            .unwrap();
        let via_prep = ct.mul_plain_prepared(&prepared).unwrap();
        for (a, b) in direct.parts().iter().zip(via_prep.parts()) {
            assert_eq!(a, b);
        }
        assert_eq!(via_prep.decrypt(&ks.secret).coeffs()[7], 1);
        assert!(encode_monomial_prepared(params.n, ks.public.context(), 1, t).is_err());
    }

    #[test]
    fn group_shift_end_to_end() {
        // A 20-year-old origin (group 1 of 4) shifts its count x^3 into
        // window [8, 16); the aggregate splits back per group.
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(12);
        let ks = KeySet::generate_with_relin_levels(&params, &[], &mut rng);
        let t = params.plaintext_modulus;
        let layout = GroupLayout::new(4, 8, params.n).unwrap();
        let local = encode_monomial(3, params.n, t).unwrap();
        let ct = Ciphertext::encrypt(&ks.public, &local, &mut rng).unwrap();
        let shifted = ct.mul_monomial(layout.offset(1));
        let decrypted = shifted.decrypt(&ks.secret);
        let groups = layout.split(decrypted.coeffs());
        assert_eq!(groups[1][3], 1);
        assert_eq!(groups[0].iter().sum::<u64>(), 0);
        assert_eq!(groups[2].iter().sum::<u64>(), 0);
    }
}
