//! The `x^a` histogram encoding (§4.1): the plaintexts a contribution and
//! a §4.5 correction are encrypted from.
//!
//! A contribution `a` is the monomial `x^a`. Homomorphic multiplication
//! adds exponents; homomorphic addition of many origin-vertex results
//! yields a polynomial whose `i`-th coefficient counts how many origins
//! computed `i` — an encrypted histogram.
//!
//! The query-language extensions on top of it are written where the round
//! uses them: `mycelium_query::analyze` lays out the bins, the `GROUP BY`
//! windows and the §4.5 comparison sequences; `mycelium::plan` turns each
//! neighbour's row into exponents (`neighbor_exponents`) and combines them
//! at the origin (`combine_origin`); `mycelium::decode` reads the
//! decrypted coefficients back as per-group histograms and the §4.4
//! clipped `GSUM`.

use crate::ciphertext::{BgvError, Plaintext};

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

/// Encodes the constant `c` at coefficient zero.
pub fn encode_constant(c: u64, n: usize, t: u64) -> Result<Plaintext, BgvError> {
    let mut coeffs = vec![0u64; n];
    coeffs[0] = c % t;
    Plaintext::new(coeffs, t)
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
    fn sequence_combination_end_to_end() {
        // §4.5 worked example: subsequence of length 3 containing
        // Enc(1), Enc(x^m), Enc(1) sums to Enc(2 + x^m); subtracting
        // Enc(2) leaves exactly Enc(x^m).
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(11);
        let ks = KeySet::generate_deferred(&params, &mut rng);
        let t = params.plaintext_modulus;
        let m = 9usize;
        let cts: Vec<Ciphertext> = [0, m, 0]
            .iter()
            .map(|&a| {
                let pt = encode_monomial(a, params.n, t).unwrap();
                Ciphertext::encrypt(&ks.public, &pt, &mut rng).unwrap()
            })
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
    fn group_shift_end_to_end() {
        // A 20-year-old origin (group 1 of 4) shifts its count x^3 into
        // window [8, 16); the aggregate splits back per group.
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(12);
        let ks = KeySet::generate_deferred(&params, &mut rng);
        let t = params.plaintext_modulus;
        let window = 8;
        let local = encode_monomial(3, params.n, t).unwrap();
        let ct = Ciphertext::encrypt(&ks.public, &local, &mut rng).unwrap();
        let shifted = ct.mul_monomial(window);
        let decrypted = shifted.decrypt(&ks.secret);
        let groups: Vec<&[u64]> = decrypted.coeffs()[..4 * window].chunks(window).collect();
        assert_eq!(groups[1][3], 1);
        assert_eq!(groups[0].iter().sum::<u64>(), 0);
        assert_eq!(groups[2].iter().sum::<u64>(), 0);
    }
}
