//! Negacyclic number-theoretic transform over `Z_q[X]/(X^N + 1)`.
//!
//! The forward transform uses the Cooley–Tukey butterfly with roots in
//! bit-reversed order; the inverse uses Gentleman–Sande. Multiplying two
//! polynomials therefore costs two forward transforms, a pointwise product,
//! and one inverse transform — `O(N log N)` instead of the schoolbook
//! `O(N^2)`.
//!
//! # Lazy-reduction kernel
//!
//! Both transforms use Harvey's lazy butterflies: every twiddle `w` is
//! stored with its Shoup constant `floor(w·2^64/q)`, so a butterfly costs
//! one high-half product and one wrapping multiply instead of a 128-bit
//! Barrett reduction, and intermediate values are *not* canonicalized —
//! the forward CT pass keeps them in `[0, 4q)`, the inverse GS pass in
//! `[0, 2q)`, and a single canonicalization pass at the end restores the
//! `[0, q)` invariant the rest of the stack expects. This is exact: lazy
//! values are congruent mod `q` to their strict counterparts at every
//! step, so the canonical outputs are bit-identical to the strict-Barrett
//! reference kernels kept below as test oracles
//! ([`NttTable::forward_reference`], [`NttTable::inverse_reference`]).
//! Soundness needs `4q < 2^64`, which [`crate::zq::Modulus`]'s `q < 2^62`
//! bound guarantees. Debug builds assert the `< 4q` / `< 2q` stage ranges
//! so an overflow surfaces in `cargo test` rather than as silent
//! wraparound in release.

use crate::simd;
use crate::zq::Modulus;

/// Precomputed twiddle tables for a fixed ring degree and modulus.
///
/// # Examples
///
/// ```
/// use mycelium_math::{ntt::NttTable, zq::{ntt_primes, Modulus}};
///
/// let n = 16;
/// let q = Modulus::new_prime(ntt_primes(30, n, 1)[0]).unwrap();
/// let table = NttTable::new(q, n).unwrap();
/// let mut a = vec![0u64; n];
/// a[1] = 1; // a(X) = X
/// let mut b = vec![0u64; n];
/// b[n - 1] = 1; // b(X) = X^{n-1}
/// table.forward(&mut a);
/// table.forward(&mut b);
/// let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.mul(x, y)).collect();
/// table.inverse(&mut c);
/// // X * X^{n-1} = X^n = -1 in the negacyclic ring.
/// assert_eq!(c[0], q.value() - 1);
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    /// Powers of psi (2n-th root) in bit-reversed order, for the forward CT.
    roots_fwd: Vec<u64>,
    /// Shoup constants for `roots_fwd`.
    roots_fwd_shoup: Vec<u64>,
    /// Powers of psi^{-1} in bit-reversed order, for the inverse GS.
    roots_inv: Vec<u64>,
    /// Shoup constants for `roots_inv`.
    roots_inv_shoup: Vec<u64>,
    /// n^{-1} mod q, folded into the inverse transform.
    n_inv: u64,
    /// Shoup constant for `n_inv`.
    n_inv_shoup: u64,
}

impl NttTable {
    /// Builds the twiddle tables for ring degree `n` (a power of two).
    ///
    /// Returns `None` when `q` does not support a `2n`-th root of unity
    /// (i.e. `q ≢ 1 (mod 2n)`).
    pub fn new(modulus: Modulus, n: usize) -> Option<Self> {
        if !n.is_power_of_two() || n < 2 {
            return None;
        }
        let psi = modulus.primitive_root_of_unity(2 * n as u64)?;
        let psi_inv = modulus.inv(psi)?;
        let log_n = n.trailing_zeros();
        let mut roots_fwd = vec![0u64; n];
        let mut roots_inv = vec![0u64; n];
        let mut pow_f = 1u64;
        let mut pow_i = 1u64;
        for i in 0..n {
            let r = (i as u64).reverse_bits() >> (64 - log_n);
            roots_fwd[r as usize] = pow_f;
            roots_inv[r as usize] = pow_i;
            pow_f = modulus.mul(pow_f, psi);
            pow_i = modulus.mul(pow_i, psi_inv);
        }
        let roots_fwd_shoup = roots_fwd.iter().map(|&w| modulus.shoup(w)).collect();
        let roots_inv_shoup = roots_inv.iter().map(|&w| modulus.shoup(w)).collect();
        let n_inv = modulus.inv(n as u64)?;
        let n_inv_shoup = modulus.shoup(n_inv);
        Some(Self {
            modulus,
            n,
            roots_fwd,
            roots_fwd_shoup,
            roots_inv,
            roots_inv_shoup,
            n_inv,
            n_inv_shoup,
        })
    }

    /// Returns the ring degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Returns the modulus the tables were built for.
    #[inline]
    pub fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation domain).
    ///
    /// Input coefficients must be canonical (`< q`); the output is
    /// canonical. Internally the Harvey CT butterflies keep values lazy in
    /// `[0, 4q)` and canonicalize once at the end.
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` differs from the table's ring degree.
    pub fn forward(&self, a: &mut [u64]) {
        self.forward_with(simd::kernels(), a)
    }

    /// [`NttTable::forward`] pinned to the scalar kernel tier, whatever
    /// the process selected — the bit-exact oracle for differential tests.
    pub fn forward_scalar(&self, a: &mut [u64]) {
        self.forward_with(simd::scalar_kernels(), a)
    }

    /// [`NttTable::forward`] through an explicit kernel tier (differential
    /// test plumbing; not part of the stable API).
    #[doc(hidden)]
    pub fn forward_with(&self, k: &simd::Kernels, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch in NTT");
        (k.ntt_fwd)(&self.fwd_shape(), a)
    }

    /// Borrowed forward-direction twiddle view for the kernel layer.
    fn fwd_shape(&self) -> simd::NttShape<'_> {
        simd::NttShape {
            q: self.modulus.value(),
            roots: &self.roots_fwd,
            shoup: &self.roots_fwd_shoup,
            n_inv: 0,
            n_inv_shoup: 0,
        }
    }

    /// Borrowed inverse-direction twiddle view for the kernel layer.
    fn inv_shape(&self) -> simd::NttShape<'_> {
        simd::NttShape {
            q: self.modulus.value(),
            roots: &self.roots_inv,
            shoup: &self.roots_inv_shoup,
            n_inv: self.n_inv,
            n_inv_shoup: self.n_inv_shoup,
        }
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient domain).
    ///
    /// Input values must be canonical (`< q`); the output is canonical.
    /// Internally the Gentleman–Sande butterflies keep values lazy in
    /// `[0, 2q)`; the final `n^{-1}` scaling pass canonicalizes.
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` differs from the table's ring degree.
    pub fn inverse(&self, a: &mut [u64]) {
        self.inverse_with(simd::kernels(), a)
    }

    /// [`NttTable::inverse`] pinned to the scalar kernel tier (the
    /// differential-test oracle; see [`NttTable::forward_scalar`]).
    pub fn inverse_scalar(&self, a: &mut [u64]) {
        self.inverse_with(simd::scalar_kernels(), a)
    }

    /// [`NttTable::inverse`] through an explicit kernel tier (differential
    /// test plumbing; not part of the stable API).
    #[doc(hidden)]
    pub fn inverse_with(&self, k: &simd::Kernels, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch in NTT");
        (k.ntt_inv)(&self.inv_shape(), a)
    }

    /// Writes the transform of the monomial `x^k` (`k < 2n`, with
    /// `x^k = −x^{k−n}` past `n`) into `w`, and the Shoup constants of
    /// those values into `ws`, without running a transform: output slot
    /// `i` of the forward transform is the evaluation at
    /// `ψ^{2·rev(i)+1}`, so the value there is `ψ^{(2·rev(i)+1)·k}` — a
    /// signed lookup into the twiddle table, whose Shoup constants are
    /// already there too (`⌊(q−w)·2^64/q⌋ = !⌊w·2^64/q⌋` for `0 < w < q`).
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ 2n` or a buffer's length differs from the degree.
    pub fn monomial_shoup_into(&self, k: usize, w: &mut [u64], ws: &mut [u64]) {
        let n = self.n;
        assert!(k < 2 * n, "monomial exponent out of range");
        assert_eq!(w.len(), n, "length mismatch in NTT");
        assert_eq!(ws.len(), n, "length mismatch in NTT");
        let q = self.modulus.value();
        let shift = usize::BITS - n.trailing_zeros();
        let rev = |x: usize| x.reverse_bits() >> shift;
        // e = (2p+1)·k mod 2n for p = 0, 1, …; slot rev(p) gets ψ^e (n is
        // a power of two: the reductions are masks).
        let mut e = k;
        for p in 0..n {
            let (slot, root) = (rev(p), rev(e & (n - 1)));
            (w[slot], ws[slot]) = if e < n {
                (self.roots_fwd[root], self.roots_fwd_shoup[root])
            } else {
                (q - self.roots_fwd[root], !self.roots_fwd_shoup[root])
            };
            e = (e + 2 * k) & (2 * n - 1);
        }
    }

    /// In-place negacyclic convolution: `a ← a * b`.
    ///
    /// Both operands are transformed in place (`b` is left in the
    /// evaluation domain afterwards — its contents are clobbered), so the
    /// product costs zero allocations. This is the kernel behind
    /// [`NttTable::multiply`] and [`crate::poly::Poly::mul`].
    ///
    /// # Panics
    ///
    /// Panics if either operand's length differs from the ring degree.
    pub fn multiply_into(&self, a: &mut [u64], b: &mut [u64]) {
        self.forward(a);
        self.forward(b);
        crate::ew::mul_assign(&self.modulus, a, b);
        self.inverse(a);
    }

    /// Negacyclic convolution of `a` and `b`, returning the product
    /// polynomial's coefficients.
    ///
    /// Allocates copies of both operands; callers that can spare their
    /// buffers should use [`NttTable::multiply_into`].
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ from the ring degree.
    pub fn multiply(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut scratch = crate::scratch::take(b.len());
        scratch.copy_from_slice(b);
        self.multiply_into(&mut fa, &mut scratch);
        fa
    }

    /// Strict-Barrett forward transform — the pre-lazy reference kernel,
    /// kept as the oracle the property tests compare the Harvey kernel
    /// against. Canonical in, canonical out, one full reduction per
    /// butterfly.
    pub fn forward_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch in NTT");
        let q = &self.modulus;
        let mut t = self.n;
        let mut m = 1;
        while m < self.n {
            t /= 2;
            for i in 0..m {
                let w = self.roots_fwd[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = q.mul(a[j + t], w);
                    a[j] = q.add(u, v);
                    a[j + t] = q.sub(u, v);
                }
            }
            m *= 2;
        }
    }

    /// Strict-Barrett inverse transform (reference oracle; see
    /// [`NttTable::forward_reference`]).
    pub fn inverse_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch in NTT");
        let q = &self.modulus;
        let mut t = 1;
        let mut m = self.n;
        while m > 1 {
            let h = m / 2;
            let mut j1 = 0;
            for i in 0..h {
                let w = self.roots_inv[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = q.add(u, v);
                    a[j + t] = q.mul(q.sub(u, v), w);
                }
                j1 += 2 * t;
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = q.mul(*x, self.n_inv);
        }
    }
}

/// Schoolbook negacyclic multiplication, used as a test oracle.
///
/// Computes `a * b mod (X^n + 1, q)` in `O(n^2)` time.
pub fn negacyclic_mul_naive(modulus: &Modulus, a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len();
    assert_eq!(n, b.len());
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = modulus.mul(ai, bj);
            let k = i + j;
            if k < n {
                out[k] = modulus.add(out[k], prod);
            } else {
                out[k - n] = modulus.sub(out[k - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zq::ntt_primes;

    fn table(n: usize) -> NttTable {
        let q = Modulus::new_prime(ntt_primes(40, n, 1)[0]).unwrap();
        NttTable::new(q, n).unwrap()
    }

    fn rand_poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % q
            })
            .collect()
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for log_n in [2usize, 4, 8, 10] {
            let n = 1 << log_n;
            let t = table(n);
            let a = rand_poly(n, t.modulus().value(), 7 + log_n as u64);
            let mut b = a.clone();
            t.forward(&mut b);
            assert_ne!(a, b, "transform should change the representation");
            t.inverse(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn lazy_matches_reference_kernels() {
        for log_n in [2usize, 5, 9] {
            let n = 1 << log_n;
            let t = table(n);
            let q = t.modulus().value();
            for seed in 0..4u64 {
                let a = rand_poly(n, q, 100 + seed);
                let (mut lazy, mut strict) = (a.clone(), a.clone());
                t.forward(&mut lazy);
                t.forward_reference(&mut strict);
                assert_eq!(lazy, strict, "forward n={n} seed={seed}");
                t.inverse(&mut lazy);
                t.inverse_reference(&mut strict);
                assert_eq!(lazy, strict, "inverse n={n} seed={seed}");
                assert_eq!(lazy, a, "roundtrip n={n} seed={seed}");
            }
            // Worst case: every coefficient at q-1.
            let worst = vec![q - 1; n];
            let (mut lazy, mut strict) = (worst.clone(), worst.clone());
            t.forward(&mut lazy);
            t.forward_reference(&mut strict);
            assert_eq!(lazy, strict, "worst-case forward n={n}");
        }
    }

    #[test]
    fn monomial_evaluation_matches_the_transform() {
        for n in [2usize, 16, 1024] {
            let t = table(n);
            let q = t.modulus();
            for k in [0, 1, 2, n / 2, n - 1, n, n + 1, 2 * n - 1] {
                let mut want = vec![0u64; n];
                want[k % n] = if k < n { 1 } else { q.value() - 1 };
                t.forward(&mut want);
                let (mut w, mut ws) = (vec![0u64; n], vec![0u64; n]);
                t.monomial_shoup_into(k, &mut w, &mut ws);
                assert_eq!(w, want, "n={n} k={k}");
                let shoup: Vec<u64> = w.iter().map(|&x| q.shoup(x)).collect();
                assert_eq!(ws, shoup, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn multiply_matches_schoolbook() {
        for n in [4usize, 16, 64, 256] {
            let t = table(n);
            let q = t.modulus();
            let a = rand_poly(n, q.value(), 1);
            let b = rand_poly(n, q.value(), 2);
            assert_eq!(t.multiply(&a, &b), negacyclic_mul_naive(&q, &a, &b));
        }
    }

    #[test]
    fn multiply_into_matches_multiply() {
        let n = 64;
        let t = table(n);
        let a = rand_poly(n, t.modulus().value(), 5);
        let b = rand_poly(n, t.modulus().value(), 6);
        let mut ia = a.clone();
        let mut ib = b.clone();
        t.multiply_into(&mut ia, &mut ib);
        assert_eq!(ia, t.multiply(&a, &b));
    }

    #[test]
    fn x_times_x_pow_n_minus_one_is_minus_one() {
        let n = 64;
        let t = table(n);
        let mut a = vec![0u64; n];
        a[1] = 1;
        let mut b = vec![0u64; n];
        b[n - 1] = 1;
        let c = t.multiply(&a, &b);
        assert_eq!(c[0], t.modulus().value() - 1);
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn multiply_by_one_is_identity() {
        let n = 32;
        let t = table(n);
        let a = rand_poly(n, t.modulus().value(), 3);
        let mut one = vec![0u64; n];
        one[0] = 1;
        assert_eq!(t.multiply(&a, &one), a);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let q = Modulus::new_prime(ntt_primes(40, 16, 1)[0]).unwrap();
        assert!(NttTable::new(q, 12).is_none());
        assert!(NttTable::new(q, 1).is_none());
    }

    #[test]
    fn rejects_unfriendly_modulus() {
        let q = Modulus::new_prime(97).unwrap();
        assert!(NttTable::new(q, 256).is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn forward_panics_on_bad_length() {
        let t = table(16);
        let mut a = vec![0u64; 8];
        t.forward(&mut a);
    }
}
