//! Arithmetic modulo a word-sized prime.
//!
//! All moduli used by the BGV scheme are primes below 2^62 so that lazy
//! additions never overflow a `u64` and products fit in a `u128`. The
//! [`Modulus`] type carries Barrett-style precomputation for fast reduction
//! and supports the usual field operations (addition, multiplication,
//! exponentiation, inversion).

/// A prime modulus `q < 2^62` with precomputed reduction constants.
///
/// # Examples
///
/// ```
/// use mycelium_math::zq::Modulus;
///
/// let q = Modulus::new(97).unwrap();
/// assert_eq!(q.add(90, 10), 3);
/// assert_eq!(q.mul(13, 15), 195 % 97);
/// assert_eq!(q.mul(q.inv(13).unwrap(), 13), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Modulus {
    q: u64,
    /// `floor(2^128 / q)`, stored as (hi, lo) words for Barrett reduction.
    barrett_hi: u64,
    barrett_lo: u64,
    /// `-q^{-1} mod 2^64` — the Montgomery REDC constant (0 for even `q`,
    /// where no Montgomery inverse exists; the SIMD kernels never see an
    /// even modulus because every chain prime is odd).
    mont_qinv_neg: u64,
}

impl Modulus {
    /// Maximum supported modulus (exclusive), `2^62`.
    pub const MAX_MODULUS: u64 = 1 << 62;

    /// Creates a new modulus.
    ///
    /// Returns `None` if `q < 2` or `q >= 2^62`. The primality of `q` is not
    /// checked here; use [`Modulus::new_prime`] when a primality guarantee is
    /// required.
    pub fn new(q: u64) -> Option<Self> {
        if !(2..Self::MAX_MODULUS).contains(&q) {
            return None;
        }
        // Compute floor(2^128 / q) via 128-bit long division in two steps.
        let hi = (u128::MAX / q as u128) >> 64;
        let rem = u128::MAX - (u128::MAX / q as u128) * q as u128;
        debug_assert!(rem < q as u128);
        // floor(2^128/q) = floor((2^128 - 1)/q) when q does not divide 2^128,
        // which holds for every odd q and every q>2 that is not a power of 2.
        // For powers of two the difference is 1, which Barrett tolerates.
        let full = u128::MAX / q as u128;
        let _ = hi;
        let mont_qinv_neg = if q & 1 == 1 {
            // Newton–Hensel lifting: each step doubles the number of
            // correct low bits of q^{-1} mod 2^64 (q·q ≡ 1 mod 8 seeds 3).
            let mut inv = q;
            for _ in 0..5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(inv)));
            }
            debug_assert_eq!(q.wrapping_mul(inv), 1);
            inv.wrapping_neg()
        } else {
            0
        };
        Some(Self {
            q,
            barrett_hi: (full >> 64) as u64,
            barrett_lo: full as u64,
            mont_qinv_neg,
        })
    }

    /// Creates a new modulus, verifying that `q` is prime.
    ///
    /// Returns `None` if `q` is out of range or not prime.
    pub fn new_prime(q: u64) -> Option<Self> {
        if !is_prime(q) {
            return None;
        }
        Self::new(q)
    }

    /// Returns the modulus value.
    #[inline]
    pub const fn value(&self) -> u64 {
        self.q
    }

    /// Returns the number of bits of the modulus.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// Reduces an arbitrary 64-bit value modulo `q`.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        a % self.q
    }

    /// Reduces a 128-bit value modulo `q` using Barrett reduction.
    #[inline]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        // Barrett: estimate quotient via the precomputed floor(2^128/q).
        // r = a - floor(a * m / 2^128) * q, then one conditional correction.
        let m = ((self.barrett_hi as u128) << 64) | self.barrett_lo as u128;
        let a_hi = (a >> 64) as u64;
        let a_lo = a as u64;
        // q_est = floor(a * m / 2^128). Expand the 256-bit product's top part.
        let m_hi = (m >> 64) as u64;
        let m_lo = m as u64;
        let lo_lo = (a_lo as u128) * (m_lo as u128);
        let lo_hi = (a_lo as u128) * (m_hi as u128);
        let hi_lo = (a_hi as u128) * (m_lo as u128);
        let hi_hi = (a_hi as u128) * (m_hi as u128);
        let mid = (lo_lo >> 64) + (lo_hi & 0xFFFF_FFFF_FFFF_FFFF) + (hi_lo & 0xFFFF_FFFF_FFFF_FFFF);
        let q_est = hi_hi + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64);
        let r = a.wrapping_sub(q_est.wrapping_mul(self.q as u128)) as u64;
        // At most two corrections are needed for this Barrett variant.
        let r = if r >= self.q { r - self.q } else { r };
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Modular addition of two reduced operands.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction of two reduced operands.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Modular negation of a reduced operand.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication of two reduced operands.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Shoup precomputation for a fixed multiplicand: `floor(w · 2^64 / q)`.
    ///
    /// Pairing `w` with this constant lets [`Modulus::mul_shoup`] replace the
    /// 128-bit Barrett reduction with one high-half product and one wrapping
    /// multiply (Harvey, "Faster arithmetic for number-theoretic transforms").
    #[inline]
    pub fn shoup(&self, w: u64) -> u64 {
        debug_assert!(w < self.q);
        (((w as u128) << 64) / self.q as u128) as u64
    }

    /// Shoup multiplication with a *lazy* result in `[0, 2q)`.
    ///
    /// `w` must be reduced and `w_shoup` must be [`Modulus::shoup`]`(w)`;
    /// `a` may be any `u64` (in particular a lazy `[0, 4q)` NTT value).
    #[inline(always)]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(self.q))
    }

    /// Shoup multiplication with a canonical result in `[0, q)`.
    #[inline(always)]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let r = self.mul_shoup_lazy(a, w, w_shoup);
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Lazy addition: operands and result live in `[0, 2q)`.
    ///
    /// Costs one conditional subtraction instead of the strict `[0, q)`
    /// canonicalization; chains of lazy adds defer the final reduction to a
    /// single [`Modulus::reduce_lazy`] at the end.
    #[inline(always)]
    pub fn add_lazy(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < 2 * self.q && b < 2 * self.q);
        let two_q = self.q << 1;
        let s = a.wrapping_add(b);
        if s >= two_q {
            s - two_q
        } else {
            s
        }
    }

    /// Canonicalizes a lazy `[0, 2q)` value into `[0, q)`.
    #[inline(always)]
    pub fn reduce_lazy(&self, a: u64) -> u64 {
        debug_assert!(a < 2 * self.q);
        if a >= self.q {
            a - self.q
        } else {
            a
        }
    }

    /// Fused multiply-add: `a * b + c (mod q)`.
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Modular exponentiation by squaring.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc = 1u64 % self.q;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem.
    ///
    /// Returns `None` for `a == 0`. Requires the modulus to be prime.
    pub fn inv(&self, a: u64) -> Option<u64> {
        let a = self.reduce(a);
        if a == 0 {
            return None;
        }
        Some(self.pow(a, self.q - 2))
    }

    /// Maps a reduced residue to its centered (signed) representative in
    /// `(-q/2, q/2]`.
    #[inline]
    pub fn to_signed(&self, a: u64) -> i64 {
        debug_assert!(a < self.q);
        if a > self.q / 2 {
            -((self.q - a) as i64)
        } else {
            a as i64
        }
    }

    /// Maps a signed integer to its reduced residue.
    #[inline]
    pub fn from_signed(&self, a: i64) -> u64 {
        let r = a.rem_euclid(self.q as i64);
        r as u64
    }

    /// The Montgomery REDC constant `-q^{-1} mod 2^64` (odd `q` only).
    #[inline]
    pub(crate) fn mont_qinv_neg(&self) -> u64 {
        debug_assert!(self.q & 1 == 1, "Montgomery needs an odd modulus");
        self.mont_qinv_neg
    }

    /// The radix-2^52 Montgomery REDC constant `-q^{-1} mod 2^52` (odd `q`
    /// only) — the low 52 bits of [`Modulus::mont_qinv_neg`], for the IFMA
    /// kernel tier whose multiplier is 52×52→104 bits.
    #[inline]
    pub(crate) fn mont52_qinv_neg(&self) -> u64 {
        self.mont_qinv_neg() & ((1u64 << 52) - 1)
    }

    /// The radix-2^52 Montgomery conversion constant `2^104 mod q` (odd
    /// `q` only). Computed on demand: one `u128` division per kernel call,
    /// amortized over a whole residue polynomial.
    #[inline]
    pub(crate) fn mont52_r2(&self) -> u64 {
        debug_assert!(self.q & 1 == 1, "Montgomery needs an odd modulus");
        ((1u128 << 104) % self.q as u128) as u64
    }

    /// Montgomery reduction: `x · 2^{-64} mod q`, lazily in `[0, 2q)`.
    ///
    /// Requires `x < q · 2^64` (any product of a `[0, 2q)` value and a
    /// `[0, q)` value qualifies since `2q < 2^64`). This is the scalar
    /// model of the vectorized product kernels: `m = x_lo · (-q^{-1})`,
    /// then `(x + m·q) / 2^64 = x_hi + hi(m·q) + (x_lo != 0)`.
    ///
    /// Only the unit test calls this directly — the IFMA tier in
    /// [`crate::simd`] inlines the same formula lane-parallel at radix
    /// `2^52`, on the low 52 bits of the same constant — but it is the
    /// executable specification of that constant.
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline(always)]
    pub(crate) fn mont_redc_lazy(&self, x: u128) -> u64 {
        debug_assert!(self.q & 1 == 1, "Montgomery needs an odd modulus");
        debug_assert!(x < (self.q as u128) << 64, "REDC operand out of range");
        let x_lo = x as u64;
        let x_hi = (x >> 64) as u64;
        let m = x_lo.wrapping_mul(self.mont_qinv_neg);
        let mq_hi = ((m as u128 * self.q as u128) >> 64) as u64;
        // x_lo + lo(m·q) ≡ 0 mod 2^64, so the carry out is 1 iff x_lo != 0.
        x_hi + mq_hi + (x_lo != 0) as u64
    }

    /// Finds a generator of the `2n`-th roots of unity, i.e. a primitive
    /// `2n`-th root of unity modulo `q`.
    ///
    /// Requires `q ≡ 1 (mod 2n)` and `n` a power of two. Returns `None` when
    /// no such root exists.
    pub fn primitive_root_of_unity(&self, two_n: u64) -> Option<u64> {
        if !two_n.is_power_of_two() || !(self.q - 1).is_multiple_of(two_n) {
            return None;
        }
        let cofactor = (self.q - 1) / two_n;
        // Try small candidates until one has exact order 2n.
        for g in 2..self.q.min(10_000) {
            let cand = self.pow(g, cofactor);
            if cand != 1 && self.pow(cand, two_n / 2) == self.q - 1 {
                return Some(cand);
            }
        }
        None
    }
}

/// Deterministic Miller–Rabin primality test, exact for all `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    // These witnesses are sufficient for all n < 2^64.
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a % n, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[inline]
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Generates `count` distinct NTT-friendly primes of roughly `bits` bits.
///
/// Each returned prime `q` satisfies `q ≡ 1 (mod 2n)` so that the negacyclic
/// NTT of size `n` exists modulo `q`. Primes are returned in decreasing
/// order starting just below `2^bits`.
///
/// # Panics
///
/// Panics if `bits` is not in `20..=61`, if `n` is not a power of two, or if
/// not enough primes exist in the range (which cannot happen for the
/// parameter sizes used in this workspace).
pub fn ntt_primes(bits: u32, n: usize, count: usize) -> Vec<u64> {
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    primes_congruent(bits, 2 * n as u64, count)
}

/// Generates `count` distinct primes of roughly `bits` bits, each congruent
/// to `1 (mod step)`.
///
/// BGV uses `step = lcm(2N, t)`: the `2N` factor makes the negacyclic NTT
/// exist, and the `t` factor makes every chain prime `q_l ≡ 1 (mod t)` so
/// that modulus switching preserves plaintexts exactly (dividing by `q_l`
/// multiplies the plaintext by `q_l^{-1} ≡ 1 mod t`).
///
/// # Panics
///
/// Panics if `bits` is not in `20..=61`, if `step` is zero, or if not enough
/// primes exist in the range.
pub fn primes_congruent(bits: u32, step: u64, count: usize) -> Vec<u64> {
    assert!((20..=61).contains(&bits), "prime size out of range");
    assert!(step > 0, "step must be positive");
    let mut primes = Vec::with_capacity(count);
    // Start at the largest value < 2^bits congruent to 1 mod step.
    let top = (1u64 << bits) - 1;
    let mut cand = top - (top % step) + 1;
    if cand > top {
        cand -= step;
    }
    while primes.len() < count {
        if is_prime(cand) {
            primes.push(cand);
        }
        assert!(cand > step, "ran out of candidate primes");
        cand -= step;
    }
    primes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_out_of_range() {
        assert!(Modulus::new(0).is_none());
        assert!(Modulus::new(1).is_none());
        assert!(Modulus::new(1 << 62).is_none());
        assert!(Modulus::new((1 << 62) - 1).is_some());
    }

    #[test]
    fn new_prime_rejects_composites() {
        assert!(Modulus::new_prime(91).is_none());
        assert!(Modulus::new_prime(97).is_some());
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let q = Modulus::new(101).unwrap();
        for a in 0..101 {
            for b in 0..101 {
                let s = q.add(a, b);
                assert_eq!(q.sub(s, b), a);
            }
            assert_eq!(q.add(a, q.neg(a)), 0);
        }
    }

    #[test]
    fn mul_matches_naive() {
        let q = Modulus::new(1_000_003).unwrap();
        let mut x = 1u64;
        for i in 1..1000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % q.value();
            let y = x.wrapping_mul(2862933555777941757).wrapping_add(i) % q.value();
            assert_eq!(
                q.mul(x, y),
                (x as u128 * y as u128 % q.value() as u128) as u64
            );
        }
    }

    #[test]
    fn barrett_reduces_large_products() {
        let q = Modulus::new((1 << 61) - 1).unwrap(); // Not prime; reduction only.
        let a = q.value() - 1;
        let b = q.value() - 2;
        assert_eq!(
            q.mul(a, b),
            (a as u128 * b as u128 % q.value() as u128) as u64
        );
        assert_eq!(
            q.reduce_u128(u128::MAX),
            (u128::MAX % q.value() as u128) as u64
        );
    }

    #[test]
    fn shoup_mul_matches_barrett() {
        // Shoup multiplication must agree with Barrett on every operand
        // range it accepts, including lazy inputs up to 4q and the largest
        // supported modulus.
        for &qv in &[97u64, 1_000_003, (1 << 61) + 33, (1 << 62) - 59] {
            let q = Modulus::new(qv).unwrap();
            let mut x = 1u64;
            for i in 1..200u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                let w = x % qv;
                let ws = q.shoup(w);
                // `a` sweeps the full lazy range [0, 4q).
                let a = x.wrapping_mul(0x9E3779B97F4A7C15) % (4 * qv).max(1);
                let expect = ((a as u128 * w as u128) % qv as u128) as u64;
                assert_eq!(q.mul_shoup(a, w, ws), expect, "q={qv} a={a} w={w}");
                let lazy = q.mul_shoup_lazy(a, w, ws);
                assert!(lazy < 2 * qv, "lazy result out of range");
                assert_eq!(lazy % qv, expect);
            }
        }
    }

    #[test]
    fn montgomery_redc_matches_barrett() {
        // The SIMD product kernels rest on REDC: for any x = a·b with
        // a < 2q and b < q, mont_redc_lazy(x) ≡ x·2^{-64} (mod q) and the
        // result stays below 2q. Converting one operand by r2 first makes
        // the pair compute a·b mod q exactly like the Barrett oracle.
        for &qv in &[
            97u64,
            (1 << 40) - 87,
            (1 << 45) - 229,
            (1 << 55) - 55,
            (1 << 61) + 33,
        ] {
            let q = Modulus::new(qv).unwrap();
            let r = (1u128 << 64) % qv as u128;
            let r2 = (r * r % qv as u128) as u64;
            let mut x = 1u64;
            for i in 1..300u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                let a = x % (2 * qv); // lazy-domain operand
                let b = x.rotate_left(17) % qv;
                // a·R in [0, 2q), then (aR)·b reduced back out of the
                // Montgomery domain gives the plain product.
                let a_mont = q.mont_redc_lazy((a % qv) as u128 * r2 as u128);
                assert!(a_mont < 2 * qv);
                let prod = q.mont_redc_lazy(a_mont as u128 * b as u128);
                assert!(prod < 2 * qv);
                assert_eq!(prod % qv, q.mul(a % qv, b), "q={qv} a={a} b={b}");
            }
        }
    }

    #[test]
    fn lazy_add_and_reduce() {
        let q = Modulus::new(101).unwrap();
        for a in 0..202u64 {
            for b in 0..202u64 {
                let s = q.add_lazy(a, b);
                assert!(s < 202);
                assert_eq!(s % 101, (a + b) % 101);
            }
            assert_eq!(q.reduce_lazy(a), a % 101);
        }
    }

    #[test]
    fn pow_and_inv() {
        let q = Modulus::new_prime(65537).unwrap();
        assert_eq!(q.pow(3, 0), 1);
        assert_eq!(q.pow(3, 1), 3);
        assert_eq!(q.pow(2, 16), 65536);
        for a in 1..200u64 {
            let inv = q.inv(a).unwrap();
            assert_eq!(q.mul(a, inv), 1);
        }
        assert!(q.inv(0).is_none());
    }

    #[test]
    fn signed_representatives() {
        let q = Modulus::new(101).unwrap();
        assert_eq!(q.to_signed(0), 0);
        assert_eq!(q.to_signed(50), 50);
        assert_eq!(q.to_signed(51), -50);
        assert_eq!(q.to_signed(100), -1);
        for a in 0..101 {
            assert_eq!(q.from_signed(q.to_signed(a)), a);
        }
        assert_eq!(q.from_signed(-1), 100);
        assert_eq!(q.from_signed(-102), 100);
    }

    #[test]
    fn primality_small_cases() {
        let primes: Vec<u64> = (0..100).filter(|&n| is_prime(n)).collect();
        assert_eq!(
            primes,
            vec![
                2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                83, 89, 97
            ]
        );
    }

    #[test]
    fn primality_large_cases() {
        assert!(is_prime((1 << 61) - 1)); // Mersenne prime M61.
        assert!(!is_prime(u64::MAX)); // 2^64-1 = 3*5*17*257*641*65537*6700417.
        assert!(is_prime(18446744073709551557)); // Largest prime < 2^64.
    }

    #[test]
    fn ntt_prime_generation() {
        let primes = ntt_primes(55, 4096, 10);
        assert_eq!(primes.len(), 10);
        let mut seen = std::collections::HashSet::new();
        for &p in &primes {
            assert!(is_prime(p));
            assert_eq!(p % (2 * 4096), 1);
            assert!(p < 1 << 55);
            assert!(p > 1 << 54);
            assert!(seen.insert(p));
        }
    }

    #[test]
    fn roots_of_unity() {
        let n = 1024u64;
        let q = Modulus::new_prime(ntt_primes(50, n as usize, 1)[0]).unwrap();
        let w = q.primitive_root_of_unity(2 * n).unwrap();
        assert_eq!(q.pow(w, 2 * n), 1);
        assert_eq!(q.pow(w, n), q.value() - 1); // w^n = -1 (negacyclic).
    }

    #[test]
    fn no_root_when_not_congruent() {
        let q = Modulus::new_prime(97).unwrap();
        assert!(q.primitive_root_of_unity(64).is_none());
    }
}
