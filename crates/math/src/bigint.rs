//! A small arbitrary-precision unsigned integer.
//!
//! The BGV modulus `Q` is a product of ten 55-bit primes (≈550 bits), which
//! does not fit any machine word. This module provides just the operations
//! the workspace needs — addition, subtraction, multiplication, comparison,
//! reduction modulo a word, and halving — rather than a general bignum
//! library. CRT reconstruction (`x mod Q` from residues `x mod q_i`) only
//! needs these operations because the intermediate sum is bounded by
//! `k · Q`, so the final reduction is a handful of subtractions.

use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer (little-endian 64-bit limbs).
///
/// # Examples
///
/// ```
/// use mycelium_math::bigint::BigUint;
///
/// let a = BigUint::from_u64(u64::MAX);
/// let b = a.mul(&a);
/// assert_eq!(b.rem_u64(97), (u64::MAX as u128 * u64::MAX as u128 % 97) as u64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigUint {
    /// Little-endian limbs with no trailing zero limb (zero = empty vec).
    limbs: Vec<u64>,
}

impl BigUint {
    /// Returns zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// Returns one.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// Creates a big integer from a single word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// Creates a big integer from a 128-bit value.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = Self {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns the bit length (0 for zero).
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// Addition.
    pub fn add(&self, other: &Self) -> Self {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in longer.iter().enumerate() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Subtraction; returns `None` if `other > self`.
    pub fn checked_sub(&self, other: &Self) -> Option<Self> {
        if self.cmp_big(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = Self { limbs: out };
        r.normalize();
        Some(r)
    }

    /// Subtraction.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        self.checked_sub(other).expect("BigUint underflow")
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Multiplies by a single word.
    pub fn mul_u64(&self, v: u64) -> Self {
        self.mul(&Self::from_u64(v))
    }

    /// Remainder modulo a single word.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "division by zero");
        let mut rem = 0u128;
        for &limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | limb as u128) % m as u128;
        }
        rem as u64
    }

    /// Halves the value (floor division by two).
    pub fn shr1(&self) -> Self {
        let mut out = self.limbs.clone();
        let mut carry = 0u64;
        for limb in out.iter_mut().rev() {
            let new_carry = *limb & 1;
            *limb = (*limb >> 1) | (carry << 63);
            carry = new_carry;
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Three-way comparison.
    pub fn cmp_big(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Lossy conversion to `f64` (used for noise-budget estimates).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            acc = acc * 2f64.powi(64) + limb as f64;
        }
        acc
    }

    /// Approximate base-2 logarithm (`-inf` for zero is avoided by returning 0).
    pub fn log2(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        // Use the top two limbs for precision and add the limb offset.
        let n = self.limbs.len();
        if n == 1 {
            (self.limbs[0] as f64).log2()
        } else {
            let top = self.limbs[n - 1] as f64 * 2f64.powi(64) + self.limbs[n - 2] as f64;
            top.log2() + 64.0 * (n - 2) as f64
        }
    }

    /// Computes the product of a slice of words as a big integer.
    pub fn product_of(words: &[u64]) -> Self {
        let mut acc = Self::one();
        for &w in words {
            acc = acc.mul_u64(w);
        }
        acc
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arithmetic_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, 1),
            (u64::MAX as u128, 1),
            (u64::MAX as u128, u64::MAX as u128),
            (123456789012345678901234567890u128, 987654321u128),
        ];
        for &(a, b) in &cases {
            let ba = BigUint::from_u128(a);
            let bb = BigUint::from_u128(b);
            assert_eq!(ba.add(&bb), BigUint::from_u128(a + b));
            if a >= b {
                assert_eq!(ba.sub(&bb), BigUint::from_u128(a - b));
            }
            if a.checked_mul(b).is_some() {
                assert_eq!(ba.mul(&bb), BigUint::from_u128(a * b));
            }
        }
    }

    #[test]
    fn mul_large_and_rem() {
        // (2^64 - 1)^4 mod 1000003 computed independently.
        let a = BigUint::from_u64(u64::MAX);
        let a2 = a.mul(&a);
        let a4 = a2.mul(&a2);
        let m = 1_000_003u64;
        let r = {
            let base = u64::MAX % m;
            let mut acc = 1u128;
            for _ in 0..4 {
                acc = acc * base as u128 % m as u128;
            }
            acc as u64
        };
        assert_eq!(a4.rem_u64(m), r);
        assert_eq!(a4.bits(), 256);
    }

    #[test]
    fn checked_sub_underflow() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(7);
        assert!(a.checked_sub(&b).is_none());
        assert_eq!(b.checked_sub(&a).unwrap(), BigUint::from_u64(2));
    }

    #[test]
    fn shr1_halves() {
        let a = BigUint::from_u128(u128::MAX);
        assert_eq!(a.shr1(), BigUint::from_u128(u128::MAX >> 1));
        assert_eq!(BigUint::from_u64(7).shr1(), BigUint::from_u64(3));
        assert_eq!(BigUint::zero().shr1(), BigUint::zero());
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u128(1 << 100);
        let b = BigUint::from_u64(u64::MAX);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp_big(&a), Ordering::Equal);
    }

    #[test]
    fn product_of_words() {
        let p = BigUint::product_of(&[3, 5, 7]);
        assert_eq!(p, BigUint::from_u64(105));
        let primes: Vec<u64> = crate::zq::ntt_primes(55, 1024, 10);
        let q = BigUint::product_of(&primes);
        // Ten 55-bit primes multiply to roughly 550 bits (the paper's modulus).
        assert!((540..=550).contains(&q.bits()));
        for &pr in &primes {
            assert_eq!(q.rem_u64(pr), 0);
        }
    }

    #[test]
    fn log2_and_to_f64() {
        assert!((BigUint::from_u64(1024).log2() - 10.0).abs() < 1e-9);
        let big = BigUint::product_of(&[u64::MAX, u64::MAX]);
        assert!((big.log2() - 128.0).abs() < 1e-6);
        assert!((BigUint::from_u64(1000).to_f64() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_strips_zero_limbs() {
        let a = BigUint::from_u128((1u128 << 64) + 5);
        let b = a.sub(&BigUint::from_u128(1u128 << 64));
        assert_eq!(b, BigUint::from_u64(5));
        assert_eq!(b.bits(), 3);
    }
}
