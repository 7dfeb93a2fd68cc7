//! Dense polynomials over a single word-sized prime modulus.
//!
//! [`Poly`] is the single-modulus building block; the BGV scheme operates on
//! [`crate::rns::RnsPoly`], which bundles one `Poly` per prime of the modulus
//! chain. Coefficients are always kept reduced (`< q`).

use crate::ntt::NttTable;
use crate::zq::Modulus;

/// A polynomial in `Z_q[X]/(X^N + 1)` with reduced coefficients.
///
/// # Examples
///
/// ```
/// use mycelium_math::{poly::Poly, zq::Modulus};
///
/// let q = Modulus::new_prime(97).unwrap();
/// let a = Poly::from_coeffs(vec![1, 2, 3, 0], q);
/// let b = Poly::from_coeffs(vec![96, 0, 0, 0], q); // -1
/// let c = a.add(&b);
/// assert_eq!(c.coeffs(), &[0, 2, 3, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<u64>,
    modulus: Modulus,
}

impl Poly {
    /// Creates the zero polynomial of degree bound `n`.
    pub fn zero(n: usize, modulus: Modulus) -> Self {
        Self {
            coeffs: vec![0; n],
            modulus,
        }
    }

    /// Creates a polynomial from raw coefficients, reducing each modulo `q`.
    pub fn from_coeffs(coeffs: Vec<u64>, modulus: Modulus) -> Self {
        let coeffs = coeffs.into_iter().map(|c| modulus.reduce(c)).collect();
        Self { coeffs, modulus }
    }

    /// Creates a polynomial from signed coefficients (centered representation).
    pub fn from_signed(coeffs: &[i64], modulus: Modulus) -> Self {
        Self {
            coeffs: coeffs.iter().map(|&c| modulus.from_signed(c)).collect(),
            modulus,
        }
    }

    /// Returns the coefficient slice.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Returns the modulus.
    #[inline]
    pub fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// Returns the ring degree (number of coefficients).
    #[inline]
    pub fn degree(&self) -> usize {
        self.coeffs.len()
    }

    /// Returns true if every coefficient is zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Coefficient-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different degrees or moduli.
    pub fn add(&self, other: &Self) -> Self {
        self.check_compat(other);
        let coeffs = self
            .coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(&a, &b)| self.modulus.add(a, b))
            .collect();
        Self {
            coeffs,
            modulus: self.modulus,
        }
    }

    /// Coefficient-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different degrees or moduli.
    pub fn sub(&self, other: &Self) -> Self {
        self.check_compat(other);
        let coeffs = self
            .coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(&a, &b)| self.modulus.sub(a, b))
            .collect();
        Self {
            coeffs,
            modulus: self.modulus,
        }
    }

    /// Negation of every coefficient.
    pub fn neg(&self) -> Self {
        Self {
            coeffs: self.coeffs.iter().map(|&a| self.modulus.neg(a)).collect(),
            modulus: self.modulus,
        }
    }

    /// Multiplication by a scalar.
    pub fn scalar_mul(&self, s: u64) -> Self {
        let s = self.modulus.reduce(s);
        Self {
            coeffs: self
                .coeffs
                .iter()
                .map(|&a| self.modulus.mul(a, s))
                .collect(),
            modulus: self.modulus,
        }
    }

    /// Negacyclic polynomial multiplication using the supplied NTT table.
    ///
    /// # Panics
    ///
    /// Panics if the operands are incompatible or the table does not match
    /// the polynomial's degree and modulus.
    pub fn mul(&self, other: &Self, table: &NttTable) -> Self {
        self.check_compat(other);
        assert_eq!(table.degree(), self.degree(), "NTT table degree mismatch");
        assert_eq!(
            table.modulus().value(),
            self.modulus.value(),
            "NTT table modulus mismatch"
        );
        // One owned buffer for the result, one pooled buffer for the second
        // operand's transform — no other allocations.
        let mut coeffs = self.coeffs.clone();
        let mut tmp = crate::scratch::take(other.coeffs.len());
        tmp.copy_from_slice(&other.coeffs);
        table.multiply_into(&mut coeffs, &mut tmp);
        Self {
            coeffs,
            modulus: self.modulus,
        }
    }

    fn check_compat(&self, other: &Self) {
        assert_eq!(self.degree(), other.degree(), "polynomial degree mismatch");
        assert_eq!(
            self.modulus.value(),
            other.modulus.value(),
            "polynomial modulus mismatch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zq::ntt_primes;

    fn setup(n: usize) -> (Modulus, NttTable) {
        let q = Modulus::new_prime(ntt_primes(40, n, 1)[0]).unwrap();
        (q, NttTable::new(q, n).unwrap())
    }

    #[test]
    fn add_sub_inverse() {
        let (q, _) = setup(16);
        let a = Poly::from_coeffs((0..16).map(|i| i * 7 + 3).collect(), q);
        let b = Poly::from_coeffs((0..16).map(|i| i * 13 + 1).collect(), q);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), Poly::zero(16, q));
        assert_eq!(a.add(&a.neg()), Poly::zero(16, q));
    }

    #[test]
    fn scalar_mul_distributes() {
        let (q, _) = setup(8);
        let a = Poly::from_coeffs(vec![1, 2, 3, 4, 5, 6, 7, 8], q);
        assert_eq!(a.scalar_mul(2), a.add(&a));
        assert_eq!(a.scalar_mul(0), Poly::zero(8, q));
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let (q, t) = setup(32);
        let a = Poly::from_coeffs((0..32).map(|i| i * i + 1).collect(), q);
        let b = Poly::from_coeffs((0..32).map(|i| 3 * i + 2).collect(), q);
        let c = Poly::from_coeffs((0..32).map(|i| 11 * i + 5).collect(), q);
        assert_eq!(a.mul(&b, &t), b.mul(&a, &t));
        assert_eq!(a.mul(&b.add(&c), &t), a.mul(&b, &t).add(&a.mul(&c, &t)));
    }

    #[test]
    fn signed_roundtrip_and_norm() {
        let (q, _) = setup(8);
        let signed = [-3, 5, 0, -1, 2, 0, 0, 7];
        let a = Poly::from_signed(&signed, q);
        let back: Vec<i64> = a.coeffs().iter().map(|&c| q.to_signed(c)).collect();
        assert_eq!(back, signed);
    }

    #[test]
    #[should_panic(expected = "degree mismatch")]
    fn add_panics_on_degree_mismatch() {
        let (q, _) = setup(8);
        let a = Poly::zero(8, q);
        let b = Poly::zero(16, q);
        let _ = a.add(&b);
    }
}
