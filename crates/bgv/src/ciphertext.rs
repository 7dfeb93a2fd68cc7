//! BGV plaintexts, ciphertexts, and homomorphic operations.
//!
//! A ciphertext is a vector of ring elements `(c_0, …, c_k)` at some level
//! `l` of the modulus chain; it decrypts to `[[Σ c_i s^i]_{Q_l}]_t`. Fresh
//! ciphertexts have degree 1 (two components); multiplication produces
//! degree 2, which [`Ciphertext::relinearize`] reduces back using the
//! key-switching keys. [`Ciphertext::mod_switch_down`] drops one chain
//! prime, dividing the noise by `≈ q_l` — the leveled-BGV noise-management
//! strategy.
//!
//! The paper defers relinearization to the aggregator (§5). This prototype
//! does not: an origin relinearizes after every multiplication, so only
//! degree-1 ciphertexts ever leave it and the aggregator never key-switches.

use std::sync::Arc;

use mycelium_math::rng::Rng;
use mycelium_math::rns::{key_switch_assign, Representation, RnsPoly};
use mycelium_math::{ew, sample, scratch};

use crate::keys::{PublicKey, RelinKey, SecretKey};
use crate::params::BgvParams;

/// Errors from homomorphic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgvError {
    /// Operands are at different levels of the modulus chain.
    LevelMismatch { left: usize, right: usize },
    /// Relinearization was requested at a level with no key material.
    MissingRelinKey { level: usize },
    /// Relinearization applies to degree-2 (3-component) ciphertexts only.
    UnexpectedDegree { parts: usize },
    /// The ciphertext is already at the bottom of the chain.
    BottomOfChain,
    /// A plaintext coefficient is outside `[0, t)`.
    PlaintextOutOfRange { value: u64, modulus: u64 },
    /// Plaintext has the wrong number of coefficients.
    PlaintextLength { got: usize, want: usize },
}

impl std::fmt::Display for BgvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BgvError::LevelMismatch { left, right } => {
                write!(f, "ciphertext level mismatch: {left} vs {right}")
            }
            BgvError::MissingRelinKey { level } => {
                write!(f, "no relinearization key for level {level}")
            }
            BgvError::UnexpectedDegree { parts } => {
                write!(f, "expected a 3-component ciphertext, got {parts}")
            }
            BgvError::BottomOfChain => write!(f, "cannot mod-switch below level 1"),
            BgvError::PlaintextOutOfRange { value, modulus } => {
                write!(
                    f,
                    "plaintext coefficient {value} out of range [0, {modulus})"
                )
            }
            BgvError::PlaintextLength { got, want } => {
                write!(f, "plaintext has {got} coefficients, ring degree is {want}")
            }
        }
    }
}

impl std::error::Error for BgvError {}

/// A plaintext polynomial with coefficients in `[0, t)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    coeffs: Vec<u64>,
    modulus: u64,
}

impl Plaintext {
    /// Creates a plaintext, validating the coefficient range.
    pub fn new(coeffs: Vec<u64>, modulus: u64) -> Result<Self, BgvError> {
        if let Some(&bad) = coeffs.iter().find(|&&c| c >= modulus) {
            return Err(BgvError::PlaintextOutOfRange {
                value: bad,
                modulus,
            });
        }
        Ok(Self { coeffs, modulus })
    }

    /// The all-zero plaintext of degree `n`.
    pub fn zero(n: usize, modulus: u64) -> Self {
        Self {
            coeffs: vec![0; n],
            modulus,
        }
    }

    /// Coefficients.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Plaintext modulus.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Centered (signed) lift of the coefficients, minimizing the embedded
    /// message norm.
    pub fn centered(&self) -> Vec<i64> {
        self.coeffs
            .iter()
            .map(|&c| {
                if c > self.modulus / 2 {
                    c as i64 - self.modulus as i64
                } else {
                    c as i64
                }
            })
            .collect()
    }
}

/// A BGV ciphertext.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// Components in NTT representation, all at the same level.
    parts: Vec<RnsPoly>,
    params: BgvParams,
}

impl Ciphertext {
    /// Encrypts a plaintext under the public key.
    pub fn encrypt<R: Rng + ?Sized>(
        pk: &PublicKey,
        pt: &Plaintext,
        rng: &mut R,
    ) -> Result<Self, BgvError> {
        let ctx = pk.context();
        let n = ctx.degree();
        if pt.coeffs().len() != n {
            return Err(BgvError::PlaintextLength {
                got: pt.coeffs().len(),
                want: n,
            });
        }
        Self::encrypt_at_level(pk, pt, ctx.max_level(), rng)
    }

    /// Encrypts directly at `level` — the same scheme as
    /// [`Ciphertext::encrypt`], but the randomness, noise, and NTTs cover
    /// only the first `level` RNS limbs (the public key's residue prefix
    /// *is* its image at the lower level). Ciphertexts that are born at
    /// the aggregation level (neutral accumulators, zeroed origins) use
    /// this to skip both the full-chain encryption and the mod-switch
    /// ladder down.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `1..=max_level`.
    pub fn encrypt_at_level<R: Rng + ?Sized>(
        pk: &PublicKey,
        pt: &Plaintext,
        level: usize,
        rng: &mut R,
    ) -> Result<Self, BgvError> {
        let ctx = pk.context();
        let n = ctx.degree();
        if pt.coeffs().len() != n {
            return Err(BgvError::PlaintextLength {
                got: pt.coeffs().len(),
                want: n,
            });
        }
        assert!(
            level >= 1 && level <= ctx.max_level(),
            "encryption level out of range"
        );
        // c0 = b·u + t·e0 + m ; c1 = a·u + t·e1. The three random elements
        // are drawn once, as small signed coefficients, in the order u, e0,
        // e1; `t·e0 + m` and `t·e1` are formed on those small values (the
        // NTT is linear and its output canonical, so transforming the sum
        // equals summing the transforms, residue for residue; they stay far
        // below q < 2^62 for any parameters that decrypt, so the i64
        // arithmetic is exact). Each limb then runs lift → three transforms
        // → one fused multiply-add that reads û once, its working set
        // staying in L1 from lift to store.
        let t = pk.params.plaintext_modulus as i64;
        let u = sample::ternary_coeffs(n, rng);
        let mut w0 = sample::gaussian_coeffs(n, pk.params.sigma, rng);
        let mut w1 = sample::gaussian_coeffs(n, pk.params.sigma, rng);
        let pt_mod = pt.modulus();
        let (mut bound0, mut bound1) = (0u64, 0u64);
        for (e, &m) in w0.iter_mut().zip(pt.coeffs()) {
            // The centered lift of the message, as `Plaintext::centered`.
            let centered = if m > pt_mod / 2 {
                m as i64 - pt_mod as i64
            } else {
                m as i64
            };
            *e = t * *e + centered;
            bound0 = bound0.max(e.unsigned_abs());
        }
        for e in w1.iter_mut() {
            *e *= t;
            bound1 = bound1.max(e.unsigned_abs());
        }
        let (b, a) = (pk.b(), pk.a());
        let row = |i: usize| {
            let m = &ctx.moduli()[i];
            let table = &ctx.tables()[i];
            let mut u_hat = scratch::take(n);
            ew::lift_signed(m, &mut u_hat, &u, 1);
            table.forward(&mut u_hat);
            let mut c0 = vec![0u64; n];
            ew::lift_signed(m, &mut c0, &w0, bound0);
            table.forward(&mut c0);
            let mut c1 = vec![0u64; n];
            ew::lift_signed(m, &mut c1, &w1, bound1);
            table.forward(&mut c1);
            ew::mul_shoup_add2(
                m,
                &mut c0,
                &mut c1,
                &u_hat,
                (b.residue(i), b.shoup_residue(i)),
                (a.residue(i), a.shoup_residue(i)),
            );
            (c0, c1)
        };
        let (c0, c1): (Vec<_>, Vec<_>) = (0..level).map(row).unzip();
        Ok(Self {
            parts: vec![
                RnsPoly::from_residues(Arc::clone(ctx), Representation::Ntt, c0),
                RnsPoly::from_residues(Arc::clone(ctx), Representation::Ntt, c1),
            ],
            params: pk.params.clone(),
        })
    }

    /// Builds a ciphertext from raw components (used by the threshold
    /// decryption layer and tests).
    pub fn from_parts(parts: Vec<RnsPoly>, params: BgvParams) -> Self {
        assert!(!parts.is_empty(), "a ciphertext needs at least one part");
        Self { parts, params }
    }

    /// Ciphertext components (NTT representation).
    pub fn parts(&self) -> &[RnsPoly] {
        &self.parts
    }

    /// Current level.
    pub fn level(&self) -> usize {
        self.parts[0].level()
    }

    /// Number of components (degree + 1).
    pub fn degree(&self) -> usize {
        self.parts.len() - 1
    }

    /// Parameters.
    pub fn params(&self) -> &BgvParams {
        &self.params
    }

    /// Homomorphic addition.
    pub fn add(&self, other: &Self) -> Result<Self, BgvError> {
        self.check_level(other)?;
        // Clone the longer ciphertext and fold the shorter one in place —
        // no zero padding materialized.
        let (longer, shorter) = if self.parts.len() >= other.parts.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut parts = longer.parts.clone();
        for (p, o) in parts.iter_mut().zip(&shorter.parts) {
            p.add_assign(o);
        }
        Ok(Self {
            parts,
            params: self.params.clone(),
        })
    }

    /// In-place homomorphic addition: `self += other`, reusing `self`'s
    /// component storage. The accumulator loops in the query executor fold
    /// thousands of ciphertexts — this keeps them allocation-free.
    pub fn add_assign(&mut self, other: &Self) -> Result<(), BgvError> {
        self.check_level(other)?;
        for (p, o) in self.parts.iter_mut().zip(&other.parts) {
            p.add_assign(o);
        }
        if other.parts.len() > self.parts.len() {
            for o in &other.parts[self.parts.len()..] {
                self.parts.push(o.clone());
            }
        }
        Ok(())
    }

    /// Homomorphic multiplication (tensor product). Both operands must be
    /// degree-1; the result is degree-2 until relinearized.
    ///
    /// The three output components are computed in one fused pass per
    /// residue, with no intermediate allocations.
    pub fn mul(&self, other: &Self) -> Result<Self, BgvError> {
        self.check_level(other)?;
        if self.parts.len() != 2 || other.parts.len() != 2 {
            return Err(BgvError::UnexpectedDegree {
                parts: self.parts.len().max(other.parts.len()),
            });
        }
        let ctx = self.parts[0].context().clone();
        let level = self.level();
        let (a0, a1) = (&self.parts[0], &self.parts[1]);
        let (b0, b1) = (&other.parts[0], &other.parts[1]);
        let mut c0 = Vec::with_capacity(level);
        let mut c1 = Vec::with_capacity(level);
        let mut c2 = Vec::with_capacity(level);
        for i in 0..level {
            let m = &ctx.moduli()[i];
            let (x0, x1) = (&a0.residues()[i], &a1.residues()[i]);
            let (y0, y1) = (&b0.residues()[i], &b1.residues()[i]);
            let n = x0.len();
            let mut r0 = vec![0u64; n];
            let mut r1 = vec![0u64; n];
            let mut r2 = vec![0u64; n];
            // One fused kernel per limb: operands are loaded once and the
            // four partial products stay in the lazy domain until each
            // output's single canonicalization (see ew::tensor3).
            ew::tensor3(m, (x0, x1), (y0, y1), (&mut r0, &mut r1, &mut r2));
            c0.push(r0);
            c1.push(r1);
            c2.push(r2);
        }
        let parts = vec![
            RnsPoly::from_residues(ctx.clone(), Representation::Ntt, c0),
            RnsPoly::from_residues(ctx.clone(), Representation::Ntt, c1),
            RnsPoly::from_residues(ctx, Representation::Ntt, c2),
        ];
        Ok(Self {
            parts,
            params: self.params.clone(),
        })
    }

    /// Multiplies by the monomial `x^k` (a negacyclic rotation).
    ///
    /// This is noise-free: the infinity norm of `c(s)` is preserved. Used by
    /// the GROUP BY window packing (§4.5) to shift a local result into its
    /// group's coefficient window.
    ///
    /// For NTT-domain components (the normal case) this is a pointwise
    /// multiply by the transform of `±x^{k mod N}`, whose values *and*
    /// Shoup constants are read off each limb's twiddle table
    /// ([`NttTable::monomial_shoup_into`](mycelium_math::ntt::NttTable::monomial_shoup_into))
    /// — no transform and no division.
    pub fn mul_monomial(&self, k: usize) -> Self {
        let ctx = self.parts[0].context().clone();
        let n = ctx.degree();
        let k = k % (2 * n);
        if k == 0 {
            return self.clone();
        }
        let parts = if self.parts[0].representation() == Representation::Ntt {
            let mut residues: Vec<Vec<Vec<u64>>> = vec![Vec::new(); self.parts.len()];
            let (mut w, mut ws) = (scratch::take(n), scratch::take(n));
            for i in 0..self.level() {
                ctx.tables()[i].monomial_shoup_into(k, &mut w, &mut ws);
                for (out, p) in residues.iter_mut().zip(&self.parts) {
                    let mut r = vec![0u64; n];
                    ew::mul_shoup_into(&ctx.moduli()[i], &mut r, &p.residues()[i], &w, &ws);
                    out.push(r);
                }
            }
            residues
                .into_iter()
                .map(|r| RnsPoly::from_residues(ctx.clone(), Representation::Ntt, r))
                .collect()
        } else {
            self.parts.iter().map(|p| rotate_negacyclic(p, k)).collect()
        };
        Self {
            parts,
            params: self.params.clone(),
        }
    }

    /// Adds a plaintext to the ciphertext (no key material needed: the
    /// centered lift is added to `c_0`).
    pub fn add_plain(&self, pt: &Plaintext) -> Result<Self, BgvError> {
        let ctx = self.parts[0].context();
        if pt.coeffs().len() != ctx.degree() {
            return Err(BgvError::PlaintextLength {
                got: pt.coeffs().len(),
                want: ctx.degree(),
            });
        }
        let mut lift = RnsPoly::from_signed(Arc::clone(ctx), self.level(), &pt.centered());
        lift.to_ntt();
        let mut parts = self.parts.clone();
        parts[0].add_assign(&lift);
        Ok(Self {
            parts,
            params: self.params.clone(),
        })
    }

    /// Subtracts a plaintext from the ciphertext.
    pub fn sub_plain(&self, pt: &Plaintext) -> Result<Self, BgvError> {
        let t = pt.modulus();
        let negated: Vec<u64> = pt.coeffs().iter().map(|&c| (t - c) % t).collect();
        self.add_plain(&Plaintext::new(negated, t).expect("negation stays in range"))
    }

    /// Relinearizes a degree-2 ciphertext back to degree 1 using the
    /// key-switching keys for the current level.
    pub fn relinearize(&self, rk: &RelinKey) -> Result<Self, BgvError> {
        match &self.parts[..] {
            [_, _] => Ok(self.clone()),
            [c0, c1, c2] => self.key_switched(c0.clone(), c1.clone(), c2, rk),
            parts => Err(BgvError::UnexpectedDegree { parts: parts.len() }),
        }
    }

    /// `self.mul(other)?.relinearize(rk)`, bit for bit, without copying
    /// the product's `c0` and `c1`: the key switch accumulates into them
    /// in place.
    pub fn mul_relinearize(&self, other: &Self, rk: &RelinKey) -> Result<Self, BgvError> {
        let mut prod = self.mul(other)?;
        let [c0, c1, c2]: [RnsPoly; 3] = std::mem::take(&mut prod.parts)
            .try_into()
            .expect("a product has three parts");
        prod.key_switched(c0, c1, &c2, rk)
    }

    /// The relinearization of `(c0, c1, c2)`, with `self`'s parameters:
    /// `c2` key-switched into `c0` and `c1`.
    fn key_switched(
        &self,
        mut c0: RnsPoly,
        mut c1: RnsPoly,
        c2: &RnsPoly,
        rk: &RelinKey,
    ) -> Result<Self, BgvError> {
        let level = c2.level();
        let keys = rk
            .at_level(level)
            .ok_or(BgvError::MissingRelinKey { level })?;
        // Fused gadget key switch: decomposition digits are read off the
        // NTT-domain c2, lifted, transformed, and multiply-accumulated limb
        // by limb against the Shoup-precomputed keys without materializing
        // digit polynomials.
        key_switch_assign(&mut c0, &mut c1, c2, keys);
        Ok(Self {
            parts: vec![c0, c1],
            params: self.params.clone(),
        })
    }

    /// Drops the last chain prime (BGV modulus switching), dividing the
    /// noise by `≈ q_l`.
    pub fn mod_switch_down(&self) -> Result<Self, BgvError> {
        self.mod_switch_to(self.level() - 1)
    }

    /// Mod-switches down to the target level.
    ///
    /// Fused ([`RnsPoly::mod_switch_ntt`]): only the `level − target`
    /// dropped limbs of each part are inverse-transformed, their
    /// corrections are combined per kept limb in the coefficient domain,
    /// and each kept limb pays a single forward transform — instead of a
    /// full inverse+forward round trip per dropped prime. The result is
    /// bit-identical to chained [`Ciphertext::mod_switch_down`] calls.
    pub fn mod_switch_to(&self, target: usize) -> Result<Self, BgvError> {
        if target < 1 || target > self.level() {
            return Err(BgvError::BottomOfChain);
        }
        let steps = self.level() - target;
        if steps == 0 {
            return Ok(self.clone());
        }
        let t = self.params.plaintext_modulus;
        let switch = |p: &RnsPoly| p.mod_switch_ntt(steps, t);
        Ok(Self {
            parts: self.parts.iter().map(switch).collect(),
            params: self.params.clone(),
        })
    }

    /// Decrypts with the secret key.
    pub fn decrypt(&self, sk: &SecretKey) -> Plaintext {
        let phase = self.phase(sk);
        let t = self.params.plaintext_modulus;
        Plaintext {
            coeffs: phase.crt_centered_mod(t),
            modulus: t,
        }
    }

    /// Measures the exact noise (`log2 |c(s) - m|_∞`) using the secret key.
    ///
    /// Returns the plaintext, the noise's `log2` and the remaining budget
    /// in bits. This is the ground truth [`crate::noise`]'s plan is checked
    /// against; no ciphertext carries a noise estimate of its own.
    pub fn decrypt_with_noise(&self, sk: &SecretKey) -> (Plaintext, f64, f64) {
        let phase = self.phase(sk);
        let t = self.params.plaintext_modulus;
        let coeffs = phase.crt_centered_mod(t);
        let norm = phase.inf_norm_big();
        let noise = norm.log2();
        let budget = self.parts[0].context().log_q(self.level()) - 1.0 - noise;
        (Plaintext { coeffs, modulus: t }, noise, budget)
    }

    /// Computes the decryption phase `[Σ c_i s^i]_{Q_l}` in coefficient
    /// representation.
    pub fn phase(&self, sk: &SecretKey) -> RnsPoly {
        let s = sk.s_at_level(self.level());
        let mut acc = self.parts[0].clone();
        let mut s_pow = s.clone();
        for (i, part) in self.parts[1..].iter().enumerate() {
            acc.mul_add_assign(part, &s_pow);
            if i + 2 < self.parts.len() {
                s_pow.mul_assign(&s);
            }
        }
        acc.coeff()
    }

    fn check_level(&self, other: &Self) -> Result<(), BgvError> {
        if self.level() != other.level() {
            return Err(BgvError::LevelMismatch {
                left: self.level(),
                right: other.level(),
            });
        }
        Ok(())
    }
}

/// Negacyclic rotation: multiplies a coefficient-domain polynomial by `x^k`.
fn rotate_negacyclic(p: &RnsPoly, k: usize) -> RnsPoly {
    let ctx = p.context().clone();
    let n = ctx.degree();
    let k = k % (2 * n);
    let residues: Vec<Vec<u64>> = p
        .residues()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let m = ctx.moduli()[i];
            let mut out = vec![0u64; n];
            for (j, &c) in r.iter().enumerate() {
                let pos = j + k;
                let (idx, negate) = if pos < n {
                    (pos, false)
                } else if pos < 2 * n {
                    (pos - n, true)
                } else {
                    (pos - 2 * n, false)
                };
                out[idx] = if negate { m.neg(c) } else { c };
            }
            out
        })
        .collect();
    RnsPoly::from_residues(ctx, Representation::Coefficient, residues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeySet;
    use mycelium_math::rng::{SeedableRng, StdRng};
    use mycelium_math::sample;

    fn setup() -> (BgvParams, KeySet, StdRng) {
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(7);
        let ks = KeySet::generate(&params, &mut rng);
        (params, ks, rng)
    }

    fn monomial(n: usize, t: u64, a: usize) -> Plaintext {
        let mut c = vec![0u64; n];
        c[a] = 1;
        Plaintext::new(c, t).unwrap()
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (params, ks, mut rng) = setup();
        let coeffs: Vec<u64> = (0..params.n as u64)
            .map(|i| i % params.plaintext_modulus)
            .collect();
        let pt = Plaintext::new(coeffs.clone(), params.plaintext_modulus).unwrap();
        let ct = Ciphertext::encrypt(&ks.public, &pt, &mut rng).unwrap();
        assert_eq!(ct.decrypt(&ks.secret).coeffs(), coeffs.as_slice());
        let (_, _, budget) = ct.decrypt_with_noise(&ks.secret);
        assert!(budget > 100.0, "fresh budget {budget}");
    }

    #[test]
    fn homomorphic_addition() {
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let a = monomial(params.n, t, 3);
        let b = monomial(params.n, t, 3);
        let ca = Ciphertext::encrypt(&ks.public, &a, &mut rng).unwrap();
        let cb = Ciphertext::encrypt(&ks.public, &b, &mut rng).unwrap();
        let sum = ca.add(&cb).unwrap().decrypt(&ks.secret);
        // x^3 + x^3 = 2x^3: histogram bin 3 has count 2.
        assert_eq!(sum.coeffs()[3], 2);
        assert!(sum
            .coeffs()
            .iter()
            .enumerate()
            .all(|(i, &c)| i == 3 || c == 0));
    }

    #[test]
    fn add_assign_matches_add() {
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let ca = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 1), &mut rng).unwrap();
        let cb = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 2), &mut rng).unwrap();
        let want = ca.add(&cb).unwrap();
        let mut got = ca.clone();
        got.add_assign(&cb).unwrap();
        for (a, b) in want.parts().iter().zip(got.parts()) {
            assert_eq!(a, b);
        }
        // Degree-2 into degree-1 accumulator extends the parts vector.
        let prod = ca.mul(&cb).unwrap();
        let want = ca.add(&prod).unwrap();
        let mut got = ca.clone();
        got.add_assign(&prod).unwrap();
        assert_eq!(got.parts().len(), 3);
        for (a, b) in want.parts().iter().zip(got.parts()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn homomorphic_multiplication_adds_exponents() {
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let ca = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 5), &mut rng).unwrap();
        let cb = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 7), &mut rng).unwrap();
        let prod = ca.mul(&cb).unwrap();
        assert_eq!(prod.degree(), 2);
        // Decryption works on degree-2 ciphertexts directly.
        let pt = prod.decrypt(&ks.secret);
        assert_eq!(pt.coeffs()[12], 1, "x^5 · x^7 = x^12");
        assert_eq!(pt.coeffs().iter().sum::<u64>(), 1);
    }

    #[test]
    fn relinearization_preserves_plaintext() {
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let ca = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 2), &mut rng).unwrap();
        let cb = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 4), &mut rng).unwrap();
        let prod = ca.mul(&cb).unwrap().relinearize(&ks.relin).unwrap();
        assert_eq!(prod.degree(), 1);
        let fused = ca.mul_relinearize(&cb, &ks.relin).unwrap();
        assert_eq!(fused.parts(), prod.parts());
        let pt = prod.decrypt(&ks.secret);
        assert_eq!(pt.coeffs()[6], 1);
        let (_, _, budget) = prod.decrypt_with_noise(&ks.secret);
        assert!(budget > 0.0, "budget after relin {budget}");
    }

    #[test]
    fn mod_switch_preserves_plaintext_and_cuts_noise() {
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let ca = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 2), &mut rng).unwrap();
        let cb = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 4), &mut rng).unwrap();
        let prod = ca.mul(&cb).unwrap().relinearize(&ks.relin).unwrap();
        let (_, noise_before, _) = prod.decrypt_with_noise(&ks.secret);
        let switched = prod.mod_switch_down().unwrap();
        assert_eq!(switched.level(), params.levels - 1);
        let (pt, noise_after, _) = switched.decrypt_with_noise(&ks.secret);
        assert_eq!(pt.coeffs()[6], 1);
        assert!(
            noise_after < noise_before - 20.0,
            "noise {noise_before} -> {noise_after}"
        );
    }

    #[test]
    fn multiplication_chain_with_leveling() {
        // The core Mycelium operation: multiply d monomial ciphertexts
        // sequentially (one per neighbor), switching after each.
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let d = 4;
        let mut acc = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 1), &mut rng).unwrap();
        for _ in 0..d {
            let fresh =
                Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 1), &mut rng).unwrap();
            let fresh = fresh.mod_switch_to(acc.level()).unwrap();
            acc = acc
                .mul(&fresh)
                .unwrap()
                .relinearize(&ks.relin)
                .unwrap()
                .mod_switch_down()
                .unwrap();
        }
        let (pt, _, budget) = acc.decrypt_with_noise(&ks.secret);
        assert!(budget > 0.0, "budget {budget}");
        assert_eq!(pt.coeffs()[1 + d], 1, "x^1 · x^4 more = x^5");
    }

    #[test]
    fn histogram_aggregation() {
        // Sum of monomial encryptions = encrypted histogram (§4.1).
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let values = [0usize, 1, 1, 2, 2, 2, 5];
        let hist = values
            .iter()
            .map(|&v| Ciphertext::encrypt(&ks.public, &monomial(params.n, t, v), &mut rng).unwrap())
            .reduce(|acc, ct| acc.add(&ct).unwrap())
            .unwrap()
            .decrypt(&ks.secret);
        assert_eq!(hist.coeffs()[0], 1);
        assert_eq!(hist.coeffs()[1], 2);
        assert_eq!(hist.coeffs()[2], 3);
        assert_eq!(hist.coeffs()[5], 1);
        assert_eq!(hist.coeffs()[3], 0);
    }

    #[test]
    fn monomial_multiplication_is_noise_free() {
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let ct = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 3), &mut rng).unwrap();
        let (_, noise_before, _) = ct.decrypt_with_noise(&ks.secret);
        let shifted = ct.mul_monomial(10);
        let (pt, noise_after, _) = shifted.decrypt_with_noise(&ks.secret);
        assert_eq!(pt.coeffs()[13], 1);
        assert!((noise_after - noise_before).abs() < 1.0);
        // Wrapping past N negates: x^{N-1} · x^2 = -x^1 = (t-1)·x^1 mod t.
        let top = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, params.n - 1), &mut rng)
            .unwrap();
        let wrapped = top.mul_monomial(2).decrypt(&ks.secret);
        assert_eq!(wrapped.coeffs()[1], t - 1);
    }

    #[test]
    fn monomial_shift_full_period_is_identity() {
        // x^{2N} = 1: shifting by 2N (or 0) returns the same ciphertext.
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let ct = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 4), &mut rng).unwrap();
        let same = ct.mul_monomial(2 * params.n);
        for (a, b) in ct.parts().iter().zip(same.parts()) {
            assert_eq!(a, b);
        }
        // Shifting by N negates everything: x^4 · x^N = -x^4.
        let negated = ct.mul_monomial(params.n).decrypt(&ks.secret);
        assert_eq!(negated.coeffs()[4], t - 1);
    }

    /// Encryption written with the generic `RnsPoly` operations, one
    /// whole-polynomial pass per step: what `encrypt_at_level` fuses.
    fn encrypt_reference(
        pk: &PublicKey,
        pt: &Plaintext,
        level: usize,
        rng: &mut StdRng,
    ) -> Vec<RnsPoly> {
        let ctx = pk.context();
        let (n, t) = (ctx.degree(), pk.params.plaintext_modulus);
        let u = RnsPoly::from_signed(Arc::clone(ctx), level, &sample::ternary_coeffs(n, rng)).ntt();
        let e0 = sample::gaussian_rns(ctx, level, pk.params.sigma, rng).ntt();
        let e1 = sample::gaussian_rns(ctx, level, pk.params.sigma, rng).ntt();
        let m = RnsPoly::from_signed(Arc::clone(ctx), level, &pt.centered()).ntt();
        // The key's residue prefix is its image at the lower level.
        let b = pk.b().poly().truncate_level(level);
        let a = pk.a().poly().truncate_level(level);
        vec![
            u.mul(&b).add(&e0.scalar_mul(t)).add(&m),
            u.mul(&a).add(&e1.scalar_mul(t)),
        ]
    }

    #[test]
    fn fused_encrypt_matches_generic_reference_and_rng_position() {
        use mycelium_math::rng::RngCore;
        let (params, ks, _) = setup();
        let t = params.plaintext_modulus;
        for seed in 0..100u64 {
            // A dense plaintext with both signs of the centered lift.
            let coeffs: Vec<u64> = (0..params.n as u64)
                .map(|i| (i * (seed + 3) + seed) % t)
                .collect();
            let pt = Plaintext::new(coeffs, t).unwrap();
            for level in 1..=params.levels {
                let mut rng = StdRng::seed_from_u64(seed).with_stream(level as u64);
                let mut rng_ref = rng.clone();
                let got = Ciphertext::encrypt_at_level(&ks.public, &pt, level, &mut rng).unwrap();
                let want = encrypt_reference(&ks.public, &pt, level, &mut rng_ref);
                assert_eq!(got.parts(), &want[..], "seed {seed} level {level}");
                assert_eq!(
                    rng.next_u64(),
                    rng_ref.next_u64(),
                    "seed {seed} level {level}"
                );
            }
        }
    }

    /// Chained coefficient-domain oracle steps on every part.
    fn mod_switch_oracle(ct: &Ciphertext, target: usize) -> Vec<RnsPoly> {
        let t = ct.params().plaintext_modulus;
        ct.parts()
            .iter()
            .map(|p| {
                let mut c = p.coeff();
                for _ in target..ct.level() {
                    c = c.mod_switch_down(t);
                }
                c.ntt()
            })
            .collect()
    }

    #[test]
    fn mod_switch_matches_coefficient_oracle_for_every_level_pair() {
        // Power-of-two and odd plaintext moduli; 2-part (fresh) and 3-part
        // (unrelinearized product) ciphertexts; every (level, target).
        for t in [1u64 << 10, 257] {
            let params = BgvParams {
                n: 64,
                plaintext_modulus: t,
                prime_bits: 40,
                levels: 6,
                sigma: 3.2,
            };
            let mut rng = StdRng::seed_from_u64(t);
            let ks = KeySet::generate(&params, &mut rng);
            let pt = monomial(params.n, t, 5);
            for level in 2..=params.levels {
                let a = Ciphertext::encrypt_at_level(&ks.public, &pt, level, &mut rng).unwrap();
                let b = Ciphertext::encrypt_at_level(&ks.public, &pt, level, &mut rng).unwrap();
                for ct in [a.clone(), a.mul(&b).unwrap()] {
                    let down = ct.mod_switch_down().unwrap();
                    assert_eq!(down.parts(), &mod_switch_oracle(&ct, level - 1)[..]);
                    let mut chained = ct.clone();
                    for target in (1..level).rev() {
                        chained = chained.mod_switch_down().unwrap();
                        let direct = ct.mod_switch_to(target).unwrap();
                        assert_eq!(
                            direct.parts(),
                            &mod_switch_oracle(&ct, target)[..],
                            "t={t} parts={} {level}→{target}",
                            ct.parts().len()
                        );
                        assert_eq!(direct.parts(), chained.parts());
                    }
                }
            }
        }
    }

    #[test]
    fn monomial_shift_matches_coefficient_rotation() {
        let (params, ks, mut rng) = setup();
        let (n, t) = (params.n, params.plaintext_modulus);
        let pt = monomial(n, t, 3);
        for level in 1..=params.levels {
            let a = Ciphertext::encrypt_at_level(&ks.public, &pt, level, &mut rng).unwrap();
            let b = Ciphertext::encrypt_at_level(&ks.public, &pt, level, &mut rng).unwrap();
            for ct in [a.clone(), a.mul(&b).unwrap()] {
                for k in [0, 1, n - 1, n, 2 * n - 1] {
                    let want: Vec<RnsPoly> = ct
                        .parts()
                        .iter()
                        .map(|p| rotate_negacyclic(&p.coeff(), k).ntt())
                        .collect();
                    assert_eq!(ct.mul_monomial(k).parts(), &want[..], "level {level} k={k}");
                }
            }
        }
    }

    #[test]
    fn level_mismatch_rejected() {
        let (_, ks, mut rng) = setup();
        let t = ks.public.params.plaintext_modulus;
        let n = ks.public.params.n;
        let a = Ciphertext::encrypt(&ks.public, &monomial(n, t, 0), &mut rng).unwrap();
        let b = a.mod_switch_down().unwrap();
        assert!(matches!(a.add(&b), Err(BgvError::LevelMismatch { .. })));
    }

    #[test]
    fn plaintext_validation() {
        assert!(Plaintext::new(vec![5], 4).is_err());
        assert!(Plaintext::new(vec![3], 4).is_ok());
    }

    #[test]
    fn prepared_plaintext_rejects_bad_length() {
        // Every operation that lifts a plaintext into the ring refuses one
        // whose length is not the ring degree, at any level.
        let (params, ks, mut rng) = setup();
        let t = params.plaintext_modulus;
        let short = Plaintext::new(vec![1u64; params.n / 2], t).unwrap();
        assert!(matches!(
            Ciphertext::encrypt(&ks.public, &short, &mut rng),
            Err(BgvError::PlaintextLength { .. })
        ));
        assert!(matches!(
            Ciphertext::encrypt_at_level(&ks.public, &short, 1, &mut rng),
            Err(BgvError::PlaintextLength { .. })
        ));
        let top = Ciphertext::encrypt(&ks.public, &monomial(params.n, t, 0), &mut rng).unwrap();
        let bottom =
            Ciphertext::encrypt_at_level(&ks.public, &monomial(params.n, t, 0), 1, &mut rng)
                .unwrap();
        for ct in [&top, &bottom] {
            assert!(matches!(
                ct.add_plain(&short),
                Err(BgvError::PlaintextLength { .. })
            ));
            assert!(matches!(
                ct.sub_plain(&short),
                Err(BgvError::PlaintextLength { .. })
            ));
        }
    }
}
