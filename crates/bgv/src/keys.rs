//! BGV key generation.
//!
//! A key set consists of:
//! * the **secret key** `s` — a ternary ring element,
//! * the **public key** `(b, a)` with `b = -(a·s) + t·e`, and
//! * the **relinearization keys** — for each level `l` and each chain prime
//!   `q_j` active at `l`, an encryption of `ĝ_{l,j} · s²` under `s`, where
//!   `ĝ_{l,j} = Q_l / q_j` is the RNS gadget. Key-switching a degree-2
//!   ciphertext term multiplies its RNS decomposition digits against these
//!   keys (§4.2 / §5: Mycelium's committees generate *all* keys once,
//!   including relinearization keys, and hand the decryption key between
//!   committees with VSR instead of regenerating per query).

use std::collections::HashMap;
use std::sync::Arc;

use mycelium_math::deferred::Deferred;
use mycelium_math::rng::Rng;
use mycelium_math::rns::{Representation, RnsContext, RnsPoly, ShoupPrecomp};
use mycelium_math::sample;

use crate::params::BgvParams;

/// The BGV secret key.
#[derive(Debug, Clone)]
pub struct SecretKey {
    /// `s` as signed ternary coefficients. Because the coefficients are
    /// tiny, the key is represented exactly at *every* level of the chain,
    /// which is what lets the threshold layer share it coefficient-wise.
    s_coeffs: Vec<i64>,
    params: BgvParams,
    ctx: Arc<RnsContext>,
}

/// The BGV public (encryption) key `(b, a)`.
///
/// Both components carry Shoup constants ([`ShoupPrecomp`]): every
/// encryption multiplies them pointwise against the ephemeral secret, so
/// the one-time precomputation at keygen pays for itself on the first
/// encryption.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b = -(a·s) + t·e`, NTT representation, top level.
    b: ShoupPrecomp,
    /// Uniform `a`, NTT representation, top level.
    a: ShoupPrecomp,
    /// Parameters (carried so ciphertexts can be built from the key alone).
    pub params: BgvParams,
    ctx: Arc<RnsContext>,
}

/// `keys[&l][j] = (b_{l,j}, a_{l,j})` at level `l`, NTT representation
/// with Shoup constants (key switching multiply-accumulates decomposed
/// digits against these on every relinearization), where
/// `b_{l,j} = -(a·s) + t·e + ĝ_{l,j}·s²`.
type LevelKeys = HashMap<usize, Vec<(ShoupPrecomp, ShoupPrecomp)>>;

/// Relinearization (key-switching) keys, indexed by level. Clones share
/// the keys; those of [`KeySet::generate_deferred`] are derived on the
/// first read.
#[derive(Debug, Clone)]
pub struct RelinKey {
    keys: Deferred<LevelKeys>,
}

/// A complete BGV key set.
#[derive(Debug, Clone)]
pub struct KeySet {
    /// Secret key (held by the committee in the full system).
    pub secret: SecretKey,
    /// Public encryption key (distributed to every device).
    pub public: PublicKey,
    /// Relinearization keys (published; needed by whoever relinearizes —
    /// here each origin, after every multiplication; the paper defers it to
    /// the aggregator, §5).
    pub relin: RelinKey,
}

impl SecretKey {
    /// Samples a fresh ternary secret key.
    pub fn generate<R: Rng + ?Sized>(
        params: &BgvParams,
        ctx: &Arc<RnsContext>,
        rng: &mut R,
    ) -> Self {
        let s_coeffs = sample::ternary_coeffs(ctx.degree(), rng);
        Self::from_coeffs(params, ctx, s_coeffs)
    }

    /// Reconstructs a secret key from its signed coefficients (used by the
    /// threshold-decryption layer after Shamir reconstruction).
    pub fn from_coeffs(params: &BgvParams, ctx: &Arc<RnsContext>, s_coeffs: Vec<i64>) -> Self {
        Self {
            s_coeffs,
            params: params.clone(),
            ctx: ctx.clone(),
        }
    }

    /// The secret `s` in NTT representation at the given level.
    pub fn s_at_level(&self, level: usize) -> RnsPoly {
        let mut s = RnsPoly::from_signed(self.ctx.clone(), level, &self.s_coeffs);
        s.to_ntt();
        s
    }

    /// The signed ternary coefficients of `s`.
    pub fn coefficients(&self) -> &[i64] {
        &self.s_coeffs
    }

    /// The parameter set.
    pub fn params(&self) -> &BgvParams {
        &self.params
    }

    /// The RNS context.
    pub fn context(&self) -> &Arc<RnsContext> {
        &self.ctx
    }

    /// Generates the public key for this secret.
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R) -> PublicKey {
        let level = self.ctx.max_level();
        let mut a = sample::uniform_rns(&self.ctx, level, rng);
        a.to_ntt();
        let mut e = sample::gaussian_rns(&self.ctx, level, self.params.sigma, rng);
        e.to_ntt();
        let s = self.s_at_level(level);
        // b = -(a·s) + t·e.
        let b = a
            .mul(&s)
            .neg()
            .add(&e.scalar_mul(self.params.plaintext_modulus));
        PublicKey {
            b: ShoupPrecomp::new(b),
            a: ShoupPrecomp::new(a),
            params: self.params.clone(),
            ctx: self.ctx.clone(),
        }
    }

    /// Generates relinearization keys for the given levels.
    pub fn relin_keys<R: Rng + ?Sized>(&self, levels: &[usize], rng: &mut R) -> RelinKey {
        RelinKey {
            keys: Deferred::ready(self.level_keys(levels, rng)),
        }
    }

    fn level_keys<R: Rng + ?Sized>(&self, levels: &[usize], rng: &mut R) -> LevelKeys {
        let mut keys = HashMap::new();
        for &l in levels {
            assert!(l >= 1 && l <= self.ctx.max_level(), "invalid level {l}");
            let s = self.s_at_level(l);
            let s2 = s.mul(&s);
            let pre = self.ctx.level(l);
            let mut level_keys = Vec::with_capacity(l);
            for j in 0..l {
                let mut a = sample::uniform_rns(&self.ctx, l, rng);
                a.to_ntt();
                let mut e = sample::gaussian_rns(&self.ctx, l, self.params.sigma, rng);
                e.to_ntt();
                // Gadget constant ĝ_{l,j} = Q_l/q_j as an RNS scalar.
                let n = self.ctx.degree();
                let gadget_res: Vec<Vec<u64>> = (0..l)
                    .map(|i| {
                        let mut v = vec![0u64; n];
                        v[0] = pre.qhat_mod[j][i];
                        v
                    })
                    .collect();
                let mut g = RnsPoly::from_residues(
                    self.ctx.clone(),
                    Representation::Coefficient,
                    gadget_res,
                );
                g.to_ntt();
                // b = -(a·s) + t·e + ĝ·s².
                let b = a
                    .mul(&s)
                    .neg()
                    .add(&e.scalar_mul(self.params.plaintext_modulus))
                    .add(&s2.mul(&g));
                level_keys.push((ShoupPrecomp::new(b), ShoupPrecomp::new(a)));
            }
            keys.insert(l, level_keys);
        }
        keys
    }

    /// Generates relinearization keys for every level of the chain.
    pub fn relin_keys_all<R: Rng + ?Sized>(&self, rng: &mut R) -> RelinKey {
        self.relin_keys(&self.all_levels(), rng)
    }

    fn all_levels(&self) -> Vec<usize> {
        (1..=self.ctx.max_level()).collect()
    }
}

impl PublicKey {
    /// The RNS context.
    pub fn context(&self) -> &Arc<RnsContext> {
        &self.ctx
    }

    /// The `b = -(a·s) + t·e` component with its Shoup constants.
    pub fn b(&self) -> &ShoupPrecomp {
        &self.b
    }

    /// The uniform `a` component with its Shoup constants.
    pub fn a(&self) -> &ShoupPrecomp {
        &self.a
    }
}

impl RelinKey {
    /// The key-switching key pairs for `level`, if generated.
    pub fn at_level(&self, level: usize) -> Option<&[(ShoupPrecomp, ShoupPrecomp)]> {
        self.keys.get().get(&level).map(|v| v.as_slice())
    }

    /// Levels for which keys are available.
    pub fn levels(&self) -> Vec<usize> {
        let mut l: Vec<usize> = self.keys.get().keys().copied().collect();
        l.sort_unstable();
        l
    }

    /// Whether the keys have been derived (always, unless they are
    /// [`KeySet::generate_deferred`]'s and nothing read them).
    pub fn is_derived(&self) -> bool {
        self.keys.is_derived()
    }
}

impl KeySet {
    /// Generates a complete key set with relinearization keys at every
    /// level.
    pub fn generate<R: Rng + ?Sized>(params: &BgvParams, rng: &mut R) -> Self {
        let (secret, public) = Self::secret_and_public(params, rng);
        let relin = secret.relin_keys_all(rng);
        Self {
            secret,
            public,
            relin,
        }
    }

    /// [`KeySet::generate`] off a stream nothing draws from afterwards, so
    /// it can own it: the same keys, but the relinearization keys — the
    /// last draw — are derived on their first read, and a process that
    /// never relinearizes never derives them. Until then they hold a clone
    /// of the secret and the stream.
    pub fn generate_deferred<R: Rng + Send + 'static>(params: &BgvParams, mut rng: R) -> Self {
        let (secret, public) = Self::secret_and_public(params, &mut rng);
        let recipe = secret.clone();
        let keys = Deferred::new(move || recipe.level_keys(&recipe.all_levels(), &mut rng));
        Self {
            secret,
            public,
            relin: RelinKey { keys },
        }
    }

    fn secret_and_public<R: Rng + ?Sized>(
        params: &BgvParams,
        rng: &mut R,
    ) -> (SecretKey, PublicKey) {
        let ctx = params.build_context();
        let secret = SecretKey::generate(params, &ctx, rng);
        let public = secret.public_key(rng);
        (secret, public)
    }

    /// Generates a key set with relinearization keys only at the specified
    /// levels (cheaper for large parameter sets where only the top level is
    /// exercised).
    pub fn generate_with_relin_levels<R: Rng + ?Sized>(
        params: &BgvParams,
        levels: &[usize],
        rng: &mut R,
    ) -> Self {
        let (secret, public) = Self::secret_and_public(params, rng);
        let relin = secret.relin_keys(levels, rng);
        Self {
            secret,
            public,
            relin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_math::rng::{SeedableRng, StdRng};

    #[test]
    fn public_key_relation() {
        // b + a·s must equal t·e (small when reduced centered).
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(1);
        let ks = KeySet::generate_with_relin_levels(&params, &[], &mut rng);
        let s = ks.secret.s_at_level(params.levels);
        let te = ks
            .public
            .b()
            .poly()
            .add(&ks.public.a().poly().mul(&s))
            .coeff();
        let norm = te.inf_norm_big();
        // |t·e| ≤ t · 6σ.
        let bound = params.plaintext_modulus as f64 * 6.0 * params.sigma;
        assert!(norm.to_f64() <= bound, "norm {} > {}", norm.to_f64(), bound);
        // And t divides every centered coefficient (te mod t == 0).
        let mod_t = te.crt_centered_mod(params.plaintext_modulus);
        assert!(mod_t.iter().all(|&x| x == 0));
    }

    #[test]
    fn secret_key_is_ternary() {
        let params = BgvParams::test_small();
        let ctx = params.build_context();
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&params, &ctx, &mut rng);
        assert!(sk.coefficients().iter().all(|&c| (-1..=1).contains(&c)));
        assert_eq!(sk.coefficients().len(), params.n);
    }

    #[test]
    fn relin_key_levels() {
        let params = BgvParams::test_small();
        let ctx = params.build_context();
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&params, &ctx, &mut rng);
        let rk = sk.relin_keys(&[6, 4], &mut rng);
        assert_eq!(rk.levels(), vec![4, 6]);
        assert_eq!(rk.at_level(6).unwrap().len(), 6);
        assert_eq!(rk.at_level(4).unwrap().len(), 4);
        assert!(rk.at_level(5).is_none());
    }

    #[test]
    fn relin_key_encrypts_gadget_times_s_squared() {
        // b_{l,j} + a·s - ĝ_j·s² must be ≡ 0 (mod t) and small.
        let params = BgvParams::test_small();
        let ctx = params.build_context();
        let mut rng = StdRng::seed_from_u64(4);
        let sk = SecretKey::generate(&params, &ctx, &mut rng);
        let l = 3;
        let rk = sk.relin_keys(&[l], &mut rng);
        let s = sk.s_at_level(l);
        let s2 = s.mul(&s);
        let pre = ctx.level(l);
        for (j, (b, a)) in rk.at_level(l).unwrap().iter().enumerate() {
            let n = ctx.degree();
            let gadget_res: Vec<Vec<u64>> = (0..l)
                .map(|i| {
                    let mut v = vec![0u64; n];
                    v[0] = pre.qhat_mod[j][i];
                    v
                })
                .collect();
            let g =
                RnsPoly::from_residues(ctx.clone(), Representation::Coefficient, gadget_res).ntt();
            let te = b.poly().add(&a.poly().mul(&s)).sub(&s2.mul(&g)).coeff();
            let mod_t = te.crt_centered_mod(params.plaintext_modulus);
            assert!(mod_t.iter().all(|&x| x == 0), "key {j} is not well formed");
        }
    }

    #[test]
    fn deferred_relin_keys_equal_eager_ones_at_every_level() {
        let params = BgvParams::test_small();
        let stream = StdRng::seed_from_u64(6).with_stream(3);
        let eager = KeySet::generate(&params, &mut stream.clone());
        let deferred = KeySet::generate_deferred(&params, stream);
        assert!(eager.relin.is_derived());
        assert!(!deferred.relin.is_derived());
        let early_clone = deferred.relin.clone();
        assert_eq!(
            deferred.public.b().poly(),
            eager.public.b().poly(),
            "the public key is drawn before the deferred relinearization keys"
        );
        for l in 1..=params.levels {
            let pairs = deferred.relin.at_level(l).unwrap();
            assert_eq!(pairs, eager.relin.at_level(l).unwrap(), "level {l}");
        }
        assert!(early_clone.is_derived());
        assert_eq!(deferred.relin.levels(), eager.relin.levels());
    }

    #[test]
    fn from_coeffs_roundtrip() {
        let params = BgvParams::test_small();
        let ctx = params.build_context();
        let mut rng = StdRng::seed_from_u64(5);
        let sk1 = SecretKey::generate(&params, &ctx, &mut rng);
        let sk2 = SecretKey::from_coeffs(&params, &ctx, sk1.coefficients().to_vec());
        assert_eq!(sk1.s_at_level(3), sk2.s_at_level(3));
    }
}
