//! BGV key generation.
//!
//! A key set consists of:
//! * the **secret key** `s` — a ternary ring element,
//! * the **public key** `(b, a)` with `b = -(a·s) + t·e`, and
//! * the **relinearization keys** — for each level `l` and each chain prime
//!   `q_j` active at `l`, an encryption of `ĝ_{l,j} · s²` under `s`, where
//!   `ĝ_{l,j} = Q_l / q_j` is the RNS gadget. Key-switching a degree-2
//!   ciphertext term multiplies its RNS decomposition digits against these
//!   keys. In the paper (§4.2 / §5) a genesis committee generates *all*
//!   keys once, including relinearization keys, and hands the decryption
//!   key between committees with VSR. This reproduction does not: each
//!   process derives a round's key set from the round seed, and each round
//!   deals fresh Shamir shares of its secret key.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use mycelium_math::rng::{Rng, StdRng};
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

/// One level's keys: `[j] = (b_{l,j}, a_{l,j})`, NTT representation with
/// Shoup constants (key switching multiply-accumulates decomposed digits
/// against these on every relinearization), where
/// `b_{l,j} = -(a·s) + t·e + ĝ_{l,j}·s²`.
type LevelKeys = Vec<(ShoupPrecomp, ShoupPrecomp)>;

/// Relinearization (key-switching) keys, one set per level `1..=max`.
/// Clones share the keys. Those of [`KeySet::generate`] are all derived;
/// those of [`KeySet::generate_deferred`] are derived a level at a time, on
/// that level's first read, so a process holds only the levels it
/// relinearizes at.
#[derive(Clone)]
pub struct RelinKey {
    inner: Arc<Levels>,
}

struct Levels {
    /// `cells[l - 1]`: level `l`'s keys, once derived. A derived level is
    /// read without a lock: this is on every relinearization.
    cells: Vec<OnceLock<LevelKeys>>,
    /// What derives the levels not yet derived; `None` once none is left.
    /// Held while deriving, so two threads reading different underived
    /// levels derive them one after the other, each once.
    walk: Mutex<Option<Walk>>,
}

/// Where eager derivation of every level would stand at each level's
/// start. Level `l`'s draws (for each of its `l` digits, `uniform_rns`
/// then `gaussian_rns` at `l` residues) follow those of levels `1..l`
/// off one stream, so reaching level `l` first replays the draws of the
/// levels below it — samples only: no transforms, products or Shoup
/// tables — and remembers the stream at each start it passes.
struct Walk {
    secret: SecretKey,
    /// `starts[i]`: the stream where level `i + 1`'s draws start.
    starts: Vec<StdRng>,
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

    /// Level `l`'s relinearization keys, drawn from `rng`.
    fn level_keys<R: Rng + ?Sized>(&self, l: usize, rng: &mut R) -> LevelKeys {
        let s = self.s_at_level(l);
        let s2 = s.mul(&s);
        let pre = self.ctx.level(l);
        let n = self.ctx.degree();
        (0..l)
            .map(|j| {
                let mut a = sample::uniform_rns(&self.ctx, l, rng);
                a.to_ntt();
                let mut e = sample::gaussian_rns(&self.ctx, l, self.params.sigma, rng);
                e.to_ntt();
                // Gadget constant ĝ_{l,j} = Q_l/q_j as an RNS scalar.
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
                (ShoupPrecomp::new(b), ShoupPrecomp::new(a))
            })
            .collect()
    }

    /// Draws what [`SecretKey::level_keys`] draws at level `l`, and nothing
    /// else.
    fn skip_level_keys<R: Rng + ?Sized>(&self, l: usize, rng: &mut R) {
        let mut residue = vec![0u64; self.ctx.degree()];
        for _ in 0..l {
            for m in &self.ctx.moduli()[..l] {
                sample::uniform_below(m.value(), &mut residue, rng);
            }
            sample::gaussian_coeffs(residue.len(), self.params.sigma, rng);
        }
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

impl Walk {
    fn derive(&mut self, level: usize) -> LevelKeys {
        while self.starts.len() < level {
            let below = self.starts.len();
            let mut rng = self.starts[below - 1].clone();
            self.secret.skip_level_keys(below, &mut rng);
            self.starts.push(rng);
        }
        self.secret
            .level_keys(level, &mut self.starts[level - 1].clone())
    }
}

impl RelinKey {
    fn new(levels: usize, walk: Option<Walk>) -> Self {
        let inner = Levels {
            cells: (0..levels).map(|_| OnceLock::new()).collect(),
            walk: Mutex::new(walk),
        };
        Self {
            inner: Arc::new(inner),
        }
    }

    /// The key-switching key pairs for `level`, derived now if this is the
    /// level's first read; `None` outside `1..=max`.
    pub fn at_level(&self, level: usize) -> Option<&[(ShoupPrecomp, ShoupPrecomp)]> {
        let cell = self.inner.cells.get(level.checked_sub(1)?)?;
        if let Some(keys) = cell.get() {
            return Some(keys);
        }
        let mut walk = self.inner.walk.lock().expect("relinearization walk lock");
        let keys = cell.get_or_init(|| {
            let walk = walk.as_mut().expect("an underived level has its walk");
            walk.derive(level)
        });
        if self.inner.cells.iter().all(|c| c.get().is_some()) {
            *walk = None;
        }
        Some(keys)
    }

    /// The levels derived so far, in increasing order.
    pub fn derived_levels(&self) -> Vec<usize> {
        let cells = self.inner.cells.iter().enumerate();
        cells
            .filter(|(_, c)| c.get().is_some())
            .map(|(i, _)| i + 1)
            .collect()
    }

    /// Whether any level has been derived (always, unless the keys are
    /// [`KeySet::generate_deferred`]'s and nothing read them).
    pub fn is_derived(&self) -> bool {
        self.inner.cells.iter().any(|c| c.get().is_some())
    }
}

impl fmt::Debug for RelinKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RelinKey")
            .field("levels", &self.inner.cells.len())
            .field("derived", &self.derived_levels())
            .finish()
    }
}

impl KeySet {
    /// Generates a complete key set with relinearization keys at every
    /// level, drawn from `rng` level by level, 1 to max.
    pub fn generate<R: Rng + ?Sized>(params: &BgvParams, rng: &mut R) -> Self {
        let (secret, public) = Self::secret_and_public(params, rng);
        let relin = RelinKey::new(params.levels, None);
        for (l, cell) in (1..).zip(&relin.inner.cells) {
            let _ = cell.set(secret.level_keys(l, rng));
        }
        Self {
            secret,
            public,
            relin,
        }
    }

    /// [`KeySet::generate`], but each level's relinearization keys are
    /// derived on that level's first read, from where `generate` draws
    /// them: the same keys, and a level nothing reads is never derived.
    ///
    /// The secret and public keys are drawn from `rng`, which is left
    /// where the relinearization keys start; the keys draw from a copy of
    /// it. So draw on from `rng` only if the keys are never read — the
    /// stream should be one nothing draws from afterwards, as `build_setup`'s
    /// key stream is.
    pub fn generate_deferred(params: &BgvParams, rng: &mut StdRng) -> Self {
        let (secret, public) = Self::secret_and_public(params, rng);
        let walk = Walk {
            secret: secret.clone(),
            starts: vec![rng.clone()],
        };
        Self {
            secret,
            public,
            relin: RelinKey::new(params.levels, Some(walk)),
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
        let ks = KeySet::generate_deferred(&params, &mut rng);
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
        let rk = KeySet::generate_deferred(&params, &mut StdRng::seed_from_u64(3)).relin;
        assert_eq!(rk.at_level(6).unwrap().len(), 6);
        assert_eq!(rk.at_level(4).unwrap().len(), 4);
        assert_eq!(rk.derived_levels(), vec![4, 6]);
        // Outside the chain there are no keys, and asking derives nothing.
        assert!(rk.at_level(0).is_none() && rk.at_level(7).is_none());
        assert_eq!(rk.derived_levels(), vec![4, 6]);
    }

    #[test]
    fn relin_key_encrypts_gadget_times_s_squared() {
        // b_{l,j} + a·s - ĝ_j·s² must be ≡ 0 (mod t) and small.
        let params = BgvParams::test_small();
        let ks = KeySet::generate_deferred(&params, &mut StdRng::seed_from_u64(4));
        let (sk, rk) = (&ks.secret, &ks.relin);
        let ctx = sk.context();
        let l = 3;
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
        let deferred = KeySet::generate_deferred(&params, &mut stream.clone());
        assert!(eager.relin.is_derived());
        assert_eq!(
            eager.relin.derived_levels(),
            (1..=params.levels).collect::<Vec<_>>()
        );
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
        assert_eq!(
            deferred.relin.derived_levels(),
            eager.relin.derived_levels()
        );
        // Read out of order, each level is still the eager one, and only
        // the levels read are derived.
        for order in [&[6, 2, 4, 1][..], &[3], &[5, 5, 1, 6, 2, 4, 3]] {
            let deferred = KeySet::generate_deferred(&params, &mut stream.clone()).relin;
            for &l in order {
                let pairs = deferred.at_level(l).unwrap();
                assert_eq!(
                    pairs,
                    eager.relin.at_level(l).unwrap(),
                    "{order:?}: level {l}"
                );
            }
            let mut read = order.to_vec();
            read.sort_unstable();
            read.dedup();
            assert_eq!(deferred.derived_levels(), read, "{order:?}");
        }
    }

    #[test]
    fn threads_racing_for_levels_derive_each_once() {
        let params = BgvParams::test_small();
        let stream = StdRng::seed_from_u64(7).with_stream(3);
        let eager = KeySet::generate(&params, &mut stream.clone()).relin;
        let deferred = KeySet::generate_deferred(&params, &mut stream.clone()).relin;
        // Two threads per level for levels 5, 2 and 4: every read sees the
        // one derivation of its level (a level derived twice would be
        // handed out from two addresses).
        let barrier = std::sync::Barrier::new(6);
        let seen: Vec<(usize, usize)> = std::thread::scope(|s| {
            let threads: Vec<_> = [5, 2, 4, 5, 2, 4]
                .into_iter()
                .map(|l| {
                    let (rk, barrier) = (deferred.clone(), &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let keys = rk.at_level(l).unwrap();
                        (l, keys.as_ptr() as usize)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for (l, at) in &seen {
            let keys = deferred.at_level(*l).unwrap();
            assert_eq!(keys.as_ptr() as usize, *at, "level {l} was derived twice");
            assert_eq!(keys, eager.at_level(*l).unwrap(), "level {l}");
        }
        assert_eq!(deferred.derived_levels(), vec![2, 4, 5]);
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
