//! Residue-number-system (RNS) polynomial rings.
//!
//! BGV's ciphertext modulus `Q` is a product of word-sized NTT-friendly
//! primes `q_1 … q_L` (the *modulus chain*). Instead of computing with
//! ≈550-bit coefficients, every ring element is stored as one polynomial per
//! prime ("residues"), and all operations are performed independently per
//! prime — the Chinese Remainder Theorem guarantees this is isomorphic to
//! arithmetic modulo `Q`.
//!
//! A [`RnsPoly`] lives at a *level* `l ≤ L`: only the first `l` primes are
//! active. BGV modulus switching ([`RnsPoly::mod_switch_down`]) drops the
//! last active prime while preserving the plaintext modulo `t`, dividing the
//! noise by roughly `q_l`.

use std::sync::Arc;

use crate::bigint::BigUint;
use crate::ntt::NttTable;
use crate::zq::{self, Modulus};
use crate::{ew, par, scratch};

/// Which domain a polynomial's residues are stored in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// Coefficient domain: `residues[i][j]` is the `j`-th coefficient mod `q_i`.
    Coefficient,
    /// Evaluation (NTT) domain: pointwise products implement ring products.
    Ntt,
}

/// Precomputed constants for one level of the modulus chain.
#[derive(Debug, Clone)]
pub struct LevelPrecomp {
    /// `Q_l = q_1 · … · q_l`.
    pub big_q: BigUint,
    /// `Q_l / 2` (floor), for centered reduction.
    pub half_q: BigUint,
    /// `Q_l / q_j` for each active prime `j`.
    pub qhat: Vec<BigUint>,
    /// `(Q_l / q_j)^{-1} mod q_j` for each active prime `j`.
    pub qhat_inv: Vec<u64>,
    /// Shoup constants for `qhat_inv` (mod `q_j`), so the gadget
    /// decomposition's scalar multiply skips the Barrett reduction.
    pub qhat_inv_shoup: Vec<u64>,
    /// `(Q_l / q_j) mod q_i` for each pair of active primes (gadget values).
    pub qhat_mod: Vec<Vec<u64>>,
    /// `q_l^{-1} mod q_i` for `i < l-1` (used by modulus switching).
    pub qlast_inv: Vec<u64>,
}

/// A chain of NTT-friendly primes with CRT and NTT precomputation.
#[derive(Debug)]
pub struct RnsContext {
    n: usize,
    moduli: Vec<Modulus>,
    tables: Vec<NttTable>,
    levels: Vec<LevelPrecomp>,
}

impl RnsContext {
    /// Builds a context for ring degree `n` over the given primes.
    ///
    /// Returns `None` if any prime is invalid, duplicated, or not
    /// NTT-friendly for degree `n`.
    pub fn new(n: usize, primes: &[u64]) -> Option<Arc<Self>> {
        if primes.is_empty() || !n.is_power_of_two() {
            return None;
        }
        let mut moduli = Vec::with_capacity(primes.len());
        let mut tables = Vec::with_capacity(primes.len());
        for (i, &p) in primes.iter().enumerate() {
            if primes[..i].contains(&p) {
                return None;
            }
            let m = Modulus::new_prime(p)?;
            tables.push(NttTable::new(m, n)?);
            moduli.push(m);
        }
        let mut levels = Vec::with_capacity(primes.len());
        for l in 1..=primes.len() {
            let active = &primes[..l];
            let big_q = BigUint::product_of(active);
            let half_q = big_q.shr1();
            let mut qhat = Vec::with_capacity(l);
            let mut qhat_inv = Vec::with_capacity(l);
            let mut qhat_inv_shoup = Vec::with_capacity(l);
            let mut qhat_mod = Vec::with_capacity(l);
            for j in 0..l {
                let mut h = BigUint::one();
                for (i, &p) in active.iter().enumerate() {
                    if i != j {
                        h = h.mul_u64(p);
                    }
                }
                let hj = h.rem_u64(active[j]);
                let inv = moduli[j].inv(hj).expect("distinct primes are coprime");
                qhat_inv.push(inv);
                qhat_inv_shoup.push(moduli[j].shoup(inv));
                qhat_mod.push(moduli[..l].iter().map(|m| h.rem_u64(m.value())).collect());
                qhat.push(h);
            }
            let qlast = active[l - 1];
            let qlast_inv = moduli[..l - 1]
                .iter()
                .map(|m| {
                    m.inv(qlast % m.value())
                        .expect("distinct primes are coprime")
                })
                .collect();
            levels.push(LevelPrecomp {
                big_q,
                half_q,
                qhat,
                qhat_inv,
                qhat_inv_shoup,
                qhat_mod,
                qlast_inv,
            });
        }
        Some(Arc::new(Self {
            n,
            moduli,
            tables,
            levels,
        }))
    }

    /// Convenience constructor: generates `count` NTT-friendly primes of
    /// `bits` bits for ring degree `n`.
    pub fn with_primes(n: usize, bits: u32, count: usize) -> Option<Arc<Self>> {
        let primes = zq::ntt_primes(bits, n, count);
        Self::new(n, &primes)
    }

    /// Ring degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Number of primes in the full chain (the maximum level).
    #[inline]
    pub fn max_level(&self) -> usize {
        self.moduli.len()
    }

    /// The moduli of the chain.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// NTT tables, one per prime.
    #[inline]
    pub fn tables(&self) -> &[NttTable] {
        &self.tables
    }

    /// Precomputation for the given level (`1..=max_level`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the chain length.
    #[inline]
    pub fn level(&self, level: usize) -> &LevelPrecomp {
        &self.levels[level - 1]
    }

    /// `log2(Q_l)` — the size of the level-`l` modulus in bits.
    pub fn log_q(&self, level: usize) -> f64 {
        self.level(level).big_q.log2()
    }

    /// Bytes of one ring element at `level` with every residue row packed
    /// at the bit width of its prime ([`ew::packed_len`]): what the codec
    /// writes, the journal stores and the simulator meters.
    pub fn packed_bytes(&self, level: usize) -> usize {
        self.moduli[..level]
            .iter()
            .map(|m| ew::packed_len(m.bits(), self.n))
            .sum()
    }
}

/// A ring element stored in RNS form at some level of the chain.
#[derive(Debug, Clone)]
pub struct RnsPoly {
    ctx: Arc<RnsContext>,
    level: usize,
    rep: Representation,
    residues: Vec<Vec<u64>>,
}

impl PartialEq for RnsPoly {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level && self.rep == other.rep && self.residues == other.residues
    }
}
impl Eq for RnsPoly {}

impl RnsPoly {
    /// The zero element at the given level and representation.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the chain length.
    pub fn zero(ctx: Arc<RnsContext>, level: usize, rep: Representation) -> Self {
        assert!(level >= 1 && level <= ctx.max_level(), "invalid level");
        let n = ctx.degree();
        Self {
            ctx,
            level,
            rep,
            residues: vec![vec![0; n]; level],
        }
    }

    /// Builds an element from small signed coefficients (e.g. secrets or
    /// noise), reduced per prime. The result is in coefficient representation.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the ring degree or `level` is
    /// invalid.
    pub fn from_signed(ctx: Arc<RnsContext>, level: usize, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.degree(), "coefficient count mismatch");
        assert!(level >= 1 && level <= ctx.max_level(), "invalid level");
        // Secrets and noise are tiny, so per prime the lift is one
        // conditional add per coefficient (`ew::lift_signed` falls back to
        // the full Euclidean reduction when the bound does not hold).
        let bound = coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
        let residues = ctx.moduli[..level]
            .iter()
            .map(|m| {
                let mut r = vec![0u64; coeffs.len()];
                ew::lift_signed(m, &mut r, coeffs, bound);
                r
            })
            .collect();
        Self {
            ctx,
            level,
            rep: Representation::Coefficient,
            residues,
        }
    }

    /// Builds an element from unsigned coefficients, reduced per prime.
    pub fn from_u64(ctx: Arc<RnsContext>, level: usize, coeffs: &[u64]) -> Self {
        assert_eq!(coeffs.len(), ctx.degree(), "coefficient count mismatch");
        assert!(level >= 1 && level <= ctx.max_level(), "invalid level");
        let residues = ctx.moduli[..level]
            .iter()
            .map(|m| coeffs.iter().map(|&c| m.reduce(c)).collect())
            .collect();
        Self {
            ctx,
            level,
            rep: Representation::Coefficient,
            residues,
        }
    }

    /// Builds an element directly from per-prime residues.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn from_residues(
        ctx: Arc<RnsContext>,
        rep: Representation,
        residues: Vec<Vec<u64>>,
    ) -> Self {
        let level = residues.len();
        assert!(level >= 1 && level <= ctx.max_level(), "invalid level");
        for (i, r) in residues.iter().enumerate() {
            assert_eq!(r.len(), ctx.degree(), "residue length mismatch");
            debug_assert!(r.iter().all(|&x| x < ctx.moduli[i].value()));
        }
        Self {
            ctx,
            level,
            rep,
            residues,
        }
    }

    /// The context this element belongs to.
    #[inline]
    pub fn context(&self) -> &Arc<RnsContext> {
        &self.ctx
    }

    /// Current level (number of active primes).
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current representation.
    #[inline]
    pub fn representation(&self) -> Representation {
        self.rep
    }

    /// Per-prime residues.
    #[inline]
    pub fn residues(&self) -> &[Vec<u64>] {
        &self.residues
    }

    /// [`RnsContext::packed_bytes`] at this element's level.
    pub fn packed_bytes(&self) -> usize {
        self.ctx.packed_bytes(self.level)
    }

    /// Converts to NTT representation (no-op if already there).
    pub fn to_ntt(&mut self) {
        if self.rep == Representation::Ntt {
            return;
        }
        for (r, table) in self.residues.iter_mut().zip(&self.ctx.tables) {
            table.forward(r);
        }
        self.rep = Representation::Ntt;
    }

    /// Converts to coefficient representation (no-op if already there).
    pub fn to_coeff(&mut self) {
        if self.rep == Representation::Coefficient {
            return;
        }
        for (r, table) in self.residues.iter_mut().zip(&self.ctx.tables) {
            table.inverse(r);
        }
        self.rep = Representation::Coefficient;
    }

    /// Returns a copy in NTT representation.
    pub fn ntt(&self) -> Self {
        let mut c = self.clone();
        c.to_ntt();
        c
    }

    /// Returns a copy in coefficient representation.
    pub fn coeff(&self) -> Self {
        let mut c = self.clone();
        c.to_coeff();
        c
    }

    /// In-place element-wise addition (both operands must share level and
    /// representation).
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn add_assign(&mut self, other: &Self) {
        self.check_compat(other);
        for (i, r) in self.residues.iter_mut().enumerate() {
            ew::add_assign(&self.ctx.moduli[i], r, &other.residues[i]);
        }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn add(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn sub_assign(&mut self, other: &Self) {
        self.check_compat(other);
        for (i, r) in self.residues.iter_mut().enumerate() {
            ew::sub_assign(&self.ctx.moduli[i], r, &other.residues[i]);
        }
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn sub(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// In-place negation.
    pub fn neg_assign(&mut self) {
        for (i, r) in self.residues.iter_mut().enumerate() {
            ew::neg_assign(&self.ctx.moduli[i], r);
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        let mut out = self.clone();
        out.neg_assign();
        out
    }

    /// In-place ring multiplication; both operands must be in NTT
    /// representation.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient representation, or on
    /// level mismatch.
    pub fn mul_assign(&mut self, other: &Self) {
        self.check_compat(other);
        assert_eq!(
            self.rep,
            Representation::Ntt,
            "ring multiplication requires NTT representation"
        );
        for (i, r) in self.residues.iter_mut().enumerate() {
            ew::mul_assign(&self.ctx.moduli[i], r, &other.residues[i]);
        }
    }

    /// Ring multiplication; both operands must be in NTT representation.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient representation, or on
    /// level mismatch.
    pub fn mul(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.mul_assign(other);
        out
    }

    /// Fused multiply-add: `self += a ⊙ b`, all three in NTT representation.
    ///
    /// Saves the intermediate allocation a separate `mul` + `add` pair would
    /// make — the inner loop of relinearization.
    ///
    /// # Panics
    ///
    /// Panics on level/representation mismatch or coefficient representation.
    pub fn mul_add_assign(&mut self, a: &Self, b: &Self) {
        self.check_compat(a);
        self.check_compat(b);
        assert_eq!(
            self.rep,
            Representation::Ntt,
            "fused multiply-add requires NTT representation"
        );
        for (i, r) in self.residues.iter_mut().enumerate() {
            ew::mul_add_assign(&self.ctx.moduli[i], r, &a.residues[i], &b.residues[i]);
        }
    }

    /// In-place multiplication by an integer scalar (reduced per prime).
    /// Works in either representation.
    pub fn scalar_mul_assign(&mut self, s: u64) {
        for (i, r) in self.residues.iter_mut().enumerate() {
            let m = &self.ctx.moduli[i];
            ew::scalar_mul_assign(m, r, m.reduce(s));
        }
    }

    /// Multiplies by an integer scalar (reduced per prime). Works in either
    /// representation.
    pub fn scalar_mul(&self, s: u64) -> Self {
        let mut out = self.clone();
        out.scalar_mul_assign(s);
        out
    }

    /// Restricts the element to a lower level by discarding residues.
    ///
    /// This is a plain truncation (valid when the caller separately accounts
    /// for the value being small, e.g. keyswitch gadget terms); for BGV
    /// ciphertext level drops use [`RnsPoly::mod_switch_down`].
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the current level.
    pub fn truncate_level(&self, level: usize) -> Self {
        assert!(
            level >= 1 && level <= self.level,
            "invalid truncation level"
        );
        Self {
            ctx: self.ctx.clone(),
            level,
            rep: self.rep,
            residues: self.residues[..level].to_vec(),
        }
    }

    /// BGV modulus switching: drops the last active prime `q_l` while
    /// preserving the value modulo the plaintext modulus `t`.
    ///
    /// Computes `c' = (c - δ) / q_l` where `δ ≡ c (mod q_l)`, `δ ≡ 0 (mod
    /// t)`, and `|δ| ≤ q_l·(t+1)/2`. For a BGV ciphertext component this
    /// divides the noise by ≈`q_l` while keeping decryption correct.
    ///
    /// The operand must be in coefficient representation. This is the
    /// textbook one-step form, kept as the oracle the NTT-domain
    /// [`RnsPoly::mod_switch_ntt`] (what ciphertexts actually run) is tested
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if called at level 1, in NTT representation, or with `t`
    /// sharing a factor with `q_l` (impossible for odd primes and any `t`
    /// that is a power of two or smaller prime).
    pub fn mod_switch_down(&self, t: u64) -> Self {
        assert!(self.level >= 2, "cannot drop below level 1");
        assert_eq!(
            self.rep,
            Representation::Coefficient,
            "mod_switch_down requires coefficient representation"
        );
        let l = self.level;
        let pre = self.ctx.level(l);
        let qlast = self.ctx.moduli[l - 1];
        let n = self.ctx.degree();
        let (mut d, mut w) = (vec![0i64; n], vec![0i64; n]);
        switch_correction(&qlast, t, &self.residues[l - 1], &mut d, &mut w);
        let residues = self.residues[..l - 1]
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let m = &self.ctx.moduli[i];
                let ql_mod = m.reduce(qlast.value());
                r.iter()
                    .zip(d.iter().zip(&w))
                    .map(|(&x, (&d, &w))| {
                        // δ mod q_i = d + q_l·w; x ← (x − δ)·q_l^{-1}.
                        let delta = m.add(m.from_signed(d), m.mul(ql_mod, m.from_signed(w)));
                        m.mul(m.sub(x, delta), pre.qlast_inv[i])
                    })
                    .collect()
            })
            .collect();
        Self {
            ctx: self.ctx.clone(),
            level: l - 1,
            rep: Representation::Coefficient,
            residues,
        }
    }

    /// BGV modulus switching of an **NTT-domain** element by `steps` chain
    /// primes at once: bit-identical to `steps` chained
    /// [`RnsPoly::mod_switch_down`] calls wrapped in an inverse and a
    /// forward transform of every limb, at `steps` inverse and
    /// `level − steps` forward transforms instead of `level` and
    /// `level − steps` (and those per step, when chained).
    ///
    /// One step is affine in the element: `(c − δ)·q_l^{-1} = c·q_l^{-1} +
    /// R(0)`, where `R(0) = −δ·q_l^{-1}` depends only on the dropped limb.
    /// Steps compose, so the whole switch is `c·P + R_k(0)` with
    /// `P = Π q_s^{-1}`, and the NTT is linear with a unique canonical
    /// output: `NTT(c·P + R_k(0)) = ĉ·P + NTT(R_k(0))` residue for residue.
    /// So only the dropped limbs are inverse-transformed (each later one
    /// takes the earlier steps in the coefficient domain, where its own
    /// correction `(d, w)` is then read off), and every kept limb builds
    /// `R_k(0)` from zero with one [`ew::rescale_step`] per step, transforms
    /// it once, and adds `ĉ·P` in one fused pass.
    ///
    /// # Panics
    ///
    /// Panics in coefficient representation, if `steps` is zero or would
    /// drop below level 1, or under [`RnsPoly::mod_switch_down`]'s
    /// condition on `t`.
    pub fn mod_switch_ntt(&self, steps: usize, t: u64) -> Self {
        assert_eq!(
            self.rep,
            Representation::Ntt,
            "mod_switch_ntt requires NTT representation"
        );
        assert!(
            steps >= 1 && steps < self.level,
            "cannot drop below level 1"
        );
        let l = self.level;
        let keep = l - steps;
        let ctx = &self.ctx;
        let n = ctx.degree();
        // One step on one coefficient-domain limb `i`, dropping prime `j`.
        let step = |i: usize, j: usize, y: &mut [u64], d: &[i64], w: &[i64]| {
            let m = &ctx.moduli[i];
            let inv = ctx.level(j + 1).qlast_inv[i];
            // |d| ≤ q_j/2 and |w| ≤ t/2 both below q_i — always, for
            // same-bit-width chain primes and t ≪ q — is the kernel's
            // precondition; anything else takes the Euclidean lifts.
            if ctx.moduli[j].value() / 2 < m.value() && t / 2 < m.value() {
                ew::rescale_step(m, y, d, w, inv, m.shoup(inv));
            } else {
                for (x, (&d, &w)) in y.iter_mut().zip(d.iter().zip(w)) {
                    let num = m.sub(*x, m.from_signed(d));
                    *x = m.sub(m.mul(num, inv), m.from_signed(w));
                }
            }
        };
        let mut dropped: Vec<Vec<u64>> = self.residues[keep..].to_vec();
        for (r, table) in dropped.iter_mut().zip(&ctx.tables[keep..]) {
            table.inverse(r);
        }
        // corrections[s] = (d, w) of the step that drops prime l−1−s.
        let mut corrections: Vec<(Vec<i64>, Vec<i64>)> = Vec::with_capacity(steps);
        for s in 0..steps {
            let j = l - 1 - s;
            let last = dropped.pop().expect("one dropped limb per step");
            let (mut d, mut w) = (vec![0i64; n], vec![0i64; n]);
            switch_correction(&ctx.moduli[j], t, &last, &mut d, &mut w);
            for (jj, y) in dropped.iter_mut().enumerate() {
                step(keep + jj, j, y, &d, &w);
            }
            corrections.push((d, w));
        }
        let residue = |i: usize| {
            let m = &ctx.moduli[i];
            let mut y = vec![0u64; n];
            let mut p = 1u64;
            for (s, (d, w)) in corrections.iter().enumerate() {
                let j = l - 1 - s;
                step(i, j, &mut y, d, w);
                p = m.mul(p, ctx.level(j + 1).qlast_inv[i]);
            }
            ctx.tables[i].forward(&mut y);
            ew::mul_shoup_scalar_add_assign(m, &mut y, &self.residues[i], p, m.shoup(p));
            y
        };
        Self {
            ctx: self.ctx.clone(),
            level: keep,
            rep: Representation::Ntt,
            residues: (0..keep).map(residue).collect(),
        }
    }

    /// CRT-reconstructs each coefficient as a centered integer and reduces
    /// it modulo `t`.
    ///
    /// This is the final step of BGV decryption: the input is
    /// `[c0 + c1·s]_Q` and the output is the plaintext `[m]_t` (assuming the
    /// noise is within bounds). The operand must be in coefficient
    /// representation.
    ///
    /// # Panics
    ///
    /// Panics in NTT representation or if `t == 0`.
    pub fn crt_centered_mod(&self, t: u64) -> Vec<u64> {
        assert_eq!(
            self.rep,
            Representation::Coefficient,
            "CRT reconstruction requires coefficient representation"
        );
        assert!(t > 0, "plaintext modulus must be nonzero");
        let pre = self.ctx.level(self.level);
        let n = self.ctx.degree();
        let mut out = Vec::with_capacity(n);
        for j in 0..n {
            let big = self.crt_coeff(j, pre);
            // Centered reduction mod t.
            let v = if big.cmp_big(&pre.half_q) == std::cmp::Ordering::Greater {
                let neg = pre.big_q.sub(&big); // |x| for negative x.
                let r = neg.rem_u64(t);
                (t - r) % t
            } else {
                big.rem_u64(t)
            };
            out.push(v);
        }
        out
    }

    /// Returns the infinity norm of the centered CRT reconstruction.
    ///
    /// Used to measure BGV noise exactly in tests. The operand must be in
    /// coefficient representation.
    pub fn inf_norm_big(&self) -> BigUint {
        assert_eq!(
            self.rep,
            Representation::Coefficient,
            "norm requires coefficient representation"
        );
        let pre = self.ctx.level(self.level);
        let mut max = BigUint::zero();
        for j in 0..self.ctx.degree() {
            let big = self.crt_coeff(j, pre);
            let mag = if big.cmp_big(&pre.half_q) == std::cmp::Ordering::Greater {
                pre.big_q.sub(&big)
            } else {
                big
            };
            if mag.cmp_big(&max) == std::cmp::Ordering::Greater {
                max = mag;
            }
        }
        max
    }

    /// RNS ("CRT-gadget") decomposition for key switching.
    ///
    /// Returns one polynomial per active prime: `d_j = [c · (Q/q_j)^{-1}]_{q_j}`
    /// lifted to every active prime, in NTT representation. The identity
    /// `Σ_j d_j · (Q/q_j) ≡ c (mod Q)` makes `Σ_j d_j ⊙ ksk_j` a key-switched
    /// ciphertext, with each `d_j` bounded by `q_j`.
    ///
    /// The operand must be in coefficient representation. This is the
    /// materializing form, kept as the oracle the fused
    /// [`key_switch_batch`] is tested against.
    pub fn rns_decompose(&self) -> Vec<Self> {
        assert_eq!(
            self.rep,
            Representation::Coefficient,
            "decomposition requires coefficient representation"
        );
        let l = self.level;
        let pre = self.ctx.level(l);
        // One independent digit polynomial per active prime: compute, lift,
        // and forward-transform.
        let digit = |j: usize| {
            // d_j coefficients as integers in [0, q_j).
            let mj = &self.ctx.moduli[j];
            let dj: Vec<u64> = self.residues[j]
                .iter()
                .map(|&x| mj.mul(x, pre.qhat_inv[j]))
                .collect();
            // Lift to every active prime (a copy where q_i = q_j).
            let residues: Vec<Vec<u64>> = self.ctx.moduli[..l]
                .iter()
                .map(|mi| dj.iter().map(|&x| mi.reduce(x)).collect())
                .collect();
            let mut p = Self {
                ctx: self.ctx.clone(),
                level: l,
                rep: Representation::Coefficient,
                residues,
            };
            p.to_ntt();
            p
        };
        (0..l).map(digit).collect()
    }

    fn crt_coeff(&self, j: usize, pre: &LevelPrecomp) -> BigUint {
        // x = sum_i [r_i * qhat_inv_i]_{q_i} * qhat_i, then reduce mod Q by
        // subtraction (the sum is < level * Q).
        let mut acc = BigUint::zero();
        for i in 0..self.level {
            let m = &self.ctx.moduli[i];
            let u = m.mul(self.residues[i][j], pre.qhat_inv[i]);
            acc = acc.add(&pre.qhat[i].mul_u64(u));
        }
        while acc.cmp_big(&pre.big_q) != std::cmp::Ordering::Less {
            acc = acc.sub(&pre.big_q);
        }
        acc
    }

    /// In-place ring multiplication by a Shoup-precomputed operand; `self`
    /// must be in NTT representation.
    ///
    /// Bit-identical to `mul_assign(precomp.poly())` but each pointwise
    /// product costs one high-half multiply instead of a Barrett reduction.
    ///
    /// # Panics
    ///
    /// Panics on level/representation/context mismatch or coefficient
    /// representation.
    pub fn mul_shoup_assign(&mut self, other: &ShoupPrecomp) {
        self.check_compat(&other.poly);
        assert_eq!(
            self.rep,
            Representation::Ntt,
            "ring multiplication requires NTT representation"
        );
        for (i, r) in self.residues.iter_mut().enumerate() {
            let m = &self.ctx.moduli[i];
            ew::mul_shoup_assign(m, r, other.residue(i), other.shoup_residue(i));
        }
    }

    fn check_compat(&self, other: &Self) {
        assert_eq!(self.level, other.level, "RNS level mismatch");
        assert_eq!(self.rep, other.rep, "representation mismatch");
        assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx),
            "operands belong to different contexts"
        );
    }
}

/// An NTT-domain ring element packaged with per-residue Shoup constants.
///
/// For a *repeated* pointwise operand — a public-key component, a
/// key-switching key, a prepared plaintext mask — precomputing
/// `floor(x·2^64/q)` for every evaluation once lets each later product use
/// [`Modulus::mul_shoup`] (one high-half multiply) instead of the 128-bit
/// Barrett path, roughly halving the pointwise cost. Results are canonical
/// and bit-identical to the Barrett route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShoupPrecomp {
    poly: RnsPoly,
    shoup: Vec<Vec<u64>>,
}

impl ShoupPrecomp {
    /// Converts `poly` to NTT representation (if needed) and precomputes
    /// the Shoup constant of every residue value.
    pub fn new(mut poly: RnsPoly) -> Self {
        poly.to_ntt();
        let shoup = poly
            .residues
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let m = &poly.ctx.moduli[i];
                r.iter().map(|&x| m.shoup(x)).collect()
            })
            .collect();
        Self { poly, shoup }
    }

    /// The underlying NTT-domain polynomial.
    #[inline]
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// Level of the underlying polynomial.
    #[inline]
    pub fn level(&self) -> usize {
        self.poly.level
    }

    /// The `i`-th residue values (NTT domain, canonical).
    #[inline]
    pub fn residue(&self, i: usize) -> &[u64] {
        &self.poly.residues[i]
    }

    /// The Shoup constants for the `i`-th residue.
    #[inline]
    pub fn shoup_residue(&self, i: usize) -> &[u64] {
        &self.shoup[i]
    }
}

/// The correction of one modulus-switching step, per coefficient, from the
/// coefficient-domain residue `r` of the dropped prime `q_l`: `d` is the
/// centered residue and `w ≡ −d·q_l^{-1} (mod t)`, centered into
/// `(−t/2, t/2]`, so that `δ = d + q_l·w` satisfies `δ ≡ c (mod q_l)` and
/// `δ ≡ 0 (mod t)`.
fn switch_correction(qlast: &Modulus, t: u64, r: &[u64], d: &mut [i64], w: &mut [i64]) {
    let qlast_inv_t = inv_mod_u64(qlast.value() % t, t)
        .expect("q_l must be invertible modulo the plaintext modulus");
    let (q, half_q, half_t) = (qlast.value(), qlast.value() / 2, t / 2);
    // Both centerings are selects on uniformly distributed values: written
    // as mask arithmetic so they cannot compile to a (mispredicting)
    // compare-and-branch. `over(x, h)` is all-ones iff x > h, for values
    // below 2^63.
    let over = |x: u64, h: u64| ((h.wrapping_sub(x) as i64) >> 63) as u64;
    let center = |x: u64, m: u64, half: u64| x.wrapping_sub(m & over(x, half)) as i64;
    if t.is_power_of_two() && t <= 1 << 32 {
        // Power-of-two t (the common plaintext modulus): both reductions
        // mod t are masks — `d mod 2^k` of a two's-complement value is
        // just its low bits, and the product of two values below 2^32
        // cannot overflow a u64. Bit-identical to the general path below.
        let mask = t - 1;
        for ((d, w), &r) in d.iter_mut().zip(w.iter_mut()).zip(r) {
            *d = center(r, q, half_q);
            let d_mod_t = (*d as u64) & mask;
            let neg = (t - ((d_mod_t * qlast_inv_t) & mask)) & mask; // −d·q_l^{-1} mod t
            *w = center(neg, t, half_t);
        }
    } else {
        for ((d, w), &r) in d.iter_mut().zip(w.iter_mut()).zip(r) {
            *d = center(r, q, half_q);
            let d_mod_t = d.rem_euclid(t as i64) as u64;
            let pos = (d_mod_t as u128 * qlast_inv_t as u128 % t as u128) as u64;
            *w = center((t - pos) % t, t, half_t);
        }
    }
}

/// Lifts a gadget digit from `Z_{q_j}` (values `< qj`) into `Z_{q_i}`.
/// Chain primes share a bit width, so `q_j < 2·q_i` almost always holds and
/// the lift is one vector conditional subtraction per lane group instead of
/// a hardware division per value.
#[inline]
fn lift_digit(mi: &Modulus, qj: u64, out: &mut [u64], src: &[u64]) {
    if qj <= mi.value() << 1 {
        ew::reduce_once_into(mi, out, src);
    } else {
        for (o, &x) in out.iter_mut().zip(src.iter()) {
            *o = mi.reduce(x);
        }
    }
}

/// Fused RNS-gadget key switch: `(c0, c1) += Σ_j NTT(d_j) ⊙ keys[j]` where
/// `d_j` is the `j`-th gadget digit of `c2`. See [`key_switch_batch`], of
/// which this is the one-job case.
///
/// # Panics
///
/// Panics if `c0`/`c1`/`c2` are not NTT-domain polynomials at the same
/// level and context, or if `keys.len()` differs from the level.
pub fn key_switch_assign(
    c0: &mut RnsPoly,
    c1: &mut RnsPoly,
    c2: &RnsPoly,
    keys: &[(ShoupPrecomp, ShoupPrecomp)],
) {
    key_switch_batch(&mut [(c0, c1, c2)], keys)
}

/// Batched fused key switch: for every job `(c0, c1, c2)`, all three in
/// NTT representation, `(c0, c1) += Σ_j NTT(d_j) ⊙ keys[j]` with
/// `d_j = [c2 · (Q/q_j)^{-1}]_{q_j}` the `j`-th gadget digit of that job's
/// `c2`, lifted to every limb. Bit-identical to
/// [`RnsPoly::rns_decompose`] + per-digit `mul_add_assign`.
///
/// All jobs must share one context, level, and key set — exactly the shape
/// of one summation-tree level, where every degree-2 node relinearizes
/// against the same relinearization key. Relinearization's inner loop runs
/// limb-major, each `(job, limb)` one unit of parallel work over `l²`
/// transforms per job instead of the `l + l²` of "inverse everything, then
/// transform every lifted digit":
///
/// * **digits straight from the NTT domain**: `d_j` is the inverse
///   transform of `ĉ2_j · (Q/q_j)^{-1}` (one fused scalar pass, then `l`
///   inverse transforms per job, in one parallel region for the batch);
/// * **no transform on the diagonal**: at its own limb `j`, `NTT(d_j)` *is*
///   `ĉ2_j · (Q/q_j)^{-1}` — the transform is linear and canonical — so
///   only the `l·(l−1)` off-diagonal digits are lifted
///   ([`ew::reduce_once_into`]) and forward-transformed;
/// * **one pass per digit for both rows**: the transformed digit is read
///   once and multiply-accumulated against both key components
///   ([`ew::mul_shoup_add_lazy2`]), wrapping-lazily, and the two rows are
///   canonicalized once at the end ([`ew::reduce_lazy_pow2`]) — sound
///   whenever `(2l+1)·q_i < 2^64` (checked per limb; wider primes
///   accumulate canonically through [`ew::mul_shoup_add2`]). Digits are
///   accumulated in ascending order per limb and both paths produce the
///   unique canonical representative, so results are bit-identical at any
///   thread count, SIMD on or off.
///
/// Live counters for every batch are recorded in [`ks_stats`] so the
/// analytical cost model can be reconciled against actual kernel traffic.
///
/// # Panics
///
/// Panics under the same conditions as [`key_switch_assign`], applied to
/// every job, or if the jobs disagree on context/level.
pub fn key_switch_batch(
    jobs: &mut [(&mut RnsPoly, &mut RnsPoly, &RnsPoly)],
    keys: &[(ShoupPrecomp, ShoupPrecomp)],
) {
    if jobs.is_empty() {
        return;
    }
    let l = jobs[0].0.level;
    let ctx = jobs[0].0.ctx.clone();
    assert_eq!(keys.len(), l, "one key pair per active prime");
    for (c0, c1, c2) in jobs.iter() {
        c0.check_compat(c1);
        c0.check_compat(c2);
        assert_eq!(
            c0.rep,
            Representation::Ntt,
            "key switch runs in NTT representation"
        );
        assert_eq!(c0.level, l, "all batch jobs must share one level");
        assert!(Arc::ptr_eq(&c0.ctx, &ctx), "context mismatch");
    }
    let n = ctx.degree();
    let pre = ctx.level(l);
    ks_stats::record(jobs.len() as u64, l as u64);
    let c2s: Vec<&RnsPoly> = jobs.iter().map(|(_, _, c2)| *c2).collect();
    // The diagonal digit transform ĉ2_j · (Q/q_j)^{-1}, which at limb j is
    // NTT(d_j) itself.
    let diagonal = |job: usize, j: usize, out: &mut [u64]| {
        ew::mul_shoup_scalar_into(
            &ctx.moduli[j],
            out,
            &c2s[job].residues[j],
            pre.qhat_inv[j],
            pre.qhat_inv_shoup[j],
        );
    };
    // One decomposition pass for the whole batch: base digits d_j in
    // [0, q_j), coefficient domain, pooled, indexed [job · l + digit]. (At
    // level 1 the only digit is diagonal: nothing to lift.)
    let digits: Vec<scratch::ScratchBuf> = if l == 1 {
        Vec::new()
    } else {
        par::map_indices(jobs.len() * l, |u| {
            let j = u % l;
            let mut buf = scratch::take(n);
            diagonal(u / l, j, &mut buf);
            ctx.tables[j].inverse(&mut buf);
            buf
        })
    };
    // Flatten (job, limb) into one parallel region; rows are moved out and
    // back to satisfy the borrow checker.
    let mut rows: Vec<(Vec<u64>, Vec<u64>)> = jobs
        .iter_mut()
        .flat_map(|(c0, c1, _)| {
            c0.residues
                .iter_mut()
                .zip(c1.residues.iter_mut())
                .map(|(r0, r1)| (std::mem::take(r0), std::mem::take(r1)))
        })
        .collect();
    par::for_each_mut(&mut rows, |u, (r0, r1)| {
        let job = u / l;
        let i = u % l;
        let mi = &ctx.moduli[i];
        // Lazy budget: each accumulator starts < q and gains l products
        // < 2q each, so values stay < (2l+1)·q. Stream wrapping-lazily
        // while that fits u64; otherwise reduce canonically per product
        // (both yield the identical canonical output).
        let lazy_ok = (2 * l as u128 + 1) * mi.value() as u128 <= u64::MAX as u128;
        let mut tmp = scratch::take(n);
        for (j, (kb, ka)) in keys.iter().enumerate() {
            if i == j {
                diagonal(job, i, &mut tmp);
            } else {
                lift_digit(mi, ctx.moduli[j].value(), &mut tmp, &digits[job * l + j]);
                ctx.tables[i].forward(&mut tmp);
            }
            let kb = (kb.residue(i), kb.shoup_residue(i));
            let ka = (ka.residue(i), ka.shoup_residue(i));
            if lazy_ok {
                ew::mul_shoup_add_lazy2(mi, r0, r1, &tmp, kb, ka);
            } else {
                ew::mul_shoup_add2(mi, r0, r1, &tmp, kb, ka);
            }
        }
        if lazy_ok {
            let kbits = (2 * l as u64 + 1).next_power_of_two().trailing_zeros();
            ew::reduce_lazy_pow2(mi, r0, kbits);
            ew::reduce_lazy_pow2(mi, r1, kbits);
        }
    });
    let mut it = rows.into_iter();
    for (c0, c1, _) in jobs.iter_mut() {
        for i in 0..l {
            let (s0, s1) = it.next().expect("row count mismatch");
            c0.residues[i] = s0;
            c1.residues[i] = s1;
        }
    }
}

/// Live counters for the batched key-switch plane, reconciled against the
/// analytical cost model in `tests/sim_costs.rs`. Process-wide atomics
/// (relaxed; exact under any interleaving because each batch does one
/// `record`).
pub mod ks_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static BATCH_CALLS: AtomicU64 = AtomicU64::new(0);
    static JOBS: AtomicU64 = AtomicU64::new(0);
    static DECOMPOSE_PASSES: AtomicU64 = AtomicU64::new(0);
    static DIGIT_NTTS: AtomicU64 = AtomicU64::new(0);
    static ACCUMULATES: AtomicU64 = AtomicU64::new(0);

    /// Snapshot of the counters since process start or the last [`reset`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct KsStats {
        /// Number of `key_switch_batch` invocations (== decompose passes).
        pub batch_calls: u64,
        /// Total key-switch jobs across all batches.
        pub jobs: u64,
        /// Digit-decomposition passes (one per batch, however many jobs).
        pub decompose_passes: u64,
        /// Forward NTTs of lifted digits (`jobs · level · (level − 1)`: the
        /// diagonal digit of every limb needs none).
        pub digit_ntts: u64,
        /// Two-row Shoup multiply-accumulate passes (`jobs · level²`: one
        /// per limb and digit, feeding both output rows).
        pub accumulates: u64,
    }

    pub(crate) fn record(jobs: u64, level: u64) {
        BATCH_CALLS.fetch_add(1, Ordering::Relaxed);
        JOBS.fetch_add(jobs, Ordering::Relaxed);
        DECOMPOSE_PASSES.fetch_add(1, Ordering::Relaxed);
        DIGIT_NTTS.fetch_add(jobs * level * (level - 1), Ordering::Relaxed);
        ACCUMULATES.fetch_add(jobs * level * level, Ordering::Relaxed);
    }

    /// Zeroes all counters (test setup).
    pub fn reset() {
        for c in [
            &BATCH_CALLS,
            &JOBS,
            &DECOMPOSE_PASSES,
            &DIGIT_NTTS,
            &ACCUMULATES,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Reads all counters.
    pub fn snapshot() -> KsStats {
        KsStats {
            batch_calls: BATCH_CALLS.load(Ordering::Relaxed),
            jobs: JOBS.load(Ordering::Relaxed),
            decompose_passes: DECOMPOSE_PASSES.load(Ordering::Relaxed),
            digit_ntts: DIGIT_NTTS.load(Ordering::Relaxed),
            accumulates: ACCUMULATES.load(Ordering::Relaxed),
        }
    }
}

/// Modular inverse for word-sized (not necessarily prime) moduli via the
/// extended Euclidean algorithm. Returns `None` when `gcd(a, m) != 1`.
pub fn inv_mod_u64(a: u64, m: u64) -> Option<u64> {
    if m == 0 {
        return None;
    }
    if m == 1 {
        return Some(0);
    }
    let (mut old_r, mut r) = (a as i128 % m as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        let tmp_r = old_r - q * r;
        old_r = r;
        r = tmp_r;
        let tmp_s = old_s - q * s;
        old_s = s;
        s = tmp_s;
    }
    if old_r != 1 {
        return None;
    }
    Some(old_s.rem_euclid(m as i128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: usize, levels: usize) -> Arc<RnsContext> {
        RnsContext::with_primes(n, 40, levels).unwrap()
    }

    #[test]
    fn context_construction() {
        let c = ctx(64, 3);
        assert_eq!(c.degree(), 64);
        assert_eq!(c.max_level(), 3);
        assert!((c.log_q(3) - 120.0).abs() < 2.0);
        // Duplicate primes are rejected.
        let p = zq::ntt_primes(40, 64, 1)[0];
        assert!(RnsContext::new(64, &[p, p]).is_none());
        // Non-NTT-friendly primes are rejected.
        assert!(RnsContext::new(64, &[97]).is_none());
    }

    #[test]
    fn from_signed_roundtrip_via_crt() {
        let c = ctx(16, 3);
        let coeffs: Vec<i64> = (0..16).map(|i| (i as i64 - 8) * 3).collect();
        let p = RnsPoly::from_signed(c, 3, &coeffs);
        let t = 1 << 20;
        let back = p.crt_centered_mod(t);
        for (i, &v) in back.iter().enumerate() {
            let expect = coeffs[i].rem_euclid(t as i64) as u64;
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn add_mul_consistent_with_crt() {
        let c = ctx(16, 2);
        let a = RnsPoly::from_signed(c.clone(), 2, &[1i64; 16]);
        let b = RnsPoly::from_signed(c.clone(), 2, &[2i64; 16]);
        let s = a.add(&b);
        assert_eq!(s.crt_centered_mod(97), vec![3u64; 16]);
        // (1 + X + ... + X^15)^2 has known negacyclic coefficients.
        let prod = a.ntt().mul(&a.ntt()).coeff();
        let got = prod.crt_centered_mod(1 << 30);
        // Negacyclic square of the all-ones polynomial: coefficient k equals
        // (k+1) - (n-1-k) = 2k + 2 - n.
        let n = 16i64;
        for (k, &g) in got.iter().enumerate() {
            let expect = (2 * k as i64 + 2 - n).rem_euclid(1 << 30) as u64;
            assert_eq!(g, expect, "coefficient {k}");
        }
    }

    #[test]
    fn ntt_roundtrip() {
        let c = ctx(32, 3);
        let coeffs: Vec<i64> = (0..32).map(|i| i as i64 - 16).collect();
        let p = RnsPoly::from_signed(c, 3, &coeffs);
        let mut q = p.clone();
        q.to_ntt();
        assert_ne!(p, q);
        q.to_coeff();
        assert_eq!(p, q);
    }

    #[test]
    fn inf_norm_reports_centered_magnitude() {
        let c = ctx(8, 2);
        let p = RnsPoly::from_signed(c, 2, &[-5, 3, 0, 0, 0, 0, 0, 7]);
        assert_eq!(p.inf_norm_big(), BigUint::from_u64(7));
    }

    #[test]
    fn mod_switch_preserves_plaintext_mod_t() {
        let c = ctx(16, 3);
        let t = 257u64;
        // Value = m + t*e for small m, e; after mod switch the value mod t
        // must still be m.
        let m: Vec<i64> = (0..16).map(|i| (i % (t as usize)) as i64).collect();
        let e: Vec<i64> = (0..16).map(|i| (i as i64 - 8) * 11).collect();
        let v: Vec<i64> = m.iter().zip(&e).map(|(&a, &b)| a + t as i64 * b).collect();
        let p = RnsPoly::from_signed(c, 3, &v);
        let switched = p.mod_switch_down(t);
        assert_eq!(switched.level(), 2);
        let back = switched.crt_centered_mod(t);
        // After division by q_l, the plaintext is scaled by q_l^{-1} mod t.
        let ql = switched.context().moduli()[2].value();
        let ql_inv = inv_mod_u64(ql % t, t).unwrap();
        for (i, &b) in back.iter().enumerate() {
            let expect = (m[i] as u64 * ql_inv) % t;
            assert_eq!(b, expect, "coefficient {i}");
        }
    }

    #[test]
    fn mod_switch_shrinks_noise() {
        let c = ctx(16, 3);
        let t = 2u64;
        let v: Vec<i64> = (0..16).map(|i| (i as i64 + 1) * 1_000_000_007).collect();
        let p = RnsPoly::from_signed(c, 3, &v);
        let before = p.inf_norm_big();
        let after = p.mod_switch_down(t).inf_norm_big();
        // Noise shrinks by roughly q_l (2^40); allow slack for the delta term.
        assert!(after.bits() + 30 < before.bits() || after.bits() <= 8);
    }

    #[test]
    fn rns_decomposition_recomposes() {
        let c = ctx(16, 3);
        let coeffs: Vec<i64> = (0..16).map(|i| i as i64 * 123_456_789 - 7).collect();
        let p = RnsPoly::from_signed(c.clone(), 3, &coeffs);
        let parts = p.rns_decompose();
        assert_eq!(parts.len(), 3);
        // sum_j d_j * qhat_j must equal p mod Q.
        let pre = c.level(3);
        let mut acc = RnsPoly::zero(c.clone(), 3, Representation::Ntt);
        for (j, d) in parts.iter().enumerate() {
            // Build the constant polynomial qhat_j in RNS.
            let gadget_res: Vec<Vec<u64>> = (0..3)
                .map(|i| {
                    let mut v = vec![0u64; 16];
                    v[0] = pre.qhat_mod[j][i];
                    v
                })
                .collect();
            let mut g = RnsPoly::from_residues(c.clone(), Representation::Coefficient, gadget_res);
            g.to_ntt();
            acc = acc.add(&d.mul(&g));
        }
        assert_eq!(acc.coeff(), p);
    }

    #[test]
    fn truncate_level_drops_residues() {
        let c = ctx(8, 3);
        let p = RnsPoly::from_signed(c, 3, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let t = p.truncate_level(2);
        assert_eq!(t.level(), 2);
        assert_eq!(t.residues().len(), 2);
        assert_eq!(t.residues()[0], p.residues()[0]);
    }

    #[test]
    fn inv_mod_u64_cases() {
        assert_eq!(inv_mod_u64(3, 7), Some(5));
        assert_eq!(inv_mod_u64(2, 4), None); // Not coprime.
        assert_eq!(inv_mod_u64(1, 1), Some(0));
        let t = 1u64 << 30;
        let q = 1_099_511_627_689u64 % t; // An odd prime mod 2^30.
        let inv = inv_mod_u64(q, t).unwrap();
        assert_eq!(q.wrapping_mul(inv) % t, 1);
    }

    fn pseudo_poly(c: &Arc<RnsContext>, level: usize, seed: u64) -> RnsPoly {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let coeffs: Vec<i64> = (0..c.degree())
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 2_000_003) as i64 - 1_000_001
            })
            .collect();
        RnsPoly::from_signed(c.clone(), level, &coeffs)
    }

    #[test]
    fn shoup_precomp_mul_matches_plain() {
        let c = ctx(32, 3);
        let a = pseudo_poly(&c, 3, 1).ntt();
        let b = pseudo_poly(&c, 3, 2);
        let bp = ShoupPrecomp::new(b.clone());
        assert_eq!(bp.poly(), &b.ntt());
        assert_eq!(bp.level(), 3);

        let want = a.mul(&b.ntt());
        let mut got = a.clone();
        got.mul_shoup_assign(&bp);
        assert_eq!(got, want);
    }

    fn pseudo_keys(c: &Arc<RnsContext>, level: usize) -> Vec<(ShoupPrecomp, ShoupPrecomp)> {
        (0..level as u64)
            .map(|j| {
                (
                    ShoupPrecomp::new(pseudo_poly(c, level, 20 + j)),
                    ShoupPrecomp::new(pseudo_poly(c, level, 40 + j)),
                )
            })
            .collect()
    }

    #[test]
    fn key_switch_matches_decompose_oracle_at_every_level_and_batch_size() {
        let c = ctx(16, 6);
        for level in 1..=6 {
            let keys = pseudo_keys(&c, level);
            for batch in [1usize, 3] {
                let c2: Vec<RnsPoly> = (0..batch as u64)
                    .map(|b| pseudo_poly(&c, level, 10 + b))
                    .collect();
                let mut want: Vec<(RnsPoly, RnsPoly)> = (0..batch as u64)
                    .map(|b| {
                        (
                            pseudo_poly(&c, level, 60 + b).ntt(),
                            pseudo_poly(&c, level, 70 + b).ntt(),
                        )
                    })
                    .collect();
                let mut got = want.clone();
                // Oracle: decompose into digit polynomials, then mul-add.
                for ((w0, w1), c2) in want.iter_mut().zip(&c2) {
                    for (d, (kb, ka)) in c2.rns_decompose().iter().zip(&keys) {
                        w0.mul_add_assign(d, kb.poly());
                        w1.mul_add_assign(d, ka.poly());
                    }
                }
                let c2_ntt: Vec<RnsPoly> = c2.iter().map(RnsPoly::ntt).collect();
                let mut jobs: Vec<(&mut RnsPoly, &mut RnsPoly, &RnsPoly)> = got
                    .iter_mut()
                    .zip(&c2_ntt)
                    .map(|((g0, g1), c2)| (g0, g1, c2))
                    .collect();
                key_switch_batch(&mut jobs, &keys);
                assert_eq!(got, want, "level {level} batch {batch}");
            }
        }
    }

    #[test]
    fn key_switch_wide_primes_take_the_canonical_accumulate() {
        // 61-bit primes leave no room for (2l+1)·q in a u64 at l = 4, so
        // the per-limb budget check routes through `mul_shoup_add2`.
        let c = RnsContext::with_primes(16, 61, 4).unwrap();
        let keys = pseudo_keys(&c, 4);
        let c2 = pseudo_poly(&c, 4, 5);
        let mut want0 = pseudo_poly(&c, 4, 6).ntt();
        let mut want1 = pseudo_poly(&c, 4, 7).ntt();
        let (mut got0, mut got1) = (want0.clone(), want1.clone());
        for (d, (kb, ka)) in c2.rns_decompose().iter().zip(&keys) {
            want0.mul_add_assign(d, kb.poly());
            want1.mul_add_assign(d, ka.poly());
        }
        key_switch_assign(&mut got0, &mut got1, &c2.ntt(), &keys);
        assert_eq!((got0, got1), (want0, want1));
    }

    /// `steps` chained coefficient-domain oracle steps around one inverse
    /// and one forward transform.
    fn mod_switch_oracle(p: &RnsPoly, steps: usize, t: u64) -> RnsPoly {
        let mut c = p.coeff();
        for _ in 0..steps {
            c = c.mod_switch_down(t);
        }
        c.ntt()
    }

    #[test]
    fn mod_switch_ntt_matches_coefficient_oracle_for_every_level_pair() {
        let c = ctx(16, 6);
        // Power-of-two and odd plaintext moduli (the mask and the general
        // branch of the correction).
        for t in [1u64 << 10, 257, 2, 65_537] {
            for level in 2..=6 {
                let p = pseudo_poly(&c, level, 7 * level as u64 + t).ntt();
                for target in 1..level {
                    let steps = level - target;
                    let got = p.mod_switch_ntt(steps, t);
                    assert_eq!(got.level(), target);
                    assert_eq!(got.representation(), Representation::Ntt);
                    assert_eq!(
                        got,
                        mod_switch_oracle(&p, steps, t),
                        "t={t} level {level} → {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn mod_switch_ntt_worst_case_residues() {
        // All-(q−1) and all-zero inputs, and mixed-width primes that fail
        // the kernel's |d| < q_i precondition (the Euclidean branch).
        let c = ctx(16, 4);
        for fill in [0u64, u64::MAX] {
            let residues: Vec<Vec<u64>> = c
                .moduli()
                .iter()
                .map(|m| vec![fill.min(m.value() - 1); 16])
                .collect();
            let p = RnsPoly::from_residues(c.clone(), Representation::Ntt, residues);
            for steps in 1..4 {
                assert_eq!(
                    p.mod_switch_ntt(steps, 1 << 10),
                    mod_switch_oracle(&p, steps, 1 << 10)
                );
            }
        }
        let small = zq::ntt_primes(30, 16, 2);
        let big = zq::ntt_primes(50, 16, 2);
        let mixed = RnsContext::new(16, &[small[0], big[0], small[1], big[1]]).unwrap();
        let p = pseudo_poly(&mixed, 4, 3).ntt();
        for steps in 1..4 {
            assert_eq!(
                p.mod_switch_ntt(steps, 257),
                mod_switch_oracle(&p, steps, 257)
            );
        }
    }

    #[test]
    #[should_panic(expected = "different contexts")]
    fn cross_context_ops_panic() {
        let c1 = ctx(8, 2);
        let c2 = ctx(8, 2);
        let a = RnsPoly::zero(c1, 2, Representation::Coefficient);
        let b = RnsPoly::zero(c2, 2, Representation::Coefficient);
        let _ = a.add(&b);
    }
}
