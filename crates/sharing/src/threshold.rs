//! Threshold BGV decryption with smudging noise.
//!
//! The committee holds a `(t, n)` coefficient-wise Shamir sharing of the
//! BGV secret key `s`. To decrypt an aggregate ciphertext `(c_0, c_1)`,
//! each participating member `i` locally computes a **decryption share**
//!
//! ```text
//! d_i = λ_i · (c_1 · [s]_i) + t_pt · e_i        (λ folded in locally)
//! ```
//!
//! where `λ_i` is the Lagrange coefficient for the participating set and
//! `e_i` is *smudging noise* that hides the key share in the released
//! value. Summing `t + 1` shares with `c_0` yields
//! `c_0 + c_1·s + t_pt·Σe_i`, which reduces modulo `t_pt` to the plaintext.
//! This mirrors the paper's SCALE-MAMBA MPC for BGV decryption (§5),
//! executed share-wise instead of inside a generic MPC.
//!
//! The committee also adds the Laplace noise for differential privacy
//! before releasing anything (§4.4); [`derive_joint_noise`] implements the
//! commit-then-combine seed derivation our simulated MPC uses for that.

use mycelium_bgv::{Ciphertext, Plaintext, SecretKey};
use mycelium_crypto::sha256::sha256_concat;
use mycelium_math::deferred::Deferred;
use mycelium_math::rng::Rng;
use mycelium_math::rns::{Representation, RnsPoly};

use crate::shamir::{lagrange_at_zero, share_rns};

/// The committee's sharing of the BGV secret key. Clones share the
/// shares; a set made by [`KeyShareSet::deal_deferred`] deals them on the
/// first read.
#[derive(Debug, Clone)]
pub struct KeyShareSet {
    /// One share per member (members are `1..=n`), at the top level, in
    /// coefficient representation.
    shares: Deferred<Vec<RnsPoly>>,
    /// Reconstruction threshold `t` (any `t + 1` members decrypt).
    pub threshold: usize,
    members: usize,
}

impl KeyShareSet {
    /// Shares a secret key among `n` members with threshold `t`.
    pub fn deal<R: Rng + ?Sized>(sk: &SecretKey, t: usize, n: usize, rng: &mut R) -> Self {
        Self {
            shares: Deferred::ready(dealt(sk, t, n, rng)),
            threshold: t,
            members: n,
        }
    }

    /// [`KeyShareSet::deal`] off `rng`, dealt on the first read: the same
    /// shares, and a process that never makes a decryption share never
    /// deals them. Until then the set holds a clone of `sk` and `rng`.
    pub fn deal_deferred<R: Rng + Send + 'static>(
        sk: &SecretKey,
        t: usize,
        n: usize,
        mut rng: R,
    ) -> Self {
        let sk = sk.clone();
        Self {
            shares: Deferred::new(move || dealt(&sk, t, n, &mut rng)),
            threshold: t,
            members: n,
        }
    }

    /// Member `i`'s share (1-based), truncated to the given level.
    ///
    /// Truncation is sound because each chain prime's sharing is
    /// independent.
    pub fn share_for(&self, member: usize, level: usize) -> RnsPoly {
        self.shares.get()[member - 1].truncate_level(level)
    }

    /// Number of members.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Whether the shares have been dealt (always, unless the set was
    /// made by [`KeyShareSet::deal_deferred`] and nothing read a share).
    pub fn is_derived(&self) -> bool {
        self.shares.is_derived()
    }
}

/// The `n` shares [`KeyShareSet::deal`] deals.
fn dealt<R: Rng + ?Sized>(sk: &SecretKey, t: usize, n: usize, rng: &mut R) -> Vec<RnsPoly> {
    let ctx = sk.context();
    let s = RnsPoly::from_signed(ctx.clone(), ctx.max_level(), sk.coefficients());
    share_rns(&s, t, n, rng).shares
}

/// One member's decryption share.
#[derive(Debug, Clone)]
pub struct DecryptionShare {
    /// The member's evaluation point.
    pub member: u64,
    /// `λ_i·(c_1·[s]_i) + t·e_i` in NTT representation at the ciphertext's
    /// level.
    pub d: RnsPoly,
}

/// Errors from threshold decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThresholdError {
    /// Threshold decryption requires a degree-1 (2-component) ciphertext;
    /// relinearize first (here each origin does, after every product).
    WrongDegree { parts: usize },
    /// Fewer shares than `threshold + 1`, or inconsistent member sets.
    NotEnoughShares { got: usize, need: usize },
    /// Duplicate or zero member indices.
    BadMembers,
}

impl std::fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThresholdError::WrongDegree { parts } => write!(
                f,
                "threshold decryption needs a 2-part ciphertext, got {parts}"
            ),
            ThresholdError::NotEnoughShares { got, need } => {
                write!(f, "got {got} decryption shares, need {need}")
            }
            ThresholdError::BadMembers => write!(f, "duplicate or zero member indices"),
        }
    }
}

impl std::error::Error for ThresholdError {}

/// Computes member `member`'s decryption share for `ct`.
///
/// `participants` is the full set of member indices taking part (needed for
/// the Lagrange coefficient). `smudge_bound` bounds the uniform smudging
/// noise `e_i ∈ [-B, B]`.
pub fn decryption_share<R: Rng + ?Sized>(
    ct: &Ciphertext,
    key_shares: &KeyShareSet,
    member: u64,
    participants: &[u64],
    smudge_bound: i64,
    rng: &mut R,
) -> Result<DecryptionShare, ThresholdError> {
    if ct.parts().len() != 2 {
        return Err(ThresholdError::WrongDegree {
            parts: ct.parts().len(),
        });
    }
    if member == 0 || !participants.contains(&member) {
        return Err(ThresholdError::BadMembers);
    }
    let level = ct.level();
    let mut share = key_shares.share_for(member as usize, level);
    share.to_ntt();
    let ctx = share.context().clone();
    // c1 · [s]_i.
    let mut d = ct.parts()[1].mul(&share);
    // Fold in λ_i (per prime — Lagrange coefficients differ per modulus).
    let mut residues = Vec::with_capacity(level);
    {
        let mut d_coeff = d.coeff();
        for prime_idx in 0..level {
            let m = ctx.moduli()[prime_idx];
            let lambda = lagrange_at_zero(participants, m).ok_or(ThresholdError::BadMembers)?;
            let my_pos = participants
                .iter()
                .position(|&p| p == member)
                .expect("checked above");
            let l = lambda[my_pos];
            let res: Vec<u64> = d_coeff.residues()[prime_idx]
                .iter()
                .map(|&c| m.mul(c, l))
                .collect();
            residues.push(res);
        }
        d_coeff = RnsPoly::from_residues(ctx.clone(), Representation::Coefficient, residues);
        // Smudging noise: t · e_i with e_i uniform in [-B, B].
        let n = ctx.degree();
        let e: Vec<i64> = (0..n)
            .map(|_| rng.gen_range(-smudge_bound..=smudge_bound))
            .collect();
        let e_poly =
            RnsPoly::from_signed(ctx.clone(), level, &e).scalar_mul(ct.params().plaintext_modulus);
        d = d_coeff.add(&e_poly);
        d.to_ntt();
    }
    Ok(DecryptionShare { member, d })
}

/// Combines `t + 1` decryption shares with the ciphertext to recover the
/// plaintext.
pub fn combine(
    ct: &Ciphertext,
    shares: &[DecryptionShare],
    threshold: usize,
) -> Result<Plaintext, ThresholdError> {
    if ct.parts().len() != 2 {
        return Err(ThresholdError::WrongDegree {
            parts: ct.parts().len(),
        });
    }
    if shares.len() < threshold + 1 {
        return Err(ThresholdError::NotEnoughShares {
            got: shares.len(),
            need: threshold + 1,
        });
    }
    let mut seen = Vec::new();
    for s in shares {
        if s.member == 0 || seen.contains(&s.member) {
            return Err(ThresholdError::BadMembers);
        }
        seen.push(s.member);
    }
    let mut acc = ct.parts()[0].clone();
    for s in shares {
        acc = acc.add(&s.d);
    }
    let t = ct.params().plaintext_modulus;
    let coeffs = acc.coeff().crt_centered_mod(t);
    Ok(Plaintext::new(coeffs, t).expect("centered reduction is in range"))
}

/// Derives the committee's joint DP-noise randomness from per-member seed
/// contributions (commit-then-reveal inside the simulated MPC): no
/// non-majority subset can predict or bias the output.
///
/// Returns `count` discrete-Laplace samples with scale `b`.
///
/// # Panics
///
/// Panics if `seeds` is empty or `b <= 0`.
pub fn derive_joint_noise(seeds: &[[u8; 32]], b: f64, count: usize) -> Vec<i64> {
    assert!(!seeds.is_empty(), "at least one seed contribution required");
    assert!(b > 0.0, "Laplace scale must be positive");
    let mut joint = [0u8; 32];
    for s in seeds {
        for (j, byte) in s.iter().enumerate() {
            joint[j] ^= byte;
        }
    }
    // Deterministic PRG from the joint seed.
    let mut out = Vec::with_capacity(count);
    let mut ctr = 0u64;
    while out.len() < count {
        let block = sha256_concat(&[&joint, b"dp-noise", &ctr.to_le_bytes()]);
        ctr += 1;
        // Two u64 draws per block → one uniform in (0,1) and one sign/geom.
        let u1 = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let u2 = u64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
        let u = (u1 >> 11) as f64 / (1u64 << 53) as f64;
        let u = u.max(f64::MIN_POSITIVE);
        let alpha = (-1.0 / b).exp();
        let k = (u.ln() / alpha.ln()).floor() as i64;
        let sign = if u2 & 1 == 1 { 1 } else { -1 };
        if k == 0 && sign < 0 {
            continue; // Keep the distribution symmetric (no double zero).
        }
        out.push(sign * k);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_bgv::encoding::encode_monomial;
    use mycelium_bgv::{BgvParams, KeySet};
    use mycelium_math::rng::{SeedableRng, StdRng};

    fn setup() -> (BgvParams, KeySet, StdRng) {
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(41);
        let ks = KeySet::generate_with_relin_levels(&params, &[params.levels], &mut rng);
        (params, ks, rng)
    }

    #[test]
    fn deferred_deal_equals_the_eager_one() {
        let (params, ks, rng) = setup();
        let eager = KeyShareSet::deal(&ks.secret, 2, 5, &mut rng.clone());
        let deferred = KeyShareSet::deal_deferred(&ks.secret, 2, 5, rng);
        assert_eq!((deferred.members(), deferred.threshold), (5, 2));
        assert!(!deferred.is_derived(), "members and threshold deal nothing");
        let early_clone = deferred.clone();
        for m in 1..=5 {
            for level in [1, params.levels] {
                assert_eq!(deferred.share_for(m, level), eager.share_for(m, level));
            }
        }
        assert!(early_clone.is_derived());
    }

    #[test]
    fn threshold_decrypt_matches_direct() {
        let (params, ks, mut rng) = setup();
        let t_pt = params.plaintext_modulus;
        let pt = encode_monomial(7, params.n, t_pt).unwrap();
        let ct = Ciphertext::encrypt(&ks.public, &pt, &mut rng).unwrap();
        let key_shares = KeyShareSet::deal(&ks.secret, 2, 5, &mut rng);
        let participants = [1u64, 3, 5];
        let dshares: Vec<DecryptionShare> = participants
            .iter()
            .map(|&m| decryption_share(&ct, &key_shares, m, &participants, 100, &mut rng).unwrap())
            .collect();
        let out = combine(&ct, &dshares, key_shares.threshold).unwrap();
        assert_eq!(out, ct.decrypt(&ks.secret));
        assert_eq!(out.coeffs()[7], 1);
    }

    #[test]
    fn works_after_homomorphic_ops_and_levels() {
        let (params, ks, mut rng) = setup();
        let t_pt = params.plaintext_modulus;
        let a = Ciphertext::encrypt(
            &ks.public,
            &encode_monomial(2, params.n, t_pt).unwrap(),
            &mut rng,
        )
        .unwrap();
        let b = Ciphertext::encrypt(
            &ks.public,
            &encode_monomial(3, params.n, t_pt).unwrap(),
            &mut rng,
        )
        .unwrap();
        let prod = a
            .mul(&b)
            .unwrap()
            .relinearize(&ks.relin)
            .unwrap()
            .mod_switch_down()
            .unwrap();
        let key_shares = KeyShareSet::deal(&ks.secret, 1, 4, &mut rng);
        let participants = [2u64, 4];
        let dshares: Vec<DecryptionShare> = participants
            .iter()
            .map(|&m| decryption_share(&prod, &key_shares, m, &participants, 50, &mut rng).unwrap())
            .collect();
        let out = combine(&prod, &dshares, 1).unwrap();
        assert_eq!(out.coeffs()[5], 1);
    }

    #[test]
    fn too_few_shares_rejected() {
        let (params, ks, mut rng) = setup();
        let pt = encode_monomial(0, params.n, params.plaintext_modulus).unwrap();
        let ct = Ciphertext::encrypt(&ks.public, &pt, &mut rng).unwrap();
        let key_shares = KeyShareSet::deal(&ks.secret, 2, 5, &mut rng);
        let participants = [1u64, 2, 3];
        let one_share = decryption_share(&ct, &key_shares, 1, &participants, 10, &mut rng).unwrap();
        assert!(matches!(
            combine(&ct, &[one_share], 2),
            Err(ThresholdError::NotEnoughShares { got: 1, need: 3 })
        ));
    }

    #[test]
    fn degree_two_rejected() {
        let (params, ks, mut rng) = setup();
        let t_pt = params.plaintext_modulus;
        let a = Ciphertext::encrypt(
            &ks.public,
            &encode_monomial(1, params.n, t_pt).unwrap(),
            &mut rng,
        )
        .unwrap();
        let prod = a.mul(&a).unwrap(); // Not relinearized.
        let key_shares = KeyShareSet::deal(&ks.secret, 1, 3, &mut rng);
        assert!(matches!(
            decryption_share(&prod, &key_shares, 1, &[1, 2], 10, &mut rng),
            Err(ThresholdError::WrongDegree { parts: 3 })
        ));
    }

    #[test]
    fn nonparticipant_rejected() {
        let (params, ks, mut rng) = setup();
        let pt = encode_monomial(0, params.n, params.plaintext_modulus).unwrap();
        let ct = Ciphertext::encrypt(&ks.public, &pt, &mut rng).unwrap();
        let key_shares = KeyShareSet::deal(&ks.secret, 1, 4, &mut rng);
        assert!(matches!(
            decryption_share(&ct, &key_shares, 3, &[1, 2], 10, &mut rng),
            Err(ThresholdError::BadMembers)
        ));
    }

    #[test]
    fn duplicate_share_members_rejected() {
        let (params, ks, mut rng) = setup();
        let pt = encode_monomial(0, params.n, params.plaintext_modulus).unwrap();
        let ct = Ciphertext::encrypt(&ks.public, &pt, &mut rng).unwrap();
        let key_shares = KeyShareSet::deal(&ks.secret, 1, 4, &mut rng);
        let participants = [1u64, 2];
        let s1 = decryption_share(&ct, &key_shares, 1, &participants, 10, &mut rng).unwrap();
        let s1b = s1.clone();
        assert!(matches!(
            combine(&ct, &[s1, s1b], 1),
            Err(ThresholdError::BadMembers)
        ));
    }

    #[test]
    fn joint_noise_deterministic_and_distributed() {
        let seeds = [[1u8; 32], [2u8; 32], [3u8; 32]];
        let a = derive_joint_noise(&seeds, 5.0, 100);
        let b = derive_joint_noise(&seeds, 5.0, 100);
        assert_eq!(a, b);
        // Changing any single member's seed changes the noise.
        let seeds2 = [[1u8; 32], [2u8; 32], [4u8; 32]];
        assert_ne!(a, derive_joint_noise(&seeds2, 5.0, 100));
        // Roughly centered.
        let n = 10_000;
        let big = derive_joint_noise(&seeds, 3.0, n);
        let mean = big.iter().sum::<i64>() as f64 / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
    }
}
