//! Committee orchestration: election, threshold decryption, joint noise,
//! release (§4.2, §4.4).
//!
//! A fresh committee is elected per query from the device population using
//! the public beacon. In the paper it receives the decryption key from the
//! previous committee by verifiable secret redistribution; here each run
//! deals fresh Shamir shares of `secret` to the committee instead. For a
//! query it:
//!
//! 1. receives the aggregated ciphertext from the aggregator,
//! 2. computes `t+1` decryption shares (with smudging noise),
//! 3. derives the query's DP noise jointly (commit-then-combine seeds),
//! 4. charges the privacy budget and releases noisy statistics only.

use mycelium_bgv::{Ciphertext, Plaintext, SecretKey};
use mycelium_dp::PrivacyBudget;
use mycelium_math::rng::Rng;
use mycelium_sharing::committee::{elect, threshold};
use mycelium_sharing::threshold::{
    combine, decryption_share, derive_joint_noise, DecryptionShare, KeyShareSet, ThresholdError,
};

use crate::roles::SMUDGE_BOUND;

/// A committee decryption run.
#[derive(Debug)]
pub struct CommitteeRun {
    /// Elected member device indices.
    pub members: Vec<u64>,
    /// The decrypted (pre-noise) plaintext — held inside the MPC; exposed
    /// here for oracle comparison in tests.
    pub plaintext: Plaintext,
    /// The jointly-derived DP noise, one value per released coefficient.
    pub noise: Vec<i64>,
}

/// Committee failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CommitteeError {
    /// Threshold decryption failed.
    Threshold(ThresholdError),
    /// The privacy budget could not cover the query.
    Budget(mycelium_dp::DpError),
}

impl std::fmt::Display for CommitteeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitteeError::Threshold(e) => write!(f, "threshold decryption failed: {e}"),
            CommitteeError::Budget(e) => write!(f, "privacy budget: {e}"),
        }
    }
}

impl std::error::Error for CommitteeError {}

/// Runs the committee phase for one query.
///
/// `sensitivity` and `epsilon` calibrate the Laplace noise
/// (scale `= sensitivity / epsilon`); `released_values` is the number of
/// noisy values that will be published (noise is drawn per value).
#[allow(clippy::too_many_arguments)]
pub fn run_committee<R: Rng + ?Sized>(
    aggregate: &Ciphertext,
    secret: &SecretKey,
    population: u64,
    committee_size: usize,
    beacon: &[u8],
    sensitivity: f64,
    epsilon: f64,
    budget: &mut PrivacyBudget,
    released_values: usize,
    rng: &mut R,
) -> Result<CommitteeRun, CommitteeError> {
    budget.charge(epsilon).map_err(CommitteeError::Budget)?;
    let members = elect(population, committee_size, beacon);
    let t = threshold(committee_size);
    let key_shares = KeyShareSet::deal(secret, t, committee_size, rng);
    // The first t+1 members participate (member ids are 1-based points).
    let participants: Vec<u64> = (1..=t as u64 + 1).collect();
    let shares: Vec<DecryptionShare> = participants
        .iter()
        .map(|&m| {
            decryption_share(aggregate, &key_shares, m, &participants, SMUDGE_BOUND, rng)
                .map_err(CommitteeError::Threshold)
        })
        .collect::<Result<_, _>>()?;
    let plaintext = combine(aggregate, &shares, t).map_err(CommitteeError::Threshold)?;
    // Joint noise from per-member seed contributions.
    let seeds: Vec<[u8; 32]> = (0..committee_size)
        .map(|_| {
            let mut s = [0u8; 32];
            rng.fill(&mut s);
            s
        })
        .collect();
    let noise = derive_joint_noise(&seeds, sensitivity / epsilon, released_values);
    Ok(CommitteeRun {
        members,
        plaintext,
        noise,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_bgv::encoding::encode_monomial;
    use mycelium_bgv::{BgvParams, KeySet};
    use mycelium_math::rng::{SeedableRng, StdRng};

    #[test]
    fn committee_decrypts_correctly() {
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(91);
        let ks = KeySet::generate_deferred(&params, &mut rng);
        let pt = encode_monomial(4, params.n, params.plaintext_modulus).unwrap();
        let ct = Ciphertext::encrypt(&ks.public, &pt, &mut rng).unwrap();
        let mut budget = PrivacyBudget::new(10.0);
        let run = run_committee(
            &ct,
            &ks.secret,
            1000,
            5,
            b"beacon",
            2.0,
            1.0,
            &mut budget,
            16,
            &mut rng,
        )
        .unwrap();
        assert_eq!(run.plaintext.coeffs()[4], 1);
        assert_eq!(run.members.len(), 5);
        assert_eq!(run.noise.len(), 16);
        assert!((budget.remaining() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn exhausted_budget_blocks_release() {
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(92);
        let ks = KeySet::generate_deferred(&params, &mut rng);
        let pt = encode_monomial(0, params.n, params.plaintext_modulus).unwrap();
        let ct = Ciphertext::encrypt(&ks.public, &pt, &mut rng).unwrap();
        let mut budget = PrivacyBudget::new(0.5);
        let r = run_committee(
            &ct,
            &ks.secret,
            1000,
            5,
            b"b",
            2.0,
            1.0,
            &mut budget,
            4,
            &mut rng,
        );
        assert!(matches!(r, Err(CommitteeError::Budget(_))));
        // Nothing was decrypted and nothing spent.
        assert!((budget.remaining() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn degree_two_aggregate_rejected() {
        // Only a degree-1 aggregate decrypts; origins relinearize every
        // product, so a degree-2 one never reaches the committee.
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(93);
        let ks = KeySet::generate_deferred(&params, &mut rng);
        let pt = encode_monomial(1, params.n, params.plaintext_modulus).unwrap();
        let a = Ciphertext::encrypt(&ks.public, &pt, &mut rng).unwrap();
        let prod = a.mul(&a).unwrap();
        let mut budget = PrivacyBudget::new(10.0);
        let r = run_committee(
            &prod,
            &ks.secret,
            1000,
            5,
            b"b",
            2.0,
            1.0,
            &mut budget,
            4,
            &mut rng,
        );
        assert!(matches!(
            r,
            Err(CommitteeError::Threshold(
                ThresholdError::WrongDegree { .. }
            ))
        ));
    }
}
