//! `mycelium::roles`: the client half of the round, called bare.

use mycelium::roles::Member;
use mycelium_bgv::encoding::encode_monomial;
use mycelium_bgv::{BgvParams, Ciphertext, KeySet};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_sharing::threshold::KeyShareSet;

#[test]
fn a_share_asked_twice_is_the_same_bytes_and_draws_nothing() {
    let params = BgvParams::test_small();
    let mut rng = StdRng::seed_from_u64(11);
    let keys = KeySet::generate(&params, &mut rng);
    let key_shares = KeyShareSet::deal(&keys.secret, 2, 5, &mut rng);
    let pt = encode_monomial(3, params.n, params.plaintext_modulus).unwrap();
    let ct = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
    let residues = |m: &mut Member, round, set: &[u64]| {
        let share = m.share(&key_shares, round, set, &ct).unwrap();
        share.d.residues().to_vec()
    };

    let (mut asked_twice, mut asked_once) = (Member::new(7, 2), Member::new(7, 2));
    assert_eq!(asked_twice.noise_seed(), asked_once.noise_seed());
    let first = residues(&mut asked_twice, 1, &[1, 2, 3]);
    // A redelivered task: the same share.
    assert_eq!(residues(&mut asked_twice, 1, &[1, 2, 3]), first);
    assert_eq!(residues(&mut asked_once, 1, &[1, 2, 3]), first);
    // The reselected round smudges from where round 1 left the stream: the
    // repeats drew nothing.
    let second = residues(&mut asked_twice, 2, &[2, 4, 5]);
    assert_ne!(second, first);
    assert_eq!(residues(&mut asked_once, 2, &[2, 4, 5]), second);
    // A set without this member is the typed error, and draws nothing either.
    assert!(asked_once.share(&key_shares, 3, &[1, 3, 4], &ct).is_err());
    assert_eq!(
        residues(&mut asked_once, 3, &[1, 2, 4]),
        residues(&mut asked_twice, 3, &[1, 2, 4])
    );
}
