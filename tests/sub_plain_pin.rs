//! Golden pin of `Ciphertext::sub_plain`'s bytes: the §4.5 correction a
//! selected row subtracts (`Enc(ℓ − 1)` after summing a subsequence of
//! length ℓ). No round pinned by `golden_round` runs a §4.5 query, so this
//! is the one check that the correction's residues stay the same across
//! a rewrite of the plaintext path.
//!
//! Regenerate (only for an intended, documented change) with
//! `GOLDEN_PRINT=1 cargo test --test sub_plain_pin -- --nocapture`.

use mycelium_bgv::encoding::{encode_constant, encode_monomial};
use mycelium_bgv::{BgvParams, Ciphertext, KeySet};
use mycelium_cert::to_hex;
use mycelium_crypto::sha256::Sha256;
use mycelium_math::rng::{SeedableRng, StdRng};

/// SHA-256 over every residue word (little-endian, part by part, limb by
/// limb).
fn digest(ct: &Ciphertext) -> String {
    let mut h = Sha256::new();
    for part in ct.parts() {
        for limb in part.residues() {
            for w in limb {
                h.update(&w.to_le_bytes());
            }
        }
    }
    to_hex(&h.finalize())
}

/// The subsequence lengths of a §4.5 row: one position, two, and
/// `tInf`'s fourteen.
const ELLS: [u64; 3] = [1, 2, 14];

/// Per level `1..=6`, per ℓ of [`ELLS`]: the digest of
/// `Enc_level(x^3).sub_plain(ℓ − 1)`.
const PINS: [[&str; 3]; 6] = [
    [
        "71e6d63f3dac04f3004f7b770d49caf28f172b1fb84a0b19b634903f400e23fc",
        "c9d94d7674fd3f7b988f8a2f1243f6a1240480a728a92ae0f9e06c34eaa19617",
        "b3deb924c6067ddaf6171ea3d9ca4ac101b020fb90b61593d60cadf9fcd5f934",
    ],
    [
        "c2bf84ecd7b074af7fe2a9a7abda576f0608cbd2f29e55b35a5040d461754faf",
        "6ffafe02cd79dce929ba6cb2a9b84b94fc602940d2529024f872c6cf95282ff1",
        "6fa60f0b8367bd27aee212546d724bdb6752cd69560383ac5c7af3fb0d3374df",
    ],
    [
        "f97dc5166a131973415985c9df5018ad53b3e9a18c5ccc73823aba87f6f217b1",
        "081ba76144785c3e2dea067025af8268adc547aa443542737f048ac3b8d47732",
        "803d30d7fc5c114c945b55f8e70a48c35b8cda938794f767fec7f7b69252398d",
    ],
    [
        "531baa6af01752fef39fc1a92ce53151a3e3210de18684e50c25d0b26a3b0206",
        "204c6ab4c37718f70c130467192021ba7c0638b32681c1848cd71d0bba52490e",
        "a6ae6e75faa70d24ece310cd3ced5eb60167bb4bfb9c53f0741fd91f19476a3a",
    ],
    [
        "73a5663e84c57ec8fe97dd063471b0ef457edbecbe1786f8e18c260e1775ca87",
        "3bf1b4ddee4edcce12f4859186f083fa4c81a6ea19a71ad39c67f262c31e830a",
        "7e7ab4f6a266711ab094399fa5bda1b9336ac8ef9c89a0c899d35135918edae4",
    ],
    [
        "b217cf5fb36bb2318ef9d831fa3cbd6189bec374cdc7b8513874ea239b6da772",
        "d66c36263e4350e349ac38033877a73b6b6705386607d7c5a753ac9d000dd25d",
        "2375f5bf30220da475b058ca71b53677bb7d2f93fe03af21fb1deebd66bcb891",
    ],
];
#[test]
fn sub_plain_bytes_are_pinned_at_every_level() {
    let params = BgvParams::test_small();
    let (n, t) = (params.n, params.plaintext_modulus);
    let keys = KeySet::generate_deferred(&params, &mut StdRng::seed_from_u64(5));
    let x3 = encode_monomial(3, n, t).unwrap();
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    assert_eq!(PINS.len(), params.levels);
    for (level, pins) in (1..).zip(&PINS) {
        for (&ell, &want) in ELLS.iter().zip(pins) {
            let rng = &mut StdRng::seed_from_u64(100 * level as u64 + ell);
            let ct = Ciphertext::encrypt_at_level(&keys.public, &x3, level, rng).unwrap();
            let correction = encode_constant(ell - 1, n, t).unwrap();
            let out = ct.sub_plain(&correction).unwrap();
            assert_eq!(out.level(), level);
            let mut expect = vec![0u64; n];
            expect[3] = 1;
            expect[0] = (t - (ell - 1)) % t;
            assert_eq!(out.decrypt(&keys.secret).coeffs(), expect.as_slice());
            let got = digest(&out);
            if print {
                println!("level {level}, ℓ {ell}: \"{got}\"");
            } else {
                assert_eq!(got, want, "level {level}, ℓ {ell}");
            }
        }
    }
}
