//! Golden pin of `Ciphertext::sub_plain`'s bytes: the §4.5 correction a
//! selected row subtracts (`Enc(ℓ − 1)` after summing a subsequence of
//! length ℓ). No round pinned by `golden_round` runs a §4.5 query, so this
//! is the one check that the correction's residues and its noise bound
//! stay the same across a rewrite of the plaintext path.
//!
//! Regenerate (only for an intended, documented change) with
//! `GOLDEN_PRINT=1 cargo test --test sub_plain_pin -- --nocapture`.

use mycelium_bgv::encoding::{encode_constant, encode_monomial};
use mycelium_bgv::{BgvParams, Ciphertext, KeySet};
use mycelium_cert::to_hex;
use mycelium_crypto::sha256::Sha256;
use mycelium_math::rng::{SeedableRng, StdRng};

/// SHA-256 over every residue word (little-endian, part by part, limb by
/// limb) and the bits of the analytic noise bound.
fn digest(ct: &Ciphertext) -> String {
    let mut h = Sha256::new();
    for part in ct.parts() {
        for limb in part.residues() {
            for w in limb {
                h.update(&w.to_le_bytes());
            }
        }
    }
    h.update(&ct.noise_log2().to_bits().to_le_bytes());
    to_hex(&h.finalize())
}

/// The subsequence lengths of a §4.5 row: one position, two, and
/// `tInf`'s fourteen.
const ELLS: [u64; 3] = [1, 2, 14];

/// Per level `1..=6`, per ℓ of [`ELLS`]: the digest of
/// `Enc_level(x^3).sub_plain(ℓ − 1)`.
const PINS: [[&str; 3]; 6] = [
    [
        "c7d104ff849fb4b5fd03a4f6f4b993524411eb043cc6ceeeeb0f75f77e72d9c4",
        "c48b89f86499c2f8bf7834fd9f5ae3b4e95c0f270546f2cd927ff6fff8dd1c83",
        "c91bce9f8a08cfa1f89c28a41bece0971a8251db107cb5d26232e704f92e7eef",
    ],
    [
        "c7c18ae518d34fa3ace2d70069863bf5465aa712c8c055bbb7176b00d60fbaf9",
        "62ff065721b831e8e7b1485e62db309ccf6b99c0454a3a8ccff013f6c540cb17",
        "dfdb7ec38f0e5b0e2c778d7cb3150f1eb57972454c3fe5eb0da32e83ca692f47",
    ],
    [
        "2f9d0d8a82ed4d35789df15a35197c70875bf19f6ac2dfe651ea451c5c234bd6",
        "618907f1603a044d0372a1f027faedd0735311b6a442f5f73c0db31031869176",
        "2bba0590f73a00f457c0bcff2b6761d8656cd42c283a57462a8cbe6f53a4bda2",
    ],
    [
        "7e64dedd20a079df72e56a35b1df6bafbaa1164aac497ff78e3d0530589c5833",
        "f949853f9d307d4f6f537104291245f4f52c7e2fc22c6365dcbde8abe2717564",
        "cdf76bf655b791d6c8e4687e40763c7fda94288c1dbd9c6bb956df3a57cfdc13",
    ],
    [
        "7166d2dc3379aa2bde4c7787b8a28759932e6fdd318d52c72bf40eab08d881cb",
        "340bf4a1232a20a9fd8a13679b4e562bfb0ac15c12a309c20754fa5431175105",
        "1515b8df5d26553429f2d5d7c05180d7540cfab3f3844acc9de0e4cd5cbd1224",
    ],
    [
        "85473d072075f072bbe0c0a571697af899d0d1c941320983976fe4cd0b684520",
        "33cb07f159749358c0ea52478b81e19a245fe589e385548a482aae1b81ceab26",
        "f95c933f414d3e1483b9df16278efeb32eac6ad3b5fac0919fecb0ec7d83d37c",
    ],
];

#[test]
fn sub_plain_bytes_are_pinned_at_every_level() {
    let params = BgvParams::test_small();
    let (n, t) = (params.n, params.plaintext_modulus);
    let keys = KeySet::generate_with_relin_levels(&params, &[], &mut StdRng::seed_from_u64(5));
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
