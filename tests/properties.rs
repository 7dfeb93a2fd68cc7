//! Property-based tests on the core invariants.
//!
//! Formerly backed by `proptest`; now a dependency-free harness that draws
//! many random cases from the in-tree seeded [`StdRng`]. Each failure
//! message includes the case seed, so a counterexample reproduces exactly.

use mycelium_bgv::encoding::encode_monomial;
use mycelium_bgv::{BgvParams, Ciphertext, KeySet, Plaintext};
use mycelium_crypto::merkle::MerkleTree;
use mycelium_crypto::{aead, sha256::sha256};
use mycelium_math::ntt::{evaluate_naive, negacyclic_mul_naive, NttTable};
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_math::rns::RnsContext;
use mycelium_math::zq::{ntt_primes, Modulus};
use mycelium_sharing::shamir::{reconstruct, share};

/// Runs `f` on `cases` independent seeded RNGs derived from a fixed master
/// seed. `f` panics (with the case seed in scope) on a violated property.
fn for_cases(cases: u64, f: impl Fn(u64, &mut StdRng)) {
    for case in 0..cases {
        let seed = 0x9E37_79B9 ^ (case.wrapping_mul(0x517C_C1B7_2722_0A95));
        let mut rng = StdRng::seed_from_u64(seed);
        f(seed, &mut rng);
    }
}

#[test]
fn ntt_multiply_matches_schoolbook() {
    let n = 64usize;
    let q = Modulus::new_prime(ntt_primes(30, n, 1)[0]).unwrap();
    let table = NttTable::new(q, n).unwrap();
    for_cases(32, |seed, rng| {
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        assert_eq!(
            table.multiply(&a, &b),
            negacyclic_mul_naive(&q, &a, &b),
            "seed {seed}"
        );
    });
}

#[test]
fn lazy_ntt_matches_strict_barrett_reference() {
    // The Harvey lazy-reduction kernels must compute the transform's
    // definition — the input evaluated at each slot's root — for every
    // degree and modulus bit-width the parameter sets use, including the
    // worst-case input of all coefficients at q-1, which maximizes the lazy
    // ranges; the inverse must undo the forward transform and be undone by
    // it.
    for n in [16usize, 256, 1024, 4096] {
        for bits in [30u32, 40, 45, 55] {
            let q = Modulus::new_prime(ntt_primes(bits, n, 1)[0]).unwrap();
            let table = NttTable::new(q, n).unwrap();

            let check = |input: &[u64], seed: u64| {
                let mut fwd = input.to_vec();
                table.forward(&mut fwd);
                let want = evaluate_naive(&table, input, 0..n);
                assert_eq!(fwd, want, "forward n={n} bits={bits} seed {seed}");
                let mut inv = input.to_vec();
                table.inverse(&mut inv);
                let mut back = inv.clone();
                table.forward(&mut back);
                assert_eq!(back, input, "inverse n={n} bits={bits} seed {seed}");
                table.inverse(&mut fwd);
                assert_eq!(fwd, input, "roundtrip n={n} bits={bits} seed {seed}");
            };

            check(&vec![q.value() - 1; n], u64::MAX);
            for_cases(4, |seed, rng| {
                let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
                check(&a, seed);
            });
        }
    }
}

#[test]
fn crt_roundtrip_preserves_signed_coefficients() {
    let ctx = RnsContext::with_primes(16, 30, 3).unwrap();
    for_cases(32, |seed, rng| {
        let t = 1u64 << rng.gen_range(4u32..20);
        let coeffs: Vec<i64> = (0..16)
            .map(|_| rng.gen_range(-(t as i64) / 2..(t as i64) / 2))
            .collect();
        let p = mycelium_math::rns::RnsPoly::from_signed(ctx.clone(), 3, &coeffs);
        let back = p.crt_centered_mod(t);
        for (c, b) in coeffs.iter().zip(back) {
            assert_eq!(c.rem_euclid(t as i64) as u64, b, "seed {seed}");
        }
    });
}

#[test]
fn shamir_any_quorum_reconstructs() {
    let q = Modulus::new_prime(2_147_483_647).unwrap();
    for_cases(32, |seed, rng| {
        let secret = rng.gen::<u64>();
        let t = rng.gen_range(1usize..4);
        let extra = rng.gen_range(0usize..3);
        let n = t + 1 + extra + 2;
        let shares = share(secret, t, n, q, rng);
        let quorum = &shares[extra..extra + t + 1];
        assert_eq!(
            reconstruct(quorum, q),
            Some(q.reduce(secret)),
            "seed {seed}"
        );
    });
}

#[test]
fn merkle_inclusion_sound() {
    for_cases(32, |seed, rng| {
        let count = rng.gen_range(1usize..40);
        let leaves: Vec<Vec<u8>> = (0..count).map(|i| format!("L{i}").into_bytes()).collect();
        let tree = MerkleTree::build(&leaves);
        let idx = rng.gen_range(0..count);
        let proof = tree.prove(idx).unwrap();
        assert!(proof.verify(&tree.root(), idx, &leaves[idx]), "seed {seed}");
        // Wrong leaf data never verifies.
        assert!(
            !proof.verify(&tree.root(), idx, b"not-a-leaf"),
            "seed {seed}"
        );
    });
}

#[test]
fn aead_roundtrip_and_tamper() {
    for_cases(32, |seed, rng| {
        let key = sha256(&rng.gen::<u64>().to_le_bytes());
        let round = rng.gen::<u64>();
        let mut msg = vec![0u8; rng.gen_range(0usize..200)];
        rng.fill(&mut msg);
        let sealed = aead::seal(&key, round, &msg);
        assert_eq!(
            aead::open(&key, round, &sealed).unwrap(),
            msg,
            "seed {seed}"
        );
        if !sealed.is_empty() {
            let mut bad = sealed.clone();
            bad[0] ^= 1;
            assert!(aead::open(&key, round, &bad).is_err(), "seed {seed}");
        }
    });
}

#[test]
fn parser_never_panics() {
    // Arbitrary printable garbage must produce Ok or Err, never a panic.
    for_cases(64, |_seed, rng| {
        let len = rng.gen_range(0usize..80);
        let input: String = (0..len)
            .map(|_| rng.gen_range(b' '..=b'~') as char)
            .collect();
        let _ = mycelium_query::parser::parse("fuzz", &input);
    });
}

// BGV properties are expensive; run them with a handful of cases and a
// shared key set.

#[test]
fn bgv_homomorphism() {
    let params = BgvParams::test_small();
    let mut key_rng = StdRng::seed_from_u64(0xB64);
    let keys = KeySet::generate_deferred(&params, &mut key_rng);
    let t = params.plaintext_modulus;
    for_cases(8, |seed, rng| {
        let a = rng.gen_range(0usize..500);
        let b = rng.gen_range(0usize..500);
        let ca = Ciphertext::encrypt(&keys.public, &encode_monomial(a, params.n, t).unwrap(), rng)
            .unwrap();
        let cb = Ciphertext::encrypt(&keys.public, &encode_monomial(b, params.n, t).unwrap(), rng)
            .unwrap();
        // Multiplication adds exponents.
        let prod = ca.mul(&cb).unwrap().relinearize(&keys.relin).unwrap();
        let pt = prod.decrypt(&keys.secret);
        assert_eq!(pt.coeffs()[a + b], 1, "seed {seed}");
        assert_eq!(pt.coeffs().iter().sum::<u64>(), 1, "seed {seed}");
        // Addition accumulates histogram bins.
        let sum = ca.add(&cb).unwrap().decrypt(&keys.secret);
        if a == b {
            assert_eq!(sum.coeffs()[a], 2, "seed {seed}");
        } else {
            assert_eq!(sum.coeffs()[a], 1, "seed {seed}");
            assert_eq!(sum.coeffs()[b], 1, "seed {seed}");
        }
    });
}

#[test]
fn bgv_random_plaintext_roundtrip() {
    let params = BgvParams::test_small();
    for_cases(8, |seed, rng| {
        let keys = KeySet::generate_deferred(&params, rng);
        let coeffs: Vec<u64> = (0..params.n)
            .map(|_| rng.gen_range(0..params.plaintext_modulus))
            .collect();
        let pt = Plaintext::new(coeffs.clone(), params.plaintext_modulus).unwrap();
        let ct = Ciphertext::encrypt(&keys.public, &pt, rng).unwrap();
        let decrypted = ct.decrypt(&keys.secret);
        assert_eq!(decrypted.coeffs(), coeffs.as_slice(), "seed {seed}");
    });
}
