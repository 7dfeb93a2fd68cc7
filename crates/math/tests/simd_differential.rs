//! Differential property tests: every runtime-available SIMD kernel tier
//! against the scalar oracle, over the full degree × modulus-width grid
//! the BGV stack uses, including the all-`(q−1)` lazy-domain worst case
//! and non-multiple-of-lane-width tails.
//!
//! The scalar tier is itself pitted against the strict-Barrett reference
//! transforms, so the chain `vector tier == scalar Harvey == strict
//! Barrett` is closed here for every tier the host can execute.

use mycelium_math::ntt::NttTable;
use mycelium_math::rng::RngCore;
use mycelium_math::simd;
use mycelium_math::zq::{ntt_primes, Modulus};
use mycelium_math::{ew, SeedableRng, StdRng};

const DEGREES: [usize; 4] = [16, 256, 1024, 4096];
const BITS: [u32; 5] = [30, 40, 45, 50, 55];

fn rand_poly(rng: &mut StdRng, q: u64, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64() % q).collect()
}

#[test]
fn ntt_tiers_match_scalar_over_grid() {
    let mut rng = StdRng::seed_from_u64(0x51D1);
    for &n in &DEGREES {
        for &bits in &BITS {
            let q = Modulus::new_prime(ntt_primes(bits, n, 1)[0]).unwrap();
            let table = NttTable::new(q, n).unwrap();
            let qv = q.value();
            let mut cases = vec![rand_poly(&mut rng, qv, n), vec![qv - 1; n]];
            // A spike exercises the butterflies' zero paths.
            let mut spike = vec![0u64; n];
            spike[n - 1] = qv - 1;
            cases.push(spike);
            for a in &cases {
                let mut want_f = a.clone();
                table.forward_scalar(&mut want_f);
                let mut want_i = want_f.clone();
                table.inverse_scalar(&mut want_i);
                assert_eq!(want_i, *a, "scalar roundtrip n={n} bits={bits}");
                for k in simd::all_available() {
                    let mut got = a.clone();
                    table.forward_with(k, &mut got);
                    assert_eq!(got, want_f, "{} forward n={n} bits={bits}", k.name);
                    table.inverse_with(k, &mut got);
                    assert_eq!(got, *a, "{} roundtrip n={n} bits={bits}", k.name);
                }
            }
        }
    }
}

#[test]
fn scalar_tier_matches_strict_barrett_reference() {
    let mut rng = StdRng::seed_from_u64(0x0BA2);
    for &n in &DEGREES {
        for &bits in &BITS {
            let q = Modulus::new_prime(ntt_primes(bits, n, 1)[0]).unwrap();
            let table = NttTable::new(q, n).unwrap();
            let a = rand_poly(&mut rng, q.value(), n);
            let (mut lazy, mut strict) = (a.clone(), a.clone());
            table.forward_scalar(&mut lazy);
            table.forward_reference(&mut strict);
            assert_eq!(lazy, strict, "forward n={n} bits={bits}");
            table.inverse_scalar(&mut lazy);
            table.inverse_reference(&mut strict);
            assert_eq!(lazy, strict, "inverse n={n} bits={bits}");
        }
    }
}

#[test]
fn cache_blocked_transform_matches_at_large_degree() {
    // 16384 elements exceeds NTT_BLOCK (4096), so this degree actually
    // exercises the global-pass → per-region completion split on every
    // tier (the grid above stays within one block).
    let n = 16384;
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let q = Modulus::new_prime(ntt_primes(45, n, 1)[0]).unwrap();
    let table = NttTable::new(q, n).unwrap();
    for a in [rand_poly(&mut rng, q.value(), n), vec![q.value() - 1; n]] {
        let mut want = a.clone();
        table.forward_reference(&mut want);
        for k in simd::all_available() {
            let mut got = a.clone();
            table.forward_with(k, &mut got);
            assert_eq!(got, want, "{} blocked forward", k.name);
            table.inverse_with(k, &mut got);
            assert_eq!(got, a, "{} blocked roundtrip", k.name);
        }
    }
}

/// Every element-wise kernel of every tier against its scalar oracle, for
/// one modulus and one input set.
fn check_elementwise(q: &Modulus, a: &[u64], b: &[u64], acc0: &[u64], tag: &str) {
    let len = a.len();
    let qv = q.value();
    let bs: Vec<u64> = b.iter().map(|&w| q.shoup(w)).collect();
    let c: Vec<u64> = acc0.iter().rev().copied().collect();
    let cs: Vec<u64> = c.iter().map(|&w| q.shoup(w)).collect();
    // Signed operands inside the kernels' |x| < q precondition, hitting
    // both ends of it.
    let signed = |v: &[u64]| -> Vec<i64> {
        v.iter()
            .enumerate()
            .map(|(i, &x)| {
                let mag = (x % qv.min(1 << 62)) as i64;
                if i % 2 == 0 {
                    mag
                } else {
                    -mag
                }
            })
            .collect()
    };
    let (sd, sw) = (signed(a), signed(b));
    let twice: Vec<u64> = a.iter().zip(b).map(|(&x, &y)| x + y).collect(); // < 2q
    let (w, ws) = (b[0], bs[0]);

    for k in simd::all_available() {
        let name = k.name;
        macro_rules! same {
            ($what:literal, $want:expr, $got:expr) => {
                assert_eq!($got, $want, "{name} {} {tag}", $what);
            };
        }
        // In-place binary kernels: (oracle, tier entry).
        type Binary = fn(&Modulus, &mut [u64], &[u64]);
        let binary: [(&str, Binary, Binary); 3] = [
            ("add_assign", ew::add_assign_scalar, k.add_assign),
            ("sub_assign", ew::sub_assign_scalar, k.sub_assign),
            ("mul_assign", ew::mul_assign_scalar, k.mul_assign),
        ];
        for (what, oracle, tier) in binary {
            let (mut want, mut got) = (a.to_vec(), a.to_vec());
            oracle(q, &mut want, b);
            tier(q, &mut got, b);
            assert_eq!(got, want, "{name} {what} {tag}");
        }
        let (mut want, mut got) = (a.to_vec(), a.to_vec());
        ew::neg_assign_scalar(q, &mut want);
        (k.neg_assign)(q, &mut got);
        same!("neg_assign", want, got);

        let (mut want, mut got) = (vec![0; len], vec![0; len]);
        ew::lift_signed_scalar(q, &mut want, &sd);
        (k.lift_signed)(q, &mut got, &sd);
        same!("lift_signed", want, got);

        let (mut want, mut got) = (vec![0; len], vec![0; len]);
        ew::reduce_once_into_scalar(q, &mut want, &twice);
        (k.reduce_once_into)(q, &mut got, &twice);
        same!("reduce_once_into", want, got);

        let (mut want, mut got) = (vec![0; len], vec![0; len]);
        ew::mul_into_scalar(q, &mut want, a, b);
        (k.mul_into)(q, &mut got, a, b);
        same!("mul_into", want, got);

        let (mut want, mut got) = (acc0.to_vec(), acc0.to_vec());
        ew::mul_add_assign_scalar(q, &mut want, a, b);
        (k.mul_add_assign)(q, &mut got, a, b);
        same!("mul_add_assign", want, got);

        let (mut want, mut got) = (a.to_vec(), a.to_vec());
        ew::mul_shoup_assign_scalar(q, &mut want, b, &bs);
        (k.mul_shoup_assign)(q, &mut got, b, &bs);
        same!("mul_shoup_assign", want, got);

        let (mut want, mut got) = (vec![0; len], vec![0; len]);
        ew::mul_shoup_into_scalar(q, &mut want, a, b, &bs);
        (k.mul_shoup_into)(q, &mut got, a, b, &bs);
        same!("mul_shoup_into", want, got);

        let mut want = (acc0.to_vec(), c.clone());
        let mut got = want.clone();
        ew::mul_shoup_add2_scalar(q, &mut want.0, &mut want.1, a, (b, &bs), (&c, &cs));
        (k.mul_shoup_add2)(q, &mut got.0, &mut got.1, a, (b, &bs), (&c, &cs));
        same!("mul_shoup_add2", want, got);

        // The lazy accumulate promises congruence inside the bound, not
        // the scalar tier's representative: compare after the reduction
        // (acc < q plus one product < 2q is below q·2^2).
        let mut want = (acc0.to_vec(), c.clone());
        let mut got = want.clone();
        ew::mul_shoup_add_lazy2_scalar(q, &mut want.0, &mut want.1, a, (b, &bs), (&c, &cs));
        (k.mul_shoup_add_lazy2)(q, &mut got.0, &mut got.1, a, (b, &bs), (&c, &cs));
        for lazy in [&got.0, &got.1] {
            assert!(lazy.iter().all(|&x| x < 3 * qv), "{name} lazy bound {tag}");
        }
        for lazy in [&mut want.0, &mut want.1] {
            ew::reduce_lazy_pow2_scalar(qv, lazy, 2);
        }
        for lazy in [&mut got.0, &mut got.1] {
            (k.reduce_lazy_pow2)(qv, lazy, 2);
        }
        same!("mul_shoup_add_lazy2 + reduce_lazy_pow2", want, got);

        let (mut want, mut got) = (vec![0; len], vec![0; len]);
        ew::mul_shoup_scalar_into_scalar(q, &mut want, a, w, ws);
        (k.mul_shoup_scalar_into)(q, &mut got, a, w, ws);
        same!("mul_shoup_scalar_into", want, got);

        let (mut want, mut got) = (acc0.to_vec(), acc0.to_vec());
        ew::mul_shoup_scalar_add_assign_scalar(q, &mut want, a, w, ws);
        (k.mul_shoup_scalar_add_assign)(q, &mut got, a, w, ws);
        same!("mul_shoup_scalar_add_assign", want, got);

        let (mut want, mut got) = (acc0.to_vec(), acc0.to_vec());
        ew::rescale_step_scalar(q, &mut want, &sd, &sw, w, ws);
        (k.rescale_step)(q, &mut got, &sd, &sw, w, ws);
        same!("rescale_step", want, got);

        // scale_assign closes the inverse NTT on lazy [0, 2q) inputs.
        let (mut want, mut got) = (twice.clone(), twice.clone());
        ew::scale_assign_scalar(qv, &mut want, w, ws);
        (k.scale_assign)(qv, &mut got, w, ws);
        same!("scale_assign", want, got);

        // reduce_lazy_pow2 over its whole declared range [0, q·2^k).
        for kbits in 0..=4u32 {
            let wide: Vec<u64> = a
                .iter()
                .enumerate()
                .map(|(i, &x)| x + qv * (i as u64 % (1 << kbits)))
                .collect();
            let (mut want, mut got) = (wide.clone(), wide);
            ew::reduce_lazy_pow2_scalar(qv, &mut want, kbits);
            (k.reduce_lazy_pow2)(qv, &mut got, kbits);
            same!("reduce_lazy_pow2", want, got);
            assert!(want.iter().all(|&x| x < qv));
        }

        let (mut w0, mut w1, mut w2) = (vec![0; len], vec![0; len], vec![0; len]);
        ew::tensor3_scalar(q, (a, b), (b, a), (&mut w0, &mut w1, &mut w2));
        let (mut g0, mut g1, mut g2) = (vec![0; len], vec![0; len], vec![0; len]);
        (k.tensor3)(q, (a, b), (b, a), (&mut g0, &mut g1, &mut g2));
        same!("tensor3", (w0, w1, w2), (g0, g1, g2));
    }
}

#[test]
fn elementwise_tiers_match_scalar_with_tails() {
    let mut rng = StdRng::seed_from_u64(0xE1E3);
    // 50 bits is the last width the IFMA tier's 52-bit Shoup and
    // Montgomery kernels accept (4q ≤ 2^52); 55 exercises its fallback to
    // the 64-bit tier. Lengths straddle every lane width (2, 4, 8) with
    // ragged tails.
    for &bits in &[30u32, 40, 45, 50, 55] {
        let q = Modulus::new_prime(ntt_primes(bits, 16, 1)[0]).unwrap();
        let qv = q.value();
        for &len in &[1usize, 3, 7, 9, 30, 33, 255, 1021] {
            let mut a = rand_poly(&mut rng, qv, len);
            let mut b = rand_poly(&mut rng, qv, len);
            a[0] = qv - 1;
            b[len - 1] = qv - 1;
            let acc0 = rand_poly(&mut rng, qv, len);
            check_elementwise(&q, &a, &b, &acc0, &format!("len={len} bits={bits}"));
        }
        // Worst cases: every operand q−1 (the lazy-domain ceilings), and
        // every operand zero.
        for fill in [qv - 1, 0] {
            let v = vec![fill; 37];
            check_elementwise(&q, &v, &v, &v, &format!("fill={fill} bits={bits}"));
        }
    }
}

#[test]
fn lazy_accumulation_budget_worst_case() {
    // The key-switch batch path accumulates l lazy products per row onto a
    // canonical value; with 55-bit primes the budget gate allows l digits
    // while (2l+1)·q < 2^64. Drive the worst case — every operand q−1 —
    // through every tier and reconcile against canonical accumulation. The
    // 50-bit run does the same on the IFMA tier's own 52-bit kernel.
    for bits in [50u32, 55] {
        let q = Modulus::new_prime(ntt_primes(bits, 16, 1)[0]).unwrap();
        let qv = q.value();
        let l = (((u64::MAX / qv).saturating_sub(1) / 2) as usize).min(64); // max sound l
        assert!(l >= 1);
        let len = 13usize;
        let a = vec![qv - 1; len];
        let bs: Vec<u64> = a.iter().map(|&w| q.shoup(w)).collect();
        for k in simd::all_available() {
            let mut lazy = (a.clone(), a.clone());
            let mut canon = a.clone();
            for _ in 0..l {
                (k.mul_shoup_add_lazy2)(&q, &mut lazy.0, &mut lazy.1, &a, (&a, &bs), (&a, &bs));
                ew::mul_add_assign_scalar(&q, &mut canon, &a, &a);
            }
            let kbits = (2 * l as u64 + 1).next_power_of_two().trailing_zeros();
            (k.reduce_lazy_pow2)(qv, &mut lazy.0, kbits);
            ew::reduce_lazy_pow2(&q, &mut lazy.1, kbits);
            assert_eq!(lazy.0, canon, "{} lazy accumulation l={l}", k.name);
            assert_eq!(lazy.1, canon, "{} lazy accumulation l={l}", k.name);
        }
    }
}

/// The packed layout, stated independently of every kernel: bit `b` of
/// residue `i` is bit `i·w + b` of the row read as one little-endian number.
fn pack_by_the_bit(w: usize, src: &[u64]) -> Vec<u8> {
    let mut out = vec![0u8; (src.len() * w).div_ceil(8)];
    for (i, &x) in src.iter().enumerate() {
        for b in (0..w).filter(|&b| x >> b & 1 == 1) {
            out[(i * w + b) / 8] |= 1 << ((i * w + b) % 8);
        }
    }
    out
}

#[test]
fn pack_tiers_match_the_bit_layout_and_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x9AC4);
    // 20 and 30 bits take the vector tiers' narrow-width fallback, 61 is
    // the widest prime the workspace generates.
    for &bits in &[20u32, 30, 32, 33, 40, 45, 50, 55, 61] {
        let q = Modulus::new_prime(ntt_primes(bits, 16, 1)[0]).unwrap();
        let (qv, w) = (q.value(), bits as usize);
        // One group, the last that fits no whole vector access, rows with
        // a scalar tail behind the vector groups, and a ring-sized row.
        for &lanes in &[0usize, 8, 16, 24, 72, 1024] {
            let mut cases = vec![rand_poly(&mut rng, qv, lanes), vec![qv - 1; lanes]];
            // 0 and q − 1 in every lane position of a pack group, against
            // the other in the rest.
            for at in 0..8.min(lanes) {
                for (fill, odd) in [(0, qv - 1), (qv - 1, 0)] {
                    let mut row = vec![fill; lanes];
                    row.iter_mut().skip(at).step_by(8).for_each(|x| *x = odd);
                    cases.push(row);
                }
            }
            for src in &cases {
                let want = pack_by_the_bit(w, src);
                assert_eq!(want.len(), ew::packed_len(bits, lanes));
                for k in simd::all_available() {
                    let tag = format!("{} bits={bits} lanes={lanes}", k.name);
                    let mut bytes = vec![0xa5u8; want.len()];
                    (k.pack)(&q, &mut bytes, src);
                    assert_eq!(bytes, want, "pack {tag}");
                    let mut back = vec![u64::MAX; lanes];
                    assert!((k.unpack)(&q, &mut back, &want), "unpack {tag}");
                    assert_eq!(back, *src, "unpack {tag}");
                }
            }
            // A residue at q, and one with every bit of the width set, in
            // each lane position of the first and the last group: every
            // tier says so, and agrees with scalar on what it read.
            for at in (0..8.min(lanes)).chain(lanes.saturating_sub(8)..lanes) {
                for bad in [qv, (1u64 << w) - 1] {
                    let mut src = rand_poly(&mut rng, qv, lanes);
                    src[at] = bad;
                    let bytes = pack_by_the_bit(w, &src);
                    for k in simd::all_available() {
                        let mut back = vec![0u64; lanes];
                        let ok = (k.unpack)(&q, &mut back, &bytes);
                        assert!(!ok, "{} bits={bits} lanes={lanes} at={at}", k.name);
                        assert_eq!(back, src, "{} reads what was written", k.name);
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "packed row length")]
fn pack_refuses_a_row_of_the_wrong_length() {
    let q = Modulus::new_prime(ntt_primes(40, 16, 1)[0]).unwrap();
    ew::pack(&q, &mut [0u8; 79], &[0u64; 16]);
}

#[test]
#[should_panic(expected = "packed row length")]
fn unpack_refuses_a_row_of_the_wrong_length() {
    let q = Modulus::new_prime(ntt_primes(40, 16, 1)[0]).unwrap();
    let _ = ew::unpack(&q, &mut [0u64; 16], &[0u8; 81]);
}
