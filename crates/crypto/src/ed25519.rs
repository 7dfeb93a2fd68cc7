//! Curve25519 field arithmetic and X25519 Diffie–Hellman (RFC 7748).
//!
//! Mycelium's `PEnc` (public-key encryption used during path setup) is
//! instantiated in the paper with RSA-PKCS1; this reproduction uses ECIES
//! over X25519 instead (see [`crate::penc`]), which fills the same protocol
//! role. Only the Montgomery ladder is needed — Feldman commitments in
//! `mycelium-sharing` use word-sized Schnorr groups whose order matches the
//! RNS primes.
//!
//! The field `GF(2^255 - 19)` is represented with five 51-bit limbs.

/// A field element of `GF(2^255 - 19)` in radix-2^51 representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldElement(pub(crate) [u64; 5]);

const MASK51: u64 = (1 << 51) - 1;

// Limb bounds. `from_bytes` gives limbs below 2^51, and every operation
// returns limbs below 2^52 - 38 (`add` / `sub` carry once, `mul` folds
// once), so the two bounds below hold without a full carry anywhere but
// `reduce_full`.

/// `mul`'s inputs: below this, no 128-bit column overflows.
const MUL_LIMB_BOUND: u64 = 1 << 60;
/// `sub`'s subtrahend: below this, no limb of the 2p bias underflows.
const SUB_LIMB_BOUND: u64 = (1 << 52) - 38;

impl FieldElement {
    /// The additive identity.
    pub const ZERO: Self = Self([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Self = Self([1, 0, 0, 0, 0]);

    /// Decodes 32 little-endian bytes (the top bit is ignored, per RFC 7748).
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        let load8 = |b: &[u8]| -> u64 {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_le_bytes(a)
        };
        let mut h = [0u64; 5];
        h[0] = load8(&bytes[0..8]) & MASK51;
        h[1] = (load8(&bytes[6..14]) >> 3) & MASK51;
        h[2] = (load8(&bytes[12..20]) >> 6) & MASK51;
        h[3] = (load8(&bytes[19..27]) >> 1) & MASK51;
        h[4] = (load8(&bytes[24..32]) >> 12) & MASK51;
        Self(h)
    }

    /// Encodes into 32 little-endian bytes with full reduction.
    pub fn to_bytes(self) -> [u8; 32] {
        let h = self.reduce_full().0;
        let mut out = [0u8; 32];
        // Pack 5 x 51-bit limbs into 255 bits.
        let mut write = |bitpos: usize, v: u64| {
            for i in 0..51 {
                let pos = bitpos + i;
                if pos >= 256 {
                    break;
                }
                out[pos / 8] |= (((v >> i) & 1) as u8) << (pos % 8);
            }
        };
        write(0, h[0]);
        write(51, h[1]);
        write(102, h[2]);
        write(153, h[3]);
        write(204, h[4]);
        out
    }

    /// Addition, carried once.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] + other.0[i])).carry_once()
    }

    /// Subtraction, carried once.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Self) -> Self {
        // Add 2p = [2^52 - 38, 2^52 - 2, ...] before subtracting so no limb
        // underflows: every operation's output limbs are below 2^52 - 38.
        debug_assert!(other.0.iter().all(|&l| l < SUB_LIMB_BOUND));
        let two_p = [
            (1u64 << 52) - 38,
            (1u64 << 52) - 2,
            (1u64 << 52) - 2,
            (1u64 << 52) - 2,
            (1u64 << 52) - 2,
        ];
        Self(std::array::from_fn(|i| self.0[i] + two_p[i] - other.0[i])).carry_once()
    }

    /// Multiplication modulo `2^255 - 19`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Self) -> Self {
        // Limbs below 2^60 keep every column below 77 · 2^120 < 2^127.
        debug_assert!(self.0.iter().chain(&other.0).all(|&l| l < MUL_LIMB_BOUND));
        let [a0, a1, a2, a3, a4] = self.0.map(|x| x as u128);
        let [b0, b1, b2, b3, b4] = other.0.map(|x| x as u128);
        let r0 = a0 * b0 + 19 * (a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1);
        let r1 = a0 * b1 + a1 * b0 + 19 * (a2 * b4 + a3 * b3 + a4 * b2);
        let r2 = a0 * b2 + a1 * b1 + a2 * b0 + 19 * (a3 * b4 + a4 * b3);
        let r3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + 19 * (a4 * b4);
        let r4 = a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0;
        Self::from_wide([r0, r1, r2, r3, r4])
    }

    /// Squaring.
    pub fn square(self) -> Self {
        self.mul(self)
    }

    /// `self^(2^n)`.
    fn square_n(self, n: u32) -> Self {
        (0..n).fold(self, |x, _| x.square())
    }

    /// Multiplication by a small constant.
    pub fn mul_small(self, k: u64) -> Self {
        Self::from_wide(self.0.map(|x| x as u128 * k as u128))
    }

    /// Multiplicative inverse via Fermat (`a^{p-2}`); returns zero for zero.
    pub fn invert(self) -> Self {
        // p - 2 = 2^255 - 21 by the standard addition chain: 254 squarings,
        // 11 multiplications. `z_k` is `self^(2^k - 1)`.
        let z2 = self.square();
        let z9 = z2.square_n(2).mul(self);
        let z11 = z9.mul(z2);
        let z_5 = z11.square().mul(z9);
        let z_10 = z_5.square_n(5).mul(z_5);
        let z_20 = z_10.square_n(10).mul(z_10);
        let z_40 = z_20.square_n(20).mul(z_20);
        let z_50 = z_40.square_n(10).mul(z_10);
        let z_100 = z_50.square_n(50).mul(z_50);
        let z_200 = z_100.square_n(100).mul(z_100);
        let z_250 = z_200.square_n(50).mul(z_50);
        // 2^255 - 32 + 11.
        z_250.square_n(5).mul(z11)
    }

    /// Exponentiation by a 256-bit little-endian exponent.
    pub fn pow(self, exp_le: &[u8; 32]) -> Self {
        let mut acc = Self::ONE;
        for byte in exp_le.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.square();
                if (byte >> bit) & 1 == 1 {
                    acc = acc.mul(self);
                }
            }
        }
        acc
    }

    /// Returns true if the fully-reduced value is zero.
    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Reduces 128-bit columns to limbs: one carry chain, the top carry
    /// folded into limb 0 (`2^255 = 19`), and limb 0's carry into limb 1.
    /// From columns below 2^127 the limbs end below 2^51 + 2^31.
    fn from_wide(r: [u128; 5]) -> Self {
        let mut out = [0u64; 5];
        let mut carry: u128 = 0;
        for i in 0..5 {
            let v = r[i] + carry;
            out[i] = v as u64 & MASK51;
            carry = v >> 51;
        }
        let v = out[0] as u128 + carry * 19;
        out[0] = v as u64 & MASK51;
        out[1] += (v >> 51) as u64;
        Self(out)
    }

    /// One carry from every limb into the next, the top one folded into
    /// limb 0: limbs below 2^64 end below 2^51 + 19 · 2^13.
    fn carry_once(self) -> Self {
        let h = self.0;
        let c = h.map(|l| l >> 51);
        Self([
            (h[0] & MASK51) + 19 * c[4],
            (h[1] & MASK51) + c[0],
            (h[2] & MASK51) + c[1],
            (h[3] & MASK51) + c[2],
            (h[4] & MASK51) + c[3],
        ])
    }

    /// The canonical representative: carried until every limb is below
    /// 2^51, then `p` subtracted if the value is still `p` or more.
    fn reduce_full(self) -> Self {
        let mut h = self.0;
        // Three passes leave every limb strictly below 2^51.
        for _ in 0..3 {
            let mut c = h[0] >> 51;
            h[0] &= MASK51;
            for limb in &mut h[1..] {
                *limb += c;
                c = *limb >> 51;
                *limb &= MASK51;
            }
            h[0] += c * 19;
        }
        // Conditionally subtract p = 2^255 - 19 (at most twice).
        for _ in 0..2 {
            let ge = h[0] >= (1u64 << 51) - 19
                && h[1] == MASK51
                && h[2] == MASK51
                && h[3] == MASK51
                && h[4] == MASK51;
            if ge {
                h[0] = h[0].wrapping_sub((1u64 << 51) - 19);
                h[1] = 0;
                h[2] = 0;
                h[3] = 0;
                h[4] = 0;
            }
        }
        Self(h)
    }
}

/// Size of X25519 keys and shared secrets.
pub const X25519_LEN: usize = 32;

/// Clamps a 32-byte scalar per RFC 7748.
pub fn clamp_scalar(mut s: [u8; 32]) -> [u8; 32] {
    s[0] &= 248;
    s[31] &= 127;
    s[31] |= 64;
    s
}

/// X25519 scalar multiplication: computes `scalar · point` on the
/// Montgomery curve (RFC 7748 §5).
pub fn x25519(scalar: &[u8; 32], u_point: &[u8; 32]) -> [u8; 32] {
    let k = clamp_scalar(*scalar);
    let x1 = FieldElement::from_bytes(u_point);
    let mut x2 = FieldElement::ONE;
    let mut z2 = FieldElement::ZERO;
    let mut x3 = x1;
    let mut z3 = FieldElement::ONE;
    let mut swap = 0u8;
    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        if swap == 1 {
            std::mem::swap(&mut x2, &mut x3);
            std::mem::swap(&mut z2, &mut z3);
        }
        swap = k_t;
        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)));
    }
    if swap == 1 {
        std::mem::swap(&mut x2, &mut x3);
        std::mem::swap(&mut z2, &mut z3);
    }
    x2.mul(z2.invert()).to_bytes()
}

/// The X25519 base point (`u = 9`).
pub fn basepoint() -> [u8; 32] {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
}

/// Derives the public key for a secret scalar.
pub fn x25519_public_key(secret: &[u8; 32]) -> [u8; 32] {
    x25519(secret, &basepoint())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_math::rng::{Rng, SeedableRng, StdRng};

    fn from_hex(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn field_mul_inverse() {
        let mut a = FieldElement::ONE;
        for i in 1..50u64 {
            a = a.add(FieldElement([i, 0, 0, 0, 0]));
            let inv = a.invert();
            let prod = a.mul(inv);
            assert_eq!(prod.to_bytes(), FieldElement::ONE.to_bytes(), "i={i}");
        }
    }

    #[test]
    fn invert_of_random_elements() {
        let mut rng = StdRng::seed_from_u64(25519);
        for _ in 0..200 {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes);
            let x = FieldElement::from_bytes(&bytes);
            assert_eq!(x.mul(x.invert()).to_bytes(), FieldElement::ONE.to_bytes());
        }
        assert!(FieldElement::ZERO.invert().is_zero());
    }

    /// The reference ladder: the same formulas over field arithmetic that
    /// runs a full three-pass carry after every operation and inverts by
    /// square-and-multiply over `p - 2`.
    mod frozen {
        use super::super::{clamp_scalar, FieldElement, MASK51};

        fn carry(mut h: [u64; 5]) -> [u64; 5] {
            for _ in 0..3 {
                let mut c = h[0] >> 51;
                h[0] &= MASK51;
                for limb in &mut h[1..] {
                    *limb += c;
                    c = *limb >> 51;
                    *limb &= MASK51;
                }
                h[0] += c * 19;
            }
            h
        }

        fn add(a: [u64; 5], b: [u64; 5]) -> [u64; 5] {
            carry(std::array::from_fn(|i| a[i] + b[i]))
        }

        fn sub(a: [u64; 5], b: [u64; 5]) -> [u64; 5] {
            let two_p = |i: usize| (1u64 << 52) - if i == 0 { 38 } else { 2 };
            carry(std::array::from_fn(|i| a[i] + two_p(i) - b[i]))
        }

        fn from_wide(mut r: [u128; 5]) -> [u64; 5] {
            let mut out = [0u64; 5];
            let mut carry_in: u128 = 0;
            for i in 0..5 {
                r[i] += carry_in;
                out[i] = (r[i] & MASK51 as u128) as u64;
                carry_in = r[i] >> 51;
            }
            let mut v = out[0] as u128 + carry_in * 19;
            out[0] = (v & MASK51 as u128) as u64;
            let mut c = (v >> 51) as u64;
            for limb in out.iter_mut().skip(1) {
                v = *limb as u128 + c as u128;
                *limb = (v & MASK51 as u128) as u64;
                c = (v >> 51) as u64;
            }
            out[0] += c * 19;
            carry(out)
        }

        fn mul(a: [u64; 5], b: [u64; 5]) -> [u64; 5] {
            let [a0, a1, a2, a3, a4] = a.map(|x| x as u128);
            let [b0, b1, b2, b3, b4] = b.map(|x| x as u128);
            from_wide([
                a0 * b0 + 19 * (a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1),
                a0 * b1 + a1 * b0 + 19 * (a2 * b4 + a3 * b3 + a4 * b2),
                a0 * b2 + a1 * b1 + a2 * b0 + 19 * (a3 * b4 + a4 * b3),
                a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + 19 * (a4 * b4),
                a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0,
            ])
        }

        fn invert(a: [u64; 5]) -> [u64; 5] {
            let mut exp = [0xffu8; 32];
            exp[0] = 0xeb;
            exp[31] = 0x7f;
            let mut acc = FieldElement::ONE.0;
            for byte in exp.iter().rev() {
                for bit in (0..8).rev() {
                    acc = mul(acc, acc);
                    if (byte >> bit) & 1 == 1 {
                        acc = mul(acc, a);
                    }
                }
            }
            acc
        }

        pub(super) fn x25519(scalar: &[u8; 32], u_point: &[u8; 32]) -> [u8; 32] {
            let k = clamp_scalar(*scalar);
            let x1 = FieldElement::from_bytes(u_point).0;
            let (mut x2, mut z2) = (FieldElement::ONE.0, FieldElement::ZERO.0);
            let (mut x3, mut z3) = (x1, FieldElement::ONE.0);
            let mut swap = 0u8;
            for t in (0..255).rev() {
                let k_t = (k[t / 8] >> (t % 8)) & 1;
                swap ^= k_t;
                if swap == 1 {
                    std::mem::swap(&mut x2, &mut x3);
                    std::mem::swap(&mut z2, &mut z3);
                }
                swap = k_t;
                let a = add(x2, z2);
                let aa = mul(a, a);
                let b = sub(x2, z2);
                let bb = mul(b, b);
                let e = sub(aa, bb);
                let c = add(x3, z3);
                let d = sub(x3, z3);
                let da = mul(d, a);
                let cb = mul(c, b);
                let sum = add(da, cb);
                x3 = mul(sum, sum);
                let diff = sub(da, cb);
                z3 = mul(x1, mul(diff, diff));
                x2 = mul(aa, bb);
                z2 = mul(e, add(aa, from_wide(e.map(|l| l as u128 * 121665))));
            }
            if swap == 1 {
                std::mem::swap(&mut x2, &mut x3);
                std::mem::swap(&mut z2, &mut z3);
            }
            FieldElement(mul(x2, invert(z2))).to_bytes()
        }
    }

    #[test]
    fn x25519_matches_the_frozen_ladder() {
        let mut rng = StdRng::seed_from_u64(7748);
        for i in 0..1000 {
            let (mut scalar, mut point) = ([0u8; 32], [0u8; 32]);
            rng.fill(&mut scalar);
            rng.fill(&mut point);
            assert_eq!(
                x25519(&scalar, &point),
                frozen::x25519(&scalar, &point),
                "pair {i}"
            );
        }
    }

    #[test]
    fn field_sub_add_roundtrip() {
        let a = FieldElement([123456789, 987654, 42, 7, 1]);
        let b = FieldElement([1, 2, 3, 4, 5]);
        assert_eq!(a.sub(b).add(b).to_bytes(), a.to_bytes());
        assert_eq!(a.sub(a).to_bytes(), FieldElement::ZERO.to_bytes());
    }

    #[test]
    fn bytes_roundtrip() {
        let a = FieldElement([MASK51 - 5, 12345, MASK51, 0, 999]);
        let b = FieldElement::from_bytes(&a.to_bytes());
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn rfc7748_vector_1() {
        let scalar = from_hex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let point = from_hex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let expect = from_hex("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        assert_eq!(x25519(&scalar, &point), expect);
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar = from_hex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let point = from_hex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let expect = from_hex("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
        assert_eq!(x25519(&scalar, &point), expect);
    }

    #[test]
    fn diffie_hellman_agreement() {
        // RFC 7748 §6.1 vectors.
        let alice_sk = from_hex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_sk = from_hex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pk = x25519_public_key(&alice_sk);
        let bob_pk = x25519_public_key(&bob_sk);
        assert_eq!(
            alice_pk,
            from_hex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        );
        assert_eq!(
            bob_pk,
            from_hex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        );
        let shared1 = x25519(&alice_sk, &bob_pk);
        let shared2 = x25519(&bob_sk, &alice_pk);
        assert_eq!(shared1, shared2);
        assert_eq!(
            shared1,
            from_hex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")
        );
    }

    #[test]
    fn clamping_is_idempotent() {
        let s = [0xFFu8; 32];
        let c = clamp_scalar(s);
        assert_eq!(clamp_scalar(c), c);
        assert_eq!(c[0] & 7, 0);
        assert_eq!(c[31] & 0x80, 0);
        assert_eq!(c[31] & 0x40, 0x40);
    }
}
