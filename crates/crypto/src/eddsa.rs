//! Ed25519 signatures (RFC 8032), built on the [`crate::ed25519`] field
//! and [`crate::sha512`].
//!
//! Round certificates carry committee signatures over the
//! threshold-decryption transcript; the offline verifier checks them with
//! nothing but this module. Signing is fully deterministic (the nonce is
//! `SHA-512(prefix ‖ message)` per the RFC), which is what lets two
//! independent executors emit byte-identical certificates.
//!
//! The twisted Edwards curve `-x^2 + y^2 = 1 + d·x^2·y^2` is handled in
//! extended coordinates `(X : Y : Z : T)` with `T = XY/Z`; all curve
//! constants (`d`, `sqrt(-1)`, the basepoint) are derived at first use
//! from their defining equations and pinned by the RFC test vectors.

use std::sync::OnceLock;

use crate::ed25519::{clamp_scalar, FieldElement};
use crate::sha512::sha512_concat;

/// `(p + 3) / 8 = 2^252 - 2`, the exponent of the square-root candidate.
const SQRT_EXP: [u8; 32] = {
    let mut e = [0xffu8; 32];
    e[0] = 0xfe;
    e[31] = 0x0f;
    e
};

/// `(p - 1) / 4 = 2^253 - 5`, the exponent giving `sqrt(-1)` from 2.
const SQRT_M1_EXP: [u8; 32] = {
    let mut e = [0xffu8; 32];
    e[0] = 0xfb;
    e[31] = 0x1f;
    e
};

/// The group order `L = 2^252 + 27742317777372353535851937790883648493`
/// as little-endian limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0,
    0x1000000000000000,
];

fn fe(k: u64) -> FieldElement {
    FieldElement::ONE.mul_small(k)
}

fn fe_eq(a: FieldElement, b: FieldElement) -> bool {
    a.to_bytes() == b.to_bytes()
}

fn fe_neg(a: FieldElement) -> FieldElement {
    FieldElement::ZERO.sub(a)
}

/// A curve point in extended coordinates.
#[derive(Clone, Copy)]
struct Point {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

struct Consts {
    d: FieldElement,
    d2: FieldElement,
    sqrt_m1: FieldElement,
    base: Point,
}

fn consts() -> &'static Consts {
    static C: OnceLock<Consts> = OnceLock::new();
    C.get_or_init(|| {
        let d = fe_neg(fe(121665)).mul(fe(121666).invert());
        let sqrt_m1 = fe(2).pow(&SQRT_M1_EXP);
        // Basepoint: y = 4/5, with the even (sign-bit 0) x coordinate.
        let by = fe(4).mul(fe(5).invert());
        let base = decompress_with(by.to_bytes(), d, sqrt_m1).expect("basepoint decompresses");
        Consts {
            d,
            d2: d.add(d),
            sqrt_m1,
            base,
        }
    })
}

impl Point {
    const fn identity() -> Self {
        Self {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// Unified extended-coordinate addition (a = -1, from the EFD).
    fn add(self, other: Self) -> Self {
        let c = consts();
        let a = self.y.sub(self.x).mul(other.y.sub(other.x));
        let b = self.y.add(self.x).mul(other.y.add(other.x));
        let cc = self.t.mul(c.d2).mul(other.t);
        let dd = self.z.add(self.z).mul(other.z);
        let e = b.sub(a);
        let f = dd.sub(cc);
        let g = dd.add(cc);
        let h = b.add(a);
        Self {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    fn double(self) -> Self {
        let a = self.x.square();
        let b = self.y.square();
        let cc = self.z.square().mul_small(2);
        let h = a.add(b);
        let e = h.sub(self.x.add(self.y).square());
        let g = a.sub(b);
        let f = cc.add(g);
        Self {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Scalar multiplication by a 256-bit little-endian scalar.
    fn scalar_mul(self, scalar: &[u8; 32]) -> Self {
        let mut acc = Self::identity();
        for byte in scalar.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.double();
                if (byte >> bit) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }

    /// Canonical compressed encoding: `y` with the sign of `x` in bit 255.
    fn compress(self) -> [u8; 32] {
        let zi = self.z.invert();
        let x = self.x.mul(zi);
        let y = self.y.mul(zi);
        let mut out = y.to_bytes();
        out[31] |= (x.to_bytes()[0] & 1) << 7;
        out
    }
}

/// Decompresses `bytes` into a point, or `None` if it is not on the curve.
fn decompress(bytes: &[u8; 32], c: &Consts) -> Option<Point> {
    decompress_with(*bytes, c.d, c.sqrt_m1)
}

fn decompress_with(bytes: [u8; 32], d: FieldElement, sqrt_m1: FieldElement) -> Option<Point> {
    let sign = bytes[31] >> 7;
    let y = FieldElement::from_bytes(&bytes); // Top bit ignored by from_bytes.
                                              // x^2 = (y^2 - 1) / (d·y^2 + 1).
    let y2 = y.square();
    let u = y2.sub(FieldElement::ONE);
    let v = d.mul(y2).add(FieldElement::ONE);
    let w = u.mul(v.invert());
    let mut x = w.pow(&SQRT_EXP);
    if !fe_eq(x.square(), w) {
        x = x.mul(sqrt_m1);
    }
    if !fe_eq(x.square(), w) {
        return None;
    }
    if x.is_zero() && sign == 1 {
        return None;
    }
    if x.to_bytes()[0] & 1 != sign {
        x = fe_neg(x);
    }
    Some(Point {
        x,
        y,
        z: FieldElement::ONE,
        t: x.mul(y),
    })
}

/// `a < b` over 4 little-endian limbs.
fn limbs_lt(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

fn limbs_sub(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    out
}

/// Reduces a little-endian limb string modulo `L` by bitwise long division.
fn mod_l(limbs: &[u64]) -> [u64; 4] {
    let mut r = [0u64; 4];
    for i in (0..limbs.len() * 64).rev() {
        // r = (r << 1) | bit; r stays below 2L < 2^254 so the shift is safe.
        let mut carry = (limbs[i / 64] >> (i % 64)) & 1;
        for limb in &mut r {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
        if !limbs_lt(&r, &L) {
            r = limbs_sub(&r, &L);
        }
    }
    r
}

fn limbs_from_le(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(b)
        })
        .collect()
}

fn limbs_to_bytes(l: &[u64; 4]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, limb) in out.chunks_exact_mut(8).zip(l) {
        chunk.copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// `(a·b + c) mod L` over 256-bit little-endian operands.
fn mul_add_mod_l(a: &[u64; 4], b: &[u64; 4], c: &[u64; 4]) -> [u64; 4] {
    let mut wide = [0u64; 9];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = wide[i + j] as u128 + x as u128 * y as u128 + carry;
            wide[i + j] = t as u64;
            carry = t >> 64;
        }
        wide[i + 4] = carry as u64;
    }
    let mut carry = 0u128;
    for (i, &x) in c.iter().enumerate() {
        let t = wide[i] as u128 + x as u128 + carry;
        wide[i] = t as u64;
        carry = t >> 64;
    }
    for limb in wide.iter_mut().skip(4) {
        if carry == 0 {
            break;
        }
        let t = *limb as u128 + carry;
        *limb = t as u64;
        carry = t >> 64;
    }
    mod_l(&wide)
}

/// Hashes `parts` with SHA-512 and reduces the digest modulo `L`.
fn hash_to_scalar(parts: &[&[u8]]) -> [u64; 4] {
    mod_l(&limbs_from_le(&sha512_concat(parts)))
}

/// Derives the public key for a 32-byte secret seed.
pub fn public_key(secret: &[u8; 32]) -> [u8; 32] {
    let h = sha512_concat(&[secret]);
    let a = clamp_scalar(h[..32].try_into().expect("32 bytes"));
    consts().base.scalar_mul(&a).compress()
}

/// Signs `msg` with the 32-byte secret seed (deterministic, RFC 8032).
pub fn sign(secret: &[u8; 32], msg: &[u8]) -> [u8; 64] {
    let c = consts();
    let h = sha512_concat(&[secret]);
    let a_bytes = clamp_scalar(h[..32].try_into().expect("32 bytes"));
    let prefix = &h[32..];
    let pubkey = c.base.scalar_mul(&a_bytes).compress();
    let r = hash_to_scalar(&[prefix, msg]);
    let r_enc = c.base.scalar_mul(&limbs_to_bytes(&r)).compress();
    let k = hash_to_scalar(&[&r_enc, &pubkey, msg]);
    let a: [u64; 4] = limbs_from_le(&a_bytes).try_into().expect("4 limbs");
    let s = mul_add_mod_l(&k, &a, &r);
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(&r_enc);
    sig[32..].copy_from_slice(&limbs_to_bytes(&s));
    sig
}

/// Verifies a signature; rejects malleable (`S >= L`) encodings.
pub fn verify(pubkey: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
    let c = consts();
    let Some(a) = decompress(pubkey, c) else {
        return false;
    };
    let r_bytes: [u8; 32] = sig[..32].try_into().expect("32 bytes");
    let Some(r) = decompress(&r_bytes, c) else {
        return false;
    };
    let s_limbs: [u64; 4] = limbs_from_le(&sig[32..]).try_into().expect("4 limbs");
    if !limbs_lt(&s_limbs, &L) {
        return false;
    }
    let k = hash_to_scalar(&[&r_bytes, pubkey, msg]);
    // Check [S]B == R + [k]A (compressed-encoding comparison).
    let lhs = c.base.scalar_mul(&limbs_to_bytes(&s_limbs)).compress();
    let rhs = r.add(a.scalar_mul(&limbs_to_bytes(&k))).compress();
    lhs == rhs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn unhex32(s: &str) -> [u8; 32] {
        unhex(s).try_into().unwrap()
    }

    #[test]
    fn rfc8032_test1_public_key() {
        let secret = unhex32("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
        let expect = unhex32("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
        assert_eq!(public_key(&secret), expect);
    }

    #[test]
    fn rfc8032_test3_signature() {
        let secret = unhex32("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
        let pubkey = unhex32("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
        assert_eq!(public_key(&secret), pubkey);
        let msg = unhex("af82");
        let sig = sign(&secret, &msg);
        assert!(verify(&pubkey, &msg, &sig));
        let expect = unhex(
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        );
        assert_eq!(sig.to_vec(), expect);
    }

    #[test]
    fn roundtrip_and_rejects_tampering() {
        let secret = [7u8; 32];
        let pubkey = public_key(&secret);
        let msg = b"mycelium round transcript";
        let sig = sign(&secret, msg);
        assert!(verify(&pubkey, msg, &sig));
        assert!(!verify(&pubkey, b"mycelium round transcripT", &sig));
        for i in [0usize, 17, 31, 32, 45, 63] {
            let mut bad = sig;
            bad[i] ^= 1;
            assert!(!verify(&pubkey, msg, &bad), "flipped byte {i} accepted");
        }
        let mut badkey = pubkey;
        badkey[3] ^= 0x40;
        assert!(!verify(&badkey, msg, &sig));
    }

    #[test]
    fn signatures_are_deterministic_and_distinct() {
        let s1 = sign(&[1u8; 32], b"m");
        assert_eq!(s1, sign(&[1u8; 32], b"m"));
        assert_ne!(s1, sign(&[2u8; 32], b"m"));
        assert_ne!(s1, sign(&[1u8; 32], b"n"));
    }

    #[test]
    fn malleable_s_is_rejected() {
        let secret = [9u8; 32];
        let pubkey = public_key(&secret);
        let sig = sign(&secret, b"x");
        // S' = S + L verifies in the group but must be rejected by encoding.
        let s: [u64; 4] = limbs_from_le(&sig[32..]).try_into().unwrap();
        let mut wide = [0u64; 4];
        let mut carry = 0u128;
        for i in 0..4 {
            let t = s[i] as u128 + L[i] as u128 + carry;
            wide[i] = t as u64;
            carry = t >> 64;
        }
        assert_eq!(carry, 0, "S + L still fits 256 bits for this vector");
        let mut forged = sig;
        forged[32..].copy_from_slice(&limbs_to_bytes(&wide));
        assert!(!verify(&pubkey, b"x", &forged));
    }
}
