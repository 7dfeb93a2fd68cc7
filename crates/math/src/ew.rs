//! Shared element-wise residue kernels.
//!
//! Every [`crate::rns::RnsPoly`] operation — and the fused BGV ciphertext
//! paths built on top of them — reduces to one of these loops over a single
//! residue slice modulo one chain prime. Centralizing them keeps the
//! modular arithmetic in exactly one place and gives the parallel plane a
//! uniform unit of work: "one kernel over one residue".
//!
//! # Dispatch
//!
//! Every kernel is split in two: a `*_scalar` body (the bit-exact oracle,
//! also the tail/fallback used by the vector tiers) and a thin public
//! front that routes through the process-wide [`crate::simd::Kernels`]
//! vtable selected once at startup. That includes the additive and lifting
//! kernels: the baseline `x86_64` target has no 64-bit unsigned compare,
//! so left to the compiler they stay scalar loops five to eight times
//! slower than one vector add + min. Every vector tier produces canonical
//! outputs bit-identical to the scalar oracle (see `crate::simd` for the
//! per-kernel argument), so the choice of tier is invisible to everything
//! above this module.

use crate::simd;
use crate::zq::Modulus;

/// A Shoup-precomputed operand row: the values and their
/// `floor(w·2^64/q)` constants.
pub type ShoupRow<'a> = (&'a [u64], &'a [u64]);

/// `a[i] = (a[i] + b[i]) mod q`.
#[inline]
pub fn add_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
    (simd::kernels().add_assign)(m, a, b)
}

/// Scalar oracle for [`add_assign`].
#[inline]
pub fn add_assign_scalar(m: &Modulus, a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.add(*x, y);
    }
}

/// `a[i] = (a[i] - b[i]) mod q`.
#[inline]
pub fn sub_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
    (simd::kernels().sub_assign)(m, a, b)
}

/// Scalar oracle for [`sub_assign`].
#[inline]
pub fn sub_assign_scalar(m: &Modulus, a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.sub(*x, y);
    }
}

/// `a[i] = -a[i] mod q`.
#[inline]
pub fn neg_assign(m: &Modulus, a: &mut [u64]) {
    (simd::kernels().neg_assign)(m, a)
}

/// Scalar oracle for [`neg_assign`].
#[inline]
pub fn neg_assign_scalar(m: &Modulus, a: &mut [u64]) {
    for x in a.iter_mut() {
        *x = m.neg(*x);
    }
}

/// `out[i] = src[i] mod q` for signed values with `|src[i]| ≤ bound` — the
/// coefficient-domain lift of secrets, noise and mod-switch corrections.
/// When `bound < q` (always, for the small values this stack lifts) that is
/// one conditional add per element on the active tier; otherwise it is the
/// full Euclidean reduction.
#[inline]
pub fn lift_signed(m: &Modulus, out: &mut [u64], src: &[i64], bound: u64) {
    debug_assert!(src.iter().all(|c| c.unsigned_abs() <= bound));
    if bound < m.value() {
        (simd::kernels().lift_signed)(m, out, src)
    } else {
        debug_assert_eq!(out.len(), src.len());
        for (o, &c) in out.iter_mut().zip(src) {
            *o = m.from_signed(c);
        }
    }
}

/// Scalar oracle for the small-value case of [`lift_signed`]
/// (`|src[i]| < q`).
#[inline]
pub fn lift_signed_scalar(m: &Modulus, out: &mut [u64], src: &[i64]) {
    debug_assert_eq!(out.len(), src.len());
    let q = m.value();
    for (o, &c) in out.iter_mut().zip(src) {
        debug_assert!(c.unsigned_abs() < q);
        // Two's complement: a negative c plus q wraps into [0, q).
        let x = c as u64;
        *o = x.min(x.wrapping_add(q));
    }
}

/// `out[i] = src[i] mod q` for `src[i] < 2q` — the lift of a gadget digit
/// from one chain prime to another of the same bit width.
#[inline]
pub fn reduce_once_into(m: &Modulus, out: &mut [u64], src: &[u64]) {
    (simd::kernels().reduce_once_into)(m, out, src)
}

/// Scalar oracle for [`reduce_once_into`].
#[inline]
pub fn reduce_once_into_scalar(m: &Modulus, out: &mut [u64], src: &[u64]) {
    debug_assert_eq!(out.len(), src.len());
    let q = m.value();
    for (o, &x) in out.iter_mut().zip(src) {
        debug_assert!(x < 2 * q);
        *o = x.min(x.wrapping_sub(q));
    }
}

/// `a[i] = (a[i] * b[i]) mod q` (pointwise; the NTT-domain ring product).
#[inline]
pub fn mul_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
    (simd::kernels().mul_assign)(m, a, b)
}

/// Scalar oracle for [`mul_assign`].
#[inline]
pub fn mul_assign_scalar(m: &Modulus, a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.mul(*x, y);
    }
}

/// `out[i] = (a[i] * b[i]) mod q` into a separate output slice.
#[inline]
pub fn mul_into(m: &Modulus, out: &mut [u64], a: &[u64], b: &[u64]) {
    (simd::kernels().mul_into)(m, out, a, b)
}

/// Scalar oracle for [`mul_into`].
#[inline]
pub fn mul_into_scalar(m: &Modulus, out: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(a.len(), b.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = m.mul(x, y);
    }
}

/// `acc[i] = (acc[i] + a[i] * b[i]) mod q` — the fused kernel behind
/// relinearization and the BGV tensor product's middle term.
#[inline]
pub fn mul_add_assign(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    (simd::kernels().mul_add_assign)(m, acc, a, b)
}

/// Scalar oracle for [`mul_add_assign`].
#[inline]
pub fn mul_add_assign_scalar(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(acc.len(), a.len());
    debug_assert_eq!(a.len(), b.len());
    for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *o = m.add(*o, m.mul(x, y));
    }
}

/// Fused degree-1 × degree-1 tensor product over one residue slice:
///
/// ```text
/// out.0 = x.0 · y.0
/// out.1 = x.0 · y.1 + x.1 · y.0
/// out.2 = x.1 · y.1
/// ```
///
/// all mod `q`. This is the whole per-limb BGV ciphertext product in one
/// pass: the operand slices are loaded once and the middle term's sum is
/// reduced once from the 128-bit accumulator instead of through two
/// separate canonical products and a modular add. The vector tiers keep
/// the four partial products in the lazy `[0, 2q)` Montgomery domain and
/// canonicalize each output once at the end.
#[inline]
pub fn tensor3(
    m: &Modulus,
    x: (&[u64], &[u64]),
    y: (&[u64], &[u64]),
    out: (&mut [u64], &mut [u64], &mut [u64]),
) {
    (simd::kernels().tensor3)(m, x, y, out)
}

/// Scalar oracle for [`tensor3`]; the 128-bit middle-term sum cannot
/// overflow (`2q² < 2^125`).
pub fn tensor3_scalar(
    m: &Modulus,
    x: (&[u64], &[u64]),
    y: (&[u64], &[u64]),
    out: (&mut [u64], &mut [u64], &mut [u64]),
) {
    let (x0, x1) = x;
    let (y0, y1) = y;
    let (r0, r1, r2) = out;
    let n = x0.len();
    debug_assert_eq!(n, x1.len());
    debug_assert_eq!(n, y0.len());
    debug_assert_eq!(n, y1.len());
    debug_assert_eq!(n, r0.len());
    debug_assert_eq!(n, r1.len());
    debug_assert_eq!(n, r2.len());
    for i in 0..n {
        let a0 = x0[i] as u128;
        let a1 = x1[i] as u128;
        let b0 = y0[i] as u128;
        let b1 = y1[i] as u128;
        r0[i] = m.reduce_u128(a0 * b0);
        r1[i] = m.reduce_u128(a0 * b1 + a1 * b0);
        r2[i] = m.reduce_u128(a1 * b1);
    }
}

/// `a[i] = (a[i] * b[i]) mod q` where `b` carries Shoup constants
/// `bs[i] = floor(b[i]·2^64/q)`, replacing the Barrett reduction with one
/// high-half product per element. Used when `b` is a precomputed repeated
/// operand (public key, relinearization key, prepared plaintext).
#[inline]
pub fn mul_shoup_assign(m: &Modulus, a: &mut [u64], b: &[u64], bs: &[u64]) {
    (simd::kernels().mul_shoup_assign)(m, a, b, bs)
}

/// Scalar oracle for [`mul_shoup_assign`].
#[inline]
pub fn mul_shoup_assign_scalar(m: &Modulus, a: &mut [u64], b: &[u64], bs: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(b.len(), bs.len());
    for (x, (&y, &ys)) in a.iter_mut().zip(b.iter().zip(bs)) {
        *x = m.mul_shoup(*x, y, ys);
    }
}

/// `out[i] = (a[i] * b[i]) mod q` with Shoup constants for `b`, into a
/// separate output slice.
#[inline]
pub fn mul_shoup_into(m: &Modulus, out: &mut [u64], a: &[u64], b: &[u64], bs: &[u64]) {
    (simd::kernels().mul_shoup_into)(m, out, a, b, bs)
}

/// Scalar oracle for [`mul_shoup_into`].
#[inline]
pub fn mul_shoup_into_scalar(m: &Modulus, out: &mut [u64], a: &[u64], b: &[u64], bs: &[u64]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(b.len(), bs.len());
    for ((o, &x), (&y, &ys)) in out.iter_mut().zip(a).zip(b.iter().zip(bs)) {
        *o = m.mul_shoup(x, y, ys);
    }
}

/// Two-row fused multiply-add against Shoup-precomputed rows, canonical:
/// `acc0[i] = (acc0[i] + a[i]·k0[i]) mod q`, `acc1[i] = (acc1[i] +
/// a[i]·k1[i]) mod q`. `a` is read once for both rows — the closing kernel
/// of encryption (`c0 = b ⊙ û + ·`, `c1 = a ⊙ û + ·`) and the wide-prime
/// fallback of key switching.
#[inline]
pub fn mul_shoup_add2(
    m: &Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    a: &[u64],
    k0: ShoupRow,
    k1: ShoupRow,
) {
    (simd::kernels().mul_shoup_add2)(m, acc0, acc1, a, k0, k1)
}

/// Scalar oracle for [`mul_shoup_add2`].
pub fn mul_shoup_add2_scalar(
    m: &Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    a: &[u64],
    k0: ShoupRow,
    k1: ShoupRow,
) {
    let n = a.len();
    debug_assert!([
        acc0.len(),
        acc1.len(),
        k0.0.len(),
        k0.1.len(),
        k1.0.len(),
        k1.1.len()
    ]
    .iter()
    .all(|&len| len == n));
    let q = m.value();
    // acc < q plus a lazy product < 2q, canonicalized by two min-of-wrapped-
    // difference steps (conditional moves: a compare-and-branch here
    // mispredicts on every other element).
    let fold = |acc: u64, p: u64| {
        let s = acc + p;
        let s = s.min(s.wrapping_sub(q << 1));
        s.min(s.wrapping_sub(q))
    };
    for i in 0..n {
        let x = a[i];
        acc0[i] = fold(acc0[i], m.mul_shoup_lazy(x, k0.0[i], k0.1[i]));
        acc1[i] = fold(acc1[i], m.mul_shoup_lazy(x, k1.0[i], k1.1[i]));
    }
}

/// Two-row **lazy** fused multiply-add: `acc0[i] += a[i]·k0[i]`,
/// `acc1[i] += a[i]·k1[i]`, each product a representative in `[0, 2q)` and
/// each accumulate a plain wrapping add with **no** reduction — the
/// streaming kernel of key switching, one pass over each transformed digit
/// for both output rows. The caller owns the overflow budget: after `l`
/// accumulates into an accumulator that started `< q`, the values are below
/// `(2l+1)·q`, so this is only sound while `(2l+1)·q < 2^64` (checked by
/// the caller; see `rns::key_switch_batch`). Finish with
/// [`reduce_lazy_pow2`] to canonicalize.
///
/// Which representative of `a[i]·k[i]` a tier adds is its own business
/// (the IFMA tier estimates the quotient against `2^52`, the others
/// against `2^64`): accumulators are congruent across tiers and inside the
/// same bound, and equal once reduced.
#[inline]
pub fn mul_shoup_add_lazy2(
    m: &Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    a: &[u64],
    k0: ShoupRow,
    k1: ShoupRow,
) {
    (simd::kernels().mul_shoup_add_lazy2)(m, acc0, acc1, a, k0, k1)
}

/// Scalar oracle for [`mul_shoup_add_lazy2`].
pub fn mul_shoup_add_lazy2_scalar(
    m: &Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    a: &[u64],
    k0: ShoupRow,
    k1: ShoupRow,
) {
    let n = a.len();
    debug_assert!([
        acc0.len(),
        acc1.len(),
        k0.0.len(),
        k0.1.len(),
        k1.0.len(),
        k1.1.len()
    ]
    .iter()
    .all(|&len| len == n));
    for i in 0..n {
        // mul_shoup_lazy lands in [0, 2q); the wrapping add is exact under
        // the caller's budget.
        let x = a[i];
        acc0[i] = acc0[i].wrapping_add(m.mul_shoup_lazy(x, k0.0[i], k0.1[i]));
        acc1[i] = acc1[i].wrapping_add(m.mul_shoup_lazy(x, k1.0[i], k1.1[i]));
    }
}

/// `out[i] = (a[i] * w) mod q` for one broadcast Shoup-precomputed scalar
/// `w` — the RNS digit-decomposition kernel (`a · q̂_j^{-1} mod q_j`).
#[inline]
pub fn mul_shoup_scalar_into(m: &Modulus, out: &mut [u64], a: &[u64], w: u64, ws: u64) {
    (simd::kernels().mul_shoup_scalar_into)(m, out, a, w, ws)
}

/// Scalar oracle for [`mul_shoup_scalar_into`].
#[inline]
pub fn mul_shoup_scalar_into_scalar(m: &Modulus, out: &mut [u64], a: &[u64], w: u64, ws: u64) {
    debug_assert_eq!(out.len(), a.len());
    for (o, &x) in out.iter_mut().zip(a) {
        *o = m.mul_shoup(x, w, ws);
    }
}

/// `acc[i] = (acc[i] + a[i] * w) mod q` for one broadcast Shoup scalar —
/// the closing kernel of NTT-domain modulus switching
/// (`x·P + NTT(rescale(0))`).
#[inline]
pub fn mul_shoup_scalar_add_assign(m: &Modulus, acc: &mut [u64], a: &[u64], w: u64, ws: u64) {
    (simd::kernels().mul_shoup_scalar_add_assign)(m, acc, a, w, ws)
}

/// Scalar oracle for [`mul_shoup_scalar_add_assign`].
#[inline]
pub fn mul_shoup_scalar_add_assign_scalar(
    m: &Modulus,
    acc: &mut [u64],
    a: &[u64],
    w: u64,
    ws: u64,
) {
    debug_assert_eq!(acc.len(), a.len());
    let q = m.value();
    for (o, &x) in acc.iter_mut().zip(a) {
        let s = *o + m.mul_shoup_lazy(x, w, ws); // < 3q
        let s = s.min(s.wrapping_sub(q << 1));
        *o = s.min(s.wrapping_sub(q));
    }
}

/// One BGV modulus-switching step on a coefficient-domain residue:
/// `y[i] = ((y[i] − d[i])·inv − w[i]) mod q`, where `d` is the centered
/// residue of the dropped prime, `w` the centered plaintext-preserving
/// multiple (`δ = d + q_l·w`, so `(y − δ)·q_l^{-1} = (y − d)·q_l^{-1} −
/// w`) and `inv = q_l^{-1} mod q` with its Shoup constant.
///
/// Requires `|d[i]| < q` and `|w[i]| < q` (the caller's chain primes share
/// a bit width and `t ≪ q`), so both signed lifts are conditional adds.
#[inline]
pub fn rescale_step(m: &Modulus, y: &mut [u64], d: &[i64], w: &[i64], inv: u64, inv_shoup: u64) {
    (simd::kernels().rescale_step)(m, y, d, w, inv, inv_shoup)
}

/// Scalar oracle for [`rescale_step`].
pub fn rescale_step_scalar(
    m: &Modulus,
    y: &mut [u64],
    d: &[i64],
    w: &[i64],
    inv: u64,
    inv_shoup: u64,
) {
    debug_assert_eq!(y.len(), d.len());
    debug_assert_eq!(y.len(), w.len());
    let q = m.value();
    let lift = |c: i64| {
        debug_assert!(c.unsigned_abs() < q);
        let x = c as u64;
        x.min(x.wrapping_add(q))
    };
    for (x, (&d, &w)) in y.iter_mut().zip(d.iter().zip(w)) {
        *x = m.sub(m.mul_shoup(m.sub(*x, lift(d)), inv, inv_shoup), lift(w));
    }
}

/// `a[i] = (a[i] * s) mod q` for a scalar already reduced mod q.
///
/// `s` is fixed across the slice, so one Shoup constant up front turns the
/// per-element Barrett reduction into a mulhi + two mullos (bit-identical:
/// both compute the canonical residue of the same product).
#[inline]
pub fn scalar_mul_assign(m: &Modulus, a: &mut [u64], s: u64) {
    (simd::kernels().scale_assign)(m.value(), a, s, m.shoup(s))
}

/// Scalar oracle for [`scalar_mul_assign`] and the `n^{-1}` fold that
/// closes an inverse NTT: `a[i] = (a[i] * w) mod q` for any `a[i] < 2^64`
/// on the 64-bit tiers (`< 2^52` on the IFMA tier), canonical out. Takes
/// the bare modulus so the NTT drivers can call it from an
/// [`crate::simd::NttShape`].
#[inline]
pub fn scale_assign_scalar(q: u64, a: &mut [u64], w: u64, ws: u64) {
    for x in a.iter_mut() {
        let hi = ((*x as u128 * ws as u128) >> 64) as u64;
        let r = x.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q));
        *x = r.min(r.wrapping_sub(q));
    }
}

/// Canonicalizes lazy accumulator values known to lie in `[0, q·2^k)`
/// with `k` conditional subtractions per element (`q·2^{k-1}`, …, `2q`,
/// `q`). This is the closing pass after [`mul_shoup_add_lazy2`] streams
/// (and, with `k = 2`, of every forward NTT): deterministic, branch-free,
/// and bit-identical to having reduced after every accumulate (both paths
/// produce the unique canonical representative of the same residue class).
#[inline]
pub fn reduce_lazy_pow2(m: &Modulus, a: &mut [u64], k: u32) {
    (simd::kernels().reduce_lazy_pow2)(m.value(), a, k)
}

/// Scalar oracle for [`reduce_lazy_pow2`] (bare modulus: the NTT drivers
/// call it from an [`crate::simd::NttShape`]). The min-of-wrapped-difference
/// form compiles to a conditional move: a compare-and-branch here
/// mispredicts on every fresh input.
pub fn reduce_lazy_pow2_scalar(q: u64, a: &mut [u64], k: u32) {
    debug_assert!(
        k == 0 || (q as u128) << (k - 1) < 1u128 << 64,
        "reduce_lazy_pow2 bound q·2^{k} exceeds u64"
    );
    for x in a.iter_mut() {
        let mut v = *x;
        let mut s = k;
        while s > 0 {
            s -= 1;
            v = v.min(v.wrapping_sub(q << s));
        }
        debug_assert!(
            v < q,
            "reduce_lazy_pow2 input exceeded declared q·2^{k} bound"
        );
        *x = v;
    }
}

/// Lanes of one pack group: eight residues of `w` bits are `w` whole bytes.
pub const PACK_LANES: usize = 8;

/// Bytes that `lanes` residues take packed `bits` bits apiece — the one
/// size rule of the wire, the journal and the cost models.
pub const fn packed_len(bits: u32, lanes: usize) -> usize {
    (lanes * bits as usize).div_ceil(8)
}

/// The shape [`pack`] and [`unpack`] ask for — whole pack groups, and
/// exactly the bytes they take at the width of `m`, which is returned —
/// or a panic.
pub(crate) fn check_packed_shape(m: &Modulus, lanes: usize, bytes: usize) -> usize {
    let w = m.bits() as usize;
    assert_eq!(lanes % PACK_LANES, 0, "residues pack eight at a time");
    assert_eq!(bytes, packed_len(m.bits(), lanes), "packed row length");
    w
}

/// Writes the canonical residues `src` at the bit width `w` of their
/// modulus: residue `i` is bits `i·w .. (i+1)·w` of `out` read as one
/// little-endian number. `src` is whole groups of [`PACK_LANES`], `out`
/// exactly [`packed_len`] bytes.
#[inline]
pub fn pack(m: &Modulus, out: &mut [u8], src: &[u64]) {
    (simd::kernels().pack)(m, out, src)
}

/// Scalar oracle for [`pack`].
pub fn pack_scalar(m: &Modulus, out: &mut [u8], src: &[u64]) {
    let w = check_packed_shape(m, src.len(), out.len());
    for (lanes, bytes) in src.chunks_exact(PACK_LANES).zip(out.chunks_exact_mut(w)) {
        // Bits not yet written, lowest first.
        let (mut acc, mut have) = (0u128, 0usize);
        let mut words = bytes.chunks_exact_mut(8);
        for &x in lanes {
            debug_assert!(x < m.value());
            acc |= (x as u128) << have;
            have += w;
            if have >= 64 {
                let word = words.next().expect("eight lanes fill w / 8 words");
                word.copy_from_slice(&(acc as u64).to_le_bytes());
                acc >>= 64;
                have -= 64;
            }
        }
        let rest = words.into_remainder();
        rest.copy_from_slice(&acc.to_le_bytes()[..rest.len()]);
    }
}

/// Inverse of [`pack`]: fills `out` from exactly [`packed_len`] bytes and
/// says whether every residue read is canonical (`< q`). On `false` the
/// contents of `out` are unspecified values below `2^w`.
#[inline]
#[must_use = "a residue at or above q must not reach ring arithmetic"]
pub fn unpack(m: &Modulus, out: &mut [u64], src: &[u8]) -> bool {
    (simd::kernels().unpack)(m, out, src)
}

/// Scalar oracle for [`unpack`].
pub fn unpack_scalar(m: &Modulus, out: &mut [u64], src: &[u8]) -> bool {
    let w = check_packed_shape(m, out.len(), src.len());
    let mask = u64::MAX >> (64 - w);
    let mut largest = 0u64;
    for (lanes, bytes) in out.chunks_exact_mut(PACK_LANES).zip(src.chunks_exact(w)) {
        // Bits read and not yet handed out, lowest first.
        let (mut acc, mut have) = (0u128, 0usize);
        let mut rest = bytes;
        for x in lanes {
            if have < w {
                let (taken, after) = rest.split_at(rest.len().min(8));
                let mut word = [0u8; 8];
                word[..taken.len()].copy_from_slice(taken);
                acc |= (u64::from_le_bytes(word) as u128) << have;
                have += 8 * taken.len();
                rest = after;
            }
            *x = acc as u64 & mask;
            largest = largest.max(*x);
            acc >>= w;
            have -= w;
        }
    }
    largest < m.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_match_scalar_ops() {
        let m = Modulus::new_prime(97).unwrap();
        let a0 = [1u64, 50, 96, 0];
        let b = [96u64, 50, 1, 13];

        let mut a = a0;
        add_assign(&m, &mut a, &b);
        assert_eq!(a, [0, 3, 0, 13]);

        let mut a = a0;
        sub_assign(&m, &mut a, &b);
        assert_eq!(a, [2, 0, 95, 84]);

        let mut a = a0;
        neg_assign(&m, &mut a);
        assert_eq!(a, [96, 47, 1, 0]);

        let mut a = a0;
        mul_assign(&m, &mut a, &b);
        assert_eq!(a, [96, (50 * 50) % 97, 96, 0]);

        let mut out = [0u64; 4];
        mul_into(&m, &mut out, &a0, &b);
        assert_eq!(out, [96, (50 * 50) % 97, 96, 0]);

        let mut acc = [10u64, 10, 10, 10];
        mul_add_assign(&m, &mut acc, &a0, &b);
        assert_eq!(acc, [(10 + 96) % 97, (10 + 2500) % 97, (10 + 96) % 97, 10]);

        let mut a = a0;
        scalar_mul_assign(&m, &mut a, 3);
        assert_eq!(a, [3, 150 % 97, (96 * 3) % 97, 0]);
    }

    #[test]
    fn shoup_kernels_match_barrett_kernels() {
        let m = Modulus::new_prime((1 << 45) - 229).unwrap();
        let q = m.value();
        let a0: Vec<u64> = (0..32u64).map(|i| (i * 0x1234_5678_9ABC) % q).collect();
        let b: Vec<u64> = (0..32u64).map(|i| q - 1 - (i * 0xBEEF_CAFE) % q).collect();
        let bs: Vec<u64> = b.iter().map(|&y| m.shoup(y)).collect();

        let mut want = a0.clone();
        mul_assign_scalar(&m, &mut want, &b);
        let mut got = a0.clone();
        mul_shoup_assign(&m, &mut got, &b, &bs);
        assert_eq!(got, want);

        let mut got_into = vec![0u64; 32];
        mul_shoup_into(&m, &mut got_into, &a0, &b, &bs);
        assert_eq!(got_into, want);

        let mut got_bcast = vec![0u64; 32];
        mul_shoup_scalar_into(&m, &mut got_bcast, &a0, b[3], bs[3]);
        let want_bcast: Vec<u64> = a0.iter().map(|&x| m.mul(x, b[3])).collect();
        assert_eq!(got_bcast, want_bcast);
    }

    #[test]
    fn tensor3_matches_separate_kernels() {
        let m = Modulus::new_prime((1 << 45) - 229).unwrap();
        let q = m.value();
        let n = 37; // deliberately not a multiple of any lane width
        let gen = |s: u64| -> Vec<u64> {
            (0..n as u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ s) % q)
                .collect()
        };
        let (x0, x1, y0, y1) = (gen(1), gen(2), gen(3), gen(4));
        let (mut r0, mut r1, mut r2) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
        tensor3(&m, (&x0, &x1), (&y0, &y1), (&mut r0, &mut r1, &mut r2));

        let mut w0 = vec![0u64; n];
        mul_into_scalar(&m, &mut w0, &x0, &y0);
        let mut w1 = vec![0u64; n];
        mul_into_scalar(&m, &mut w1, &x0, &y1);
        mul_add_assign_scalar(&m, &mut w1, &x1, &y0);
        let mut w2 = vec![0u64; n];
        mul_into_scalar(&m, &mut w2, &x1, &y1);
        assert_eq!(r0, w0);
        assert_eq!(r1, w1);
        assert_eq!(r2, w2);
    }

    #[test]
    fn lazy_accumulate_then_reduce_matches_canonical() {
        let m = Modulus::new_prime((1 << 40) - 87).unwrap();
        let q = m.value();
        let n = 19;
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 0xABCD_EF12) % q).collect();
        let l = 5usize; // (2l+1)q = 11q < 2^64 for a 40-bit prime
        let digits: Vec<Vec<u64>> = (0..l as u64)
            .map(|d| (0..n as u64).map(|i| (i + d * 7919) % q).collect())
            .collect();
        let keys: Vec<Vec<u64>> = (0..2 * l as u64)
            .map(|d| (0..n as u64).map(|i| q - 1 - (i * 31 + d) % q).collect())
            .collect();
        let keys_shoup: Vec<Vec<u64>> = keys
            .iter()
            .map(|k| k.iter().map(|&w| m.shoup(w)).collect())
            .collect();
        let row = |r: usize| -> ShoupRow { (&keys[r], &keys_shoup[r]) };

        let (mut lazy0, mut lazy1) = (a.clone(), a.clone());
        let (mut canon0, mut canon1) = (a.clone(), a.clone());
        for (d, digit) in digits.iter().enumerate() {
            mul_shoup_add_lazy2(&m, &mut lazy0, &mut lazy1, digit, row(d), row(l + d));
            mul_shoup_add2(&m, &mut canon0, &mut canon1, digit, row(d), row(l + d));
        }
        let k = (2 * l as u64 + 1).next_power_of_two().trailing_zeros();
        reduce_lazy_pow2(&m, &mut lazy0, k);
        reduce_lazy_pow2(&m, &mut lazy1, k);

        let (mut want0, mut want1) = (a.clone(), a.clone());
        for (d, digit) in digits.iter().enumerate() {
            mul_add_assign_scalar(&m, &mut want0, digit, &keys[d]);
            mul_add_assign_scalar(&m, &mut want1, digit, &keys[l + d]);
        }
        assert_eq!((lazy0, lazy1), (want0.clone(), want1.clone()));
        assert_eq!((canon0, canon1), (want0, want1));
    }

    #[test]
    fn lifts_and_rescale_step_match_plain_modular_arithmetic() {
        let m = Modulus::new_prime((1 << 40) - 87).unwrap();
        let q = m.value();
        let src: Vec<i64> = vec![0, 1, -1, 20, -20, (q / 2) as i64, -((q / 2) as i64), 511];
        let mut out = vec![0u64; src.len()];
        lift_signed(&m, &mut out, &src, q / 2);
        let want: Vec<u64> = src.iter().map(|&c| m.from_signed(c)).collect();
        assert_eq!(out, want);
        // A bound at or past q takes the Euclidean path.
        let wide = [q as i64 + 3, -(q as i64) - 3];
        let mut out = [0u64; 2];
        lift_signed(&m, &mut out, &wide, q + 3);
        assert_eq!(out, [3, q - 3]);

        let twice: Vec<u64> = vec![0, q - 1, q, 2 * q - 1];
        let mut out = vec![0u64; 4];
        reduce_once_into(&m, &mut out, &twice);
        assert_eq!(out, [0, q - 1, 0, q - 1]);

        let inv = m.inv(12345).unwrap();
        let y0: Vec<u64> = (0..src.len() as u64)
            .map(|i| (i * 0x1234_5678_9ABC) % q)
            .collect();
        let w: Vec<i64> = (0..src.len() as i64).map(|i| i * 37 - 100).collect();
        let mut y = y0.clone();
        rescale_step(&m, &mut y, &src, &w, inv, m.shoup(inv));
        for i in 0..src.len() {
            let num = m.sub(y0[i], m.from_signed(src[i]));
            assert_eq!(y[i], m.sub(m.mul(num, inv), m.from_signed(w[i])), "i={i}");
        }

        let mut acc = y0.clone();
        mul_shoup_scalar_add_assign(&m, &mut acc, &want, inv, m.shoup(inv));
        for i in 0..src.len() {
            assert_eq!(acc[i], m.add(y0[i], m.mul(want[i], inv)));
        }
    }
}
