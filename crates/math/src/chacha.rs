//! The ChaCha20 keystream kernels (the RFC 8439 permutation), written once
//! for the two things in the workspace that run it: [`crate::rng::StdRng`]
//! (djb layout: 64-bit counter in words 12–13, 64-bit stream id in 14–15)
//! and `mycelium-crypto`'s cipher (IETF layout: 32-bit counter in word 12,
//! 96-bit nonce in 13–15). A kernel sees only the sixteen-word input state
//! and counts blocks in word 12, so the caller owns the layout — and a
//! caller whose counter is wider than 32 bits must not let word 12 wrap
//! inside one call.

/// Bytes of one ChaCha20 keystream block.
pub const BLOCK: usize = 64;
/// Blocks the portable kernel computes together.
const NARROW: usize = 4;
/// Blocks the AVX2 kernel computes together.
pub const WIDE: usize = 8;
/// Blocks the AVX-512 kernel computes together.
#[cfg(target_arch = "x86_64")]
const WIDEST: usize = 16;

/// The four constant words every input state starts with.
pub const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One implementation of the keystream.
#[derive(Clone, Copy)]
pub struct Tier {
    /// `"portable"`, `"avx2"` or `"avx512"`.
    pub name: &'static str,
    /// XORs `data` with the keystream that starts at the block counter in
    /// `state[12]`, and advances that counter (mod 2^32) past every block
    /// it started.
    pub xor: fn(&mut [u32; 16], &mut [u8]),
}

const PORTABLE: Tier = Tier {
    name: "portable",
    xor: portable::xor,
};

/// Every tier this host can run, the portable one first and each wider
/// than the one before — regardless of `MYC_NO_SIMD`. Differential tests
/// compare each against the first.
pub fn tiers() -> Vec<Tier> {
    #[allow(unused_mut)]
    let mut tiers = vec![PORTABLE];
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        tiers.push(avx2::TIER);
        // The AVX-512 kernel hands its ragged tail to the AVX2 one.
        if std::is_x86_feature_detected!("avx512f") {
            tiers.push(avx512::TIER);
        }
    }
    tiers
}

/// The portable kernel: [`NARROW`] blocks at a time, one state word of all
/// of them per `[u32; NARROW]`, so that every step of the quarter round is
/// the same operation on adjacent, independent lanes. Where the compiler
/// keeps the lanes scalar (x86-64 without AVX2 has no vector rotate it
/// finds worth using) it runs at the speed of a one-block loop. Also the
/// oracle the other tiers are tested against, and what finishes their
/// ragged tails.
mod portable {
    use super::{BLOCK, NARROW};

    type Lanes = [u32; NARROW];

    #[inline(always)]
    fn add(a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|l| a[l].wrapping_add(b[l]))
    }

    #[inline(always)]
    fn xor_rotl<const N: u32>(a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|l| (a[l] ^ b[l]).rotate_left(N))
    }

    #[inline(always)]
    fn quarter_round(x: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = add(x[a], x[b]);
        x[d] = xor_rotl::<16>(x[d], x[a]);
        x[c] = add(x[c], x[d]);
        x[b] = xor_rotl::<12>(x[b], x[c]);
        x[a] = add(x[a], x[b]);
        x[d] = xor_rotl::<8>(x[d], x[a]);
        x[c] = add(x[c], x[d]);
        x[b] = xor_rotl::<7>(x[b], x[c]);
    }

    /// The keystream of the [`NARROW`] blocks starting at `state[12]`, still
    /// one word of all of them per entry.
    fn keystream(state: &[u32; 16]) -> [Lanes; 16] {
        let mut init: [Lanes; 16] = std::array::from_fn(|i| [state[i]; NARROW]);
        init[12] = std::array::from_fn(|l| state[12].wrapping_add(l as u32));
        let mut x = init;
        for _ in 0..10 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        std::array::from_fn(|i| add(x[i], init[i]))
    }

    pub(super) fn xor(state: &mut [u32; 16], data: &mut [u8]) {
        for group in data.chunks_mut(NARROW * BLOCK) {
            let ks = keystream(state);
            for (l, block) in group.chunks_mut(BLOCK).enumerate() {
                let mut words = block.chunks_exact_mut(4);
                let mut whole = 0;
                for (i, word) in words.by_ref().enumerate() {
                    let plain = u32::from_le_bytes((&*word).try_into().expect("four bytes"));
                    word.copy_from_slice(&(plain ^ ks[i][l]).to_le_bytes());
                    whole = i + 1;
                }
                // A message that ends inside a word uses that word's first bytes.
                if let Some(k) = ks.get(whole) {
                    for (b, k) in words.into_remainder().iter_mut().zip(k[l].to_le_bytes()) {
                        *b ^= k;
                    }
                }
            }
            state[12] = state[12].wrapping_add(group.len().div_ceil(BLOCK) as u32);
        }
    }
}

/// The AVX2 kernel: [`WIDE`] blocks at a time, one state word of all of them
/// per 256-bit register, then two 8×8 word transposes to put each block's
/// sixteen words back next to each other.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{portable, Tier, BLOCK, WIDE};
    use core::arch::x86_64::*;

    pub(super) const TIER: Tier = Tier { name: "avx2", xor };

    pub(super) fn xor(state: &mut [u32; 16], data: &mut [u8]) {
        let bulk = data.len() / (WIDE * BLOCK) * (WIDE * BLOCK);
        let (groups, tail) = data.split_at_mut(bulk);
        // SAFETY: this tier is only handed out (`tiers`) after AVX2 was detected.
        unsafe { xor_groups(state, groups) };
        portable::xor(state, tail);
    }

    #[inline(always)]
    unsafe fn rotl<const L: i32, const R: i32>(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32(v, L), _mm256_srli_epi32(v, R))
    }

    #[inline(always)]
    unsafe fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        // Rotations by a whole number of bytes are one byte shuffle.
        let rot16 = _mm256_set_epi8(
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2, 13, 12, 15, 14, 9, 8, 11, 10, 5,
            4, 7, 6, 1, 0, 3, 2,
        );
        let rot8 = _mm256_set_epi8(
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3, 14, 13, 12, 15, 10, 9, 8, 11, 6,
            5, 4, 7, 2, 1, 0, 3,
        );
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Rows in (`r[i]` = word `i` of blocks 0..8), columns out (`[j]` =
    /// words 0..8 of block `j`).
    #[inline(always)]
    unsafe fn transpose(r: &[__m256i]) -> [__m256i; 8] {
        let a0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let a1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let a2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let a3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let a4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let a5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let a6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let a7 = _mm256_unpackhi_epi32(r[6], r[7]);
        // b[j]: rows 0..4 (b0..b3) or 4..8 (b4..b7) of columns j%4 and j%4 + 4.
        let b0 = _mm256_unpacklo_epi64(a0, a2);
        let b1 = _mm256_unpackhi_epi64(a0, a2);
        let b2 = _mm256_unpacklo_epi64(a1, a3);
        let b3 = _mm256_unpackhi_epi64(a1, a3);
        let b4 = _mm256_unpacklo_epi64(a4, a6);
        let b5 = _mm256_unpackhi_epi64(a4, a6);
        let b6 = _mm256_unpacklo_epi64(a5, a7);
        let b7 = _mm256_unpackhi_epi64(a5, a7);
        [
            _mm256_permute2x128_si256(b0, b4, 0x20),
            _mm256_permute2x128_si256(b1, b5, 0x20),
            _mm256_permute2x128_si256(b2, b6, 0x20),
            _mm256_permute2x128_si256(b3, b7, 0x20),
            _mm256_permute2x128_si256(b0, b4, 0x31),
            _mm256_permute2x128_si256(b1, b5, 0x31),
            _mm256_permute2x128_si256(b2, b6, 0x31),
            _mm256_permute2x128_si256(b3, b7, 0x31),
        ]
    }

    /// # Safety
    /// The CPU must support AVX2. `data` must be whole [`WIDE`]-block groups.
    #[target_feature(enable = "avx2")]
    unsafe fn xor_groups(state: &mut [u32; 16], data: &mut [u8]) {
        debug_assert_eq!(data.len() % (WIDE * BLOCK), 0);
        let mut init = [_mm256_setzero_si256(); 16];
        for (v, &w) in init.iter_mut().zip(state.iter()) {
            *v = _mm256_set1_epi32(w as i32);
        }
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        for group in data.chunks_exact_mut(WIDE * BLOCK) {
            init[12] = _mm256_add_epi32(_mm256_set1_epi32(state[12] as i32), lane);
            let mut x = init;
            for _ in 0..10 {
                quarter_round(&mut x, 0, 4, 8, 12);
                quarter_round(&mut x, 1, 5, 9, 13);
                quarter_round(&mut x, 2, 6, 10, 14);
                quarter_round(&mut x, 3, 7, 11, 15);
                quarter_round(&mut x, 0, 5, 10, 15);
                quarter_round(&mut x, 1, 6, 11, 12);
                quarter_round(&mut x, 2, 7, 8, 13);
                quarter_round(&mut x, 3, 4, 9, 14);
            }
            for (x, init) in x.iter_mut().zip(&init) {
                *x = _mm256_add_epi32(*x, *init);
            }
            let (low, high) = (transpose(&x[..8]), transpose(&x[8..]));
            for (j, block) in group.chunks_exact_mut(BLOCK).enumerate() {
                for (half, ks) in [low[j], high[j]].into_iter().enumerate() {
                    // SAFETY: `block` is 64 bytes, so both 32-byte halves are in
                    // bounds; the unaligned load/store forms are used.
                    let p = block.as_mut_ptr().add(32 * half).cast::<__m256i>();
                    _mm256_storeu_si256(p, _mm256_xor_si256(_mm256_loadu_si256(p), ks));
                }
            }
            state[12] = state[12].wrapping_add(WIDE as u32);
        }
    }
}

/// The AVX-512F kernel: [`WIDEST`] blocks at a time, one state word of all
/// of them per 512-bit register, every rotation one `vprold`, then one
/// 16×16 word transpose to put each block's sixteen words back next to each
/// other. What is left behind the last whole group goes to the AVX2 kernel
/// (and from there to the portable one).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{avx2, Tier, BLOCK, WIDEST};
    use core::arch::x86_64::*;

    pub(super) const TIER: Tier = Tier {
        name: "avx512",
        xor,
    };

    fn xor(state: &mut [u32; 16], data: &mut [u8]) {
        let bulk = data.len() / (WIDEST * BLOCK) * (WIDEST * BLOCK);
        let (groups, tail) = data.split_at_mut(bulk);
        // A request below one group — every `StdRng` refill — is the AVX2
        // kernel's call and nothing else.
        if !groups.is_empty() {
            // SAFETY: this tier is only handed out (`tiers`) after AVX-512F
            // was detected.
            unsafe { xor_groups(state, groups) };
        }
        // `tiers` hands this tier out only where AVX2 was detected too.
        avx2::xor(state, tail);
    }

    #[inline(always)]
    unsafe fn quarter_round(x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
    }

    /// Rows in (`r[i]` = word `i` of blocks 0..16), columns out (`[j]` =
    /// words 0..16 of block `j`).
    #[inline(always)]
    unsafe fn transpose(r: &[__m512i; 16]) -> [__m512i; 16] {
        // a: pairs of rows interleaved by word; b: fours of rows by pair of
        // words. b[4g + k] holds, in 128-bit lane l, rows 4g..4g+4 of
        // column 4l + k.
        let mut a = [_mm512_setzero_si512(); 16];
        for i in 0..8 {
            a[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
            a[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
        }
        let mut b = [_mm512_setzero_si512(); 16];
        for g in 0..4 {
            b[4 * g] = _mm512_unpacklo_epi64(a[4 * g], a[4 * g + 2]);
            b[4 * g + 1] = _mm512_unpackhi_epi64(a[4 * g], a[4 * g + 2]);
            b[4 * g + 2] = _mm512_unpacklo_epi64(a[4 * g + 1], a[4 * g + 3]);
            b[4 * g + 3] = _mm512_unpackhi_epi64(a[4 * g + 1], a[4 * g + 3]);
        }
        // Two rounds of 128-bit lane shuffles gather the four row groups of
        // one column into one register.
        let mut out = [_mm512_setzero_si512(); 16];
        for k in 0..4 {
            // c0: lanes 0, 2 of row groups 0 and 1; c1: lanes 1, 3 of them.
            let c0 = _mm512_shuffle_i32x4::<0x88>(b[k], b[4 + k]);
            let c1 = _mm512_shuffle_i32x4::<0xdd>(b[k], b[4 + k]);
            let c2 = _mm512_shuffle_i32x4::<0x88>(b[8 + k], b[12 + k]);
            let c3 = _mm512_shuffle_i32x4::<0xdd>(b[8 + k], b[12 + k]);
            out[k] = _mm512_shuffle_i32x4::<0x88>(c0, c2);
            out[8 + k] = _mm512_shuffle_i32x4::<0xdd>(c0, c2);
            out[4 + k] = _mm512_shuffle_i32x4::<0x88>(c1, c3);
            out[12 + k] = _mm512_shuffle_i32x4::<0xdd>(c1, c3);
        }
        out
    }

    /// # Safety
    /// The CPU must support AVX-512F. `data` must be whole [`WIDEST`]-block
    /// groups.
    #[target_feature(enable = "avx512f")]
    unsafe fn xor_groups(state: &mut [u32; 16], data: &mut [u8]) {
        debug_assert_eq!(data.len() % (WIDEST * BLOCK), 0);
        let mut init = [_mm512_setzero_si512(); 16];
        for (v, &w) in init.iter_mut().zip(state.iter()) {
            *v = _mm512_set1_epi32(w as i32);
        }
        let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        for group in data.chunks_exact_mut(WIDEST * BLOCK) {
            init[12] = _mm512_add_epi32(_mm512_set1_epi32(state[12] as i32), lane);
            let mut x = init;
            for _ in 0..10 {
                quarter_round(&mut x, 0, 4, 8, 12);
                quarter_round(&mut x, 1, 5, 9, 13);
                quarter_round(&mut x, 2, 6, 10, 14);
                quarter_round(&mut x, 3, 7, 11, 15);
                quarter_round(&mut x, 0, 5, 10, 15);
                quarter_round(&mut x, 1, 6, 11, 12);
                quarter_round(&mut x, 2, 7, 8, 13);
                quarter_round(&mut x, 3, 4, 9, 14);
            }
            for (x, init) in x.iter_mut().zip(&init) {
                *x = _mm512_add_epi32(*x, *init);
            }
            let ks = transpose(&x);
            for (block, ks) in group.chunks_exact_mut(BLOCK).zip(ks) {
                // SAFETY: `block` is 64 bytes; the unaligned load/store forms
                // are used.
                let p = block.as_mut_ptr().cast::<__m512i>();
                _mm512_storeu_si512(p, _mm512_xor_si512(_mm512_loadu_si512(p), ks));
            }
            state[12] = state[12].wrapping_add(WIDEST as u32);
        }
    }
}
