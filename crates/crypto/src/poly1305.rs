//! Poly1305 one-time authenticator (RFC 8439).
//!
//! Used by the AEAD construction in [`crate::aead`]. The accumulator lives
//! in base 2^64 — two full limbs and a few bits of a third — so one block
//! costs four 64×64→128 multiplications, and input is absorbed as it
//! arrives instead of from one contiguous copy of the message. That scalar
//! loop is the oracle, and the path for associated data, short frames and
//! tails; where the CPU has AVX-512F a long run of whole blocks goes eight
//! at a time through a lane-parallel kernel instead (see [`tiers`]).

/// Tag size in bytes.
pub const TAG_LEN: usize = 16;
const BLOCK: usize = 16;

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// The multiplier and the running sum: `h = Σ blockᵢ · r^(n−i) mod 2^130 − 5`.
#[derive(Clone)]
struct Acc {
    /// The clamped multiplier `r = r0 + 2^64·r1`; `s1 = 5·r1/4`, exact
    /// because clamping clears `r1`'s low two bits, folds `2^128·r1` back.
    r0: u64,
    r1: u64,
    s1: u64,
    /// The accumulator `h0 + 2^64·h1 + 2^128·h2`, partially reduced (`h2 ≤ 4`).
    h: [u64; 3],
}

impl Acc {
    /// `h = (h + block + high·2^128) · r`, for each 16-byte block of `blocks`.
    fn absorb(&mut self, blocks: &[u8], high: u64) {
        let (r0, r1, s1) = (self.r0 as u128, self.r1 as u128, self.s1 as u128);
        let [mut h0, mut h1, mut h2] = self.h;
        for block in blocks.chunks_exact(BLOCK) {
            let (t0, c0) = h0.overflowing_add(le_u64(&block[..8]));
            let (t1, c1) = h1.overflowing_add(le_u64(&block[8..]));
            let (t1, c2) = t1.overflowing_add(c0 as u64);
            let t2 = h2 + high + c1 as u64 + c2 as u64;
            // r0, r1 < 2^60 and t2 < 2^4: no sum below overflows 128 bits.
            let d0 = t0 as u128 * r0 + t1 as u128 * s1;
            let d1 = t0 as u128 * r1 + t1 as u128 * r0 + t2 as u128 * s1 + (d0 >> 64);
            let d2 = t2 * self.r0 + (d1 >> 64) as u64;
            // Fold everything from bit 130 up back in, times five.
            let (lo, c0) = (d0 as u64).overflowing_add((d2 >> 2) * 5);
            let (mid, c1) = (d1 as u64).overflowing_add(c0 as u64);
            (h0, h1, h2) = (lo, mid, (d2 & 3) + c1 as u64);
        }
        self.h = [h0, h1, h2];
    }

    /// The scalar tier: every block of `blocks`, each a whole one.
    fn absorb_whole(&mut self, blocks: &[u8]) {
        self.absorb(blocks, 1);
    }
}

/// One implementation of the bulk path — what absorbs a run of whole
/// blocks. Every tier computes exactly [`poly1305`], whatever the
/// process-wide dispatch selected.
#[derive(Clone, Copy)]
pub struct Tier {
    /// `"scalar"` or `"avx512"`.
    pub name: &'static str,
    /// `h = (h + block + 2^128) · r` for each 16-byte block of the slice.
    bulk: fn(&mut Acc, &[u8]),
}

impl Tier {
    /// [`poly1305`] on this tier.
    pub fn mac(&self, key: &[u8; 32], message: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::with_tier(self, key);
        mac.update(message);
        mac.finalize()
    }
}

const SCALAR: Tier = Tier {
    name: "scalar",
    bulk: Acc::absorb_whole,
};

/// Every tier this host can run, the scalar one first — regardless of
/// `MYC_NO_SIMD`. Differential tests compare each against the first.
pub fn tiers() -> Vec<Tier> {
    #[allow(unused_mut)]
    let mut tiers = vec![SCALAR];
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx512f") {
        tiers.push(avx512::TIER);
    }
    tiers
}

/// The tier [`Poly1305::new`] runs on, chosen once per process: the widest
/// the CPU offers, or the scalar one under `MYC_NO_SIMD=1`.
pub fn active_tier() -> Tier {
    static ACTIVE: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let tiers = tiers();
        if mycelium_math::simd::simd_disabled_by_env() {
            tiers[0]
        } else {
            *tiers.last().expect("the scalar tier is always there")
        }
    })
}

/// Incremental Poly1305: `h = Σ blockᵢ · r^(n−i) mod 2^130 − 5`, tag `h + s`.
#[derive(Clone)]
pub struct Poly1305 {
    acc: Acc,
    /// What absorbs a run of whole blocks.
    bulk: fn(&mut Acc, &[u8]),
    /// The final addend `s`.
    pad: [u64; 2],
    /// A partial block waiting for more input.
    buffer: [u8; BLOCK],
    buffered: usize,
}

impl Poly1305 {
    /// A fresh authenticator under the 32-byte one-time `key` (`r ‖ s`).
    pub fn new(key: &[u8; 32]) -> Self {
        Self::with_tier(&active_tier(), key)
    }

    /// [`Poly1305::new`] with the bulk path of `tier`.
    pub fn with_tier(tier: &Tier, key: &[u8; 32]) -> Self {
        let r0 = le_u64(&key[0..8]) & 0x0fff_fffc_0fff_ffff;
        let r1 = le_u64(&key[8..16]) & 0x0fff_fffc_0fff_fffc;
        Poly1305 {
            acc: Acc {
                r0,
                r1,
                s1: r1 + (r1 >> 2),
                h: [0; 3],
            },
            bulk: tier.bulk,
            pad: [le_u64(&key[16..24]), le_u64(&key[24..32])],
            buffer: [0; BLOCK],
            buffered: 0,
        }
    }

    /// Absorbs more of the message.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = (BLOCK - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK {
                return;
            }
            let block = self.buffer;
            self.acc.absorb(&block, 1);
            self.buffered = 0;
        }
        let bulk = data.len() / BLOCK * BLOCK;
        (self.bulk)(&mut self.acc, &data[..bulk]);
        let rest = &data[bulk..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// [`Poly1305::update`], then zeros up to the next 16-byte boundary of
    /// the message so far (the AEAD's `pad16`).
    pub fn update_padded(&mut self, data: &[u8]) {
        self.update(data);
        if self.buffered > 0 {
            self.update(&[0u8; BLOCK][self.buffered..]);
        }
    }

    /// The tag of everything absorbed.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // A short last block carries its own terminating 1 bit.
            let mut block = [0u8; BLOCK];
            block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
            block[self.buffered] = 1;
            self.acc.absorb(&block, 0);
        }
        let [h0, h1, h2] = self.acc.h;
        // h < 2^130 + 2^66: it is ≥ p = 2^130 − 5 exactly when h + 5 reaches
        // bit 130, and then h − p ≡ h + 5 (mod 2^128).
        let (g0, c0) = h0.overflowing_add(5);
        let (g1, c1) = h1.overflowing_add(c0 as u64);
        let reduce = (h2 + c1 as u64) >> 2 != 0;
        let mask = (reduce as u64).wrapping_neg();
        let (h0, h1) = (h0 ^ ((h0 ^ g0) & mask), h1 ^ ((h1 ^ g1) & mask));
        let (t0, carry) = h0.overflowing_add(self.pad[0]);
        let t1 = h1.wrapping_add(self.pad[1]).wrapping_add(carry as u64);
        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&t0.to_le_bytes());
        tag[8..].copy_from_slice(&t1.to_le_bytes());
        tag
    }
}

/// The AVX-512F bulk path: eight blocks per step in radix 2^26, one block
/// per 64-bit lane — `H ← (H + M) · r⁸` lane by lane, the last step by
/// `r⁸ … r¹` instead, and the eight lanes summed: the same
/// `Σ blockᵢ · r^(n−i)` the scalar loop computes one block at a time. The
/// running sum the scalar path handed over rides in lane 0 (it is added to
/// the first block), and what the kernel hands back is partially reduced
/// the way [`Acc::absorb`] leaves it.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Acc, Tier, BLOCK};
    use core::arch::x86_64::*;

    pub(super) const TIER: Tier = Tier {
        name: "avx512",
        bulk,
    };

    /// Blocks per step.
    const LANES: usize = 8;
    const GROUP: usize = LANES * BLOCK;
    /// Below this many steps the powers of `r` cost more than they save
    /// (measured: the two paths meet between 256 and 512 bytes).
    const MIN_GROUPS: usize = 4;
    const MASK26: u64 = (1 << 26) - 1;

    /// A value below 2^130 + 2^66 (`h[2] ≤ 4`) as five 26-bit limbs, the
    /// top one carrying whatever lies above bit 130.
    fn limbs26(h: [u64; 3]) -> [u64; 5] {
        [
            h[0] & MASK26,
            (h[0] >> 26) & MASK26,
            (h[0] >> 52 | h[1] << 12) & MASK26,
            (h[1] >> 14) & MASK26,
            h[1] >> 40 | h[2] << 24,
        ]
    }

    fn bulk(acc: &mut Acc, blocks: &[u8]) {
        let groups = blocks.len() / GROUP;
        if groups < MIN_GROUPS {
            return acc.absorb_whole(blocks);
        }
        // r¹ … r⁸, by the scalar multiplier: h ← (h + 0)·r from h = r.
        let mut power = Acc {
            h: [acc.r0, acc.r1, 0],
            ..acc.clone()
        };
        let mut powers = [[0u64; 5]; LANES];
        for p in &mut powers {
            *p = limbs26(power.h);
            power.absorb(&[0u8; BLOCK], 0);
        }
        let (wide, tail) = blocks.split_at(groups * GROUP);
        // SAFETY: this tier is only handed out (`tiers`) after AVX-512F was
        // detected; `wide` is whole groups, at least one.
        let mut h = unsafe { absorb_groups(&powers, limbs26(acc.h), wide) };
        // Each limb is below 2^30 (eight lanes below 2^27): carry through,
        // fold what left the top limb back in times five, and carry again —
        // what then reaches bit 130 stays in the top limb, where `limbs26`
        // read it from.
        let carry = |h: &mut [u64; 5]| {
            for i in 0..4 {
                h[i + 1] += h[i] >> 26;
                h[i] &= MASK26;
            }
        };
        carry(&mut h);
        h[0] += (h[4] >> 26) * 5;
        h[4] &= MASK26;
        carry(&mut h);
        acc.h = [
            h[0] | h[1] << 26 | h[2] << 52,
            h[2] >> 12 | h[3] << 14 | h[4] << 40,
            h[4] >> 24,
        ];
        acc.absorb_whole(tail);
    }

    type Limbs = [__m512i; 5];

    /// One multiplier in every lane, or one per lane: its limbs, and
    /// `five[i] = 5·limbs[i + 1]`, what wraps around 2^130.
    struct Multiplier {
        limbs: Limbs,
        five: [__m512i; 4],
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn multiplier(limbs: Limbs) -> Multiplier {
        Multiplier {
            limbs,
            five: std::array::from_fn(|i| {
                _mm512_add_epi64(limbs[i + 1], _mm512_slli_epi64::<2>(limbs[i + 1]))
            }),
        }
    }

    /// `h + m`, `m` the eight blocks of `group` split into limbs, block `j`
    /// in lane `j`, each with its 2^128 bit.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. `group` must be [`GROUP`] bytes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add_group(h: Limbs, group: &[u8]) -> Limbs {
        debug_assert_eq!(group.len(), GROUP);
        let mask = _mm512_set1_epi64(MASK26 as i64);
        // SAFETY: `group` is 128 bytes; the unaligned load form is used.
        let a = _mm512_loadu_si512(group.as_ptr().cast());
        let b = _mm512_loadu_si512(group.as_ptr().add(64).cast());
        // The low and the high halves of the eight blocks.
        let lo = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), b);
        let hi = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), b);
        let across = _mm512_or_si512(_mm512_srli_epi64::<52>(lo), _mm512_slli_epi64::<12>(hi));
        [
            _mm512_add_epi64(h[0], _mm512_and_si512(lo, mask)),
            _mm512_add_epi64(h[1], _mm512_and_si512(_mm512_srli_epi64::<26>(lo), mask)),
            _mm512_add_epi64(h[2], _mm512_and_si512(across, mask)),
            _mm512_add_epi64(h[3], _mm512_and_si512(_mm512_srli_epi64::<14>(hi), mask)),
            _mm512_add_epi64(
                h[4],
                _mm512_or_si512(_mm512_srli_epi64::<40>(hi), _mm512_set1_epi64(1 << 24)),
            ),
        ]
    }

    /// `d[to] += d[from] >> 26` (times five when it wraps around the top),
    /// `d[from]` keeping its low 26 bits.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn carry(d: &mut Limbs, from: usize, to: usize) {
        let mut c = _mm512_srli_epi64::<26>(d[from]);
        if to == 0 {
            c = _mm512_add_epi64(c, _mm512_slli_epi64::<2>(c));
        }
        d[from] = _mm512_and_si512(d[from], _mm512_set1_epi64(MASK26 as i64));
        d[to] = _mm512_add_epi64(d[to], c);
    }

    /// `x·r` in radix 2^26, lane by lane. In: limbs of `x` below 2^28, of
    /// `r` below 2^27. Out: limbs below 2^26 + 2^11.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mul_reduce(x: Limbs, by: &Multiplier) -> Limbs {
        let (r, s) = (&by.limbs, &by.five);
        // Row i: the five products that land on limb i, those that wrapped
        // around 2^130 taken from `s`. Each is below 2^28 · 5 · 2^27, so
        // every sum is below 2^60.
        let mut d: Limbs = std::array::from_fn(|i| {
            let mut sum = _mm512_setzero_si512();
            for (j, &xj) in x.iter().enumerate() {
                let rj = if j <= i { r[i - j] } else { s[4 + i - j] };
                sum = _mm512_add_epi64(sum, _mm512_mul_epu32(xj, rj));
            }
            sum
        });
        // Two carry chains side by side, 0 → 1 → 2 → 3 → 4 and
        // 3 → 4 → 0 → 1.
        carry(&mut d, 0, 1);
        carry(&mut d, 3, 4);
        carry(&mut d, 1, 2);
        carry(&mut d, 4, 0);
        carry(&mut d, 2, 3);
        carry(&mut d, 0, 1);
        carry(&mut d, 3, 4);
        d
    }

    /// The running sum `h` (in lane 0) and the blocks of `data`, by `r⁸` a
    /// group and by `r⁸ … r¹` across the last: five limbs below 2^30, not
    /// yet carried.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. `data` must be whole groups, at
    /// least one.
    #[target_feature(enable = "avx512f")]
    unsafe fn absorb_groups(powers: &[[u64; 5]; LANES], h: [u64; 5], data: &[u8]) -> [u64; 5] {
        debug_assert!(!data.is_empty() && data.len().is_multiple_of(GROUP));
        let r8 = multiplier(std::array::from_fn(|i| {
            _mm512_set1_epi64(powers[LANES - 1][i] as i64)
        }));
        let mut h: Limbs =
            std::array::from_fn(|i| _mm512_setr_epi64(h[i] as i64, 0, 0, 0, 0, 0, 0, 0));
        let mut groups = data.chunks_exact(GROUP);
        let last = groups.next_back().expect("at least one group");
        for group in groups {
            h = mul_reduce(add_group(h, group), &r8);
        }
        // Lane j of the last group is 8 − j blocks from the end.
        let by_lane = multiplier(std::array::from_fn(|i| {
            let p = |j: usize| powers[LANES - 1 - j][i] as i64;
            _mm512_setr_epi64(p(0), p(1), p(2), p(3), p(4), p(5), p(6), p(7))
        }));
        let h = mul_reduce(add_group(h, last), &by_lane);
        std::array::from_fn(|i| _mm512_reduce_add_epi64(h[i]) as u64)
    }
}

/// Computes the Poly1305 tag of `message` under the 32-byte one-time `key`.
pub fn poly1305(key: &[u8; 32], message: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    mac.update(message);
    mac.finalize()
}

/// Constant-time tag comparison.
pub fn tags_equal(a: &[u8; TAG_LEN], b: &[u8; TAG_LEN]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc8439_vector() {
        // RFC 8439 §2.5.2.
        let key: [u8; 32] = [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ];
        let msg = b"Cryptographic Forum Research Group";
        let tag = poly1305(&key, msg);
        let expect: [u8; 16] = [
            0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
            0x27, 0xa9,
        ];
        assert_eq!(tag, expect);
    }

    #[test]
    fn empty_message_tag_is_s() {
        // With an empty message the accumulator is zero, so tag == s.
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&[0xAB; 16]);
        assert_eq!(poly1305(&key, b""), [0xAB; 16]);
    }

    #[test]
    fn different_messages_different_tags() {
        let key = [0x42u8; 32];
        assert_ne!(poly1305(&key, b"hello"), poly1305(&key, b"hellp"));
    }

    #[test]
    fn block_boundaries() {
        let key = [0x11u8; 32];
        // Lengths spanning block boundaries must all be well-defined and
        // distinct with overwhelming probability.
        let msgs: Vec<Vec<u8>> = [15usize, 16, 17, 31, 32, 33]
            .iter()
            .map(|&n| vec![7u8; n])
            .collect();
        let tags: Vec<[u8; 16]> = msgs.iter().map(|m| poly1305(&key, m)).collect();
        for i in 0..tags.len() {
            for j in i + 1..tags.len() {
                assert_ne!(tags[i], tags[j]);
            }
        }
    }

    #[test]
    fn constant_time_compare() {
        assert!(tags_equal(&[1; 16], &[1; 16]));
        assert!(!tags_equal(&[1; 16], &[2; 16]));
        let mut b = [1u8; 16];
        b[15] = 0;
        assert!(!tags_equal(&[1; 16], &b));
    }
}
