//! In-tree deterministic randomness (zero external dependencies).
//!
//! The workspace builds offline, so instead of the `rand` crate this module
//! provides the small surface the codebase actually uses: a [`RngCore`]
//! source trait, an ergonomic [`Rng`] extension (ranges, floats, bools,
//! byte-filling), a [`SeedableRng`] constructor trait, and [`StdRng`] — a
//! ChaCha20-keystream generator on the kernels of [`crate::chacha`], the
//! same ones `mycelium-crypto`'s RFC 8439 cipher runs.
//!
//! Determinism is load-bearing: the executor derives one RNG *stream* per
//! device from a master seed (`StdRng::from_seed(SHA256(seed ‖ id))`), so
//! parallel runs are bit-identical at any thread count.

use std::ops::{Range, RangeInclusive};

use crate::chacha;

/// A source of uniform random words and bytes.
pub trait RngCore {
    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);

    /// Fills `out` with the words `out.len()` calls of
    /// [`RngCore::next_u64`] would return, in order, leaving the source
    /// where they would.
    fn fill_u64(&mut self, out: &mut [u64]) {
        for w in out {
            *w = self.next_u64();
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn fill_u64(&mut self, out: &mut [u64]) {
        (**self).fill_u64(out)
    }
}

/// Types samplable uniformly from an RNG via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Uniform below `n` (`n > 0`) without modulo bias, by rejection.
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n.is_power_of_two() {
        return rng.next_u64() & (n - 1);
    }
    // Reject the tail of the 2^64 range that would skew small values.
    let zone = u64::MAX - (u64::MAX - n + 1) % n;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % n;
        }
    }
}

/// Range types usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_u64_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_u64_below(rng, span + 1) as $t
            }
        }
    )*};
}
impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(uniform_u64_below(rng, span) as i64) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i64).wrapping_add(uniform_u64_below(rng, span + 1) as i64) as $t
            }
        }
    )*};
}
impl_range_int!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// Ergonomic sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` (integers, `bool`, unit-interval floats).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from a range (`a..b` or `a..=b`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Fills a byte buffer with uniform bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed via SplitMix64 (convenient for
    /// tests; streams from nearby integers are uncorrelated).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            // SplitMix64 step.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Blocks one refill computes: one group of the widest keystream kernel.
const BUF_BLOCKS: usize = chacha::WIDEST;
/// Bytes one refill buffers.
const BUF_LEN: usize = BUF_BLOCKS * chacha::BLOCK;

/// Writes the [`BUF_BLOCKS`] keystream blocks `counter..` of `(key,
/// stream)` into `out`: 64-bit block counter in words 12–13 and 64-bit
/// stream id in words 14–15 (the original djb layout, not the IETF 32/96
/// split — the counter never wraps for any realistic keystream length).
fn keystream(tier: &chacha::Tier, key: &[u32; 8], counter: u64, stream: u64, out: &mut [u8]) {
    debug_assert_eq!(out.len(), BUF_LEN);
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&chacha::SIGMA);
    state[4..12].copy_from_slice(key);
    state[14] = stream as u32;
    state[15] = (stream >> 32) as u32;
    out.fill(0);
    // The kernels count blocks in word 12 alone. One call covers the whole
    // buffer unless the low counter word would wrap inside it (once per
    // 256 GiB of keystream); then each block gets its own carried counter.
    let whole = (counter as u32)
        .checked_add(BUF_BLOCKS as u32 - 1)
        .is_some();
    let step = if whole { BUF_LEN } else { chacha::BLOCK };
    for (b, blocks) in out.chunks_mut(step).enumerate() {
        let at = counter.wrapping_add((b * step / chacha::BLOCK) as u64);
        state[12] = at as u32;
        state[13] = (at >> 32) as u32;
        (tier.xor)(&mut state, blocks);
    }
}

/// The tier [`StdRng`] refills on, chosen once per process: the widest the
/// CPU offers, or the portable one under `MYC_NO_SIMD`. Every tier
/// produces the same keystream.
fn active_tier() -> &'static chacha::Tier {
    static ACTIVE: std::sync::OnceLock<chacha::Tier> = std::sync::OnceLock::new();
    ACTIVE.get_or_init(|| {
        let tiers = chacha::tiers();
        if crate::simd::simd_disabled_by_env() {
            tiers[0]
        } else {
            *tiers.last().expect("the portable tier is always there")
        }
    })
}

/// The workspace's standard deterministic generator: a ChaCha20 keystream,
/// refilled [`BUF_BLOCKS`] blocks at a time.
#[derive(Debug, Clone)]
pub struct StdRng {
    key: [u32; 8],
    stream: u64,
    counter: u64,
    buf: [u8; BUF_LEN],
    idx: usize,
}

impl StdRng {
    /// Builds a generator on an independent keystream of the same seed.
    ///
    /// Streams with distinct ids never overlap — used to give every device
    /// its own reproducible randomness.
    pub fn with_stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self.counter = 0;
        self.idx = BUF_LEN;
        self
    }

    fn refill(&mut self) {
        keystream(
            active_tier(),
            &self.key,
            self.counter,
            self.stream,
            &mut self.buf,
        );
        self.counter = self.counter.wrapping_add(BUF_BLOCKS as u64);
        self.idx = 0;
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            *k = u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().unwrap());
        }
        Self {
            key,
            stream: 0,
            counter: 0,
            buf: [0; BUF_LEN],
            idx: BUF_LEN,
        }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        // A word never straddles two keystream blocks: what a byte-wise
        // read left of the current block is skipped, as when every refill
        // was one block.
        let used = self.idx % chacha::BLOCK;
        if used + 8 > chacha::BLOCK {
            self.idx += chacha::BLOCK - used;
        }
        if self.idx >= BUF_LEN {
            self.refill();
        }
        let v = u64::from_le_bytes(self.buf[self.idx..self.idx + 8].try_into().unwrap());
        self.idx += 8;
        v
    }

    /// Copies whole words out of the buffer while the read offset is
    /// 8-aligned: an aligned word never straddles a block. Elsewhere (after
    /// a byte-wise read) it steps with `next_u64` until it is aligned.
    fn fill_u64(&mut self, out: &mut [u64]) {
        let mut done = 0;
        while done < out.len() {
            if !self.idx.is_multiple_of(8) || self.idx >= BUF_LEN {
                out[done] = self.next_u64();
                done += 1;
                continue;
            }
            let words = self.buf[self.idx..].chunks_exact(8);
            let take = words.len().min(out.len() - done);
            for (w, bytes) in out[done..done + take].iter_mut().zip(words) {
                *w = u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
            }
            self.idx += 8 * take;
            done += take;
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.idx >= BUF_LEN {
                self.refill();
            }
            let take = (BUF_LEN - self.idx).min(dest.len() - filled);
            dest[filled..filled + take].copy_from_slice(&self.buf[self.idx..self.idx + take]);
            self.idx += take;
            filled += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One 64-byte block, the textbook way: the reference the wide refill
    /// is pinned to.
    fn reference_block(key: &[u32; 8], counter: u64, stream: u64) -> [u8; 64] {
        fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        }
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&chacha::SIGMA);
        state[4..12].copy_from_slice(key);
        state[12] = counter as u32;
        state[13] = (counter >> 32) as u32;
        state[14] = stream as u32;
        state[15] = (stream >> 32) as u32;
        let mut x = state;
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
        let mut out = [0u8; 64];
        for i in 0..16 {
            out[4 * i..4 * i + 4].copy_from_slice(&x[i].wrapping_add(state[i]).to_le_bytes());
        }
        out
    }

    /// The generator as it was when every refill was one block.
    struct OneBlockRng {
        key: [u32; 8],
        stream: u64,
        counter: u64,
        buf: [u8; 64],
        idx: usize,
    }

    impl OneBlockRng {
        fn like(rng: &StdRng) -> Self {
            assert_eq!(rng.idx, BUF_LEN, "mirror a generator before its first draw");
            Self {
                key: rng.key,
                stream: rng.stream,
                counter: rng.counter,
                buf: [0; 64],
                idx: 64,
            }
        }
        fn refill(&mut self) {
            self.buf = reference_block(&self.key, self.counter, self.stream);
            self.counter = self.counter.wrapping_add(1);
            self.idx = 0;
        }
    }

    impl RngCore for OneBlockRng {
        fn next_u64(&mut self) -> u64 {
            if self.idx + 8 > 64 {
                self.refill();
            }
            let v = u64::from_le_bytes(self.buf[self.idx..self.idx + 8].try_into().unwrap());
            self.idx += 8;
            v
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for b in dest.iter_mut() {
                if self.idx >= 64 {
                    self.refill();
                }
                *b = self.buf[self.idx];
                self.idx += 1;
            }
        }
    }

    #[test]
    fn wide_refill_is_the_one_block_keystream() {
        for seed in [0u64, 42, 0xDEAD_BEEF_F00D] {
            for stream in [0u64, 1, u64::MAX - 7] {
                let mut rng = StdRng::seed_from_u64(seed).with_stream(stream);
                let mut want = OneBlockRng::like(&rng);
                for i in 0..10_000 {
                    assert_eq!(rng.next_u64(), want.next_u64(), "word {i}");
                }
                // Odd-length byte reads between words: a word never
                // straddles a 64-byte block, bytes run on without gaps.
                for len in [1usize, 3, 7, 13, 61, 64, 65, 127, 509, 1031] {
                    let (mut got, mut exp) = (vec![0u8; len], vec![0u8; len]);
                    rng.fill_bytes(&mut got);
                    want.fill_bytes(&mut exp);
                    assert_eq!(got, exp, "fill_bytes({len})");
                    for _ in 0..9 {
                        assert_eq!(rng.next_u64(), want.next_u64(), "after fill_bytes({len})");
                    }
                }
                // A clone taken mid-buffer continues the same stream.
                let mut twin = rng.clone();
                for _ in 0..200 {
                    let w = want.next_u64();
                    assert_eq!(rng.next_u64(), w);
                    assert_eq!(twin.next_u64(), w);
                }
            }
        }
    }

    #[test]
    fn fill_u64_is_next_u64_repeated() {
        // From every offset a byte-wise read of 0..=72 bytes leaves (most
        // unaligned, some past the first block), on a fresh stream and on
        // one whose low counter word wraps inside its first refill; the
        // lengths together cross many refills.
        let fresh = StdRng::seed_from_u64(0xF111).with_stream(3);
        let mut wrapping = fresh.clone();
        wrapping.counter = (1u64 << 32) - 5;
        for (name, start) in [("fresh", fresh), ("wrapping", wrapping)] {
            for skip in 0..=72usize {
                let mut a = start.clone();
                a.fill_bytes(&mut vec![0u8; skip]);
                for k in [0usize, 1, 7, 128, 1000, 4096] {
                    let mut b = a.clone();
                    let mut got = vec![0u64; k];
                    a.fill_u64(&mut got);
                    let want: Vec<u64> = (0..k).map(|_| b.next_u64()).collect();
                    assert_eq!(got, want, "{name}: fill_u64({k}) after {skip} bytes");
                    assert_eq!(
                        (a.idx, a.counter, a.buf),
                        (b.idx, b.counter, b.buf),
                        "{name}: state after fill_u64({k}) after {skip} bytes"
                    );
                }
            }
        }
    }

    #[test]
    fn fill_u64_reaches_the_source_through_a_reference() {
        struct Counting(usize);
        impl RngCore for Counting {
            fn next_u64(&mut self) -> u64 {
                0
            }
            fn fill_bytes(&mut self, _: &mut [u8]) {}
            fn fill_u64(&mut self, _: &mut [u64]) {
                self.0 += 1;
            }
        }
        fn generic<R: RngCore>(mut rng: R) {
            rng.fill_u64(&mut [0; 4]);
        }
        let mut source = Counting(0);
        generic(&mut source);
        generic(&mut &mut source);
        assert_eq!(source.0, 2, "the blanket impl must forward fill_u64");
    }

    #[test]
    fn every_keystream_tier_matches_the_reference_blocks() {
        let key: [u32; 8] = std::array::from_fn(|i| 0x0101_0101u32.wrapping_mul(i as u32 + 3));
        // Plain counters, and the three ways the low counter word can wrap
        // inside or at the edge of one refill.
        let wrap = 1u64 << 32;
        for counter in [0u64, 8, wrap - 8, wrap - 7, wrap - 1, wrap, 5 * wrap - 3] {
            for stream in [0u64, 9, u64::MAX] {
                let want: Vec<u8> = (0..BUF_BLOCKS as u64)
                    .flat_map(|b| reference_block(&key, counter + b, stream))
                    .collect();
                for tier in chacha::tiers() {
                    let mut got = vec![0xA5u8; BUF_LEN];
                    keystream(&tier, &key, counter, stream, &mut got);
                    assert_eq!(got, want, "{} counter={counter:#x}", tier.name);
                }
            }
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn streams_are_independent() {
        let base = StdRng::seed_from_u64(7);
        let mut s1 = base.clone().with_stream(1);
        let mut s2 = base.clone().with_stream(2);
        let mut s1b = base.clone().with_stream(1);
        assert_ne!(s1.next_u64(), s2.next_u64());
        let mut s1 = base.with_stream(1);
        for _ in 0..32 {
            assert_eq!(s1.next_u64(), s1b.next_u64());
        }
    }

    #[test]
    fn fill_bytes_matches_word_stream() {
        // fill_bytes consumes the same keystream as next_u64.
        let mut a = StdRng::seed_from_u64(5);
        let mut bytes = [0u8; 16];
        a.fill_bytes(&mut bytes);
        let mut b = StdRng::seed_from_u64(5);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        assert_eq!(&bytes[..8], &w0);
        assert_eq!(&bytes[8..], &w1);
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(0usize..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v = r.gen_range(-3i64..=3);
            assert!((-3..=3).contains(&v));
        }
        for _ in 0..1000 {
            let f = r.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_unbiased_mean() {
        let mut r = StdRng::seed_from_u64(2);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| r.gen_range(0u64..100)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 49.5).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn bool_is_balanced() {
        let mut r = StdRng::seed_from_u64(3);
        let trues = (0..10_000).filter(|_| r.gen::<bool>()).count();
        assert!((4700..5300).contains(&trues), "trues {trues}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(4);
        let _ = r.gen_range(5u64..5);
    }
}
