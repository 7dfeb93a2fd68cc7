//! SHA-256 (FIPS 180-4) and HMAC-SHA-256 (RFC 2104).
//!
//! Used for Merkle-tree hashing, pseudonym derivation (`h_i = H(pk_i)`),
//! the Fiat–Shamir transform in `mycelium-zkp`, and the hop-selection PRF.
//! Bulk data — ciphertext digests, journal record checksums — goes through
//! [`striped`], which hashes up to sixteen stripes of its input side by
//! side on the widest [`Tier`] the CPU has.

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use mycelium_crypto::sha256::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        let bulk = data.len() / 64 * 64;
        if bulk > 0 {
            compress_blocks(&mut self.state, &data[..bulk]);
            data = &data[bulk..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finalizes and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finish(sha_ni_active())
    }

    /// [`Sha256::finalize`] with the dispatch decided by the caller (`ni`
    /// only where [`sha_ni_available`]), so tests drive both paths in one
    /// process. The padding is written after the buffered bytes whole
    /// ([`final_blocks`]) and compressed in one call.
    fn finish(mut self, ni: bool) -> Digest {
        let (blocks, end) = final_blocks(&self.buffer[..self.buffer_len], self.total_len);
        compress_on(ni, &mut self.state, &blocks[..end]);
        to_digest(&self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_blocks(&mut self.state, block);
    }
}

/// The last one or two blocks of a message of `len` bytes whose bytes past
/// its last whole block are `rest`: `rest`, `0x80`, zeros, and the bit
/// length — two blocks when `rest` holds 56 bytes or more and the length
/// spills over. Returns the blocks and how many of their bytes to compress.
fn final_blocks(rest: &[u8], len: u64) -> ([u8; 128], usize) {
    debug_assert!(rest.len() < 64);
    let mut blocks = [0u8; 128];
    blocks[..rest.len()].copy_from_slice(rest);
    blocks[rest.len()] = 0x80;
    let end = if rest.len() >= 56 { 128 } else { 64 };
    blocks[end - 8..end].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    (blocks, end)
}

fn to_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 of `lane` on one chain (the SHA extensions if `ni`, only ever
/// true where [`sha_ni_available`]), from a `state` that has absorbed its
/// first `done` bytes — whole blocks.
fn lane_digest(ni: bool, mut state: [u32; 8], lane: &[u8], done: usize) -> Digest {
    let whole = lane.len() / 64 * 64;
    compress_on(ni, &mut state, &lane[done..whole]);
    let (blocks, end) = final_blocks(&lane[whole..], lane.len() as u64);
    compress_on(ni, &mut state, &blocks[..end]);
    to_digest(&state)
}

/// Most stripes [`striped`] cuts its input into: one per lane of the widest
/// kernel.
const STRIPES: usize = 16;
/// The shortest stripe: an input of this many bytes or fewer is one leaf.
const MIN_STRIPE: usize = 1024;

/// A digest of bulk `data` under `domain`, hashed up to sixteen lanes wide:
///
/// ```text
/// S      = max(1024, ⌈len / 16⌉ rounded up to a multiple of 64)
/// stripe i = data[i·S .. min((i+1)·S, len)]       (1 to 16 stripes)
/// digest = SHA-256(domain ‖ len u64 LE ‖ stripe count u8 ‖ H(stripe 0) ‖ …)
/// ```
///
/// where `H` is plain SHA-256 — an empty input is one empty stripe. The
/// stripes are independent, so the leaves are computed side by side on the
/// widest [`Tier`] this host has ([`striped_tier`]). Every tier computes the
/// same FIPS 180-4 leaves, so the digest never depends on the host.
pub fn striped(domain: &[u8], data: &[u8]) -> Digest {
    striped_on(striped_tier(), domain, data)
}

/// [`striped`] with its leaves hashed on `tier`, so tests drive every tier
/// in one process.
fn striped_on(tier: Tier, domain: &[u8], data: &[u8]) -> Digest {
    let stripe = data
        .len()
        .div_ceil(STRIPES)
        .next_multiple_of(64)
        .max(MIN_STRIPE);
    // ⌈len / stripe⌉ ≤ 16, since stripe ≥ ⌈len / 16⌉.
    let mut stripes = [&data[..0]; STRIPES];
    let mut count = 1;
    for (i, s) in data.chunks(stripe).enumerate() {
        stripes[i] = s;
        count = i + 1;
    }
    let mut leaves = [[0u8; 32]; STRIPES];
    hash_lanes(tier, &stripes[..count], &mut leaves[..count]);
    let mut h = Sha256::new();
    h.update(domain);
    h.update(&(data.len() as u64).to_le_bytes());
    h.update(&[count as u8]);
    for leaf in &leaves[..count] {
        h.update(leaf);
    }
    h.finalize()
}

/// The kernels [`striped`] hashes its stripes on, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The portable rounds, one stripe at a time.
    Scalar,
    /// The SHA extensions, two stripes at a time as two interleaved chains.
    ShaNi,
    /// AVX-512F, sixteen stripes at once: one 32-bit lane each.
    Avx512,
}

impl Tier {
    /// The name the benchmarks record.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::ShaNi => "sha_ni",
            Tier::Avx512 => "avx512",
        }
    }
}

/// Whether the CPU has AVX-512F, whatever `MYC_NO_SIMD` says.
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Every tier this host can run, narrowest first, whatever `MYC_NO_SIMD`
/// says.
fn tiers() -> Vec<Tier> {
    let mut tiers = vec![Tier::Scalar];
    if sha_ni_available() {
        tiers.push(Tier::ShaNi);
    }
    if avx512_available() {
        tiers.push(Tier::Avx512);
    }
    tiers
}

/// The tier [`striped`] runs on, decided once per process: AVX-512F where
/// the CPU has it, else the SHA extensions, else — or under
/// `MYC_NO_SIMD=1` — the scalar rounds.
pub fn striped_tier() -> Tier {
    static TIER: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
    *TIER.get_or_init(|| {
        if mycelium_math::simd::simd_disabled_by_env() {
            Tier::Scalar
        } else {
            *tiers().last().expect("the scalar tier is always there")
        }
    })
}

/// SHA-256 of each of up to sixteen lanes, `out[l]` of `lanes[l]`, on
/// `tier` — or on the scalar rounds where the CPU lacks what `tier` needs,
/// which gives the same digests.
fn hash_lanes(tier: Tier, lanes: &[&[u8]], out: &mut [Digest]) {
    assert!(lanes.len() <= STRIPES && out.len() == lanes.len());
    #[cfg(target_arch = "x86_64")]
    match tier {
        // SAFETY: the guard checks the CPU has AVX-512F.
        Tier::Avx512 if avx512_available() => return unsafe { x16::hash_lanes(lanes, out) },
        // SAFETY: the guard checks the CPU has the SHA extensions.
        Tier::ShaNi if sha_ni_available() => return unsafe { ni::hash_lanes(lanes, out) },
        _ => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for (lane, d) in lanes.iter().zip(out) {
        *d = lane_digest(false, H0, lane, 0);
    }
}

/// Whether the CPU has the SHA extensions (and the SSE levels their kernel
/// uses), whatever `MYC_NO_SIMD` says.
fn sha_ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Whether the compression function of one chain runs on the SHA
/// extensions: decided once per process — the CPU has them and
/// `MYC_NO_SIMD=1` is not set. Both paths compute the identical FIPS 180-4
/// function, so no digest depends on the answer.
fn sha_ni_active() -> bool {
    static SHA_NI: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SHA_NI.get_or_init(|| !mycelium_math::simd::simd_disabled_by_env() && sha_ni_available())
}

/// Runs the compression function over `data` (a whole number of 64-byte
/// blocks) on the SHA extensions when [`sha_ni_active`], the portable
/// scalar rounds otherwise.
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    compress_on(sha_ni_active(), state, data);
}

/// [`compress_blocks`] on the SHA extensions if `ni` (only ever true where
/// [`sha_ni_available`]), on the scalar rounds if not.
fn compress_on(ni: bool, state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if ni {
        // SAFETY: callers pass `ni` only where `sha_ni_available()` holds.
        unsafe { ni::compress_blocks(state, data) };
        return;
    }
    for block in data.chunks_exact(64) {
        compress_scalar(state, block.try_into().expect("exact chunk"));
    }
}

/// Hardware SHA-256 rounds (x86 SHA extensions). The round/schedule
/// sequence follows the canonical two-lane `sha256rnds2` dataflow: state
/// rides in ABEF/CDGH register pairs, the 64 rounds run four at a time,
/// and `sha256msg1`/`sha256msg2` extend the message schedule in-register.
#[cfg(target_arch = "x86_64")]
mod ni {
    use core::arch::x86_64::*;

    use super::{lane_digest, Digest, H0};

    /// # Safety
    ///
    /// The CPU has the enabled features; `data` is whole 64-byte blocks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        compress_lanes([state], [data]);
    }

    /// SHA-256 of each lane, `out[l]` of `lanes[l]`, two lanes at a time:
    /// the whole blocks a pair has in common run as two interleaved chains
    /// (one chain of `sha256rnds2` waits on its own latency, two keep the
    /// unit busy), the rest of each lane on its own.
    ///
    /// # Safety
    ///
    /// The CPU has the enabled features.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn hash_lanes(lanes: &[&[u8]], out: &mut [Digest]) {
        for (pair, out) in lanes.chunks(2).zip(out.chunks_mut(2)) {
            let mut states = [H0; 2];
            let common = match pair {
                [x, y] => {
                    let common = x.len().min(y.len()) / 64 * 64;
                    let [a, b] = &mut states;
                    compress_lanes([a, b], [&x[..common], &y[..common]]);
                    common
                }
                _ => 0,
            };
            for ((lane, state), d) in pair.iter().zip(states).zip(out) {
                *d = lane_digest(true, state, lane, common);
            }
        }
    }

    /// The rounds of `L` independent `(state, blocks)` streams of one
    /// length, in lockstep: each step issues every lane's instructions
    /// before the next step, so the lanes' dependency chains overlap.
    ///
    /// # Safety
    ///
    /// The CPU has the enabled features; every `data[l]` is whole 64-byte
    /// blocks, as many as `data[0]`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    #[inline]
    unsafe fn compress_lanes<const L: usize>(states: [&mut [u32; 8]; L], data: [&[u8]; L]) {
        // Byte shuffle turning a little-endian 16-byte load into the four
        // big-endian message words of the block.
        let mask = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        );
        let zero = _mm_setzero_si128();
        // Pack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH lane layout the
        // sha256rnds2 instruction consumes.
        let (mut abef, mut cdgh) = ([zero; L], [zero; L]);
        for l in 0..L {
            let tmp = _mm_shuffle_epi32(_mm_loadu_si128(states[l].as_ptr().cast()), 0xB1);
            let c = _mm_shuffle_epi32(_mm_loadu_si128(states[l].as_ptr().add(4).cast()), 0x1B);
            abef[l] = _mm_alignr_epi8(tmp, c, 8);
            cdgh[l] = _mm_blend_epi16(c, tmp, 0xF0);
        }

        for block in 0..data[0].len() / 64 {
            let (abef_save, cdgh_save) = (abef, cdgh);
            let mut msg = [[zero; 4]; L];
            for l in 0..L {
                let p = data[l].as_ptr().add(64 * block);
                for (j, m) in msg[l].iter_mut().enumerate() {
                    *m = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16 * j).cast()), mask);
                }
            }
            for i in 0..16 {
                let k = _mm_loadu_si128(super::K.as_ptr().add(i * 4).cast());
                for l in 0..L {
                    let msg = &mut msg[l];
                    let wk = _mm_add_epi32(msg[i & 3], k);
                    cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk);
                    abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32(wk, 0x0E));
                    if i < 12 {
                        // w[j..j+4] for the round group four ahead:
                        // msg2(msg1(w0,w1) + alignr(w3,w2,4), w3).
                        let m0 = msg[i & 3];
                        let m1 = msg[(i + 1) & 3];
                        let m2 = msg[(i + 2) & 3];
                        let m3 = msg[(i + 3) & 3];
                        msg[i & 3] = _mm_sha256msg2_epu32(
                            _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4)),
                            m3,
                        );
                    }
                }
            }
            for l in 0..L {
                abef[l] = _mm_add_epi32(abef[l], abef_save[l]);
                cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_save[l]);
            }
        }

        for l in 0..L {
            let tmp = _mm_shuffle_epi32(abef[l], 0x1B);
            let dchg = _mm_shuffle_epi32(cdgh[l], 0xB1);
            let state = states[l].as_mut_ptr();
            _mm_storeu_si128(state.cast(), _mm_blend_epi16(tmp, dchg, 0xF0));
            _mm_storeu_si128(state.add(4).cast(), _mm_alignr_epi8(dchg, tmp, 8));
        }
    }
}

/// Sixteen SHA-256 chains in the sixteen 32-bit lanes of the AVX-512
/// registers: lane `l` of `a`…`h` is the state of message `l`, lane `l` of
/// message word `w[t]` is word `t` of its current block. Every step is one
/// instruction for all sixteen: `vprord` rotates, `vpternlogd` folds the
/// three-way XORs, `Ch` and `Maj`.
#[cfg(target_arch = "x86_64")]
mod x16 {
    use core::arch::x86_64::*;

    use super::{final_blocks, Digest, H0, K, STRIPES};

    /// SHA-256 of each of up to sixteen lanes of any lengths, `out[l]` of
    /// `lanes[l]`. A lane's whole blocks are read in place; its bytes past
    /// them and the padding are staged by [`final_blocks`]. Once a lane's
    /// blocks run out it reads a zero block and its state ignores the
    /// result, so lanes of different lengths share one pass.
    ///
    /// # Safety
    ///
    /// The CPU has AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn hash_lanes(lanes: &[&[u8]], out: &mut [Digest]) {
        assert!(lanes.len() <= STRIPES && out.len() == lanes.len());
        let mut tails = [([0u8; 128], 0usize); STRIPES];
        let mut whole = [0usize; STRIPES];
        let mut blocks = [0usize; STRIPES];
        for (l, lane) in lanes.iter().enumerate() {
            whole[l] = lane.len() / 64;
            tails[l] = final_blocks(&lane[64 * whole[l]..], lane.len() as u64);
            blocks[l] = whole[l] + tails[l].1 / 64;
        }
        let zero = [0u8; 64];
        let mut state = H0.map(|h| _mm512_set1_epi32(h as i32));
        for b in 0..blocks.iter().copied().max().unwrap_or(0) {
            let mut rows = [&zero; STRIPES];
            let mut live = 0u16;
            for (l, lane) in lanes.iter().enumerate() {
                let block = if b < whole[l] {
                    &lane[64 * b..64 * b + 64]
                } else if b < blocks[l] {
                    &tails[l].0[64 * (b - whole[l])..64 * (b - whole[l]) + 64]
                } else {
                    continue;
                };
                rows[l] = block.try_into().expect("a 64-byte slice");
                live |= 1 << l;
            }
            let worked = rounds(state, load_transposed(&rows));
            for (s, x) in state.iter_mut().zip(worked) {
                *s = _mm512_mask_add_epi32(*s, live, *s, x);
            }
        }
        let mut words = [[0u32; STRIPES]; 8];
        for (w, s) in words.iter_mut().zip(state) {
            _mm512_storeu_si512(w.as_mut_ptr().cast(), s);
        }
        for (l, d) in out.iter_mut().enumerate() {
            for (i, w) in words.iter().enumerate() {
                d[4 * i..4 * i + 4].copy_from_slice(&w[l].to_be_bytes());
            }
        }
    }

    /// The sixteen big-endian message words of sixteen blocks, transposed:
    /// lane `l` of word `t` is word `t` of `rows[l]`. Two rounds of 32-bit
    /// and 64-bit unpacks gather four rows' column within each 128-bit
    /// quarter; two rounds of quarter shuffles put the quarters in row
    /// order.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load_transposed(rows: &[&[u8; 64]; STRIPES]) -> [__m512i; 16] {
        let zero = _mm512_setzero_si512();
        let mut r = [zero; 16];
        for (r, row) in r.iter_mut().zip(rows) {
            *r = bswap(_mm512_loadu_si512(row.as_ptr().cast()));
        }
        // a[2i], a[2i+1]: rows 2i and 2i+1 interleaved, columns 4k, 4k+1
        // and 4k+2, 4k+3 of quarter k.
        let mut a = [zero; 16];
        for i in 0..8 {
            a[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
            a[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
        }
        // c[4g + j], quarter k: rows 4g..4g+4 of column 4k + j.
        let mut c = [zero; 16];
        for g in 0..4 {
            c[4 * g] = _mm512_unpacklo_epi64(a[4 * g], a[4 * g + 2]);
            c[4 * g + 1] = _mm512_unpackhi_epi64(a[4 * g], a[4 * g + 2]);
            c[4 * g + 2] = _mm512_unpacklo_epi64(a[4 * g + 1], a[4 * g + 3]);
            c[4 * g + 3] = _mm512_unpackhi_epi64(a[4 * g + 1], a[4 * g + 3]);
        }
        // w[4k + j]: quarter k of c[j], c[4 + j], c[8 + j], c[12 + j].
        let mut w = [zero; 16];
        for j in 0..4 {
            let lo0 = _mm512_shuffle_i32x4::<0x44>(c[j], c[4 + j]);
            let hi0 = _mm512_shuffle_i32x4::<0xEE>(c[j], c[4 + j]);
            let lo1 = _mm512_shuffle_i32x4::<0x44>(c[8 + j], c[12 + j]);
            let hi1 = _mm512_shuffle_i32x4::<0xEE>(c[8 + j], c[12 + j]);
            w[j] = _mm512_shuffle_i32x4::<0x88>(lo0, lo1);
            w[4 + j] = _mm512_shuffle_i32x4::<0xDD>(lo0, lo1);
            w[8 + j] = _mm512_shuffle_i32x4::<0x88>(hi0, hi1);
            w[12 + j] = _mm512_shuffle_i32x4::<0xDD>(hi0, hi1);
        }
        w
    }

    /// Reverses the bytes of each 32-bit lane: bytes 0 and 2 of the result
    /// come from the word rotated left by 8, bytes 1 and 3 from it rotated
    /// right by 8.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn bswap(x: __m512i) -> __m512i {
        let even = _mm512_set1_epi32(0x00FF_00FF);
        _mm512_ternarylogic_epi32::<0xCA>(even, _mm512_rol_epi32::<8>(x), _mm512_ror_epi32::<8>(x))
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
        _mm512_ternarylogic_epi32::<0x96>(a, b, c)
    }

    /// The 64 rounds over one block per lane, the message schedule rolling
    /// through `w`; returns the working variables, which the caller adds
    /// into the state of the lanes that had a block. The sixteen rounds of
    /// a group are written out, so every index into `w` is a constant and
    /// the schedule stays in registers.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn rounds(state: [__m512i; 8], mut w: [__m512i; 16]) -> [__m512i; 8] {
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
        for (group, k) in K.chunks_exact(16).enumerate() {
            macro_rules! round {
                ($j:literal) => {
                    if group > 0 {
                        // w[i] = w[i−16] + σ0(w[i−15]) + w[i−7] + σ1(w[i−2]).
                        let (w15, w2) = (w[($j + 1) % 16], w[($j + 14) % 16]);
                        let s0 = xor3(
                            _mm512_ror_epi32::<7>(w15),
                            _mm512_ror_epi32::<18>(w15),
                            _mm512_srli_epi32::<3>(w15),
                        );
                        let s1 = xor3(
                            _mm512_ror_epi32::<17>(w2),
                            _mm512_ror_epi32::<19>(w2),
                            _mm512_srli_epi32::<10>(w2),
                        );
                        let sum = _mm512_add_epi32(_mm512_add_epi32(w[$j], s0), w[($j + 9) % 16]);
                        w[$j] = _mm512_add_epi32(sum, s1);
                    }
                    let s1 = xor3(
                        _mm512_ror_epi32::<6>(e),
                        _mm512_ror_epi32::<11>(e),
                        _mm512_ror_epi32::<25>(e),
                    );
                    let ch = _mm512_ternarylogic_epi32::<0xCA>(e, f, g);
                    let kw = _mm512_add_epi32(_mm512_set1_epi32(k[$j] as i32), w[$j]);
                    let t1 = _mm512_add_epi32(_mm512_add_epi32(h, s1), _mm512_add_epi32(ch, kw));
                    let s0 = xor3(
                        _mm512_ror_epi32::<2>(a),
                        _mm512_ror_epi32::<13>(a),
                        _mm512_ror_epi32::<22>(a),
                    );
                    let maj = _mm512_ternarylogic_epi32::<0xE8>(a, b, c);
                    h = g;
                    g = f;
                    f = e;
                    e = _mm512_add_epi32(d, t1);
                    d = c;
                    c = b;
                    b = a;
                    a = _mm512_add_epi32(t1, _mm512_add_epi32(s0, maj));
                };
            }
            round!(0);
            round!(1);
            round!(2);
            round!(3);
            round!(4);
            round!(5);
            round!(6);
            round!(7);
            round!(8);
            round!(9);
            round!(10);
            round!(11);
            round!(12);
            round!(13);
            round!(14);
            round!(15);
        }
        [a, b, c, d, e, f, g, h]
    }
}

fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several byte strings.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// HMAC-SHA-256 (RFC 2104).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    let ipad: Vec<u8> = k.iter().map(|&b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    let opad: Vec<u8> = k.iter().map(|&b| b ^ 0x5c).collect();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        // NIST FIPS 180-4 test vectors.
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_input() {
        // One million 'a' characters (FIPS long vector).
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        // RFC 4231 test case 1.
        let key = [0x0bu8; 20];
        let msg = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // RFC 4231 test case 2 ("Jefe").
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // RFC 4231 test case 6: key longer than the block size.
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// Both single-chain dispatches this host can run: the scalar rounds
    /// always, the SHA extensions where the CPU has them — whatever
    /// `MYC_NO_SIMD` says, so one run checks both.
    fn ni_paths() -> Vec<bool> {
        let mut paths = vec![false];
        if sha_ni_available() {
            paths.push(true);
        }
        paths
    }

    fn bytes(len: usize, salt: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13 ^ salt) as u8)
            .collect()
    }

    /// SHA-256 by the book: the padded message in a vector, one block at a
    /// time through `compress_scalar`.
    fn by_the_book(data: &[u8]) -> Digest {
        let mut m = data.to_vec();
        m.push(0x80);
        while m.len() % 64 != 56 {
            m.push(0);
        }
        m.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in m.chunks_exact(64) {
            compress_scalar(&mut state, block.try_into().unwrap());
        }
        to_digest(&state)
    }

    /// `hash_lanes` on `tier` against `by_the_book`, lane by lane.
    fn check_lanes(tier: Tier, lanes: &[&[u8]]) {
        let mut out = vec![[0u8; 32]; lanes.len()];
        hash_lanes(tier, lanes, &mut out);
        for (l, (lane, got)) in lanes.iter().zip(&out).enumerate() {
            let lengths: Vec<usize> = lanes.iter().map(|x| x.len()).collect();
            assert_eq!(*got, by_the_book(lane), "{tier:?}, lane {l} of {lengths:?}");
        }
    }

    #[test]
    fn every_tier_hashes_the_fips_vectors() {
        let million = vec![b'a'; 1_000_000];
        let lanes: [&[u8]; 4] = [
            b"abc",
            b"",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            &million,
        ];
        let want = [
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ];
        for tier in tiers() {
            let mut out = [[0u8; 32]; 4];
            hash_lanes(tier, &lanes, &mut out);
            assert_eq!(out.map(|d| hex(&d)), want, "{tier:?}");
        }
    }

    #[test]
    fn every_tier_matches_the_scalar_rounds_at_every_lane_length_to_1_kib() {
        let data: Vec<Vec<u8>> = (0..STRIPES as u32).map(|l| bytes(1024, l)).collect();
        for tier in tiers() {
            for len in 0..=1024 {
                let lanes: Vec<&[u8]> = data.iter().map(|d| &d[..len]).collect();
                check_lanes(tier, &lanes);
            }
        }
    }

    #[test]
    fn every_tier_matches_on_ragged_lanes_at_every_padding_boundary() {
        let data: Vec<Vec<u8>> = (0..STRIPES as u32).map(|l| bytes(5000, 16 + l)).collect();
        // Past a whole block: nothing, one byte, the last byte the length
        // fits behind (55), the first it spills over (56), a full tail (63).
        let past = [0, 1, 55, 56, 57, 63, 64, 65, 119, 120];
        for tier in tiers() {
            for blocks in [0, 1, 2, 16, 60] {
                // Sixteen lanes, each a different distance past the block.
                let lanes: Vec<&[u8]> = (0..STRIPES)
                    .map(|l| &data[l][..64 * blocks + past[l % past.len()]])
                    .collect();
                check_lanes(tier, &lanes);
                // Every lane count, the lanes in decreasing length.
                for count in 1..=STRIPES {
                    let lanes: Vec<&[u8]> = (0..count)
                        .map(|l| &data[l][..64 * (blocks + count - l) + past[l % past.len()]])
                        .collect();
                    check_lanes(tier, &lanes);
                }
            }
            // Stripe shapes: fifteen whole stripes and a short last one, a
            // lone empty lane, one long lane among empty ones.
            let ragged: Vec<&[u8]> = (0..STRIPES)
                .map(|l| &data[l][..if l < 15 { 3904 } else { 2884 }])
                .collect();
            check_lanes(tier, &ragged);
            check_lanes(tier, &[b""]);
            let mut lone: Vec<&[u8]> = vec![b""; STRIPES];
            lone[7] = &data[7];
            check_lanes(tier, &lone);
        }
    }

    /// `striped` by its definition, from one-shot SHA-256 of each stripe.
    fn striped_by_definition(domain: &[u8], data: &[u8]) -> Digest {
        let stripe = (data.len().div_ceil(16).div_ceil(64) * 64).max(1024);
        let mut leaves: Vec<Digest> = data.chunks(stripe).map(sha256).collect();
        if leaves.is_empty() {
            leaves.push(sha256(b""));
        }
        assert!(leaves.len() <= 16);
        let len = (data.len() as u64).to_le_bytes();
        sha256_concat(&[domain, &len, &[leaves.len() as u8], &leaves.concat()])
    }

    #[test]
    fn striped_is_its_definition_on_every_tier() {
        let data = bytes((1 << 20) + 100, 40);
        let lengths = [
            0,
            1,
            1023,
            1024,
            1025,
            2048,
            16 * 1024 - 1,
            16 * 1024,
            16 * 1024 + 1,
            16 * 1024 + 64,
            16 * 1088 + 1,
            61_444,
            62 * 1024,
            100_003,
            (1 << 20) + 100,
        ];
        for tier in tiers() {
            for len in lengths {
                let (domain, data) = (b"myc-test-v1", &data[..len]);
                let want = striped_by_definition(domain, data);
                assert_eq!(
                    striped_on(tier, domain, data),
                    want,
                    "{tier:?}, {len} bytes"
                );
            }
        }
        assert_eq!(
            striped(b"d", &data[..5000]),
            striped_by_definition(b"d", &data[..5000])
        );
    }

    #[test]
    fn striped_binds_its_domain_length_and_every_stripe() {
        let data = bytes(40_000, 41);
        let base = striped(b"domain", &data);
        assert_ne!(striped(b"domaiN", &data), base);
        // The same stripe count, one byte shorter.
        assert_ne!(striped(b"domain", &data[..39_999]), base);
        // One byte in each stripe (2560 bytes long at 40 000 bytes).
        for stripe in 0..16 {
            let mut moved = data.clone();
            moved[2560 * stripe + 17] ^= 1;
            assert_ne!(striped(b"domain", &moved), base, "stripe {stripe}");
        }
    }

    /// The reference padding: `0x80`, then one zero byte at a time up to
    /// offset 56, then the bit length, each through `update`.
    fn finalize_bytewise(mut h: Sha256) -> Digest {
        let bit_len = h.total_len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buffer_len != 56 {
            h.update(&[0]);
        }
        h.update(&bit_len.to_be_bytes());
        assert_eq!(h.buffer_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in h.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn one_step_padding_matches_bytewise_padding_at_every_length() {
        let data = bytes((64 << 10) + 1, 10);
        let lengths = (0..=200).chain([(64 << 10) - 1, 64 << 10, (64 << 10) + 1]);
        for ni in ni_paths() {
            for len in lengths.clone() {
                let mut h = Sha256::new();
                h.update(&data[..len]);
                let want = finalize_bytewise(h.clone());
                assert_eq!(h.finish(ni), want, "ni {ni}, length {len}");
            }
        }
    }

    #[test]
    fn concat_matches_joined() {
        assert_eq!(
            sha256_concat(&[b"foo", b"bar", b"baz"]),
            sha256(b"foobarbaz")
        );
    }
}
