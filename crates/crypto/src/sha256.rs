//! SHA-256 (FIPS 180-4) and HMAC-SHA-256 (RFC 2104).
//!
//! Used for Merkle-tree hashing, pseudonym derivation (`h_i = H(pk_i)`),
//! the Fiat–Shamir transform in `mycelium-zkp`, and the hop-selection PRF.

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
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buffer_len != 56 {
            // Note: `update` keeps `total_len` moving, but we captured the
            // bit length before padding, as the spec requires.
            self.update(&[0]);
        }
        let len_bytes = bit_len.to_be_bytes();
        self.update(&len_bytes);
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_blocks(&mut self.state, block);
    }
}

/// Absorbs `x` into `a` and `y` into `b` — the same as `a.update(x);
/// b.update(y)`. When both hashers sit at the same offset into their block
/// and `x.len() == y.len()` (two parts of one ciphertext always do), their
/// whole blocks run through the SHA extensions as two interleaved chains:
/// one chain of `sha256rnds2` waits on its own latency, two keep the unit
/// busy. Any other shape, or no SHA-NI, is the two updates.
pub fn update_pair(a: &mut Sha256, x: &[u8], b: &mut Sha256, y: &[u8]) {
    pair_update(sha_ni_active(), a, x, b, y);
}

/// [`update_pair`] with the dispatch decided by the caller (`ni` only where
/// [`sha_ni_available`]), so tests drive both paths in one process.
fn pair_update(ni: bool, a: &mut Sha256, x: &[u8], b: &mut Sha256, y: &[u8]) {
    if !ni || a.buffer_len != b.buffer_len || x.len() != y.len() {
        a.update(x);
        b.update(y);
        return;
    }
    // Top both buffers up to a block boundary (or take all the input):
    // they fill, and compress, in step.
    let head = ((64 - a.buffer_len) % 64).min(x.len());
    a.update(&x[..head]);
    b.update(&y[..head]);
    let (x, y) = (&x[head..], &y[head..]);
    let bulk = x.len() / 64 * 64;
    if bulk > 0 {
        debug_assert!(a.buffer_len == 0 && b.buffer_len == 0);
        a.total_len = a.total_len.wrapping_add(bulk as u64);
        b.total_len = b.total_len.wrapping_add(bulk as u64);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `ni` is only ever true where `sha_ni_available()` holds,
        // and both slices are the same `bulk` bytes: whole blocks.
        unsafe {
            ni::compress_blocks_pair(&mut a.state, &x[..bulk], &mut b.state, &y[..bulk])
        };
    }
    a.update(&x[bulk..]);
    b.update(&y[bulk..]);
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

/// Whether the compression function runs on the SHA extensions: decided
/// once per process — the CPU has them and `MYC_NO_SIMD=1` is not set.
/// Both paths compute the identical FIPS 180-4 function, so no digest
/// depends on the answer.
pub fn sha_ni_active() -> bool {
    static SHA_NI: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SHA_NI.get_or_init(|| !mycelium_math::simd::simd_disabled_by_env() && sha_ni_available())
}

/// Runs the compression function over `data` (a whole number of 64-byte
/// blocks) on the SHA extensions when [`sha_ni_active`], the portable
/// scalar rounds otherwise.
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if sha_ni_active() {
        // SAFETY: feature presence checked by `sha_ni_active`.
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

    /// # Safety
    ///
    /// The CPU has the enabled features; `data` is whole 64-byte blocks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        compress_lanes([state], [data]);
    }

    /// Two independent streams at once.
    ///
    /// # Safety
    ///
    /// The CPU has the enabled features; `x` and `y` are whole 64-byte
    /// blocks, as many of each.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks_pair(
        a: &mut [u32; 8],
        x: &[u8],
        b: &mut [u32; 8],
        y: &[u8],
    ) {
        assert_eq!(x.len(), y.len(), "both lanes read as many blocks");
        compress_lanes([a, b], [x, y]);
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

    /// Both dispatches of [`pair_update`] this host can run: the two
    /// updates always, the pair kernel where the CPU has SHA-NI — whatever
    /// `MYC_NO_SIMD` says, so one run checks both.
    fn pair_paths() -> Vec<bool> {
        let mut paths = vec![false];
        if sha_ni_available() {
            paths.push(true);
        }
        paths
    }

    /// `pair_update` from hashers that already absorbed `pre_a` / `pre_b`
    /// against two independent hashers, on the same inputs.
    fn check_pair(ni: bool, pre_a: &[u8], x: &[u8], pre_b: &[u8], y: &[u8]) {
        let (mut a, mut b) = (Sha256::new(), Sha256::new());
        a.update(pre_a);
        b.update(pre_b);
        pair_update(ni, &mut a, x, &mut b, y);
        let what = format!(
            "ni {ni}, offsets {} / {}, lengths {} / {}",
            pre_a.len(),
            pre_b.len(),
            x.len(),
            y.len()
        );
        assert_eq!(a.finalize(), sha256_concat(&[pre_a, x]), "{what}");
        assert_eq!(b.finalize(), sha256_concat(&[pre_b, y]), "{what}");
    }

    fn bytes(len: usize, salt: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13 ^ salt) as u8)
            .collect()
    }

    #[test]
    fn update_pair_matches_two_hashers_at_every_length() {
        let (x, y) = (bytes(65 << 10, 1), bytes(65 << 10, 2));
        let lengths = (0..=300).chain([(64 << 10) - 1, 64 << 10, (64 << 10) + 1]);
        for ni in pair_paths() {
            for len in lengths.clone() {
                check_pair(ni, b"", &x[..len], b"", &y[..len]);
            }
        }
    }

    #[test]
    fn update_pair_matches_two_hashers_at_equal_offsets() {
        let (x, y) = (bytes(1000, 3), bytes(1000, 4));
        let (pre_a, pre_b) = (bytes(130, 5), bytes(130, 6));
        for ni in pair_paths() {
            for offset in [1, 2, 31, 63, 64, 65, 127, 130] {
                for len in [0, 1, 62, 63, 64, 65, 127, 128, 129, 500, 1000] {
                    check_pair(ni, &pre_a[..offset], &x[..len], &pre_b[..offset], &y[..len]);
                }
            }
        }
    }

    #[test]
    fn update_pair_falls_back_on_unequal_shapes() {
        let (x, y) = (bytes(700, 7), bytes(700, 8));
        let pre = bytes(64, 9);
        for ni in pair_paths() {
            // Unequal lengths, at equal offsets and at unequal ones.
            check_pair(ni, b"", &x[..640], b"", &y[..641]);
            check_pair(ni, &pre[..3], &x[..200], &pre[..3], &y[..0]);
            // Equal lengths at unequal offsets.
            check_pair(ni, &pre[..5], &x[..640], &pre[..6], &y[..640]);
            check_pair(ni, b"", &x[..700], &pre, &y[..700]);
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
