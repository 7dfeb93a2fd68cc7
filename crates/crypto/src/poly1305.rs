//! Poly1305 one-time authenticator (RFC 8439).
//!
//! Used by the AEAD construction in [`crate::aead`]. The accumulator lives
//! in base 2^64 — two full limbs and a few bits of a third — so one block
//! costs four 64×64→128 multiplications, and input is absorbed as it
//! arrives instead of from one contiguous copy of the message.

/// Tag size in bytes.
pub const TAG_LEN: usize = 16;
const BLOCK: usize = 16;

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// Incremental Poly1305: `h = Σ blockᵢ · r^(n−i) mod 2^130 − 5`, tag `h + s`.
#[derive(Clone)]
pub struct Poly1305 {
    /// The clamped multiplier `r = r0 + 2^64·r1`; `s1 = 5·r1/4`, exact
    /// because clamping clears `r1`'s low two bits, folds `2^128·r1` back.
    r0: u64,
    r1: u64,
    s1: u64,
    /// The accumulator `h0 + 2^64·h1 + 2^128·h2`, partially reduced (`h2 ≤ 4`).
    h: [u64; 3],
    /// The final addend `s`.
    pad: [u64; 2],
    /// A partial block waiting for more input.
    buffer: [u8; BLOCK],
    buffered: usize,
}

impl Poly1305 {
    /// A fresh authenticator under the 32-byte one-time `key` (`r ‖ s`).
    pub fn new(key: &[u8; 32]) -> Self {
        let r0 = le_u64(&key[0..8]) & 0x0fff_fffc_0fff_ffff;
        let r1 = le_u64(&key[8..16]) & 0x0fff_fffc_0fff_fffc;
        Poly1305 {
            r0,
            r1,
            s1: r1 + (r1 >> 2),
            h: [0; 3],
            pad: [le_u64(&key[16..24]), le_u64(&key[24..32])],
            buffer: [0; BLOCK],
            buffered: 0,
        }
    }

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
            self.absorb(&block, 1);
            self.buffered = 0;
        }
        let bulk = data.len() / BLOCK * BLOCK;
        self.absorb(&data[..bulk], 1);
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
            self.absorb(&block, 0);
        }
        let [h0, h1, h2] = self.h;
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
