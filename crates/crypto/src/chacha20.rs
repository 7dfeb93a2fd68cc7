//! ChaCha20 stream cipher (RFC 8439).
//!
//! In Mycelium this plays the role of `SEnc`: the symmetric cipher used for
//! the *middle* onion layers. Those layers deliberately carry **no MAC** —
//! a forwarding device that must mask a dropped message substitutes a random
//! string, and because ChaCha20 keystream output is indistinguishable from
//! random, the next hop cannot tell the dummy from a genuine layer (§3.5).

use mycelium_math::chacha;

/// Key size in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce size in bytes.
pub const NONCE_LEN: usize = 12;

/// The block function's input state: constants, key, block counter, nonce.
fn initial_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("four bytes"));
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&chacha::SIGMA);
    state[12] = counter;
    for (dst, src) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *dst = word(src);
    }
    for (dst, src) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *dst = word(src);
    }
    state
}

/// One implementation of the keystream (the kernels themselves live in
/// `mycelium_math::chacha`, shared with the workspace RNG): [`Tier::xor`]
/// computes exactly [`chacha20_xor`], whatever the process-wide dispatch
/// selected.
#[derive(Clone, Copy)]
pub struct Tier {
    /// `"portable"`, `"avx2"` or `"avx512"`.
    pub name: &'static str,
    kernel: fn(&mut [u32; 16], &mut [u8]),
}

impl Tier {
    /// [`chacha20_xor`] on this tier. The 32-bit block counter of RFC 8439
    /// wraps, as the kernels' does.
    pub fn xor(&self, key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        (self.kernel)(&mut initial_state(key, counter, nonce), data);
    }
}

/// Every tier this host can run, the portable one first — regardless of
/// `MYC_NO_SIMD`. Differential tests compare each against the first.
pub fn tiers() -> Vec<Tier> {
    chacha::tiers()
        .into_iter()
        .map(|t| Tier {
            name: t.name,
            kernel: t.xor,
        })
        .collect()
}

/// The tier [`chacha20_xor`] runs on, chosen once per process: the widest
/// the CPU offers, or the portable one under `MYC_NO_SIMD=1`.
pub fn active_tier() -> Tier {
    static ACTIVE: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let tiers = tiers();
        if mycelium_math::simd::simd_disabled_by_env() {
            tiers[0]
        } else {
            *tiers.last().expect("the portable tier is always there")
        }
    })
}

/// Computes one 64-byte ChaCha20 block.
pub fn chacha20_block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let mut block = [0u8; chacha::BLOCK];
    chacha20_xor(key, counter, nonce, &mut block);
    block
}

/// Encrypts or decrypts `data` in place (XOR with the keystream starting at
/// block `counter`). Encryption and decryption are the same operation.
pub fn chacha20_xor(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
    active_tier().xor(key, counter, nonce, data);
}

/// `SEnc`: length-preserving, MAC-less symmetric encryption with an implicit
/// nonce derived from a round number.
///
/// The round number is used as the nonce and is *not* included in the
/// ciphertext (the paper avoids transmitting nonces, citing the
/// nonces-are-noticed pitfall). Both sides must agree on the round.
pub fn senc(key: &[u8; KEY_LEN], round: u64, plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    chacha20_xor(key, 1, &round_nonce(round), &mut out);
    out
}

/// Inverse of [`senc`]. Always "succeeds" — there is deliberately no
/// integrity check (a wrong key or a dummy yields random-looking bytes).
pub fn sdec(key: &[u8; KEY_LEN], round: u64, ciphertext: &[u8]) -> Vec<u8> {
    senc(key, round, ciphertext)
}

/// Derives the implicit 12-byte nonce from a round number.
pub fn round_nonce(round: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[4..].copy_from_slice(&round.to_le_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 §2.3.2.
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce = [0u8, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        let expect_start = [0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15];
        assert_eq!(&block[..8], &expect_start);
        // Bytes 48..56 of the 64-byte keystream block.
        assert_eq!(
            &block[48..56],
            &[0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9]
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2.
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce = [0u8, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        chacha20_xor(&key, 1, &nonce, &mut data);
        assert_eq!(
            &data[..16],
            &[
                0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
                0x69, 0x81
            ]
        );
        // Decryption round-trips.
        chacha20_xor(&key, 1, &nonce, &mut data);
        assert_eq!(&data, plaintext);
    }

    #[test]
    fn senc_sdec_roundtrip() {
        let key = [7u8; 32];
        let msg = b"an onion layer".to_vec();
        let ct = senc(&key, 42, &msg);
        assert_ne!(ct, msg);
        assert_eq!(ct.len(), msg.len(), "SEnc is length-preserving");
        assert_eq!(sdec(&key, 42, &ct), msg);
    }

    #[test]
    fn different_rounds_give_different_ciphertexts() {
        let key = [9u8; 32];
        let msg = vec![0u8; 64];
        assert_ne!(senc(&key, 1, &msg), senc(&key, 2, &msg));
    }

    #[test]
    fn wrong_key_decrypts_to_garbage_without_error() {
        let msg = b"secret".to_vec();
        let ct = senc(&[1u8; 32], 5, &msg);
        let wrong = sdec(&[2u8; 32], 5, &ct);
        assert_ne!(wrong, msg);
        assert_eq!(wrong.len(), msg.len());
    }

    #[test]
    fn empty_message() {
        let key = [3u8; 32];
        assert_eq!(senc(&key, 0, &[]), Vec::<u8>::new());
    }
}
