//! ChaCha20-Poly1305 AEAD (RFC 8439) with implicit nonces.
//!
//! This is the paper's `AE` primitive. Mycelium deliberately does **not**
//! transmit nonces (§3.5 cites the "nonces are noticed" privacy pitfall);
//! instead, the monotonically increasing C-round number serves as the nonce,
//! which both endpoints know out of band.

use crate::chacha20::{self, round_nonce, KEY_LEN, NONCE_LEN};
use crate::poly1305::{self, tags_equal, Poly1305, TAG_LEN};

/// Authenticated-encryption failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// The ciphertext is shorter than a tag.
    TooShort,
    /// The Poly1305 tag did not verify (tampering, wrong key, or a dummy).
    TagMismatch,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::TooShort => write!(f, "ciphertext shorter than an authentication tag"),
            AeadError::TagMismatch => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for AeadError {}

/// The kernels a seal or an open runs on. Every pairing produces the same
/// bytes; the free functions of this module run on [`active_tier`].
#[derive(Clone, Copy)]
pub struct Tier {
    /// The keystream's.
    pub cipher: chacha20::Tier,
    /// The authenticator's.
    pub mac: poly1305::Tier,
}

/// The portable keystream under the scalar authenticator: the oracle, and
/// the row the benches compare [`active_tier`] against.
pub fn scalar_tier() -> Tier {
    Tier {
        cipher: chacha20::tiers()[0],
        mac: poly1305::tiers()[0],
    }
}

/// What the process dispatched to: the widest kernels the CPU offers, or
/// [`scalar_tier`] under `MYC_NO_SIMD=1`.
pub fn active_tier() -> Tier {
    Tier {
        cipher: chacha20::active_tier(),
        mac: poly1305::active_tier(),
    }
}

impl Tier {
    /// RFC 8439 §2.8: the tag, under the one-time key that keystream block
    /// 0 yields, of `aad ‖ pad16 ‖ ct ‖ pad16 ‖ len(aad) ‖ len(ct)`.
    fn tag(
        &self,
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ct: &[u8],
    ) -> [u8; TAG_LEN] {
        let mut block = [0u8; 64];
        self.cipher.xor(key, 0, nonce, &mut block);
        let otk = block[..32].try_into().expect("half a block");
        let mut mac = Poly1305::with_tier(&self.mac, otk);
        mac.update_padded(aad);
        mac.update_padded(ct);
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ct.len() as u64).to_le_bytes());
        mac.finalize()
    }

    /// [`seal_in_place`] on this tier.
    pub fn seal_in_place(
        &self,
        key: &[u8; KEY_LEN],
        round: u64,
        aad: &[u8],
        data: &mut [u8],
    ) -> [u8; TAG_LEN] {
        let nonce = round_nonce(round);
        self.cipher.xor(key, 1, &nonce, data);
        self.tag(key, &nonce, aad, data)
    }

    /// [`seal_with_aad`] on this tier.
    pub fn seal_with_aad(
        &self,
        key: &[u8; KEY_LEN],
        round: u64,
        aad: &[u8],
        plaintext: &[u8],
    ) -> Vec<u8> {
        let mut sealed = Vec::with_capacity(plaintext.len() + TAG_LEN);
        sealed.extend_from_slice(plaintext);
        let tag = self.seal_in_place(key, round, aad, &mut sealed);
        sealed.extend_from_slice(&tag);
        sealed
    }

    /// [`open_in_place`] on this tier.
    pub fn open_in_place(
        &self,
        key: &[u8; KEY_LEN],
        round: u64,
        aad: &[u8],
        sealed: &mut Vec<u8>,
    ) -> Result<(), AeadError> {
        let Some(ct_len) = sealed.len().checked_sub(TAG_LEN) else {
            return Err(AeadError::TooShort);
        };
        let nonce = round_nonce(round);
        let (ct, expect) = sealed.split_at_mut(ct_len);
        let expect: &[u8; TAG_LEN] = (&*expect).try_into().expect("split length checked");
        if !tags_equal(&self.tag(key, &nonce, aad, ct), expect) {
            return Err(AeadError::TagMismatch);
        }
        self.cipher.xor(key, 1, &nonce, ct);
        sealed.truncate(ct_len);
        Ok(())
    }

    /// [`open_with_aad`] on this tier.
    pub fn open_with_aad(
        &self,
        key: &[u8; KEY_LEN],
        round: u64,
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, AeadError> {
        let mut plain = sealed.to_vec();
        self.open_in_place(key, round, aad, &mut plain)?;
        Ok(plain)
    }
}

/// Encrypts `data` in place under `key` with the implicit round-number
/// nonce and returns the tag over `aad` and the ciphertext.
pub fn seal_in_place(
    key: &[u8; KEY_LEN],
    round: u64,
    aad: &[u8],
    data: &mut [u8],
) -> [u8; TAG_LEN] {
    active_tier().seal_in_place(key, round, aad, data)
}

/// Encrypts and authenticates `plaintext` under `key` with the implicit
/// round-number nonce. The output is `ciphertext || tag` (no nonce).
pub fn seal_with_aad(key: &[u8; KEY_LEN], round: u64, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    active_tier().seal_with_aad(key, round, aad, plaintext)
}

/// Verifies a `ciphertext || tag` buffer against `aad`, then decrypts it
/// where it lies and shortens it to the plaintext. On an error `sealed` is
/// left as it was.
pub fn open_in_place(
    key: &[u8; KEY_LEN],
    round: u64,
    aad: &[u8],
    sealed: &mut Vec<u8>,
) -> Result<(), AeadError> {
    active_tier().open_in_place(key, round, aad, sealed)
}

/// Decrypts and verifies a `ciphertext || tag` produced by
/// [`seal_with_aad`].
pub fn open_with_aad(
    key: &[u8; KEY_LEN],
    round: u64,
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, AeadError> {
    active_tier().open_with_aad(key, round, aad, sealed)
}

/// [`seal_with_aad`] with empty associated data.
pub fn seal(key: &[u8; KEY_LEN], round: u64, plaintext: &[u8]) -> Vec<u8> {
    seal_with_aad(key, round, &[], plaintext)
}

/// [`open_with_aad`] with empty associated data.
pub fn open(key: &[u8; KEY_LEN], round: u64, sealed: &[u8]) -> Result<Vec<u8>, AeadError> {
    open_with_aad(key, round, &[], sealed)
}

/// Ciphertext expansion of the AEAD (tag only; the nonce is implicit).
pub const OVERHEAD: usize = TAG_LEN;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let key = [5u8; 32];
        let msg = b"are you ill?";
        let sealed = seal(&key, 7, msg);
        assert_eq!(sealed.len(), msg.len() + OVERHEAD);
        assert_eq!(open(&key, 7, &sealed).unwrap(), msg);
    }

    #[test]
    fn wrong_round_fails() {
        let key = [5u8; 32];
        let sealed = seal(&key, 7, b"hi");
        assert_eq!(open(&key, 8, &sealed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn wrong_key_fails() {
        let sealed = seal(&[1u8; 32], 7, b"hi");
        assert_eq!(open(&[2u8; 32], 7, &sealed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn tampering_detected() {
        let key = [5u8; 32];
        let mut sealed = seal(&key, 7, b"important message");
        sealed[3] ^= 0x01;
        assert_eq!(open(&key, 7, &sealed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn aad_is_authenticated() {
        let key = [5u8; 32];
        let sealed = seal_with_aad(&key, 7, b"path-id-1", b"payload");
        assert_eq!(
            open_with_aad(&key, 7, b"path-id-1", &sealed).unwrap(),
            b"payload"
        );
        assert_eq!(
            open_with_aad(&key, 7, b"path-id-2", &sealed),
            Err(AeadError::TagMismatch)
        );
    }

    #[test]
    fn too_short_ciphertext() {
        let key = [5u8; 32];
        assert_eq!(open(&key, 0, &[0u8; 15]), Err(AeadError::TooShort));
    }

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2 — adapted: the RFC nonce has a constant part, so
        // we verify against the raw primitive composition instead of the
        // round-based wrapper.
        let key: [u8; 32] = (0x80u8..0xa0).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [
            0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad: [u8; 12] = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut ct = plaintext.to_vec();
        chacha20::chacha20_xor(&key, 1, &nonce, &mut ct);
        assert_eq!(&ct[..8], &[0xd3, 0x1a, 0x8d, 0x34, 0x64, 0x8e, 0x60, 0xdb]);
        let tag = active_tier().tag(&key, &nonce, &aad, &ct);
        let expect_tag: [u8; 16] = [
            0x1a, 0xe1, 0x0b, 0x59, 0x4f, 0x09, 0xe2, 0x6a, 0x7e, 0x90, 0x2e, 0xcb, 0xd0, 0x60,
            0x06, 0x91,
        ];
        assert_eq!(tag, expect_tag);
    }

    #[test]
    fn dummy_is_indistinguishable_in_length() {
        // A forwarder masking a dropped message uses random bytes of the
        // same length; AE layers reject them, SEnc layers pass them through.
        let key = [5u8; 32];
        let sealed = seal(&key, 3, &[0u8; 100]);
        let dummy = vec![0xAAu8; sealed.len()];
        assert_eq!(dummy.len(), sealed.len());
        assert!(open(&key, 3, &dummy).is_err());
    }
}
