//! From-scratch cryptographic primitives for the Mycelium reproduction.
//!
//! The paper's prototype instantiates its primitives with OpenSSL:
//! `PEnc` (public-key encryption) with RSA-PKCS1, `SEnc` (unauthenticated
//! symmetric encryption) with ChaCha20, and `AE` (authenticated encryption)
//! with ChaCha20-Poly1305 where the nonce is the round number and is *not*
//! transmitted (§3.5, §5). This crate implements the same algorithms
//! directly:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, plus HMAC.
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher (`SEnc`: a symmetric
//!   cipher indistinguishable from random but *without* a MAC, which is what
//!   lets forwarders substitute dummies for dropped onion layers).
//! * [`poly1305`] — RFC 8439 Poly1305 one-time authenticator.
//! * [`aead`] — ChaCha20-Poly1305 AEAD (`AE`), with implicit nonces.
//! * [`ed25519`] — the Curve25519 field and Edwards group: X25519-style
//!   Diffie–Hellman and the group operations Feldman commitments need.
//! * [`penc`] — ECIES public-key encryption over the Edwards group
//!   (the role RSA-PKCS1 plays in the paper).
//! * [`kdf`] — HKDF-style key derivation and a PRF for hop selection.
//! * [`merkle`] — Merkle hash trees with inclusion proofs, the building
//!   block of the verifiable maps `M1`/`M2` and the mailbox commitments.
//! * [`sha512`] — FIPS 180-4 SHA-512, the hash Ed25519 is defined over.
//! * [`eddsa`] — Ed25519 signatures (RFC 8032), used by round
//!   certificates for committee attestations.

pub mod aead;
pub mod chacha20;
pub mod ed25519;
pub mod eddsa;
pub mod kdf;
pub mod merkle;
pub mod penc;
pub mod poly1305;
pub mod sha256;
pub mod sha512;

pub use aead::{open, seal, AeadError};
pub use merkle::{InclusionProof, MerkleTree};
pub use penc::{KeyPair, PublicKey};
pub use sha256::{hmac_sha256, sha256, Digest};
