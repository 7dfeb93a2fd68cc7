//! Secret sharing and threshold BGV decryption for Mycelium's committees.
//!
//! In Mycelium (§4.2, §5) the BGV decryption key is never held by any single
//! party: a *genesis committee* generates all keys once and Shamir-shares
//! the decryption key; each query is served by a fresh randomly-elected
//! committee of user devices; and the key moves from committee to committee
//! with an extended verifiable secret redistribution (VSR) protocol. This
//! reproduction does not implement that custody: every process derives the
//! round's `KeySet` from the round seed, and each round deals fresh Shamir
//! shares of its secret key to that round's committee. The committee
//! decrypts the global aggregate and adds the Laplace noise required for
//! differential privacy before releasing the result.
//!
//! * [`shamir`] — Shamir secret sharing over word-sized prime fields, and
//!   coefficient-wise sharing of RNS ring elements (the BGV secret key).
//! * [`threshold`] — threshold BGV decryption with smudging noise, and the
//!   committee's in-MPC Laplace noise addition.
//! * [`committee`] — committee election, the Shamir threshold, and the
//!   Figure 8 privacy-failure and liveness probability curves (binomial
//!   tail bounds, as in Honeycrisp).

pub mod committee;
pub mod shamir;
pub mod threshold;

pub use shamir::{lagrange_at_zero, reconstruct, share, Share};
pub use threshold::{DecryptionShare, KeyShareSet};
