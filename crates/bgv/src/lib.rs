//! BGV leveled homomorphic encryption (Brakerski–Gentry–Vaikuntanathan).
//!
//! Mycelium's local query phase aggregates neighbor contributions under
//! encryption: a contribution `a` is encoded as the monomial `x^a`, so that
//! homomorphic *multiplication* adds bin indices (`x^a · x^b = x^{a+b}`) and
//! homomorphic *addition* accumulates histograms
//! (`Σ_i x^{a_i}` has the count of value `v` as its `v`-th coefficient) —
//! §4.1 of the paper. This crate implements the full scheme from scratch:
//!
//! * [`params`] — parameter sets, including the paper-scale preset
//!   (`N = 32768`, `t = 2^30`) and smaller test presets.
//! * [`keys`] — key generation: secret, public, and relinearization keys
//!   (one RNS-gadget key-switching key per prime per level).
//! * [`ciphertext`] — ciphertexts with homomorphic add/mul, plaintext
//!   add/subtract, relinearization, and BGV modulus switching.
//! * [`encoding`] — the `x^a` monomial and constant plaintexts (the query
//!   extensions built on them live in `mycelium-query` and `mycelium`).
//! * [`noise`] — the one noise model: it plans a multiplication chain's
//!   noise before a query runs (used to reproduce the §6.2 generality
//!   result: Q1's 100 multiplications exhaust the budget).
//!   [`Ciphertext::decrypt_with_noise`] measures noise against the secret
//!   key; no ciphertext carries an estimate.

pub mod ciphertext;
pub mod encoding;
pub mod keys;
pub mod noise;
pub mod params;

pub use ciphertext::{BgvError, Ciphertext, Plaintext};
pub use keys::{KeySet, PublicKey, RelinKey, SecretKey};
pub use params::BgvParams;
