//! Number-theoretic foundations for the Mycelium reproduction.
//!
//! This crate provides the arithmetic substrate that the BGV homomorphic
//! encryption scheme (`mycelium-bgv`) and the secret-sharing layer
//! (`mycelium-sharing`) are built on:
//!
//! * [`zq`] — arithmetic modulo word-sized primes, with Shoup-style
//!   precomputed multiplication and NTT-friendly prime generation.
//! * [`ntt`] — the negacyclic number-theoretic transform over
//!   `Z_q[X]/(X^N + 1)`.
//! * [`poly`] — dense polynomials over a single prime modulus.
//! * [`rns`] — residue-number-system (RNS) polynomial rings: one polynomial
//!   per prime in a modulus chain, with CRT reconstruction.
//! * [`bigint`] — a small arbitrary-precision unsigned integer used for CRT
//!   reconstruction and exact modulus-switching.
//! * [`sample`] — the samplers lattice cryptography needs (uniform, ternary,
//!   discrete Gaussian) plus the Laplace samplers used for differential
//!   privacy.
//! * [`chacha`] — the ChaCha20 keystream kernels, shared by [`rng`] and
//!   `mycelium-crypto`'s cipher.
//! * [`rng`] — the in-tree deterministic random number generator (ChaCha20
//!   keystream) and the `Rng`/`SeedableRng` traits the whole workspace uses
//!   instead of an external crate.
//! * [`par`] — scoped-thread data parallelism with the `MYC_THREADS` knob.
//! * [`ew`] — the shared element-wise residue kernels behind every
//!   [`rns::RnsPoly`] operation.
//! * [`scratch`] — a process-wide pool of reusable coefficient buffers that
//!   keeps the RNS/BGV hot path allocation-free.

pub mod bigint;
pub mod chacha;
pub mod ew;
pub mod ntt;
pub mod par;
pub mod poly;
pub mod rng;
pub mod rns;
pub mod sample;
pub mod scratch;
pub mod simd;
pub mod zq;

pub use bigint::BigUint;
pub use poly::Poly;
pub use rng::{Rng, SeedableRng, StdRng};
pub use rns::{RnsContext, RnsPoly, ShoupPrecomp};
pub use zq::Modulus;
