//! Mycelium: large-scale distributed graph queries with differential
//! privacy (SOSP 2021) — the end-to-end system.
//!
//! This crate ties the substrates together into the full query pipeline:
//!
//! ```text
//! analyst query ──► parse + analyze (mycelium-query)
//!                   │
//!                   ▼
//! k-hop rows ─────► each origin's neighbours within k hops, with the first
//!                   edge on each path (mycelium-query)
//!                   │
//!                   ▼
//! local phase ────► neighbors encrypt x^a contributions (mycelium-bgv)
//!                   and attach well-formedness proofs (mycelium-zkp);
//!                   origins multiply them along the spanning tree,
//!                   relinearizing after every product (the paper defers
//!                   that to the aggregator, §5); in the paper messages
//!                   travel through the mix network, which no executor
//!                   here sends through yet (mycelium-mixnet)
//!                   │
//!                   ▼
//! global phase ───► the aggregator verifies proofs and sums degree-1
//!                   ciphertexts once, pairwise; the committee threshold-decrypts
//!                   (mycelium-sharing) and adds Laplace noise
//!                   (mycelium-dp) before releasing to the analyst
//! ```
//!
//! * [`params`] — the Figure 4 system parameters.
//! * [`plan`] — query planning and the per-role protocol building blocks
//!   shared by the direct and simulated execution paths.
//! * [`exec`] — the encrypted query executor (device, origin, and
//!   aggregator logic) with Byzantine-behaviour injection.
//! * [`aggcore`] — the aggregation plane's protocol state and transitions
//!   (intake, shard roots, committee tail, certificate), written once with
//!   no I/O; `mycelium_net::round` drives it, in real processes and on the
//!   deterministic simnet alike (`run_query_simulated`, with fault injection
//!   and round metrics).
//! * [`roles`] — the client half, written once the same way: what a device,
//!   an origin and a committee member compute, and the order each draws its
//!   randomness in.
//! * [`decode`] — decoding the decrypted global plaintext back into
//!   per-group histograms (the inverse of the window layout).
//! * [`committee`] — committee orchestration: election, threshold
//!   decryption, joint noise, release.
//! * [`costs`] — the §6.4–§6.6 cost models (device bandwidth/compute,
//!   committee, aggregator) behind Figures 7 and 9.
//! * [`streams`] — the canonical rng stream bases both executors share, so
//!   the same round spec yields bit-identical ciphertexts (and
//!   byte-identical round certificates) everywhere.

pub mod aggcore;
pub mod committee;
pub mod costs;
pub mod decode;
pub mod exec;
pub mod params;
pub mod plan;
pub mod roles;
pub mod streams;

pub use exec::{run_query_encrypted, EncryptedOutcome, ExecError, MaliciousBehavior};
pub use params::{deep_simulation_params, SystemParams};
pub use plan::QueryPlan;
