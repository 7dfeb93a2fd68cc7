//! Mycelium: large-scale distributed graph queries with differential
//! privacy (SOSP 2021) — the end-to-end system.
//!
//! This crate ties the substrates together into the full query pipeline:
//!
//! ```text
//! analyst query ──► parse + analyze (mycelium-query)
//!                   │
//!                   ▼
//! flooding ───────► every vertex learns upstream + distance (mycelium-graph)
//!                   │
//!                   ▼
//! local phase ────► neighbors encrypt x^a contributions (mycelium-bgv),
//!                   origins multiply them along the spanning tree,
//!                   attach well-formedness proofs (mycelium-zkp);
//!                   messages travel through the mix network
//!                   (mycelium-mixnet)
//!                   │
//!                   ▼
//! global phase ───► the aggregator verifies proofs, sums ciphertexts,
//!                   relinearizes once; the committee threshold-decrypts
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
//!   no I/O; the simulated and the real-process round both drive it.
//! * [`roles`] — the client half, written once the same way: what a device,
//!   an origin and a committee member compute, and the order each draws its
//!   randomness in.
//! * [`simround`] — the same round re-hosted as message-passing actors on
//!   the deterministic simnet, with fault injection and round metrics.
//! * [`session`] — the multi-query session: a privacy-budget ledger
//!   (`mycelium-budget`) admitting, charging, and refusing rounds across
//!   both executors.
//! * [`simbudget`] — the same ledger behind a message boundary: a simnet
//!   `BudgetActor` with seeded refusal scenarios under drops, duplicate
//!   delivery, and crash windows.
//! * [`decode`] — decoding the decrypted global plaintext back into
//!   per-group histograms (the inverse of the window layout).
//! * [`committee`] — committee orchestration: election, threshold
//!   decryption, joint noise, release.
//! * [`costs`] — the §6.4–§6.6 cost models (device bandwidth/compute,
//!   committee, aggregator) behind Figures 7 and 9.
//! * [`simcost`] — the Figure-7 messaging pattern executed and metered on
//!   the simnet, reconciling measurement against the analytic model.
//! * [`summation`] — the Orchard-style verifiable summation tree the
//!   aggregator uses to prove each device's data is counted exactly once.
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
pub mod session;
pub mod simbudget;
pub mod simcost;
pub mod simround;
pub mod streams;
pub mod summation;

pub use exec::{run_query_encrypted, EncryptedOutcome, ExecError, MaliciousBehavior};
pub use params::SystemParams;
pub use plan::QueryPlan;
pub use session::{deep_simulation_params, QuerySession, SessionError, SessionRound};
pub use simround::{run_query_simulated, SimNetConfig, SimRoundError, SimRoundOutcome};
