//! `mycelium-net`: the real-network transport plane.
//!
//! Everything the repository runs elsewhere as function calls
//! ([`mycelium::run_query_encrypted`]) or as simulated actors
//! ([`mycelium::run_query_simulated`]) runs here across real OS
//! processes over loopback TCP — same planning, same cryptography, same
//! bit-exact decoded histogram. Hermetic like the rest of the
//! workspace: built on `std::net` and the in-repo crypto, no external
//! dependencies.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed frames with a versioned 20-byte header.
//! * [`channel`] — mutually authenticated key agreement (x25519 +
//!   HKDF from `mycelium-crypto`) and AEAD-sealed [`SecureChannel`]s
//!   with strictly sequential per-direction nonces (replay/reorder
//!   rejection for free).
//! * [`server`] / [`client`] — a thread-per-connection request/response
//!   server with a bounded worker pool that answers the requests a
//!   connection has pipelined as one burst behind one durability wait, and
//!   a reconnecting client that keeps a window of requests in flight and
//!   reuses the simulated transport's [`BackoffPolicy`] schedule.
//! * [`codec`] / [`proto`] — validated wire codecs for ciphertexts,
//!   proofs, and decryption shares, and the query-round message set.
//! * [`journal`] — the aggregator's append-only, checksummed,
//!   fsync'd write-ahead journal: every accepted mutation is durable
//!   before the reply, and a respawned aggregator replays it back to
//!   the exact pre-crash state.
//! * [`round`] — the multi-process round itself: aggregator server,
//!   device/origin/committee client roles, and the driver that spawns
//!   them and runs the one loop that supervises them.
//! * [`chaos`] — the fault-injection plane behind the `chaos_round`
//!   binary: the kill schedules ([`ChaosPlan`]), the one runner for both
//!   fault sources, and the one verdict and report ([`ChaosOutcome`]) that
//!   check the round still ends in a bit-identical histogram or a typed
//!   failure.
//! * [`cli`] — flag parsing and role dispatch shared by the
//!   `net_round` and `chaos_round` binaries.
//! * [`metrics`] — per-kind wire counters and latency series, merged
//!   across processes and reconciled against the analytical cost model
//!   in `mycelium::costs`.
//! * [`netchaos`] — the plane's link-fault source: every server fronts
//!   itself with a seeded [`ChaosProxy`](netchaos::ChaosProxy)
//!   replaying resets, dropped replies, slow-loris stalls, bit flips,
//!   latency, and healing partitions, with a fired-fault ledger that
//!   reconciles against the transport counters.

pub mod channel;
pub mod chaos;
pub mod cli;
pub mod client;
pub mod codec;
pub mod error;
pub mod frame;
pub mod journal;
pub mod metrics;
pub mod netchaos;
pub mod proto;
pub mod round;
pub mod server;
pub mod wire;

pub use channel::{Identity, SecureChannel, HANDSHAKE_WIRE_BYTES};
pub use chaos::{ChaosOutcome, ChaosPlan};
pub use client::{Client, ClientConfig, FRAME_OVERHEAD};
pub use error::NetError;
pub use journal::{Journal, JournalError};
pub use metrics::NetMetrics;
pub use netchaos::{ChaosProxy, NetFaultPlan, NetProfile};
pub use round::{RoundSetup, RoundSpec};
pub use server::{Handler, Server, ServerConfig};

// Re-exported so doc links and downstream users name one source of truth.
pub use mycelium_simnet::BackoffPolicy;

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Hub state is designed idempotent/first-write-wins, so a half-applied
/// mutation from a panicked handler thread cannot corrupt it — whereas
/// std's default poisoning policy (every later `lock().unwrap()` panics
/// too) would wedge the whole server on one bad request. Every lock in
/// the transport plane goes through here.
pub fn lock_recover<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
