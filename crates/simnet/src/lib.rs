//! A deterministic discrete-event simulator for round-based
//! message-passing protocols.
//!
//! Every protocol in this repository — telescoping circuit setup (§3.4),
//! onion forwarding (§3.5), the encrypted query round (§4.3–§4.6) and its
//! committee's threshold decryption (§5) — is, in the real system, a
//! *round protocol over an unreliable network of millions of devices*.
//! This crate provides the runtime that lets the repo execute them that
//! way instead of as direct function calls:
//!
//! * [`sim`] — the event loop: a virtual clock in abstract **ticks**, a
//!   binary-heap event queue with deterministic tie-breaking, actor-style
//!   processes ([`Process`]) that react to messages and timers through a
//!   [`Ctx`] handle, and per-link latency/jitter ([`LinkModel`]).
//! * [`fault`] — the seeded [`FaultPlan`]: i.i.d. message drops, device
//!   crash-at-tick, network partitions with time windows, and Byzantine
//!   payload substitution via a tamper hook.
//! * [`metrics`] — [`RoundMetrics`]: per-actor message/byte/retry
//!   counters and named per-phase virtual-time series, with a
//!   deterministic JSON rendering for benchmark artifacts.
//! * [`retry`] — [`Retrier`], the timeout + bounded-exponential-backoff
//!   retransmission helper protocol actors share.
//! * [`backoff`] — the [`BackoffPolicy`] behind [`Retrier`], also consumed
//!   by `mycelium-net` for wall-clock reconnection so the simulated and
//!   the real transport plane share one retry schedule.
//!
//! ## Determinism contract
//!
//! A simulation is a pure function of `(actors, fault plan, seed)`:
//!
//! 1. The event loop is single-threaded; events are ordered by
//!    `(tick, sequence number)` where the sequence number is assigned at
//!    scheduling time, so ties never depend on heap internals.
//! 2. All randomness — jitter, drop decisions, and every actor's own
//!    draws — comes from independent [`StdRng`](mycelium_math::rng::StdRng)
//!    keystreams of the single seed (stream 0 for the network, stream
//!    `id + 1` for actor `id`), never from scheduling order.
//! 3. Virtual time is integral ticks; no wall clock anywhere.
//!
//! Heavy computation *inside* an actor may still fan out over
//! `MYC_THREADS` worker threads (e.g. BGV ops), which is safe because that
//! compute plane is itself bit-deterministic at any thread count.

pub mod backoff;
pub mod fault;
pub mod metrics;
pub mod retry;
pub mod sim;

pub use backoff::BackoffPolicy;
pub use fault::{FaultPlan, LinkModel, Partition};
pub use metrics::{ActorCounters, PhaseSeries, RoundMetrics};
pub use retry::{Retrier, RetryStatus};
pub use sim::{ActorId, Ctx, Payload, Process, RunReport, Simulation, Tick};
