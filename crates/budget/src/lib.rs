//! The privacy-budget ledger (§4.4's accountant, made crash-durable).
//!
//! The paper's prototype charges each query its full `ε` against one
//! global budget and stops there; nothing persists the account, nothing
//! composes across queries, and nothing tells a scheduler *whether the
//! next round may run*. This crate is that missing control plane:
//!
//! * [`ledger`] — the per-dataset epsilon [`Ledger`]: one [`LedgerEntry`]
//!   per admitted round (query name + `(ε, δ, sensitivity)` from
//!   `mycelium_query::analyze::CostReport`), one canonical [`LedgerOp`]
//!   per admit/charge/refund/refuse decision. Ops have a byte-exact
//!   encoding, so an executor can journal each decision in its
//!   write-ahead log and replay re-derives the bit-identical ledger
//!   ([`Ledger::digest`]).
//! * [`compose`] — the composition rule: basic summation, or
//!   [`Composition::Advanced`] which prices a homogeneous run of charges
//!   with `dp::composition::advanced_composition` and takes the tighter
//!   of the two bounds (both are valid DP guarantees).
//!
//! Admitting a round is [`Ledger::decide`] then [`Ledger::apply`]: an
//! `Admit` *reserves* the charge, a `Refuse` records a permanent refusal.
//! The round later settles with a `Charge` (success) or a `Refund` (typed
//! failure), so a crashed round never leaks budget.
//!
//! The crate deliberately knows nothing about journals, sockets, or
//! executors. `mycelium-net` drives it twice: the aggregator journals each
//! [`LedgerOp`] between `decide` and `apply`, and the in-process
//! `QuerySession` applies them directly. Both share this one accounting
//! brain, which is what makes their refusal decisions — and their ledger
//! digests — bit-identical.

pub mod compose;
pub mod ledger;

pub use compose::{composed_epsilon, Composition};
pub use ledger::{EntryState, Ledger, LedgerEntry, LedgerOp, QueryCost};

use mycelium_crypto::codec::CodecError;
use mycelium_dp::DpError;

/// Ledger failures. Every path is typed; the ledger never panics on
/// replayed bytes or adversarial sequences of ops.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// An underlying DP-accounting failure (including the typed
    /// `BudgetExhausted` on hard charges).
    Dp(DpError),
    /// A structurally invalid parameter (non-finite capacity, negative
    /// sensitivity, out-of-range delta, …).
    InvalidParameter(String),
    /// A charge/refund referenced a round the ledger never admitted.
    UnknownRound(u32),
    /// A replayed op contradicts the recorded history (e.g. admitting a
    /// round that was refused, or refunding a settled charge).
    Conflict {
        /// The conflicting round.
        round: u32,
        /// What went wrong.
        what: &'static str,
    },
    /// A ledger record failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::Dp(e) => write!(f, "dp error: {e:?}"),
            BudgetError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            BudgetError::UnknownRound(r) => write!(f, "round {r} was never admitted"),
            BudgetError::Conflict { round, what } => {
                write!(
                    f,
                    "op conflicts with recorded history of round {round}: {what}"
                )
            }
            BudgetError::Codec(m) => write!(f, "ledger record decode failed: {m}"),
        }
    }
}

impl std::error::Error for BudgetError {}

impl From<DpError> for BudgetError {
    fn from(e: DpError) -> Self {
        BudgetError::Dp(e)
    }
}

impl From<CodecError> for BudgetError {
    fn from(e: CodecError) -> Self {
        BudgetError::Codec(e)
    }
}
