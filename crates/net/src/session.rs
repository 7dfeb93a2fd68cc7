//! The multi-query session: a privacy-budget ledger driving the
//! encrypted executors (§4.4's per-query accounting, lifted to a
//! session-level accountant).
//!
//! A [`QuerySession`] owns one dataset's [`Ledger`] and runs a sequence
//! of rounds against a fixed population and key set. Every round is
//! *admitted* before any ciphertext moves: the query is statically
//! priced ([`cost_report`]), the ledger records an `Admit` (reserving
//! the charge) or a `Refuse` (a typed, permanent refusal — the paper's
//! budget check, §4.4), the round executes, and the reservation settles
//! to a `Charge` on success or a `Refund` on failure. Under
//! [`Composition::Advanced`] a session of homogeneous small charges
//! admits strictly more rounds than basic summation
//! (`dp::composition::advanced_composition`).
//!
//! Two execution paths share the accountant: [`QuerySession::run`]
//! drives [`run_query_encrypted`] (bit-identical to the plaintext
//! oracle, pre-noise), and [`QuerySession::run_certified`] drives
//! [`run_query_simulated`], whose
//! sealed [`RoundCertificate`](mycelium_cert::RoundCertificate) carries
//! the round's charged epsilon in its signed transcript. The TCP
//! executor's session lives in the round's aggregator (`--round`/`--budget-*`),
//! journaled crash-durably; this module is the in-process mirror.

use mycelium_bgv::KeySet;
use mycelium_budget::{BudgetError, Composition, Ledger, LedgerEntry, LedgerOp, QueryCost};
use mycelium_dp::{DpError, PrivacyBudget};
use mycelium_graph::generate::Population;
use mycelium_math::rng::{RngCore, SeedableRng, StdRng};
use mycelium_query::analyze::{cost_report, ReportError};
use mycelium_query::ast::Query;

use mycelium::exec::{run_query_encrypted, EncryptedOutcome, ExecError, MaliciousBehavior};
use mycelium::params::SystemParams;

use crate::round::{run_query_simulated, SimNetConfig, SimRoundError, SimRoundOutcome};

/// Session errors: every refusal and failure is typed.
#[derive(Debug)]
pub enum SessionError {
    /// The ledger refused the round: admitting it would overrun the
    /// session capacity. The refusal is recorded permanently — the same
    /// round re-proposed stays refused, even after later refunds.
    Refused {
        /// The refused round's index.
        round: u32,
        /// The refused query's name.
        query: String,
        /// The typed refusal ([`DpError::BudgetExhausted`] with the
        /// requested and remaining epsilon).
        refusal: DpError,
    },
    /// Ledger accounting failed (conflicting round, corrupt op).
    Budget(BudgetError),
    /// The query could not be priced (parse/analysis failure).
    Cost(ReportError),
    /// The encrypted executor failed; the reservation was refunded.
    Exec(ExecError),
    /// The simulated executor failed; the reservation was refunded.
    Sim(SimRoundError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Refused {
                round,
                query,
                refusal,
            } => write!(f, "round {round} ({query}) refused: {refusal}"),
            SessionError::Budget(e) => write!(f, "ledger failure: {e}"),
            SessionError::Cost(e) => write!(f, "query pricing failed: {e}"),
            SessionError::Exec(e) => write!(f, "execution failed (charge refunded): {e}"),
            SessionError::Sim(e) => write!(f, "simulated round failed (charge refunded): {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<BudgetError> for SessionError {
    fn from(e: BudgetError) -> Self {
        SessionError::Budget(e)
    }
}

/// One completed (admitted, executed, charged) session round.
#[derive(Debug)]
pub struct SessionRound<T> {
    /// The round's index in the session.
    pub round: u32,
    /// The executed query's name.
    pub query: String,
    /// The epsilon this round charged against the session ledger.
    pub charged_epsilon: f64,
    /// Ledger headroom after the charge (under the session's
    /// composition rule).
    pub remaining_after: f64,
    /// The executor's outcome.
    pub outcome: T,
}

/// A multi-query session over one dataset: the ledger, the population,
/// the keys, and a deterministic randomness stream.
pub struct QuerySession {
    params: SystemParams,
    pop: Population,
    keys: KeySet,
    ledger: Ledger,
    with_proofs: bool,
    next_round: u32,
    rng: StdRng,
}

impl QuerySession {
    /// Opens a session over `pop` with a fresh ledger of `capacity`
    /// epsilon for `dataset` under `composition`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dataset: &str,
        capacity: f64,
        composition: Composition,
        params: SystemParams,
        pop: Population,
        keys: KeySet,
        with_proofs: bool,
        seed: u64,
    ) -> Result<Self, BudgetError> {
        Ok(Self {
            ledger: Ledger::new(dataset, capacity, composition)?,
            params,
            pop,
            keys,
            with_proofs,
            next_round: 0,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The session's ledger (inspect spent/remaining/decided rounds).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The index the next proposed round will get.
    pub fn next_round(&self) -> u32 {
        self.next_round
    }

    /// The session's system parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Prices `query` and asks the ledger to admit it as the next
    /// round. Returns the admitted reservation, or a typed refusal.
    /// Either way the decision is recorded and the round index is
    /// consumed — a refused round stays refused forever.
    fn admit(&mut self, query: &Query) -> Result<LedgerEntry, SessionError> {
        let round = self.next_round;
        let report = cost_report(query, &self.params.schema, self.params.epsilon, 0.0)
            .map_err(SessionError::Cost)?;
        let entry = LedgerEntry::from_report(round, &report);
        let op = self.ledger.decide(&entry)?;
        self.ledger.apply(&op)?;
        self.next_round = round + 1;
        match op {
            LedgerOp::Refuse { remaining, .. } => Err(SessionError::Refused {
                round,
                query: query.name.clone(),
                refusal: DpError::BudgetExhausted {
                    requested: entry.cost.epsilon,
                    remaining,
                },
            }),
            _ => Ok(entry),
        }
    }

    /// Settles an admitted round: `Charge` on success, `Refund` on
    /// failure (the ledger releases the reservation for later rounds).
    fn settle(&mut self, round: u32, succeeded: bool) -> Result<(), SessionError> {
        let op = if succeeded {
            LedgerOp::Charge { round }
        } else {
            LedgerOp::Refund { round }
        };
        self.ledger.apply(&op)?;
        Ok(())
    }

    /// A per-round executor budget sized exactly to the admitted
    /// charge: the committee's own §4.4 check passes iff the ledger
    /// admitted the round — the ledger is the accountant, the executor
    /// budget just enforces that nothing releases more than admitted.
    fn round_budget(cost: &QueryCost) -> PrivacyBudget {
        PrivacyBudget::new(cost.epsilon)
    }

    /// Runs one admitted round through the encrypted executor
    /// ([`run_query_encrypted`]; exact result bit-identical to the
    /// plaintext oracle). Refusals and failures are typed; a failed
    /// execution refunds its reservation.
    pub fn run(
        &mut self,
        query: &Query,
        behaviors: &[MaliciousBehavior],
    ) -> Result<SessionRound<EncryptedOutcome>, SessionError> {
        let entry = self.admit(query)?;
        let mut budget = Self::round_budget(&entry.cost);
        let mut rng = StdRng::seed_from_u64(self.rng.next_u64());
        let result = run_query_encrypted(
            query,
            &self.pop,
            &self.params,
            &self.keys,
            behaviors,
            self.with_proofs,
            &mut budget,
            &mut rng,
        );
        match result {
            Ok(outcome) => {
                self.settle(entry.round, true)?;
                Ok(SessionRound {
                    round: entry.round,
                    query: query.name.clone(),
                    charged_epsilon: entry.cost.epsilon,
                    remaining_after: self.ledger.remaining(),
                    outcome,
                })
            }
            Err(e) => {
                self.settle(entry.round, false)?;
                Err(SessionError::Exec(e))
            }
        }
    }

    /// Runs one admitted round through the simulated (simnet) executor,
    /// whose outcome carries a sealed [`RoundCertificate`]
    /// (`mycelium_cert`) binding the round's charged epsilon into the
    /// signed transcript. `cfg.seed` is overridden per round from the
    /// session stream so rounds stay independent.
    pub fn run_certified(
        &mut self,
        query: &Query,
        behaviors: &[MaliciousBehavior],
        cfg: &SimNetConfig,
    ) -> Result<SessionRound<SimRoundOutcome>, SessionError> {
        let entry = self.admit(query)?;
        let mut budget = Self::round_budget(&entry.cost);
        let mut cfg = cfg.clone();
        cfg.seed = self.rng.next_u64();
        let result = run_query_simulated(
            query,
            &self.pop,
            &self.params,
            &self.keys,
            behaviors,
            self.with_proofs,
            &mut budget,
            &cfg,
        );
        match result {
            Ok(outcome) => {
                self.settle(entry.round, true)?;
                Ok(SessionRound {
                    round: entry.round,
                    query: query.name.clone(),
                    charged_epsilon: entry.cost.epsilon,
                    remaining_after: self.ledger.remaining(),
                    outcome,
                })
            }
            Err(e) => {
                self.settle(entry.round, false)?;
                Err(SessionError::Sim(e))
            }
        }
    }
}
