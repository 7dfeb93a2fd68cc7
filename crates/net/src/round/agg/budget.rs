//! The privacy-budget ledger glue of [`AggState`]: ledger decisions ride the
//! round journal and are mirrored into the session WAL.

use std::collections::BTreeSet;
use std::path::Path;

use mycelium_budget::{BudgetError, EntryState, LedgerEntry, LedgerOp};
use mycelium_query::analyze::cost_report;

use super::{rec, settle, AggState};
use crate::error::NetError;
use crate::journal::Journal;

impl AggState {
    /// Applies one ledger decision to in-memory state, mirroring its
    /// round-local side effects: an `Admit` of *this* round pins the
    /// epsilon the certificate will carry; a `Refuse` of this round is
    /// the round's terminal failure. Decisions about other rounds of
    /// the session only move the ledger.
    pub(super) fn apply_budget_op(&mut self, op: &LedgerOp) -> Result<(), BudgetError> {
        let Some(ledger) = self.ledger.as_mut() else {
            return Err(BudgetError::InvalidParameter(
                "budget op without a ledger".into(),
            ));
        };
        ledger.apply(op)?;
        match op {
            LedgerOp::Admit(entry) if entry.round == self.setup.spec.round => {
                self.charged_epsilon = entry.cost.epsilon;
            }
            LedgerOp::Refuse { entry, remaining } if entry.round == self.setup.spec.round => {
                self.fail(format!(
                    "budget exhausted: requested epsilon {}, remaining {}",
                    entry.cost.epsilon, remaining
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Journals one ledger decision into the round journal (live only)
    /// and remembers its bytes for session-WAL reconciliation. The
    /// record forces a digest checkpoint, so replay divergence in the
    /// ledger is caught at the very next flush.
    fn record_budget_op(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.digest_due = true;
        self.append_record(rec::BUDGET, bytes)?;
        self.round_budget_ops.push(bytes.to_vec());
        Ok(())
    }

    /// Opens the session budget WAL, reconciles it with this round's
    /// replayed journal (the union of their ledger decisions — a crash
    /// between the two fsyncs can leave either side ahead), and decides
    /// this round's admission against the reconciled ledger.
    ///
    /// Idempotent across recoveries:
    /// [`Ledger::decide`](mycelium_budget::Ledger::decide) re-proposes a
    /// byte-identical op for an already-decided round, and both logs
    /// deduplicate by exact record bytes.
    pub fn install_budget(&mut self, wal_path: &Path) -> Result<(), NetError> {
        let Some(cfg) = self.setup.spec.budget.clone() else {
            return Ok(());
        };
        if self.shard.is_some() {
            return Ok(());
        }
        let budget_err = |e: BudgetError| NetError::Decode(format!("budget: {e}"));
        // Re-validate the configuration with a typed error (state
        // construction swallowed it to stay infallible).
        if self.ledger.is_none() {
            cfg.ledger().map_err(budget_err)?;
        }
        let (mut wal, records) = Journal::open_or_create(wal_path, &cfg.wal_binding_digest())?;
        let mut session_ops: BTreeSet<Vec<u8>> = BTreeSet::new();
        {
            // Replay the session WAL into a scratch ledger purely to
            // reject a corrupt or foreign log with a typed error.
            let mut session = cfg.ledger().map_err(budget_err)?;
            for bytes in records.iter() {
                let op = LedgerOp::decode(bytes).map_err(budget_err)?;
                session.apply(&op).map_err(budget_err)?;
                session_ops.insert(bytes.to_vec());
            }
        }
        // Ops this round journaled that the WAL lost (crash between the
        // round-journal fsync and the WAL fsync): push them back.
        for bytes in self.round_budget_ops.clone() {
            if session_ops.contains(&bytes) {
                continue;
            }
            wal.append(&bytes)?;
            session_ops.insert(bytes);
        }
        // Ops earlier session rounds recorded that this round's journal
        // has not seen: seed them in, journaled, so replay of this
        // round's journal stays self-contained.
        let round_ops: BTreeSet<Vec<u8>> = self.round_budget_ops.iter().cloned().collect();
        for bytes in records.iter() {
            if round_ops.contains(bytes) {
                continue;
            }
            let op = LedgerOp::decode(bytes).map_err(budget_err)?;
            self.apply_budget_op(&op).map_err(budget_err)?;
            self.record_budget_op(bytes)?;
        }
        // Decide this round's admission. For a round the logs already
        // decided this re-proposes the identical op and deduplicates.
        let report = cost_report(
            &self.setup.query,
            &self.setup.params.schema,
            self.setup.params.epsilon,
            0.0,
        )
        .map_err(|e| NetError::Decode(format!("budget: query cost: {e}")))?;
        let entry = LedgerEntry::from_report(self.setup.spec.round, &report);
        let op = self
            .ledger
            .as_ref()
            .ok_or_else(|| NetError::Decode("budget: ledger missing".into()))?
            .decide(&entry)
            .map_err(budget_err)?;
        let bytes = op.encode();
        if !self.round_budget_ops.iter().any(|b| b == &bytes) {
            self.apply_budget_op(&op).map_err(budget_err)?;
            self.record_budget_op(&bytes)?;
        }
        if session_ops.insert(bytes.clone()) {
            wal.append(&bytes)?;
        }
        wal.commit()?;
        self.checkpoint()?;
        settle(self.pending())?;
        self.budget_wal = Some(wal);
        self.session_ops = session_ops;
        Ok(())
    }

    /// Settles this round's reserved charge once the outcome is known:
    /// a successful round charges its admitted epsilon, a failed one
    /// refunds the reservation. Journals the op (replay re-settles from
    /// the record, not from wall-clock state) and mirrors it into the
    /// session WAL for later rounds.
    pub(super) fn settle_budget(&mut self) -> Result<(), NetError> {
        if self.replaying || self.outcome.is_none() {
            return Ok(());
        }
        let round = self.setup.spec.round;
        let reserved = self
            .ledger
            .as_ref()
            .and_then(|l| l.entry(round))
            .is_some_and(|(_, st)| st == EntryState::Reserved);
        if !reserved {
            return Ok(());
        }
        let op = match &self.outcome {
            Some(Ok(_)) => LedgerOp::Charge { round },
            _ => LedgerOp::Refund { round },
        };
        let bytes = op.encode();
        self.apply_budget_op(&op)
            .map_err(|e| NetError::Decode(format!("budget: {e}")))?;
        self.record_budget_op(&bytes)?;
        if self.session_ops.insert(bytes.clone()) {
            if let Some(wal) = self.budget_wal.as_mut() {
                wal.append(&bytes)?;
                wal.commit()?;
            }
        }
        Ok(())
    }
}
