//! The per-dataset epsilon ledger and its canonical operation log.

use std::collections::BTreeMap;

use mycelium_crypto::codec::{CodecError, Reader, Writer};
use mycelium_crypto::sha256::{sha256, Digest};
use mycelium_query::CostReport;

use crate::compose::{composed_epsilon, Composition};
use crate::BudgetError;

/// Slack added to admission comparisons so a budget of `5.0` admits five
/// `1.0` charges despite floating-point summation (mirrors
/// `PrivacyBudget::charge`).
const EPS_TOLERANCE: f64 = 1e-12;
/// Longest query name a record may carry (names, not payloads).
const MAX_QUERY: usize = 1 << 16;

/// The `(ε, δ, sensitivity)` price of one query release.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCost {
    /// Epsilon charged for the release.
    pub epsilon: f64,
    /// Delta slack attributed to the release (0 for pure ε-DP).
    pub delta: f64,
    /// DP sensitivity of the released statistic.
    pub sensitivity: f64,
}

impl QueryCost {
    fn validate(&self) -> Result<(), BudgetError> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(BudgetError::InvalidParameter(format!(
                "epsilon {} must be positive and finite",
                self.epsilon
            )));
        }
        if !self.delta.is_finite() || !(0.0..1.0).contains(&self.delta) {
            return Err(BudgetError::InvalidParameter(format!(
                "delta {} outside [0, 1)",
                self.delta
            )));
        }
        if !self.sensitivity.is_finite() || self.sensitivity < 0.0 {
            return Err(BudgetError::InvalidParameter(format!(
                "sensitivity {} must be finite and non-negative",
                self.sensitivity
            )));
        }
        Ok(())
    }

    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.epsilon);
        w.put_f64(self.delta);
        w.put_f64(self.sensitivity);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(QueryCost {
            epsilon: r.f64("epsilon")?,
            delta: r.f64("delta")?,
            sensitivity: r.f64("sensitivity")?,
        })
    }
}

/// One round's admission record: which query ran as which session round,
/// at what price.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Session round index (unique per ledger).
    pub round: u32,
    /// Query name (for the audit trail; pricing lives in `cost`).
    pub query: String,
    /// The price.
    pub cost: QueryCost,
}

impl LedgerEntry {
    /// Builds the entry for session round `round` from a query's
    /// [`CostReport`].
    pub fn from_report(round: u32, report: &CostReport) -> Self {
        LedgerEntry {
            round,
            query: report.name.clone(),
            cost: QueryCost {
                epsilon: report.epsilon,
                delta: report.delta,
                sensitivity: report.sensitivity,
            },
        }
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.round);
        w.put_str(&self.query);
        self.cost.encode(w);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(LedgerEntry {
            round: r.u32("round")?,
            query: r.str("query", MAX_QUERY)?,
            cost: QueryCost::decode(r)?,
        })
    }
}

/// Settlement state of an admitted entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Admitted; the charge is reserved but the round has not settled.
    Reserved,
    /// The round released a result; the charge is final.
    Charged,
    /// The round failed after admission; the reservation was released.
    Refunded,
}

impl EntryState {
    fn tag(self) -> u8 {
        match self {
            EntryState::Reserved => 0,
            EntryState::Charged => 1,
            EntryState::Refunded => 2,
        }
    }
}

/// One journaled accounting decision. The byte encoding is canonical:
/// executors persist exactly these bytes in their WALs, and replaying
/// them through [`Ledger::apply`] reproduces the ledger bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerOp {
    /// Reserve the entry's charge for its round.
    Admit(LedgerEntry),
    /// Settle a reserved round's charge (the round released a result).
    Charge {
        /// The settling round.
        round: u32,
    },
    /// Release a reserved round's charge (the round failed after
    /// admission).
    Refund {
        /// The refunded round.
        round: u32,
    },
    /// Refuse the entry: admitting it would exceed the budget.
    Refuse {
        /// The refused request.
        entry: LedgerEntry,
        /// Budget remaining at refusal time (for the audit trail).
        remaining: f64,
    },
}

impl LedgerOp {
    /// The session round this op concerns.
    pub fn round(&self) -> u32 {
        match self {
            LedgerOp::Admit(e) | LedgerOp::Refuse { entry: e, .. } => e.round,
            LedgerOp::Charge { round } | LedgerOp::Refund { round } => *round,
        }
    }

    /// Canonical byte encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            LedgerOp::Admit(entry) => {
                w.put_u8(1);
                entry.encode(&mut w);
            }
            LedgerOp::Charge { round } => {
                w.put_u8(2);
                w.put_u32(*round);
            }
            LedgerOp::Refund { round } => {
                w.put_u8(3);
                w.put_u32(*round);
            }
            LedgerOp::Refuse { entry, remaining } => {
                w.put_u8(4);
                entry.encode(&mut w);
                w.put_f64(*remaining);
            }
        }
        w.finish()
    }

    /// Strict decoding (trailing bytes rejected).
    pub fn decode(bytes: &[u8]) -> Result<Self, BudgetError> {
        let mut r = Reader::new(bytes);
        let op = match r.u8("ledger op")? {
            1 => LedgerOp::Admit(LedgerEntry::decode(&mut r)?),
            2 => LedgerOp::Charge {
                round: r.u32("round")?,
            },
            3 => LedgerOp::Refund {
                round: r.u32("round")?,
            },
            4 => LedgerOp::Refuse {
                entry: LedgerEntry::decode(&mut r)?,
                remaining: r.f64("remaining")?,
            },
            tag => return CodecError::bad_tag("ledger op", tag),
        };
        r.end()?;
        Ok(op)
    }
}

/// The per-dataset epsilon ledger.
///
/// A pure state machine over [`LedgerOp`]s: `decide` proposes the op for
/// a round request, `apply` folds an op in (idempotently, so WAL replay
/// after a crash converges on the same state), and `digest` canonically
/// hashes the entire account. Persistence is the caller's job.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    dataset: String,
    capacity: f64,
    composition: Composition,
    entries: BTreeMap<u32, (LedgerEntry, EntryState)>,
    refused: BTreeMap<u32, LedgerEntry>,
}

impl Ledger {
    /// Opens a fresh ledger for `dataset` with an epsilon `capacity`.
    pub fn new(
        dataset: &str,
        capacity: f64,
        composition: Composition,
    ) -> Result<Self, BudgetError> {
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(BudgetError::InvalidParameter(format!(
                "budget capacity {capacity} must be positive and finite"
            )));
        }
        composition.validate()?;
        Ok(Ledger {
            dataset: dataset.to_string(),
            capacity,
            composition,
            entries: BTreeMap::new(),
            refused: BTreeMap::new(),
        })
    }

    /// The dataset this ledger guards.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Total epsilon capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The composition rule in force.
    pub fn composition(&self) -> Composition {
        self.composition
    }

    /// Composed epsilon spend over live (reserved or charged) entries.
    pub fn spent(&self) -> f64 {
        let live: Vec<&QueryCost> = self
            .entries
            .values()
            .filter(|(_, st)| *st != EntryState::Refunded)
            .map(|(e, _)| &e.cost)
            .collect();
        composed_epsilon(&live, self.composition)
    }

    /// Epsilon still available.
    pub fn remaining(&self) -> f64 {
        (self.capacity - self.spent()).max(0.0)
    }

    /// The recorded entry and state for `round`, if admitted.
    pub fn entry(&self, round: u32) -> Option<(&LedgerEntry, EntryState)> {
        self.entries.get(&round).map(|(e, st)| (e, *st))
    }

    /// The recorded refusal for `round`, if refused.
    pub fn refusal(&self, round: u32) -> Option<&LedgerEntry> {
        self.refused.get(&round)
    }

    /// Number of recorded decisions (admitted + refused rounds).
    pub fn decided_rounds(&self) -> usize {
        self.entries.len() + self.refused.len()
    }

    /// Whether admitting `entry` on top of the live set stays within
    /// capacity.
    fn fits(&self, entry: &LedgerEntry) -> bool {
        let mut live: Vec<&QueryCost> = self
            .entries
            .values()
            .filter(|(_, st)| *st != EntryState::Refunded)
            .map(|(e, _)| &e.cost)
            .collect();
        live.push(&entry.cost);
        composed_epsilon(&live, self.composition) <= self.capacity + EPS_TOLERANCE
    }

    /// Proposes the accounting op for a round request without mutating
    /// the ledger. For a round that already has a recorded decision the
    /// same decision is re-proposed (idempotent re-admission after a
    /// crash), provided the request matches the record.
    pub fn decide(&self, entry: &LedgerEntry) -> Result<LedgerOp, BudgetError> {
        entry.cost.validate()?;
        if let Some((recorded, _)) = self.entries.get(&entry.round) {
            if recorded != entry {
                return Err(BudgetError::Conflict {
                    round: entry.round,
                    what: "admitted entry differs from the request",
                });
            }
            return Ok(LedgerOp::Admit(entry.clone()));
        }
        if let Some(recorded) = self.refused.get(&entry.round) {
            if recorded != entry {
                return Err(BudgetError::Conflict {
                    round: entry.round,
                    what: "refused entry differs from the request",
                });
            }
            return Ok(LedgerOp::Refuse {
                entry: entry.clone(),
                remaining: self.remaining(),
            });
        }
        if self.fits(entry) {
            Ok(LedgerOp::Admit(entry.clone()))
        } else {
            Ok(LedgerOp::Refuse {
                entry: entry.clone(),
                remaining: self.remaining(),
            })
        }
    }

    /// Folds one op into the ledger. Replaying an op the ledger already
    /// contains is a no-op (WAL replay safety); contradictory ops are
    /// typed [`BudgetError::Conflict`]s.
    pub fn apply(&mut self, op: &LedgerOp) -> Result<(), BudgetError> {
        match op {
            LedgerOp::Admit(entry) => {
                entry.cost.validate()?;
                if let Some(recorded) = self.refused.get(&entry.round) {
                    let what = if recorded == entry {
                        "round was refused"
                    } else {
                        "round was refused (different entry)"
                    };
                    return Err(BudgetError::Conflict {
                        round: entry.round,
                        what,
                    });
                }
                match self.entries.get(&entry.round) {
                    Some((recorded, _)) if recorded == entry => Ok(()),
                    Some(_) => Err(BudgetError::Conflict {
                        round: entry.round,
                        what: "round already admitted with a different entry",
                    }),
                    None => {
                        self.entries
                            .insert(entry.round, (entry.clone(), EntryState::Reserved));
                        Ok(())
                    }
                }
            }
            LedgerOp::Charge { round } => match self.entries.get_mut(round) {
                None => Err(BudgetError::UnknownRound(*round)),
                Some((_, st @ EntryState::Reserved)) => {
                    *st = EntryState::Charged;
                    Ok(())
                }
                Some((_, EntryState::Charged)) => Ok(()),
                Some((_, EntryState::Refunded)) => Err(BudgetError::Conflict {
                    round: *round,
                    what: "cannot charge a refunded round",
                }),
            },
            LedgerOp::Refund { round } => match self.entries.get_mut(round) {
                None => Err(BudgetError::UnknownRound(*round)),
                Some((_, st @ EntryState::Reserved)) => {
                    *st = EntryState::Refunded;
                    Ok(())
                }
                Some((_, EntryState::Refunded)) => Ok(()),
                Some((_, EntryState::Charged)) => Err(BudgetError::Conflict {
                    round: *round,
                    what: "cannot refund a settled charge",
                }),
            },
            LedgerOp::Refuse { entry, .. } => {
                entry.cost.validate()?;
                if self.entries.contains_key(&entry.round) {
                    return Err(BudgetError::Conflict {
                        round: entry.round,
                        what: "round was admitted",
                    });
                }
                match self.refused.get(&entry.round) {
                    Some(recorded) if recorded == entry => Ok(()),
                    Some(_) => Err(BudgetError::Conflict {
                        round: entry.round,
                        what: "round already refused with a different entry",
                    }),
                    None => {
                        self.refused.insert(entry.round, entry.clone());
                        Ok(())
                    }
                }
            }
        }
    }

    /// Replays a sequence of encoded ops (a WAL's record stream) into the
    /// ledger.
    pub fn replay<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<usize, BudgetError> {
        let mut n = 0;
        for rec in records {
            self.apply(&LedgerOp::decode(rec)?)?;
            n += 1;
        }
        Ok(n)
    }

    /// Canonical digest over the complete account: dataset, capacity,
    /// composition rule, every admitted entry with its settlement state,
    /// and every refusal. Two ledgers with the same digest priced the
    /// same history identically.
    pub fn digest(&self) -> Digest {
        let mut w = Writer::new();
        w.put_str("myc-budget-ledger-v1");
        w.put_str(&self.dataset);
        w.put_f64(self.capacity);
        self.composition.encode(&mut w);
        w.put_u32(self.entries.len() as u32);
        for (entry, st) in self.entries.values() {
            entry.encode(&mut w);
            w.put_u8(st.tag());
        }
        w.put_u32(self.refused.len() as u32);
        for entry in self.refused.values() {
            entry.encode(&mut w);
        }
        sha256(&w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(round: u32, epsilon: f64) -> LedgerEntry {
        LedgerEntry {
            round,
            query: format!("Q{round}"),
            cost: QueryCost {
                epsilon,
                delta: 0.0,
                sensitivity: 2.0,
            },
        }
    }

    #[test]
    fn ops_roundtrip_byte_exactly() {
        let ops = [
            LedgerOp::Admit(entry(0, 1.0)),
            LedgerOp::Charge { round: 0 },
            LedgerOp::Refund { round: 3 },
            LedgerOp::Refuse {
                entry: entry(5, 0.5),
                remaining: 0.25,
            },
        ];
        for op in &ops {
            let bytes = op.encode();
            assert_eq!(&LedgerOp::decode(&bytes).unwrap(), op);
            // Trailing garbage rejected.
            let mut ext = bytes.clone();
            ext.push(0);
            assert!(matches!(LedgerOp::decode(&ext), Err(BudgetError::Codec(_))));
        }
        assert!(matches!(
            LedgerOp::decode(&[77]),
            Err(BudgetError::Codec(_))
        ));
        assert!(matches!(LedgerOp::decode(&[]), Err(BudgetError::Codec(_))));
    }

    #[test]
    fn reserve_charge_refund_lifecycle() {
        let mut l = Ledger::new("contacts", 2.5, Composition::Basic).unwrap();
        l.apply(&LedgerOp::Admit(entry(0, 1.0))).unwrap();
        assert_eq!(l.spent(), 1.0);
        assert_eq!(l.entry(0).unwrap().1, EntryState::Reserved);
        l.apply(&LedgerOp::Charge { round: 0 }).unwrap();
        assert_eq!(l.entry(0).unwrap().1, EntryState::Charged);
        // A failed round gives its reservation back.
        l.apply(&LedgerOp::Admit(entry(1, 1.0))).unwrap();
        assert_eq!(l.spent(), 2.0);
        l.apply(&LedgerOp::Refund { round: 1 }).unwrap();
        assert_eq!(l.spent(), 1.0);
        assert_eq!(l.remaining(), 1.5);
        // Settled charges cannot be refunded; refunded rounds cannot be
        // charged; unknown rounds are typed errors.
        assert!(matches!(
            l.apply(&LedgerOp::Refund { round: 0 }),
            Err(BudgetError::Conflict { .. })
        ));
        assert!(matches!(
            l.apply(&LedgerOp::Charge { round: 1 }),
            Err(BudgetError::Conflict { .. })
        ));
        assert!(matches!(
            l.apply(&LedgerOp::Charge { round: 9 }),
            Err(BudgetError::UnknownRound(9))
        ));
    }

    #[test]
    fn decide_admits_until_capacity_then_refuses() {
        let mut l = Ledger::new("contacts", 2.0, Composition::Basic).unwrap();
        for round in 0..2 {
            match l.decide(&entry(round, 1.0)).unwrap() {
                op @ LedgerOp::Admit(_) => l.apply(&op).unwrap(),
                op => panic!("round {round}: expected admit, got {op:?}"),
            }
        }
        // Exactly at capacity (tolerance absorbs float summation).
        assert_eq!(l.remaining(), 0.0);
        match l.decide(&entry(2, 1.0)).unwrap() {
            op @ LedgerOp::Refuse { .. } => {
                l.apply(&op).unwrap();
                assert!(l.refusal(2).is_some());
            }
            op => panic!("expected refusal, got {op:?}"),
        }
        // A refund frees room again — for a new round; the refused one,
        // re-decided, stays refused.
        l.apply(&LedgerOp::Refund { round: 1 }).unwrap();
        assert!(matches!(
            l.decide(&entry(2, 1.0)).unwrap(),
            LedgerOp::Refuse { .. }
        ));
        assert!(matches!(
            l.decide(&entry(3, 1.0)).unwrap(),
            LedgerOp::Admit(_)
        ));
        // Re-admitting an admitted round re-proposes its admission and
        // charges nothing twice.
        let spent = l.spent();
        let again = l.decide(&entry(0, 1.0)).unwrap();
        assert_eq!(again, LedgerOp::Admit(entry(0, 1.0)));
        l.apply(&again).unwrap();
        assert_eq!(l.spent(), spent, "re-admission must not double-charge");
    }

    #[test]
    fn replay_is_idempotent_and_digest_identical() {
        let build = |replays: usize| {
            let mut l = Ledger::new("contacts", 3.0, Composition::Basic).unwrap();
            let ops = [
                LedgerOp::Admit(entry(0, 1.0)),
                LedgerOp::Charge { round: 0 },
                LedgerOp::Admit(entry(1, 1.0)),
                LedgerOp::Refund { round: 1 },
                LedgerOp::Admit(entry(2, 1.0)),
                LedgerOp::Charge { round: 2 },
                LedgerOp::Admit(entry(3, 1.0)),
                LedgerOp::Refuse {
                    entry: entry(4, 1.0),
                    remaining: 0.0,
                },
            ];
            let encoded: Vec<Vec<u8>> = ops.iter().map(|o| o.encode()).collect();
            for _ in 0..replays {
                l.replay(encoded.iter().map(|r| r.as_slice())).unwrap();
            }
            l
        };
        let once = build(1);
        let thrice = build(3);
        assert_eq!(once, thrice);
        assert_eq!(once.digest(), thrice.digest());
        // The digest covers settlement state: charging round 3 changes it.
        let mut settled = once.clone();
        settled.apply(&LedgerOp::Charge { round: 3 }).unwrap();
        assert_ne!(once.digest(), settled.digest());
    }

    #[test]
    fn refusals_stay_refused_and_conflicts_are_typed() {
        let mut l = Ledger::new("contacts", 1.0, Composition::Basic).unwrap();
        l.apply(&LedgerOp::Admit(entry(0, 1.0))).unwrap();
        let refuse = l.decide(&entry(1, 1.0)).unwrap();
        assert!(matches!(refuse, LedgerOp::Refuse { .. }));
        l.apply(&refuse).unwrap();
        // Replaying the decision proposes the same refusal.
        assert!(matches!(
            l.decide(&entry(1, 1.0)).unwrap(),
            LedgerOp::Refuse { .. }
        ));
        // Admitting a refused round is a contradiction, not a retry.
        assert!(matches!(
            l.apply(&LedgerOp::Admit(entry(1, 1.0))),
            Err(BudgetError::Conflict { .. })
        ));
        // A different entry under an already-decided round id conflicts.
        assert!(matches!(
            l.decide(&entry(0, 0.5)),
            Err(BudgetError::Conflict { .. })
        ));
    }

    #[test]
    fn invalid_costs_and_capacity_are_rejected() {
        assert!(Ledger::new("d", 0.0, Composition::Basic).is_err());
        assert!(Ledger::new("d", f64::NAN, Composition::Basic).is_err());
        let l = Ledger::new("d", 1.0, Composition::Basic).unwrap();
        for bad in [
            QueryCost {
                epsilon: 0.0,
                delta: 0.0,
                sensitivity: 1.0,
            },
            QueryCost {
                epsilon: 1.0,
                delta: 1.0,
                sensitivity: 1.0,
            },
            QueryCost {
                epsilon: 1.0,
                delta: 0.0,
                sensitivity: -1.0,
            },
            QueryCost {
                epsilon: f64::INFINITY,
                delta: 0.0,
                sensitivity: 1.0,
            },
        ] {
            let e = LedgerEntry {
                round: 0,
                query: "q".into(),
                cost: bad,
            };
            assert!(matches!(
                l.decide(&e),
                Err(BudgetError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn advanced_composition_admits_more_small_queries() {
        // 250 queries at ε = 0.01: basic runs out after capacity/ε = 200,
        // while the advanced bound at k = 250 is ≈ 1.04 — well inside.
        let capacity = 2.0;
        let mut basic = Ledger::new("d", capacity, Composition::Basic).unwrap();
        let mut adv = Ledger::new("d", capacity, Composition::Advanced { delta: 1e-9 }).unwrap();
        let mut basic_admitted = 0;
        let mut adv_admitted = 0;
        for round in 0..250 {
            let e = entry(round, 0.01);
            if let LedgerOp::Admit(_) = basic.decide(&e).unwrap() {
                basic.apply(&LedgerOp::Admit(e.clone())).unwrap();
                basic.apply(&LedgerOp::Charge { round }).unwrap();
                basic_admitted += 1;
            }
            if let LedgerOp::Admit(_) = adv.decide(&e).unwrap() {
                adv.apply(&LedgerOp::Admit(e)).unwrap();
                adv.apply(&LedgerOp::Charge { round }).unwrap();
                adv_admitted += 1;
            }
        }
        assert_eq!(basic_admitted, 200, "basic admits capacity/epsilon");
        assert!(
            adv_admitted > basic_admitted,
            "advanced ({adv_admitted}) must stretch past basic ({basic_admitted})"
        );
    }
}
