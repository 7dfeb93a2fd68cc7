//! The privacy-budget ledger mirrored on the simnet: a [`BudgetActor`]
//! owning a [`Ledger`] answers analyst proposals over a lossy,
//! fault-injected link.
//!
//! The in-process session (`mycelium_net::QuerySession`)
//! and the TCP service (`mycelium-net`'s `--budget-*` flags) both talk to
//! the ledger through function calls; this module puts the same
//! accountant behind a message boundary so the admission protocol itself
//! can be tested under drops, duplicate delivery, and crash windows. The
//! safety argument is the ledger's idempotency: a byte-identical
//! re-proposal of a decided round returns the recorded decision, and
//! re-applying a settlement is a no-op — so at-least-once delivery (the
//! analyst's [`Retrier`]) composes into exactly-once accounting.
//!
//! [`run_budget_scenario`] packages the two-actor protocol behind a
//! seeded [`BudgetScenario`]; [`BudgetScenario::refusal`] is the stock
//! over-capacity session whose refusals land at fixed rounds regardless
//! of fault plan.

use std::cell::RefCell;
use std::rc::Rc;

use mycelium_budget::{Composition, Decision, Ledger, LedgerEntry, LedgerOp, QueryCost};
use mycelium_simnet::{ActorId, Ctx, FaultPlan, Payload, Process, Retrier, Simulation};

/// The budget-admission wire protocol.
#[derive(Clone, Debug)]
pub enum BudgetMsg {
    /// Analyst → ledger: price and admit `round`. Safe to retransmit —
    /// decided rounds are re-answered from the record.
    Propose {
        /// The proposed round index.
        round: u32,
        /// The query's name (recorded in the ledger entry).
        query: String,
        /// The statically priced cost.
        cost: QueryCost,
    },
    /// Ledger → analyst: the round is admitted and its epsilon reserved.
    Granted {
        /// The admitted round.
        round: u32,
        /// Epsilon reserved for the round.
        charged: f64,
        /// Composed headroom after the reservation.
        remaining: f64,
    },
    /// Ledger → analyst: permanent typed refusal — the round would
    /// overrun the session capacity.
    Denied {
        /// The refused round.
        round: u32,
        /// Epsilon the round asked for.
        requested: f64,
        /// Composed headroom at refusal time.
        remaining: f64,
    },
    /// Analyst → ledger: settle an admitted round's reservation
    /// (`success` charges it, failure refunds it). Idempotent.
    Settle {
        /// The round to settle.
        round: u32,
        /// Whether the round executed successfully.
        success: bool,
    },
    /// Ledger → analyst: the settlement is recorded.
    Settled {
        /// The settled round.
        round: u32,
    },
}

impl Payload for BudgetMsg {}

/// The ledger service: one actor owning the session's [`Ledger`],
/// deciding proposals and settlements in arrival order.
///
/// The ledger is shared out through an `Rc<RefCell<_>>` so the harness
/// can read spent/remaining/digest after the simulation ends.
pub struct BudgetActor {
    ledger: Rc<RefCell<Ledger>>,
}

impl BudgetActor {
    /// Wraps a shared ledger as a simnet actor.
    pub fn new(ledger: Rc<RefCell<Ledger>>) -> Self {
        Self { ledger }
    }
}

impl Process<BudgetMsg> for BudgetActor {
    fn on_message(&mut self, ctx: &mut Ctx<BudgetMsg>, from: ActorId, msg: BudgetMsg) {
        match msg {
            BudgetMsg::Propose { round, query, cost } => {
                let entry = LedgerEntry { round, query, cost };
                // Duplicate proposals re-derive the recorded decision;
                // only a *conflicting* re-proposal (different bytes for a
                // decided round) errors, and that is a protocol bug worth
                // crashing the simulation over.
                let decision = self
                    .ledger
                    .borrow_mut()
                    .schedule(&entry)
                    .expect("re-proposals are byte-identical");
                let reply = match decision {
                    Decision::Admitted {
                        charged,
                        remaining_after,
                    } => BudgetMsg::Granted {
                        round,
                        charged,
                        remaining: remaining_after,
                    },
                    Decision::Refused(refusal) => BudgetMsg::Denied {
                        round,
                        requested: entry.cost.epsilon,
                        remaining: match refusal {
                            mycelium_dp::DpError::BudgetExhausted { remaining, .. } => remaining,
                            _ => 0.0,
                        },
                    },
                };
                ctx.send(from, reply);
            }
            BudgetMsg::Settle { round, success } => {
                let op = if success {
                    LedgerOp::Charge { round }
                } else {
                    LedgerOp::Refund { round }
                };
                // Idempotent: re-applying a recorded settlement is a
                // no-op, so duplicated Settle messages ack cleanly.
                self.ledger
                    .borrow_mut()
                    .apply(&op)
                    .expect("settlements are idempotent");
                ctx.send(from, BudgetMsg::Settled { round });
            }
            // Replies routed at us by mistake are dropped.
            BudgetMsg::Granted { .. } | BudgetMsg::Denied { .. } | BudgetMsg::Settled { .. } => {}
        }
    }
}

/// One round's recorded outcome, as seen by the analyst.
#[derive(Clone, Debug, PartialEq)]
pub enum RoundVerdict {
    /// The round was admitted and (in these scenarios) charged.
    Admitted {
        /// The admitted round.
        round: u32,
        /// Epsilon reserved.
        charged: f64,
        /// Headroom after the reservation.
        remaining: f64,
    },
    /// The round was refused.
    Refused {
        /// The refused round.
        round: u32,
        /// Epsilon requested.
        requested: f64,
        /// Headroom at refusal.
        remaining: f64,
    },
}

/// Where the analyst is in its strictly sequential script.
enum AnalystPhase {
    /// Waiting for the verdict on round `i` of the script.
    Proposing(usize),
    /// Round `i` was granted; waiting for its settlement ack.
    Settling(usize),
    /// Script exhausted.
    Done,
}

/// The analyst: proposes each scripted round in order, settles admitted
/// rounds as successes, and records every verdict. All traffic goes
/// through a [`Retrier`], so dropped requests and dropped replies are
/// retransmitted — exercising the ledger's idempotency.
pub struct AnalystActor {
    budget: ActorId,
    script: Vec<(String, QueryCost)>,
    retrier: Retrier<BudgetMsg>,
    verdicts: Rc<RefCell<Vec<RoundVerdict>>>,
    phase: AnalystPhase,
}

impl AnalystActor {
    /// Message/timer id space: proposal for script index `i` is `2i`,
    /// its settlement is `2i + 1`.
    fn propose_id(i: usize) -> u64 {
        2 * i as u64
    }
    fn settle_id(i: usize) -> u64 {
        2 * i as u64 + 1
    }

    /// Builds an analyst that will drive `script` against `budget`.
    pub fn new(
        budget: ActorId,
        script: Vec<(String, QueryCost)>,
        base_timeout: u64,
        max_retries: u32,
        verdicts: Rc<RefCell<Vec<RoundVerdict>>>,
    ) -> Self {
        Self {
            budget,
            script,
            retrier: Retrier::new(base_timeout, max_retries),
            verdicts,
            phase: AnalystPhase::Proposing(0),
        }
    }

    fn advance(&mut self, ctx: &mut Ctx<BudgetMsg>, next: usize) {
        if next >= self.script.len() {
            self.phase = AnalystPhase::Done;
            ctx.halt();
            return;
        }
        let (query, cost) = self.script[next].clone();
        self.phase = AnalystPhase::Proposing(next);
        self.retrier.send(
            ctx,
            Self::propose_id(next),
            self.budget,
            BudgetMsg::Propose {
                round: next as u32,
                query,
                cost,
            },
        );
    }
}

impl Process<BudgetMsg> for AnalystActor {
    fn on_start(&mut self, ctx: &mut Ctx<BudgetMsg>) {
        self.advance(ctx, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<BudgetMsg>, _from: ActorId, msg: BudgetMsg) {
        match (&self.phase, msg) {
            (
                &AnalystPhase::Proposing(i),
                BudgetMsg::Granted {
                    round,
                    charged,
                    remaining,
                },
            ) if round as usize == i => {
                self.retrier.ack(Self::propose_id(i));
                self.verdicts.borrow_mut().push(RoundVerdict::Admitted {
                    round,
                    charged,
                    remaining,
                });
                self.phase = AnalystPhase::Settling(i);
                self.retrier.send(
                    ctx,
                    Self::settle_id(i),
                    self.budget,
                    BudgetMsg::Settle {
                        round,
                        success: true,
                    },
                );
            }
            (
                &AnalystPhase::Proposing(i),
                BudgetMsg::Denied {
                    round,
                    requested,
                    remaining,
                },
            ) if round as usize == i => {
                self.retrier.ack(Self::propose_id(i));
                self.verdicts.borrow_mut().push(RoundVerdict::Refused {
                    round,
                    requested,
                    remaining,
                });
                self.advance(ctx, i + 1);
            }
            (&AnalystPhase::Settling(i), BudgetMsg::Settled { round }) if round as usize == i => {
                self.retrier.ack(Self::settle_id(i));
                self.advance(ctx, i + 1);
            }
            // Anything else is a stale duplicate from an earlier phase
            // (its retrier entry is already acked) — drop it.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<BudgetMsg>, key: u64) {
        self.retrier.on_timer(ctx, key);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<BudgetMsg>) {
        self.retrier.resend_all(ctx);
    }
}

/// A seeded budget-admission scenario: a capacity, a charge script, and
/// a fault plan.
#[derive(Clone)]
pub struct BudgetScenario {
    /// Simulation seed (drives latency jitter and fault sampling).
    pub seed: u64,
    /// Ledger dataset label.
    pub dataset: String,
    /// Session epsilon capacity.
    pub capacity: f64,
    /// Composition rule the ledger accounts under.
    pub composition: Composition,
    /// Per-round epsilon charges; round `i` proposes `charges[i]` as
    /// query `Qi`.
    pub charges: Vec<f64>,
    /// Network faults to inject.
    pub faults: FaultPlan,
    /// Retrier base timeout (ticks) and retry budget.
    pub base_timeout: u64,
    /// Maximum retransmissions per message.
    pub max_retries: u32,
    /// Simulation tick budget.
    pub max_ticks: u64,
}

impl BudgetScenario {
    /// The stock refusal scenario: capacity 2.0 under basic composition
    /// with charges `[1.0, 0.8, 0.5, 0.15, 0.5]` — rounds 2 and 4
    /// overrun and must be refused, rounds 0, 1, and 3 admit
    /// (cumulative 1.0, 1.8, 1.95).
    pub fn refusal(seed: u64) -> Self {
        Self {
            seed,
            dataset: "contacts".into(),
            capacity: 2.0,
            composition: Composition::Basic,
            charges: vec![1.0, 0.8, 0.5, 0.15, 0.5],
            faults: FaultPlan::none(),
            base_timeout: 64,
            max_retries: 12,
            max_ticks: 10_000_000,
        }
    }

    /// The same session over a lossy link.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.faults = self.faults.with_drop_prob(p);
        self
    }
}

/// What a scenario run produced.
#[derive(Clone, Debug)]
pub struct BudgetRunReport {
    /// Whether the simulation converged (analyst finished its script).
    pub converged: bool,
    /// Every verdict in proposal order.
    pub verdicts: Vec<RoundVerdict>,
    /// Final composed epsilon spent.
    pub spent: f64,
    /// Final composed headroom.
    pub remaining: f64,
    /// The final ledger digest — must be identical across fault plans.
    pub digest: [u8; 32],
    /// Total retransmissions the analyst needed.
    pub retries: u64,
}

/// Runs one [`BudgetScenario`] to completion and reports the ledger's
/// final state.
pub fn run_budget_scenario(sc: &BudgetScenario) -> BudgetRunReport {
    let ledger = Rc::new(RefCell::new(
        Ledger::new(&sc.dataset, sc.capacity, sc.composition).expect("scenario ledger is valid"),
    ));
    let verdicts = Rc::new(RefCell::new(Vec::new()));
    let script: Vec<(String, QueryCost)> = sc
        .charges
        .iter()
        .enumerate()
        .map(|(i, &epsilon)| {
            (
                format!("Q{i}"),
                QueryCost {
                    epsilon,
                    delta: 0.0,
                    sensitivity: 1.0,
                },
            )
        })
        .collect();

    let mut sim = Simulation::new(sc.seed).with_fault_plan(sc.faults.clone());
    let budget_id = sim.add_actor(Box::new(BudgetActor::new(Rc::clone(&ledger))));
    sim.add_actor(Box::new(AnalystActor::new(
        budget_id,
        script,
        sc.base_timeout,
        sc.max_retries,
        Rc::clone(&verdicts),
    )));
    let report = sim.run(sc.max_ticks);
    let retries = sim.metrics.total_retries();
    let ledger = ledger.borrow();
    let verdicts = verdicts.borrow().clone();
    BudgetRunReport {
        converged: report.converged,
        verdicts,
        spent: ledger.spent(),
        remaining: ledger.remaining(),
        digest: ledger.digest(),
        retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refused_rounds(r: &BudgetRunReport) -> Vec<u32> {
        r.verdicts
            .iter()
            .filter_map(|v| match v {
                RoundVerdict::Refused { round, .. } => Some(*round),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn seeded_refusals_are_deterministic_across_reruns() {
        let a = run_budget_scenario(&BudgetScenario::refusal(7));
        let b = run_budget_scenario(&BudgetScenario::refusal(7));
        assert!(a.converged && b.converged);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.digest, b.digest);
        assert_eq!(refused_rounds(&a), vec![2, 4]);
        assert!((a.spent - 1.95).abs() < 1e-12, "spent {}", a.spent);
    }

    #[test]
    fn lossy_link_reaches_the_fault_free_ledger() {
        let clean = run_budget_scenario(&BudgetScenario::refusal(7));
        let lossy = run_budget_scenario(&BudgetScenario::refusal(7).with_drop_prob(0.3));
        assert!(clean.converged && lossy.converged);
        assert_eq!(clean.retries, 0);
        assert!(
            lossy.retries > 0,
            "30% loss must force at least one retransmission"
        );
        // Duplicate proposals and settlements from retransmission must
        // not change a single accounting bit.
        assert_eq!(lossy.verdicts, clean.verdicts);
        assert_eq!(lossy.digest, clean.digest);
        assert_eq!(lossy.spent, clean.spent);
    }

    #[test]
    fn analyst_blackout_recovers_by_resend() {
        // The analyst crashes right after its opening burst; on restart
        // `resend_all` puts the in-flight proposal back on the wire and
        // the session still settles to the canonical ledger.
        let clean = run_budget_scenario(&BudgetScenario::refusal(11));
        let mut sc = BudgetScenario::refusal(11);
        sc.faults = FaultPlan::none().with_crash_window(1, 3, 400);
        let crashed = run_budget_scenario(&sc);
        assert!(crashed.converged, "blackout must not wedge the session");
        assert_eq!(crashed.verdicts, clean.verdicts);
        assert_eq!(crashed.digest, clean.digest);
    }

    #[test]
    fn advanced_composition_admits_more_rounds_than_basic() {
        // 180 rounds of epsilon 0.01 against capacity 0.5: basic
        // composition refuses from round 50 on; advanced composition
        // (delta 1e-3) prices the homogeneous run at
        // ε·√(2k·ln(1/δ)) + k·ε·(e^ε − 1) and admits ~165.
        let mut basic = BudgetScenario::refusal(3);
        basic.capacity = 0.5;
        basic.charges = vec![0.01; 180];
        let mut adv = basic.clone();
        adv.composition = Composition::Advanced { delta: 1e-3 };
        let b = run_budget_scenario(&basic);
        let a = run_budget_scenario(&adv);
        assert!(b.converged && a.converged);
        let admitted = |r: &BudgetRunReport| {
            r.verdicts
                .iter()
                .filter(|v| matches!(v, RoundVerdict::Admitted { .. }))
                .count()
        };
        assert_eq!(admitted(&b), 50);
        assert!(
            admitted(&a) > admitted(&b),
            "advanced admitted {} vs basic {}",
            admitted(&a),
            admitted(&b)
        );
    }
}
