//! One aggregation-plane process's state ([`AggState`]) and the journal
//! glue around the core's transitions: journal, then apply, then checkpoint.

mod budget;
mod durable;

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mycelium::aggcore::{
    CommitteeTail, CoreError, Intake, Mark, Parked, Received, Round, RoundCtx, Slot, Timeout,
};
use mycelium::exec::NoisyGroup;
use mycelium::plan::SignedContribution;
use mycelium::roles;
use mycelium::streams as stream;
use mycelium_budget::Ledger;
use mycelium_cert::{render_json, RoundCertificate, SlotStatus};
use mycelium_crypto::codec::Writer;
use mycelium_crypto::sha256::{sha256, Digest};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_query::eval::PlainResult;

use super::spec::{encode_outcome, shard_of, RoundOutcome, RoundSetup, BATCH};
use crate::codec::encode_share;
use crate::error::NetError;
use crate::journal::{Journal, Pending};
use crate::proto::NetMsg;
use durable::{mark_tag, rec};

/// Deterministic fault injection knobs for
/// [`run_aggregator`](super::run_aggregator) — the chaos drill's way of
/// dying at an exact protocol step.
#[derive(Debug, Clone, Default)]
pub struct AggFaults {
    /// Abort (a `kill -9` stand-in: no cleanup, no flush) right after
    /// the `N`th successfully handled — journaled, applied, durable,
    /// but **not yet answered** — message of the given kind.
    pub die_after: Option<(String, u32)>,
    /// Abort mid-`write(2)` of the `N`th journaled record, leaving a
    /// torn tail for the next incarnation to truncate.
    pub die_mid_journal: Option<u32>,
}

/// One aggregation-plane process's entire state. The protocol state, every
/// transition and when each is due live in [`mycelium::aggcore`]; the three
/// layouts are compositions of a [`Round`]:
///
/// * hub — intake over every origin, committee tail;
/// * intake shard — intake over its own origins; its tail is a committee
///   of zero, so every member index is out of range;
/// * coordinator — shard roots, committee tail; its intake owns no origin
///   but holds the commitment plane the roots fill.
///
/// This type adds what both drivers need on top: `NetMsg` ⇄ transition
/// mapping, which deadline has passed on its clock, the budget ledger,
/// and durability — every mutation is journaled before the reply, and
/// [`AggState::recover`] rebuilds an identical state from the journal.
/// The simulator runs it unjournaled, on its virtual ticks.
pub struct AggState {
    setup: Arc<RoundSetup>,
    round: Round,
    shard: Option<u32>,
    who: String,
    clock: Clock,
    started: Duration,
    // Verified per-(origin, slot) ciphertexts, parked until the origin
    // pulls them (empty on the coordinator). Like every ciphertext this
    // state holds, each sits beside the digest taken when it arrived, which
    // is what `digest()` reads; one that arrived in a journalled request is
    // held in its journal record.
    contribs: Vec<Vec<Option<Parked>>>,
    // How many rows of `contribs` are full (derived; what a held pull
    // waits for).
    rows_complete: usize,
    share_deadline: Option<Duration>,
    cert_since: Option<Duration>,
    // Privacy budget (None when the round runs unmetered or on a shard,
    // which never meters).
    ledger: Option<Ledger>,
    budget_wal: Option<Journal>,
    session_ops: BTreeSet<Vec<u8>>,
    round_budget_ops: Vec<Vec<u8>>,
    charged_epsilon: f64,
    // The core's decision as this plane reports it, rendered when it was
    // made: the reject list is the one known then.
    outcome: Option<Result<RoundOutcome, String>>,
    finished_seen: BTreeSet<u64>,
    finished_shards: BTreeSet<u32>,
    driver_seen: bool,
    // Liveness bookkeeping, not journaled: how many already-applied
    // writes arrived again (at-least-once redelivery absorbed by the
    // first-write-wins rule). Reconciled against the injected fault
    // plan by the net-chaos harness.
    duplicates_suppressed: u64,
    // Liveness bookkeeping, not journaled: which rows have been handed to
    // an origin, and how many had been when the last contribution arrived —
    // how far combining overlapped intake.
    rows_handed: BTreeSet<u32>,
    handed_before_last_push: usize,
    rng: StdRng,
    // Durability.
    journal: Option<Journal>,
    replaying: bool,
    undigested: u32,
    digest_due: bool,
    mutating_appends: u32,
    die_mid_journal: Option<u32>,
}

/// Where an [`AggState`] reads the time: how long since its clock started —
/// the wall clock ([`wall_clock`]) or a simulation's virtual ticks.
pub(super) type Clock = Box<dyn Fn() -> Duration + Send>;

/// The wall clock, started now: the one place this state asks it the time.
fn wall_clock() -> Clock {
    let start = Instant::now();
    Box::new(move || start.elapsed())
}

/// Waits until the records `pending` claims are on disk (at once where
/// there is no journal to claim anything of).
pub(super) fn settle(pending: Option<Pending>) -> Result<(), NetError> {
    pending.map_or(Ok(()), |pending| Ok(pending.wait()?))
}

/// A reply as the state hands it over. Parked ciphertexts are named, not
/// copied out: their wire encoding is a copy of the bytes they are held as
/// ([`AggState::encode_reply`]); only a caller that wants the message
/// itself unpacks them ([`AggState::handle_deferred`]).
pub(super) enum Reply {
    Msg(NetMsg),
    /// `OriginJob` over this origin's row as it stands.
    Job(u32),
    /// `ReadyRows` over these origins' rows as they stand.
    Rows(Vec<u32>),
    /// `CommitteeShareTask` over the aggregate and the selection as they stand.
    ShareTask,
}

/// The core's view of the round: immutable inputs derived from the setup.
fn round_ctx(setup: &RoundSetup, charged_epsilon: f64) -> RoundCtx<'_> {
    let (params, seed) = (&setup.params, setup.spec.seed);
    roles::round_ctx(
        &setup.plan,
        &setup.keys,
        &setup.query,
        params,
        seed,
        charged_epsilon,
    )
}

impl AggState {
    /// Fresh (empty) state for this round's aggregation-plane hub
    /// process: the classic single hub at one shard, the coordinator
    /// above that.
    pub fn new(setup: Arc<RoundSetup>) -> Self {
        Self::with_clock(setup, None, wall_clock())
    }

    /// Fresh (empty) state for aggregation shard `shard`.
    pub fn new_shard(setup: Arc<RoundSetup>, shard: u32) -> Self {
        Self::with_clock(setup, Some(shard), wall_clock())
    }

    /// Fresh state for the hub (`None`) or intake shard `shard`, on
    /// `clock` — the simulator's is its virtual ticks.
    pub(super) fn with_clock(setup: Arc<RoundSetup>, shard: Option<u32>, clock: Clock) -> Self {
        let shards = setup.spec.agg_shards;
        let owns = |v| match shard {
            Some(s) => shard_of(v, shards) == s as usize,
            None => shards <= 1,
        };
        let roots = (shard.is_none() && shards > 1).then(|| vec![None; shards]);
        // A shard draws from its own stream and seats a committee of zero.
        let (who, rng_stream, c, t) = match shard {
            Some(s) => (
                format!("agg-shard-{s}"),
                stream::AGGREGATOR + 1 + s as u64,
                0,
                0,
            ),
            None => {
                let (c, t) = (setup.committee_size, setup.threshold);
                ("aggregator".to_string(), stream::AGGREGATOR, c, t)
            }
        };
        let budget = setup.spec.budget.as_ref().filter(|_| shard.is_none());
        let slot_map = setup.slot_map();
        let contribs = match roots {
            None => slot_map.iter().map(|d| vec![None; d.len()]).collect(),
            Some(_) => Vec::new(),
        };
        let round = Round::new(Intake::new(slot_map, owns), roots, CommitteeTail::new(c, t));
        AggState {
            round,
            shard,
            who,
            started: clock(),
            clock,
            contribs,
            rows_complete: 0,
            share_deadline: None,
            cert_since: None,
            ledger: budget.and_then(|cfg| cfg.ledger().ok()),
            budget_wal: None,
            session_ops: BTreeSet::new(),
            round_budget_ops: Vec::new(),
            charged_epsilon: setup.params.epsilon,
            outcome: None,
            finished_seen: BTreeSet::new(),
            finished_shards: BTreeSet::new(),
            driver_seen: false,
            duplicates_suppressed: 0,
            rows_handed: BTreeSet::new(),
            handed_before_last_push: 0,
            rng: StdRng::seed_from_u64(setup.spec.seed).with_stream(rng_stream),
            journal: None,
            replaying: false,
            undigested: 0,
            digest_due: false,
            mutating_appends: 0,
            die_mid_journal: None,
            setup,
        }
    }

    /// This process's log label (`aggregator` or `agg-shard-N`).
    pub fn who(&self) -> &str {
        &self.who
    }

    /// Installs the chaos fault knobs (see [`AggFaults`]).
    pub fn set_faults(&mut self, faults: &AggFaults) {
        self.die_mid_journal = faults.die_mid_journal;
    }

    /// Digest of the protocol state: everything replay must reproduce.
    ///
    /// Clock fields (`started`, `share_deadline`) and liveness
    /// bookkeeping (`finished_seen`, `driver_seen`) are excluded — they
    /// are legitimately different after a restart. The field order is the
    /// journal's checkpoint format and must not change.
    ///
    /// Every held ciphertext enters as its 32-byte [`Parked::digest`], so
    /// a checkpoint costs a few dozen bytes per slot however much is parked.
    pub fn digest(&self) -> Digest {
        // A written slot appears three times: digest, key, status (82 bytes).
        let slots: usize = self.contribs.iter().map(Vec::len).sum();
        let mut w = Writer::with_capacity(4096 + 82 * slots);
        let put_ct = |w: &mut Writer, ct: &Parked| w.put_bytes(ct.digest());
        // A shard (a committee of zero) digests as the round's idle committee:
        // that is what its checkpoints have always recorded.
        let idle = CommitteeTail::new(self.setup.committee_size, self.setup.threshold);
        let Round { intake, roots, .. } = &self.round;
        let tail = if self.shard.is_some() {
            &idle
        } else {
            &self.round.tail
        };
        let plane = &intake.plane;
        let (statuses, rejected) = (&intake.statuses, &plane.rejected);
        let rows = roots.as_ref().unwrap_or(&intake.submissions);
        for s in self.contribs.iter().flatten() {
            w.put_opt(s.as_ref(), put_ct);
        }
        // The set of written slots (once kept as a separate `seen` set).
        w.put_u32(statuses.len() as u32);
        for &(o, s) in statuses.keys() {
            w.put_u32(o);
            w.put_u32(s);
        }
        w.put_u32(rejected.len() as u32);
        for &v in rejected {
            w.put_u32(v);
        }
        for s in rows {
            w.put_opt(s.as_ref(), put_ct);
        }
        w.put_u64(rows.iter().flatten().count() as u64);
        w.put_opt(self.round.aggregate.as_ref(), put_ct);
        for p in &tail.pongs {
            w.put_opt(p.as_ref(), |w, seed| w.put_bytes(seed));
        }
        w.put_u32(tail.share_round);
        w.put_u64_slice(&tail.participants);
        w.put_bool(tail.reselected);
        for s in &tail.shares {
            w.put_opt(s.as_ref(), encode_share);
        }
        w.put_opt(self.outcome.as_ref(), |w, out| {
            w.put_bytes(&encode_outcome(out))
        });
        w.put_u32(statuses.len() as u32);
        for (&(o, s), status) in statuses {
            w.put_u32(o);
            w.put_u32(s);
            match status {
                SlotStatus::Missing => w.put_u8(0),
                SlotStatus::Rejected => w.put_u8(1),
                SlotStatus::Accepted(d) => {
                    w.put_u8(2);
                    w.put_bytes(d);
                }
            }
        }
        w.put_bool(plane.frozen.is_some());
        w.put_bytes(&self.commit_digest());
        w.put_opt(tail.cert.as_ref(), |w, cert| w.put_bytes(&cert.transcript));
        for s in &tail.cert_sigs {
            w.put_opt(s.as_ref(), |w, sig| w.put_bytes(sig));
        }
        w.put_bool(tail.sealed);
        w.put_opt(tail.cert_bytes.as_ref(), |w, bytes| {
            w.put_bytes(&sha256(bytes))
        });
        // Ledger state rides the same digest chain: a replay that
        // re-derives a different budget decision is a typed divergence,
        // exactly like any other protocol-state mismatch. Absent ledger
        // appends nothing, keeping pre-budget journals byte-compatible.
        if let Some(ledger) = &self.ledger {
            w.put_u8(1);
            w.put_bytes(&ledger.digest());
            w.put_u64(self.charged_epsilon.to_bits());
        }
        sha256(&w.finish())
    }

    /// Digest of the frozen commitment plane (the [`rec::COMMIT`] record
    /// body): replay re-derives the commitments from the journaled
    /// intake and must land on the same tree.
    fn commit_digest(&self) -> Digest {
        let commits = &self.round.intake.plane.commits;
        let mut w = Writer::with_capacity(4 + 45 * commits.len());
        w.put_u32(commits.len() as u32);
        for cmt in commits {
            w.put_opt(cmt.as_ref(), |w, cm| {
                w.put_u32(cm.origin);
                w.put_bytes(&cm.leaf);
                w.put_u32(cm.accepted);
                w.put_u32(cm.rejected);
            });
        }
        sha256(&w.finish())
    }

    fn share_wait(&self) -> Duration {
        self.setup
            .spec
            .contrib_deadline
            .max(Duration::from_secs(10))
    }

    /// Ends the round in a failure only this driver can meet (a refused
    /// budget, a failed journal), unjournaled: `msg` is its whole rendering.
    pub(super) fn fail(&mut self, msg: String) {
        self.apply_mark(&Mark::Fail(CoreError::Invalid(msg)));
    }

    // --- phase transitions ----------------------------------------------

    /// Applies a phase transition (live and in replay alike) and adds this
    /// driver's reactions: a selection starts the share wait, and a decision
    /// is rendered as the outcome.
    fn apply_mark(&mut self, mark: &Mark) {
        let setup = Arc::clone(&self.setup);
        let ctx = round_ctx(&setup, self.charged_epsilon);
        self.round.apply(mark, &ctx, &mut self.rng);
        let tail = &self.round.tail;
        match mark {
            Mark::Select | Mark::Reselect if self.round.failed.is_none() => {
                self.share_deadline = Some((self.clock)() + self.share_wait());
            }
            Mark::Seal if tail.cert.is_some() && tail.cert_bytes.is_none() && !self.replaying => {
                eprintln!(
                    "{}: certificate unsigned: {} of {} needed signatures",
                    self.who,
                    tail.cert_sigs.iter().flatten().count(),
                    self.setup.threshold + 1
                );
            }
            _ => {}
        }
        self.note_outcome();
    }

    /// Renders the core's decision, once, as the outcome this plane reports.
    /// A deciding share runs inside its journaled request, so replay
    /// re-derives the outcome (and the certificate) identically.
    fn note_outcome(&mut self) {
        let (None, Some(decided)) = (&self.outcome, self.round.outcome()) else {
            return;
        };
        let mut rejected = self.round.intake.plane.rejected.clone();
        rejected.sort_unstable();
        let rendered = |(exact, released): &(PlainResult, Vec<NoisyGroup>)| RoundOutcome {
            exact: exact.clone(),
            released: released.clone(),
            rejected,
        };
        self.outcome = Some(decided.map(rendered).map_err(CoreError::to_string));
        if self.round.failed.is_none() && self.round.tail.cert.is_none() && !self.replaying {
            eprintln!(
                "{}: certificate skipped: incomplete commitment plane",
                self.who
            );
        }
    }

    /// Whether the core's `timeout` has passed or — `None`, a matter between
    /// this driver and its origins (§4.4) — the contribution deadline.
    fn expired(&self, timeout: Option<Timeout>) -> bool {
        let now = (self.clock)();
        let wait = self.setup.spec.contrib_deadline;
        let since = |t0: Option<Duration>, wait| t0.is_some_and(|t0| now >= t0 + wait);
        match timeout {
            None => since(Some(self.started), wait),
            // Origins substitute at the contribution deadline, then combine
            // and submit: the submissions get as long again.
            Some(Timeout::Intake) => since(Some(self.started), wait * 2),
            Some(Timeout::CheckIn) => since(Some(self.started), wait * 2 + Duration::from_secs(5)),
            Some(Timeout::Shares) => since(self.share_deadline, Duration::ZERO),
            Some(Timeout::Cert) => since(self.cert_since, self.share_wait()),
        }
    }

    /// Lazy time-driven phase transitions, run around every request and by
    /// the server's idle loop (the simulator's tick): while the core says a
    /// transition is due, it is journaled as a mark record *before* it is
    /// applied, so replay re-applies it at the same point in the event order
    /// instead of re-evaluating clock conditions. A decision settles the
    /// budget before anything else is journaled.
    pub(super) fn tick(&mut self) -> Result<(), NetError> {
        if self.replaying {
            return Ok(());
        }
        loop {
            self.settle_budget()?;
            if self.cert_since.is_none() && self.round.signing() {
                self.cert_since = Some((self.clock)());
            }
            let Some(mark) = self.round.due(|t| self.expired(Some(t))) else {
                return Ok(());
            };
            let body = match &mark {
                // The freeze's record carries the digest of what it froze
                // (see [`rec::COMMIT`]), so it alone is applied first; the
                // second application below finds the plane frozen.
                Mark::Commit => {
                    self.apply_mark(&mark);
                    self.commit_digest().to_vec()
                }
                Mark::Fail(e) => e.to_string().into_bytes(),
                _ => Vec::new(),
            };
            self.digest_due = true;
            self.append_record(mark_tag(&mark), &body, None)?;
            self.apply_mark(&mark);
        }
    }

    /// The first-write-wins slot `msg` targets, as the core sees it right
    /// now; `None` for polls, for requests this process's composition
    /// does not serve, and for out-of-range requests.
    fn slot(&self, msg: &NetMsg) -> Option<Slot> {
        let Round { intake, tail, .. } = &self.round;
        match msg {
            NetMsg::PushContrib { origin, slot, .. } => intake.contribution_slot(*origin, *slot),
            NetMsg::SubmitOrigin { origin, .. } => intake.submission_slot(*origin),
            NetMsg::ShardRoot {
                shard,
                rejected,
                commits,
                ..
            } => intake.root_slot(self.round.roots.as_ref()?, *shard, rejected, commits),
            NetMsg::CommitteeCheckIn { member, .. } => tail.pong_slot(*member),
            NetMsg::PushShare { member, round, .. } => tail.share_slot(*member, *round),
            NetMsg::PushCertSig { member, sig } => {
                tail.sig_slot(*member, sig, self.setup.spec.seed)
            }
            _ => return None,
        }
        .ok()
    }

    /// Whether `msg` would mutate protocol state right now — the
    /// journal-before-reply predicate. Liveness bookkeeping
    /// (`finished_seen`, `finished_shards`, `driver_seen`) does not
    /// count: it is not replayed state.
    pub(super) fn mutates(&self, msg: &NetMsg) -> bool {
        self.mutates_at(msg, self.slot(msg))
    }

    /// [`AggState::mutates`], given the slot `msg` targets.
    fn mutates_at(&self, msg: &NetMsg, slot: Option<Slot>) -> bool {
        let wanted = match msg {
            NetMsg::PushContrib { .. } | NetMsg::SubmitOrigin { .. } | NetMsg::ShardRoot { .. } => {
                !self.round.is_over()
            }
            NetMsg::PushShare { .. } => self.round.outcome().is_none(),
            _ => true,
        };
        wanted && slot == Some(Slot::Open)
    }

    /// Whether `msg`, targeting `slot`, is a *redelivery* of a write this
    /// state already holds. Out-of-range or invalid requests are not
    /// duplicates; neither are the always-idempotent polls —
    /// `CommitteeCheckIn` included: members re-poll it by design.
    fn is_duplicate(msg: &NetMsg, slot: Option<Slot>) -> bool {
        !matches!(msg, NetMsg::CommitteeCheckIn { .. }) && slot == Some(Slot::Filled)
    }

    /// Duplicate writes absorbed so far (see `duplicates_suppressed`).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// How many bytes of the ciphertexts requests brought in — contributions,
    /// submissions, shard roots — this state holds in memory: none that its
    /// journal holds. (A rejected contribution's neutral substitute is the
    /// state's own, held in memory.)
    pub fn resident_request_bytes(&self) -> usize {
        let Round { intake, roots, .. } = &self.round;
        let contribs = self.contribs.iter().flatten();
        let held = contribs
            .chain(&intake.submissions)
            .chain(roots.iter().flatten());
        held.flatten().map(Parked::resident).sum()
    }

    /// How far combining overlapped intake: of the rows this process owns
    /// (the second number), how many an origin had been handed when the last
    /// contribution arrived.
    pub fn rows_handed_early(&self) -> (usize, usize) {
        let intake = &self.round.intake;
        let owned = |v: &u32| intake.submission_slot(*v).is_ok();
        let origins = 0..self.setup.works.len() as u32;
        (self.handed_before_last_push, origins.filter(owned).count())
    }

    /// Applies one request to the state and computes the reply. Pure
    /// protocol logic: no journaling, no clock reads — this is the
    /// function journal replay re-runs. Range and composition checks are
    /// the core's typed errors. `ct` is the ciphertext the request carries,
    /// parked, where it was taken in ([`AggState::take_in`]): a request that
    /// mutates nothing leaves it `None` and its ciphertext unread. `screen`
    /// is the slot a live request was found to target ([`AggState::slot`]),
    /// `None` in replay: a certificate signature the screen verified is not
    /// verified again, and replay verifies each once.
    fn apply(
        &mut self,
        msg: NetMsg,
        ct: Option<Parked>,
        screen: Option<Slot>,
    ) -> Result<Reply, NetError> {
        let setup = Arc::clone(&self.setup);
        let ctx = round_ctx(&setup, self.charged_epsilon);
        let done = self.round.is_over();
        let round = &mut self.round;
        let (intake, tail) = (&mut round.intake, &mut round.tail);
        Ok(Reply::Msg(match msg {
            NetMsg::PushContrib { origin, slot, sc } => {
                intake.contribution_slot(origin, slot)?;
                // A decided round (including a budget-refused one)
                // takes no more intake: tell the client to stand down.
                if done {
                    return Ok(Reply::Msg(NetMsg::Finished));
                }
                // Not taken in: a redelivery to a filled slot.
                let Some(ct) = ct else {
                    return Ok(Reply::Msg(NetMsg::Ack));
                };
                let SignedContribution { device, proof, .. } = *sc;
                let rc = Received { device, ct, proof };
                let verified = intake.accept_contribution(origin, slot, rc, &ctx, &mut self.rng)?;
                if let Some(parked) = verified {
                    let row = &mut self.contribs[origin as usize];
                    row[slot as usize] = Some(parked);
                    self.rows_complete += row.iter().all(Option::is_some) as usize;
                    self.handed_before_last_push = self.rows_handed.len();
                }
                NetMsg::Ack
            }
            // The one-origin pull: its row under the same rule, and — what
            // a ready-row pull leaves out — again after its submission.
            NetMsg::PullOrigin { origin } => {
                return Ok(match self.ready_rows(&[origin])? {
                    Reply::Rows(_) => Reply::Job(origin),
                    not_ready => not_ready,
                })
            }
            NetMsg::PullReady { want } => return self.ready_rows(&want),
            NetMsg::SubmitOrigin { origin, .. } => {
                intake.submission_slot(origin)?;
                if done {
                    return Ok(Reply::Msg(NetMsg::Finished));
                }
                if let Some(ct) = ct {
                    intake.accept_submission(origin, ct)?;
                }
                NetMsg::Ack
            }
            NetMsg::CommitteeCheckIn { member, seed } => {
                tail.check_in(member, seed)?;
                if done {
                    if !self.replaying {
                        self.finished_seen.insert(member);
                    }
                    NetMsg::Finished
                } else if let Some(cert) = &tail.cert {
                    // The result is decided; the only thing left to
                    // collect is this member's certificate signature.
                    if tail.cert_sigs[member as usize].is_none() {
                        NetMsg::CertSignTask {
                            transcript: cert.transcript,
                        }
                    } else {
                        NetMsg::CommitteeWait
                    }
                } else if tail.stragglers().contains(&member) {
                    return Ok(Reply::ShareTask);
                } else {
                    NetMsg::CommitteeWait
                }
            }
            NetMsg::PushShare {
                member,
                round,
                share,
            } => {
                if self.round.accept_share(member, round, *share, &ctx)? {
                    self.note_outcome();
                }
                NetMsg::Ack
            }
            NetMsg::PullStatus => {
                if done {
                    if !self.replaying {
                        self.driver_seen = true;
                    }
                    NetMsg::Finished
                } else {
                    NetMsg::CommitteeWait
                }
            }
            NetMsg::PushCertSig { member, sig } => {
                // A forged or corrupted signature is simply not counted;
                // the seal grace decides the quorum.
                match screen {
                    Some(slot) => tail.fill_sig(member, slot, sig)?,
                    None => tail.accept_sig(member, sig, setup.spec.seed)?,
                };
                NetMsg::Ack
            }
            NetMsg::ShardRoot {
                shard,
                rejected,
                commits,
                ..
            } => {
                let roots = round.roots.as_mut().ok_or_else(|| {
                    CoreError::Invalid("shard root pushed at a non-coordinator".into())
                })?;
                intake.root_slot(roots, shard, &rejected, &commits)?;
                if let Some(root) = ct {
                    intake.accept_root(roots, shard, root, rejected, commits)?;
                }
                self.shard_status(shard, NetMsg::Ack)
            }
            NetMsg::PullShardStatus { shard } => {
                // Only a coordinator tracks shards, and only its own: a
                // stray id must never count towards "every shard saw
                // Finished" (nor stall it forever).
                match &round.roots {
                    Some(roots) if (shard as usize) < roots.len() => {}
                    _ => {
                        return Err(CoreError::Invalid(format!("shard {shard} out of range")).into())
                    }
                }
                self.shard_status(shard, NetMsg::CommitteeWait)
            }
            _ => return Err(NetError::Decode("request expected, got a reply".into())),
        }))
    }

    /// The one routine that serves rows. Of the origins in `want` (each
    /// must be this process's, the core's typed error otherwise) that still
    /// owe a submission, the first few — this server's share of a [`BATCH`] —
    /// whose rows can be handed over: every slot verified, or — live only,
    /// §4.4 — the contribution deadline passed. None of them ready is
    /// `OriginPending`, counted in slots over the rows owed; none of them
    /// owed is the empty batch.
    fn ready_rows(&mut self, want: &[u32]) -> Result<Reply, NetError> {
        let intake = &self.round.intake;
        let mut owed = Vec::with_capacity(want.len());
        for &origin in want {
            if intake.submission_slot(origin)? == Slot::Open {
                owed.push(origin);
            }
        }
        if self.round.is_over() {
            return Ok(Reply::Msg(NetMsg::Finished));
        }
        let expired = !self.replaying && self.expired(None);
        let limit = (BATCH / self.setup.spec.agg_shards.max(1)).max(1);
        let (mut ready, mut have, mut need) = (Vec::new(), 0, 0);
        for &origin in &owed {
            let slots = &self.contribs[origin as usize];
            let filled = slots.iter().flatten().count();
            if filled == slots.len() || expired {
                ready.push(origin);
                if ready.len() == limit {
                    break;
                }
            }
            have += filled as u32;
            need += slots.len() as u32;
        }
        if ready.is_empty() && !owed.is_empty() {
            return Ok(Reply::Msg(NetMsg::OriginPending { have, need }));
        }
        self.rows_handed.extend(&ready);
        Ok(Reply::Rows(ready))
    }

    /// Origin `origin`'s row as a pull hands it over: a hole where nothing
    /// was verified in time.
    fn job_row(&self, origin: u32) -> impl ExactSizeIterator<Item = Option<&Parked>> {
        self.contribs[origin as usize].iter().map(Option::as_ref)
    }

    /// Writes `reply`'s wire encoding into `w`.
    pub(super) fn encode_reply(&self, reply: &Reply, w: &mut Writer) {
        match reply {
            Reply::Msg(msg) => msg.encode_into(w),
            Reply::Job(origin) => NetMsg::put_origin_job(w, self.job_row(*origin)),
            Reply::Rows(origins) => {
                let rows = origins.iter().map(|&o| (o, self.job_row(o)));
                NetMsg::put_ready_rows(w, rows);
            }
            Reply::ShareTask => {
                let (tail, aggregate) = (&self.round.tail, self.round.aggregate.as_ref());
                let aggregate = aggregate.expect("selection implies aggregate");
                NetMsg::put_share_task(w, tail.share_round, &tail.participants, aggregate);
            }
        }
    }

    /// `Finished` (noting that shard `shard` observed it) once the round
    /// is over, `waiting` before that.
    fn shard_status(&mut self, shard: u32, waiting: NetMsg) -> NetMsg {
        if !self.round.is_over() {
            return waiting;
        }
        if !self.replaying {
            self.finished_shards.insert(shard);
        }
        NetMsg::Finished
    }

    /// Handles one live request and makes it durable **before**
    /// returning the reply — an acknowledged mutation is always on disk.
    /// `raw` is the request's wire encoding, which `msg` was decoded from:
    /// what the journal stores, and where the state takes the ciphertext a
    /// request carries from (`msg`'s own is never read).
    /// A caller sharing this state with other threads uses
    /// [`AggState::handle_deferred`] and waits outside its lock.
    pub fn handle(&mut self, msg: NetMsg, raw: &[u8]) -> Result<NetMsg, NetError> {
        let (reply, pending) = self.handle_deferred(msg, raw)?;
        settle(pending)?;
        Ok(reply)
    }

    /// The part of [`AggState::handle`] that needs the state: runs due
    /// transitions, journals the request if it mutates state, applies it,
    /// journals any transition it unlocked and the checkpoint they call
    /// for. The reply must not leave the process before the returned
    /// claim has been waited on: it covers this request's records and
    /// every earlier one the reply may reflect, so no reply exposes state
    /// that is not yet on disk.
    pub fn handle_deferred(
        &mut self,
        msg: NetMsg,
        raw: &[u8],
    ) -> Result<(NetMsg, Option<Pending>), NetError> {
        let (reply, pending) = self.handle_reply(msg, raw)?;
        let reply = match reply {
            Reply::Msg(msg) => msg,
            parked => {
                let mut w = Writer::new();
                self.encode_reply(&parked, &mut w);
                NetMsg::decode(&w.finish(), &self.setup.cc)?
            }
        };
        Ok((reply, pending))
    }

    pub(super) fn handle_reply(
        &mut self,
        msg: NetMsg,
        raw: &[u8],
    ) -> Result<(Reply, Option<Pending>), NetError> {
        self.tick()?;
        // The request's one screen: a certificate signature is verified
        // here and `apply` takes the verdict.
        let slot = self.slot(&msg);
        let mut ct = None;
        if self.mutates_at(&msg, slot) {
            ct = self.take_in(&msg, raw)?;
        } else if Self::is_duplicate(&msg, slot) {
            self.duplicates_suppressed += 1;
        }
        let reply = self.apply(msg, ct, slot)?;
        self.tick()?;
        self.checkpoint()?;
        Ok((reply, self.pending()))
    }

    /// What a thread sleeping on this state can be waiting for. The main
    /// loop: the sealed root or aggregate, the end of the round, and who
    /// has observed it. A held request: a row completing (`PullReady`,
    /// `PullOrigin`), the share round opening or the certificate awaiting
    /// signatures (`CommitteeCheckIn`), the end of the round (every poll).
    /// [`SharedAgg`](super::SharedAgg) wakes its sleepers when any of them
    /// moves — never per request.
    pub(super) fn milestones(&self) -> impl PartialEq {
        (
            self.round.aggregate.is_some(),
            self.round.is_over(),
            self.finished_seen.len(),
            self.finished_shards.len(),
            self.driver_seen,
            self.rows_complete,
            self.round.tail.share_round,
            self.round.tail.cert.is_some(),
        )
    }

    /// Whether the round is over for its clients: decided, and no
    /// certificate signature still wanted.
    pub(super) fn is_over(&self) -> bool {
        self.round.is_over()
    }

    /// Whether everyone who must observe `Finished` has done so: the
    /// driver, and — unless the process goes `without_stragglers` — every
    /// committee member and, at a coordinator, every shard.
    pub(super) fn finished_observed(&self, without_stragglers: bool) -> bool {
        let spec = &self.setup.spec;
        let shards_expected = if spec.agg_shards > 1 {
            spec.agg_shards
        } else {
            0
        };
        let all_observed = self.finished_seen.len() == self.setup.committee_size
            && self.finished_shards.len() == shards_expected;
        self.driver_seen && (all_observed || without_stragglers)
    }

    /// Takes the outcome, for the process to write as it exits.
    pub(super) fn take_outcome(&mut self) -> Option<Result<RoundOutcome, String>> {
        self.outcome.take()
    }

    /// Whether the round has produced an outcome (success or typed
    /// failure).
    pub fn is_finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// The shard's sealed `ShardRoot` message once the partial sum is
    /// formed (`None` before that, and always off a shard): the root plus
    /// the reject set and commitments frozen right before it sealed.
    pub fn shard_root_msg(&self) -> Option<NetMsg> {
        let (shard, root) = (self.shard?, self.round.aggregate.as_ref()?);
        let plane = &self.round.intake.plane;
        let mut rejected = plane.certified().to_vec();
        rejected.sort_unstable();
        Some(NetMsg::ShardRoot {
            shard,
            rejected,
            commits: plane.commits.iter().flatten().cloned().collect(),
            root: Box::new(root.ct()),
        })
    }

    /// The sealed round certificate's canonical bytes, once the seal
    /// happened and the signature quorum was reached (`None` before the
    /// seal, below quorum, and always on shards).
    pub fn certificate(&self) -> Option<&[u8]> {
        self.round.tail.cert_bytes.as_deref()
    }

    /// The sealed certificate rendered as the `ROUND_cert.json` artifact
    /// (human-readable fields plus the canonical bytes hex-embedded).
    pub fn certificate_json(&self) -> Option<String> {
        self.certificate().and_then(|bytes| {
            RoundCertificate::decode(bytes)
                .ok()
                .map(|cert| render_json(&cert, bytes) + "\n")
        })
    }

    /// The decided outcome (the released result, or the typed failure).
    pub fn outcome(&self) -> Option<&Result<RoundOutcome, String>> {
        self.outcome.as_ref()
    }

    /// A typed terminal failure, if the round recorded one.
    pub fn failure(&self) -> Option<String> {
        self.outcome()?.as_ref().err().cloned()
    }

    /// The core's typed error the round ended in, if it failed.
    pub(super) fn core_error(&self) -> Option<&CoreError> {
        self.round.failed.as_ref()
    }

    /// Whether the aggregate (a shard's root) has formed.
    pub(super) fn aggregated(&self) -> bool {
        self.round.aggregate.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::super::spec::{build_setup, RoundSpec};
    use super::*;
    use mycelium::roles::Member;
    use mycelium_bgv::encoding::encode_constant;
    use mycelium_bgv::Ciphertext;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The contribution deadline `D`, in milliseconds of the test's clock.
    const D: u64 = 1_000;

    /// A hub of an `n = 16` round with deadline `D`, on a clock the test sets.
    fn hub() -> (AggState, Arc<AtomicU64>) {
        let spec = RoundSpec {
            n: 16,
            contrib_deadline: Duration::from_millis(D),
            ..RoundSpec::default()
        };
        let ticks = Arc::new(AtomicU64::new(0));
        let setup = Arc::new(build_setup(&spec).unwrap());
        let clock = Arc::clone(&ticks);
        let clock = Box::new(move || Duration::from_millis(clock.load(Ordering::Relaxed)));
        (AggState::with_clock(setup, None, clock), ticks)
    }

    fn ask(st: &mut AggState, msg: NetMsg) -> NetMsg {
        let raw = msg.encode();
        st.handle_deferred(msg, &raw).unwrap().0
    }

    /// Runs the due transitions at `ms`.
    fn at(st: &mut AggState, ticks: &AtomicU64, ms: u64) {
        ticks.store(ms, Ordering::Relaxed);
        st.tick().unwrap();
    }

    /// `moved` turns true at `ms` and not 1 ms earlier.
    fn fires_at(st: &mut AggState, ticks: &AtomicU64, ms: u64, moved: impl Fn(&AggState) -> bool) {
        at(st, ticks, ms - 1);
        assert!(!moved(st), "fired 1 ms before {ms}");
        at(st, ticks, ms);
        assert!(moved(st), "did not fire at {ms}");
    }

    #[test]
    fn a_row_is_handed_over_with_holes_at_the_contribution_deadline() {
        let (mut st, ticks) = hub();
        let origin = st.setup.works.iter().position(|w| !w.requests.is_empty());
        let origin = origin.expect("an origin with neighbours") as u32;
        let slots = st.setup.works[origin as usize].requests.len();
        let pull = NetMsg::PullOrigin { origin };
        ticks.store(D - 1, Ordering::Relaxed);
        assert!(matches!(
            ask(&mut st, pull.clone()),
            NetMsg::OriginPending { have: 0, .. }
        ));
        ticks.store(D, Ordering::Relaxed);
        let NetMsg::OriginJob { cts } = ask(&mut st, pull) else {
            panic!("no row at the deadline");
        };
        assert_eq!(cts.len(), slots);
        assert!(cts.iter().all(Option::is_none), "every slot a hole");
    }

    #[test]
    fn the_aggregate_forms_at_twice_the_deadline_with_enc_zero_for_the_missing() {
        let (mut st, ticks) = hub();
        let (keys, plan) = (&st.setup.keys, &st.setup.plan);
        let one = encode_constant(1, plan.n_ring, plan.t_pt).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let ct = Box::new(Ciphertext::encrypt(&keys.public, &one, &mut rng).unwrap());
        assert!(matches!(
            ask(&mut st, NetMsg::SubmitOrigin { origin: 0, ct }),
            NetMsg::Ack
        ));
        fires_at(&mut st, &ticks, 2 * D, AggState::aggregated);
        // Every other origin added an Enc(0).
        let aggregate = st.round.aggregate.as_ref().unwrap().ct();
        assert_eq!(
            aggregate.decrypt(&st.setup.keys.secret).coeffs(),
            one.coeffs()
        );
    }

    #[test]
    fn selection_reselection_and_seal_fire_at_their_offsets() {
        let (mut st, ticks) = hub();
        let setup = Arc::clone(&st.setup);
        let mut members: Vec<Member> = (1..=5).map(|m| Member::new(setup.spec.seed, m)).collect();
        at(&mut st, &ticks, 2 * D);
        // Member 5 never checks in: selection waits out the check-in wait.
        for m in 1..=4u64 {
            let seed = members[m as usize - 1].noise_seed();
            ask(&mut st, NetMsg::CommitteeCheckIn { member: m, seed });
        }
        let selected = 2 * D + 5_000;
        let round = |st: &AggState| st.round.tail.share_round;
        fires_at(&mut st, &ticks, selected, |st| round(st) == 1);
        assert_eq!(st.round.tail.participants, [1, 2, 3]);
        let aggregate = st.round.aggregate.as_ref().unwrap().ct();
        let mut share = |st: &mut AggState, m: u64| {
            let (round, participants) = (round(st), st.round.tail.participants.clone());
            let member = &mut members[m as usize - 1];
            let share = member.share(&setup.key_shares, round, &participants, &aggregate);
            let share = Box::new(share.unwrap());
            ask(
                st,
                NetMsg::PushShare {
                    member: m,
                    round,
                    share,
                },
            );
        };
        // Member 3 straggles: it is reselected away `share_wait` later.
        share(&mut st, 1);
        share(&mut st, 2);
        let share_wait = st.share_wait().as_millis() as u64;
        let reselected = selected + share_wait;
        fires_at(&mut st, &ticks, reselected, |st| round(st) == 2);
        assert_eq!(st.round.tail.participants, [1, 2, 4]);
        for m in [1, 2, 4] {
            share(&mut st, m);
        }
        assert!(
            matches!(st.outcome(), Some(Ok(_))),
            "the last share decides"
        );
        // Three of five sign: the seal waits out the signature wait.
        let transcript = st.round.tail.cert.as_ref().unwrap().transcript;
        for m in [1u64, 2, 4] {
            let sig = members[m as usize - 1].sign(&transcript);
            ask(&mut st, NetMsg::PushCertSig { member: m, sig });
        }
        fires_at(&mut st, &ticks, reselected + share_wait, |st| st.is_over());
        assert!(st.certificate().is_some(), "three signatures are a quorum");
    }
}
