//! One aggregation-plane process's state ([`AggState`]) and the journal
//! glue around the core's transitions: journal, then apply, then checkpoint.

mod budget;

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mycelium::aggcore::{
    CommitteeTail, CoreError, Intake, Mark, Parked, Round, RoundCtx, Slot, Timeout,
};
use mycelium::exec::NoisyGroup;
use mycelium::roles;
use mycelium::streams as stream;
use mycelium_bgv::Ciphertext;
use mycelium_budget::{Ledger, LedgerOp};
use mycelium_cert::{render_json, RoundCertificate, SlotStatus};
use mycelium_crypto::sha256::{sha256, Digest};
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_query::eval::PlainResult;

use super::spec::{encode_outcome, shard_of, RoundOutcome, RoundSetup, BATCH};
use crate::codec::encode_share;
use crate::error::NetError;
use crate::journal::{Journal, JournalError, Pending, SyncStats};
use crate::proto::NetMsg;
use crate::wire::Writer;

/// Journal record tags (first payload byte of every record). The six
/// wall-clock transitions are the core's [`Mark`]s ([`mark_tag`], [`mark_of`]).
mod rec {
    /// An accepted state-mutating request (body = `NetMsg` encoding).
    pub const REQ: u8 = 1;
    /// Wall-clock transition: form the aggregate (missing → `Enc(0)`).
    pub const AGGREGATE: u8 = 2;
    /// Wall-clock transition: select the decryption participants.
    pub const SELECT: u8 = 3;
    /// Wall-clock transition: reselect after share stragglers.
    pub const RESELECT: u8 = 4;
    /// Terminal typed failure (body = UTF-8 message).
    pub const FAIL: u8 = 5;
    /// State-digest checkpoint (body = 32-byte [`AggState::digest`]).
    pub const DIGEST: u8 = 6;
    /// Wall-clock transition: freeze the per-origin certificate
    /// commitments (body = 32-byte commitment-plane digest, so a replay
    /// that re-derives a different tree is a typed divergence). Always
    /// journaled *before* [`AGGREGATE`]: commitment-then-seal is the
    /// ordering that makes late contributions unable to move the tree.
    pub const COMMIT: u8 = 7;
    /// Wall-clock transition: seal the round certificate with whatever
    /// committee signatures arrived.
    pub const SEAL: u8 = 8;
    /// A privacy-budget ledger decision (body = canonical
    /// [`LedgerOp`](mycelium_budget::LedgerOp) encoding). Replay
    /// re-applies the op, so a recovered aggregator re-derives the
    /// bit-identical ledger — including refusals.
    pub const BUDGET: u8 = 9;
}

/// Append a digest checkpoint after this many undigested records.
const DIGEST_EVERY: u32 = 8;

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
/// This type adds what the real-process driver needs on top: `NetMsg` ⇄
/// transition mapping, which wall-clock deadline has passed, the budget
/// ledger, and durability — every mutation is journaled before the reply,
/// and [`AggState::recover`] rebuilds an identical state from the journal.
pub struct AggState {
    setup: Arc<RoundSetup>,
    round: Round<Parked>,
    shard: Option<u32>,
    who: String,
    started: Instant,
    // Verified per-(origin, slot) ciphertexts, parked until the origin
    // pulls them (empty on the coordinator). Like every ciphertext this
    // state holds, each sits beside the digest taken when it was accepted,
    // which is what `digest()` reads.
    contribs: Vec<Vec<Option<Parked>>>,
    // How many rows of `contribs` are full (derived; what a held pull
    // waits for).
    rows_complete: usize,
    share_deadline: Option<Instant>,
    cert_since: Option<Instant>,
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

/// The one place this state asks what time it is.
fn now() -> Instant {
    Instant::now()
}

/// Waits until the records `pending` claims are on disk (at once where
/// there is no journal to claim anything of).
pub(super) fn settle(pending: Option<Pending>) -> Result<(), NetError> {
    pending.map_or(Ok(()), |pending| Ok(pending.wait()?))
}

/// The journal tag of a phase transition.
fn mark_tag(mark: &Mark) -> u8 {
    match mark {
        Mark::Commit => rec::COMMIT,
        Mark::Aggregate => rec::AGGREGATE,
        Mark::Select => rec::SELECT,
        Mark::Reselect => rec::RESELECT,
        Mark::Fail(_) => rec::FAIL,
        Mark::Seal => rec::SEAL,
    }
}

/// The phase transition a replayed record of `tag` stands for; a failure
/// comes back as its journaled rendering.
fn mark_of(tag: u8, body: &[u8]) -> Option<Mark> {
    let fail = Mark::Fail(CoreError::Invalid(
        String::from_utf8_lossy(body).into_owned(),
    ));
    let marks = [
        Mark::Commit,
        Mark::Aggregate,
        Mark::Select,
        Mark::Reselect,
        fail,
        Mark::Seal,
    ];
    marks.into_iter().find(|mark| mark_tag(mark) == tag)
}

/// A reply as the state hands it over. Rows are named, not copied out:
/// their wire encoding reads the parked ciphertexts where they lie
/// ([`AggState::encode_reply`]); only a caller that wants the message
/// itself pays for them ([`AggState::handle_deferred`]).
pub(super) enum Reply {
    Msg(NetMsg),
    /// `OriginJob` over this origin's row as it stands.
    Job(u32),
    /// `ReadyRows` over these origins' rows as they stand.
    Rows(Vec<u32>),
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
        let shards = setup.spec.agg_shards;
        let roots = (shards > 1).then(|| vec![None; shards]);
        Self::compose(setup, |_| shards <= 1, roots, None)
    }

    /// Fresh (empty) state for aggregation shard `shard`.
    pub fn new_shard(setup: Arc<RoundSetup>, shard: u32) -> Self {
        let shards = setup.spec.agg_shards;
        let owns = |v| shard_of(v, shards) == shard as usize;
        Self::compose(setup, owns, None, Some(shard))
    }

    fn compose(
        setup: Arc<RoundSetup>,
        owns: impl Fn(VertexId) -> bool,
        roots: Option<Vec<Option<Parked>>>,
        shard: Option<u32>,
    ) -> Self {
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
            started: now(),
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

    /// Opens (or creates) the journal at `path` and replays every
    /// recorded event, rebuilding the exact pre-crash state. Embedded
    /// digest checkpoints are verified along the way — a divergent
    /// replay is a typed [`JournalError::StateDiverged`], never a
    /// silently wrong round.
    pub fn recover(setup: Arc<RoundSetup>, path: &Path) -> Result<Self, NetError> {
        let binding = setup.spec.coordinator_binding_digest();
        Self::recover_as(AggState::new(setup), &binding, path)
    }

    /// [`AggState::recover`] for aggregation shard `shard`: same replay
    /// machinery against the shard's own WAL partition, whose binding
    /// digest carries the shard id and shard count.
    pub fn recover_shard(
        setup: Arc<RoundSetup>,
        shard: u32,
        path: &Path,
    ) -> Result<Self, NetError> {
        let binding = setup.spec.shard_binding_digest(shard);
        Self::recover_as(AggState::new_shard(setup, shard), &binding, path)
    }

    fn recover_as(mut st: AggState, binding: &Digest, path: &Path) -> Result<Self, NetError> {
        let (journal, records) = Journal::open_or_create(path, binding)?;
        st.replaying = true;
        for (seq, record) in records.iter().enumerate() {
            st.apply_record(record, seq as u64)?;
        }
        // The journal's bytes are replayed into state: do not also carry
        // them through the round.
        let replayed = records.len();
        drop(records);
        st.replaying = false;
        st.journal = Some(journal);
        // Wall-clock deadlines do not survive a crash: restart them so
        // straggler detection (and the one reselect) still fires.
        st.started = now();
        if !st.round.tail.participants.is_empty() && st.outcome.is_none() {
            st.share_deadline = Some(now() + st.share_wait());
        }
        if replayed > 0 {
            eprintln!("{}: replayed {replayed} journal records", st.who);
        }
        Ok(st)
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
    /// Wall-clock fields (`started`, `share_deadline`) and liveness
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
        fn put_opt<T>(w: &mut Writer, v: &Option<T>, put: impl FnOnce(&mut Writer, &T)) {
            w.put_u8(v.is_some() as u8);
            if let Some(v) = v {
                put(w, v);
            }
        }
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
            put_opt(&mut w, s, put_ct);
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
            put_opt(&mut w, s, put_ct);
        }
        w.put_u64(rows.iter().flatten().count() as u64);
        put_opt(&mut w, &self.round.aggregate, put_ct);
        for p in &tail.pongs {
            put_opt(&mut w, p, |w, seed| w.put_bytes(seed));
        }
        w.put_u32(tail.share_round);
        w.put_u32(tail.participants.len() as u32);
        for &m in &tail.participants {
            w.put_u64(m);
        }
        w.put_u8(tail.reselected as u8);
        for s in &tail.shares {
            put_opt(&mut w, s, encode_share);
        }
        put_opt(&mut w, &self.outcome, |w, out| {
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
        w.put_u8(plane.frozen.is_some() as u8);
        w.put_bytes(&self.commit_digest());
        put_opt(&mut w, &tail.cert, |w, cert| w.put_bytes(&cert.transcript));
        for s in &tail.cert_sigs {
            put_opt(&mut w, s, |w, sig| w.put_bytes(sig));
        }
        w.put_u8(tail.sealed as u8);
        put_opt(&mut w, &tail.cert_bytes, |w, bytes| {
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
            match cmt {
                None => w.put_u8(0),
                Some(cm) => {
                    w.put_u8(1);
                    w.put_u32(cm.origin);
                    w.put_bytes(&cm.leaf);
                    w.put_u32(cm.accepted);
                    w.put_u32(cm.rejected);
                }
            }
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

    // --- journaling ------------------------------------------------------

    /// Appends the record `tag ‖ body` (not yet durable; see
    /// [`AggState::pending`]).
    fn append_record(&mut self, tag: u8, body: &[u8]) -> Result<(), NetError> {
        if self.replaying {
            return Ok(());
        }
        let Some(j) = self.journal.as_mut() else {
            return Ok(());
        };
        self.mutating_appends += 1;
        if self.die_mid_journal == Some(self.mutating_appends) {
            // Chaos: die mid-write(2). Persist a record prefix, then
            // abort without flushing anything else — the next
            // incarnation must truncate the torn tail.
            let record_len = 1 + body.len();
            j.arm_torn_write(record_len / 2 + 2);
            let _ = j.append_parts(&[&[tag], body]);
            eprintln!(
                "{}: chaos kill mid-journal-write (record {})",
                self.who, self.mutating_appends
            );
            std::process::abort();
        }
        j.append_parts(&[&[tag], body])?;
        self.undigested += 1;
        Ok(())
    }

    /// Closes one handled request's run of records: appends a
    /// state-digest checkpoint if a phase transition is among them or
    /// [`DIGEST_EVERY`] records went by without one. (Both conditions are
    /// only ever raised beside an append, so a request that appended
    /// nothing checkpoints nothing.)
    pub(super) fn checkpoint(&mut self) -> Result<(), NetError> {
        if self.digest_due || self.undigested >= DIGEST_EVERY {
            self.append_record(rec::DIGEST, &self.digest())?;
            self.undigested = 0;
            self.digest_due = false;
        }
        Ok(())
    }

    /// A claim on the durability of every record appended so far (`None`
    /// without a journal). Taken under the state lock, waited on outside
    /// it ([`settle`]).
    pub(super) fn pending(&self) -> Option<Pending> {
        self.journal.as_ref().map(Journal::pending)
    }

    /// Replays one journal record during [`AggState::recover`].
    fn apply_record(&mut self, record: &[u8], seq: u64) -> Result<(), NetError> {
        let Some((&tag, body)) = record.split_first() else {
            return Err(JournalError::Replay {
                seq,
                why: "empty record".into(),
            }
            .into());
        };
        match tag {
            rec::REQ => {
                let msg = NetMsg::decode(body, &self.setup.cc)?;
                self.apply(msg).map_err(|e| JournalError::Replay {
                    seq,
                    why: e.to_string(),
                })?;
            }
            rec::BUDGET => {
                let op = LedgerOp::decode(body).map_err(|e| JournalError::Replay {
                    seq,
                    why: format!("budget record: {e}"),
                })?;
                self.apply_budget_op(&op)
                    .map_err(|e| JournalError::Replay {
                        seq,
                        why: format!("budget record: {e}"),
                    })?;
                self.round_budget_ops.push(body.to_vec());
            }
            // A checkpoint of the whole state, or — the freeze's record —
            // of the commitment plane the replayed freeze must re-derive.
            rec::DIGEST | rec::COMMIT => {
                let want: Digest = body.try_into().map_err(|_| JournalError::Replay {
                    seq,
                    why: format!("digest record of {} bytes", body.len()),
                })?;
                let got = match tag {
                    rec::DIGEST => self.digest(),
                    _ => {
                        self.apply_mark(&Mark::Commit);
                        self.commit_digest()
                    }
                };
                if got != want {
                    return Err(JournalError::StateDiverged {
                        at_records: seq,
                        want,
                        got,
                    }
                    .into());
                }
            }
            tag => match mark_of(tag, body) {
                Some(mark) => self.apply_mark(&mark),
                None => {
                    return Err(JournalError::Replay {
                        seq,
                        why: format!("unknown record tag {tag}"),
                    }
                    .into())
                }
            },
        }
        Ok(())
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
                self.share_deadline = Some(now() + self.share_wait());
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
        let now = now();
        let wait = self.setup.spec.contrib_deadline;
        let since = |t0: Option<Instant>, wait| t0.is_some_and(|t0| now >= t0 + wait);
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

    /// Lazy wall-clock phase transitions, run around every request and by
    /// the server's idle loop: while the core says a transition is due, it
    /// is journaled as a mark record *before* it is applied, so replay
    /// re-applies it at the same point in the event order instead of
    /// re-evaluating wall-clock conditions. A decision settles the budget
    /// before anything else is journaled.
    pub(super) fn tick(&mut self) -> Result<(), NetError> {
        if self.replaying {
            return Ok(());
        }
        loop {
            self.settle_budget()?;
            if self.cert_since.is_none() && self.round.signing() {
                self.cert_since = Some(now());
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
            self.append_record(mark_tag(&mark), &body)?;
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
    fn mutates(&self, msg: &NetMsg) -> bool {
        let wanted = match msg {
            NetMsg::PushContrib { .. } | NetMsg::SubmitOrigin { .. } | NetMsg::ShardRoot { .. } => {
                !self.round.is_over()
            }
            NetMsg::PushShare { .. } => self.round.outcome().is_none(),
            _ => true,
        };
        wanted && self.slot(msg) == Some(Slot::Open)
    }

    /// Whether `msg` is a *redelivery* of a write this state already
    /// holds. Out-of-range or invalid requests are not duplicates;
    /// neither are the always-idempotent polls — `CommitteeCheckIn`
    /// included: members re-poll it by design.
    fn is_duplicate(&self, msg: &NetMsg) -> bool {
        !matches!(msg, NetMsg::CommitteeCheckIn { .. }) && self.slot(msg) == Some(Slot::Filled)
    }

    /// Duplicate writes absorbed so far (see `duplicates_suppressed`).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
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
    /// protocol logic: no journaling, no wall-clock reads — this is the
    /// function journal replay re-runs. Range and composition checks are
    /// the core's typed errors.
    fn apply(&mut self, msg: NetMsg) -> Result<Reply, NetError> {
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
                let verified =
                    intake.accept_contribution(origin, slot, *sc, &ctx, &mut self.rng)?;
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
            NetMsg::SubmitOrigin { origin, ct } => {
                intake.submission_slot(origin)?;
                if done {
                    return Ok(Reply::Msg(NetMsg::Finished));
                }
                intake.accept_submission(origin, *ct)?;
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
                    let aggregate = round.aggregate.as_ref();
                    let aggregate = aggregate.expect("selection implies aggregate");
                    NetMsg::CommitteeShareTask {
                        round: tail.share_round,
                        participants: tail.participants.clone(),
                        ct: Box::new(aggregate.ct().clone()),
                    }
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
                tail.accept_sig(member, sig, setup.spec.seed)?;
                NetMsg::Ack
            }
            NetMsg::ShardRoot {
                shard,
                rejected,
                commits,
                root,
            } => {
                let roots = round.roots.as_mut().ok_or_else(|| {
                    CoreError::Invalid("shard root pushed at a non-coordinator".into())
                })?;
                let slot = intake.root_slot(roots, shard, &rejected, &commits)?;
                if !done && slot == Slot::Open {
                    intake.accept_root(roots, shard, Parked::new(*root), rejected, commits)?;
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
    fn job_row(&self, origin: u32) -> impl ExactSizeIterator<Item = Option<&Ciphertext>> {
        let row = self.contribs[origin as usize].iter();
        row.map(|slot| slot.as_ref().map(Parked::ct))
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
    /// `raw` is the request's wire encoding (what the journal stores).
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
        let cloned = |origin| self.job_row(origin).map(|ct| ct.cloned()).collect();
        let reply = match reply {
            Reply::Msg(msg) => msg,
            Reply::Job(origin) => NetMsg::OriginJob {
                cts: cloned(origin),
            },
            Reply::Rows(origins) => NetMsg::ReadyRows {
                rows: origins.into_iter().map(|o| (o, cloned(o))).collect(),
            },
        };
        Ok((reply, pending))
    }

    pub(super) fn handle_reply(
        &mut self,
        msg: NetMsg,
        raw: &[u8],
    ) -> Result<(Reply, Option<Pending>), NetError> {
        self.tick()?;
        if self.mutates(&msg) {
            self.append_record(rec::REQ, raw)?;
        } else if self.is_duplicate(&msg) {
            self.duplicates_suppressed += 1;
        }
        let reply = self.apply(msg)?;
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

    /// How many records the journal currently holds (tests).
    pub fn journal_records(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::record_count)
    }

    /// How many of them this process has made durable (tests).
    pub fn durable_records(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::durable_count)
    }

    /// The journal's group-commit counters.
    pub fn sync_stats(&self) -> SyncStats {
        self.journal
            .as_ref()
            .map_or_else(SyncStats::default, Journal::sync_stats)
    }

    /// The shard's sealed `ShardRoot` message once the partial tree is
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
            root: Box::new(root.ct().clone()),
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
}
