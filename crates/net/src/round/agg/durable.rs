//! The durability of [`AggState`]: the journal's record tags, the records
//! a handled request appends (a request's ciphertext spanned, so the journal
//! holds it for the state), the state-digest checkpoints, and the replay
//! that rebuilds the state from them.

use std::path::Path;
use std::sync::Arc;

use mycelium::aggcore::{CoreError, Mark, Parked, Stored};
use mycelium::plan::encoding_digest;
use mycelium_budget::LedgerOp;
use mycelium_crypto::sha256::Digest;

use super::AggState;
use crate::error::NetError;
use crate::journal::{Entry, Journal, JournalError, Pending, Span, SyncStats};
use crate::proto::NetMsg;
use crate::round::RoundSetup;

/// Journal record tags (first payload byte of every record). The six
/// wall-clock transitions are the core's [`Mark`]s ([`mark_tag`], [`mark_of`]).
pub(super) mod rec {
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

/// The journal tag of a phase transition.
pub(super) fn mark_tag(mark: &Mark) -> u8 {
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

impl AggState {
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
        st.replaying = true;
        let replay = |entry: Entry<'_>| st.apply_record(entry);
        let journal = Journal::replay_or_create(path, binding, replay)?;
        let replayed = journal.record_count();
        st.replaying = false;
        st.journal = Some(journal);
        // Wall-clock deadlines do not survive a crash: restart them so
        // straggler detection (and the one reselect) still fires.
        st.started = (st.clock)();
        if !st.round.tail.participants.is_empty() && st.outcome.is_none() {
            st.share_deadline = Some(st.started + st.share_wait());
        }
        if replayed > 0 {
            eprintln!("{}: replayed {replayed} journal records", st.who);
        }
        Ok(st)
    }

    /// Appends the record `tag ‖ body` (not yet durable; see
    /// [`AggState::pending`]), with the span of a ciphertext in `body` where
    /// there is one. Returns where the journal holds that ciphertext.
    pub(super) fn append_record(
        &mut self,
        tag: u8,
        body: &[u8],
        span: Option<&Span>,
    ) -> Result<Option<Stored>, NetError> {
        if self.replaying {
            return Ok(None);
        }
        let Some(j) = self.journal.as_mut() else {
            return Ok(None);
        };
        // The span, in the record: behind its tag.
        let span = span.map(|span| Span {
            at: span.at.start + 1..span.at.end + 1,
            digest: span.digest,
        });
        self.mutating_appends += 1;
        if self.die_mid_journal == Some(self.mutating_appends) {
            // Chaos: die mid-write(2). Persist a record prefix, then
            // abort without flushing anything else — the next
            // incarnation must truncate the torn tail.
            let record_len = 1 + body.len();
            j.arm_torn_write(record_len / 2 + 2);
            let _ = j.append_parts(&[&[tag], body], span.as_ref());
            eprintln!(
                "{}: chaos kill mid-journal-write (record {})",
                self.who, self.mutating_appends
            );
            std::process::abort();
        }
        let stored = j.append_parts(&[&[tag], body], span.as_ref())?;
        self.undigested += 1;
        Ok(stored)
    }

    /// Takes in a request that mutates state: journals it, as the bytes
    /// `raw` it arrived as, and returns the ciphertext it carries, if any —
    /// hashed here, once, for the proof check, the slot, the checkpoints and
    /// the journal record's checksum alike, and held where the journal
    /// holds it (without a journal, as a copy of its bytes).
    pub(super) fn take_in(&mut self, msg: &NetMsg, raw: &[u8]) -> Result<Option<Parked>, NetError> {
        let Some(at) = msg.ciphertext_span() else {
            self.append_record(rec::REQ, raw, None)?;
            return Ok(None);
        };
        let bytes = raw.get(at.clone()).ok_or_else(|| {
            let kind = msg.kind();
            NetError::Decode(format!("{kind} bytes end before its ciphertext"))
        })?;
        let span = Span {
            at,
            digest: encoding_digest(bytes),
        };
        let stored = self.append_record(rec::REQ, raw, Some(&span))?;
        Ok(Some(self.park(bytes, span.digest, stored)))
    }

    /// The ciphertext a request carried as `bytes`, of digest `digest`.
    fn park(&self, bytes: &[u8], digest: Digest, stored: Option<Stored>) -> Parked {
        let cc = &self.setup.cc;
        Parked::received(bytes, digest, stored, &cc.ctx, &cc.params)
    }

    /// Closes one handled request's run of records: appends a
    /// state-digest checkpoint if a phase transition is among them or
    /// [`DIGEST_EVERY`] records went by without one. (Both conditions are
    /// only ever raised beside an append, so a request that appended
    /// nothing checkpoints nothing.)
    pub(in crate::round) fn checkpoint(&mut self) -> Result<(), NetError> {
        if self.digest_due || self.undigested >= DIGEST_EVERY {
            self.append_record(rec::DIGEST, &self.digest(), None)?;
            self.undigested = 0;
            self.digest_due = false;
        }
        Ok(())
    }

    /// A claim on the durability of every record appended so far (`None`
    /// without a journal). Taken under the state lock, waited on outside
    /// it ([`settle`](super::settle)).
    pub(in crate::round) fn pending(&self) -> Option<Pending> {
        self.journal.as_ref().map(Journal::pending)
    }

    /// Replays one journal record during [`AggState::recover`]. A request's
    /// ciphertext is parked as the journal holds it, under the digest the
    /// journal checked its checksum against.
    fn apply_record(&mut self, entry: Entry<'_>) -> Result<(), NetError> {
        let seq = entry.seq;
        let Some((&tag, body)) = entry.payload.split_first() else {
            return Err(JournalError::Replay {
                seq,
                why: "empty record".into(),
            }
            .into());
        };
        match tag {
            rec::REQ => {
                let msg = NetMsg::decode(body, &self.setup.cc)?;
                // The journal's span must be where the message puts its
                // ciphertext (behind the record's tag).
                let want = msg.ciphertext_span().map(|at| at.start + 1..at.end + 1);
                let got = entry.span.as_ref().map(|span| span.at.clone());
                if got != want {
                    let kind = msg.kind();
                    let why = format!("{kind} record spans {got:?}, its ciphertext is at {want:?}");
                    return Err(JournalError::Replay { seq, why }.into());
                }
                let stored = entry.stored();
                let ct = entry.span.map(|span| {
                    let bytes = &entry.payload[span.at];
                    self.park(bytes, span.digest, stored)
                });
                self.apply(msg, ct, None)
                    .map_err(|e| JournalError::Replay {
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
}
