//! Append-only write-ahead journal for the aggregator's round state.
//!
//! The paper's threat model lets the aggregator be *untrusted* but the
//! round still needs it *available* for hours; this module makes its
//! in-memory [`AggState`](crate::round::AggState) crash-durable so a
//! `kill -9` at any protocol step loses nothing. The aggregator logs
//! every **accepted, state-mutating** event here before replying to the
//! client; a respawned process replays the journal and resumes the
//! round mid-phase.
//!
//! On-disk format (all integers little-endian):
//!
//! ```text
//! ┌──────────────────────── header (44 bytes) ────────────────────────┐
//! │ magic "MYCWALv2" (8) │ format version u32 (4) │ binding (32)      │
//! └───────────────────────────────────────────────────────────────────┘
//! ┌──────────────────────── record (40 + len) ────────────────────────┐
//! │ len u32 (4) │ payload (len) │ sha256(seq_le ‖ payload) (32) │ ... │
//! └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * Records hold request bodies as the wire carried them, so format
//!   version 2 is the version of the codec that packs residues at the
//!   width of their prime ([`crate::codec`]); a `MYCWALv1` file, whose
//!   records held 64-bit words, is a typed [`JournalError::BadHeader`] —
//!   never replayed, never truncated.
//! * The **binding digest** ties a journal to one round configuration
//!   (we use a digest of the `RoundSpec` wire encoding), so a restart
//!   with different parameters cannot silently replay a stale journal.
//! * The record checksum covers the record's **sequence number** (its
//!   0-based index) as well as its payload, so records cannot be
//!   reordered, duplicated, or transplanted between offsets without
//!   detection.
//! * [`Journal::open`] truncates a **torn tail** — a record whose
//!   length prefix, payload, or checksum is incomplete because the
//!   process died mid-write — recovering the longest valid prefix.
//!   A *complete but corrupt* record (bit flip) is a typed
//!   [`JournalError::Corrupt`], never a panic or silent divergence.
//! * Durability is a **group commit**. Appending needs the journal
//!   (`&mut`, so the aggregator appends under its state lock); waiting
//!   for the `fsync` does not: [`Journal::pending`] hands out a claim on
//!   "everything appended so far" that any thread can [`Pending::wait`]
//!   on after it let the lock go. The first waiter whose records are not
//!   yet on disk becomes the leader and issues one `sync_all`, which
//!   covers every record appended before it started; the waiters queued
//!   behind it find their records covered and return without touching
//!   the disk. Claims are cumulative — a later one covers every earlier
//!   one — so a connection's worker that handled a burst of requests
//!   waits once, on the last. No reply is written before that wait, so an
//!   acknowledged mutation is always on disk and no reply exposes state
//!   that is not. [`Journal::commit`] is append-then-wait in one call.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mycelium_crypto::sha256::{sha256_concat, Digest};

use crate::lock_recover;

/// File magic: identifies a Mycelium write-ahead log, version 2.
pub const MAGIC: &[u8; 8] = b"MYCWALv2";
/// Format version inside the header (bumped on incompatible changes).
pub const FORMAT_VERSION: u32 = 2;
/// Header length: magic + version + binding digest.
pub const HEADER_BYTES: usize = 8 + 4 + 32;
/// Fixed per-record overhead: length prefix + checksum.
pub const RECORD_OVERHEAD: usize = 4 + 32;
/// Sanity bound on a single record (a full ciphertext push is ~1 MiB at
/// simulation parameters; 64 MiB leaves headroom for paper-scale ones).
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// Typed journal failure — corruption is always *detected*, never
/// silently replayed.
#[derive(Debug)]
pub enum JournalError {
    /// An OS-level file failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] / [`FORMAT_VERSION`].
    BadHeader {
        /// Human-readable description of what was wrong.
        why: String,
    },
    /// The journal was written for a different round configuration.
    BindingMismatch {
        /// Binding digest found in the header.
        got: Digest,
        /// Binding digest of the round being recovered.
        want: Digest,
    },
    /// A complete record failed its checksum — a bit flip or an
    /// out-of-place record, not a torn write.
    Corrupt {
        /// 0-based index of the bad record.
        seq: u64,
    },
    /// A record declares a length beyond [`MAX_RECORD_BYTES`].
    RecordTooLarge {
        /// 0-based index of the offending record.
        seq: u64,
        /// Declared payload length.
        len: usize,
    },
    /// Replayed state diverged from a digest checkpoint logged before
    /// the crash — the replay did not reproduce the pre-crash state.
    StateDiverged {
        /// Record count at which the checkpoint was taken.
        at_records: u64,
        /// Digest the pre-crash process logged.
        want: Digest,
        /// Digest the replayed state produced.
        got: Digest,
    },
    /// A replayed record is semantically invalid for the current state
    /// (journal written by a buggy or incompatible aggregator).
    Replay {
        /// 0-based index of the record that failed to apply.
        seq: u64,
        /// The rejection, rendered.
        why: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadHeader { why } => write!(f, "bad journal header: {why}"),
            JournalError::BindingMismatch { got, want } => write!(
                f,
                "journal bound to a different round: {:02x}{:02x}… vs {:02x}{:02x}…",
                got[0], got[1], want[0], want[1]
            ),
            JournalError::Corrupt { seq } => {
                write!(f, "journal record {seq} failed its checksum")
            }
            JournalError::RecordTooLarge { seq, len } => {
                write!(f, "journal record {seq} declares {len} bytes")
            }
            JournalError::StateDiverged { at_records, .. } => {
                write!(f, "replayed state diverged at record {at_records}")
            }
            JournalError::Replay { seq, why } => {
                write!(f, "journal record {seq} failed to apply: {why}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

fn record_checksum(seq: u64, payload: &[u8]) -> Digest {
    sha256_concat(&[&seq.to_le_bytes(), payload])
}

/// The valid records of an opened journal, in order: slices of the one
/// buffer the file was read into. Drop it once replayed — it is the size
/// of the journal.
#[derive(Debug, Default)]
pub struct Records {
    bytes: Vec<u8>,
    payloads: Vec<std::ops::Range<usize>>,
}

impl Records {
    /// How many records there are.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether there are none (a fresh journal).
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// The record payloads, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.payloads.iter().map(|at| &self.bytes[at.clone()])
    }
}

/// The durability half of a journal, shared with every thread waiting
/// on it. LSNs count records: LSN `n` is "the first `n` records".
#[derive(Debug)]
struct Syncer {
    file: File,
    /// Records written so far. Stored (`Release`) after the record's
    /// `write(2)` returned and loaded (`Acquire`) by a leader before its
    /// `fsync`, so the sync covers every record the count includes.
    appended: AtomicU64,
    /// Records known to be on disk. Stored (`Release`) under `leader`
    /// after the `fsync` returned; the lock-free load in
    /// [`Pending::wait`] pairs with it.
    durable: AtomicU64,
    /// Held by the leader across its `fsync`: followers queue here and
    /// re-check `durable` once they own it.
    leader: Mutex<SyncStats>,
}

/// What the group commit did so far (see [`Journal::sync_stats`]).
#[derive(Debug, Clone, Default)]
pub struct SyncStats {
    /// `fsync`s issued by leaders.
    pub syncs: u64,
    /// How long each waiter that found its records not yet durable
    /// waited, microseconds — leaders (their own `fsync`) and followers
    /// (somebody else's) alike.
    pub wait_micros: Vec<u64>,
}

/// A claim on durability: [`Pending::wait`] returns once every record
/// appended before [`Journal::pending`] handed it out is on disk.
#[derive(Debug)]
#[must_use = "records are durable only after wait()"]
pub struct Pending {
    sync: Arc<Syncer>,
    lsn: u64,
}

impl Pending {
    /// Blocks until the claimed records are durable: at most one
    /// `fsync` by this thread, none if a concurrent waiter's covered
    /// them.
    pub fn wait(self) -> Result<(), JournalError> {
        let sync = &*self.sync;
        if sync.durable.load(Ordering::Acquire) >= self.lsn {
            return Ok(());
        }
        let started = Instant::now();
        let mut stats = lock_recover(&sync.leader);
        if sync.durable.load(Ordering::Acquire) < self.lsn {
            let covered = sync.appended.load(Ordering::Acquire);
            sync.file.sync_all()?;
            sync.durable.store(covered, Ordering::Release);
            stats.syncs += 1;
        }
        stats.wait_micros.push(started.elapsed().as_micros() as u64);
        Ok(())
    }
}

/// An append-only, checksummed, fsync'd write-ahead journal.
#[derive(Debug)]
pub struct Journal {
    sync: Arc<Syncer>,
    /// The record being written (length ‖ payload ‖ checksum), kept
    /// between appends.
    rec: Vec<u8>,
    /// When `Some(n)`, the next append writes only the first `n` bytes
    /// of the encoded record and then reports success — a deterministic
    /// stand-in for a crash mid-`write(2)`, used by the chaos drill to
    /// exercise torn-tail truncation on the *real* recovery path.
    torn_write: Option<usize>,
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any existing file)
    /// bound to `binding`.
    pub fn create(path: &Path, binding: &Digest) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(binding);
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(Self::over(file, 0))
    }

    /// A journal appending to `file`, which holds `records` records and
    /// is positioned after the last. None of them counts as durable yet:
    /// a predecessor that died may have written them without syncing, so
    /// the first wait of this incarnation syncs them too.
    fn over(file: File, records: u64) -> Self {
        Journal {
            sync: Arc::new(Syncer {
                file,
                appended: AtomicU64::new(records),
                durable: AtomicU64::new(0),
                leader: Mutex::default(),
            }),
            rec: Vec::new(),
            torn_write: None,
        }
    }

    /// Opens an existing journal, verifies the header against `binding`,
    /// and returns the journal positioned for appending plus every valid
    /// record payload in order.
    ///
    /// A torn tail (incomplete final record) is truncated away; a
    /// complete record with a bad checksum is [`JournalError::Corrupt`].
    pub fn open(path: &Path, binding: &Digest) -> Result<(Self, Records), JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_BYTES {
            return Err(JournalError::BadHeader {
                why: format!("{} bytes, header needs {HEADER_BYTES}", bytes.len()),
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(JournalError::BadHeader {
                why: format!("magic {:02x?}", &bytes[..8]),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(JournalError::BadHeader {
                why: format!("format version {version}, expected {FORMAT_VERSION}"),
            });
        }
        let got: Digest = bytes[12..HEADER_BYTES].try_into().unwrap();
        if &got != binding {
            return Err(JournalError::BindingMismatch {
                got,
                want: *binding,
            });
        }

        let mut payloads = Vec::new();
        let mut pos = HEADER_BYTES;
        let mut valid_end = pos;
        loop {
            // Torn length prefix → truncate.
            if bytes.len() - pos < 4 {
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let seq = payloads.len() as u64;
            if len > MAX_RECORD_BYTES {
                // A length this absurd is corruption of the prefix
                // itself, not a torn write: typed error, no truncation.
                return Err(JournalError::RecordTooLarge { seq, len });
            }
            // Torn payload or checksum → truncate.
            if bytes.len() - pos < 4 + len + 32 {
                break;
            }
            let payload = &bytes[pos + 4..pos + 4 + len];
            let sum: Digest = bytes[pos + 4 + len..pos + 4 + len + 32].try_into().unwrap();
            if record_checksum(seq, payload) != sum {
                return Err(JournalError::Corrupt { seq });
            }
            payloads.push(pos + 4..pos + 4 + len);
            pos += 4 + len + 32;
            valid_end = pos;
        }
        if valid_end < bytes.len() {
            // Drop the torn tail so the next append starts on a clean
            // record boundary.
            file.set_len(valid_end as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_end as u64))?;
        let journal = Self::over(file, payloads.len() as u64);
        Ok((journal, Records { bytes, payloads }))
    }

    /// Opens `path` if it exists, otherwise creates it. Returns the
    /// journal plus any replayable records (empty for a fresh file).
    pub fn open_or_create(path: &Path, binding: &Digest) -> Result<(Self, Records), JournalError> {
        if path.exists() {
            Self::open(path, binding)
        } else {
            Ok((Self::create(path, binding)?, Records::default()))
        }
    }

    /// Number of records written (or recovered) so far.
    pub fn record_count(&self) -> u64 {
        self.sync.appended.load(Ordering::Relaxed)
    }

    /// How many of them this process has made durable.
    pub fn durable_count(&self) -> u64 {
        self.sync.durable.load(Ordering::Acquire)
    }

    /// Appends one record. Not durable until [`Journal::commit`], or a
    /// wait on a later [`Journal::pending`], returns.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        self.append_parts(&[payload])
    }

    /// [`Journal::append`] of the record whose payload is `parts`
    /// concatenated: they are copied once, straight into the bytes written
    /// (a buffer the journal keeps from one append to the next).
    pub fn append_parts(&mut self, parts: &[&[u8]]) -> Result<(), JournalError> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        assert!(len <= MAX_RECORD_BYTES, "record too large");
        let seq = self.record_count();
        let rec = &mut self.rec;
        rec.clear();
        rec.reserve(RECORD_OVERHEAD + len);
        rec.extend_from_slice(&(len as u32).to_le_bytes());
        for part in parts {
            rec.extend_from_slice(part);
        }
        let sum = record_checksum(seq, &rec[4..]);
        rec.extend_from_slice(&sum);
        let mut file = &self.sync.file;
        if let Some(n) = self.torn_write.take() {
            // Simulated mid-write crash: persist a prefix of the record
            // and stop there. The caller aborts right after.
            let n = n.min(rec.len().saturating_sub(1)).max(1);
            file.write_all(&rec[..n])?;
            let _ = file.sync_all();
            return Ok(());
        }
        file.write_all(rec)?;
        self.sync.appended.store(seq + 1, Ordering::Release);
        Ok(())
    }

    /// A claim on the durability of everything appended so far, for a
    /// thread to wait on once it no longer needs the journal.
    pub fn pending(&self) -> Pending {
        Pending {
            sync: Arc::clone(&self.sync),
            lsn: self.record_count(),
        }
    }

    /// Makes everything appended so far durable.
    pub fn commit(&mut self) -> Result<(), JournalError> {
        self.pending().wait()
    }

    /// The group commit's counters so far.
    pub fn sync_stats(&self) -> SyncStats {
        lock_recover(&self.sync.leader).clone()
    }

    /// Arms a simulated torn write: the **next** [`Journal::append`]
    /// persists only the first `bytes` bytes of the encoded record.
    /// Used by the chaos drill (`--die-mid-journal`).
    pub fn arm_torn_write(&mut self, bytes: usize) {
        self.torn_write = Some(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("myc-journal-{}-{tag}.bin", std::process::id()))
    }

    fn binding() -> Digest {
        [7u8; 32]
    }

    fn payloads(records: &Records) -> Vec<&[u8]> {
        records.iter().collect()
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let path = tmp("roundtrip");
        let all: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![0xAB; 1000]];
        {
            let mut j = Journal::create(&path, &binding()).unwrap();
            for p in &all {
                j.append(p).unwrap();
            }
            j.commit().unwrap();
            assert_eq!(j.record_count(), 3);
        }
        let (j, recovered) = Journal::open(&path, &binding()).unwrap();
        assert_eq!(payloads(&recovered), all);
        assert_eq!(j.record_count(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_after_reopen_continues_the_sequence() {
        let path = tmp("continue");
        {
            let mut j = Journal::create(&path, &binding()).unwrap();
            j.append(b"first").unwrap();
            j.commit().unwrap();
        }
        {
            let (mut j, rec) = Journal::open(&path, &binding()).unwrap();
            assert_eq!(rec.len(), 1);
            j.append(b"second").unwrap();
            j.commit().unwrap();
        }
        let (_, rec) = Journal::open(&path, &binding()).unwrap();
        assert_eq!(payloads(&rec), [&b"first"[..], b"second"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binding_mismatch_is_typed() {
        let path = tmp("binding");
        Journal::create(&path, &binding()).unwrap();
        let other = [9u8; 32];
        match Journal::open(&path, &other) {
            Err(JournalError::BindingMismatch { got, want }) => {
                assert_eq!(got, binding());
                assert_eq!(want, other);
            }
            other => panic!("expected BindingMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_is_detected_not_replayed() {
        let path = tmp("bitflip");
        {
            let mut j = Journal::create(&path, &binding()).unwrap();
            j.append(b"good record one").unwrap();
            j.append(b"good record two").unwrap();
            j.commit().unwrap();
        }
        // Flip one payload bit of record 1.
        let mut bytes = std::fs::read(&path).unwrap();
        let rec1_payload = HEADER_BYTES + 4 + 15 + 32 + 4;
        bytes[rec1_payload + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open(&path, &binding()) {
            Err(JournalError::Corrupt { seq }) => assert_eq!(seq, 1),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_cannot_be_swapped() {
        // The checksum binds each record to its sequence index, so two
        // individually valid records swapped in place fail to verify.
        let path = tmp("swap");
        {
            let mut j = Journal::create(&path, &binding()).unwrap();
            j.append(b"AAAA").unwrap();
            j.append(b"BBBB").unwrap();
            j.commit().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let rec_len = 4 + 4 + 32;
        let (a, b) = (HEADER_BYTES, HEADER_BYTES + rec_len);
        let rec_a = bytes[a..a + rec_len].to_vec();
        let rec_b = bytes[b..b + rec_len].to_vec();
        bytes[a..a + rec_len].copy_from_slice(&rec_b);
        bytes[b..b + rec_len].copy_from_slice(&rec_a);
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open(&path, &binding()) {
            Err(JournalError::Corrupt { seq }) => assert_eq!(seq, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_to_valid_prefix() {
        let path = tmp("torn");
        {
            let mut j = Journal::create(&path, &binding()).unwrap();
            j.append(b"complete one").unwrap();
            j.append(b"complete two").unwrap();
            j.commit().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Chop the file at every byte offset inside the second record:
        // recovery must always yield exactly the first record and leave
        // the file appendable.
        let rec2_start = HEADER_BYTES + 4 + 12 + 32;
        for cut in rec2_start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (mut j, rec) = Journal::open(&path, &binding()).unwrap();
            assert_eq!(payloads(&rec), [b"complete one"], "cut at {cut}");
            j.append(b"complete two").unwrap();
            j.commit().unwrap();
            let (_, rec) = Journal::open(&path, &binding()).unwrap();
            assert_eq!(rec.len(), 2, "re-append after cut at {cut}");
            std::fs::write(&path, &full).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn armed_torn_write_reproduces_a_mid_write_crash() {
        let path = tmp("armed");
        {
            let mut j = Journal::create(&path, &binding()).unwrap();
            j.append(b"durable").unwrap();
            j.commit().unwrap();
            j.arm_torn_write(10);
            j.append(b"this record is torn").unwrap();
            // Process "dies" here: no commit, partial bytes on disk.
        }
        let (_, rec) = Journal::open(&path, &binding()).unwrap();
        assert_eq!(payloads(&rec), [b"durable"], "torn record truncated");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_covers_every_waiter_with_one_sync() {
        use std::sync::{Barrier, Mutex};
        const THREADS: usize = 4;
        const ROUNDS: usize = 64;
        let path = tmp("group");
        let journal = Mutex::new(Journal::create(&path, &binding()).unwrap());
        let order = Mutex::new(Vec::new());
        // Each round, every thread appends before any waits, so whoever
        // leads finds all four records appended: one sync per round.
        let appended = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (journal, order, appended) = (&journal, &order, &appended);
                scope.spawn(move || {
                    for i in 0..ROUNDS {
                        let mut payload = vec![t as u8; 96 << 10];
                        payload[1] = i as u8;
                        let pending = {
                            let mut j = journal.lock().unwrap();
                            j.append(&payload).unwrap();
                            order.lock().unwrap().push((t as u8, i as u8));
                            j.pending()
                        };
                        appended.wait();
                        let (sync, lsn) = (Arc::clone(&pending.sync), pending.lsn);
                        pending.wait().unwrap();
                        assert!(sync.durable.load(Ordering::Acquire) >= lsn);
                        // Nobody appends the next round's record under a
                        // waiter of this one.
                        appended.wait();
                    }
                });
            }
        });
        let journal = journal.into_inner().unwrap();
        let stats = journal.sync_stats();
        assert_eq!(journal.record_count(), (THREADS * ROUNDS) as u64);
        assert_eq!(journal.durable_count(), journal.record_count());
        assert_eq!(stats.syncs, ROUNDS as u64, "one leader per round");
        assert!(stats.wait_micros.len() >= ROUNDS);
        drop(journal);

        let (_, rec) = Journal::open(&path, &binding()).unwrap();
        let read: Vec<(u8, u8)> = rec.iter().map(|p| (p[0], p[1])).collect();
        assert_eq!(read, order.into_inner().unwrap(), "append order");
        assert!(rec.iter().all(|p| p.len() == 96 << 10));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_syncs_only_what_is_not_yet_durable() {
        let path = tmp("commit");
        let mut j = Journal::create(&path, &binding()).unwrap();
        j.commit().unwrap();
        assert_eq!(j.sync_stats().syncs, 0, "nothing appended");
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        let early = j.pending();
        assert_eq!(j.durable_count(), 0);
        j.commit().unwrap();
        early.wait().unwrap();
        j.commit().unwrap();
        assert_eq!((j.durable_count(), j.sync_stats().syncs), (2, 1));
        drop(j);
        // A reopened journal does not take its predecessor's word for it.
        let (mut j, rec) = Journal::open(&path, &binding()).unwrap();
        assert_eq!((rec.len(), j.durable_count()), (2, 0));
        j.commit().unwrap();
        assert_eq!((j.durable_count(), j.sync_stats().syncs), (2, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_header_is_typed() {
        let path = tmp("header");
        Journal::create(&path, &binding()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            Journal::open(&path, &binding()),
            Err(JournalError::BadHeader { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_version_1_file_is_a_bad_header_and_is_left_alone() {
        let path = tmp("v1");
        {
            let mut j = Journal::create(&path, &binding()).unwrap();
            j.append(b"a record").unwrap();
            j.commit().unwrap();
        }
        let v2 = std::fs::read(&path).unwrap();
        // The magic of the old format, then its version word under the
        // new magic: each is refused by name.
        let mut old_magic = v2.clone();
        old_magic[..8].copy_from_slice(b"MYCWALv1");
        old_magic[8..12].copy_from_slice(&1u32.to_le_bytes());
        let mut old_version = v2;
        old_version[8..12].copy_from_slice(&1u32.to_le_bytes());
        for (bytes, what) in [(old_magic, "magic"), (old_version, "format version 1")] {
            std::fs::write(&path, &bytes).unwrap();
            match Journal::open(&path, &binding()) {
                Err(JournalError::BadHeader { why }) => assert!(why.contains(what), "{why}"),
                other => panic!("expected BadHeader, got {other:?}"),
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "refused, not rewritten"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn absurd_length_prefix_is_typed() {
        let path = tmp("length");
        Journal::create(&path, &binding()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::open(&path, &binding()),
            Err(JournalError::RecordTooLarge { seq: 0, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
