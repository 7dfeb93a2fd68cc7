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
//! │ magic "MYCWALv6" (8) │ format version u32 (4) │ binding (32)      │
//! └───────────────────────────────────────────────────────────────────┘
//! ┌──────────────────────── record (44 + len) ────────────────────────┐
//! │ len u32 │ off u32 │ span u32 │ payload (len) │ checksum (32) │ ... │
//! └───────────────────────────────────────────────────────────────────┘
//!
//! with a ciphertext at payload[off .. off + span] (span > 0):
//!   checksum = SHA-256("myc-wal-v6" ‖ seq u64 ‖ off u32 ‖ span u32
//!                      ‖ payload[..off] ‖ plan::encoding_digest(ciphertext)
//!                      ‖ payload[off + span..])
//! without one (off = span = 0):
//!   checksum = sha256::striped("myc-wal-v6" ‖ seq u64, payload)
//! ```
//!
//! * A request that carries a ciphertext (a contribution, a submission, a
//!   shard's root) is journalled with a **span**: where that ciphertext's
//!   encoding lies in the payload. Its checksum takes the ciphertext in
//!   through [`encoding_digest`] — `plan::ciphertext_digest`, the very
//!   digest its proof and the certificate bind — so the aggregator hashes a
//!   ciphertext once, on arrival, for the proof check, the slot, the state
//!   checkpoints and the record alike, and replay hands the digest it
//!   checked to its caller ([`Entry::span`]), which needs no other. The
//!   head and tail around the span are hashed whole with it, so every byte
//!   of the record is covered.
//! * A record **is the parking lot** of its ciphertext: [`Journal::append_parts`]
//!   and [`Entry::stored`] say where the span lies in the file, and the
//!   aggregator holds the ciphertext as that position
//!   ([`mycelium::aggcore::Stored`]), reading its bytes back positioned
//!   (`pread`) when a row, the aggregate or a root needs them, instead of
//!   keeping a second copy in memory.
//! * A span-less payload is cut into at most sixteen stripes of at least
//!   1 KiB ([`sha256::striped`]) and the stripes are hashed side by side;
//!   a span's digest is striped the same way, so replay checksums a record
//!   on every SHA-256 lane the host has.
//! * A span outside its payload, or an offset without a length, is
//!   [`JournalError::Corrupt`] — never a panic.
//! * Records hold request bodies as the wire carried them, so the format
//!   follows the frame version ([`crate::frame::VERSION`]): records hold
//!   residues packed at the width of their prime ([`crate::codec`]) under
//!   proofs of `plan::ciphertext_digest`. A file of an earlier version —
//!   `MYCWALv5`, whose records had no span and whose checksums striped the
//!   whole payload, `MYCWALv4`, whose ciphertexts carried an 8-byte noise
//!   estimate, `MYCWALv3`, whose proofs were made against one SHA-256 per
//!   ciphertext part and whose checksums were one SHA-256 of the record,
//!   `MYCWALv2`, whose proofs were made against a digest of 64-bit words,
//!   or `MYCWALv1`, whose records held those words — is a typed
//!   [`JournalError::BadHeader`]: never replayed, never truncated.
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
//! * Replay is streamed ([`Journal::replay`]): each record is checksummed
//!   as it is read, through a window of about a megabyte the replay
//!   reuses, and handed to the caller at once, so recovery never holds
//!   the whole journal.
//!   Its outcome is still that of checking every record first: once a
//!   record fails to apply, the rest are checksummed, a later corrupt or
//!   oversized record is the error reported, and a torn tail is cut.
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
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mycelium::aggcore::{Lot, Stored};
use mycelium::plan::encoding_digest;
use mycelium_crypto::sha256::{self, Digest};

use crate::lock_recover;

/// File magic: identifies a Mycelium write-ahead log, version 6.
pub const MAGIC: &[u8; 8] = b"MYCWALv6";
/// Format version inside the header (bumped on incompatible changes).
pub const FORMAT_VERSION: u32 = 6;
/// Header length: magic + version + binding digest.
pub const HEADER_BYTES: usize = 8 + 4 + 32;
/// A record's prefix: payload length, then the offset and length of its
/// ciphertext span in the payload.
pub const RECORD_PREFIX: usize = 4 + 4 + 4;
/// Fixed per-record overhead: prefix + checksum.
pub const RECORD_OVERHEAD: usize = RECORD_PREFIX + 32;
/// Sanity bound on a single record (a full ciphertext push is ~1 MiB at
/// simulation parameters; 64 MiB leaves headroom for paper-scale ones).
pub const MAX_RECORD_BYTES: usize = 64 << 20;
/// The checksum's domain.
const DOMAIN: &[u8; 10] = b"myc-wal-v6";

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
    /// out-of-place record, not a torn write — or names a ciphertext span
    /// outside its payload.
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

/// Where a record's ciphertext encoding lies in its payload, and the
/// [`encoding_digest`] of those bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The encoding's bytes within the payload.
    pub at: Range<usize>,
    /// Their digest: the one proofs and certificates bind.
    pub digest: Digest,
}

/// The checksum a record without a ciphertext span carries:
/// `sha256::striped("myc-wal-v6" ‖ seq u64 LE, payload)`, so a record's
/// bulk is hashed on every lane the host has.
pub fn record_checksum(seq: u64, payload: &[u8]) -> Digest {
    let mut domain = [0u8; 18];
    domain[..10].copy_from_slice(DOMAIN);
    domain[10..].copy_from_slice(&seq.to_le_bytes());
    sha256::striped(&domain, payload)
}

/// The checksum a record whose ciphertext lies at `span` carries:
/// `SHA-256("myc-wal-v6" ‖ seq u64 ‖ offset u32 ‖ length u32 ‖ head ‖
/// span.digest ‖ tail)`, the head and tail being the payload before and
/// after the span. The ciphertext enters through its digest, so a record's
/// bulk is hashed once, by whoever took the digest.
pub fn span_checksum(seq: u64, payload: &[u8], span: &Span) -> Digest {
    let (off, len) = (span.at.start as u32, span.at.len() as u32);
    sha256::sha256_concat(&[
        DOMAIN,
        &seq.to_le_bytes(),
        &off.to_le_bytes(),
        &len.to_le_bytes(),
        &payload[..span.at.start],
        &span.digest,
        &payload[span.at.end..],
    ])
}

/// The valid records of an opened journal, in order: slices of the one
/// buffer they were read into. Drop it once replayed — it is the size of
/// the journal.
#[derive(Debug, Default)]
pub struct Records {
    bytes: Vec<u8>,
    payloads: Vec<Range<usize>>,
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

/// A record as [`Journal::replay`] hands it on, its checksum checked.
pub struct Entry<'a> {
    /// Its 0-based index.
    pub seq: u64,
    pub payload: &'a [u8],
    /// Its ciphertext, where it has one: the digest is the one the checksum
    /// was checked against.
    pub span: Option<Span>,
    /// Where the payload starts in the file.
    pos: u64,
    file: &'a Arc<Syncer>,
}

impl Entry<'_> {
    /// Where the span's bytes lie in the journal, to be read back from
    /// there for as long as the journal is open.
    pub fn stored(&self) -> Option<Stored> {
        let span = self.span.as_ref()?;
        Some(stored(self.file, self.pos + span.at.start as u64))
    }
}

fn stored(file: &Arc<Syncer>, at: u64) -> Stored {
    let lot: Arc<dyn Lot> = Arc::clone(file) as _;
    Stored { lot, at }
}

/// What a streamed replay reads at a time (more when one record is longer):
/// a few dozen contribution records per `read`, in a buffer that stays
/// about this size.
const READ_BLOCK: usize = 1 << 20;

/// A record's place in a scan's window: its payload, and its checked span.
type Found = (Range<usize>, Option<Span>);

/// A journal being read, record by record: the file past its checked
/// header, and a window of bytes read from it that the next record starts in.
struct Scan {
    sync: Arc<Syncer>,
    /// The file's length.
    size: u64,
    /// Bytes of the file not read yet.
    unread: u64,
    /// What was read and is still held: the next record starts at
    /// `window[next]`.
    window: Vec<u8>,
    next: usize,
    /// Whether records stay in `window` once read ([`Journal::open`]) or are
    /// dropped before more is read ([`Journal::replay`]).
    keep: bool,
    /// Where the valid prefix read so far ends in the file.
    pos: u64,
    /// The next record's sequence number.
    seq: u64,
}

impl Scan {
    /// Opens `path` and checks its header against `binding`.
    fn open(path: &Path, binding: &Digest, keep: bool) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let size = file.metadata()?.len();
        if size < HEADER_BYTES as u64 {
            return Err(JournalError::BadHeader {
                why: format!("{size} bytes, header needs {HEADER_BYTES}"),
            });
        }
        let mut header = [0u8; HEADER_BYTES];
        file.read_exact(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(JournalError::BadHeader {
                why: format!("magic {:02x?}", &header[..8]),
            });
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(JournalError::BadHeader {
                why: format!("format version {version}, expected {FORMAT_VERSION}"),
            });
        }
        let got: Digest = header[12..].try_into().unwrap();
        if &got != binding {
            return Err(JournalError::BindingMismatch {
                got,
                want: *binding,
            });
        }
        let pos = HEADER_BYTES as u64;
        Ok(Scan {
            sync: Syncer::over(file),
            size,
            unread: size - pos,
            window: Vec::new(),
            next: 0,
            keep,
            pos,
            seq: 0,
        })
    }

    /// Makes the `need` bytes from the next record's start readable in
    /// `window`; `false` where the file ends first. Kept records are read
    /// all at once; otherwise what was handed on is dropped first and at
    /// least a [`READ_BLOCK`] is read.
    fn fill(&mut self, need: usize) -> Result<bool, JournalError> {
        let have = self.window.len() - self.next;
        if have >= need {
            return Ok(true);
        }
        if (need - have) as u64 > self.unread {
            return Ok(false);
        }
        let want = match self.keep {
            true => self.unread,
            false => {
                self.window.drain(..self.next);
                self.next = 0;
                ((need - have).max(READ_BLOCK) as u64).min(self.unread)
            }
        };
        self.window.reserve(want as usize);
        let file = &self.sync.file;
        if file.take(want).read_to_end(&mut self.window)? as u64 != want {
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
        }
        self.unread -= want;
        Ok(true)
    }

    /// The next record, once its checksum holds: where its payload lies in
    /// `window`, and its span. `None` where the valid prefix ends — at the
    /// end of the file, or at a torn tail.
    fn next_record(&mut self) -> Result<Option<Found>, JournalError> {
        // A torn prefix.
        if !self.fill(RECORD_PREFIX)? {
            return Ok(None);
        }
        let word = |i: usize| {
            let at = self.next + 4 * i;
            u32::from_le_bytes(self.window[at..at + 4].try_into().unwrap()) as usize
        };
        let (len, off, span_len, seq) = (word(0), word(1), word(2), self.seq);
        if len > MAX_RECORD_BYTES {
            // A length this absurd is corruption of the prefix itself,
            // not a torn write: typed error, no truncation.
            return Err(JournalError::RecordTooLarge { seq, len });
        }
        // A torn payload or checksum.
        if !self.fill(RECORD_PREFIX + len + 32)? {
            return Ok(None);
        }
        let start = self.next + RECORD_PREFIX;
        let payload = &self.window[start..start + len];
        let sum = &self.window[start + len..start + len + 32];
        // No span is offset 0, length 0; a span lies inside its payload.
        let span = match (off, span_len) {
            (0, 0) => None,
            (_, 0) => return Err(JournalError::Corrupt { seq }),
            _ if off + span_len > len => return Err(JournalError::Corrupt { seq }),
            _ => {
                let at = off..off + span_len;
                let digest = encoding_digest(&payload[at.clone()]);
                Some(Span { at, digest })
            }
        };
        let want = match &span {
            Some(span) => span_checksum(seq, payload, span),
            None => record_checksum(seq, payload),
        };
        if want != sum {
            return Err(JournalError::Corrupt { seq });
        }
        self.next = start + len + 32;
        self.pos += (RECORD_OVERHEAD + len) as u64;
        self.seq += 1;
        Ok(Some((start..start + len, span)))
    }

    /// The journal over the scanned file, appending after its valid prefix:
    /// a torn tail is cut away so the next append starts on a record
    /// boundary.
    fn finish(self) -> Result<Journal, JournalError> {
        let file = &self.sync.file;
        if self.pos < self.size {
            file.set_len(self.pos)?;
            file.sync_all()?;
        }
        (&*file).seek(SeekFrom::Start(self.pos))?;
        // None of the records counts as durable yet: a predecessor that died
        // may have written them without syncing, so the first wait of this
        // incarnation syncs them too.
        self.sync.appended.store(self.seq, Ordering::Release);
        Ok(Journal::over(self.sync, self.pos))
    }
}

/// The durability half of a journal, shared with every thread waiting
/// on it — and with every ciphertext parked in it, which reads its bytes
/// back from this file ([`Lot`]). LSNs count records: LSN `n` is "the
/// first `n` records".
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

impl Syncer {
    /// The syncer of `file`, nothing appended or durable yet.
    fn over(file: File) -> Arc<Self> {
        Arc::new(Syncer {
            file,
            appended: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            leader: Mutex::default(),
        })
    }
}

impl Lot for Syncer {
    /// Reads positioned (`pread`), so it never moves the append position.
    fn read_at(&self, at: u64, out: &mut [u8]) {
        if let Err(e) = self.file.read_exact_at(out, at) {
            eprintln!("journal: {} bytes at {at} unreadable: {e}", out.len());
            std::process::abort();
        }
    }
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
    /// Where the next record starts in the file.
    end: u64,
    /// The record being written (prefix ‖ payload ‖ checksum), kept
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
        Ok(Self::over(Syncer::over(file), HEADER_BYTES as u64))
    }

    /// A journal appending at `end` of the file `sync` holds, positioned
    /// there.
    fn over(sync: Arc<Syncer>, end: u64) -> Self {
        Journal {
            sync,
            end,
            rec: Vec::new(),
            torn_write: None,
        }
    }

    /// Opens an existing journal, verifies the header against `binding`,
    /// and returns the journal positioned for appending plus every valid
    /// record payload in order, in one buffer ([`Journal::replay`] holds
    /// one record at a time).
    ///
    /// A torn tail (incomplete final record) is truncated away; a
    /// complete record with a bad checksum is [`JournalError::Corrupt`].
    pub fn open(path: &Path, binding: &Digest) -> Result<(Self, Records), JournalError> {
        let mut scan = Scan::open(path, binding, true)?;
        let mut payloads = Vec::new();
        while let Some((payload, _)) = scan.next_record()? {
            payloads.push(payload);
        }
        let bytes = std::mem::take(&mut scan.window);
        Ok((scan.finish()?, Records { bytes, payloads }))
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

    /// [`Journal::open`] that hands each valid record to `each` as soon as
    /// its checksum holds, read through one window of about a megabyte
    /// reused from block to block, so a replay never holds the whole
    /// journal. A record's ciphertext comes with its digest, taken once for
    /// the checksum, and with where it lies in the file ([`Entry::stored`]).
    /// The outcome is that of opening first and replaying after: once
    /// `each` fails, the records after are still checksummed, a
    /// [`JournalError::Corrupt`] or [`JournalError::RecordTooLarge`] among
    /// them is reported in place of its error, and a torn tail is cut away
    /// either way.
    pub fn replay<E: From<JournalError>>(
        path: &Path,
        binding: &Digest,
        mut each: impl FnMut(Entry<'_>) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut scan = Scan::open(path, binding, false)?;
        let mut failed = None;
        let mut start = scan.pos;
        while let Some((payload, span)) = scan.next_record()? {
            if failed.is_none() {
                let entry = Entry {
                    seq: scan.seq - 1,
                    payload: &scan.window[payload],
                    span,
                    pos: start + RECORD_PREFIX as u64,
                    file: &scan.sync,
                };
                failed = each(entry).err();
            }
            start = scan.pos;
        }
        let journal = scan.finish()?;
        failed.map_or(Ok(journal), Err)
    }

    /// [`Journal::replay`] if `path` exists, otherwise a fresh journal there.
    pub fn replay_or_create<E: From<JournalError>>(
        path: &Path,
        binding: &Digest,
        each: impl FnMut(Entry<'_>) -> Result<(), E>,
    ) -> Result<Self, E> {
        if path.exists() {
            Self::replay(path, binding, each)
        } else {
            Ok(Self::create(path, binding)?)
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

    /// Appends one record without a ciphertext span. Not durable until
    /// [`Journal::commit`], or a wait on a later [`Journal::pending`],
    /// returns.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        self.append_parts(&[payload], None).map(drop)
    }

    /// [`Journal::append`] of the record whose payload is `parts`
    /// concatenated: they are copied once, straight into the bytes written
    /// (a buffer the journal keeps from one append to the next). Where a
    /// `span` is given, the record carries it: its digest must be the
    /// [`encoding_digest`] of those bytes of the payload, which the caller
    /// took and the checksum folds in rather than hashing them again. Returns
    /// where the span's bytes lie in the file.
    pub fn append_parts(
        &mut self,
        parts: &[&[u8]],
        span: Option<&Span>,
    ) -> Result<Option<Stored>, JournalError> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        assert!(len <= MAX_RECORD_BYTES, "record too large");
        let at = span.map_or(0..0, |span| span.at.clone());
        assert!(at.end <= len, "span outside the payload");
        let seq = self.record_count();
        let rec = &mut self.rec;
        rec.clear();
        rec.reserve(RECORD_OVERHEAD + len);
        for word in [len, at.start, at.len()] {
            rec.extend_from_slice(&(word as u32).to_le_bytes());
        }
        for part in parts {
            rec.extend_from_slice(part);
        }
        let payload = &rec[RECORD_PREFIX..];
        let sum = match span {
            Some(span) => span_checksum(seq, payload, span),
            None => record_checksum(seq, payload),
        };
        rec.extend_from_slice(&sum);
        let mut file = &self.sync.file;
        if let Some(n) = self.torn_write.take() {
            // Simulated mid-write crash: persist a prefix of the record
            // and stop there. The caller aborts right after.
            let n = n.min(rec.len().saturating_sub(1)).max(1);
            file.write_all(&rec[..n])?;
            let _ = file.sync_all();
            return Ok(None);
        }
        file.write_all(rec)?;
        let payload_at = self.end + RECORD_PREFIX as u64;
        self.end += rec.len() as u64;
        self.sync.appended.store(seq + 1, Ordering::Release);
        Ok(span.map(|span| stored(&self.sync, payload_at + span.at.start as u64)))
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

    /// What [`Journal::replay`] hands on, in order, beside the journal it
    /// leaves — which must be what [`Journal::open`] reads.
    fn replayed(path: &Path) -> (Journal, Vec<Vec<u8>>) {
        let mut got = Vec::new();
        let each = |entry: Entry<'_>| {
            assert_eq!(entry.seq, got.len() as u64);
            got.push(entry.payload.to_vec());
            Ok::<_, JournalError>(())
        };
        let journal = Journal::replay(path, &binding(), each).unwrap();
        (journal, got)
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let path = tmp("roundtrip");
        // Records shorter and longer than a replay's read block, so blocks
        // end inside length prefixes, payloads and checksums.
        let mut all: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![0xAB; 1000]];
        all.extend((1..=9u8).map(|i| vec![i; 350_001 * i as usize % 1_300_000]));
        {
            let mut j = Journal::create(&path, &binding()).unwrap();
            for p in &all {
                j.append(p).unwrap();
            }
            j.commit().unwrap();
            assert_eq!(j.record_count(), 12);
        }
        let (j, recovered) = Journal::open(&path, &binding()).unwrap();
        assert_eq!(payloads(&recovered), all);
        assert_eq!(j.record_count(), 12);
        let (j, streamed) = replayed(&path);
        assert_eq!(streamed, all);
        assert_eq!(j.record_count(), 12);
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
        let rec1_payload = HEADER_BYTES + RECORD_OVERHEAD + 15 + RECORD_PREFIX;
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
        let rec_len = RECORD_OVERHEAD + 4;
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
        let rec2_start = HEADER_BYTES + RECORD_OVERHEAD + 12;
        for cut in rec2_start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (mut j, rec) = Journal::open(&path, &binding()).unwrap();
            assert_eq!(payloads(&rec), [b"complete one"], "cut at {cut}");
            j.append(b"complete two").unwrap();
            j.commit().unwrap();
            let (_, rec) = Journal::open(&path, &binding()).unwrap();
            assert_eq!(rec.len(), 2, "re-append after cut at {cut}");
            // A streamed replay cuts the same tail.
            std::fs::write(&path, &full[..cut]).unwrap();
            let (j, streamed) = replayed(&path);
            assert_eq!(streamed, [b"complete one"], "replay cut at {cut}");
            assert_eq!(j.record_count(), 1);
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, rec2_start);
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
        let current = std::fs::read(&path).unwrap();
        // For every earlier version, version 1 the first: its magic and
        // version word, then its version word under the current magic —
        // each is refused by name.
        for old in 1..FORMAT_VERSION {
            let mut old_magic = current.clone();
            old_magic[..8].copy_from_slice(format!("MYCWALv{old}").as_bytes());
            old_magic[8..12].copy_from_slice(&old.to_le_bytes());
            let mut old_version = current.clone();
            old_version[8..12].copy_from_slice(&old.to_le_bytes());
            let version = format!("format version {old}");
            for (bytes, what) in [(old_magic, "magic"), (old_version, version.as_str())] {
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
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_version_3_journal_is_a_bad_header_and_is_left_alone() {
        // A journal as version 3 wrote it: its header, two records
        // checksummed by one SHA-256 of `seq ‖ payload`, and a torn tail.
        let path = tmp("v3");
        let mut bytes = b"MYCWALv3".to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&binding());
        for (seq, payload) in [b"first".as_slice(), &[5u8; 3000]].into_iter().enumerate() {
            let seq = (seq as u64).to_le_bytes();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
            bytes.extend_from_slice(&sha256::sha256_concat(&[&seq, payload]));
        }
        bytes.extend_from_slice(&[9, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open(&path, &binding()) {
            Err(JournalError::BadHeader { why }) => assert!(why.contains("magic"), "{why}"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "neither replayed nor truncated"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_checksum_is_the_striped_digest_of_its_payload() {
        let payload: Vec<u8> = (0..62_000u32).map(|i| ((i * 31) >> 3) as u8).collect();
        let domain = |seq: u64| [&b"myc-wal-v6"[..], &seq.to_le_bytes()].concat();
        for seq in [0, 1, 504] {
            let want = sha256::striped(&domain(seq), &payload);
            assert_eq!(record_checksum(seq, &payload), want, "seq {seq}");
        }
        assert_ne!(record_checksum(0, &payload), record_checksum(1, &payload));
    }

    #[test]
    fn a_span_checksum_hashes_the_span_through_its_encoding_digest() {
        let payload: Vec<u8> = (0..9_000u32).map(|i| ((i * 7) >> 2) as u8).collect();
        let span = span_of(&payload, 20..8_500);
        assert_eq!(span.digest, encoding_digest(&payload[20..8_500]));
        let want = sha256::sha256_concat(&[
            b"myc-wal-v6",
            &504u64.to_le_bytes(),
            &20u32.to_le_bytes(),
            &8_480u32.to_le_bytes(),
            &payload[..20],
            &span.digest,
            &payload[8_500..],
        ]);
        assert_eq!(span_checksum(504, &payload, &span), want);
        assert_ne!(span_checksum(503, &payload, &span), want);
    }

    // --- ciphertext spans (format version 6) -------------------------------

    /// The span `at` of `payload`, digested as a ciphertext encoding.
    fn span_of(payload: &[u8], at: Range<usize>) -> Span {
        let digest = encoding_digest(&payload[at.clone()]);
        Span { at, digest }
    }

    /// A journal at `path` of a span-less record, then a record whose
    /// payload is a head, a ciphertext-shaped span and a tail. Returns that
    /// payload, its span, and where the record starts in the file.
    fn spanned_journal(path: &Path) -> (Vec<u8>, Span, usize) {
        let head = [1u8, 1, 7, 0, 0, 0, 3, 0, 0, 0];
        let ct: Vec<u8> = (0..5_000u32).map(|i| (i * 13 % 251) as u8).collect();
        let tail = [0xEEu8; 40];
        let payload = [&head[..], &[2], &ct, &tail].concat();
        let span = span_of(&payload, head.len()..head.len() + 1 + ct.len());
        let mut j = Journal::create(path, &binding()).unwrap();
        j.append(b"span-less").unwrap();
        let stored = j.append_parts(&[&payload], Some(&span)).unwrap();
        j.commit().unwrap();
        let start = HEADER_BYTES + RECORD_OVERHEAD + 9;
        let stored = stored.expect("a spanned record says where its span lies");
        assert_eq!(stored.at as usize, start + RECORD_PREFIX + span.at.start);
        let mut back = vec![0; span.at.len()];
        stored.lot.read_at(stored.at, &mut back);
        assert_eq!(back, payload[span.at.clone()], "read back from the file");
        (payload, span, start)
    }

    #[test]
    fn replay_hands_on_a_spans_digest_and_where_it_lies() {
        let path = tmp("span");
        let (payload, span, _) = spanned_journal(&path);
        let (_, records) = Journal::open(&path, &binding()).unwrap();
        assert_eq!(payloads(&records), [&b"span-less"[..], &payload]);
        let mut seen = Vec::new();
        let each = |entry: Entry<'_>| {
            if let Some(stored) = entry.stored() {
                let mut back = vec![0; span.at.len()];
                stored.lot.read_at(stored.at, &mut back);
                assert_eq!(back, entry.payload[span.at.clone()]);
            }
            seen.push((entry.seq, entry.payload.to_vec(), entry.span));
            Ok::<_, JournalError>(())
        };
        let j = Journal::replay(&path, &binding(), each).unwrap();
        assert_eq!(j.record_count(), 2);
        assert_eq!(seen[0], (0, b"span-less".to_vec(), None));
        assert_eq!(seen[1], (1, payload, Some(span)), "the digest of the span");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flipped_byte_anywhere_in_a_spanned_record_is_corrupt() {
        let path = tmp("span-flip");
        let (payload, span, start) = spanned_journal(&path);
        let full = std::fs::read(&path).unwrap();
        let at = start + RECORD_PREFIX;
        let places = [
            ("offset", start + 4),
            ("offset", start + 7),
            ("length", start + 8),
            ("length", start + 11),
            ("head", at),
            ("head", at + span.at.start - 1),
            ("span", at + span.at.start),
            ("span", at + span.at.start + 2),
            ("span", at + span.at.end - 1),
            ("tail", at + span.at.end),
            ("tail", at + payload.len() - 1),
            ("checksum", at + payload.len() + 31),
        ];
        for (what, byte) in places {
            for bit in [0x01, 0x80] {
                let mut bytes = full.clone();
                bytes[byte] ^= bit;
                std::fs::write(&path, &bytes).unwrap();
                match Journal::open(&path, &binding()) {
                    Err(JournalError::Corrupt { seq: 1 }) => {}
                    other => panic!("{what} byte {byte} bit {bit:#x}: {other:?}"),
                }
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    bytes,
                    "{what}: left as it was"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_span_outside_its_payload_is_corrupt_not_a_panic() {
        let path = tmp("span-out");
        Journal::create(&path, &binding()).unwrap();
        let header = std::fs::read(&path).unwrap();
        let payload = [9u8; 64];
        // Past the end, overflowing it, and an offset without a length: each
        // checksummed as a span-less record, so only the span is wrong.
        for (off, len) in [(60u32, 5u32), (0, 65), (u32::MAX, 2), (3, 0)] {
            let mut bytes = header.clone();
            for word in [payload.len() as u32, off, len] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&record_checksum(0, &payload));
            std::fs::write(&path, &bytes).unwrap();
            match Journal::open(&path, &binding()) {
                Err(JournalError::Corrupt { seq: 0 }) => {}
                other => panic!("span {off}+{len} of 64: {other:?}"),
            }
            let replayed = Journal::replay(&path, &binding(), |_| Ok::<_, JournalError>(()));
            assert!(matches!(replayed, Err(JournalError::Corrupt { seq: 0 })));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_tail_torn_inside_a_span_is_truncated_to_the_previous_record() {
        let path = tmp("span-torn");
        let (_, span, start) = spanned_journal(&path);
        let full = std::fs::read(&path).unwrap();
        let at = start + RECORD_PREFIX;
        for cut in [
            at + span.at.start + 1,
            at + span.at.start + 2_500,
            at + span.at.end - 1,
        ] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (j, streamed) = replayed(&path);
            assert_eq!(streamed, [b"span-less"], "cut at {cut}");
            assert_eq!(j.record_count(), 1);
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, start);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_version_5_journal_is_a_bad_header_and_is_left_alone() {
        // A journal as version 5 wrote it: its header, two records behind
        // a bare length prefix, checksummed by `sha256::striped("myc-wal-v4"
        // ‖ seq, payload)`, and a torn tail.
        let path = tmp("v5");
        let mut bytes = b"MYCWALv5".to_vec();
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&binding());
        for (seq, payload) in [b"first".as_slice(), &[5u8; 3000]].into_iter().enumerate() {
            let domain = [&b"myc-wal-v4"[..], &(seq as u64).to_le_bytes()].concat();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
            bytes.extend_from_slice(&sha256::striped(&domain, payload));
        }
        bytes.extend_from_slice(&[9, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();
        for replay in [false, true] {
            let got = match replay {
                false => Journal::open(&path, &binding()).map(drop),
                true => Journal::replay(&path, &binding(), |_| Ok::<_, JournalError>(())).map(drop),
            };
            match got {
                Err(JournalError::BadHeader { why }) => assert!(why.contains("magic"), "{why}"),
                other => panic!("expected BadHeader, got {other:?}"),
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "neither replayed nor cut"
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
