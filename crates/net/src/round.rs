//! The encrypted query round across real OS processes.
//!
//! [`mycelium::run_query_encrypted`] executes the round as function
//! calls and [`mycelium::run_query_simulated`] as actors on a virtual
//! clock; this module executes the *same* round (same planning and
//! cryptographic building blocks from `mycelium::plan`) as separate
//! processes exchanging BGV ciphertexts, ZKP transcripts, and threshold
//! decryption shares over encrypted loopback TCP channels.
//!
//! ## Topology
//!
//! The **aggregator** is the only server (a hub). Devices, origins,
//! committee members, and the driver are its clients; what each role
//! computes is [`mycelium::roles`], this module is the messaging. A client
//! never sleeps between asks: a request whose answer is "not yet" is held
//! by the server ([`PARK`]) until the answer exists.
//!
//! * **Device processes** shard the per-vertex contribution duties and
//!   push each (`PushContrib`), up to [`WINDOW`] in flight per link while
//!   the next is being encrypted, until all are acked, then exit.
//! * **Origin processes** shard the per-vertex origin work. A process does
//!   not walk its vertices in order: `PullReady` names every origin it
//!   still owes, and the server hands over whichever of their rows are
//!   ready — the verified slot ciphertexts, with holes once the
//!   contribution deadline passed (§4.4) — a [`BATCH`] at the most, holding
//!   the request while none is. The process combines and submits: the next
//!   batch asked for before this one is combined, a submission's `Ack` read
//!   only when the next batch arrives behind it, one such loop per intake
//!   shard. So origins combine while devices still push, and the round ends
//!   with intake instead of a queue of rows behind it. (`PullOrigin`, one
//!   named row, is the same routine's one-origin case.)
//! * **Committee processes** ask `CommitteeCheckIn` (carrying their
//!   joint-noise seed) and are handed a `CommitteeShareTask` once the
//!   participant set is agreed, then a `CertSignTask`.
//! * **The driver** spawns everyone, watches child exits (respawning a
//!   crashed origin once — all protocol state lives at the aggregator,
//!   so a respawned origin recovers by pulling, and is handed only the
//!   rows nobody has submitted), asks `PullStatus`,
//!   and merges every process's wire metrics into one JSON artifact.
//!
//! ## Durability
//!
//! The aggregator's [`AggState`] is crash-durable: every accepted,
//! state-mutating request and every wall-clock phase transition is
//! logged to a write-ahead [`Journal`] (made durable — one group-commit
//! `fsync` covers every handler waiting on it — before the reply goes
//! out), so a `kill -9` at any protocol step loses nothing. A respawned
//! aggregator replays the journal, rebuilds bit-identical state
//! (verified against embedded state-digest checkpoints), rebinds a
//! fresh port, and publishes it via the `agg.addr` file; clients
//! re-resolve the address whenever their retries exhaust. The chaos
//! supervisor in [`crate::chaos`] exercises exactly this path.
//!
//! ## Determinism
//!
//! Every process rebuilds the population, keys, key shares, query plan,
//! and all transport identities from the shared `(seed, n, query)`
//! arguments — no key material ever crosses the wire. Decryption is
//! exact, so the decoded pre-noise histogram depends only on the
//! population and query, never on encryption randomness: the
//! multi-process round is bit-identical to the in-process executor.
//! All requests are idempotent (first write wins at the aggregator), so
//! the client layer's at-least-once retry is safe — including across
//! aggregator respawns.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mycelium::aggcore::{
    CommitteeTail, CoreError, Intake, Mark, Parked, Round, RoundCtx, Slot, Timeout,
};
use mycelium::exec::NoisyGroup;
use mycelium::params::SystemParams;
use mycelium::plan::{OriginWork, QueryPlan};
use mycelium::roles;
use mycelium::streams as stream;
use mycelium_bgv::{Ciphertext, KeySet};
use mycelium_budget::{BudgetError, Composition, EntryState, Ledger, LedgerEntry, LedgerOp};
use mycelium_cert::{render_json, RoundCertificate, SlotStatus};
use mycelium_crypto::sha256::{sha256, Digest};
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_query::analyze::cost_report;
use mycelium_query::ast::Query;
use mycelium_query::builtin::paper_query;
use mycelium_query::eval::PlainResult;
use mycelium_sharing::threshold::KeyShareSet;

use crate::channel::Identity;
use crate::chaos::RoundTree;
use crate::client::{Client, ClientConfig};
use crate::codec::{decode_plain_result, encode_plain_result, encode_share, CodecCtx};
use crate::error::NetError;
use crate::journal::{Journal, JournalError, Pending, SyncStats};
use crate::lock_recover;
use crate::metrics::NetMetrics;
use crate::proto::{NetMsg, OriginRow};
use crate::server::{Handled, Handler, Server, ServerConfig};
use crate::wire::{Reader, Writer};

/// Transport role ids (feed [`Identity::derive`]).
pub mod role {
    /// The aggregator (the only server).
    pub const AGGREGATOR: u32 = 0;
    /// Device shard `i` is `DEVICE_BASE + i`.
    pub const DEVICE_BASE: u32 = 100;
    /// Origin shard `j` is `ORIGIN_BASE + j`.
    pub const ORIGIN_BASE: u32 = 200;
    /// Committee member `m` (1-based) is `COMMITTEE_BASE + m`.
    pub const COMMITTEE_BASE: u32 = 300;
    /// The driver.
    pub const DRIVER: u32 = 400;
    /// Aggregation shard `s` is `SHARD_BASE + s` (server towards
    /// devices/origins, client towards the coordinator).
    pub const SHARD_BASE: u32 = 500;
}

/// The privacy-budget configuration of a multi-round session. Every
/// round of a session shares the same dataset, capacity, and
/// composition rule; the session write-ahead log at
/// [`RoundSpec::budget_wal`] carries the ledger across rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetCfg {
    /// The dataset the ledger guards (the account name).
    pub dataset: String,
    /// Total epsilon capacity of the session.
    pub capacity: f64,
    /// Advanced-composition slack `δ` (ignored under basic composition).
    pub delta: f64,
    /// Whether to price homogeneous charge runs with advanced
    /// composition (`dp::composition::advanced_composition`).
    pub advanced: bool,
}

impl BudgetCfg {
    /// The composition rule this configuration selects.
    pub fn composition(&self) -> Composition {
        if self.advanced {
            Composition::Advanced { delta: self.delta }
        } else {
            Composition::Basic
        }
    }

    /// A fresh (empty) ledger for this configuration.
    pub fn ledger(&self) -> Result<Ledger, BudgetError> {
        Ledger::new(&self.dataset, self.capacity, self.composition())
    }

    /// Binding digest of the *session* budget WAL. Spans rounds, so it
    /// binds only the account parameters — never a round's seed, query,
    /// or index.
    pub fn wal_binding_digest(&self) -> Digest {
        let mut w = Writer::new();
        w.put_str("myc-budget-wal");
        w.put_str(&self.dataset);
        w.put_u64(self.capacity.to_bits());
        w.put_u64(self.delta.to_bits());
        w.put_u8(self.advanced as u8);
        sha256(&w.finish())
    }
}

/// Everything that defines one multi-process round; every process
/// derives identical state from it.
#[derive(Debug, Clone)]
pub struct RoundSpec {
    /// Master seed for population, keys, identities, and noise.
    pub seed: u64,
    /// Population size (every vertex is a device and an origin).
    pub n: usize,
    /// Paper query name (e.g. `Q4`).
    pub query: String,
    /// Number of device processes the contribution duties shard over.
    pub device_shards: usize,
    /// Number of origin processes the origin work shards over.
    pub origin_shards: usize,
    /// Number of aggregation-plane intake shards. `1` runs the classic
    /// single-hub aggregator; `>= 2` runs that many `AggShard` servers
    /// plus a thin coordinator that combines their sealed roots.
    pub agg_shards: usize,
    /// Whether contributions carry well-formedness proofs.
    pub with_proofs: bool,
    /// This round's index within its budget session (0 for standalone
    /// rounds). The ledger keys every admit/charge/refund/refuse
    /// decision by it.
    pub round: u32,
    /// The session budget configuration; `None` runs unmetered.
    pub budget: Option<BudgetCfg>,
    /// Path of the session budget WAL (defaults to `budget.wal` in the
    /// round's `--out` directory, which only suits single-round
    /// sessions — multi-round sessions with per-round out dirs must
    /// point every round at one shared file).
    pub budget_wal: Option<PathBuf>,
    /// How long origins may wait for missing contributions.
    pub contrib_deadline: Duration,
    /// Hard wall-clock cap on the whole round.
    pub round_timeout: Duration,
    /// Per-request client I/O deadline (read/handshake). A stalled peer
    /// becomes a typed timeout after this long; net-chaos runs shrink it
    /// so slow-loris faults resolve quickly.
    pub io_timeout: Duration,
    /// Deterministic link-fault injection: when set, every server wraps
    /// itself in a [`crate::netchaos::ChaosProxy`] replaying the plan
    /// this profile derives, and publishes the *proxy* address.
    pub net: Option<crate::netchaos::NetProfile>,
}

impl Default for RoundSpec {
    fn default() -> Self {
        RoundSpec {
            seed: 7,
            n: 24,
            query: "Q4".into(),
            device_shards: 8,
            origin_shards: 2,
            agg_shards: 1,
            with_proofs: false,
            round: 0,
            budget: None,
            budget_wal: None,
            contrib_deadline: Duration::from_secs(30),
            round_timeout: Duration::from_secs(600),
            io_timeout: Duration::from_secs(20),
            net: None,
        }
    }
}

impl RoundSpec {
    /// Renders the spec as CLI arguments (the driver → child interface).
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--seed".into(),
            self.seed.to_string(),
            "--n".into(),
            self.n.to_string(),
            "--query".into(),
            self.query.clone(),
            "--devices".into(),
            self.device_shards.to_string(),
            "--origins".into(),
            self.origin_shards.to_string(),
            "--shards".into(),
            self.agg_shards.to_string(),
            "--proofs".into(),
            (self.with_proofs as u8).to_string(),
            "--contrib-ms".into(),
            self.contrib_deadline.as_millis().to_string(),
            "--timeout-ms".into(),
            self.round_timeout.as_millis().to_string(),
            "--io-ms".into(),
            self.io_timeout.as_millis().to_string(),
        ];
        match &self.net {
            None => {}
            Some(crate::netchaos::NetProfile::Seeded(s)) => {
                args.push("--net-seed".into());
                args.push(s.to_string());
            }
            Some(crate::netchaos::NetProfile::Drill) => {
                args.push("--net-drill".into());
            }
        }
        if self.round != 0 {
            args.push("--round".into());
            args.push(self.round.to_string());
        }
        if let Some(b) = &self.budget {
            args.push("--budget-dataset".into());
            args.push(b.dataset.clone());
            args.push("--budget-capacity".into());
            args.push(b.capacity.to_string());
            args.push("--budget-delta".into());
            args.push(b.delta.to_string());
            args.push("--budget-advanced".into());
            args.push((b.advanced as u8).to_string());
        }
        if let Some(p) = &self.budget_wal {
            args.push("--budget-wal".into());
            args.push(p.display().to_string());
        }
        args
    }

    /// Digest binding a write-ahead journal to this round's *state*
    /// configuration. Timing knobs (deadlines, timeouts) are
    /// deliberately excluded: a respawn may retune them without
    /// invalidating the journaled protocol state.
    pub fn binding_digest(&self) -> Digest {
        let mut w = Writer::new();
        w.put_u64(self.seed);
        w.put_u64(self.n as u64);
        w.put_str(&self.query);
        w.put_u64(self.device_shards as u64);
        w.put_u64(self.origin_shards as u64);
        w.put_u8(self.with_proofs as u8);
        // Budget-session extension. A plain round 0 without a budget
        // appends nothing, so pre-budget journals stay byte-compatible.
        if self.round != 0 || self.budget.is_some() {
            w.put_u32(self.round);
            match &self.budget {
                None => w.put_u8(0),
                Some(b) => {
                    w.put_u8(1);
                    w.put_str(&b.dataset);
                    w.put_u64(b.capacity.to_bits());
                    w.put_u64(b.delta.to_bits());
                    w.put_u8(b.advanced as u8);
                }
            }
        }
        sha256(&w.finish())
    }

    /// Journal binding for aggregation shard `shard`: the round binding
    /// with the shard id *and* the shard count mixed in, so a journal
    /// partition can never be replayed into the wrong shard or into a
    /// run with a different shard layout.
    pub fn shard_binding_digest(&self, shard: u32) -> Digest {
        let mut w = Writer::new();
        w.put_bytes(&self.binding_digest());
        w.put_str("agg-shard");
        w.put_u32(shard);
        w.put_u64(self.agg_shards as u64);
        sha256(&w.finish())
    }

    /// Journal binding for the aggregation plane's hub process. At one
    /// shard this is the classic [`RoundSpec::binding_digest`] (the
    /// pre-refactor single-hub journal stays byte-compatible); above it
    /// the coordinator binds the shard count so a single-hub journal
    /// can never masquerade as a sharded-run coordinator journal.
    pub fn coordinator_binding_digest(&self) -> Digest {
        if self.agg_shards <= 1 {
            return self.binding_digest();
        }
        let mut w = Writer::new();
        w.put_bytes(&self.binding_digest());
        w.put_str("coordinator");
        w.put_u64(self.agg_shards as u64);
        sha256(&w.finish())
    }
}

pub use mycelium::summation::shard_of;

/// Deterministically derived shared state.
pub struct RoundSetup {
    /// The spec everything is derived from.
    pub spec: RoundSpec,
    /// Figure-4 system parameters (committee size, BGV params, ε).
    pub params: SystemParams,
    /// The population under query.
    pub pop: Population,
    /// The parsed query.
    pub query: Query,
    /// BGV keys (every process derives the same set).
    pub keys: KeySet,
    /// Shamir shares of the secret key.
    pub key_shares: KeyShareSet,
    /// The query plan.
    pub plan: QueryPlan,
    /// Per-vertex origin work.
    pub works: Vec<OriginWork>,
    /// Per-vertex contribution duties (inverse of `works`).
    pub duties: Vec<Vec<roles::Duty>>,
    /// Codec context for the plan's parameters.
    pub cc: CodecCtx,
    /// Committee size `c`.
    pub committee_size: usize,
    /// Shamir threshold `t` (`t + 1` participants decrypt).
    pub threshold: usize,
}

impl RoundSetup {
    /// The aggregator's transport identity.
    pub fn aggregator_identity(&self) -> Identity {
        Identity::derive(self.spec.seed, role::AGGREGATOR)
    }

    /// Every client of the round as a `(static key, role id)` pair:
    /// device shards, origin shards, committee members, the driver, and
    /// — as clients of the coordinator — the shards of a sharded layout.
    pub fn link_roster(&self) -> Vec<([u8; 32], u32)> {
        let spec = &self.spec;
        let shard_count = if spec.agg_shards > 1 {
            spec.agg_shards
        } else {
            0
        };
        let devices = (0..spec.device_shards as u32).map(|i| role::DEVICE_BASE + i);
        let origins = (0..spec.origin_shards as u32).map(|j| role::ORIGIN_BASE + j);
        let committee = (1..=self.committee_size as u32).map(|m| role::COMMITTEE_BASE + m);
        let shards = (0..shard_count as u32).map(|s| role::SHARD_BASE + s);
        let roles = devices.chain(origins).chain(committee).chain(shards);
        roles
            .chain([role::DRIVER])
            .map(|r| (Identity::derive(spec.seed, r).public, r))
            .collect()
    }

    /// The full client roster (device, origin, committee, driver keys).
    pub fn roster(&self) -> std::collections::HashSet<[u8; 32]> {
        self.link_roster().into_iter().map(|(key, _)| key).collect()
    }

    /// `slot_map[o][s]`: the device expected to fill origin `o`'s
    /// contribution slot `s` (the certificate commitment's leaf shape).
    pub fn slot_map(&self) -> Vec<Vec<VertexId>> {
        roles::slot_map(&self.works)
    }

    /// Aggregation shard `s`'s transport identity.
    pub fn shard_identity(&self, shard: usize) -> Identity {
        Identity::derive(self.spec.seed, role::SHARD_BASE + shard as u32)
    }
}

/// Builds the population exactly as the repository's round tests do, so
/// oracle comparisons line up.
pub fn build_population(spec: &RoundSpec) -> Population {
    let cfg = ContactGraphConfig {
        n: spec.n,
        degree_bound: 4,
        mean_household: 3,
        community_edges: 2,
        subway_fraction: 0.2,
        days: 13,
    };
    let epi = EpidemicConfig {
        seed_fraction: 0.08,
        household_rate: 0.10,
        community_rate: 0.02,
        days: 13,
    };
    epidemic_population(&cfg, &epi, &mut StdRng::seed_from_u64(spec.seed))
}

/// Derives the full shared setup from a spec. Failures here are
/// configuration errors (unknown query, query too large for the ring),
/// not wire input, so they surface as [`NetError::Decode`].
pub fn build_setup(spec: &RoundSpec) -> Result<RoundSetup, NetError> {
    let params = SystemParams::simulation();
    let pop = build_population(spec);
    let query = paper_query(&spec.query)
        .ok_or_else(|| NetError::Decode(format!("unknown paper query {}", spec.query)))?;
    let mut keys_rng = StdRng::seed_from_u64(spec.seed).with_stream(stream::KEYS);
    let keys = KeySet::generate(&params.bgv, &mut keys_rng);
    let c = params.committee_size;
    let t = c / 2;
    let mut deal_rng = StdRng::seed_from_u64(spec.seed).with_stream(stream::DEAL);
    let key_shares = KeyShareSet::deal(&keys.secret, t, c, &mut deal_rng);
    let plan = QueryPlan::new(&query, &pop, &params, spec.with_proofs)
        .map_err(|e| NetError::Decode(format!("query planning failed: {e}")))?;
    let works = roles::works(&plan, &query, &params, &pop);
    let duties = roles::duties(&works);
    // The codec must decode into the *same* RNS context the keys carry:
    // `RnsPoly` arithmetic requires pointer-identical contexts.
    let cc = CodecCtx::with_context(Arc::clone(keys.public.context()), &params.bgv);
    Ok(RoundSetup {
        spec: spec.clone(),
        params,
        pop,
        query,
        keys,
        key_shares,
        plan,
        works,
        duties,
        cc,
        committee_size: c,
        threshold: t,
    })
}

/// What the aggregator releases at the end of the round.
pub struct RoundOutcome {
    /// Decoded exact (pre-noise) result.
    pub exact: PlainResult,
    /// The released, noised result.
    pub released: Vec<NoisyGroup>,
    /// Devices whose contributions failed proof verification.
    pub rejected: Vec<VertexId>,
}

/// Serializes an outcome (the aggregator → driver/test file format).
pub fn encode_outcome(out: &Result<RoundOutcome, String>) -> Vec<u8> {
    let mut w = Writer::new();
    match out {
        Err(e) => {
            w.put_u8(0);
            w.put_str(e);
        }
        Ok(out) => {
            w.put_u8(1);
            encode_plain_result(&mut w, &out.exact);
            w.put_u32(out.released.len() as u32);
            for g in &out.released {
                w.put_str(&g.label);
                w.put_u32(g.histogram.len() as u32);
                for &v in &g.histogram {
                    w.put_i64(v);
                }
            }
            w.put_u32(out.rejected.len() as u32);
            for &v in &out.rejected {
                w.put_u32(v);
            }
        }
    }
    w.finish()
}

/// Deserializes an outcome file.
pub fn decode_outcome(bytes: &[u8]) -> Result<Result<RoundOutcome, String>, NetError> {
    let mut r = Reader::new(bytes);
    match r.get_u8()? {
        0 => Ok(Err(r.get_str()?)),
        1 => {
            let exact = decode_plain_result(&mut r)?;
            let ng = r.get_u32()? as usize;
            let mut released = Vec::with_capacity(ng);
            for _ in 0..ng {
                let label = r.get_str()?;
                let nh = r.get_u32()? as usize;
                let mut histogram = Vec::with_capacity(nh);
                for _ in 0..nh {
                    histogram.push(r.get_i64()?);
                }
                released.push(NoisyGroup { label, histogram });
            }
            let nr = r.get_u32()? as usize;
            let mut rejected = Vec::with_capacity(nr);
            for _ in 0..nr {
                rejected.push(r.get_u32()?);
            }
            Ok(Ok(RoundOutcome {
                exact,
                released,
                rejected,
            }))
        }
        v => Err(NetError::Decode(format!("bad outcome tag {v}"))),
    }
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

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
/// How long a finished aggregator waits for committee members to observe
/// `Finished` before giving up on stragglers and exiting anyway.
const FINISH_GRACE: Duration = Duration::from_secs(10);
/// How often a serving process's main loop re-runs the wall-clock
/// transitions when no handled request wakes it first.
const TICK: Duration = Duration::from_millis(20);
/// The one way to wait: how long a server holds a request whose answer is
/// still "not yet" (`OriginPending`, `CommitteeWait`) before saying so — it
/// answers the moment the awaited milestone moves, so a client asks again
/// at once and never sleeps. Also how long a client that lost its server
/// waits, at most, before it redials.
pub const PARK: Duration = Duration::from_millis(50);
/// How many contributions a device keeps in flight on one link (sent, not
/// yet acknowledged) while it encrypts the next — and so how many encoded
/// contributions, rather than one, it holds in memory per link.
pub const WINDOW: usize = 8;
/// How many rows the aggregation plane hands an origin process at a time, at
/// the most: the hub all of them in one reply, each of `S` intake shards —
/// the process asks them all at once — `BATCH / S` (one at the least). And
/// so how many rows, rather than one, a reply and the buffers either end
/// keeps for it hold.
pub const BATCH: usize = 4;

/// Deterministic fault injection knobs for [`run_aggregator`] — the
/// chaos drill's way of dying at an exact protocol step.
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

/// Waits until the records `pending` claims are on disk (at once where
/// there is no journal to claim anything of).
fn settle(pending: Option<Pending>) -> Result<(), NetError> {
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
enum Reply {
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
            started: Instant::now(),
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
        st.started = Instant::now();
        if !st.round.tail.participants.is_empty() && st.outcome.is_none() {
            st.share_deadline = Some(Instant::now() + st.share_wait());
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
    fn fail(&mut self, msg: String) {
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
    fn checkpoint(&mut self) -> Result<(), NetError> {
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
    fn pending(&self) -> Option<Pending> {
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

    // --- privacy budget --------------------------------------------------

    /// Applies one ledger decision to in-memory state, mirroring its
    /// round-local side effects: an `Admit` of *this* round pins the
    /// epsilon the certificate will carry; a `Refuse` of this round is
    /// the round's terminal failure. Decisions about other rounds of
    /// the session only move the ledger.
    fn apply_budget_op(&mut self, op: &LedgerOp) -> Result<(), BudgetError> {
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
    /// Idempotent across recoveries: [`Ledger::decide`] re-proposes a
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
    fn settle_budget(&mut self) -> Result<(), NetError> {
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
                self.share_deadline = Some(Instant::now() + self.share_wait());
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

    /// The one function in which this state asks what time it is: whether
    /// the core's `timeout` has passed or — `None`, a matter between this
    /// driver and its origins (§4.4) — the contribution deadline.
    fn expired(&self, timeout: Option<Timeout>) -> bool {
        let now = Instant::now();
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
    fn tick(&mut self) -> Result<(), NetError> {
        if self.replaying {
            return Ok(());
        }
        loop {
            self.settle_budget()?;
            if self.cert_since.is_none() && self.round.signing() {
                self.cert_since = Some(Instant::now());
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
    fn encode_reply(&self, reply: &Reply, w: &mut Writer) {
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

    fn handle_reply(
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
    /// [`SharedAgg`] wakes its sleepers when any of them moves — never per
    /// request.
    fn milestones(&self) -> impl PartialEq {
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

/// File names the roles and driver agree on inside the `--out` directory.
pub mod files {
    /// The aggregator's outcome (see [`super::decode_outcome`]).
    pub const OUTCOME: &str = "outcome.bin";
    /// Merged metrics, binary (see `NetMetrics::decode`).
    pub const METRICS_MERGED: &str = "metrics-merged.bin";
    /// Merged metrics, JSON artifact.
    pub const METRICS_JSON: &str = "NET_round.json";
    /// The aggregator's write-ahead journal.
    pub const JOURNAL: &str = "journal.bin";
    /// The aggregator's current address (rewritten on every respawn;
    /// clients re-read it when their retries exhaust).
    pub const AGG_ADDR: &str = "agg.addr";
    /// The chaos supervisor's per-seed report artifact.
    pub const CHAOS_JSON: &str = "CHAOS_report.json";
    /// The net-chaos matrix report artifact (one entry per fault seed).
    pub const CHAOS_NET_JSON: &str = "CHAOS_net.json";
    /// The sealed round certificate (JSON envelope with the canonical
    /// bytes hex-embedded; feed it to `myc_verify`).
    pub const CERT_JSON: &str = "ROUND_cert.json";
    /// The session privacy-budget WAL (default location when
    /// `--budget-wal` is not given; multi-round sessions share one file
    /// across their per-round out dirs).
    pub const BUDGET_WAL: &str = "budget.wal";

    /// Per-role metrics file name.
    pub fn role_metrics(name: &str) -> String {
        format!("metrics-{name}.bin")
    }

    /// Aggregation shard `s`'s WAL partition.
    pub fn shard_journal(shard: usize) -> String {
        format!("journal-shard-{shard}.bin")
    }

    /// Aggregation shard `s`'s published address (same atomic
    /// rewrite-on-respawn protocol as [`AGG_ADDR`]).
    pub fn shard_addr(shard: usize) -> String {
        format!("shard-{shard}.addr")
    }

    /// Per-server injected-fault ledger (written only when the round
    /// runs under a net-chaos profile; reconciled against the merged
    /// transport counters by the net-chaos harness).
    pub fn netfaults(name: &str) -> String {
        format!("netfaults-{name}.json")
    }
}

fn write_metrics(out_dir: &Path, name: &str, metrics: &NetMetrics) -> Result<(), NetError> {
    std::fs::write(out_dir.join(files::role_metrics(name)), metrics.encode())?;
    Ok(())
}

/// Atomically publishes a server's current address (temp file + rename,
/// so a concurrent reader never sees a partial write).
fn write_named_addr_file(out_dir: &Path, name: &str, addr: SocketAddr) -> Result<(), NetError> {
    let tmp = out_dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, addr.to_string())?;
    std::fs::rename(&tmp, out_dir.join(name))?;
    Ok(())
}

/// Reads a published server address by file name, if any.
pub fn read_named_addr_file(out_dir: &Path, name: &str) -> Option<SocketAddr> {
    let s = std::fs::read_to_string(out_dir.join(name)).ok()?;
    s.trim().parse().ok()
}

/// Reads the aggregator's published address, if any.
pub fn read_addr_file(out_dir: &Path) -> Option<SocketAddr> {
    read_named_addr_file(out_dir, files::AGG_ADDR)
}

/// An [`AggState`] as its process shares it: the server's workers handle
/// requests on it, and the process's main loop runs its wall-clock
/// transitions and sleeps until the round reaches the point it waits for.
///
/// As a [`Handler`] it decodes a request, handles it under the state lock
/// (journal → apply → checkpoint), encodes the reply into the connection's
/// frame buffer — an origin's job straight from the parked row — and lets
/// the lock go. The claim it returns is waited on by the connection's
/// worker, once per burst of requests and outside the lock, so other
/// requests are verified, applied and answered during the disk wait; no
/// reply leaves before it. Under the `die_after` chaos knob a request is
/// handled, made durable and then *not* answered, so the client must
/// retry into the respawned process's idempotent path.
pub struct SharedAgg {
    state: Mutex<AggState>,
    /// Notified when a handled request moved one of
    /// [`AggState::milestones`]. Everything that sleeps on it sleeps with
    /// a timeout, so wall-clock deadlines fire regardless.
    moved: Condvar,
    setup: Arc<RoundSetup>,
    die_after: Option<(String, u32)>,
    die_count: Mutex<u32>,
}

impl SharedAgg {
    /// Shares `st`, to be served with the chaos knobs in `faults`.
    pub fn new(st: AggState, setup: &Arc<RoundSetup>, faults: &AggFaults) -> Arc<Self> {
        Arc::new(SharedAgg {
            state: Mutex::new(st),
            moved: Condvar::new(),
            setup: Arc::clone(setup),
            die_after: faults.die_after.clone(),
            die_count: Mutex::new(0),
        })
    }

    /// The state, locked.
    pub fn lock(&self) -> MutexGuard<'_, AggState> {
        lock_recover(&self.state)
    }

    /// Sleeps (the state unlocked) until a request moves a milestone or
    /// `timeout` passes, whichever is first.
    fn wait<'a>(&self, s: MutexGuard<'a, AggState>, timeout: Duration) -> MutexGuard<'a, AggState> {
        let woken = self.moved.wait_timeout(s, timeout);
        woken.unwrap_or_else(PoisonError::into_inner).0
    }

    /// Runs `step` on the state and wakes every sleeper if it moved a
    /// milestone.
    fn observe<T>(&self, s: &mut AggState, step: impl FnOnce(&mut AggState) -> T) -> T {
        let before = s.milestones();
        let out = step(s);
        if s.milestones() != before {
            self.moved.notify_all();
        }
        out
    }

    /// Runs the due wall-clock transitions; a journal failure fails the
    /// round rather than the process. What they append is made durable
    /// by whoever next waits on the journal — the next handled request,
    /// or the main loop before it acts on what it saw ([`Self::sync`]).
    fn tick(&self, s: &mut AggState) {
        self.observe(s, |s| {
            if let Err(e) = s.tick().and_then(|_| s.checkpoint()) {
                s.fail(format!("journal failure: {e}"));
            }
        })
    }

    /// Unlocks the state and waits until everything it journaled is on
    /// disk.
    fn sync(&self, s: MutexGuard<'_, AggState>) -> Result<(), NetError> {
        let pending = s.pending();
        drop(s);
        settle(pending)
    }
}

impl Handler for SharedAgg {
    fn handle_into(
        &self,
        _peer: [u8; 32],
        request: &[u8],
        reply: &mut Writer,
        may_wait: bool,
    ) -> Result<Handled, NetError> {
        let mut msg = NetMsg::decode(request, &self.setup.cc)?;
        let kind = msg.kind();
        let asked = Instant::now();
        let mut s = self.lock();
        // A reply that says "not yet" is held (the state unlocked) and the
        // request handled again whenever a milestone moves, until its answer
        // exists or one park period has passed — but never in front of
        // replies the connection has not written yet.
        let pending = loop {
            let (answer, pending) = self.observe(&mut s, |s| s.handle_reply(msg, request))?;
            let left = PARK.saturating_sub(asked.elapsed());
            let not_yet = matches!(
                answer,
                Reply::Msg(NetMsg::OriginPending { .. } | NetMsg::CommitteeWait)
            );
            if !not_yet || left.is_zero() {
                s.encode_reply(&answer, reply);
                break pending;
            }
            if !may_wait {
                return Ok(Handled::WouldWait);
            }
            s = self.wait(s, left);
            msg = NetMsg::decode(request, &self.setup.cc)?;
        };
        drop(s);
        if let Some((k, n)) = self.die_after.as_ref().filter(|(k, _)| kind == k.as_str()) {
            let mut count = lock_recover(&self.die_count);
            *count += 1;
            if *count == *n {
                settle(pending)?;
                eprintln!("{}: chaos kill after {n} {k}", self.lock().who());
                std::process::abort();
            }
        }
        Ok(Handled::Reply(pending))
    }
}

/// One served aggregation-plane process (the aggregator or an intake
/// shard): its journaled state behind the listening server, plus the
/// fault-injecting proxy when the round runs under a net-chaos profile.
struct Served {
    name: String,
    shared: Arc<SharedAgg>,
    server: Server,
    proxy: Option<crate::netchaos::ChaosProxy>,
}

impl Served {
    /// Serves `st` under the transport identity its composition implies.
    /// Publishes the dialable address via the role's address file and a
    /// `LISTENING` banner on stdout.
    fn spawn(
        st: AggState,
        setup: &Arc<RoundSetup>,
        faults: &AggFaults,
        out_dir: &Path,
    ) -> Result<Self, NetError> {
        let spec = &setup.spec;
        // One worker per intake client, plus slack; the aggregator also
        // serves the committee and the shards.
        let intake_workers = spec.device_shards + spec.origin_shards + 3;
        let (name, role_id, workers, server_seed, addr_file) = match st.shard {
            None => (
                "aggregator".to_string(),
                role::AGGREGATOR,
                intake_workers + setup.committee_size + spec.agg_shards,
                spec.seed,
                files::AGG_ADDR.to_string(),
            ),
            Some(s) => (
                format!("shard-{s}"),
                role::SHARD_BASE + s,
                intake_workers,
                spec.seed ^ (0x5a5a + s as u64),
                files::shard_addr(s as usize),
            ),
        };
        let shared = SharedAgg::new(st, setup, faults);
        let config = ServerConfig {
            workers,
            roster: Some(setup.roster()),
            ..ServerConfig::default()
        };
        let identity = Identity::derive(setup.spec.seed, role_id);
        let handler: Arc<dyn Handler> = shared.clone();
        let server = Server::spawn("127.0.0.1:0", identity, config, handler, server_seed)?;
        // Under a net-chaos profile every client dials the fault-injecting
        // proxy, not the server: publish the proxy's address everywhere
        // the real one would go.
        let proxy = match &setup.spec.net {
            Some(profile) => Some(crate::netchaos::ChaosProxy::spawn(
                server.local_addr(),
                role_id,
                &crate::netchaos::NetFaultPlan::derive(profile, setup),
                &setup.link_roster(),
            )?),
            None => None,
        };
        let public_addr = proxy
            .as_ref()
            .map_or(server.local_addr(), |p| p.local_addr());
        write_named_addr_file(out_dir, &addr_file, public_addr)?;
        println!("LISTENING {public_addr}");
        use std::io::Write as _;
        std::io::stdout().flush()?;
        Ok(Served {
            name,
            shared,
            server,
            proxy,
        })
    }

    /// Stops serving, then writes this process's metrics (merged with its
    /// client half's, if any) and fault ledger. In that order: the main
    /// loop can get here while the request that let it go is still being
    /// answered, and only a stopped server has sent — and counted — its
    /// last reply.
    fn finish(self, out_dir: &Path, client_half: Option<NetMetrics>) -> Result<(), NetError> {
        let server_metrics = self.server.metrics();
        self.server.shutdown();
        if let Some(p) = self.proxy {
            let ledger = p.shutdown().to_json() + "\n";
            std::fs::write(out_dir.join(files::netfaults(&self.name)), ledger)?;
        }
        let mut metrics = lock_recover(&server_metrics).clone();
        if let Some(m) = &client_half {
            metrics.merge(m);
        }
        let s = self.shared.lock();
        metrics.duplicates_suppressed += s.duplicates_suppressed();
        let stats = s.sync_stats();
        metrics.wal_syncs += stats.syncs;
        let waits = &mut metrics.sync_wait_micros.completions;
        waits.extend(stats.wait_micros);
        let (early, owned) = s.rows_handed_early();
        eprintln!(
            "{}: {} fsyncs for {} journal records, {} minor faults, \
             rows handed out before the last contribution: {early} of {owned}",
            self.name,
            stats.syncs,
            s.journal_records(),
            crate::metrics::minor_faults().unwrap_or(0)
        );
        write_metrics(out_dir, &self.name, &metrics)
    }
}

/// Runs the aggregator: recovers state from the journal (fresh on the
/// first incarnation), serves the round on a loopback port published via
/// the `agg.addr` file, writes the outcome and its metrics into
/// `out_dir`, and exits once the round is over and observed.
pub fn run_aggregator(
    spec: &RoundSpec,
    out_dir: &Path,
    faults: &AggFaults,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = Arc::new(build_setup(spec)?);
    let mut st = AggState::recover(Arc::clone(&setup), &out_dir.join(files::JOURNAL))?;
    st.set_faults(faults);
    if spec.budget.is_some() {
        let wal_path = spec
            .budget_wal
            .clone()
            .unwrap_or_else(|| out_dir.join(files::BUDGET_WAL));
        st.install_budget(&wal_path)?;
    }
    let served = Served::spawn(st, &setup, faults, out_dir)?;

    let started = Instant::now();
    let mut outcome_since: Option<Instant> = None;
    let shared = &served.shared;
    let mut s = shared.lock();
    let (result, cert_json) = loop {
        shared.tick(&mut s);
        if s.round.is_over() {
            let since = *outcome_since.get_or_insert_with(Instant::now);
            // Committee members (and shards) that died after the
            // outcome formed can never poll `Finished`; a grace period
            // keeps their absence from wedging the exit.
            let shards_expected = if spec.agg_shards > 1 {
                spec.agg_shards
            } else {
                0
            };
            let all_observed = s.finished_seen.len() == setup.committee_size
                && s.finished_shards.len() == shards_expected;
            if s.driver_seen && (all_observed || since.elapsed() >= FINISH_GRACE) {
                let json = s.certificate_json();
                break (s.outcome.take().expect("checked"), json);
            }
        }
        if started.elapsed() >= spec.round_timeout {
            let json = s.certificate_json();
            break (
                s.outcome.take().unwrap_or_else(|| {
                    Err(format!(
                        "round did not converge within {:?}",
                        spec.round_timeout
                    ))
                }),
                json,
            );
        }
        s = shared.wait(s, TICK);
    };
    shared.sync(s)?;
    // The certificate lands on disk *before* the outcome file: the
    // outcome is the durable end-of-round signal lingering roles watch,
    // so nobody can observe a finished round with a missing certificate.
    if let Some(json) = cert_json {
        std::fs::write(out_dir.join(files::CERT_JSON), json)?;
    }
    std::fs::write(out_dir.join(files::OUTCOME), encode_outcome(&result))?;
    served.finish(out_dir, None)?;
    match result {
        Ok(_) => Ok(()),
        Err(e) => Err(NetError::Decode(format!("round failed: {e}"))),
    }
}

/// Runs aggregation shard `shard`: recovers its own WAL partition,
/// serves intake for the origins it owns on a loopback port published
/// via `shard-N.addr`, pushes its sealed root to the coordinator at
/// `addr`, and lingers — acking late client retries — until the
/// coordinator reports the round finished (or the outcome file appears,
/// covering a coordinator that exited before this shard's poll).
pub fn run_shard(
    spec: &RoundSpec,
    shard: usize,
    addr: SocketAddr,
    out_dir: &Path,
    faults: &AggFaults,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = Arc::new(build_setup(spec)?);
    let mut st = AggState::recover_shard(
        Arc::clone(&setup),
        shard as u32,
        &out_dir.join(files::shard_journal(shard)),
    )?;
    st.set_faults(faults);
    let served = Served::spawn(st, &setup, faults, out_dir)?;

    // Client half towards the coordinator.
    let role_id = role::SHARD_BASE + shard as u32;
    let mut coord = HubClient::new(&setup, role_id, addr, out_dir);
    let started = Instant::now();
    let mut root_msg: Option<NetMsg> = None;
    let mut root_acked = false;
    // The loop sleeps on the state: the request that seals the root wakes
    // it, so the root goes to the coordinator at once; a failed push and
    // the linger poll after the ack repeat every [`TICK`].
    let result = {
        let shared = &served.shared;
        let mut s = shared.lock();
        loop {
            shared.tick(&mut s);
            if let Some(e) = s.failure() {
                break Err(NetError::Decode(format!("shard {shard} failed: {e}")));
            }
            if root_msg.is_none() && !root_acked {
                root_msg = s.shard_root_msg();
            }
            if root_msg.is_some() || root_acked {
                // Talk to the coordinator with the state unlocked, and only
                // about a root that is on disk.
                if let Err(e) = shared.sync(s) {
                    break Err(e);
                }
                if let Some(msg) = &root_msg {
                    match coord.poll_once(&setup, msg) {
                        Ok(NetMsg::Ack) => {
                            root_acked = true;
                            root_msg = None;
                        }
                        Ok(NetMsg::Finished) => break Ok(()),
                        _ => {}
                    }
                } else {
                    let status = NetMsg::PullShardStatus {
                        shard: shard as u32,
                    };
                    if let Ok(NetMsg::Finished) = coord.poll_once(&setup, &status) {
                        break Ok(());
                    }
                    // The coordinator may have exited (finish grace elapsed)
                    // before this shard's poll saw Finished; the outcome file
                    // is the durable end-of-round signal.
                    if out_dir.join(files::OUTCOME).exists() {
                        break Ok(());
                    }
                }
                s = shared.lock();
            }
            if started.elapsed() >= spec.round_timeout {
                break Err(NetError::Decode(format!(
                    "shard {shard} round did not converge within {:?}",
                    spec.round_timeout
                )));
            }
            s = shared.wait(s, TICK);
        }
    };
    served.finish(out_dir, Some(coord.metrics()))?;
    result
}

/// A role's transport client.
fn round_client(
    setup: &RoundSetup,
    role_id: u32,
    addr: SocketAddr,
    server_pub: [u8; 32],
) -> Client {
    let identity = Identity::derive(setup.spec.seed, role_id);
    let mut config = ClientConfig::new(identity, Some(server_pub));
    config.read_timeout = setup.spec.io_timeout;
    // Short inner budget (~0.75 s of backoff): after an aggregator
    // crash the address changes, so burning the full schedule against
    // the dead port only delays the HubClient's re-resolution.
    config.backoff = crate::BackoffPolicy::new(50, 4);
    let rng = StdRng::seed_from_u64(setup.spec.seed ^ 0xd1a1).with_stream(role_id as u64);
    Client::new(addr, config, rng)
}

/// A reply `request` cannot be answered with.
fn unexpected(request: &str, reply: &NetMsg) -> NetError {
    NetError::Decode(format!("unexpected {request} reply {}", reply.kind()))
}

/// A step of [`mycelium::roles`] that failed on well-formed input.
fn role_failed(step: &str, e: impl std::fmt::Display) -> NetError {
    NetError::Decode(format!("{step}: {e}"))
}

fn request_msg(client: &mut Client, cc: &CodecCtx, msg: &NetMsg) -> Result<NetMsg, NetError> {
    let reply = client.request(msg.kind(), &msg.encode())?;
    NetMsg::decode(&reply, cc)
}

/// A client of the aggregator hub that survives aggregator respawns:
/// when the inner [`Client`]'s retries exhaust, it re-reads the
/// `agg.addr` file — a respawned aggregator binds a fresh port and
/// republishes it there — and redials, every unanswered request re-sent,
/// bounded by the round timeout so a dead hub is a typed [`NetError`],
/// never a hang.
pub(crate) struct HubClient {
    client: Client,
    out_dir: PathBuf,
    addr_file: String,
    addr: SocketAddr,
    deadline: Instant,
    // One retry budget *spanning* reconnects and address re-resolutions
    // (the inner client's schedule restarts from zero on every redial;
    // this one does not). Reset only by a successful exchange.
    span_attempts: u32,
    span_budget: crate::BackoffPolicy,
    jitter_rng: StdRng,
}

impl HubClient {
    pub(crate) fn new(setup: &RoundSetup, role_id: u32, addr: SocketAddr, out_dir: &Path) -> Self {
        // Prefer the published address: this process may have been
        // (re)spawned after the aggregator already moved ports.
        let addr = read_addr_file(out_dir).unwrap_or(addr);
        let server_pub = setup.aggregator_identity().public;
        let deadline = Instant::now() + setup.spec.round_timeout;
        let addr_file = files::AGG_ADDR.to_string();
        Self::connect(
            setup, role_id, addr, server_pub, addr_file, out_dir, deadline,
        )
    }

    /// A client of aggregation shard `shard`. Shards publish their
    /// address only through the `shard-N.addr` file (they have no
    /// spawning parent reading a banner), so this waits — bounded by
    /// the round timeout — for the file to appear.
    pub(crate) fn new_to_shard(
        setup: &RoundSetup,
        role_id: u32,
        shard: usize,
        out_dir: &Path,
    ) -> Result<Self, NetError> {
        let addr_file = files::shard_addr(shard);
        let deadline = Instant::now() + setup.spec.round_timeout;
        let addr = loop {
            if let Some(addr) = read_named_addr_file(out_dir, &addr_file) {
                break addr;
            }
            if Instant::now() >= deadline {
                return Err(NetError::Decode(format!(
                    "shard {shard} never published {addr_file}"
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let server_pub = setup.shard_identity(shard).public;
        Ok(Self::connect(
            setup, role_id, addr, server_pub, addr_file, out_dir, deadline,
        ))
    }

    /// A client of the intake server for aggregation shard `target`'s
    /// origins: the hub itself (at `addr`) at one shard, that shard above it.
    fn to_intake(
        setup: &RoundSetup,
        role_id: u32,
        target: usize,
        addr: SocketAddr,
        out_dir: &Path,
    ) -> Result<Self, NetError> {
        if setup.spec.agg_shards > 1 {
            Self::new_to_shard(setup, role_id, target, out_dir)
        } else {
            Ok(Self::new(setup, role_id, addr, out_dir))
        }
    }

    /// A client of the server at `addr` (identity `server_pub`) that
    /// re-resolves `addr_file` in `out_dir` when its retries exhaust.
    fn connect(
        setup: &RoundSetup,
        role_id: u32,
        addr: SocketAddr,
        server_pub: [u8; 32],
        addr_file: String,
        out_dir: &Path,
        deadline: Instant,
    ) -> Self {
        HubClient {
            client: round_client(setup, role_id, addr, server_pub),
            out_dir: out_dir.to_path_buf(),
            addr_file,
            addr,
            deadline,
            span_attempts: 0,
            // 64 outer attempts, each already worth the inner client's
            // full short schedule, cap a persistently unreachable hub at a
            // typed failure well inside the round timeout.
            span_budget: crate::BackoffPolicy::new(50, 64),
            jitter_rng: StdRng::seed_from_u64(setup.spec.seed ^ 0xbac0ff)
                .with_stream(role_id as u64),
        }
    }

    /// One request attempt (the inner client's short retry schedule
    /// only). On failure, re-resolves the published address for the
    /// *next* attempt and returns the error — never blocks the caller's
    /// loop. The chaos supervisor polls through this so it can keep
    /// respawning the aggregator it is waiting on.
    pub(crate) fn poll_once(
        &mut self,
        setup: &RoundSetup,
        msg: &NetMsg,
    ) -> Result<NetMsg, NetError> {
        let reply = request_msg(&mut self.client, &setup.cc, msg);
        if reply.is_err() {
            self.re_resolve();
        }
        reply
    }

    /// After a failed exchange: hangs up and re-reads the published
    /// address. If the server moved, the client dials the new address from
    /// now on — whatever it holds unanswered goes with it — and says so.
    fn re_resolve(&mut self) -> bool {
        let published = read_named_addr_file(&self.out_dir, &self.addr_file);
        let moved = published.filter(|addr| *addr != self.addr);
        match moved {
            Some(addr) => {
                self.addr = addr;
                self.client.redirect(addr);
            }
            None => self.client.disconnect(),
        }
        moved.is_some()
    }

    /// Runs `op` on the inner client until it succeeds, re-resolving the
    /// server's address after every attempt its own retry schedule gave
    /// up on — under the one budget spanning them all.
    fn span<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        loop {
            match op(&mut self.client) {
                Ok(done) => return Ok(done),
                Err(e) if e.is_retryable() || matches!(e, NetError::RetriesExhausted { .. }) => {
                    if Instant::now() >= self.deadline {
                        return Err(e);
                    }
                    if self.span_budget.exhausted(self.span_attempts) {
                        return Err(NetError::RetriesExhausted {
                            attempts: self.span_attempts + 1,
                            last: e.to_string(),
                        });
                    }
                    self.span_attempts += 1;
                    if !self.re_resolve() {
                        // Full jitter over the park period decorrelates
                        // the re-poll storm when every client loses the
                        // same server at once.
                        let wait = self.jitter_rng.gen_range(1..=PARK.as_millis() as u64);
                        std::thread::sleep(Duration::from_millis(wait));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One exchange: `msg` sent, its reply waited for.
    fn request_msg(&mut self, setup: &RoundSetup, msg: &NetMsg) -> Result<NetMsg, NetError> {
        let reply = self.span(|client| request_msg(client, &setup.cc, msg))?;
        self.span_attempts = 0;
        Ok(reply)
    }

    /// Puts `msg` in flight behind the requests not yet answered; its
    /// reply is a later [`recv`](Self::recv)'s.
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError> {
        self.client.enqueue(msg.kind(), |w| msg.encode_into(w));
        self.span(Client::flush)
    }

    /// The reply to the oldest request in flight.
    fn recv(&mut self, setup: &RoundSetup) -> Result<NetMsg, NetError> {
        let reply = self.span(|client| NetMsg::decode(client.recv()?, &setup.cc))?;
        self.span_attempts = 0;
        Ok(reply)
    }

    /// The reply to the oldest request in flight, a write: whether it says
    /// the round is over (possibly refused by the budget ledger before
    /// any intake), so that there is nothing left to send.
    fn recv_ack(&mut self, setup: &RoundSetup) -> Result<bool, NetError> {
        match self.recv(setup)? {
            NetMsg::Ack => Ok(false),
            NetMsg::Finished => Ok(true),
            other => Err(unexpected("write", &other)),
        }
    }

    /// Reads the replies to everything still in flight, all of it writes.
    fn drain(&mut self, setup: &RoundSetup) -> Result<(), NetError> {
        while self.client.in_flight() > 0 {
            self.recv_ack(setup)?;
        }
        Ok(())
    }

    pub(crate) fn metrics(&self) -> NetMetrics {
        lock_recover(&self.client.metrics()).clone()
    }
}

/// Lazily-built per-aggregation-shard clients for one worker process.
/// At one shard every target resolves to the classic hub client; above
/// that, entry `s` dials shard `s` via its published address file.
struct ShardedHub {
    hubs: std::collections::BTreeMap<usize, HubClient>,
    role_id: u32,
    addr: SocketAddr,
    out_dir: PathBuf,
}

impl ShardedHub {
    fn new(role_id: u32, addr: SocketAddr, out_dir: &Path) -> Self {
        ShardedHub {
            hubs: std::collections::BTreeMap::new(),
            role_id,
            addr,
            out_dir: out_dir.to_path_buf(),
        }
    }

    /// The client for the aggregation shard owning origin `v`.
    fn for_origin(&mut self, setup: &RoundSetup, v: VertexId) -> Result<&mut HubClient, NetError> {
        let target = shard_of(v, setup.spec.agg_shards);
        if let std::collections::btree_map::Entry::Vacant(e) = self.hubs.entry(target) {
            let (role_id, addr, out_dir) = (self.role_id, self.addr, &self.out_dir);
            e.insert(HubClient::to_intake(setup, role_id, target, addr, out_dir)?);
        }
        Ok(self.hubs.get_mut(&target).expect("just inserted"))
    }

    /// Reads the replies to every write still in flight, on every link.
    fn drain(&mut self, setup: &RoundSetup) -> Result<(), NetError> {
        self.hubs.values_mut().try_for_each(|hub| hub.drain(setup))
    }

    fn metrics(&self) -> NetMetrics {
        let mut merged = NetMetrics::default();
        for hub in self.hubs.values() {
            merged.merge(&hub.metrics());
        }
        merged
    }
}

/// Runs one device process: encrypts and pushes the contribution duties
/// of every vertex in its shard (each duty to the aggregation shard
/// owning its destination origin), up to [`WINDOW`] of them in flight per
/// link, then exits once every one is acknowledged.
pub fn run_device(
    spec: &RoundSpec,
    shard: usize,
    addr: SocketAddr,
    out_dir: &Path,
) -> Result<(), NetError> {
    let setup = build_setup(spec)?;
    let mut hubs = ShardedHub::new(role::DEVICE_BASE + shard as u32, addr, out_dir);
    let (plan, keys) = (&setup.plan, &setup.keys);
    'vertices: for v in (shard..setup.pop.graph.len()).step_by(spec.device_shards) {
        let duties = &setup.duties[v];
        let built = roles::contributions(plan, keys, spec.seed, v as VertexId, duties, false);
        for (duty, sc) in duties.iter().zip(built) {
            let msg = NetMsg::PushContrib {
                origin: duty.origin,
                slot: duty.slot,
                sc: Box::new(sc.map_err(|e| role_failed("contribution encryption", e))?),
            };
            let hub = hubs.for_origin(&setup, duty.origin)?;
            // The link's window is full: the oldest push's reply first.
            while hub.client.in_flight() >= WINDOW {
                if hub.recv_ack(&setup)? {
                    break 'vertices;
                }
            }
            hub.send(&msg)?;
        }
    }
    hubs.drain(&setup)?;
    write_metrics(out_dir, &format!("device-{shard}"), &hubs.metrics())
}

/// Asks on `hub` for whichever rows of `want` are ready; [`pulled_rows`]
/// receives them.
fn pull_ready(hub: &mut HubClient, want: &[u32]) -> Result<(), NetError> {
    let want = want.to_vec();
    hub.send(&NetMsg::PullReady { want })
}

/// Receives on `hub`, past the `Ack`s of this process's earlier
/// submissions, the batch the `PullReady` over `want` was asked for — asking
/// again at once whenever the server, having held the request for a park
/// period, says that none of the rows is ready. Empty: nothing is left to
/// do on this link — the aggregator holds a submission for every origin in
/// `want` (this process is a respawn and its predecessor got that far), or
/// the round is over (possibly refused by the budget ledger).
fn pulled_rows(
    hub: &mut HubClient,
    setup: &RoundSetup,
    want: &[u32],
) -> Result<Vec<(u32, OriginRow)>, NetError> {
    loop {
        match hub.recv(setup)? {
            NetMsg::Ack => {}
            NetMsg::ReadyRows { rows } => {
                if !rows.iter().all(|(origin, _)| want.contains(origin)) {
                    return Err(NetError::Decode("a row nobody asked for".into()));
                }
                return Ok(rows);
            }
            NetMsg::OriginPending { .. } => pull_ready(hub, want)?,
            NetMsg::Finished => return Ok(Vec::new()),
            other => return Err(unexpected("PullReady", &other)),
        }
    }
}

/// One link of an origin process: serves the origins in `want` — those of
/// the process's vertices whose rows the server behind `hub` holds — in
/// whatever order their rows become ready. Each batch of rows is combined
/// (the neutral `Enc(x^0)` substituted for slots that never arrived) and
/// submitted.
///
/// The link is kept busy: the next batch is asked for before this one is
/// combined, and a submission's `Ack` is not waited for — it is read when
/// the next batch arrives behind it. A batch is received *before* the
/// submissions of the one ahead of it are written, so a large request is
/// never written while a large reply is outstanding.
///
/// `submit` is handed each submission to put on the wire (the process-wide
/// crash drill sits there).
fn serve_origins(
    setup: &RoundSetup,
    hub: &mut HubClient,
    mut want: Vec<u32>,
    mut submit: impl FnMut(&mut HubClient, NetMsg) -> Result<(), NetError>,
) -> Result<(), NetError> {
    pull_ready(hub, &want)?;
    let mut batch = pulled_rows(hub, setup, &want)?;
    while !batch.is_empty() {
        want.retain(|v| batch.iter().all(|(origin, _)| origin != v));
        if !want.is_empty() {
            pull_ready(hub, &want)?;
        }
        let mut combined = Vec::with_capacity(batch.len());
        for (origin, slots) in batch {
            let work = &setup.works[origin as usize];
            if slots.len() != work.requests.len() {
                return Err(NetError::Decode("origin row slot count mismatch".into()));
            }
            let out = roles::submission(&setup.plan, &setup.keys, setup.spec.seed, work, slots)
                .map_err(|e| role_failed("origin combine", e))?;
            combined.push(NetMsg::SubmitOrigin {
                origin,
                ct: Box::new(out),
            });
        }
        batch = if want.is_empty() {
            Vec::new()
        } else {
            pulled_rows(hub, setup, &want)?
        };
        for msg in combined {
            submit(hub, msg)?;
        }
    }
    hub.drain(setup)
}

/// Runs one origin process: every vertex of its shard is asked for, combined
/// and submitted by [`serve_origins`] — one such loop per aggregation shard
/// that holds rows of the process, each on a thread and a link of its own, so
/// that rows filling slowly at one shard keep nothing waiting at another.
///
/// `crash_after`: exit with code 17 after that many vertices have been
/// submitted — the driver's watchdog respawns the shard, which is handed
/// only the rows nobody has submitted yet (all protocol state lives at the
/// aggregator).
pub fn run_origin(
    spec: &RoundSpec,
    shard: usize,
    addr: SocketAddr,
    out_dir: &Path,
    crash_after: Option<usize>,
) -> Result<(), NetError> {
    let setup = build_setup(spec)?;
    let role_id = role::ORIGIN_BASE + shard as u32;
    let mut links: std::collections::BTreeMap<usize, Vec<u32>> = Default::default();
    for v in (shard..setup.pop.graph.len()).step_by(spec.origin_shards) {
        let target = shard_of(v as u32, spec.agg_shards);
        links.entry(target).or_default().push(v as u32);
    }
    let submitted = AtomicUsize::new(0);
    let submit = |hub: &mut HubClient, msg: NetMsg| {
        if crash_after == Some(submitted.fetch_add(1, Ordering::SeqCst)) {
            // What the aggregator acknowledged is what the respawn is spared;
            // what this process sent is still part of the round's traffic.
            hub.drain(&setup)?;
            write_metrics(out_dir, &format!("origin-{shard}-crashed"), &hub.metrics())?;
            std::process::exit(17);
        }
        hub.send(&msg)
    };
    let per_link = std::thread::scope(|scope| {
        let serving: Vec<_> = links
            .into_iter()
            .map(|(target, want)| {
                let (setup, submit) = (&setup, &submit);
                scope.spawn(move || {
                    let mut hub = HubClient::to_intake(setup, role_id, target, addr, out_dir)?;
                    serve_origins(setup, &mut hub, want, submit)?;
                    Ok::<_, NetError>(hub.metrics())
                })
            })
            .collect();
        let joined = serving.into_iter().map(|link| {
            link.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        joined.collect::<Result<Vec<NetMetrics>, NetError>>()
    })?;
    let mut metrics = NetMetrics::default();
    for link in &per_link {
        metrics.merge(link);
    }
    write_metrics(out_dir, &format!("origin-{shard}"), &metrics)
}

/// Runs one committee member: polls check-ins (carrying its joint-noise
/// seed), answers share tasks, and exits once the aggregator reports the
/// round finished.
pub fn run_committee(
    spec: &RoundSpec,
    member: u64,
    addr: SocketAddr,
    out_dir: &Path,
) -> Result<(), NetError> {
    let setup = build_setup(spec)?;
    let mut hub = HubClient::new(&setup, role::COMMITTEE_BASE + member as u32, addr, out_dir);
    let mut me = roles::Member::new(spec.seed, member);
    let seed = me.noise_seed();
    loop {
        // Held by the server while there is nothing for this member to do.
        let push = match hub.request_msg(&setup, &NetMsg::CommitteeCheckIn { member, seed })? {
            NetMsg::Finished => break,
            NetMsg::CommitteeWait => continue,
            NetMsg::CommitteeShareTask {
                round,
                participants,
                ct,
            } => {
                let share = me
                    .share(&setup.key_shares, round, &participants, &ct)
                    .map_err(|e| role_failed("share computation", e))?;
                let share = Box::new(share);
                NetMsg::PushShare {
                    member,
                    round,
                    share,
                }
            }
            NetMsg::CertSignTask { transcript } => {
                let sig = me.sign(&transcript);
                NetMsg::PushCertSig { member, sig }
            }
            other => return Err(unexpected("check-in", &other)),
        };
        match hub.request_msg(&setup, &push)? {
            NetMsg::Ack => {}
            other => return Err(unexpected(push.kind(), &other)),
        }
    }
    write_metrics(out_dir, &format!("committee-{member}"), &hub.metrics())
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Driver options.
#[derive(Debug, Clone, Default)]
pub struct DriverOpts {
    /// Kill origin shard `.0` after `.1` submitted vertices (exit 17);
    /// the watchdog respawns it once.
    pub crash_origin: Option<(usize, usize)>,
}

/// Orchestrates the whole multi-process round: spawns the aggregator,
/// device/origin shards, and committee members as child processes of
/// `exe` (normally `current_exe()`), watches for crashed origins and
/// respawns each once (through the shared [`RoundTree`] launcher and
/// `Supervised` restart mechanism the chaos supervisor also uses), waits
/// for completion, and merges all metrics files into `NET_round.json`.
pub fn run_driver(
    exe: &Path,
    spec: &RoundSpec,
    out_dir: &Path,
    opts: &DriverOpts,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = build_setup(spec)?;
    let crash = opts
        .crash_origin
        .map(|(shard, after)| (format!("origin-{shard}"), after));
    let mut tree = RoundTree::launch(exe, &setup, out_dir, |name| {
        // Only origins are respawned, once; the armed one is told to
        // crash itself on its first launch.
        let crash_args = match &crash {
            Some((victim, after)) if victim == name => {
                vec!["--crash-after".to_string(), after.to_string()]
            }
            _ => Vec::new(),
        };
        (crash_args, name.starts_with("origin-") as u32)
    })?;

    // Watchdog + status poll until the aggregator reports Finished.
    let mut driver = HubClient::new(&setup, role::DRIVER, tree.addr, out_dir);
    let started = Instant::now();
    let finished = loop {
        if started.elapsed() >= spec.round_timeout {
            break false;
        }
        // Respawn crashed origins (nonzero exit before completion).
        for cp in tree.clients.iter_mut() {
            cp.watch()?;
        }
        // The aggregator holds the poll for [`PARK`] or until the round
        // is over, so an answered poll is followed by the next at once.
        match driver.request_msg(&setup, &NetMsg::PullStatus) {
            Ok(NetMsg::Finished) => break true,
            Ok(_) => {}
            // The aggregator may be briefly unreachable while saturated;
            // the client already retried, so just keep polling.
            Err(_) => std::thread::sleep(PARK),
        }
    };

    // Drain every child — shards, then clients — then the aggregator
    // itself.
    let mut failures: Vec<String> = Vec::new();
    let (agg, shards) = tree.servers.split_first_mut().expect("the aggregator");
    for cp in shards.iter_mut().chain(&mut tree.clients).chain([agg]) {
        let status = cp.wait()?;
        if !status.success() {
            failures.push(format!("{} exited with {status}", cp.name));
        }
    }
    if !finished {
        failures.push("driver status poll never saw Finished".into());
    }

    // Merge all metrics files (the driver's own included).
    write_metrics(out_dir, "driver", &driver.metrics())?;
    let mut merged = NetMetrics::default();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(out_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("metrics-") && n.ends_with(".bin"))
        })
        .collect();
    entries.sort();
    for path in entries {
        let bytes = std::fs::read(&path)?;
        merged.merge(&NetMetrics::decode(&bytes)?);
    }
    std::fs::write(out_dir.join(files::METRICS_MERGED), merged.encode())?;
    std::fs::write(out_dir.join(files::METRICS_JSON), merged.to_json(0) + "\n")?;

    if failures.is_empty() {
        Ok(())
    } else {
        Err(NetError::Supervision(failures.join("; ")))
    }
}
