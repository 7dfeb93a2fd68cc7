//! What a round is: the spec every process is started with, the state each
//! derives from it, and the names, formats and protocol constants the roles
//! agree on.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mycelium::exec::{ExecError, NoisyGroup};
use mycelium::params::SystemParams;
use mycelium::plan::{OriginWork, QueryPlan};
use mycelium::roles;
use mycelium::streams as stream;
use mycelium_bgv::KeySet;
use mycelium_budget::{BudgetError, Composition, Ledger};
use mycelium_crypto::codec::{CodecError, Reader, Writer};
use mycelium_crypto::sha256::{sha256, Digest};
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_query::ast::Query;
use mycelium_query::builtin::paper_query;
use mycelium_query::eval::PlainResult;
use mycelium_sharing::committee::threshold;
use mycelium_sharing::threshold::KeyShareSet;

use crate::channel::Identity;
use crate::codec::{
    decode_plain_result, encode_plain_result, CodecCtx, MAX_GROUPS, MAX_HIST, MAX_LABEL,
};
use crate::error::NetError;
use crate::metrics::NetMetrics;

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
        w.put_bool(self.advanced);
        sha256(&w.finish())
    }
}

/// Which fault plan a round runs under ([`RoundSpec::net`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetProfile {
    /// Seed-derived plan; `Seeded(0)` is the empty (pass-through) plan.
    Seeded(u64),
    /// The fixed three-phase drill: a partition and a bit flip during
    /// contribution intake, a request stall during origin summation,
    /// and a reset storm during committee decryption.
    Drill,
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
    /// itself in a [`crate::ChaosProxy`] replaying the plan
    /// this profile derives, and publishes the *proxy* address.
    pub net: Option<NetProfile>,
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
            Some(NetProfile::Seeded(s)) => {
                args.push("--net-seed".into());
                args.push(s.to_string());
            }
            Some(NetProfile::Drill) => {
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
        w.put_bool(self.with_proofs);
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
                    w.put_bool(b.advanced);
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

pub use mycelium::aggcore::shard_of;

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
    /// BGV keys (every process derives the same set; [`build_setup`]'s
    /// relinearization keys a level at a time, on that level's first read,
    /// by an origin).
    pub keys: KeySet,
    /// Shamir shares of the secret key, dealt on the first read (by a
    /// committee member).
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
    /// The setup of `spec`'s round over these parts: the key shares to be
    /// dealt off [`stream::DEAL`] on their first read, the query planned,
    /// every vertex's work and duties derived.
    pub fn from_parts(
        spec: RoundSpec,
        params: SystemParams,
        pop: Population,
        query: Query,
        keys: KeySet,
    ) -> Result<Self, ExecError> {
        let c = params.committee_size;
        let t = threshold(c);
        let deal_rng = StdRng::seed_from_u64(spec.seed).with_stream(stream::DEAL);
        let key_shares = KeyShareSet::deal_deferred(&keys.secret, t, c, deal_rng);
        let plan = QueryPlan::new(&query, &pop, &params, spec.with_proofs)?;
        let works = roles::works(&plan, &query, &params, &pop);
        let duties = roles::duties(&works);
        // The codec must decode into the *same* RNS context the keys carry:
        // `RnsPoly` arithmetic requires pointer-identical contexts.
        let cc = CodecCtx::with_context(Arc::clone(keys.public.context()), &params.bgv);
        Ok(RoundSetup {
            spec,
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

/// Derives the full shared setup from a spec. The relinearization keys are
/// the last draw off [`stream::KEYS`], so each level's is derived on its
/// first read ([`KeySet::generate_deferred`]), as the key shares are.
/// Failures here are configuration errors
/// (unknown query, query too large for the ring), not wire input, so they
/// surface as [`NetError::Decode`].
pub fn build_setup(spec: &RoundSpec) -> Result<RoundSetup, NetError> {
    let params = SystemParams::simulation();
    let pop = build_population(spec);
    let query = paper_query(&spec.query)
        .ok_or_else(|| NetError::Decode(format!("unknown paper query {}", spec.query)))?;
    let mut keys_rng = StdRng::seed_from_u64(spec.seed).with_stream(stream::KEYS);
    let keys = KeySet::generate_deferred(&params.bgv, &mut keys_rng);
    RoundSetup::from_parts(spec.clone(), params, pop, query, keys)
        .map_err(|e| NetError::Decode(format!("query planning failed: {e}")))
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

/// Upper bound on the rejected devices an outcome may list.
const MAX_DEVICES: usize = 1 << 24;

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
            w.put_seq(&out.released, |w, g| {
                w.put_str(&g.label);
                w.put_seq(&g.histogram, |w, &v| w.put_i64(v));
            });
            w.put_u32_slice(&out.rejected);
        }
    }
    w.finish()
}

/// Deserializes an outcome file.
pub fn decode_outcome(bytes: &[u8]) -> Result<Result<RoundOutcome, String>, NetError> {
    let mut r = Reader::new(bytes);
    let out = match r.u8("outcome")? {
        0 => Err(r.str("outcome error", MAX_LABEL)?),
        1 => Ok(RoundOutcome {
            exact: decode_plain_result(&mut r)?,
            released: r.seq("released", MAX_GROUPS, |r| -> Result<_, CodecError> {
                Ok(NoisyGroup {
                    label: r.str("released label", MAX_LABEL)?,
                    histogram: r.seq("released histogram", MAX_HIST, |r| r.i64("bin"))?,
                })
            })?,
            rejected: r.u32s("rejected devices", MAX_DEVICES)?,
        }),
        tag => return CodecError::bad_tag("outcome", tag),
    };
    r.end()?;
    Ok(out)
}

/// The one way to wait: how long a server holds a request whose answer is
/// still "not yet" (`OriginPending`, `CommitteeWait`) before saying so — it
/// answers the moment the awaited milestone moves, so a client asks again
/// at once and never sleeps. Also how long a client that lost its server
/// waits, at most, before it redials.
pub const PARK: Duration = Duration::from_millis(50);
/// How often an aggregation-plane process re-runs its time-driven
/// transitions when no request runs them first.
pub(super) const TICK: Duration = Duration::from_millis(20);
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

pub(super) fn write_metrics(
    out_dir: &Path,
    name: &str,
    metrics: &NetMetrics,
) -> Result<(), NetError> {
    std::fs::write(out_dir.join(files::role_metrics(name)), metrics.encode())?;
    Ok(())
}

/// Atomically publishes a server's current address (temp file + rename,
/// so a concurrent reader never sees a partial write).
pub(super) fn write_named_addr_file(
    out_dir: &Path,
    name: &str,
    addr: SocketAddr,
) -> Result<(), NetError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_query::eval::GroupResult;

    #[test]
    fn outcome_counts_are_bounded_and_trailing_bytes_rejected() {
        let ok = Ok(RoundOutcome {
            exact: PlainResult {
                groups: vec![GroupResult {
                    label: "all".into(),
                    histogram: vec![3, 1],
                    total_pairs: 4,
                    total_clipped_sum: 1,
                }],
            },
            released: vec![NoisyGroup {
                label: "all".into(),
                histogram: vec![2, -1],
            }],
            rejected: vec![5],
        });
        for out in [ok, Err("refused".to_string())] {
            let bytes = encode_outcome(&out);
            let back = decode_outcome(&bytes).unwrap();
            assert_eq!(encode_outcome(&back), bytes);
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(matches!(decode_outcome(&longer), Err(NetError::Decode(_))));
        }
        // Tag `Ok`, an empty exact result, then each count as `u32::MAX` in
        // turn: a typed error, never an allocation sized by the claim.
        // (Released groups, one group's histogram, rejected devices.)
        let (ok_no_groups, max) = ([1u8, 0, 0, 0, 0], u32::MAX.to_le_bytes());
        for claim in [
            [&ok_no_groups[..], &max].concat(),
            [&ok_no_groups[..], &[1, 0, 0, 0], &[0; 4], &max].concat(),
            [&ok_no_groups[..], &[0; 4], &max].concat(),
        ] {
            assert!(matches!(decode_outcome(&claim), Err(NetError::Decode(_))));
        }
    }
}
