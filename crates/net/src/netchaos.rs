//! Deterministic link-fault injection on the real loopback transport.
//!
//! The link half of the fault-injection plane ([`crate::chaos`] holds
//! the process half, the runners and the report): every server in the
//! multi-process round fronts itself with a [`ChaosProxy`] — a
//! frame-aware TCP relay that replays a per-link fault plan sharing the
//! simulated network's fault vocabulary ([`Partition`], [`LinkModel`]
//! latency) plus the byte-level faults only a real wire has:
//!
//! * **connection resets mid-frame** — the request is torn at an
//!   arbitrary byte boundary and both sides are closed;
//! * **dropped replies** — the request is delivered and applied, the
//!   reply is swallowed (the classic "acknowledged write, lost ack"
//!   window; the client's retry becomes a duplicate the server's
//!   first-write-wins rule must absorb);
//! * **slow-loris stalls** — a few reply bytes dribble out and then
//!   nothing, until the client's per-request deadline converts the
//!   stall into a typed timeout;
//! * **bit flips** — the request arrives with one payload bit inverted;
//!   the server's AEAD rejects it, nothing is applied, and the client
//!   retries over a fresh connection;
//! * **asymmetric partitions with scheduled healing** — whole role
//!   groups are cut off from one server during a wall-clock window.
//!
//! Everything is derived from one `u64` seed
//! ([`NetFaultPlan::derive`]), and faults are scheduled only at
//! request ordinals guaranteed to occur, so the *injected fault counts*
//! of a run are byte-reproducible: rerunning a seed yields an identical
//! `CHAOS_net.json` entry.
//!
//! On top of the plane's one invariant (exact with a valid certificate,
//! or a typed failure), an exact run must show its injected faults in
//! the transport counters ([`reconcile`]):
//!
//! ```text
//! retries            == resets + reply_drops + stalls + partition kills + flips
//! deadline_expiries  == stalls
//! duplicates         == dropped replies + stalled replies (device links)
//! aead_rejects       == flips
//! ```
//!
//! A zero-fault plan (`--net-seed 0`) relays every byte untouched, so a
//! proxied round is byte-identical on the wire to an unproxied one.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_simnet::{LinkModel, Partition};

use crate::error::NetError;
use crate::frame::HEADER_LEN;
use crate::lock_recover;
use crate::metrics::NetMetrics;
use crate::round::{files, role, shard_of, RoundSetup, RoundSpec, BATCH};

pub use crate::round::NetProfile;

// ---------------------------------------------------------------------------
// Profiles and plans
// ---------------------------------------------------------------------------

/// One scheduled fault on a link, keyed by the 1-based *ordinal* of the
/// data request it fires on (cumulative across reconnects — a retry of
/// a faulted request is the next ordinal, so scheduled ordinals are
/// always reached).
#[derive(Debug, Clone)]
pub struct LinkFault {
    /// Which data request on the link triggers the fault.
    pub ordinal: u64,
    /// What happens to it.
    pub kind: FaultKind,
}

/// The per-request fault vocabulary.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// Forward only `tear % frame_len` bytes of the request, then close
    /// both sides: a mid-frame connection reset. `tear` ranges over
    /// every byte boundary; `0` is a clean drop before any byte.
    Reset {
        /// Tear-point selector (reduced modulo the frame length, so the
        /// request is never fully delivered).
        tear: u64,
    },
    /// Deliver the request, swallow the reply, close. The server
    /// applied the write; the client's retry is a duplicate.
    DropReply,
    /// Deliver the request, dribble `dribble` reply bytes, then stall
    /// for `hold_ms` (longer than the client's I/O deadline) before
    /// closing: a slow-loris reply. Counts as a deadline expiry *and*
    /// produces a duplicate.
    StallReply {
        /// How long to sit on the reply (must exceed the io deadline).
        hold_ms: u64,
        /// Reply bytes leaked before the stall (kept under a header).
        dribble: usize,
    },
    /// Swallow the request entirely and stall: a deadline expiry with
    /// no duplicate (the server never saw the write).
    StallRequest {
        /// How long to hold the silent connection before closing.
        hold_ms: u64,
    },
    /// Deliver the request with one bit flipped mid-payload and relay
    /// whatever the server answers. Its AEAD must reject the frame, so
    /// no write is applied and the retry is not a duplicate.
    Flip,
}

/// Per-link fault schedule: ordinal-keyed faults plus optional latency.
#[derive(Debug, Clone, Default)]
pub struct LinkPlan {
    /// Ordinal-scheduled faults (ordinals distinct within a link).
    pub faults: Vec<LinkFault>,
    /// Fixed-plus-jitter injected latency, in milliseconds per request.
    pub latency: Option<LinkModel>,
}

/// The full network fault plan of one round, scoped per
/// `(server role, client role)` link. Role ids double as the simulated
/// network's [`ActorId`](mycelium_simnet::ActorId)s and milliseconds
/// since server start as its ticks, so [`Partition`] is shared verbatim.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// `(server role, client role) → plan` for that link.
    pub links: BTreeMap<(u32, u32), LinkPlan>,
    /// Scheduled partitions (role ids as actor ids, ms as ticks).
    pub partitions: Vec<Partition>,
}

/// One link the plan may schedule faults on.
struct LinkInfo {
    server: u32,
    client: u32,
    /// Guaranteed minimum number of data requests on the link
    /// (scheduling above it could leave a fault unfired and break
    /// reconciliation determinism).
    min_requests: u64,
    /// Whether the client is a device shard (every request a mutating
    /// push, so reply faults deterministically produce duplicates).
    device: bool,
}

/// Enumerates every client→server link of the round with its guaranteed
/// request floor. Device links: one request per duty addressed to that
/// server. Origin links: a submit per owned vertex, and the fewest
/// ready-row pulls that can hand those rows over — one per full
/// [`BATCH`] (a pull is handed fewer rows whenever fewer are ready, and an
/// intake shard never more than its share of a batch, so a run only ever
/// makes more). Committee links: the check-in poll loop (floor 3).
/// Shard→coordinator links: the sealed root push (floor 1). The driver
/// link is left alone.
fn link_inventory(setup: &RoundSetup) -> Vec<LinkInfo> {
    let spec = &setup.spec;
    let n = setup.pop.graph.len();
    let server_of = |origin: usize| -> u32 {
        if spec.agg_shards > 1 {
            role::SHARD_BASE + shard_of(origin as u32, spec.agg_shards) as u32
        } else {
            role::AGGREGATOR
        }
    };
    let mut links: Vec<LinkInfo> = Vec::new();
    for i in 0..spec.device_shards {
        let mut per_server: BTreeMap<u32, u64> = BTreeMap::new();
        for v in (0..n).filter(|v| v % spec.device_shards == i) {
            for duty in &setup.duties[v] {
                *per_server
                    .entry(server_of(duty.origin as usize))
                    .or_insert(0) += 1;
            }
        }
        for (server, count) in per_server {
            links.push(LinkInfo {
                server,
                client: role::DEVICE_BASE + i as u32,
                min_requests: count,
                device: true,
            });
        }
    }
    for j in 0..spec.origin_shards {
        let mut per_server: BTreeMap<u32, u64> = BTreeMap::new();
        for v in (0..n).filter(|v| v % spec.origin_shards == j) {
            *per_server.entry(server_of(v)).or_insert(0) += 1;
        }
        for (server, owned) in per_server {
            links.push(LinkInfo {
                server,
                client: role::ORIGIN_BASE + j as u32,
                min_requests: owned + owned.div_ceil(BATCH as u64),
                device: false,
            });
        }
    }
    for m in 1..=setup.committee_size as u32 {
        links.push(LinkInfo {
            server: role::AGGREGATOR,
            client: role::COMMITTEE_BASE + m,
            min_requests: 3,
            device: false,
        });
    }
    if spec.agg_shards > 1 {
        for s in 0..spec.agg_shards {
            links.push(LinkInfo {
                server: role::AGGREGATOR,
                client: role::SHARD_BASE + s as u32,
                min_requests: 1,
                device: false,
            });
        }
    }
    links
}

impl NetFaultPlan {
    /// Derives the plan a profile stands for. `Seeded(0)` is the empty
    /// plan: the proxy interposes but relays every byte untouched.
    pub fn derive(profile: &NetProfile, setup: &RoundSetup) -> NetFaultPlan {
        match profile {
            NetProfile::Drill => Self::drill(setup),
            NetProfile::Seeded(0) => NetFaultPlan::default(),
            NetProfile::Seeded(seed) => Self::seeded(*seed, setup),
        }
    }

    /// Stall durations must outlive the client's per-request deadline,
    /// or the stall degrades into an ordinary slow reply.
    fn hold_ms(setup: &RoundSetup) -> u64 {
        setup.spec.io_timeout.as_millis() as u64 + 1000
    }

    fn seeded(seed: u64, setup: &RoundSetup) -> NetFaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6E7C_4A05);
        let inventory = link_inventory(setup);
        // Reply faults (drop/stall of an *applied* write's ack) must
        // never land on a link's final request: the write completes the
        // server's intake, so the server — and its proxy — can exit
        // before the client's retry, stranding it against a dead port
        // and losing the reconciled duplicate. Any earlier ordinal is
        // safe: the link still owes requests, and their origins hold
        // slots open for the whole contribution deadline, so the round
        // cannot finish before the retry lands. Hence reply faults are
        // capped at `floor - 1` and only scheduled on links owing at
        // least two requests.
        let device_links: Vec<usize> = (0..inventory.len())
            .filter(|&i| inventory[i].device && inventory[i].min_requests >= 2)
            .collect();
        let hold = Self::hold_ms(setup);
        let mut plan = NetFaultPlan::default();
        // Schedules `kind` at a seed-chosen but still-free ordinal of
        // link `idx` (linear probe within the guaranteed cap; a fully
        // booked link drops the fault rather than risk a no-show).
        let schedule = |plan: &mut NetFaultPlan, rng: &mut StdRng, idx: usize, kind: FaultKind| {
            let info = &inventory[idx];
            let key = (info.server, info.client);
            let entry = plan.links.entry(key).or_default();
            let reply_fault = matches!(kind, FaultKind::DropReply | FaultKind::StallReply { .. });
            let cap = if reply_fault {
                info.min_requests - 1
            } else {
                info.min_requests
            };
            if cap == 0 {
                return;
            }
            let start = rng.gen_range(1..=cap);
            let ordinal = (0..cap)
                .map(|off| (start - 1 + off) % cap + 1)
                .find(|o| entry.faults.iter().all(|f| f.ordinal != *o));
            if let Some(ordinal) = ordinal {
                entry.faults.push(LinkFault { ordinal, kind });
            }
        };
        for _ in 0..rng.gen_range(1..=3u64) {
            let idx = rng.gen_range(0..inventory.len() as u64) as usize;
            let tear = rng.gen_range(0..=4096u64);
            schedule(&mut plan, &mut rng, idx, FaultKind::Reset { tear });
        }
        for _ in 0..rng.gen_range(1..=2u64) {
            if device_links.is_empty() {
                break;
            }
            let idx = device_links[rng.gen_range(0..device_links.len() as u64) as usize];
            schedule(&mut plan, &mut rng, idx, FaultKind::DropReply);
        }
        if rng.gen_bool(0.5) && !device_links.is_empty() {
            let idx = device_links[rng.gen_range(0..device_links.len() as u64) as usize];
            let dribble = rng.gen_range(0..=8u64) as usize;
            schedule(
                &mut plan,
                &mut rng,
                idx,
                FaultKind::StallReply {
                    hold_ms: hold,
                    dribble,
                },
            );
        }
        if rng.gen_bool(0.5) {
            let idx = rng.gen_range(0..inventory.len() as u64) as usize;
            schedule(
                &mut plan,
                &mut rng,
                idx,
                FaultKind::StallRequest { hold_ms: hold },
            );
        }
        for _ in 0..rng.gen_range(1..=2u64) {
            let idx = rng.gen_range(0..inventory.len() as u64) as usize;
            let info = &inventory[idx];
            let base = rng.gen_range(5..=20u64);
            let jitter = rng.gen_range(1..=10u64);
            plan.links
                .entry((info.server, info.client))
                .or_default()
                .latency
                .get_or_insert(LinkModel { base, jitter });
        }
        if rng.gen_bool(0.5) {
            let from = rng.gen_range(300..=700u64);
            let until = from + rng.gen_range(300..=800u64);
            let server = if setup.spec.agg_shards > 1 {
                role::SHARD_BASE as usize + rng.gen_range(0..setup.spec.agg_shards as u64) as usize
            } else {
                role::AGGREGATOR as usize
            };
            let mut cut: Vec<usize> = Vec::new();
            for _ in 0..rng.gen_range(1..=2u64.min(setup.spec.device_shards as u64)) {
                let d = role::DEVICE_BASE as usize
                    + rng.gen_range(0..setup.spec.device_shards as u64) as usize;
                if !cut.contains(&d) {
                    cut.push(d);
                }
            }
            plan.partitions.push(Partition {
                a: vec![server],
                b: cut,
                from,
                until,
            });
        }
        plan
    }

    /// The fixed drill: devices 0–3 partitioned from the intake front
    /// during `[250 ms, 1250 ms)` and the first push on the last device
    /// link bit-flipped (contribution intake), a swallowed origin
    /// request mid-summation, and a reset storm — three torn frames —
    /// across the first committee links during decryption.
    fn drill(setup: &RoundSetup) -> NetFaultPlan {
        let spec = &setup.spec;
        let hold = Self::hold_ms(setup);
        let mut plan = NetFaultPlan::default();
        let front = if spec.agg_shards > 1 {
            role::SHARD_BASE
        } else {
            role::AGGREGATOR
        };
        let cut: Vec<usize> = (0..spec.device_shards.min(4))
            .map(|i| role::DEVICE_BASE as usize + i)
            .collect();
        plan.partitions.push(Partition {
            a: vec![front as usize],
            b: cut,
            from: 250,
            until: 1250,
        });
        let mut schedule = |key: (u32, u32), ordinal: u64, kind: FaultKind| {
            let faults = &mut plan.links.entry(key).or_default().faults;
            faults.push(LinkFault { ordinal, kind });
        };
        if let Some(link) = link_inventory(setup).iter().rfind(|l| l.device) {
            schedule((link.server, link.client), 1, FaultKind::Flip);
        }
        schedule(
            (front, role::ORIGIN_BASE),
            1,
            FaultKind::StallRequest { hold_ms: hold },
        );
        for (m, tear) in (1..=setup.committee_size.min(3) as u32).zip([0u64, 7, 1000]) {
            let key = (role::AGGREGATOR, role::COMMITTEE_BASE + m);
            schedule(key, m as u64, FaultKind::Reset { tear });
        }
        plan
    }

    /// How many faults of each kind the plan schedules — deterministic
    /// per seed, so the `CHAOS_net.json` entry is byte-reproducible. The
    /// timing-dependent counters (partition kills, delayed requests)
    /// cannot be known ahead of a run and stay zero.
    pub fn injected(&self) -> FaultLedger {
        let mut scheduled = FaultLedger::default();
        for fault in self.links.values().flat_map(|link| &link.faults) {
            *scheduled.of(&fault.kind) += 1;
        }
        scheduled
    }

    /// The subset of links this plan schedules for server `server_role`.
    fn for_server(&self, server_role: u32) -> BTreeMap<u32, LinkPlan> {
        self.links
            .iter()
            .filter(|((s, _), _)| *s == server_role)
            .map(|((_, c), plan)| (*c, plan.clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The fault ledger
// ---------------------------------------------------------------------------

/// Fault counts by kind: what a [`ChaosProxy`] actually fired (the
/// `netfaults-<server>.json` artifact, reconciled against the merged
/// transport metrics), or what a plan schedules
/// ([`NetFaultPlan::injected`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Requests delivered with a flipped bit.
    pub flips: u64,
    /// Requests delayed by link latency (timing-dependent on poll links).
    pub latency_injections: u64,
    /// Connections or requests killed by an active partition window
    /// (timing-dependent: each kill costs the client exactly one retry).
    pub partition_rejects: u64,
    /// Replies swallowed.
    pub reply_drops: u64,
    /// Mid-frame resets delivered.
    pub resets: u64,
    /// Replies stalled.
    pub stall_replies: u64,
    /// Requests swallowed and stalled.
    pub stall_requests: u64,
}

impl FaultLedger {
    /// Every counter under its JSON key, in key order: the one list the
    /// artifact's writer and reader share.
    fn fields(&mut self) -> [(&'static str, &mut u64); 7] {
        [
            ("flips", &mut self.flips),
            ("latency_injections", &mut self.latency_injections),
            ("partition_rejects", &mut self.partition_rejects),
            ("reply_drops", &mut self.reply_drops),
            ("resets", &mut self.resets),
            ("stall_replies", &mut self.stall_replies),
            ("stall_requests", &mut self.stall_requests),
        ]
    }

    /// The counter faults of `kind` are tallied under.
    fn of(&mut self, kind: &FaultKind) -> &mut u64 {
        match kind {
            FaultKind::Reset { .. } => &mut self.resets,
            FaultKind::DropReply => &mut self.reply_drops,
            FaultKind::StallReply { .. } => &mut self.stall_replies,
            FaultKind::StallRequest { .. } => &mut self.stall_requests,
            FaultKind::Flip => &mut self.flips,
        }
    }

    /// Retries that redeliver an applied write: dropped and stalled
    /// replies, both scheduled on device links only, where every request
    /// is a mutating push.
    pub fn dup_targets(&self) -> u64 {
        self.reply_drops + self.stall_replies
    }

    /// Renders the ledger as a flat, key-sorted JSON object.
    pub fn to_json(mut self) -> String {
        let fields = self
            .fields()
            .map(|(key, count)| format!("\"{key}\": {count}"));
        format!("{{{}}}", fields.join(", "))
    }

    /// Adds every counter of a rendered ledger to this one (a key the
    /// text lacks adds nothing).
    fn absorb(&mut self, text: &str) {
        let body = text.trim().trim_start_matches('{').trim_end_matches('}');
        for (key, value) in body.split(',').filter_map(|pair| pair.split_once(':')) {
            let key = key.trim().trim_matches('"');
            let slot = self.fields().into_iter().find(|(k, _)| *k == key);
            if let (Some((_, slot)), Ok(count)) = (slot, value.trim().parse::<u64>()) {
                *slot += count;
            }
        }
    }
}

/// The fired-fault counts of one run, summed over every server ledger.
fn read_ledgers(out_dir: &Path, spec: &RoundSpec) -> FaultLedger {
    let mut names = vec!["aggregator".to_string()];
    if spec.agg_shards > 1 {
        names.extend((0..spec.agg_shards).map(|s| format!("shard-{s}")));
    }
    let mut sum = FaultLedger::default();
    for name in names {
        if let Ok(text) = std::fs::read_to_string(out_dir.join(files::netfaults(&name))) {
            sum.absorb(&text);
        }
    }
    sum
}

// ---------------------------------------------------------------------------
// The proxy
// ---------------------------------------------------------------------------

struct ProxyCtx {
    upstream: SocketAddr,
    server_role: u32,
    /// Client static key → role id (the ClientHello carries the static
    /// key in the clear, which is what lets a passive proxy attribute a
    /// connection to a link without holding any key material).
    role_of: BTreeMap<[u8; 32], u32>,
    links: BTreeMap<u32, LinkPlan>,
    partitions: Vec<Partition>,
    started: Instant,
    /// Per-client-role data-request ordinals, cumulative across
    /// reconnects (a faulted request's retry is the next ordinal).
    ordinals: Mutex<BTreeMap<u32, u64>>,
    /// Latency jitter source (timing-plane only; never affects which
    /// faults fire).
    rng: Mutex<StdRng>,
    ledger: Mutex<FaultLedger>,
    /// Requests a relay has taken from its client and not yet answered
    /// or dropped; `drained` is notified when it returns to zero.
    in_flight: Mutex<usize>,
    drained: Condvar,
}

/// One request's entry in [`ProxyCtx::in_flight`].
struct InFlight<'a>(&'a ProxyCtx);

impl<'a> InFlight<'a> {
    fn new(ctx: &'a ProxyCtx) -> Self {
        *lock_recover(&ctx.in_flight) += 1;
        InFlight(ctx)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut n = lock_recover(&self.0.in_flight);
        *n -= 1;
        if *n == 0 {
            self.0.drained.notify_all();
        }
    }
}

impl ProxyCtx {
    fn severed(&self, client_role: u32) -> bool {
        let now = self.started.elapsed().as_millis() as u64;
        self.partitions
            .iter()
            .any(|p| p.severs(self.server_role as usize, client_role as usize, now))
    }
}

/// A deterministic link-fault proxy in front of one server. Every
/// connection is relayed on a single thread, one exchange at a time — a
/// request in, its reply out, then the next request — with the link's
/// scheduled faults applied at their request ordinals. A client that
/// pipelines finds its further requests waiting in the socket buffers
/// until their turn (behind the proxy a window is a queue), and since the
/// relay only ever owes the client the one reply it is about to read for
/// it, it cannot deadlock against a client that follows the transport's
/// one rule (no large write while a large reply is outstanding). A request
/// the relay never took off the socket consumed no ordinal.
pub struct ChaosProxy {
    addr: SocketAddr,
    ctx: Arc<ProxyCtx>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy for `server_role` (listening on an ephemeral
    /// loopback port) relaying to `upstream` under `plan`. `roster`
    /// names the clients whose links the plan keys — `(static key, role
    /// id)` pairs, e.g. [`RoundSetup::link_roster`]; a client outside it
    /// is relayed untouched.
    pub fn spawn(
        upstream: SocketAddr,
        server_role: u32,
        plan: &NetFaultPlan,
        roster: &[([u8; 32], u32)],
    ) -> Result<ChaosProxy, NetError> {
        let ctx = Arc::new(ProxyCtx {
            upstream,
            server_role,
            role_of: roster.iter().copied().collect(),
            links: plan.for_server(server_role),
            partitions: plan.partitions.clone(),
            started: Instant::now(),
            ordinals: Mutex::new(BTreeMap::new()),
            rng: Mutex::new(StdRng::seed_from_u64(0x1a7e_9c1e).with_stream(server_role as u64)),
            ledger: Mutex::new(FaultLedger::default()),
            in_flight: Mutex::new(0),
            drained: Condvar::new(),
        });
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (c2, s2) = (Arc::clone(&ctx), Arc::clone(&shutdown));
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if s2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = stream else { break };
                let c3 = Arc::clone(&c2);
                std::thread::spawn(move || relay_chaos(client, &c3));
            }
        });
        Ok(ChaosProxy {
            addr,
            ctx,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The proxy's listen address (published instead of the server's).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The faults fired so far.
    pub fn ledger(&self) -> FaultLedger {
        *lock_recover(&self.ctx.ledger)
    }

    /// Stops accepting, lets the exchanges in flight through, and
    /// returns the final ledger (idle relays end with their
    /// connections). Shut the server behind down first: it has then
    /// answered or hung up on every request, so nothing in flight waits
    /// for more than a relay's own forwarding — and a reply the server
    /// wrote as its last act reaches its client before the process exits
    /// under the relay. A fault holding a request past that is left
    /// behind after a second.
    pub fn shutdown(mut self) -> FaultLedger {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let in_flight = lock_recover(&self.ctx.in_flight);
        let grace = Duration::from_secs(1);
        drop(
            self.ctx
                .drained
                .wait_timeout_while(in_flight, grace, |n| *n > 0),
        );
        self.ledger()
    }
}

/// Reads one whole frame (header + payload) off a raw stream.
fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).ok()?;
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
    let mut frame = vec![0u8; HEADER_LEN + len];
    frame[..HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[HEADER_LEN..]).ok()?;
    Some(frame)
}

fn close_both(client: &TcpStream, server: Option<&TcpStream>) {
    let _ = client.shutdown(std::net::Shutdown::Both);
    if let Some(s) = server {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
}

fn relay_chaos(mut client: TcpStream, ctx: &ProxyCtx) {
    client.set_nodelay(true).ok();
    let mut server = None;
    let _ = relay_link(&mut client, &mut server, ctx);
    close_both(&client, server.as_ref());
}

/// Relays one client connection, frame by frame, until either side — or
/// a fault — ends it: `None` is the only way out. `upstream` holds the
/// server-side socket once dialed, for the caller to close.
fn relay_link(
    client: &mut TcpStream,
    upstream: &mut Option<TcpStream>,
    ctx: &ProxyCtx,
) -> Option<()> {
    // The ClientHello carries the client's static public key in the
    // clear at the head of its payload — that is the link identifier.
    let hello = read_frame(client)?;
    let client_role = hello
        .get(HEADER_LEN..HEADER_LEN + 32)
        .and_then(|pk| {
            ctx.role_of
                .get(<&[u8; 32]>::try_from(pk).expect("32 bytes"))
        })
        .copied();
    // Partition check at accept: a connection across an active cut dies
    // before the server ever sees it (one failed attempt = one retry).
    if client_role.is_some_and(|role| ctx.severed(role)) {
        lock_recover(&ctx.ledger).partition_rejects += 1;
        return None;
    }
    let server = upstream.insert(TcpStream::connect(ctx.upstream).ok()?);
    server.set_nodelay(true).ok();
    server.write_all(&hello).ok()?;
    // ServerHello, client Confirm, server Confirm — strict ping-pong.
    for client_sends in [false, true, false] {
        let (from, to) = if client_sends {
            (&mut *client, &mut *server)
        } else {
            (&mut *server, &mut *client)
        };
        to.write_all(&read_frame(from)?).ok()?;
    }
    let link = client_role.and_then(|r| ctx.links.get(&r));
    loop {
        let mut request = read_frame(client)?;
        let _in_flight = InFlight::new(ctx);
        if let Some(role) = client_role {
            // Partition recheck per request: a window that opened after
            // the handshake still severs the link. Killed requests do
            // not consume ordinals, so scheduled faults stay on
            // schedule whatever the window's timing.
            if ctx.severed(role) {
                lock_recover(&ctx.ledger).partition_rejects += 1;
                return None;
            }
            let ordinal = {
                let mut ords = lock_recover(&ctx.ordinals);
                let e = ords.entry(role).or_insert(0);
                *e += 1;
                *e
            };
            if let Some(model) = link.and_then(|l| l.latency.as_ref()) {
                let jitter = lock_recover(&ctx.rng).gen_range(0..=model.jitter);
                std::thread::sleep(Duration::from_millis((model.base + jitter).max(1)));
                lock_recover(&ctx.ledger).latency_injections += 1;
            }
            let fault = link.and_then(|l| l.faults.iter().find(|f| f.ordinal == ordinal));
            if let Some(fault) = fault {
                *lock_recover(&ctx.ledger).of(&fault.kind) += 1;
                match &fault.kind {
                    FaultKind::Reset { tear } => {
                        let cut = (*tear % request.len() as u64) as usize;
                        let _ = server.write_all(&request[..cut]);
                        return None;
                    }
                    FaultKind::DropReply => {
                        server.write_all(&request).ok()?;
                        let _ = read_frame(server);
                        return None;
                    }
                    FaultKind::StallReply { hold_ms, dribble } => {
                        let delivered = server.write_all(&request).ok();
                        if let Some(reply) = delivered.and_then(|()| read_frame(server)) {
                            let cut = (*dribble).min(reply.len().saturating_sub(1));
                            let _ = client.write_all(&reply[..cut]);
                        }
                        std::thread::sleep(Duration::from_millis(*hold_ms));
                        return None;
                    }
                    FaultKind::StallRequest { hold_ms } => {
                        std::thread::sleep(Duration::from_millis(*hold_ms));
                        return None;
                    }
                    FaultKind::Flip => {
                        let mid = HEADER_LEN + (request.len() - HEADER_LEN) / 2;
                        if let Some(byte) = request.get_mut(mid) {
                            *byte ^= 0x01;
                        }
                    }
                }
            }
        }
        server.write_all(&request).ok()?;
        client.write_all(&read_frame(server)?).ok()?;
    }
}

// ---------------------------------------------------------------------------
// Reconciliation
// ---------------------------------------------------------------------------

/// Reconciles the merged transport counters of an exact run against the
/// fired-fault ledgers and the plan: `"ok"`, or a `"mismatch: …"`
/// listing. Every identity failing here means either a fault silently
/// failed to fire (the plan scheduled past a link's guaranteed floor)
/// or the client/server hardening miscounted.
pub(crate) fn reconcile(out_dir: &Path, spec: &RoundSpec, plan: &NetFaultPlan) -> String {
    let merged = std::fs::read(out_dir.join(files::METRICS_MERGED))
        .ok()
        .and_then(|b| NetMetrics::decode(&b).ok());
    let Some(merged) = merged else {
        return "mismatch: merged metrics unreadable".into();
    };
    let fired = read_ledgers(out_dir, spec);
    let want = plan.injected();
    // What a plan cannot schedule (it leaves those counters zero) is
    // checked through `retries` alone.
    let scheduled = FaultLedger {
        partition_rejects: 0,
        latency_injections: 0,
        ..fired
    };
    let mut bad: Vec<String> = Vec::new();
    if scheduled != want {
        bad.push(format!(
            "fired {} != {}",
            scheduled.to_json(),
            want.to_json()
        ));
    }
    let stalls = fired.stall_replies + fired.stall_requests;
    let retried = fired.resets + fired.reply_drops + stalls + fired.partition_rejects + fired.flips;
    for (name, got, wanted) in [
        ("retries", merged.retries, retried),
        ("deadline_expiries", merged.deadline_expiries, stalls),
        (
            "duplicates_suppressed",
            merged.duplicates_suppressed,
            want.dup_targets(),
        ),
        ("aead_rejects", merged.aead_rejects, fired.flips),
    ] {
        if got != wanted {
            bad.push(format!("{name} {got} != {wanted}"));
        }
    }
    if bad.is_empty() {
        "ok".into()
    } else {
        format!("mismatch: {}", bad.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Identity;
    use crate::client::{Client, ClientConfig};
    use crate::round::build_setup;
    use crate::server::{Handler, Server, ServerConfig};

    fn small_setup() -> RoundSetup {
        let spec = RoundSpec {
            n: 12,
            device_shards: 3,
            origin_shards: 2,
            ..RoundSpec::default()
        };
        build_setup(&spec).unwrap()
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let setup = small_setup();
        for seed in 1..=8u64 {
            let a = NetFaultPlan::derive(&NetProfile::Seeded(seed), &setup);
            let b = NetFaultPlan::derive(&NetProfile::Seeded(seed), &setup);
            assert_eq!(a.injected(), b.injected());
            assert_eq!(a.links.len(), b.links.len());
            assert_eq!(a.partitions.len(), b.partitions.len());
            assert!(a.injected().resets >= 1, "seeded plans always reset");
        }
    }

    #[test]
    fn seed_zero_is_the_empty_plan() {
        let setup = small_setup();
        let plan = NetFaultPlan::derive(&NetProfile::Seeded(0), &setup);
        assert!(plan.links.is_empty());
        assert!(plan.partitions.is_empty());
        assert_eq!(plan.injected(), FaultLedger::default());
    }

    #[test]
    fn fault_ordinals_stay_within_guaranteed_floors() {
        let setup = small_setup();
        let floors: BTreeMap<(u32, u32), u64> = link_inventory(&setup)
            .iter()
            .map(|l| ((l.server, l.client), l.min_requests))
            .collect();
        for seed in 1..=32u64 {
            let plan = NetFaultPlan::derive(&NetProfile::Seeded(seed), &setup);
            for (key, link) in &plan.links {
                let floor = floors.get(key).copied().unwrap_or(0);
                let mut seen = std::collections::BTreeSet::new();
                for f in &link.faults {
                    assert!(
                        f.ordinal >= 1 && f.ordinal <= floor,
                        "seed {seed}: ordinal {} outside 1..={floor} on {key:?}",
                        f.ordinal
                    );
                    assert!(seen.insert(f.ordinal), "duplicate ordinal on {key:?}");
                }
            }
        }
    }

    #[test]
    fn reply_faults_only_on_device_links_and_never_last() {
        let setup = small_setup();
        let floors: BTreeMap<(u32, u32), u64> = link_inventory(&setup)
            .iter()
            .map(|l| ((l.server, l.client), l.min_requests))
            .collect();
        for seed in 1..=32u64 {
            let plan = NetFaultPlan::derive(&NetProfile::Seeded(seed), &setup);
            for (key @ (_, client), link) in &plan.links {
                for f in &link.faults {
                    if matches!(f.kind, FaultKind::DropReply | FaultKind::StallReply { .. }) {
                        assert!(
                            (role::DEVICE_BASE..role::ORIGIN_BASE).contains(client),
                            "seed {seed}: reply fault on non-device client {client}"
                        );
                        // An applied-but-unacked write on a link's final
                        // request races the server's exit; see seeded().
                        assert!(
                            f.ordinal < floors[key],
                            "seed {seed}: reply fault on last request of {key:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn drill_has_partition_flip_stall_and_reset_storm() {
        let setup = small_setup();
        let plan = NetFaultPlan::derive(&NetProfile::Drill, &setup);
        let inj = plan.injected();
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(inj.flips, 1);
        assert_eq!(inj.stall_requests, 1);
        assert_eq!(inj.resets, 3);
        assert_eq!(inj.dup_targets(), 0);
        // The flip sits on a device link, where every request is a push.
        let flipped = |link: &LinkPlan| {
            link.faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::Flip))
        };
        let ((_, client), _) = plan.links.iter().find(|(_, l)| flipped(l)).unwrap();
        assert!((role::DEVICE_BASE..role::ORIGIN_BASE).contains(client));
    }

    #[test]
    fn ledger_json_roundtrips_through_the_reader() {
        let ledger = FaultLedger {
            resets: 3,
            partition_rejects: 17,
            ..FaultLedger::default()
        };
        let mut read = FaultLedger::default();
        read.absorb(&ledger.to_json());
        assert_eq!(read, ledger);
        assert_eq!(read.reply_drops, 0);
        // Ledgers sum; absent and unknown keys add nothing.
        read.absorb("{\"resets\": 2, \"missing_key\": 9}\n");
        assert_eq!(read.resets, 5);
        assert_eq!(read.partition_rejects, 17);
    }

    /// An echo server and a driver-role client dialing it through a
    /// proxy replaying `faults` on that one link.
    fn proxied_echo(seed: u64, faults: Vec<LinkFault>) -> (Server, ChaosProxy, Client) {
        let identity = Identity::derive(seed, role::AGGREGATOR);
        let server_pub = identity.public;
        let handler: Arc<dyn Handler> =
            Arc::new(|_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> {
                Ok(req.to_vec())
            });
        let server = Server::spawn(
            "127.0.0.1:0",
            identity,
            ServerConfig::default(),
            handler,
            seed,
        )
        .unwrap();
        let driver = Identity::derive(seed, role::DRIVER);
        let mut plan = NetFaultPlan::default();
        let link = (role::AGGREGATOR, role::DRIVER);
        plan.links.entry(link).or_default().faults = faults;
        let roster = [(driver.public, role::DRIVER)];
        let proxy =
            ChaosProxy::spawn(server.local_addr(), role::AGGREGATOR, &plan, &roster).unwrap();
        let mut config = ClientConfig::new(driver, Some(server_pub));
        config.backoff = mycelium_simnet::BackoffPolicy::new(1, 4);
        let client = Client::new(proxy.local_addr(), config, StdRng::seed_from_u64(seed + 2));
        (server, proxy, client)
    }

    #[test]
    fn proxy_passthrough_is_byte_transparent() {
        let (server, proxy, mut client) = proxied_echo(7, Vec::new());
        assert_eq!(
            client.request("Echo", b"through the proxy").unwrap(),
            b"through the proxy"
        );
        assert_eq!(client.request("Echo", b"twice").unwrap(), b"twice");
        let m = client.metrics();
        let m = lock_recover(&m);
        assert_eq!(m.retries, 0);
        assert_eq!(m.handshakes, 1);
        drop(m);
        assert_eq!(
            proxy.ledger().to_json(),
            "{\"flips\": 0, \"latency_injections\": 0, \"partition_rejects\": 0, \
             \"reply_drops\": 0, \"resets\": 0, \"stall_replies\": 0, \"stall_requests\": 0}"
        );
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn a_reply_dropped_under_a_window_costs_one_retry_and_one_duplicate() {
        use crate::proto::NetMsg;
        use crate::round::{AggFaults, AggState, SharedAgg};
        // A device link with eight pushes in flight; the proxy swallows the
        // third one's Ack and cuts the connection.
        let spec = RoundSpec {
            n: 12,
            device_shards: 1,
            origin_shards: 1,
            io_timeout: Duration::from_secs(5),
            ..RoundSpec::default()
        };
        let setup = Arc::new(build_setup(&spec).unwrap());
        let pushes: Vec<NetMsg> = (setup.duties.iter().enumerate())
            .flat_map(|(v, duties)| duties.iter().map(move |duty| (v as u32, duty)))
            .take(8)
            .map(|(v, duty)| {
                let mut rng = StdRng::seed_from_u64(1000 + v as u64);
                let (plan, keys) = (&setup.plan, &setup.keys);
                let sc = plan.build_contribution(keys, v, duty.exp, false, &mut rng);
                NetMsg::PushContrib {
                    origin: duty.origin,
                    slot: duty.slot,
                    sc: Box::new(sc.unwrap()),
                }
            })
            .collect();
        assert_eq!(pushes.len(), 8);
        let shared = SharedAgg::new(
            AggState::new(Arc::clone(&setup)),
            &setup,
            &AggFaults::default(),
        );
        let handler: Arc<dyn Handler> = shared.clone();
        let identity = setup.aggregator_identity();
        let config = ServerConfig::default();
        let server = Server::spawn("127.0.0.1:0", identity, config, handler, 7).unwrap();
        let mut plan = NetFaultPlan::default();
        let link = (role::AGGREGATOR, role::DEVICE_BASE);
        plan.links.entry(link).or_default().faults = vec![LinkFault {
            ordinal: 3,
            kind: FaultKind::DropReply,
        }];
        let roster = setup.link_roster();
        let proxy =
            ChaosProxy::spawn(server.local_addr(), role::AGGREGATOR, &plan, &roster).unwrap();
        let device = Identity::derive(spec.seed, role::DEVICE_BASE);
        let mut config = ClientConfig::new(device, Some(setup.aggregator_identity().public));
        config.backoff = mycelium_simnet::BackoffPolicy::new(1, 4);
        let mut client = Client::new(proxy.local_addr(), config, StdRng::seed_from_u64(3));

        for push in &pushes {
            client.send(push.kind(), |w| push.encode_into(w)).unwrap();
        }
        for _ in &pushes {
            let reply = NetMsg::decode(client.recv().unwrap(), &setup.cc).unwrap();
            assert!(matches!(reply, NetMsg::Ack));
        }

        // Exact: the state holds what eight plain deliveries leave.
        let mut plain = AggState::new(Arc::clone(&setup));
        for push in &pushes {
            let raw = push.encode();
            let msg = NetMsg::decode(&raw, &setup.cc).unwrap();
            plain.handle(msg, &raw).unwrap();
        }
        assert_eq!(shared.lock().digest(), plain.digest());
        assert_eq!(shared.lock().duplicates_suppressed(), 1);

        // And the run reconciles as the matrix reconciles its rounds.
        let dir = std::env::temp_dir().join(format!("myc-netchaos-window-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut merged = lock_recover(&client.metrics()).clone();
        assert_eq!((merged.retries, merged.handshakes), (1, 2));
        merged.duplicates_suppressed = shared.lock().duplicates_suppressed();
        std::fs::write(dir.join(files::METRICS_MERGED), merged.encode()).unwrap();
        server.shutdown();
        let ledger = proxy.shutdown();
        assert_eq!(ledger.reply_drops, 1);
        std::fs::write(dir.join(files::netfaults("aggregator")), ledger.to_json()).unwrap();
        assert_eq!(reconcile(&dir, &spec, &plan), "ok");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn proxy_reset_fault_is_absorbed_by_the_retry_loop() {
        let reset = LinkFault {
            ordinal: 2,
            kind: FaultKind::Reset { tear: 11 },
        };
        let (server, proxy, mut client) = proxied_echo(7, vec![reset]);
        assert_eq!(client.request("Echo", b"one").unwrap(), b"one");
        // Ordinal 2 is torn mid-frame; the retry (ordinal 3) succeeds.
        assert_eq!(client.request("Echo", b"two").unwrap(), b"two");
        let m = client.metrics();
        let m = lock_recover(&m);
        assert_eq!(m.retries, 1, "the reset cost exactly one retry");
        assert_eq!(m.handshakes, 2, "the retry redialed through the proxy");
        drop(m);
        assert_eq!(proxy.ledger().resets, 1);
        proxy.shutdown();
        server.shutdown();
    }
}
