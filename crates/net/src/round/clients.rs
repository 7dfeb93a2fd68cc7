//! The client side of the round: links that survive a server's respawn,
//! and the device, origin and committee processes that talk over them.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mycelium::roles;
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};

use super::spec::{
    build_setup, files, read_addr_file, read_named_addr_file, role, shard_of, write_metrics,
    RoundSetup, RoundSpec, PARK, WINDOW,
};
use crate::channel::Identity;
use crate::client::{Client, ClientConfig};
use crate::codec::CodecCtx;
use crate::error::NetError;
use crate::lock_recover;
use crate::metrics::NetMetrics;
use crate::proto::{NetMsg, OriginRow};

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
    pub(super) fn request_msg(
        &mut self,
        setup: &RoundSetup,
        msg: &NetMsg,
    ) -> Result<NetMsg, NetError> {
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
