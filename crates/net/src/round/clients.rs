//! The client side of the round: links that survive a server's respawn,
//! and the device, origin and committee processes — each its role's
//! machine ([`super::machine`]) run over them by the one [`drive`].

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};

use super::machine::{Device, Member, Next, Origin, Role, To};
use super::spec::{
    build_setup, files, read_addr_file, read_named_addr_file, role, shard_of, write_metrics,
    RoundSetup, RoundSpec, PARK, WINDOW,
};
use crate::channel::Identity;
use crate::client::{Client, ClientConfig};
use crate::error::NetError;
use crate::lock_recover;
use crate::metrics::NetMetrics;
use crate::proto::NetMsg;

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
    fn new_to_shard(
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
        let identity = Identity::derive(setup.spec.seed, role_id);
        let mut config = ClientConfig::new(identity, Some(server_pub));
        config.read_timeout = setup.spec.io_timeout;
        // Short inner budget (~0.75 s of backoff): after an aggregator
        // crash the address changes, so burning the full schedule against
        // the dead port only delays the HubClient's re-resolution.
        config.backoff = crate::BackoffPolicy::new(50, 4);
        let rng = StdRng::seed_from_u64(setup.spec.seed ^ 0xd1a1).with_stream(role_id as u64);
        HubClient {
            client: Client::new(addr, config, rng),
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
        let reply = self.client.request(msg.kind(), &msg.encode());
        let reply = reply.and_then(|reply| NetMsg::decode(&reply, &setup.cc));
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

    pub(crate) fn metrics(&self) -> NetMetrics {
        lock_recover(&self.client.metrics()).clone()
    }
}

/// A client process's links: one [`HubClient`] per server its role asks,
/// dialled at the first request — the hub (or coordinator), or the intake
/// server of an origin's row, which at one shard is the hub too.
struct Links {
    hubs: BTreeMap<Option<usize>, HubClient>,
    role_id: u32,
    addr: SocketAddr,
    out_dir: PathBuf,
}

impl Links {
    fn new(role_id: u32, addr: SocketAddr, out_dir: &Path) -> Self {
        Links {
            hubs: BTreeMap::new(),
            role_id,
            addr,
            out_dir: out_dir.to_path_buf(),
        }
    }

    /// The link to the server `to` names: an intake shard above one shard,
    /// the hub otherwise.
    fn link(&mut self, setup: &RoundSetup, to: To) -> Result<&mut HubClient, NetError> {
        let shards = setup.spec.agg_shards;
        let shard = match to {
            To::Intake(v) if shards > 1 => Some(shard_of(v, shards)),
            _ => None,
        };
        if let std::collections::btree_map::Entry::Vacant(e) = self.hubs.entry(shard) {
            let (role_id, addr, out_dir) = (self.role_id, self.addr, &self.out_dir);
            e.insert(match shard {
                Some(s) => HubClient::new_to_shard(setup, role_id, s, out_dir)?,
                None => HubClient::new(setup, role_id, addr, out_dir),
            });
        }
        Ok(self.hubs.get_mut(&shard).expect("just inserted"))
    }

    /// The reply to the oldest request in flight on the first link that has
    /// one.
    fn recv(&mut self, setup: &RoundSetup) -> Result<NetMsg, NetError> {
        let mut busy = self.hubs.values_mut().filter(|h| h.client.in_flight() > 0);
        let hub = busy
            .next()
            .ok_or_else(|| NetError::Decode("no request in flight".into()))?;
        hub.recv(setup)
    }

    /// Hands `role` the replies to everything still in flight, on every
    /// link.
    fn drain(&mut self, setup: &RoundSetup, role: &mut dyn Role) -> Result<(), NetError> {
        for hub in self.hubs.values_mut() {
            while hub.client.in_flight() > 0 {
                role.reply(hub.recv(setup)?)?;
            }
        }
        Ok(())
    }

    fn metrics(&self) -> NetMetrics {
        let mut merged = NetMetrics::default();
        for hub in self.hubs.values() {
            merged.merge(&hub.metrics());
        }
        merged
    }
}

/// Runs `role` over `links` until it has nothing left to ask, then hands it
/// the replies to everything still in flight. What this adds is transport
/// policy: at most [`WINDOW`] requests in flight per link — when one is full
/// the oldest reply is read first, and a role that reply ends sends nothing
/// more — and a re-ask sent at once, since the server held the request for
/// a park period before it said "not yet". `before_send` sees every request
/// before it goes (the crash drill sits there).
fn drive(
    setup: &RoundSetup,
    role: &mut dyn Role,
    links: &mut Links,
    mut before_send: impl FnMut(&mut Links, &mut dyn Role, &NetMsg) -> Result<(), NetError>,
) -> Result<(), NetError> {
    loop {
        let (to, msg) = match role.next()? {
            Next::Ask(to, msg) | Next::Again(to, msg) => (to, msg),
            Next::Wait => {
                let reply = links.recv(setup)?;
                role.reply(reply)?;
                continue;
            }
            Next::Done => return links.drain(setup, role),
        };
        let link = links.link(setup, to)?;
        while link.client.in_flight() >= WINDOW {
            role.reply(link.recv(setup)?)?;
        }
        if role.over() {
            return links.drain(setup, role);
        }
        before_send(links, role, &msg)?;
        links.link(setup, to)?.send(&msg)?;
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
    let vertices = (shard..setup.pop.graph.len()).step_by(spec.device_shards);
    let mut device = Device::new(&setup, vertices.map(|v| v as VertexId), false);
    let mut links = Links::new(role::DEVICE_BASE + shard as u32, addr, out_dir);
    drive(&setup, &mut device, &mut links, |_, _, _| Ok(()))?;
    write_metrics(out_dir, &format!("device-{shard}"), &links.metrics())
}

/// Runs one origin process: its vertices are served by one [`Origin`] role
/// per aggregation shard that holds rows of them, each on a thread and a
/// link of its own, so that rows filling slowly at one shard keep nothing
/// waiting at another.
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
    let mut links: BTreeMap<usize, Vec<u32>> = Default::default();
    for v in (shard..setup.pop.graph.len()).step_by(spec.origin_shards) {
        let target = shard_of(v as u32, spec.agg_shards);
        links.entry(target).or_default().push(v as u32);
    }
    let submitted = AtomicUsize::new(0);
    let crash = |link: &mut Links, origin: &mut dyn Role, msg: &NetMsg| {
        let submission = matches!(msg, NetMsg::SubmitOrigin { .. });
        if submission && crash_after == Some(submitted.fetch_add(1, Ordering::SeqCst)) {
            // What the aggregator acknowledged is what the respawn is spared;
            // what this process sent is still part of the round's traffic.
            link.drain(&setup, origin)?;
            write_metrics(out_dir, &format!("origin-{shard}-crashed"), &link.metrics())?;
            std::process::exit(17);
        }
        Ok(())
    };
    let per_link = std::thread::scope(|scope| {
        let serving: Vec<_> = links
            .into_values()
            .map(|want| {
                let (setup, crash) = (&setup, &crash);
                scope.spawn(move || {
                    let mut link = Links::new(role_id, addr, out_dir);
                    drive(setup, &mut Origin::new(setup, want), &mut link, crash)?;
                    Ok::<_, NetError>(link.metrics())
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
    // The origin is where relinearization keys live: it derives a level's
    // keys when it first relinearizes there.
    let levels = setup.keys.relin.derived_levels();
    eprintln!(
        "origin-{shard}: {} minor faults, peak RSS {} kB, relinearization keys derived at levels {levels:?}",
        crate::metrics::minor_faults().unwrap_or(0),
        crate::metrics::peak_rss_kb().unwrap_or(0)
    );
    write_metrics(out_dir, &format!("origin-{shard}"), &metrics)
}

/// Runs one committee member: checks in (carrying its joint-noise seed),
/// answers share and signing tasks, and exits once the aggregator reports
/// the round finished.
pub fn run_committee(
    spec: &RoundSpec,
    member: u64,
    addr: SocketAddr,
    out_dir: &Path,
) -> Result<(), NetError> {
    let setup = build_setup(spec)?;
    let mut links = Links::new(role::COMMITTEE_BASE + member as u32, addr, out_dir);
    drive(
        &setup,
        &mut Member::new(&setup, member),
        &mut links,
        |_, _, _| Ok(()),
    )?;
    write_metrics(out_dir, &format!("committee-{member}"), &links.metrics())
}
