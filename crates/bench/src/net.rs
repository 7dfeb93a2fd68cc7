//! Loopback throughput/latency benchmark for the TCP transport plane.
//!
//! Sweeps request/response payload sizes over a real
//! [`mycelium_net::Server`] echo endpoint on loopback — every byte goes
//! through framing, AEAD sealing, the kernel socket path, and back —
//! and measures per-exchange latency plus the cost of a full
//! authenticated handshake, and the interposition overhead of an idle
//! zero-fault [`ChaosProxy`] — what every `--net-seed 0` run pays — and
//! the AEAD alone at the same payload sizes, so a frame's sealing cost can
//! be read off beside its socket cost. Two rows cover the serving plane's
//! end-of-round and durability mechanisms: how long [`Server::shutdown`]
//! takes with an idle session open, and what the journal's group commit
//! makes of 1, 2 and 4 concurrent writers. Two more cover the request
//! path itself: one client pushing 96 KiB records at a journalling handler
//! strictly one at a time and with a full window in flight (acks per
//! second, and how many `fsync`s an ack costs once a burst shares one),
//! and the minor page faults an exchange takes now that frames live in
//! buffers their connection keeps. The last row times what every process
//! of a round pays before it serves, `build_setup`, against eager key
//! generation in the same run. The emitted `BENCH_net.json` has a
//! fixed field order and precision so diffs stay readable, and
//! [`checks`] holds it to the gates `bench_net` exits on.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mycelium::params::SystemParams;
use mycelium::streams;
use mycelium_bgv::KeySet;
use mycelium_crypto::aead;
use mycelium_math::json::Json;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::client::{Client, ClientConfig};
use mycelium_net::error::NetError;
use mycelium_net::journal::Journal;
use mycelium_net::metrics::minor_faults;
use mycelium_net::netchaos::{ChaosProxy, NetFaultPlan};
use mycelium_net::round::{build_setup, role, RoundSpec, WINDOW};
use mycelium_net::server::{Handled, Handler, Server, ServerConfig};
use mycelium_net::wire::Writer;
use mycelium_net::Identity;
use mycelium_simnet::PhaseSeries;

/// The swept payload sizes (bytes).
pub const PAYLOAD_SIZES: [usize; 3] = [1 << 10, 64 << 10, 1 << 20];

/// One payload size's measurements.
pub struct NetSample {
    /// Payload bytes per direction.
    pub payload: usize,
    /// Completed request/response exchanges.
    pub exchanges: u64,
    /// Wall seconds for the whole loop.
    pub secs: f64,
    /// Per-exchange latency (microseconds).
    pub latency_micros: PhaseSeries,
}

impl NetSample {
    /// Application-payload throughput, counting both directions.
    pub fn mbytes_per_sec(&self) -> f64 {
        (2 * self.payload as u64 * self.exchanges) as f64 / self.secs / 1e6
    }
}

/// The idle chaos-proxy interposition cost at one payload size: the
/// same echo exchange measured direct and through a zero-fault
/// [`ChaosProxy`] — the pass-through path every `--net-seed 0` run
/// takes.
pub struct ProxyOverhead {
    /// Payload bytes per direction.
    pub payload: usize,
    /// Per-exchange latency straight to the server (microseconds).
    pub direct_micros: PhaseSeries,
    /// Per-exchange latency through the idle proxy (microseconds).
    pub proxied_micros: PhaseSeries,
}

/// The AEAD alone on one payload size: what sealing and opening one frame
/// of it costs, sockets and framing aside — on the kernels the process
/// dispatched to, and on the scalar ones they are tested against.
pub struct AeadSample {
    /// Plaintext bytes.
    pub payload: usize,
    /// `seal_with_aad` throughput (plaintext MB/s).
    pub seal_mbytes_per_sec: f64,
    /// `open_with_aad` throughput (plaintext MB/s).
    pub open_mbytes_per_sec: f64,
    /// `seal_with_aad` on [`aead::scalar_tier`].
    pub scalar_seal_mbytes_per_sec: f64,
    /// `open_with_aad` on [`aead::scalar_tier`].
    pub scalar_open_mbytes_per_sec: f64,
}

/// Seals and opens `payload`-byte frames (20-byte header as associated
/// data, like the channel's) for `budget_secs` each, on each tier.
fn aead_sample(payload: usize, budget_secs: f64) -> AeadSample {
    let (key, header, body) = ([0xbe; 32], [0x5a; 20], vec![0x5au8; payload]);
    let mbytes_per_sec = |op: &mut dyn FnMut()| {
        let (start, mut ops) = (Instant::now(), 0u64);
        while start.elapsed().as_secs_f64() < budget_secs {
            op();
            ops += 1;
        }
        (payload as u64 * ops) as f64 / start.elapsed().as_secs_f64() / 1e6
    };
    let sealed = aead::seal_with_aad(&key, 1, &header, &body);
    let seal_and_open = |tier: aead::Tier| {
        let seal = mbytes_per_sec(&mut || {
            let sealed = tier.seal_with_aad(&key, 1, &header, std::hint::black_box(&body));
            std::hint::black_box(sealed);
        });
        let open = mbytes_per_sec(&mut || {
            let plain = tier.open_with_aad(&key, 1, &header, std::hint::black_box(&sealed));
            std::hint::black_box(plain.expect("own seal opens"));
        });
        (seal, open)
    };
    let (seal_mbytes_per_sec, open_mbytes_per_sec) = seal_and_open(aead::active_tier());
    let (scalar_seal_mbytes_per_sec, scalar_open_mbytes_per_sec) =
        seal_and_open(aead::scalar_tier());
    AeadSample {
        payload,
        seal_mbytes_per_sec,
        open_mbytes_per_sec,
        scalar_seal_mbytes_per_sec,
        scalar_open_mbytes_per_sec,
    }
}

/// The active AEAD tier as `keystream+authenticator` kernel names.
fn aead_tier_name() -> String {
    let tier = aead::active_tier();
    format!("{}+{}", tier.cipher.name, tier.mac.name)
}

/// Concurrent writers swept by the group-commit row.
pub const GROUP_COMMIT_WRITERS: [usize; 3] = [1, 2, 4];

/// The journal's group commit under `writers` threads, each appending a
/// 96 KiB record under the journal's lock and waiting for its durability
/// outside it — what the aggregator's workers do per durable request.
pub struct GroupCommitSample {
    /// Concurrent writer threads.
    pub writers: usize,
    /// Records appended and waited durable, all writers together.
    pub acks: u64,
    /// Wall seconds for all of them.
    pub secs: f64,
    /// `fsync`s the journal issued for them.
    pub syncs: u64,
}

fn group_commit_sample(writers: usize, acks: u64) -> GroupCommitSample {
    let path = std::env::temp_dir().join(format!(
        "myc-bench-group-commit-{}-{writers}.bin",
        std::process::id()
    ));
    let journal = Mutex::new(Journal::create(&path, &[0xbe; 32]).expect("bench journal"));
    let record = vec![0x5au8; 96 << 10];
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..writers {
            scope.spawn(|| {
                for _ in 0..acks / writers as u64 {
                    let pending = {
                        let mut j = journal.lock().expect("no writer panics");
                        j.append(&record).expect("append");
                        j.pending()
                    };
                    pending.wait().expect("fsync");
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let journal = journal.into_inner().expect("no writer panics");
    let sample = GroupCommitSample {
        writers,
        acks: journal.record_count(),
        secs,
        syncs: journal.sync_stats().syncs,
    };
    let _ = std::fs::remove_file(&path);
    sample
}

/// Requests in flight swept by the pipelined row: strict ping-pong, and
/// the window a device keeps.
pub const PIPELINE_WINDOWS: [usize; 2] = [1, WINDOW];

/// One client pushing 96 KiB records at a handler that journals each
/// before it acknowledges — the aggregator's intake path without its
/// cryptography — with `window` of them in flight.
pub struct PipelinedSample {
    /// Requests the client keeps in flight.
    pub window: usize,
    /// Records pushed and acknowledged.
    pub acks: u64,
    /// Wall seconds for all of them.
    pub secs: f64,
    /// `fsync`s the journal issued for them.
    pub syncs: u64,
}

/// Journals every request, acknowledges with one byte, and leaves the
/// durability wait to the connection's worker.
struct Journalling(Mutex<Journal>);

impl Handler for Journalling {
    fn handle_into(
        &self,
        _peer: [u8; 32],
        request: &[u8],
        reply: &mut Writer,
        _may_wait: bool,
    ) -> Result<Handled, NetError> {
        let mut journal = self.0.lock().expect("no handler panics");
        journal.append(request)?;
        reply.put_u8(1);
        Ok(Handled::Reply(Some(journal.pending())))
    }
}

fn pipelined_sample(window: usize, acks: u64) -> PipelinedSample {
    let path = std::env::temp_dir().join(format!(
        "myc-bench-pipelined-{}-{window}.bin",
        std::process::id()
    ));
    let journal = Journal::create(&path, &[0xbe; 32]).expect("bench journal");
    let journalling = Arc::new(Journalling(Mutex::new(journal)));
    let identity = Identity::derive(0xbe, 0);
    let config = ClientConfig::new(Identity::derive(0xbe, 100), Some(identity.public));
    let handler: Arc<dyn Handler> = journalling.clone();
    let server = Server::spawn(
        "127.0.0.1:0",
        identity,
        ServerConfig::default(),
        handler,
        0xbe,
    )
    .expect("bench server spawns");
    let mut client = Client::new(server.local_addr(), config, StdRng::seed_from_u64(11));
    let record = vec![0x5au8; 96 << 10];
    client.request("warm", &record).expect("warm-up");
    let syncs_before = journalling.0.lock().expect("idle").sync_stats().syncs;
    let start = Instant::now();
    for _ in 0..acks {
        while client.in_flight() >= window {
            client.recv().expect("ack");
        }
        client.send("push", |w| w.put_bytes(&record)).expect("push");
    }
    while client.in_flight() > 0 {
        client.recv().expect("ack");
    }
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();
    let syncs = journalling.0.lock().expect("idle").sync_stats().syncs - syncs_before;
    let _ = std::fs::remove_file(&path);
    PipelinedSample {
        window,
        acks,
        secs,
        syncs,
    }
}

/// The minor page faults of 96 KiB echo exchanges, client and server both
/// in this process: what the buffers of the request path cost to touch.
pub struct AllocSample {
    /// Payload bytes per direction.
    pub payload: usize,
    /// Exchanges measured (after a warm-up).
    pub exchanges: u64,
    /// Minor faults the process took over them.
    pub minor_faults: u64,
}

fn alloc_sample(exchanges: u64) -> AllocSample {
    let (server, server_pub) = echo_server();
    let config = ClientConfig::new(Identity::derive(0xbe, 100), Some(server_pub));
    let mut client = Client::new(server.local_addr(), config, StdRng::seed_from_u64(13));
    let body = vec![0x5au8; 96 << 10];
    for _ in 0..16 {
        client.request("warm", &body).expect("warm-up");
    }
    let before = minor_faults().unwrap_or(0);
    for _ in 0..exchanges {
        client.request("bench", &body).expect("echo exchange");
    }
    let minor_faults = minor_faults().unwrap_or(0) - before;
    server.shutdown();
    AllocSample {
        payload: body.len(),
        exchanges,
        minor_faults,
    }
}

/// Times [`Server::shutdown`] of an echo server on which one client
/// shook hands, exchanged a request and then went quiet — the state
/// every role's connection is in when a round ends.
fn shutdown_micros(iters: u64) -> PhaseSeries {
    let mut micros = PhaseSeries::default();
    for i in 0..iters {
        let (server, server_pub) = echo_server();
        let config = ClientConfig::new(Identity::derive(0xbe, 100), Some(server_pub));
        let mut idle = Client::new(server.local_addr(), config, StdRng::seed_from_u64(i));
        idle.request("hs", b"x").expect("idle session opens");
        let start = Instant::now();
        server.shutdown();
        micros.record(start.elapsed().as_micros() as u64);
    }
    micros
}

/// What every process of a round pays before it serves: `build_setup` of
/// the benchmark's round (`n` = 96, 2 device and 1 origin process,
/// proofs on), against eager `KeySet::generate` of the same keys, timed
/// in turn in one run.
pub struct SetupSample {
    /// `build_setup` (microseconds).
    pub build_setup_micros: PhaseSeries,
    /// `KeySet::generate`, relinearization keys included (microseconds).
    pub keygen_micros: PhaseSeries,
}

fn setup_sample(iters: u64) -> SetupSample {
    let spec = RoundSpec {
        n: 96,
        device_shards: 2,
        origin_shards: 1,
        with_proofs: true,
        ..RoundSpec::default()
    };
    let bgv = SystemParams::simulation().bgv;
    fn time<T>(series: &mut PhaseSeries, f: impl FnOnce() -> T) {
        let start = Instant::now();
        std::hint::black_box(f());
        series.record(start.elapsed().as_micros() as u64);
    }
    let (mut build_setup_micros, mut keygen_micros) = Default::default();
    for _ in 0..iters {
        time(&mut build_setup_micros, || {
            build_setup(&spec).expect("the bench round plans")
        });
        time(&mut keygen_micros, || {
            let rng = &mut StdRng::seed_from_u64(spec.seed).with_stream(streams::KEYS);
            KeySet::generate(&bgv, rng)
        });
    }
    SetupSample {
        build_setup_micros,
        keygen_micros,
    }
}

/// The full benchmark result.
pub struct NetBench {
    /// One sample per swept payload size.
    pub samples: Vec<NetSample>,
    /// Fresh connect + authenticated handshake cost (microseconds).
    pub handshake_micros: PhaseSeries,
    /// Direct vs. idle-proxy latency at a mid-size payload.
    pub proxy: ProxyOverhead,
    /// The AEAD alone, one sample per swept payload size.
    pub aead: Vec<AeadSample>,
    /// `Server::shutdown` with one idle session open (microseconds).
    pub shutdown_micros: PhaseSeries,
    /// The journal's group commit, one sample per writer count.
    pub group_commit: Vec<GroupCommitSample>,
    /// One pushing client against a journalling handler, per window.
    pub pipelined: Vec<PipelinedSample>,
    /// Minor faults of the echo exchange.
    pub alloc: AllocSample,
    /// A round process's set-up against eager key generation.
    pub setup: SetupSample,
}

fn echo_server() -> (Server, [u8; 32]) {
    let identity = Identity::derive(0xbe, 0);
    let public = identity.public;
    let handler: Arc<dyn Handler> =
        Arc::new(|_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> { Ok(req.to_vec()) });
    let server = Server::spawn(
        "127.0.0.1:0",
        identity,
        ServerConfig::default(),
        handler,
        0xbe,
    )
    .expect("bench server spawns");
    (server, public)
}

/// Runs the sweep. `smoke` shrinks the iteration budget for CI.
pub fn run(smoke: bool) -> NetBench {
    let (server, server_pub) = echo_server();
    let addr = server.local_addr();
    let client_cfg = || ClientConfig::new(Identity::derive(0xbe, 100), Some(server_pub));

    // Handshake cost: fresh TCP connect + key agreement + confirm, each
    // proven live with a 1-byte exchange.
    let handshake_iters = if smoke { 10 } else { 50 };
    let mut handshake_micros = PhaseSeries::default();
    for i in 0..handshake_iters {
        let mut client = Client::new(addr, client_cfg(), StdRng::seed_from_u64(1000 + i));
        let start = Instant::now();
        client.request("hs", b"x").expect("handshake exchange");
        handshake_micros.record(start.elapsed().as_micros() as u64);
    }

    let mut samples = Vec::new();
    let mut client = Client::new(addr, client_cfg(), StdRng::seed_from_u64(7));
    for &payload in &PAYLOAD_SIZES {
        let body = vec![0x5au8; payload];
        // Warm-up exchange (also establishes the channel).
        client.request("warm", &body).expect("warm-up");
        let budget_secs = if smoke { 0.2 } else { 1.0 };
        let mut latency = PhaseSeries::default();
        let mut exchanges = 0u64;
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let reply = client.request("bench", &body).expect("echo exchange");
            latency.record(t.elapsed().as_micros() as u64);
            assert_eq!(reply.len(), payload);
            exchanges += 1;
            if start.elapsed().as_secs_f64() >= budget_secs {
                break;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        eprintln!(
            "  {:>8} B  {exchanges:>6} exchanges in {secs:>5.2} s  ({:>8.2} MB/s, p50 {} us)",
            payload,
            (2 * payload as u64 * exchanges) as f64 / secs / 1e6,
            latency.p50(),
        );
        samples.push(NetSample {
            payload,
            exchanges,
            secs,
            latency_micros: latency,
        });
    }
    // Idle-proxy overhead: the same echo exchange, direct vs. fronted
    // by a zero-fault ChaosProxy (empty plan, so no link to attribute
    // and no roster needed).
    let payload = PAYLOAD_SIZES[1];
    let body = vec![0x5au8; payload];
    let iters = if smoke { 40 } else { 400 };
    client.request("warm", &body).expect("direct warm-up");
    let mut direct_micros = PhaseSeries::default();
    for _ in 0..iters {
        let t = Instant::now();
        client.request("bench", &body).expect("direct exchange");
        direct_micros.record(t.elapsed().as_micros() as u64);
    }
    let proxy = ChaosProxy::spawn(addr, role::AGGREGATOR, &NetFaultPlan::default(), &[])
        .expect("idle proxy spawns");
    let mut proxied = Client::new(proxy.local_addr(), client_cfg(), StdRng::seed_from_u64(9));
    proxied.request("warm", &body).expect("proxied warm-up");
    let mut proxied_micros = PhaseSeries::default();
    for _ in 0..iters {
        let t = Instant::now();
        proxied.request("bench", &body).expect("proxied exchange");
        proxied_micros.record(t.elapsed().as_micros() as u64);
    }
    eprintln!(
        "  idle proxy  {payload:>8} B  p50 {} us direct, {} us proxied (+{} us)",
        direct_micros.p50(),
        proxied_micros.p50(),
        proxied_micros.p50().saturating_sub(direct_micros.p50()),
    );
    proxy.shutdown();
    server.shutdown();
    let aead_budget = if smoke { 0.05 } else { 0.3 };
    let aead: Vec<AeadSample> = PAYLOAD_SIZES
        .iter()
        .map(|&payload| aead_sample(payload, aead_budget))
        .collect();
    for s in &aead {
        eprintln!(
            "  aead ({})  {:>8} B  seal {:>8.2} MB/s, open {:>8.2} MB/s  (scalar: {:.2}, {:.2})",
            aead_tier_name(),
            s.payload,
            s.seal_mbytes_per_sec,
            s.open_mbytes_per_sec,
            s.scalar_seal_mbytes_per_sec,
            s.scalar_open_mbytes_per_sec,
        );
    }
    let shutdown_micros = shutdown_micros(if smoke { 5 } else { 20 });
    eprintln!(
        "  shutdown (one idle session)  p50 {} us, p99 {} us",
        shutdown_micros.p50(),
        shutdown_micros.p99(),
    );
    let group_commit: Vec<GroupCommitSample> = GROUP_COMMIT_WRITERS
        .iter()
        .map(|&writers| group_commit_sample(writers, if smoke { 128 } else { 512 }))
        .collect();
    for g in &group_commit {
        eprintln!(
            "  group commit  {} writer(s)  {:>8.0} acks/s, {:.2} fsyncs/ack",
            g.writers,
            g.acks as f64 / g.secs,
            g.syncs as f64 / g.acks as f64,
        );
    }
    let pipelined: Vec<PipelinedSample> = PIPELINE_WINDOWS
        .iter()
        .map(|&window| pipelined_sample(window, if smoke { 128 } else { 512 }))
        .collect();
    for p in &pipelined {
        eprintln!(
            "  pipelined  window {}  {:>8.0} acks/s, {:.2} fsyncs/ack",
            p.window,
            p.acks as f64 / p.secs,
            p.syncs as f64 / p.acks as f64,
        );
    }
    let alloc = alloc_sample(if smoke { 200 } else { 1000 });
    eprintln!(
        "  alloc  {} B  {:.0} minor faults per 1000 exchanges",
        alloc.payload,
        1000.0 * alloc.minor_faults as f64 / alloc.exchanges as f64,
    );
    let setup = setup_sample(if smoke { 5 } else { 20 });
    eprintln!(
        "  setup  build_setup p50 {} us, eager keygen p50 {} us",
        setup.build_setup_micros.p50(),
        setup.keygen_micros.p50(),
    );
    NetBench {
        setup,
        aead,
        shutdown_micros,
        group_commit,
        pipelined,
        alloc,
        samples,
        handshake_micros,
        proxy: ProxyOverhead {
            payload,
            direct_micros,
            proxied_micros,
        },
    }
}

/// The `BENCH_net.json` document, its fields in a fixed order.
pub fn to_json(bench: &NetBench) -> Json {
    let mb = |mbytes_per_sec| Json::fixed(mbytes_per_sec, 2);
    let series = |p: &PhaseSeries| {
        Json::obj([
            ("iters", p.count().into()),
            ("p50_micros", p.p50().into()),
            ("p99_micros", p.p99().into()),
        ])
    };
    let payloads = bench.samples.iter().map(|s| {
        Json::obj([
            ("bytes", s.payload.into()),
            ("exchanges", s.exchanges.into()),
            ("mbytes_per_sec", mb(s.mbytes_per_sec())),
            ("p50_micros", s.latency_micros.p50().into()),
            ("p99_micros", s.latency_micros.p99().into()),
        ])
    });
    let (direct, proxied) = (bench.proxy.direct_micros.p50(), &bench.proxy.proxied_micros);
    let idle_proxy = Json::obj([
        ("bytes", bench.proxy.payload.into()),
        ("iters", proxied.count().into()),
        ("direct_p50_micros", direct.into()),
        ("proxied_p50_micros", proxied.p50().into()),
        (
            "overhead_p50_micros",
            proxied.p50().saturating_sub(direct).into(),
        ),
    ]);
    let aead = bench.aead.iter().map(|s| {
        Json::obj([
            ("bytes", s.payload.into()),
            ("seal_mbytes_per_sec", mb(s.seal_mbytes_per_sec)),
            ("open_mbytes_per_sec", mb(s.open_mbytes_per_sec)),
            (
                "scalar_seal_mbytes_per_sec",
                mb(s.scalar_seal_mbytes_per_sec),
            ),
            (
                "scalar_open_mbytes_per_sec",
                mb(s.scalar_open_mbytes_per_sec),
            ),
        ])
    });
    // Acks per second and fsyncs per ack of a journalling row.
    let acks = |acks: u64, secs: f64, syncs: u64| {
        [
            ("acks", acks.into()),
            ("acks_per_sec", Json::fixed(acks as f64 / secs, 0)),
            ("fsyncs_per_ack", Json::fixed(syncs as f64 / acks as f64, 2)),
        ]
    };
    let group_commit = bench.group_commit.iter().map(|g| {
        let writers = ("writers", g.writers.into());
        Json::obj([writers].into_iter().chain(acks(g.acks, g.secs, g.syncs)))
    });
    let pipelined = bench.pipelined.iter().map(|p| {
        let window = ("window", p.window.into());
        Json::obj([window].into_iter().chain(acks(p.acks, p.secs, p.syncs)))
    });
    let aead = Json::obj([
        ("tier", aead_tier_name().into()),
        ("payloads", aead.collect()),
    ]);
    let a = &bench.alloc;
    let alloc = Json::obj([
        ("bytes", a.payload.into()),
        ("exchanges", a.exchanges.into()),
        (
            "minor_faults_per_1000",
            Json::fixed(1000.0 * a.minor_faults as f64 / a.exchanges as f64, 0),
        ),
    ]);
    let ms = |p: &PhaseSeries| Json::fixed(p.p50() as f64 / 1e3, 3);
    let (build_setup, keygen) = (&bench.setup.build_setup_micros, &bench.setup.keygen_micros);
    let setup = Json::obj([
        ("iters", build_setup.count().into()),
        ("build_setup_ms", ms(build_setup)),
        ("keygen_ms", ms(keygen)),
    ]);
    Json::obj([
        ("handshake", series(&bench.handshake_micros)),
        ("payloads", payloads.collect()),
        ("idle_proxy", idle_proxy),
        ("aead", aead),
        ("shutdown", series(&bench.shutdown_micros)),
        ("group_commit", group_commit.collect()),
        ("pipelined", pipelined.collect()),
        ("alloc", alloc),
        ("setup", setup),
    ])
}

/// The gates a `BENCH_net.json` document is held to, read back from the
/// document itself: one line per gate it fails, a gate whose field is
/// missing included.
pub fn checks(doc: &Json) -> Vec<String> {
    let num = |v: Option<&Json>, key: &str| v?.get(key)?.as_f64();
    /// The row of an array whose `key` is `value`.
    fn row<'a>(rows: Option<&'a Json>, key: &str, value: usize) -> Option<&'a Json> {
        let rows = rows?.as_array()?;
        rows.iter()
            .find(|r| r.get(key).and_then(Json::as_u64) == Some(value as u64))
    }
    let at_most = |x: Option<f64>, limit: f64| x.map(|x| (x.to_string(), x <= limit));
    let shutdown = num(doc.get("shutdown"), "p50_micros");
    // The pushing row at the window a device keeps (`WINDOW`).
    let pipelined = row(doc.get("pipelined"), "window", 8);
    let pipelined = num(pipelined, "fsyncs_per_ack");
    let faults = num(doc.get("alloc"), "minor_faults_per_1000");
    let aead = doc.get("aead").and_then(|a| a.get("payloads"));
    let aead = row(aead, "bytes", 64 << 10);
    let seals = num(aead, "seal_mbytes_per_sec").zip(num(aead, "scalar_seal_mbytes_per_sec"));
    let seals = seals.map(|(active, scalar)| (format!("{active} vs {scalar}"), active >= scalar));
    let setup = num(doc.get("setup"), "build_setup_ms").zip(num(doc.get("setup"), "keygen_ms"));
    let setup =
        setup.map(|(build, keygen)| (format!("{build} vs {keygen}"), build <= 0.5 * keygen));
    let gates = [
        ("shutdown p50 <= 50 ms (us)", at_most(shutdown, 50_000.0)),
        ("fsyncs per ack at window 8 <= 0.5", at_most(pipelined, 0.5)),
        (
            "minor faults per 1000 exchanges <= 40000",
            at_most(faults, 40_000.0),
        ),
        ("active AEAD seal >= scalar at 64 KiB (MB/s)", seals),
        ("build_setup <= 0.5x eager keygen (ms)", setup),
    ];
    gates
        .into_iter()
        .filter_map(|(gate, measured)| match measured {
            Some((_, true)) => None,
            Some((value, false)) => Some(format!("{gate}: {value}")),
            None => Some(format!("{gate}: not in the document")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_math::json;

    /// A bench that passes every gate.
    fn sample() -> NetBench {
        let series = |samples: &[u64]| {
            let mut p = PhaseSeries::default();
            samples.iter().for_each(|&s| p.record(s));
            p
        };
        let aead = |payload, seal_mbytes_per_sec| AeadSample {
            payload,
            seal_mbytes_per_sec,
            open_mbytes_per_sec: 1200.0,
            scalar_seal_mbytes_per_sec: 400.25,
            scalar_open_mbytes_per_sec: 410.0,
        };
        NetBench {
            samples: vec![NetSample {
                payload: 1024,
                exchanges: 2,
                secs: 0.5,
                latency_micros: series(&[10, 30]),
            }],
            handshake_micros: series(&[100]),
            proxy: ProxyOverhead {
                payload: 65536,
                direct_micros: series(&[40]),
                proxied_micros: series(&[55]),
            },
            aead: vec![aead(1024, 1234.5), aead(65536, 2200.0)],
            shutdown_micros: series(&[900]),
            group_commit: vec![GroupCommitSample {
                writers: 2,
                acks: 100,
                secs: 0.05,
                syncs: 60,
            }],
            pipelined: vec![PipelinedSample {
                window: WINDOW,
                acks: 100,
                secs: 0.04,
                syncs: 25,
            }],
            alloc: AllocSample {
                payload: 98304,
                exchanges: 200,
                minor_faults: 30,
            },
            setup: SetupSample {
                build_setup_micros: series(&[1250]),
                keygen_micros: series(&[6000]),
            },
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let doc = to_json(&sample());
        let text = doc.to_string();
        assert_eq!(json::parse(&text), Ok(doc));
        assert!(text.starts_with(
            "{\n  \"handshake\": {\"iters\": 1, \"p50_micros\": 100, \"p99_micros\": 100},\n  \
             \"payloads\": [\n    {\"bytes\": 1024, \"exchanges\": 2, \"mbytes_per_sec\": 0.01, \
             \"p50_micros\": 30, \"p99_micros\": 30}\n  ],\n  \"idle_proxy\": {\"bytes\": 65536, \
             \"iters\": 1, \"direct_p50_micros\": 40, \"proxied_p50_micros\": 55, \
             \"overhead_p50_micros\": 15},\n  \"aead\": {\n    \"tier\": \""
        ));
        assert!(text.contains(
            "\",\n    \"payloads\": [\n      {\"bytes\": 1024, \"seal_mbytes_per_sec\": 1234.50, \
             \"open_mbytes_per_sec\": 1200.00, \"scalar_seal_mbytes_per_sec\": 400.25, \
             \"scalar_open_mbytes_per_sec\": 410.00},\n"
        ));
        assert!(text.ends_with(
            "  \"shutdown\": {\"iters\": 1, \"p50_micros\": 900, \"p99_micros\": 900},\n  \
             \"group_commit\": [\n    {\"writers\": 2, \"acks\": 100, \"acks_per_sec\": 2000, \
             \"fsyncs_per_ack\": 0.60}\n  ],\n  \"pipelined\": [\n    {\"window\": 8, \"acks\": 100, \
             \"acks_per_sec\": 2500, \"fsyncs_per_ack\": 0.25}\n  ],\n  \"alloc\": {\"bytes\": 98304, \
             \"exchanges\": 200, \"minor_faults_per_1000\": 150},\n  \"setup\": {\"iters\": 1, \
             \"build_setup_ms\": 1.250, \"keygen_ms\": 6.000}\n}"
        ));
    }

    #[test]
    fn each_gate_fails_a_document_that_breaks_it() {
        assert_eq!(checks(&to_json(&sample())), Vec::<String>::new());
        // A gate's name, and how to break it.
        type Break = (&'static str, fn(&mut NetBench));
        let breaks: [Break; 5] = [
            ("shutdown p50", |b| {
                b.shutdown_micros.completions = vec![60_000]
            }),
            ("fsyncs per ack", |b| b.pipelined[0].syncs = 100),
            ("minor faults", |b| b.alloc.minor_faults = 10_000),
            ("active AEAD seal", |b| {
                b.aead[1].seal_mbytes_per_sec = 399.0
            }),
            ("build_setup", |b| {
                b.setup.build_setup_micros.completions = vec![3_100]
            }),
        ];
        for (gate, break_it) in breaks {
            let mut bench = sample();
            break_it(&mut bench);
            let failed = checks(&to_json(&bench));
            assert_eq!(failed.len(), 1, "{gate}: {failed:?}");
            assert!(failed[0].starts_with(gate), "{gate}: {failed:?}");
        }
        // A document without the fields fails every gate.
        let failed = checks(&Json::obj::<&str>([]));
        assert_eq!(failed.len(), 5);
        assert!(failed.iter().all(|f| f.ends_with("not in the document")));
    }
}
