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
//! buffers their connection keeps. The emitted `BENCH_net.json` has a
//! fixed field order and precision so diffs stay readable.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mycelium_crypto::aead;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::client::{Client, ClientConfig};
use mycelium_net::error::NetError;
use mycelium_net::journal::Journal;
use mycelium_net::metrics::minor_faults;
use mycelium_net::netchaos::{ChaosProxy, NetFaultPlan};
use mycelium_net::round::{role, WINDOW};
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
    NetBench {
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

/// Renders the fixed-order JSON document.
pub fn to_json(bench: &NetBench) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"handshake\": {");
    out.push_str(&format!(
        "\"iters\": {}, \"p50_micros\": {}, \"p99_micros\": {}",
        bench.handshake_micros.count(),
        bench.handshake_micros.p50(),
        bench.handshake_micros.p99(),
    ));
    out.push_str("},\n  \"payloads\": [\n");
    for (i, s) in bench.samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bytes\": {}, \"exchanges\": {}, \"mbytes_per_sec\": {:.2}, \
             \"p50_micros\": {}, \"p99_micros\": {}}}{}\n",
            s.payload,
            s.exchanges,
            s.mbytes_per_sec(),
            s.latency_micros.p50(),
            s.latency_micros.p99(),
            if i + 1 == bench.samples.len() {
                ""
            } else {
                ","
            },
        ));
    }
    out.push_str("  ],\n  \"idle_proxy\": {");
    out.push_str(&format!(
        "\"bytes\": {}, \"iters\": {}, \"direct_p50_micros\": {}, \
         \"proxied_p50_micros\": {}, \"overhead_p50_micros\": {}",
        bench.proxy.payload,
        bench.proxy.proxied_micros.count(),
        bench.proxy.direct_micros.p50(),
        bench.proxy.proxied_micros.p50(),
        bench
            .proxy
            .proxied_micros
            .p50()
            .saturating_sub(bench.proxy.direct_micros.p50()),
    ));
    out.push_str(&format!(
        "}},\n  \"aead\": {{\"tier\": \"{}\", \"payloads\": [\n",
        aead_tier_name()
    ));
    for (i, s) in bench.aead.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bytes\": {}, \"seal_mbytes_per_sec\": {:.2}, \"open_mbytes_per_sec\": {:.2}, \"scalar_seal_mbytes_per_sec\": {:.2}, \"scalar_open_mbytes_per_sec\": {:.2}}}{}\n",
            s.payload,
            s.seal_mbytes_per_sec,
            s.open_mbytes_per_sec,
            s.scalar_seal_mbytes_per_sec,
            s.scalar_open_mbytes_per_sec,
            if i + 1 == bench.aead.len() { "" } else { "," },
        ));
    }
    out.push_str(&format!(
        "  ]}},\n  \"shutdown\": {{\"iters\": {}, \"p50_micros\": {}, \"p99_micros\": {}}},\n",
        bench.shutdown_micros.count(),
        bench.shutdown_micros.p50(),
        bench.shutdown_micros.p99(),
    ));
    out.push_str("  \"group_commit\": [\n");
    for (i, g) in bench.group_commit.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"writers\": {}, \"acks\": {}, \"acks_per_sec\": {:.0}, \"fsyncs_per_ack\": {:.2}}}{}\n",
            g.writers,
            g.acks,
            g.acks as f64 / g.secs,
            g.syncs as f64 / g.acks as f64,
            if i + 1 == bench.group_commit.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"pipelined\": [\n");
    for (i, p) in bench.pipelined.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"window\": {}, \"acks\": {}, \"acks_per_sec\": {:.0}, \"fsyncs_per_ack\": {:.2}}}{}\n",
            p.window,
            p.acks,
            p.acks as f64 / p.secs,
            p.syncs as f64 / p.acks as f64,
            if i + 1 == bench.pipelined.len() { "" } else { "," },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"alloc\": {{\"bytes\": {}, \"exchanges\": {}, \"minor_faults_per_1000\": {:.0}}}\n}}\n",
        bench.alloc.payload,
        bench.alloc.exchanges,
        1000.0 * bench.alloc.minor_faults as f64 / bench.alloc.exchanges as f64,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let mut latency = PhaseSeries::default();
        latency.record(10);
        latency.record(30);
        let mut handshake_micros = PhaseSeries::default();
        handshake_micros.record(100);
        let mut direct_micros = PhaseSeries::default();
        direct_micros.record(40);
        let mut proxied_micros = PhaseSeries::default();
        proxied_micros.record(55);
        let mut shutdown_micros = PhaseSeries::default();
        shutdown_micros.record(900);
        let bench = NetBench {
            samples: vec![NetSample {
                payload: 1024,
                exchanges: 2,
                secs: 0.5,
                latency_micros: latency,
            }],
            handshake_micros,
            proxy: ProxyOverhead {
                payload: 65536,
                direct_micros,
                proxied_micros,
            },
            aead: vec![AeadSample {
                payload: 1024,
                seal_mbytes_per_sec: 1234.5,
                open_mbytes_per_sec: 1200.0,
                scalar_seal_mbytes_per_sec: 400.25,
                scalar_open_mbytes_per_sec: 410.0,
            }],
            shutdown_micros,
            group_commit: vec![GroupCommitSample {
                writers: 2,
                acks: 100,
                secs: 0.05,
                syncs: 60,
            }],
            pipelined: vec![PipelinedSample {
                window: 8,
                acks: 100,
                secs: 0.04,
                syncs: 25,
            }],
            alloc: AllocSample {
                payload: 98304,
                exchanges: 200,
                minor_faults: 30,
            },
        };
        let json = to_json(&bench);
        assert!(json.contains("\"bytes\": 1024"));
        assert!(json.contains("\"mbytes_per_sec\": 0.01"));
        assert!(json.contains("\"p99_micros\": 30"));
        assert!(json.contains("\"idle_proxy\": {\"bytes\": 65536, \"iters\": 1"));
        assert!(json.contains("\"overhead_p50_micros\": 15"));
        assert!(json.contains("\"overhead_p50_micros\": 15},\n  \"aead\": {\"tier\": \""));
        assert!(json.contains("{\"bytes\": 1024, \"seal_mbytes_per_sec\": 1234.50, \"open_mbytes_per_sec\": 1200.00, \"scalar_seal_mbytes_per_sec\": 400.25, \"scalar_open_mbytes_per_sec\": 410.00}\n"));
        assert!(json.contains(
            "  ]},\n  \"shutdown\": {\"iters\": 1, \"p50_micros\": 900, \"p99_micros\": 900},\n"
        ));
        assert!(json.contains(
            "  \"group_commit\": [\n    {\"writers\": 2, \"acks\": 100, \"acks_per_sec\": 2000, \"fsyncs_per_ack\": 0.60}\n  ],\n"
        ));
        assert!(json.ends_with(
            "  \"pipelined\": [\n    {\"window\": 8, \"acks\": 100, \"acks_per_sec\": 2500, \"fsyncs_per_ack\": 0.25}\n  ],\n  \"alloc\": {\"bytes\": 98304, \"exchanges\": 200, \"minor_faults_per_1000\": 150}\n}\n"
        ));
    }
}
