//! A guided tour of the network chaos plane.
//!
//! ```text
//! cargo run --release --example netchaos_tour
//! ```
//!
//! Four stops, all over real loopback sockets:
//!
//! 1. a seeded fault plan, printed — the same derivation every run, so
//!    every fault a seed fires is known before a single byte moves;
//! 2. a live [`ChaosProxy`] tearing a request mid-frame at a scheduled
//!    ordinal, and the client's typed retry machinery absorbing it;
//! 3. a dropped reply — the classic "applied write, lost ack" window —
//!    and the server's first-write-wins dedup suppressing the retry's
//!    duplicate, with both sides' counters reconciling exactly;
//! 4. an adversary in the middle flipping one bit of a sealed request:
//!    the server's AEAD rejects it typed, and the retry recovers.
//!
//! The full seed-matrix runner (every server proxied, verdict judged
//! against the plaintext oracle, fault counts reconciled against the
//! merged transport metrics) lives in the `chaos_round` binary:
//! `cargo run --release --bin chaos_round -- netchaos --out /tmp/nc`.

use std::sync::Arc;

use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::client::{Client, ClientConfig};
use mycelium_net::error::NetError;
use mycelium_net::netchaos::{ChaosProxy, FaultKind, LinkFault, NetFaultPlan, NetProfile};
use mycelium_net::round::{build_setup, role, RoundSpec};
use mycelium_net::server::{Handler, Server, ServerConfig};
use mycelium_net::Identity;
use mycelium_simnet::BackoffPolicy;

fn main() {
    // ---- Stop 1: deterministic fault plans.
    let spec = RoundSpec {
        n: 12,
        device_shards: 3,
        origin_shards: 2,
        ..RoundSpec::default()
    };
    let setup = build_setup(&spec).expect("setup");
    println!("netchaos tour: seeded link-fault plans over the round topology");
    println!();
    for seed in 1..=3u64 {
        let plan = NetFaultPlan::derive(&NetProfile::Seeded(seed), &setup);
        let injected = plan.injected();
        println!(
            "  seed {seed}: {} reset(s), {} dropped repl(y/ies), {} stall(s), \
             {} latency link(s), {} partition window(s) across {} faulted link(s)",
            injected.resets,
            injected.reply_drops,
            injected.stall_replies + injected.stall_requests,
            plan.links.values().filter(|l| l.latency.is_some()).count(),
            plan.partitions.len(),
            plan.links.len(),
        );
    }
    let empty = NetFaultPlan::derive(&NetProfile::Seeded(0), &setup);
    assert!(empty.links.is_empty() && empty.partitions.is_empty());
    println!("  seed 0: the empty plan — the proxy relays every byte untouched");
    println!();

    // ---- Stop 2: a mid-frame reset, absorbed typed.
    let identity = setup.aggregator_identity();
    let server_pub = identity.public;
    let echo: Arc<dyn Handler> =
        Arc::new(|_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> { Ok(req.to_vec()) });
    let config = ServerConfig {
        roster: Some(setup.roster()),
        ..ServerConfig::default()
    };
    let server = Server::spawn("127.0.0.1:0", identity, config, echo, spec.seed).expect("server");
    let mut plan = NetFaultPlan::default();
    plan.links
        .entry((role::AGGREGATOR, role::DRIVER))
        .or_default()
        .faults
        .extend([
            LinkFault {
                ordinal: 2,
                kind: FaultKind::Reset { tear: 9 },
            },
            LinkFault {
                // Request 2's retry was the link's ordinal 3.
                ordinal: 5,
                kind: FaultKind::DropReply,
            },
            LinkFault {
                ordinal: 7,
                kind: FaultKind::Flip,
            },
        ]);
    let roster = setup.link_roster();
    let proxy =
        ChaosProxy::spawn(server.local_addr(), role::AGGREGATOR, &plan, &roster).expect("proxy");
    let mut config = ClientConfig::new(Identity::derive(spec.seed, role::DRIVER), Some(server_pub));
    config.backoff = BackoffPolicy::new(10, 4);
    let mut client = Client::new(proxy.local_addr(), config, StdRng::seed_from_u64(7));

    client.request("Echo", b"request 1: clean").unwrap();
    client
        .request(
            "Echo",
            b"request 2: torn 9 bytes in, retried on a fresh connection",
        )
        .unwrap();
    {
        let metrics = client.metrics();
        let m = metrics.lock().unwrap();
        println!(
            "  mid-frame reset at link ordinal 2: {} retry, {} reconnect(s) — \
             typed recovery, same reply",
            m.retries, m.reconnects
        );
    }

    // ---- Stop 3: the dropped-reply window.
    client.request("Echo", b"request 3: clean").unwrap();
    client
        .request("Echo", b"request 4: applied, ack swallowed, redelivered")
        .unwrap();
    let metrics = client.metrics();
    let m = metrics.lock().unwrap();
    println!(
        "  dropped reply at link ordinal 5: the retry redelivered an already-applied \
         write ({} total retries)",
        m.retries
    );
    drop(m);

    // ---- Stop 4: one flipped bit.
    let sealed = b"request 5: one bit flipped in flight, rejected by the AEAD, retried";
    assert_eq!(client.request("Echo", sealed).unwrap(), sealed);
    println!(
        "  flipped bit at link ordinal 7: server counted {} AEAD rejection(s), nothing \
         applied — the retry got the reply intact",
        server.metrics().lock().unwrap().aead_rejects
    );
    println!();
    println!("  proxy fault ledger: {}", proxy.ledger().to_json());
    println!(
        "  reconciliation: ledger resets + reply drops + flips == client retries ({}), \
         exactly — the identity CHAOS_net.json enforces per seed",
        metrics.lock().unwrap().retries
    );
    proxy.shutdown();
    server.shutdown();
}
