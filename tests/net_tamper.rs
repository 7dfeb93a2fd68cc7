//! Adversarial transport tests: a relay that flips one byte inside a
//! sealed frame must produce a *typed* AEAD rejection on the receiving
//! side — never a panic, never silently corrupted plaintext — and the
//! client's retry loop must recover the exchange over a fresh
//! connection. A relay that *truncates* a frame at any byte boundary,
//! or a peer that accepts the handshake and then goes silent, must
//! produce typed timeouts/disconnects — never hang the client (every
//! exchange below runs under a watchdog).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::client::{Client, ClientConfig};
use mycelium_net::error::NetError;
use mycelium_net::frame::HEADER_LEN;
use mycelium_net::netchaos::{ChaosProxy, FaultKind, LinkFault, NetFaultPlan};
use mycelium_net::server::{Handler, Server, ServerConfig};
use mycelium_net::Identity;
use mycelium_simnet::BackoffPolicy;

/// Runs `f` on a helper thread and fails the test if it has not
/// finished within `secs` — the degraded-mode invariant is "typed
/// failure, never a hang", and this is the hang detector.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("watchdog: transport operation hung")
}

/// Reads one whole frame (header + payload) off a raw stream.
fn read_raw_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).ok()?;
    let len = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
    let mut frame = vec![0u8; HEADER_LEN + len];
    frame[..HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[HEADER_LEN..]).ok()?;
    Some(frame)
}

fn checksum_server(seed: u64) -> (Server, [u8; 32]) {
    let identity = Identity::derive(seed, 0);
    let public = identity.public;
    // Replies with a digest of the request, so a corrupted request that
    // somehow slipped through would produce a visibly wrong reply.
    let handler: Arc<dyn Handler> =
        Arc::new(|_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> {
            Ok(mycelium_crypto::sha256(req).to_vec())
        });
    let server = Server::spawn(
        "127.0.0.1:0",
        identity,
        ServerConfig::default(),
        handler,
        seed,
    )
    .expect("server spawns");
    (server, public)
}

/// A [`ChaosProxy`] in front of `server` (role 0) replaying `faults` on
/// the link of client role 100 under `seed`.
fn link_proxy(server: &Server, seed: u64, faults: Vec<LinkFault>) -> ChaosProxy {
    let mut plan = NetFaultPlan::default();
    plan.links.entry((0, 100)).or_default().faults = faults;
    let roster = [(Identity::derive(seed, 100).public, 100)];
    ChaosProxy::spawn(server.local_addr(), 0, &plan, &roster).expect("proxy spawns")
}

#[test]
fn tampered_frame_is_rejected_and_retry_recovers() {
    let (server, server_pub) = checksum_server(31);
    let flip = LinkFault {
        ordinal: 1,
        kind: FaultKind::Flip,
    };
    let proxy = link_proxy(&server, 31, vec![flip]);

    let mut config = ClientConfig::new(Identity::derive(31, 100), Some(server_pub));
    config.backoff = BackoffPolicy::new(1, 6);
    let mut client = Client::new(proxy.local_addr(), config, StdRng::seed_from_u64(44));

    // The link's first request is the proxy's tampering target.
    let payload = vec![0xabu8; 64 << 10];
    let reply = client.request("Sum", &payload).expect("retry must recover");
    assert_eq!(reply, mycelium_crypto::sha256(&payload).to_vec());

    // The proxy tampered exactly one frame; the server's AEAD rejected
    // it (typed, counted — the process is alive, so it didn't panic),
    // and the client went through at least one reconnect to recover.
    assert_eq!(proxy.ledger().flips, 1);
    assert!(client.metrics().lock().unwrap().reconnects >= 1);
    assert!(server.metrics().lock().unwrap().aead_rejects >= 1);

    // The channel through the proxy still works cleanly afterwards.
    let small = b"post-tamper".to_vec();
    let reply = client.request("Sum", &small).expect("clean exchange");
    assert_eq!(reply, mycelium_crypto::sha256(&small).to_vec());

    proxy.shutdown();
    server.shutdown();
}

#[test]
fn small_frames_pass_untampered() {
    let (server, server_pub) = checksum_server(37);
    // The empty plan: the proxy is a pure relay.
    let proxy = link_proxy(&server, 37, Vec::new());
    let mut client = Client::new(
        proxy.local_addr(),
        ClientConfig::new(Identity::derive(37, 100), Some(server_pub)),
        StdRng::seed_from_u64(45),
    );
    for i in 0..5u8 {
        let msg = vec![i; 257];
        assert_eq!(
            client.request("Sum", &msg).unwrap(),
            mycelium_crypto::sha256(&msg).to_vec()
        );
    }
    assert_eq!(proxy.ledger().flips, 0);
    assert_eq!(client.metrics().lock().unwrap().reconnects, 0);
    proxy.shutdown();
    server.shutdown();
}

/// Which server→client frame a truncating relay cuts short.
#[derive(Clone, Copy, PartialEq)]
enum CutTarget {
    /// The plaintext ServerHello (mid-handshake truncation).
    ServerHello,
    /// The sealed data reply (mid-exchange truncation).
    Reply,
}

/// A relay that forwards everything verbatim except one server→client
/// frame, which it truncates after `cut` bytes and then closes both
/// sides. Each accepted connection re-reads the shared `cut`.
fn truncating_relay(
    upstream: std::net::SocketAddr,
    target: CutTarget,
    cut: Arc<AtomicUsize>,
    frame_len: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut client) = stream else { break };
            let cut = cut.load(Ordering::SeqCst);
            let frame_len = Arc::clone(&frame_len);
            std::thread::spawn(move || {
                let Ok(mut server) = TcpStream::connect(upstream) else {
                    return;
                };
                // ClientHello up, then ServerHello down.
                let Some(ch) = read_raw_frame(&mut client) else {
                    return;
                };
                if server.write_all(&ch).is_err() {
                    return;
                }
                let Some(sh) = read_raw_frame(&mut server) else {
                    return;
                };
                if target == CutTarget::ServerHello {
                    frame_len.store(sh.len(), Ordering::SeqCst);
                    let _ = client.write_all(&sh[..cut.min(sh.len() - 1)]);
                    return; // dropping the sockets closes both sides
                }
                if client.write_all(&sh).is_err() {
                    return;
                }
                // Confirms (client→server, then server→client), then the
                // request; the reply is the truncation target.
                for client_sends in [true, false, true] {
                    let (from, to) = if client_sends {
                        (&mut client, &mut server)
                    } else {
                        (&mut server, &mut client)
                    };
                    let Some(frame) = read_raw_frame(from) else {
                        return;
                    };
                    if to.write_all(&frame).is_err() {
                        return;
                    }
                }
                let Some(reply) = read_raw_frame(&mut server) else {
                    return;
                };
                frame_len.store(reply.len(), Ordering::SeqCst);
                let _ = client.write_all(&reply[..cut.min(reply.len() - 1)]);
            });
        }
    });
    addr
}

/// Walks `cut` over every byte boundary of the targeted frame: each
/// truncation must surface as a typed error within the watchdog budget
/// — never a hang, never a bogus success.
fn assert_every_truncation_is_typed(seed: u64, target: CutTarget) {
    let (server, server_pub) = checksum_server(seed);
    let cut = Arc::new(AtomicUsize::new(0));
    let frame_len = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let addr = truncating_relay(
        server.local_addr(),
        target,
        Arc::clone(&cut),
        Arc::clone(&frame_len),
        Arc::clone(&stop),
    );
    let mut at = 0usize;
    loop {
        cut.store(at, Ordering::SeqCst);
        let err = with_watchdog(20, move || {
            let mut config = ClientConfig::new(Identity::derive(seed, 100), Some(server_pub));
            config.backoff = BackoffPolicy::new(1, 0); // no retries: surface the raw failure
            config.read_timeout = Duration::from_millis(400);
            let mut client = Client::new(addr, config, StdRng::seed_from_u64(seed ^ at as u64));
            client
                .request("Sum", b"boundary")
                .expect_err("truncated exchange cannot succeed")
        });
        // A truncated frame either dies as a disconnect or starves the
        // read deadline; with the retry budget at zero both surface as
        // RetriesExhausted wrapping the typed transport error.
        assert!(
            matches!(err, NetError::RetriesExhausted { attempts: 1, .. }),
            "cut {at}: want typed RetriesExhausted, got {err:?}"
        );
        let len = frame_len.load(Ordering::SeqCst);
        assert!(len > 0, "relay never saw the target frame");
        if at + 1 >= len {
            break;
        }
        at += 1;
    }
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr); // unblock the accept loop
    server.shutdown();
}

#[test]
fn reply_truncated_at_every_boundary_is_typed() {
    assert_every_truncation_is_typed(41, CutTarget::Reply);
}

#[test]
fn handshake_truncated_at_every_boundary_is_typed() {
    assert_every_truncation_is_typed(43, CutTarget::ServerHello);
}

#[test]
fn handshake_then_silent_peer_times_out_typed() {
    // A malicious "server" that accepts, reads the ClientHello, and
    // then holds the socket open in silence. The client must convert
    // the silence into a typed deadline expiry — never hang.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let mut hello = [0u8; 256];
        let _ = stream.read(&mut hello);
        // Keep the socket open until the test finishes.
        let _ = done_rx.recv_timeout(Duration::from_secs(30));
    });
    let (err, expiries) = with_watchdog(20, move || {
        let mut config = ClientConfig::new(Identity::derive(47, 100), None);
        config.backoff = BackoffPolicy::new(1, 0);
        config.read_timeout = Duration::from_millis(300);
        let mut client = Client::new(addr, config, StdRng::seed_from_u64(47));
        let err = client
            .request("Sum", b"anyone there?")
            .expect_err("silence cannot succeed");
        let expiries = client.metrics().lock().unwrap().deadline_expiries;
        (err, expiries)
    });
    assert!(
        matches!(err, NetError::RetriesExhausted { attempts: 1, .. }),
        "want typed RetriesExhausted, got {err:?}"
    );
    assert_eq!(
        expiries, 1,
        "the silent peer must be charged to the read deadline"
    );
    drop(done_tx);
}
