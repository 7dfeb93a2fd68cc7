//! Reconnecting request/response client.
//!
//! A [`Client`] owns at most one live [`SecureChannel`] to its server and
//! exposes a single blocking [`request`](Client::request) call. Any
//! transport failure — dial refused, read deadline missed, peer died,
//! frame tampered in flight — tears the channel down, waits out the
//! shared [`BackoffPolicy`] schedule (the same one the simulated
//! transport uses, in milliseconds instead of virtual ticks), re-dials,
//! re-handshakes, and re-sends. Servers keep handlers idempotent, so
//! at-least-once delivery is safe.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mycelium_math::rng::StdRng;
use mycelium_simnet::BackoffPolicy;

use crate::channel::{client_handshake, Identity, SecureChannel};
use crate::error::NetError;
use crate::frame::HEADER_LEN;
use crate::lock_recover;
use crate::metrics::NetMetrics;

/// Client tuning knobs.
#[derive(Clone)]
pub struct ClientConfig {
    /// This endpoint's static identity.
    pub identity: Identity,
    /// The server's expected static key (`None` skips pinning).
    pub expect_peer: Option<[u8; 32]>,
    /// Largest accepted reply payload.
    pub max_payload: usize,
    /// Per-request read deadline.
    pub read_timeout: Duration,
    /// Reconnect/retry schedule, `base` in milliseconds.
    pub backoff: BackoffPolicy,
}

impl ClientConfig {
    /// A config with the deployment-default deadline and backoff.
    pub fn new(identity: Identity, expect_peer: Option<[u8; 32]>) -> Self {
        ClientConfig {
            identity,
            expect_peer,
            max_payload: crate::frame::DEFAULT_MAX_PAYLOAD,
            read_timeout: Duration::from_secs(10),
            backoff: BackoffPolicy::new(50, 8),
        }
    }
}

/// A pooling, reconnecting client for one server address.
pub struct Client {
    server: SocketAddr,
    config: ClientConfig,
    channel: Option<SecureChannel>,
    rng: StdRng,
    metrics: Arc<Mutex<NetMetrics>>,
}

impl Client {
    /// Creates a client; nothing is dialed until the first request.
    pub fn new(server: SocketAddr, config: ClientConfig, rng: StdRng) -> Self {
        Client::with_metrics(server, config, rng, NetMetrics::shared())
    }

    /// Creates a client that accumulates into an existing metrics
    /// handle — used when a caller replaces its client (address
    /// re-resolution after a server restart) but must not lose the
    /// counters gathered so far.
    pub fn with_metrics(
        server: SocketAddr,
        config: ClientConfig,
        rng: StdRng,
        metrics: Arc<Mutex<NetMetrics>>,
    ) -> Self {
        Client {
            server,
            config,
            channel: None,
            rng,
            metrics,
        }
    }

    /// The client's accumulated wire metrics.
    pub fn metrics(&self) -> Arc<Mutex<NetMetrics>> {
        Arc::clone(&self.metrics)
    }

    /// Dials and handshakes if no channel is live.
    fn ensure_channel(&mut self) -> Result<(), NetError> {
        if self.channel.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(self.server)?;
        stream.set_nodelay(true).ok();
        // The handshake itself runs under the request deadline: a server
        // that accepts and then stalls must surface as a typed timeout,
        // not hang the client before `set_read_timeout` is reached.
        stream.set_read_timeout(Some(self.config.read_timeout)).ok();
        stream
            .set_write_timeout(Some(self.config.read_timeout))
            .ok();
        let channel = client_handshake(
            stream,
            &self.config.identity,
            self.config.expect_peer,
            &mut self.rng,
            self.config.max_payload,
            Arc::clone(&self.metrics),
        )?;
        channel.set_read_timeout(Some(self.config.read_timeout))?;
        self.channel = Some(channel);
        Ok(())
    }

    /// Forces the next request onto a fresh connection (used by tests and
    /// by the driver after a server restart).
    pub fn disconnect(&mut self) {
        self.channel = None;
    }

    /// Sends `payload`, waits for the reply, retrying over fresh
    /// connections per the backoff schedule. `kind` labels the exchange
    /// in the metrics.
    pub fn request(&mut self, kind: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let started = Instant::now();
        let mut attempts: u32 = 0;
        // Overload rejections are backpressure, not failure: they get
        // their own (larger) budget and never count against the normal
        // retry schedule, so a congested-but-healthy server is waited
        // out rather than declared dead.
        let mut overload_attempts: u32 = 0;
        let overload_budget = 4 * (self.config.backoff.max_retries + 1);
        loop {
            let result = self.try_once(payload);
            match result {
                Ok(reply) => {
                    let mut m = lock_recover(&self.metrics);
                    let sealed = SecureChannel::wire_cost(payload.len());
                    m.note_sent(kind, payload.len() as u64, sealed as u64);
                    m.note_recv(
                        kind,
                        reply.len() as u64,
                        SecureChannel::wire_cost(reply.len()) as u64,
                    );
                    m.note_latency(kind, started.elapsed().as_micros() as u64);
                    return Ok(reply);
                }
                Err(NetError::Overloaded) => {
                    // The channel is still frame-aligned (the rejection
                    // was a sealed frame); back off and re-send on it.
                    if overload_attempts >= overload_budget {
                        return Err(NetError::RetriesExhausted {
                            attempts: overload_attempts,
                            last: NetError::Overloaded.to_string(),
                        });
                    }
                    let wait = self
                        .config
                        .backoff
                        .wait_jittered(overload_attempts.min(5), &mut self.rng);
                    overload_attempts += 1;
                    lock_recover(&self.metrics).overload_backoffs += 1;
                    std::thread::sleep(Duration::from_millis(wait));
                }
                Err(e) if e.is_retryable() => {
                    self.channel = None;
                    {
                        let mut m = lock_recover(&self.metrics);
                        m.retries += 1;
                        if e.is_deadline() {
                            m.deadline_expiries += 1;
                        }
                    }
                    if self.config.backoff.exhausted(attempts) {
                        return Err(NetError::RetriesExhausted {
                            attempts: attempts + 1,
                            last: e.to_string(),
                        });
                    }
                    // Full jitter decorrelates the retry storm when many
                    // clients lose the same server at once.
                    let wait = self.config.backoff.wait_jittered(attempts, &mut self.rng);
                    attempts += 1;
                    lock_recover(&self.metrics).reconnects += 1;
                    std::thread::sleep(Duration::from_millis(wait));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_once(&mut self, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.ensure_channel()?;
        let channel = self.channel.as_mut().expect("ensured above");
        channel.send(payload)?;
        channel.recv()
    }
}

/// Per-frame overhead (header + AEAD tag) — the exact delta the
/// reconciliation test charges on top of application payload bytes.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + mycelium_crypto::aead::OVERHEAD;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Handler, Server, ServerConfig};
    use mycelium_math::rng::SeedableRng;

    fn echo_server(seed: u64) -> (Server, [u8; 32]) {
        let identity = Identity::derive(seed, 0);
        let public = identity.public;
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
        (server, public)
    }

    #[test]
    fn request_reply_and_metrics() {
        let (server, server_pub) = echo_server(11);
        let mut client = Client::new(
            server.local_addr(),
            ClientConfig::new(Identity::derive(11, 100), Some(server_pub)),
            StdRng::seed_from_u64(5),
        );
        assert_eq!(client.request("Echo", b"ping").unwrap(), b"ping");
        assert_eq!(client.request("Echo", b"pong").unwrap(), b"pong");
        let m = client.metrics();
        let m = m.lock().unwrap();
        assert_eq!(m.sent["Echo"].frames, 2);
        assert_eq!(m.sent["Echo"].payload_bytes, 8);
        assert_eq!(m.sent["Echo"].wire_bytes, 2 * (4 + FRAME_OVERHEAD) as u64);
        assert_eq!(m.handshakes, 1);
        assert_eq!(m.latency["Echo"].count(), 2);
        drop(m);
        server.shutdown();
    }

    #[test]
    fn reconnects_after_channel_loss() {
        let (server, server_pub) = echo_server(13);
        let mut config = ClientConfig::new(Identity::derive(13, 100), Some(server_pub));
        config.backoff = BackoffPolicy::new(1, 4);
        let mut client = Client::new(server.local_addr(), config, StdRng::seed_from_u64(6));
        assert_eq!(client.request("Echo", b"a").unwrap(), b"a");
        // Simulate a dead connection: the next send hits a closed socket
        // and the client must transparently re-dial.
        client.disconnect();
        assert_eq!(client.request("Echo", b"b").unwrap(), b"b");
        assert_eq!(client.metrics().lock().unwrap().handshakes, 2);
        server.shutdown();
    }

    #[test]
    fn overload_rejection_is_absorbed_not_fatal() {
        use crate::channel::server_handshake;
        // A hand-rolled server that refuses the first request with a
        // sealed Busy frame and answers the re-send for real.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_id = Identity::derive(23, 0);
        let server_pub = server_id.public;
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            let mut ch = server_handshake(
                stream,
                &server_id,
                None,
                &mut rng,
                1 << 20,
                NetMetrics::shared(),
            )
            .unwrap();
            ch.recv().unwrap();
            ch.send_busy().unwrap();
            let again = ch.recv().unwrap();
            ch.send(&again).unwrap();
        });
        let mut config = ClientConfig::new(Identity::derive(23, 100), Some(server_pub));
        config.backoff = BackoffPolicy::new(1, 3);
        let mut client = Client::new(addr, config, StdRng::seed_from_u64(9));
        assert_eq!(client.request("Echo", b"pressure").unwrap(), b"pressure");
        let m = client.metrics();
        let m = m.lock().unwrap();
        assert_eq!(m.overload_backoffs, 1);
        assert_eq!(m.retries, 0, "backpressure is not a retry");
        assert_eq!(m.handshakes, 1, "the channel survived the rejection");
        drop(m);
        handle.join().unwrap();
    }

    #[test]
    fn retries_exhaust_against_dead_server() {
        // Bind a port, then close it so connects are refused.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut config = ClientConfig::new(Identity::derive(17, 100), None);
        config.backoff = BackoffPolicy::new(1, 3);
        let mut client = Client::new(addr, config, StdRng::seed_from_u64(7));
        match client.request("Echo", b"x") {
            Err(NetError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 4),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }
}
