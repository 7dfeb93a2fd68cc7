//! Reconnecting, pipelining request/response client.
//!
//! A [`Client`] owns at most one live [`SecureChannel`] to its server and
//! a queue of the requests it has sent and not yet seen answered — a
//! *windowed session*. [`Client::send`] puts one more request on the wire
//! without waiting; [`Client::recv`] returns the reply to the oldest
//! unanswered one (the server answers a connection's requests in order,
//! and the channel's sequence numbers make any other order a typed
//! error). [`Client::request`] is the two in a row: send, then receive
//! until nothing is unanswered. How many requests a caller keeps in flight
//! is its own business ([`Client::in_flight`]); the one rule is not to
//! write a large request while a large reply is outstanding — neither end
//! reads while it writes.
//!
//! Both calls run on one path ([`Client::drive`]): any transport failure
//! — dial refused, deadline missed, peer died, frame tampered in flight —
//! tears the channel down, waits out the shared [`BackoffPolicy`] schedule
//! (the same one the simulated transport uses, in milliseconds instead of
//! virtual ticks), re-dials, re-handshakes, and re-sends **every**
//! unanswered request in its original order; a sealed `Busy` for the
//! oldest one backs off and re-sends them on the same connection. One
//! lost connection is one retry however many requests it carried. Servers
//! keep handlers idempotent (first write wins), so at-least-once delivery
//! is safe — a re-sent request the server had already applied is answered
//! as a duplicate. Only what is really unanswered is re-sent: when a
//! connection dies under a *write*, the replies that had arrived on it
//! before are read off it first ([`Client::salvage`]), so a lost reply
//! costs exactly one duplicate, not one per reply the client had not got
//! round to reading.

use std::collections::VecDeque;
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
use crate::wire::Writer;

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

/// A request that has been sent (or is about to be) and not yet answered.
struct Unanswered {
    kind: &'static str,
    /// The encoded request: what a re-send puts on the wire again.
    payload: Vec<u8>,
    /// When it was first sent; its latency counts from here.
    sent: Instant,
}

/// A reconnecting client for one server address.
pub struct Client {
    server: SocketAddr,
    config: ClientConfig,
    channel: Option<SecureChannel>,
    rng: StdRng,
    metrics: Arc<Mutex<NetMetrics>>,
    /// Oldest first.
    unanswered: VecDeque<Unanswered>,
    /// How many of them, from the front, are on the live channel's wire.
    on_wire: usize,
    /// Payload buffers of answered requests, kept for the next ones.
    spare: Vec<Vec<u8>>,
    /// Replies read off a connection that died under a write, oldest
    /// first: they answer requests older than any still unanswered.
    salvaged: VecDeque<Vec<u8>>,
    /// The salvaged reply [`recv`](Self::recv) last lent out.
    lent: Vec<u8>,
}

impl Client {
    /// Creates a client; nothing is dialed until the first request.
    pub fn new(server: SocketAddr, config: ClientConfig, rng: StdRng) -> Self {
        Client {
            server,
            config,
            channel: None,
            rng,
            metrics: NetMetrics::shared(),
            unanswered: VecDeque::new(),
            on_wire: 0,
            spare: Vec::new(),
            salvaged: VecDeque::new(),
            lent: Vec::new(),
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

    /// Hangs up: whatever is unanswered goes out again, over a fresh
    /// connection, with the next call (used by tests and by the driver
    /// after a server restart).
    pub fn disconnect(&mut self) {
        self.channel = None;
        self.on_wire = 0;
    }

    /// Hangs up and dials `server` from now on — a respawned server
    /// publishes a new address. Unanswered requests and the metrics
    /// gathered so far stay with the client.
    pub fn redirect(&mut self, server: SocketAddr) {
        self.disconnect();
        self.server = server;
    }

    /// Requests sent (or queued) whose replies [`recv`](Self::recv) has not
    /// handed over yet.
    pub fn in_flight(&self) -> usize {
        self.unanswered.len() + self.salvaged.len()
    }

    /// Queues the request `fill` encodes behind the unanswered ones,
    /// without touching the wire. `kind` labels the exchange in the
    /// metrics.
    pub(crate) fn enqueue(&mut self, kind: &'static str, fill: impl FnOnce(&mut Writer)) {
        let mut payload = self.spare.pop().unwrap_or_default();
        payload.clear();
        let mut w = Writer::over(payload);
        fill(&mut w);
        self.unanswered.push_back(Unanswered {
            kind,
            payload: w.finish(),
            sent: Instant::now(),
        });
    }

    /// Puts every queued request that is not yet on the wire there,
    /// retrying over fresh connections per the backoff schedule. On an
    /// error the requests stay queued.
    pub(crate) fn flush(&mut self) -> Result<(), NetError> {
        self.drive(false)
    }

    /// Puts the request `fill` encodes in flight behind the unanswered
    /// ones, its reply not waited for. On an error it stays queued: the
    /// next call re-sends it.
    pub fn send(
        &mut self,
        kind: &'static str,
        fill: impl FnOnce(&mut Writer),
    ) -> Result<(), NetError> {
        self.enqueue(kind, fill);
        self.flush()
    }

    /// Waits for the reply to the oldest unanswered request, retrying —
    /// every unanswered request re-sent in order — over fresh connections
    /// per the backoff schedule. The reply is lent out of the channel's
    /// buffer until the next call.
    pub fn recv(&mut self) -> Result<&[u8], NetError> {
        if self.in_flight() == 0 {
            return Err(NetError::Decode("no request is awaiting a reply".into()));
        }
        self.drive(true)?;
        if let Some(reply) = self.salvaged.pop_front() {
            self.lent = reply;
            return Ok(&self.lent);
        }
        self.answered();
        let channel = self.channel.as_ref().expect("a reply just arrived on it");
        Ok(channel.received())
    }

    /// Books the oldest unanswered request as answered by the reply the
    /// channel has just received.
    fn answered(&mut self) {
        let answered = self.unanswered.pop_front().expect("a reply has a request");
        self.on_wire -= 1;
        let channel = self.channel.as_ref().expect("a reply just arrived on it");
        let (sent, got) = (answered.payload.len(), channel.received().len());
        let wire = |len| SecureChannel::wire_cost(len) as u64;
        let mut m = lock_recover(&self.metrics);
        m.note_sent(answered.kind, sent as u64, wire(sent));
        m.note_recv(answered.kind, got as u64, wire(got));
        m.note_latency(answered.kind, answered.sent.elapsed().as_micros() as u64);
        drop(m);
        self.spare.push(answered.payload);
    }

    /// The connection has just failed under a write, which says nothing
    /// about what it had delivered before: reads the replies that are
    /// already there, so that the requests they answer are not sent again.
    fn salvage(&mut self) {
        let Some(channel) = self.channel.as_ref() else {
            return;
        };
        // Whatever arrived has arrived; nothing is waited for.
        let _ = channel.set_read_timeout(Some(Duration::from_millis(1)));
        while self.on_wire > 0 {
            let channel = self.channel.as_mut().expect("checked above");
            let Ok(reply) = channel.recv() else { break };
            self.salvaged.push_back(reply.to_vec());
            self.answered();
        }
    }

    /// Sends `payload` and waits for its reply — the reply to the newest
    /// request, so replies to earlier unanswered sends are received (and
    /// dropped) on the way. A request that fails is forgotten; earlier
    /// sends stay queued.
    pub fn request(&mut self, kind: &'static str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let exchanged = self.exchange(kind, payload);
        if exchanged.is_err() {
            self.disconnect();
            self.spare
                .extend(self.unanswered.pop_back().map(|u| u.payload));
        }
        exchanged
    }

    fn exchange(&mut self, kind: &'static str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.send(kind, |w| w.put_bytes(payload))?;
        loop {
            let last = self.in_flight() == 1;
            let reply = self.recv()?;
            if last {
                return Ok(reply.to_vec());
            }
        }
    }

    /// Dials if no channel is live and writes every unanswered request
    /// that channel has not carried yet, oldest first.
    fn transmit(&mut self) -> Result<&mut SecureChannel, NetError> {
        self.ensure_channel()?;
        let channel = self.channel.as_mut().expect("ensured above");
        while let Some(next) = self.unanswered.get(self.on_wire) {
            channel.send(&next.payload)?;
            self.on_wire += 1;
        }
        Ok(channel)
    }

    /// The one send / receive / retry path: gets the unanswered requests
    /// onto a live channel and, to `receive`, reads the oldest one's reply
    /// off it (unless an older reply was salvaged and waits to be handed
    /// over) — until that has succeeded.
    fn drive(&mut self, receive: bool) -> Result<(), NetError> {
        let mut attempts: u32 = 0;
        // Overload rejections are backpressure, not failure: they get
        // their own (larger) budget and never count against the normal
        // retry schedule, so a congested-but-healthy server is waited
        // out rather than declared dead.
        let mut overload_attempts: u32 = 0;
        let overload_budget = 4 * (self.config.backoff.max_retries + 1);
        loop {
            if receive && !self.salvaged.is_empty() {
                return Ok(());
            }
            let attempt = match self.transmit() {
                Ok(channel) if receive => channel.recv().map(|_| ()),
                Ok(_) => Ok(()),
                Err(e) => {
                    self.salvage();
                    Err(e)
                }
            };
            match attempt {
                Ok(()) => return Ok(()),
                Err(NetError::Overloaded) => {
                    // The server refused the oldest unanswered request and
                    // with it everything behind it. The channel is still
                    // frame-aligned (the rejection was a sealed frame):
                    // back off and re-send them on it.
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
                    self.on_wire = 0;
                    std::thread::sleep(Duration::from_millis(wait));
                }
                Err(e) => {
                    // Whatever the connection carried is unanswered still,
                    // and goes out again on the next one.
                    self.disconnect();
                    if !e.is_retryable() {
                        return Err(e);
                    }
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
            }
        }
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
            let again = ch.recv().unwrap().to_vec();
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

    /// A hand-rolled server: `serve` is handed one established channel
    /// per accepted connection, in order, with the connection's number.
    fn scripted_server(
        seed: u64,
        connections: usize,
        serve: impl Fn(usize, SecureChannel) + Send + 'static,
    ) -> (SocketAddr, [u8; 32], std::thread::JoinHandle<()>) {
        use crate::channel::server_handshake;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_id = Identity::derive(seed, 0);
        let server_pub = server_id.public;
        let handle = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            for conn in 0..connections {
                let (stream, _) = listener.accept().unwrap();
                let metrics = NetMetrics::shared();
                let ch = server_handshake(stream, &server_id, None, &mut rng, 1 << 25, metrics);
                serve(conn, ch.unwrap());
            }
        });
        (addr, server_pub, handle)
    }

    fn numbered(i: u8) -> [u8; 4] {
        [b'r', b'e', b'q', i]
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_each_timed_from_its_own_send() {
        let (server, server_pub) = echo_server(29);
        let mut client = Client::new(
            server.local_addr(),
            ClientConfig::new(Identity::derive(29, 100), Some(server_pub)),
            StdRng::seed_from_u64(5),
        );
        // Eight requests go out 5 ms apart before any reply is read: the
        // first has then waited 35 ms longer for its reply than the last.
        for i in 0..8 {
            client.send("Echo", |w| w.put_bytes(&numbered(i))).unwrap();
            assert_eq!(client.in_flight(), i as usize + 1);
            std::thread::sleep(Duration::from_millis(5));
        }
        for i in 0..8 {
            assert_eq!(client.recv().unwrap(), numbered(i));
        }
        assert_eq!(client.in_flight(), 0);
        assert!(matches!(client.recv(), Err(NetError::Decode(_))));
        let m = client.metrics();
        let m = m.lock().unwrap();
        assert_eq!((m.sent["Echo"].frames, m.recv["Echo"].frames), (8, 8));
        assert_eq!((m.handshakes, m.retries), (1, 0));
        let latency = &m.latency["Echo"].completions;
        assert_eq!(latency.len(), 8);
        assert!(
            latency[0] >= latency[7] + 30_000,
            "latencies {latency:?} do not count from each request's send"
        );
        drop(m);
        server.shutdown();
    }

    #[test]
    fn a_cut_connection_resends_exactly_the_unanswered_requests_in_order() {
        // The first connection reads all eight requests, answers three and
        // is cut; the second must be handed requests 4..8, in order.
        let (addr, server_pub, handle) = scripted_server(31, 2, |conn, mut ch| {
            let expect = if conn == 0 { 0..8 } else { 3..8 };
            for i in expect {
                assert_eq!(ch.recv().unwrap(), numbered(i), "connection {conn}");
            }
            let answer = if conn == 0 { 0..3 } else { 3..8 };
            for i in answer {
                ch.send(&[b'o', b'k', i]).unwrap();
            }
        });
        let mut config = ClientConfig::new(Identity::derive(31, 100), Some(server_pub));
        config.backoff = BackoffPolicy::new(1, 3);
        let mut client = Client::new(addr, config, StdRng::seed_from_u64(9));
        for i in 0..8 {
            client.send("Push", |w| w.put_bytes(&numbered(i))).unwrap();
        }
        for i in 0..8 {
            assert_eq!(client.recv().unwrap(), [b'o', b'k', i]);
        }
        handle.join().unwrap();
        let m = client.metrics();
        let m = m.lock().unwrap();
        assert_eq!(m.handshakes, 2, "one fresh handshake");
        assert_eq!(m.retries, 1, "one lost connection is one retry");
        assert_eq!(m.sent["Push"].frames, 8, "every request counted once");
    }

    #[test]
    fn replies_that_arrived_before_a_write_failed_are_not_asked_for_again() {
        // The first connection answers two requests and hangs up; the
        // client, which has read neither reply, learns of it writing a
        // fourth request. Only the third and fourth go out again.
        let (addr, server_pub, handle) = scripted_server(41, 2, |conn, mut ch| {
            let served = if conn == 0 { 0..2 } else { 2..4 };
            for i in served.clone() {
                assert_eq!(ch.recv().unwrap(), numbered(i), "connection {conn}");
            }
            for i in served {
                ch.send(&[b'o', b'k', i]).unwrap();
            }
        });
        let mut config = ClientConfig::new(Identity::derive(41, 100), Some(server_pub));
        config.backoff = BackoffPolicy::new(1, 3);
        let mut client = Client::new(addr, config, StdRng::seed_from_u64(9));
        for i in 0..4 {
            // The write after the one that met the closed socket fails.
            client.send("Push", |w| w.put_bytes(&numbered(i))).unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(client.in_flight(), 4);
        for i in 0..4 {
            assert_eq!(client.recv().unwrap(), [b'o', b'k', i]);
        }
        handle.join().unwrap();
        let m = client.metrics();
        let m = m.lock().unwrap();
        assert_eq!((m.handshakes, m.retries), (2, 1));
        assert_eq!(m.sent["Push"].frames, 4);
    }

    #[test]
    fn a_request_is_not_answered_with_an_older_salvaged_reply() {
        // The first connection answers the one request it reads and hangs
        // up on the second — larger than the socket buffers — while the
        // client is still writing it: the first reply is salvaged, and must
        // not pass for the second's.
        let (addr, server_pub, handle) = scripted_server(43, 2, |conn, mut ch| {
            if conn == 0 {
                assert_eq!(ch.recv().unwrap(), numbered(0));
                ch.send(b"ok0").unwrap();
                std::thread::sleep(Duration::from_millis(50));
            } else {
                assert_eq!(ch.recv().unwrap().len(), 16 << 20);
                ch.send(b"ok1").unwrap();
            }
        });
        let mut config = ClientConfig::new(Identity::derive(43, 100), Some(server_pub));
        config.backoff = BackoffPolicy::new(1, 3);
        let mut client = Client::new(addr, config, StdRng::seed_from_u64(9));
        client.send("Push", |w| w.put_bytes(&numbered(0))).unwrap();
        let reply = client.request("Push", &vec![7u8; 16 << 20]).unwrap();
        assert_eq!(reply, b"ok1");
        assert_eq!(client.in_flight(), 0);
        handle.join().unwrap();
    }

    #[test]
    fn busy_for_the_oldest_request_resends_the_window_without_a_retry() {
        // Busy refuses the oldest unanswered request and everything behind
        // it: the same three arrive again on the same connection.
        let (addr, server_pub, handle) = scripted_server(37, 1, |_, mut ch| {
            for i in 0..3 {
                assert_eq!(ch.recv().unwrap(), numbered(i));
            }
            ch.send_busy().unwrap();
            for i in 0..3 {
                assert_eq!(ch.recv().unwrap(), numbered(i), "re-sent from the oldest");
            }
            for i in 0..3 {
                ch.send(&[i]).unwrap();
            }
        });
        let mut config = ClientConfig::new(Identity::derive(37, 100), Some(server_pub));
        config.backoff = BackoffPolicy::new(1, 3);
        let mut client = Client::new(addr, config, StdRng::seed_from_u64(9));
        for i in 0..3 {
            client.send("Push", |w| w.put_bytes(&numbered(i))).unwrap();
        }
        for i in 0..3 {
            assert_eq!(client.recv().unwrap(), [i]);
        }
        handle.join().unwrap();
        let m = client.metrics();
        let m = m.lock().unwrap();
        assert_eq!(m.overload_backoffs, 1);
        assert_eq!(m.retries, 0, "backpressure is not a retry");
        assert_eq!(m.handshakes, 1, "the channel survived the rejection");
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
