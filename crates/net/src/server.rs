//! Thread-per-connection request/response server with a bounded worker
//! pool.
//!
//! One accept thread hands sockets to a fixed pool of workers over a
//! bounded queue. Under saturation the accept loop never blocks: when
//! the queue is full, an overflow responder completes the handshake,
//! reads the one pending request, and answers with a sealed `Busy`
//! frame — a typed [`NetError::Overloaded`] on the client side, which
//! backs off (with jitter) and re-sends instead of giving up. Each
//! worker runs the server handshake under a deadline (a peer that
//! connects and then goes silent is reaped, not parked forever) and
//! then serves the session in *bursts*. Clients pipeline: a worker that
//! has handled a request handles every further one that has already
//! arrived on its connection (at most [`MAX_BURST`]), each reply sealed
//! into the channel's outbox behind the last, then waits **once**, on the
//! durability claim of the last request handled — the journal's claims are
//! cumulative, so it covers the whole burst — and only then writes the
//! replies, in order, with one `write`. "An acknowledged mutation is on
//! disk" and "no reply exposes state that is not yet durable" hold per
//! reply exactly as if each had been waited for alone. A request whose
//! handler would have to wait for something other than the disk (a parked
//! poll) is not handled behind queued replies: the worker flushes them
//! first ([`Handled::WouldWait`]). Handlers must be *idempotent* — a client
//! that loses its connection re-sends every unanswered request over a
//! fresh one, so the server may see a request twice.
//!
//! Nothing here waits out a timer to stop. The server keeps a second
//! handle on every connection a worker holds, and
//! [`Server::shutdown`] shuts the read half of those sockets down: a
//! worker blocked reading an idle session sees end-of-stream at once
//! (one in the middle of a request answers it first), and an idle worker
//! blocked on the queue sees it disconnect when the accept thread goes.
//! The worker then drops the connection, so the session's peer reads a
//! typed error on its next exchange. The read timeouts
//! ([`ServerConfig::idle_timeout`], [`ServerConfig::handshake_timeout`])
//! bound what a *peer* can make a worker wait; shutdown does not depend
//! on them.

use std::collections::{HashMap, HashSet};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mycelium_math::rng::{SeedableRng, StdRng};

use crate::channel::{server_handshake, Identity, SecureChannel};
use crate::error::NetError;
use crate::journal::Pending;
use crate::lock_recover;
use crate::metrics::NetMetrics;
use crate::wire::Writer;

/// What a [`Handler`] made of one request.
pub enum Handled {
    /// The reply is written. It may leave the process once the claim (if
    /// there is one) is durable; a later claim on the same connection
    /// covers every earlier one.
    Reply(Option<Pending>),
    /// Nothing is written: the answer does not exist yet and the handler
    /// was not allowed to wait for it. Asked again with `may_wait`, it
    /// holds the request until the answer exists.
    WouldWait,
}

/// A request handler: authenticated request payload in, reply payload out.
///
/// The handler sees only authenticated plaintext; `peer` is the client's
/// verified static public key, usable for authorization decisions. A
/// closure `Fn(peer, &[u8]) -> Result<Vec<u8>, NetError>` is a handler
/// that never waits and claims nothing.
pub trait Handler: Send + Sync + 'static {
    /// Handles one request, writing the reply payload into `reply` — the
    /// connection's frame buffer, behind the header's place. `may_wait` is
    /// false while earlier replies of the connection are still queued: a
    /// handler that would have to hold the request then says
    /// [`Handled::WouldWait`] instead, and is asked again once they are
    /// out.
    fn handle_into(
        &self,
        peer: [u8; 32],
        request: &[u8],
        reply: &mut Writer,
        may_wait: bool,
    ) -> Result<Handled, NetError>;

    /// One request from start to finish, for a caller without a
    /// connection (tests, tools): held while its answer is "not yet",
    /// durable before it is returned.
    fn handle(&self, peer: [u8; 32], request: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut reply = Writer::new();
        match self.handle_into(peer, request, &mut reply, true)? {
            Handled::Reply(Some(pending)) => pending.wait()?,
            Handled::Reply(None) => {}
            Handled::WouldWait => return Err(NetError::Timeout),
        }
        Ok(reply.finish())
    }
}

impl<F> Handler for F
where
    F: Fn([u8; 32], &[u8]) -> Result<Vec<u8>, NetError> + Send + Sync + 'static,
{
    fn handle_into(
        &self,
        peer: [u8; 32],
        request: &[u8],
        reply: &mut Writer,
        _may_wait: bool,
    ) -> Result<Handled, NetError> {
        reply.put_bytes(&self(peer, request)?);
        Ok(Handled::Reply(None))
    }
}

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads (and the bound on concurrent connections served).
    pub workers: usize,
    /// Largest accepted application payload.
    pub max_payload: usize,
    /// How long a worker blocks on an idle connection between checks of
    /// its age against [`idle_reap`](Self::idle_reap).
    pub idle_timeout: Duration,
    /// Deadline on the server-side handshake: a peer that connects and
    /// then stalls is cut loose instead of parking a worker forever.
    pub handshake_timeout: Duration,
    /// How long an established session may sit idle (no complete
    /// request) before the worker reaps it as half-open.
    pub idle_reap: Duration,
    /// Client static keys allowed to connect (`None` accepts any peer
    /// that completes key confirmation).
    pub roster: Option<HashSet<[u8; 32]>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_payload: crate::frame::DEFAULT_MAX_PAYLOAD,
            idle_timeout: Duration::from_millis(200),
            handshake_timeout: Duration::from_secs(5),
            idle_reap: Duration::from_secs(60),
            roster: None,
        }
    }
}

/// The most requests one burst answers: what bounds the replies a worker
/// holds sealed but unwritten, and how long the first of them waits for
/// the last.
pub const MAX_BURST: usize = 16;

/// Concurrent overflow responders (threads answering `Busy` while the
/// worker queue is full); beyond this the connection is simply dropped
/// and the client's normal retry path takes over.
const MAX_OVERFLOW_RESPONDERS: usize = 8;

/// The connections workers currently hold, by connection number: a
/// second handle on each socket, so that [`Server::shutdown`] can close
/// them under the workers.
type LiveConns = Mutex<HashMap<u64, TcpStream>>;

/// One worker's entry in [`LiveConns`], removed when the worker is done
/// with the connection however it ends.
struct Registered<'a> {
    live: &'a LiveConns,
    conn: u64,
}

impl<'a> Registered<'a> {
    fn new(live: &'a LiveConns, conn: u64, stream: &TcpStream) -> Self {
        // A socket that cannot be duplicated is served all the same; it
        // is then bounded by its read timeouts alone.
        if let Ok(handle) = stream.try_clone() {
            lock_recover(live).insert(conn, handle);
        }
        Registered { live, conn }
    }
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        lock_recover(self.live).remove(&self.conn);
    }
}

/// A running server; dropping it without [`shutdown`](Server::shutdown)
/// leaks the threads until process exit.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    live: Arc<LiveConns>,
    threads: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<Mutex<NetMetrics>>,
}

impl Server {
    /// Binds `bind_addr` (e.g. `127.0.0.1:0`) and starts the accept
    /// thread plus the worker pool. `seed` keys the per-connection
    /// handshake ephemerals.
    pub fn spawn(
        bind_addr: &str,
        identity: Identity,
        config: ServerConfig,
        handler: Arc<dyn Handler>,
        seed: u64,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let live = Arc::new(LiveConns::default());
        let metrics = NetMetrics::shared();
        let conn_counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = sync_channel::<TcpStream>(config.workers * 2);
        let rx = Arc::new(Mutex::new(rx));

        let mut threads = Vec::with_capacity(config.workers + 1);
        for _ in 0..config.workers {
            let rx = Arc::clone(&rx);
            let identity = identity.clone();
            let config = config.clone();
            let handler = Arc::clone(&handler);
            let shutdown = Arc::clone(&shutdown);
            let live = Arc::clone(&live);
            let metrics = Arc::clone(&metrics);
            let conn_counter = Arc::clone(&conn_counter);
            threads.push(std::thread::spawn(move || {
                worker_loop(
                    &rx,
                    &identity,
                    &config,
                    handler.as_ref(),
                    &shutdown,
                    &live,
                    &metrics,
                    &conn_counter,
                    seed,
                );
            }));
        }
        {
            let shutdown = Arc::clone(&shutdown);
            let identity = identity.clone();
            let config = config.clone();
            let metrics = Arc::clone(&metrics);
            let conn_counter = Arc::clone(&conn_counter);
            let responders = Arc::new(AtomicUsize::new(0));
            threads.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(s) => match tx.try_send(s) {
                            Ok(()) => {}
                            // The queue is full: answer with a sealed
                            // Busy instead of blocking the accept loop.
                            Err(TrySendError::Full(s)) => reject_overloaded(
                                s,
                                &identity,
                                &config,
                                &metrics,
                                &conn_counter,
                                &responders,
                                seed,
                            ),
                            // Send fails only after shutdown dropped
                            // the receiver; stop accepting then.
                            Err(TrySendError::Disconnected(_)) => break,
                        },
                        Err(_) => break,
                    }
                }
            }));
        }
        Ok(Server {
            addr,
            shutdown,
            live,
            threads,
            metrics,
        })
    }

    /// The bound address (with the kernel-chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's accumulated wire metrics.
    pub fn metrics(&self) -> Arc<Mutex<NetMetrics>> {
        Arc::clone(&self.metrics)
    }

    /// Stops accepting, ends every open session, and joins every thread.
    /// A request a handler is working on is finished and answered first;
    /// nothing else is waited for.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; the
        // accept thread takes the queue's sender with it, which wakes
        // the idle workers.
        let _ = TcpStream::connect(self.addr);
        // Only the read half: a worker waiting for the next request
        // reads end-of-stream now, and one that is answering a request
        // still gets its reply out and reads end-of-stream after. A worker
        // that registers after this pass sees the flag instead.
        for stream in lock_recover(&self.live).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Answers one overflow connection with a sealed `Busy` frame on a
/// short-lived detached thread, so the accept loop keeps draining while
/// every worker is busy. The responder pool itself is bounded; past the
/// cap the connection is dropped and the client's retry path handles it.
fn reject_overloaded(
    stream: TcpStream,
    identity: &Identity,
    config: &ServerConfig,
    metrics: &Arc<Mutex<NetMetrics>>,
    conn_counter: &AtomicU64,
    responders: &Arc<AtomicUsize>,
    seed: u64,
) {
    if responders.fetch_add(1, Ordering::SeqCst) >= MAX_OVERFLOW_RESPONDERS {
        responders.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    let identity = identity.clone();
    let config = config.clone();
    let metrics = Arc::clone(metrics);
    let conn = conn_counter.fetch_add(1, Ordering::SeqCst);
    let responders = Arc::clone(responders);
    std::thread::spawn(move || {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(config.handshake_timeout));
        let _ = stream.set_write_timeout(Some(config.handshake_timeout));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_c0de).with_stream(conn);
        if let Ok(mut channel) = server_handshake(
            stream,
            &identity,
            config.roster.as_ref(),
            &mut rng,
            config.max_payload,
            Arc::clone(&metrics),
        ) {
            // Read the one pending request so the rejection is
            // attributable, then refuse it.
            if channel.recv().is_ok() && channel.send_busy().is_ok() {
                lock_recover(&metrics).overload_rejections += 1;
            }
        }
        responders.fetch_sub(1, Ordering::SeqCst);
    });
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    identity: &Identity,
    config: &ServerConfig,
    handler: &dyn Handler,
    shutdown: &AtomicBool,
    live: &LiveConns,
    metrics: &Arc<Mutex<NetMetrics>>,
    conn_counter: &AtomicU64,
    seed: u64,
) {
    loop {
        // One idle worker waits on the queue and the rest wait for their
        // turn; a dropped sender (the accept thread is gone) releases
        // them one after the other.
        let Ok(stream) = lock_recover(rx).recv() else {
            return;
        };
        let conn = conn_counter.fetch_add(1, Ordering::SeqCst);
        let _registered = Registered::new(live, conn, &stream);
        // Registered first, so either `shutdown` found the socket or this
        // load finds the flag.
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_c0de).with_stream(conn);
        // Replies are small and follow one another while the client sends
        // nothing: under Nagle the second would wait out the client's
        // delayed ACK of the first (40 ms).
        let _ = stream.set_nodelay(true);
        // A peer that connects and then stalls mid-handshake must not
        // park this worker: the handshake runs under its own deadline.
        let _ = stream.set_read_timeout(Some(config.handshake_timeout));
        let _ = stream.set_write_timeout(Some(config.handshake_timeout));
        let channel = server_handshake(
            stream,
            identity,
            config.roster.as_ref(),
            &mut rng,
            config.max_payload,
            Arc::clone(metrics),
        );
        let Ok(mut channel) = channel else {
            // A failed handshake (unknown peer, dummy wake-up socket,
            // port scan, mid-handshake stall) costs this worker nothing
            // further.
            continue;
        };
        let _ = channel.set_read_timeout(Some(config.idle_timeout));
        let mut idle_since = Instant::now();
        loop {
            match channel.recv() {
                Ok(_) => {
                    idle_since = Instant::now();
                    // A peer that keeps sending must not keep this worker
                    // from a shutdown that began meanwhile.
                    if serve_burst(&mut channel, handler).is_err()
                        || shutdown.load(Ordering::SeqCst)
                    {
                        break;
                    }
                }
                Err(NetError::Timeout) => {
                    // Only a socket `shutdown` could not reach (one that
                    // could not be duplicated) learns of it here.
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // A session that handshook and then went silent is
                    // half-open; reap it so the worker goes back to the
                    // queue. (A *mid-frame* stall is a hard Io error
                    // and already ended the session below.)
                    if idle_since.elapsed() >= config.idle_reap {
                        lock_recover(metrics).sessions_reaped += 1;
                        break;
                    }
                }
                // Anything else — peer gone, tampered frame, replay,
                // mid-frame stall — ends this connection; the client
                // reconnects if it still cares.
                Err(_) => break,
            }
        }
    }
}

/// Answers the request `channel` has just received and every further one
/// that has arrived by the time it is handled (see the module docs): one
/// durability wait, then the replies in order. Whatever ends the burst
/// early — a request the handler refuses, a frame that fails to
/// authenticate — the requests handled before it are still made durable and
/// answered; the error then ends the session.
fn serve_burst(channel: &mut SecureChannel, handler: &dyn Handler) -> Result<(), NetError> {
    let peer = channel.peer();
    let mut claim: Option<Pending> = None;
    let mut queued = 0;
    let ended = loop {
        let answered = channel.answer(|request, reply| {
            Ok(
                match handler.handle_into(peer, request, reply, queued == 0)? {
                    Handled::Reply(pending) => {
                        // The later claim covers the earlier.
                        claim = pending.or(claim.take());
                        true
                    }
                    Handled::WouldWait => false,
                },
            )
        });
        match answered {
            Ok(true) => queued += 1,
            // A handler with leave to wait has no reason to decline.
            Ok(false) if queued == 0 => break Err(NetError::Timeout),
            // The request is still the one last received: out with the
            // replies before it, then it may be held.
            Ok(false) => {
                settle(channel, claim.take())?;
                queued = 0;
                continue;
            }
            Err(e) => break Err(e),
        }
        if queued >= MAX_BURST || !channel.request_waiting() {
            break Ok(());
        }
        if let Err(e) = channel.recv() {
            break Err(e);
        }
    };
    settle(channel, claim)?;
    ended
}

/// Waits until `claim` is durable, then writes the queued replies.
fn settle(channel: &mut SecureChannel, claim: Option<Pending>) -> Result<(), NetError> {
    if let Some(claim) = claim {
        claim.wait()?;
    }
    channel.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::client_handshake;

    #[test]
    fn echo_round_trip_and_shutdown() {
        let identity = Identity::derive(3, 0);
        let server_pub = identity.public;
        let handler = Arc::new(|_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> {
            let mut out = req.to_vec();
            out.reverse();
            Ok(out)
        });
        let server =
            Server::spawn("127.0.0.1:0", identity, ServerConfig::default(), handler, 3).unwrap();
        let addr = server.local_addr();

        let mut rng = StdRng::seed_from_u64(99);
        let client_id = Identity::derive(3, 100);
        let stream = TcpStream::connect(addr).unwrap();
        let mut channel = client_handshake(
            stream,
            &client_id,
            Some(server_pub),
            &mut rng,
            1 << 20,
            NetMetrics::shared(),
        )
        .unwrap();
        channel.send(b"abc").unwrap();
        assert_eq!(channel.recv().unwrap(), b"cba");
        channel.send(b"xyz").unwrap();
        assert_eq!(channel.recv().unwrap(), b"zyx");
        drop(channel);
        server.shutdown();
    }

    /// Echoes, but never behind a queued reply: the worker has to write
    /// each reply on its own.
    struct OneAtATime;

    impl Handler for OneAtATime {
        fn handle_into(
            &self,
            _peer: [u8; 32],
            request: &[u8],
            reply: &mut Writer,
            may_wait: bool,
        ) -> Result<Handled, NetError> {
            if !may_wait {
                return Ok(Handled::WouldWait);
            }
            reply.put_bytes(request);
            Ok(Handled::Reply(None))
        }
    }

    fn connect(addr: SocketAddr, server_pub: [u8; 32], seed: u64) -> SecureChannel {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let id = Identity::derive(seed, 100);
        let metrics = NetMetrics::shared();
        client_handshake(stream, &id, Some(server_pub), &mut rng, 1 << 20, metrics).unwrap()
    }

    #[test]
    fn two_small_replies_do_not_wait_out_a_delayed_ack() {
        // Two small replies written one after the other to a client that
        // sends nothing in between: with Nagle on the accepted socket the
        // second waits for the client's (delayed, 40 ms) ACK of the first.
        let identity = Identity::derive(17, 0);
        let server_pub = identity.public;
        let handler: Arc<dyn Handler> = Arc::new(OneAtATime);
        let config = ServerConfig::default();
        let server = Server::spawn("127.0.0.1:0", identity, config, handler, 17).unwrap();
        let mut channel = connect(server.local_addr(), server_pub, 17);
        // A client that has been answering at once is taken for interactive,
        // and its ACKs are delayed from then on.
        for _ in 0..8 {
            channel.send(b"warm").unwrap();
            assert_eq!(channel.recv().unwrap(), b"warm");
        }
        let started = Instant::now();
        channel.send(b"one").unwrap();
        channel.send(b"two").unwrap();
        assert_eq!(channel.recv().unwrap(), b"one");
        assert_eq!(channel.recv().unwrap(), b"two");
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(10),
            "two replies took {took:?}"
        );
        drop(channel);
        server.shutdown();
    }

    /// Echoes, noting for each request whether it was handled behind
    /// queued replies; the first is held until `go`.
    struct Noting {
        go: Mutex<Receiver<()>>,
        behind_queued: Mutex<Vec<bool>>,
    }

    impl Handler for Noting {
        fn handle_into(
            &self,
            _peer: [u8; 32],
            request: &[u8],
            reply: &mut Writer,
            may_wait: bool,
        ) -> Result<Handled, NetError> {
            if request == b"0" {
                lock_recover(&self.go).recv().unwrap();
            }
            lock_recover(&self.behind_queued).push(!may_wait);
            reply.put_bytes(request);
            Ok(Handled::Reply(None))
        }
    }

    #[test]
    fn requests_that_have_arrived_are_answered_as_one_bounded_burst() {
        let identity = Identity::derive(19, 0);
        let server_pub = identity.public;
        // The first request is held in the handler until all are sent, so
        // the worker finds the rest arrived when it looks.
        let (go, held) = std::sync::mpsc::channel::<()>();
        let noting = Arc::new(Noting {
            go: Mutex::new(held),
            behind_queued: Mutex::default(),
        });
        let handler: Arc<dyn Handler> = noting.clone();
        let config = ServerConfig::default();
        let server = Server::spawn("127.0.0.1:0", identity, config, handler, 19).unwrap();
        let mut channel = connect(server.local_addr(), server_pub, 19);
        let requests: Vec<String> = (0..MAX_BURST + 2).map(|i| i.to_string()).collect();
        for r in &requests {
            channel.send(r.as_bytes()).unwrap();
        }
        go.send(()).unwrap();
        for r in &requests {
            assert_eq!(channel.recv().unwrap(), r.as_bytes());
        }
        // One full burst, then the two requests it left behind.
        let mut bursts = vec![true; requests.len()];
        (bursts[0], bursts[MAX_BURST]) = (false, false);
        assert_eq!(*lock_recover(&noting.behind_queued), bursts);
        drop(channel);
        server.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_for_idle_timeout() {
        let identity = Identity::derive(5, 0);
        let server_pub = identity.public;
        let handler = Arc::new(|_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> {
            Ok(req.to_vec())
        });
        // Workers block five seconds on a quiet session before they look
        // up: a shutdown that waited for that would take as long.
        let config = ServerConfig {
            idle_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let server = Server::spawn("127.0.0.1:0", identity, config, handler, 5).unwrap();
        let addr = server.local_addr();
        let connect = |role: u32| {
            let mut rng = StdRng::seed_from_u64(role as u64);
            let id = Identity::derive(5, role);
            let stream = TcpStream::connect(addr).unwrap();
            let channel = client_handshake(
                stream,
                &id,
                Some(server_pub),
                &mut rng,
                1 << 20,
                NetMetrics::shared(),
            )
            .unwrap();
            channel
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            channel
        };
        // One session that only ever shook hands, one that has exchanged
        // requests and sits between two of them.
        let mut idle = connect(100);
        let mut mid_session = connect(101);
        mid_session.send(b"ping").unwrap();
        assert_eq!(mid_session.recv().unwrap(), b"ping");

        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        // Both peers learn of it as a typed error, well inside their own
        // read timeout.
        for channel in [&mut idle, &mut mid_session] {
            let _ = channel.send(b"anyone?");
            let reply = channel.recv();
            assert!(
                matches!(reply, Err(NetError::Io(_) | NetError::PeerClosed)),
                "got {reply:?}"
            );
        }
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn saturated_server_rejects_with_busy_and_keeps_accepting() {
        use std::sync::atomic::AtomicBool;

        let identity = Identity::derive(11, 0);
        let server_pub = identity.public;
        // The single worker parks inside the handler until the gate
        // opens, so every later connection piles up behind it.
        let gate = Arc::new(AtomicBool::new(false));
        let handler = {
            let gate = Arc::clone(&gate);
            Arc::new(
                move |_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(req.to_vec())
                },
            )
        };
        let config = ServerConfig {
            workers: 1,
            handshake_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let server = Server::spawn("127.0.0.1:0", identity, config, handler, 11).unwrap();
        let addr = server.local_addr();
        let metrics = server.metrics();

        let connect = |role: u32, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let id = Identity::derive(11, role);
            let stream = TcpStream::connect(addr).unwrap();
            client_handshake(
                stream,
                &id,
                Some(server_pub),
                &mut rng,
                1 << 20,
                NetMetrics::shared(),
            )
        };

        // Occupy the worker, then fill the bounded queue (workers * 2)
        // with raw connections that never handshake.
        let mut busy_client = connect(100, 1).unwrap();
        busy_client.send(b"slow").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let _fill_a = TcpStream::connect(addr).unwrap();
        let _fill_b = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));

        // The next connection overflows: the accept loop must stay
        // live and answer with a sealed Busy, not block.
        let mut rejected = connect(101, 2).expect("overflow handshake must complete");
        rejected.send(b"overflow").unwrap();
        rejected
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(matches!(rejected.recv(), Err(NetError::Overloaded)));
        // The responder thread records the rejection just after the
        // client reads the Busy frame; give the counter a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while lock_recover(&metrics).overload_rejections == 0 {
            assert!(Instant::now() < deadline, "overload rejection not counted");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Draining the gate completes the parked request untouched.
        gate.store(true, Ordering::SeqCst);
        busy_client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(busy_client.recv().unwrap(), b"slow");

        drop(busy_client);
        drop(rejected);
        server.shutdown();
    }
}
