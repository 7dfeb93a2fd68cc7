//! Authenticated-encryption channels over TCP.
//!
//! The handshake is a Noise-KK-shaped pattern built from the workspace's
//! own primitives (the repo has X25519 and HKDF but no signatures, so
//! authentication comes from mixing *static* Diffie–Hellman results into
//! the key schedule — only the holders of the two static secrets can
//! derive the session keys):
//!
//! ```text
//! client → server   ClientHello  (plaintext): static_pub ‖ ephemeral_pub
//! server → client   ServerHello  (plaintext): static_pub ‖ ephemeral_pub
//!
//! transcript = SHA-256(client_payload ‖ server_payload)
//! ikm        = DH(e_c, e_s) ‖ DH(e_c, s_s) ‖ DH(s_c, e_s)
//! prk        = HKDF-Extract(salt = transcript, ikm)
//! k_c2s      = HKDF-Expand(prk, "mycelium-net v1 c2s")
//! k_s2c      = HKDF-Expand(prk, "mycelium-net v1 s2c")
//!
//! client → server   Confirm (sealed, k_c2s, seq 0): transcript
//! server → client   Confirm (sealed, k_s2c, seq 0): transcript
//! ```
//!
//! The Confirm exchange proves both sides derived the same keys — i.e.
//! that each peer controls the static secret it advertised. The server
//! additionally checks the client's static key against a roster before
//! doing any expensive work.
//!
//! After the handshake every frame is ChaCha20-Poly1305-sealed with the
//! 20-byte frame header as associated data and the per-direction
//! sequence number as the implicit nonce (the paper's `AE` convention:
//! the nonce is the round number and is never transmitted). Directions
//! use distinct keys, and the receiver insists on strictly sequential
//! sequence numbers, so replayed, reordered, or cross-spliced frames are
//! rejected with a typed error.
//!
//! A channel owns the two buffers its frames live in and keeps them for
//! the life of the connection. A frame is received into the *inbox* and
//! decrypted there ([`SecureChannel::recv`] lends the payload out); a
//! frame to send is encoded behind its header's place in the *outbox*,
//! sealed where it lies, and written from there. Several sealed frames
//! can wait in the outbox for one write ([`SecureChannel::answer`],
//! [`SecureChannel::flush`]) — how a server answers a burst of requests
//! in order after one durability wait. Once a connection has seen its
//! largest frame, an exchange allocates nothing.

use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mycelium_crypto::aead::{open_in_place, seal_in_place, OVERHEAD};
use mycelium_crypto::codec::Writer;
use mycelium_crypto::ed25519::{x25519, x25519_public_key};
use mycelium_crypto::kdf::{hkdf_expand, hkdf_extract};
use mycelium_crypto::sha256;
use mycelium_math::rng::{Rng, StdRng};

use crate::error::NetError;
use crate::frame::{header_bytes, read_frame, read_frame_into, write_frame, FrameType, HEADER_LEN};
use crate::lock_recover;
use crate::metrics::NetMetrics;

/// An endpoint's long-term X25519 identity.
#[derive(Clone)]
pub struct Identity {
    secret: [u8; 32],
    /// The public key peers authenticate against.
    pub public: [u8; 32],
}

impl Identity {
    /// Builds an identity from a static secret scalar.
    pub fn from_secret(secret: [u8; 32]) -> Self {
        let public = x25519_public_key(&secret);
        Identity { secret, public }
    }

    /// Derives a deterministic identity for a role in a seeded deployment:
    /// all processes of a round share `seed` and agree on each other's
    /// public keys without any key material crossing the wire.
    pub fn derive(seed: u64, role_id: u32) -> Self {
        let mut ikm = Vec::with_capacity(32);
        ikm.extend_from_slice(b"mycelium-net identity");
        ikm.extend_from_slice(&seed.to_le_bytes());
        ikm.extend_from_slice(&role_id.to_le_bytes());
        Identity::from_secret(sha256(&ikm))
    }
}

/// Everything a handshake derives.
struct SessionKeys {
    send: [u8; 32],
    recv: [u8; 32],
    peer: [u8; 32],
}

const INFO_C2S: &[u8] = b"mycelium-net v1 c2s";
const INFO_S2C: &[u8] = b"mycelium-net v1 s2c";

/// Wire bytes one complete handshake costs (both directions):
/// two 64-byte hellos and two sealed 32-byte confirms, each framed.
pub const HANDSHAKE_WIRE_BYTES: usize = 2 * (HEADER_LEN + 64) + 2 * (HEADER_LEN + 32 + OVERHEAD);

fn derive_keys(
    transcript: &[u8; 32],
    dh_ee: [u8; 32],
    dh_es: [u8; 32],
    dh_se: [u8; 32],
) -> ([u8; 32], [u8; 32]) {
    let mut ikm = Vec::with_capacity(96);
    ikm.extend_from_slice(&dh_ee);
    ikm.extend_from_slice(&dh_es);
    ikm.extend_from_slice(&dh_se);
    let prk = hkdf_extract(transcript, &ikm);
    let c2s: [u8; 32] = hkdf_expand(&prk, INFO_C2S, 32).try_into().unwrap();
    let s2c: [u8; 32] = hkdf_expand(&prk, INFO_S2C, 32).try_into().unwrap();
    (c2s, s2c)
}

fn hello_payload(identity: &Identity, eph_pub: &[u8; 32]) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    p.extend_from_slice(&identity.public);
    p.extend_from_slice(eph_pub);
    p
}

fn parse_hello(payload: &[u8]) -> Result<([u8; 32], [u8; 32]), NetError> {
    if payload.len() != 64 {
        return Err(NetError::Handshake(format!(
            "hello payload is {} bytes, expected 64",
            payload.len()
        )));
    }
    Ok((
        payload[0..32].try_into().unwrap(),
        payload[32..64].try_into().unwrap(),
    ))
}

/// An established encrypted channel over one TCP connection.
pub struct SecureChannel {
    stream: TcpStream,
    send_key: [u8; 32],
    recv_key: [u8; 32],
    send_seq: u64,
    recv_seq: u64,
    peer: [u8; 32],
    max_payload: usize,
    metrics: Arc<Mutex<NetMetrics>>,
    /// The payload of the frame last received, decrypted where it was read.
    inbox: Vec<u8>,
    /// Sealed frames not yet written, in sequence order.
    outbox: Vec<u8>,
    /// How many frames the outbox holds.
    queued: u64,
}

impl SecureChannel {
    /// The peer's authenticated static public key.
    pub fn peer(&self) -> [u8; 32] {
        self.peer
    }

    /// Sets the read deadline for subsequent [`recv`](Self::recv) calls
    /// (`None` blocks forever).
    pub fn set_read_timeout(&self, d: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(d)?;
        Ok(())
    }

    /// Seals and writes one application payload.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.seal(FrameType::Data, |_, w| {
            w.put_bytes(payload);
            Ok(true)
        })?;
        self.flush()
    }

    /// Reads, authenticates, and decrypts one application payload, lent
    /// out of the channel's own buffer until the next call (also
    /// [`received`](Self::received)).
    ///
    /// A sealed [`FrameType::Busy`] frame authenticates like data but
    /// surfaces as [`NetError::Overloaded`]: the server refused the
    /// request under load, and the channel stays frame-aligned so the
    /// client can back off and re-send on the same connection.
    pub fn recv(&mut self) -> Result<&[u8], NetError> {
        let limit = self.max_payload + OVERHEAD;
        let header = read_frame_into(&mut &self.stream, limit, &mut self.inbox)?;
        if header.frame_type != FrameType::Data && header.frame_type != FrameType::Busy {
            return Err(NetError::Handshake(
                "non-data frame on established channel".into(),
            ));
        }
        if header.seq != self.recv_seq {
            return Err(NetError::BadSequence {
                got: header.seq,
                want: self.recv_seq,
            });
        }
        let aad = header_bytes(header.frame_type, header.seq, header.len);
        if let Err(e) = open_in_place(&self.recv_key, header.seq, &aad, &mut self.inbox) {
            lock_recover(&self.metrics).aead_rejects += 1;
            return Err(e.into());
        }
        self.recv_seq += 1;
        let mut m = lock_recover(&self.metrics);
        m.frames_recv += 1;
        m.bytes_recv += (HEADER_LEN + header.len as usize) as u64;
        if header.frame_type == FrameType::Busy {
            return Err(NetError::Overloaded);
        }
        Ok(&self.inbox)
    }

    /// The payload the last successful [`recv`](Self::recv) returned.
    pub fn received(&self) -> &[u8] {
        &self.inbox
    }

    /// Whether the peer's next frame has begun to arrive: a
    /// [`recv`](Self::recv) now would find its first bytes without
    /// waiting for the peer to send them.
    pub fn request_waiting(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let arrived = matches!(self.stream.peek(&mut [0u8; 1]), Ok(n) if n > 0);
        let _ = self.stream.set_nonblocking(false);
        arrived
    }

    /// The server's half of an exchange: hands `answer` the request last
    /// received and a writer for its reply, and — when `answer` says so
    /// with `Ok(true)` — seals what it wrote as the next frame, queued
    /// behind those already waiting for [`flush`](Self::flush). On
    /// `Ok(false)` or an error nothing is queued.
    pub fn answer(
        &mut self,
        answer: impl FnOnce(&[u8], &mut Writer) -> Result<bool, NetError>,
    ) -> Result<bool, NetError> {
        self.seal(FrameType::Data, answer)
    }

    /// Writes every queued frame, in order, with one `write`.
    pub fn flush(&mut self) -> Result<(), NetError> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_frame_bytes(&self.outbox);
        let (frames, bytes) = (self.queued, self.outbox.len() as u64);
        self.outbox.clear();
        self.queued = 0;
        written?;
        let mut m = lock_recover(&self.metrics);
        m.frames_sent += frames;
        m.bytes_sent += bytes;
        Ok(())
    }

    /// Seals and writes one overload rejection (empty [`FrameType::Busy`]
    /// frame). Sent by a server whose session queue is full in place of
    /// a real reply; authenticated so only the real server can apply
    /// backpressure.
    pub fn send_busy(&mut self) -> Result<(), NetError> {
        self.seal(FrameType::Busy, |_, _| Ok(true))?;
        self.flush()
    }

    /// Queues one sealed frame of type `ty` whose payload `fill` writes.
    fn seal(
        &mut self,
        ty: FrameType,
        fill: impl FnOnce(&[u8], &mut Writer) -> Result<bool, NetError>,
    ) -> Result<bool, NetError> {
        let inbox = &self.inbox;
        let sealed = seal_frame(&mut self.outbox, &self.send_key, ty, self.send_seq, |w| {
            fill(inbox, w)
        })?;
        if sealed {
            self.send_seq += 1;
            self.queued += 1;
        }
        Ok(sealed)
    }

    /// Wire bytes one [`send`](Self::send) of `payload_len` bytes costs.
    pub fn wire_cost(payload_len: usize) -> usize {
        HEADER_LEN + payload_len + OVERHEAD
    }
}

trait WriteFrameBytes {
    fn write_frame_bytes(&mut self, wire: &[u8]) -> Result<(), NetError>;
}

impl WriteFrameBytes for TcpStream {
    fn write_frame_bytes(&mut self, wire: &[u8]) -> Result<(), NetError> {
        use std::io::Write;
        self.write_all(wire)?;
        self.flush()?;
        Ok(())
    }
}

/// Appends one complete sealed frame (header ‖ ciphertext ‖ tag) to
/// `wire`, the buffer that goes to the socket: `fill` writes the payload
/// behind the header's place, and it is sealed where it lies. When `fill`
/// declines (`Ok(false)`) or fails, `wire` is left as it was.
fn seal_frame(
    wire: &mut Vec<u8>,
    key: &[u8; 32],
    ty: FrameType,
    seq: u64,
    fill: impl FnOnce(&mut Writer) -> Result<bool, NetError>,
) -> Result<bool, NetError> {
    let start = wire.len();
    let mut w = Writer::over(std::mem::take(wire));
    w.put_bytes(&[0u8; HEADER_LEN]);
    let kept = fill(&mut w);
    *wire = w.finish();
    if !matches!(kept, Ok(true)) {
        wire.truncate(start);
        return kept;
    }
    let body = start + HEADER_LEN;
    let len = (wire.len() - body + OVERHEAD) as u32;
    let header = header_bytes(ty, seq, len);
    wire[start..body].copy_from_slice(&header);
    let tag = seal_in_place(key, seq, &header, &mut wire[body..]);
    wire.extend_from_slice(&tag);
    Ok(true)
}

fn confirm_exchange(
    stream: &mut TcpStream,
    keys: &SessionKeys,
    transcript: &[u8; 32],
    client_side: bool,
) -> Result<(), NetError> {
    let send_confirm = |stream: &mut TcpStream, key: &[u8; 32]| -> Result<(), NetError> {
        let mut wire = Vec::with_capacity(HEADER_LEN + 32 + OVERHEAD);
        seal_frame(&mut wire, key, FrameType::Confirm, 0, |w| {
            w.put_bytes(transcript);
            Ok(true)
        })?;
        stream.write_frame_bytes(&wire)
    };
    let recv_confirm = |stream: &mut TcpStream, key: &[u8; 32]| -> Result<(), NetError> {
        let (header, mut plain) = read_frame(&mut &*stream, 64 + OVERHEAD)?;
        if header.frame_type != FrameType::Confirm || header.seq != 0 {
            return Err(NetError::Handshake(
                "expected key-confirmation frame".into(),
            ));
        }
        let aad = header_bytes(FrameType::Confirm, 0, header.len);
        open_in_place(key, 0, &aad, &mut plain)
            .map_err(|e| NetError::Handshake(format!("key confirmation failed: {e}")))?;
        if plain != transcript {
            return Err(NetError::Handshake("transcript mismatch".into()));
        }
        Ok(())
    };
    if client_side {
        send_confirm(stream, &keys.send)?;
        recv_confirm(stream, &keys.recv)?;
    } else {
        recv_confirm(stream, &keys.recv)?;
        send_confirm(stream, &keys.send)?;
    }
    Ok(())
}

fn finish_channel(
    stream: TcpStream,
    keys: SessionKeys,
    max_payload: usize,
    metrics: Arc<Mutex<NetMetrics>>,
    started: std::time::Instant,
) -> SecureChannel {
    {
        let mut m = lock_recover(&metrics);
        m.handshakes += 1;
        m.handshake_micros
            .record(started.elapsed().as_micros() as u64);
        m.bytes_sent += (HANDSHAKE_WIRE_BYTES / 2) as u64;
        m.bytes_recv += (HANDSHAKE_WIRE_BYTES / 2) as u64;
    }
    SecureChannel {
        stream,
        send_key: keys.send,
        recv_key: keys.recv,
        send_seq: 1,
        recv_seq: 1,
        peer: keys.peer,
        max_payload,
        metrics,
        inbox: Vec::new(),
        outbox: Vec::new(),
        queued: 0,
    }
}

/// Runs the client side of the handshake on a fresh connection.
///
/// If `expect_peer` is set, the server's static key must match it
/// exactly; otherwise any server that completes key confirmation is
/// accepted (the confirmation still proves it holds the static secret it
/// advertised).
pub fn client_handshake(
    mut stream: TcpStream,
    identity: &Identity,
    expect_peer: Option<[u8; 32]>,
    rng: &mut StdRng,
    max_payload: usize,
    metrics: Arc<Mutex<NetMetrics>>,
) -> Result<SecureChannel, NetError> {
    let started = std::time::Instant::now();
    let mut eph_secret = [0u8; 32];
    rng.fill(&mut eph_secret);
    let eph_public = x25519_public_key(&eph_secret);

    let my_hello = hello_payload(identity, &eph_public);
    write_frame(&mut stream, FrameType::ClientHello, 0, &my_hello)?;

    let (header, their_hello) = read_frame(&mut &stream, 256)?;
    if header.frame_type != FrameType::ServerHello {
        return Err(NetError::Handshake("expected ServerHello".into()));
    }
    let (server_static, server_eph) = parse_hello(&their_hello)?;
    if let Some(want) = expect_peer {
        if server_static != want {
            return Err(NetError::UnknownPeer {
                peer: server_static,
            });
        }
    }

    let mut t = Vec::with_capacity(128);
    t.extend_from_slice(&my_hello);
    t.extend_from_slice(&their_hello);
    let transcript = sha256(&t);

    let dh_ee = x25519(&eph_secret, &server_eph);
    let dh_es = x25519(&eph_secret, &server_static);
    let dh_se = x25519(&identity.secret, &server_eph);
    let (c2s, s2c) = derive_keys(&transcript, dh_ee, dh_es, dh_se);

    let keys = SessionKeys {
        send: c2s,
        recv: s2c,
        peer: server_static,
    };
    confirm_exchange(&mut stream, &keys, &transcript, true)?;
    Ok(finish_channel(stream, keys, max_payload, metrics, started))
}

/// Runs the server side of the handshake on an accepted connection.
///
/// `roster`, when present, is the set of client static keys allowed to
/// connect; an unlisted client is rejected with [`NetError::UnknownPeer`]
/// before any key derivation.
pub fn server_handshake(
    mut stream: TcpStream,
    identity: &Identity,
    roster: Option<&std::collections::HashSet<[u8; 32]>>,
    rng: &mut StdRng,
    max_payload: usize,
    metrics: Arc<Mutex<NetMetrics>>,
) -> Result<SecureChannel, NetError> {
    let started = std::time::Instant::now();
    let (header, their_hello) = read_frame(&mut &stream, 256)?;
    if header.frame_type != FrameType::ClientHello {
        return Err(NetError::Handshake("expected ClientHello".into()));
    }
    let (client_static, client_eph) = parse_hello(&their_hello)?;
    if let Some(allowed) = roster {
        if !allowed.contains(&client_static) {
            return Err(NetError::UnknownPeer {
                peer: client_static,
            });
        }
    }

    let mut eph_secret = [0u8; 32];
    rng.fill(&mut eph_secret);
    let eph_public = x25519_public_key(&eph_secret);
    let my_hello = hello_payload(identity, &eph_public);
    write_frame(&mut stream, FrameType::ServerHello, 0, &my_hello)?;

    let mut t = Vec::with_capacity(128);
    t.extend_from_slice(&their_hello);
    t.extend_from_slice(&my_hello);
    let transcript = sha256(&t);

    let dh_ee = x25519(&eph_secret, &client_eph);
    let dh_es = x25519(&identity.secret, &client_eph);
    let dh_se = x25519(&eph_secret, &client_static);
    let (c2s, s2c) = derive_keys(&transcript, dh_ee, dh_es, dh_se);

    let keys = SessionKeys {
        send: s2c,
        recv: c2s,
        peer: client_static,
    };
    confirm_exchange(&mut stream, &keys, &transcript, false)?;
    Ok(finish_channel(stream, keys, max_payload, metrics, started))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_math::rng::SeedableRng;
    use std::net::TcpListener;

    fn pair() -> (SecureChannel, SecureChannel) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_id = Identity::derive(7, 0);
        let client_id = Identity::derive(7, 100);
        let server_pub = server_id.public;
        let mut roster = std::collections::HashSet::new();
        roster.insert(client_id.public);
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            server_handshake(
                stream,
                &server_id,
                Some(&roster),
                &mut rng,
                1 << 20,
                NetMetrics::shared(),
            )
            .unwrap()
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let client = client_handshake(
            stream,
            &client_id,
            Some(server_pub),
            &mut rng,
            1 << 20,
            NetMetrics::shared(),
        )
        .unwrap();
        (client, handle.join().unwrap())
    }

    #[test]
    fn handshake_and_bidirectional_traffic() {
        let (mut client, mut server) = pair();
        assert_eq!(client.peer(), Identity::derive(7, 0).public);
        assert_eq!(server.peer(), Identity::derive(7, 100).public);
        client.send(b"hello over the wire").unwrap();
        assert_eq!(server.recv().unwrap(), b"hello over the wire");
        server.send(b"ack").unwrap();
        assert_eq!(client.recv().unwrap(), b"ack");
        // Sequence numbers advance per direction.
        client.send(b"two").unwrap();
        assert_eq!(server.recv().unwrap(), b"two");
    }

    #[test]
    fn unlisted_client_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_id = Identity::derive(7, 0);
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            server_handshake(
                stream,
                &server_id,
                Some(&std::collections::HashSet::new()),
                &mut rng,
                1 << 20,
                NetMetrics::shared(),
            )
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let intruder = Identity::derive(999, 100);
        let result = client_handshake(
            stream,
            &intruder,
            None,
            &mut rng,
            1 << 20,
            NetMetrics::shared(),
        );
        assert!(matches!(
            handle.join().unwrap(),
            Err(NetError::UnknownPeer { .. })
        ));
        // The client sees the connection die during its confirm wait.
        assert!(result.is_err());
    }

    #[test]
    fn handshake_cost_constant_matches() {
        // 2 hellos (20 + 64) + 2 confirms (20 + 32 + 16).
        assert_eq!(HANDSHAKE_WIRE_BYTES, 2 * 84 + 2 * 68);
    }

    #[test]
    fn busy_frame_surfaces_as_overloaded_and_keeps_alignment() {
        let (mut client, mut server) = pair();
        client.send(b"req-1").unwrap();
        assert_eq!(server.recv().unwrap(), b"req-1");
        server.send_busy().unwrap();
        assert!(matches!(client.recv(), Err(NetError::Overloaded)));
        // The channel survives the rejection: sequence numbers advanced
        // in lockstep, so the retried exchange authenticates cleanly.
        client.send(b"req-1 again").unwrap();
        assert_eq!(server.recv().unwrap(), b"req-1 again");
        server.send(b"reply").unwrap();
        assert_eq!(client.recv().unwrap(), b"reply");
    }
}
