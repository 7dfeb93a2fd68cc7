//! Typed transport errors.
//!
//! Every failure mode of the wire — malformed framing, authentication
//! failure, replay, timeout, peer loss — surfaces as a [`NetError`]
//! variant, never as a panic: a byte flipped on the wire must produce a
//! typed rejection the caller can retry around.

use crate::journal::JournalError;
use mycelium_crypto::AeadError;

/// Transport-plane failure.
#[derive(Debug)]
pub enum NetError {
    /// An OS-level socket failure.
    Io(std::io::Error),
    /// The frame header does not start with the protocol magic.
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version advertised by the peer.
        got: u16,
        /// Version this endpoint speaks.
        want: u16,
    },
    /// The header declares a payload larger than the configured bound.
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The frame's sequence number is not the next expected one —
    /// a replayed, reordered, or dropped frame.
    BadSequence {
        /// Sequence number on the wire.
        got: u64,
        /// Sequence number expected.
        want: u64,
    },
    /// An unknown frame type byte.
    BadFrameType {
        /// The offending type byte.
        got: u8,
    },
    /// AEAD rejection: the frame was tampered with, encrypted under the
    /// wrong key, or replayed under a reused nonce.
    Aead(AeadError),
    /// The handshake failed (unexpected message, or key confirmation
    /// did not verify — wrong or unauthorized identity).
    Handshake(String),
    /// The peer's static key is not in this endpoint's roster.
    UnknownPeer {
        /// The rejected static public key.
        peer: [u8; 32],
    },
    /// The peer closed the connection cleanly.
    PeerClosed,
    /// A read or write missed its deadline.
    Timeout,
    /// The server's session queue is full; the request was *not*
    /// processed. A backpressure signal, not a failure: clients back
    /// off (with jitter) and re-send instead of giving up.
    Overloaded,
    /// A payload failed to deserialize after authentication (a protocol
    /// bug or version skew, not tampering — tampering dies at the AEAD).
    Decode(String),
    /// The retry budget was exhausted without a successful exchange.
    RetriesExhausted {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// The final error, rendered.
        last: String,
    },
    /// The write-ahead journal failed (I/O, corruption, or a replay
    /// that did not reproduce the pre-crash state).
    Journal(JournalError),
    /// Supervising the round's process tree failed: a child crashed, the
    /// status poll never saw the round finish, or the launcher was
    /// misused. Not a wire failure.
    Supervision(String),
    /// A handler thread panicked while holding the hub state lock; the
    /// guard was recovered ([`PoisonError::into_inner`]
    /// (std::sync::PoisonError::into_inner)) but the triggering request
    /// is refused so the client retries against repaired state.
    Poisoned,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::BadMagic { got } => write!(f, "bad frame magic {got:02x?}"),
            NetError::VersionMismatch { got, want } => {
                write!(f, "protocol version {got}, expected {want}")
            }
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame payload {len} exceeds limit {max}")
            }
            NetError::BadSequence { got, want } => {
                write!(
                    f,
                    "frame sequence {got}, expected {want} (replay or reorder)"
                )
            }
            NetError::BadFrameType { got } => write!(f, "unknown frame type {got:#04x}"),
            NetError::Aead(e) => write!(f, "frame authentication failed: {e}"),
            NetError::Handshake(e) => write!(f, "handshake failed: {e}"),
            NetError::UnknownPeer { peer } => {
                write!(f, "peer {:02x}{:02x}… not in roster", peer[0], peer[1])
            }
            NetError::PeerClosed => write!(f, "peer closed the connection"),
            NetError::Timeout => write!(f, "deadline exceeded"),
            NetError::Overloaded => write!(f, "server overloaded (back off and retry)"),
            NetError::Decode(e) => write!(f, "payload decode failed: {e}"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            NetError::Journal(e) => write!(f, "journal failure: {e}"),
            NetError::Supervision(e) => write!(f, "round supervision failed: {e}"),
            NetError::Poisoned => write!(f, "hub state lock was poisoned by a panic"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout,
            std::io::ErrorKind::UnexpectedEof => NetError::PeerClosed,
            _ => NetError::Io(e),
        }
    }
}

impl From<AeadError> for NetError {
    fn from(e: AeadError) -> Self {
        NetError::Aead(e)
    }
}

/// A protocol-core rejection of a request is a typed decode failure
/// carrying the core's canonical message.
impl From<mycelium::aggcore::CoreError> for NetError {
    fn from(e: mycelium::aggcore::CoreError) -> Self {
        NetError::Decode(e.to_string())
    }
}

impl From<JournalError> for NetError {
    fn from(e: JournalError) -> Self {
        NetError::Journal(e)
    }
}

impl NetError {
    /// Whether a fresh connection attempt could plausibly succeed (used
    /// by the client pool to decide between retrying and giving up).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            NetError::Io(_)
                | NetError::PeerClosed
                | NetError::Timeout
                | NetError::Aead(_)
                | NetError::BadSequence { .. }
        )
    }

    /// Whether this error is a missed per-request deadline: an explicit
    /// [`NetError::Timeout`] or an [`NetError::Io`] whose kind is the
    /// OS timeout (a mid-frame stall is a hard `Io` error but still a
    /// deadline expiry for accounting purposes).
    pub fn is_deadline(&self) -> bool {
        match self {
            NetError::Timeout => true,
            NetError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}
