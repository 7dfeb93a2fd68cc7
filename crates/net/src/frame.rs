//! Length-prefixed frames with a versioned header.
//!
//! Every byte on a `mycelium-net` socket belongs to a frame:
//!
//! ```text
//!  0        4        6     7     8                16       20
//!  +--------+--------+-----+-----+----------------+--------+----------···
//!  | magic  | version| type|flags|   sequence     | length | payload
//!  | "MYCN" |  u16   | u8  | u8  |     u64        |  u32   | (length bytes)
//!  +--------+--------+-----+-----+----------------+--------+----------···
//! ```
//!
//! The header is authenticated but not encrypted: for encrypted frames
//! the whole 20-byte header is the AEAD associated data and the sequence
//! number is the implicit nonce, so a tampered header (or a replayed
//! frame) fails authentication instead of confusing the protocol.

use std::io::{Read, Write};

use crate::error::NetError;

/// Protocol magic (first four bytes of every frame).
pub const MAGIC: [u8; 4] = *b"MYCN";
/// Protocol version this build speaks. Version 2 carries residues packed
/// at the width of their prime ([`crate::codec`]); a version 1 peer, whose
/// payloads held one 64-bit word per residue, is refused at its first
/// header with [`NetError::VersionMismatch`].
pub const VERSION: u16 = 2;
/// Fixed header size.
pub const HEADER_LEN: usize = 20;
/// Default cap on a single frame's payload (handshake + query-round
/// messages are far below this; the bench sweeps up to 1 MiB).
pub const DEFAULT_MAX_PAYLOAD: usize = 64 << 20;

/// Frame discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Plaintext client handshake opener.
    ClientHello = 1,
    /// Plaintext server handshake reply.
    ServerHello = 2,
    /// Encrypted key-confirmation frame (first sealed frame per side).
    Confirm = 3,
    /// Encrypted application frame.
    Data = 4,
    /// Encrypted overload rejection: the server's session queue is full
    /// and the request was not processed (empty payload; the sealed
    /// header is proof the rejection came from the real server, not an
    /// on-path attacker forging backpressure).
    Busy = 5,
}

impl FrameType {
    fn from_u8(v: u8) -> Result<Self, NetError> {
        match v {
            1 => Ok(FrameType::ClientHello),
            2 => Ok(FrameType::ServerHello),
            3 => Ok(FrameType::Confirm),
            4 => Ok(FrameType::Data),
            5 => Ok(FrameType::Busy),
            got => Err(NetError::BadFrameType { got }),
        }
    }
}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame discriminator.
    pub frame_type: FrameType,
    /// Reserved (zero in version 2).
    pub flags: u8,
    /// Per-direction sequence number (and implicit AEAD nonce).
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Serializes a header (also the AEAD associated data of sealed frames).
pub fn header_bytes(frame_type: FrameType, seq: u64, len: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    h[6] = frame_type as u8;
    h[7] = 0;
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h[16..20].copy_from_slice(&len.to_le_bytes());
    h
}

fn parse_header(h: &[u8; HEADER_LEN]) -> Result<FrameHeader, NetError> {
    let magic: [u8; 4] = h[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(NetError::BadMagic { got: magic });
    }
    let version = u16::from_le_bytes(h[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(NetError::VersionMismatch {
            got: version,
            want: VERSION,
        });
    }
    Ok(FrameHeader {
        frame_type: FrameType::from_u8(h[6])?,
        flags: h[7],
        seq: u64::from_le_bytes(h[8..16].try_into().unwrap()),
        len: u32::from_le_bytes(h[16..20].try_into().unwrap()),
    })
}

/// Writes one frame.
pub fn write_frame(
    w: &mut impl Write,
    frame_type: FrameType,
    seq: u64,
    payload: &[u8],
) -> Result<(), NetError> {
    let header = header_bytes(frame_type, seq, payload.len() as u32);
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

fn is_timeout(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn mid_frame(what: &str) -> NetError {
    mid_frame_kind(std::io::ErrorKind::UnexpectedEof, what)
}

/// A mid-frame failure is always a hard [`NetError::Io`] (the stream is
/// desynced), but the io kind is preserved so a slow-loris stall still
/// counts as a deadline expiry ([`NetError::is_deadline`]) rather than a
/// generic socket death.
fn mid_frame_kind(kind: std::io::ErrorKind, what: &str) -> NetError {
    NetError::Io(std::io::Error::new(
        kind,
        format!("connection died inside a frame ({what})"),
    ))
}

/// Reads one frame, returning its header and payload.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<(FrameHeader, Vec<u8>), NetError> {
    let mut payload = Vec::new();
    let header = read_frame_into(r, max_payload, &mut payload)?;
    Ok((header, payload))
}

/// Reads one frame's payload into `payload` — resized to fit, whatever it
/// held, so a caller that keeps the buffer between frames allocates (and
/// faults in) nothing once it has seen its largest frame — and returns
/// the header.
///
/// A clean EOF or read timeout *before the first header byte* maps to
/// the benign [`NetError::PeerClosed`] / [`NetError::Timeout`] (the
/// connection is still frame-aligned); the same conditions mid-frame are
/// hard [`NetError::Io`] errors — the stream is desynced and must be
/// dropped.
pub fn read_frame_into(
    r: &mut impl Read,
    max_payload: usize,
    payload: &mut Vec<u8>,
) -> Result<FrameHeader, NetError> {
    let mut header = [0u8; HEADER_LEN];
    // The header is read by hand so a between-frames EOF/timeout is
    // distinguishable from a truncated frame.
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(NetError::PeerClosed),
            Ok(0) => return Err(mid_frame("EOF in header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) && got == 0 => return Err(NetError::Timeout),
            Err(e) if is_timeout(e.kind()) => {
                return Err(mid_frame_kind(e.kind(), "timeout in header"))
            }
            Err(e) => return Err(e.into()),
        }
    }
    let parsed = parse_header(&header)?;
    let len = parsed.len as usize;
    if len > max_payload {
        return Err(NetError::FrameTooLarge {
            len,
            max: max_payload,
        });
    }
    // Only growth past the previous frame's length is zero-filled: the
    // rest is about to be overwritten.
    payload.resize(len, 0);
    let mut read = 0usize;
    while read < len {
        match r.read(&mut payload[read..]) {
            Ok(0) => return Err(mid_frame("EOF in payload")),
            Ok(n) => read += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {
                return Err(mid_frame_kind(e.kind(), "timeout in payload"))
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Data, 9, b"payload").unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 7);
        let (h, p) = read_frame(&mut buf.as_slice(), 1024).unwrap();
        assert_eq!(h.frame_type, FrameType::Data);
        assert_eq!(h.seq, 9);
        assert_eq!(p, b"payload");
    }

    #[test]
    fn a_kept_buffer_is_resized_to_each_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Data, 1, &[7u8; 300]).unwrap();
        write_frame(&mut wire, FrameType::Data, 2, b"short").unwrap();
        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        assert_eq!(read_frame_into(&mut r, 1024, &mut buf).unwrap().seq, 1);
        assert_eq!(buf, [7u8; 300]);
        let held = buf.capacity();
        assert_eq!(read_frame_into(&mut r, 1024, &mut buf).unwrap().seq, 2);
        assert_eq!(buf, b"short");
        assert_eq!(
            buf.capacity(),
            held,
            "the second frame reused the first's buffer"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Data, 0, b"x").unwrap();
        buf[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(NetError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Data, 0, b"x").unwrap();
        buf[4] = 9;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(NetError::VersionMismatch { got: 9, want: 2 })
        ));
    }

    #[test]
    fn a_version_1_header_is_refused() {
        // What a build from before the packed residue rows sends first.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::ClientHello, 0, b"hello").unwrap();
        buf[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(NetError::VersionMismatch { got: 1, want: 2 })
        ));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Data, 0, &[0u8; 100]).unwrap();
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 10),
            Err(NetError::FrameTooLarge { len: 100, max: 10 })
        ));
    }

    #[test]
    fn clean_eof_is_peer_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut &*empty, 10),
            Err(NetError::PeerClosed)
        ));
    }

    #[test]
    fn truncated_header_is_hard_error() {
        let buf = [b'M', b'Y', b'C'];
        assert!(matches!(
            read_frame(&mut &buf[..], 10),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Data, 0, b"").unwrap();
        buf[6] = 0xEE;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 10),
            Err(NetError::BadFrameType { got: 0xEE })
        ));
    }
}
