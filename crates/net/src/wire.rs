//! Byte-level serialization: a little-endian writer/reader pair with
//! typed truncation errors.
//!
//! The workspace is hermetic (no serde), so every wire structure is
//! encoded by hand through these helpers. All integers are little-endian;
//! variable-length fields carry an explicit length prefix; readers never
//! panic on malformed input — they return [`NetError::Decode`], which
//! matters because a decode runs only *after* AEAD authentication, so a
//! failure here is version skew, not an attack to be absorbed quietly.

use crate::error::NetError;

/// Append-only byte sink.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A writer that appends behind what `buf` already holds — how a
    /// message is encoded straight into a buffer its owner reuses (take the
    /// buffer, write, [`finish`](Self::finish) it back).
    pub fn over(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Finishes and returns the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Makes room for `additional` more bytes in one step.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends `n` zero bytes and lends them out to be filled in place.
    pub fn put_zeroed(&mut self, n: usize) -> &mut [u8] {
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        &mut self.buf[at..]
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_vec(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v);
    }

    /// Appends a `u32` count followed by the raw little-endian words.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Appends a `u32` count followed by the raw little-endian words.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_vec(s.as_bytes());
    }
}

/// Cursor over a received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn short(what: &str) -> NetError {
    NetError::Decode(format!("truncated while reading {what}"))
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole payload was consumed (catches length bugs).
    pub fn expect_end(&self) -> Result<(), NetError> {
        if self.remaining() != 0 {
            return Err(NetError::Decode(format!(
                "{} trailing bytes after message",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(short(what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, NetError> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, NetError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        self.take(n, "bytes")
    }

    /// Reads a fixed 32-byte array.
    pub fn get_array32(&mut self) -> Result<[u8; 32], NetError> {
        Ok(self.take(32, "[u8; 32]")?.try_into().unwrap())
    }

    /// Reads a `u32`-length-prefixed byte vector.
    pub fn get_vec(&mut self) -> Result<Vec<u8>, NetError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(short("length-prefixed bytes"));
        }
        Ok(self.take(n, "vec")?.to_vec())
    }

    /// Reads a `u32`-count-prefixed `u64` slice.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, NetError> {
        let n = self.get_u32()? as usize;
        if n.checked_mul(8).is_none_or(|b| b > self.remaining()) {
            return Err(short("u64 slice"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Reads a `u32`-count-prefixed `u32` slice.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, NetError> {
        let n = self.get_u32()? as usize;
        if n.checked_mul(4).is_none_or(|b| b > self.remaining()) {
            return Err(short("u32 slice"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, NetError> {
        String::from_utf8(self.get_vec()?)
            .map_err(|_| NetError::Decode("invalid UTF-8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-5);
        w.put_f64(1.5);
        w.put_vec(b"abc");
        w.put_u64_slice(&[1, 2, 3]);
        w.put_str("héllo");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 513);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -5);
        assert_eq!(r.get_f64().unwrap(), 1.5);
        assert_eq!(r.get_vec().unwrap(), b"abc");
        assert_eq!(r.get_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.get_u32(), Err(NetError::Decode(_))));
    }

    #[test]
    fn oversized_length_prefix_is_typed() {
        // A length prefix claiming more bytes than remain must not
        // allocate or panic.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_vec(), Err(NetError::Decode(_))));
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_u64_vec(), Err(NetError::Decode(_))));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[0]);
        assert!(r.expect_end().is_err());
    }
}
