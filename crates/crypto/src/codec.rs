//! The workspace's one byte codec: a little-endian [`Writer`] and a
//! bounds-checked [`Reader`] whose every failure is a typed [`CodecError`]
//! naming the field it was reading.
//!
//! The wire, the round certificate and the budget ledger all encode through
//! this pair, and each needs bytes with exactly one encoding (the
//! certificate's transcript is checked by re-encoding, the journal replays
//! request bodies as they arrived, a ledger is a digest over its ops). So
//! the rules are canonical: fixed-width little-endian integers, an `f64` as
//! its bit pattern (`-0.0` round-trips), a bool or an option's presence byte
//! is 0 or 1, map keys strictly ascend, a count is checked against the
//! caller's limit and the bytes remaining before anything is allocated, and
//! a decode ends with [`Reader::end`]. Nothing here panics on untrusted
//! input.

use std::collections::BTreeMap;
use std::fmt;

/// Typed decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside `field`.
    Truncated { field: &'static str },
    /// `field`'s count prefix exceeded its hard limit.
    CountTooLarge {
        field: &'static str,
        count: usize,
        max: usize,
    },
    /// `field` was not valid UTF-8.
    BadUtf8 { field: &'static str },
    /// `field`'s tag byte named no variant.
    BadTag { field: &'static str, tag: u8 },
    /// `field` was not in its one canonical form (a bool encoded as 2, a
    /// repeated or out-of-order map key): tampered bytes that re-encoded
    /// cleanly would slip past a digest checked by re-encoding.
    NonCanonical { field: &'static str },
    /// `extra` bytes remained after the last field.
    TrailingBytes { extra: usize },
}

impl CodecError {
    /// The [`BadTag`](Self::BadTag) failure, in the caller's error type.
    pub fn bad_tag<T, E: From<Self>>(field: &'static str, tag: u8) -> Result<T, E> {
        Err(Self::BadTag { field, tag }.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { field } => write!(f, "input ends inside {field}"),
            Self::CountTooLarge { field, count, max } => {
                write!(f, "{field} count {count} exceeds limit {max}")
            }
            Self::BadUtf8 { field } => write!(f, "{field} is not valid UTF-8"),
            Self::BadTag { field, tag } => write!(f, "unknown {field} tag {tag}"),
            Self::NonCanonical { field } => write!(f, "{field} is not canonically encoded"),
            Self::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink over a buffer its owner may keep.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self::over(Vec::with_capacity(cap))
    }

    /// A writer that appends behind what `buf` already holds — how a
    /// message is encoded straight into a buffer its owner reuses (take the
    /// buffer, write, [`finish`](Self::finish) it back).
    pub fn over(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Returns the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Makes room for `additional` more bytes in one step.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as the byte 0 or 1.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes (no length prefix).
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends `n` zero bytes and lends them out to be filled in place.
    #[inline]
    pub fn put_zeroed(&mut self, n: usize) -> &mut [u8] {
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        &mut self.buf[at..]
    }

    /// Appends an option: the byte 0, or the byte 1 and the value.
    #[inline]
    pub fn put_opt<T: ?Sized>(&mut self, v: Option<&T>, put: impl FnOnce(&mut Self, &T)) {
        self.put_bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.put_bytes(s.as_bytes());
    }

    /// Appends a `u32` count followed by the little-endian words.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u32(v.len() as u32);
        v.iter().for_each(|&x| self.put_u32(x));
    }

    /// Appends a `u32` count followed by the little-endian words.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u32(v.len() as u32);
        v.iter().for_each(|&x| self.put_u64(x));
    }

    /// Appends a sequence: a `u32` count, then each item as `put` writes it.
    pub fn put_seq<T>(&mut self, items: &[T], put: impl Fn(&mut Self, &T)) {
        self.put_u32(items.len() as u32);
        for item in items {
            put(self, item);
        }
    }

    /// Appends a string-keyed map: a `u32` count, then each key (as
    /// [`put_str`](Self::put_str)) and its value, in key order.
    pub fn put_map<V>(&mut self, map: &BTreeMap<String, V>, put: impl Fn(&mut Self, &V)) {
        self.put_u32(map.len() as u32);
        for (key, v) in map {
            self.put_str(key);
            put(self, v);
        }
    }
}

/// Bounds-checked cursor over untrusted bytes.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Reads `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Reads exactly `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, field: &'static str, n: usize) -> Result<&'a [u8], CodecError> {
        let split = self.rest.split_at_checked(n);
        let (head, rest) = split.ok_or(CodecError::Truncated { field })?;
        self.rest = rest;
        Ok(head)
    }

    /// Reads a fixed-size byte array (a digest, a key, a signature).
    #[inline]
    pub fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], CodecError> {
        let split = self.rest.split_first_chunk::<N>();
        let (head, rest) = split.ok_or(CodecError::Truncated { field })?;
        self.rest = rest;
        Ok(*head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.array::<1>(field)?[0])
    }

    /// Reads a bool: the byte 0 or 1, anything else is not canonical.
    #[inline]
    pub fn bool(&mut self, field: &'static str) -> Result<bool, CodecError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::NonCanonical { field }),
        }
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(field)?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(field)?))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, field: &'static str) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array(field)?))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self, field: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    /// Reads an option written by [`Writer::put_opt`]; a presence byte
    /// other than 0 / 1 is [`CodecError::BadTag`].
    #[inline]
    pub fn opt<T, E: From<CodecError>>(
        &mut self,
        field: &'static str,
        get: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        match self.u8(field)? {
            0 => Ok(None),
            1 => get(self).map(Some),
            tag => CodecError::bad_tag(field, tag),
        }
    }

    /// Reads a `u32` count of at most `max` elements of at least `width`
    /// bytes each: one the remaining bytes cannot hold is a truncation,
    /// refused like an oversized one before anything is allocated for it.
    #[inline]
    fn counted(
        &mut self,
        field: &'static str,
        max: usize,
        width: usize,
    ) -> Result<usize, CodecError> {
        let count = self.u32(field)? as usize;
        if count > max {
            return Err(CodecError::CountTooLarge { field, count, max });
        }
        if count.saturating_mul(width) > self.remaining() {
            return Err(CodecError::Truncated { field });
        }
        Ok(count)
    }

    /// Reads the `u32` count of a sequence of at most `max` elements. Every
    /// element takes at least one byte, so `Vec::with_capacity(count)` is
    /// bounded by the input.
    #[inline]
    pub fn count(&mut self, field: &'static str, max: usize) -> Result<usize, CodecError> {
        self.counted(field, max, 1)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string of at most `max` bytes.
    pub fn str(&mut self, field: &'static str, max: usize) -> Result<String, CodecError> {
        let len = self.count(field, max)?;
        let raw = self.bytes(field, len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadUtf8 { field })
    }

    /// Reads a `u32`-count-prefixed vector of at most `max` `u32`s.
    pub fn u32s(&mut self, field: &'static str, max: usize) -> Result<Vec<u32>, CodecError> {
        let n = self.counted(field, max, 4)?;
        (0..n).map(|_| self.u32(field)).collect()
    }

    /// Reads a `u32`-count-prefixed vector of at most `max` `u64`s.
    pub fn u64s(&mut self, field: &'static str, max: usize) -> Result<Vec<u64>, CodecError> {
        let n = self.counted(field, max, 8)?;
        (0..n).map(|_| self.u64(field)).collect()
    }

    /// Reads a sequence written by [`Writer::put_seq`] of at most `max`
    /// items, each as `get` reads it.
    pub fn seq<T, E: From<CodecError>>(
        &mut self,
        field: &'static str,
        max: usize,
        get: impl Fn(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.count(field, max)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// Reads a map written by [`Writer::put_map`] of at most `max` entries
    /// (a key's length is bounded by the bytes alone); a key that does not
    /// strictly follow the one before it is [`CodecError::NonCanonical`],
    /// never a silent overwrite or reorder.
    pub fn map<V, E: From<CodecError>>(
        &mut self,
        field: &'static str,
        max: usize,
        get: impl Fn(&mut Self) -> Result<V, E>,
    ) -> Result<BTreeMap<String, V>, E> {
        let mut map = BTreeMap::new();
        for _ in 0..self.count(field, max)? {
            let key = self.str(field, u32::MAX as usize)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= key) {
                return Err(CodecError::NonCanonical { field }.into());
            }
            let v = get(self)?;
            map.insert(key, v);
        }
        Ok(map)
    }

    /// Fails unless every byte has been consumed. Every decode ends here.
    pub fn end(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-5);
        w.put_f64(1.5);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7ff8_0000_0000_0001));
        w.put_bytes(&[9; 32]);
        w.put_str("héllo");
        w.put_str("");
        w.put_u32_slice(&[70_000, 0, u32::MAX]);
        w.put_u64_slice(&[1 << 40, 2, 3]);
        w.put_u64_slice(&[]);
        w.put_opt(None::<&u32>, |w, &v| w.put_u32(v));
        w.put_opt(Some(&9u32), |w, &v| w.put_u32(v));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert!(r.bool("b").unwrap());
        assert!(!r.bool("c").unwrap());
        assert_eq!(r.u32("d").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("e").unwrap(), u64::MAX);
        assert_eq!(r.i64("f").unwrap(), -5);
        assert_eq!(r.f64("g").unwrap(), 1.5);
        // Floats travel as bit patterns: -0.0 and a NaN payload survive.
        assert_eq!(r.f64("h").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("i").unwrap().to_bits(), 0x7ff8_0000_0000_0001);
        assert_eq!(r.array::<32>("j").unwrap(), [9; 32]);
        assert_eq!(r.str("k", 16).unwrap(), "héllo");
        assert_eq!(r.str("l", 0).unwrap(), "");
        assert_eq!(r.u32s("m", 3).unwrap(), [70_000, 0, u32::MAX]);
        assert_eq!(r.u64s("n", 3).unwrap(), [1 << 40, 2, 3]);
        assert_eq!(r.u64s("o", 0).unwrap(), []);
        let opt = |r: &mut Reader| r.opt("p", |r| r.u32("q"));
        assert_eq!(opt(&mut r), Ok(None));
        assert_eq!(opt(&mut r), Ok(Some(9)));
        r.end().unwrap();
    }

    /// A ledger-shaped record: it round-trips bit-exactly, every proper
    /// prefix is a typed truncation, and one byte more is trailing garbage.
    #[test]
    fn roundtrip_and_strictness() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_str("KHOP");
        let bytes = w.finish();
        let read = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let record = (
                r.u8("tag")?,
                r.u32("round")?,
                r.u64("word")?,
                r.f64("epsilon")?.to_bits(),
                r.str("query", 1 << 16)?,
            );
            r.end().map(|()| record)
        };
        let back = read(&bytes).unwrap();
        assert_eq!(
            back,
            (7, 0xDEAD_BEEF, u64::MAX, (-0.0f64).to_bits(), "KHOP".into())
        );
        for cut in 0..bytes.len() {
            assert!(
                matches!(read(&bytes[..cut]), Err(CodecError::Truncated { .. })),
                "cut at {cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(read(&extended), Err(CodecError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn the_writer_appends_behind_a_kept_buffer() {
        let mut w = Writer::over(vec![1, 2]);
        w.reserve(64);
        w.put_zeroed(3).copy_from_slice(&[7, 8, 9]);
        w.put_u8(4);
        assert_eq!(w.len(), 6);
        assert_eq!(w.finish(), [1, 2, 7, 8, 9, 4]);
        let mut w = Writer::with_capacity(16);
        assert!(w.put_zeroed(5).iter().all(|&b| b == 0));
        assert_eq!(w.len(), 5);
    }

    /// A length prefix claiming more than remains must neither allocate
    /// for the claim nor panic.
    #[test]
    fn oversized_length_prefix_is_typed() {
        let bytes = u32::MAX.to_le_bytes();
        let unbounded = u32::MAX as usize;
        // Within its limit, the claim is checked against the bytes there are.
        let short = |field| Some(CodecError::Truncated { field });
        assert_eq!(Reader::new(&bytes).str("s", unbounded).err(), short("s"));
        assert_eq!(Reader::new(&bytes).count("n", unbounded).err(), short("n"));
        assert_eq!(Reader::new(&bytes).u64s("v", unbounded).err(), short("v"));
        assert_eq!(Reader::new(&bytes).u32s("v", unbounded).err(), short("v"));
        // Three words claimed, one present.
        let mut w = Writer::new();
        w.put_u32(3);
        w.put_u32(1);
        assert_eq!(
            Reader::new(&w.finish()).u32s("want", 16).err(),
            short("want")
        );
    }

    #[test]
    fn typed_failures() {
        // Truncation names its field and consumes nothing.
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32("x"), Err(CodecError::Truncated { field: "x" }));
        assert_eq!(r.remaining(), 2);
        assert_eq!(
            r.bytes("row", 4),
            Err(CodecError::Truncated { field: "row" })
        );
        assert_eq!(
            r.array::<4>("key"),
            Err(CodecError::Truncated { field: "key" })
        );
        // A count above its limit, at the limit.
        let mut w = Writer::new();
        w.put_u32_slice(&[0; 11]);
        let bytes = w.finish();
        let too_large = CodecError::CountTooLarge {
            field: "n",
            count: 11,
            max: 10,
        };
        assert_eq!(Reader::new(&bytes).count("n", 10), Err(too_large.clone()));
        assert_eq!(Reader::new(&bytes).u32s("n", 10), Err(too_large));
        assert_eq!(Reader::new(&bytes).count("n", 11), Ok(11));
        assert_eq!(Reader::new(&bytes).u32s("n", 11).unwrap().len(), 11);
        let mut w = Writer::new();
        w.put_str("query");
        assert!(matches!(
            Reader::new(&w.finish()).str("q", 4),
            Err(CodecError::CountTooLarge {
                count: 5,
                max: 4,
                ..
            })
        ));
        // Invalid UTF-8.
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.finish();
        let bad_utf8 = Err(CodecError::BadUtf8 { field: "s" });
        assert_eq!(Reader::new(&bytes).str("s", 16), bad_utf8);
        // The canonical bool, and an option's presence byte.
        let mut r = Reader::new(&[0, 1, 2, 2]);
        assert_eq!(r.bool("flag"), Ok(false));
        assert_eq!(r.bool("flag"), Ok(true));
        let non_canonical = CodecError::NonCanonical { field: "flag" };
        assert_eq!(r.bool("flag"), Err(non_canonical));
        let bad_tag = CodecError::BadTag {
            field: "slot",
            tag: 2,
        };
        assert_eq!(r.opt("slot", |r| r.u8("v")), Err(bad_tag.clone()));
        assert_eq!(bad_tag.to_string(), "unknown slot tag 2");
        // Trailing bytes.
        let r = Reader::new(&[0]);
        assert_eq!(r.end(), Err(CodecError::TrailingBytes { extra: 1 }));
    }
}
