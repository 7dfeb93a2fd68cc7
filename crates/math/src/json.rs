//! The workspace's one JSON value, writer and reader: every artifact a
//! round or a benchmark leaves on disk is a [`Json`] written by its
//! `Display`, and whatever reads one back goes through [`parse`].
//!
//! The layout: a container holding only scalars sits on one line,
//! otherwise each member goes on its own line two spaces deeper; empty
//! containers are `{}` and `[]`; objects keep the order they were built
//! in. Strings escape `"`, `\` and every control character (RFC 8259). A
//! number keeps its text: an integer as written, an `f64` in full (the
//! shortest decimal that reads back as it, never an exponent) or at a
//! stated number of decimals, `null` if it is not finite. [`parse`] reads
//! the RFC 8259 grammar and nothing else, at most [`MAX_DEPTH`] containers
//! deep, fails with a [`ParseError`] naming the byte offset, and reads
//! what the writer wrote back to the value it was rendered from.

use std::fmt::{self, Display, Write};

/// How deep [`parse`] lets containers nest.
pub const MAX_DEPTH: usize = 64;

/// A JSON value whose objects keep their members in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in the order given.
    Obj(Vec<(String, Json)>),
}

/// A number as its JSON text; only the constructors and [`parse`] make one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

impl Json {
    /// An object from `(key, value)` members, in their order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` at exactly `places` decimals.
    pub fn fixed(x: f64, places: usize) -> Json {
        finite(x, || format!("{x:.places$}"))
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let members = self.as_object()?;
        members.iter().find_map(|(k, v)| (k == key).then_some(v))
    }

    /// A whole number that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.number()?.parse().ok()
    }

    /// Any number, as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()?.parse().ok()
    }

    fn number(&self) -> Option<&str> {
        let Json::Num(Number(n)) = self else {
            return None;
        };
        Some(n)
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// An array's items.
    pub fn as_array(&self) -> Option<&[Json]> {
        let Json::Arr(items) = self else { return None };
        Some(items)
    }

    /// An object's members, in order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        let Json::Obj(m) = self else { return None };
        Some(m)
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(Number(n)) => f.write_str(n),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => write_members(f, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(f, depth, "{}", members)
            }
        }
    }
}

/// `null` for an `x` that is not finite, which has no JSON form.
fn finite(x: f64, text: impl FnOnce() -> String) -> Json {
    if !x.is_finite() {
        return Json::Null;
    }
    Json::Num(Number(text()))
}

macro_rules! from {
    ($($t:ty => |$x:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $value
            }
        }
    )*};
}

from! {
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    // In full: the shortest decimal that reads back as the same `f64`.
    f64 => |x| finite(x, || x.to_string()),
    u32 => |x| Json::Num(Number(x.to_string())),
    u64 => |x| Json::Num(Number(x.to_string())),
    usize => |x| Json::Num(Number(x.to_string())),
    i64 => |x| Json::Num(Number(x.to_string())),
}

/// An array of the items.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// The layout rule, without a final newline.
impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

fn write_members<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) -> fmt::Result {
    // One line unless a member is a container (so always when empty).
    let lines = (members.clone()).any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
    let (newline, width, comma) = if lines { ("\n", 2, ",") } else { ("", 0, ", ") };
    f.write_str(&brackets[..1])?;
    for (i, (key, value)) in members.enumerate() {
        let comma = if i == 0 { "" } else { comma };
        write!(f, "{comma}{newline}{:pad$}", "", pad = width * (depth + 1))?;
        if let Some(key) = key {
            write_str(f, key)?;
            f.write_str(": ")?;
        }
        value.write(f, depth + 1)?;
    }
    let close = &brackets[1..];
    write!(f, "{newline}{:pad$}{close}", "", pad = width * depth)
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Where [`parse`] refused a text, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the text.
    pub offset: usize,
    /// What was wrong there.
    pub kind: ErrorKind,
}

/// What [`parse`] found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The text ended inside a value.
    End,
    /// A byte that cannot start or continue a value here.
    Unexpected,
    /// A number outside the grammar (`-`, `1.`, `1e`).
    Number,
    /// A raw control character, an unknown escape or a lone surrogate.
    String,
    /// Containers nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Something other than whitespace after the value.
    Trailing,
}

impl Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON {:?} at byte {}", self.kind, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Reads one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at < text.len() {
        return Err(p.fail(ErrorKind::Trailing));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let here = self.peek() == Some(byte);
        self.at += usize::from(here);
        here
    }

    fn fail(&self, kind: ErrorKind) -> ParseError {
        let offset = self.at;
        ParseError { offset, kind }
    }

    /// `End` at the end of the text, `Unexpected` anywhere else.
    fn unexpected(&self) -> ParseError {
        self.fail(match self.peek() {
            None => ErrorKind::End,
            Some(_) => ErrorKind::Unexpected,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// A value inside `depth` containers.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.fail(ErrorKind::TooDeep)),
            Some(b'[') => self.members(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'{') => self.members(b'}', |p| p.member(depth + 1)).map(Json::Obj),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let words = [
                    ("true", Json::Bool(true)),
                    ("false", false.into()),
                    ("null", Json::Null),
                ];
                let rest = &self.text[self.at..];
                let found = words.into_iter().find(|(word, _)| rest.starts_with(word));
                let (word, value) = found.ok_or(self.unexpected())?;
                self.at += word.len();
                Ok(value)
            }
        }
    }

    /// A `"key": value` member of an object, its value inside `depth`
    /// containers.
    fn member(&mut self, depth: usize) -> Result<(String, Json), ParseError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.unexpected());
        }
        Ok((key, self.value(depth)?))
    }

    /// The comma-separated members of the container at the cursor, up to
    /// its `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.at += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.unexpected());
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat(b'"') {
            return Err(self.unexpected());
        }
        let mut out = String::new();
        loop {
            // A run of plain characters stops only at an ASCII byte, so on a
            // character boundary.
            let run = self.at;
            while matches!(self.peek(), Some(b) if b >= b' ' && b != b'"' && b != b'\\') {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.fail(ErrorKind::String)),
                None => return Err(self.fail(ErrorKind::End)),
            }
        }
    }

    /// The character the escape at the cursor stands for.
    fn escape(&mut self) -> Result<char, ParseError> {
        let bad = self.fail(ErrorKind::String);
        self.at += 1;
        let Some(byte) = self.peek() else {
            return Err(self.fail(ErrorKind::End));
        };
        self.at += 1;
        let c = match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                // One UTF-16 unit, or a surrogate pair written as two.
                let mut units = vec![self.hex4().ok_or(bad)?];
                if (0xd800..0xdc00).contains(&units[0]) && self.text[self.at..].starts_with("\\u") {
                    self.at += 2;
                    units.push(self.hex4().ok_or(bad)?);
                }
                let mut chars = char::decode_utf16(units);
                match (chars.next(), chars.next()) {
                    (Some(Ok(c)), None) => c,
                    _ => return Err(bad),
                }
            }
            _ => return Err(bad),
        };
        Ok(c)
    }

    fn hex4(&mut self) -> Option<u16> {
        let digits = self.text.as_bytes().get(self.at..self.at + 4)?;
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        self.at += 4;
        u16::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
    }

    fn digits(&mut self) -> bool {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at > start
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        self.eat(b'-');
        // Integer part, then an optional fraction and exponent; the first
        // part without its digits fails.
        let whole = (self.eat(b'0') || self.digits())
            && (!self.eat(b'.') || self.digits())
            && (!(self.eat(b'e') || self.eat(b'E')) || {
                let _sign = self.eat(b'+') || self.eat(b'-');
                self.digits()
            });
        if !whole {
            return Err(self.fail(ErrorKind::Number));
        }
        Ok(Json::Num(Number(self.text[start..self.at].to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("zeta", true.into()),
            ("alpha", 12u64.into()),
            (
                "metrics",
                Json::obj([(
                    "wall_s",
                    Json::obj([("value", 1.2034.into()), ("unit", "s".into())]),
                )]),
            ),
            ("list", Json::Arr(vec!["a\"b".into(), Json::fixed(0.5, 2)])),
            ("rows", [-3i64, 0, 7].into_iter().collect()),
            ("empty", Json::Arr(vec![])),
            ("none", Json::obj::<&str>([])),
            ("nested", Json::Arr(vec![Json::Arr(vec![]), Json::Null])),
        ])
    }

    const SAMPLE: &str = r#"{
  "zeta": true,
  "alpha": 12,
  "metrics": {
    "wall_s": {"value": 1.2034, "unit": "s"}
  },
  "list": ["a\"b", 0.50],
  "rows": [-3, 0, 7],
  "empty": [],
  "none": {},
  "nested": [
    [],
    null
  ]
}"#;

    #[test]
    fn containers_of_scalars_sit_on_one_line() {
        assert_eq!(sample().to_string(), SAMPLE);
        assert_eq!(Json::obj([("k", 1u32.into())]).to_string(), "{\"k\": 1}");
        assert_eq!(Json::from("top").to_string(), "\"top\"");
    }

    #[test]
    fn written_documents_parse_back_to_their_value() {
        assert_eq!(parse(SAMPLE), Ok(sample()));
        let got = parse(SAMPLE).unwrap();
        assert_eq!(got.get("alpha").and_then(Json::as_u64), Some(12));
        let wall = got.get("metrics").and_then(|m| m.get("wall_s"));
        assert_eq!(wall.and_then(|w| w.get("value")?.as_f64()), Some(1.2034));
        assert_eq!(wall.and_then(|w| w.get("unit")?.as_str()), Some("s"));
        assert_eq!(
            got.get("rows").and_then(Json::as_array).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(got.get("zeta").and_then(Json::as_u64), None);
        assert_eq!(got.get("missing"), None);
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_every_control_character() {
        let s = "q\"b\\n\nt\tu\u{1f}é\u{7f}";
        let text = Json::from(s).to_string();
        assert_eq!(text, "\"q\\\"b\\\\n\\nt\\u0009u\\u001fé\u{7f}\"");
        assert_eq!(parse(&text), Ok(Json::from(s)));
        let all = "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\ud83d\\ude00\"";
        assert_eq!(
            parse(all),
            Ok(Json::from("\"\\/\u{8}\u{c}\n\r\té\u{1f600}"))
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        let text = |j: Json| j.to_string();
        assert_eq!(text(0.000000123456789.into()), "0.000000123456789");
        assert_eq!(text(66012345.0.into()), "66012345");
        assert_eq!(text((1.0 / 3.0).into()), "0.3333333333333333");
        assert_eq!(text(Json::fixed(1234.5, 2)), "1234.50");
        assert_eq!(text(Json::fixed(2.0 / 3.0, 0)), "1");
        assert_eq!(text(f64::NAN.into()), "null");
        assert_eq!(text(Json::fixed(f64::INFINITY, 2)), "null");
        assert_eq!(text(u64::MAX.into()), "18446744073709551615");
        assert_eq!(text(i64::MIN.into()), "-9223372036854775808");
        for n in ["0", "-0", "12.50", "1e5", "-2.5E-3", "1E+2"] {
            assert_eq!(parse(n).map(|j| j.to_string()).as_deref(), Ok(n));
        }
        assert_eq!(parse("1e5").unwrap().as_f64(), Some(1e5));
        assert_eq!(parse("1e5").unwrap().as_u64(), None);
        assert_eq!(parse(" 7 ").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn malformed_text_fails_typed_at_its_offset() {
        use ErrorKind::*;
        let deep = "[".repeat(MAX_DEPTH + 1);
        for (text, offset, kind) in [
            ("", 0, End),
            ("  ", 2, End),
            ("{", 1, End),
            ("[1,]", 3, Unexpected),
            ("[1 2]", 3, Unexpected),
            ("{\"a\" 1}", 5, Unexpected),
            ("{1: 2}", 1, Unexpected),
            ("tru", 0, Unexpected),
            ("01", 1, Trailing),
            ("[] x", 3, Trailing),
            ("-", 1, Number),
            ("1.", 2, Number),
            ("1e+", 3, Number),
            ("\"a\nb\"", 2, String),
            ("\"\\x\"", 1, String),
            ("\"\\u12g4\"", 1, String),
            ("\"\\u12", 1, String),
            ("\"\\ud800\"", 1, String),
            ("\"\\ud800\\u0041\"", 1, String),
            ("\"\\udc00\"", 1, String),
            ("\"abc", 4, End),
            ("{\"a\": 1, \"a\"", 12, End),
            ("\"\\", 2, End),
            (&deep, MAX_DEPTH, TooDeep),
        ] {
            assert_eq!(parse(text), Err(ParseError { offset, kind }), "{text:?}");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        assert_eq!(
            parse("{\"a\": 1} ]").unwrap_err().to_string(),
            "JSON Trailing at byte 9"
        );
    }
}
