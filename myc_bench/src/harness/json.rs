//! The one JSON writer of the benchmark: keys stay in the order they
//! were given, so two runs of the same code differ only in the numbers.

/// A JSON value whose object keys keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A measured number, written with all its digits. A value that is
    /// not finite has no JSON form and is written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in the order given.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value on one line.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// The value over several lines, two spaces per level. Arrays and
    /// objects that hold only scalars stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let flat = items.iter().all(Json::is_scalar);
                let indent = indent.filter(|_| !flat);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, i, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                close(out, items.is_empty(), indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                let flat = pairs.iter().all(|(_, v)| v.is_scalar());
                let indent = indent.filter(|_| !flat);
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    separate(out, i, indent, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                close(out, pairs.is_empty(), indent, depth);
                out.push('}');
            }
        }
    }
}

/// The number that follows the first `prefix` in `text`: all this
/// benchmark reads back of the JSON it wrote itself.
pub fn number_after(text: &str, prefix: &str) -> Option<f64> {
    let rest = &text[text.find(prefix)? + prefix.len()..];
    let end = rest.find([',', '}', ' ', '\n']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn separate(out: &mut String, i: usize, indent: Option<usize>, depth: usize) {
    if i > 0 {
        out.push(',');
    }
    match indent {
        Some(w) => {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
        None if i > 0 => out.push(' '),
        None => {}
    }
}

fn close(out: &mut String, empty: bool, indent: Option<usize>, depth: usize) {
    if let (Some(w), false) = (indent, empty) {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("zeta", Json::Bool(true)),
            ("alpha", Json::Int(12)),
            (
                "metrics",
                Json::obj([(
                    "wall_s",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::str("a\"b"), Json::Num(0.5)])),
            ("empty", Json::Arr(vec![])),
        ])
    }

    #[test]
    fn one_line_form_keeps_key_order() {
        assert_eq!(
            sample().line(),
            "{\"zeta\": true, \"alpha\": 12, \"metrics\": {\"wall_s\": \
             {\"value\": 1.2034, \"unit\": \"s\"}}, \"list\": [\"a\\\"b\", 0.5], \"empty\": []}"
        );
    }

    #[test]
    fn pretty_form_keeps_scalar_containers_on_one_line() {
        assert_eq!(
            sample().pretty(),
            "{\n  \"zeta\": true,\n  \"alpha\": 12,\n  \"metrics\": {\n    \
             \"wall_s\": {\"value\": 1.2034, \"unit\": \"s\"}\n  },\n  \
             \"list\": [\"a\\\"b\", 0.5],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn written_numbers_read_back() {
        let line = sample().line();
        assert_eq!(number_after(&line, "\"alpha\": "), Some(12.0));
        assert_eq!(
            number_after(&line, "\"wall_s\": {\"value\": "),
            Some(1.2034)
        );
        assert_eq!(number_after(&line, "\"zeta\": "), None);
        assert_eq!(number_after(&line, "\"missing\": "), None);
        assert_eq!(number_after("{\"x\": 7}", "\"x\": "), Some(7.0));
        assert_eq!(number_after("\"x\": 7", "\"x\": "), Some(7.0));
    }

    #[test]
    fn numbers_keep_their_digits_and_never_use_an_exponent() {
        assert_eq!(Json::Num(0.000000123456789).line(), "0.000000123456789");
        assert_eq!(Json::Num(66012345.0).line(), "66012345");
        assert_eq!(Json::Num(1.0 / 3.0).line(), "0.3333333333333333");
        assert_eq!(Json::Num(f64::NAN).line(), "null");
        assert_eq!(Json::Num(f64::INFINITY).line(), "null");
        assert_eq!(Json::str("tab\there\n").line(), "\"tab\\u0009here\\n\"");
    }
}
