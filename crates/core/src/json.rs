//! A minimal, dependency-free JSON value: deterministic writer plus a
//! recursive-descent parser.
//!
//! The workspace builds fully offline (no serde), but the provenance layer
//! needs machine-readable artifacts: every `repro` entry writes an
//! `artifacts/<name>.json` document, and `repro` (or `repro --check`) reads
//! them back to regenerate (or check) RESULTS.md. [`Json`] is the
//! interchange type for both directions.
//!
//! Determinism rules (the artifacts must be byte-stable for fixed seeds):
//!
//! * objects keep insertion order (a `Vec` of pairs, not a map);
//! * numbers that hold an integral value within `i64` range print without
//!   a fraction; everything else uses Rust's shortest round-trip `f64`
//!   formatting;
//! * non-finite numbers serialize as `null`;
//! * `u64` quantities that can exceed 2^53 (seeds are fine, digests are
//!   not) must be stored as hex *strings* — JSON numbers are doubles.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a key/value pair (panics on non-objects).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("set() on a non-object"),
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Shorthand: `get(key)` then `as_f64`.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Shorthand: `get(key)` then `as_str`.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Serializes with 2-space indentation and a trailing newline —
    /// byte-stable for identical values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&fmt_num(*x)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars print inline; arrays with any container
                // print one element per line.
                let nested = items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_)));
                if !nested {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        pad(out, indent + 1);
                        item.write(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    pad(out, indent);
                    out.push(']');
                }
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Returns `Err` with a byte offset and message
    /// on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Deterministic JSON number formatting (see module docs).
#[expect(
    clippy::cast_possible_truncation,
    reason = "only integral values below 9e15 take this path, exact in i64"
)]
fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x.fract() == 0.0 && x.abs() < 9.0e15 {
        let mut s = String::new();
        let _ = write!(s, "{}", x as i64);
        s
    } else {
        format!("{x}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    match c {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        c => Err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        *pos += 4;
                        // Surrogate pairs are not needed for our artifacts;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    e => return Err(format!("bad escape {e:#x}")),
                }
            }
            c if c < 0x80 => out.push(c as char),
            _ => {
                // Multi-byte UTF-8: find the full scalar at pos-1.
                let start = *pos - 1;
                let s = std::str::from_utf8(&bytes[start..])
                    .map_err(|e| format!("bad utf-8 in string: {e}"))?;
                let ch = s.chars().next().ok_or("empty char")?;
                out.push(ch);
                *pos = start + ch.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&c) = bytes.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let doc = Json::obj()
            .with("artifact", Json::Str("fig07".into()))
            .with("seed", Json::Num(42.0))
            .with("quick", Json::Bool(true))
            .with("none", Json::Null)
            .with(
                "rows",
                Json::Arr(vec![
                    Json::obj()
                        .with("n", Json::Num(50.0))
                        .with("measured", Json::Num(96.5)),
                    Json::obj()
                        .with("n", Json::Num(100.0))
                        .with("measured", Json::Num(64.25)),
                ]),
            );
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
        // And re-rendering is byte-stable.
        assert_eq!(text, back.render());
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(fmt_num(42.0), "42");
        assert_eq!(fmt_num(-3.0), "-3");
        assert_eq!(fmt_num(0.25), "0.25");
        assert_eq!(fmt_num(f64::NAN), "null");
        // Past 2^53, integral floats stay in float form only if huge; the
        // i64 path covers everything below 9e15.
        assert_eq!(fmt_num(9_007_199_254_740_992.0), "9007199254740992");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a \"b\" \\ \n\t μ";
        let doc = Json::Str(s.to_string());
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 1.5, "b": "x", "c": [1, 2]}"#).unwrap();
        assert_eq!(doc.num("a"), Some(1.5));
        assert_eq!(doc.str("b"), Some("x"));
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.num("missing"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nested_arrays_format_multiline_scalars_inline() {
        let doc = Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]);
        assert_eq!(doc.render(), "[1, 2]\n");
        let nested = Json::Arr(vec![Json::Arr(vec![Json::Num(1.0)])]);
        assert!(nested.render().contains('\n'));
        assert_eq!(Json::parse(&nested.render()).unwrap(), nested);
    }
}
