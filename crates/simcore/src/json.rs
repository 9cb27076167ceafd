//! The workspace's one JSON writer, plus a dependency-free [`Json`] value
//! and recursive-descent parser.
//!
//! Every JSON byte the reproduction writes goes through [`JsonWriter`]:
//! the pretty `artifacts/*.json` documents ([`Json::render`]), the JSON
//! Lines sidecars (telemetry, drop forensics, flow spans, the causal
//! join) and the Chrome trace (`simcore::TraceBuilder::render`). The
//! writer streams straight into one `String` — a JSON Lines export or a
//! half-million-event trace never builds a value tree — and owns the three
//! things those formats must agree on:
//!
//! * string escaping (quotes, backslashes, control characters);
//! * number forms: exact `u64` ([`JsonWriter::u64`]), shortest round-trip
//!   `f64` ([`JsonWriter::f64`]) and fixed decimals
//!   ([`JsonWriter::fixed`], Rust's `{:.N}`), with a non-finite float
//!   written as `null` in both float forms (JSON has no NaN);
//! * punctuation, in the three [`Layout`]s the committed files pin.
//!
//! Determinism rules (the artifacts must be byte-stable for fixed seeds):
//! objects keep insertion order (a `Vec` of pairs, not a map); floats print
//! in Rust's shortest round-trip form, so an integral value has no
//! fraction and `-0.0` prints as `-0`; `u64` quantities that can exceed
//! 2^53 must go through [`JsonWriter::u64`] or, inside a [`Json`] tree
//! (whose numbers are doubles), be stored as hex *strings*.

use std::fmt::{self, Write as _};

/// How a [`JsonWriter`] punctuates containers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `"k": v`, two-space indentation on broken lines — the
    /// `artifacts/*.json` documents.
    Pretty,
    /// `{"k":v,"k2":v2}` — one JSON Lines record per line.
    Dense,
    /// `{"k": v, "k2": v2}` — the Chrome trace's events.
    Spaced,
}

impl Layout {
    /// `(after a key, after a comma in a one-line container, one
    /// indentation level of a broken line)`.
    fn punctuation(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Layout::Pretty => (": ", " ", "  "),
            Layout::Dense => (":", "", ""),
            Layout::Spaced => (": ", " ", ""),
        }
    }
}

/// An open container.
#[derive(Clone, Copy, Debug)]
struct Frame {
    close: char,
    /// One item per line (opened by `obj_lines` / `arr_lines`).
    lines: bool,
    empty: bool,
}

/// A streaming JSON writer: values, keys and container punctuation go
/// straight into the output `String`.
///
/// Calls chain: `w.obj().key("t_ns").u64(t).key("v").f64(v).end()` writes
/// `{"t_ns":120,"v":2.5}` in [`Layout::Dense`]. Inside an object, every
/// value follows a [`key`](JsonWriter::key); inside an array, values follow
/// one another. [`obj`](JsonWriter::obj) keeps an object on one line;
/// inside the crate, `obj_lines` / `arr_lines` put each item on its own
/// line, indented by the layout (the Chrome trace, and [`Json`] trees in
/// [`Layout::Pretty`]). An empty container prints as `{}` / `[]`.
#[derive(Clone, Debug)]
pub struct JsonWriter {
    out: String,
    layout: Layout,
    frames: Vec<Frame>,
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new(layout: Layout) -> Self {
        JsonWriter {
            out: String::new(),
            layout,
            frames: Vec::new(),
            after_key: false,
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Opens an object kept on one line.
    pub fn obj(&mut self) -> &mut Self {
        self.open('{', '}', false)
    }

    /// Opens an object with one member per line.
    pub(crate) fn obj_lines(&mut self) -> &mut Self {
        self.open('{', '}', true)
    }

    /// Opens an array with one element per line.
    pub(crate) fn arr_lines(&mut self) -> &mut Self {
        self.open('[', ']', true)
    }

    /// Closes the innermost open container (a no-op when none is open).
    pub fn end(&mut self) -> &mut Self {
        if let Some(f) = self.frames.pop() {
            if f.lines && !f.empty {
                self.line_break();
            }
            self.out.push(f.close);
        }
        self
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push_str(self.layout.punctuation().0);
        self.after_key = true;
        self
    }

    /// Writes an exact integer (no detour through `f64`).
    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.value(format_args!("{n}"))
    }

    /// Writes Rust's shortest round-trip form of `x` (`42`, `0.25`, `-0`),
    /// or `null` when it is not finite.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.float(x, None)
    }

    /// Writes `x` with exactly `decimals` digits after the point (`{:.N}`,
    /// ties to even on the binary value), or `null` when it is not finite.
    pub fn fixed(&mut self, x: f64, decimals: usize) -> &mut Self {
        self.float(x, Some(decimals))
    }

    /// Writes an escaped string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.value(format_args!("\""));
        for c in s.chars() {
            let _ = match c {
                '"' => self.out.write_str("\\\""),
                '\\' => self.out.write_str("\\\\"),
                '\n' => self.out.write_str("\\n"),
                '\r' => self.out.write_str("\\r"),
                '\t' => self.out.write_str("\\t"),
                c if u32::from(c) < 0x20 => write!(self.out, "\\u{:04x}", u32::from(c)),
                c => self.out.write_char(c),
            };
        }
        self.out.push('"');
        self
    }

    /// Ends a line (a JSON Lines record, or a document's last line).
    pub fn newline(&mut self) -> &mut Self {
        self.out.push('\n');
        self
    }

    /// The one float formatter: shortest round-trip, or `{:.N}`; `null`
    /// when not finite (JSON has no NaN).
    fn float(&mut self, x: f64, decimals: Option<usize>) -> &mut Self {
        match decimals {
            _ if !x.is_finite() => self.value(format_args!("null")),
            None => self.value(format_args!("{x}")),
            Some(d) => self.value(format_args!("{x:.d$}")),
        }
    }

    fn open(&mut self, open: char, close: char, lines: bool) -> &mut Self {
        self.value(format_args!("{open}"));
        self.frames.push(Frame {
            close,
            lines,
            empty: true,
        });
        self
    }

    /// Writes `text` after the separator its position needs: nothing after
    /// a key; else a comma unless first in its container, then a line break
    /// in a container opened one item per line, or the layout's space.
    fn value(&mut self, text: fmt::Arguments<'_>) -> &mut Self {
        let after_key = std::mem::take(&mut self.after_key);
        if let Some(f) = self.frames.last_mut().filter(|_| !after_key) {
            let (first, lines) = (std::mem::replace(&mut f.empty, false), f.lines);
            if !first {
                self.out.push(',');
            }
            if lines {
                self.line_break();
            } else if !first {
                self.out.push_str(self.layout.punctuation().1);
            }
        }
        let _ = self.out.write_fmt(text);
        self
    }

    fn line_break(&mut self) {
        self.out.push('\n');
        for _ in 0..self.frames.len() {
            self.out.push_str(self.layout.punctuation().2);
        }
    }
}

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
    #[expect(
        clippy::panic,
        reason = "set() on a non-object is a caller bug: every caller builds the object it sets on"
    )]
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

    /// Serializes in [`Layout::Pretty`] with a trailing newline —
    /// byte-stable for identical values.
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new(Layout::Pretty);
        self.write(&mut w);
        w.newline();
        w.finish()
    }

    /// Writes the value through `w`. In [`Layout::Pretty`] objects take
    /// one member per line, and arrays one element per line when any
    /// element is a container (arrays of scalars stay inline); the line
    /// layouts keep the whole value on one line.
    fn write(&self, w: &mut JsonWriter) {
        let pretty = w.layout == Layout::Pretty;
        match self {
            Json::Null => w.value(format_args!("null")),
            Json::Bool(b) => w.value(format_args!("{b}")),
            Json::Num(x) => w.f64(*x),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => {
                let nested = |i: &Json| matches!(i, Json::Arr(_) | Json::Obj(_));
                w.open('[', ']', pretty && items.iter().any(nested));
                items.iter().for_each(|item| item.write(w));
                w.end()
            }
            Json::Obj(pairs) => {
                w.open('{', '}', pretty);
                pairs.iter().for_each(|(k, v)| v.write(w.key(k)));
                w.end()
            }
        };
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
            c if c < 0x80 => out.push(char::from(c)),
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
    // Only ASCII bytes were taken, so the slice is always valid UTF-8.
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(x: f64) -> String {
        let mut w = JsonWriter::new(Layout::Dense);
        w.f64(x);
        w.finish()
    }

    fn fixed(x: f64, decimals: usize) -> String {
        let mut w = JsonWriter::new(Layout::Dense);
        w.fixed(x, decimals);
        w.finish()
    }

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
        assert_eq!(num(42.0), "42");
        assert_eq!(num(-3.0), "-3");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert_eq!(num(9_007_199_254_740_992.0), "9007199254740992");
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        assert_eq!(num(-0.0), "-0");
        assert_eq!(num(0.0), "0");
        assert_eq!(fixed(-0.0, 3), "-0.000");
        let back = Json::parse(&num(-0.0)).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn u64_above_2_pow_53_prints_exactly() {
        let mut w = JsonWriter::new(Layout::Dense);
        w.obj().key("a").u64((1 << 53) + 1);
        w.key("b").u64(u64::MAX).end();
        let text = r#"{"a":9007199254740993,"b":18446744073709551615}"#;
        assert_eq!(w.finish(), text);
    }

    #[test]
    fn fixed_decimals_round_ties_to_even() {
        // 16.0625 is exact in binary, so the tie is real.
        assert_eq!(fixed(16.0625, 3), "16.062");
        assert_eq!(fixed(16.1875, 3), "16.188");
        assert_eq!(fixed(2.5, 0), "2");
        assert_eq!(fixed(1.0, 9), "1.000000000");
        assert_eq!(fixed(f64::NAN, 3), "null");
        assert_eq!(fixed(f64::INFINITY, 3), "null");
    }

    /// The Chrome trace writes `ts_ns / 1000` in the fixed form. It equals
    /// the integer rendering `{}.{:03}` wherever the quotient's rounding
    /// error stays under half a unit in the third decimal: for every
    /// `ns < 1000 · 2^43` (≈ 8.8e15 ns, 102 days of simulated time; the
    /// quotient's ulp is 2^-10 µs below 2^43 µs and 2^-9 above).
    #[test]
    fn fixed_microseconds_equal_integer_form_below_1000_times_2_pow_43() {
        let integer = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let float = |ns: u64| fixed(ns as f64 / 1e3, 3);
        let limit = 1000u64 << 43;
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        // Every octave [2^k, 2^(k+1)) up to the bound, [2^52, limit) last.
        for k in 0..53 {
            let (lo, hi) = (1u64 << k, (2u64 << k).min(limit));
            for _ in 0..4_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let ns = lo + x % (hi - lo);
                assert_eq!(float(ns), integer(ns), "ns = {ns}");
            }
        }
        for ns in (limit - 100_000..limit).chain(0..100_000) {
            assert_eq!(float(ns), integer(ns), "ns = {ns}");
        }
        // Above the bound the f64 quotient is no longer exact enough.
        assert!((limit..limit + 1000).any(|ns| float(ns) != integer(ns)));
    }

    #[test]
    fn one_value_in_all_three_layouts() {
        let doc = Json::obj()
            .with("a", Json::Num(1.0))
            .with("b", Json::Arr(vec![Json::Bool(true), Json::Null]))
            .with("s", Json::Str("x\"y".into()));
        let written = |layout| {
            let mut w = JsonWriter::new(layout);
            doc.write(&mut w);
            w.finish()
        };
        assert_eq!(
            written(Layout::Pretty),
            "{\n  \"a\": 1,\n  \"b\": [true, null],\n  \"s\": \"x\\\"y\"\n}"
        );
        assert_eq!(
            written(Layout::Dense),
            r#"{"a":1,"b":[true,null],"s":"x\"y"}"#
        );
        assert_eq!(
            written(Layout::Spaced),
            r#"{"a": 1, "b": [true, null], "s": "x\"y"}"#
        );
        for layout in [Layout::Pretty, Layout::Dense, Layout::Spaced] {
            assert_eq!(Json::parse(&written(layout)).unwrap(), doc);
        }
    }

    #[test]
    fn line_containers_break_without_indentation_outside_pretty() {
        let mut w = JsonWriter::new(Layout::Spaced);
        w.obj_lines().key("traceEvents").arr_lines();
        w.obj().key("ph").str("M").end();
        w.obj().key("ph").str("C").end();
        w.end().end().newline();
        assert_eq!(
            w.finish(),
            "{\n\"traceEvents\": [\n{\"ph\": \"M\"},\n{\"ph\": \"C\"}\n]\n}\n"
        );
        let mut w = JsonWriter::new(Layout::Spaced);
        w.obj_lines().key("e").arr_lines().end().end();
        assert_eq!(w.finish(), "{\n\"e\": []\n}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a \"b\" \\ \n\t\r\u{1} μ";
        let doc = Json::Str(s.to_string());
        let text = doc.render();
        assert_eq!(text, "\"a \\\"b\\\" \\\\ \\n\\t\\r\\u0001 μ\"\n");
        let back = Json::parse(&text).unwrap();
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
        assert_eq!(nested.render(), "[\n  [1]\n]\n");
        assert_eq!(Json::parse(&nested.render()).unwrap(), nested);
        assert_eq!(Json::obj().render(), "{}\n");
        assert_eq!(Json::Arr(Vec::new()).render(), "[]\n");
    }
}
