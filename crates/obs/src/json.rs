//! The workspace's JSON codec — no external dependencies.
//!
//! [`Json`] is one value model with a recursive-descent parser, a pretty
//! renderer (two-space indent, used for the committed `BENCH_*.json`
//! baselines) and a compact one-line renderer (traces, bench-history
//! JSONL records, engine snapshots, recovery reports). Non-negative
//! integer literals parse as exact [`Json::UInt`], so `u64` span
//! durations and counters round-trip even at `u64::MAX`, where the
//! span clock saturates; every other number is a [`Json::Num`].
//!
//! [`QueryTrace`] maps onto a fixed schema: every span serializes as
//! `{"name": s, "start_ns": n, "duration_ns": n, "meta": {…},
//! "counters": {…}, "children": […]}` with all six keys always present,
//! which keeps the output deterministic for golden tests. `meta`/`counters`
//! objects preserve insertion order in both directions.

use crate::span::{QueryTrace, Span};
use std::fmt::{self, Write as _};

/// A JSON parse failure: what was expected and the byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the mismatch.
    pub message: String,
    /// Byte offset into the input where parsing stopped; 0 when the
    /// document is well-formed JSON but not the expected schema.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact. The parser reads every
    /// non-negative integer literal that fits a `u64` as this.
    UInt(u64),
    /// Any other number; renders as `null` when not finite.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as an `f64`, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The exact payload, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields in insertion order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline (stable
    /// diffs for committed baselines).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on a single line with no whitespace and no trailing
    /// newline — the form of traces and JSONL records.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value; `indent` is the pretty nesting level, `None`
    /// for compact output.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_seq(
                    out,
                    indent,
                    ['[', ']'],
                    items.iter().map(|item| (None, item)),
                );
            }
            Json::Obj(fields) => write_seq(
                out,
                indent,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        if p.peek().is_some() {
            return Err(p.err("trailing content"));
        }
        Ok(value)
    }
}

/// Writes an array (`key` always `None`) or an object between
/// `brackets`. Pretty output puts each item on its own line one level
/// deeper; empty containers stay `[]`/`{}` either way.
fn write_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let inner = indent.map(|level| level + 1);
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(level) = inner {
            push_line(out, level);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if inner.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if let (Some(level), false) = (indent, empty) {
        push_line(out, level);
    }
    out.push(brackets[1]);
}

fn push_line(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; absent beats invalid.
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// The one JSON string escaper: quotes, backslashes and control
/// characters; everything else is written verbatim.
fn write_str(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is the next non-whitespace byte.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                self.seq(b']', Self::value).map(Json::Arr)
            }
            Some(b'{') => {
                self.pos += 1;
                self.seq(b'}', |p| {
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return Err(p.err("expected ':'"));
                    }
                    Ok((key, p.value()?))
                })
                .map(Json::Obj)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte '{}'", c as char))),
        }
    }

    /// Comma-separated items up to `close`; the opening bracket is
    /// already consumed.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.err(format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("expected string"));
        }
        let mut out = Vec::new();
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"))
                }
                b'\\' => {
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let c = self.unicode_escape()?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                b => out.push(b),
            }
        }
        Err(self.err("unterminated string"))
    }

    /// The four hex digits after `\u`. The renderer only `\u`-escapes
    /// control characters, so a surrogate (half of a pair) is rejected.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape digits"))?;
        let c = char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
        self.pos += 4;
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        // The scanned bytes are ASCII, so this never fails.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            message: "invalid number".into(),
            offset: start,
        })
    }
}

// ----- QueryTrace <-> Json -----------------------------------------------

fn span_to_json(s: &Span) -> Json {
    let meta = s
        .meta
        .iter()
        .map(|(k, v)| (k.clone(), Json::Str(v.clone())));
    let counters = s.counters.iter().map(|(k, v)| (k.clone(), Json::UInt(*v)));
    Json::Obj(vec![
        ("name".into(), Json::Str(s.name.clone())),
        ("start_ns".into(), Json::UInt(s.start_ns)),
        ("duration_ns".into(), Json::UInt(s.duration_ns)),
        ("meta".into(), Json::Obj(meta.collect())),
        ("counters".into(), Json::Obj(counters.collect())),
        (
            "children".into(),
            Json::Arr(s.children.iter().map(span_to_json).collect()),
        ),
    ])
}

/// A schema mismatch in an otherwise well-formed document.
fn schema_err(message: String) -> JsonError {
    JsonError { message, offset: 0 }
}

/// The span field `key`, converted by `as_kind` (a `Json::as_*`).
fn field<'a, T>(
    span: &'a Json,
    key: &str,
    as_kind: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, JsonError> {
    span.get(key)
        .and_then(as_kind)
        .ok_or_else(|| schema_err(format!("span key \"{key}\" is missing or mistyped")))
}

/// An object's values, each converted by `as_kind`, keys kept in order.
fn pairs<'a, T>(
    span: &'a Json,
    key: &str,
    as_kind: impl Fn(&'a Json) -> Option<T>,
) -> Result<Vec<(String, T)>, JsonError> {
    field(span, key, Json::as_obj)?
        .iter()
        .map(|(k, v)| as_kind(v).map(|v| (k.clone(), v)))
        .collect::<Option<_>>()
        .ok_or_else(|| schema_err(format!("span key \"{key}\" holds a mistyped value")))
}

fn span_from_json(value: &Json) -> Result<Span, JsonError> {
    Ok(Span {
        name: field(value, "name", Json::as_str)?.to_string(),
        start_ns: field(value, "start_ns", Json::as_u64)?,
        duration_ns: field(value, "duration_ns", Json::as_u64)?,
        meta: pairs(value, "meta", |v| v.as_str().map(str::to_string))?,
        counters: pairs(value, "counters", Json::as_u64)?,
        children: field(value, "children", Json::as_arr)?
            .iter()
            .map(span_from_json)
            .collect::<Result<_, _>>()?,
    })
}

impl QueryTrace {
    /// Serializes the trace as a single-line JSON document.
    pub fn to_json(&self) -> String {
        span_to_json(&self.root).render_compact()
    }

    /// Parses a trace produced by [`Self::to_json`].
    pub fn from_json(input: &str) -> Result<QueryTrace, JsonError> {
        let root = span_from_json(&Json::parse(input)?)?;
        Ok(QueryTrace { root })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryTrace {
        let mut exec = Span::named("exec");
        exec.start_ns = 40;
        exec.duration_ns = 50;
        exec.counters = vec![("axis.range_scans".into(), 3), ("twig.seeks".into(), 0)];
        let mut range = Span::named("arena-range-selection");
        range.meta = vec![
            ("context".into(), "/title".into()),
            ("arena".into(), "[5,9)".into()),
        ];
        exec.children.push(range);
        let mut root = Span::named("query");
        root.duration_ns = 100;
        root.meta = vec![("kind".into(), "flwr".into())];
        root.children = vec![
            Span {
                name: "parse".into(),
                start_ns: 1,
                duration_ns: 9,
                ..Span::default()
            },
            exec,
        ];
        QueryTrace { root }
    }

    #[test]
    fn round_trips_exactly() {
        let mut saturated = sample();
        let mut plan = Span::named("plan");
        plan.duration_ns = u64::MAX;
        plan.counters = vec![("result.nodes".into(), u64::MAX)];
        saturated.root.children.push(plan);
        for t in [sample(), saturated] {
            let json = t.to_json();
            let back = QueryTrace::from_json(&json).unwrap();
            assert_eq!(back, t);
            // And the serialization is a fixed point.
            assert_eq!(back.to_json(), json);
        }
    }

    #[test]
    fn golden_serialization() {
        // Deterministic golden: any schema change must be deliberate,
        // because external tooling parses this format.
        let got = sample().to_json();
        let want = concat!(
            "{\"name\":\"query\",\"start_ns\":0,\"duration_ns\":100,",
            "\"meta\":{\"kind\":\"flwr\"},\"counters\":{},\"children\":[",
            "{\"name\":\"parse\",\"start_ns\":1,\"duration_ns\":9,",
            "\"meta\":{},\"counters\":{},\"children\":[]},",
            "{\"name\":\"exec\",\"start_ns\":40,\"duration_ns\":50,",
            "\"meta\":{},\"counters\":{\"axis.range_scans\":3,\"twig.seeks\":0},",
            "\"children\":[{\"name\":\"arena-range-selection\",",
            "\"start_ns\":0,\"duration_ns\":0,",
            "\"meta\":{\"context\":\"/title\",\"arena\":\"[5,9)\"},",
            "\"counters\":{},\"children\":[]}]}]}"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn escapes_round_trip() {
        let mut root = Span::named("q\"uo\\te\n\ttab");
        root.meta = vec![("k".into(), "line1\nline2 \u{1}".into())];
        let t = QueryTrace { root };
        assert_eq!(QueryTrace::from_json(&t.to_json()).unwrap(), t);
        // Raw UTF-8 and `\u` escapes decode to the same string.
        for text in [r#""éA""#, r#""\u00e9\u0041""#] {
            assert_eq!(Json::parse(text).unwrap(), Json::Str("éA".into()));
        }
    }

    #[test]
    fn value_round_trips_through_render_and_parse() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a \"quoted\"\nline\t\u{1}".into())),
            (
                "nums".into(),
                Json::Arr(vec![
                    Json::UInt(1),
                    Json::Num(-2.5),
                    Json::Num(-3.0),
                    Json::UInt(u64::MAX),
                ]),
            ),
            ("flag".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert!(text.contains("18446744073709551615"), "{text}");
    }

    #[test]
    fn compact_render_is_one_line_and_round_trips() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a\nb".into())),
            (
                "nums".into(),
                Json::Arr(vec![Json::UInt(1), Json::Num(2.5)]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let line = v.render_compact();
        assert!(!line.contains('\n'), "JSONL records must be one line");
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        // Not JSON: the parser itself refuses.
        for bad in ["", "{", "[1,]", "{} trailing", "\"unterminated", "nul"] {
            assert!(Json::parse(bad).is_err(), "parsed {bad:?}");
        }
        // JSON, but not a trace: a missing key, a misnamed key, a
        // negative number.
        for bad in [
            "{\"name\":\"q\"}",
            "{\"nome\":\"q\",\"start_ns\":0,\"duration_ns\":0,\"meta\":{},\"counters\":{},\"children\":[]}",
            "{\"name\":\"q\",\"start_ns\":-1,\"duration_ns\":0,\"meta\":{},\"counters\":{},\"children\":[]}",
        ] {
            assert!(QueryTrace::from_json(bad).is_err(), "accepted {bad:?}");
        }
        let good = sample().to_json();
        assert!(QueryTrace::from_json(&format!("{good} x")).is_err());
    }
}
