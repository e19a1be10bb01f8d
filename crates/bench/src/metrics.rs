//! Deterministic JSON metrics emission for the experiments.
//!
//! Under `--metrics DIR` every experiment drops a `<DIR>/<artifact>.json`
//! report next to its CSVs (see `crate::experiment`). The row-report
//! schema is fixed:
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "binary": "<binary name>",
//!   "config": { "threads": N, "seeds": N, "quick": bool, "full": bool,
//!               "chaos": "<profile label>" },
//!   "rows": [ { <label fields>, "throughput": x, "attempts_per_op": x,
//!               "frac_nonspeculative": x,
//!               "abort_causes": { "<cause>": n, ... } }, ... ]
//! }
//! ```
//!
//! Serialization is hand-rolled (the workspace vendors no serde) and
//! deterministic: object keys keep insertion order, floats are printed
//! with Rust's shortest-roundtrip formatting, and no timestamps or
//! absolute paths appear anywhere — two runs with identical seeds emit
//! byte-identical files. A small recursive-descent parser rounds the
//! layer out so `repro summary` can merge the per-experiment reports.

use crate::cli::CliArgs;
use crate::treebench::TreeBenchResult;
use elision_sim::AbortCause;
use std::fmt::Write as _;

/// A JSON value. Objects are insertion-ordered key/value pairs so that
/// serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer.
    Int(i64),
    /// A non-negative integer.
    Uint(u64),
    /// A finite floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered so serialization is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs (keeps the given order).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64 if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements if the value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with 2-space indentation and a trailing newline.
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
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Uint(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(x) => {
                // Shortest-roundtrip formatting: deterministic for
                // identical bits. JSON has no NaN/inf; map them to null.
                if x.is_finite() {
                    let text = format!("{x}");
                    out.push_str(&text);
                    // `{}` renders integral floats without a dot; keep the
                    // value typed as a float on the wire.
                    if !text.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
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

/// Parse a JSON document (strict enough for the reports this crate
/// writes; rejects trailing garbage).
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.contains(['.', 'e', 'E']) {
        text.parse::<f64>().map(Json::Float).map_err(|e| e.to_string())
    } else if text.starts_with('-') {
        text.parse::<i64>().map(Json::Int).map_err(|e| e.to_string())
    } else {
        text.parse::<u64>().map(Json::Uint).map_err(|e| e.to_string())
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences are
                // passed through verbatim).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty by construction");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Schema version stamped into every report.
pub const SCHEMA_VERSION: u64 = 1;

/// A per-experiment metrics report accumulating one JSON row per table row.
#[derive(Debug)]
pub struct MetricsReport {
    binary: String,
    config: Json,
    rows: Vec<Json>,
}

impl MetricsReport {
    /// Start a report for `binary` capturing the run configuration.
    pub fn new(binary: &str, args: &CliArgs) -> Self {
        MetricsReport {
            binary: binary.to_string(),
            config: Json::obj(vec![
                ("threads", Json::Uint(args.threads as u64)),
                ("seeds", Json::Uint(args.seeds)),
                ("quick", Json::Bool(args.quick)),
                ("full", Json::Bool(args.full)),
                ("chaos", Json::Str(args.chaos.label().to_string())),
            ]),
            rows: Vec::new(),
        }
    }

    /// Append an arbitrary pre-built row object.
    pub fn push_row(&mut self, row: Json) {
        self.rows.push(row);
    }

    /// Append a row for one benchmark result: the caller's label fields
    /// (scheme, size, ...) followed by the standard measurement block —
    /// throughput, attempts/op, frac-nonspec, and the abort-cause
    /// histogram.
    pub fn push_result(&mut self, labels: Vec<(&str, Json)>, r: &TreeBenchResult) {
        let mut pairs = labels;
        pairs.push(("throughput", Json::Float(r.throughput)));
        pairs.push(("attempts_per_op", Json::Float(r.counters.attempts_per_op())));
        pairs.push(("frac_nonspeculative", Json::Float(r.counters.frac_nonspeculative())));
        pairs.push(("aborted", Json::Uint(r.counters.aborted)));
        pairs.push(("abort_causes", cause_histogram_json(&r.counters.causes)));
        self.rows.push(Json::obj(pairs));
    }

    /// The full report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("binary", Json::Str(self.binary.clone())),
            ("config", self.config.clone()),
            ("rows", Json::Arr(self.rows.clone())),
        ])
    }
}

/// The abort-cause histogram as a JSON object keyed by cause label, in
/// taxonomy order.
pub fn cause_histogram_json(h: &elision_sim::CauseHistogram) -> Json {
    Json::Obj(
        AbortCause::ALL.iter().map(|&c| (c.label().to_string(), Json::Uint(h.get(c)))).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use elision_sim::CauseHistogram;

    #[test]
    fn serialization_is_deterministic_and_ordered() {
        let v = Json::obj(vec![
            ("b", Json::Uint(2)),
            ("a", Json::Int(-1)),
            ("f", Json::Float(0.5)),
            ("s", Json::Str("x\"y".into())),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::obj(vec![])),
        ]);
        let first = v.render();
        assert_eq!(first, v.render(), "rendering must be a pure function");
        // Insertion order is preserved ("b" before "a").
        assert!(first.find("\"b\"").unwrap() < first.find("\"a\"").unwrap());
        assert!(first.contains("\"x\\\"y\""));
        assert!(first.ends_with('\n'));
    }

    #[test]
    fn floats_stay_typed_and_nonfinite_becomes_null() {
        assert_eq!(Json::Float(2.0).render(), "2.0\n");
        assert_eq!(Json::Float(0.125).render(), "0.125\n");
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn parse_roundtrips_rendered_documents() {
        let v = Json::obj(vec![
            ("schema_version", Json::Uint(1)),
            ("neg", Json::Int(-7)),
            ("pi", Json::Float(3.140625)),
            ("name", Json::Str("fig2 \"lemming\"\n".into())),
            ("rows", Json::Arr(vec![Json::obj(vec![("n", Json::Uint(0))])])),
            ("none", Json::Null),
            ("on", Json::Bool(true)),
        ]);
        let parsed = parse(&v.render()).expect("own output must parse");
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn report_schema_has_required_keys() {
        let args = CliArgs::default();
        let mut rep = MetricsReport::new("unit_test", &args);
        rep.push_row(Json::obj(vec![("scheme", Json::Str("HLE".into()))]));
        let doc = rep.to_json();
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(doc.get("binary").and_then(Json::as_str), Some("unit_test"));
        assert_eq!(
            doc.get("config").and_then(|c| c.get("threads")).and_then(Json::as_u64),
            Some(8)
        );
        assert_eq!(doc.get("rows").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
    }

    #[test]
    fn cause_histogram_lists_every_cause_in_order() {
        let mut h = CauseHistogram::new();
        h.record(AbortCause::Capacity);
        h.record(AbortCause::Capacity);
        let j = cause_histogram_json(&h);
        let Json::Obj(pairs) = &j else { panic!("expected object") };
        assert_eq!(pairs.len(), AbortCause::ALL.len());
        assert_eq!(j.get("capacity").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("data_conflict").and_then(Json::as_u64), Some(0));
    }

    use proptest::prelude::*;
    use proptest::{ProptestConfig, Strategy, TestRng};

    /// A generator for arbitrary nested [`Json`] values, restricted to
    /// the *canonical* forms the renderer emits and the parser produces:
    /// non-negative integers are `Uint` (never `Int`), `Int` is strictly
    /// negative, floats are finite (non-finite renders as `null`, which
    /// cannot roundtrip). Depth is bounded so documents stay small.
    #[derive(Debug, Clone, Copy)]
    struct ArbJson {
        depth: u32,
    }

    impl Strategy for ArbJson {
        type Value = Json;

        fn sample(&self, rng: &mut TestRng) -> Json {
            gen_json(rng, self.depth)
        }
    }

    fn gen_string(rng: &mut TestRng) -> String {
        const ALPHABET: &[char] = &[
            'a', 'B', '7', ' ', '_', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', 'λ',
            '雪', '🦀',
        ];
        (0..rng.below(9)).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize]).collect()
    }

    fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
        // Only recurse into containers while depth remains.
        let arms = if depth == 0 { 6 } else { 8 };
        match rng.below(arms) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::Uint(rng.next_u64()),
            3 => Json::Int(-1 - (rng.below(1 << 62) as i64)),
            4 => {
                // Random bit patterns cover subnormals and extreme
                // exponents; fall back to a bounded value for the
                // non-finite patterns the wire format cannot carry.
                let bits = f64::from_bits(rng.next_u64());
                Json::Float(if bits.is_finite() { bits } else { rng.unit() * 2e9 - 1e9 })
            }
            5 => Json::Str(gen_string(rng)),
            6 => Json::Arr((0..rng.below(4)).map(|_| gen_json(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.below(4)).map(|_| (gen_string(rng), gen_json(rng, depth - 1))).collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Serializer → parser roundtrip: any canonical document must
        /// parse back to itself, and re-rendering the parse must be
        /// byte-identical (the determinism the artifact gates rely on).
        #[test]
        fn render_parse_roundtrips_arbitrary_documents(doc in ArbJson { depth: 3 }) {
            let rendered = doc.render();
            let parsed = parse(&rendered)
                .map_err(|e| TestCaseError::fail(format!("own output rejected: {e}\n{rendered}")))?;
            prop_assert_eq!(&parsed, &doc, "parse(render(doc)) != doc");
            prop_assert_eq!(parsed.render(), rendered, "re-render not byte-identical");
        }

        /// Appending garbage after any valid document must be rejected
        /// (the parser's trailing-data check holds for every document,
        /// not just the hand-written cases below).
        #[test]
        fn trailing_garbage_is_always_rejected(doc in ArbJson { depth: 2 }) {
            let mut text = doc.render();
            text.push('x');
            prop_assert!(parse(&text).is_err(), "trailing garbage accepted after {text}");
        }

        /// Truncating a rendered document anywhere strictly inside it
        /// must never yield a successful parse of the same value (a
        /// prefix can parse only when it is itself a complete smaller
        /// document, e.g. cutting digits off a number).
        #[test]
        fn truncation_never_parses_to_the_same_value(doc in ArbJson { depth: 2 }) {
            let rendered = doc.render();
            let cut = rendered.len() / 2;
            if cut > 0 && rendered.is_char_boundary(cut) {
                if let Ok(v) = parse(&rendered[..cut]) {
                    prop_assert_ne!(v, doc);
                }
            }
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        // One representative per syntax-error class; `parse` must reject
        // every one of them rather than guessing.
        let bad = [
            "",
            "   ",
            "{",
            "}",
            "[",
            "]",
            "[1,]",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{a:1}",
            "{\"a\":1 \"b\":2}",
            "tru",
            "falsee",
            "nul",
            "+1",
            "1.2.3",
            "1e",
            "--4",
            "\"\\x41\"",
            "\"\\u12\"",
            "\"unterminated",
            "{} {}",
            "[] null",
            "\u{1}",
        ];
        for text in bad {
            assert!(parse(text).is_err(), "parser accepted malformed input: {text:?}");
        }
    }

    #[test]
    fn number_parsing_canonicalizes_types() {
        // The parser's number taxonomy: decimal/exponent → Float,
        // leading '-' → Int, plain digits → Uint.
        assert_eq!(parse("42").unwrap(), Json::Uint(42));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("42.0").unwrap(), Json::Float(42.0));
        assert_eq!(parse("4e2").unwrap(), Json::Float(400.0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Uint(u64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        // Out-of-range integers do not wrap silently.
        assert!(parse("18446744073709551616").is_err());
        assert!(parse("-9223372036854775809").is_err());
    }
}
