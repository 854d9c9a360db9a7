//! A minimal, dependency-free JSON value: builder, serializer, and a strict
//! recursive-descent parser.
//!
//! This is the one serializer every telemetry artifact flows through — the
//! Chrome trace exporter, the phase report, the convergence JSON-lines
//! stream, the `results/<name>.json` table dumps, and the kernel suite's
//! `BENCH_kernels.json` — so all of them stay mutually parseable
//! without `serde`. The parser exists so tests and the CI smoke step can
//! validate that emitted artifacts round-trip.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Object keys are kept in a `BTreeMap`, so serialization is
/// deterministic (sorted keys) regardless of insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number. NaN/∞ are serialized as `null` (JSON has no words
    /// for them), matching what browsers' `JSON.stringify` does.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Builder-style insertion; panics when `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(m) => {
                m.insert(key.to_string(), value.into());
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Field lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number value as an exact unsigned integer: `Some` only for an
    /// integral number in `0..=2^53`, so `-1`, `1.5` and `1e300` are `None`.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(x) if (0.0..=MAX_EXACT).contains(x) && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// Field `key` of an object as an exact unsigned integer
    /// ([`as_u64`](Self::as_u64)), or an error naming the field.
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            None => Err(format!("missing {key}")),
            Some(v) => v.as_u64().ok_or(format!("{key} is not an exact unsigned integer: {v}")),
        }
    }

    /// Field `key` of an object as a `u64` written in lowercase hex: a
    /// string, because a JSON number is a double and rounds above 2^53.
    pub fn hex(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            None => Err(format!("missing {key}")),
            Some(Json::Str(s)) => u64::from_str_radix(s, 16).map_err(|_| format!("bad {key} \"{s}\"")),
            Some(v) => Err(format!("{key} must be a hex string, found {v}")),
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    #[expect(clippy::float_cmp, reason = "exact integrality test: x == trunc(x) only for whole numbers")]
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if !x.is_finite() {
                    out.push_str("null");
                } else if *x == 0.0 && x.is_sign_negative() {
                    // `-0.0 as i64` is 0, which would silently drop the sign;
                    // "-0" parses back to -0.0, so the bit pattern survives.
                    out.push_str("-0");
                } else if *x == x.trunc() && x.abs() < 1e15 {
                    // Integral values print without a fraction, so counters
                    // stay grep-able (`"samples":9`, not `"samples":9.0`).
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Strict parser: the whole input must be one JSON value (surrounding
    /// whitespace allowed). Returns a readable error with a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    /// Compact one-line serialization (deterministic: object keys sorted).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
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

/// Maximum container nesting depth the parser accepts. Recursive descent uses
/// the call stack, so unbounded `[[[[…` input would overflow it; telemetry
/// artifacts nest a handful of levels at most.
const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len()
                && self.bytes[self.pos] != b'"'
                && self.bytes[self.pos] != b'\\'
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("truncated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            if (0xDC00..=0xDFFF).contains(&cp) {
                                return Err(format!(
                                    "lone low surrogate \\u{cp:04x} at byte {}",
                                    self.pos
                                ));
                            }
                            let cp = if (0xD800..=0xDBFF).contains(&cp) {
                                // High surrogate: must be immediately followed
                                // by a `\uDC00`–`\uDFFF` escape; the pair maps
                                // to one supplementary-plane scalar.
                                if self.peek() != Some(b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(format!(
                                        "unpaired high surrogate \\u{cp:04x} at byte {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(format!(
                                        "high surrogate \\u{cp:04x} followed by \
                                         non-low-surrogate \\u{lo:04x}"
                                    ));
                                }
                                0x1_0000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                cp
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("bad code point U+{cp:04X}"))?,
                            );
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    /// Reads the four hex digits of a `\uXXXX` escape (the `\u` itself has
    /// already been consumed) and returns the code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "bad \\u escape".to_string())?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("bad \\u escape '{hex}' at byte {}", self.pos));
        }
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_u64_accepts_exact_integers_only() {
        let got = ["42", "9007199254740992", "-1", "1.5", "1e300", "9007199254740994", "\"7\""]
            .map(|t| Json::parse(t).unwrap().as_u64());
        assert_eq!(got, [Some(42), Some(1 << 53), None, None, None, None, None]);
    }

    #[test]
    fn roundtrip_nested() {
        let v = Json::obj()
            .set("name", "fft/forward")
            .set("median_s", 0.125)
            .set("samples", 9usize)
            .set("ok", true)
            .set("tags", Json::Arr(vec![Json::from("a"), Json::from("b")]))
            .set("none", Json::Null);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn deterministic_key_order() {
        let a = Json::obj().set("z", 1.0).set("a", 2.0);
        let b = Json::obj().set("a", 2.0).set("z", 1.0);
        assert_eq!(a.to_string(), b.to_string());
        assert!(a.to_string().starts_with("{\"a\""));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("line\nquote\" back\\slash\ttab\u{1}".into());
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::Num(9.0).to_string(), "9");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parses_numbers_and_unicode() {
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn surrogate_pairs_combine() {
        // U+1F600 GRINNING FACE = 😀.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
        // Uppercase hex digits are fine too.
        assert_eq!(
            Json::parse("\"\\uD800\\uDC00\"").unwrap(),
            Json::Str("\u{10000}".into())
        );
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        // High surrogate at end of string.
        assert!(Json::parse("\"\\ud83d\"").is_err());
        // High surrogate followed by a non-escape character.
        assert!(Json::parse("\"\\ud83dx\"").is_err());
        // High surrogate followed by a non-low-surrogate escape.
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
        // Bare low surrogate.
        assert!(Json::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = Json::Num(-0.0).to_string();
        assert_eq!(text, "-0");
        let back = Json::parse(&text).unwrap();
        match back {
            Json::Num(x) => {
                assert_eq!(x, 0.0);
                assert!(x.is_sign_negative(), "sign of -0.0 must survive");
            }
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        // Within the limit: parses fine.
        let ok = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&ok).is_ok());
        // Past the limit: clean error, no stack overflow.
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Depth counter unwinds: siblings after a deep branch still parse.
        let wide = "[[1],[2],[3]]";
        assert!(Json::parse(wide).is_ok());
    }

    #[test]
    fn bad_unicode_escapes_are_rejected() {
        assert!(Json::parse("\"\\uZZZZ\"").is_err());
        assert!(Json::parse("\"\\u00\"").is_err());
        // `from_str_radix` would accept "+aff" — the explicit digit check must not.
        assert!(Json::parse("\"\\u+aff\"").is_err());
    }
}
