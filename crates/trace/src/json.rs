//! Minimal JSON support for trace frames: a deterministic writer and a
//! small recursive-descent parser.
//!
//! The repo vendors no serialization crates, and trace frames must be
//! *byte-identical* across region counts, so frames are assembled by
//! hand: fields are appended in a fixed order and `f64` values use Rust's
//! shortest-roundtrip `Display` (the same bits always print the same
//! bytes). The parser accepts the full JSON grammar the writer emits
//! (objects, arrays, strings, finite numbers, booleans, `null`) — enough
//! to read any frame back for `lsrp viz` and the golden tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the writer never emits non-finite
    /// values).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved only through the map's sorted
    /// iteration; frame consumers look fields up by name.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number value truncated to `u64` (negative values map to 0).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| if n < 0.0 { 0 } else { n as u64 })
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`. A string with
/// nothing to escape — every action name and frame kind — is pushed
/// whole.
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
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

/// Appends a `u64` in decimal. Hand-rolled: the trace writer pushes a
/// few integers per frame on the engine's hot path, where the `fmt`
/// machinery's dispatch overhead is measurable.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Appends an `f64` using Rust's shortest-roundtrip formatting (the
/// deterministic wire form for times and rates). Integral values — the
/// common case for event times on unit-weight topologies — take the
/// manual digit path, which `{}` formatting prints identically.
pub fn push_f64(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        if v.is_sign_negative() {
            out.push('-');
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        push_u64(out, v.abs() as u64);
        return;
    }
    let _ = write!(out, "{v}");
}

/// Parses one JSON document from `s`.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Containers may nest this deep (trace frames nest three): the parser
/// recurses per level, and a file of `[[[[…` must not run it out of stack.
const MAX_DEPTH: usize = 64;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at offset {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected `{lit}` at offset {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at offset {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Copy the full UTF-8 sequence starting at this byte.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
                let _ = c;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos, depth)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_frames() {
        let doc = r#"{"k":"act","t":1.25,"n":3,"a":"C1","m":false,"x":null,"arr":[1,2,3]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("act"));
        assert_eq!(v.get("t").unwrap().as_f64(), Some(1.25));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("m").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("arr").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn escapes_and_parses_strings() {
        let mut out = String::new();
        push_str_escaped(&mut out, "a\"b\\c\nd");
        assert_eq!(out, r#""a\"b\\c\nd""#);
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn strings_with_and_without_escapes_round_trip() {
        for text in [
            "S1",
            "",
            "snap",
            "é ∞",
            "tab\there",
            "q\"",
            "\u{1}\u{7f}",
            "a\\b",
        ] {
            let mut out = String::new();
            push_str_escaped(&mut out, text);
            assert_eq!(parse(&out).unwrap().as_str(), Some(text), "{out}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn f64_formatting_is_shortest_roundtrip() {
        let mut s = String::new();
        push_f64(&mut s, 0.1);
        assert_eq!(s, "0.1");
        s.clear();
        push_f64(&mut s, 3.0);
        assert_eq!(s, "3");
    }
}
