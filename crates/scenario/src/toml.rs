//! A small hand-rolled TOML-subset parser with line tracking.
//!
//! The scenario schema needs exactly the data shapes TOML was designed
//! for — keyed scalars, inline arrays, `[section]` tables and
//! `[[section]]` arrays of tables — and it needs *precise* diagnostics
//! (line number plus field path) so a typo in a 30-line scenario file
//! points at the offending line, not at "parse error". The container
//! vendors its third-party crates (see `vendor/`), so this module
//! implements the subset by hand rather than pulling `toml` from
//! crates.io.
//!
//! Supported syntax:
//!
//! * comments (`# ...`) and blank lines;
//! * `[a]` and `[a.b]` table headers, `[[a]]` array-of-table headers;
//! * `key = value` with bare (`[A-Za-z0-9_-]+`) or `"quoted"` keys;
//! * values: basic strings with `\" \\ \n \t` escapes, integers,
//!   floats, booleans, and single-line arrays of those.
//!
//! Not supported (rejected with an error naming the construct): dotted
//! keys, inline tables, multi-line strings and multi-line arrays.

use std::fmt;

/// A parse or schema error, carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// Human-readable message, including the field path when known.
    pub message: String,
}

impl TomlError {
    /// Builds an error at `line`.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        TomlError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array of scalars.
    Array(Vec<Spanned>),
}

impl Value {
    /// The type name used in diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// A value plus the line it was written on.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// 1-based source line.
    pub line: usize,
    /// The value.
    pub value: Value,
}

/// One table entry: a scalar/array value, a sub-table, or an array of
/// tables.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// `key = value`
    Value(Spanned),
    /// `[key]` (or implicitly created by a deeper header)
    Table(Table),
    /// `[[key]]`, one [`Table`] per occurrence, in file order.
    Tables(Vec<Table>),
}

/// An ordered table: entries keep file order, keys are unique.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Line of the header that opened this table (0 for the root).
    pub line: usize,
    /// Ordered `(key, entry)` pairs.
    pub entries: Vec<(String, Entry)>,
}

impl Table {
    fn new(line: usize) -> Self {
        Table {
            line,
            entries: Vec::new(),
        }
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, e)| e)
    }

    /// All keys, in file order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// Parses a TOML-subset document into its root table.
///
/// # Errors
///
/// Returns a [`TomlError`] pointing at the offending line for any
/// syntax error, duplicate key, or unsupported construct.
pub fn parse(src: &str) -> Result<Table, TomlError> {
    let mut root = Table::new(0);
    // Path of the table currently being filled ([] = root).
    let mut current: Vec<String> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[") {
            let Some(path_str) = inner.strip_suffix("]]") else {
                return Err(TomlError::new(line_no, "unclosed `[[` table header"));
            };
            let path = parse_header_path(path_str, line_no)?;
            open_array_table(&mut root, &path, line_no)?;
            current = path;
        } else if let Some(inner) = line.strip_prefix('[') {
            let Some(path_str) = inner.strip_suffix(']') else {
                return Err(TomlError::new(line_no, "unclosed `[` table header"));
            };
            let path = parse_header_path(path_str, line_no)?;
            open_table(&mut root, &path, line_no)?;
            current = path;
        } else {
            let (key, value) = parse_key_value(line, line_no)?;
            let table = resolve_mut(&mut root, &current, line_no)?;
            if table.get(&key).is_some() {
                return Err(TomlError::new(line_no, format!("duplicate key `{key}`")));
            }
            table.entries.push((key, Entry::Value(value)));
        }
    }
    Ok(root)
}

/// Strips a `#` comment, respecting string quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn is_bare_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_header_path(s: &str, line: usize) -> Result<Vec<String>, TomlError> {
    let parts: Vec<String> = s.split('.').map(|p| p.trim().to_string()).collect();
    for p in &parts {
        if !is_bare_key(p) {
            return Err(TomlError::new(
                line,
                format!("invalid table header component `{p}`"),
            ));
        }
    }
    Ok(parts)
}

/// Walks/creates plain tables along `path` from the root.
fn open_table(root: &mut Table, path: &[String], line: usize) -> Result<(), TomlError> {
    let mut t = root;
    for (i, key) in path.iter().enumerate() {
        let exists = t.get(key).is_some();
        if !exists {
            t.entries
                .push((key.clone(), Entry::Table(Table::new(line))));
        } else if i + 1 == path.len() {
            // Re-opening a table that already exists (or shadowing a
            // value) is an error for the final component.
            let redefines = matches!(t.get(key), Some(Entry::Table(_)));
            let what = if redefines {
                "redefines table"
            } else {
                "conflicts with existing key"
            };
            return Err(TomlError::new(
                line,
                format!("header `[{}]` {what} `{key}`", path.join(".")),
            ));
        }
        t = match t.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, Entry::Table(sub))) => sub,
            Some((_, Entry::Tables(subs))) => subs.last_mut().expect("non-empty"),
            _ => return Err(TomlError::new(line, format!("`{key}` is not a table"))),
        };
    }
    Ok(())
}

/// Appends a new element to the array of tables at `path`.
fn open_array_table(root: &mut Table, path: &[String], line: usize) -> Result<(), TomlError> {
    let (last, prefix) = path.split_last().expect("header has a component");
    // Walk/create the prefix tables. Unlike a `[prefix]` header, an
    // already-existing prefix is legitimate here — every `[[a.b]]`
    // after the first appends under the same `a`.
    let mut t = root;
    for key in prefix {
        if t.get(key).is_none() {
            t.entries
                .push((key.clone(), Entry::Table(Table::new(line))));
        }
        t = match t.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, Entry::Table(sub))) => sub,
            Some((_, Entry::Tables(subs))) => subs.last_mut().expect("non-empty"),
            _ => return Err(TomlError::new(line, format!("`{key}` is not a table"))),
        };
    }
    match t.entries.iter_mut().find(|(k, _)| k == last) {
        None => {
            t.entries
                .push((last.clone(), Entry::Tables(vec![Table::new(line)])));
        }
        Some((_, Entry::Tables(subs))) => subs.push(Table::new(line)),
        Some(_) => {
            return Err(TomlError::new(
                line,
                format!("`[[{last}]]` conflicts with existing key `{last}`"),
            ))
        }
    }
    Ok(())
}

/// Re-resolves the current header path to a `&mut Table` (arrays of
/// tables resolve to their most recent element).
fn resolve_mut<'a>(
    root: &'a mut Table,
    path: &[String],
    line: usize,
) -> Result<&'a mut Table, TomlError> {
    let mut t = root;
    for key in path {
        t = match t.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, Entry::Table(sub))) => sub,
            Some((_, Entry::Tables(subs))) => subs.last_mut().expect("non-empty"),
            _ => return Err(TomlError::new(line, format!("`{key}` is not a table"))),
        };
    }
    Ok(t)
}

fn parse_key_value(line: &str, line_no: usize) -> Result<(String, Spanned), TomlError> {
    let Some(eq) = find_unquoted_eq(line) else {
        return Err(TomlError::new(
            line_no,
            format!("expected `key = value`, got `{line}`"),
        ));
    };
    let key_raw = line[..eq].trim();
    let key = if let Some(q) = key_raw.strip_prefix('"') {
        let Some(k) = q.strip_suffix('"') else {
            return Err(TomlError::new(line_no, "unclosed quoted key"));
        };
        k.to_string()
    } else {
        if key_raw.contains('.') {
            return Err(TomlError::new(
                line_no,
                format!("dotted keys are not supported (`{key_raw}`); use a `[table]` header"),
            ));
        }
        if !is_bare_key(key_raw) {
            return Err(TomlError::new(line_no, format!("invalid key `{key_raw}`")));
        }
        key_raw.to_string()
    };
    let value_raw = line[eq + 1..].trim();
    if value_raw.is_empty() {
        return Err(TomlError::new(
            line_no,
            format!("key `{key}` has no value (multi-line values are not supported)"),
        ));
    }
    let value = parse_value(value_raw, line_no)?;
    Ok((key, value))
}

fn find_unquoted_eq(line: &str) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '=' if !in_str => return Some(i),
            _ => {}
        }
        escaped = false;
    }
    None
}

fn parse_value(s: &str, line: usize) -> Result<Spanned, TomlError> {
    let value = if let Some(rest) = s.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err(TomlError::new(
                line,
                "unclosed array (arrays must fit on one line)",
            ));
        };
        let mut items = Vec::new();
        for part in split_array_items(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            // Refused before descending: `[[[[…` must not cost a stack
            // frame per bracket.
            if part.starts_with('[') {
                return Err(TomlError::new(line, "nested arrays are not supported"));
            }
            items.push(parse_value(part, line)?);
        }
        Value::Array(items)
    } else if let Some(rest) = s.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(TomlError::new(line, format!("unclosed string `{s}`")));
        };
        Value::Str(unescape(body, line)?)
    } else if s == "true" {
        Value::Bool(true)
    } else if s == "false" {
        Value::Bool(false)
    } else if s == "{" || s.starts_with('{') {
        return Err(TomlError::new(line, "inline tables are not supported"));
    } else if let Ok(i) = s.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(f) = s.replace('_', "").parse::<f64>() {
        if !f.is_finite() {
            return Err(TomlError::new(line, format!("non-finite number `{s}`")));
        }
        Value::Float(f)
    } else {
        return Err(TomlError::new(
            line,
            format!("invalid value `{s}` (strings need quotes)"),
        ));
    };
    Ok(Spanned { line, value })
}

/// Splits a single-line array body at top-level commas (strings may
/// contain commas).
fn split_array_items(body: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    items.push(&body[start..]);
    items
}

fn unescape(s: &str, line: usize) -> Result<String, TomlError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => {
                return Err(TomlError::new(
                    line,
                    format!("unsupported escape `\\{}`", other.unwrap_or(' ')),
                ))
            }
        }
    }
    Ok(out)
}

/// Formats a float so it re-parses as a float (never as an integer).
pub fn fmt_float(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = parse(
            "# demo\n\
             name = \"e6\"\n\
             runs = 5\n\
             rate = 2.5\n\
             live = true\n\
             [a.b]\n\
             xs = [1, 2, 3]\n\
             [[case]]\n\
             p = 1\n\
             [[case]]\n\
             p = 2\n",
        )
        .unwrap();
        assert!(matches!(
            doc.get("name"),
            Some(Entry::Value(Spanned { value: Value::Str(s), .. })) if s == "e6"
        ));
        assert!(matches!(
            doc.get("runs"),
            Some(Entry::Value(Spanned {
                value: Value::Int(5),
                line: 3
            }))
        ));
        let Some(Entry::Table(a)) = doc.get("a") else {
            panic!("missing [a]");
        };
        let Some(Entry::Table(b)) = a.get("b") else {
            panic!("missing [a.b]");
        };
        let Some(Entry::Value(xs)) = b.get("xs") else {
            panic!("missing xs");
        };
        assert!(matches!(&xs.value, Value::Array(v) if v.len() == 3));
        let Some(Entry::Tables(cases)) = doc.get("case") else {
            panic!("missing [[case]]");
        };
        assert_eq!(cases.len(), 2);
    }

    #[test]
    fn repeated_dotted_array_tables_share_a_prefix() {
        let doc = parse(
            "[[fault.region]]\n\
             case = \"a\"\n\
             [[fault.region]]\n\
             case = \"b\"\n\
             [[fault.region]]\n\
             case = \"c\"\n",
        )
        .unwrap();
        let Some(Entry::Table(fault)) = doc.get("fault") else {
            panic!("missing implicit [fault] prefix table");
        };
        let Some(Entry::Tables(regions)) = fault.get("region") else {
            panic!("missing [[fault.region]]");
        };
        assert_eq!(regions.len(), 3);
        for (t, want) in regions.iter().zip(["a", "b", "c"]) {
            assert!(matches!(
                t.get("case"),
                Some(Entry::Value(Spanned { value: Value::Str(s), .. })) if s == want
            ));
        }
    }

    #[test]
    fn reports_lines_for_errors() {
        let e = parse("ok = 1\nbad =\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"), "{e}");
        let e = parse("x = oops\n").unwrap_err();
        assert!(e.message.contains("strings need quotes"), "{e}");
        let e = parse("a.b = 1\n").unwrap_err();
        assert!(e.message.contains("dotted"), "{e}");
        let e = parse("[t]\nx = 1\n[t]\n").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn comments_and_strings_interact() {
        let doc = parse("s = \"a # b\" # trailing\n").unwrap();
        assert!(matches!(
            doc.get("s"),
            Some(Entry::Value(Spanned { value: Value::Str(s), .. })) if s == "a # b"
        ));
    }

    #[test]
    fn float_formatting_round_trips() {
        for x in [600.0, 0.01, 2.5, 0.0] {
            let s = fmt_float(x);
            let Spanned { value, .. } = parse_value(&s, 1).unwrap();
            assert_eq!(value, Value::Float(x), "{s}");
        }
    }
}
