//! A minimal TOML-subset reader for `analysis.toml`.
//!
//! The workspace is offline-vendored, so the linter ships its own reader
//! for exactly the subset its config uses: `[table.paths]` headers,
//! `[[array.of.tables]]` headers, and `key = value` pairs where a value
//! is a basic string, an integer, a boolean, or a (possibly multi-line)
//! array of those.  Bare keys may contain letters, digits, `-` and `_`
//! (lint names are kebab-case).  `#` comments are stripped outside
//! strings.  Anything outside this subset is a hard error — the config
//! is checked in, so failing loudly beats guessing.

use std::collections::BTreeMap;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Value>),
    /// A table of key/value pairs (also used for the document root).
    Table(BTreeMap<String, Value>),
}

impl Value {
    /// Looks up a nested table entry by dotted path.
    pub fn get(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for part in path.split('.') {
            match cur {
                Value::Table(map) => cur = map.get(part)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub(crate) fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a table, if it is one.
    pub(crate) fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(map) => Some(map),
            _ => None,
        }
    }

    /// Convenience: the entry at `path` as a list of strings (empty when
    /// absent).
    pub(crate) fn str_list(&self, path: &str) -> Vec<String> {
        self.get(path)
            .and_then(Value::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Parses a TOML-subset document into its root table.
pub(crate) fn parse(src: &str) -> Result<Value, String> {
    let mut root = BTreeMap::new();
    // Path of the table currently being filled; for `[[...]]` headers the
    // last element of the array at that path.
    let mut current: Vec<String> = Vec::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("analysis.toml line {}: {}", lineno + 1, msg);
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let path = split_key_path(header).map_err(|e| err(&e))?;
            push_array_table(&mut root, &path).map_err(|e| err(&e))?;
            current = path;
        } else if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let path = split_key_path(header).map_err(|e| err(&e))?;
            ensure_table(&mut root, &path).map_err(|e| err(&e))?;
            current = path;
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            if !is_bare_key(key) {
                return Err(err(&format!("invalid key {key:?}")));
            }
            let mut value_src = line[eq + 1..].trim().to_owned();
            // Multi-line arrays: keep appending lines until brackets
            // balance outside strings.
            while !brackets_balanced(&value_src) {
                match lines.next() {
                    Some((_, next)) => {
                        value_src.push(' ');
                        value_src.push_str(strip_comment(next).trim());
                    }
                    None => return Err(err("unterminated array")),
                }
            }
            let value = parse_value(value_src.trim()).map_err(|e| err(&e))?;
            let table = current_table(&mut root, &current).map_err(|e| err(&e))?;
            if table.insert(key.to_owned(), value).is_some() {
                return Err(err(&format!("duplicate key {key:?}")));
            }
        } else {
            return Err(err(&format!("unrecognised line {line:?}")));
        }
    }
    Ok(Value::Table(root))
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

fn split_key_path(header: &str) -> Result<Vec<String>, String> {
    let parts: Vec<String> = header.trim().split('.').map(str::to_owned).collect();
    for p in &parts {
        if !is_bare_key(p) {
            return Err(format!("invalid table name part {p:?}"));
        }
    }
    Ok(parts)
}

fn brackets_balanced(src: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    depth <= 0
}

/// Walks to (creating as needed) the table at `path`, descending into the
/// last element of any array-of-tables met along the way.
fn ensure_table<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
) -> Result<&'a mut BTreeMap<String, Value>, String> {
    let mut cur = root;
    for part in path {
        let entry = cur
            .entry(part.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        cur = match entry {
            Value::Table(map) => map,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Table(map)) => map,
                _ => return Err(format!("{part:?} is not a table")),
            },
            _ => return Err(format!("{part:?} is not a table")),
        };
    }
    Ok(cur)
}

fn push_array_table(root: &mut BTreeMap<String, Value>, path: &[String]) -> Result<(), String> {
    let (last, parents) = path
        .split_last()
        .ok_or_else(|| "empty table name".to_owned())?;
    let parent = ensure_table(root, parents)?;
    let entry = parent
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(items) => {
            items.push(Value::Table(BTreeMap::new()));
            Ok(())
        }
        _ => Err(format!("{last:?} is not an array of tables")),
    }
}

fn current_table<'a>(
    root: &'a mut BTreeMap<String, Value>,
    current: &[String],
) -> Result<&'a mut BTreeMap<String, Value>, String> {
    ensure_table(root, current)
}

fn parse_value(src: &str) -> Result<Value, String> {
    let src = src.trim();
    if let Some(rest) = src.strip_prefix('"') {
        let (s, consumed) = parse_string(rest)?;
        if rest[consumed..].trim_start().is_empty() {
            Ok(Value::Str(s))
        } else {
            Err(format!("trailing content after string in {src:?}"))
        }
    } else if src == "true" {
        Ok(Value::Bool(true))
    } else if src == "false" {
        Ok(Value::Bool(false))
    } else if let Some(inner) = src.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        for piece in split_top_level(inner)? {
            let piece = piece.trim();
            if !piece.is_empty() {
                items.push(parse_value(piece)?);
            }
        }
        Ok(Value::Array(items))
    } else if let Ok(n) = src.replace('_', "").parse::<i64>() {
        Ok(Value::Int(n))
    } else {
        Err(format!("unsupported value {src:?}"))
    }
}

/// Parses a basic string body (after the opening quote); returns the
/// unescaped text and the number of bytes consumed **including** the
/// closing quote.
fn parse_string(rest: &str) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, other)) => return Err(format!("unsupported escape \\{other}")),
                None => return Err("unterminated escape".to_owned()),
            },
            _ => out.push(c),
        }
    }
    Err("unterminated string".to_owned())
}

/// Splits an array body on commas at bracket depth zero, respecting
/// strings.
fn split_top_level(src: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut piece = String::new();
    let mut depth = 0i64;
    let mut in_str = false;
    let mut chars = src.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_str = !in_str;
                piece.push(c);
            }
            '\\' if in_str => {
                piece.push(c);
                if let Some(n) = chars.next() {
                    piece.push(n);
                }
            }
            '[' if !in_str => {
                depth += 1;
                piece.push(c);
            }
            ']' if !in_str => {
                depth -= 1;
                piece.push(c);
            }
            ',' if !in_str && depth == 0 => {
                out.push(std::mem::take(&mut piece));
            }
            _ => piece.push(c),
        }
    }
    if in_str {
        return Err("unterminated string in array".to_owned());
    }
    out.push(piece);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_scalars() {
        let doc = r#"
            # top comment
            [paths]
            include = ["crates", "src"] # trailing comment

            [lints.determinism]
            paths = [
                "crates/core/src",
                "crates/sim/src",
            ]
            enabled = true
            max = 2

            [[lints.determinism.allow]]
            file = "a.rs"
            why = "says \"so\""

            [[lints.determinism.allow]]
            file = "b.rs"
            why = "other"
        "#;
        let v = parse(doc).unwrap();
        assert_eq!(v.str_list("paths.include"), vec!["crates", "src"]);
        assert_eq!(
            v.str_list("lints.determinism.paths"),
            vec!["crates/core/src", "crates/sim/src"]
        );
        assert_eq!(v.get("lints.determinism.enabled"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("lints.determinism.max").and_then(Value::as_int),
            Some(2)
        );
        let allows = v
            .get("lints.determinism.allow")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(allows.len(), 2);
        assert_eq!(
            allows[0].get("why").and_then(Value::as_str),
            Some("says \"so\"")
        );
        assert_eq!(allows[1].get("file").and_then(Value::as_str), Some("b.rs"));
    }

    #[test]
    fn keys_after_array_of_tables_land_in_the_last_entry() {
        let doc = "[[x.y]]\na = 1\n[[x.y]]\na = 2\n";
        let v = parse(doc).unwrap();
        let items = v.get("x.y").unwrap().as_array().unwrap();
        assert_eq!(items[0].get("a").and_then(Value::as_int), Some(1));
        assert_eq!(items[1].get("a").and_then(Value::as_int), Some(2));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("key key key").is_err());
        assert!(parse("k = {inline = 1}").is_err());
        assert!(parse("k = \"unterminated").is_err());
        assert!(parse("[a]\nk = 1\nk = 2").is_err());
    }
}
