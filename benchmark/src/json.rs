//! A JSON value that renders itself, and a reader for the flat
//! one-object-per-line records the trace writer emits (the workspace
//! has no JSON crate).

use std::collections::BTreeMap;
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // Rust prints the shortest text that reads back as the same
            // f64, so a measured value keeps all its digits.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parse one line holding a flat object whose values are strings
/// (without escapes beyond `\"` and `\\`), integers or `null`.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, Json>> {
    let mut chars = line.trim().chars().peekable();
    let mut out = BTreeMap::new();
    if chars.next()? != '{' {
        return None;
    }
    let read_string = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> Option<String> {
        if chars.next()? != '"' {
            return None;
        }
        let mut s = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(s),
                '\\' => s.push(chars.next()?),
                c => s.push(c),
            }
        }
    };
    loop {
        while chars.peek().is_some_and(|c| *c == ' ' || *c == ',') {
            chars.next();
        }
        if *chars.peek()? == '}' {
            return Some(out);
        }
        let key = read_string(&mut chars)?;
        while chars.peek().is_some_and(|c| *c == ' ' || *c == ':') {
            chars.next();
        }
        let value = if *chars.peek()? == '"' {
            Json::Str(read_string(&mut chars)?)
        } else {
            let mut raw = String::new();
            while chars.peek().is_some_and(|c| *c != ',' && *c != '}') {
                raw.push(chars.next()?);
            }
            match raw.trim() {
                "null" => Json::Null,
                n => Json::Int(n.parse().ok()?),
            }
        };
        out.insert(key, value);
    }
}
