//! The durable row codec: an exact text encoding of rows for WAL
//! payloads, checkpoint records and partition logs.
//!
//! Unlike the delimited line format ([`Row::to_delimited`] +
//! [`Value::parse_typed`]), which renders NULL, `''` and `'null'` alike
//! and cannot carry its own delimiters, this pair is a bijection on
//! every [`Value`] — which is also why Hive's map tasks ship their
//! partial aggregate states through it: each field starts with a one-character type tag
//! (`N`ull, `B`ool, `I`nt, `D`ouble, `S`tring, d`A`te, `T`imestamp),
//! doubles print in their shortest round-tripping form, and strings
//! escape the backslash and the four control characters the durable
//! formats use as separators. Fields are separated by `\u{1f}`, rows by
//! `\u{1e}`.

use crate::{Date, HanaError, Result, Row, Schema, Value};

const VAL_SEP: char = '\u{1f}';
const ROW_SEP: char = '\u{1e}';

/// Separator characters of the durable formats and the letter each is
/// escaped to after a backslash.
const ESCAPES: [(char, char); 5] = [
    ('\\', '\\'),
    ('\u{1}', 'a'),
    ('\u{1d}', 'd'),
    ('\u{1e}', 'e'),
    ('\u{1f}', 'f'),
];

/// Encode one row; [`decode_row`] is the exact inverse.
pub fn encode_row(row: &[Value]) -> String {
    let mut out = String::new();
    push_row(&mut out, row);
    out
}

/// Encode a row list; [`decode_rows`] is the exact inverse.
pub fn encode_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(ROW_SEP);
        }
        push_row(&mut out, row.values());
    }
    out
}

fn push_row(out: &mut String, row: &[Value]) {
    use std::fmt::Write as _;
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(VAL_SEP);
        }
        // Writing into a String cannot fail.
        let _ = match v {
            Value::Null => write!(out, "N"),
            Value::Bool(b) => write!(out, "B{}", *b as u8),
            Value::Int(i) => write!(out, "I{i}"),
            Value::Double(d) => write!(out, "D{d:?}"),
            Value::Date(d) => write!(out, "A{}", d.0),
            Value::Timestamp(t) => write!(out, "T{t}"),
            Value::Varchar(s) => {
                out.push('S');
                for c in s.chars() {
                    match ESCAPES.iter().find(|(raw, _)| *raw == c) {
                        Some((_, letter)) => out.extend(['\\', *letter]),
                        None => out.push(c),
                    }
                }
                Ok(())
            }
        };
    }
}

fn corrupt(what: &str, field: &str) -> HanaError {
    HanaError::Io(format!("corrupt durable row: {what} in field '{field}'"))
}

fn decode_value(field: &str) -> Result<Value> {
    let mut chars = field.chars();
    let tag = chars.next().ok_or_else(|| corrupt("empty field", field))?;
    let body = chars.as_str();
    let number = || corrupt("bad number", field);
    Ok(match tag {
        'N' if body.is_empty() => Value::Null,
        'B' if body == "0" => Value::Bool(false),
        'B' if body == "1" => Value::Bool(true),
        'I' => Value::Int(body.parse().map_err(|_| number())?),
        'D' => Value::Double(body.parse().map_err(|_| number())?),
        'A' => Value::Date(Date(body.parse().map_err(|_| number())?)),
        'T' => Value::Timestamp(body.parse().map_err(|_| number())?),
        'S' => {
            let mut s = String::with_capacity(body.len());
            while let Some(c) = chars.next() {
                if c != '\\' {
                    s.push(c);
                    continue;
                }
                let raw = chars
                    .next()
                    .and_then(|l| ESCAPES.iter().find(|(_, letter)| *letter == l))
                    .ok_or_else(|| corrupt("bad escape", field))?;
                s.push(raw.0);
            }
            Value::Varchar(s)
        }
        _ => return Err(corrupt("unknown type tag", field)),
    })
}

/// Decode the values [`encode_row`] wrote, whatever they are (an empty
/// text is the empty row).
pub fn decode_values(text: &str) -> Result<Vec<Value>> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(VAL_SEP).map(decode_value).collect()
}

/// Decode one row and check it against `schema` (arity, nullability,
/// assignable types) — the text comes from disk.
pub fn decode_row(text: &str, schema: &Schema) -> Result<Row> {
    let vals = decode_values(text)?;
    schema.check_row(&vals)?;
    Ok(Row(vals))
}

/// Decode a row list written by [`encode_rows`].
pub fn decode_rows(text: &str, schema: &Schema) -> Result<Vec<Row>> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(ROW_SEP)
        .map(|line| decode_row(line, schema))
        .collect()
}
