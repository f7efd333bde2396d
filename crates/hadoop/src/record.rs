//! The record codec of Hive's intermediate data: what a join or
//! group-by map task ships to its reducers, what a reducer writes for the
//! next job, and what a statement reads back after its last one — Hive's
//! BinarySortable keys and LazyBinary rows, in miniature. Tables stay
//! text; nothing between a table scan and a statement's epilogue formats
//! or parses a number.
//!
//! A record is a sequence of fields, each self-delimiting: a tag byte,
//! then a fixed-width payload or a length prefix and that many bytes.
//!
//! | value | bytes |
//! |---|---|
//! | NULL | `~` |
//! | BOOLEAN | `f` or `t` |
//! | INT, BIGINT | `i`, the digit count `n`, `n` digits of the zigzagged value |
//! | TIMESTAMP | `m`, then as INT |
//! | DATE | `d`, then as INT (the day number) |
//! | DOUBLE | `x`, 11 digits of the IEEE-754 bits |
//! | VARCHAR | `s`, as INT the length `n` of the escaped text, its `n` bytes |
//!
//! A digit is one of 64 consecutive ASCII symbols (`0` to `o`), most
//! significant first, and a count is one digit. A string's line breaks
//! and escape bytes are escaped ([`ESC`] and the byte with bit 6
//! flipped), so a record is UTF-8 with no `\n` in it: a file of records,
//! one a line, splits by block exactly as a text file does
//! (`Hdfs::read_split`), and each record belongs to one map task.
//!
//! Keys ([`put_key`]) are values written so that equal values — as
//! `Value`'s equality has it, which the local hash join uses — are equal
//! bytes: `-0.0` is written as `0.0`, and an integer that meets a DOUBLE
//! as the double it equals. Key bytes group; they do not order (ORDER BY
//! runs in the statement's epilogue).

use std::borrow::Cow;

use hana_sql::batch::{Batch, Column, Dictionary};
use hana_types::{DataType, Date, FxHashMap, HanaError, Result, Value};

/// The escape byte of strings (DLE).
const ESC: u8 = 0x10;
/// The first of the 64 digit symbols.
const DIGIT: u8 = b'0';
/// Digits of a 64-bit payload.
const WIDE: usize = 11;

const NULL: u8 = b'~';
const FALSE: u8 = b'f';
const TRUE: u8 = b't';
const INT: u8 = b'i';
const TIMESTAMP: u8 = b'm';
const DATE: u8 = b'd';
const DOUBLE: u8 = b'x';
const STRING: u8 = b's';

/// Append `v` to a record.
pub(crate) fn put(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push(NULL as char),
        Value::Bool(b) => out.push(if *b { TRUE } else { FALSE } as char),
        Value::Int(i) => put_int(out, INT, *i),
        Value::Timestamp(t) => put_int(out, TIMESTAMP, *t),
        Value::Date(d) => put_int(out, DATE, i64::from(d.0)),
        Value::Double(d) => put_double(out, *d),
        Value::Varchar(s) => put_str(out, s),
    }
}

/// Append `v` as a key field: equal values are equal bytes. With
/// `as_double` an integer is written as the double it equals (it meets a
/// DOUBLE key); without, integers stay exact.
pub(crate) fn put_key(out: &mut String, v: &Value, as_double: bool) {
    match v {
        Value::Int(i) if as_double => put_key_double(out, *i as f64),
        Value::Double(d) => put_key_double(out, *d),
        v => put(out, v),
    }
}

/// A double key: `-0.0` is `0.0`, which `Value`'s equality cannot tell
/// apart from it.
fn put_key_double(out: &mut String, d: f64) {
    put_double(out, if d == 0.0 { 0.0 } else { d });
}

fn put_int(out: &mut String, tag: u8, i: i64) {
    let z = ((i << 1) ^ (i >> 63)) as u64;
    put_number(
        out,
        tag,
        true,
        z,
        (64 - z.leading_zeros() as usize).div_ceil(6),
    );
}

fn put_double(out: &mut String, d: f64) {
    put_number(out, DOUBLE, false, d.to_bits(), WIDE);
}

/// `tag`, the digit count `n` if `counted`, then the low `6 * n` bits
/// of `z` as `n` digits, most significant first — in one append.
#[inline]
fn put_number(out: &mut String, tag: u8, counted: bool, z: u64, n: usize) {
    let mut buf = [tag, DIGIT + n as u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    let mut at = 1 + usize::from(counted);
    for k in (0..n).rev() {
        buf[at] = DIGIT + ((z >> (6 * k)) & 63) as u8;
        at += 1;
    }
    out.push_str(std::str::from_utf8(&buf[..at]).expect("ASCII symbols"));
}

/// Append the string `s` to a record.
pub(crate) fn put_str(out: &mut String, s: &str) {
    let reserved = |b: &u8| *b == b'\n' || *b == ESC;
    let escapes = s.bytes().filter(reserved).count();
    put_int(out, STRING, (s.len() + escapes) as i64);
    if escapes == 0 {
        out.push_str(s);
        return;
    }
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| reserved(&b)) {
        out.push_str(&rest[..i]);
        out.push(ESC as char);
        out.push((rest.as_bytes()[i] ^ 0x40) as char);
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// The string that `s`, as [`put_str`] wrote it, stands for.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.as_bytes().contains(&ESC) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c == ESC as char {
            // The escaped byte is ASCII with bit 6 flipped.
            true => out.extend(chars.next().map(|e| (e as u8 ^ 0x40) as char)),
            false => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// One field of a record, as [`Fields`] reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Field<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Timestamp(i64),
    Date(Date),
    Double(f64),
    /// The string as written: escaped.
    Str(&'a str),
}

impl Field<'_> {
    /// The value the field holds.
    pub(crate) fn value(self) -> Value {
        match self {
            Field::Null => Value::Null,
            Field::Bool(b) => Value::Bool(b),
            Field::Int(i) => Value::Int(i),
            Field::Timestamp(t) => Value::Timestamp(t),
            Field::Date(d) => Value::Date(d),
            Field::Double(d) => Value::Double(d),
            Field::Str(s) => Value::Varchar(unescape(s).into_owned()),
        }
    }
}

/// The fields of one record, front to back.
pub(crate) struct Fields<'a> {
    rec: &'a str,
    at: usize,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(rec: &'a str) -> Fields<'a> {
        Fields { rec, at: 0 }
    }

    fn corrupt(&self) -> HanaError {
        HanaError::Execution(format!(
            "corrupt record at byte {}: {:?}",
            self.at, self.rec
        ))
    }

    /// The next `n` digits as a number.
    #[inline]
    fn digits(&mut self, n: usize) -> Result<u64> {
        let bytes = self.rec.as_bytes();
        let Some(ds) = bytes.get(self.at..self.at + n) else {
            return Err(self.corrupt());
        };
        let mut z = 0u64;
        for &b in ds {
            let d = b.wrapping_sub(DIGIT);
            if d >= 64 {
                return Err(self.corrupt());
            }
            z = z << 6 | u64::from(d);
        }
        self.at += n;
        Ok(z)
    }

    /// A digit count, then that many digits, unzigzagged.
    #[inline]
    fn int(&mut self) -> Result<i64> {
        let n = self.digits(1)? as usize;
        if n > WIDE {
            return Err(self.corrupt());
        }
        let z = self.digits(n)?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// The next field; past the last one, an error.
    pub(crate) fn next(&mut self) -> Result<Field<'a>> {
        let Some(&tag) = self.rec.as_bytes().get(self.at) else {
            return Err(self.corrupt());
        };
        self.at += 1;
        Ok(match tag {
            NULL => Field::Null,
            FALSE => Field::Bool(false),
            TRUE => Field::Bool(true),
            INT => Field::Int(self.int()?),
            TIMESTAMP => Field::Timestamp(self.int()?),
            DATE => {
                let d = i32::try_from(self.int()?).map_err(|_| self.corrupt())?;
                Field::Date(Date(d))
            }
            DOUBLE => Field::Double(f64::from_bits(self.digits(WIDE)?)),
            STRING => {
                let n = usize::try_from(self.int()?).map_err(|_| self.corrupt())?;
                let end = self.at.checked_add(n).ok_or_else(|| self.corrupt())?;
                let s = self.rec.get(self.at..end).ok_or_else(|| self.corrupt())?;
                self.at = end;
                Field::Str(s)
            }
            _ => {
                self.at -= 1;
                return Err(self.corrupt());
            }
        })
    }

    /// Skip the next field.
    pub(crate) fn skip(&mut self) -> Result<()> {
        self.next().map(|_| ())
    }

    /// Fail unless every byte has been read.
    pub(crate) fn end(&self) -> Result<()> {
        match self.at == self.rec.len() {
            true => Ok(()),
            false => Err(self.corrupt()),
        }
    }
}

/// A record's `arity` fields as values.
pub(crate) fn values(rec: &str, arity: usize) -> Result<Vec<Value>> {
    let mut fields = Fields::new(rec);
    let values = (0..arity).map(|_| fields.next().map(Field::value));
    let values = values.collect::<Result<Vec<Value>>>()?;
    fields.end()?;
    Ok(values)
}

/// Records of `arity` fields as one batch: per entry of `types`, a
/// column of that type holding that field of each record, or NULL where
/// it is `None` (the field is skipped, not decoded). A VARCHAR field
/// becomes vids into a dictionary of its distinct values; INT, DOUBLE,
/// DATE and BOOLEAN typed vectors until a field of another kind (a NULL)
/// makes the column values.
pub(crate) fn decode<'a>(
    records: impl IntoIterator<Item = &'a str>,
    types: &[Option<DataType>],
) -> Result<Batch> {
    let mut builders: Vec<Builder<'a>> = types.iter().map(|ty| Builder::new(*ty)).collect();
    let mut n = 0;
    for rec in records {
        let mut fields = Fields::new(rec);
        for b in &mut builders {
            match b {
                Builder::Skip => fields.skip()?,
                b => b.push(fields.next()?),
            }
        }
        fields.end()?;
        n += 1;
    }
    let columns = builders.into_iter().map(|b| b.finish(n)).collect();
    Ok(Batch::new(columns, n))
}

/// One column of [`decode`], as it fills.
enum Builder<'a> {
    Skip,
    Int(Vec<i64>),
    Double(Vec<f64>),
    Date(Vec<Date>),
    Bool(Vec<bool>),
    /// Per distinct string (as written) its vid, the values, the vids.
    Dict(FxHashMap<&'a str, u32>, Vec<Value>, Vec<u32>),
    Values(Vec<Value>),
}

impl<'a> Builder<'a> {
    fn new(ty: Option<DataType>) -> Builder<'a> {
        match ty {
            None => Builder::Skip,
            Some(DataType::Int | DataType::BigInt) => Builder::Int(Vec::new()),
            Some(DataType::Double) => Builder::Double(Vec::new()),
            Some(DataType::Date) => Builder::Date(Vec::new()),
            Some(DataType::Bool) => Builder::Bool(Vec::new()),
            Some(DataType::Varchar) => Builder::Dict(FxHashMap::default(), Vec::new(), Vec::new()),
            Some(DataType::Timestamp) => Builder::Values(Vec::new()),
        }
    }

    #[inline]
    fn push(&mut self, f: Field<'a>) {
        match (&mut *self, f) {
            (Builder::Int(v), Field::Int(i)) => v.push(i),
            (Builder::Double(v), Field::Double(d)) => v.push(d),
            (Builder::Date(v), Field::Date(d)) => v.push(d),
            (Builder::Bool(v), Field::Bool(b)) => v.push(b),
            (Builder::Dict(_, _, vids), Field::Null) => vids.push(0),
            (Builder::Dict(ids, distinct, vids), Field::Str(s)) => {
                let next = distinct.len() as u32 + 1;
                let vid = *ids.entry(s).or_insert(next);
                if vid == next {
                    distinct.push(Field::Str(s).value());
                }
                vids.push(vid);
            }
            (Builder::Values(v), f) => v.push(f.value()),
            (Builder::Skip, _) => {}
            (_, f) => {
                let mut done = std::mem::replace(self, Builder::Skip).into_values();
                done.push(f.value());
                *self = Builder::Values(done);
            }
        }
    }

    fn into_values(self) -> Vec<Value> {
        match self {
            Builder::Int(v) => v.into_iter().map(Value::Int).collect(),
            Builder::Double(v) => v.into_iter().map(Value::Double).collect(),
            Builder::Date(v) => v.into_iter().map(Value::Date).collect(),
            Builder::Bool(v) => v.into_iter().map(Value::Bool).collect(),
            Builder::Dict(_, distinct, vids) => {
                let value = |&v: &u32| match v {
                    0 => Value::Null,
                    v => distinct[v as usize - 1].clone(),
                };
                vids.iter().map(value).collect()
            }
            Builder::Values(v) => v,
            Builder::Skip => Vec::new(),
        }
    }

    fn finish(self, n: usize) -> Column {
        match self {
            Builder::Skip => Column::Const(Value::Null, n),
            Builder::Int(v) => Column::Int(v),
            Builder::Double(v) => Column::Double(v),
            Builder::Date(v) => Column::Date(v),
            Builder::Bool(v) => Column::Bool(v),
            Builder::Dict(_, distinct, vids) => {
                Column::Dict(Dictionary::Local(distinct.into()), vids)
            }
            Builder::Values(v) => Column::Values(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Values of every type in their corners, the text format's own
    /// spellings and the codec's reserved bytes among them.
    fn corners() -> Vec<Value> {
        let strings = [
            "",
            "\\N",
            "\u{1}",
            "a\u{1}b",
            "two\nlines",
            "\r\n",
            "\u{10}",
            "\u{10}J\n\u{10}",
            "null",
            "grüße, 東京 🚀",
            "~",
            "s00",
        ];
        let mut v = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(f64::MIN_POSITIVE),
            Value::Double(1234.56),
            Value::Date(Date(i32::MIN)),
            Value::Date(Date(i32::MAX)),
            Value::Date(Date::parse("1995-06-17").unwrap()),
            Value::Timestamp(i64::MIN),
        ];
        for i in [0, 1, -1, 63, 64, -64, -65, i64::MIN, i64::MAX] {
            v.push(Value::Int(i));
            v.push(Value::Timestamp(i));
        }
        v.extend(strings.iter().map(|s| Value::from(*s)));
        v
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let corners = corners();
        prop_oneof![
            (0..corners.len()).prop_map(move |i| corners[i].clone()),
            any::<i64>().prop_map(Value::Int),
            any::<i64>().prop_map(Value::Timestamp),
            any::<u64>().prop_map(|b| Value::Double(f64::from_bits(b))),
            any::<i32>().prop_map(|d| Value::Date(Date(d))),
            // Text over the codec's own symbols and reserved bytes.
            "[\u{1}\u{10}\n\r~ é東😀0-o]{0,12}".prop_map(Value::Varchar),
        ]
    }

    /// Same value, same bits: `-0.0` is not `0.0`, nor one NaN another.
    fn exact(v: &Value) -> String {
        match v {
            Value::Double(d) => format!("Double({:#x})", d.to_bits()),
            v => format!("{v:?}"),
        }
    }

    fn key(v: &Value, as_double: bool) -> String {
        let mut out = String::new();
        put_key(&mut out, v, as_double);
        out
    }

    #[test]
    fn corner_values_round_trip_with_their_bits() {
        let row = corners();
        let mut rec = String::new();
        for v in &row {
            put(&mut rec, v);
        }
        assert!(!rec.contains('\n'), "{rec:?}");
        let back = values(&rec, row.len()).unwrap();
        let (back, row): (Vec<String>, Vec<String>) = back
            .iter()
            .zip(&row)
            .map(|(b, v)| (exact(b), exact(v)))
            .unzip();
        assert_eq!(back, row);
        assert!(values(&rec, row.len() - 1).is_err(), "a field too many");
        assert!(values(&rec, row.len() + 1).is_err(), "a field too few");
        assert!(
            values(&rec[..rec.len() - 1], row.len()).is_err(),
            "cut short"
        );
    }

    #[test]
    fn keys_are_equal_exactly_when_values_are() {
        let zero = key(&Value::Double(0.0), false);
        assert_eq!(key(&Value::Double(-0.0), false), zero, "-0.0 meets 0.0");
        assert_eq!(key(&Value::Int(0), true), zero, "INT 0 meets DOUBLE 0.0");
        assert_eq!(key(&Value::Int(1), true), key(&Value::Double(1.0), false));
        assert_ne!(key(&Value::Int(1), false), key(&Value::Int(2), false));
        assert_ne!(
            key(&Value::Int(1), false),
            key(&Value::Varchar("1".into()), false)
        );
        assert_ne!(
            key(&Value::Null, false),
            key(&Value::Varchar("".into()), false)
        );
    }

    #[test]
    fn decode_types_columns_until_a_null() {
        let mut recs = Vec::new();
        for (i, s) in [(1, Some("a")), (2, None), (3, Some("a\n"))] {
            let mut rec = String::new();
            put(&mut rec, &Value::Int(i));
            put(&mut rec, &s.map_or(Value::Null, Value::from));
            put(&mut rec, &Value::Double(i as f64));
            recs.push(rec);
        }
        let types = [Some(DataType::Int), Some(DataType::Varchar), None];
        let b = decode(recs.iter().map(String::as_str), &types).unwrap();
        assert!(matches!(&b.columns[0], Column::Int(v) if v == &[1, 2, 3]));
        assert!(
            matches!(&b.columns[1], Column::Dict(d, v) if d.values().len() == 2 && v == &[1, 0, 2])
        );
        assert_eq!(b.columns[1].get(2).into_owned(), Value::from("a\n"));
        assert!(matches!(&b.columns[2], Column::Const(Value::Null, 3)));
        let mut null = String::new();
        put(&mut null, &Value::Null);
        put(&mut null, &Value::from("b"));
        put(&mut null, &Value::Null);
        recs.push(null);
        let b = decode(recs.iter().map(String::as_str), &types).unwrap();
        assert!(
            matches!(&b.columns[0], Column::Values(v) if v[3].is_null() && v[0] == Value::Int(1))
        );
        assert!(decode(recs.iter().map(String::as_str), &types[..2]).is_err());
    }

    proptest! {
        #[test]
        fn rows_round_trip_exactly_and_hold_no_line_break(
            row in prop::collection::vec(arb_value(), 0..8),
        ) {
            let mut rec = String::new();
            for v in &row {
                put(&mut rec, v);
            }
            prop_assert!(!rec.contains('\n'));
            let back = values(&rec, row.len()).unwrap();
            let back: Vec<String> = back.iter().map(exact).collect();
            let want: Vec<String> = row.iter().map(exact).collect();
            prop_assert_eq!(back, want);
        }

        #[test]
        fn key_bytes_are_equal_exactly_when_values_are(
            a in arb_value(),
            b in arb_value(),
            as_double in any::<bool>(),
        ) {
            // Keys meet as the join meets them: an INT as a double when
            // the other side's key is a DOUBLE, and a key column holds
            // one type otherwise.
            let meet = |v: &Value| match v {
                Value::Int(i) if as_double => Value::Double(*i as f64),
                v => v.clone(),
            };
            let (a, b) = (meet(&a), meet(&b));
            let same_type = a.data_type() == b.data_type();
            prop_assert_eq!(key(&a, as_double) == key(&b, as_double), same_type && a == b);
        }
    }
}
