//! The durable row codec is a bijection: what `encode_row(s)` writes,
//! `decode_row(s)` reads back bit for bit — and damaged text is an
//! error, never a panic or a silently different row.

use hana_types::{
    decode_row, decode_rows, encode_row, encode_rows, DataType, Date, Row, Schema, Value,
};

fn schema() -> Schema {
    Schema::of(&[
        ("b", DataType::Bool),
        ("i", DataType::BigInt),
        ("d", DataType::Double),
        ("s", DataType::Varchar),
        ("dt", DataType::Date),
        ("ts", DataType::Timestamp),
    ])
}

fn row(d: Value, s: &str) -> Row {
    Row::from_values([
        Value::Bool(true),
        Value::Int(i64::MIN),
        d,
        Value::from(s),
        Value::Date(Date(-719_468)),
        Value::Timestamp(i64::MAX),
    ])
}

#[test]
fn every_variant_round_trips_exactly() {
    let doubles = [
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        5e-324,
        1e300,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.1 + 0.2,
    ];
    let strings = [
        "",
        "null",
        "\\N",
        "N",
        "\\",
        "\\a",
        "C:\\new",
        "a\u{1}b\u{1d}c\u{1e}d\u{1f}e",
        "line\nbreak",
        "héllo ✓ 日本",
    ];
    let mut rows = vec![Row::from_values(vec![Value::Null; 6])];
    for d in doubles {
        for s in strings {
            rows.push(row(Value::Double(d), s));
        }
    }
    // A DOUBLE column may hold an integer: it comes back as what it
    // was, not as the column's type.
    rows.push(row(Value::Int(7), "widened"));
    let text = encode_rows(&rows);
    let decoded = decode_rows(&text, &schema()).unwrap();
    // `Value`'s own equality treats -0.0 and 0.0 (and 7 and 7.0) alike.
    assert_eq!(format!("{decoded:?}"), format!("{rows:?}"));
    for (r, d) in rows.iter().zip(&decoded) {
        if let (Value::Double(a), Value::Double(b)) = (&r[2], &d[2]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decode_row(&encode_row(r.values()), &schema()).unwrap(), *r);
    }
    // The separators of the formats that embed encoded rows never
    // appear raw, whatever the strings hold.
    assert!(!text.contains(['\u{1}', '\u{1d}']));
    assert_eq!(text.matches('\u{1e}').count(), rows.len() - 1);
    assert!(decode_rows("", &schema()).unwrap().is_empty());
}

#[test]
fn damaged_text_is_an_error() {
    let s = schema();
    let good = encode_row(row(Value::Double(1.5), "x").values());
    assert!(decode_row(&good, &s).is_ok());
    for bad in [
        String::new(),                 // no fields
        "N".to_string(),               // too few fields
        good.replace("D1.5", "Dx"),    // not a number
        good.replace("Sx", "Sx\\q"),   // unknown escape
        good.replace("Sx", "Sx\\"),    // dangling escape
        good.replace("B1", "B2"),      // not a boolean
        good.replace("B1", "Q1"),      // unknown tag
        good.replace("B1", "Sstring"), // wrong type for the column
    ] {
        assert!(decode_row(&bad, &s).is_err(), "accepted {bad:?}");
    }
}
