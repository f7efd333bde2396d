//! Hive's record reader finds line and field boundaries in one pass,
//! eight bytes at a time, and answers exactly what `str::lines` followed
//! by `split('\u{1}')` answers — including the arity error of the first
//! line with another field count, whichever fields it slices.

use hana_hadoop::{read_fields, read_records};
use proptest::prelude::*;

/// The slow way: each line's fields up to the first line of another
/// arity, and that line's error message.
fn two_pass(text: &str, arity: usize) -> (Vec<(String, Vec<String>)>, Option<String>) {
    let mut records = Vec::new();
    for line in text.lines() {
        let fields: Vec<String> = line.split('\u{1}').map(str::to_string).collect();
        if fields.len() != arity {
            let n = fields.len();
            let error = format!("line has {n} fields, schema {arity} columns: '{line}'");
            return (records, Some(error));
        }
        records.push((line.to_string(), fields));
    }
    (records, None)
}

fn one_pass(text: &str, arity: usize) -> (Vec<(String, Vec<String>)>, Option<String>) {
    let mut records = Vec::new();
    let read = read_records(text, arity, |line, fields| {
        let fields = fields.iter().map(|f| f.to_string()).collect();
        records.push((line.to_string(), fields));
        Ok(())
    });
    match read {
        Ok(n) => {
            assert_eq!(n, records.len() as u64, "the count is of lines read");
            (records, None)
        }
        Err(e) => (records, Some(e.message().to_string())),
    }
}

proptest! {
    /// Lines of 0–40 characters — empty ones, `^A` anywhere, carriage
    /// returns, 2-, 3- and 4-byte characters — with and without a final
    /// newline, shifted by 0–7 bytes so that every separator is seen at
    /// every offset of an eight-byte step.
    #[test]
    fn one_pass_reads_what_lines_and_split_read(
        lines in prop::collection::vec("[ab\u{1} é€😀\r]{0,40}", 0..10),
        final_newline in any::<bool>(),
        arity in 1usize..5,
    ) {
        let mut body = lines.join("\n");
        if final_newline && !lines.is_empty() {
            body.push('\n');
        }
        for shift in 0..8 {
            let text = format!("{}{body}", "x".repeat(shift));
            prop_assert_eq!(one_pass(&text, arity), two_pass(&text, arity), "shift {}", shift);
        }
    }

    /// Tables as the reader meets them: every line has the same number
    /// of fields, so the whole text is read.
    #[test]
    fn lines_of_one_arity_are_read_to_the_end(
        rows in prop::collection::vec(prop::collection::vec("[ab é€😀\r]{0,7}", 5), 0..12),
        arity in 1usize..6,
        final_newline in any::<bool>(),
    ) {
        let lines: Vec<String> = rows.iter().map(|fields| fields[..arity].join("\u{1}")).collect();
        let mut text = lines.join("\n");
        if final_newline && !lines.is_empty() {
            text.push('\n');
        }
        let (records, error) = one_pass(&text, arity);
        prop_assert_eq!(&error, &None);
        prop_assert_eq!((records, error), two_pass(&text, arity));
    }

    /// A projected read hands back the full read's fields at the wanted
    /// positions — runs of separators it skips included — and fails with
    /// the full read's arity error whichever positions are wanted.
    #[test]
    fn a_projected_read_is_the_full_read_at_the_wanted_fields(
        lines in prop::collection::vec("[ab\u{1}\u{1}\u{1} é😀\r]{0,40}", 0..10),
        final_newline in any::<bool>(),
        arity in 1usize..12,
        mask in any::<u16>(),
        table in prop::collection::vec(prop::collection::vec("[ab é\r]{0,3}", 12), 0..8),
    ) {
        let wanted: Vec<usize> = (0..arity).filter(|&i| mask >> i & 1 == 1).collect();
        // Random lines, most of another arity, then a table of this one
        // whose short fields put several separators in most steps.
        let mut body = lines.join("\n");
        if final_newline && !lines.is_empty() {
            body.push('\n');
        }
        let rows: Vec<String> = table.iter().map(|fields| fields[..arity].join("\u{1}")).collect();
        let table = rows.join("\n");
        for (shift, body) in (0..8).flat_map(|shift| [(shift, &body), (shift, &table)]) {
            let text = format!("{}{body}", "x".repeat(shift));
            let (full, full_error) = one_pass(&text, arity);
            let mut projected = Vec::new();
            let read = read_fields(&text, arity, &wanted, |line, fields| {
                projected.push((line.to_string(), fields.iter().map(|f| f.to_string()).collect()));
                Ok(())
            });
            let error = read.as_ref().err().map(|e| e.message().to_string());
            prop_assert_eq!(&error, &full_error, "shift {}", shift);
            if let Ok(n) = read {
                prop_assert_eq!(n, projected.len() as u64);
            }
            let want: Vec<(String, Vec<String>)> = full
                .into_iter()
                .map(|(line, fields)| (line, wanted.iter().map(|&i| fields[i].clone()).collect()))
                .collect();
            prop_assert_eq!(projected, want, "shift {} wanted {:?}", shift, wanted);
        }
    }
}

#[test]
fn an_error_from_the_caller_ends_the_read() {
    let text = "a\u{1}1\nb\u{1}2\nc\u{1}3\n";
    let mut seen = Vec::new();
    let err = read_records(text, 2, |line, _| {
        seen.push(line);
        match line.starts_with('b') {
            true => Err(hana_types::HanaError::Execution("stop".into())),
            false => Ok(()),
        }
    })
    .unwrap_err();
    assert_eq!(err.message(), "stop");
    assert_eq!(seen, ["a\u{1}1", "b\u{1}2"]);
}
