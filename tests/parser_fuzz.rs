//! The lexer and parser against input nobody wrote on purpose: for
//! arbitrary UTF-8 text, and for every single-byte edit of the twelve
//! paper queries, `parse_statement` returns instead of panicking, and
//! every error it returns points at a byte of the input (`at byte N`,
//! `N` a character boundary no further than the input's end).

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hana_data_platform::sql::parse_statement;

/// Fragments a generated text is made of: SQL words and punctuation, so
/// that the parser gets past its first token, and now and then any
/// character at all.
const WORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "ORDER",
    "HAVING",
    "LIMIT",
    "JOIN",
    "LEFT",
    "OUTER",
    "ON",
    "AND",
    "OR",
    "NOT",
    "IN",
    "BETWEEN",
    "LIKE",
    "IS",
    "NULL",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "AS",
    "DISTINCT",
    "DESC",
    "DATE",
    "INSERT",
    "INTO",
    "VALUES",
    "UPDATE",
    "SET",
    "DELETE",
    "CREATE",
    "COLUMN",
    "TABLE",
    "EXPLAIN",
    "WITH",
    "HINT",
    "MERGE",
    "DELTA",
    "OF",
    "COUNT",
    "SUM",
    "(",
    ")",
    ",",
    ".",
    "*",
    "=",
    "<>",
    "<=",
    ">",
    "-",
    "+",
    "/",
    ";",
    "?",
    "1",
    "-5",
    "2.5",
    "1e3",
    "'x'",
    "'it''s'",
    "'1995-01-01'",
    "\"q\"",
    "t",
    "a",
    "t.b",
    "é",
    "€",
    " ",
    "\n",
];

fn arbitrary_text(rng: &mut TestRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.below(40) {
        match rng.below(4) {
            0 => text.push(char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}')),
            1 => text.push((b' ' + rng.below(95) as u8) as char),
            _ => {
                text.push_str(WORDS[rng.below(WORDS.len() as u64) as usize]);
                if rng.below(3) > 0 {
                    text.push(' ');
                }
            }
        }
    }
    text
}

/// `text` with one byte replaced, inserted or removed (the result made
/// valid UTF-8 again where the edit split a character).
fn mutated(text: &str, rng: &mut TestRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.below(bytes.len() as u64 + 1) as usize;
    let byte = rng.below(256) as u8;
    match (rng.below(3), at < bytes.len()) {
        (0, true) => bytes[at] = byte,
        (1, true) => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, byte),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The byte an error message points at.
fn byte_of(msg: &str) -> Option<usize> {
    let rest = &msg[msg.find("at byte ")? + "at byte ".len()..];
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

fn check(sql: &str) {
    let Err(e) = parse_statement(sql) else {
        return;
    };
    let msg = e.to_string();
    let at = byte_of(&msg).unwrap_or_else(|| panic!("{sql:?}: error without a byte: {msg}"));
    assert!(
        at <= sql.len() && sql.is_char_boundary(at),
        "{sql:?}: {msg}"
    );
}

proptest! {
    #[test]
    fn arbitrary_text_parses_or_fails_at_a_byte(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("text-{seed}"));
        for _ in 0..32 {
            check(&arbitrary_text(&mut rng));
        }
    }

    #[test]
    fn every_single_byte_edit_of_a_paper_query_parses_or_fails_at_a_byte(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("edit-{seed}"));
        for q in hana_data_platform::tpch::queries() {
            for _ in 0..16 {
                check(&mutated(&q.sql, &mut rng));
            }
        }
    }
}
