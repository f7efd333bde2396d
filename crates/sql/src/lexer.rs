//! SQL tokenizer.

use hana_types::{HanaError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Bare identifier or keyword (kept as written; keyword matching is
    /// case-insensitive in the parser).
    Ident(String),
    /// `"quoted"` identifier (never a keyword).
    QuotedIdent(String),
    /// `'string'` literal with `''` escapes resolved.
    StringLit(String),
    /// Numeric literal (integer or decimal).
    Number(String),
    /// Punctuation / operator.
    Symbol(Symbol),
}

/// Punctuation tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `?` — positional parameter placeholder in prepared statements.
    Question,
}

impl Token {
    /// Whether the token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize `input`, skipping whitespace and `--` comments.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    Ok(tokenize_with_offsets(input)?.0)
}

/// [`tokenize`], plus the byte offset in `input` each token starts at
/// (parallel to the tokens) — what the parser positions its errors with.
pub(crate) fn tokenize_with_offsets(input: &str) -> Result<(Vec<Token>, Vec<u32>)> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut offsets: Vec<u32> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let start = i;
        // Every arm advances by whole characters, so `i` stays on a
        // character boundary.
        let c = input[i..].chars().next().expect("i < len, on a boundary");
        match c {
            c if c.is_whitespace() => i += c.len_utf8(),
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::Symbol(Symbol::LParen));
                i += 1;
            }
            ')' => {
                out.push(Token::Symbol(Symbol::RParen));
                i += 1;
            }
            ',' => {
                out.push(Token::Symbol(Symbol::Comma));
                i += 1;
            }
            '.' => {
                out.push(Token::Symbol(Symbol::Dot));
                i += 1;
            }
            ';' => {
                out.push(Token::Symbol(Symbol::Semicolon));
                i += 1;
            }
            '*' => {
                out.push(Token::Symbol(Symbol::Star));
                i += 1;
            }
            '+' => {
                out.push(Token::Symbol(Symbol::Plus));
                i += 1;
            }
            '-' => {
                out.push(Token::Symbol(Symbol::Minus));
                i += 1;
            }
            '/' => {
                out.push(Token::Symbol(Symbol::Slash));
                i += 1;
            }
            '=' => {
                out.push(Token::Symbol(Symbol::Eq));
                i += 1;
            }
            '?' => {
                out.push(Token::Symbol(Symbol::Question));
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::Symbol(Symbol::Ne));
                i += 2;
            }
            '<' => {
                match bytes.get(i + 1) {
                    Some(b'=') => {
                        out.push(Token::Symbol(Symbol::Le));
                        i += 2;
                    }
                    Some(b'>') => {
                        out.push(Token::Symbol(Symbol::Ne));
                        i += 2;
                    }
                    _ => {
                        out.push(Token::Symbol(Symbol::Lt));
                        i += 1;
                    }
                };
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Symbol(Symbol::Ge));
                    i += 2;
                } else {
                    out.push(Token::Symbol(Symbol::Gt));
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = read_quoted(input, i, '\'')?;
                out.push(Token::StringLit(s));
                i = next;
            }
            '"' => {
                let (s, next) = read_quoted(input, i, '"')?;
                out.push(Token::QuotedIdent(s));
                i = next;
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    // Don't swallow a dot that isn't part of a decimal.
                    if bytes[i] == b'.'
                        && !bytes
                            .get(i + 1)
                            .is_some_and(|b| (*b as char).is_ascii_digit())
                    {
                        break;
                    }
                    i += 1;
                }
                out.push(Token::Number(input[start..i].to_string()));
            }
            c if c.is_alphabetic() || c == '_' || c == '#' => {
                let word = |ch: &char| ch.is_alphanumeric() || *ch == '_' || *ch == '#';
                i += input[i..]
                    .chars()
                    .take_while(word)
                    .map(char::len_utf8)
                    .sum::<usize>();
                out.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(HanaError::Parse(format!(
                    "unexpected character at byte {i}: '{other}'"
                )));
            }
        }
        // An arm that pushed a token pushed one, and it began at `start`.
        if out.len() > offsets.len() {
            offsets.push(start as u32);
        }
    }
    Ok((out, offsets))
}

/// Read a quoted run starting at `start` (which holds the quote char);
/// doubled quotes escape. Returns the content and the index after the
/// closing quote.
fn read_quoted(input: &str, start: usize, quote: char) -> Result<(String, usize)> {
    let bytes = input.as_bytes();
    let q = quote as u8;
    let mut s = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == q {
            if bytes.get(i + 1) == Some(&q) {
                s.push(quote);
                i += 2;
            } else {
                return Ok((s, i + 1));
            }
        } else {
            // Multi-byte characters are copied as-is.
            let ch_len = utf8_len(bytes[i]);
            s.push_str(&input[i..i + ch_len]);
            i += ch_len;
        }
    }
    Err(HanaError::Parse(format!(
        "unterminated {quote}-quoted literal at byte {start}: '{}'",
        &input[start..]
    )))
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_numbers_symbols() {
        let toks = tokenize("SELECT a, b*2 FROM t WHERE x >= 1.5 AND y <> 'it''s'").unwrap();
        assert!(toks[0].is_kw("select"));
        assert!(toks.contains(&Token::Symbol(Symbol::Star)));
        assert!(toks.contains(&Token::Number("1.5".into())));
        assert!(toks.contains(&Token::Symbol(Symbol::Ge)));
        assert!(toks.contains(&Token::Symbol(Symbol::Ne)));
        assert!(toks.contains(&Token::StringLit("it's".into())));
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize(r#"SELECT "Weird Col" FROM "HIVE1"."dflo"."product""#).unwrap();
        assert_eq!(toks[1], Token::QuotedIdent("Weird Col".into()));
        assert!(toks.contains(&Token::QuotedIdent("HIVE1".into())));
        assert!(toks.contains(&Token::Symbol(Symbol::Dot)));
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT 1 -- the answer\n, 2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Number("1".into()),
                Token::Symbol(Symbol::Comma),
                Token::Number("2".into()),
            ]
        );
    }

    #[test]
    fn errors() {
        assert!(tokenize("SELECT 'open").is_err());
        assert!(tokenize("a @ b").is_err());
    }

    #[test]
    fn parameter_placeholders() {
        let toks = tokenize("SELECT v FROM t WHERE k = ? AND x > ?").unwrap();
        assert_eq!(
            toks.iter()
                .filter(|t| **t == Token::Symbol(Symbol::Question))
                .count(),
            2
        );
    }

    #[test]
    fn decimal_vs_qualified_name() {
        let toks = tokenize("t.c 1.5 2.").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t".into()),
                Token::Symbol(Symbol::Dot),
                Token::Ident("c".into()),
                Token::Number("1.5".into()),
                Token::Number("2".into()),
                Token::Symbol(Symbol::Dot),
            ]
        );
    }

    #[test]
    fn temp_table_names() {
        let toks = tokenize("SELECT * FROM #tmp_1").unwrap();
        assert!(toks.contains(&Token::Ident("#tmp_1".into())));
    }

    #[test]
    fn offsets_are_the_byte_each_token_starts_at() {
        let sql = "SELECT  v -- why\n FROM t WHERE s = 'it''s' AND k>=?";
        let (toks, offsets) = tokenize_with_offsets(sql).unwrap();
        assert_eq!(toks.len(), offsets.len());
        for (tok, &at) in toks.iter().zip(&offsets) {
            let rest = &sql[at as usize..];
            match tok {
                Token::Ident(s) | Token::Number(s) => assert!(rest.starts_with(s.as_str())),
                Token::StringLit(_) => assert!(rest.starts_with('\'')),
                Token::QuotedIdent(_) => assert!(rest.starts_with('"')),
                Token::Symbol(_) => assert!(!rest.starts_with(char::is_whitespace)),
            }
        }
        assert_eq!(offsets[0], 0);
        assert_eq!(&sql[offsets[2] as usize..][..4], "FROM");
        assert_eq!(&sql[*offsets.last().unwrap() as usize..], "?");
    }

    #[test]
    fn lexical_errors_name_the_byte_and_the_text() {
        let err = |sql: &str| tokenize(sql).unwrap_err().to_string();
        assert!(
            err("a @ b").contains("unexpected character at byte 2: '@'"),
            "{}",
            err("a @ b")
        );
        assert!(
            err("SELECT 'open").contains("at byte 7: ''open'"),
            "{}",
            err("SELECT 'open")
        );
        // Characters, not bytes: a multi-byte one is named whole, and
        // offsets after it are still byte offsets.
        assert!(
            err("SELECT é, a € b").contains("unexpected character at byte 13: '€'"),
            "{}",
            err("SELECT é, a € b")
        );
    }

    #[test]
    fn identifiers_may_be_non_ascii() {
        let (toks, offsets) = tokenize_with_offsets("SELECT größe\u{a0}FROM tÿ").unwrap();
        assert_eq!(toks[1], Token::Ident("größe".into()));
        assert_eq!(toks[3], Token::Ident("tÿ".into()));
        assert_eq!(offsets, vec![0, 7, 16, 21]);
    }
}
