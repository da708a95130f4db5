//! Tokenizer for the Tabula SQL dialect.

use crate::{Result, SqlError};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (case preserved; keyword matching is
    /// case-insensitive at the parser level). Every dialect keyword —
    /// including multi-word forms like `EXPLAIN ANALYZE` and `GROUP BY` —
    /// lexes as a plain sequence of `Ident`s; the parser decides meaning.
    Ident(String),
    /// Numeric literal spelled as digits alone that fits `i64`.
    Int(i64),
    /// Any other numeric literal: a `.`, an exponent, or too many digits
    /// for `i64`.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `*`.
    Star,
    /// `=`.
    Eq,
    /// `<>` or `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `/`.
    Slash,
    /// `;`.
    Semicolon,
    /// End of input.
    Eof,
}

impl Token {
    /// Whether this token is the identifier `word` (case-insensitive).
    pub fn is_kw(&self, word: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(word))
    }
}

/// Tokenize `input`.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::Ne);
                i += 2;
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    tokens.push(Token::Le);
                    i += 2;
                }
                Some(b'>') => {
                    tokens.push(Token::Ne);
                    i += 2;
                }
                _ => {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                        None => {
                            return Err(SqlError::Lex {
                                message: "unterminated string literal".into(),
                                position: i,
                            })
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                // A number is typed by its spelling: the scan starts at a
                // digit or `.`, so `i64` parses exactly the digit strings
                // that fit it.
                let text = &input[start..i];
                let token =
                    text.parse().map(Token::Int).or_else(|_| text.parse().map(Token::Float));
                tokens.push(token.map_err(|_| SqlError::Lex {
                    message: format!("invalid number literal {text:?}"),
                    position: start,
                })?);
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '[' => {
                // Identifiers; `[...]` brackets allow the paper's interval
                // labels like `[0,5)` when quoted as ['[0,5)'] — plain
                // identifiers accept letters, digits, `_`.
                let start = i;
                i += 1;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_owned()));
            }
            other => {
                return Err(SqlError::Lex {
                    message: format!("unexpected character {other:?}"),
                    position: i,
                })
            }
        }
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_the_papers_initialization_query() {
        let sql = "CREATE TABLE SamplingCube AS \
                   SELECT D, C, M, SAMPLING(*, 0.1) AS sample \
                   FROM nyctaxi GROUPBY CUBE(D, C, M) \
                   HAVING loss(pickup_point, Sam_global) > 0.1";
        let toks = tokenize(sql).unwrap();
        assert!(toks.iter().any(|t| t.is_kw("SAMPLING")));
        assert!(toks.contains(&Token::Float(0.1)));
        assert!(toks.iter().any(|t| t.is_kw("Sam_global")));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn operators_and_comparisons() {
        let toks = tokenize("a >= 1 AND b <> 2 OR c <= 3 / 4 + -5").unwrap();
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Ne));
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::Slash));
        assert!(toks.contains(&Token::Plus));
        assert!(toks.contains(&Token::Minus));
    }

    #[test]
    fn string_literals_with_escapes() {
        let toks = tokenize("WHERE payment = 'driver''s cash'").unwrap();
        assert!(toks.contains(&Token::Str("driver's cash".into())));
    }

    #[test]
    fn line_comments_are_skipped() {
        let toks = tokenize("SELECT -- this is a comment\n sample").unwrap();
        assert_eq!(toks.len(), 3); // SELECT, sample, EOF
    }

    #[test]
    fn numbers_are_typed_by_their_spelling() {
        let toks =
            tokenize("0.004 1e-3 2.5E+2 2.0 2 9007199254740993 9223372036854775808").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Float(0.004),
                Token::Float(0.001),
                Token::Float(250.0),
                Token::Float(2.0),
                Token::Int(2),
                Token::Int(9_007_199_254_740_993),
                // One past `i64::MAX`: digits, but no `i64`.
                Token::Float(9_223_372_036_854_775_808.0),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn errors_carry_positions() {
        match tokenize("SELECT @") {
            Err(SqlError::Lex { position, .. }) => assert_eq!(position, 7),
            other => panic!("expected lex error, got {other:?}"),
        }
        assert!(matches!(tokenize("'unterminated"), Err(SqlError::Lex { .. })));
    }
}
