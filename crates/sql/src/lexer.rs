//! SQL tokenizer.

use crate::error::SqlError;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Bare identifier or keyword (uppercased comparison happens in the
    /// parser; the original spelling is preserved for identifiers).
    Ident(String),
    /// Single-quoted string literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    LParen,
    RParen,
    Comma,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Dot,
    Semicolon,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Comma => f.write_str(","),
            Token::Star => f.write_str("*"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Eq => f.write_str("="),
            Token::NotEq => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::LtEq => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::GtEq => f.write_str(">="),
            Token::Dot => f.write_str("."),
            Token::Semicolon => f.write_str(";"),
        }
    }
}

/// Tokenize a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
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
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                // line comment `--`
                if bytes.get(i + 1) == Some(&b'-') {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    return Err(SqlError::Lex(format!("unexpected character `!` at {i}")));
                }
            }
            '\'' => {
                let (text, next) = quoted(input, i, '\'')
                    .ok_or_else(|| SqlError::Lex("unterminated string".to_string()))?;
                tokens.push(Token::Str(text));
                i = next;
            }
            '"' => {
                let (text, next) = quoted(input, i, '"')
                    .ok_or_else(|| SqlError::Lex("unterminated identifier".to_string()))?;
                tokens.push(Token::Ident(text));
                i = next;
            }
            '0'..='9' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    if bytes[i] == b'.' {
                        // lookahead: `1.` followed by non-digit is Int + Dot
                        if !bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                            break;
                        }
                        is_float = true;
                    }
                    i += 1;
                }
                // scientific notation
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if matches!(bytes.get(j), Some(b'+') | Some(b'-')) {
                        j += 1;
                    }
                    if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| SqlError::Lex(format!("bad number `{text}`")))?;
                    tokens.push(Token::Float(v));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| SqlError::Lex(format!("bad number `{text}`")))?;
                    tokens.push(Token::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            _ => {
                let other = input[i..].chars().next().expect("i is a char boundary");
                return Err(SqlError::Lex(format!(
                    "unexpected character `{other}` at {i}"
                )));
            }
        }
    }
    Ok(tokens)
}

/// The text of the `quote`-delimited token opening at byte `open`, with a
/// doubled quote standing for one, and the byte index just past the
/// closing quote; `None` when the token is unterminated. The quotes are
/// ASCII, so the text is sliced on character boundaries and non-ASCII
/// text passes through unchanged.
fn quoted(input: &str, open: usize, quote: char) -> Option<(String, usize)> {
    let mut text = String::new();
    let mut i = open + 1;
    loop {
        let end = i + input[i..].find(quote)?;
        text.push_str(&input[i..end]);
        if input[end + 1..].starts_with(quote) {
            text.push(quote);
            i = end + 2;
        } else {
            return Some((text, end + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let t = tokenize("SELECT * FROM INV(rating BY User);").unwrap();
        assert_eq!(t[0], Token::Ident("SELECT".into()));
        assert_eq!(t[1], Token::Star);
        assert_eq!(t[3], Token::Ident("INV".into()));
        assert_eq!(t[4], Token::LParen);
        assert_eq!(t.last(), Some(&Token::Semicolon));
    }

    #[test]
    fn numbers() {
        let t = tokenize("1 2.5 1e3 2.5E-2 7.").unwrap();
        assert_eq!(t[0], Token::Int(1));
        assert_eq!(t[1], Token::Float(2.5));
        assert_eq!(t[2], Token::Float(1000.0));
        assert_eq!(t[3], Token::Float(0.025));
        assert_eq!(t[4], Token::Int(7));
        assert_eq!(t[5], Token::Dot);
    }

    #[test]
    fn strings_and_escapes() {
        let t = tokenize("'CA' 'Lee''s'").unwrap();
        assert_eq!(t[0], Token::Str("CA".into()));
        assert_eq!(t[1], Token::Str("Lee's".into()));
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn operators() {
        let t = tokenize("a <= b <> c >= d != e < f > g").unwrap();
        assert!(t.contains(&Token::LtEq));
        assert_eq!(t.iter().filter(|x| **x == Token::NotEq).count(), 2);
        assert!(t.contains(&Token::GtEq));
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("SELECT 1 -- comment\n, 2").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("SELECT".into()),
                Token::Int(1),
                Token::Comma,
                Token::Int(2)
            ]
        );
    }

    #[test]
    fn quoted_identifiers() {
        let t = tokenize("\"weird name\"").unwrap();
        assert_eq!(t[0], Token::Ident("weird name".into()));
    }

    #[test]
    fn bad_chars_rejected() {
        assert!(tokenize("SELECT #").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn non_ascii_text_survives_quotes_and_errors() {
        let t = tokenize("'Montréal' 'Zürich''s' \"città\" \"a\"\"b\"").unwrap();
        assert_eq!(t[0], Token::Str("Montréal".into()));
        assert_eq!(t[1], Token::Str("Zürich's".into()));
        assert_eq!(t[2], Token::Ident("città".into()));
        assert_eq!(t[3], Token::Ident("a\"b".into()));
        assert!(tokenize("'naïve").is_err());
        assert!(tokenize("\"naïve").is_err());
        let err = tokenize("SELECT é").unwrap_err().to_string();
        assert!(err.contains("unexpected character `é` at 7"), "{err}");
    }
}
