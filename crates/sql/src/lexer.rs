//! SQL tokenizer.

use hdm_common::{HdmError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier, lowercased. Qualified names are produced by
    /// the parser from `Ident . Ident` sequences.
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// Punctuation / operators.
    Symbol(Sym),
    Eof,
}

/// Symbol tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `?` — a positional statement parameter placeholder.
    Question,
}

/// Tokenize SQL text.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::Symbol(Sym::LParen));
                i += 1;
            }
            ')' => {
                out.push(Token::Symbol(Sym::RParen));
                i += 1;
            }
            ',' => {
                out.push(Token::Symbol(Sym::Comma));
                i += 1;
            }
            '.' => {
                out.push(Token::Symbol(Sym::Dot));
                i += 1;
            }
            ';' => {
                out.push(Token::Symbol(Sym::Semicolon));
                i += 1;
            }
            '*' => {
                out.push(Token::Symbol(Sym::Star));
                i += 1;
            }
            '+' => {
                out.push(Token::Symbol(Sym::Plus));
                i += 1;
            }
            '-' => {
                out.push(Token::Symbol(Sym::Minus));
                i += 1;
            }
            '/' => {
                out.push(Token::Symbol(Sym::Slash));
                i += 1;
            }
            '%' => {
                out.push(Token::Symbol(Sym::Percent));
                i += 1;
            }
            '=' => {
                out.push(Token::Symbol(Sym::Eq));
                i += 1;
            }
            '?' => {
                out.push(Token::Symbol(Sym::Question));
                i += 1;
            }
            '!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                out.push(Token::Symbol(Sym::Ne));
                i += 2;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Symbol(Sym::Le));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Token::Symbol(Sym::Ne));
                    i += 2;
                } else {
                    out.push(Token::Symbol(Sym::Lt));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Symbol(Sym::Ge));
                    i += 2;
                } else {
                    out.push(Token::Symbol(Sym::Gt));
                    i += 1;
                }
            }
            '\'' => {
                // String literal with '' escaping.
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(HdmError::Parse("unterminated string literal".into()));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(bytes[i] as char);
                        i += 1;
                    }
                }
                out.push(Token::Str(s));
            }
            '0'..='9' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || (bytes[i] == b'.'
                            && i + 1 < bytes.len()
                            && bytes[i + 1].is_ascii_digit()))
                {
                    if bytes[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| HdmError::Parse(format!("bad float {text}")))?;
                    out.push(Token::Float(v));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| HdmError::Parse(format!("bad integer {text}")))?;
                    out.push(Token::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_ascii_lowercase()));
            }
            other => {
                return Err(HdmError::Parse(format!(
                    "unexpected character {other:?} at byte {i}"
                )))
            }
        }
    }
    out.push(Token::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_table1_query() {
        let toks = lex("select * from OLAP.t1, OLAP.t2 \
             where OLAP.t1.a1=OLAP.t2.a2 and OLAP.t1.b1 > 10")
        .unwrap();
        assert!(toks.contains(&Token::Ident("olap".into())));
        assert!(toks.contains(&Token::Symbol(Sym::Gt)));
        assert!(toks.contains(&Token::Int(10)));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn keywords_lowercased() {
        let toks = lex("SELECT FROM WhErE").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("select".into()),
                Token::Ident("from".into()),
                Token::Ident("where".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        let toks = lex("'it''s'").unwrap();
        assert_eq!(toks[0], Token::Str("it's".into()));
    }

    #[test]
    fn numbers_int_and_float() {
        let toks = lex("42 3.5 7").unwrap();
        assert_eq!(toks[0], Token::Int(42));
        assert_eq!(toks[1], Token::Float(3.5));
        assert_eq!(toks[2], Token::Int(7));
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("a <= b >= c <> d != e < f > g").unwrap();
        let syms: Vec<Sym> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(
            syms,
            vec![Sym::Le, Sym::Ge, Sym::Ne, Sym::Ne, Sym::Lt, Sym::Gt]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("select -- all the things\n 1").unwrap();
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1], Token::Int(1));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn bad_character_errors() {
        assert!(lex("select @").is_err());
    }
}
