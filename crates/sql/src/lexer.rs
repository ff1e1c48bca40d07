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
    let mut lexer = Lexer::new(input);
    let mut out = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        out.push(match tok {
            RawToken::Ident(s) => Token::Ident(s.to_ascii_lowercase()),
            RawToken::Int(v) => Token::Int(v),
            RawToken::Float(v) => Token::Float(v),
            RawToken::Str(s) => Token::Str(s),
            RawToken::Symbol(s) => Token::Symbol(s),
        });
    }
    out.push(Token::Eof);
    Ok(out)
}

/// A token as the text spells it: an identifier is borrowed from the input
/// in its written case, so a caller that only compares or copies it (the
/// plan-cache canonicalizer) allocates nothing for it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RawToken<'a> {
    /// ASCII letters, digits and `_`; [`Token::Ident`] is its lowercase.
    Ident(&'a str),
    Int(i64),
    Float(f64),
    Str(String),
    Symbol(Sym),
}

/// A one-token-at-a-time scan of SQL text; [`lex`] collects it.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    i: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Self { input, i: 0 }
    }

    /// The next token, or `None` at the end of the text.
    pub(crate) fn next_token(&mut self) -> Result<Option<RawToken<'a>>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let i = &mut self.i;
        while *i < bytes.len() {
            let c = bytes[*i] as char;
            let sym = |s: Sym, width: usize, i: &mut usize| {
                *i += width;
                Ok(Some(RawToken::Symbol(s)))
            };
            let next_is = |b: u8| *i + 1 < bytes.len() && bytes[*i + 1] == b;
            return match c {
                ' ' | '\t' | '\r' | '\n' => {
                    *i += 1;
                    continue;
                }
                '-' if next_is(b'-') => {
                    // Line comment.
                    while *i < bytes.len() && bytes[*i] != b'\n' {
                        *i += 1;
                    }
                    continue;
                }
                '(' => sym(Sym::LParen, 1, i),
                ')' => sym(Sym::RParen, 1, i),
                ',' => sym(Sym::Comma, 1, i),
                '.' => sym(Sym::Dot, 1, i),
                ';' => sym(Sym::Semicolon, 1, i),
                '*' => sym(Sym::Star, 1, i),
                '+' => sym(Sym::Plus, 1, i),
                '-' => sym(Sym::Minus, 1, i),
                '/' => sym(Sym::Slash, 1, i),
                '%' => sym(Sym::Percent, 1, i),
                '=' => sym(Sym::Eq, 1, i),
                '?' => sym(Sym::Question, 1, i),
                '!' if next_is(b'=') => sym(Sym::Ne, 2, i),
                '<' if next_is(b'=') => sym(Sym::Le, 2, i),
                '<' if next_is(b'>') => sym(Sym::Ne, 2, i),
                '<' => sym(Sym::Lt, 1, i),
                '>' if next_is(b'=') => sym(Sym::Ge, 2, i),
                '>' => sym(Sym::Gt, 1, i),
                '\'' => {
                    // String literal with '' escaping.
                    let mut s = String::new();
                    *i += 1;
                    loop {
                        if *i >= bytes.len() {
                            return Err(HdmError::Parse("unterminated string literal".into()));
                        }
                        if bytes[*i] == b'\'' {
                            if *i + 1 < bytes.len() && bytes[*i + 1] == b'\'' {
                                s.push('\'');
                                *i += 2;
                            } else {
                                *i += 1;
                                break;
                            }
                        } else {
                            s.push(bytes[*i] as char);
                            *i += 1;
                        }
                    }
                    Ok(Some(RawToken::Str(s)))
                }
                '0'..='9' => {
                    let start = *i;
                    let mut is_float = false;
                    while *i < bytes.len()
                        && (bytes[*i].is_ascii_digit()
                            || (bytes[*i] == b'.'
                                && *i + 1 < bytes.len()
                                && bytes[*i + 1].is_ascii_digit()))
                    {
                        if bytes[*i] == b'.' {
                            is_float = true;
                        }
                        *i += 1;
                    }
                    let text = &input[start..*i];
                    if is_float {
                        let v: f64 = text
                            .parse()
                            .map_err(|_| HdmError::Parse(format!("bad float {text}")))?;
                        Ok(Some(RawToken::Float(v)))
                    } else {
                        let v: i64 = text
                            .parse()
                            .map_err(|_| HdmError::Parse(format!("bad integer {text}")))?;
                        Ok(Some(RawToken::Int(v)))
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = *i;
                    while *i < bytes.len()
                        && (bytes[*i].is_ascii_alphanumeric() || bytes[*i] == b'_')
                    {
                        *i += 1;
                    }
                    Ok(Some(RawToken::Ident(&input[start..*i])))
                }
                other => Err(HdmError::Parse(format!(
                    "unexpected character {other:?} at byte {}",
                    *i
                ))),
            };
        }
        Ok(None)
    }
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
