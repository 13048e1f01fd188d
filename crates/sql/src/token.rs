//! Token definitions produced by the [`crate::lexer`].

use std::fmt;

/// A lexical token in a SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A keyword or identifier (unquoted). Keyword recognition happens in the parser,
    /// case-insensitively, so `Word("select")` and `Word("SELECT")` are equivalent.
    Word(String),
    /// A quoted identifier, e.g. `` `l_returnflag` `` or `"l_returnflag"`.
    QuotedIdent(String),
    /// A single-quoted string literal with escapes already resolved.
    StringLit(String),
    /// An integer literal.
    Number(String),
    /// Punctuation and operators.
    Comma,
    LParen,
    RParen,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Neq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Semicolon,
    /// `||` string concatenation operator.
    Concat,
    /// End of input marker.
    Eof,
}

impl Token {
    /// True when the token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(w) => write!(f, "{w}"),
            Token::QuotedIdent(w) => write!(f, "`{w}`"),
            Token::StringLit(s) => write!(f, "'{s}'"),
            Token::Number(n) => write!(f, "{n}"),
            Token::Comma => write!(f, ","),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Eq => write!(f, "="),
            Token::Neq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
            Token::Semicolon => write!(f, ";"),
            Token::Concat => write!(f, "||"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token together with the byte offset at which it starts, used for error messages.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken {
    pub token: Token,
    pub offset: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_matching_is_case_insensitive() {
        let t = Token::Word("SeLeCt".to_string());
        assert!(t.is_keyword("select"));
        assert!(t.is_keyword("SELECT"));
        assert!(!t.is_keyword("from"));
    }

    #[test]
    fn display_reconstructs_symbols() {
        assert_eq!(Token::LtEq.to_string(), "<=");
        assert_eq!(Token::Concat.to_string(), "||");
        assert_eq!(Token::StringLit("a'b".into()).to_string(), "'a'b'");
    }
}
