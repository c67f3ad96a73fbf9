//! Lexer for the concrete rule syntax.
//!
//! The syntax is ASCII-friendly but also accepts the paper's Unicode
//! notation: `←` for `:-`, `¬` for `!`, `∀` for `forall`, `⊥` for
//! `bottom`, and `≠` for `!=`.
//!
//! Comments run from `%` or `//` or `#` to end of line.
//!
//! [`Lexer`] is a pull tokenizer: it lexes one token per call, so the
//! fact loader holds a single token of lookahead however long the file
//! is. [`lex`] collects it into a token list for the rule parser.

use std::fmt;

/// A source position (1-based line and column), for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// An identifier: relation name or variable.
    Ident(String),
    /// A quoted symbolic constant: `'paris'` or `"paris"`.
    SymConst(String),
    /// An integer constant.
    IntConst(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:-` or `←`
    Arrow,
    /// `!` or `¬` or the keyword `not`
    Bang,
    /// `=`
    Eq,
    /// `!=` or `≠` or `<>`
    Neq,
    /// `:` (separates a `forall` prefix from the body)
    Colon,
    /// keyword `forall` or `∀`
    Forall,
    /// keyword `bottom` or `⊥` or `false`
    Bottom,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::SymConst(s) => write!(f, "constant '{s}'"),
            TokenKind::IntConst(n) => write!(f, "integer {n}"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Arrow => write!(f, "`:-`"),
            TokenKind::Bang => write!(f, "`!`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Neq => write!(f, "`!=`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Forall => write!(f, "`forall`"),
            TokenKind::Bottom => write!(f, "`bottom`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it starts.
    pub pos: Pos,
}

/// A lexical error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Where the problem was noticed.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            chars: src.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat(&mut self, expected: char) -> bool {
        if self.peek() == Some(expected) {
            self.bump();
            true
        } else {
            false
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-' || c == '\''
}

/// A pull tokenizer over `src`: each [`Iterator::next`] lexes one more
/// token, so a caller that consumes tokens as it goes holds one at a
/// time. The sequence ends with one [`TokenKind::Eof`] token, or stops
/// after the first [`LexError`].
pub struct Lexer<'a> {
    cur: Cursor<'a>,
    done: bool,
}

impl<'a> Lexer<'a> {
    /// A tokenizer positioned at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            cur: Cursor::new(src),
            done: false,
        }
    }

    /// Skips whitespace and comments.
    fn skip_trivia(&mut self) -> Result<(), LexError> {
        let cur = &mut self.cur;
        loop {
            match cur.peek() {
                Some(c) if c.is_whitespace() => {
                    cur.bump();
                }
                Some('%') | Some('#') => {
                    while let Some(c) = cur.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                Some('/') => {
                    // Only a comment if followed by another '/'.
                    let pos = cur.pos();
                    cur.bump();
                    if cur.eat('/') {
                        while let Some(c) = cur.bump() {
                            if c == '\n' {
                                break;
                            }
                        }
                    } else {
                        return Err(LexError {
                            message: "unexpected `/` (did you mean `//`?)".into(),
                            pos,
                        });
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes the next token.
    fn token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let cur = &mut self.cur;
        let pos = cur.pos();
        let Some(c) = cur.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                pos,
            });
        };
        let kind = match c {
            '(' => {
                cur.bump();
                TokenKind::LParen
            }
            ')' => {
                cur.bump();
                TokenKind::RParen
            }
            ',' => {
                cur.bump();
                TokenKind::Comma
            }
            '.' => {
                cur.bump();
                TokenKind::Dot
            }
            '=' => {
                cur.bump();
                TokenKind::Eq
            }
            '≠' => {
                cur.bump();
                TokenKind::Neq
            }
            '¬' => {
                cur.bump();
                TokenKind::Bang
            }
            '←' => {
                cur.bump();
                TokenKind::Arrow
            }
            '∀' => {
                cur.bump();
                TokenKind::Forall
            }
            '⊥' => {
                cur.bump();
                TokenKind::Bottom
            }
            ':' => {
                cur.bump();
                if cur.eat('-') {
                    TokenKind::Arrow
                } else {
                    TokenKind::Colon
                }
            }
            '!' => {
                cur.bump();
                if cur.eat('=') {
                    TokenKind::Neq
                } else {
                    TokenKind::Bang
                }
            }
            '<' => {
                cur.bump();
                if cur.eat('>') {
                    TokenKind::Neq
                } else {
                    return Err(LexError {
                        message: "unexpected `<` (did you mean `<>`?)".into(),
                        pos,
                    });
                }
            }
            '\'' | '"' => {
                let quote = c;
                cur.bump();
                let mut s = String::new();
                loop {
                    match cur.bump() {
                        Some(c) if c == quote => break,
                        Some('\n') | None => {
                            return Err(LexError {
                                message: "unterminated quoted constant".into(),
                                pos,
                            })
                        }
                        Some(c) => s.push(c),
                    }
                }
                TokenKind::SymConst(s)
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(cur.bump().unwrap());
                if c == '-' && !cur.peek().is_some_and(|d| d.is_ascii_digit()) {
                    return Err(LexError {
                        message: "expected digits after `-`".into(),
                        pos,
                    });
                }
                while let Some(d) = cur.peek() {
                    if d.is_ascii_digit() {
                        s.push(cur.bump().unwrap());
                    } else {
                        break;
                    }
                }
                let n: i64 = s.parse().map_err(|_| LexError {
                    message: format!("integer out of range: {s}"),
                    pos,
                })?;
                TokenKind::IntConst(n)
            }
            c if is_ident_start(c) => {
                let mut s = String::new();
                while let Some(d) = cur.peek() {
                    if is_ident_continue(d) {
                        s.push(cur.bump().unwrap());
                    } else {
                        break;
                    }
                }
                match s.as_str() {
                    "not" => TokenKind::Bang,
                    "forall" => TokenKind::Forall,
                    "bottom" | "false" => TokenKind::Bottom,
                    _ => TokenKind::Ident(s),
                }
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{other}`"),
                    pos,
                })
            }
        };
        Ok(Token { kind, pos })
    }
}

impl Iterator for Lexer<'_> {
    type Item = Result<Token, LexError>;

    fn next(&mut self) -> Option<Result<Token, LexError>> {
        if self.done {
            return None;
        }
        let token = self.token();
        self.done = !matches!(&token, Ok(t) if t.kind != TokenKind::Eof);
        Some(token)
    }
}

/// Tokenizes `src` in one go. The result always ends with an
/// [`TokenKind::Eof`] token.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(src).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_rule() {
        use TokenKind::*;
        assert_eq!(
            kinds("T(x,y) :- G(x,y)."),
            vec![
                Ident("T".into()),
                LParen,
                Ident("x".into()),
                Comma,
                Ident("y".into()),
                RParen,
                Arrow,
                Ident("G".into()),
                LParen,
                Ident("x".into()),
                Comma,
                Ident("y".into()),
                RParen,
                Dot,
                Eof
            ]
        );
    }

    #[test]
    fn unicode_aliases() {
        use TokenKind::*;
        assert_eq!(
            kinds("win(x) ← moves(x,y), ¬win(y)."),
            kinds("win(x) :- moves(x,y), !win(y).")
        );
        assert_eq!(kinds("⊥ :- A."), kinds("bottom :- A."));
        assert_eq!(
            kinds("x ≠ y"),
            vec![Ident("x".into()), Neq, Ident("y".into()), Eof]
        );
    }

    #[test]
    fn comments_ignored() {
        assert_eq!(kinds("% hello\nA. // trailing\n# more\nB."), kinds("A. B."));
    }

    #[test]
    fn constants() {
        use TokenKind::*;
        assert_eq!(
            kinds("R('a', \"b\", 42, -7)"),
            vec![
                Ident("R".into()),
                LParen,
                SymConst("a".into()),
                Comma,
                SymConst("b".into()),
                Comma,
                IntConst(42),
                Comma,
                IntConst(-7),
                RParen,
                Eof
            ]
        );
    }

    #[test]
    fn not_keyword_is_negation() {
        assert_eq!(kinds("not A"), kinds("!A"));
    }

    #[test]
    fn neq_spellings_agree() {
        assert_eq!(kinds("x != y"), kinds("x <> y"));
    }

    #[test]
    fn positions_reported() {
        let toks = lex("A.\n  B.").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[2].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("$").is_err());
        assert!(lex("- x").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn forall_and_colon() {
        use TokenKind::*;
        assert_eq!(
            kinds("ans(x) :- forall y : P(x)."),
            vec![
                Ident("ans".into()),
                LParen,
                Ident("x".into()),
                RParen,
                Arrow,
                Forall,
                Ident("y".into()),
                Colon,
                Ident("P".into()),
                LParen,
                Ident("x".into()),
                RParen,
                Dot,
                Eof
            ]
        );
    }
}
