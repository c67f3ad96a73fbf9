//! Lexer for the concrete rule syntax.
//!
//! The syntax is ASCII-friendly but also accepts the paper's Unicode
//! notation: `←` for `:-`, `¬` for `!`, `∀` for `forall`, `⊥` for
//! `bottom`, and `≠` for `!=`.
//!
//! Comments run from `%` or `//` or `#` to end of line.
//!
//! [`Lexer`] is a pull tokenizer over a byte cursor: it lexes one token
//! per call, and its tokens borrow identifiers and quoted constants from
//! the source, so lexing allocates nothing. Integers are accumulated
//! from their digits in place. A `char` is decoded only at a byte of
//! 0x80 or above — the Unicode operators above, Unicode letters and
//! whitespace — while columns still count characters. [`lex`] collects
//! the tokens into a list for the rule parser.

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

/// Token kinds. Identifiers and quoted constants borrow from the source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind<'a> {
    /// An identifier: relation name or variable.
    Ident(&'a str),
    /// A quoted symbolic constant: `'paris'` or `"paris"`, without its
    /// quotes.
    SymConst(&'a str),
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

impl fmt::Display for TokenKind<'_> {
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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
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

/// A place in the source a [`Lexer`] can be set back to: a byte offset
/// and the position it stands for.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Mark {
    at: usize,
    pos: Pos,
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
    src: &'a str,
    /// Byte offset of the next unread character.
    at: usize,
    line: u32,
    col: u32,
    /// Where the last token returned was lexed from.
    last: Mark,
    done: bool,
}

impl<'a> Lexer<'a> {
    /// A tokenizer positioned at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            at: 0,
            line: 1,
            col: 1,
            last: Mark {
                at: 0,
                pos: Pos { line: 1, col: 1 },
            },
            done: false,
        }
    }

    /// Where the lexer stands: before the trivia and token the next call
    /// reads.
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            at: self.at,
            pos: self.pos(),
        }
    }

    /// Sets the lexer back to `mark`, taken from this lexer, so the
    /// tokens from there on are lexed again.
    pub(crate) fn reset(&mut self, mark: Mark) {
        self.at = mark.at;
        self.line = mark.pos.line;
        self.col = mark.pos.col;
        self.done = false;
    }

    /// Sets the lexer back to before the last token it returned, so that
    /// token is lexed again.
    pub(crate) fn unread(&mut self) {
        self.reset(self.last);
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    /// The character at the cursor, decoded; for bytes of 0x80 and above.
    fn char_at(&self) -> char {
        self.src[self.at..]
            .chars()
            .next()
            .expect("cursor inside source")
    }

    /// Steps over one ASCII byte other than a newline.
    fn bump_ascii(&mut self) {
        self.at += 1;
        self.col += 1;
    }

    /// Steps over the non-ASCII character `c`, which starts at the cursor.
    fn bump_char(&mut self, c: char) {
        self.at += c.len_utf8();
        self.col += 1;
    }

    /// Moves the cursor to byte offset `end` (a char boundary at or after
    /// it), counting the lines and characters it passes.
    fn advance_to(&mut self, end: usize) {
        for &b in &self.src.as_bytes()[self.at..end] {
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if b & 0xC0 != 0x80 {
                self.col += 1;
            }
        }
        self.at = end;
    }

    /// Skips to just past the next newline, or to the end of input.
    fn skip_line(&mut self) {
        let rest = &self.src.as_bytes()[self.at..];
        let end = rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.src.len(), |i| self.at + i + 1);
        self.advance_to(end);
    }

    /// Skips whitespace and comments.
    fn skip_trivia(&mut self) -> Result<(), LexError> {
        while let Some(b) = self.byte() {
            match b {
                b'\n' => {
                    self.at += 1;
                    self.line += 1;
                    self.col = 1;
                }
                b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => self.bump_ascii(),
                b'%' | b'#' => self.skip_line(),
                b'/' => {
                    // Only a comment if followed by another '/'.
                    let pos = self.pos();
                    self.bump_ascii();
                    if self.byte() != Some(b'/') {
                        return Err(LexError {
                            message: "unexpected `/` (did you mean `//`?)".into(),
                            pos,
                        });
                    }
                    self.skip_line();
                }
                0x80.. => {
                    let c = self.char_at();
                    if !c.is_whitespace() {
                        return Ok(());
                    }
                    self.bump_char(c);
                }
                _ => return Ok(()),
            }
        }
        Ok(())
    }

    /// Lexes an integer starting at the cursor (a digit, or a `-` the
    /// caller saw), accumulating it from its digits.
    fn integer(&mut self, pos: Pos) -> Result<TokenKind<'a>, LexError> {
        let start = self.at;
        let negative = self.byte() == Some(b'-');
        if negative {
            self.bump_ascii();
            if !self.byte().is_some_and(|d| d.is_ascii_digit()) {
                return Err(LexError {
                    message: "expected digits after `-`".into(),
                    pos,
                });
            }
        }
        let mut n: Option<i64> = Some(0);
        while let Some(d) = self.byte().filter(u8::is_ascii_digit) {
            let d = i64::from(d - b'0');
            // A negative integer is accumulated downwards, so that
            // `i64::MIN` fits.
            n = n.and_then(|n| n.checked_mul(10)).and_then(|n| {
                if negative {
                    n.checked_sub(d)
                } else {
                    n.checked_add(d)
                }
            });
            self.bump_ascii();
        }
        n.map(TokenKind::IntConst).ok_or_else(|| LexError {
            message: format!("integer out of range: {}", &self.src[start..self.at]),
            pos,
        })
    }

    /// Lexes a quoted constant whose opening `quote` is at the cursor.
    fn quoted(&mut self, quote: u8, pos: Pos) -> Result<TokenKind<'a>, LexError> {
        let start = self.at + 1;
        let rest = &self.src.as_bytes()[start..];
        match rest.iter().position(|&b| b == quote || b == b'\n') {
            Some(len) if rest[len] == quote => {
                self.advance_to(start + len + 1);
                Ok(TokenKind::SymConst(&self.src[start..start + len]))
            }
            _ => Err(LexError {
                message: "unterminated quoted constant".into(),
                pos,
            }),
        }
    }

    /// Lexes an identifier or keyword starting at the cursor.
    fn word(&mut self) -> TokenKind<'a> {
        let start = self.at;
        let bytes = self.src.as_bytes();
        let mut end = start;
        let mut chars = 0;
        while let Some(&b) = bytes.get(end) {
            if b < 0x80 {
                if !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'\'')) {
                    break;
                }
                end += 1;
            } else {
                let c = self.src[end..].chars().next().expect("char boundary");
                if !is_ident_continue(c) {
                    break;
                }
                end += c.len_utf8();
            }
            chars += 1;
        }
        self.at = end;
        self.col += chars;
        match &self.src[start..end] {
            "not" => TokenKind::Bang,
            "forall" => TokenKind::Forall,
            "bottom" | "false" => TokenKind::Bottom,
            s => TokenKind::Ident(s),
        }
    }

    /// Lexes the next token.
    fn token(&mut self) -> Result<Token<'a>, LexError> {
        self.skip_trivia()?;
        let pos = self.pos();
        let Some(b) = self.byte() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                pos,
            });
        };
        let single = |lexer: &mut Self, kind| {
            lexer.bump_ascii();
            Ok(kind)
        };
        let kind = match b {
            b'(' => single(self, TokenKind::LParen),
            b')' => single(self, TokenKind::RParen),
            b',' => single(self, TokenKind::Comma),
            b'.' => single(self, TokenKind::Dot),
            b'=' => single(self, TokenKind::Eq),
            b':' => {
                self.bump_ascii();
                if self.byte() == Some(b'-') {
                    single(self, TokenKind::Arrow)
                } else {
                    Ok(TokenKind::Colon)
                }
            }
            b'!' => {
                self.bump_ascii();
                if self.byte() == Some(b'=') {
                    single(self, TokenKind::Neq)
                } else {
                    Ok(TokenKind::Bang)
                }
            }
            b'<' => {
                self.bump_ascii();
                if self.byte() == Some(b'>') {
                    single(self, TokenKind::Neq)
                } else {
                    Err(LexError {
                        message: "unexpected `<` (did you mean `<>`?)".into(),
                        pos,
                    })
                }
            }
            b'\'' | b'"' => self.quoted(b, pos),
            b'0'..=b'9' | b'-' => self.integer(pos),
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => Ok(self.word()),
            0x80.. => {
                let c = self.char_at();
                let op = match c {
                    '≠' => Some(TokenKind::Neq),
                    '¬' => Some(TokenKind::Bang),
                    '←' => Some(TokenKind::Arrow),
                    '∀' => Some(TokenKind::Forall),
                    '⊥' => Some(TokenKind::Bottom),
                    _ => None,
                };
                match op {
                    Some(kind) => {
                        self.bump_char(c);
                        Ok(kind)
                    }
                    None if is_ident_start(c) => Ok(self.word()),
                    None => Err(unexpected(c, pos)),
                }
            }
            other => Err(unexpected(char::from(other), pos)),
        }?;
        Ok(Token { kind, pos })
    }
}

fn unexpected(c: char, pos: Pos) -> LexError {
    LexError {
        message: format!("unexpected character `{c}`"),
        pos,
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, LexError>;

    fn next(&mut self) -> Option<Result<Token<'a>, LexError>> {
        if self.done {
            return None;
        }
        self.last = self.mark();
        let token = self.token();
        self.done = !matches!(&token, Ok(t) if t.kind != TokenKind::Eof);
        Some(token)
    }
}

/// Tokenizes `src` in one go. The result always ends with an
/// [`TokenKind::Eof`] token.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    Lexer::new(src).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_rule() {
        use TokenKind::*;
        assert_eq!(
            kinds("T(x,y) :- G(x,y)."),
            vec![
                Ident("T"),
                LParen,
                Ident("x"),
                Comma,
                Ident("y"),
                RParen,
                Arrow,
                Ident("G"),
                LParen,
                Ident("x"),
                Comma,
                Ident("y"),
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
        assert_eq!(kinds("x ≠ y"), vec![Ident("x"), Neq, Ident("y"), Eof]);
        assert_eq!(kinds("∀ y"), vec![Forall, Ident("y"), Eof]);
    }

    /// Unicode letters start and continue identifiers, Unicode
    /// whitespace separates tokens, and columns count characters.
    #[test]
    fn unicode_identifiers_and_columns() {
        use TokenKind::*;
        let toks = lex("été(x)\u{a0}¬ñ_1 'ß' x").unwrap();
        let kinds: Vec<_> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                Ident("été"),
                LParen,
                Ident("x"),
                RParen,
                Bang,
                Ident("ñ_1"),
                SymConst("ß"),
                Ident("x"),
                Eof
            ]
        );
        let cols: Vec<u32> = toks.iter().map(|t| t.pos.col).collect();
        assert_eq!(cols, vec![1, 4, 5, 6, 8, 9, 13, 17, 18]);
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
                Ident("R"),
                LParen,
                SymConst("a"),
                Comma,
                SymConst("b"),
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
    fn integer_limits() {
        use TokenKind::*;
        assert_eq!(
            kinds("9223372036854775807 -9223372036854775808 007"),
            vec![IntConst(i64::MAX), IntConst(i64::MIN), IntConst(7), Eof]
        );
        for src in ["9223372036854775808", "-9223372036854775809"] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.message, format!("integer out of range: {src}"));
            assert_eq!(err.pos, Pos { line: 1, col: 1 });
        }
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

    /// A reset lexer lexes the same tokens, at the same positions, again.
    #[test]
    fn reset_relexes_from_a_mark() {
        let mut lexer = Lexer::new("A(1).\n  é('x').");
        let first: Vec<_> = lexer.by_ref().take(5).collect();
        let mark = lexer.mark();
        let rest: Vec<_> = lexer.by_ref().collect();
        lexer.reset(mark);
        assert_eq!(lexer.collect::<Vec<_>>(), rest);
        assert_eq!(first.len(), 5);
        assert_eq!(rest[0].as_ref().unwrap().pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn forall_and_colon() {
        use TokenKind::*;
        assert_eq!(
            kinds("ans(x) :- forall y : P(x)."),
            vec![
                Ident("ans"),
                LParen,
                Ident("x"),
                RParen,
                Arrow,
                Forall,
                Ident("y"),
                Colon,
                Ident("P"),
                LParen,
                Ident("x"),
                RParen,
                Dot,
                Eof
            ]
        );
    }
}
