//! Recursive-descent parser for rule programs and fact files.
//!
//! Grammar (EBNF):
//!
//! ```text
//! program   ::= statement*
//! statement ::= head ( ":-" body )? "."
//! head      ::= headlit ( "," headlit )*
//! headlit   ::= "bottom" | "!"? atom
//! body      ::= ( "forall" var ( ","? var )* ":" )? lit ( "," lit )*
//! lit       ::= "!" atom | atom | term ("=" | "!=") term
//! atom      ::= ident ( "(" ( term ( "," term )* )? ")" )?
//! term      ::= ident | intconst | symconst
//! ```
//!
//! Identifiers in *argument position* are variables; identifiers in
//! *predicate position* are relation names. Constants are integers or
//! quoted symbols. This matches the paper's examples once constants are
//! quoted (e.g. the flip-flop program's `T(0)` works verbatim since `0`
//! is an integer constant).
//!
//! A fact file is a program whose statements are all ground positive
//! facts. [`parse_facts`] reads a statement of the shape
//! `pred(const, …).` straight off the [`Lexer`] into a flat value
//! buffer per relation, with no AST. At the first token that does not
//! fit that shape it re-lexes the statement from its start and parses
//! it with the rule grammar, so every error reads and points exactly as
//! the rule grammar reports it. Each relation is then built once from
//! its rows ([`Relation::from_packed`]), sorted and committed.

use crate::ast::{Atom, HeadLiteral, Literal, Program, Rule, Term, Var};
use crate::lexer::{lex, LexError, Lexer, Pos, Token, TokenKind};
use std::fmt;
use unchained_common::{FxHashMap, Instance, Interner, Relation, Symbol, Value};

/// A parse error with position information.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Where the problem was noticed.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            pos: e.pos,
        }
    }
}

/// The parser over a token stream `T`, holding one token of lookahead.
struct Parser<'i, 's, T> {
    tokens: T,
    /// The lookahead token.
    cur: Token<'s>,
    /// Where the token before `cur` started.
    prev: Pos,
    /// The lex error the stream stopped at; `cur` is then end of input.
    lex_error: Option<LexError>,
    interner: &'i mut Interner,
}

/// Per-rule variable scope.
#[derive(Default)]
struct VarScope {
    names: Vec<String>,
    lookup: FxHashMap<String, Var>,
}

impl VarScope {
    fn var(&mut self, name: &str) -> Var {
        if let Some(&v) = self.lookup.get(name) {
            return v;
        }
        let v = Var(u32::try_from(self.names.len()).expect("too many variables"));
        self.names.push(name.to_string());
        self.lookup.insert(name.to_string(), v);
        v
    }
}

impl<'i, 's, T: Iterator<Item = Result<Token<'s>, LexError>>> Parser<'i, 's, T> {
    fn new(tokens: T, interner: &'i mut Interner) -> Self {
        let start = Pos { line: 1, col: 1 };
        let mut parser = Parser {
            tokens,
            cur: Token {
                kind: TokenKind::Eof,
                pos: start,
            },
            prev: start,
            lex_error: None,
            interner,
        };
        parser.bump();
        parser
    }

    fn peek(&self) -> TokenKind<'s> {
        self.cur.kind
    }

    fn pos(&self) -> Pos {
        self.cur.pos
    }

    /// Returns the lookahead token and pulls the next one. At the end
    /// of input (or at a lex error) the lookahead stays end of input.
    fn bump(&mut self) -> TokenKind<'s> {
        let next = match self.tokens.next() {
            Some(Ok(token)) => token,
            Some(Err(e)) => {
                let pos = e.pos;
                self.lex_error = Some(e);
                Token {
                    kind: TokenKind::Eof,
                    pos,
                }
            }
            None => Token {
                kind: TokenKind::Eof,
                pos: self.cur.pos,
            },
        };
        self.prev = self.cur.pos;
        std::mem::replace(&mut self.cur, next).kind
    }

    /// `result`, unless the token stream stopped at a lex error: that
    /// error comes first, since everything after it was read as the end
    /// of input.
    fn finish<R>(&mut self, result: Result<R, ParseError>) -> Result<R, ParseError> {
        match self.lex_error.take() {
            Some(e) => Err(e.into()),
            None => result,
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), ParseError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            message,
            pos: self.pos(),
        }
    }

    fn parse_term(&mut self, scope: &mut VarScope) -> Result<Term, ParseError> {
        match self.bump() {
            TokenKind::Ident(name) => Ok(Term::Var(scope.var(name))),
            TokenKind::SymConst(s) => Ok(Term::Const(Value::Sym(self.interner.intern(s)))),
            TokenKind::IntConst(n) => Ok(Term::Const(Value::Int(n))),
            other => Err(ParseError {
                message: format!("expected term, found {other}"),
                pos: self.prev,
            }),
        }
    }

    fn parse_atom_after_name(
        &mut self,
        name: &str,
        scope: &mut VarScope,
    ) -> Result<Atom, ParseError> {
        let pred = self.interner.intern(name);
        let mut args = Vec::new();
        if self.peek() == TokenKind::LParen {
            self.bump();
            if self.peek() != TokenKind::RParen {
                loop {
                    args.push(self.parse_term(scope)?);
                    if self.peek() == TokenKind::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok(Atom::new(pred, args))
    }

    /// Parses a body literal: negated atom, plain atom, or (in)equality.
    fn parse_body_literal(&mut self, scope: &mut VarScope) -> Result<Literal, ParseError> {
        if self.peek() == TokenKind::Bang {
            self.bump();
            match self.bump() {
                TokenKind::Ident(name) => {
                    Ok(Literal::Neg(self.parse_atom_after_name(name, scope)?))
                }
                other => Err(self.error(format!("expected atom after `!`, found {other}"))),
            }
        } else {
            match self.bump() {
                TokenKind::Ident("choice") if self.peek() == TokenKind::LParen => {
                    self.parse_choice(scope)
                }
                TokenKind::Ident(name) => {
                    // Could be an atom, or the left side of an (in)equality
                    // when followed by `=` / `!=`.
                    match self.peek() {
                        TokenKind::Eq => {
                            self.bump();
                            let lhs = Term::Var(scope.var(name));
                            let rhs = self.parse_term(scope)?;
                            Ok(Literal::Eq(lhs, rhs))
                        }
                        TokenKind::Neq => {
                            self.bump();
                            let lhs = Term::Var(scope.var(name));
                            let rhs = self.parse_term(scope)?;
                            Ok(Literal::Neq(lhs, rhs))
                        }
                        _ => Ok(Literal::Pos(self.parse_atom_after_name(name, scope)?)),
                    }
                }
                TokenKind::IntConst(n) => {
                    let lhs = Term::Const(Value::Int(n));
                    self.parse_equality_tail(lhs, scope)
                }
                TokenKind::SymConst(s) => {
                    let lhs = Term::Const(Value::Sym(self.interner.intern(s)));
                    self.parse_equality_tail(lhs, scope)
                }
                other => Err(self.error(format!("expected literal, found {other}"))),
            }
        }
    }

    /// Parses `choice((t1, …),(u1, …))` after the `choice` keyword.
    fn parse_choice(&mut self, scope: &mut VarScope) -> Result<Literal, ParseError> {
        self.expect(TokenKind::LParen)?;
        let left = self.parse_term_group(scope)?;
        self.expect(TokenKind::Comma)?;
        let right = self.parse_term_group(scope)?;
        self.expect(TokenKind::RParen)?;
        Ok(Literal::Choice(left, right))
    }

    /// Parses a parenthesized, possibly empty term group `(t1, …)`.
    fn parse_term_group(&mut self, scope: &mut VarScope) -> Result<Vec<Term>, ParseError> {
        self.expect(TokenKind::LParen)?;
        let mut terms = Vec::new();
        if self.peek() != TokenKind::RParen {
            loop {
                terms.push(self.parse_term(scope)?);
                if self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(terms)
    }

    fn parse_equality_tail(
        &mut self,
        lhs: Term,
        scope: &mut VarScope,
    ) -> Result<Literal, ParseError> {
        match self.bump() {
            TokenKind::Eq => Ok(Literal::Eq(lhs, self.parse_term(scope)?)),
            TokenKind::Neq => Ok(Literal::Neq(lhs, self.parse_term(scope)?)),
            other => Err(self.error(format!(
                "expected `=` or `!=` after constant, found {other}"
            ))),
        }
    }

    fn parse_head_literal(&mut self, scope: &mut VarScope) -> Result<HeadLiteral, ParseError> {
        match self.peek() {
            TokenKind::Bottom => {
                self.bump();
                Ok(HeadLiteral::Bottom)
            }
            TokenKind::Bang => {
                self.bump();
                match self.bump() {
                    TokenKind::Ident(name) => {
                        Ok(HeadLiteral::Neg(self.parse_atom_after_name(name, scope)?))
                    }
                    other => Err(self.error(format!("expected atom after `!`, found {other}"))),
                }
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(HeadLiteral::Pos(self.parse_atom_after_name(name, scope)?))
            }
            other => Err(self.error(format!("expected head literal, found {other}"))),
        }
    }

    fn parse_rule(&mut self) -> Result<Rule, ParseError> {
        let mut scope = VarScope::default();
        let mut head = vec![self.parse_head_literal(&mut scope)?];
        while self.peek() == TokenKind::Comma {
            self.bump();
            head.push(self.parse_head_literal(&mut scope)?);
        }
        let (body, forall) = self.parse_rule_tail(&mut scope)?;
        Ok(Rule {
            head,
            body,
            forall,
            var_names: scope.names,
        })
    }

    /// Parses what follows a rule's head: an optional `:-` body, with its
    /// optional `forall` prefix, and the closing `.`.
    fn parse_rule_tail(
        &mut self,
        scope: &mut VarScope,
    ) -> Result<(Vec<Literal>, Vec<Var>), ParseError> {
        let mut body = Vec::new();
        let mut forall = Vec::new();
        if self.peek() == TokenKind::Arrow {
            self.bump();
            if self.peek() == TokenKind::Forall {
                self.bump();
                loop {
                    match self.bump() {
                        TokenKind::Ident(name) => forall.push(scope.var(name)),
                        other => {
                            return Err(self.error(format!(
                                "expected variable in forall prefix, found {other}"
                            )))
                        }
                    }
                    if self.peek() == TokenKind::Comma {
                        self.bump();
                    }
                    if self.peek() == TokenKind::Colon {
                        self.bump();
                        break;
                    }
                }
            }
            // An empty body after `:-` is allowed (unconditional rule).
            if self.peek() != TokenKind::Dot {
                body.push(self.parse_body_literal(scope)?);
                while self.peek() == TokenKind::Comma {
                    self.bump();
                    body.push(self.parse_body_literal(scope)?);
                }
            }
        }
        self.expect(TokenKind::Dot)?;
        Ok((body, forall))
    }

    /// Parses one statement of a fact file with the rule grammar and
    /// checks that it is a ground positive fact whose arity agrees with
    /// `arity_of` its predicate; returns the predicate, with the fact's
    /// row in `values`. Errors of the check point at the statement's
    /// first token.
    fn parse_fact(
        &mut self,
        arity_of: impl Fn(Symbol) -> Option<usize>,
        values: &mut Vec<Value>,
    ) -> Result<Symbol, ParseError> {
        let at = self.pos();
        let mut scope = VarScope::default();
        let head = self.parse_head_literal(&mut scope)?;
        let mut heads = 1;
        while self.peek() == TokenKind::Comma {
            self.bump();
            self.parse_head_literal(&mut scope)?;
            heads += 1;
        }
        let (body, forall) = self.parse_rule_tail(&mut scope)?;
        let error = |message: String| Err(ParseError { message, pos: at });
        if !body.is_empty() || heads != 1 || !forall.is_empty() {
            return error("fact files may only contain ground facts".into());
        }
        let HeadLiteral::Pos(atom) = head else {
            return error("fact files may only contain positive facts".into());
        };
        values.clear();
        for arg in &atom.args {
            match arg {
                Term::Const(v) => values.push(*v),
                Term::Var(v) => {
                    return error(format!(
                        "fact contains variable `{}`; facts must be ground",
                        scope.names[v.index()]
                    ))
                }
            }
        }
        if let Some(arity) = arity_of(atom.pred).filter(|&a| a != values.len()) {
            return error(format!(
                "relation `{}` used with arity {} and {}",
                self.interner.name(atom.pred),
                arity,
                values.len()
            ));
        }
        Ok(atom.pred)
    }
}

/// Parses a program from source text.
pub fn parse_program(src: &str, interner: &mut Interner) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut parser = Parser::new(tokens.into_iter().map(Ok), interner);
    let mut rules = Vec::new();
    while parser.peek() != TokenKind::Eof {
        rules.push(parser.parse_rule()?);
    }
    Ok(Program { rules })
}

/// One relation of a fact file as it is read: its rows, duplicates
/// included, packed with stride `arity`.
struct Loading {
    pred: Symbol,
    arity: usize,
    rows: usize,
    values: Vec<Value>,
}

impl Loading {
    fn push(&mut self, row: &[Value]) {
        self.values.extend_from_slice(row);
        self.rows += 1;
    }
}

/// What [`FactLoader::read`] made of one statement.
enum Read {
    /// A fact, added to its relation's rows.
    Fact,
    /// The end of the input.
    End,
    /// A token that does not fit `pred(const, …).`, or a lex error.
    Other,
}

/// The relations a fact file loads, in the order of their first fact.
#[derive(Default)]
struct FactLoader<'s> {
    relations: Vec<Loading>,
    by_pred: FxHashMap<Symbol, usize>,
    /// The predicate name of the last fact read, its symbol, and its
    /// relation: a run of facts of one predicate interns it once.
    last: Option<(&'s str, Symbol, usize)>,
    /// The row being read.
    row: Vec<Value>,
}

impl<'s> FactLoader<'s> {
    /// Reads one statement of the shape `pred(const, …).` (or `pred.`)
    /// from `lexer` into its relation's rows. Interns what it reads in
    /// the order the rule grammar does: the predicate, then each
    /// constant. The row is checked against the relation's arity only
    /// when complete.
    fn read(&mut self, lexer: &mut Lexer<'s>, interner: &mut Interner) -> Read {
        let mut next = || match lexer.next() {
            Some(Ok(token)) => Some(token.kind),
            _ => None,
        };
        let name = match next() {
            Some(TokenKind::Ident(name)) => name,
            Some(TokenKind::Eof) => return Read::End,
            _ => return Read::Other,
        };
        let (pred, known) = match self.last {
            Some((last, pred, k)) if last == name => (pred, Some(k)),
            _ => (interner.intern(name), None),
        };
        self.row.clear();
        match next() {
            Some(TokenKind::Dot) => {}
            Some(TokenKind::LParen) => {
                let mut token = next();
                if token != Some(TokenKind::RParen) {
                    loop {
                        self.row.push(match token {
                            Some(TokenKind::IntConst(n)) => Value::Int(n),
                            Some(TokenKind::SymConst(s)) => Value::Sym(interner.intern(s)),
                            _ => return Read::Other,
                        });
                        match next() {
                            Some(TokenKind::Comma) => token = next(),
                            Some(TokenKind::RParen) => break,
                            _ => return Read::Other,
                        }
                    }
                }
                if next() != Some(TokenKind::Dot) {
                    return Read::Other;
                }
            }
            _ => return Read::Other,
        }
        let k = known.unwrap_or_else(|| self.relation(pred, self.row.len()));
        self.last = Some((name, pred, k));
        if self.relations[k].arity != self.row.len() {
            return Read::Other;
        }
        self.relations[k].push(&self.row);
        Read::Fact
    }

    /// The index of `pred`'s relation, made with `arity` if new.
    fn relation(&mut self, pred: Symbol, arity: usize) -> usize {
        let relations = &mut self.relations;
        *self.by_pred.entry(pred).or_insert_with(|| {
            relations.push(Loading {
                pred,
                arity,
                rows: 0,
                values: Vec::new(),
            });
            relations.len() - 1
        })
    }

    fn arity(&self, pred: Symbol) -> Option<usize> {
        self.by_pred.get(&pred).map(|&k| self.relations[k].arity)
    }

    /// Adds the row of a statement the rule grammar parsed.
    fn push(&mut self, pred: Symbol, row: &[Value]) {
        let k = self.relation(pred, row.len());
        self.relations[k].push(row);
    }

    /// Builds each relation once from its rows.
    fn finish(self) -> Instance {
        self.relations
            .into_iter()
            .map(|rel| {
                let relation = Relation::from_packed(rel.arity, rel.rows, rel.values);
                (rel.pred, relation)
            })
            .collect()
    }
}

/// Parses a fact file: a sequence of ground atoms terminated by `.`,
/// e.g. `G('a','b'). G('b','c').`. Returns the facts as an [`Instance`]
/// whose relations are committed: each holds its distinct rows, sorted,
/// as one segment.
///
/// The file is read in one pass over its tokens, each fact straight
/// into its relation's rows; a statement of any other shape is parsed
/// with the rule grammar, which accepts it only as a ground positive
/// fact and otherwise reports the error `parse_program` plus that
/// check would.
pub fn parse_facts(src: &str, interner: &mut Interner) -> Result<Instance, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut loader = FactLoader::default();
    let mut row = Vec::new();
    loop {
        let start = lexer.mark();
        match loader.read(&mut lexer, interner) {
            Read::Fact => {}
            Read::End => return Ok(loader.finish()),
            Read::Other => {
                lexer.reset(start);
                let mut parser = Parser::new(&mut lexer, interner);
                let fact = parser.parse_fact(|pred| loader.arity(pred), &mut row);
                let pred = parser.finish(fact)?;
                drop(parser);
                // The parser read one token past the statement.
                lexer.unread();
                loader.push(pred, &row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{HeadLiteral, Literal};

    fn parse_ok(src: &str) -> (Program, Interner) {
        let mut i = Interner::new();
        let p = parse_program(src, &mut i).expect("parse failed");
        (p, i)
    }

    #[test]
    fn transitive_closure_program() {
        let (p, i) = parse_ok(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).",
        );
        assert_eq!(p.rules.len(), 2);
        assert_eq!(
            p.display(&i).to_string(),
            "T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).\n"
        );
    }

    #[test]
    fn paper_unicode_syntax() {
        let (p, _) = parse_ok("win(x) ← moves(x,y), ¬win(y).");
        assert_eq!(p.rules.len(), 1);
        assert!(matches!(p.rules[0].body[1], Literal::Neg(_)));
    }

    #[test]
    fn negative_heads_and_multi_head() {
        let (p, _) = parse_ok("!G(x,y) :- G(x,y), G(y,x).\nA(x), !B(x) :- C(x).");
        assert!(matches!(p.rules[0].head[0], HeadLiteral::Neg(_)));
        assert_eq!(p.rules[1].head.len(), 2);
    }

    #[test]
    fn bottom_head() {
        let (p, _) = parse_ok("bottom :- done, Q(x,y), !PROJ(x).");
        assert!(matches!(p.rules[0].head[0], HeadLiteral::Bottom));
        assert_eq!(p.rules[0].body.len(), 3);
    }

    #[test]
    fn forall_prefix() {
        let (p, _) = parse_ok("answer(x) :- forall y : P(x), !Q(x,y).");
        assert_eq!(p.rules[0].forall.len(), 1);
        let yname = &p.rules[0].var_names[p.rules[0].forall[0].index()];
        assert_eq!(yname, "y");
    }

    #[test]
    fn zero_arity_and_unconditional() {
        // Example 4.4's `delay ←` rule.
        let (p, _) = parse_ok("delay :- .\ndelay2.");
        assert!(p.rules[0].body.is_empty());
        assert!(p.rules[1].body.is_empty());
        assert_eq!(p.rules[0].head[0].atom().unwrap().arity(), 0);
    }

    #[test]
    fn equalities() {
        let (p, _) = parse_ok("R(x) :- S(x,y), x = y.\nR(x) :- S(x,y), x != 'a'.");
        assert!(matches!(p.rules[0].body[1], Literal::Eq(_, _)));
        assert!(matches!(p.rules[1].body[1], Literal::Neq(_, _)));
    }

    #[test]
    fn constant_on_equality_lhs() {
        let (p, _) = parse_ok("R(x) :- S(x), 1 = x.");
        assert!(matches!(p.rules[0].body[1], Literal::Eq(Term::Const(_), _)));
    }

    #[test]
    fn primed_variables() {
        // The paper's Example 4.3 uses x', y', z'.
        let (p, _) = parse_ok("CT(x,y) :- !T(x,y), old-T(x',y'), !old-T-except-final(x',y').");
        assert_eq!(p.rules[0].body.len(), 3);
        assert!(p.rules[0].var_names.contains(&"x'".to_string()));
    }

    #[test]
    fn variables_scoped_per_rule() {
        let (p, _) = parse_ok("A(x) :- B(x).\nC(x) :- D(x).");
        // Both rules use Var(0) for their own `x`.
        assert_eq!(p.rules[0].var_names, vec!["x"]);
        assert_eq!(p.rules[1].var_names, vec!["x"]);
    }

    #[test]
    fn fact_file() {
        let mut i = Interner::new();
        let inst = parse_facts("G('a','b'). G('b','c'). flag. N(3).", &mut i).unwrap();
        assert_eq!(inst.fact_count(), 4);
        let g = i.get("G").unwrap();
        assert_eq!(inst.relation(g).unwrap().len(), 2);
    }

    #[test]
    fn fact_file_rejects_rules_and_vars() {
        let mut i = Interner::new();
        assert!(parse_facts("A(x) :- B(x).", &mut i).is_err());
        assert!(parse_facts("A(x).", &mut i).is_err());
        assert!(parse_facts("!A(1).", &mut i).is_err());
    }

    /// Each check of a fact file reports the position of the fact at
    /// fault, not the start of the file.
    #[test]
    fn fact_file_errors_point_at_the_fact() {
        let mut i = Interner::new();
        let err = parse_facts("G(1,2).\nG(x,3).", &mut i).unwrap_err();
        assert_eq!(err.pos, Pos { line: 2, col: 1 });
        assert!(err.message.contains("variable `x`"), "{err}");
        let err = parse_facts("G(1,2).\n  A(x) :- B(x).", &mut i).unwrap_err();
        assert_eq!(err.pos, Pos { line: 2, col: 3 });
        assert!(err.message.contains("ground facts"), "{err}");
        let err = parse_facts("G(1,2). G(2,3).\n\n!A(1).", &mut i).unwrap_err();
        assert_eq!(err.pos, Pos { line: 3, col: 1 });
        assert!(err.message.contains("positive facts"), "{err}");
        let err = parse_facts("G(1,2).\nG(3).", &mut i).unwrap_err();
        assert_eq!(err.pos, Pos { line: 2, col: 1 });
        assert!(err.message.contains("arity 2 and 1"), "{err}");
    }

    /// A lex error past the last fact still fails the file.
    #[test]
    fn fact_file_lex_errors_fail_the_file() {
        let mut i = Interner::new();
        let err = parse_facts("G(1,2).\nG(2,3). $", &mut i).unwrap_err();
        assert_eq!(err.pos, Pos { line: 2, col: 9 });
        assert!(err.message.contains("unexpected character"), "{err}");
        assert!(parse_facts("G(1,2", &mut i).is_err());
    }

    #[test]
    fn parse_errors_have_positions() {
        let mut i = Interner::new();
        let err = parse_program("A(x :- B(x).", &mut i).unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.message.contains("expected"));
    }

    #[test]
    fn missing_dot_is_an_error() {
        let mut i = Interner::new();
        assert!(parse_program("A(x) :- B(x)", &mut i).is_err());
    }

    #[test]
    fn display_parse_roundtrip() {
        let src = "T(x, y) :- G(x, z), T(z, y).\nCT(x, y) :- !T(x, y).\n";
        let mut i = Interner::new();
        let p = parse_program(src, &mut i).unwrap();
        let shown = p.display(&i).to_string();
        let mut i2 = Interner::new();
        let p2 = parse_program(&shown, &mut i2).unwrap();
        assert_eq!(p2.display(&i2).to_string(), shown);
    }

    /// `parse(print(p)) == p` structurally, across the whole surface
    /// syntax. Any parsed program is in the parser's canonical variable
    /// numbering, so printing and reparsing must reproduce it exactly
    /// — the invariant the fuzzer's shrinker leans on when it writes
    /// repro files.
    #[test]
    fn parse_print_parse_is_identity() {
        let sources = [
            "T(x, y) :- G(x, z), T(z, y).",
            "CT(x, y) :- V(x), V(y), !T(x, y).",
            "R(0) :- E(0, x), x != -7.",
            "S(x) :- E(x, 'a'), x = 'b'.",
            "P.\nQ(x) :- P, E(x).",
            "bottom :- Conflict(x, x).",
            "!Old(x), New(x) :- Update(x).",
            "Win(x) :- Move(x, y), !Win(y).",
            "Ans(x) :- forall y : E(x), !G(x, y).",
            "Pick(x, y) :- E(x, y), choice((x), (y)).",
            "Fact(3, -4, 'q').",
        ];
        for src in sources {
            let mut i = Interner::new();
            let p = parse_program(src, &mut i).unwrap();
            let reparsed = parse_program(&p.display(&i).to_string(), &mut i)
                .unwrap_or_else(|e| panic!("printed form of {src:?} does not reparse: {e}"));
            assert_eq!(reparsed, p, "round trip changed {src:?}");
        }
    }

    /// A programmatically built rule with unused variable names and
    /// non-canonical numbering round-trips only after normalization.
    #[test]
    fn normalized_rule_roundtrips() {
        use crate::ast::{Atom, HeadLiteral, Literal, Program, Rule, Term, Var};
        let mut i = Interner::new();
        let e = i.intern("E");
        let r = i.intern("R");
        // R(z, x) :- E(z), E(x) — numbered z=2, x=0, with an unused y=1.
        let rule = Rule {
            head: vec![HeadLiteral::Pos(Atom::new(
                r,
                vec![Term::Var(Var(2)), Term::Var(Var(0))],
            ))],
            body: vec![
                Literal::Pos(Atom::new(e, vec![Term::Var(Var(2))])),
                Literal::Pos(Atom::new(e, vec![Term::Var(Var(0))])),
            ],
            forall: vec![],
            var_names: vec!["x".into(), "y".into(), "z".into()],
        };
        let raw = Program { rules: vec![rule] };
        let reparsed = parse_program(&raw.display(&i).to_string(), &mut i).unwrap();
        assert_ne!(reparsed, raw, "denormalized program cannot round-trip");
        let normal = raw.normalized();
        assert_eq!(reparsed, normal);
        let again = parse_program(&normal.display(&i).to_string(), &mut i).unwrap();
        assert_eq!(again, normal);
    }
}
