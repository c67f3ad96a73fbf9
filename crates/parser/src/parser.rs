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

use crate::ast::{Atom, HeadLiteral, Literal, Program, Rule, Term, Var};
use crate::lexer::{lex, LexError, Lexer, Pos, Token, TokenKind};
use std::fmt;
use unchained_common::{FxHashMap, Instance, Interner, Value};

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
struct Parser<'a, T> {
    tokens: T,
    /// The lookahead token.
    cur: Token,
    /// Where the token before `cur` started.
    prev: Pos,
    /// The lex error the stream stopped at; `cur` is then end of input.
    lex_error: Option<LexError>,
    interner: &'a mut Interner,
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

impl<'a, T: Iterator<Item = Result<Token, LexError>>> Parser<'a, T> {
    fn new(tokens: T, interner: &'a mut Interner) -> Self {
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

    fn peek(&self) -> &TokenKind {
        &self.cur.kind
    }

    fn pos(&self) -> Pos {
        self.cur.pos
    }

    /// Returns the lookahead token and pulls the next one. At the end
    /// of input (or at a lex error) the lookahead stays end of input.
    fn bump(&mut self) -> TokenKind {
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

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
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
            TokenKind::Ident(name) => Ok(Term::Var(scope.var(&name))),
            TokenKind::SymConst(s) => Ok(Term::Const(Value::Sym(self.interner.intern(&s)))),
            TokenKind::IntConst(n) => Ok(Term::Const(Value::Int(n))),
            other => Err(ParseError {
                message: format!("expected term, found {other}"),
                pos: self.prev,
            }),
        }
    }

    fn parse_atom_after_name(
        &mut self,
        name: String,
        scope: &mut VarScope,
    ) -> Result<Atom, ParseError> {
        let pred = self.interner.intern(&name);
        let mut args = Vec::new();
        if self.peek() == &TokenKind::LParen {
            self.bump();
            if self.peek() != &TokenKind::RParen {
                loop {
                    args.push(self.parse_term(scope)?);
                    if self.peek() == &TokenKind::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(Atom::new(pred, args))
    }

    /// Parses a body literal: negated atom, plain atom, or (in)equality.
    fn parse_body_literal(&mut self, scope: &mut VarScope) -> Result<Literal, ParseError> {
        if self.peek() == &TokenKind::Bang {
            self.bump();
            match self.bump() {
                TokenKind::Ident(name) => {
                    Ok(Literal::Neg(self.parse_atom_after_name(name, scope)?))
                }
                other => Err(self.error(format!("expected atom after `!`, found {other}"))),
            }
        } else {
            match self.bump() {
                TokenKind::Ident(name) if name == "choice" && self.peek() == &TokenKind::LParen => {
                    self.parse_choice(scope)
                }
                TokenKind::Ident(name) => {
                    // Could be an atom, or the left side of an (in)equality
                    // when followed by `=` / `!=`.
                    match self.peek() {
                        TokenKind::Eq => {
                            self.bump();
                            let lhs = Term::Var(scope.var(&name));
                            let rhs = self.parse_term(scope)?;
                            Ok(Literal::Eq(lhs, rhs))
                        }
                        TokenKind::Neq => {
                            self.bump();
                            let lhs = Term::Var(scope.var(&name));
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
                    let lhs = Term::Const(Value::Sym(self.interner.intern(&s)));
                    self.parse_equality_tail(lhs, scope)
                }
                other => Err(self.error(format!("expected literal, found {other}"))),
            }
        }
    }

    /// Parses `choice((t1, …),(u1, …))` after the `choice` keyword.
    fn parse_choice(&mut self, scope: &mut VarScope) -> Result<Literal, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let left = self.parse_term_group(scope)?;
        self.expect(&TokenKind::Comma)?;
        let right = self.parse_term_group(scope)?;
        self.expect(&TokenKind::RParen)?;
        Ok(Literal::Choice(left, right))
    }

    /// Parses a parenthesized, possibly empty term group `(t1, …)`.
    fn parse_term_group(&mut self, scope: &mut VarScope) -> Result<Vec<Term>, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut terms = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                terms.push(self.parse_term(scope)?);
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
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
        match self.peek().clone() {
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
        while self.peek() == &TokenKind::Comma {
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
        if self.peek() == &TokenKind::Arrow {
            self.bump();
            if self.peek() == &TokenKind::Forall {
                self.bump();
                loop {
                    match self.bump() {
                        TokenKind::Ident(name) => forall.push(scope.var(&name)),
                        other => {
                            return Err(self.error(format!(
                                "expected variable in forall prefix, found {other}"
                            )))
                        }
                    }
                    if self.peek() == &TokenKind::Comma {
                        self.bump();
                    }
                    if self.peek() == &TokenKind::Colon {
                        self.bump();
                        break;
                    }
                }
            }
            // An empty body after `:-` is allowed (unconditional rule).
            if self.peek() != &TokenKind::Dot {
                body.push(self.parse_body_literal(scope)?);
                while self.peek() == &TokenKind::Comma {
                    self.bump();
                    body.push(self.parse_body_literal(scope)?);
                }
            }
        }
        self.expect(&TokenKind::Dot)?;
        Ok((body, forall))
    }

    /// Parses one statement of a fact file with the rule grammar, checks
    /// that it is a ground positive fact, and inserts it into `out`.
    /// Errors of the check point at the statement's first token.
    /// `values` is scratch space for the fact's row.
    fn parse_fact(
        &mut self,
        values: &mut Vec<Value>,
        out: &mut Instance,
    ) -> Result<(), ParseError> {
        let at = self.pos();
        let mut scope = VarScope::default();
        let head = self.parse_head_literal(&mut scope)?;
        let mut heads = 1;
        while self.peek() == &TokenKind::Comma {
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
        if let Some(rel) = out
            .relation(atom.pred)
            .filter(|r| r.arity() != values.len())
        {
            return error(format!(
                "relation `{}` used with arity {} and {}",
                self.interner.name(atom.pred),
                rel.arity(),
                values.len()
            ));
        }
        out.insert_row(atom.pred, values);
        Ok(())
    }
}

/// Parses a program from source text.
pub fn parse_program(src: &str, interner: &mut Interner) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut parser = Parser::new(tokens.into_iter().map(Ok), interner);
    let mut rules = Vec::new();
    while parser.peek() != &TokenKind::Eof {
        rules.push(parser.parse_rule()?);
    }
    Ok(Program { rules })
}

/// Parses a fact file: a sequence of ground atoms terminated by `.`,
/// e.g. `G('a','b'). G('b','c').`. Returns the facts as an [`Instance`].
///
/// The file is read in one pass: each fact is lexed, parsed, checked
/// and stored as a row of its relation before the next one is read, so
/// no token list or rule is kept per fact.
pub fn parse_facts(src: &str, interner: &mut Interner) -> Result<Instance, ParseError> {
    let mut parser = Parser::new(Lexer::new(src), interner);
    let mut instance = Instance::new();
    let mut values = Vec::new();
    while parser.peek() != &TokenKind::Eof {
        let fact = parser.parse_fact(&mut values, &mut instance);
        parser.finish(fact)?;
    }
    parser.finish(Ok(instance))
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
