//! Text syntax for while / fixpoint programs.
//!
//! Grammar (formulas follow `unchained_fo::text`):
//!
//! ```text
//! program ::= stmt*
//! stmt    ::= ident (":=" | "+=") "W"? "{" var ("," var)* "|" phi "}" ";"
//!           | ident (":=" | "+=") "W"? "{" "|" phi "}" ";"        (zero-ary)
//!           | "while" "change" "do" stmt* "end" ";"?
//!           | "while" "(" phi ")" "do" stmt* "end" ";"?
//! ```
//!
//! Example — the fixpoint program of Example 4.4 (`good` = nodes not
//! reachable from a cycle):
//!
//! ```text
//! while change do
//!   good += { x | forall y (G(y,x) -> good(y)) };
//! end
//! ```
//!
//! Variables are program-scoped (one [`VarSet`] for the whole program),
//! mirroring the relation-variable scoping of the language itself.

use crate::ast::{Assignment, LoopCondition, Stmt, WhileProgram};
use unchained_common::Interner;
use unchained_fo::text::{Cursor, TextError, Tok};
use unchained_fo::{FoVar, VarSet};

fn parse_stmt(cursor: &mut Cursor<'_>) -> Result<Stmt, TextError> {
    match cursor.peek().clone() {
        Tok::While => {
            cursor.bump();
            let condition = match cursor.peek() {
                Tok::Change => {
                    cursor.bump();
                    LoopCondition::Change
                }
                Tok::LParen => {
                    cursor.bump();
                    let phi = cursor.parse_formula()?;
                    cursor.expect(&Tok::RParen)?;
                    LoopCondition::Sentence(phi)
                }
                other => {
                    return Err(cursor.error(format!("expected `change` or `(φ)`, found {other}")))
                }
            };
            cursor.expect(&Tok::Do)?;
            let mut body = Vec::new();
            while cursor.peek() != &Tok::End {
                body.push(parse_stmt(cursor)?);
            }
            cursor.expect(&Tok::End)?;
            if cursor.peek() == &Tok::Semi {
                cursor.bump();
            }
            Ok(Stmt::While { condition, body })
        }
        Tok::Ident(name) => {
            cursor.bump();
            let target = cursor.interner.intern(&name);
            let mode = match cursor.bump() {
                Tok::Assign => Assignment::Replace,
                Tok::CumAssign => Assignment::Cumulate,
                other => return Err(cursor.error(format!("expected `:=` or `+=`, found {other}"))),
            };
            let witness = if cursor.peek() == &Tok::Witness {
                cursor.bump();
                true
            } else {
                false
            };
            cursor.expect(&Tok::LBrace)?;
            // Head variable list up to `|` (may be empty for zero-ary
            // relations).
            let mut vars: Vec<FoVar> = Vec::new();
            while cursor.peek() != &Tok::Bar {
                match cursor.bump() {
                    Tok::Ident(v) => {
                        vars.push(cursor.vars.var(&v));
                        if cursor.peek() == &Tok::Comma {
                            cursor.bump();
                        }
                    }
                    other => {
                        return Err(cursor.error(format!("expected variable or `|`, found {other}")))
                    }
                }
            }
            cursor.expect(&Tok::Bar)?;
            let formula = cursor.parse_formula()?;
            cursor.expect(&Tok::RBrace)?;
            cursor.expect(&Tok::Semi)?;
            if witness {
                Ok(Stmt::AssignWitness {
                    target,
                    vars,
                    formula,
                    mode,
                })
            } else {
                Ok(Stmt::Assign {
                    target,
                    vars,
                    formula,
                    mode,
                })
            }
        }
        other => Err(cursor.error(format!("expected statement, found {other}"))),
    }
}

/// Parses a while-language program. Returns the program together with
/// its variable namespace (useful for diagnostics).
pub fn parse_while_program(
    src: &str,
    interner: &mut Interner,
) -> Result<(WhileProgram, VarSet), TextError> {
    let mut vars = VarSet::new();
    let mut stmts = Vec::new();
    {
        let mut cursor = Cursor::new(src, interner, &mut vars)?;
        while !cursor.at_eof() {
            stmts.push(parse_stmt(&mut cursor)?);
        }
    }
    Ok((WhileProgram::new(stmts), vars))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run;
    use unchained_common::{Instance, Tuple, Value};

    fn line(interner: &mut Interner, n: i64) -> Instance {
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for k in 0..n - 1 {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        inst
    }

    #[test]
    fn fixpoint_tc_from_text() {
        let mut i = Interner::new();
        let (program, _) = parse_while_program(
            "while change do\n\
               T += { x, y | G(x,y) or exists z (T(x,z) & G(z,y)) };\n\
             end",
            &mut i,
        )
        .unwrap();
        assert!(program.is_fixpoint());
        let input = line(&mut i, 5);
        let result = run(&program, &input, 10_000, None).unwrap();
        let t = i.get("T").unwrap();
        assert_eq!(result.instance.relation(t).unwrap().len(), 10);
    }

    #[test]
    fn example_4_4_from_text() {
        let mut i = Interner::new();
        let (program, _) = parse_while_program(
            "while change do\n\
               good += { x | forall y (G(y,x) -> good(y)) };\n\
             end",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let good = i.get("good").unwrap();
        let mut input = Instance::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (3, 4), (6, 4)] {
            input.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        let result = run(&program, &input, 10_000, None).unwrap();
        let rel = result.instance.relation(good).unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&Tuple::from([Value::Int(6)])));
    }

    #[test]
    fn destructive_assignment_and_sentence_loop() {
        // Repeatedly delete sinks from a working copy of G; the loop
        // drains acyclic graphs completely (a classic while query).
        let mut i = Interner::new();
        let (program, _) = parse_while_program(
            "E := { x, y | G(x,y) };\n\
              while (exists x, y (E(x,y))) do\n\
                E := { x, y | E(x,y) & exists z (E(y,z)) };\n\
              end",
            &mut i,
        )
        .unwrap();
        assert!(!program.is_fixpoint());
        let input = line(&mut i, 5);
        let result = run(&program, &input, 10_000, None).unwrap();
        let e = i.get("E").unwrap();
        assert!(result.instance.relation(e).unwrap().is_empty());
        assert!(result.iterations > 1);
    }

    #[test]
    fn witness_assignment_from_text() {
        let mut i = Interner::new();
        let (program, _) = parse_while_program("picked := W { x | R(x) };", &mut i).unwrap();
        assert!(program.has_witness());
        let r = i.get("R").unwrap();
        let mut input = Instance::new();
        for k in 0..5 {
            input.insert_fact(r, Tuple::from([Value::Int(k)]));
        }
        let mut chooser = |_n: usize| 2usize;
        let result = run(&program, &input, 100, Some(&mut chooser)).unwrap();
        let picked = i.get("picked").unwrap();
        let rel = result.instance.relation(picked).unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&Tuple::from([Value::Int(2)])));
    }

    /// Witness choice points reach the trace in the order they happen —
    /// before a loop, in each of its iterations, after it — beside the
    /// loop's iteration count.
    #[test]
    fn trace_lists_choice_points_in_order() {
        let mut i = Interner::new();
        let (program, _) = parse_while_program(
            "first := W { x | R(x) };\n\
             while change do\n\
               S += W { x | R(x) & !S(x) };\n\
             end\n\
             last := W { x, y | R(x) & R(y) };",
            &mut i,
        )
        .unwrap();
        let r = i.get("R").unwrap();
        let mut input = Instance::new();
        for k in 0..3 {
            input.insert_fact(r, Tuple::from([Value::Int(k)]));
        }
        let tel = unchained_common::Telemetry::enabled();
        let mut chooser = |_n: usize| 0usize;
        let result =
            crate::run_traced(&program, &input, 100, Some(&mut chooser), tel.clone()).unwrap();
        let trace = tel.snapshot().unwrap();
        assert_eq!(trace.engine, "while");
        assert_eq!(trace.loop_iterations, result.iterations);
        // R has 3 values: 1 choice of 3, the loop's 3, 2, 1 (its last
        // iteration finds nothing to choose), then 1 of 9 pairs.
        assert_eq!(trace.choice_points, vec![3, 3, 2, 1, 9]);
        assert_eq!(trace.final_facts, result.instance.fact_count());
    }

    #[test]
    fn zero_ary_assignment() {
        let mut i = Interner::new();
        let (program, _) = parse_while_program("flag := { | exists x (R(x)) };", &mut i).unwrap();
        let r = i.intern("R");
        let mut input = Instance::new();
        input.insert_fact(r, Tuple::from([Value::Int(1)]));
        let result = run(&program, &input, 10, None).unwrap();
        let flag = i.get("flag").unwrap();
        assert_eq!(result.instance.relation(flag).unwrap().len(), 1);
    }

    #[test]
    fn nested_loops() {
        let mut i = Interner::new();
        let (program, _) = parse_while_program(
            "while change do\n\
               A += { x | R(x) };\n\
               while change do\n\
                 B += { x | A(x) };\n\
               end\n\
             end",
            &mut i,
        )
        .unwrap();
        let r = i.get("R").unwrap();
        let mut input = Instance::new();
        input.insert_fact(r, Tuple::from([Value::Int(7)]));
        let result = run(&program, &input, 100, None).unwrap();
        let b = i.get("B").unwrap();
        assert_eq!(result.instance.relation(b).unwrap().len(), 1);
    }

    #[test]
    fn parse_errors() {
        let mut i = Interner::new();
        assert!(parse_while_program("T := { x | G(x) }", &mut i).is_err()); // missing ;
        assert!(parse_while_program("while do end", &mut i).is_err());
        assert!(parse_while_program("T = { x | G(x) };", &mut i).is_err());
        assert!(parse_while_program("while change do T += { x | G(x) };", &mut i).is_err());
    }
}
