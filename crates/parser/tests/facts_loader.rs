//! The fact loader against the rule parser.
//!
//! `parse_facts` reads each fact straight into its relation's rows and
//! falls back to the rule grammar for any other statement. Its contract
//! is the one the two-pass loader had: parse the whole file with the
//! rule grammar, then require every statement to be a ground positive
//! fact. These tests hold it to that oracle, built here from
//! `parse_program`, on every facts file under `examples/` and on seeded
//! byte mutations of them: both accept with the same facts, or both
//! reject. They also pin each error's message and position, the
//! storage the loader builds, and `parse_program`'s output on the
//! examples.

use std::path::PathBuf;

use unchained_common::{Instance, Interner, Rng, Symbol, Value};
use unchained_parser::{parse_facts, parse_program, HeadLiteral, ParseError, Pos, Term};

/// The two-pass loader: `parse_program`, then the ground-fact check
/// (with one arity per relation).
fn oracle(src: &str, interner: &mut Interner) -> Result<Instance, String> {
    let program = parse_program(src, interner).map_err(|e| e.to_string())?;
    program.schema().map_err(|e| format!("{e:?}"))?;
    let mut instance = Instance::new();
    for rule in &program.rules {
        if !rule.body.is_empty() || rule.head.len() != 1 || !rule.forall.is_empty() {
            return Err("not a ground fact".into());
        }
        let HeadLiteral::Pos(atom) = &rule.head[0] else {
            return Err("not a positive fact".into());
        };
        let mut row = Vec::new();
        for arg in &atom.args {
            match arg {
                Term::Const(v) => row.push(*v),
                Term::Var(_) => return Err("not ground".into()),
            }
        }
        instance.insert_row(atom.pred, &row);
    }
    Ok(instance)
}

/// Checks the fact loader against the oracle on `src`.
fn agree(src: &str, context: &str) {
    let (mut i1, mut i2) = (Interner::new(), Interner::new());
    let streamed = parse_facts(src, &mut i1);
    let expected = oracle(src, &mut i2);
    match (streamed, expected) {
        (Ok(got), Ok(want)) => assert_eq!(
            got.display(&i1).to_string(),
            want.display(&i2).to_string(),
            "{context}: facts differ on {src:?}"
        ),
        (Err(_), Err(_)) => {}
        (got, want) => panic!(
            "{context}: fact loader gave {:?}, two-pass loader {:?}, on {src:?}",
            got.map(|i| i.fact_count()),
            want.map(|i| i.fact_count())
        ),
    }
}

/// Every file under `examples/programs` whose name ends in `suffix`,
/// with its text, by name.
fn example_files(suffix: &str) -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/programs exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable facts file");
            (p.file_name().unwrap().to_string_lossy().into_owned(), src)
        })
        .collect();
    files.sort();
    files
}

/// Every facts file under `examples/`.
fn example_facts() -> Vec<(String, String)> {
    let files = example_files("_facts.dl");
    assert!(files.len() >= 5, "expected the example facts files");
    files
}

#[test]
fn example_facts_files_load_as_the_two_pass_loader_does() {
    for (name, src) in example_facts() {
        agree(&src, &name);
        let mut i = Interner::new();
        assert!(parse_facts(&src, &mut i).is_ok(), "{name} must load");
    }
}

#[test]
fn mutated_facts_files_load_or_fail_as_the_two_pass_loader_does() {
    // Bytes that shift a fact file between the grammar's cases: rules,
    // variables, negation, comments, quotes, bad characters.
    const ALPHABET: &[u8] = b"(),.:-!x'\"%/ \n09G$<=_";
    let mut rng = Rng::seeded(0x10AD);
    let mut rejected = 0;
    let mut runs = 0;
    for (name, src) in example_facts() {
        for round in 0..150 {
            let mut bytes = src.as_bytes().to_vec();
            for _ in 0..1 + rng.gen_index(3) {
                let at = rng.gen_index(bytes.len() + 1);
                let b = ALPHABET[rng.gen_index(ALPHABET.len())];
                match rng.gen_index(3) {
                    0 if at < bytes.len() => bytes[at] = b,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, b),
                }
            }
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue; // the mutation split a multi-byte character
            };
            runs += 1;
            agree(&mutated, &format!("{name} mutation {round}"));
            let mut i = Interner::new();
            rejected += usize::from(parse_facts(&mutated, &mut i).is_err());
        }
    }
    assert!(runs > 500, "only {runs} mutations were valid UTF-8");
    assert!(
        rejected > runs / 10 && rejected < runs,
        "mutations should both load and fail: {rejected} of {runs} rejected"
    );
}

/// The error `parse_facts` gives on `src`.
fn facts_error(src: &str) -> ParseError {
    parse_facts(src, &mut Interner::new()).expect_err("the file must be rejected")
}

/// Each class of error reads and points as the rule grammar reports it:
/// a check of the fact at the statement's first token, a lex error at
/// the offending character — also after non-ASCII text on its line,
/// where columns count characters, not bytes.
#[test]
fn each_error_class_keeps_its_message_and_position() {
    // (statement, message, column of the error within the statement,
    // whether the rule grammar alone already rejects it).
    let cases: &[(&str, &str, u32, bool)] = &[
        (
            "G(x,3).",
            "fact contains variable `x`; facts must be ground",
            0,
            false,
        ),
        (
            "!G(1,3).",
            "fact files may only contain positive facts",
            0,
            false,
        ),
        (
            "A(1) :- B(1).",
            "fact files may only contain ground facts",
            0,
            false,
        ),
        (
            "A(1), B(2).",
            "fact files may only contain ground facts",
            0,
            false,
        ),
        ("G(3).", "relation `G` used with arity 2 and 1", 0, false),
        ("G('a, 1).", "unterminated quoted constant", 2, true),
        ("G(- 1, 2).", "expected digits after `-`", 2, true),
        (
            "G(1, 99999999999999999999).",
            "integer out of range: 99999999999999999999",
            5,
            true,
        ),
        ("G(1 / 2).", "unexpected `/` (did you mean `//`?)", 4, true),
        ("G(1 < 2).", "unexpected `<` (did you mean `<>`?)", 4, true),
        (
            "G(1, 2) A(3).",
            "expected `.`, found identifier `A`",
            8,
            true,
        ),
    ];
    for prefix in ["", "Ä('é', 'ø'). ", "% ü\u{a0}\nΩμ(2). "] {
        for &(statement, message, offset, syntax) in cases {
            let src = format!("G(1,2).\n{prefix}{statement}");
            let line_start = prefix.rfind('\n').map_or(0, |i| i + 1);
            let line = 2 + prefix.matches('\n').count() as u32;
            let col = 1 + prefix[line_start..].chars().count() as u32 + offset;
            let err = facts_error(&src);
            assert_eq!(err.message, message, "on {src:?}");
            assert_eq!(err.pos, Pos { line, col }, "on {src:?}");
            if syntax {
                let rule_err = parse_program(&src, &mut Interner::new()).unwrap_err();
                assert_eq!(err, rule_err, "on {src:?}");
            }
        }
    }
}

/// The instance `parse_program` plus `insert_row` of every fact builds,
/// committed.
fn inserted_and_committed(src: &str, interner: &mut Interner) -> Instance {
    let mut instance = oracle(src, interner).expect("a valid facts file");
    instance.commit_all();
    instance
}

/// Checks that `parse_facts` builds exactly the storage `insert_row` of
/// each fact and a commit leave: the same rows in the same storage
/// order, the same fingerprint and length, one segment, no tail.
fn same_storage(src: &str, context: &str) {
    let (mut i1, mut i2) = (Interner::new(), Interner::new());
    let loaded = parse_facts(src, &mut i1).expect("a valid facts file");
    let built = inserted_and_committed(src, &mut i2);
    let names: Vec<Symbol> = loaded.symbols().collect();
    assert_eq!(names, built.symbols().collect::<Vec<_>>(), "{context}");
    assert_eq!(i1.len(), i2.len(), "{context}: interned symbols differ");
    for pred in names {
        assert_eq!(i1.name(pred), i2.name(pred), "{context}");
        let (got, want) = (
            loaded.relation(pred).unwrap(),
            built.relation(pred).unwrap(),
        );
        let rows = |r: &unchained_common::Relation| -> Vec<Vec<Value>> {
            r.iter_stored().map(<[Value]>::to_vec).collect()
        };
        assert_eq!(rows(got), rows(want), "{context}: {}", i1.name(pred));
        assert_eq!(got.arity(), want.arity(), "{context}");
        assert_eq!(got.len(), want.len(), "{context}");
        assert_eq!(got.fingerprint(), want.fingerprint(), "{context}");
        assert_eq!(got.segment_lens(), want.segment_lens(), "{context}");
        assert_eq!(got.segment_count(), 1, "{context}");
        assert_eq!(got.recent_len(), 0, "{context}");
        assert!(
            want.iter_stored().all(|row| got.contains_row(row)),
            "{context}"
        );
    }
    assert_eq!(loaded.fingerprint(), built.fingerprint(), "{context}");
}

#[test]
fn loaded_relations_are_stored_as_insert_and_commit_store_them() {
    for (name, src) in example_facts() {
        same_storage(&src, &name);
    }
    // Duplicates within and across lines, arity-0 facts (also repeated),
    // runs of one predicate broken by another, symbols and integers.
    same_storage(
        "G(3,1). G(1,2). G(3,1).\nflag. G(1,2).\nflag.\nH('b'). H('a').\n\
         G(-4, 0). H('b'). G(2,2). empty(). flag.\nW(1,'x',3,4,5). W(1,'x',3,4,5). W(0,'y',3,4,5).",
        "duplicates",
    );
    // A statement only the rule grammar reads as a fact still lands in
    // the same relation.
    same_storage("G(2,1). G(1,2) :- . G(0,0).", "empty rule body");
}

/// `parse_program`'s output on every program under `examples/`, and its
/// error on a set of malformed programs, rendered as in the golden file
/// `tests/data/parse_program.golden`: the interned names in symbol
/// order, then the program's `Debug` form, or the error.
fn parse_program_dump() -> String {
    let mut sources = example_files(".dl");
    assert!(sources.len() >= 10, "expected the example programs");
    let malformed = [
        "T(x, y) :- G(x, y)",
        "T(x, y) :- G(x, y), .",
        "é(x) ← ¬ü(x), x ≠ 'ß' $",
        "A(x) :- forall y : B(x, y), !C(y).\n  A(x) <- B(x).",
        "A('open) :- B(1).",
        "A(-) :- B(1).",
        "∀ :- ⊥.",
        "A(9223372036854775807, -9223372036854775808, 9223372036854775808).",
    ];
    for (k, src) in malformed.iter().enumerate() {
        sources.push((format!("malformed {k}"), src.to_string()));
    }
    let mut out = String::new();
    for (name, src) in sources {
        let mut interner = Interner::new();
        let parsed = parse_program(&src, &mut interner);
        let names: Vec<&str> = (0..interner.len())
            .map(|k| interner.name(Symbol::from_index(k)))
            .collect();
        out.push_str(&format!("== {name}\nsymbols {names:?}\n"));
        match parsed {
            Ok(program) => out.push_str(&format!("{program:?}\n")),
            Err(e) => out.push_str(&format!("error {e}\n")),
        }
    }
    out
}

#[test]
fn parse_program_output_is_unchanged_on_the_examples() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/parse_program.golden");
    let want = std::fs::read_to_string(&golden).expect("golden file exists");
    let got = parse_program_dump();
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {}", k + 1, golden.display());
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
