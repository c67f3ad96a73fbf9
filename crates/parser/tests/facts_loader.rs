//! The streaming fact loader against the rule parser.
//!
//! `parse_facts` lexes, parses, checks and stores one fact at a time.
//! Its contract is the one the two-pass loader had: parse the whole
//! file with the rule grammar, then require every statement to be a
//! ground positive fact. These tests hold it to that oracle, built here
//! from `parse_program`, on every facts file under `examples/` and on
//! seeded byte mutations of them: both accept with the same facts, or
//! both reject.

use std::path::PathBuf;

use unchained_common::{Instance, Interner, Rng};
use unchained_parser::{parse_facts, parse_program, HeadLiteral, Term};

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

/// Checks the streaming loader against the oracle on `src`.
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
            "{context}: streaming loader gave {:?}, two-pass loader {:?}, on {src:?}",
            got.map(|i| i.fact_count()),
            want.map(|i| i.fact_count())
        ),
    }
}

/// Every facts file under `examples/`.
fn example_facts() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/programs exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.to_string_lossy().ends_with("_facts.dl"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable facts file");
            (p.file_name().unwrap().to_string_lossy().into_owned(), src)
        })
        .collect();
    files.sort();
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
