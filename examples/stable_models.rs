//! Stable models vs. the well-founded semantics (Section 3.3).
//!
//! The win-move program on the paper's instance `K` is the classic
//! showcase: the drawn cycle `a → b → c → a` makes the program
//! *incoherent* under stable semantics (no stable model at all), while
//! the well-founded semantics still answers — with those positions
//! marked unknown. On a 4-cycle, by contrast, there are two stable
//! models (the two alternating kernels) and the well-founded semantics
//! is fully undecided.
//!
//! ```sh
//! cargo run --example stable_models
//! ```

use unchained::common::{Instance, Interner, Tuple, Value};
use unchained::core::stable::{stable_models, StableOptions};
use unchained::core::{wellfounded, EvalOptions};
use unchained::harness::generators::paper_game;
use unchained::parser::parse_program;

fn main() {
    let mut interner = Interner::new();
    let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut interner).expect("parses");
    let win = interner.get("win").unwrap();
    let moves = interner.get("moves").unwrap();

    // 1. The paper's instance: WF answers, stable semantics does not.
    let input = paper_game(&mut interner, "moves");
    let wf = wellfounded::eval(&program, &input, EvalOptions::default()).unwrap();
    let models = stable_models(&program, &input, StableOptions::default()).unwrap();
    println!("paper instance K:");
    println!(
        "  well-founded: {} unknown facts (a, b, c drawn)",
        wf.unknown_facts().len()
    );
    println!(
        "  stable models: {} — the program is incoherent here",
        models.len()
    );
    assert!(models.is_empty());

    // 2. A 4-cycle: two stable models, WF fully unknown.
    let mut cycle = Instance::new();
    for k in 0..4i64 {
        cycle.insert_fact(moves, Tuple::from([Value::Int(k), Value::Int((k + 1) % 4)]));
    }
    let wf = wellfounded::eval(&program, &cycle, EvalOptions::default()).unwrap();
    let models = stable_models(&program, &cycle, StableOptions::default()).unwrap();
    println!("\n4-cycle:");
    println!(
        "  well-founded: {} unknown facts (all four)",
        wf.unknown_facts().len()
    );
    println!("  stable models: {}", models.len());
    for (idx, m) in models.iter().enumerate() {
        let wins: Vec<String> = m
            .relation(win)
            .unwrap()
            .sorted()
            .iter()
            .map(|t| t.display(&interner).to_string())
            .collect();
        println!("    model #{idx}: win{}", wins.join(" win"));
    }
    assert_eq!(models.len(), 2);

    // 3. Every stable model lies between WF-true and WF-possible.
    for m in &models {
        for t in wf
            .true_facts
            .relation(win)
            .into_iter()
            .flat_map(|r| r.iter())
        {
            assert!(m.contains_fact(win, &t));
        }
        for t in m.relation(win).unwrap().iter() {
            assert!(wf.possible_facts.contains_fact(win, &t));
        }
    }
    println!("\nall stable models lie inside the well-founded interval.");
}
