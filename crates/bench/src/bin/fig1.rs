//! Regenerates **Figure 1** of *Datalog Unchained* — the relative
//! expressive power of the Datalog variants — as an empirically
//! validated table: the diagram, then one PASS/FAIL line per witness
//! of [`unchained_bench::fig1::checks`]. Exits nonzero if any fails.
//!
//! Run with `cargo run --release -p unchained-bench --bin fig1`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let rows = unchained_bench::fig1::checks();
    println!("Figure 1 — Relative expressive power of Datalog variants (empirical reproduction)");
    println!();
    println!("    Datalog¬new  ≡  all computable queries");
    println!("        ⇑");
    println!("    Datalog¬¬  ≡  while");
    println!("        ↑   (strict iff ptime ≠ pspace)");
    println!("    well-founded Datalog¬  ≡  inflationary Datalog¬  ≡  fixpoint");
    println!("        ⇑");
    println!("    stratified Datalog¬");
    println!("        ⇑");
    println!("    Datalog");
    println!();
    println!("Empirical witnesses:");
    println!();
    let mut failures = 0;
    for check in &rows {
        let mark = if check.ok { "PASS" } else { "FAIL" };
        if !check.ok {
            failures += 1;
        }
        println!("  [{mark}] {}", check.id);
        println!("         {}", check.detail);
    }
    println!();
    println!("{} checks, {} failures", rows.len(), failures);
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
