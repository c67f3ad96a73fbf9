//! Every Figure 1 witness holds: the paper's expressiveness hierarchy,
//! checked edge by edge (see `unchained_bench::fig1`).

#[test]
fn every_figure_1_witness_holds() {
    let checks = unchained_bench::fig1::checks();
    assert_eq!(checks.len(), 24, "one witness per figure edge and example");
    let failed: Vec<_> = checks.iter().filter(|c| !c.ok).collect();
    assert!(failed.is_empty(), "failed witnesses: {failed:#?}");
}
