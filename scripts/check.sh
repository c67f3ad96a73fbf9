#!/usr/bin/env sh
# The pre-PR gate: build, test, formatting, and a benchmark-harness
# smoke — fully offline. The workspace has no external dependencies,
# so everything here must pass without network access.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --workspace"
cargo build --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Second pass with the parallel executor as the suite-wide default:
# every engine test must produce identical results at 4 workers.
echo "==> cargo test --workspace -q (UNCHAINED_THREADS=4)"
UNCHAINED_THREADS=4 cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

# Benchmark harness smoke: a quick run must produce a valid BENCH.json,
# and comparing a second run against it must exit 0. The threshold is
# deliberately loose (10x) — this gates the harness and the
# deterministic work gauges, not machine-dependent wall times.
echo "==> bench --quick smoke + baseline self-comparison"
mkdir -p target
cargo run -q --release -p unchained-bench -- --quick --json target/bench-smoke.json >/dev/null
cargo run -q --release -p unchained-bench -- --quick --baseline target/bench-smoke.json \
    --threshold 10 >/dev/null

# Index-maintenance invariant: on chain TC the semi-naive engine must
# absorb each round's committed segment instead of rebuilding, so the
# committed BENCH.json's sequential chain/seminaive entry keeps
# index_rebuilds bounded by the relation count (2: G and T), not the
# round count (64).
echo "==> BENCH.json index_rebuilds bounded on chain TC"
rebuilds=$(grep '"workload":"chain","engine":"seminaive","threads":1' BENCH.json \
    | sed 's/.*"index_rebuilds":\([0-9]*\).*/\1/')
if [ -z "$rebuilds" ]; then
    echo "chain/seminaive (threads:1) entry missing from BENCH.json" >&2
    exit 1
fi
if [ "$rebuilds" -gt 2 ]; then
    echo "chain/seminaive index_rebuilds=$rebuilds scales with rounds (want <= 2)" >&2
    exit 1
fi

# Stage-driver invariants on the committed BENCH.json. Datalog¬¬ keeps
# its relations' lineage (no per-stage clone, exact states held as
# frozen segments), so chain/noninflationary absorbs every stage into
# its indexes: index_rebuilds stays bounded by the relation count (2),
# not the stage count. Inflationary stages after the first fire only
# the semi-naive variants over the last stage's delta, so on chain TC
# inflationary fires strictly fewer matches than naive's full stages.
echo "==> BENCH.json stage-driver gauges on chain TC"
chain_gauge() {
    grep "\"workload\":\"chain\",\"engine\":\"$1\",\"threads\":1" BENCH.json \
        | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}
non_rebuilds=$(chain_gauge noninflationary index_rebuilds)
infl_fired=$(chain_gauge inflationary rules_fired)
naive_fired=$(chain_gauge naive rules_fired)
if [ -z "$non_rebuilds" ] || [ -z "$infl_fired" ] || [ -z "$naive_fired" ]; then
    echo "chain noninflationary/inflationary/naive (threads:1) entries missing from BENCH.json" >&2
    exit 1
fi
if [ "$non_rebuilds" -gt 2 ]; then
    echo "chain/noninflationary index_rebuilds=$non_rebuilds scales with stages (want <= 2)" >&2
    exit 1
fi
if [ "$infl_fired" -ge "$naive_fired" ]; then
    echo "chain/inflationary rules_fired=$infl_fired not below naive's $naive_fired" >&2
    exit 1
fi

# Docs drift gate: DESIGN.md's layout must name every crate directory.
echo "==> DESIGN.md names every crates/* directory"
for dir in crates/*/; do
    name=$(basename "$dir")
    if ! grep -qF "$name/" DESIGN.md; then
        echo "DESIGN.md does not mention crates/$name" >&2
        exit 1
    fi
done

# Parallel-path invariant on the bench smoke just produced: the
# chain/seminaive@4 thread-scaling row must actually run parallel
# ("threads":4), derive exactly the facts and stages of the sequential
# row, and stay within an order of magnitude of its wall time (thread
# spawn/merge overhead at smoke sizes; a pathological slowdown or a
# fallback to sequential fails here).
echo "==> bench smoke parallel row: enabled, identical work, sane wall time"
seq_row=$(grep '"workload":"chain","engine":"seminaive","threads":1' target/bench-smoke.json)
par_row=$(grep '"workload":"chain","engine":"seminaive","threads":4' target/bench-smoke.json)
if [ -z "$par_row" ]; then
    echo "chain/seminaive threads:4 row missing from bench smoke (parallel path not enabled)" >&2
    exit 1
fi
pick() { printf '%s' "$1" | sed "s/.*\"$2\":\([0-9]*\).*/\1/"; }
if [ "$(pick "$seq_row" facts_derived)" != "$(pick "$par_row" facts_derived)" ] \
    || [ "$(pick "$seq_row" stages)" != "$(pick "$par_row" stages)" ] \
    || [ "$(pick "$seq_row" rules_fired)" != "$(pick "$par_row" rules_fired)" ]; then
    echo "parallel chain/seminaive row drifted from sequential work gauges" >&2
    echo "  seq: $seq_row" >&2
    echo "  par: $par_row" >&2
    exit 1
fi
seq_median=$(printf '%s' "$seq_row" | sed 's/.*"median":\([0-9]*\).*/\1/')
par_median=$(printf '%s' "$par_row" | sed 's/.*"median":\([0-9]*\).*/\1/')
# 5ms of absolute slack on top of the 10x ratio: smoke-size rounds are
# microseconds, so per-round thread spawn/join overhead (~1-2ms across a
# 16-round chain) dominates the parallel median. The gate exists to
# catch pathological blowups (tens of ms), not spawn overhead.
if [ "$par_median" -gt $(( seq_median * 10 + 5000000 )) ]; then
    echo "parallel chain/seminaive pathologically slower than sequential" >&2
    echo "  seq median: ${seq_median}ns, par median: ${par_median}ns" >&2
    exit 1
fi

# Observability gate: a seeded 4-worker profile run must emit a valid
# Chrome trace-event file containing the full span taxonomy (validated
# by `unchained trace-check`, which parses the JSON and checks kinds),
# print the hottest-rules table, and the metrics scrape must expose the
# required series in the Prometheus text format.
echo "==> profile smoke: span kinds, hottest rules, metrics series"
profile_out=$(cargo run -q --release -p unchained-cli -- run -s seminaive \
    examples/programs/tc.dl examples/programs/tc_facts.dl \
    --threads 4 --profile target/profile-smoke.trace.json \
    --metrics target/profile-smoke.prom)
if ! printf '%s' "$profile_out" | grep -q "hottest rules"; then
    echo "profile run printed no hottest-rules table" >&2
    exit 1
fi
cargo run -q --release -p unchained-cli -- trace-check \
    target/profile-smoke.trace.json \
    --expect eval,stratum,round,rule,worker,join >/dev/null
for series in 'unchained_eval_runs_total{engine="seminaive"}' \
    unchained_eval_wall_seconds_bucket unchained_trace_spans; do
    if ! grep -q "$series" target/profile-smoke.prom; then
        echo "metrics scrape is missing series $series" >&2
        cat target/profile-smoke.prom >&2
        exit 1
    fi
done

# Space-accounting gate: a --memstats run must print a per-relation
# byte tree with a non-zero relation line and the additivity verdict
# (every branch's bytes equal to the sum of its children), and the
# report must be byte-identical at 1 and 4 workers.
echo "==> memstats smoke: non-zero relation bytes, additive, thread-invariant"
mem1=$(cargo run -q --release -p unchained-cli -- run -s seminaive \
    examples/programs/tc.dl examples/programs/tc_facts.dl --memstats --threads 1)
mem4=$(cargo run -q --release -p unchained-cli -- run -s seminaive \
    examples/programs/tc.dl examples/programs/tc_facts.dl --memstats --threads 4)
if ! printf '%s' "$mem1" | grep -q 'additive: ok'; then
    echo "memstats run failed the additivity check:" >&2
    printf '%s\n' "$mem1" >&2
    exit 1
fi
if printf '%s' "$mem1" | grep -q 'T/2  *0B'; then
    echo "memstats reports zero bytes for the derived relation T" >&2
    exit 1
fi
if [ "$mem1" != "$mem4" ]; then
    echo "memstats output differs between --threads 1 and --threads 4" >&2
    exit 1
fi

# Bench-history gate: the committed BENCH.json must validate against
# the last run of the committed append-only BENCH_HISTORY.json. The
# comparison checks only deterministic gauges (bytes growth, facts
# drift) — never wall time — so it passes on any machine.
echo "==> bench compare --history self-comparison on committed artifacts"
cargo run -q --release -p unchained-bench -- compare BENCH.json \
    --history BENCH_HISTORY.json >/dev/null

# Planner gate 1: `unchained plan` on the chain-TC example must render
# a cost-mode plan for every rule — a scan/join chain per rule, at
# least one Δ variant for the recursive rule, and the planner footer
# with the pruning/sharing gauges.
echo "==> plan smoke: cost-mode plans render for chain TC"
plan_out=$(cargo run -q --release -p unchained-cli -- plan \
    examples/programs/tc.dl examples/programs/tc_facts.dl)
for needle in '% mode: cost' 'rule 1:' 'scan ' 'join ' 'Δ variant:' '% planner:'; do
    if ! printf '%s' "$plan_out" | grep -qF "$needle"; then
        echo "plan output is missing \`$needle\`:" >&2
        printf '%s\n' "$plan_out" >&2
        exit 1
    fi
done

# Planner gate 2: the planner campaign differentially runs cost-based
# plans against the syntactic reference (sequential and parallel legs)
# on skewed-cardinality instances. A fixed seed keeps it deterministic;
# any divergence means plan choice leaked into semantics.
echo "==> fuzz smoke: planner/42/100, zero divergences"
rm -rf target/fuzz-planner-corpus
cargo run -q --release -p unchained-fuzz -- --campaign planner --seed 42 \
    --budget 100 --json target/fuzz-planner.json --corpus target/fuzz-planner-corpus \
    >/dev/null
if ! grep -q '"divergences":0' target/fuzz-planner.json; then
    echo "planner fuzz smoke found divergences:" >&2
    cat target/fuzz-planner.json >&2
    exit 1
fi

# Incremental-maintenance gate 1: the edit-script campaign drives an
# IncrementalSession through seeded insert/retract batches and compares
# every poll against from-scratch evaluation at 1 and 4 threads. A
# fixed seed keeps it deterministic; any divergence means maintenance
# drifted from the batch semantics.
echo "==> fuzz smoke: edits/42/200, zero divergences"
rm -rf target/fuzz-edits-corpus
cargo run -q --release -p unchained-fuzz -- --campaign edits --seed 42 \
    --budget 200 --json target/fuzz-edits.json --corpus target/fuzz-edits-corpus \
    >/dev/null
if ! grep -q '"divergences":0' target/fuzz-edits.json; then
    echo "edit-script fuzz smoke found divergences:" >&2
    cat target/fuzz-edits.json >&2
    exit 1
fi

# Incremental-maintenance gate 2: the ivm bench case retracts a chain
# edge, polls, and fails its own runner unless the poll overdeletes
# something and lands byte-identical to a from-scratch evaluation — so
# a quick filtered run is a conformance check, and the row must carry
# the DRed gauges.
echo "==> bench smoke: ivm case overdeletes and matches from-scratch"
cargo run -q --release -p unchained-bench -- --quick --filter ivm \
    --json target/bench-ivm.json >/dev/null
ivm_row=$(grep '"workload":"ivm","engine":"incremental"' target/bench-ivm.json)
if [ -z "$ivm_row" ]; then
    echo "ivm/incremental row missing from filtered bench smoke" >&2
    exit 1
fi
if [ "$(pick "$ivm_row" overdeleted)" = "0" ]; then
    echo "ivm bench row reports ivm_overdeleted=0 (retraction maintained nothing)" >&2
    echo "  row: $ivm_row" >&2
    exit 1
fi

# Columnar/morsel gate 1: the scale campaign runs layered digraphs of
# 10^4–10^5 EDB facts through the sequential engine vs morsel-parallel
# at 2/4/8 threads (model + stage-count equality) plus an incremental
# edit-script pass. A divergence here means the columnar layout or the
# morsel scheduler leaked into semantics at sizes the small-grammar
# campaigns never reach.
echo "==> fuzz smoke: scale/42/50, zero divergences"
rm -rf target/fuzz-scale-corpus
cargo run -q --release -p unchained-fuzz -- --campaign scale --seed 42 \
    --budget 50 --json target/fuzz-scale.json --corpus target/fuzz-scale-corpus \
    >/dev/null
if ! grep -q '"divergences":0' target/fuzz-scale.json; then
    echo "scale fuzz smoke found divergences:" >&2
    cat target/fuzz-scale.json >&2
    exit 1
fi

# Columnar/morsel gate 2: one full-size scale workload (Andersen
# points-to, 4.4e5-fact EDB) through the bench harness at one timed
# repetition. The thread-scaling rows must report byte-identical work
# gauges (facts, stages, rules fired) — the morsel scheduler is only
# allowed to change wall time — and the parallel wall time must stay
# within the same order of magnitude as sequential (this container is
# single-core, so parallel rows are legitimately slower, never faster;
# the gate catches pathological blowups, not missing speedups).
echo "==> bench smoke: scale_pointsto work-gauge equality seq vs parallel"
cargo run -q --release -p unchained-bench -- --filter scale_pointsto --reps 1 \
    --json target/bench-scale.json >/dev/null
scale_seq=$(grep '"workload":"scale_pointsto","engine":"seminaive","threads":1' \
    target/bench-scale.json)
if [ -z "$scale_seq" ]; then
    echo "scale_pointsto threads:1 row missing from bench smoke" >&2
    exit 1
fi
for t in 2 4 8; do
    scale_par=$(grep "\"workload\":\"scale_pointsto\",\"engine\":\"seminaive\",\"threads\":$t" \
        target/bench-scale.json)
    if [ -z "$scale_par" ]; then
        echo "scale_pointsto threads:$t row missing from bench smoke" >&2
        exit 1
    fi
    if [ "$(pick "$scale_seq" facts_derived)" != "$(pick "$scale_par" facts_derived)" ] \
        || [ "$(pick "$scale_seq" stages)" != "$(pick "$scale_par" stages)" ] \
        || [ "$(pick "$scale_seq" rules_fired)" != "$(pick "$scale_par" rules_fired)" ]; then
        echo "scale_pointsto threads:$t row drifted from sequential work gauges" >&2
        echo "  seq: $scale_seq" >&2
        echo "  par: $scale_par" >&2
        exit 1
    fi
    par_median=$(printf '%s' "$scale_par" | sed 's/.*"median":\([0-9]*\).*/\1/')
    seq_median=$(printf '%s' "$scale_seq" | sed 's/.*"median":\([0-9]*\).*/\1/')
    if [ "$par_median" -gt $(( seq_median * 10 + 5000000 )) ]; then
        echo "scale_pointsto threads:$t pathologically slower than sequential" >&2
        echo "  seq median: ${seq_median}ns, par median: ${par_median}ns" >&2
        exit 1
    fi
done

# Differential-fuzzer smoke: the fixed CI triple (positive/42/200) must
# run every oracle leg with zero divergences and an empty corpus, and
# the run must be deterministic enough to gate (same seed, same
# FUZZ.json on every machine — see EXPERIMENTS.md, Fuzzing campaigns).
echo "==> fuzz smoke: positive/42/200, zero divergences"
rm -rf target/fuzz-corpus
cargo run -q --release -p unchained-fuzz -- --seed 42 --budget 200 \
    --json target/fuzz-smoke.json --corpus target/fuzz-corpus >/dev/null
if ! grep -q '"divergences":0' target/fuzz-smoke.json; then
    echo "fuzz smoke found divergences:" >&2
    cat target/fuzz-smoke.json >&2
    exit 1
fi
if [ -d target/fuzz-corpus ] && [ -n "$(ls target/fuzz-corpus 2>/dev/null)" ]; then
    echo "fuzz smoke wrote repros despite divergences:0" >&2
    exit 1
fi

# The negation triple (negation/42/200) gates the Datalog¬ engines the
# positive campaign cannot reach: stratified against well-founded, and
# the inflationary family (plain, semi-naive, birth-traced, Datalog¬¬)
# stage for stage.
echo "==> fuzz smoke: negation/42/200, zero divergences"
rm -rf target/fuzz-negation-corpus
cargo run -q --release -p unchained-fuzz -- --campaign negation --seed 42 \
    --budget 200 --json target/fuzz-negation.json --corpus target/fuzz-negation-corpus \
    >/dev/null
if ! grep -q '"divergences":0' target/fuzz-negation.json; then
    echo "negation fuzz smoke found divergences:" >&2
    cat target/fuzz-negation.json >&2
    exit 1
fi

# Shrinker self-test: with a deliberately wrong oracle leg injected,
# the campaign must (a) detect divergences (exit 1) and (b) delta-debug
# every witness down to a repro of at most 3 rules.
echo "==> fuzz shrinker self-test: injected fault shrinks to <= 3 rules"
rm -rf target/fuzz-fault-corpus
set +e
cargo run -q --release -p unchained-fuzz -- --seed 7 --budget 20 --inject-fault \
    --json target/fuzz-fault.json --corpus target/fuzz-fault-corpus >/dev/null
fault_status=$?
set -e
if [ "$fault_status" != 1 ]; then
    echo "fault-injected fuzz run exited $fault_status (want 1: divergences found)" >&2
    exit 1
fi
repros=$(ls target/fuzz-fault-corpus/*.dl 2>/dev/null || true)
if [ -z "$repros" ]; then
    echo "fault-injected fuzz run wrote no repros" >&2
    exit 1
fi
for dl in $repros; do
    rules=$(grep -c -v '^%' "$dl")
    if [ "$rules" -gt 3 ]; then
        echo "repro $dl has $rules rules after shrinking (want <= 3)" >&2
        exit 1
    fi
done

echo "All checks passed."
