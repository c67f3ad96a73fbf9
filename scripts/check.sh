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

# Size gate: the non-test code of crates/core/src (each file counted up
# to its first #[cfg(test)]) stays under 5,800 lines, and that of
# crates/common/src under 5,200. crates/bench/src (the BENCH.json
# schema and workload registry) is counted and printed, not gated.
echo "==> non-test lines: crates/core/src under 5800, crates/common/src under 5200"
nontest_lines() {
    for f in "$1"/*.rs; do
        awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }'
}
core_lines=$(nontest_lines crates/core/src)
common_lines=$(nontest_lines crates/common/src)
bench_lines=$(nontest_lines crates/bench/src)
echo "crates/core/src: $core_lines, crates/common/src: $common_lines, crates/bench/src: $bench_lines"
if [ "$core_lines" -ge 5800 ]; then
    echo "crates/core/src has $core_lines non-test lines (want under 5800)" >&2
    exit 1
fi
if [ "$common_lines" -ge 5200 ]; then
    echo "crates/common/src has $common_lines non-test lines (want under 5200)" >&2
    exit 1
fi

# One firing loop: outside the executor (exec.rs), the stage driver
# (fixpoint.rs) and its parallel firing (parallel.rs), no non-test line
# of crates/core/src calls `for_each_match(`. Every forward-chaining
# stage runs through `fixpoint::Stages`.
echo "==> for_each_match( called only by exec.rs, fixpoint.rs and parallel.rs"
for f in crates/core/src/*.rs; do
    case "$(basename "$f")" in exec.rs | fixpoint.rs | parallel.rs) continue ;; esac
    calls=$(awk '/#\[cfg\(test\)\]/ { exit } /for_each_match\(/ { print FILENAME ":" FNR ": " $0 }' "$f")
    if [ -n "$calls" ]; then
        echo "a firing loop outside the stage driver calls for_each_match(:" >&2
        printf '%s\n' "$calls" >&2
        exit 1
    fi
done

# Safe code only: no `unsafe` block, fn, impl, trait or extern block
# appears in crates/*/src (comment lines are skipped). Handles into the
# index cache are shared `Arc`s, not raw pointers, so the executor
# needs none.
echo "==> no unsafe code in crates/*/src"
unsafe_lines=$(grep -rnE '(^|[^[:alnum:]_])unsafe[[:space:]]*(\{|fn[[:space:]]|impl([[:space:]]|<)|trait[[:space:]]|extern([[:space:]]|$))' \
    --include='*.rs' crates/*/src | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
if [ -n "$unsafe_lines" ]; then
    echo "unsafe code in crates/*/src:" >&2
    printf '%s\n' "$unsafe_lines" >&2
    exit 1
fi

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
# Datalog¬¬ fires a rule whose head no rule retracts over the last
# stage's change only, so on chain TC, which retracts nothing, it fires
# exactly inflationary's matches.
echo "==> BENCH.json stage-driver gauges on chain TC"
chain_gauge() {
    grep "\"workload\":\"chain\",\"engine\":\"$1\",\"threads\":1" BENCH.json \
        | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}
non_rebuilds=$(chain_gauge noninflationary index_rebuilds)
non_fired=$(chain_gauge noninflationary rules_fired)
infl_fired=$(chain_gauge inflationary rules_fired)
naive_fired=$(chain_gauge naive rules_fired)
if [ -z "$non_rebuilds" ] || [ -z "$non_fired" ] || [ -z "$infl_fired" ] \
    || [ -z "$naive_fired" ]; then
    echo "chain noninflationary/inflationary/naive (threads:1) entries missing from BENCH.json" >&2
    exit 1
fi
if [ "$non_fired" != "$infl_fired" ]; then
    echo "chain/noninflationary rules_fired=$non_fired differs from inflationary's $infl_fired" >&2
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

# Storage gate on the committed BENCH.json: scale_reach at one thread
# stores each tuple once, so its space peak stays within 1.25 stored
# copies of an arity-2 tuple (48 logical bytes) per fact — one row plus
# its row-id table slot — not the two copies a boxed membership set kept.
echo "==> BENCH.json scale_reach bytes_peak within one stored copy per fact"
scale_row=$(grep '"workload":"scale_reach","engine":"seminaive","threads":1' BENCH.json)
scale_bytes=$(printf '%s' "$scale_row" | sed -n 's/.*"bytes_peak":\([0-9]*\).*/\1/p')
scale_facts=$(printf '%s' "$scale_row" | sed -n 's/.*"peak_facts":\([0-9]*\).*/\1/p')
if [ -z "$scale_bytes" ] || [ -z "$scale_facts" ]; then
    echo "scale_reach/seminaive (threads:1) entry missing from BENCH.json" >&2
    exit 1
fi
if [ $(( scale_bytes * 100 )) -gt $(( scale_facts * 48 * 125 )) ]; then
    echo "scale_reach bytes_peak=$scale_bytes exceeds 1.25 x 48 B x $scale_facts facts" >&2
    exit 1
fi

# Index gate on the committed BENCH.json: a scan with no bound column
# reads storage in place, so scale_reach at one thread indexes only G,
# keyed once, never a copy of a scanned relation or delta.
echo "==> BENCH.json scale_reach indexes no more than its EDB"
scale_indexed=$(printf '%s' "$scale_row" | sed -n 's/.*"indexed_tuples":\([0-9]*\).*/\1/p')
scale_edb=$(printf '%s' "$scale_row" | sed -n 's/.*"edb_facts":\([0-9]*\).*/\1/p')
if [ -z "$scale_indexed" ] || [ -z "$scale_edb" ] || [ "$scale_indexed" -gt "$scale_edb" ]; then
    echo "scale_reach indexed_tuples=$scale_indexed exceeds edb_facts=$scale_edb" >&2
    exit 1
fi
# Every worker reads the same sorted storage, so the thread-scaling
# rows index what the one-thread row indexes: no per-worker copies.
echo "==> BENCH.json scale_reach indexes the same at 1, 2, 4 and 8 threads"
for t in 2 4 8; do
    row=$(grep "\"workload\":\"scale_reach\",\"engine\":\"seminaive\",\"threads\":$t" BENCH.json)
    indexed=$(printf '%s' "$row" | sed -n 's/.*"indexed_tuples":\([0-9]*\).*/\1/p')
    if [ -z "$indexed" ] || [ "$indexed" != "$scale_indexed" ]; then
        echo "scale_reach threads:$t indexed_tuples=$indexed differs from threads:1's $scale_indexed" >&2
        exit 1
    fi
done

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
# A parallel rule span carries the summed worker time of its morsels,
# so at least one hottest-rules row reads a non-zero wall time.
if ! printf '%s\n' "$profile_out" | grep '^rule ' | grep -qv ' 0\.000ms'; then
    echo "every rule of the 4-worker profile reads 0.000ms:" >&2
    printf '%s\n' "$profile_out" | grep -A5 "hottest rules" >&2
    exit 1
fi
cargo run -q --release -p unchained-cli -- trace-check \
    target/profile-smoke.trace.json \
    --expect eval,stratum,round,rule,worker,join >/dev/null
# The parallel stages are on for the other stage-driver engines too: a
# 4-worker well-founded profile has worker lanes.
echo "==> profile smoke: well-founded at 4 workers has worker lanes"
cargo run -q --release -p unchained-cli -- run -s wellfounded \
    examples/programs/win.dl examples/programs/win_facts.dl \
    --threads 4 --profile target/profile-wellfounded.trace.json >/dev/null
cargo run -q --release -p unchained-cli -- trace-check \
    target/profile-wellfounded.trace.json \
    --expect eval,round,rule,worker,join >/dev/null
for series in 'unchained_eval_runs_total{engine="seminaive"}' \
    unchained_eval_wall_seconds_bucket unchained_trace_spans; do
    if ! grep -q "$series" target/profile-smoke.prom; then
        echo "metrics scrape is missing series $series" >&2
        cat target/profile-smoke.prom >&2
        exit 1
    fi
done

# Input-boundary gate: a facts file whose relation has another arity
# than the program reads it with fails at engine entry, exit 1 with the
# arity conflict, not a panic (exit 101) inside the executor.
echo "==> arity conflict between program and facts exits 1 with a message"
printf 'T(x,y) :- G(x,y).\n' > target/arity-conflict.dl
printf 'G(23).\n' > target/arity-conflict-facts.dl
set +e
arity_err=$(cargo run -q --release -p unchained-cli -- run -s seminaive \
    target/arity-conflict.dl target/arity-conflict-facts.dl 2>&1 >/dev/null)
arity_status=$?
set -e
if [ "$arity_status" != 1 ] \
    || ! printf '%s' "$arity_err" | grep -q 'declared with arity 2 but used with arity 1'; then
    echo "arity-conflict run exited $arity_status (want 1 with the conflict):" >&2
    printf '%s\n' "$arity_err" >&2
    exit 1
fi

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
# Each tuple is stored once, as a row: the space tree charges a row-id
# table slot per tuple, never a second copy in a membership set.
if printf '%s' "$mem1" | grep -q 'membership set'; then
    echo "memstats still reports a membership set:" >&2
    printf '%s\n' "$mem1" >&2
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
# with the pruning gauge.
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

# The plan renderer prints every step form the executor runs: an
# antijoin for a negated literal, a select for `!=`, a bind for an `=`
# that binds a variable; and syntactic mode renders its scans too.
echo "==> plan smoke: negation, = and != render as antijoin, select, bind"
printf 'P(x,w) :- G(x,y), !H(y), x != y, w = y.\n' > target/plan-steps.dl
plan_out=$(cargo run -q --release -p unchained-cli -- plan target/plan-steps.dl)
for needle in 'antijoin !' 'select' 'bind'; do
    if ! printf '%s' "$plan_out" | grep -qF "$needle"; then
        echo "plan output is missing \`$needle\`:" >&2
        printf '%s\n' "$plan_out" >&2
        exit 1
    fi
done
plan_out=$(cargo run -q --release -p unchained-cli -- plan --syntactic examples/programs/tc.dl)
if ! printf '%s' "$plan_out" | grep -qF 'scan '; then
    echo "syntactic plan output is missing \`scan \`:" >&2
    printf '%s\n' "$plan_out" >&2
    exit 1
fi
# Reachability's Δ variant probes G on the column the Δ scan of R
# binds, so the plan marks that join to seek sorted storage.
printf 'R(x) :- S(x).\nR(y) :- R(x), G(x,y).\n' > target/plan-reach.dl
plan_out=$(cargo run -q --release -p unchained-cli -- plan target/plan-reach.dl)
if ! printf '%s' "$plan_out" | grep -qF 'join G(=x, y) seek'; then
    echo "reach plan output is missing \`join G(=x, y) seek\`:" >&2
    printf '%s\n' "$plan_out" >&2
    exit 1
fi

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
# every poll against from-scratch evaluation at 1 and 4 threads. Fixed
# seeds (42 and 60) keep it deterministic; any divergence means
# maintenance drifted from the batch semantics.
for seed in 42 60; do
    echo "==> fuzz smoke: edits/$seed/200, zero divergences"
    rm -rf "target/fuzz-edits-$seed-corpus"
    cargo run -q --release -p unchained-fuzz -- --campaign edits --seed "$seed" \
        --budget 200 --json "target/fuzz-edits-$seed.json" \
        --corpus "target/fuzz-edits-$seed-corpus" >/dev/null
    if ! grep -q '"divergences":0' "target/fuzz-edits-$seed.json"; then
        echo "edits/$seed fuzz smoke found divergences:" >&2
        cat "target/fuzz-edits-$seed.json" >&2
        exit 1
    fi
done

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

# Incremental-maintenance gate 3: a poll costs its change, not the
# instance. In the full quick smoke, the ivm row (initial fixpoint plus
# one retraction poll) must absorb the poll into the session's indexes
# without a rebuild, and put no more postings into indexes, built or
# appended, than the chain/seminaive row (the same fixpoint, run alone)
# plus the EDB once more: the poll's support plans key into G's live
# rows and the pre-update view keys into the retracted edge, edb_facts
# tuples together. A poll that indexed state the size of the instance,
# by a build or by appending it to an index, would exceed it.
echo "==> bench smoke: ivm poll rebuilds no index and indexes <= chain/seminaive + EDB"
ivm_smoke=$(grep '"workload":"ivm","engine":"incremental","threads":1' target/bench-smoke.json)
chain_smoke=$(grep '"workload":"chain","engine":"seminaive","threads":1' target/bench-smoke.json)
if [ -z "$ivm_smoke" ] || [ -z "$chain_smoke" ]; then
    echo "ivm/incremental or chain/seminaive (threads:1) row missing from bench smoke" >&2
    exit 1
fi
if [ "$(pick "$ivm_smoke" index_rebuilds)" != "0" ]; then
    echo "ivm bench row rebuilt indexes during the poll" >&2
    echo "  row: $ivm_smoke" >&2
    exit 1
fi
ivm_postings=$(( $(pick "$ivm_smoke" indexed_tuples) + $(pick "$ivm_smoke" appended_tuples) ))
chain_postings=$(( $(pick "$chain_smoke" indexed_tuples) + $(pick "$chain_smoke" appended_tuples) ))
if [ "$ivm_postings" -gt $(( chain_postings + $(pick "$chain_smoke" edb_facts) )) ]; then
    echo "ivm bench row indexed (built + appended) more than the chain/seminaive row plus its EDB" >&2
    echo "  ivm:   $ivm_smoke" >&2
    echo "  chain: $chain_smoke" >&2
    exit 1
fi

# Incremental-maintenance gate 4: the rederive case retracts a DAG edge
# whose closure facts other paths still derive, so the quick smoke's
# poll must rederive some (its runner already fails unless the poll
# matches a from-scratch evaluation).
echo "==> bench smoke: rederive case restores tuples"
rederive_smoke=$(grep '"workload":"rederive","engine":"incremental","threads":1' target/bench-smoke.json)
if [ -z "$rederive_smoke" ]; then
    echo "rederive/incremental (threads:1) row missing from bench smoke" >&2
    exit 1
fi
if [ "$(pick "$rederive_smoke" rederived)" = "0" ]; then
    echo "rederive bench row reports ivm_rederived=0 (no tuple was restored)" >&2
    echo "  row: $rederive_smoke" >&2
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
# gauges (facts, stages, rules fired, and probe_tuples: every match
# consumes one driver row whichever loop reads it) — the morsel
# scheduler is only allowed to change wall time — and the parallel
# wall time must stay within the same order of magnitude as sequential
# (this container is single-core, so parallel rows are legitimately
# slower, never faster; the gate catches pathological blowups, not
# missing speedups).
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
        || [ "$(pick "$scale_seq" rules_fired)" != "$(pick "$scale_par" rules_fired)" ] \
        || [ "$(pick "$scale_seq" probe_tuples)" != "$(pick "$scale_par" probe_tuples)" ]; then
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
# positive campaign cannot reach: stratified against well-founded (at 1
# and 4 workers), and the inflationary family (plain and at 4 workers,
# birth-traced, Datalog¬¬) stage for stage against the definitional
# reference evaluator.
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

# The unstratified triple (unstratified/42/200) gates the incremental
# drivers of the non-monotone semantics on programs with recursion
# through negation and head negation: well-founded, inflationary and
# Datalog¬¬ under all four conflict policies, each against the
# definitional reference evaluator, which shares no engine code.
echo "==> fuzz smoke: unstratified/42/200, zero divergences"
rm -rf target/fuzz-unstratified-corpus
cargo run -q --release -p unchained-fuzz -- --campaign unstratified --seed 42 \
    --budget 200 --json target/fuzz-unstratified.json \
    --corpus target/fuzz-unstratified-corpus >/dev/null
if ! grep -q '"divergences":0' target/fuzz-unstratified.json; then
    echo "unstratified fuzz smoke found divergences:" >&2
    cat target/fuzz-unstratified.json >&2
    exit 1
fi

# The nondeterministic triples (nondet/42/200 and nondet/60/200) gate
# N-Datalog¬ with choice: a seeded run replays step for step, and its
# answer lies between cert and poss as eff(P)'s enumeration computes
# them. Seed 60 holds a program whose firings only commit a choice, a
# step eff(P) once dropped.
for seed in 42 60; do
    echo "==> fuzz smoke: nondet/$seed/200, zero divergences"
    rm -rf "target/fuzz-nondet-$seed-corpus"
    cargo run -q --release -p unchained-fuzz -- --campaign nondet --seed "$seed" \
        --budget 200 --json "target/fuzz-nondet-$seed.json" \
        --corpus "target/fuzz-nondet-$seed-corpus" >/dev/null
    if ! grep -q '"divergences":0' "target/fuzz-nondet-$seed.json"; then
        echo "nondet/$seed fuzz smoke found divergences:" >&2
        cat "target/fuzz-nondet-$seed.json" >&2
        exit 1
    fi
done

# Shrinker self-test: with a deliberately wrong oracle leg injected,
# the campaign must (a) detect divergences (exit 1), (b) delta-debug
# every witness down to a repro of at most 3 rules, and (c) head every
# repro with the `% campaign:` and `% run seed:` lines corpus replay
# reads.
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
    for key in '% campaign: ' '% run seed: '; do
        if ! grep -q "^$key" "$dl"; then
            echo "repro $dl has no \`$key\` header line" >&2
            exit 1
        fi
    done
done

echo "All checks passed."
