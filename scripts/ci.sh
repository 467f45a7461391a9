#!/usr/bin/env sh
# Offline CI gate for the ctsdac workspace.
#
# 1. Format, lint, hermetic build + tests: `cargo fmt --all -- --check`
#    fails on any unformatted workspace source and `cargo clippy
#    --workspace --all-targets -- -D warnings` on any clippy warning
#    (perfbench is a workspace of its own and is checked by neither);
#    everything runs with --offline, so a network dependency creeping
#    back into the tree fails the build here.
# 2. Property suites: the proptest-backed suites are feature-gated so the
#    default build stays dependency-free; CI opts in explicitly. A
#    dedicated lane-differential stage then re-runs the lane-equivalence
#    suite on its own line: the SoA kernels must match their scalar
#    oracles bitwise at W = 4 and 8, every remainder lane count,
#    --jobs 1, 2 and 8, under injected faults and across resume. A cascode-differential stage does the same for the
#    table-driven cascoded volume search: its admissibility mask and both
#    optima must match a brute-force per-point eq. (11) scan bitwise.
#    An optimum-differential stage holds the best-first simple-cell
#    optimum search to select_best over the dense sweep, bit for bit.
#    A perfbench stage runs the benchmark package's own tests (seeded
#    inputs, percentile refusals, metric tables matching BENCHMARK.json,
#    layer isolation of each workload).
# 3. Panic-freedom gate: the solver/exploration/statistics/runtime/DAC/
#    layout/service layers report failures as typed errors. Any
#    `.unwrap()`, `.expect(` or `panic!` re-introduced in non-test,
#    non-comment library code under crates/core/src, crates/circuit/src,
#    crates/stats/src, crates/runtime/src, crates/dac/src,
#    crates/layout/src, crates/service/src, crates/store/src or
#    crates/failpoint/src fails the gate.
# 4. Fault-injection smoke: the supervised runtime must absorb injected
#    panics and survive a kill + resume from a truncated checkpoint
#    journal while reproducing the clean single-threaded results
#    bit-for-bit (crates/bench/src/bin/fault_smoke.rs).
# 5. Bench smoke: sweep_bench on a reduced grid must emit a
#    schema-complete BENCH_sweep.json (reference, lanes and optimum
#    arms) and keep the lane kernel within the Newton iteration budget
#    recorded in the checked-in baseline — a solver-effort regression
#    fails here before it shows up as wall-clock noise. The checked-in baseline
#    must also keep the lane kernel's recorded speedup over the
#    reference kernel at or above its validated floor.
# 6. MC bench smoke: mc_bench with reduced trials must emit a
#    schema-complete BENCH_mc.json, prove lanes-vs-reference
#    bit-identity, and stay within the per-trial work
#    budget recorded in the checked-in baseline — a yield-engine
#    regression that re-walks the full transfer curve per trial fails
#    here deterministically. The checked-in lane speedup baseline is
#    floor-gated like the sweep's.
# 7. Quarantine gate: no test may be `#[ignore]`d. The count is reported
#    so a deliberate quarantine (which must carry a reason string) shows
#    up here and forces this gate to be relaxed in the same diff.
# 8. Observability smoke: dacsizer under fault injection with
#    `--trace=json` must exit cleanly and emit a well-formed metrics
#    snapshot; the snapshot's deterministic section must be byte-identical
#    between --jobs 1 and --jobs 8 at the same seed, for a simple-cell
#    and for a cascoded run.
# 9. Service smoke: a real `dacd` process with chaos armed must serve a
#    computed sizing request, re-serve an identical repeat bit-for-bit
#    from the cache, turn a too-short deadline into a typed 504 via
#    runtime cancellation, absorb the injected worker panics, and drain
#    cleanly on POST /v1/shutdown with exit code 0 — no orphaned pool
#    workers (a stuck chunk would hang the drain and fail the stage).
#    Chaos is armed through the one failpoint grammar (`--failpoints`);
#    both binaries must reject the retired `--faults` flag as unknown.
# 10. Durable-store crash smoke: `dacd --store` with a deterministic
#    short_write failpoint armed is loaded, SIGKILLed mid-write, and
#    restarted on the same directory. The restarted daemon must serve
#    the surviving entries as cache hits bit-identical to the pre-crash
#    responses and report the torn tail in store.records_discarded.
# 11. Committed experiment outputs: `experiments all` rewrites every file
#    under experiments/, and the tree must come out unchanged, so the
#    committed CSVs (and the EXPERIMENTS.md cells that quote them) are
#    what the code produces.
#
# Run from the repository root: sh scripts/ci.sh

set -eu

cd "$(dirname "$0")/.."

echo "==> format (cargo fmt --check)"
cargo fmt --all -- --check

echo "==> lint (cargo clippy, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> build (offline)"
cargo build --offline --workspace

echo "==> tests (offline)"
cargo test --offline --workspace -q

echo "==> property suites (offline, --features proptests)"
cargo test --offline -q --features proptests \
    -p ctsdac-circuit -p ctsdac-dac -p ctsdac-dsp \
    -p ctsdac-layout -p ctsdac-process -p ctsdac-stats

echo "==> lane-differential gate (SoA kernels vs scalar oracles, W=4 and W=8)"
# The lane-equivalence suite certifies the SIMD-width SoA kernels: MC
# yield lanes and sweep lanes must reproduce their scalar oracles bit
# for bit at lane widths 4 and 8, at every remainder lane count
# n % W in 0..W, at --jobs 1 vs 8, with jobs- and width-invariant work
# counters. It runs inside the workspace tests too; this explicit stage
# keeps the certification visible and failing on its own line.
cargo test --offline -q --test lane_equivalence

echo "==> cascode-differential gate (table-driven eq. (11) search vs brute force)"
# The cascoded volume search sizes each device once per axis value and
# combines per-device variance terms per grid point. This suite holds it
# to the per-point admits_cascoded scan it replaced: the same admissible
# points with bit-equal areas under the exact, fixed-margin and
# statistical conditions, bit-equal min-area and max-speed optima across
# 8-14 bits, yields 0.9-0.9999 and grids 2-64, and the same cascoded
# report from run_flow and run_flow_supervised.
cargo test --offline -q --test cascode_equivalence

echo "==> optimum-differential gate (best-first simple-cell optimum vs dense scan)"
# The optimum search scores every point in closed form, visits each
# row's candidates best first and DC-verifies only the winner. This suite
# holds it to select_best over the dense sweep: bit-identical optimum
# DesignPoints (DC fields included) across 8-14 bits, yields 0.9-0.9999,
# grids 2-96, all objectives, conditions and settling bounds, --jobs 1, 2
# and 8; equal ExploreError variants and counts on empty and failing
# spaces; journal identity and kill-and-resume of the supervised search.
cargo test --offline -q --test optimum_equivalence

echo "==> perfbench tests (benchmark package, offline)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> quarantine gate (no #[ignore]d tests)"
ignored=$(grep -rn '#\[ignore' --include='*.rs' crates src tests 2>/dev/null | wc -l | tr -d ' ')
echo "ignored tests: $ignored"
if [ "$ignored" -ne 0 ]; then
    echo "FAIL: quarantined tests found; fix them or relax this gate in the same diff:"
    grep -rn '#\[ignore' --include='*.rs' crates src tests
    exit 1
fi

echo "==> panic-freedom gate (core, circuit, stats, runtime, dac, layout, obs, service, store, failpoint)"
# For each library source file, consider only the code before the first
# `#[cfg(test)]` module, drop comment lines, and reject panic escape
# hatches. A line may carry an explicit `ci-gate: allow` waiver when the
# panic is the deliberate behaviour (e.g. scripted fault injection).
status=0
for f in crates/core/src/*.rs crates/circuit/src/*.rs \
         crates/stats/src/*.rs crates/runtime/src/*.rs \
         crates/dac/src/*.rs crates/layout/src/*.rs \
         crates/obs/src/*.rs crates/service/src/*.rs \
         crates/store/src/*.rs crates/failpoint/src/*.rs; do
    hits=$(awk '/#\[cfg\(test\)\]/{exit} {print NR": "$0}' "$f" \
        | grep -vE '^[0-9]+: *(//|///|//!)' \
        | grep -v 'ci-gate: allow' \
        | grep -E '\.unwrap\(\)|\.expect\(|panic!' || true)
    if [ -n "$hits" ]; then
        echo "panic escape hatch in $f:"
        echo "$hits"
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "FAIL: library code in the sizing flow must return typed errors"
    exit 1
fi

echo "==> fault-injection smoke (supervised runtime)"
cargo run --offline -q -p ctsdac-bench --bin fault_smoke

echo "==> bench smoke (sweep kernel, reduced grid)"
# The iteration budget comes from the checked-in baseline, so the gate
# tightens automatically when the kernel improves and the baseline is
# regenerated. The reduced-grid debug run only checks solver effort and
# schema, not throughput.
budget=$(sed -n 's/.*"iteration_budget_per_solve": \([0-9.]*\).*/\1/p' BENCH_sweep.json)
if [ -z "$budget" ]; then
    echo "FAIL: no iteration_budget_per_solve in the checked-in BENCH_sweep.json"
    exit 1
fi
smoke_json="${TMPDIR:-/tmp}/ctsdac_bench_smoke.json"
cargo run --offline -q -p ctsdac-bench --bin sweep_bench -- \
    --grid 8 --reps 2 --out "$smoke_json" --budget "$budget"
for key in '"schema": "ctsdac-sweep-bench-v2"' '"reference"' '"lanes"' \
           '"optimum"' '"speedup_lanes_over_reference"' \
           '"iteration_budget_per_solve"' '"iters_per_solve"' '"dc_solves"'; do
    if ! grep -q "$key" "$smoke_json"; then
        echo "FAIL: $smoke_json is missing $key"
        exit 1
    fi
done
rm -f "$smoke_json"

# Baseline floor: the checked-in BENCH_sweep.json must keep the lane
# kernel's recorded speedup at or above the validated margin. Wall-clock
# ratios are only trusted inside one bench process (the baseline is
# regenerated release-mode on a quiet host), so the gate reads the
# committed number instead of re-timing in CI.
lanes_speedup=$(sed -n 's/.*"speedup_lanes_over_reference": \([0-9.]*\).*/\1/p' BENCH_sweep.json)
if [ -z "$lanes_speedup" ]; then
    echo "FAIL: no speedup_lanes_over_reference in the checked-in BENCH_sweep.json"
    exit 1
fi
if ! awk "BEGIN { exit !($lanes_speedup >= 13.0) }"; then
    echo "FAIL: BENCH_sweep.json records speedup_lanes_over_reference = $lanes_speedup, below the 13.0 floor"
    exit 1
fi

echo "==> MC bench smoke (yield engine, reduced trials)"
# The per-trial work budget comes from the checked-in baseline: the
# screened classifier scans one block (~272 code-equivalents at 12 bits)
# per trial, so the half-curve budget catches a regression back to full
# 4096-code walks. The reduced-trial debug run checks deterministic work,
# bit-identity and schema, not throughput.
mc_budget=$(sed -n 's/.*"per_trial_work_budget": \([0-9.]*\).*/\1/p' BENCH_mc.json)
if [ -z "$mc_budget" ]; then
    echo "FAIL: no per_trial_work_budget in the checked-in BENCH_mc.json"
    exit 1
fi
mc_smoke_json="${TMPDIR:-/tmp}/ctsdac_mc_smoke.json"
cargo run --offline -q -p ctsdac-bench --bin mc_bench -- \
    --trials 200 --reps 1 --out "$mc_smoke_json" --budget "$mc_budget"
for key in '"schema": "ctsdac-mc-bench-v3"' \
           '"bit_identical_lanes_vs_reference": true' \
           '"reference"' '"lanes"' '"codes_per_trial"' \
           '"per_trial_work_budget"' '"speedup_lanes_over_reference"'; do
    if ! grep -q "$key" "$mc_smoke_json"; then
        echo "FAIL: $mc_smoke_json is missing $key"
        exit 1
    fi
done
rm -f "$mc_smoke_json"

# Baseline floor for the lane yield engine, mirroring the sweep gate:
# the committed release-mode measurement must stay at or above the
# validated margin.
mc_lanes_speedup=$(sed -n 's/.*"speedup_lanes_over_reference": \([0-9.]*\).*/\1/p' BENCH_mc.json)
if [ -z "$mc_lanes_speedup" ]; then
    echo "FAIL: no speedup_lanes_over_reference in the checked-in BENCH_mc.json"
    exit 1
fi
if ! awk "BEGIN { exit !($mc_lanes_speedup >= 12.0) }"; then
    echo "FAIL: BENCH_mc.json records speedup_lanes_over_reference = $mc_lanes_speedup, below the 12.0 floor"
    exit 1
fi

echo "==> observability smoke (trace + metrics under fault injection)"
# A supervised run with injected faults (a panic on chunk 1's first
# attempt, a NaN result on chunk 3's), tracing to stderr and a metrics
# snapshot to disk: the run must succeed, the snapshot must carry the
# schema header and both sections, and every injected fault must show up
# in the nondeterministic counters.
obs_json="${TMPDIR:-/tmp}/ctsdac_obs_smoke.json"
cargo run --offline -q -p ctsdac --bin dacsizer -- \
    --topology simple --grid 8 --jobs 4 \
    --failpoints 'panic@pool.chunk[1]:1,nan@pool.chunk[3]:1' \
    --trace=json --metrics-out "$obs_json" >/dev/null 2>&1
for key in '"schema": "ctsdac-metrics-v1"' '"deterministic"' \
           '"nondeterministic"' '"mc.trials"' '"circuit.dc.solves"' \
           '"hist.circuit.dc.iterations_per_solve"' '"spans"' \
           '"pool.faults_absorbed"'; do
    if ! grep -q "$key" "$obs_json"; then
        echo "FAIL: $obs_json is missing $key"
        exit 1
    fi
done
rm -f "$obs_json"

echo "==> metrics determinism (deterministic section, --jobs 1 vs --jobs 8)"
# The deterministic section counts work, not scheduling: it must be
# byte-identical across worker counts at the same seed. Fault-free run,
# forced simple topology so the sweep and MC paths both execute.
det1="${TMPDIR:-/tmp}/ctsdac_metrics_j1.json"
det8="${TMPDIR:-/tmp}/ctsdac_metrics_j8.json"
cargo run --offline -q -p ctsdac --bin dacsizer -- \
    --topology simple --grid 8 --jobs 1 --seed 7 --metrics-out "$det1" >/dev/null
cargo run --offline -q -p ctsdac --bin dacsizer -- \
    --topology simple --grid 8 --jobs 8 --seed 7 --metrics-out "$det8" >/dev/null
sed -n '/"deterministic": {/,/^  },$/p' "$det1" > "$det1.det"
sed -n '/"deterministic": {/,/^  },$/p' "$det8" > "$det8.det"
if ! cmp -s "$det1.det" "$det8.det"; then
    echo "FAIL: deterministic metrics differ between --jobs 1 and --jobs 8:"
    diff "$det1.det" "$det8.det" || true
    exit 1
fi
if ! grep -q '"mc.trials"' "$det1.det"; then
    echo "FAIL: deterministic section lost its work counters"
    exit 1
fi
# The cascoded volume search runs inline whatever --jobs says; its
# eq. (11) evaluation count must be jobs-invariant too.
cargo run --offline -q -p ctsdac --bin dacsizer -- \
    --topology cascoded --grid 8 --jobs 1 --seed 7 --metrics-out "$det1" >/dev/null
cargo run --offline -q -p ctsdac --bin dacsizer -- \
    --topology cascoded --grid 8 --jobs 8 --seed 7 --metrics-out "$det8" >/dev/null
sed -n '/"deterministic": {/,/^  },$/p' "$det1" > "$det1.det"
sed -n '/"deterministic": {/,/^  },$/p' "$det8" > "$det8.det"
if ! cmp -s "$det1.det" "$det8.det"; then
    echo "FAIL: cascoded deterministic metrics differ between --jobs 1 and --jobs 8:"
    diff "$det1.det" "$det8.det" || true
    exit 1
fi
if grep -q '"core.cascode.points": 0,' "$det1.det" \
    || ! grep -q '"core.cascode.points"' "$det1.det"; then
    echo "FAIL: cascoded run did not count its eq. (11) evaluations"
    exit 1
fi
rm -f "$det1" "$det8" "$det1.det" "$det8.det"

echo "==> service smoke (dacd: admission -> cache -> breaker -> runtime)"
# A real dacd process on an ephemeral port with chaos armed: chunk 0 of
# every supervised run panics on its first attempt (the retry must absorb
# it) and chunk 1 stalls 120 ms (so a 50 ms deadline provably cannot
# finish). The request sequence walks the whole pipeline: computed miss,
# bit-identical cached repeat, typed 504 via runtime cancellation, live
# metrics, graceful drain.
cargo build --offline -q -p ctsdac --bin dacd
# One fault grammar: the retired --faults flag is an unknown argument
# (exit 2) in both binaries. The trailing --help turns a regression that
# accepts the flag into exit 0 instead of a daemon that never returns.
for bin in dacsizer dacd; do
    status=0
    ./target/debug/$bin --faults 'panic@0' --help >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: $bin --faults exited $status; want 2 (unknown argument)"
        exit 1
    fi
done
dacd_log="${TMPDIR:-/tmp}/ctsdac_dacd_smoke.log"
./target/debug/dacd --addr 127.0.0.1:0 --workers 2 \
    --failpoints 'panic@pool.chunk[0]:1,delay=120@pool.chunk[1]:1' > "$dacd_log" 2>&1 &
dacd_pid=$!
dacd_addr=""
for _ in $(seq 1 100); do
    dacd_addr=$(sed -n 's/^listening on //p' "$dacd_log")
    [ -n "$dacd_addr" ] && break
    sleep 0.1
done
if [ -z "$dacd_addr" ]; then
    echo "FAIL: dacd never announced its listen address"
    cat "$dacd_log"
    exit 1
fi
svc="${TMPDIR:-/tmp}/ctsdac_svc_smoke"
post() { curl -sS -o "$2" -w '%{http_code}' -X POST "http://$dacd_addr$1" -d "$3"; }

code=$(post /v1/sizing "$svc.miss" '{"grid":8}')
if [ "$code" != 200 ] || ! grep -q '"cache":"miss"' "$svc.miss" \
    || ! grep -q '"feasible":true' "$svc.miss"; then
    echo "FAIL: fault-injected sizing was not a computed feasible miss ($code)"
    cat "$svc.miss"; exit 1
fi
code=$(post /v1/sizing "$svc.hit" '{"grid":8}')
if [ "$code" != 200 ] || ! grep -q '"cache":"hit"' "$svc.hit"; then
    echo "FAIL: identical repeat did not hit the cache ($code)"
    cat "$svc.hit"; exit 1
fi
# Bit-identity: the two bodies may differ only in the cache marker.
sed 's/"cache":"[a-z]*"/"cache":"_"/' "$svc.miss" > "$svc.miss.n"
sed 's/"cache":"[a-z]*"/"cache":"_"/' "$svc.hit" > "$svc.hit.n"
if ! cmp -s "$svc.miss.n" "$svc.hit.n"; then
    echo "FAIL: cache hit is not bit-identical to the computed result"
    diff "$svc.miss.n" "$svc.hit.n" || true
    exit 1
fi
code=$(post /v1/sizing "$svc.dl" '{"grid":9,"deadline_ms":50}')
if [ "$code" != 504 ] || ! grep -q '"kind":"deadline_exceeded"' "$svc.dl"; then
    echo "FAIL: short deadline did not become a typed 504 (got $code)"
    cat "$svc.dl"; exit 1
fi
code=$(curl -sS -o "$svc.metrics" -w '%{http_code}' "http://$dacd_addr/v1/metrics")
if [ "$code" != 200 ] || ! grep -q 'pool.faults_absorbed' "$svc.metrics"; then
    echo "FAIL: /v1/metrics lost the absorbed-fault counters ($code)"
    cat "$svc.metrics"; exit 1
fi
code=$(post /v1/shutdown "$svc.bye" '')
if [ "$code" != 200 ]; then
    echo "FAIL: shutdown returned $code"
    cat "$svc.bye"; exit 1
fi
if ! wait "$dacd_pid"; then
    echo "FAIL: dacd exited nonzero after drain"
    cat "$dacd_log"; exit 1
fi
if ! grep -q 'drained; goodbye' "$dacd_log"; then
    echo "FAIL: dacd did not report a clean drain"
    cat "$dacd_log"; exit 1
fi
rm -f "$svc.miss" "$svc.hit" "$svc.miss.n" "$svc.hit.n" \
      "$svc.dl" "$svc.metrics" "$svc.bye" "$dacd_log"

echo "==> durable-store crash smoke (dacd --store, kill -9 mid-write, recover)"
# A dacd with the segment-log store and a deterministic torn-write
# failpoint: the third append is cut mid-record exactly as a crash
# inside write(2) would, the process is SIGKILLed, and a clean restart
# on the same directory must re-serve the two surviving results as
# bit-identical cache hits while counting the torn tail.
store_dir="${TMPDIR:-/tmp}/ctsdac_store_smoke_dir"
store_log="${TMPDIR:-/tmp}/ctsdac_store_smoke.log"
sv="${TMPDIR:-/tmp}/ctsdac_store_smoke"
rm -rf "$store_dir"
./target/debug/dacd --addr 127.0.0.1:0 --workers 2 \
    --store "$store_dir" --fsync-ms 5 \
    --failpoints short_write@store.append:3 --failpoint-seed 7 \
    > "$store_log" 2>&1 &
store_pid=$!
dacd_addr=""
for _ in $(seq 1 100); do
    dacd_addr=$(sed -n 's/^listening on //p' "$store_log")
    [ -n "$dacd_addr" ] && break
    sleep 0.1
done
if [ -z "$dacd_addr" ]; then
    echo "FAIL: store-backed dacd never announced its listen address"
    cat "$store_log"; exit 1
fi
for g in 8 9 10; do
    code=$(post /v1/sizing "$sv.pre$g" "{\"grid\":$g}")
    if [ "$code" != 200 ]; then
        echo "FAIL: pre-crash sizing grid $g returned $code"
        cat "$sv.pre$g"; exit 1
    fi
done
# Wait for the two whole records to be durably appended (the snapshot
# arrives JSON-escaped, hence the \" in the pattern), give the torn
# third append a moment to sync its half-record, then pull the plug.
appended=no
for _ in $(seq 1 100); do
    if curl -sS "http://$dacd_addr/v1/metrics" \
        | grep -q 'store.records_appended\\": 2'; then
        appended=yes; break
    fi
    sleep 0.1
done
if [ "$appended" != yes ]; then
    echo "FAIL: store never reported two durable appends"
    curl -sS "http://$dacd_addr/v1/metrics"; exit 1
fi
sleep 0.3
kill -9 "$store_pid"
wait "$store_pid" 2>/dev/null || true

./target/debug/dacd --addr 127.0.0.1:0 --workers 2 \
    --store "$store_dir" --fsync-ms 5 > "$store_log" 2>&1 &
store_pid=$!
dacd_addr=""
for _ in $(seq 1 100); do
    dacd_addr=$(sed -n 's/^listening on //p' "$store_log")
    [ -n "$dacd_addr" ] && break
    sleep 0.1
done
if [ -z "$dacd_addr" ]; then
    echo "FAIL: recovered dacd never announced its listen address"
    cat "$store_log"; exit 1
fi
curl -sS -o "$sv.metrics" "http://$dacd_addr/v1/metrics"
if ! grep -q 'store.records_recovered\\": 2' "$sv.metrics" \
    || ! grep -q 'store.records_discarded\\": 1' "$sv.metrics"; then
    echo "FAIL: recovery counters wrong (want 2 recovered, 1 discarded):"
    cat "$sv.metrics"; exit 1
fi
for g in 8 9; do
    code=$(post /v1/sizing "$sv.post$g" "{\"grid\":$g}")
    if [ "$code" != 200 ] || ! grep -q '"cache":"hit"' "$sv.post$g"; then
        echo "FAIL: grid $g not served from the recovered store ($code)"
        cat "$sv.post$g"; exit 1
    fi
    sed 's/"cache":"[a-z]*"/"cache":"_"/' "$sv.pre$g" > "$sv.pre$g.n"
    sed 's/"cache":"[a-z]*"/"cache":"_"/' "$sv.post$g" > "$sv.post$g.n"
    if ! cmp -s "$sv.pre$g.n" "$sv.post$g.n"; then
        echo "FAIL: recovered grid $g is not bit-identical to the pre-crash bytes"
        diff "$sv.pre$g.n" "$sv.post$g.n" || true
        exit 1
    fi
done
# The torn grid-10 entry must be gone: a recompute, not a hit.
code=$(post /v1/sizing "$sv.post10" '{"grid":10}')
if [ "$code" != 200 ] || ! grep -q '"cache":"miss"' "$sv.post10"; then
    echo "FAIL: torn grid-10 entry should have been discarded ($code)"
    cat "$sv.post10"; exit 1
fi
code=$(post /v1/shutdown "$sv.bye" '')
if [ "$code" != 200 ] || ! wait "$store_pid"; then
    echo "FAIL: recovered dacd did not drain cleanly"
    cat "$store_log"; exit 1
fi
rm -rf "$store_dir"
rm -f "$sv.pre8" "$sv.pre9" "$sv.pre10" "$sv.post8" "$sv.post9" "$sv.post10" \
      "$sv.pre8.n" "$sv.pre9.n" "$sv.post8.n" "$sv.post9.n" \
      "$sv.metrics" "$sv.bye" "$store_log"

echo "==> committed experiment outputs (experiments all, then git diff)"
cargo run --offline -q -p ctsdac-bench --bin experiments -- all > /dev/null
if ! git diff --exit-code --stat -- experiments/; then
    echo "FAIL: experiments all rewrote committed outputs; regenerate and commit them"
    exit 1
fi
untracked=$(git ls-files --others --exclude-standard -- experiments/)
if [ -n "$untracked" ]; then
    echo "FAIL: experiments all left outputs the tree does not track:"
    echo "$untracked"; exit 1
fi

echo "CI gate passed"
