#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes.
#
#   scripts/check.sh            # full check: build + ctest + TSan + ASan
#   scripts/check.sh --no-tsan  # skip the TSan pass
#   scripts/check.sh --no-asan  # skip the ASan pass
#   scripts/check.sh --tier1    # tier-1 only (what CI gates on)
#
# The TSan half rebuilds test_threading and test_space_sharing in a separate
# build tree (build-tsan/) with -DSMART_SANITIZE=thread and runs them; the
# runtime is thread-heavy (thread pool, circular buffer, simmpi mailboxes),
# so data races are the bug class worth a dedicated pass.
#
# The ASan half rebuilds the serialization- and fault-heavy tests plus
# test_obs, test_transport and test_simmpi in build-asan/ with
# -DSMART_SANITIZE=address: checkpoint parsing of untrusted headers,
# mid-round rollback of partially merged maps, rank-death unwinding
# (including SharedBuffer slices released when a gather leaves a dead
# rank's slot null) and metric lifetimes across a registry reset are
# exactly where lifetime and bounds bugs would hide.
#
# Every ctest invocation runs with a hard per-test timeout (each test also
# carries a TIMEOUT property from tests/CMakeLists.txt): a test that blocks
# past its budget is a failure, never a hung CI job — the fault-tolerance
# layer's whole contract is that silence becomes a typed error.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
run_tsan=1
run_asan=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    --tier1) run_tsan=0; run_asan=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build =="
# Warnings are errors here: the Release and RelWithDebInfo builds are
# warning-free, and a new warning should fail CI rather than pile up.
cmake -B "$repo/build" -S "$repo" -DSMART_WERROR=ON >/dev/null
cmake --build "$repo/build" -j "$jobs"

echo "== tier-1: ctest =="
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs" --timeout 120

echo "== tier-1: schedule exploration (bounded) =="
# Deterministic-schedule sweep (DESIGN.md "Deterministic schedule
# exploration"): re-run the property harness with a wider exploration width
# than the default ctest pass.  Seeds are fixed and every failure prints a
# `--schedule replay --schedule-trace "..."` recipe, so a red run here is
# reproducible from the log alone.  Also runnable as `ctest -L schedule`.
SMART_EXPLORE_SCHEDULES=10 "$repo/build/tests/test_schedule_explore" --gtest_brief=1
# CLI plumbing: a deterministically scheduled run must complete and echo its
# master seed in the RUNSTATS line (the log-driven repro path).
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 4 \
  --threads 2 --steps 2 --seed 1234 --schedule random \
  | grep -q '"master_seed": 1234' \
  || { echo "scheduled run lost its master_seed echo" >&2; exit 1; }
echo "   schedule exploration ok"

echo "== tier-1: trace validation =="
# A real 4-rank run must emit a Chrome-trace file that parses as JSON and
# contains matched span/flow events from more than one rank (the
# observability subsystem's acceptance bar; see DESIGN.md "Observability").
trace_json="$repo/build/check_trace.json"
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 4 \
  --threads 2 --steps 3 --trace-out "$trace_json" >/dev/null
python3 -m json.tool "$trace_json" >/dev/null
python3 - "$trace_json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
span_ranks = {e["pid"] for e in events if e.get("ph") == "X"}
starts = {e["id"] for e in events if e.get("ph") == "s"}
ends = {e["id"] for e in events if e.get("ph") == "f"}
assert len(span_ranks) >= 2, f"spans from one rank only: {span_ranks}"
assert starts & ends, "no matched send->recv flow pair"
print(f"   trace ok: {len(events)} events, span ranks {sorted(span_ranks)}, "
      f"{len(starts & ends)} matched flow pair(s)")
EOF

echo "== tier-1: phase CSV export =="
# --phase-csv writes the scheduler's phases (complete "sched" spans from the
# trace collector) as RFC-4180 CSV: the header must be exact, every row must
# have five fields, and a 4-rank x 2-thread run must show all three
# combination phases from more than one thread.
phase_csv="$repo/build/check_phases.csv"
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 4 \
  --threads 2 --steps 3 --phase-csv "$phase_csv" >/dev/null
python3 - "$phase_csv" <<'EOF'
import csv, sys
with open(sys.argv[1], newline="") as f:
    rows = list(csv.reader(f))
header = ["phase", "thread", "begin_s", "end_s", "duration_s"]
assert rows and rows[0] == header, f"bad header: {rows[:1]}"
body = rows[1:]
short = [r for r in body if len(r) != 5]
assert not short, f"{len(short)} row(s) without five fields, e.g. {short[0]}"
phases = {r[0] for r in body}
missing = {"reduction", "local_combine", "global_combine"} - phases
assert not missing, f"phases missing from the CSV: {sorted(missing)}"
threads = {r[1] for r in body}
assert len(threads) >= 2, f"phase rows from one thread only: {threads}"
print(f"   phase CSV ok: {len(body)} rows, {len(phases)} phases, "
      f"{len(threads)} threads")
EOF

echo "== tier-1: src surface guard =="
# Every header under src/ needs an includer outside tests/ (its own .cpp
# does not count): a module that only tests reach is wired into a runtime
# caller or deleted, not left in the library.
orphans=()
while IFS= read -r header; do
  rel="${header#"$repo/src/"}"
  includers="$(grep -rlF --include='*.h' --include='*.cpp' "#include \"$rel\"" \
    "$repo/src" "$repo/bench" "$repo/examples" "$repo/perfbench" "$repo/scripts" || true)"
  includers="$(grep -vxF "${header%.h}.cpp" <<< "$includers" || true)"
  [[ -n "$includers" ]] || orphans+=("src/$rel")
done < <(find "$repo/src" -name '*.h' | sort)
if (( ${#orphans[@]} > 0 )); then
  printf 'header with no includer outside tests/: %s\n' "${orphans[@]}" >&2
  exit 1
fi
echo "   src surface ok: every header under src/ has an includer outside tests/"

echo "== tier-1: RunOptions knob guard =="
# Every RunOptions field needs an assignment (".field = ...") under src/ or
# bench/ outside its own declaration: a knob that only tests set multiplies
# the configurations every property test has to cover while no run uses it.
sched_args="$repo/src/core/sched_args.h"
knobs="$(awk '/^struct RunOptions \{/ { on = 1; next } on && /^\};/ { exit }
  on && /^  [A-Za-z_:]+ [a-z_]+( = [^;]*)?;/ { sub(/;.*/, "", $2); print $2 }' "$sched_args")"
[[ -n "$knobs" ]] || { echo "knob guard found no RunOptions fields in $sched_args" >&2; exit 1; }
unset_knobs=()
for knob in $knobs; do
  grep -rqE --include='*.h' --include='*.cpp' --exclude='sched_args.h' \
    "\.${knob}[[:space:]]*=([^=]|$)" "$repo/src" "$repo/bench" || unset_knobs+=("$knob")
done
if (( ${#unset_knobs[@]} > 0 )); then
  printf 'RunOptions field with no assignment under src/ or bench/: %s\n' "${unset_knobs[@]}" >&2
  exit 1
fi
echo "   knob guard ok: every RunOptions field ($(wc -w <<< "$knobs")) has a runtime setter"

echo "== tier-1: transport trace validation (8-rank bcast) =="
# An 8-rank run drives the tree allreduce through bcast_shared; the trace
# must show bcast-tagged send spans whose flow events pair up with a recv on
# another rank — shared payloads must not lose the send->recv causality
# edges the Chrome-trace export is built on.
trace8_json="$repo/build/check_trace8.json"
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 8 \
  --threads 2 --steps 3 --trace-out "$trace8_json" >/dev/null
python3 - "$trace8_json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
starts = {e["id"] for e in events if e.get("ph") == "s"}
ends = {e["id"] for e in events if e.get("ph") == "f"}
unmatched = ends - starts
assert not unmatched, f"{len(unmatched)} recv flow(s) with no matching send"
assert starts & ends, "no matched send->recv flow pair"
bcast_sends = [e for e in events
               if e.get("ph") == "X" and e.get("name") == "send"
               and e.get("args", {}).get("tag") == -2000]
bcast_ranks = {e["pid"] for e in bcast_sends}
assert bcast_sends, "8-rank run produced no bcast-tagged send spans"
assert len(bcast_ranks) >= 2, f"bcast sends from one rank only: {bcast_ranks}"
print(f"   trace8 ok: {len(events)} events, {len(starts & ends)} matched "
      f"flow pair(s), {len(bcast_sends)} bcast send span(s) over ranks "
      f"{sorted(bcast_ranks)}")
EOF

echo "== tier-1: zero-copy collective fan-out =="
# The arena fast path's acceptance bar: an 8-rank scatter -> alltoall ->
# gather round over PayloadArena slices must move zero payload bytes
# through memcpy — tests/test_transport.cpp asserts the
# payload_bytes_copied delta across the whole fan-out is exactly 0.
"$repo/build/tests/test_transport" \
  --gtest_filter='*CollectiveFanoutZeroCopy*' --gtest_brief=1
echo "   zero-copy fan-out ok"

echo "== tier-1: critical-path profiler validation =="
# A 4-rank traced job must flow through the critpath tool end to end: the
# text report parses, the attribution JSON validates against the checked-in
# schema (including the categories-sum-to-path-length invariant;
# scripts/validate_critpath.py), and the offline --critpath-in mode accepts
# the Chrome trace the same run exported.
critpath_report="$repo/build/check_critpath.txt"
critpath_json="$repo/build/check_critpath.json"
critpath_trace="$repo/build/check_critpath_trace.json"
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 4 \
  --threads 2 --steps 3 --critpath-out "$critpath_report" \
  --critpath-json "$critpath_json" --trace-out "$critpath_trace" >/dev/null
grep -q '^critical-path report$' "$critpath_report" \
  || { echo "critpath report missing its header" >&2; exit 1; }
grep -q 'makespan:' "$critpath_report" \
  || { echo "critpath report missing the makespan line" >&2; exit 1; }
python3 "$repo/scripts/validate_critpath.py" \
  "$repo/scripts/critpath_schema.json" "$critpath_json"
"$repo/build/examples/smart_cli" --critpath-in "$critpath_trace" \
  | grep -q '^critical-path report$' \
  || { echo "offline --critpath-in analysis failed" >&2; exit 1; }
echo "   critpath ok"

echo "== tier-1: bench smoke =="
# The microbenches must run and emit parseable JSON (scripts/bench.sh is the
# full sweep; this is just a liveness check on fast filters).
bench_json="$repo/build/check_bench.json"
"$repo/build/bench/micro_core_ops" \
  --benchmark_filter='BM_ReductionMapAccumulate|BM_MapCodec' \
  --benchmark_min_time=0.01 \
  --benchmark_out="$bench_json" --benchmark_out_format=json >/dev/null
python3 -m json.tool "$bench_json" >/dev/null
bench_transport_json="$repo/build/check_bench_transport.json"
"$repo/build/bench/micro_transport" \
  --benchmark_filter='BM_ShardedAnySourceFanIn|BM_PooledBufferPerMessage|BM_BoundedSlowReceiverPeakBytes|BM_TopologyMakespanFatTree' \
  --benchmark_min_time=0.01 \
  --benchmark_out="$bench_transport_json" --benchmark_out_format=json >/dev/null
python3 -m json.tool "$bench_transport_json" >/dev/null
echo "   bench smoke ok"

echo "== tier-1: bench regression gate =="
# The committed BENCH_*.json files are recorded from Release binaries, so
# the gates re-measure from a Release tree of their own (build-release/)
# rather than from the RelWithDebInfo build/ the tests use.
release="$repo/build-release"
cmake -B "$release" -S "$repo" -DCMAKE_BUILD_TYPE=Release -DSMART_WERROR=ON >/dev/null
cmake --build "$release" -j "$jobs" --target micro_core_ops micro_transport
# Re-measure the committed before/after transport pairs and compare their
# ratios (new/legacy) against BENCH_transport.json: a pair whose fresh ratio
# is >25% worse than the committed one fails (scripts/bench_gate.py).  The
# ratio-of-ratios form makes the gate machine-relative, so it holds on
# hosts faster or slower than the one that recorded the committed file.
# Five repetitions per bench: the gate reads each one's median, so a single
# slow repetition on a loaded host does not fail a pair.
if [[ -f "$repo/BENCH_transport.json" ]]; then
  bench_gate_json="$release/check_bench_gate.json"
  "$release/bench/micro_transport" \
    --benchmark_filter='AnySourceFanIn|ExactSourceRecv|Bcast1MiB8Ranks|BufferPerMessage' \
    --benchmark_min_time=0.05 --benchmark_repetitions=5 \
    --benchmark_out="$bench_gate_json" --benchmark_out_format=json >/dev/null
  # With a committed attribution on record, the gate also localizes any
  # regression: the fresh run's critpath JSON (from the validation step
  # above) is compared per category against BENCH_critpath.json.
  gate_critpath_args=()
  if [[ -f "$repo/BENCH_critpath.json" ]]; then
    gate_critpath_args=(--critpath "$critpath_json" \
                        --critpath-committed "$repo/BENCH_critpath.json")
  fi
  python3 "$repo/scripts/bench_gate.py" "$repo/BENCH_transport.json" \
    "$bench_gate_json" "${gate_critpath_args[@]}"
else
  echo "   no committed BENCH_transport.json; gate skipped"
fi

# Same ratio-of-ratios gate over the core pairs: the flat CombinationMap vs
# std::map, the scalar-vs-batched reduction pairs (columnar ChunkBatch
# kernels) and the per-run vs per-batch run loop, which must not quietly
# lose their speedup.  Slack is 1.4 here
# (vs the transport gate's default 1.25): the accumulate pairs drive the
# whole scheduler — pool dispatch, map distribution, merge — so their
# run-to-run ratio spread on a shared 1-CPU container is wider than the
# tight transport microloops'.  A real kernel regression (losing the 2x+)
# still lands far outside 1.4x of the committed ratio.  Medians of five
# repetitions, as in the transport gate.
if [[ -f "$repo/BENCH_core.json" ]]; then
  bench_core_gate_json="$release/check_bench_core_gate.json"
  "$release/bench/micro_core_ops" \
    --benchmark_filter='StdMapAccumulate|ReductionMapAccumulate|MapInsert|ScalarAccumulate|BatchedAccumulate|HistogramKeys|NearestCentroids|RunLoop' \
    --benchmark_min_time=0.05 --benchmark_repetitions=5 \
    --benchmark_out="$bench_core_gate_json" --benchmark_out_format=json >/dev/null
  python3 "$repo/scripts/bench_gate.py" --pairs core "$repo/BENCH_core.json" \
    "$bench_core_gate_json" 1.4
else
  echo "   no committed BENCH_core.json; core gate skipped"
fi

# Collective fast-path pairs (recorded in the same BENCH_transport.json):
# the arena fan-outs must keep copying exactly 0 payload bytes against the
# copying baselines' megabytes, and the planner-driven combine must keep
# beating the forced tree on every topology.  Both gate on counters
# (payload_bytes_copied_per_round / virtual_makespan_s) rather than wall
# time.  The copy counter is exact; the virtual makespan still charges
# measured compute time to the virtual clock, so one loaded repetition can
# double it — the gate reads the median of five, as above.
if [[ -f "$repo/BENCH_transport.json" ]]; then
  bench_collective_gate_json="$release/check_bench_collective_gate.json"
  "$release/bench/micro_transport" \
    --benchmark_filter='Alltoall8Ranks|ScatterGather8Ranks|CombineMakespan' \
    --benchmark_min_time=0.05 --benchmark_repetitions=5 \
    --benchmark_out="$bench_collective_gate_json" --benchmark_out_format=json >/dev/null
  python3 "$repo/scripts/bench_gate.py" --pairs collective \
    "$repo/BENCH_transport.json" "$bench_collective_gate_json"
else
  echo "   no committed BENCH_transport.json; collective gate skipped"
fi

echo "== tier-1: kernel vectorization probe =="
# The batched kernels only pay off if the compiler actually vectorizes
# them.  Compile the probe TU with vectorizer diagnostics on and assert at
# least one "loop vectorized" report — a libm call, loop-carried dependence,
# or aliasing hazard reintroduced into batch_kernels.h fails here instead of
# surfacing weeks later as a bench diff.
vec_log="$repo/build/check_vec_probe.log"
g++ -O3 -std=c++20 -I"$repo/src" -fopt-info-vec-optimized \
  -c "$repo/scripts/vec_probe.cpp" -o "$repo/build/check_vec_probe.o" \
  2> "$vec_log"
grep -q "vectorized" "$vec_log" \
  || { echo "batched histogram kernel no longer vectorizes:" >&2; \
       cat "$vec_log" >&2; exit 1; }
# The k-means assignment kernel uses GCC vector types, which the
# vectorizer never reports on: check each width's disassembly for packed
# subtract and multiply instead.  The AVX2 and AVX-512 legs must do both on
# %ymm and %zmm registers (a dropped target attribute compiles them to SSE2
# pairs), and must contain no FMA: a contracted multiply-add rounds once
# where the SSE2 leg and the scalar scan round twice, breaking
# bit-identity.  The probe is compiled without -ffp-contract=off, and
# AVX-512F implies FMA, so the AVX-512 leg passes only if it carries its
# own contraction guard.
vec_asm="$repo/build/check_vec_probe.asm"
objdump -d --no-show-raw-insn -C "$repo/build/check_vec_probe.o" > "$vec_asm"
kernel_body() {
  awk -v sym="$1" '/^[0-9a-f]+ <.*>:$/ { on = index($0, sym) > 0; next } on' "$vec_asm"
}
for width in 2 3 4 8; do
  body="$(kernel_body "nearest_centroids_fixed<double, ${width}ul>")"
  for insn in subpd mulpd; do
    grep -Eq "[[:space:]]v?${insn}[[:space:]]" <<< "$body" \
      || { echo "nearest_centroids width ${width} no longer emits ${insn}" >&2; exit 1; }
  done
  for leg in "avx2 AVX2 ymm" "avx512 AVX-512 zmm"; do
    read -r sym name reg <<< "$leg"
    body="$(kernel_body "nearest_centroids_${sym}<double, ${width}ul>")"
    for insn in vsubpd vmulpd; do
      grep -Eq "[[:space:]]${insn}[[:space:]].*%${reg}" <<< "$body" \
        || { echo "nearest_centroids ${name} leg width ${width} emits no ${insn} on %${reg}" >&2; exit 1; }
    done
    if grep -Eq "[[:space:]]v(fmadd|fmsub|fnmadd)" <<< "$body"; then
      echo "nearest_centroids ${name} leg width ${width} contracts to FMA" >&2; exit 1
    fi
  done
done
echo "   vec probe ok: $(grep -c 'vectorized' "$vec_log") vectorized loop report(s)," \
  "packed k-means kernel (SSE2, AVX2 and AVX-512 legs) at widths 2/3/4/8"

echo "== native: build + test with SMART_NATIVE=ON =="
# One pass of the batched-kernel exactness properties and a bench smoke with
# the full host ISA (-march=native): the scalar==batched bit-for-bit
# contract must hold at every vector width the kernels can compile to, not
# just baseline SSE2.
cmake -B "$repo/build-native" -S "$repo" -DSMART_NATIVE=ON \
  -DSMART_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$repo/build-native" -j "$jobs" \
  --target test_batch_kernels micro_core_ops
"$repo/build-native/tests/test_batch_kernels" --gtest_brief=1
"$repo/build-native/bench/micro_core_ops" \
  --benchmark_filter='BM_BatchedAccumulate/histogram' \
  --benchmark_min_time=0.01 >/dev/null
echo "   native pass ok"

if [[ "$run_tsan" == 1 ]]; then
  echo "== tsan: build test_threading + test_space_sharing + test_obs + test_combination_map + test_transport + test_batch_kernels =="
  cmake -B "$repo/build-tsan" -S "$repo" -DSMART_SANITIZE=thread \
    -DSMART_BUILD_BENCHES=OFF -DSMART_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-tsan" -j "$jobs" \
    --target test_threading test_space_sharing test_obs test_combination_map \
             test_transport test_batch_kernels

  echo "== tsan: run =="
  TSAN_OPTIONS="halt_on_error=1" "$repo/build-tsan/tests/test_threading"
  TSAN_OPTIONS="halt_on_error=1" "$repo/build-tsan/tests/test_space_sharing"
  TSAN_OPTIONS="halt_on_error=1" "$repo/build-tsan/tests/test_obs"
  TSAN_OPTIONS="halt_on_error=1" "$repo/build-tsan/tests/test_combination_map"
  TSAN_OPTIONS="halt_on_error=1" "$repo/build-tsan/tests/test_transport"
  TSAN_OPTIONS="halt_on_error=1" "$repo/build-tsan/tests/test_batch_kernels"
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== asan: build test_fault_tolerance + test_serialize + test_distributed + test_obs + test_transport + test_simmpi =="
  cmake -B "$repo/build-asan" -S "$repo" -DSMART_SANITIZE=address \
    -DSMART_BUILD_BENCHES=OFF -DSMART_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-asan" -j "$jobs" \
    --target test_fault_tolerance test_serialize test_distributed test_obs \
             test_transport test_simmpi

  echo "== asan: run =="
  ASAN_OPTIONS="halt_on_error=1" "$repo/build-asan/tests/test_fault_tolerance"
  ASAN_OPTIONS="halt_on_error=1" "$repo/build-asan/tests/test_serialize"
  ASAN_OPTIONS="halt_on_error=1" "$repo/build-asan/tests/test_distributed"
  # Metrics registry lifetime: reset() must not free histograms that
  # instrument sites hold by cached reference.
  ASAN_OPTIONS="halt_on_error=1" "$repo/build-asan/tests/test_obs"
  # Transport under rank death: kill-mid-scatter and the bounded gather's
  # null slots release shared arena slices while peers still hold views.
  ASAN_OPTIONS="halt_on_error=1" "$repo/build-asan/tests/test_transport"
  ASAN_OPTIONS="halt_on_error=1" "$repo/build-asan/tests/test_simmpi"
fi

echo "== check.sh: all green =="
