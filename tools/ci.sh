#!/usr/bin/env bash
# CI driver: build + test the plain configuration, then rebuild everything
# under ThreadSanitizer and run the suite again, then once more under
# ASan+UBSan. TSan is what makes the parallel rewrite engine's "race-free
# at any thread count" claim a checked property instead of a code-review
# one (see DESIGN.md §"Parallel discovery, serial commit"); ASan/UBSan do
# the same for the hostile-input corpora and the fault-injection stress
# runs (test_malformed_inputs, test_faults), whose exception-unwind and
# rollback paths are exactly where leaks and lifetime bugs would hide.
#
# Tests are registered in two ctest tiers (tests/CMakeLists.txt): "tier1"
# (everything but the 50-seed × thread-count sweeps) and "stress" (suites
# named *Stress*). The quick default runs tier1 in every build flavor;
# nightly mode (--nightly, or PYPM_CI_NIGHTLY=1) runs the full suite —
# both tiers — everywhere, which is where the incremental/batched
# differential sweeps earn their keep.
#
# Usage: tools/ci.sh [--nightly] [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."

NIGHTLY="${PYPM_CI_NIGHTLY:-0}"
if [[ "${1:-}" == "--nightly" ]]; then
  NIGHTLY=1
  shift
fi
JOBS="${1:-$(nproc)}"

# Quick tier by default; the full two-tier suite nightly.
CTEST_ARGS=(--output-on-failure)
if [[ "$NIGHTLY" != "1" ]]; then
  CTEST_ARGS+=(-L tier1)
fi

echo "=== plain build ==="
cmake -B build-ci -S . >/dev/null
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci "${CTEST_ARGS[@]}"

# The configure probe links pypmc and pypmd statically where the toolchain
# can (tools/CMakeLists.txt); log which link mode this toolchain got. The
# tier-1 test pypm_tools_static pins it when the probe chose static.
echo "=== tool link mode (plain build) ==="
for T in pypmc pypmd; do
  INTERP=$(readelf -lW "build-ci/tools/$T" | grep -o 'interpreter: [^]]*' || true)
  echo "$T: ${INTERP:-static, no PT_INTERP}"
done

echo "=== thread-sanitizer build ==="
cmake -B build-ci-tsan -S . -DPYPM_SANITIZE=thread >/dev/null
cmake --build build-ci-tsan -j "$JOBS"
ctest --test-dir build-ci-tsan "${CTEST_ARGS[@]}"

echo "=== address+undefined-sanitizer build ==="
cmake -B build-ci-asan -S . -DPYPM_SANITIZE=address,undefined >/dev/null
cmake --build build-ci-asan -j "$JOBS"
ctest --test-dir build-ci-asan "${CTEST_ARGS[@]}"

# The plan matcher's differential, governance (budget/quarantine), and
# .pypmplan hostile-input suites get a dedicated ASan/UBSan leg: the plan
# executor's trail/unwind machinery and the loader's recompile-and-compare
# path allocate aggressively, so this is where lifetime bugs would hide.
# (ctest above already ran them once; this re-run keeps the plan legs loud
# and greppable in CI logs.)
echo "=== plan-matcher suites under ASan/UBSan ==="
./build-ci-asan/tests/pypm_tests \
  --gtest_filter='*MatchPlan*:MalformedPlanBinary.*'

# Profile-guided ordering gets the same treatment: the differential
# profiling suite plus the .pypmprof hostile-input corpus under
# ASan/UBSan (serializer + applyProfile allocate and permute), and the
# differential suite alone under TSan — per-worker traversal traces are
# recorded during parallel discovery and merged at commit, which is
# exactly the cross-thread handoff a race would corrupt.
echo "=== profiled-plan suites under ASan/UBSan ==="
./build-ci-asan/tests/pypm_tests \
  --gtest_filter='*PlanProfile*:MalformedProfileBinary.*'

echo "=== profiled-plan suites under TSan ==="
./build-ci-tsan/tests/pypm_tests \
  --gtest_filter='*PlanProfile*'

# Batched + incremental discovery: the dirty-region memo and the batched
# candidate masks are per-pass mutable state threaded through the parallel
# engine, so the differential suite runs under both sanitizers — TSan for
# the frozen-mask/memo handoff across workers, ASan/UBSan for the memo
# record/replay lifetime. Tier-1 members ran in ctest above; the quick
# default re-runs them filtered so the incremental legs stay greppable.
echo "=== incremental/batched suites under ASan/UBSan ==="
./build-ci-asan/tests/pypm_tests \
  --gtest_filter='IncrementalEngine.*:BatchCandidates.*:BatchMatchers.*'

echo "=== incremental/batched suites under TSan ==="
./build-ci-tsan/tests/pypm_tests \
  --gtest_filter='IncrementalEngine.*:BatchCandidates.*:BatchMatchers.*'

# Fire-local commit: the engine's term view persists across fires (per-node
# memo, per-term and per-operator chains, an open-addressed head table)
# and each fire sweeps by reference count, unlinking swept nodes from use
# lists — index and use-list bookkeeping, so the differential suites run
# under ASan/UBSan. The parallel commit path goes through the same
# fireFirstRule, so the cross-matcher and persistent-view suites (threads
# 0/1/2/4/8) run under TSan too.
echo "=== fire-local commit suites under ASan/UBSan ==="
./build-ci-asan/tests/pypm_tests --gtest_filter='TermViewTest.*:CrossMatcherRewrite.*:*PersistentTermView*:FireLocalSweep.*:TermViewScaling.*'

echo "=== fire-local commit suites under TSan ==="
./build-ci-tsan/tests/pypm_tests \
  --gtest_filter='CrossMatcherRewrite.*:*PersistentTermView*'

# The graph text codec reads with its own index arithmetic (a cursor over
# the whole buffer, dense name and uid tables sized from the text), so its
# hostile-input corpora and contract suites run under ASan/UBSan. Two
# daemon workers parse concurrently, each with caches local to its call,
# so the concurrent-client stress runs under TSan.
echo "=== graph text codec suites under ASan/UBSan ==="
./build-ci-asan/tests/pypm_tests \
  --gtest_filter='GraphIO*:MalformedGraphText.*'

echo "=== concurrent daemon clients under TSan ==="
./build-ci-tsan/tests/pypm_tests \
  --gtest_filter='ServerStress.FiftySeedConcurrentClientsMatchSingleShot'

# Static rule-set lint: the §4 std libraries and every shipped example rule
# set must stay free of error-severity findings (pypmc lint exits 7 on any
# error finding, failing the leg). Run under the ASan/UBSan build — the
# guard solver's saturating interval arithmetic and the skeleton arena are
# exactly where overflow/lifetime bugs would hide. The Analysis* gtest
# suites re-run here too so the lint-on ≡ lint-off differential stays loud.
echo "=== rule-set lint (std libraries + examples) under ASan/UBSan ==="
./build-ci-asan/tools/pypmc lint --std
./build-ci-asan/tools/pypmc lint --std --critical-pairs
for RS in examples/rulesets/*.pypm; do
  ./build-ci-asan/tools/pypmc lint "$RS"
done
./build-ci-asan/tests/pypm_tests --gtest_filter='Analysis*:*LintDifferential*'

# Critical-pair analysis against the shipped example rule sets: the
# algebra and epilog-fusion sets must certify confluent, and the
# transpose set must be refuted with a concrete witness (exit 0 either
# way — conflicts are warnings; the greps pin the verdicts). Under
# ASan/UBSan: the analyzer unifies, clones, and normalizes aggressively,
# which is exactly where lifetime bugs would hide.
echo "=== critical-pair certificates (example rule sets) under ASan/UBSan ==="
./build-ci-asan/tools/pypmc lint examples/rulesets/algebra.pypm \
  --critical-pairs | grep -q 'analysis.certified-confluent'
./build-ci-asan/tools/pypmc lint examples/rulesets/epilog_fusion.pypm \
  --critical-pairs | grep -q 'analysis.certified-confluent'
./build-ci-asan/tools/pypmc lint examples/rulesets/transpose.pypm \
  --critical-pairs | grep -q 'analysis.critical-pair'

# The rewrite daemon, end to end over its real wire format, under both
# sanitizer builds: TSan watches the worker pool / admission queue /
# per-connection reply serialization, ASan/UBSan the frame codecs and the
# corrupt-frame recovery path. The scripted connection covers the whole
# status taxonomy a client must handle: a clean rewrite, an over-budget
# request (BudgetExhausted without poisoning the request after it), a
# corrupted frame body (MalformedRequest, connection survives), and a
# shutdown frame that must drain to exit 0.
echo "=== pypmd daemon smoke (framed pipeline) under TSan and ASan/UBSan ==="
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
printf 'op Add(2);\nop Zero(0);\npattern AddZero(x) { return Add(x, Zero()); }\nrule elim_add_zero for AddZero(x) { return x; }\n' \
  > "$SMOKE/rules.pypm"
printf 'z = Zero() : f32[]\na = Add(z, z) : f32[]\nb = Add(a, z) : f32[]\noutput b\n' \
  > "$SMOKE/graph.pypmg"
for B in build-ci-tsan build-ci-asan; do
  PD="./$B/tools/pypmd"
  "$PD" selftest
  {
    "$PD" emit rewrite "$SMOKE/rules.pypm" "$SMOKE/graph.pypmg" --seq 1
    "$PD" emit rewrite "$SMOKE/rules.pypm" "$SMOKE/graph.pypmg" --seq 2 \
      --max-steps 1
    "$PD" emit corrupt-body "$SMOKE/rules.pypm" "$SMOKE/graph.pypmg"
    "$PD" emit rewrite "$SMOKE/rules.pypm" "$SMOKE/graph.pypmg" --seq 3
    "$PD" emit shutdown --seq 9
  } | "$PD" serve --stdio --workers 2 --plan-cache-dir "$SMOKE/cache.$B" \
    | "$PD" decode > "$SMOKE/replies.$B.jsonl"
  grep -q '"status":"malformed-request"' "$SMOKE/replies.$B.jsonl"
  grep -q '"engine":"budget-exhausted"' "$SMOKE/replies.$B.jsonl"
  grep -q '"reason":"steps"' "$SMOKE/replies.$B.jsonl"
  grep -q '"served":3' "$SMOKE/replies.$B.jsonl" # clean drain counted all 3
done

# The plan executor (tests/test_executor.cpp) under both sanitizers: its
# computed-goto loop runs the trail/unwind machinery of ExecState
# (ASan/UBSan territory) and discovery workers each spin up an executor
# over the one shared decoded stream (TSan territory). The suites keep the
# names of the matchers they were ported from (FastMatcher*, Aot*), so
# their test ids stay stable.
echo "=== plan-executor suites under ASan/UBSan ==="
./build-ci-asan/tests/pypm_tests --gtest_filter='FastMatcher*:*Aot*'

echo "=== plan-executor suites under TSan ==="
./build-ci-tsan/tests/pypm_tests --gtest_filter='FastMatcher*:*Aot*'

# The default matcher (plan) against the reference machine, end to end over
# the real CLI: on each shipped example rule set the rewritten graphs must
# be byte-identical.
echo "=== plan vs machine on the example rule sets (pypmc) ==="
printf 'z = Zero() : f32[]\nx = Input[uid=1]() : f32[]\nn = Neg(x) : f32[]\nnn = Neg(n) : f32[]\na = Add(nn, z) : f32[]\nb = Add(z, a) : f32[]\noutput b\n' \
  > "$SMOKE/algebra.pypmg"
printf 'x = Input[uid=1]() : f32[8x4]\ny = Input[uid=2]() : f32[4x8]\ntx = Trans(x) : f32[4x8]\nty = Trans(y) : f32[8x4]\nm = MatMul(tx, ty) : f32[4x4]\nt = Trans(m) : f32[4x4]\ntt = Trans(t) : f32[4x4]\noutput tt\n' \
  > "$SMOKE/transpose.pypmg"
printf 'a = Input[uid=1]() : f32[8x8]\nb = Input[uid=2]() : f32[8x8]\nc = Input[uid=3]() : f32[8x8]\nm = MatMul(a, b) : f32[8x8]\nr = Relu(m) : f32[8x8]\nm2 = MatMul(r, c) : f32[8x8]\ns = Sigmoid(m2) : f32[8x8]\noutput s\n' \
  > "$SMOKE/epilog_fusion.pypmg"
for RS in algebra transpose epilog_fusion; do
  ./build-ci/tools/pypmc rewrite "examples/rulesets/$RS.pypm" \
    "$SMOKE/$RS.pypmg" -o "$SMOKE/$RS.plan.pypmg" 2>/dev/null
  ./build-ci/tools/pypmc rewrite "examples/rulesets/$RS.pypm" \
    "$SMOKE/$RS.pypmg" -o "$SMOKE/$RS.machine.pypmg" --matcher=machine \
    2>/dev/null
  cmp "$SMOKE/$RS.plan.pypmg" "$SMOKE/$RS.machine.pypmg"
done

# The plain build's pypmc is static where the toolchain allows it, the
# ASan/UBSan build's is dynamic: the two must write the same bytes.
echo "=== static vs dynamic pypmc on the example rule sets ==="
for RS in algebra transpose epilog_fusion; do
  ./build-ci-asan/tools/pypmc rewrite "examples/rulesets/$RS.pypm" \
    "$SMOKE/$RS.pypmg" -o "$SMOKE/$RS.dynamic.pypmg" 2>/dev/null
  cmp "$SMOKE/$RS.plan.pypmg" "$SMOKE/$RS.dynamic.pypmg"
done

# Smoke-sized batched/incremental benchmark: exercises the sweep driver
# end to end and sanity-checks that the modes actually amortize (the
# committed BENCH_incremental_sweep.json is produced by a full-size run).
echo "=== incremental-sweep benchmark (smoke) ==="
./build-ci/bench/bench_partitioning --incremental-sweep --smoke \
  >/dev/null

# Daemon warm-vs-cold sweep (smoke): the plan-cache tiers must actually
# pay off, and the sweep driver itself is exercised end to end (the
# committed BENCH_daemon_sweep.json comes from a full-size run).
echo "=== daemon-sweep benchmark (smoke) ==="
./build-ci/bench/bench_partitioning --daemon-sweep --smoke >/dev/null

# Cost-directed search. The oracle/differential/fall-through suites run
# under ASan/UBSan — applyCandidate's transactional rollback and the
# clone-per-candidate expansion are allocation-heavy unwind paths — and
# the beam commit loop under TSan: speculative expansion fans clones out
# across the worker pool while the committed path stays serial, which is
# exactly the isolation boundary a race would cross. (Tier-1 members ran
# in ctest above; the filtered re-runs keep the search legs greppable.)
echo "=== cost-directed search suites under ASan/UBSan ==="
./build-ci-asan/tests/pypm_tests \
  --gtest_filter='Search*:CostModel.*'

echo "=== cost-directed search suites under TSan ==="
./build-ci-tsan/tests/pypm_tests \
  --gtest_filter='SearchConflictTest.*:SearchStress*'

# Search sweep (smoke): the beam must strictly beat greedy modeled cost
# on the conflict ladder and match it on the confluent zoo — the sweep
# driver exits nonzero if either claim fails (the committed
# BENCH_search_sweep.json comes from a full-size run).
echo "=== search-sweep benchmark (smoke) ==="
./build-ci/bench/bench_partitioning --search-sweep --smoke >/dev/null

# Critical-pair sweep (smoke): the driver asserts its claims as it
# measures — the conflict set must refute, the epilog library must
# certify, auto must spend zero search work on the certified set and
# land on beam's end state on the conflicting one (the committed
# BENCH_critical_sweep.json comes from a full-size run).
echo "=== critical-sweep benchmark (smoke) ==="
./build-ci/bench/bench_partitioning --critical-sweep --smoke >/dev/null

# Static analysis over the analysis subsystem itself: clang-tidy's
# bugprone-* and performance-* checks, warnings-as-errors, against the
# compile database the plain build exports. Scoped to src/analysis/ — the
# newest, most pointer-juggling code — so the leg stays fast and the
# signal stays high. Auto-skips when clang-tidy is not on PATH.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy (src/analysis/, bugprone-* performance-*) ==="
  clang-tidy -p build-ci \
    -checks='-*,bugprone-*,performance-*' \
    -warnings-as-errors='bugprone-*,performance-*' \
    src/analysis/*.cpp
else
  echo "=== clang-tidy: SKIPPED (not on PATH; the sanitizer builds above" \
    "still cover src/analysis/ dynamically) ==="
fi

echo "=== ci.sh: all green ==="
