#!/usr/bin/env bash
# CI entry point: strict build, full test suite, chaos determinism,
# translation-validation soundness (verify suites + bench_equivalence
# thread-determinism), static resource analysis (resources suites +
# bench_qec_resources thread-determinism), serving determinism (serve
# suites + bench_serving thread-determinism), request-lifecycle
# determinism (lifecycle suites + a chaos-armed bench_serving run whose
# serving and lifecycle sections must be bit-identical across thread
# counts), clang-tidy, then the heavy stages — a
# fail-points-off build (the fault-injection macros must compile away
# cleanly) and two sanitizer builds: ASan+UBSan over the language
# front-end tests (the part that chews model-corrupted input all day
# and so is the most UB-prone) plus the fail-point/harness/serve/
# lifecycle suites, and TSan over the thread-pool / parallel evaluation
# / resilience / serving tests (the part that actually runs concurrent
# code, now including the async request engine and its breakers).
#
# Tool preflight: the stages assume ccache (build caching) and
# clang-tidy (stage 8). A missing tool fails fast with an install hint
# instead of silently degrading CI coverage; pass --allow-missing-tools
# to downgrade that to a recorded skip (developer machines). Every
# skipped stage is listed in a summary at the end.
#
# Usage: scripts/check.sh [--quick] [--allow-missing-tools]
#   --quick               skip the heavy stages (developer inner loop)
#   --skip-sanitizers     legacy alias for --quick
#   --allow-missing-tools record-and-skip stages whose tool is absent
#                         instead of failing the preflight

set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SAN=0
ALLOW_MISSING=0
for arg in "$@"; do
  case "$arg" in
    --quick|--skip-sanitizers) SKIP_SAN=1 ;;
    --allow-missing-tools) ALLOW_MISSING=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Stages skipped in this run, with reasons; printed as a summary at the
# end so a green run with silent gaps cannot masquerade as full coverage.
SKIPPED=()
skip_stage() {
  SKIPPED+=("$1: $2")
  echo "    SKIPPED: $2"
}

print_summary() {
  echo "==> stage-skip summary"
  if [[ ${#SKIPPED[@]} -eq 0 ]]; then
    echo "    none — every stage ran"
  else
    for entry in "${SKIPPED[@]}"; do
      echo "    - $entry"
    done
  fi
}

# --- tool preflight ---------------------------------------------------------
# Hard requirements first: nothing works without these.
for tool in cmake ctest python3; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "check.sh: required tool '$tool' not found on PATH" >&2
    exit 2
  fi
done
# Soft requirements: fail fast by default so CI never silently loses a
# stage; --allow-missing-tools records the skip instead.
HAVE_CCACHE=1
HAVE_TIDY=1
for tool in ccache clang-tidy; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    if [[ "$ALLOW_MISSING" == "1" ]]; then
      [[ "$tool" == ccache ]] && HAVE_CCACHE=0 || HAVE_TIDY=0
      echo "check.sh: '$tool' not found; continuing (--allow-missing-tools)"
    else
      echo "check.sh: '$tool' not found on PATH." >&2
      echo "  Install it (apt-get install $tool) or re-run with" >&2
      echo "  --allow-missing-tools to record-and-skip its stage." >&2
      exit 2
    fi
  fi
done

# ccache is a build accelerator, not a stage: wire it up when present,
# record its absence so slow CI builds are explainable from the log.
LAUNCHER_ARGS=()
if [[ "$HAVE_CCACHE" == "1" ]]; then
  LAUNCHER_ARGS+=("-DCMAKE_C_COMPILER_LAUNCHER=ccache"
                  "-DCMAKE_CXX_COMPILER_LAUNCHER=ccache")
else
  SKIPPED+=("ccache: not installed; builds run uncached")
fi

echo "==> [1/11] strict build (warnings as errors)"
cmake -B build-check -S . -DQCGEN_WARNINGS_AS_ERRORS=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-check -j "$JOBS"

echo "==> [2/11] full test suite, every bench's report, validator rejections"
ctest --test-dir build-check --output-on-failure -j "$JOBS"
# Every bench once at --samples 1, each report schema-checked (as CI's
# bench job does).
SMOKE=build-check/bench-smoke
rm -rf "$SMOKE" && mkdir -p "$SMOKE"
for bench in build-check/bench/bench_*; do
  [[ -x "$bench" && -f "$bench" ]] || continue
  name="$(basename "$bench")"
  "$bench" --samples 1 --json "$SMOKE/$name.json" >/dev/null
done
scripts/validate_bench_json.py "$SMOKE"/bench_*.json
# The validator must reject a report for the right reason: a wrong
# schema_version, and a serving row whose admission counts do not sum.
# The control report differs from the second only in that count.
report_head='"bench": "hand_made", "results": {},
  "config": {"samples": 1, "seed": 1, "threads": 1, "quick": false},
  "timing": {"wall_seconds": 0.1, "trials": 1, "trials_per_second": 10.0}'
serving_row='"mix": "uniform", "rate": 4.0, "requests": 5, "completed": 5,
  "failed": 0, "deadline_exceeded": 0, "cancelled": 0, "semantic_ok": 2,
  "shed": 0, "admitted_no_rag": 1, "admitted_static_only": 0,
  "shed_events": [], "degradation_events": [], "virtual_latency": {"p50": 1,
  "p90": 2, "p99": 3, "p999": 3, "mean": 1.5, "max": 3}'
printf '{"schema_version": 8, %s, "serving": {"rows": [{%s, "admitted_full": 4}]}}\n' \
  "$report_head" "$serving_row" > "$SMOKE/good.json"
printf '{"schema_version": 7, %s}\n' "$report_head" > "$SMOKE/bad_schema.json"
printf '{"schema_version": 8, %s, "serving": {"rows": [{%s, "admitted_full": 3}]}}\n' \
  "$report_head" "$serving_row" > "$SMOKE/bad_admission.json"
scripts/validate_bench_json.py "$SMOKE/good.json" >/dev/null
expect_rejected() {  # FILE REASON
  local out
  if out="$(scripts/validate_bench_json.py "$1" 2>&1)"; then
    echo "check.sh: validator accepted $1" >&2
    exit 1
  fi
  if ! grep -q "$2" <<<"$out"; then
    echo "check.sh: validator rejected $1 for another reason: $out" >&2
    exit 1
  fi
}
expect_rejected "$SMOKE/bad_schema.json" "schema_version must be 8"
expect_rejected "$SMOKE/bad_admission.json" "admission counts"
# google-benchmark's wall numbers ride under "timing", so two runs of the
# microbenchmarks agree outside it.
for run in a b; do
  ./build-check/bench/bench_sim_throughput --samples 1 \
    --json "$SMOKE/sim_throughput_$run.json" >/dev/null 2>&1
done
scripts/validate_bench_json.py --compare \
  "$SMOKE/sim_throughput_a.json" "$SMOKE/sim_throughput_b.json"

echo "==> [3/11] chaos determinism (bench_chaos --quick, threads 1 vs 8)"
# The fault-injection sweep must be bit-identical at any thread count
# for a fixed (seed, samples, scenario) — including the
# trial_failures/degradations sections, which --compare keeps.
./build-check/bench/bench_chaos --quick --seed 7 --threads 1 \
  --json build-check/BENCH_chaos_t1.json >/dev/null
./build-check/bench/bench_chaos --quick --seed 7 --threads 8 \
  --json build-check/BENCH_chaos_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_chaos_t1.json build-check/BENCH_chaos_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_chaos_t1.json build-check/BENCH_chaos_t8.json
# The sweep's last row fails every trial at generate, so the array it
# compares is empty. A mixed scenario records real ladder steps on every
# stage (generate, analyze, verify, repair, qec) and must match too.
LADDER_SCENARIO='retrieval.query=error(0.5);llm.generate=error(0.6)@pass>1;analyzer.abstract=error(0.3);analyzer.simulate=error(0.3);qec.decode=error(1.0)'
for threads in 1 8; do
  ./build-check/bench/bench_chaos --quick --seed 7 --threads "$threads" \
    --scenario "$LADDER_SCENARIO" \
    --json "build-check/BENCH_chaos_ladder_t$threads.json" >/dev/null
done
scripts/validate_bench_json.py \
  build-check/BENCH_chaos_ladder_t1.json build-check/BENCH_chaos_ladder_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_chaos_ladder_t1.json build-check/BENCH_chaos_ladder_t8.json
# The taxonomy bench must contain failed trials too: a scenario that
# fails every generation, and the ladder scenario, each exit 0 with a
# valid report.
for scenario in "llm.generate=error(1.0)" "$LADDER_SCENARIO"; do
  ./build-check/bench/bench_error_taxonomy --samples 1 --scenario "$scenario" \
    --json build-check/BENCH_error_taxonomy_chaos.json >/dev/null
  scripts/validate_bench_json.py build-check/BENCH_error_taxonomy_chaos.json
done

echo "==> [4/11] translation validation (verify suites + bench_equivalence)"
# Every equivalence verdict is cross-checked against exact simulation;
# bench_equivalence exits non-zero on any false proved-equal /
# proved-different or a fix-it prove rate below 0.95, and its JSON
# artifact must be identical at any thread count (modulo timing).
ctest --test-dir build-check --output-on-failure -L verify
./build-check/bench/bench_equivalence --samples 1 --threads 1 \
  --json build-check/BENCH_equivalence_t1.json >/dev/null
./build-check/bench/bench_equivalence --samples 1 --threads 8 \
  --json build-check/BENCH_equivalence_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_equivalence_t1.json \
  build-check/BENCH_equivalence_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_equivalence_t1.json \
  build-check/BENCH_equivalence_t8.json

echo "==> [5/11] static resource analysis (resources suites + bench_qec_resources)"
# The cost-lattice engine and its QEC ResourcePlan consumer: exact
# enumeration cross-checks, the certified qubit-reuse fix-it gate, and
# the "resources" section of the sweep, bit-identical at any thread count.
ctest --test-dir build-check --output-on-failure -L resources
./build-check/bench/bench_qec_resources --samples 1 --threads 1 \
  --json build-check/BENCH_qec_resources_t1.json >/dev/null
./build-check/bench/bench_qec_resources --samples 1 --threads 8 \
  --json build-check/BENCH_qec_resources_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_qec_resources_t1.json \
  build-check/BENCH_qec_resources_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_qec_resources_t1.json \
  build-check/BENCH_qec_resources_t8.json

echo "==> [6/11] serving + cache determinism (serve/cache suites, stress repeats, bench_serving, traced fig3)"
# The async request engine and the content-addressed caching layer:
# admission decisions, shed/degradation events and virtual-time latency
# quantiles (the "serving" section) must be bit-identical at
# any worker thread count; wall-clock latency and the per-layer cache
# counters and speedup live under "timing", which --compare strips.
# The thread-invariance suites then run 300 times each, so a flake that
# shows once in a few dozen runs fails here; gtest exits non-zero if any
# repeat fails.
ctest --test-dir build-check --output-on-failure -L serve
ctest --test-dir build-check --output-on-failure -L cache
./build-check/tests/test_serve --gtest_brief=1 \
  --gtest_filter='Server.ResultsAre*:ServerCache.*' --gtest_repeat=300
./build-check/tests/test_lifecycle --gtest_brief=1 \
  --gtest_filter='Breaker.*ThreadCount*' --gtest_repeat=300
./build-check/tests/test_breaker --gtest_brief=1 \
  --gtest_filter='Breaker.*ThreadCount*' --gtest_repeat=300
# An eval trial matrix memoizes analysis and retrieval across its trials,
# so workers race to fill shared entries; its thread-invariance and
# cached-vs-uncached suites repeat too.
./build-check/tests/test_parallel_eval --gtest_brief=1 \
  --gtest_filter='EvaluateTechnique.*ThreadCount*:RunTrialMatrix.*' \
  --gtest_repeat=300
# The fold relies on the pool starting tasks and indices in order.
./build-check/tests/test_thread_pool --gtest_brief=1 \
  --gtest_filter='ThreadPool.*Order*' --gtest_repeat=300
# Every worker reads the matrix's shared gold programs and analyzer kit
# and aliases shared analysis reports; none may be mutated through the
# share at any thread count.
./build-check/tests/test_shared_artifacts --gtest_brief=1 \
  --gtest_filter='SharedArtifacts.*ThreadCount*' --gtest_repeat=300
# The process-wide knowledge, store and gold tables fill once per
# process, so a repeat cannot race a first use again: the first-use race
# runs in 20 fresh processes instead.
for run in $(seq 1 20); do
  ./build-check/tests/test_shared_artifacts --gtest_brief=1 \
    --gtest_filter='ProcessTables.FirstUseRace*'
done
./build-check/bench/bench_serving --quick --seed 7 --threads 1 \
  --json build-check/BENCH_serving_t1.json >/dev/null
./build-check/bench/bench_serving --quick --seed 7 --threads 8 \
  --json build-check/BENCH_serving_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_serving_t1.json build-check/BENCH_serving_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_serving_t1.json build-check/BENCH_serving_t8.json
# The trace summary (span counts, counters, histogram aggregates) is
# deterministic too: a traced run with its QEC stage must match between
# 1 and 8 workers.
for threads in 1 8; do
  ./build-check/bench/bench_serving --quick --seed 7 --threads "$threads" \
    --trace "build-check/TRACE_serving_t$threads.json" \
    --json "build-check/BENCH_serving_trace_t$threads.json" >/dev/null
done
scripts/validate_bench_json.py \
  build-check/BENCH_serving_trace_t1.json build-check/BENCH_serving_trace_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_serving_trace_t1.json build-check/BENCH_serving_trace_t8.json
# A memo hit in an eval matrix replays the trace its compute recorded, so
# a traced eval's summary must also match between 1 and 8 workers.
for threads in 1 8; do
  ./build-check/bench/bench_fig3_techniques --quick --seed 7 \
    --threads "$threads" --trace "build-check/TRACE_fig3_t$threads.json" \
    --json "build-check/BENCH_fig3_trace_t$threads.json" >/dev/null
done
scripts/validate_bench_json.py \
  build-check/BENCH_fig3_trace_t1.json build-check/BENCH_fig3_trace_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_fig3_trace_t1.json build-check/BENCH_fig3_trace_t8.json

echo "==> [7/11] request lifecycle (lifecycle suites + chaos-armed bench_serving)"
# Deadline propagation, cooperative cancellation and per-site circuit
# breakers: the lifecycle suites replay the breaker state machine at
# several thread counts, and a bench_serving run with sustained faults
# armed bench-wide must (a) satisfy the validator — outcome
# conservation, legal breaker transition chains — and (b) stay
# bit-identical between 1 and 8 workers. --scenario also skips the
# cache study.
ctest --test-dir build-check --output-on-failure -L lifecycle
./build-check/bench/bench_serving --quick --seed 7 --threads 1 \
  --scenario "qec.decode=error(1.0);retrieval.query=error(0.7)" \
  --json build-check/BENCH_lifecycle_t1.json >/dev/null
./build-check/bench/bench_serving --quick --seed 7 --threads 8 \
  --scenario "qec.decode=error(1.0);retrieval.query=error(0.7)" \
  --json build-check/BENCH_lifecycle_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_lifecycle_t1.json build-check/BENCH_lifecycle_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_lifecycle_t1.json build-check/BENCH_lifecycle_t8.json

echo "==> [8/11] clang-tidy (.clang-tidy profile)"
if [[ "$HAVE_TIDY" == "1" ]]; then
  # Project sources only; third-party and generated code stay out via
  # the explicit file list (compile_commands.json covers everything).
  mapfile -t TIDY_SOURCES < <(find src bench -name '*.cpp' | sort)
  clang-tidy -p build-check --quiet "${TIDY_SOURCES[@]}"
else
  skip_stage "[8/11] clang-tidy" "clang-tidy not installed (profile: .clang-tidy)"
fi

if [[ "$SKIP_SAN" == "1" ]]; then
  skip_stage "[9/11] fail-points-off build" "--quick"
  skip_stage "[10/11] ASan+UBSan" "--quick"
  skip_stage "[11/11] TSan" "--quick"
  print_summary
  echo "==> all checks passed (quick)"
  exit 0
fi

echo "==> [9/11] fail-points-off build (-DQCGEN_FAILPOINTS=OFF)"
# check()/trip() compile to inline no-op stubs; the dormant paths and
# their tests must build and pass without the injection machinery.
cmake -B build-nofp -S . -DQCGEN_FAILPOINTS=OFF \
  -DQCGEN_BUILD_BENCH=OFF -DQCGEN_BUILD_EXAMPLES=OFF \
  "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-nofp -j "$JOBS"
ctest --test-dir build-nofp --output-on-failure -j "$JOBS" \
  -R 'test_failpoint|test_resilience|test_parallel_eval|test_serve|test_lifecycle|test_breaker'

echo "==> [10/11] ASan+UBSan build, qasm/lint/circuit/fuzz/chaos/serve/lifecycle/retrieval/ladder/agent tests"
# Tokens view the parsed source, so the lexer, parser and analyzer-oracle
# suites here also guard against a token outliving its text.
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DQCGEN_SANITIZE="address;undefined" \
  -DQCGEN_BUILD_BENCH=OFF -DQCGEN_BUILD_EXAMPLES=OFF \
  "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'test_qasm_lexer|test_qasm_parser|test_qasm_analyzer|test_analyzer_oracle|test_circuit|test_qasm_lint|test_qasm_roundtrip|test_resource_analysis|test_qec_resources|test_verify|test_verify_fuzz|test_fuzz_robustness|test_failpoint|test_bench_harness|test_cache|test_serve|test_lifecycle|test_breaker|test_llm_retrieval|test_shared_artifacts|test_resilience|test_agents'

echo "==> [11/11] TSan build, thread-pool / trace / parallel-eval / chaos / cache / serve / lifecycle tests"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DQCGEN_SANITIZE=thread \
  -DQCGEN_BUILD_BENCH=OFF -DQCGEN_BUILD_EXAMPLES=OFF \
  "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-tsan -j "$JOBS"
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'test_thread_pool|test_trace|test_parallel_eval|test_failpoint|test_resilience|test_cache|test_serve|test_lifecycle|test_breaker|test_shared_artifacts'

print_summary
echo "==> all checks passed"
