#!/bin/sh
# One-shot verification of the tier-1 suite, optionally under a sanitizer.
#
#   scripts/check.sh          # plain build + ctest (the tier-1 gate)
#   scripts/check.sh tsan     # ThreadSanitizer build + ctest, TDAC_THREADS=8
#   scripts/check.sh asan     # AddressSanitizer+UBSan build + ctest
#   scripts/check.sh ubsan    # standalone UBSan build + ctest
#   scripts/check.sh lint     # tdac_lint (with stale-waiver audit) +
#                             # clang-tidy (if installed)
#   scripts/check.sh lint-fast [ref]  # tdac_lint on changed lines only
#                             # (vs. origin/main or [ref]); no clang-tidy
#   scripts/check.sh robust   # robustness/corruption/edge-case suites
#                             # under ASan+UBSan (fault-injection gate)
#   scripts/check.sh crash    # checkpoint/resume + kill-the-process
#                             # crash-recovery suites under ASan, 20
#                             # SIGKILL/resume iterations per algorithm
#   scripts/check.sh scenarios # scenario-generator contract + the edge-case
#                             # regression suites under ASan+UBSan, plus a
#                             # bench_scenario_matrix --smoke sweep
#   scripts/check.sh serve    # serving-layer gate: the serve suites (both
#                             # registrations, so TDAC_THREADS=8 included)
#                             # plus the open-loop bench_serve_load run with
#                             # its forced-overload phase (docs/serving.md)
#   scripts/check.sh chaos    # crash-tolerant serving gate: journal replay,
#                             # protocol fuzz, and the supervised SIGKILL
#                             # chaos suites under ASan with
#                             # TDAC_CRASH_ITERATIONS=20, then the
#                             # shell-level chaos_loop.sh pass; exports the
#                             # replay trace and fuzz corpus for CI
#                             # artifact upload
#
# The sanitizer modes exist for the parallel execution layer
# (src/common/thread_pool.*, parallel.*, and everything that fans out over
# them): TSan runs the whole suite with an oversubscribed pool so that the
# determinism and concurrency tests actually interleave, even on few-core
# CI machines. The standalone UBSan mode gives undefined-behaviour coverage
# without ASan's shadow memory (UBSan otherwise only rides along with ASan,
# and TSan cannot combine with either). Each mode uses its own build
# directory, so switching modes never poisons the incremental plain build.
# CI runs every mode in its matrix (.github/workflows/ci.yml).
set -eu

cd "$(dirname "$0")/.."

mode="${1:-plain}"
case "$mode" in
  plain)
    build_dir=build
    sanitize=""
    ;;
  tsan|thread)
    build_dir=build-tsan
    sanitize=thread
    ;;
  asan|address)
    build_dir=build-asan
    sanitize=address
    ;;
  ubsan|undefined)
    build_dir=build-ubsan
    sanitize=undefined
    ;;
  lint)
    cmake -B build -S .
    cmake --build build -j "$(nproc)" --target tdac_lint
    ./build/tools/tdac_lint --root . --audit-waivers
    cmake --build build --target tidy
    echo "check.sh: lint OK"
    exit 0
    ;;
  lint-fast)
    # Pre-push mode: scan the whole tree for cross-file context but report
    # only findings on lines changed vs. the base ref (default origin/main,
    # override with: scripts/check.sh lint-fast <ref>). Skips clang-tidy.
    base="${2:-origin/main}"
    cmake -B build -S .
    cmake --build build -j "$(nproc)" --target tdac_lint
    ./build/tools/tdac_lint --root . --diff "$base" --audit-waivers
    echo "check.sh: lint-fast OK (vs. $base)"
    exit 0
    ;;
  robust)
    # The fault-injection gate: run the guard/corruption/edge-case suites
    # under ASan+UBSan so "never crash, hang, or go non-finite" is checked
    # with memory and UB detection on, and with a hard per-test timeout so
    # a hang fails instead of stalling. Reuses the asan build tree.
    build_dir=build-asan
    cmake -B "$build_dir" -S . -DTDAC_SANITIZE=address
    cmake --build "$build_dir" -j "$(nproc)"
    echo "== ctest (robust) =="
    TDAC_THREADS=8 \
    ASAN_OPTIONS="detect_leaks=0 ${ASAN_OPTIONS:-}" \
    UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}" \
      ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
        --timeout 300 \
        -R 'run_guard_test|corrupt_test|robustness_test|edge_cases_test|crh_test|kmeans_test|csv_test|dataset_io_test|value_test'
    echo "check.sh: robust OK"
    exit 0
    ;;
  crash)
    # The crash-recovery gate (docs/checkpointing.md): durable-I/O fault
    # injection, checkpoint corruption handling, resume determinism, and
    # the kill-the-process harness — all under ASan so a torn resume that
    # also corrupts memory fails twice. TDAC_CRASH_ITERATIONS raises the
    # SIGKILL/resume loop to 20 iterations per algorithm (the local ctest
    # default stays low to keep plain runs fast), and crash_loop.sh adds
    # a shell-level pass against the freshly built CLI.
    build_dir=build-asan
    cmake -B "$build_dir" -S . -DTDAC_SANITIZE=address
    cmake --build "$build_dir" -j "$(nproc)"
    echo "== ctest (crash) =="
    TDAC_CRASH_ITERATIONS=20 \
    ASAN_OPTIONS="detect_leaks=0 ${ASAN_OPTIONS:-}" \
    UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}" \
      ctest --test-dir "$build_dir" --output-on-failure \
        --timeout 1200 \
        -R 'io_test|checkpoint_test|resume_determinism_test|crash_recovery_test'
    echo "== crash_loop.sh =="
    scripts/crash_loop.sh "$build_dir/tools/tdac_cli"
    echo "check.sh: crash OK"
    exit 0
    ;;
  scenarios)
    # The adversarial-scenario gate (docs/scenarios.md): the spec -> report
    # round-trip property suite with the registry golden, and the edge-case
    # regression tests it rode in with (generator pool validation,
    # silhouette/reliability degenerate inputs), all under ASan+UBSan, then
    # a smoke sweep of the full 12-algorithm x 16-cell bench matrix.
    build_dir=build-asan
    cmake -B "$build_dir" -S . -DTDAC_SANITIZE=address
    cmake --build "$build_dir" -j "$(nproc)"
    echo "== ctest (scenarios) =="
    ASAN_OPTIONS="detect_leaks=0 ${ASAN_OPTIONS:-}" \
    UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}" \
      ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
        --timeout 300 \
        -R 'scenario_test|synthetic_test|silhouette_test|truth_discovery_internal_test'
    echo "== bench_scenario_matrix --smoke =="
    ASAN_OPTIONS="detect_leaks=0 ${ASAN_OPTIONS:-}" \
    UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}" \
      "$build_dir/bench/bench_scenario_matrix" --smoke --zero-time > /dev/null
    echo "check.sh: scenarios OK"
    exit 0
    ;;
  chaos)
    # The crash-tolerant serving gate (docs/serving.md): the journal unit
    # suite, the protocol fuzz corpus, and the supervised kill-the-worker
    # chaos harness, all under ASan so a replay that resurrects freed
    # memory fails twice, then the shell-level chaos loop against the
    # freshly built daemon + supervisor. TDAC_CRASH_ITERATIONS raises the
    # seeded SIGKILL cycles to 20 (the local ctest default stays low);
    # the fuzz corpus and the journal-replay trace land in chaos_export/
    # (override with TDAC_CHAOS_EXPORT_DIR) for CI artifact upload.
    build_dir=build-asan
    cmake -B "$build_dir" -S . -DTDAC_SANITIZE=address
    cmake --build "$build_dir" -j "$(nproc)"
    chaos_export="${TDAC_CHAOS_EXPORT_DIR:-$build_dir/chaos_export}"
    # Absolutize: the ctest-spawned tests and chaos_loop.sh run from their
    # own working directories.
    case "$chaos_export" in
      /*) ;;
      *) chaos_export="$(pwd)/$chaos_export" ;;
    esac
    mkdir -p "$chaos_export/fuzz" "$chaos_export/trace"
    echo "== ctest (chaos) =="
    TDAC_CRASH_ITERATIONS=20 \
    TDAC_FUZZ_EXPORT_DIR="$chaos_export/fuzz" \
    ASAN_OPTIONS="detect_leaks=0 ${ASAN_OPTIONS:-}" \
    UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}" \
      ctest --test-dir "$build_dir" --output-on-failure \
        --timeout 1200 \
        -R 'serve_journal_test|serve_protocol_fuzz_test|serve_chaos_test'
    echo "== chaos_loop.sh =="
    TDAC_CHAOS_EXPORT_DIR="$chaos_export/trace" \
      scripts/chaos_loop.sh "$build_dir" 20
    echo "check.sh: chaos OK (trace + fuzz corpus in $chaos_export)"
    exit 0
    ;;
  serve)
    # The serving-layer gate (docs/serving.md): protocol/cache/engine/daemon
    # suites — both ctest registrations, so the TDAC_THREADS=8 oversubscribed
    # pass runs too — then bench_serve_load, whose built-in overload phase
    # floods at 4x the admission limit and exits non-zero unless the engine
    # sheds with labeled rejections and recovers cleanly afterwards.
    build_dir=build
    cmake -B "$build_dir" -S .
    cmake --build "$build_dir" -j "$(nproc)" \
      --target serve_test tdac_serve bench_serve_load
    echo "== ctest (serve) =="
    ctest --test-dir "$build_dir" --output-on-failure \
      --timeout 300 -R 'serve_test'
    echo "== bench_serve_load =="
    serve_export="${TDAC_SERVE_EXPORT_DIR:-$build_dir/serve_export}"
    mkdir -p "$serve_export"
    "$build_dir/bench/bench_serve_load" --export-dir="$serve_export"
    echo "check.sh: serve OK (JSON in $serve_export/BENCH_serve.json)"
    exit 0
    ;;
  *)
    echo "usage: scripts/check.sh [plain|tsan|asan|ubsan|lint|lint-fast|robust|crash|scenarios|serve|chaos]" >&2
    exit 2
    ;;
esac

cmake -B "$build_dir" -S . -DTDAC_SANITIZE="$sanitize"
cmake --build "$build_dir" -j "$(nproc)"

echo "== ctest ($mode) =="
if [ -n "$sanitize" ]; then
  # Oversubscribe the pool so races interleave even on few-core machines;
  # second-guess the sanitizers' default behavior of not failing the
  # process on a report.
  TDAC_THREADS=8 \
  TSAN_OPTIONS="halt_on_error=1 abort_on_error=1 ${TSAN_OPTIONS:-}" \
  ASAN_OPTIONS="detect_leaks=0 ${ASAN_OPTIONS:-}" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
else
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
fi

echo "check.sh: $mode OK"
