#!/usr/bin/env bash
# tools/check.sh — run the full correctness matrix in one command.
#
#   default   plain build + full ctest (the tier-1 gate)
#   asan      -DSDS_ASAN=ON build + full ctest (ASan + LSan)
#   ubsan     -DSDS_UBSAN=ON build + full ctest
#   tsan      -DSDS_TSAN=ON build + `ctest -L 'tsan|resilience'` (the
#             threaded suites plus the fault-injection suites)
#   tracing   `ctest -L tracing` on the default tree (wire trace
#             trailer, span attribution, flight recorder, introspection,
#             trace_report)
#   million   `ctest -L million` on the default tree: perf_million
#             --quick with its regression gates live (incremental-PSFA
#             speedup, delta-frame compression, ablation bit-identity)
#   conformance  sdscheck's five passes (layering, lockgraph,
#             annotations, protocoverage, determinism) against fixtures
#             and the real tree, plus the runtime lock-order validator
#             tests, in a -DSDS_LOCK_ORDER=ON tree (`ctest -L conformance`)
#   tidy      clang-tidy with the checked-in .clang-tidy (skipped when
#             clang-tidy is not installed)
#   tsa       Clang -Wthread-safety build (skipped when clang++ is not
#             installed)
#   format    clang-format --dry-run verification (only with --format or
#             `format`; skipped when clang-format is not installed)
#
# Usage:
#   tools/check.sh                # every stage but format
#   tools/check.sh asan tsan      # just those stages
#   tools/check.sh --format       # everything plus format verification
#   tools/check.sh --quick        # default + conformance only
#
# Build trees live under build-check/<stage> so repeat runs are
# incremental. Any stage failing fails the script; stages whose
# toolchain is absent are reported as SKIPPED, not failed.

set -u

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

STAGES=()
WITH_FORMAT=0
for arg in "$@"; do
  case "$arg" in
    --format) WITH_FORMAT=1 ;;
    --quick) STAGES+=(default conformance) ;;
    --help|-h)
      sed -n '2,34p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    format) WITH_FORMAT=1 ;;
    default|asan|ubsan|tsan|tracing|million|conformance|tidy|tsa)
      STAGES+=("$arg") ;;
    *)
      echo "check.sh: unknown stage '$arg' (see --help)" >&2
      exit 2
      ;;
  esac
done
if [ "${#STAGES[@]}" -eq 0 ]; then
  STAGES=(default asan ubsan tsan tracing million conformance tidy tsa)
fi
if [ "$WITH_FORMAT" -eq 1 ]; then
  STAGES+=(format)
fi

PASSED=()
FAILED=()
SKIPPED=()

# Every stage logs to build-check/<tree>.*.log before cmake creates the
# tree, so the parent directory must exist on a fresh checkout.
mkdir -p build-check

note() { printf '\n==> %s\n' "$*"; }

configure_and_build() {
  # configure_and_build <tree> [extra cmake args...]
  local tree="$1"
  shift
  cmake -B "$tree" -S "$ROOT" "$@" >"$tree.configure.log" 2>&1 \
    || { cat "$tree.configure.log"; return 1; }
  cmake --build "$tree" -j "$JOBS" >"$tree.build.log" 2>&1 \
    || { tail -n 50 "$tree.build.log"; return 1; }
}

run_stage() {
  local stage="$1"
  case "$stage" in
    default)
      note "default build + full ctest"
      configure_and_build build-check/default || return 1
      ctest --test-dir build-check/default -j "$JOBS" --output-on-failure \
        || return 1
      ;;
    asan)
      note "ASan+LSan build + full ctest"
      configure_and_build build-check/asan -DSDS_ASAN=ON || return 1
      LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/lsan.supp" \
        ctest --test-dir build-check/asan -j "$JOBS" --output-on-failure \
        || return 1
      ;;
    ubsan)
      note "UBSan build + full ctest"
      configure_and_build build-check/ubsan -DSDS_UBSAN=ON || return 1
      UBSAN_OPTIONS="print_stacktrace=1" \
        ctest --test-dir build-check/ubsan -j "$JOBS" --output-on-failure \
        || return 1
      ;;
    tsan)
      note "TSan build + ctest -L 'tsan|resilience'"
      configure_and_build build-check/tsan -DSDS_TSAN=ON || return 1
      TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp" \
        ctest --test-dir build-check/tsan -L 'tsan|resilience' -j "$JOBS" \
        --output-on-failure || return 1
      ;;
    tracing)
      note "causal-tracing suites: ctest -L tracing"
      configure_and_build build-check/default || return 1
      ctest --test-dir build-check/default -L tracing -j "$JOBS" \
        --output-on-failure || return 1
      ;;
    million)
      note "million-stage fast-path gates: ctest -L million"
      configure_and_build build-check/default || return 1
      ctest --test-dir build-check/default -L million -j "$JOBS" \
        --output-on-failure || return 1
      ;;
    conformance)
      note "sdscheck's five passes + lock-order validator: ctest -L conformance"
      # Its own tree so the runtime validator is compiled in; the
      # sdscheck static passes themselves are build-type-agnostic.
      configure_and_build build-check/conformance -DSDS_LOCK_ORDER=ON \
        || return 1
      ctest --test-dir build-check/conformance -L conformance -j "$JOBS" \
        --output-on-failure || return 1
      ;;
    tidy)
      if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not installed — skipping"
        return 3
      fi
      note "clang-tidy (.clang-tidy, warnings-as-errors)"
      configure_and_build build-check/default \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON || return 1
      # Headers are covered via HeaderFilterRegex from including TUs.
      find src tools bench apps examples -name '*.cc' -print0 \
        | xargs -0 -P "$JOBS" -n 8 clang-tidy \
            -p build-check/default --quiet || return 1
      ;;
    tsa)
      if ! command -v clang++ >/dev/null 2>&1; then
        echo "clang++ not installed — skipping thread-safety analysis"
        return 3
      fi
      note "Clang thread-safety analysis build (-Wthread-safety -Werror)"
      configure_and_build build-check/tsa \
        -DCMAKE_CXX_COMPILER=clang++ -DSDS_THREAD_SAFETY=ON || return 1
      ;;
    format)
      if ! command -v clang-format >/dev/null 2>&1; then
        echo "clang-format not installed — skipping format verification"
        return 3
      fi
      note "clang-format --dry-run (verification only, never rewrites)"
      find src tools bench apps examples tests \
          \( -name '*.h' -o -name '*.cc' \) -not -path '*/fixtures/*' \
          -print0 \
        | xargs -0 clang-format --dry-run --Werror || return 1
      ;;
  esac
}

for stage in "${STAGES[@]}"; do
  run_stage "$stage"
  rc=$?
  case "$rc" in
    0) PASSED+=("$stage") ;;
    3) SKIPPED+=("$stage") ;;
    *) FAILED+=("$stage") ;;
  esac
done

printf '\n================ check.sh summary ================\n'
[ "${#PASSED[@]}" -gt 0 ] && echo "  passed : ${PASSED[*]}"
[ "${#SKIPPED[@]}" -gt 0 ] && echo "  skipped: ${SKIPPED[*]} (toolchain not installed)"
[ "${#FAILED[@]}" -gt 0 ] && echo "  FAILED : ${FAILED[*]}"
echo "=================================================="
[ "${#FAILED[@]}" -eq 0 ]
