#!/usr/bin/env bash
# Static-analysis and dynamic-correctness gate for libLFO.
#
#   tools/run_static_checks.sh [--skip-asan] [--skip-tsan] [--skip-tidy]
#                              [--skip-obs] [--skip-faults] [--skip-perf]
#                              [--skip-simd] [--skip-threadsafety]
#                              [--skip-lint] [--skip-server]
#
# Runs, in order:
#   1. asan-ubsan preset: configure, build the test suite, run ctest under
#      AddressSanitizer + UndefinedBehaviorSanitizer (LFO_DCHECKs on).
#   2. tsan preset: configure, build every stress-labelled test target
#      (lfo_stress_tests), run the "stress" ctest label (ThreadPool,
#      parallel sweep, async retraining pipeline, concurrent const
#      feature extraction, scrape-under-load, sharded server) under
#      ThreadSanitizer.
#   3. obs gate: build with -DLFO_METRICS=ON and =OFF, run tier1 under
#      both, and diff the golden-trace decision counts across the two
#      builds — instrumentation must be provably decision-neutral even
#      when compiled out. Then tools/obs_smoke.sh drives the live
#      telemetry endpoints (/metrics, /stats, /healthz, /vars, malformed
#      requests) against the example binary from outside the process.
#   4. fault gate: Release build, then `ctest -L faults` — the rollout
#      guard under injected training failures on the golden flash-crowd
#      generator (fallback + recovery, BHR >= heuristic-only baseline,
#      sync-vs-async determinism with faults, and guarded-vs-unguarded
#      decision identity when no fault fires).
#   5. perf smoke: Release build, then `ctest -L perfsmoke` — the
#      flat-forest-vs-tree-walk golden decision diff and the
#      instrumented-operator-new zero-allocation hot-path test, whose
#      strict assertions only arm in optimized unsanitized builds.
#   6. simd-off gate: the same Release build, `ctest -L tier1` with
#      LFO_SIMD=scalar — the env override pins gbdt's portable scalar
#      kernels, so every bitwise-identity and golden-decision test
#      re-proves the quantized engine's scores cannot depend on which
#      ISA the dispatcher picked (the fallback CPUs without AVX2
#      actually run).
#   7. clang-tidy over src/ (including src/obs) via the asan build's
#      compile_commands.json with the repo .clang-tidy config (skipped
#      with a warning when no clang-tidy binary is installed, e.g.
#      gcc-only containers).
#   8. thread-safety: clang's -Werror=thread-safety over the annotated
#      lock discipline (util::Mutex / LFO_GUARDED_BY) via the
#      thread-safety preset, after first proving the analysis is armed
#      on a known-good / known-bad fixture pair (skipped with a warning
#      when clang++ is not installed).
#   9. server smoke: Release build of bench_server, then
#      tools/server_smoke.sh — boots the sharded lfo::server front end in
#      --linger mode, replays a trace through the closed-loop client,
#      scrapes the mounted /metrics + /healthz from outside, pushes one
#      raw wire-protocol frame, and requires a clean natural shutdown.
#  10. lfo_lint: tools/lfo_lint.py invariant rules (hot-path allocation
#      and locking, nondeterminism in decision code, side effects in
#      LFO_CHECK arguments, obs metric-name conventions, no aborting
#      checks in LFO_ENDPOINT_HANDLER bodies) over src/, plus its
#      fixture self-test.
#
# Exits non-zero on the first failing stage.
#
# This is the slow gate; the fast development gate is the tier1 label on
# a plain build:  ctest --test-dir build -L tier1

set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_ASAN=0
SKIP_TSAN=0
SKIP_TIDY=0
SKIP_OBS=0
SKIP_FAULTS=0
SKIP_PERF=0
SKIP_SIMD=0
SKIP_THREADSAFETY=0
SKIP_LINT=0
SKIP_SERVER=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-tidy) SKIP_TIDY=1 ;;
    --skip-obs) SKIP_OBS=1 ;;
    --skip-faults) SKIP_FAULTS=1 ;;
    --skip-perf) SKIP_PERF=1 ;;
    --skip-simd) SKIP_SIMD=1 ;;
    --skip-threadsafety) SKIP_THREADSAFETY=1 ;;
    --skip-lint) SKIP_LINT=1 ;;
    --skip-server) SKIP_SERVER=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

banner() { printf '\n=== %s ===\n' "$*"; }

if [[ "$SKIP_ASAN" -eq 0 ]]; then
  banner "asan-ubsan: configure + build tests"
  cmake --preset asan-ubsan
  cmake --build build-asan --target lfo_tests -j "$JOBS"
  banner "asan-ubsan: ctest"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_TSAN" -eq 0 ]]; then
  banner "tsan: configure + build stress tests"
  cmake --preset tsan
  cmake --build build-tsan --target lfo_stress_tests -j "$JOBS"
  banner "tsan: ctest -L stress"
  ctest --test-dir build-tsan -L stress --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_OBS" -eq 0 ]]; then
  for mode in on off; do
    flag=OFF
    [[ "$mode" == on ]] && flag=ON
    banner "obs: LFO_METRICS=$flag configure + build + tier1"
    cmake -S . -B "build-obs-$mode" -DCMAKE_BUILD_TYPE=Release \
          -DLFO_METRICS="$flag"
    cmake --build "build-obs-$mode" --target lfo_tests -j "$JOBS"
    ctest --test-dir "build-obs-$mode" -L tier1 --output-on-failure \
          -j "$JOBS"
  done
  banner "obs: golden decisions must match across LFO_METRICS=ON/OFF"
  GOLDEN_TMP="$(mktemp -d)"
  trap 'rm -rf "$GOLDEN_TMP"' EXIT
  for mode in on off; do
    LFO_UPDATE_GOLDEN=1 "./build-obs-$mode/tests/test_golden_traces" \
        --gtest_filter='*PrintCurrentValues*' \
        | sed -n '/constexpr Scenario kGolden/,/^};/p' \
        > "$GOLDEN_TMP/golden-$mode.txt"
    [[ -s "$GOLDEN_TMP/golden-$mode.txt" ]] \
        || { echo "obs gate: empty golden dump for $mode" >&2; exit 1; }
  done
  diff -u "$GOLDEN_TMP/golden-on.txt" "$GOLDEN_TMP/golden-off.txt" \
      || { echo "obs gate: instrumentation changed golden decisions" >&2
           exit 1; }
  echo "obs gate: golden decision counts identical across ON/OFF"

  banner "obs: live telemetry endpoint smoke (tools/obs_smoke.sh)"
  cmake --build build-obs-on --target cdn_server_simulation -j "$JOBS"
  tools/obs_smoke.sh ./build-obs-on/examples/cdn_server_simulation
fi

if [[ "$SKIP_FAULTS" -eq 0 ]]; then
  banner "fault gate: Release build + ctest -L faults"
  cmake -S . -B build-faults -DCMAKE_BUILD_TYPE=Release
  cmake --build build-faults --target lfo_faults_tests -j "$JOBS"
  # Injected training failures (WindowedConfig::train_fault) must drive
  # the rollout guard through fallback and recovery deterministically,
  # keep BHR at or above the heuristic-only baseline, and — with no
  # faults — leave decisions bitwise-identical to an unguarded run.
  ctest --test-dir build-faults -L faults --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_PERF" -eq 0 ]]; then
  banner "perf smoke: Release build + ctest -L perfsmoke"
  cmake -S . -B build-perf -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perf --target lfo_perfsmoke_tests -j "$JOBS"
  # Strict gates: the flat engine must be decision-identical to the tree
  # walk and the warm serving path must perform zero heap allocations
  # (NDEBUG + no sanitizer arms the EXPECT_EQ(delta, 0) assertions).
  ctest --test-dir build-perf -L perfsmoke --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_SIMD" -eq 0 ]]; then
  banner "simd-off: tier1 with LFO_SIMD=scalar (forced portable kernels)"
  cmake -S . -B build-perf -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perf --target lfo_tests -j "$JOBS"
  # Same binaries, scalar dispatch pinned by the environment: the bitwise
  # and golden-decision tier1 tests now certify the no-SIMD fallback.
  LFO_SIMD=scalar ctest --test-dir build-perf -L tier1 \
      --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_TIDY" -eq 0 ]]; then
  banner "clang-tidy over src/"
  TIDY="$(command -v clang-tidy || true)"
  if [[ -z "$TIDY" ]]; then
    echo "WARNING: clang-tidy not installed; skipping the lint gate." >&2
    echo "         (install clang-tidy and re-run to enforce .clang-tidy)" >&2
  else
    # Reuse any existing compile database; prefer the asan tree since this
    # script just built it.
    DB_DIR=""
    for d in build-asan build; do
      [[ -f "$d/compile_commands.json" ]] && DB_DIR="$d" && break
    done
    if [[ -z "$DB_DIR" ]]; then
      cmake --preset asan-ubsan
      DB_DIR=build-asan
    fi
    mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p "$DB_DIR" -quiet "${SOURCES[@]}"
    else
      "$TIDY" -p "$DB_DIR" --quiet "${SOURCES[@]}"
    fi
  fi
fi

if [[ "$SKIP_THREADSAFETY" -eq 0 ]]; then
  banner "thread-safety: clang -Werror=thread-safety"
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "WARNING: clang++ not installed; skipping the thread-safety gate." >&2
    echo "         (install clang and re-run to enforce the lock annotations)" >&2
  else
    # Arm check: the analysis must accept the known-good fixture and
    # reject the known-bad one, otherwise a misconfigured flag set would
    # "pass" the whole tree without analyzing anything.
    TSA_FLAGS=(-std=c++20 -fsyntax-only -Wthread-safety
               -Werror=thread-safety -Isrc)
    clang++ "${TSA_FLAGS[@]}" tests/threadsafety_fixture/good_guard.cpp         || { echo "thread-safety gate: good fixture rejected" >&2; exit 1; }
    if clang++ "${TSA_FLAGS[@]}" tests/threadsafety_fixture/bad_guard.cpp         2>/dev/null; then
      echo "thread-safety gate: broken-guard fixture passed — analysis"            "is not armed" >&2
      exit 1
    fi
    echo "thread-safety gate: fixture pair behaves (good passes, bad fails)"
    banner "thread-safety: full build under the thread-safety preset"
    cmake --preset thread-safety
    cmake --build build-threadsafety -j "$JOBS"
  fi
fi

if [[ "$SKIP_SERVER" -eq 0 ]]; then
  banner "server smoke: Release bench_server + tools/server_smoke.sh"
  cmake -S . -B build-perf -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perf --target bench_server -j "$JOBS"
  tools/server_smoke.sh ./build-perf/bench/bench_server
fi

if [[ "$SKIP_LINT" -eq 0 ]]; then
  banner "lfo_lint: fixture self-test + src/ invariants"
  PY="$(command -v python3 || true)"
  if [[ -z "$PY" ]]; then
    echo "WARNING: python3 not installed; skipping the lfo_lint gate." >&2
  else
    "$PY" tests/test_lfo_lint.py
    "$PY" tools/lfo_lint.py --root . src
  fi
fi

banner "all requested static checks passed"
