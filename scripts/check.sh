#!/usr/bin/env bash
# Full check: regular build + tests, a rerun of the physics, executor,
# hybrid, fault, nonblocking and service suites with the deadlock watchdog
# armed process-wide (every job then runs supervised, rank 0 on the caller),
# then the whole test suite under ThreadSanitizer (the threads-as-ranks
# runtime is where data races hide, and every suite drives it) and again
# under AddressSanitizer+UBSan (the payload arena's cross-thread buffers,
# in-place halo copies, SIMD strip-mining tails). Each sanitizer runs the
# suite twice: ctest gives every case a fresh process, and each test binary
# run whole lets its later cases reuse the pool, the arena and the
# per-thread caches its earlier jobs left behind.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-2}"

# Run every test binary of build tree $1 whole, one after another, from its
# tests directory as ctest does (post-mortem dumps land there).
run_binaries() {
  for t in "$1"/tests/test_*; do
    [[ -f "$t" && -x "$t" ]] || continue
    echo "-- whole: $t"
    (cd "$1/tests" && "./${t##*/}")
  done
}

echo "== regular build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== watchdog armed (VPAR_WATCHDOG_MS=20000) =="
for t in test_lbmhd test_gtc test_simrt_executor test_simrt_hybrid test_simrt_faults \
         test_simrt_nonblocking test_service; do
  echo "-- armed: $t"
  VPAR_WATCHDOG_MS=20000 "./build/tests/$t"
done

echo "== ThreadSanitizer build + full test suite, per case and per binary =="
cmake -B build-tsan -S . -DVPAR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS"
(
  export TSAN_OPTIONS="halt_on_error=1"
  ctest --test-dir build-tsan --output-on-failure -j"$JOBS"
  run_binaries build-tsan
)

echo "== AddressSanitizer+UBSan build + full test suite, per case and per binary =="
cmake -B build-asan -S . -DVPAR_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS"
(
  export ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  ctest --test-dir build-asan --output-on-failure -j"$JOBS"
  run_binaries build-asan
)

echo "All checks passed."
