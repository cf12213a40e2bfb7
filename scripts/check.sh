#!/usr/bin/env bash
# Full check: regular build + tests, then the simrt runtime test binaries
# under ThreadSanitizer (the threads-as-ranks runtime is the one place real
# data races can hide), then under AddressSanitizer+UBSan the SIMD suites
# (the vector strip-mining tails are the one place out-of-bounds loads can
# hide), the runtime suites that drive the payload arena and its
# per-thread caches (buffers recycled across threads and jobs), and the
# LBMHD and Cactus exchange suites (in-place self-peer halo copies).
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-2}"

TSAN_TESTS=(test_simrt test_simrt_stress test_simrt_nonblocking test_simrt_executor
            test_simrt_faults test_simrt_hybrid test_trace test_service test_transport
            test_simd test_simd_equivalence test_part test_qcd)
ASAN_TESTS=(test_simd test_simd_equivalence test_qcd
            test_simrt test_simrt_stress test_simrt_nonblocking test_simrt_executor
            test_simrt_faults test_simrt_hybrid test_service test_part test_trace
            test_lbmhd test_cactus_exchange)

echo "== regular build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== ThreadSanitizer build (simrt runtime tests) =="
cmake -B build-tsan -S . -DVPAR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target "${TSAN_TESTS[@]}"

for t in "${TSAN_TESTS[@]}"; do
  echo "-- TSan: $t"
  TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/$t"
done

echo "== AddressSanitizer+UBSan build (SIMD tails, arena and thread caches, halo copies) =="
cmake -B build-asan -S . -DVPAR_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS" --target "${ASAN_TESTS[@]}"

for t in "${ASAN_TESTS[@]}"; do
  echo "-- ASan: $t"
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    "./build-asan/tests/$t"
done

echo "All checks passed."
