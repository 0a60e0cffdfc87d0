#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite,
# then rebuild the parallel tests under ThreadSanitizer and run them.
#
#   scripts/tier1.sh [build-dir]
#
# CRYOEDA_THREADS is honored by the parallel characterization / flow
# drivers; the suite itself asserts thread-count independence.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

# Pin the worker count so results (and runtimes) are reproducible on CI
# runners of any size; the suite itself asserts thread-count
# independence, so any fixed value is equivalent.
export CRYOEDA_THREADS="${CRYOEDA_THREADS:-4}"

echo "== tier-1: build + ctest (CRYOEDA_THREADS=$CRYOEDA_THREADS) =="
# Warnings are errors, as in CI's test job.
cmake -B "$BUILD" -S . -DCRYOEDA_WERROR=ON >/dev/null
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

echo "== tier-1: ThreadSanitizer pass over the concurrent tests =="
cmake -B "$BUILD-tsan" -S . -DCRYOEDA_TSAN=ON >/dev/null
cmake --build "$BUILD-tsan" -j "$(nproc)" --target test_parallel --target test_obs
"$BUILD-tsan"/tests/test_parallel
"$BUILD-tsan"/tests/test_obs

echo "tier-1: OK"
