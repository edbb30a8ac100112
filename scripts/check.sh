#!/usr/bin/env bash
# Full correctness gate: release build + complete test suite, then the whole
# suite again under ThreadSanitizer, then once more under AddressSanitizer +
# UBSan (where any UB report is fatal).
#
# Usage: scripts/check.sh [--tsan-only | --asan-only | --release-only]
set -euo pipefail
cd "$(dirname "$0")/.."

mode="all"
case "${1:-}" in
  --tsan-only) mode="tsan" ;;
  --asan-only) mode="asan" ;;
  --release-only) mode="release" ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--tsan-only | --asan-only | --release-only]" >&2
     exit 2 ;;
esac

if [[ "$mode" == "all" || "$mode" == "release" ]]; then
  echo "== release: configure + build + full ctest =="
  cmake --preset release
  cmake --build --preset release -j "$(nproc)"
  # Every case is its own process writing its own temp directory, so the
  # suite must pass in parallel; repeating it catches schedule-dependent
  # flakes.
  ctest --preset release -j "$(nproc)" --repeat until-fail:3
fi

if [[ "$mode" == "all" || "$mode" == "tsan" ]]; then
  echo "== tsan: configure + build + full ctest =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)" --target patchwork_tests
  ctest --preset tsan -j "$(nproc)"
fi

if [[ "$mode" == "all" || "$mode" == "asan" ]]; then
  echo "== asan+ubsan: configure + build + full ctest =="
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)" --target patchwork_tests
  ctest --preset asan -j "$(nproc)"
fi

echo "OK"
