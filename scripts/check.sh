#!/usr/bin/env bash
# Full correctness gate: release build + complete test suite + the
# full-size output bytes of every perfbench workload, then the whole suite
# again under ThreadSanitizer, then once more under AddressSanitizer + UBSan
# (where any UB report is fatal).
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
  echo "== release: configure + build + full ctest + perfbench outputs =="
  cmake --preset release
  cmake --build --preset release -j "$(nproc)"
  # Every case is its own process writing its own temp directory, so the
  # suite must pass in parallel; repeating it catches schedule-dependent
  # flakes.
  ctest --preset release -j "$(nproc)" --repeat until-fail:3
  # One short pass of each workload at seed 1: its CSV and archive digests
  # must match perfbench/expected.json, which run.py reports as
  # "correct": true on its last line.
  for workload in testbed_epoch slice_filtered_churn archive_history; do
    verdict="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
                 --seconds 1 | tail -n 1)"
    if [[ "$verdict" != *'"correct": true'* ]]; then
      echo "perfbench $workload: outputs differ from expected.json" >&2
      echo "$verdict" >&2
      exit 1
    fi
    echo "perfbench $workload: correct"
  done
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
