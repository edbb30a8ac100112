#!/usr/bin/env bash
# Full correctness gate: release build + complete test suite + the
# full-size output bytes of every perfbench workload + a smoke run of the
# portability demo and eight benches, then the whole suite again under
# ThreadSanitizer, then once more under AddressSanitizer + UBSan (where any
# UB report is fatal).
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
  echo "== release: configure + build + full ctest + perfbench outputs + smoke =="
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
  # The demo and benches that render through core::render_window outside
  # the coordinator, and every bench built on bench_profile.hpp's gather
  # step. Each must exit zero (incast and cache_storm exit 1 when their own
  # determinism checks fail), the demo must profile both testbeds, and each
  # gather-step bench must report the frames it digested.
  for bin in examples/portability_demo bench/bench_ablation_truncation \
             bench/bench_scenario_incast bench/bench_scenario_cache_storm \
             bench/bench_sec4_operator_asymmetry \
             bench/bench_fig11_site_headers bench/bench_fig12_header_occurrence \
             bench/bench_fig13_flows_per_sample bench/bench_fig15_frame_sizes; do
    if ! out="$("./build/$bin" 2>&1)"; then
      echo "$out" >&2
      echo "$bin: exited non-zero" >&2
      exit 1
    fi
    if [[ "$bin" == examples/portability_demo ]]; then
      profiled="$(grep -c '^Top stacks:' <<<"$out" || true)"
      if [[ "$profiled" != 2 ]]; then
        echo "$out" >&2
        echo "$bin: profiled $profiled of 2 testbeds" >&2
        exit 1
      fi
    fi
    if [[ "$bin" == bench/bench_sec4_* || "$bin" == bench/bench_fig1* ]] &&
       ! grep -q '^\[profile\] .* frames digested$' <<<"$out"; then
      echo "$out" >&2
      echo "$bin: no '[profile] ... frames digested' line" >&2
      exit 1
    fi
    echo "$bin: ok"
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
