#!/usr/bin/env bash
# Full correctness gate: release build + complete test suite + the
# full-size output bytes of every perfbench workload + a smoke run of
# patchwork_cli (a two-site profile and every archive subcommand on one
# archive), the portability demo and thirteen benches, then the whole suite
# again under ThreadSanitizer, then once more under AddressSanitizer +
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
  # patchwork_cli in a scratch directory: a two-site profile must write the
  # ten Process-step CSVs and the run manifest, then one archive takes two
  # appends, a query, a stat, a compaction and a gc. Every command must
  # exit zero.
  cli="$PWD/build/examples/patchwork_cli"
  cli_dir="$(mktemp -d)"
  trap 'rm -rf "$cli_dir"' EXIT
  cli_run() {
    local out
    if ! out="$(cd "$cli_dir" && "$cli" "$@" 2>&1)"; then
      echo "$out" >&2
      echo "patchwork_cli $*: exited non-zero" >&2
      exit 1
    fi
  }
  cli_run --sites 2 --out "$cli_dir/profile"
  csvs=("$cli_dir"/profile/*.csv)
  if [[ "${#csvs[@]}" != 10 ||
        ! -f "$cli_dir/profile/patchwork_manifest.json" ]]; then
    ls "$cli_dir/profile" >&2
    echo "patchwork_cli: expected ten CSVs and patchwork_manifest.json" >&2
    exit 1
  fi
  archive="$cli_dir/history.pwar"
  cli_run archive append --archive "$archive" --label week1 --sites 2
  cli_run archive append --archive "$archive" --label week2 --sites 2 --seed 2
  cli_run archive query --archive "$archive"
  cli_run archive stat --archive "$archive"
  cli_run archive compact --archive "$archive" --budget 1
  cli_run archive gc --archive "$archive"
  echo "examples/patchwork_cli: ok"
  # The demo and benches that render sample windows outside the
  # coordinator through core::render_window, every bench built on
  # bench_profile.hpp's gather step, bench_archive, which folds epoch
  # records through EpochRecord::merge_from, and the benches that build
  # frames into a FrameStore themselves (a short pass of each
  # micro-benchmark). Each must exit zero (incast, cache_storm and
  # elephant_mice exit 1 when their own checks fail, bench_archive when its
  # compacted archives differ across worker counts, and
  # bench_parallel_pipeline when its outputs do), the demo must profile
  # both testbeds, and each gather-step bench must report the frames it
  # digested.
  for bin in examples/portability_demo bench/bench_ablation_truncation \
             bench/bench_scenario_incast bench/bench_scenario_cache_storm \
             bench/bench_scenario_elephant_mice \
             bench/bench_sec4_operator_asymmetry \
             bench/bench_fig11_site_headers bench/bench_fig12_header_occurrence \
             bench/bench_fig13_flows_per_sample bench/bench_fig15_frame_sizes \
             bench/bench_archive bench/bench_micro_dissect \
             bench/bench_micro_pcap bench/bench_parallel_pipeline; do
    args=()
    if [[ "$bin" == bench/bench_micro_* ]]; then
      args=(--benchmark_min_time=0.01)
    fi
    if ! out="$("./build/$bin" "${args[@]}" 2>&1)"; then
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
