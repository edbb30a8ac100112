#!/usr/bin/env bash
# Full correctness gate: release build + complete test suite, then a
# ThreadSanitizer build running the concurrency-sensitive tests (shared
# pool, work-stealing task groups, parallel_for, parallel
# pipeline/coordinator determinism, sharded aggregation, sharded metrics
# registry, archive compaction, metrics file exporter), then a standalone
# UBSan build running the counter-arithmetic and arena-path suites, then an
# AddressSanitizer+UBSan build running the archive corrupt-file suites
# followed by the full suite.
#
# Usage: scripts/check.sh [--tsan-only | --asan-only | --ubsan-only |
#                          --release-only]
set -euo pipefail
cd "$(dirname "$0")/.."

mode="all"
case "${1:-}" in
  --tsan-only) mode="tsan" ;;
  --asan-only) mode="asan" ;;
  --ubsan-only) mode="ubsan" ;;
  --release-only) mode="release" ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--tsan-only | --asan-only | --ubsan-only | --release-only]" >&2
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
  echo "== tsan: configure + build + concurrency tests =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)" --target patchwork_tests
  # The concurrency surface: shared pool stress, work-stealing task groups
  # (nested spawn/wait from inside worker tasks), parallel primitives
  # (nested parallel_for regions fanning out across the pool),
  # every determinism suite that fans out across the pool (including the
  # per-(site, sample) render split and its per-burst sub-spawns), the
  # sharded metrics registry (concurrent add/observe/registration), and the
  # archive's concurrent code — the rollup compactor (parallel_map group
  # folds) and the background metrics file exporter.
  # PhiloxSimd/RngBulk ride along: the tier dispatch word is a relaxed
  # atomic that tests flip while pool workers draw.
  # ScrapeServer (serving thread + concurrent HTTP readers folding the
  # sharded registry), Trace (per-thread flight-recorder lanes + the
  # work-steal observer hook), and TraceDeterminism (rings written from
  # pool workers, drained after quiescence) are the newest concurrency
  # surface.
  # FederationTest (parallel_map archive loads must be byte-deterministic
  # at any worker count), IncrementalCompactionTest (parallel group folds
  # feeding append-only commits), WindowedQueryTest (the mutex-guarded
  # query cache), and the compaction legs ride the same pool.
  # FlowChurnDeterminism is the event-planner analogue of
  # CoordinatorDeterminism: the priority-queue plan feeds the same
  # per-burst render fan-out, so its worker/batch/SIMD sweeps exercise the
  # pool too; FlowSched rides along for the planner's obs-counter pushes.
  # QueryCacheConcurrency has barrier-released threads read one cached
  # query's top flows: const sketch reads must never write (the sketch is
  # canonical at rest). TopFlowSketch rides along for the builder's heap.
  ./build-tsan/tests/patchwork_tests --gtest_filter='SharedPool.*:ThreadPool.*:TaskGroup.*:Parallel.*:PoolStats.*:PipelineDeterminism.*:AggregateShards.*:CoordinatorDeterminism.*:FlowChurnDeterminism.*:FlowSched.*:SiteProfiler.RenderSampleCommitEquivalentToRenderPending:ObsRegistry.*:ObsDeterminism.*:ArchiveDeterminism.*:ArchiveIoTest.Compaction*:FederationTest.*:IncrementalCompactionTest.*:WindowedQueryTest.*:QueryCacheConcurrency.*:TopFlowSketch.*:ObsFileExporter.*:PhiloxSimd.*:RngBulk.*:ScrapeServer.*:Trace.*:TraceDeterminism.*'
fi

if [[ "$mode" == "all" || "$mode" == "ubsan" ]]; then
  echo "== ubsan: configure + build + counter/arena suites =="
  cmake --preset ubsan
  cmake --build --preset ubsan -j "$(nproc)" --target patchwork_tests
  # The batched-synthesis surface: Philox counter arithmetic (wrapping
  # 128-bit counters, Lemire bounded draws), the frame arena and its
  # span-aliasing write/edit path, and the render decomposition that
  # stitches them together. UBSan catches the offset/overflow mistakes
  # ASan's poisoning cannot.
  # gtest filter dots are literal: the SIMD suites (PhiloxSimd.*, RngBulk.*)
  # need their own entries — 'Philox.*'/'Rng.*' do not match them.
  # FlowSched joins the counter-arithmetic surface: Pareto scale math,
  # Zipf weight tables, and the event planner's fractional-frame rounding
  # all feed the same bounded-draw kernels. TopFlowSketch covers the
  # builder's heap index arithmetic (parent/child positions).
  ./build-ubsan/tests/patchwork_tests --gtest_filter='Philox.*:PhiloxSimd.*:Rng.*:RngBulk.*:RngBlock.*:WeightedTable.*:FrameBuilder.*:FrameStore.*:Pcap.*:FlowGen.*:FlowSched.*:Compress.*:SessionTest.*:TaskGroup.*:CoordinatorDeterminism.*:TopFlowSketch.*'
fi

if [[ "$mode" == "all" || "$mode" == "asan" ]]; then
  echo "== asan: configure + build + full test suite =="
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)" --target patchwork_tests
  # The corrupt-file surface first: the archive reader/writer walking
  # truncated, bit-flipped, and version-skewed files is where a bounds bug
  # would hide, so it gets an explicit leg before the full sweep.
  # ScrapeServer rides along for its hostile-input path: malformed request
  # lines and oversized headers hitting the fixed parsing buffers.
  # ArchiveCorruptTest is the hostile-payload suite: CRC-valid blocks whose
  # decoded structures violate invariants (entries > capacity, absurd
  # supersede-marker counts) must be rejected without a poisoned read.
  # FlowSched/FlowChurnDeterminism cover the event planner's queue and
  # pool churn: thousands of heap push/pops, LIFO slot recycling, and
  # activation vectors that grow under churn — the allocation-heavy new
  # path where a stale-slot read would surface.
  ./build-asan/tests/patchwork_tests --gtest_filter='ArchiveIoTest.*:ArchiveCorruptTest.*:EpochRecord.Decode*:TopFlowSketch.*:ScrapeServer.*:FlowSched.*:FlowChurnDeterminism.*'
  ./build-asan/tests/patchwork_tests
fi

echo "OK"
