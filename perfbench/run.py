#!/usr/bin/env python3
"""perfbench: Patchwork's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call builds perfbench_pass (the
program's libraries from src/ plus perfbench/pass.cpp) into
.bench_build/perfbench. Then, for --seconds, it runs timed passes of the
workload, each in a fresh process, and reports:

  * --trace 0: every end-to-end metric in BENCHMARK.json, from untraced
    passes;
  * --trace 1: every per-layer metric, from traced passes alternated with
    untraced ones (obs.trace_overhead compares the two).

A pass that dies by signal, exits nonzero, times out or fails an output check
counts as failed and yields no timings. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The lines before it
give the host facts and every metric with its unit. The newest good
traced and untraced pass directories (outputs, result.json, traces), every
failed one and a summary.json stay in .bench_out/<workload>/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_pass"
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("testbed_epoch", "slice_filtered_churn", "archive_history")
DEFAULT_SEED = 1
PASS_TIMEOUT_S = 60.0
# Stop starting passes this long after the build, so a run (timeouts
# included) ends well inside three minutes.
RUN_LIMIT_S = 150.0


def build():
    """Configure once, then bring perfbench_pass up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no program sources under src/ in " + str(ROOT))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_pass",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise SystemExit("perfbench: build failed")


def pass_env():
    # PATCHWORK_* knobs (threads, SIMD tier, render batch, trace, scrape)
    # would make runs incomparable; the pass pins what it needs itself.
    return {k: v for k, v in os.environ.items() if not k.startswith("PATCHWORK_")}


def digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_digests(out_dir):
    found = {}
    csvs = list((out_dir / "csv").glob("*.csv"))
    if csvs:
        found["csv"] = digest(csvs)
    found["archive"] = digest(list(out_dir.glob("*.pwar")))
    return found


def run_pass(workload, seed, out_dir, trace, timeout, expected):
    """One pass in a fresh process. Returns (result or None, failure or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--out", str(out_dir)] + (["--trace"] if trace else [])
    out_dir.mkdir(parents=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pass_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    (out_dir / "stderr.log").write_text(proc.stderr)
    if proc.returncode < 0:
        return None, "killed by signal %d: %s" % (-proc.returncode,
                                                  proc.stderr.strip()[-200:])
    if proc.returncode > 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-200:])
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "no result line"
    failed_checks = sorted(k for k, ok in result["checks"].items() if not ok)
    if failed_checks:
        return result, "output check failed: " + ", ".join(failed_checks)
    result["digests"] = output_digests(out_dir)
    if expected is not None:
        wrong = sorted(k for k, v in expected.items()
                       if result["digests"].get(k) != v)
        if wrong:
            return result, "output digest differs from expected.json: " + ", ".join(wrong)
    return result, None


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Inclusive-method quantile q in (0, 1) of one pass's sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def trimmed_mean(values, cut=0.1):
    """Mean of values without the lowest and highest `cut` share."""
    if not values:
        return 0.0
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def per_pass_quantile(results, key, q):
    """Quantile q of each pass's per-op sample, combined over passes.

    Per-op archive latencies are bimodal across processes: one pass runs
    its short ops in a fast mode, another ~30 % slower, whatever the seed,
    and the mix drifts with the host's load. The quantile of all ops
    pooled, or the median of the passes'
    quantiles, jumps between the two modes as their mix shifts; a trimmed
    mean of the passes' quantiles follows the mix smoothly.
    """
    return trimmed_mean([quantile(r["samples"][key], q)
                         for r in results if r["samples"].get(key)])


def end_to_end(results):
    values = lambda key: [r["values"][key] for r in results]
    return {
        "setup_s": median(values("setup_s")),
        "run_s": median(values("run_s")),
        "cpu_s": median(values("cpu_s")),
        "frames_per_s": median([r["values"]["frames"] / r["values"]["run_s"]
                                for r in results]),
        "peak_rss_mb": median(values("peak_rss_mb")),
        "append_ms_p50": per_pass_quantile(results, "append_ms", 0.5),
        "append_ms_p90": per_pass_quantile(results, "append_ms", 0.9),
        "query_ms_p90": per_pass_quantile(results, "query_ms", 0.9),
        "maintenance_s": median(values("maintenance_s")),
    }


def per_layer(traced, untraced, attempted, failed):
    names = sorted({k for r in traced for k in r["layers"]})
    layers = {k: median([r["layers"][k] for r in traced]) for k in names}
    for key in ("archive.open_ms", "archive.write_ms", "archive.query_load_ms",
                "archive.query_fold_ms"):
        layers[key + "_p50"] = per_pass_quantile(traced, key, 0.5)
    # A cached hit takes a few microseconds, and the host's speed modes move
    # it by up to 2x between runs: too unsteady for a bounded metric.
    layers["archive.query_ms_p50"] = per_pass_quantile(traced, "query_ms", 0.5)
    layers["obs.trace_overhead"] = (
        median([r["values"]["run_s"] for r in traced]) /
        median([r["values"]["run_s"] for r in untraced]) - 1.0)
    layers["failed_ops"] = failed / attempted
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_all = json.loads((HERE / "expected.json").read_text())
    expected = (expected_all["digests"].get(args.workload)
                if args.seed == expected_all["seed"] else None)
    build()

    out = OUT_ROOT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    start = time.monotonic()
    # Results by kind (traced or not): good passes, and passes that ran but
    # failed a check. The latter give timings only when no pass was good,
    # and then "correct" is false anyway.
    good = {False: [], True: []}
    bad = {False: [], True: []}
    kinds = (False, True) if args.trace else (False,)
    kept = {}  # kind -> newest good pass directory
    failures = []
    attempted = 0
    while True:
        elapsed = time.monotonic() - start
        missing = [k for k in kinds if not (good[k] or bad[k])]
        if elapsed >= args.seconds and not missing:
            break
        if elapsed >= RUN_LIMIT_S:
            break
        # Traced runs alternate untraced and traced passes; past the time
        # budget only a missing kind runs.
        trace = missing[0] if elapsed >= args.seconds else (
            bool(args.trace) and attempted % 2 == 1)
        pass_dir = out / ("pass-%03d%s" % (attempted, "-trace" if trace else ""))
        attempted += 1
        result, failure = run_pass(args.workload, args.seed, pass_dir, trace,
                                   min(PASS_TIMEOUT_S, RUN_LIMIT_S + 10 - elapsed),
                                   expected)
        if failure is None:
            good[trace].append(result)
            if trace in kept:
                shutil.rmtree(kept[trace])
            kept[trace] = pass_dir
            continue
        failures.append("%s: %s" % (pass_dir.name, failure))
        print("perfbench: " + failures[-1], file=sys.stderr, flush=True)
        if result is not None:
            bad[trace].append(result)

    untraced = good[False] or bad[False]
    traced = good[True] or bad[True]
    if not untraced or (args.trace and not traced):
        raise SystemExit("perfbench: no pass of %s completed; failures:\n  %s"
                         % (args.workload, "\n  ".join(failures)))
    incorrect = bool(bad[False] or bad[True])

    failed = len(failures)
    host = untraced[0]["host"]
    comparable = host["optimized"] and not host["sanitized"]
    if args.trace:
        measured = per_layer(traced, untraced, attempted, failed)
        section = spec["per_layer"]
    else:
        measured = end_to_end(untraced)
        section = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in section}

    print("host: nproc=%d workers=%d simd=%s build=%s compiler=%s%s" % (
        host["nproc"], host["workers"], host["simd_tier"], host["build_type"],
        host["compiler"], "" if comparable else
        "  NOT COMPARABLE (sanitizer or non-optimised build)"))
    print("workload=%s seed=%d passes=%d (%d traced) failed=%d failed_ops=%.4f" % (
        args.workload, args.seed, attempted, len(traced), failed,
        failed / attempted))
    for failure in failures:
        print("  failed " + failure)
    for name, m in metrics.items():
        print("%-36s %16.6f %s" % (name, m["value"], m["unit"]))
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "host": dict(host, comparable=comparable),
               "attempted": attempted, "failed": failed, "failures": failures,
               "digests": untraced[-1]["digests"], "metrics": metrics,
               "passes": [{"trace": r["trace"], "values": r["values"]}
                          for r in untraced + traced]}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"correct": not incorrect, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
