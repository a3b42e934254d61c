#!/usr/bin/env python3
"""Bench-regression gate: compare BENCH_*.json files against baselines.

Every bench binary emits a stable JSON document (see WriteBenchJson in
bench/bench_common.cc):

    {"bench": ..., "context": {...},
     "results": [{"name": ..., "value": ..., "unit": ...}, ...]}

This script compares fresh smoke-bench output against the checked-in
baselines in bench/baselines/ with a deliberately generous gate — CI
runners are noisy and the smoke configuration is tiny — so only
catastrophic regressions (a 3x slowdown, a 3x throughput collapse)
fail the build:

  * time units (us, ms, s):  FAIL when new > 3 * baseline + slack
  * rate/ratio units (qps, x): FAIL when new < baseline / 3 (no slack:
    the absolute floors below make tiny baselines skip instead)
  * count, pct, bytes, anything else: informational only (counts are
    workload-dependent and pct records carry their own in-bench gates)

Records whose baseline is below an absolute noise floor are skipped:
micro-benches at smoke scale measure microseconds, where scheduler
jitter alone exceeds any honest ratio.

Three kinds of absolute gates ride along. ABSOLUTE_MIN pins per-bench
sanity floors on the new document itself (the server bench's warm pass
must be all cache hits and >= 5x the compute path — a miss means the
cache is broken, not slow). ABSOLUTE_MAX pins ceilings the same way
(the warm pass must never expire a request in a shard queue, and the
loaded pass's deadline-miss ratio must stay under its threshold).
The third is scaling efficiency. A result document
that carries warm 1-thread and 4-thread throughput AND a top-level
"scaling_valid": true (the bench ran with at least as many cores as
threads) must show warm 4-thread qps >= 2.0x the 1-thread figure —
a regression to blocking reads flattens that curve long before it
trips the 3x throughput gate. When "scaling_valid" is false (e.g. a
1-CPU CI host) the check is skipped and logged, never failed.

The ratio gates compare like with like only: when a result document's
"scale_factor" or "num_entities" context differs from its baseline's,
the file reports one failure naming the mismatch instead of a ratio
failure per record (the absolute, scaling and speedup gates on the new
document still run). Regenerate the result at the baseline's config,
or refresh the baseline.

Usage:
    tools/bench_check.py [--baseline-dir bench/baselines]
                         [--results-dir .] [result.json ...]

With no explicit files, checks every BENCH_*.json in --results-dir that
has a matching baseline. Exits 1 on any gated regression.
"""

import argparse
import glob
import json
import os
import sys

# Gate parameters. RATIO is shared; the floors are per unit, in that
# unit, below which a record is too small to compare honestly.
RATIO = 3.0
TIME_SLACK = {"us": 50.0, "ms": 5.0, "s": 0.5}
TIME_FLOOR = {"us": 5.0, "ms": 0.05, "s": 0.001}
RATE_FLOOR = {"qps": 10.0, "x": 0.1}

# Minimum warm 4-thread vs 1-thread speedup on hosts where the ladder
# fit inside the core count. Lock-free reads give ~linear warm scaling;
# 2.0x at 4 threads is the "reads actually run in parallel" floor.
SCALING_MIN = 2.0
SCALING_SINGLE = "warm_batch_1t_qps"
SCALING_QUAD = "warm_batch_4t_qps"

# Absolute sanity floors checked on the NEW document alone, no baseline
# involved: structural invariants of a healthy serving path that hold
# on any host, however noisy. The server bench's warm pass must be all
# cache hits and the cache-hit path must beat the compute path by a
# wide margin — if either collapses the cache is broken, not slow. The
# net bench's socket warm pass must also be all hits, and must still
# beat its cold pass (loopback RTT is microseconds, far below the
# compute cost, so a compressed-but-positive gap is structural; 2x is
# a deliberately modest floor against the ~60x measured).
# Keyed by (bench name, record name) -> minimum value.
ABSOLUTE_MIN = {
    ("server_throughput", "warm_cache_hit_ratio"): 0.99,
    ("server_throughput", "warm_over_cold"): 5.0,
    ("net_throughput", "net_warm_cache_hit_ratio"): 0.99,
    ("net_throughput", "net_warm_over_cold"): 2.0,
}

# Absolute ceilings, same shape: resilience invariants that must not
# creep up. A warm all-cache-hit pass has no shard queue to expire in
# (any expiry there means deadline stamping broke), the loaded
# pass's 250ms deadline is generous enough that more than 20% misses
# signals a stuck queue, not a noisy host, and the net bench's loopback
# crew must not drop a single call (a lossy local socket path is
# broken, not slow).
ABSOLUTE_MAX = {
    ("server_throughput", "warm_expired_in_queue"): 0.0,
    ("server_throughput", "loaded_deadline_miss_ratio"): 0.2,
    ("net_throughput", "net_error_ratio"): 0.0,
}

# Minimum speedup ratios checked on the NEW document alone, but only
# when it carries "scaling_valid": true — a document produced on an
# oversubscribed host proves nothing about kernel throughput either.
# dispatched_over_portable is rowmajor_portable_ms over
# rowmajor_<dispatched>_ms: the kernel variant every batch in the process
# runs vs. the portable kernel, both over the same row-major rows. The
# floor is deliberately far below the ~1.4x measured because smoke runs
# share noisy CI cores. A value under 1.05 means the SIMD dispatch
# stopped engaging, not that the host was slow.
# Keyed by (bench name, record name) -> minimum ratio.
SPEEDUP_MIN = {
    ("micro_distance_kernels", "dispatched_over_portable"): 1.05,
}

# Context keys that must match between a result and its baseline for
# the per-record ratio gates to mean anything: a full-scale run is many
# times slower than a smoke-scale baseline without any regression.
COMPARABLE_CONTEXT = ("scale_factor", "num_entities")


def fail_line(name, measured, relation, threshold, unit, context=""):
    """One canonical single-line failure message.

    Every gate in this script reports through here so a CI log grep for
    [FAIL] always yields the metric name, the measured value, and the
    threshold it broke on one line:

        <metric>: measured <value><unit>, threshold <op> <value><unit> (<why>)
    """
    line = (f"{name}: measured {measured:.3f}{unit}, "
            f"threshold {relation} {threshold:.3f}{unit}")
    if context:
        line += f" ({context})"
    return line.replace("\n", " ")


def load_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def records(doc):
    return {r["name"]: (float(r["value"]), r.get("unit", ""))
            for r in doc.get("results", [])}


def check_scaling(doc):
    """Absolute scaling-efficiency gate for one result document.

    Returns (failures, checked, skipped). Documents without both warm
    throughput records (non-concurrency benches, capped ladders) have
    nothing to gate; documents marked "scaling_valid": false ran with
    more threads than cores and are skipped with a log line.
    """
    values = records(doc)
    if SCALING_SINGLE not in values or SCALING_QUAD not in values:
        return [], 0, 0
    single = values[SCALING_SINGLE][0]
    quad = values[SCALING_QUAD][0]
    if not doc.get("scaling_valid", False):
        print("  [info] scaling gate skipped: scaling_valid is false "
              "(bench ran more threads than cores)")
        return [], 0, 1
    if single <= 0.0:
        print(f"  [warn] scaling gate skipped: {SCALING_SINGLE} <= 0")
        return [], 0, 1
    speedup = quad / single
    if speedup < SCALING_MIN:
        return ([fail_line(
            "warm_4t_over_1t_scaling", speedup, ">=", SCALING_MIN, "x",
            context=f"{SCALING_QUAD} {quad:.0f} qps vs "
                    f"{SCALING_SINGLE} {single:.0f} qps")], 1, 0)
    return [], 1, 0


def check_absolute(doc):
    """Absolute floor/ceiling gates for one result document.

    Returns (failures, checked). Only records named in ABSOLUTE_MIN /
    ABSOLUTE_MAX for this document's bench are gated; everything else
    passes through.
    """
    values = records(doc)
    bench = doc.get("bench", "")
    failures = []
    checked = 0
    for (gated_bench, name), floor in sorted(ABSOLUTE_MIN.items()):
        if gated_bench != bench or name not in values:
            continue
        value, unit = values[name]
        checked += 1
        if value < floor:
            failures.append(fail_line(name, value, ">=", floor, unit,
                                      context="absolute floor"))
    for (gated_bench, name), ceiling in sorted(ABSOLUTE_MAX.items()):
        if gated_bench != bench or name not in values:
            continue
        value, unit = values[name]
        checked += 1
        if value > ceiling:
            failures.append(fail_line(name, value, "<=", ceiling, unit,
                                      context="absolute ceiling"))
    return failures, checked


def check_speedup(doc):
    """Absolute speedup floors for one result document.

    Returns (failures, checked, skipped). Only records named in
    SPEEDUP_MIN for this document's bench are gated; documents marked
    "scaling_valid": false are skipped with a log line, never failed.
    """
    values = records(doc)
    bench = doc.get("bench", "")
    failures = []
    checked = 0
    skipped = 0
    for (gated_bench, name), floor in sorted(SPEEDUP_MIN.items()):
        if gated_bench != bench or name not in values:
            continue
        if not doc.get("scaling_valid", False):
            print(f"  [info] speedup gate on {name} skipped: "
                  "scaling_valid is false")
            skipped += 1
            continue
        value, unit = values[name]
        checked += 1
        if value < floor:
            failures.append(fail_line(name, value, ">=", floor, unit,
                                      context="speedup floor"))
    return failures, checked, skipped


def context_mismatch(new_doc, base_doc):
    """One fail_line when the documents ran at different configs, else None.

    Compares the COMPARABLE_CONTEXT keys; a key present on one side only
    counts as a mismatch.
    """
    new_ctx = new_doc.get("context", {})
    base_ctx = base_doc.get("context", {})
    differing = [key for key in COMPARABLE_CONTEXT
                 if new_ctx.get(key) != base_ctx.get(key)]
    if not differing:
        return None
    key = differing[0]
    detail = ", ".join(f"{k} {new_ctx.get(k)} vs baseline {base_ctx.get(k)}"
                       for k in differing)
    return fail_line(key, float(new_ctx.get(key) or 0.0), "==",
                     float(base_ctx.get(key) or 0.0), "",
                     context=f"context mismatch: {detail}; "
                             "ratio gates not compared")


def check_file(result_path, baseline_path):
    """Returns (failures, checked, skipped) for one bench file."""
    new_doc = load_doc(result_path)
    new = records(new_doc)
    base_doc = load_doc(baseline_path)
    base = records(base_doc)
    failures = []
    checked = 0
    skipped = 0
    mismatch = context_mismatch(new_doc, base_doc)
    if mismatch is not None:
        failures.append(mismatch)
        base = {}  # ratios across configs are meaningless
    for name, (base_value, base_unit) in sorted(base.items()):
        if name not in new:
            print(f"  [warn] {name}: missing from new results")
            skipped += 1
            continue
        new_value, unit = new[name]
        if unit != base_unit:
            print(f"  [warn] {name}: unit changed {base_unit} -> {unit}")
            skipped += 1
            continue
        if unit in TIME_SLACK:
            if base_value < TIME_FLOOR[unit]:
                skipped += 1
                continue
            limit = RATIO * base_value + TIME_SLACK[unit]
            checked += 1
            if new_value > limit:
                failures.append(fail_line(
                    name, new_value, "<=", limit, unit,
                    context=f"baseline {base_value:.3f}{unit}, "
                            f"gate {RATIO}x + slack"))
        elif unit in RATE_FLOOR:
            if base_value < RATE_FLOOR[unit]:
                skipped += 1
                continue
            limit = base_value / RATIO
            checked += 1
            if new_value < limit:
                failures.append(fail_line(
                    name, new_value, ">=", limit, unit,
                    context=f"baseline {base_value:.3f}{unit}, "
                            f"gate /{RATIO}"))
        else:
            skipped += 1  # informational unit (count, pct, ...)
    if mismatch is None:
        for name in sorted(set(new) - set(base)):
            print(f"  [info] {name}: no baseline (new record)")
    scaling_failures, scaling_checked, scaling_skipped = check_scaling(
        new_doc)
    failures.extend(scaling_failures)
    checked += scaling_checked
    skipped += scaling_skipped
    absolute_failures, absolute_checked = check_absolute(new_doc)
    failures.extend(absolute_failures)
    checked += absolute_checked
    speedup_failures, speedup_checked, speedup_skipped = check_speedup(
        new_doc)
    failures.extend(speedup_failures)
    checked += speedup_checked
    skipped += speedup_skipped
    return failures, checked, skipped


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--results-dir", default=".")
    parser.add_argument("files", nargs="*",
                        help="explicit BENCH_*.json result files")
    args = parser.parse_args()

    files = args.files or sorted(
        glob.glob(os.path.join(args.results_dir, "BENCH_*.json")))
    if not files:
        print(f"no BENCH_*.json files found in {args.results_dir}")
        return 1

    any_failures = False
    compared = 0
    for result_path in files:
        baseline_path = os.path.join(args.baseline_dir,
                                     os.path.basename(result_path))
        if not os.path.exists(baseline_path):
            print(f"{result_path}: no baseline "
                  f"({baseline_path} missing), skipping")
            continue
        print(f"{result_path} vs {baseline_path}:")
        failures, checked, skipped = check_file(result_path, baseline_path)
        compared += 1
        print(f"  {checked} gated, {skipped} informational/skipped, "
              f"{len(failures)} failed")
        for failure in failures:
            print(f"  [FAIL] {failure}")
        any_failures = any_failures or bool(failures)

    if compared == 0:
        print("no result files had baselines; nothing compared")
        return 0
    if any_failures:
        print("bench_check: REGRESSION (see [FAIL] lines; gate is "
              f"{RATIO}x, so this is a large, real change — if intended, "
              "refresh bench/baselines/)")
        return 1
    print("bench_check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
