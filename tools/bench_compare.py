#!/usr/bin/env python3
"""Perf-regression guard over the BENCH_*.json reports.

Usage: bench_compare.py BASELINE_DIR CANDIDATE_DIR [--tolerance 0.25]

Compares every BENCH_*.json present in BASELINE_DIR against the same file
in CANDIDATE_DIR. Two formats are understood:

  - google-benchmark JSON ({"benchmarks": [{"name", "real_time", ...}]}),
    written by bench_engine_micro;
  - BenchReport JSON ({"bench": ..., "rows": [{"name", "values": {...}}]}),
    written by the experiment benches (bench_greedy_plans etc.).

Absolute wall times are not comparable across machines (the checked-in
baseline comes from a different box than the CI runner), so timings are
normalized by a per-file *machine-speed factor*: the median of the
candidate/baseline time ratios across all common rows. A row regresses
when its candidate time exceeds its baseline time scaled by that factor
by more than the tolerance — i.e. it got slower *relative to how the rest
of the file moved on this machine*. The median is robust where a single
anchor row is not: one row speeding up (or jittering — fast rows swing
±15% at CI's short --benchmark_min_time) neither masks nor invents
regressions in every other row of its file. Only slower is flagged;
getting faster is never an error.

A google-benchmark row run with --benchmark_repetitions is compared on
its median aggregate (the `<name>_median` row); without repetitions, on
its single run. The median of three repetitions is a better estimator of
a row's time than any one run, not a wider band.

Deterministic counters (rows, wire_bytes, streams, ...) must stay within
the tolerance band of the baseline absolutely: the workloads are seeded,
so a drifting counter means the engine changed behavior, not the machine.
Machine-dependent series (throughput, shed rates) are skipped.

A row present in the baseline but missing from the candidate fails: a
deleted benchmark silently retires its regression coverage.

Exit status: 0 clean, 1 regression or structural mismatch.
"""

import argparse
import io
import json
import os
import sys

# Per-file tolerance floors. The service-load report includes a remote
# scenario over a real loopback socket; kernel scheduling and RTT variance
# there dwarf the compiled-code noise the default band is sized for. The
# effective tolerance for a file is max(--tolerance, this floor).
FILE_TOLERANCE = {
    "BENCH_service_load.json": 0.6,
    # The warm-doc row is a single map lookup (sub-millisecond), so its
    # ratio against the cold anchor is dominated by constant overhead that
    # varies across machines. A warm republish that stopped hitting the
    # document cache would blow past even this band (its ratio jumps from
    # ~0.01 to ~1.0), which is the regression this row exists to catch.
    "BENCH_cache.json": 1.5,
}

# BenchReport value keys that vary run-to-run / machine-to-machine and
# carry no regression signal of their own.
NONDETERMINISTIC_KEYS = {
    "throughput_rps",
    "shed",
    "completed",
    "timed_out",
    "failed",
    "breaker_trips",
    "breaker_fast_fails",
    # Rank positions within a sort of 512 plans by *measured* wall time:
    # plans with near-identical cost reshuffle freely run to run, so a
    # rank is scheduling noise, not an engine-behavior counter.
    "worst_rank",
    "in_top_2x",
}


class ReportError(Exception):
    """A report file that cannot be compared (missing/empty/corrupt)."""


def load_rows(path):
    """Returns (ordered row names, {name: {key: value}}, {name: time}).

    Raises ReportError (not a stack trace) when the file is missing, empty,
    or not valid JSON — a truncated bench run must fail the comparison with
    a diagnosable one-liner, not a traceback.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ReportError(f"{path}: unreadable ({e.strerror})") from e
    if not text.strip():
        raise ReportError(
            f"{path}: empty report (bench crashed or was interrupted?)"
        )
    try:
        doc = json.load(io.StringIO(text))
    except json.JSONDecodeError as e:
        raise ReportError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ReportError(f"{path}: expected a JSON object at top level")
    names, values, times = [], {}, {}
    if "benchmarks" in doc:  # google-benchmark schema
        medians = {}
        for row in doc["benchmarks"]:
            if row.get("run_type") == "aggregate":
                if row.get("aggregate_name") == "median":
                    medians[row["run_name"]] = float(row["real_time"])
                continue
            name = row["name"]
            if name not in values:
                names.append(name)
            values[name] = {}
            times[name] = float(row["real_time"])
        times.update((n, t) for n, t in medians.items() if n in values)
    else:  # BenchReport schema
        for row in doc.get("rows", []):
            name = row["name"]
            names.append(name)
            vals = dict(row.get("values", {}))
            # *_ms keys are timings; everything else is a counter.
            times[name] = sum(
                v for k, v in vals.items() if k.endswith("_ms")
            )
            values[name] = {
                k: float(v)
                for k, v in vals.items()
                if not k.endswith("_ms") and k not in NONDETERMINISTIC_KEYS
            }
    return names, values, times


def compare_file(name, base_path, cand_path, tolerance):
    base_names, base_values, base_times = load_rows(base_path)
    _, cand_values, cand_times = load_rows(cand_path)

    failures = []
    missing = [n for n in base_names if n not in cand_times]
    for n in missing:
        failures.append(f"{name}: row '{n}' missing from candidate")
    common = [n for n in base_names if n in cand_times]
    if not common:
        failures.append(f"{name}: no rows in common with baseline")
        return failures

    # Machine-speed factor: median candidate/baseline time ratio over the
    # file's rows. Robust to any single row legitimately changing speed.
    ratios = sorted(
        cand_times[n] / base_times[n]
        for n in common
        if base_times[n] > 0 and cand_times[n] > 0
    )
    scale = ratios[len(ratios) // 2] if ratios else 1.0

    for n in common:
        if base_times[n] > 0 and cand_times[n] > 0 and scale > 0:
            rel = cand_times[n] / (base_times[n] * scale)
            if rel > 1 + tolerance:
                failures.append(
                    f"{name}: '{n}' slowed {rel:.2f}x "
                    f"vs the file's median speed factor {scale:.3f} "
                    f"(baseline {base_times[n]:.0f}, "
                    f"candidate {cand_times[n]:.0f})"
                )
        for key, base_val in base_values[n].items():
            cand_val = cand_values.get(n, {}).get(key)
            if cand_val is None:
                failures.append(f"{name}: '{n}' lost counter '{key}'")
                continue
            band = abs(base_val) * tolerance
            if abs(cand_val - base_val) > band:
                failures.append(
                    f"{name}: '{n}' counter '{key}' drifted "
                    f"{base_val:.6g} -> {cand_val:.6g} "
                    f"(> {tolerance:.0%} band)"
                )
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir")
    parser.add_argument("candidate_dir")
    parser.add_argument("--tolerance", type=float, default=0.25)
    args = parser.parse_args()

    base_files = sorted(
        f
        for f in os.listdir(args.baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not base_files:
        print(f"bench_compare: no BENCH_*.json in {args.baseline_dir}",
              file=sys.stderr)
        return 1

    failures = []
    compared = 0
    for f in base_files:
        cand_path = os.path.join(args.candidate_dir, f)
        if not os.path.exists(cand_path):
            # A missing candidate report silently retires its regression
            # coverage — hard failure, same as a missing row.
            failures.append(
                f"{f}: not produced by candidate "
                f"(expected {cand_path}; did its bench fail to run?)"
            )
            continue
        tolerance = max(args.tolerance, FILE_TOLERANCE.get(f, 0.0))
        print(f"bench_compare: {f}: tolerance {tolerance:.0%}"
              + (" (per-file floor)" if tolerance > args.tolerance else ""))
        try:
            failures += compare_file(
                f, os.path.join(args.baseline_dir, f), cand_path, tolerance
            )
        except ReportError as e:
            failures.append(str(e))
            continue
        compared += 1

    if compared == 0 and not failures:
        print("bench_compare: no common report files", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    print(
        f"bench_compare: {compared} file(s), "
        f"{len(failures)} regression(s), tolerance {args.tolerance:.0%}"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
