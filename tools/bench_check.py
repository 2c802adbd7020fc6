#!/usr/bin/env python3
"""Perf guardrail: compare bench JSON snapshots against the committed baseline.

Usage:
    bench_check.py --baseline BENCH_baseline.json [--tolerance 0.25]
                   [--fleet fleet_now.json] [--fleet-tolerance 0.35]
                   [--scaling scaling_now.json]
                   [--cohort cohort_now.json] [--cohort-tolerance 0.5]
                   [pipe_run1.json pipe_run2.json ...]

The pipeline runs are optional: a job that only exercises the offline
cohort path can pass --cohort alone and skip the pipeline gate.

Four gates, each exits 1 on failure:

  1. Pipeline: the MEDIAN `windows_per_sec` across the given bench_pipeline
     snapshots (run it several times; single runs on shared CI boxes are
     noisy) must stay within --tolerance (default 25%) of the baseline's
     `pipeline.windows_per_sec`. The decision-value checksum must match
     bit-for-bit (at 6 decimals).

  2. Fleet (--fleet): `windows_per_sec` must stay within --fleet-tolerance
     (default 35% — the engine multiplexes worker threads over whatever
     cores the runner has, so it needs more headroom than the
     single-threaded pipeline) of the baseline's `fleet.windows_per_sec`.

  3. Cohort (--cohort): the bench_cohort --json snapshot. The workload is
     seed-deterministic, so the structural counters (users, windows,
     dedup_hits, unique_rows, models_written, hash_collisions) must match
     the baseline's `cohort` section EXACTLY — any drift means the
     archive codec, window walk, dedup, or training protocol changed
     behaviour, which the bit-identity tests should have caught first.
     The two rates (windows_per_sec, users_per_sec) gate at
     --cohort-tolerance (default 50%: the offline pipeline is
     synthesis-heavy and runner speeds vary widely).

  4. Scaling (--scaling): the bench_fleet --scaling curve must be
     monotone within --fleet-tolerance — each point's windows/sec must be
     at least (1 - tolerance) x the previous point's. More cores must
     never make the fleet meaningfully slower; a contended lock on the
     hot path is exactly what this catches. A 1-core runner produces a
     single point and passes trivially; a curve with no points fails.

Everything else (pipeline p50/p99, allocs/window, the cohort dedup ratio,
RSS and phase seconds) is printed as ADVISORY and never fails the check.
The wire and the write-ahead journal are measured by perfbench's
gateway-paced workload.

Stdlib only; no third-party imports.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def fmt_delta(current, base):
    if base <= 0:
        return "n/a"
    pct = (current / base - 1.0) * 100.0
    return f"{pct:+.1f}%"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional pipeline windows_per_sec drop")
    parser.add_argument("--fleet", default=None,
                        help="bench_fleet --json snapshot (gated)")
    parser.add_argument("--fleet-tolerance", type=float, default=0.35,
                        help="allowed fractional fleet windows_per_sec drop, "
                             "also the scaling monotonicity slack")
    parser.add_argument("--cohort", default=None,
                        help="bench_cohort --json snapshot (gated)")
    parser.add_argument("--cohort-tolerance", type=float, default=0.5,
                        help="allowed fractional cohort rate drop")
    parser.add_argument("--scaling", default=None,
                        help="bench_fleet --scaling snapshot "
                             "(monotonicity gated)")
    parser.add_argument("runs", nargs="*",
                        help="bench_pipeline --json snapshots (omit to gate "
                             "only --fleet/--cohort/--scaling)")
    args = parser.parse_args()

    failures = []

    baseline = load(args.baseline)

    if args.runs:
        base_pipe = baseline["pipeline"]
        base_wps = float(base_pipe["windows_per_sec"])

        runs = [load(p) for p in args.runs]
        rates = [float(r["windows_per_sec"]) for r in runs]
        median_wps = statistics.median(rates)
        floor = base_wps * (1.0 - args.tolerance)

        print(f"pipeline windows_per_sec: runs {[round(r) for r in rates]} "
              f"-> median {median_wps:.0f}")
        print(f"  baseline {base_wps:.0f}, floor {floor:.0f} "
              f"(-{args.tolerance:.0%}), "
              f"delta {fmt_delta(median_wps, base_wps)}")
        if median_wps < floor:
            failures.append(
                f"pipeline windows_per_sec regressed more than "
                f"{args.tolerance:.0%}: {median_wps:.0f} < {floor:.0f}")

        for key in ("p50_us", "p99_us", "allocs_per_window"):
            if key in base_pipe and key in runs[0]:
                cur = statistics.median(float(r[key]) for r in runs)
                print(f"  advisory {key}: {cur:.3f} "
                      f"(baseline {float(base_pipe[key]):.3f})")

        # Pipeline determinism rides along for free: every snapshot reports
        # the checksum of its decision-value stream, which must not drift.
        checksums = {r.get("checksum") for r in runs}
        base_checksum = base_pipe.get("checksum")
        if base_checksum is not None and checksums != {base_checksum}:
            failures.append(f"decision-value checksum drifted: "
                            f"{sorted(checksums)} != {base_checksum}")

    if args.fleet:
        fleet = load(args.fleet)
        base_fleet = baseline.get("fleet", {})
        fleet_wps = float(fleet.get("windows_per_sec", 0.0))
        base_fleet_wps = float(base_fleet.get("windows_per_sec", 0.0))
        if base_fleet_wps > 0.0:
            fleet_floor = base_fleet_wps * (1.0 - args.fleet_tolerance)
            print(f"fleet windows_per_sec: {fleet_wps:.0f}")
            print(f"  baseline {base_fleet_wps:.0f}, floor {fleet_floor:.0f} "
                  f"(-{args.fleet_tolerance:.0%}), "
                  f"delta {fmt_delta(fleet_wps, base_fleet_wps)}")
            if fleet_wps < fleet_floor:
                failures.append(
                    f"fleet windows_per_sec regressed more than "
                    f"{args.fleet_tolerance:.0%}: "
                    f"{fleet_wps:.0f} < {fleet_floor:.0f}")

    if args.cohort:
        cohort = load(args.cohort)
        base_cohort = baseline.get("cohort", {})
        for key in ("users", "windows", "dedup_hits", "unique_rows",
                    "models_written", "hash_collisions"):
            if key in base_cohort and key in cohort:
                cur = int(cohort[key])
                base = int(base_cohort[key])
                mark = "" if cur == base else "  <-- DRIFT"
                print(f"cohort {key}: {cur} (baseline {base}){mark}")
                if cur != base:
                    failures.append(
                        f"cohort {key} drifted from the deterministic "
                        f"baseline: {cur} != {base}")
        for key in ("windows_per_sec", "users_per_sec"):
            base_val = float(base_cohort.get(key, 0.0))
            cur = float(cohort.get(key, 0.0))
            if base_val > 0.0:
                cohort_floor = base_val * (1.0 - args.cohort_tolerance)
                print(f"cohort {key}: {cur:.1f} "
                      f"(baseline {base_val:.1f}, floor {cohort_floor:.1f}, "
                      f"delta {fmt_delta(cur, base_val)})")
                if cur < cohort_floor:
                    failures.append(
                        f"cohort {key} regressed more than "
                        f"{args.cohort_tolerance:.0%}: "
                        f"{cur:.1f} < {cohort_floor:.1f}")
        for key in ("dedup_ratio", "peak_rss_mb", "extract_seconds",
                    "train_seconds"):
            if key in cohort:
                print(f"  advisory cohort {key}: {float(cohort[key]):.3f}")

    if args.scaling:
        scaling = load(args.scaling)
        points = scaling.get("points", [])
        desc = ", ".join(f"{p['workers']}w={float(p['windows_per_sec']):.0f}"
                         for p in points)
        print(f"fleet scaling ({len(points)} points): {desc}")
        if not points:
            failures.append("scaling snapshot has no points")
        for prev, cur in zip(points, points[1:]):
            prev_wps = float(prev["windows_per_sec"])
            cur_wps = float(cur["windows_per_sec"])
            scale_floor = prev_wps * (1.0 - args.fleet_tolerance)
            if cur_wps < scale_floor:
                failures.append(
                    f"scaling not monotone: {cur['workers']} workers "
                    f"({cur_wps:.0f} w/s) fell below "
                    f"{prev['workers']} workers ({prev_wps:.0f} w/s) "
                    f"by more than {args.fleet_tolerance:.0%}")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}")
        return 1
    print("OK: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
