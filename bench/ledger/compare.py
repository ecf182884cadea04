#!/usr/bin/env python3
"""Compare two sets of ledger records (JSONL files written by run.py).

    python3 bench/ledger/compare.py BASE.jsonl CHANGE.jsonl

For every (workload, metric) pair present in both sets it prints each
side's median and quartiles, the change of the median, the share of run
pairs the change wins, and a verdict. Runs pair up in file order: the
i-th base run of a workload with its i-th change run, so sets run on the
same seeds, or alternated, pair run for run.

  improved    the change wins at least 9 of every 10 run pairs (ties count
              for neither) and its median is better by more than the
              base's quartile spread;
  regressed   the change's median is worse by more than the bound, and
              either the base's quartile spread is within the bound or the
              change loses at least 9 of every 10 run pairs;
  unchanged   the base's spread and the change of the median are both
              within the bound;
  unresolved  anything else: the base's spread is wider than the bound, so
              these runs cannot tell a shift from noise; run more.

Bounds come from BENCHMARK.json's end_to_end list, for untraced records;
every other metric (the per-layer ledger and the workload-specific extras)
is judged against DEFAULT_BOUND and gates nothing. Exit status is 0 only
when every gated pair is unchanged or improved, else 1.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_BOUND = 0.10


def load(path):
    """{(workload, traced, metric): (values in file order, unit, better)}"""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["metrics"].items():
            if not m.get("available", True):
                continue
            key = (rec["workload"], rec["traced"], name)
            values, _, _ = out.setdefault(key, ([], m["unit"], m["better"]))
            values.append(m["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    """Returns (relative change of the median, win share, verdict)."""
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    scale = abs(bmed) if bmed != 0 else 1.0
    gain = sign * (cmed - bmed) / scale  # > 0: the change is better
    spread = (bq3 - bq1) / scale
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    if wins >= 0.9 * len(pairs) and gain > spread:
        v = "improved"
    elif -gain > bound and (spread <= bound or losses >= 0.9 * len(pairs)):
        v = "regressed"
    elif abs(gain) <= bound and spread <= bound:
        v = "unchanged"
    else:
        v = "unresolved"
    return sign * gain, wins / len(pairs), v


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base, change = load(args.base), load(args.change)

    gated = {}  # verdict -> gated (workload, metric) pairs
    print("%-24s %-38s %-8s %24s %24s %8s %6s %5s  %s" % (
        "workload", "metric", "unit", "base med [q1, q3]",
        "change med [q1, q3]", "change", "bound", "wins", "verdict"))
    for key in sorted(set(base) & set(change)):
        workload, traced, name = key
        bvals, unit, better = base[key]
        cvals = change[key][0]
        bounded = not traced and name in bounds
        bound = bounds[name] if bounded else DEFAULT_BOUND
        delta, wins, v = verdict(bvals, cvals, better, bound)
        if bounded:
            gated.setdefault(v, []).append("%s %s" % (workload, name))
        bq1, bmed, bq3 = quartiles(bvals)
        cq1, cmed, cq3 = quartiles(cvals)
        print("%-24s %-38s %-8s %24s %24s %+7.1f%% %5.1f%% %4.0f%%  %s%s" % (
            workload, ("[traced] " if traced else "") + name, unit,
            "%.4g [%.4g, %.4g] n=%d" % (bmed, bq1, bq3, len(bvals)),
            "%.4g [%.4g, %.4g] n=%d" % (cmed, cq1, cq3, len(cvals)),
            delta * 100, bound * 100, wins * 100, v,
            "" if bounded else " (ungated)"))

    print()
    print("gated pairs: " + ", ".join(
        "%d %s" % (len(gated.get(v, [])), v)
        for v in ("unchanged", "improved", "regressed", "unresolved")))
    for v in ("regressed", "unresolved"):
        for pair in gated.get(v, []):
            print("  %s: %s" % (v.upper(), pair))
    return 1 if gated.get("regressed") or gated.get("unresolved") else 0


if __name__ == "__main__":
    sys.exit(main())
