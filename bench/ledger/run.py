#!/usr/bin/env python3
"""Build the ledger and run workloads of the layered loopback ledger.

One run (what BENCHMARK.json's command does):

    python3 bench/ledger/run.py --workload census_uniform_exact --seed 1 \
        --seconds 22 --trace 0

builds bench/ledger in Release under .bench_build/ledger, runs one
workload in one process, appends the full
record (every metric with its unit, sample count and spread, plus the host
fingerprint) to .bench_build/ledger/results.jsonl, prints each metric by
name and unit, and prints as its last line the summary
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).

Several reps (what run.sh does): --workload all --reps 5 runs every
workload once per rep, interleaved, with seed, seed+1, ... per rep.

Exit status: 0 when every reply verified; 1 when an operation failed (the
summary still prints, with "correct": false); 2 when the build or the run
could not complete (no summary).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the ledger; returns the binary path or None."""
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "--target", "ledger",
                 "-j", str(os.cpu_count() or 1)]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return BUILD / "ledger"


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    idle = fields[3] + fields[4]  # idle + iowait
    return sum(fields[:8]), idle


def busy_cpus(window_s=0.5):
    """CPUs' worth of non-idle time (steal included) over a short window."""
    total0, idle0 = cpu_times()
    time.sleep(window_s)
    total1, idle1 = cpu_times()
    ticks = total1 - total0
    if ticks <= 0:
        return 0.0
    return (ticks - (idle1 - idle0)) / ticks * (os.cpu_count() or 1)


def wait_for_quiet(max_wait_s):
    """Waits up to max_wait_s for less than one busy CPU.

    The 1-minute loadavg is recorded too, but it still counts the previous
    run for a minute after it ended, so it cannot gate back-to-back runs.
    Returns (busy CPUs at start, contended).
    """
    deadline = time.monotonic() + max_wait_s
    busy = busy_cpus()
    while busy >= 1.0 and time.monotonic() < deadline:
        busy = busy_cpus()
    return busy, busy >= 1.0


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_process(binary, workload, seed, seconds, traced, spans_out, timeout):
    """Runs the ledger binary once; returns its record or None."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--traced=%s" % str(traced).lower(),
           "--tmp_dir=" + str(tmp)]
    if traced and spans_out:
        cmd.append("--spans_out=" + str(spans_out))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % workload)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("run.py: %s exited %d" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def run_one(binary, workload, seed, seconds, traced, spans_out, max_wait_s):
    """Runs one workload in one process; returns its record or None."""
    busy, contended = wait_for_quiet(max_wait_s)
    load_start = os.getloadavg()[0]
    record = run_process(binary, workload, seed, seconds, traced, spans_out,
                         RUN_TIMEOUT_S)
    if record is None:
        return None
    record["host"].update({
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg()[0],
        "busy_cpus_before": round(busy, 3),
        "contended": contended,
        "git_commit": git_commit(),
    })
    return record


def print_record(record):
    title = "%s seed %d%s: %s (%d attempted, %d failed)" % (
        record["workload"], record["seed"],
        " traced" if record["traced"] else "",
        "correct" if record["correct"] else "INCORRECT",
        record["attempted"], record["failed"])
    print(title)
    for name, m in record["metrics"].items():
        if not m.get("available", True):
            print("  %-42s %14s  %-10s (unavailable)" % (name, "-", m["unit"]))
            continue
        spread = ""
        if "min" in m:
            spread = " [%.6g .. %.6g]" % (m["min"], m["max"])
        print("  %-42s %14.6g  %-10s n=%d%s" % (name, m["value"], m["unit"],
                                                m["n"], spread))
    sys.stdout.flush()


def summary(record, bench):
    """The last-line summary: the listed metrics, value and unit only."""
    group = "per_layer" if record["traced"] else "end_to_end"
    metrics = {}
    for spec in bench[group]:
        m = record["metrics"].get(spec["name"])
        if m is None or not m.get("available", True) or m["unit"] != spec["unit"]:
            raise ValueError("record lacks %s [%s]" % (spec["name"], spec["unit"]))
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   help="one of %s, or all" % ", ".join(names))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--reps", type=int, default=1,
                   help="runs per workload; rep r uses seed + r")
    p.add_argument("--out", default=str(BUILD / "results.jsonl"),
                   help="JSONL file the records are appended to")
    p.add_argument("--spans_out", default="",
                   help="traced runs: directory for the span files "
                        "(default: next to --out)")
    args = p.parse_args()
    traced = args.traced or args.trace == 1
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        p.error("unknown workload %s" % args.workload)

    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 2
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    spans_dir = Path(args.spans_out) if args.spans_out else out.parent / "spans"
    if traced:
        spans_dir.mkdir(parents=True, exist_ok=True)
    # A series of reps waits up to a minute for a quiet host before each run.
    # A lone run only records how busy the host was: its caller decides when
    # to run it and how long a series of runs may take.
    max_wait = 0 if args.reps == 1 and len(workloads) == 1 else 60

    status = 0
    record = None
    for rep in range(args.reps):
        for workload in workloads:
            seed = args.seed + rep
            spans = spans_dir / ("%s-%d.json" % (workload, seed))
            record = run_one(binary, workload, seed, args.seconds, traced,
                             spans, max_wait)
            if record is None:
                return 2
            with out.open("a") as f:
                f.write(json.dumps(record) + "\n")
            print_record(record)
            if not record["correct"]:
                status = 1
    if args.reps == 1 and len(workloads) == 1:
        try:
            line = summary(record, bench)
        except ValueError as e:
            log("run.py: %s" % e)
            return 2
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
