#!/bin/sh
# Runs every workload of the layered loopback ledger serially, one process
# per workload, interleaving the workloads across reps (rep r uses seed+r).
# Build it yourself first or let run.py do it (Release, .bench_build/ledger).
#
#   bench/ledger/run.sh [--seed N] [--reps R] [--traced] [--seconds S]
#                       [--out results.jsonl]
#
# Records append to .bench_build/ledger/results.jsonl unless --out says
# otherwise; compare two such files with bench/ledger/compare.py.
exec python3 "$(dirname "$0")/run.py" --workload all "$@"
