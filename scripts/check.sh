#!/usr/bin/env bash
# One-shot build & verification runner.
#
#   scripts/check.sh              # release build (-Werror) + full ctest suite
#   scripts/check.sh asan         # the same under AddressSanitizer
#   scripts/check.sh ubsan        # the same under UBSan
#   scripts/check.sh tsan         # serving-layer suite under ThreadSanitizer
#   scripts/check.sh ledger       # build bench/ledger + run its smoke test
#   scripts/check.sh all          # release, then asan, then ubsan, then tsan
#
# Any extra arguments are forwarded to ctest, e.g.:
#   scripts/check.sh release -R Serialization
set -euo pipefail

cd "$(dirname "$0")/.."

run_preset() {
  local preset=$1; shift
  # The release build stays warning-free: a new warning fails it here.
  # (CI configures its presets itself, without this flag.)
  local werror=OFF
  [ "${preset}" = release ] && werror=ON
  echo "==> ${preset}: configure"
  cmake --preset "${preset}" -DACTJOIN_WERROR="${werror}"
  echo "==> ${preset}: build"
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "==> ${preset}: ctest"
  ctest --preset "${preset}" "$@"
  echo "==> ${preset}: OK"
}

# The one list of suites that run under TSan (CI calls `check.sh tsan`):
# the serving layer, the net front-end, the store, the work-stealing pool,
# and the observability plane hold all of the repo's cross-thread sharing;
# JoinKernel runs the multi-threaded join kernel, whose threads share only
# the ParallelFor block counter next to their own buffers.
TSAN_FILTER='^(Service|Net|Store|WorkStealingPool|Delta|Metrics|Trace|Observability|Join2|JoinKernel|CrossMatch|Subscribe|Async|Admin|Profiler)'

mode=${1:-release}
[ $# -gt 0 ] && shift

case "${mode}" in
  release|debug|asan|ubsan)
    run_preset "${mode}" "$@"
    ;;
  tsan)
    # TSan exists for the concurrent serving layer; the sequential suites
    # triple their runtime under it for no additional coverage. The filter
    # comes last so a forwarded -R cannot accidentally widen the run
    # (ctest honors the last -R).
    run_preset tsan "$@" -R "${TSAN_FILTER}"
    ;;
  ledger)
    # The benchmark builds the src/ libraries on its own, so a src/ API
    # change that breaks it fails here (CI's release job calls this mode,
    # so these are the one copy of the commands).
    echo "==> ledger: configure"
    cmake -S bench/ledger -B .bench_build/ledger -DCMAKE_BUILD_TYPE=Release
    echo "==> ledger: build"
    cmake --build .bench_build/ledger -j "$(nproc)"
    echo "==> ledger: ctest"
    ctest --test-dir .bench_build/ledger "$@"
    echo "==> ledger: OK"
    ;;
  all)
    run_preset release "$@"
    run_preset asan "$@"
    run_preset ubsan "$@"
    run_preset tsan "$@" -R "${TSAN_FILTER}"
    ;;
  *)
    echo "usage: $0 [release|debug|asan|ubsan|tsan|ledger|all] [ctest args...]" >&2
    exit 2
    ;;
esac
