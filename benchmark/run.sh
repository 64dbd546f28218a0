#!/usr/bin/env bash
# Builds the pf15 benchmark in Release and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
#       one run of one workload (the command BENCHMARK.json names)
#   bash benchmark/run.sh [--seed <n>] [--traced] [--seconds <s>]
#       every workload, one after another
#   bash benchmark/run.sh gen ... | compare ...
#       the pf15_bench subcommands (see benchmark/README.md)
#
# Build output goes to standard error, so the last line of standard output
# of a run is its JSON summary. Results land in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: the pf15 sources are not in $root" >&2
  exit 2
fi

build="$here/build"
# Compiler scratch files stay inside the checkout too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target pf15_bench -j "$jobs" >&2

if [[ -z "${PF15_BENCH_GIT_SHA:-}" ]]; then
  PF15_BENCH_GIT_SHA=unknown
  if [[ -e "$root/.git" ]]; then
    PF15_BENCH_GIT_SHA="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
  fi
fi
export PF15_BENCH_GIT_SHA
bin="$build/pf15_bench"

case "${1:-}" in
  gen | compare) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
  case "$arg" in
    --workload | --workload=*) exec "$bin" "$@" ;;
  esac
done
status=0
for workload in train_hep train_climate serve_hep hybrid_hep; do
  "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
