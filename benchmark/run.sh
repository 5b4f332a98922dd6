#!/usr/bin/env bash
# Build the benchmark (the first call compiles the library; later calls
# only check it is up to date) and run it from the repository root.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last stdout line is its JSON result
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--trace]
#       every workload, each in its own process; --trace adds a traced
#       rerun of each, whose Chrome trace lands in .bench_build/traces/
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi

mkdir -p "$build"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } \
       >"$build/build.log" 2>&1 ||
   ! cmake --build "$build" -j "$jobs" --target tbr_bench \
       >>"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi
bench="$build/tbr_bench"

workload="" trace=0 pass=()
while (( $# > 0 )); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    *) pass+=("$1"); shift ;;
  esac
done

run_one() {  # workload trace
  "$bench" --workload "$1" --trace "$2" "${pass[@]}"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$trace"
  exit $?
fi

status=0
for w in $("$bench" --list); do
  run_one "$w" 0 || status=1
  if [[ "$trace" == 1 ]]; then run_one "$w" 1 || status=1; fi
done
exit "$status"
