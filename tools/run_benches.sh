#!/usr/bin/env bash
# Build the release preset and run every bench binary, capturing each run
# as BENCH_<name>.json in the output directory. This gives the perf
# trajectory a reproducible baseline: run it on main before and after an
# optimisation PR and diff the JSON.
#
# The two Google Benchmark harnesses (socket_latency, threaded_throughput)
# emit native benchmark JSON; the remaining drivers print text tables,
# which are wrapped in a JSON envelope with run metadata.
#
# Usage:
#   tools/run_benches.sh [--quick] [output-dir]  (default dir: repo root)
#   TBR_BENCH_FILTER=table1 tools/run_benches.sh  # only benches matching a regex
#
# --quick is the CI smoke mode: drivers that read TBR_BENCH_QUICK shrink
# their sweeps/repetitions (see bench_common.hpp quick_mode()), and the
# Google Benchmark harnesses run with minimal time/repetitions. Every
# BENCH_*.json is still produced — the perf trajectory keeps accumulating,
# just at smoke resolution.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
quick=0
if [ "${1:-}" = "--quick" ]; then
  quick=1
  shift
fi
out_dir="${1:-${repo_root}}"
filter="${TBR_BENCH_FILTER:-}"
build_dir="${repo_root}/build/release"

gbench_args=()
if [ "${quick}" = "1" ]; then
  export TBR_BENCH_QUICK=1
  gbench_args=(--benchmark_min_time=0.05 --benchmark_repetitions=1)
fi

mkdir -p "${out_dir}"

cmake --preset release -S "${repo_root}"
cmake --build --preset release -j "$(nproc)" --target benches

commit="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

wrap_json() {  # wrap_json <bench-name> <raw-output-file> <out.json>
  python3 - "$1" "$2" "$3" "${commit}" "${stamp}" <<'EOF'
import json, sys
name, raw_path, out_path, commit, stamp = sys.argv[1:6]
with open(raw_path) as f:
    text = f.read()
with open(out_path, "w") as f:
    json.dump({"bench": name, "commit": commit, "utc": stamp,
               "format": "text-table", "output": text}, f, indent=2)
    f.write("\n")
EOF
}

status=0
for bench in "${build_dir}"/bench/bench_*; do
  [ -x "${bench}" ] || continue
  name="$(basename "${bench}")"
  # A reused build tree can still hold binaries of deleted benches.
  [ -f "${repo_root}/bench/${name}.cpp" ] || continue
  if [ -n "${filter}" ] && ! [[ "${name}" =~ ${filter} ]]; then
    continue
  fi
  out="${out_dir}/BENCH_${name#bench_}.json"
  echo "== ${name} -> ${out}"
  case "${name}" in
    bench_socket_latency|bench_threaded_throughput)
      if ! "${bench}" --benchmark_format=json ${gbench_args[@]+"${gbench_args[@]}"} > "${out}"; then
        echo "!! ${name} failed" >&2
        rm -f "${out}"
        status=1
      fi
      ;;
    *)
      raw="$(mktemp)"
      if "${bench}" > "${raw}"; then
        wrap_json "${name}" "${raw}" "${out}"
      else
        echo "!! ${name} failed" >&2
        status=1
      fi
      rm -f "${raw}"
      ;;
  esac
done

exit "${status}"
