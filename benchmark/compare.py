#!/usr/bin/env python3
"""Summarise or compare benchmark result sets (stdlib only).

A result set is a directory of run outputs, one file per run, named
``<workload>.<anything>`` (for example ``sim-expo-crash.seed3.out``); the
last line of each file is the JSON object ``benchmark/run.sh`` prints.

    compare.py SET            median, quartiles and spread per metric
    compare.py BASE NEW       ... and a verdict per workload x metric

Spread is (Q3 - Q1) / median over the set's runs. Verdicts for end-to-end
metrics use the bounds in BENCHMARK.json:

    worse       NEW's median is worse than BASE's by more than the bound
    unresolved  the spread of either set exceeds the bound, unless every
                NEW run beats every BASE run
    better      NEW's median is better by more than BASE's quartile
                distance and NEW wins at least 9 of 10 index-paired runs
    same        otherwise

Per-layer metrics have no bound and are reported as "info". Exits 1 when
a run failed its correctness check or, comparing, any verdict is worse or
unresolved.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load_set(path, workloads):
    runs = {}
    for f in sorted(pathlib.Path(path).iterdir()):
        workload = f.name.split(".", 1)[0]
        if not f.is_file() or workload not in workloads:
            continue
        lines = [ln for ln in f.read_text().splitlines() if ln.strip()]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{f}: last line is not a JSON result", file=sys.stderr)
            continue
        runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    """better: 'lower' or 'higher'; values are lists of run values."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    new_always_better = all(sign * (n - b) < 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not new_always_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    q1, _, q3 = quartiles(base)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if worse_by < 0 and abs(n_med - b_med) > (q3 - q1) and wins >= 0.9 * len(pairs):
        return "better", worse_by
    return "same", worse_by


def main():
    here = pathlib.Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--bench", default=str(here.parent / "BENCHMARK.json"))
    args = ap.parse_args()

    bench = json.loads(pathlib.Path(args.bench).read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    meta = {m["name"]: dict(m, kind="end_to_end") for m in bench["end_to_end"]}
    meta.update({m["name"]: dict(m, kind="per_layer") for m in bench["per_layer"]})

    sets = [load_set(args.base, workloads)]
    if args.new:
        sets.append(load_set(args.new, workloads))

    status = 0
    for s in sets:
        for w, runs in s.items():
            bad = [r for r in runs if not r.get("correct")]
            if bad:
                print(f"{w}: {len(bad)} run(s) failed the correctness check")
                status = 1

    for w in workloads:
        base_runs = sets[0].get(w, [])
        new_runs = sets[1].get(w, []) if len(sets) > 1 else []
        if not base_runs:
            continue
        print(f"\n{w}  (base {len(base_runs)} runs" +
              (f", new {len(new_runs)} runs)" if args.new else ")"))
        names = sorted({m for r in base_runs + new_runs for m in r["metrics"]})
        for name in names:
            info = meta.get(name, {"kind": "per_layer", "better": "lower"})
            base = [r["metrics"][name]["value"] for r in base_runs if name in r["metrics"]]
            unit = next(r["metrics"][name]["unit"] for r in base_runs + new_runs
                        if name in r["metrics"])
            q1, med, q3 = quartiles(base)
            line = (f"  {name:30s} {unit:7s} median {med:14.6g} "
                    f"[{q1:.6g}, {q3:.6g}] spread {spread(base):6.2%}")
            if info["kind"] == "end_to_end" and not args.new:
                limit = info["bound"]
                flag = "" if name == "setup_s" or spread(base) <= limit else "  SPREAD > BOUND"
                line += f"  bound {limit:.0%}{flag}"
            if args.new:
                new = [r["metrics"][name]["value"] for r in new_runs if name in r["metrics"]]
                if new:
                    n1, n_med, n3 = quartiles(new)
                    line += (f" | new {n_med:14.6g} [{n1:.6g}, {n3:.6g}] "
                             f"spread {spread(new):6.2%}")
                    if info["kind"] == "end_to_end":
                        v, worse_by = verdict(base, new, info["better"], info["bound"])
                        line += f"  {v} ({worse_by:+.2%} worse, bound {info['bound']:.0%})"
                        if v in ("worse", "unresolved"):
                            status = 1
                    else:
                        line += "  info"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
