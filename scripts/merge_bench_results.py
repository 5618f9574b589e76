#!/usr/bin/env python3
"""Merge scalar- and auto-level google-benchmark JSON runs.

Produces the committed BENCH_microbench.json: one entry per benchmark with
scalar_ns and auto_ns (each the median over the run's repetitions), each
side's coefficient of variation over those repetitions (scalar_cv, auto_cv),
and the scalar/auto speedup, plus enough context (host, dispatch level,
repetition count) to interpret the numbers later.

Usage: merge_bench_results.py scalar.json auto.json out.json
"""
import json
import statistics
import sys

# google-benchmark reports real_time in each row's time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_results(path):
    """Returns (doc, {name: (median_ns, cv, repetitions)}).

    With --benchmark_repetitions=N every benchmark has N iteration rows
    under one name, and each of them counts. Aggregate rows
    (mean/median/stddev/cv) are skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    samples = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        ns = float(bench["real_time"]) * NS_PER_UNIT[bench.get("time_unit",
                                                               "ns")]
        samples.setdefault(bench["name"], []).append(ns)
    out = {}
    for name, times in samples.items():
        mean = statistics.fmean(times)
        cv = (statistics.stdev(times) / mean
              if len(times) > 1 and mean > 0 else 0.0)
        out[name] = (statistics.median(times), cv, len(times))
    return doc, out


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    scalar_doc, scalar = load_results(argv[1])
    auto_doc, auto = load_results(argv[2])

    names = sorted(set(scalar) & set(auto))
    missing = sorted(set(scalar) ^ set(auto))
    if missing:
        print(f"warning: benchmarks present in only one run: {missing}",
              file=sys.stderr)

    benchmarks = []
    for name in names:
        s, s_cv, _ = scalar[name]
        a, a_cv, _ = auto[name]
        benchmarks.append({
            "name": name,
            "scalar_ns": s,
            "auto_ns": a,
            "speedup": s / a if a > 0 else None,
            "scalar_cv": s_cv,
            "auto_cv": a_cv,
        })

    context = auto_doc.get("context", {})
    merged = {
        "schema": "vibguard-bench-v1",
        "context": {
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "cpu_scaling_enabled": context.get("cpu_scaling_enabled"),
            "library_build_type": context.get("library_build_type"),
            "auto_level": context.get("vibguard_simd"),
            "repetitions": min((auto[n][2] for n in names), default=0),
        },
        "benchmarks": benchmarks,
    }
    with open(argv[3], "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")

    width = max((len(n) for n in names), default=4)
    print(f"{'benchmark':<{width}}  {'scalar_ns':>12}  {'cv':>5}  "
          f"{'auto_ns':>12}  {'cv':>5}  speedup")
    for b in benchmarks:
        print(f"{b['name']:<{width}}  {b['scalar_ns']:>12.1f}  "
              f"{b['scalar_cv']:>5.1%}  {b['auto_ns']:>12.1f}  "
              f"{b['auto_cv']:>5.1%}  {b['speedup']:>6.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
