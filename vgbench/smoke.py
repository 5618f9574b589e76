#!/usr/bin/env python3
"""Smoke test of the benchmark: a one-second run of every workload, untraced
and traced, with all correctness checks on. Asserts that each run exits 0,
reports correct=true, and prints exactly the metric names and units that
BENCHMARK.json lists (end_to_end untraced, per_layer traced).

Run from the repository root:  python3 vgbench/smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        seed = json.load(f)["default_seed"]
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            cmd = bench["command"] + ["--workload", workload, "--seed",
                                      str(seed), "--seconds", "1",
                                      "--trace", trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no JSON result "
                                f"(exit {proc.returncode})\n{proc.stderr}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if proc.returncode != 0 or result["correct"] is not True:
                problems.append(f"exit {proc.returncode}, "
                                f"correct={result['correct']}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"metric names/units differ: missing "
                                f"{missing}, extra {extra}")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{label:32s} {status}", flush=True)
            if problems:
                failures.append(f"{label}: {problems}\n{proc.stderr[-3000:]}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
