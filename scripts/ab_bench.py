#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark between two git refs.

Exports BASE and HEAD with `git archive` into a temporary directory, builds
each once through that copy's own vgbench/run.py, then runs N pairs of every
chosen workload at BENCHMARK.json's run_seconds. The side that runs first
alternates from pair to pair, so a slow drift of the host loads both sides
alike. vgbench itself runs unedited.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles, the median of the per-pair ratios HEAD/BASE with a bootstrap
95% interval, HEAD's wins out of the pairs, judged by the metric's
`better` direction, and one verdict:

  gain        HEAD wins at least nine tenths of the pairs, and its median
              beats BASE's by more than BASE's interquartile range;
  worse       the ratio's 95% interval lies wholly beyond the metric's
              BENCHMARK.json bound in its worse direction (below 1 - bound
              for higher-is-better, above 1 + bound for lower-is-better);
  unresolved  anything else.

It exits 1 if any run fails or reports "correct": false, or if any metric
is `worse`.

Runs are not pinned to cores: a workload may use more than one (a warm
score captures its two vibration channels on two threads), and pinning it
to fewer would measure a different program.

Usage:
  scripts/ab_bench.py BASE HEAD --workload score_warm [--workload ...] \\
      [--pairs 10] [--seed 1] [--out results.json]
  scripts/ab_bench.py --self-test

BASE and HEAD are anything `git archive` accepts: a commit, a branch, or a
tree id (e.g. `git add -A && git write-tree` for an uncommitted change).
Temporary copies go under $TMPDIR.
"""
import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def bootstrap_interval(ratios, rounds=2000, seed=0):
    """95% percentile-bootstrap interval of the median of `ratios`,
    resampling pairs with replacement."""
    rng = random.Random(seed)
    n = len(ratios)
    medians = [median([ratios[rng.randrange(n)] for _ in range(n)])
               for _ in range(rounds)]
    return quantile(medians, 0.025), quantile(medians, 0.975)


def summarize(pairs, metrics):
    """Per-metric statistics of a list of (base, head) metric dicts.

    Returns {name: {"base": (q1, med, q3), "head": (q1, med, q3),
    "ratio": med, "interval": (lo, hi), "wins": k, "pairs": n}}; a metric
    missing or non-positive on either side of a pair drops that pair.
    """
    out = {}
    for spec in metrics:
        name = spec["name"]
        kept = [(b[name], h[name]) for b, h in pairs
                if name in b and name in h and b[name] > 0 and h[name] > 0]
        if not kept:
            continue
        base = [b for b, _ in kept]
        head = [h for _, h in kept]
        ratios = [h / b for b, h in kept]
        higher = spec["better"] == "higher"
        wins = sum(1 for b, h in kept if (h > b if higher else h < b))
        out[name] = {
            "base": (quantile(base, 0.25), median(base), quantile(base, 0.75)),
            "head": (quantile(head, 0.25), median(head), quantile(head, 0.75)),
            "ratio": median(ratios),
            "interval": bootstrap_interval(ratios),
            "wins": wins,
            "pairs": len(kept),
            "better": spec["better"],
            "bound": spec["bound"],
        }
        out[name]["verdict"] = verdict(out[name])
    return out


def verdict(s):
    """`gain`, `worse` or `unresolved` for one metric's statistics."""
    higher = s["better"] == "higher"
    q1, base, q3 = s["base"]
    head = s["head"][1]
    gap = head - base if higher else base - head
    if 10 * s["wins"] >= 9 * s["pairs"] and gap > q3 - q1:
        return "gain"
    lo, hi = s["interval"]
    if (hi < 1.0 - s["bound"]) if higher else (lo > 1.0 + s["bound"]):
        return "worse"
    return "unresolved"


def format_summary(workload, stats):
    row = "{:<16} {:<28} {:<28} {:<24} {:<30} {}"
    lines = [f"== {workload}",
             row.format("metric", "base median [q1, q3]",
                        "head median [q1, q3]", "head/base [95% CI]",
                        "head wins", "verdict")]
    for name, s in stats.items():
        b, h = s["base"], s["head"]
        lo, hi = s["interval"]
        lines.append(row.format(
            name, f"{b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]",
            f"{h[1]:.4g} [{h[0]:.4g}, {h[2]:.4g}]",
            f"{s['ratio']:.3f} [{lo:.3f}, {hi:.3f}]",
            f"{s['wins']}/{s['pairs']} ({s['better']} is better)",
            s["verdict"]))
    return "\n".join(lines)


def export(ref, dest):
    """Extracts `ref` from this repository into `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {ref} failed")


def build(copy):
    """Builds the copy's vgbench once, through its own run.py."""
    subprocess.run([sys.executable, "-c", "import run; run.build()"],
                   cwd=os.path.join(copy, "vgbench"), check=True,
                   stdout=sys.stderr)


def run_once(copy, workload, seed, seconds):
    """One untraced vgbench run; returns (correct, {metric: value})."""
    cmd = [sys.executable, os.path.join(copy, "vgbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return False, {}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return bool(result["correct"]) and proc.returncode == 0, values


def self_test():
    """Checks the statistics on canned results."""
    metrics = [{"name": "verdicts_per_s", "better": "higher", "bound": 0.25},
               {"name": "verdict_ms_p50", "better": "lower", "bound": 0.25},
               {"name": "auc", "better": "higher", "bound": 0.1}]
    pairs = [({"verdicts_per_s": 100.0 + i, "verdict_ms_p50": 5.0,
               "auc": 0.9},
              {"verdicts_per_s": 130.0 + i, "verdict_ms_p50": 4.0 + 0.1 * i,
               "auc": 0.9})
             for i in range(10)]
    # One pair where HEAD lost throughput and latency.
    pairs[3][1]["verdicts_per_s"] = 90.0
    pairs[3][1]["verdict_ms_p50"] = 6.0
    stats = summarize(pairs, metrics)
    checks = []
    v = stats["verdicts_per_s"]
    checks.append(("throughput wins", v["wins"] == 9))
    checks.append(("base median", abs(v["base"][1] - 104.5) < 1e-12))
    checks.append(("base quartiles",
                   abs(v["base"][0] - 102.25) < 1e-12 and
                   abs(v["base"][2] - 106.75) < 1e-12))
    ratios = sorted((h["verdicts_per_s"] / b["verdicts_per_s"])
                    for b, h in pairs)
    checks.append(("ratio median",
                   abs(v["ratio"] - (ratios[4] + ratios[5]) / 2) < 1e-12))
    lo, hi = v["interval"]
    checks.append(("interval brackets median", lo <= v["ratio"] <= hi))
    checks.append(("interval inside data", ratios[0] <= lo and
                   hi <= ratios[-1]))
    checks.append(("interval excludes 1", lo > 1.0))
    p50 = stats["verdict_ms_p50"]
    checks.append(("lower-is-better wins", p50["wins"] == 9))
    checks.append(("lower-is-better ratio", p50["ratio"] < 1.0))
    auc = stats["auc"]
    checks.append(("ties are not wins", auc["wins"] == 0 and
                   auc["ratio"] == 1.0 and auc["interval"] == (1.0, 1.0)))
    missing = summarize([({"auc": 0.9}, {})], metrics)
    checks.append(("missing metric drops the pair", missing == {}))
    checks.append(("quantile of one value", quantile([3.0], 0.25) == 3.0))

    # Verdicts.
    checks.append(("gain, higher is better", v["verdict"] == "gain"))
    checks.append(("gain, lower is better", p50["verdict"] == "gain"))
    checks.append(("ties are unresolved", auc["verdict"] == "unresolved"))
    spread = [({"verdicts_per_s": 100.0 + 10 * i}, {"verdicts_per_s":
                                                      103.0 + 10 * i})
              for i in range(10)]
    wide = summarize(spread, metrics)["verdicts_per_s"]
    checks.append(("a gap inside the base IQR is no gain",
                   wide["wins"] == 10 and wide["verdict"] == "unresolved"))
    eight = [({"verdicts_per_s": 100.0}, {"verdicts_per_s":
                                          150.0 if i < 8 else 99.0})
             for i in range(10)]
    checks.append(("8 wins of 10 are no gain",
                   summarize(eight, metrics)["verdicts_per_s"]["verdict"]
                   == "unresolved"))
    slow = [({"verdicts_per_s": 100.0 + i, "verdict_ms_p50": 5.0},
             {"verdicts_per_s": 60.0 + i, "verdict_ms_p50": 7.0 + 0.1 * i})
            for i in range(10)]
    slow_stats = summarize(slow, metrics)
    checks.append(("worse, higher is better",
                   slow_stats["verdicts_per_s"]["verdict"] == "worse"))
    checks.append(("worse, lower is better",
                   slow_stats["verdict_ms_p50"]["verdict"] == "worse"))
    # 20% slower sits inside the 25% bound: not provably worse.
    mild = [({"verdicts_per_s": 100.0 + i}, {"verdicts_per_s": 80.0 + i})
            for i in range(10)]
    checks.append(("a loss inside the bound is unresolved",
                   summarize(mild, metrics)["verdicts_per_s"]["verdict"]
                   == "unresolved"))
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(format_summary("self-test", stats))
    return 1 if failed else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write every run's metrics here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.base or not args.head or not args.workload:
        parser.error("BASE, HEAD and at least one --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    known = [w["name"] for w in bench["workloads"]]
    for workload in args.workload:
        if workload not in known:
            parser.error(f"unknown workload {workload!r} (one of {known})")

    work = tempfile.mkdtemp(prefix="ab_bench-")
    try:
        copies = {}
        for side, ref in (("base", args.base), ("head", args.head)):
            copies[side] = os.path.join(work, side)
            export(ref, copies[side])
            print(f"building {side} ({ref})", file=sys.stderr)
            build(copies[side])

        correct = True
        runs = {w: [] for w in args.workload}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for workload in args.workload:
                pair = {}
                for side in order:
                    ok, values = run_once(copies[side], workload, args.seed,
                                          seconds)
                    if not ok:
                        print(f"pair {i + 1} {workload} {side}: failed or "
                              f"incorrect", file=sys.stderr)
                        correct = False
                    pair[side] = values
                runs[workload].append((pair["base"], pair["head"]))
                v = [pair[s].get("verdicts_per_s", 0.0)
                     for s in ("base", "head")]
                print(f"pair {i + 1}/{args.pairs} {workload} "
                      f"({order[0]} first): verdicts_per_s "
                      f"{v[0]:.4g} -> {v[1]:.4g}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# {args.base} (base) vs {args.head} (head), seed {args.seed}, "
          f"{seconds:g} s runs, {args.pairs} pairs, nproc {os.cpu_count()}")
    worse = []
    for workload, pairs in runs.items():
        stats = summarize(pairs, metrics)
        print(format_summary(workload, stats))
        worse += [f"{workload} {name}" for name, s in stats.items()
                  if s["verdict"] == "worse"]
    for item in worse:
        print(f"worse: {item}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"base": args.base, "head": args.head,
                       "seed": args.seed, "seconds": seconds,
                       "runs": {w: [{"base": b, "head": h} for b, h in p]
                                for w, p in runs.items()}}, f, indent=1)
    return 0 if correct and not worse else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
