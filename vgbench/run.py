#!/usr/bin/env python3
"""Builds the VibGuard benchmark from source and runs one workload.

Usage (from the repository root):

    python3 vgbench/run.py --workload score_warm --seed 1 --seconds 30 --trace 0

The first call configures and builds vgbench (a Release build of the
library's src/ tree plus the benchmark binary) under .bench_build/; later calls
only re-check the build. The binary's standard output is passed through: its
last line is the JSON result. Build output goes to standard error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "vgbench")
WORKLOADS = ("score_warm", "experiment_fig9", "serve_closed")


def load_config():
    with open(os.path.join(HERE, "config.json")) as f:
        return json.load(f)


def source_id():
    """A fingerprint of the library sources (the checkout may not be a git
    repository), plus the git commit when there is one."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    ident = "src-" + digest.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            ident = head.stdout.strip() + "+" + ident
    return ident


def build():
    """Configures (once) and builds vgbench; returns the binary's path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD, "vgbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("vgbench: the library sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    config = load_config()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"vgbench: build failed: {err}", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    expected = config["expected_eer"].get(args.workload, {}).get(
        str(args.seed))
    if expected is not None:
        cmd += ["--expect-eer", repr(expected)]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
