#!/usr/bin/env python3
"""Repo benchmark entry point: build, run one workload, check the output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the GesturePrint libraries and the
gpbench binary from source into .bench_build/ (CMake; an up-to-date build is
a no-op), runs the named workload, and passes its output through. The last
line of standard output is gpbench's JSON result, printed only after it
has been checked against BENCHMARK.json: every metric the mode requires is
present, with its declared unit, and nothing else. Exits non-zero without a
result line when the build, the run or that check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "gpbench")
# A run must finish within 180 s of being started (after a build).
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets=("gpbench",)):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", BUILD_DIR, "--parallel", str(os.cpu_count() or 1),
               "--target", *targets]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest():
    """sha256 over the sources the benchmark builds (works without git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_result(result, spec, trace):
    """Returns a list of problems with gpbench's JSON result."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"result keys are {sorted(result)}"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(declared) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(declared)):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    for name in sorted(set(got) & set(declared)):
        m = got[name]
        if sorted(m) != ["unit", "value"] or m["unit"] != declared[name]:
            problems.append(f"metric {name} is {m}, declared unit {declared[name]}")
        elif not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name} has a non-numeric value")
    return problems


def run_gpbench(args):
    """Runs gpbench in its own process group; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha(), "--src-digest", src_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # Cluster workers share gpbench's process group: stop them all.
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log(f"gpbench did not finish within {RUN_TIMEOUT_S} s")
        return 1, out.splitlines()
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 1

    started = time.monotonic()
    if not build():
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    code, lines = run_gpbench(args)
    if code != 0:
        # Standard output may be kept apart from standard error: repeat why
        # the run failed (the verdict and error lines) where the log goes.
        for line in lines:
            if line.startswith("error") or " failed " in line:
                log(f"gpbench: {line}")
        log(f"gpbench exited with code {code}")
    if not lines:
        log("gpbench printed nothing")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        log("gpbench did not end with a JSON result")
        return 1
    problems = check_result(result, spec, args.trace == 1)
    if problems:
        for p in problems:
            log(p)
        return 1
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
