#!/usr/bin/env python3
"""Build and run the request-path benchmark of the hio serving stack.

    python3 perfbench/run.py --workload tcp-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built from source with
dune into a build directory of its own (CARGO_TARGET_DIR if set, else
.bench_build), then run. Its standard output is passed through; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only if every output check passed.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["tcp-small", "tcp-bulk", "sim-shard", "sim-overload"]
PROFILE = "release"
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Build the benchmark; return the executable's path or exit 2."""
    bdir = build_dir()
    env = dict(os.environ)
    # keep every file dune writes inside the build directory
    env["XDG_CACHE_HOME"] = os.path.join(bdir, "xdg-cache")
    env["XDG_CONFIG_HOME"] = os.path.join(bdir, "xdg-config")
    env["DUNE_CACHE"] = "disabled"
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.stderr.write("run.py: run from the repository root (no dune-project or lib/ here)\n")
        sys.exit(2)
    cmd = [
        "dune", "build", "--root", ".", "--no-config", "--profile", PROFILE,
        "--build-dir", bdir, "./perfbench/main.exe",
    ]
    # one build at a time per build directory: two dune processes in
    # one build directory at once have been seen to hang
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "run-py.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    exe = os.path.join(bdir, "default", "perfbench", "main.exe")
    if r.returncode != 0 or not os.path.isfile(exe):
        sys.stderr.write("run.py: build failed\n")
        sys.exit(2)
    return exe


def declared_metrics(trace):
    """Metric name -> unit that BENCHMARK.json declares for this kind of
    run, if the file is present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_exe(exe, workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (exit code, output lines, parsed result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--profile", PROFILE]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("run.py: %s did not finish in %ds\n" % (workload, RUN_TIMEOUT_S))
        return 1, [], None
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def check_result(result, trace):
    """Problems with the shape of a result line (empty list if none)."""
    if not isinstance(result, dict):
        return ["no result line"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    want = declared_metrics(trace)
    if want is not None:
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != want:
            differ = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
            problems.append("metrics differ from BENCHMARK.json (name or unit): %s" % differ)
    return problems


def bench(args):
    exe = build()
    code, lines, result = run_exe(exe, args.workload, args.seed, args.seconds,
                                  args.trace == 1)
    for line in lines[:-1]:
        print(line)
    problems = check_result(result, args.trace == 1)
    if problems:
        for p in problems:
            sys.stderr.write("run.py: %s\n" % p)
        sys.exit(code or 3)
    print(lines[-1], flush=True)
    ok = code == 0 and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else (code or 1))


# Counts that must repeat exactly for a fixed seed on the sim workloads.
EXACT = {False: ["steps_per_req", "goodput_ratio"], True: ["core.forks_per_req"]}


def self_test(_args):
    """Every workload at a tiny size: every declared metric printed, every
    output check passed, and the sim workloads' exact counts repeated."""
    exe = build()
    failures = []
    for w in WORKLOADS:
        for trace in (False, True):
            runs = 2 if w.startswith("sim-") else 1
            seen = []
            for _ in range(runs):
                code, _lines, result = run_exe(exe, w, 7, 1, trace, tiny=True)
                problems = check_result(result, trace)
                if not problems and (code != 0 or not result["correct"]):
                    problems.append("output checks failed (exit %d)" % code)
                for p in problems:
                    failures.append("%s trace=%d: %s" % (w, trace, p))
                if not problems:
                    seen.append({k: result["metrics"][k]["value"] for k in EXACT[trace]})
            if len(seen) == 2 and seen[0] != seen[1]:
                failures.append("%s trace=%d: counts did not repeat: %s vs %s"
                                % (w, trace, seen[0], seen[1]))
            print("%-13s trace=%d %s" % (w, trace, "ok" if not any(
                f.startswith("%s trace=%d" % (w, trace)) for f in failures) else "FAILED"),
                flush=True)
    for f in failures:
        print("FAILED: " + f)
    print("self-test: %s" % ("passed" if not failures else "%d failure(s)" % len(failures)))
    sys.exit(0 if not failures else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run every workload at a tiny size and check the outputs")
    args = p.parse_args()
    if args.self_test:
        self_test(args)
    if args.workload is None:
        p.error("--workload is required")
    bench(args)


if __name__ == "__main__":
    main()
