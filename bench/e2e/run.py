#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 bench/e2e/run.py [--workload W] [--seed S] [--seconds T]
                             [--trace 0|1] [--smoke] [--json OUT]

Configures bench/e2e (which compiles the library from src/) into build/e2e
as a Release build, then runs each workload in a fresh process, so every
workload has its own peak RSS. With --workload the last line of stdout is
that workload's result object; without it all four workloads run and the
last line folds their results, metric names prefixed by the workload.
--json writes the results with their provenance stamp (the input of
compare.py). The exit status is non-zero when the build or an output check
fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
WORKLOADS = ["grid_default", "grid_fine", "gauss_async", "serve_mixed"]
RUN_TIMEOUT_S = 170
DETAIL_PREFIX = "E2E_DETAIL "
# The binary takes seeds in [0, 1e9] (world seeds are seed*100000 + index
# and must stay exact as JSON numbers); any other integer is folded into it.
SEED_MODULUS = 1_000_000_000


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="any integer; taken modulo 1e9")
    p.add_argument("--seconds", type=float,
                   help="timed phase per workload (default 18, smoke 0.5)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: per-layer metrics and a Perfetto trace")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes for a quick check; all checks still run")
    p.add_argument("--json", help="write the results to this file")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else 18.0
    args.seed %= SEED_MODULUS
    return args


def build():
    """Configure and build into build/e2e; returns the benchmark binary."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD, "bnloc_e2e")


def run_workload(exe, args, workload):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}.seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    detail = None
    for line in lines[:-1]:
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        else:
            print(line)
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, detail


def git_sha():
    """Commit of the measured library; "-dirty" when src/ differs from it.
    Only inside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src"],
                               capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def main():
    args = parse_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    for workload in workloads:
        try:
            code, result, detail = run_workload(exe, args, workload)
        except subprocess.TimeoutExpired:
            print(f"run.py: {workload} ran past {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        if result is None or code not in (0, 1):
            print(f"run.py: {workload} exited {code} without a result",
                  file=sys.stderr)
            return 1
        results[workload] = {"result": result, "detail": detail,
                             "exit_code": code}

    if args.json:
        simd = next((r["detail"]["simd"] for r in results.values()
                     if r["detail"]), "unknown")
        with open(args.json, "w") as f:
            json.dump({"provenance": {"git_sha": git_sha(),
                                      "nproc": os.cpu_count(),
                                      "simd": simd},
                       "seed": args.seed, "trace": args.trace,
                       "smoke": args.smoke, "seconds": args.seconds,
                       "workloads": results}, f, indent=1, sort_keys=True)
            f.write("\n")

    ok = all(r["exit_code"] == 0 and r["result"]["correct"]
             for r in results.values())
    if len(workloads) == 1:
        final = results[workloads[0]]["result"]
    else:
        final = {"correct": ok,
                 "attempted": sum(r["result"]["attempted"]
                                  for r in results.values()),
                 "failed": sum(r["result"]["failed"]
                               for r in results.values()),
                 "metrics": {f"{w}.{name}": m
                             for w, r in results.items()
                             for name, m in r["result"]["metrics"].items()}}
    print(json.dumps(final))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
