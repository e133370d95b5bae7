#!/usr/bin/env python3
"""Two-clock benchmark of the SemperOS simulator.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload postmark_local|sqlite_spanning|traffic_nginx \
        --seed N --seconds S --trace 0|1

Builds the driver (perfbench/CMakeLists.txt) into .bench_build/, runs one
workload with the simulator's environment knobs cleared, checks its
outputs, and prints the metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones (README.md).
Exits non-zero without a result line when the build or a run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("postmark_local", "sqlite_spanning", "traffic_nginx")
# Knobs that would change what is measured: engine threads, the IKC
# protocol mode, span tracing, and the bench binaries' fast mode.
CLEARED_ENV = ("SEMPEROS_THREADS", "SEMPEROS_CAP_BATCHING", "SEMPEROS_TRACE",
               "SEMPEROS_BENCH_FAST")
BUILD_TIMEOUT_S = 840


def run_timeout(seconds):
    """The driver's time limit: its --seconds of reps plus a fixed allowance
    for the fidelity line, traffic's saturation searches and, with --trace 1,
    the traced run, cross-check and probes."""
    return 2 * seconds + 100


def clean_env():
    return {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}


def build(env):
    """Configures (once) and builds the driver; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.stderr.write("%s\n" % err)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            return False
    return os.path.exists(DRIVER)


def source_identity():
    """Git commit when the checkout is a repository, else a digest of the
    simulator and benchmark sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=False)
            if out.returncode == 0:
                return "git " + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources sha256 " + digest.hexdigest()[:16]


def binary_digest():
    digest = hashlib.sha256()
    with open(DRIVER, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def check_modeled(workload, seed, fingerprint):
    """Modeled outputs are deterministic: every run of one build with the
    same workload and seed must reproduce the first run's fingerprint."""
    record_dir = os.path.join(BUILD_DIR, "modeled", binary_digest())
    os.makedirs(record_dir, exist_ok=True)
    record = os.path.join(record_dir, "%s-%d.txt" % (workload, seed))
    if os.path.exists(record):
        with open(record) as f:
            first = f.read().strip()
        return first == fingerprint, first
    with open(record, "w") as f:
        f.write(fingerprint + "\n")
    return True, fingerprint


def run_driver(args):
    """Runs the driver; returns (stdout lines, parsed RESULT or None)."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=run_timeout(args.seconds), check=False)
    except subprocess.TimeoutExpired as err:
        sys.stderr.write("driver timed out after %g s\n" % err.timeout)
        out = err.stdout or b""
        return (out.decode(errors="replace") if isinstance(out, bytes) else out).splitlines(), None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return lines, None
    results = [l for l in lines if l.startswith("RESULT ")]
    if len(results) != 1:
        return lines, None
    return [l for l in lines if not l.startswith("RESULT ")], json.loads(results[0][7:])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        sys.stderr.write("--seed must be >= 0 and --seconds > 0\n")
        return 2
    load = os.getloadavg()
    env = clean_env()
    if not build(env):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    print("context: %s, nproc %d, load average at start %.2f %.2f %.2f, cleared %s" %
          (source_identity(), len(os.sched_getaffinity(0)), load[0], load[1], load[2],
           ",".join(CLEARED_ENV)))
    sys.stdout.flush()
    lines, result = run_driver(args)
    print("\n".join(lines))
    if result is None:
        sys.stderr.write("perfbench: driver failed\n")
        return 1
    same, first = check_modeled(args.workload, args.seed, result.pop("modeled_fingerprint"))
    if not same:
        print("CHECK FAILED: modeled outputs differ from an earlier run of this build "
              "(fingerprint %s)" % first)
        result["correct"] = False
        result["failed"] = result["attempted"]
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
