#!/usr/bin/env python3
"""Builds and runs the ConnectIt benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload static_build --seed 1 --seconds 10 --trace 0

Workloads: static_build, stream_churn, wire_reads. --trace 1 runs the traced
variant, which reports per-layer metrics instead of end-to-end ones.

The driver (perfbench/main.cc and the library sources under src/) is built
with CMake into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset. The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every answer was checked and right.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("static_build", "stream_churn", "wire_reads")
# A run must end within 180 s; the driver's own watchdog fires at 170 s.
RUN_LIMIT_S = 176


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures and builds the driver; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return None
        jobs = str(os.cpu_count() or 2)
        compile_cmd = ["cmake", "--build", bdir, "-j", jobs,
                       "--target", "connectit_bench"]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(bdir, "connectit_bench")


def revision():
    """git sha when the tree is a git checkout, plus a digest of the
    sources the driver is built from (the benchmark checkout is not always
    a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    rev = "src-sha256:" + digest.hexdigest()[:16]
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            rev = "git:" + sha.stdout.strip() + " " + rev
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def failure_line(reason):
    print("perfbench: " + reason, file=sys.stderr)
    return json.dumps({"correct": False, "attempted": 1, "failed": 1,
                       "metrics": {}})


def run(binary, args, extra=()):
    """Runs the driver, passing its output through. Returns the exit code."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.dirname(binary),
           "--revision", revision(), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(failure_line("run timed out"))
        return 1
    finally:
        # A driver that exits early (watchdog) may leave its load generator
        # behind; nothing of the run outlives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    sys.stdout.write(out)
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
        complete = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        complete = False
    if not complete:
        print(failure_line("driver exited %d without a result" %
                           proc.returncode))
        return 1
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
