#!/usr/bin/env python3
"""Self-tests of the ConnectIt benchmark (run from the repository root):

    python3 perfbench/selftest.py

1. Every workload, tiny size, with and without tracing: the run passes, and
   every metric of BENCHMARK.json appears with its unit (end-to-end metrics
   non-zero), next to the report's host block and named values.
2. A wrong labeling injected into each workload, and a dropped response
   injected into wire_reads, are counted in `failed` and make the run exit
   non-zero: the correctness gate can fail.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Report values each workload must carry, with their units.
NAMED = {
    "static_build": {"build_ms.road": "ms", "build_ms.social": "ms",
                     "build_ms.web": "ms", "build_samples.road": "count"},
    "stream_churn": {"ingest_edges_per_s": "edges/s", "insert_ms_p50": "ms",
                     "insert_ms_p90": "ms", "erase_ms_p50": "ms"},
    "wire_reads": {"read_us_p50": "us", "read_us_p99": "us",
                   "read_capacity_ops_per_s": "ops/s"},
}
HOST_KEYS = {"nproc", "pool_workers", "numa_nodes", "compiler", "build_type",
             "revision", "seed"}


class Args:
    def __init__(self, workload, trace):
        self.workload, self.seed, self.seconds = workload, 3, 1
        self.trace = trace


def tiny_run(binary, workload, trace, inject=None):
    """Runs one tiny-size run; returns (exit code, report, result)."""
    extra = ["--size", "tiny"] + (["--inject", inject] if inject else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(binary, Args(workload, trace), extra)
    lines = out.getvalue().strip().splitlines()
    report = json.loads(lines[-2])["report"] if len(lines) >= 2 else {}
    return code, report, json.loads(lines[-1])


def check(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build(run.build_dir())
    if binary is None:
        print("FAIL build")
        return 1
    failures = []
    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            code, report, result = tiny_run(binary, workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  tag + " passes its correctness gate", failures)
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in declared},
                  tag + " reports exactly the declared metrics", failures)
            check(all(metrics.get(m["name"], {}).get("unit") == m["unit"]
                      for m in declared), tag + " units match", failures)
            if trace == 0:
                check(all(metrics[m["name"]]["value"] > 0 for m in declared),
                      tag + " end-to-end metrics are non-zero", failures)
                check(all(report.get(k, {}).get("unit") == u
                          for k, u in NAMED[workload].items()),
                      tag + " named report values present", failures)
                check(HOST_KEYS <= set(report.get("host", {})),
                      tag + " host block complete", failures)
                check(report.get("host", {}).get("pool_workers", 0) >= 2,
                      tag + " pool has at least two workers", failures)
    injections = [(w, "wrong_label") for w in run.WORKLOADS]
    injections.append(("wire_reads", "drop_response"))
    for workload, inject in injections:
        code, report, result = tiny_run(binary, workload, 0, inject)
        check(code != 0 and not result["correct"] and result["failed"] >= 1
              and report.get("failed_frac", {}).get("value", 0) > 0,
              "%s: injected %s is counted as failed" % (workload, inject),
              failures)

    # Stripped directory: only BENCHMARK.json and perfbench/.
    bare = os.path.join(os.path.dirname(binary), "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static_build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and '"correct"' not in last[0],
          "bare directory exits non-zero without a result", failures)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
