#!/usr/bin/env python3
"""Runs one workload of the samdb end-to-end benchmark.

    python3 samdb_bench/run.py --workload census_train --seed 1 --seconds 45 --trace 0

Builds the harness (samdb_bench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build, runs it, and prints as the last stdout
line one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1. The line before it is the full record (machine, digests,
every metric, and with --trace 1 the count/total/self time of every span).
Exits non-zero when the build fails or any correctness check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
PIPELINE_SPAN = "generate/pipeline/"
# Self time per traced round of the out-of-core pipeline's steps. The
# remaining pipeline spans (preamble, pass 2, publish) are summed into
# pipeline.other_self_s; the span table lists each alone. Single-relation
# plans run no partition, prefetch or commit step, so those read 0 on
# census_train.
SELF_TIME_METRICS = {
    "pipeline.sample_self_s": "sample",
    "pipeline.partition_self_s": "partition",
    "pipeline.prefetch_self_s": "prefetch",
    "pipeline.commit_self_s": "commit",
    "pipeline.assemble_self_s": "assemble",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("error: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "samdb_bench")


def span_table(trace_path, rounds):
    """Count, total and self seconds per span name, per traced round. Self
    time is a span's duration minus the time its direct children on the same
    thread cover."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)
    table = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in evs:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                stack.pop()
            row = table[e["name"]]
            row["count"] += 1
            row["total_s"] += e["dur"] / 1e6
            row["self_s"] += e["dur"] / 1e6
            if stack:
                table[stack[-1]["name"]]["self_s"] -= e["dur"] / 1e6
            stack.append(e)
    for row in table.values():
        for key in row:
            row[key] /= rounds
    return dict(sorted(table.items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("error: unknown workload " + args.workload)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    if binary is None:
        return 1
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    trace_path = os.path.join(work, args.workload + ".trace.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work]
    if args.trace:
        cmd.append("--trace-out=" + trace_path)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: harness exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("error: harness printed no result (exit %d)" % proc.returncode)
        return 1
    record = json.loads(lines[-1])

    measured = record["per_layer" if args.trace else "end_to_end"]
    if args.trace and os.path.exists(trace_path):
        spans = span_table(trace_path, max(1, record["traced_rounds"]))
        record["spans"] = spans
        pipeline = {name[len(PIPELINE_SPAN):]: row["self_s"]
                    for name, row in spans.items()
                    if name.startswith(PIPELINE_SPAN)}
        for metric, step in SELF_TIME_METRICS.items():
            measured[metric] = {"value": pipeline.get(step, 0.0), "unit": "s"}
        other = [v for step, v in pipeline.items()
                 if step not in SELF_TIME_METRICS.values()]
        measured["pipeline.other_self_s"] = {"value": sum(other), "unit": "s"}
    correct = record["correct"] and proc.returncode == 0
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            log("error: metric %s missing from the harness output" % m["name"])
            correct = False
            continue
        if got["unit"] != m["unit"]:
            log("error: metric %s measured in %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
            correct = False
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
