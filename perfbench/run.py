#!/usr/bin/env python3
"""Campaign benchmark: build the harness, run one workload, print metrics.

    python3 perfbench/run.py --workload campaign_path --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root. The harness is built from source under
$CARGO_TARGET_DIR (default .bench_build) on first use. Stdout ends with
one JSON line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Earlier lines carry the resolved configuration, per-subject rows and
timing details. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import stats  # noqa: E402

# Environment knobs that change the work being timed. Armed faults, for
# one, silently switch the selective tier off.
TAINTING = ("PATHFUZZ_FAULT_SITES", "PATHFUZZ_TRACE", "PATHFUZZ_SELECTIVE",
            "PATHFUZZ_AUDIT")
TAINTING_PREFIX = "PATHFUZZ_VM_"

HARNESS_TIMEOUT_S = 170


def tainting_env(env):
    return sorted(k for k in env
                  if k in TAINTING or k.startswith(TAINTING_PREFIX))


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configure (once) and build the harness; returns its path."""
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir] + gen,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target",
                    "perfbench_harness", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench_harness")


def emit(obj):
    print(json.dumps(obj, sort_keys=True), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tainted = tainting_env(os.environ)
    if tainted:
        log("invalid run: %s set; unset to time the default configuration"
            % ", ".join(tainted))
        return 3

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    try:
        harness = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    scratch = os.path.join(build_root, "scratch-%d" % os.getpid())
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d-trace%d.jsonl" %
                         (args.workload, args.seed, args.trace))
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded %ds" % HARNESS_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # Exit 1 still carries a document: some campaign failed its check.
    if proc.returncode not in (0, 1):
        log("harness exited with %d" % proc.returncode)
        return 1
    doc = json.loads(proc.stdout)

    names = [s["name"] for s in doc["subjects"]]
    if tuple(names) != metrics.SUBJECTS:
        log("harness subjects %s differ from the benchmark's" % names)
        return 1

    failures = [{"subject": s["name"], "why": s["why"]}
                for s in doc["subjects"] if not s["ok"]]
    emit({"workload": args.workload, "seed": args.seed,
          "config": doc["config"], "passes": doc["passes"],
          "fail_rate": stats.ratio(doc["failed"], doc["attempted"]),
          "failures": failures, "raw": metrics.raw_figures(doc),
          "pass_execs_per_sec": metrics.pass_steadiness(doc),
          "spans": os.path.relpath(spans, ROOT)})
    rows = metrics.subject_rows(doc)

    if args.trace:
        values, detail = metrics.per_layer(doc)
        emit(detail)
        names = [n for n, _, _ in metrics.per_layer_defs()]
    else:
        values = metrics.end_to_end(doc)
        names = [n for n, _, _, _ in metrics.END_TO_END]
    emit({"subjects": rows})

    result = {
        "correct": proc.returncode == 0 and doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": values,
    }
    problems = stats.check_result(result, names)
    if problems:
        log("malformed result: %s" % "; ".join(problems))
        return 1
    emit(result)
    if not result["correct"]:
        for f in failures:
            log("%s: %s" % (f["subject"], f["why"]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
