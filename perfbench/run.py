"""bdmbc benchmark: whole fits and a grid search on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every operation (one bdmbc_fit or one grid_search) runs in a fresh worker
process, so peak RSS and set-up time are those of a single operation.
Operations repeat until the next one would overrun --seconds (at least
MIN_OPS of them); each metric is the median over the run's operations, and
setup_s also over the set-up samples that fill the rest of the run.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced operations and reports per-layer self times
and work counts from the traced ones, plus the tracing overhead; its spans
are written to .bench_out/.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".bench_out"
MIN_OPS = 3
WORKER_TIMEOUT_S = 150

WORKLOAD_NAMES = ("blobs-bagged", "blobs-full", "trimodal-grid", "quantized-ties")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ari": "ari"}

# Output digests at seed 0: sha256 of the result.json bytes for fits and of
# the ranked grid CSV, recorded at commit 1e01e7d.
DIGESTS = {
    "blobs-bagged": "6808413be05364d54a8f0b7ba51119fccdfc24b11e0c3dddef39101a15914d85",
    "blobs-full": "eca5d3e02e767442540e37da4de9ee4a54951f495f73fd540fa6d683602a1646",
    "trimodal-grid": "6f86f724d2058d0f0585f027985bc781660929da7027fc48ec6db31f6d376baa",
    "quantized-ties": "795e2b4b50b61bfb437ada5c631a40dd30026f5aef99bc066d3571f480abc34f",
}

# ARI floors that hold for any seed; quantized-ties has none because its
# quantized clusters overlap and its ARI swings with the seed.
ARI_FLOORS = {"blobs-bagged": 0.95, "blobs-full": 0.95, "trimodal-grid": 0.85}


def git_commit():
    """HEAD of the checkout if it is a git repository, read without git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "BDMBC_THREADS": os.environ["BDMBC_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def run_op(name, seed, mode):
    """One fresh worker; returns (record, error).

    mode "0" runs the operation, "1" runs it traced, and "setup" stops once
    the inputs are ready.
    """
    argv = [sys.executable, WORKER, name, str(seed), mode, repr(time.time())]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def check(name, seed, record, first_digest):
    """Problems with one operation's output, empty when it is correct."""
    problems = []
    if seed == 0 and record["digest"] != DIGESTS[name]:
        problems.append(f"digest {record['digest']} != recorded {DIGESTS[name]}")
    if first_digest is not None and record["digest"] != first_digest:
        problems.append("output differs from the run's first operation")
    floor = ARI_FLOORS.get(name)
    if floor is not None and not record["ari"] >= floor:
        problems.append(f"ari {record['ari']:.4f} below floor {floor}")
    return problems


def run_workload(name, seed, seconds, trace):
    """Repeat the operation for about `seconds`.

    Returns (records, failed, setups): the successful operations, the
    number that failed, and every set-up time measured.  Untraced runs
    spend the time too short for another operation on set-up samples.
    """
    records, failed = [], 0
    first_digest = None
    longest = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        attempted = len(records) + failed
        if attempted >= MIN_OPS and elapsed + longest > seconds:
            break
        traced = trace and attempted % 2 == 1
        t0 = time.perf_counter()
        record, error = run_op(name, seed, "1" if traced else "0")
        longest = max(longest, time.perf_counter() - t0)
        problems = [error] if error else check(name, seed, record, first_digest)
        if problems:
            failed += 1
            print(f"{name}: operation {attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            continue
        record["traced"] = traced
        first_digest = first_digest or record["digest"]
        records.append(record)
    setups = [r["setup_s"] for r in records if not r["traced"]]
    longest = max(setups, default=0.0)
    while not trace and time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        record, error = run_op(name, seed, "setup")
        if error:
            print(f"{name}: set-up sample failed: {error}", file=sys.stderr)
            break
        longest = max(longest, time.perf_counter() - t0)
        setups.append(record["setup_s"])
    return records, failed, setups


def summarize(records, setups, trace):
    """Metric name -> (value, unit) over the successful operations."""
    median = statistics.median
    plain = [r for r in records if not r["traced"]]
    if not trace:
        values = {m: [r[m] for r in plain] for m in END_TO_END}
        values["setup_s"] = setups
        return {m: (median(values[m]), u) for m, u in END_TO_END.items()}
    traced = [r for r in records if r["traced"]]
    metrics = {}
    for m in traced[0]["layers"]:
        unit = "s" if m.endswith("_s") else "count"
        metrics[m] = (median([r["layers"][m] for r in traced]), unit)
    traced_wall = median([r["wall_s"] for r in traced])
    untraced_wall = median([r["wall_s"] for r in plain])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    return metrics


def write_spans(name, seed, env, records):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
    ops = [{"wall_s": r["wall_s"], "spans": r["spans"]} for r in records if r["traced"]]
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "env": env, "operations": ops}, fh)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "bdmbc", "__init__.py")):
        print("run from the root of a bdmbc checkout: src/bdmbc is missing", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # one process whose threads never outnumber the cores
    os.environ["BDMBC_THREADS"] = str(nproc)
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        records, fails, setups = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += len(records) + fails
        failed += fails
        if {r["traced"] for r in records} != ({False, True} if args.trace else {False}):
            print(f"{name}: {fails} of {len(records) + fails} operations failed, "
                  "too many to report metrics", file=sys.stderr)
            return 1
        plain = sum(not r["traced"] for r in records)
        print(f"{name}: seed {args.seed}, {len(records) + fails} operations, "
              f"medians over {plain} untraced and {len(records) - plain} traced, "
              f"{len(setups)} set-ups")
        results = summarize(records, setups, bool(args.trace))
        if not args.trace:
            results["error_rate"] = (fails / (len(records) + fails), "ratio")
        else:
            print(f"  spans written to {write_spans(name, args.seed, env, records)}")
        for metric, (value, unit) in results.items():
            values = setups if metric == "setup_s" else [
                r[metric] for r in records if metric in END_TO_END and not r["traced"]]
            samples = " ".join(f"{v:.4g}" for v in values)
            print(f"  {metric:24s} {value:14.6f} {unit:6s} {samples}")
            if metric != "error_rate":
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
