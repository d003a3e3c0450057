"""One benchmark operation in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED

SPAWNED is the parent's time.time() just before it started this process,
so setup_s covers interpreter start, imports and input generation.  MODE
"0" runs the operation and "1" runs it traced; "setup" stops once the
inputs are ready.  Prints one JSON object: the timings, peak RSS, output
digest and ARI, plus the per-layer metrics and spans when traced.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def main(argv):
    name, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(1, src)  # after the script's own directory
    import bdmbc

    if not os.path.abspath(bdmbc.__file__).startswith(src + os.sep):
        raise SystemExit(f"bdmbc imported from {bdmbc.__file__}, not from {src}")
    from workloads import WORKLOADS

    make_inputs, operation, summarize = WORKLOADS[name]
    ds = make_inputs(seed)
    setup_s = time.time() - spawned
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    tracer = None
    if mode == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    result = operation(ds)
    wall_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    output, quality = summarize(ds, result)

    record = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "ari": quality,
        "digest": hashlib.sha256(output).hexdigest(),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["spans"] = tracer.spans
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
