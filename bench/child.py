"""One benchmark pass in a fresh interpreter.

Started by run.py as ``python -I bench/child.py [--setup-only]``.  The
first thing it does is import ``airymoments.cli`` and build its parser;
the monotonic clock reading right after that, compared with the parent's
reading just before the spawn, gives the set-up time.  With
``--setup-only`` it stops there.  Otherwise it reads a JSON request on
stdin (ops, trace flag, cache directory, span file), runs the ops once
in order, and prints one JSON line: the ready time, the pass wall time,
the mean time of the reference chunk (and every sample), peak RSS, one
``[exit, sha256, error]`` per op, and the per-layer metrics of a traced
pass.

The reference chunk is fixed standard-library work.  It runs at op
boundaries, at most every 0.1 s, and its time is taken out of the pass
wall time; a set-up-only child runs it five times after set-up.  The
host's speed drifts by up to 40% over tens of seconds, and run.py
scales measured times by the reference time beside them to cancel it.
"""

import gc
import os
import sys
import time

_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_BENCH), "src"), _BENCH]


def reference() -> float:
    """Time fixed work in the standard library, about a millisecond:
    rational sums and integer dict updates, the operations the package
    spends its time in.  The garbage collector is held off so that a
    collection of the package's heap never lands in the sample."""
    from fractions import Fraction

    gc.disable()
    began = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 1)
    table: dict[int, int] = {}
    for i in range(1500):
        table[i % 89] = table.get(i % 89, 0) + i * i
    elapsed = time.perf_counter() - began
    gc.enable()
    return elapsed


def main() -> int:
    # Imported here, first, because this import is what set-up time measures.
    from airymoments import cli

    cli.build_parser()
    ready = time.monotonic()
    import json
    import resource
    import statistics

    if sys.argv[1:] == ["--setup-only"]:
        times = [reference() for _ in range(5)]
        print(json.dumps({"ready": ready, "reference_s": statistics.mean(times)}))
        return 0
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import ops

    clock = time.perf_counter
    results = []
    references, last = [], -1.0
    started = clock()
    for index, op in enumerate(request["ops"]):
        if clock() - last >= 0.1:
            last = clock()
            references.append(reference())
        if tracer is not None:
            tracer.op = index
        try:
            code, text = ops.execute(op, request["cache_dir"])
            results.append([code, ops.digest(code, text), None])
        except Exception as exc:  # a raising op is a failed op, the pass goes on
            results.append([None, None, f"{type(exc).__name__}: {exc}"])
    wall = clock() - started - sum(references)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        cache_ops = {
            i for i, op in enumerate(request["ops"])
            if "--cache-dir" in op.get("argv", ())
        }
        layers = tracer.layer_metrics(cache_ops)
        if request.get("spans_path"):
            tracer.write(request["spans_path"])
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "reference_s": statistics.mean(references),
        "references": references,
        "peak_rss_mb": rss_kb / 1024,
        "ops": results,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
