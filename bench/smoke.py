"""Smoke check of the benchmark harness at tiny sizes.

    python3 bench/smoke.py

For each workload it keeps the first alternative of the first slot of
each kind of op, plus every cache sequence, and runs one pass with
tracing off and one pair with tracing on.  It asserts that:

* every end-to-end and per-layer metric named in BENCHMARK.json is
  emitted, and nothing else;
* a deliberately corrupted golden digest is counted as a failed op and
  makes the result incorrect;
* in a directory holding only BENCHMARK.json and bench/, run.py exits
  with another code than 0 and prints no result.

It takes about ten seconds.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import run
import workloads


def tiny_ops(workload: str) -> list[dict]:
    seen = set()
    ops = []
    for slot in workloads.slots(workload):
        first = [op for step in slot[0] for op in step]
        cached = any("--cache-dir" in op.get("argv", ()) for op in first)
        kind = first[0]["kind"], tuple(first[0].get("argv", ())[:1])
        if cached or kind not in seen:
            seen.add(kind)
            ops += first
    return ops


def result_of(ops, trace, goldens, label) -> dict:
    raw = run.measure(ops, 0, trace, goldens)
    with redirect_stdout(io.StringIO()):
        return run.report(label, "smoke", ops, raw, trace)


def check_bare_directory() -> None:
    bare = run.RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("_runs"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "series", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "run.py succeeded without the package"
    assert not proc.stdout.strip(), f"run.py printed a result: {proc.stdout!r}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert end_to_end == set(run.END_TO_END), end_to_end ^ set(run.END_TO_END)
    goldens = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        ops = tiny_ops(workload)
        plain = result_of(ops, False, goldens, workload)
        assert set(plain["metrics"]) == end_to_end, plain["metrics"].keys()
        assert plain["correct"], f"{workload}: unexpected failures"
        traced = result_of(ops, True, goldens, workload)
        assert set(traced["metrics"]) == per_layer, set(traced["metrics"]) ^ per_layer
        victim = next(op for op in ops if "probe" not in op)
        corrupted = dict(goldens)
        corrupted[workloads.op_id(victim)] = {"exit": 0, "sha256": "0" * 64}
        broken = result_of(ops, False, corrupted, workload)
        assert broken["failed"] == plain["failed"] + 1, (broken, plain)
        assert not broken["correct"]
        print(f"smoke {workload}: {len(ops)} ops, metrics complete, "
              f"corrupted digest counted", flush=True)
    check_bare_directory()
    print("smoke: bare directory refused; all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
