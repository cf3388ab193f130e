"""Every output of the benchmark's op pools matches ``bench/golden.json``.

The benchmark checks its draws against these digests only while it
runs; this test runs each distinct op of the three workload pools once,
uncached and in process, as ``bench/make_golden.py`` made them.  It
only reads ``bench/``.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

from airymoments import cli, connection

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: Budget: the 382 ops take about 0.4 s on a 2-vCPU VM.
GOLDEN_BUDGET_S = 5.0


def test_bench_ops_reproduce_their_golden_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    workloads = importlib.import_module("workloads")
    ops = importlib.import_module("ops")
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    # As the acceptance ``engine`` fixture does: no image or certified
    # dimension from an earlier test answers for the engine.
    monkeypatch.setattr(connection, "_STABLE_CACHE", {})
    monkeypatch.setattr(connection, "_CERTIFIED", {})
    start = time.perf_counter()
    got = {}
    for name in workloads.WORKLOADS:
        for op in workloads.pool(name):
            key = workloads.op_id(op)
            if key not in got:
                code, text = ops.execute(op, None)
                got[key] = {"exit": code, "sha256": ops.digest(code, text)}
    elapsed = time.perf_counter() - start
    assert got == golden
    assert elapsed < GOLDEN_BUDGET_S, elapsed
