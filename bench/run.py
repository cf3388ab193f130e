"""Benchmark of airymoments: three workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload cohomology --seed 1 --seconds 40 --trace 0

Workloads (ops and the reason for each are in workloads.py):

* ``cohomology``: brute-force cohomology, gm bases at both twists,
  middle-basis reductions; the ``connection`` layer does the work.
* ``series``: ``gamma`` tables, product series against the ODE oracle,
  middle bases; ``asymptotics`` and the series code in ``exact``.
* ``closed_forms``: ``verify``, ``dims``/``decomp`` at orders 5-8,
  ``hodge``/``tilde`` ranges in every format, and result-cache sequences.

Each pass runs the seed's draw of ops once in a fresh interpreter
(child.py), one pass at a time: a single closed-loop client.  Passes
repeat until ``--seconds`` is used up; between passes a set-up-only
interpreter is started to add set-up samples.

``--trace 0`` reports the end-to-end metrics, medians over passes:

* ``wall_s``: one pass over the ops, set-up excluded;
* ``setup_s``: process spawn until ``airymoments.cli`` is imported and
  its parser built;
* ``peak_rss_mb``: the pass's peak resident memory (``ru_maxrss``);
* ``ok_ops``: share of attempted ops that passed, i.e. 1 - failed_ops.

Times are host-speed normalised.  On a shared 2-vCPU VM the speed of
plain Python code drifts by up to 40% over tens of seconds, so raw pass
times of one run can sit wholly in a slow or a fast phase (quartile
spread of ten raw run medians: 0.14 to 0.37).  Each child times a fixed
standard-library reference chunk between its ops (see child.py), and a
time t measured beside a mean reference time r is reported as
t * NOMINAL_REFERENCE_S / r, that is in seconds at the host's slow-phase
speed.  That brought the spread down to 0.03 to 0.07.  The raw medians
are printed in the report and kept in the run record with every
reference sample.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracer.py (medians over traced passes, times
normalised the same way) plus ``trace.overhead``, traced over untraced
median ``wall_s``.

Every op's output is checked against its golden digest (golden.json,
see make_golden.py), and library ops carry cross-route checks.  An op
fails if it raises, exits with another code than its golden, or prints
other output.  ``failed`` counts every failure.  ``correct`` is false
when an op fails that is not a cache-key probe: the probes vary a
parameter (``--space``, ``--rho``, ``--series-terms``) that the result
cache's key leaves out, and fail until that known defect is fixed.

The last line of stdout is the JSON result; the lines before it are a
readable report.  Records and span files go to bench/_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
GOLDEN = BENCH / "golden.json"
RUNS = BENCH / "_runs"
PACKAGE = ROOT / "src" / "airymoments"
DEFAULT_SEED = 1
#: Time of child.reference() on a 2-vCPU x86-64 VM with Python 3.11.7 in
#: its slow phase; normalised times are seconds at this reference speed.
NOMINAL_REFERENCE_S = 0.0006
PASS_TIMEOUT_S = 150
HARD_LIMIT_S = 170
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "ok_ops")


class PassError(RuntimeError):
    pass


def spawn(request: dict | None) -> dict:
    """Start one child; None asks for set-up only.  Adds ``setup_s``."""
    argv = [sys.executable, "-I", str(CHILD)]
    if request is None:
        argv.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "AIRYMOMENTS_CACHE_DIR"}
    started = time.monotonic()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(
            json.dumps(request) if request else "", timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassError(f"pass did not finish in {PASS_TIMEOUT_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"child exited {proc.returncode}: {err.strip()[-400:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def check(ops: list[dict], results: list, goldens: dict) -> list[tuple[int, str]]:
    """(op index, reason) for every op of a pass that failed."""
    failures = []
    for index, (op, (code, digest, error)) in enumerate(zip(ops, results)):
        golden = goldens.get(workloads.op_id(op))
        if error is not None:
            failures.append((index, error))
        elif golden is None:
            failures.append((index, "no golden digest for this op"))
        elif code != golden["exit"]:
            failures.append((index, f"exit {code}, expected {golden['exit']}"))
        elif digest != golden["sha256"]:
            failures.append((index, "output differs from the golden digest"))
    return failures


def measure(
    ops: list[dict],
    seconds: float,
    trace: bool,
    goldens: dict,
    spans_path: Path | None = None,
) -> dict:
    """Run passes until ``seconds`` is used; returns raw samples."""
    RUNS.mkdir(exist_ok=True)
    spawn(None)  # warm-up: writes the bytecode caches, not measured
    cache_dir = str(RUNS / f"cache-{os.getpid()}")
    samples = {"plain": [], "traced": [], "setup": []}
    attempted, failures, pass_times = 0, [], []
    start = time.monotonic()
    while True:
        traced = trace and len(samples["traced"]) < len(samples["plain"])
        request = {
            "ops": ops,
            "trace": traced,
            "cache_dir": cache_dir,
            "spans_path": str(spans_path) if traced and spans_path else None,
        }
        shutil.rmtree(cache_dir, ignore_errors=True)  # each pass starts cold
        began = time.monotonic()
        attempted += len(ops)
        try:
            result = spawn(request)
        except PassError as exc:
            failures += [(i, str(exc)) for i in range(len(ops))]
        else:
            samples["traced" if traced else "plain"].append(result)
            samples["setup"].append(_setup_sample(result))
            failures += check(ops, result["ops"], goldens)
        samples["setup"].append(_setup_sample(spawn(None)))
        pass_times.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        typical = statistics.median(pass_times)
        balanced = not trace or len(samples["traced"]) == len(samples["plain"])
        if balanced and elapsed + typical > seconds:
            break
        if elapsed + 2 * typical > HARD_LIMIT_S:
            break
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
        "elapsed_s": time.monotonic() - start,
    }


def _setup_sample(result: dict) -> dict:
    return {key: result[key] for key in ("setup_s", "reference_s")}


def speed_factor(sample: dict) -> float:
    return NOMINAL_REFERENCE_S / sample["reference_s"]


def normalised(sample: dict, key: str) -> float:
    return sample[key] * speed_factor(sample)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(values)
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return None


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    tail = tail_percentile(values)
    if tail:
        out[f"p{tail[0]:g}"] = tail[1]
    else:
        out["tail"] = "n/a (under 20 samples)"
    return out


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": source.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
    }


def report(workload: str, seed: int, ops: list[dict], raw: dict, trace: bool) -> dict:
    """Aggregate raw samples into metrics; prints the readable report."""
    samples = raw["samples"]
    plain = samples["plain"]
    failures = raw["failures"]
    attempted = raw["attempted"]
    unexpected = [(i, why) for i, why in failures if "probe" not in ops[i]]
    info = provenance()
    print(f"bench workload={workload} seed={seed} trace={int(trace)} "
          f"ops/pass={len(ops)} elapsed={raw['elapsed_s']:.1f}s")
    print(f"python {info['python']}  nproc {info['nproc']}  commit {info['commit']}"
          f"  source {info['source_sha256']}")
    stats = {
        "wall_s": summary([normalised(r, "wall_s") for r in plain]),
        "setup_s": summary([normalised(r, "setup_s") for r in samples["setup"]]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
        "wall_raw_s": summary([r["wall_s"] for r in plain]),
        "setup_raw_s": summary([r["setup_s"] for r in samples["setup"]]),
        "reference_ms": summary([1e3 * r["reference_s"] for r in plain]),
    }
    for name, stat in stats.items():
        print(f"{name:12s} " + "  ".join(
            f"{key} {value:.6g}" if isinstance(value, float) else f"{key} {value}"
            for key, value in stat.items()
        ))
    print(f"failed_ops   {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4f}  (unexpected: {len(unexpected)})")
    for index in sorted({i for i, _ in failures}):
        reasons = {why for i, why in failures if i == index}
        probe = ops[index].get("probe")
        tag = f"[probe: {probe}] " if probe else ""
        print(f"  failed {tag}{workloads.op_id(ops[index])}: {'; '.join(sorted(reasons))}")
    metrics = {
        "wall_s": (stats["wall_s"]["median"], "s"),
        "setup_s": (stats["setup_s"]["median"], "s"),
        "peak_rss_mb": (stats["peak_rss_mb"]["median"], "MB"),
        "ok_ops": (1 - len(failures) / attempted, "ratio"),
    }
    if trace:
        metrics = layer_report(samples)
    record = {
        "workload": workload, "seed": seed, "trace": trace, **info,
        "ops_per_pass": len(ops), "stats": stats, "samples": samples,
        "attempted": attempted,
        "failures": [[workloads.op_id(ops[i]), why] for i, why in failures],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RUNS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "rows/s"
    return "s" if name.endswith("_s") else "count"


def layer_report(samples: dict) -> dict:
    traced = samples["traced"]
    metrics = {}
    for name in traced[0]["layers"]:
        unit = _unit(name)
        values = []
        for r in traced:
            factor = speed_factor(r)
            values.append(
                r["layers"][name] * {"s": factor, "rows/s": 1 / factor}.get(unit, 1)
            )
        metrics[name] = (statistics.median(values), unit)
    overhead = statistics.median(
        normalised(r, "wall_s") for r in traced
    ) / statistics.median(normalised(r, "wall_s") for r in samples["plain"])
    metrics["trace.overhead"] = (overhead, "ratio")
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:{width}s} {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"bench: {PACKAGE.relative_to(ROOT)} or {GOLDEN.relative_to(ROOT)} "
              "is missing; run from a full checkout of the repository",
              file=sys.stderr)
        return 2
    goldens = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ops = workloads.draw(args.workload, args.seed)
    trace = bool(args.trace)
    spans = RUNS / f"spans-{args.workload}-seed{args.seed}.json" if trace else None
    raw = measure(ops, args.seconds, trace, goldens, spans)
    if not raw["samples"]["plain"] or (trace and not raw["samples"]["traced"]):
        for index, why in raw["failures"][:5]:
            print(f"bench: {workloads.op_id(ops[index])}: {why}", file=sys.stderr)
        print("bench: no pass completed, nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, ops, raw, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
