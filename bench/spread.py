"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload series --runs 10 --first-seed 1

Runs run.py once per seed, one run at a time, and prints for each
end-to-end metric its median and its quartile spread, (q3 - q1) / median
as statistics.quantiles gives them, beside the metric's bound in
BENCHMARK.json.  A benchmark is steady when every spread but set-up's is
below a third of its bound.  The values are also written to
bench/_runs/spread-<workload>-<first seed>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name} {series[-1]:.5g}" for name, series in values.items()
        ), flush=True)
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median
        print(f"{metric['name']:12s} median {median:.5g}  spread {share:.4f}  "
              f"bound {metric['bound']}  a third of it {metric['bound'] / 3:.4f}")
    out = run.RUNS / f"spread-{args.workload}-{args.first_seed}.json"
    out.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
