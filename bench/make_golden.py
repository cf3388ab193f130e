"""Write bench/golden.json: the output digest of every op in every
workload pool, so that any seed's draw can be checked.

Run from the repository root on the revision whose outputs are the
reference:

    python3 bench/make_golden.py

Cache-sequence ops are run without the cache, so their golden is the
answer the program should give, not what a stale cache entry returns.
"""

import json
import os
import sys

_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_BENCH), "src"), _BENCH]

import ops  # noqa: E402
import workloads  # noqa: E402

GOLDEN = os.path.join(_BENCH, "golden.json")


def main() -> int:
    os.environ.pop("AIRYMOMENTS_CACHE_DIR", None)
    golden = {}
    for name in workloads.WORKLOADS:
        for op in workloads.pool(name):
            key = workloads.op_id(op)
            if key not in golden:
                code, text = ops.execute(op, None)
                golden[key] = {"exit": code, "sha256": ops.digest(code, text)}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(golden.items())), handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
