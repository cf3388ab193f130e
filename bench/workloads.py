"""Operation pools of the three benchmark workloads and the seeded draw.

An op is one CLI invocation (``{"kind": "cli", "argv": [...]}``) or one
composite library call with a cross-route check (``{"kind": "bruteforce"
| "midreduce" | "series", "args": [...]}``).  A workload is a list of
slots.  Each slot lists alternatives of near-equal cost, and each
alternative is a list of steps; a step is a list of ops that must run
in order (a cache sequence is one step).  The seed picks one alternative
per slot and shuffles the steps, so every seed does about the same work
while the k-values and the op order change.

Cache sequences run against a fresh directory each pass; the
``CACHE_DIR`` placeholder in their argv is replaced by it.  Each query
misses, then hits.  Ops marked ``probe`` then vary, for the same k, a
parameter the result-cache key should cover (``--space``, ``--rho``,
``--series-terms``); they fail while the key leaves it out and pass once
it does.
"""

from __future__ import annotations

import random

CACHE_DIR = "{cache}"
WORKLOADS = ("cohomology", "series", "closed_forms")
FORMATS = ("text", "json", "csv", "latex")


def cli_op(*argv, probe: str | None = None) -> dict:
    op = {"kind": "cli", "argv": [str(a) for a in argv]}
    if probe:
        op["probe"] = probe
    return op


def lib_op(kind: str, *args: int) -> dict:
    return {"kind": kind, "args": list(args)}


def op_id(op: dict) -> str:
    """Stable identifier of an op, the key of its golden digest."""
    if op["kind"] == "cli":
        return "cli " + " ".join(op["argv"])
    return op["kind"] + " " + " ".join(str(a) for a in op["args"])


def _one_step_each(*alternatives: list[dict]) -> list[list[list[dict]]]:
    """Slot whose alternatives are single steps of the given op lists."""
    return [[ops] for ops in alternatives]


def _cohomology() -> list:
    def gm(k: int) -> list[list[dict]]:
        return [
            [cli_op("basis", "--k", k, "--space", "gm", "--rho", rho)]
            for rho in ("0", "1/2")
        ]

    slots = [[gm(k), gm(k + 1)] for k in range(8, 36, 3)]
    for n, k in ((2, 40), (3, 8), (3, 10), (4, 6), (4, 7)):
        slots.append(_one_step_each([lib_op("bruteforce", n, k)]))
    for k in (24, 40):
        slots.append(_one_step_each([lib_op("midreduce", k)]))
    return slots


def _series() -> list:
    slots = [
        _one_step_each(
            *([cli_op("gamma", "--k", k, "--series-terms", 40)] for k in (lo, lo + 2))
        )
        for lo in range(2, 60, 4)
    ]
    slots.append(_one_step_each([lib_op("series", 90)]))
    slots += [
        _one_step_each(
            *([cli_op("basis", "--k", k, "--space", "mid")] for k in (lo, lo + 4))
        )
        for lo in range(4, 160, 8)
    ]
    return slots


def _cache_sequences() -> list:
    def cached(*argv, probe=None):
        return cli_op(*argv, "--format", "json", "--cache-dir", CACHE_DIR, probe=probe)

    def basis(k: int) -> list[dict]:
        first = cached("basis", "--k", k, "--space", "a1")
        return [
            first,
            first,
            cached("basis", "--k", k, "--space", "gm",
                   probe="cache key ignores --space"),
            cached("basis", "--k", k, "--space", "gm", "--rho", "1/2",
                   probe="cache key ignores --rho"),
            cached("basis", "--k", k, "--space", "mid",
                   probe="cache key ignores --space"),
        ]

    def gamma(k: int) -> list[dict]:
        first = cached("gamma", "--k", k, "--series-terms", 2)
        return [
            first,
            first,
            cached("gamma", "--k", k, "--series-terms", 5,
                   probe="cache key ignores --series-terms"),
        ]

    def dims(k: int) -> list[dict]:
        first = cached("dims", "--k", k)
        return [first, first, cached("dims", "--n", 3, "--k", k)]

    def hodge(k: int) -> list[dict]:
        first = cached("hodge", "--k", k)
        return [first, first]

    return [
        _one_step_each(*(basis(k) for k in (4, 5, 6))),
        _one_step_each(*(gamma(k) for k in (4, 6))),
        _one_step_each(*(dims(k) for k in (10, 11, 12))),
        _one_step_each(*(hodge(k) for k in (20, 21, 22))),
    ]


def _closed_forms() -> list:
    slots = [
        _one_step_each(*([cli_op("verify", "--k", k)] for k in (lo, lo + 1)))
        for lo in range(2, 200, 2)
    ]
    slots.append(_one_step_each([cli_op("verify", "--k", 200)]))
    for n, ks in ((5, (8, 9)), (6, (7, 8)), (7, (3, 4)), (8, (3, 4))):
        slots.append([
            [
                [cli_op("dims", "--n", n, "--k", k)],
                [cli_op("decomp", "--n", n, "--k", k)],
            ]
            for k in ks
        ])
    for fmt in FORMATS:
        slots.append([
            [
                [cli_op("hodge", "--k", f"2..{top}", "--format", fmt)],
                [cli_op("tilde", "--k", f"4..{top}", "--parity", "even",
                        "--format", fmt)],
            ]
            for top in (116, 118, 120)
        ])
    return slots + _cache_sequences()


_BUILDERS = {
    "cohomology": _cohomology,
    "series": _series,
    "closed_forms": _closed_forms,
}


def slots(workload: str) -> list:
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload]()


def pool(workload: str) -> list[dict]:
    """Every op any seed can draw for ``workload``."""
    return [
        op
        for slot in slots(workload)
        for alternative in slot
        for step in alternative
        for op in step
    ]


def draw(workload: str, seed: int) -> list[dict]:
    """The ops of one pass: one alternative per slot, steps shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    steps = [step for slot in slots(workload) for step in rng.choice(slot)]
    rng.shuffle(steps)
    return [op for step in steps for op in step]
