"""Span tracing of the airymoments package from outside it.

``Tracer.install`` wraps every public module-level function of every
airymoments module and rebinds the name to the wrapper in every module
that holds it, the defining module included, so calls between modules
(``asymptotics.series_pow``) and within one (``exact.series_mul`` from
``series_pow``) are both seen.  Each call becomes a span
``[name, start, end, parent, op]`` kept in memory; generator functions
(``exact.compositions``) are counted per yielded item instead.  A few
hooks count work from arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import time
from collections import Counter

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _bruteforce(counts, args, kwargs, result):
    _, degree = result
    counts["rows"] += _arg(args, kwargs, 0, "module").rank * (degree + 1)
    counts["max_degree"] = max(counts["max_degree"], degree)


def _compositions_visited(counts, args, kwargs, result):
    n, k = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "k")
    counts["compositions_visited"] += math.comb(n - 1 + k, k)


def _terms(counts, args, kwargs, result):
    counts["terms"] += _arg(args, kwargs, 0, "terms")


def _checks(counts, args, kwargs, result):
    counts["checks"] += len(result.results)


HOOKS = {
    "connection.h1_dim_bruteforce": _bruteforce,
    "moments.s_nk": _compositions_visited,
    "moments.formal_decomposition": _compositions_visited,
    "asymptotics.aibi_series": _terms,
    "asymptotics.aibi_series_ode_oracle": _terms,
    "hodge.verify": _checks,
}


def package_modules() -> list:
    import airymoments

    return [airymoments] + [
        importlib.import_module(f"airymoments.{info.name}")
        for info in pkgutil.iter_modules(airymoments.__path__)
        if info.name != "__main__"
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def install(self) -> None:
        modules = package_modules()
        wrappers: dict[int, tuple] = {}
        for module in modules[1:]:
            short = module.__name__.rpartition(".")[2]
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
        for module in modules:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def _wrap(self, fn, name: str):
        counts = self.counts
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, handle)

    def layer_metrics(self, cache_ops: set[int]) -> dict[str, float]:
        """Per-layer metrics of the traced pass.

        ``X_s`` is the time inside spans of X, not counting a span that
        sits inside another span of the same set (so recursion and the
        nesting of listed functions never count twice); ``cli.self_s``
        is the self time of the cli module's spans, that is their
        duration minus that of their child spans.  ``cache_ops`` are the
        indices of ops that pass ``--cache-dir`` with JSON output: one
        is a hit when it ran no function outside the cli module.
        """
        spans = self.spans
        calls = Counter(span[0] for span in spans)
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]

        def inside(index: int, names: set) -> bool:
            parent = spans[index][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return True
                parent = spans[parent][3]
            return False

        def seconds(*names: str) -> float:
            wanted = set(names)
            return sum(
                span[2] - span[1]
                for i, span in enumerate(spans)
                if span[0] in wanted and not inside(i, wanted)
            )

        computed = {span[4] for span in spans if not span[0].startswith("cli.")}
        hits = [
            span[2] - span[1]
            for span in spans
            if span[0] == "cli.main" and span[4] in cache_ops
            and span[4] not in computed
        ]
        cache_calls = sum(
            1 for span in spans if span[0] == "cli.main" and span[4] in cache_ops
        )
        counts = self.counts
        bruteforce_s = seconds("connection.h1_dim_bruteforce")
        return {
            "connection.build_symk_s": seconds("connection.build_symk"),
            "connection.bruteforce_calls": calls["connection.h1_dim_bruteforce"],
            "connection.bruteforce_s": bruteforce_s,
            "connection.gm_basis_s": seconds("connection.gm_cokernel_basis"),
            "connection.reduce_calls": calls["connection.reduce_to_basis"],
            "connection.reduce_s": seconds("connection.reduce_to_basis"),
            "connection.rows": counts["rows"],
            "connection.rows_per_s": (
                counts["rows"] / bruteforce_s if bruteforce_s else 0.0
            ),
            "connection.max_degree": counts["max_degree"],
            "asymptotics.aibi_series_s": seconds("asymptotics.aibi_series"),
            "asymptotics.oracle_s": seconds("asymptotics.aibi_series_ode_oracle"),
            "asymptotics.gamma_calls": calls["asymptotics.gamma"],
            "asymptotics.gamma_s": seconds("asymptotics.gamma"),
            "asymptotics.mid_basis_s": seconds("asymptotics.mid_basis"),
            "asymptotics.terms": counts["terms"],
            "exact.series_pow_s": seconds("exact.series_pow"),
            "exact.series_mul_calls": calls["exact.series_mul"],
            "exact.row_reduce_s": seconds("exact.row_reduce"),
            "exact.compositions_yielded": counts["exact.compositions"],
            "moments.s_nk_calls": calls["moments.s_nk"],
            "moments.s_nk_s": seconds("moments.s_nk"),
            "moments.compositions_visited": counts["compositions_visited"],
            "moments.formal_decomposition_s": seconds("moments.formal_decomposition"),
            "moments.h1_dims_s": seconds("moments.h1_dims"),
            "moments.rho_preimage_calls": calls["moments.rho_preimage"],
            "moments.rho_preimage_s": seconds("moments.rho_preimage"),
            "hodge.verify_s": seconds("hodge.verify"),
            "hodge.checks": counts["checks"],
            "hodge.tables_s": seconds(
                "hodge.hodge_numbers", "hodge.tilde_mid_hodge",
                "hodge.g_levels", "hodge.hodge_polynomial",
            ),
            "cli.calls": calls["cli.main"],
            "cli.self_s": sum(
                span[2] - span[1] - child_time[i]
                for i, span in enumerate(spans)
                if span[0].startswith("cli.")
            ),
            "cli.cache_hits": len(hits),
            "cli.cache_misses": cache_calls - len(hits),
            "cli.cache_hit_s": sum(hits),
        }
