"""Spans around pairnorm's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in every
pairnorm module that binds it (``approx`` imports ``two_norm_rows`` from
``spaces`` under its own name, so both bindings are replaced).  Nothing in
``src/`` changes.  Spans are kept in memory as per-function totals: calls,
busy time, self time (busy time minus the traced calls made inside it) and
a work count where the function has one (rows, samples, pairs, points, bytes).
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# function name -> (layer, work counter taking (args, kwargs, result) or None)
TRACED = {
    "two_norm_rows": ("spaces", lambda a, kw, r: int(np.shape(r)[0])),
    "seminorm_map": ("spaces", None),
    "check_axioms": ("spaces", lambda a, kw, r: r.samples),
    "shift_identity_check": ("spaces", None),
    "dependent_triple_check": ("spaces", None),
    "solve": ("approx", None),
    "uniqueness_probe": ("approx", None),
    "distance_to_subspace": ("approx", None),
    "set_distance": ("approx", None),
    "objective": ("approx", None),
    "oracle_solve": ("approx", lambda a, kw, r: _oracle_points(a, kw)),
    "certificate": ("approx", None),
    "certificate_soundness": ("approx", None),
    "blend_check": ("approx", None),
    "cauchy_profile": ("sequences", lambda a, kw, r: _cauchy_pairs(a, kw)),
    "convergence_profile": ("sequences", None),
    "norm_limit_check": ("sequences", None),
    "load_json": ("jsonio", None),
    "problem_from_dict": ("jsonio", None),
    "sequence_from_dict": ("jsonio", None),
    "dumps": ("jsonio", lambda a, kw, r: len(r.encode("utf-8"))),
}

MODULES = ("pairnorm", "pairnorm.spaces", "pairnorm.approx", "pairnorm.sequences",
           "pairnorm.jsonio", "pairnorm.cli")


def _arg(a, kw, pos: int, name: str):
    return a[pos] if len(a) > pos else kw[name]


def _oracle_points(a, kw) -> int:
    problem = _arg(a, kw, 0, "problem")
    return int(_arg(a, kw, 2, "resolution")) ** problem.g_basis.k


def _cauchy_pairs(a, kw) -> int:
    n = len(_arg(a, kw, 1, "seq")) - int(_arg(a, kw, 2, "tail_from"))
    return n * (n - 1) // 2


class Tracer:
    """Per-function span totals, keyed ``layer.function``."""

    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self._stack: list[float] = []  # traced time spent inside each open span

    def span(self, name: str, fn, work=None):
        stat = self.stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                stat["calls"] += 1
                stat["busy_s"] += dt
                stat["self_s"] += dt - inner
            if work is not None:
                stat["work"] += work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every pairnorm module that binds it.

        Call once per process: a second call would wrap the wrappers."""
        import pairnorm.cli  # noqa: F401  (load every module before patching)

        wrappers = {}
        for mod_name in MODULES:
            mod = sys.modules[mod_name]
            for fname, (layer, work) in TRACED.items():
                fn = getattr(mod, fname, None)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.span(f"{layer}.{fname}", fn, work)
                setattr(mod, fname, wrappers[id(fn)])

    def totals(self) -> dict:
        return {k: dict(v) for k, v in self.stats.items()}
