"""Checks of every operation's output against an independent reference.

``reference(kind, inp)`` computes what the output must be (or bound it) from
the definitions in :mod:`refs`; ``check(kind, inp, out, ref)`` returns a list
of failure messages, empty when the output is correct.  Outputs are plain
dicts of numbers and arrays, so a test can plant a wrong answer.

Tolerances (all relative to 1 + |reference|):

* ``RECOMPUTE`` 1e-9: a value pairnorm reports against the same value
  recomputed from the definition at pairnorm's own point (only rounding and a
  different formula separate them).
* ``OPTIMAL`` 1e-7: an optimum against the exact optimum.  The package
  documents that its default solver lands within 1e-7 of the optimum on
  well-conditioned instances.
* ``FLOOR`` 1e-10 (1e-9 against the LP, HiGHS's own feasibility tolerance):
  how far a minimum may read below a certified lower bound through rounding.
"""

from __future__ import annotations

import numpy as np

import instances
import refs

RECOMPUTE = 1e-9
OPTIMAL = 1e-7
FLOOR = 1e-10
LP_FLOOR = 1e-9


def _close(a: float, r: float, tol: float) -> bool:
    return abs(a - r) <= tol * (1.0 + abs(r))


def _pair(inp: dict, X, Y) -> np.ndarray:
    return refs.pair_norm(inp["space"], X, Y, inp.get("points"))


def _pb(inp: dict, U, b) -> np.ndarray:
    if inp["space"] == "euclid":
        return refs.gram_pb(U, b)
    return refs.white_pb(U, b, inp["points"])


def _optimum(inp: dict) -> dict:
    """Exact optimum of min_g max_i p_b(f_i - g) over span(basis).

    ``lower`` is a certified lower bound and ``value`` the exact optimum up to
    rounding; for White both come from the LP."""
    T = inp["targets"]
    if inp["space"] == "euclid":
        opt = refs.euclid_optimum(T, inp["basis"], inp["b"])
        return {"lower": opt["lower"], "value": opt["upper"], "floor": FLOOR}
    opt = refs.white_optimum(T, inp["basis"], inp["b"], inp["points"])
    return {"lower": opt["value"], "value": opt["value"], "floor": LP_FLOOR}


def _check_optimal(value: float, ref: dict, what: str) -> list[str]:
    errs = []
    lo = ref["lower"]
    if value < lo - ref["floor"] * (1.0 + lo):
        errs.append(f"{what} {value!r} is below the certified lower bound {lo!r}")
    if value - lo > OPTIMAL * (1.0 + lo):
        errs.append(f"{what} {value!r} is {value - lo:.3e} above the exact optimum {lo!r}")
    return errs


def _seq_sup(inp: dict, tail_from: int, probe) -> float:
    tail = inp["elements"][tail_from:]
    i, j = np.triu_indices(tail.shape[0], 1)
    return float(_pair(inp, tail[i] - tail[j], np.tile(probe, (i.size, 1))).max())


def corrupted_norm(space: str, points=None):
    """A norm that breaks homogeneity and the triangle inequality: the square
    of the true 2-norm, computed from the definition."""
    return lambda X, Y: refs.pair_norm(space, X, Y, points) ** 2


def reference(kind: str, inp: dict) -> dict:
    """Reference data for one operation; empty where the check needs none."""
    if kind in ("solve", "uniqueness", "set_distance"):
        return _optimum(inp)
    if kind == "distance":
        if inp["space"] == "euclid":
            d = refs.euclid_distance(inp["targets"][0], inp["basis"], inp["b"])
            return {"lower": d, "value": d, "floor": FLOOR}
        return _optimum(inp)
    if kind == "certificate":
        return {"delta": refs.euclid_distance(inp["targets"][0], inp["basis"], inp["b"])}
    if kind == "oracle_solve":
        opt = refs.euclid_optimum(inp["targets"], inp["basis"], inp["b"])
        h = 2.0 * inp["radius"] / (inp["resolution"] - 1)
        cell = 0.5 * h * float(refs.gram_pb(inp["basis"], inp["b"]).sum())
        return {"lower": opt["lower"], "upper": opt["upper"] + cell}
    if kind in ("cauchy_profile", "sequence"):
        n = inp["elements"].shape[0]
        tails = instances.cauchy_tails(n) if kind == "cauchy_profile" else [n // 2]
        out = {"sups": [(t, _seq_sup(inp, t, inp["probe_y"]), _seq_sup(inp, t, inp["probe_z"]))
                        for t in tails]}
        if kind == "sequence":
            out.update(reference("convergence_profile", inp))
            out.update(reference("norm_limit_check", inp))
        return out
    if kind == "convergence_profile":
        diffs = inp["elements"] - inp["limit"]
        return {"series": [_pair(inp, diffs, np.tile(p, (diffs.shape[0], 1)))
                           for p in inp["probe_dirs"]]}
    if kind == "norm_limit_check":
        n = inp["elements"].shape[0]
        y = np.tile(inp["probe_y"], (n, 1))
        series = _pair(inp, inp["elements"], y)
        lim = float(_pair(inp, inp["limit"][None, :], inp["probe_y"][None, :])[0])
        return {"deviations": np.abs(series - lim)}
    if kind == "objective":
        T, b = inp["targets"], inp["b"]
        return {"values": np.array([refs.euclid_objective(T, g, b) for g in inp["candidates"]])}
    if kind in ("blend_check", "blend"):
        T, b = inp["targets"], inp["b"]
        return {"value_g1": refs.euclid_objective(T, inp["g1"], b),
                "value_g2": refs.euclid_objective(T, inp["g2"], b)}
    return {}


def _check_sups(out_sups, ref_sups) -> list[str]:
    errs = []
    prev = None
    for (t, sy, sz), (rt, ry, rz) in zip(out_sups, ref_sups):
        if t != rt or not (_close(sy, ry, RECOMPUTE) and _close(sz, rz, RECOMPUTE)):
            errs.append(f"cauchy sup at tail {t} is ({sy!r}, {sz!r}), reference ({ry!r}, {rz!r})")
        if prev is not None and (sy > prev[0] or sz > prev[1]):
            errs.append(f"cauchy sup increased from tail {prev[2]} to tail {t}")
        prev = (sy, sz, t)
    if len(out_sups) != len(ref_sups):
        errs.append(f"expected {len(ref_sups)} cauchy tails, got {len(out_sups)}")
    return errs


def _check_series(out_series, ref_series, what: str) -> list[str]:
    errs = []
    for i, (s, r) in enumerate(zip(out_series, ref_series)):
        s = np.asarray(s)
        if s.shape != r.shape or np.any(np.abs(s - r) > RECOMPUTE * (1.0 + np.abs(r))):
            errs.append(f"{what} {i} differs from the definition")
    if len(out_series) != len(ref_series):
        errs.append(f"expected {len(ref_series)} {what}s, got {len(out_series)}")
    return errs


def check(kind: str, inp: dict, out: dict, ref: dict) -> list[str]:
    """Failure messages for one operation's output; empty when it is correct."""
    if kind == "solve":
        errs = []
        g = np.asarray(out["g_star"], dtype=float)
        at_g = float(_pb(inp, inp["targets"] - g[None, :], inp["b"]).max())
        if not _close(out["value"], at_g, RECOMPUTE):
            errs.append(f"reported value {out['value']!r} but the value at g_star is {at_g!r}")
        B = inp["basis"]
        c = np.linalg.lstsq(B.T, g, rcond=None)[0]
        if np.linalg.norm(B.T @ c - g) > RECOMPUTE * (1.0 + np.linalg.norm(g)):
            errs.append("g_star is not in the span of the basis")
        if not out["converged"]:
            errs.append("solver reported no convergence")
        return errs + _check_optimal(out["value"], ref, "value")
    if kind == "uniqueness":
        errs = [] if out["distinct_optimizers"] == 1 else [
            f"{out['distinct_optimizers']} optimizers on a strictly convex instance"]
        return errs + _check_optimal(min(out["values"]), ref, "best restart value") + \
            _check_optimal(max(out["values"]), ref, "worst restart value")
    if kind in ("distance", "set_distance"):
        return _check_optimal(out["value"], ref, kind)
    if kind in ("check_axioms", "check-axioms", "shift_identity", "dependent_triple"):
        return [] if out["passed"] and out["violations"] == 0 else [
            f"{kind} reported {out['violations']} violations on a correct norm"]
    if kind == "check_axioms_corrupted":
        return [] if not out["passed"] and out["violations"] > 0 else [
            "check_axioms missed a corrupted norm"]
    if kind == "cauchy_profile":
        return _check_sups(out["sups"], ref["sups"])
    if kind == "convergence_profile":
        errs = _check_series(out["series"], ref["series"], "probe series")
        for s, tail_max, blind in zip(out["series"], out["tail_max"], out["blind_spot"]):
            if tail_max != float(np.max(np.asarray(s)[len(s) // 2:])) or blind:
                errs.append("probe tail maximum or blind-spot flag is wrong")
        return errs
    if kind == "norm_limit_check":
        errs = [] if out["passed"] else ["reverse-triangle bound reported violated"]
        return errs + _check_series([out["deviations"]], [ref["deviations"]], "deviation series")
    if kind == "certificate":
        errs = [] if out["soundness_passed"] else ["certificate failed its soundness sweep"]
        if not _close(out["delta"], ref["delta"], RECOMPUTE):
            errs.append(f"certificate delta {out['delta']!r}, reference distance {ref['delta']!r}")
        return errs
    if kind in ("blend_check", "blend"):
        errs = [] if out["passed"] else ["a flat-face blend rose above its endpoints"]
        for key in ("value_g1", "value_g2"):
            if not _close(out[key], ref[key], RECOMPUTE):
                errs.append(f"{key} {out[key]!r}, reference {ref[key]!r}")
        return errs
    if kind == "objective":
        return _check_series([out["values"]], [ref["values"]], "objective batch")
    if kind == "oracle_solve":
        errs = []
        v = out["value"]
        if v < ref["lower"] - FLOOR * (1.0 + ref["lower"]):
            errs.append(f"oracle value {v!r} is below the lower bound {ref['lower']!r}")
        if v > ref["upper"] * (1.0 + FLOOR):
            errs.append(f"oracle value {v!r} is above the Lipschitz cell bound {ref['upper']!r}")
        at_g = refs.euclid_objective(inp["targets"], np.asarray(out["g"]), inp["b"])
        if not _close(v, at_g, RECOMPUTE):
            errs.append(f"oracle value {v!r} but the value at its g is {at_g!r}")
        return errs
    if kind == "sequence":
        errs = _check_sups(out["sups"], ref["sups"])
        errs += _check_series(out["series"], ref["series"], "probe series")
        if not out["norm_limit_passed"]:
            errs.append("reverse-triangle bound reported violated")
        return errs + _check_series([out["deviations"]], [ref["deviations"]], "deviation series")
    raise ValueError(f"no check for operation kind {kind!r}")
