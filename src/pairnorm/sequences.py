"""Finite-prefix convergence diagnostics.

Only a finite prefix of a sequence is ever available, so nothing here claims
a sequence *is* Cauchy or convergent.  The profiles report tail suprema that
a caller (or a plot) can judge for decay, and the reverse-triangle check
verifies the one inequality that must hold pointwise regardless:

    | ||x_n, y|| - ||x, y|| |  <=  ||x_n - x, y||.

Cauchy behaviour is probed against two independent directions y and z, since
a single seminorm is blind along its own direction line.

A Cauchy supremum is a maximum over all n(n-1)/2 tail pairs, but few of them
can attain it.  With r_i = p(x_i - x_last), the triangle inequality gives
p(x_i - x_j) <= r_i + r_j, so once some evaluated pair value ``best`` is
known, only the pairs with r_i + r_j + s_i + s_j >= best are evaluated.  The
slack s_i = 1e-9 (r_i + L |x_i - x_last|_2 + best), with L a Lipschitz bound
of p, is far above the rounding of any pair value or bound.  The maximum is
then taken over pair values computed exactly as a sweep of all pairs
computes them, so it is that sweep's maximum to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .spaces import SpaceSpec, as_element, as_elements, seminorm_map, two_norm_rows
from .spaces import _SQ_MAX, _SQ_MIN, _SV_RATIO_MIN, _row_blocks, _row_norms, _sv_ratio, _Verdict

__all__ = [
    "SequencePrefix",
    "CauchyProfile",
    "ProbeProfile",
    "NormLimitReport",
    "cauchy_profile",
    "convergence_profile",
    "norm_limit_check",
]


class SequencePrefix:
    """The first N elements of a sequence, with optional Cauchy probes y, z."""

    def __init__(
        self, space: SpaceSpec, elements: Sequence, probe_y=None, probe_z=None
    ) -> None:
        self.space = space
        self.elements = as_elements(space, elements, "elements")
        if self.elements.shape[0] < 2:
            raise ValueError("a sequence prefix needs at least 2 elements")
        self.probe_y = as_element(space, probe_y, "probes.y") if probe_y is not None else None
        self.probe_z = as_element(space, probe_z, "probes.z") if probe_z is not None else None

    def __len__(self) -> int:
        return self.elements.shape[0]


# Pairs of tail elements per chunk of :func:`cauchy_profile`.
_PAIR_CHUNK = 4096

# Relative slack on the triangle bound of :func:`cauchy_profile`, as
# ``approx._GRID_SLACK``: far above the rounding of any pair value.
_PRUNE_SLACK = 1e-9


def _difference(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X - Y; a difference that overflows raises FloatingPointError."""
    with np.errstate(over="raise"):
        return X - Y


def _overflow(X: np.ndarray, y: np.ndarray, first: int, other: str) -> ValueError:
    """The error for the first row of ``X``, element ``first`` on, whose
    difference from ``y`` overflows, with its margin over the largest float."""
    with np.errstate(over="ignore"):
        n, c = divmod(int(np.argmax(~np.isfinite(X - y))), X.shape[1])
    margin = abs(X[n, c] / 2 - y[c] / 2) / (np.finfo(float).max / 2)
    return ValueError(
        f"element {first + n} and {other} differ by {margin:.6g} times the largest "
        f"float in coordinate {c}, so their difference overflows"
    )


def _pair_max(
    space: SpaceSpec, tail: np.ndarray, probes: Sequence, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Per probe, max ||tail[i] - tail[j], probe|| over paired indices i < j,
    ``_PAIR_CHUNK`` pairs at a time; -inf for no pairs.  The kernel gives a
    row the same bits in any batch, so every value has the bits of a sweep
    of all the tail's pairs."""
    sups = [np.full(len(probes), -np.inf)]
    for lo, hi in _row_blocks(i.size, _PAIR_CHUNK):
        diffs = _difference(tail[i[lo:hi]], tail[j[lo:hi]])
        sups.append([two_norm_rows(space, diffs, p[None, :]).max() for p in probes])
    return np.max(sups, axis=0)


def _bound_pairs(bound: np.ndarray, best: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs a < b with bound[a] + bound[b] >= best, enumerated from
    the bounds in descending order: the partners of the p-th largest bound
    are the positions q > p with desc[q] >= best - desc[p], a prefix."""
    order = np.argsort(-bound, kind="stable")
    desc = bound[order]
    ends = np.searchsorted(-desc, desc - best, side="right")
    counts = np.maximum(ends - np.arange(desc.size) - 1, 0)
    first = np.repeat(np.arange(desc.size), counts)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[first], order[second]
    return np.minimum(a, b), np.maximum(a, b)


def _tail_sup(space: SpaceSpec, tail: np.ndarray, probe: np.ndarray) -> float:
    """max over i < j of ||x_i - x_j, probe|| on ``tail``, from the pairs a
    triangle bound cannot rule out; see :func:`cauchy_profile`."""
    d = _difference(tail[:-1], tail[-1])
    r = two_norm_rows(space, d, probe[None, :])  # the pairs (i, last)
    f = int(np.argmax(r))
    rest = np.delete(np.arange(r.size), f)
    through = _pair_max(space, tail, [probe], np.minimum(rest, f), np.maximum(rest, f))
    best = np.max([r.max(), *through])
    dist = _row_norms(d)
    with np.errstate(over="ignore"):  # an overflow fails the range check
        reach = _row_norms(seminorm_map(space, probe)).sum() * dist[rest]
    if best >= _SQ_MIN and max(dist.max(), reach.max()) <= _SQ_MAX:
        r = r[rest]
        a, b = _bound_pairs(r + _PRUNE_SLACK * (r + reach + best), best)
    else:  # near under- or overflow the slack covers no rounding: every pair
        a, b = np.triu_indices(rest.size, 1)
    return np.max([best, *_pair_max(space, tail, [probe], rest[a], rest[b])])


@dataclass
class CauchyProfile:
    sup_y: float
    sup_z: float
    tail_from: int


def cauchy_profile(space: SpaceSpec, seq: SequencePrefix, tail_from: int) -> CauchyProfile:
    """Tail suprema sup ||x_n - x_m, y|| and sup ||x_n - x_m, z||.

    ``tail_from`` counts skipped leading elements (0-based); the tail must
    keep at least two.  Nonincreasing in ``tail_from`` by construction.

    A tail whose pairs fit one ``_PAIR_CHUNK`` is swept whole.  A longer
    one takes each supremum over the pairs a triangle bound cannot rule
    out.  First r_i = p(x_i - x_last), the pair values through the last
    element; then the pairs through the element farthest from x_last, which
    raise the lower bound ``best``; then only the pairs with r_i + r_j +
    s_i + s_j >= best, enumerated from r in descending order.  The slack is
    s_i = ``_PRUNE_SLACK`` * (r_i + L |x_i - x_last|_2 + best), with L the
    sum of the row norms of ``seminorm_map(probe)``: sigma_max <= Frobenius
    <= that sum, so L bounds the Lipschitz constant of p against |.|_2 in
    either norm order.  Where ``best`` is below ``_SQ_MIN``, or
    |x_i - x_last|_2 or L |x_i - x_last|_2 above ``_SQ_MAX``, rounding may
    no longer be relative, so every pair is evaluated.  Two tail elements
    that differ by more than the largest float are a ValueError naming them.

    Each supremum has the bits of the full sweep: a pair value is x_i - x_j
    with i < j through the same kernel, which gives a row the same bits in
    any batch, and a pair left out is at most ``best``, which was evaluated.
    """
    n = len(seq)
    if not (0 <= tail_from < n - 1):
        raise ValueError(
            f"tail_from must leave at least two elements, got {tail_from} of {n}"
        )
    if seq.probe_y is None or seq.probe_z is None:
        raise ValueError("cauchy_profile needs both probes y and z")
    pair = np.vstack([seq.probe_y, seq.probe_z])
    if not pair.any(axis=1).all():
        raise ValueError("probes must be nonzero")
    ratio = _sv_ratio(pair)
    if ratio <= _SV_RATIO_MIN:
        raise ValueError(
            "probes y and z must be linearly independent "
            f"(singular-value ratio {ratio:.1e} <= {_SV_RATIO_MIN:.0e})"
        )

    tail = seq.elements[tail_from:]
    probes = [seq.probe_y, seq.probe_z]
    m = tail.shape[0]
    try:
        if m * (m - 1) // 2 <= _PAIR_CHUNK:  # one chunk costs less than a pruned sweep
            sups = _pair_max(space, tail, probes, *np.triu_indices(m, 1))
        else:
            sups = [_tail_sup(space, tail, p) for p in probes]
    except FloatingPointError:  # an element too far from the least in the widest coordinate
        c = np.argmax(tail.max(axis=0) / 2 - tail.min(axis=0) / 2)
        j = tail_from + int(tail[:, c].argmin())
        raise _overflow(tail, seq.elements[j], tail_from, f"element {j}") from None
    sup_y, sup_z = map(float, sups)
    return CauchyProfile(sup_y=sup_y, sup_z=sup_z, tail_from=tail_from)


@dataclass
class ProbeProfile:
    probe: list[float]
    series: list[float]
    tail_max: float
    blind_spot: bool


def convergence_profile(
    space: SpaceSpec,
    seq: SequencePrefix,
    limit,
    probe_dirs: Sequence,
    tail_from: Optional[int] = None,
) -> list[ProbeProfile]:
    """Per probe z, the series n -> ||x_n - limit, z|| and its tail maximum.

    The caller judges decay.  ``tail_from`` defaults to the second half of
    the prefix.  A probe collinear with every difference x_n - limit sees
    only zeros; such blind spots are flagged rather than celebrated.  The
    differences are formed ``spaces._SWEEP_ROWS`` rows at a time, so no copy
    of the whole prefix is made; each value keeps the bits of one batch.
    """
    lim = as_element(space, limit, "limit")
    if not probe_dirs:
        raise ValueError("probe_dirs must be nonempty")
    n = len(seq)
    start = n // 2 if tail_from is None else tail_from
    if not (0 <= start < n):
        raise ValueError(f"tail_from out of range: {start} of {n}")
    probes = [as_element(space, p, f"probe_dirs[{i}]") for i, p in enumerate(probe_dirs)]
    series = np.empty((len(probes), n))
    try:
        for lo, hi in _row_blocks(n):
            diffs = _difference(seq.elements[lo:hi], lim)
            for s, pv in zip(series, probes):
                s[lo:hi] = two_norm_rows(space, diffs, pv[None, :])
    except FloatingPointError:
        raise _overflow(seq.elements, lim, 0, "the limit") from None
    return [
        ProbeProfile(
            probe=pv.tolist(),
            series=s.tolist(),
            tail_max=float(s[start:].max()),
            blind_spot=bool(s.max() <= 1e-12),
        )
        for pv, s in zip(probes, series)
    ]


@dataclass
class NormLimitReport(_Verdict):
    max_deviation: float
    deviations: list[float]
    violations: list[dict] = field(default_factory=list)


# Slack on the reverse-triangle bound of :func:`norm_limit_check`.
_BOUND_TOL = 1e-9


def norm_limit_check(space: SpaceSpec, seq: SequencePrefix, limit, y) -> NormLimitReport:
    """Deviations | ||x_n, y|| - ||limit, y|| | with the reverse-triangle bound.

    Each deviation must stay within ||x_n - limit, y|| + ``_BOUND_TOL``; any
    violation is reported with its index and both sides of the inequality.
    Both series are evaluated ``spaces._SWEEP_ROWS`` rows at a time, so the
    differences x_n - limit never exist for the whole prefix at once.
    """
    lim = as_element(space, limit, "limit")
    yv = as_element(space, y, "y")
    series, bounds = np.empty((2, len(seq)))
    try:
        for lo, hi in _row_blocks(len(seq)):
            rows = seq.elements[lo:hi]
            bounds[lo:hi] = two_norm_rows(space, _difference(rows, lim), yv[None, :])
            series[lo:hi] = two_norm_rows(space, rows, yv[None, :])
    except FloatingPointError:
        raise _overflow(seq.elements, lim, 0, "the limit") from None
    lim_val = float(two_norm_rows(space, lim[None, :], yv[None, :])[0])
    deviations = np.abs(series - lim_val)
    report = NormLimitReport(
        max_deviation=float(deviations.max()),
        deviations=deviations.tolist(),
    )
    for i in np.flatnonzero(deviations > bounds + _BOUND_TOL):
        report.violations.append(
            {
                "index": int(i),
                "deviation": float(deviations[i]),
                "bound": float(bounds[i]),
            }
        )
    return report
