"""Finite-prefix convergence diagnostics.

Only a finite prefix of a sequence is ever available, so nothing here claims
a sequence *is* Cauchy or convergent.  The profiles report tail suprema that
a caller (or a plot) can judge for decay, and the reverse-triangle check
verifies the one inequality that must hold pointwise regardless:

    | ||x_n, y|| - ||x, y|| |  <=  ||x_n - x, y||.

Cauchy behaviour is probed against two independent directions y and z, since
a single seminorm is blind along its own direction line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .spaces import SpaceSpec, as_element, as_elements, two_norm_rows
from .spaces import _SV_RATIO_MIN, _sv_ratio

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


def _against(space: SpaceSpec, X: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """The 2-norms ||x_i, probe|| of the rows of ``X``, with the bits of a
    tiled probe but without the copy.  The probe goes in as a stride-0 view
    rather than one row: on ``WhitePolynomial`` a 1-row matmul rounds
    differently from the same row inside a many-row one."""
    return two_norm_rows(space, X, np.broadcast_to(probe, X.shape))


@dataclass
class CauchyProfile:
    sup_y: float
    sup_z: float
    tail_from: int


def cauchy_profile(space: SpaceSpec, seq: SequencePrefix, tail_from: int) -> CauchyProfile:
    """Tail suprema sup ||x_n - x_m, y|| and sup ||x_n - x_m, z||.

    ``tail_from`` counts skipped leading elements (0-based); the tail must
    keep at least two.  Nonincreasing in ``tail_from`` by construction.
    The pairs are taken ``_PAIR_CHUNK`` at a time, never leaving a 1-row
    last chunk, so every pair value has the bits of one unchunked batch.
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
    i, j = np.triu_indices(tail.shape[0], 1)
    cuts = list(range(0, i.size, _PAIR_CHUNK)) + [i.size]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]  # fold a 1-row remainder into the chunk before it
    sups = np.empty((len(cuts) - 1, 2))
    for c, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        diffs = tail[i[lo:hi]] - tail[j[lo:hi]]
        sups[c] = [_against(space, diffs, p).max() for p in (seq.probe_y, seq.probe_z)]
    sup_y, sup_z = sups.max(axis=0).tolist()
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
    only zeros; such blind spots are flagged rather than celebrated.
    """
    lim = as_element(space, limit, "limit")
    if not probe_dirs:
        raise ValueError("probe_dirs must be nonempty")
    n = len(seq)
    start = n // 2 if tail_from is None else tail_from
    if not (0 <= start < n):
        raise ValueError(f"tail_from out of range: {start} of {n}")
    diffs = seq.elements - lim
    profiles = []
    for p_idx, probe in enumerate(probe_dirs):
        pv = as_element(space, probe, f"probe_dirs[{p_idx}]")
        series = _against(space, diffs, pv)
        profiles.append(
            ProbeProfile(
                probe=pv.tolist(),
                series=series.tolist(),
                tail_max=float(series[start:].max()),
                blind_spot=bool(series.max() <= 1e-12),
            )
        )
    return profiles


@dataclass
class NormLimitReport:
    max_deviation: float
    deviations: list[float]
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def norm_limit_check(
    space: SpaceSpec, seq: SequencePrefix, limit, y, bound_tol: float = 1e-9
) -> NormLimitReport:
    """Deviations | ||x_n, y|| - ||limit, y|| | with the reverse-triangle bound.

    Each deviation must stay within ||x_n - limit, y|| + bound_tol; any
    violation is reported with its index and both sides of the inequality.
    """
    lim = as_element(space, limit, "limit")
    yv = as_element(space, y, "y")
    series = _against(space, seq.elements, yv)
    lim_val = float(two_norm_rows(space, lim[None, :], yv[None, :])[0])
    deviations = np.abs(series - lim_val)
    bounds = _against(space, seq.elements - lim, yv)
    report = NormLimitReport(
        max_deviation=float(deviations.max()),
        deviations=deviations.tolist(),
    )
    for i in np.flatnonzero(deviations > bounds + bound_tol):
        report.violations.append(
            {
                "index": int(i),
                "deviation": float(deviations[i]),
                "bound": float(bounds[i]),
            }
        )
    return report
