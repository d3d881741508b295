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


@dataclass
class CauchyProfile:
    sup_y: float
    sup_z: float
    tail_from: int

    def to_dict(self) -> dict:
        return {"sup_y": self.sup_y, "sup_z": self.sup_z, "tail_from": self.tail_from}


def cauchy_profile(space: SpaceSpec, seq: SequencePrefix, tail_from: int) -> CauchyProfile:
    """Tail suprema sup ||x_n - x_m, y|| and sup ||x_n - x_m, z||.

    ``tail_from`` counts skipped leading elements (0-based); the tail must
    keep at least two.  Nonincreasing in ``tail_from`` by construction.
    """
    n = len(seq)
    if not (0 <= tail_from < n - 1):
        raise ValueError(
            f"tail_from must leave at least two elements, got {tail_from} of {n}"
        )
    if seq.probe_y is None or seq.probe_z is None:
        raise ValueError("cauchy_profile needs both probes y and z")
    pair = np.vstack([seq.probe_y, seq.probe_z])
    norms = np.linalg.norm(pair, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("probes must be nonzero")
    unit = pair / norms[:, None]
    if np.linalg.det(unit @ unit.T) <= 1e-12:
        raise ValueError("probes y and z must be linearly independent")

    tail = seq.elements[tail_from:]
    i, j = np.triu_indices(tail.shape[0], 1)
    diffs = tail[i] - tail[j]
    sup_y = float(two_norm_rows(space, diffs, np.tile(seq.probe_y, (diffs.shape[0], 1))).max())
    sup_z = float(two_norm_rows(space, diffs, np.tile(seq.probe_z, (diffs.shape[0], 1))).max())
    return CauchyProfile(sup_y=sup_y, sup_z=sup_z, tail_from=tail_from)


@dataclass
class ProbeProfile:
    probe: list[float]
    series: list[float]
    tail_max: float
    blind_spot: bool

    def to_dict(self) -> dict:
        return {
            "probe": list(self.probe),
            "series": list(self.series),
            "tail_max": self.tail_max,
            "blind_spot": self.blind_spot,
        }


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
        series = two_norm_rows(space, diffs, np.tile(pv, (n, 1)))
        profiles.append(
            ProbeProfile(
                probe=[float(v) for v in pv],
                series=[float(v) for v in series],
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

    def to_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "deviations": list(self.deviations),
            "violations": list(self.violations),
            "passed": self.passed,
        }


def norm_limit_check(
    space: SpaceSpec, seq: SequencePrefix, limit, y, bound_tol: float = 1e-9
) -> NormLimitReport:
    """Deviations | ||x_n, y|| - ||limit, y|| | with the reverse-triangle bound.

    Each deviation must stay within ||x_n - limit, y|| + bound_tol; any
    violation is reported with its index and both sides of the inequality.
    """
    lim = as_element(space, limit, "limit")
    yv = as_element(space, y, "y")
    n = len(seq)
    ytile = np.tile(yv, (n, 1))
    series = two_norm_rows(space, seq.elements, ytile)
    lim_val = float(two_norm_rows(space, lim[None, :], yv[None, :])[0])
    deviations = np.abs(series - lim_val)
    bounds = two_norm_rows(space, seq.elements - lim, ytile)
    report = NormLimitReport(
        max_deviation=float(deviations.max()),
        deviations=[float(v) for v in deviations],
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
