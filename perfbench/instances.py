"""Seeded inputs for every workload, built with numpy alone.

Each workload is a fixed mix of operations (``MIXES``).  A run repeats the
mix for a fixed number of whole rounds (``rounds``); the inputs of operation
``index`` in round ``rnd`` come from
``numpy.random.default_rng([seed, workload id, rnd, index])``, so the worker
that times an operation and the harness that checks it rebuild the same
input independently, and one seed and run length always time the same
instances.  Every round draws fresh instances; on ``cli`` rounds come in
pairs over the same files, so two invocations of one file can be compared
byte for byte.
"""

from __future__ import annotations

import numpy as np

WORKLOAD_IDS = {"euclid-solve": 1, "white-solve": 2, "sweeps": 3, "cli": 4}

# Nominal wall time of one round of each mix on a 2-vCPU machine, in seconds.
# A run of ``seconds`` does round(seconds / ROUND_S) rounds whatever the
# machine's speed at the time, so its work is fixed: a slow spell makes the
# run longer instead of changing which instances it times.
ROUND_S = {"euclid-solve": 6.4, "white-solve": 4.8, "sweeps": 1.3, "cli": 4.0}

# Shapes are (d, k, m): ambient dimension, basis size, number of targets.
# Every shape keeps k = 1 or m <= 2, so at most two targets tie at the
# optimum.  With k >= 2 and m >= 3 three or more targets can tie, the
# default solver then stops above the optimum on some seeds while still
# reporting convergence (see CHANGES.md), and the failure count would depend
# on the seed.  The costs fall in three groups (m = 1; m = 2 and the
# uniqueness probes; k = 1 with many targets), so the median operation sits
# inside the middle group.
EUCLID_SOLVE = [
    ("solve", {"d": 4, "k": 2, "m": 1}),
    ("solve", {"d": 4, "k": 1, "m": 2, "midpoint": True}),
    ("solve", {"d": 8, "k": 1, "m": 6}),
    ("uniqueness", {"d": 4, "k": 1, "m": 2, "midpoint": True}),
    ("solve", {"d": 8, "k": 3, "m": 2}),
    ("solve", {"d": 8, "k": 6, "m": 1}),
    ("solve", {"d": 16, "k": 6, "m": 2}),
    ("solve", {"d": 16, "k": 1, "m": 8}),
    ("uniqueness", {"d": 8, "k": 1, "m": 4}),
    ("solve", {"d": 16, "k": 4, "m": 1}),
    ("solve", {"d": 16, "k": 3, "m": 2}),
]

# White shapes are (degree, k, m); elements have degree + 1 coefficients.
# Every shape keeps k = 1: with k >= 2 the default solver lands above the LP
# optimum on some seeds (see CHANGES.md).  Six single-target operations,
# whose cost does not depend on the instance, hold the median; the five
# with three or four targets carry most of the time.
WHITE_SOLVE = [
    ("solve", {"degree": 2, "k": 1, "m": 1}),
    ("solve", {"degree": 5, "k": 1, "m": 3}),
    ("distance", {"degree": 3, "k": 1, "m": 1}),
    ("set_distance", {"degree": 4, "k": 1, "m": 3}),
    ("solve", {"degree": 4, "k": 1, "m": 1}),
    ("solve", {"degree": 6, "k": 1, "m": 4}),
    ("distance", {"degree": 5, "k": 1, "m": 1}),
    ("set_distance", {"degree": 6, "k": 1, "m": 3}),
    ("solve", {"degree": 6, "k": 1, "m": 1}),
    ("set_distance", {"degree": 6, "k": 1, "m": 4}),
    ("distance", {"degree": 6, "k": 1, "m": 1}),
]

# Batch sizes span 1e3 to 1e5 rows so that the working set of
# two_norm_rows moves from cache-resident to memory-bound.
SWEEPS = [
    ("check_axioms", {"space": "euclid", "dim": 4, "rows": 1000}),
    ("check_axioms", {"space": "white", "dim": 3, "rows": 10000}),
    ("check_axioms", {"space": "euclid", "dim": 16, "rows": 100000}),
    ("check_axioms_corrupted", {"space": "euclid", "dim": 8, "rows": 1000}),
    ("shift_identity", {"space": "white", "dim": 5, "rows": 10000}),
    ("shift_identity", {"space": "euclid", "dim": 8, "rows": 100000}),
    ("dependent_triple", {"space": "euclid", "dim": 4, "rows": 1000}),
    ("dependent_triple", {"space": "euclid", "dim": 16, "rows": 10000}),
    ("cauchy_profile", {"space": "euclid", "dim": 8, "n": 46}),
    ("cauchy_profile", {"space": "white", "dim": 4, "n": 142}),
    ("cauchy_profile", {"space": "euclid", "dim": 16, "n": 448}),
    ("convergence_profile", {"space": "euclid", "dim": 8, "n": 1000, "probes": 3}),
    ("convergence_profile", {"space": "white", "dim": 6, "n": 10000, "probes": 2}),
    ("norm_limit_check", {"space": "white", "dim": 3, "n": 1000}),
    ("norm_limit_check", {"space": "euclid", "dim": 16, "n": 100000}),
    ("certificate", {"d": 8, "k": 3, "samples": 1000}),
    ("certificate", {"d": 16, "k": 5, "samples": 100000}),
    ("blend_check", {"d": 8, "k": 2, "m": 3, "lambdas": 101}),
    ("blend_check", {"d": 16, "k": 3, "m": 8, "lambdas": 11}),
    ("objective", {"d": 16, "k": 2, "m": 8, "points": 200}),
    ("oracle_solve", {"d": 4, "k": 1, "m": 2, "resolution": 2001}),
    ("oracle_solve", {"d": 8, "k": 2, "m": 3, "resolution": 401}),
    ("oracle_solve", {"d": 8, "k": 3, "m": 3, "resolution": 81}),
]

# One pairnorm process per entry; the light subcommands hold the median.
# solve and uniqueness read two-target problems symmetric about a point of G
# (midpoint_problem): their optimum is always a tie between the targets, so
# the solver's cost varies little from seed to seed, and a few instances per
# run suffice for a steady ops_per_s.
CLI = [
    ("check-axioms", {"space": "euclid", "dim": 4, "samples": 2000}),
    ("sequence", {"space": "euclid", "dim": 4, "n": 40}),
    ("distance", {"space": "euclid", "d": 6, "k": 2}),
    ("certificate", {"d": 5, "k": 2}),
    ("blend", {"d": 4, "k": 1, "m": 2}),
    ("solve", {"d": 4, "k": 1}),
    ("check-axioms", {"space": "white", "dim": 3, "samples": 2000}),
    ("sequence", {"space": "white", "dim": 3, "n": 40}),
    ("distance", {"space": "white", "degree": 2, "k": 1}),
    ("uniqueness", {"d": 4, "k": 1}),
]

MIXES = {
    "euclid-solve": EUCLID_SOLVE,
    "white-solve": WHITE_SOLVE,
    "sweeps": SWEEPS,
    "cli": CLI,
}


def rounds(workload: str, seconds: float) -> int:
    """Rounds of the mix in a run of about ``seconds``: at least one, and an
    even number on ``cli``."""
    n = max(1, round(seconds / ROUND_S[workload]))
    return n + n % 2 if workload == "cli" else n


def rng_for(workload: str, seed: int, rnd: int, index: int) -> np.random.Generator:
    """The generator behind operation ``index`` of round ``rnd``."""
    if workload == "cli":
        rnd //= 2
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], rnd, index])


def _well_posed(rows: np.ndarray) -> bool:
    """Rows are independent with a margin: the smallest singular value of the
    row-normalized stack is at least 1e-3 of the largest."""
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    s = np.linalg.svd(unit, compute_uv=False)
    return bool(s[-1] >= 1e-3 * s[0])


def euclid_problem(rng: np.random.Generator, d: int, k: int, m: int) -> dict:
    """Targets near span(basis) + span(b), with b outside span(targets, basis).

    f_i = a_i B + 0.3 r_i + s_i b with Gaussian a_i, r_i, s_i.  The targets'
    components off span(basis, b) are small next to their spread inside it,
    so the optimum is a tie between two or more targets, the case
    simultaneous approximation exists for.  With plain Gaussian targets in
    d = 16 one far target alone decides the optimum in about half of the
    instances, and the solver's cost then halves from seed to seed.
    """
    if k + m >= d:
        raise ValueError(f"need k + m < d, got d={d} k={k} m={m}")
    while True:
        B = rng.standard_normal((k, d))
        b = rng.standard_normal(d)
        T = (rng.standard_normal((m, k)) @ B + 0.3 * rng.standard_normal((m, d))
             + rng.standard_normal((m, 1)) * b)
        if _well_posed(np.vstack([T, B, b])):
            return {"space": "euclid", "dim": d, "targets": T, "basis": B, "b": b}


def midpoint_problem(rng: np.random.Generator, d: int, k: int) -> dict:
    """Targets c + v and c - v with c in span(basis): by the midpoint law the
    optimum is g = c with value p_b(v)."""
    if k + 2 >= d:
        raise ValueError(f"need k + 2 < d, got d={d} k={k}")
    while True:
        B = rng.standard_normal((k, d))
        v = rng.standard_normal(d)
        b = rng.standard_normal(d)
        if _well_posed(np.vstack([v, B, b])):
            c = rng.standard_normal(k) @ B
            return {"space": "euclid", "dim": d, "targets": np.array([c + v, c - v]),
                    "basis": B, "b": b}


def white_points(rng: np.random.Generator, degree: int) -> np.ndarray:
    """2 * degree distinct sample points, one jittered point per cell of [0, 1]."""
    n = 2 * degree
    return (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n


def white_problem(rng: np.random.Generator, degree: int, k: int, m: int) -> dict:
    d = degree + 1
    if k + m >= d:
        raise ValueError(f"need k + m < degree + 1, got degree={degree} k={k} m={m}")
    points = white_points(rng, degree)
    while True:
        T = rng.standard_normal((m, d))
        B = rng.standard_normal((k, d))
        b = rng.standard_normal(d)
        if _well_posed(np.vstack([T, B, b])):
            return {"space": "white", "dim": degree, "points": points,
                    "targets": T, "basis": B, "b": b}


def oracle_radius(spec: dict) -> float:
    """A box half-width that provably holds the optimal coefficients.

    objective(c*) <= objective(0) = R0 := max_i p_b(f_i), so by the triangle
    inequality p_b(B^T c*) <= 2 R0, and p_b(B^T c) >= s_min |c| with s_min the
    smallest singular value of |b| P B^T (P projects out b).
    """
    T, B, b = spec["targets"], spec["basis"], spec["b"]
    nb = float(np.linalg.norm(b))
    P = np.eye(b.shape[0]) - np.outer(b, b) / float(b @ b)
    r0 = nb * float(np.max(np.linalg.norm(T @ P, axis=1)))
    s_min = float(np.linalg.svd(nb * (P @ B.T), compute_uv=False)[-1])
    return 2.0 * r0 / s_min


def space_of(rng: np.random.Generator, space: str, dim: int) -> dict:
    """A space description: ``dim`` is the dimension, or the degree for White."""
    if space == "euclid":
        return {"space": "euclid", "dim": dim}
    return {"space": "white", "dim": dim, "points": white_points(rng, dim)}


def cauchy_tails(n: int) -> list[int]:
    """The tail_from values one cauchy_profile operation evaluates."""
    return [0, n // 4, n // 2]


def element_len(spec: dict) -> int:
    return spec["dim"] if spec["space"] == "euclid" else spec["dim"] + 1


def sequence_input(rng: np.random.Generator, space: str, dim: int, n: int, probes: int = 1) -> dict:
    """x_j = limit + r_j / (j + 1) with Gaussian r_j, two Cauchy probes and
    ``probes`` probe directions for the convergence profile."""
    spec = space_of(rng, space, dim)
    d = element_len(spec)
    limit = rng.standard_normal(d)
    elements = limit + rng.standard_normal((n, d)) / np.arange(1, n + 1)[:, None]
    while True:
        y, z = rng.standard_normal((2, d))
        if _well_posed(np.vstack([y, z])):
            break
    spec.update(elements=elements, limit=limit, probe_y=y, probe_z=z,
                probe_dirs=rng.standard_normal((probes, d)))
    return spec


def flat_face_blend(rng: np.random.Generator, d: int, k: int, m: int, lambdas: int) -> dict:
    """A problem whose basis contains b, so the objective is constant along
    the line g + t b and blends of two points on it form a flat face."""
    spec = euclid_problem(rng, d, k, m)
    spec["basis"] = np.vstack([spec["basis"][: k - 1], spec["b"]])
    centre = rng.standard_normal(k) @ spec["basis"]
    t1, t2 = rng.uniform(-2.0, 2.0, 2)
    spec.update(g1=centre + t1 * spec["b"], g2=centre + t2 * spec["b"],
                lambdas=np.linspace(0.0, 1.0, lambdas))
    return spec


def op_input(workload: str, seed: int, rnd: int, index: int) -> dict:
    """Input of operation ``index`` in round ``rnd``: plain numpy data only."""
    kind, p = MIXES[workload][index]
    rng = rng_for(workload, seed, rnd, index)
    if workload == "euclid-solve":
        if p.get("midpoint"):
            return midpoint_problem(rng, p["d"], p["k"])
        return euclid_problem(rng, p["d"], p["k"], p["m"])
    if workload == "white-solve":
        return white_problem(rng, p["degree"], p["k"], p["m"])
    if workload == "cli":
        return cli_input(rng, kind, p)
    if kind in ("check_axioms", "check_axioms_corrupted", "shift_identity", "dependent_triple"):
        spec = space_of(rng, p["space"], p["dim"])
        spec.update(rows=p["rows"], sweep_seed=int(rng.integers(2**31)))
        return spec
    if kind in ("cauchy_profile", "convergence_profile", "norm_limit_check"):
        return sequence_input(rng, p["space"], p["dim"], p["n"], p.get("probes", 1))
    if kind == "certificate":
        spec = euclid_problem(rng, p["d"], p["k"], 1)
        spec.update(samples=p["samples"], sweep_seed=int(rng.integers(2**31)))
        return spec
    if kind == "blend_check":
        return flat_face_blend(rng, p["d"], p["k"], p["m"], p["lambdas"])
    spec = euclid_problem(rng, p["d"], p["k"], p["m"])
    if kind == "objective":
        spec["candidates"] = rng.standard_normal((p["points"], p["k"])) @ spec["basis"]
    else:  # oracle_solve
        spec.update(resolution=p["resolution"], radius=oracle_radius(spec))
    return spec


def space_specs(workload: str, seed: int) -> list:
    """The distinct spaces of the workload's first round, as JSON data."""
    specs = []
    for i in range(len(MIXES[workload])):
        inp = op_input(workload, seed, 0, i)
        spec = {"space": inp["space"], "dim": inp["dim"]}
        if "points" in inp:
            spec["points"] = [float(t) for t in inp["points"]]
        if spec not in specs:
            specs.append(spec)
    return specs


def cli_input(rng: np.random.Generator, kind: str, p: dict) -> dict:
    if kind == "check-axioms":
        spec = space_of(rng, p["space"], p["dim"])
        spec.update(samples=p["samples"], sweep_seed=int(rng.integers(2**31)))
        return spec
    if kind == "sequence":
        return sequence_input(rng, p["space"], p["dim"], p["n"])
    if kind == "distance" and p["space"] == "white":
        return white_problem(rng, p["degree"], p["k"], 1)
    if kind in ("distance", "certificate"):
        return euclid_problem(rng, p["d"], p["k"], 1)
    if kind == "blend":
        return flat_face_blend(rng, p["d"], p["k"], p["m"], 5)
    return midpoint_problem(rng, p["d"], p["k"])
