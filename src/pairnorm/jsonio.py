"""JSON input schemas and a deterministic dumper.

Files name a space as {"kind": "euclidean_gram", "dim": n} or
{"kind": "white_polynomial", "degree": n, "points": [...]}.  A problem file
adds targets, g_basis, b, and an optional solver block; a sequence file adds
elements, probes, and optionally a limit with probe directions.

Reports are plain dataclasses; :func:`to_dict` is the one encoder of their
wire form (fields in declaration order, then ``passed``).  ``dumps`` emits
floats with 17 significant digits so identical runs produce byte-identical
output.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass, replace
from typing import Any, Optional

import numpy as np

from .approx import SimultaneousProblem, SolverConfig, SubspaceBasis
from .sequences import SequencePrefix
from .spaces import EuclideanGram, SpaceSpec, WhitePolynomial

__all__ = [
    "ValidationError",
    "to_dict",
    "dumps",
    "load_json",
    "space_from_dict",
    "solver_from_dict",
    "problem_from_dict",
    "sequence_from_dict",
]


class ValidationError(ValueError):
    """Input failed schema validation; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


# json.dumps of a str, without its per-call encoder set-up.
_quote = json.encoder.encode_basestring_ascii


def _emit(obj: Any, out: list[str], indent: int) -> None:
    # Plain floats, ints and strings, the bulk of a large report, are written
    # inline, without a call of _emit per value.
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(f"{pad}  {_quote(str(key))}: ")
            if type(val) is float:
                out.append(_fmt_float(val))
            elif type(val) is int:
                out.append(str(val))
            elif type(val) is str:
                out.append(_quote(val))
            else:
                _emit(val, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        if all(type(val) is float for val in obj):
            out.append("[" + ", ".join(map(_fmt_float, obj)) + "]")
            return
        out.append("[")
        for i, val in enumerate(obj):
            _emit(val, out, indent + 1)
            if i < len(obj) - 1:
                out.append(", ")
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, indent)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_PLAIN = frozenset({bool, int, float, str, type(None)})  # skipped inline: no call per number


def to_dict(obj: Any) -> Any:
    """The wire form of ``obj`` for :func:`dumps`: a dataclass becomes a dict of
    its fields in declaration order, led by its ``kind`` if it is a space and
    followed by ``passed`` if its class defines that property; an ndarray
    becomes a list; dicts, lists and tuples are converted element by element;
    any other value is returned unchanged."""
    if isinstance(obj, (list, tuple)):
        return [val if type(val) in _PLAIN else to_dict(val) for val in obj]
    if isinstance(obj, dict):
        return {k: v if type(v) in _PLAIN else to_dict(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {"kind": obj.kind} if hasattr(obj, "kind") else {}
        out.update((f.name, to_dict(getattr(obj, f.name))) for f in fields(obj))
        if isinstance(getattr(type(obj), "passed", None), property):
            out["passed"] = obj.passed
        return out
    return obj


def dumps(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(path, f"cannot read file ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            path, f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ValidationError(path, "JSON nested too deeply to parse") from exc


def _require(obj: dict, key: str, field: str) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError(field, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{field}.{key}", "missing required key")
    return obj[key]


def _as_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(field, f"expected an integer, got {value!r}")
    return value


def _as_number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, f"expected a number, got {value!r}")
    return float(value)


def _as_vector(value: Any, field: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ValidationError(field, "expected a nonempty list of numbers")
    return [_as_number(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _as_vector_list(value: Any, field: str, allow_empty: bool = False) -> list[list[float]]:
    if not isinstance(value, list):
        raise ValidationError(field, "expected a list of coordinate lists")
    if not value and not allow_empty:
        raise ValidationError(field, "expected a nonempty list of coordinate lists")
    return [_as_vector(v, f"{field}[{i}]") for i, v in enumerate(value)]


def space_from_dict(obj: Any, field: str = "space") -> SpaceSpec:
    kind = _require(obj, "kind", field)
    try:
        if kind == EuclideanGram.kind:
            return EuclideanGram(dim=_as_int(_require(obj, "dim", field), f"{field}.dim"))
        if kind == WhitePolynomial.kind:
            degree = _as_int(_require(obj, "degree", field), f"{field}.degree")
            points = _require(obj, "points", field)
            if not isinstance(points, list):
                raise ValidationError(f"{field}.points", "expected a list of numbers")
            return WhitePolynomial(
                degree=degree,
                points=tuple(
                    _as_number(p, f"{field}.points[{i}]") for i, p in enumerate(points)
                ),
            )
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(field, str(exc)) from exc
    raise ValidationError(
        f"{field}.kind",
        f"unknown kind {kind!r}; use 'euclidean_gram' or 'white_polynomial'",
    )


# The solver keys of a problem file and their parsers, in validation order.
_SOLVER_KEYS = {
    **dict.fromkeys(("max_iters", "restarts", "seed"), _as_int),
    **dict.fromkeys(("tol", "step0"), _as_number),
}


def solver_from_dict(obj: Any, field: str = "solver") -> SolverConfig:
    if obj is None:
        return SolverConfig()
    if not isinstance(obj, dict):
        raise ValidationError(field, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in _SOLVER_KEYS:
            raise ValidationError(f"{field}.{key}", "unknown solver option")
    kwargs = {k: parse(obj[k], f"{field}.{k}") for k, parse in _SOLVER_KEYS.items() if k in obj}
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ValidationError(field, str(exc)) from exc


def problem_from_dict(obj: Any) -> tuple[SimultaneousProblem, Optional[dict]]:
    """Build a problem from a parsed file; returns (problem, blend section or None)."""
    space = space_from_dict(_require(obj, "space", "problem"))
    targets = _as_vector_list(_require(obj, "targets", "problem"), "targets")
    basis_raw = _as_vector_list(_require(obj, "g_basis", "problem"), "g_basis", allow_empty=True)
    b = _as_vector(_require(obj, "b", "problem"), "b")
    solver = solver_from_dict(obj.get("solver"))
    try:
        basis = SubspaceBasis(space, basis_raw)
        problem = SimultaneousProblem(space, targets, basis, b, solver)
    except ValueError as exc:
        raise ValidationError("problem", str(exc)) from exc

    blend = obj.get("blend")
    if blend is not None:
        if not isinstance(blend, dict):
            raise ValidationError("blend", "expected an object")
        parsed = {k: _as_vector(_require(blend, k, "blend"), f"blend.{k}") for k in ("g1", "g2")}
        if "lambdas" in blend:
            lams = blend["lambdas"]
            if not isinstance(lams, list) or not lams:
                raise ValidationError("blend.lambdas", "expected a nonempty list")
            parsed["lambdas"] = [
                _as_number(v, f"blend.lambdas[{i}]") for i, v in enumerate(lams)
            ]
        blend = parsed
    return problem, blend


def sequence_from_dict(
    obj: Any,
) -> tuple[SpaceSpec, SequencePrefix, Optional[list[float]], Optional[list[list[float]]]]:
    """Build a sequence prefix; returns (space, prefix, limit or None, probe_dirs or None)."""
    space = space_from_dict(_require(obj, "space", "sequence"))
    elements = _as_vector_list(_require(obj, "elements", "sequence"), "elements")
    probes = obj.get("probes")
    probe_y = probe_z = None
    if probes is not None:
        if not isinstance(probes, dict):
            raise ValidationError("probes", "expected an object with y and z")
        probe_y, probe_z = (
            _as_vector(probes[k], f"probes.{k}") if k in probes else None for k in "yz"
        )
    limit = _as_vector(obj["limit"], "limit") if "limit" in obj else None
    probe_dirs = _as_vector_list(obj["probe_dirs"], "probe_dirs") if "probe_dirs" in obj else None
    try:
        seq = SequencePrefix(space, elements, probe_y=probe_y, probe_z=probe_z)
    except ValueError as exc:
        raise ValidationError("sequence", str(exc)) from exc
    return space, seq, limit, probe_dirs


def apply_solver_overrides(cfg: SolverConfig, **overrides: Any) -> SolverConfig:
    """Replace solver options with explicitly provided flag values."""
    provided = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **provided) if provided else cfg
