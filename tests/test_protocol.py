"""The space protocol: per-space behaviour lives on the space classes.

``approx`` and the other modules reach a space only through its attributes
and the module-level entry points of ``spaces``, never by testing which
class it is.  The entry points stay the bindings that outside tracers wrap.
"""

import ast
import gc
import pathlib
import weakref
from collections import Counter

import numpy as np
import pytest

import pairnorm
import pairnorm.approx as approx
from pairnorm import (
    EuclideanGram,
    SimultaneousProblem,
    WhitePolynomial,
    certificate,
    certificate_soundness,
    objective,
    seminorm_map,
    set_distance,
    solve,
    two_norm_rows,
    uniqueness_probe,
)

SRC = pathlib.Path(pairnorm.__file__).parent
SPACE_CLASSES = {"EuclideanGram", "WhitePolynomial"}


def _names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_no_isinstance_dispatch_on_space_classes():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and _names(node.args[1]) & SPACE_CLASSES
            ):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_approx_imports_no_space_class():
    tree = ast.parse((SRC / "approx.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & SPACE_CLASSES


def _readers(tree: ast.Module, attrs: set[str]) -> set[str]:
    """Top-level definitions of ``tree`` (``<module>`` for other statements)
    that read an attribute named in ``attrs``."""
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in attrs
    }


def test_approx_branches_on_norm_ord_in_two_places():
    # one dispatch point per space: the engine choice and the oracle's norm,
    # and no code that reads what only one space class has
    tree = ast.parse((SRC / "approx.py").read_text())
    assert _readers(tree, {"norm_ord"}) == {"_engine", "_Objective"}
    assert _readers(tree, {"dim", "degree", "points", "tables"}) == set()


EUCLID = SimultaneousProblem(
    EuclideanGram(3), [[1, 0, 0], [-1, 0.5, 0]], [[1, 0, 0]], [0, 0, 1]
)
WHITE = SimultaneousProblem(
    WhitePolynomial(3, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
    [[1.0, -0.5, 0.25, 2.0], [0.5, 1.5, -1.0, 0.0]],
    [[0, 1, 1, 0]],
    [0.0, 1.0, 0.0, 0.5],
)
CALLS = {
    "solve": lambda p: solve(p),
    "uniqueness_probe": lambda p: uniqueness_probe(p),
    "set_distance": lambda p: set_distance(p.space, p.targets, p.g_basis, p.b),
    "objective": lambda p: objective(p, p.g_basis.matrix[0]),
}
# (seminorm_map calls, two_norm_rows calls) per entry point
EXPECTED = {
    "euclid": {
        "solve": (1, 1),
        "uniqueness_probe": (1, 0),
        "set_distance": (1, 1),
        "objective": (0, 1),
    },
    "white": {
        "solve": (1, 1),
        "uniqueness_probe": (1, 1),
        "set_distance": (1, 1),
        "objective": (0, 1),
    },
}


@pytest.mark.parametrize("name, problem", [("euclid", EUCLID), ("white", WHITE)])
def test_approx_goes_through_module_entry_points(monkeypatch, name, problem):
    # A tracer that replaces approx.seminorm_map and approx.two_norm_rows
    # must still see every call after the kernels moved onto the classes.
    counts = Counter()
    for fname in ("seminorm_map", "two_norm_rows"):
        def counted(*args, _fn=getattr(approx, fname), _name=fname, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(approx, fname, counted)
    got = {}
    for label, call in CALLS.items():
        counts.clear()
        call(problem)
        got[label] = (counts["seminorm_map"], counts["two_norm_rows"])
    assert got == EXPECTED[name]


def test_used_white_space_is_collected():
    space = WhitePolynomial(2, (0.1, 0.3, 0.5, 0.9))
    rows = np.arange(6.0).reshape(2, 3)
    two_norm_rows(space, rows, rows[::-1])
    seminorm_map(space, [0.0, 1.0, 0.0])
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("problem", [EUCLID, WHITE], ids=["euclid", "white"])
def test_certificate_and_its_soundness_solve_once(monkeypatch, problem):
    # the soundness sweep checks h at the w_star the certificate's solve
    # found, rather than solving the same distance again
    calls = []
    engine = approx._engine

    def counted(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(approx, "_engine", counted)
    x0, basis, b = problem.targets[-1], problem.g_basis, problem.b
    cert = certificate(problem.space, x0, basis, b)
    assert certificate_soundness(problem.space, cert, x0, basis, b, samples=100).passed
    assert len(calls) == 1
