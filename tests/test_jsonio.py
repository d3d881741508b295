"""Schema parsing and deterministic serialization tests."""

import json

import numpy as np
import pytest

from pairnorm import EuclideanGram, SolverConfig, WhitePolynomial
from pairnorm.approx import BlendEntry, BlendReport, CertificateSoundness
from pairnorm.jsonio import (
    ValidationError,
    dumps,
    load_json,
    problem_from_dict,
    sequence_from_dict,
    solver_from_dict,
    space_from_dict,
    to_dict,
)

PROBLEM = {
    "space": {"kind": "euclidean_gram", "dim": 3},
    "targets": [[2, 0, 0], [0, 2, 0]],
    "g_basis": [[1, 0, 0], [0, 1, 0]],
    "b": [0, 0, 1],
    "solver": {"max_iters": 500},
}


def test_dumps_is_parseable_json():
    payload = {
        "a": [1.5, 2, True, None],
        "nested": {"x": [0.1], "empty": [], "obj": {}},
        "s": "text",
    }
    text = dumps(payload)
    assert json.loads(text) == {
        "a": [1.5, 2, True, None],
        "nested": {"x": [0.1], "empty": [], "obj": {}},
        "s": "text",
    }


def test_dumps_17_digit_floats():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(1.0) == "1"
    assert dumps([1 / 3]) == "[0.33333333333333331]"


def test_dumps_roundtrips_exactly():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(200).tolist()
    back = json.loads(dumps(vals))
    assert back == vals


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps({"v": float("inf")})


def test_dumps_inline_values_keep_their_bytes():
    # floats, ints and strings written inline in a dict, a list of plain
    # floats in one join: the same text as one value at a time
    payload = {
        "f": 0.1,
        "i": -3,
        "s": 'caf\u00e9 "q"\n',
        "floats": [0.5, 1e-300, -2.0, 1 / 3],
        "mixed": [1.5, 2, np.float64(0.25)],
        "tuple": (0.125,),
        "b": False,
    }
    assert dumps(payload) == (
        "{\n"
        '  "f": 0.10000000000000001,\n'
        '  "i": -3,\n'
        '  "s": "caf\\u00e9 \\"q\\"\\n",\n'
        '  "floats": [0.5, 1e-300, -2, 0.33333333333333331],\n'
        '  "mixed": [1.5, 2, 0.25],\n'
        '  "tuple": [0.125],\n'
        '  "b": false\n'
        "}"
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dumps_rejects_non_finite_inline(bad):
    with pytest.raises(ValueError, match="non-finite"):
        dumps([0.5, bad])
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"a": {"v": bad}})


def test_dumps_handles_numpy_scalars():
    text = dumps({"i": np.int64(4), "f": np.float64(0.5), "b": np.bool_(True),
                  "arr": np.array([1.0, 2.0])})
    assert json.loads(text) == {"i": 4, "f": 0.5, "b": True, "arr": [1.0, 2.0]}


def test_dumps_deterministic():
    obj = {"z": [0.1, 0.2], "a": {"k": 3.14159}}
    assert dumps(obj) == dumps(obj)


def test_space_roundtrip():
    for space in (EuclideanGram(4), WhitePolynomial(2, (0.0, 0.2, 0.4, 0.6))):
        assert space_from_dict(to_dict(space)) == space


def test_space_unknown_kind():
    with pytest.raises(ValidationError, match="kind"):
        space_from_dict({"kind": "banach", "dim": 3})


def test_space_missing_fields():
    with pytest.raises(ValidationError, match="dim"):
        space_from_dict({"kind": "euclidean_gram"})
    with pytest.raises(ValidationError, match="points"):
        space_from_dict({"kind": "white_polynomial", "degree": 2})


def test_space_invalid_values_are_validation_errors():
    with pytest.raises(ValidationError):
        space_from_dict({"kind": "euclidean_gram", "dim": 1})
    with pytest.raises(ValidationError):
        space_from_dict(
            {"kind": "white_polynomial", "degree": 1, "points": [0.0, 0.0]}
        )


def test_solver_roundtrip():
    cfg = SolverConfig(max_iters=500, tol=1e-7)
    assert solver_from_dict(to_dict(cfg)) == cfg


def test_solver_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown"):
        solver_from_dict({"seed": 1, "stepsize": 2.0})


def test_problem_parsing():
    problem, blend = problem_from_dict(PROBLEM)
    assert blend is None
    assert problem.space == EuclideanGram(3)
    assert problem.targets.shape == (2, 3)
    assert problem.g_basis.k == 2
    assert problem.solver.max_iters == 500
    assert problem.solver.tol == 1e-6  # default preserved


def test_problem_with_blend_section():
    data = dict(PROBLEM)
    data["blend"] = {"g1": [1, 1, 0], "g2": [1, 1, 0], "lambdas": [0.0, 0.5, 1.0]}
    _, blend = problem_from_dict(data)
    assert blend is not None
    assert blend["lambdas"] == [0.0, 0.5, 1.0]
    assert blend["g1"] == [1.0, 1.0, 0.0]


def test_problem_field_paths_in_errors():
    bad = dict(PROBLEM)
    bad["targets"] = [[2, 0, 0], [0, "x", 0]]
    with pytest.raises(ValidationError) as err:
        problem_from_dict(bad)
    assert "targets" in str(err.value)

    missing = {k: v for k, v in PROBLEM.items() if k != "b"}
    with pytest.raises(ValidationError, match=r"\bb\b"):
        problem_from_dict(missing)


def test_problem_semantic_errors_are_validation_errors():
    bad = dict(PROBLEM)
    bad["g_basis"] = [[1, 0, 0], [2, 0, 0]]
    with pytest.raises(ValidationError):
        problem_from_dict(bad)


def test_sequence_parsing():
    data = {
        "space": {"kind": "euclidean_gram", "dim": 3},
        "elements": [[1, 0, 0], [0.5, 0, 0], [0.25, 0, 0]],
        "probes": {"y": [0, 1, 0], "z": [0, 0, 1]},
        "limit": [0, 0, 0],
        "probe_dirs": [[0, 1, 0]],
    }
    space, seq, limit, dirs = sequence_from_dict(data)
    assert space == EuclideanGram(3)
    assert len(seq) == 3
    assert seq.probe_y is not None and seq.probe_z is not None
    assert limit == [0.0, 0.0, 0.0]
    assert dirs == [[0.0, 1.0, 0.0]]


def test_sequence_optional_parts_absent():
    data = {
        "space": {"kind": "euclidean_gram", "dim": 3},
        "elements": [[1, 0, 0], [0.5, 0, 0]],
    }
    space, seq, limit, dirs = sequence_from_dict(data)
    assert limit is None and dirs is None
    assert seq.probe_y is None


def test_sequence_bad_probes():
    data = {
        "space": {"kind": "euclidean_gram", "dim": 3},
        "elements": [[1, 0, 0], [0.5, 0, 0]],
        "probes": [1, 2],
    }
    with pytest.raises(ValidationError, match="probes"):
        sequence_from_dict(data)


def test_load_json_errors(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    with pytest.raises(ValidationError, match="malformed JSON at line 1"):
        load_json(str(bad))


def test_load_json_roundtrip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(dumps(PROBLEM), encoding="utf-8")
    assert load_json(str(path)) == json.loads(dumps(PROBLEM))


def test_to_dict_rules():
    report = BlendReport(1.0, np.float64(2.0), [BlendEntry(0.5, 1.5, True)])
    assert list(to_dict(report)) == ["value_g1", "value_g2", "entries", "passed"]
    assert to_dict(report)["entries"] == [{"lam": 0.5, "value": 1.5, "ok": True}]
    # a ``passed`` field keeps its place and is not repeated
    sound = CertificateSoundness(1.0, 1.0, 0.9, 1.0, 0.0, 1.0, 10, False)
    assert list(to_dict(sound))[-2:] == ["samples", "passed"]
    assert to_dict(WhitePolynomial(1, (0.0, 1.0))) == {
        "kind": "white_polynomial",
        "degree": 1,
        "points": [0.0, 1.0],
    }
    assert to_dict({"a": (np.arange(2.0), None, "s")}) == {"a": [[0.0, 1.0], None, "s"]}
