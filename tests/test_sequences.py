"""Finite-prefix sequence diagnostics tests."""

import numpy as np
import pytest

from pairnorm import (
    EuclideanGram,
    SequencePrefix,
    cauchy_profile,
    convergence_profile,
    norm_limit_check,
    two_norm,
)

GRAM = EuclideanGram(3)
Y, Z = [0, 1, 0], [0, 0, 1]


def reciprocal_prefix(n_max=50):
    elements = [[1.0 / n, 0.0, 0.0] for n in range(1, n_max + 1)]
    return SequencePrefix(GRAM, elements, probe_y=Y, probe_z=Z)


def test_cauchy_reciprocal_tail():
    seq = reciprocal_prefix()
    prof = cauchy_profile(GRAM, seq, tail_from=25)
    bound = 1.0 / 25 - 1.0 / 50 + 1e-12
    assert prof.sup_y <= bound
    assert prof.sup_z <= bound
    # tail indices 25..49 hold 1/26..1/50, so the extreme pair is exact
    assert prof.sup_y == pytest.approx(1.0 / 26 - 1.0 / 50, abs=1e-15)
    assert prof.sup_y == prof.sup_z


def test_cauchy_constant_sequence():
    seq = SequencePrefix(GRAM, [[0.5, 0.5, 0]] * 6, probe_y=Y, probe_z=Z)
    prof = cauchy_profile(GRAM, seq, tail_from=0)
    assert prof.sup_y == 0.0
    assert prof.sup_z == 0.0


def test_cauchy_alternating_sequence():
    elements = [[(-1.0) ** n, 0.0, 0.0] for n in range(10)]
    seq = SequencePrefix(GRAM, elements, probe_y=Y, probe_z=Z)
    for tail in (0, 4, 8):
        prof = cauchy_profile(GRAM, seq, tail_from=tail)
        assert prof.sup_y == pytest.approx(2.0, rel=1e-12)


def test_cauchy_monotone_in_tail():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(4, 15))
        elements = rng.uniform(-1, 1, (n, 3))
        seq = SequencePrefix(GRAM, elements, probe_y=Y, probe_z=Z)
        sups = [cauchy_profile(GRAM, seq, t).sup_y for t in range(n - 1)]
        assert all(a >= b - 1e-15 for a, b in zip(sups, sups[1:]))


def test_cauchy_rejects_dependent_probes():
    seq = SequencePrefix(GRAM, [[1, 0, 0], [0, 1, 0]], probe_y=Y, probe_z=[0, 2, 0])
    with pytest.raises(ValueError, match="independent"):
        cauchy_profile(GRAM, seq, tail_from=0)


def test_cauchy_tail_bounds():
    seq = reciprocal_prefix(10)
    with pytest.raises(ValueError):
        cauchy_profile(GRAM, seq, tail_from=9)  # needs at least two tail points
    with pytest.raises(ValueError):
        cauchy_profile(GRAM, seq, tail_from=-1)


def test_cauchy_requires_probes():
    seq = SequencePrefix(GRAM, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="probe"):
        cauchy_profile(GRAM, seq, tail_from=0)


def test_convergence_reciprocal_series():
    elements = [[1.0 + 1.0 / n, 0.0, 0.0] for n in range(1, 21)]
    seq = SequencePrefix(GRAM, elements)
    profiles = convergence_profile(GRAM, seq, [1, 0, 0], [Y])
    series = profiles[0].series
    expected = [1.0 / n for n in range(1, 21)]
    assert np.allclose(series, expected, atol=1e-12)
    assert not profiles[0].blind_spot
    assert profiles[0].tail_max == pytest.approx(1.0 / 11, abs=1e-12)


def test_convergence_constant_sequence():
    seq = SequencePrefix(GRAM, [[0.7, 0.1, 0]] * 5)
    profiles = convergence_profile(GRAM, seq, [0.7, 0.1, 0], [Y, Z])
    for p in profiles:
        assert np.allclose(p.series, 0.0)
        assert p.tail_max == 0.0


def test_convergence_blind_spot_flagged():
    # probe parallel to every difference x_n - limit: seminorm sees nothing
    elements = [[1.0 / n, 0.0, 0.0] for n in range(1, 8)]
    seq = SequencePrefix(GRAM, elements)
    profiles = convergence_profile(GRAM, seq, [0, 0, 0], [[1, 0, 0], Y])
    assert profiles[0].blind_spot
    assert np.allclose(profiles[0].series, 0.0)
    assert not profiles[1].blind_spot


def test_convergence_requires_probes():
    seq = SequencePrefix(GRAM, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        convergence_profile(GRAM, seq, [0, 0, 0], [])


def test_norm_limit_reciprocal():
    elements = [[1.0 + 1.0 / n, 0.0, 0.0] for n in range(1, 21)]
    seq = SequencePrefix(GRAM, elements)
    rep = norm_limit_check(GRAM, seq, [1, 0, 0], Y)
    expected = [1.0 / n for n in range(1, 21)]
    assert np.allclose(rep.deviations, expected, atol=1e-12)
    assert rep.passed
    assert rep.max_deviation == pytest.approx(1.0, abs=1e-12)


def test_norm_limit_constant():
    seq = SequencePrefix(GRAM, [[0.3, 0.4, 0]] * 4)
    rep = norm_limit_check(GRAM, seq, [0.3, 0.4, 0], Y)
    assert rep.max_deviation == 0.0
    assert rep.passed


def test_norm_limit_dependent_probe():
    # y equal to the limit: ||limit, y|| = 0, deviations collapse to ||x_n, y||
    elements = [[1.0, 0.5 / n, 0.0] for n in range(1, 6)]
    seq = SequencePrefix(GRAM, elements)
    limit = [1.0, 0.0, 0.0]
    rep = norm_limit_check(GRAM, seq, limit, limit)
    direct = [two_norm(GRAM, e, limit) for e in elements]
    assert np.allclose(rep.deviations, direct, atol=1e-12)
    assert rep.passed


def test_reverse_triangle_pointwise_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        elements = rng.uniform(-1, 1, (n, 3))
        limit = rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3)
        seq = SequencePrefix(GRAM, elements)
        rep = norm_limit_check(GRAM, seq, limit, y)
        assert rep.passed, rep.violations


def test_sequence_prefix_validation():
    with pytest.raises(ValueError):
        SequencePrefix(GRAM, [[1, 0, 0]])  # too short
    with pytest.raises(ValueError):
        SequencePrefix(GRAM, [[1, 0], [0, 1]])  # wrong dimension


def test_sequence_prefix_names_first_bad_row():
    elements = np.random.default_rng(0).standard_normal((100_000, 3))
    elements[70_000, 1] = np.nan
    elements[90_000, 0] = np.inf
    with pytest.raises(ValueError, match=r"^elements\[70000\]: coordinates must be finite$"):
        SequencePrefix(GRAM, elements)
    rows = elements.tolist()
    rows[80_000] = [1.0, 2.0]  # ragged after the first non-finite row
    with pytest.raises(ValueError, match=r"^elements\[70000\]: coordinates must be finite$"):
        SequencePrefix(GRAM, rows)


@pytest.mark.parametrize(
    "elements, message",
    [
        ([[1, 0], [0, 1]], "elements[0]: dimension mismatch, expected 3 coordinates, got shape (2,)"),
        (
            [[1, 0, 0], [0, 1], [0, 0, np.nan]],
            "elements[1]: dimension mismatch, expected 3 coordinates, got shape (2,)",
        ),
        ([[1, 0, 0], [0, np.inf, 0], [0, 1]], "elements[1]: coordinates must be finite"),
        ([1.0, 2.0, 3.0], "elements[0]: dimension mismatch, expected 3 coordinates, got shape ()"),
        (
            [[[1, 0, 0]], [[0, 1, 0]]],
            "elements[0]: dimension mismatch, expected 3 coordinates, got shape (1, 3)",
        ),
        ([[1, 0, 0]], "a sequence prefix needs at least 2 elements"),
        ([], "a sequence prefix needs at least 2 elements"),
    ],
)
def test_sequence_prefix_messages(elements, message):
    with pytest.raises(ValueError) as info:
        SequencePrefix(GRAM, elements)
    assert str(info.value) == message


def test_sequence_prefix_copies_rows():
    elements = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    seq = SequencePrefix(GRAM, iter(elements.tolist()))
    assert np.array_equal(seq.elements, elements)
    seq = SequencePrefix(GRAM, elements)
    elements[0, 0] = 7.0
    assert seq.elements[0, 0] == 1.0
