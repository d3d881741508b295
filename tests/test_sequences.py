"""Finite-prefix sequence diagnostics tests."""

import numpy as np
import pytest

import pairnorm.sequences as sequences
from pairnorm import (
    EuclideanGram,
    SequencePrefix,
    WhitePolynomial,
    cauchy_profile,
    convergence_profile,
    norm_limit_check,
    two_norm,
    two_norm_rows,
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


@pytest.mark.parametrize("space", [GRAM, WhitePolynomial(2, (0.0, 0.25, 0.75, 1.0))])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_cauchy_extreme_probe_scales(space, scale):
    # the probes are normalized by _row_norms, which neither overflows nor
    # underflows, before the independence check
    elements = np.random.default_rng(4).uniform(-1, 1, (9, 3))
    unit = cauchy_profile(space, SequencePrefix(space, elements, Y, [1, 0, 0]), 0)
    seq = SequencePrefix(space, elements, [0, scale, 0], [scale, 0, 0])
    prof = cauchy_profile(space, seq, tail_from=0)
    assert prof.sup_y == pytest.approx(scale * unit.sup_y, rel=1e-12, abs=0)
    assert prof.sup_z == pytest.approx(scale * unit.sup_z, rel=1e-12, abs=0)


def test_cauchy_probe_margin_message():
    seq = SequencePrefix(GRAM, [[1, 0, 0], [0, 1, 0]], probe_y=Y, probe_z=[0, 1, 1e-9])
    with pytest.raises(
        ValueError,
        match=r"^probes y and z must be linearly independent \(singular-value ratio",
    ):
        cauchy_profile(GRAM, seq, tail_from=0)
    seq = SequencePrefix(GRAM, [[1, 0, 0], [0, 1, 0]], probe_y=Y, probe_z=[0, 0, 0])
    with pytest.raises(ValueError, match="probes must be nonzero"):
        cauchy_profile(GRAM, seq, tail_from=0)


WHITE3 = WhitePolynomial(3, tuple(np.linspace(0.0, 1.0, 6)))


def unchunked_sups(space, seq, tail_from):
    """All pair differences of the tail and tiled probes in one batch."""
    tail = seq.elements[tail_from:]
    i, j = np.triu_indices(tail.shape[0], 1)
    diffs = tail[i] - tail[j]
    return tuple(
        float(two_norm_rows(space, diffs, np.tile(p, (diffs.shape[0], 1))).max())
        for p in (seq.probe_y, seq.probe_z)
    )


@pytest.mark.parametrize("space", [EuclideanGram(4), WHITE3])
@pytest.mark.parametrize("chunk", [46, 45, 44, 22, 2])
def test_cauchy_chunks_keep_bits(space, chunk, monkeypatch):
    # a 10-element tail has 45 pairs: one chunk short of, equal to and
    # beyond the pair count, and chunkings whose last chunk would hold one
    # pair (45 = 44 + 1 = 2 * 22 + 1 = 22 * 2 + 1); that last pair, of the
    # last two elements, is the widest, so its bits decide both suprema
    rng = np.random.default_rng(chunk)
    elements = rng.uniform(-1, 1, (13, 4))
    elements[-2:] += [[-7.0, -3.0, 5.0, 1.0], [7.0, 3.0, -5.0, -1.0]]
    seq = SequencePrefix(space, elements, probe_y=[0, 1, 0, 0], probe_z=[1.0, -0.5, 0.25, 0.0])
    expected = unchunked_sups(space, seq, 3)
    monkeypatch.setattr(sequences, "_PAIR_CHUNK", chunk)
    prof = cauchy_profile(space, seq, tail_from=3)
    assert (prof.sup_y, prof.sup_z) == expected


@pytest.mark.parametrize("n", [2, 3, 17, 1000])
@pytest.mark.parametrize("degree", [2, 3, 5])
def test_white_probe_series_match_tiled_bits(n, degree):
    # the probe is passed once, yet every value has the bits of a tiled
    # probe; a 1-row matmul would round differently on this space
    space = WhitePolynomial(degree, tuple(np.linspace(0.0, 1.0, 2 * degree)))
    rng = np.random.default_rng([n, degree])
    elements = rng.uniform(-1, 1, (n, degree + 1))
    limit, probe = rng.uniform(-1, 1, (2, degree + 1))
    seq = SequencePrefix(space, elements)
    tiled = np.tile(probe, (n, 1))

    series = convergence_profile(space, seq, limit, [probe])[0].series
    assert series == two_norm_rows(space, elements - limit, tiled).tolist()
    lim_val = two_norm_rows(space, limit[None, :], probe[None, :])[0]
    deviations = norm_limit_check(space, seq, limit, probe).deviations
    assert deviations == np.abs(two_norm_rows(space, elements, tiled) - lim_val).tolist()
