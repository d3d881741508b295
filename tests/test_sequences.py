"""Finite-prefix sequence diagnostics tests."""

import numpy as np
import pytest

import pairnorm.sequences as sequences
import pairnorm.spaces as spaces
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
    # the probes are scaled to unit length by the range rule (_unit_rows),
    # which neither overflows nor underflows, before the independence check
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
    # beyond the pair count, and chunkings whose last chunk holds one pair
    # (45 = 44 + 1 = 2 * 22 + 1 = 22 * 2 + 1); that last pair, of the
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
    # the probe is passed as one row, yet every value has the bits of a
    # tiled probe, though BLAS rounds a 1-row matmul differently
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


@pytest.mark.parametrize("space", [EuclideanGram(4), WHITE3])
@pytest.mark.parametrize("rows", [2, 3, 7])
def test_streamed_sequence_checks_keep_bits(space, rows, monkeypatch):
    # blocks of a few rows, the last of one row when rows = 3 or 7, against
    # the unblocked series
    rng = np.random.default_rng(rows)
    elements = rng.uniform(-1, 1, (22, 4))
    limit, probe, other = rng.uniform(-1, 1, (3, 4))
    seq = SequencePrefix(space, elements)
    tiled = np.tile(probe, (22, 1))
    monkeypatch.setattr(spaces, "_SWEEP_ROWS", rows)

    series = convergence_profile(space, seq, limit, [other, probe])[1].series
    assert series == two_norm_rows(space, elements - limit, tiled).tolist()
    lim_val = two_norm_rows(space, limit[None, :], probe[None, :])[0]
    deviations = norm_limit_check(space, seq, limit, probe).deviations
    assert deviations == np.abs(two_norm_rows(space, elements, tiled) - lim_val).tolist()


def prefix_rows(rng, shape, n, d, probe):
    """n elements of R^d in one of the shapes the pruned Cauchy sweep must
    keep to the bit."""
    lim = rng.standard_normal(d)
    if shape == "convergent":
        return lim + rng.standard_normal((n, d)) / np.arange(1, n + 1)[:, None]
    if shape == "random-walk":
        return np.cumsum(rng.standard_normal((n, d)), axis=0)
    if shape == "iid":
        return rng.standard_normal((n, d))
    if shape == "constant":
        return np.tile(lim, (n, 1))
    if shape == "collinear":  # every difference lies along the probe
        return np.outer(rng.standard_normal(n), probe)
    scale = 1e150 if shape == "scaled-up" else 1e-150
    return rng.standard_normal((n, d)) * scale


SHAPES = ["convergent", "random-walk", "iid", "constant", "collinear", "scaled-up", "scaled-down"]


@pytest.mark.parametrize("space", [EuclideanGram(4), WHITE3])
def test_cauchy_pruning_keeps_bits_property(space):
    # small chunks make short tails take the pruned path, and the default
    # sweeps them whole
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(
        shape=st.sampled_from(SHAPES),
        n=st.integers(2, 40),
        tail=st.floats(0.0, 1.0),
        chunk=st.sampled_from([2, 3, 7, sequences._PAIR_CHUNK]),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(shape, n, tail, chunk, seed):
        rng = np.random.default_rng(seed)
        y, z = rng.standard_normal((2, 4))
        seq = SequencePrefix(space, prefix_rows(rng, shape, n, 4, y), y, z)
        tail_from = int(tail * (n - 2))
        expected = unchunked_sups(space, seq, tail_from)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sequences, "_PAIR_CHUNK", chunk)
            prof = cauchy_profile(space, seq, tail_from)
        assert (prof.sup_y, prof.sup_z) == expected

    check()


def fixed_prefixes():
    rng = np.random.default_rng(14)
    y, z = [0, 1, 0, 0], [1, 0, 0.5, 0]
    for n in (2, 3, 4):
        yield f"n={n}", rng.uniform(-1, 1, (n, 4)), y, z
    # element 5 repeats the outlier element 0, so the widest pair through 0
    # ties to the bit with its twin through 5
    rows = rng.uniform(-1, 1, (12, 4))
    rows[[0, 5]] = [3.0, -2.0, 3.0, 2.0]
    yield "tie", rows, y, z
    for scale in (1e200, 1e-200):
        yield f"elements {scale:.0e}", rng.uniform(-1, 1, (12, 4)) * scale, y, z
    # p_y reaches about 1e200, beyond the range the slack is sized for
    yield "probe 1e200", rng.uniform(-1, 1, (12, 4)), [0, 1e200, 0, 0], z


@pytest.mark.parametrize("space", [EuclideanGram(4), WHITE3])
@pytest.mark.parametrize("chunk", [2, 4096])
@pytest.mark.parametrize("label, elements, y, z", list(fixed_prefixes()))
def test_cauchy_pruning_fixed_cases(space, chunk, label, elements, y, z, monkeypatch):
    seq = SequencePrefix(space, elements, y, z)
    monkeypatch.setattr(sequences, "_PAIR_CHUNK", chunk)
    for tail_from in range(len(elements) - 1):
        prof = cauchy_profile(space, seq, tail_from)
        assert (prof.sup_y, prof.sup_z) == unchunked_sups(space, seq, tail_from)


def test_cauchy_pruning_evaluates_few_pairs(monkeypatch):
    # x_j = lim + r_j / (j + 1), 448 x 16, at tail 0: the full sweep
    # evaluates 2 x 100 128 pairs; the pruned sweep passes about 1 % of that
    # many rows to the kernel and returns the same bits
    space = EuclideanGram(16)
    rng = np.random.default_rng(16)
    lim = rng.standard_normal(16)
    elements = lim + rng.standard_normal((448, 16)) / np.arange(1, 449)[:, None]
    y, z = rng.standard_normal((2, 16))
    seq = SequencePrefix(space, elements, y, z)
    expected = unchunked_sups(space, seq, 0)
    rows = []

    def counted(space, X, Y):
        rows.append(np.atleast_2d(X).shape[0])
        return two_norm_rows(space, X, Y)

    monkeypatch.setattr(sequences, "two_norm_rows", counted)
    prof = cauchy_profile(space, seq, 0)
    assert (prof.sup_y, prof.sup_z) == expected
    assert sum(rows) < 0.05 * 2 * (448 * 447 // 2)


@pytest.mark.parametrize("space", [EuclideanGram(4), WHITE3])
def test_cauchy_overflowing_difference_is_not_pruned(space, monkeypatch):
    # x_2 - x_5 lies along e1, to which y = 1e-300 e1 is blind: r_2 = r_5 =
    # 0, so only the slack of its triangle bound could keep the pair.  A
    # spread above 2^500 evaluates every pair instead: with x_2, x_5 =
    # +-1e307 the profile keeps the full sweep's bits, and with +-1e308 the
    # difference overflows and is a named error, never a NaN
    elements = np.random.default_rng(17).uniform(-1e300, 1e300, (10, 4))
    elements[:, 0] = 0.0
    probes = [1e-300, 0, 0, 0], [0, 1e-300, 0, 0]
    rows = []

    def counted(space, X, Y):
        rows.append(X.shape[0])
        return two_norm_rows(space, X, Y)

    monkeypatch.setattr(sequences, "_PAIR_CHUNK", 2)
    monkeypatch.setattr(sequences, "two_norm_rows", counted)
    elements[[2, 5, 9]] = [[1e307, 0, 0, 0], [-1e307, 0, 0, 0], [0, 0, 0, 0]]
    seq = SequencePrefix(space, elements, *probes)
    prof = cauchy_profile(space, seq, 0)
    assert sum(rows) >= 2 * 45  # no pair of the 10-element tail was pruned
    assert (prof.sup_y, prof.sup_z) == unchunked_sups(space, seq, 0)

    elements[[2, 5]] = [[1e308, 0, 0, 0], [-1e308, 0, 0, 0]]
    seq = SequencePrefix(space, elements, *probes)
    message = r"^element 2 and element 5 differ by 1\.11254 times the largest float in"
    with pytest.raises(ValueError, match=message):
        cauchy_profile(space, seq, 0)
    monkeypatch.undo()  # the one-chunk sweep of all pairs
    with pytest.raises(ValueError, match=message):
        cauchy_profile(space, seq, 0)


@pytest.mark.parametrize("space", [EuclideanGram(3), WhitePolynomial(2, (0.0, 0.3, 0.7, 1.0))])
def test_limit_overflow_is_named(space):
    # with a limit of -1e308, x_1 - limit overflows and is named; x_0 - limit
    # does not
    seq = SequencePrefix(space, [[1, 0, 0], [1e308, 0, 0], [1, 0, 0]], [0, 1, 0])
    message = r"^element 1 and the limit differ by 1\.11254 times the largest float"
    with pytest.raises(ValueError, match=message):
        convergence_profile(space, seq, [-1e308, 0, 0], [[0, 1, 0]])
    with pytest.raises(ValueError, match=message):
        norm_limit_check(space, seq, [-1e308, 0, 0], [0, 1, 0])
