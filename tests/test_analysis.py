import io
from fractions import Fraction

import pytest

from combregret.analysis import (
    DIFF_HEADER,
    ConstancySummary,
    DiffStatSeries,
    certified_lower_bounds,
    constancy_report,
    diff_stat,
    summary_lines,
    write_diff_csv,
)
from combregret.backend import FLOAT
from combregret.forward import regret_series_fixed
from combregret.game import RankSubset


def _series(k, ranks, t_max, **kw):
    return regret_series_fixed(k, RankSubset.of(k, ranks), t_max, **kw)


def test_diff_of_identical_series_is_zero():
    a = _series(5, (1, 3), 10)
    d = diff_stat(a, a)
    assert d.exact
    assert all(v == 0 for v in d.values)


def test_diff_exact_values():
    a = _series(5, (1, 3), 8)
    b = _series(5, (1, 3, 5), 8)
    d = diff_stat(a, b)
    assert d.values[1] == 0
    assert d.values[5] == Fraction(2475, 128)
    assert d.values[6] == 0
    assert d.label_a == "1,3" and d.label_b == "1,3,5"


def test_diff_antisymmetry_and_scale():
    a = _series(5, (1, 3), 8)
    b = _series(5, (1, 3, 5), 8)
    d1 = diff_stat(a, b)
    d2 = diff_stat(b, a)
    assert tuple(-v for v in d1.values) == d2.values
    d3 = diff_stat(a, b, scale=2000)
    assert tuple(2 * v for v in d1.values) == d3.values


def test_diff_validation():
    a = _series(5, (1, 3), 8)
    with pytest.raises(ValueError):
        diff_stat(a, _series(4, (1, 3), 8))
    with pytest.raises(ValueError):
        diff_stat(a, _series(5, (1, 3, 5), 9))
    with pytest.raises(ValueError):
        diff_stat(a, a, scale=0)


@pytest.mark.parametrize("stat", [diff_stat, certified_lower_bounds])
@pytest.mark.parametrize("b, scale, message", [
    pytest.param((4, (1, 3), 8), 1000, "series disagree on k: 5 vs 4", id="k"),
    pytest.param((5, (1, 3, 5), 9), 1000, "series cover different ranges: 8 vs 9", id="range"),
    pytest.param((5, (1, 3, 5), 8), 0, "scale must be positive, got 0", id="zero-scale"),
    pytest.param((5, (1, 3, 5), 8), -1000, "scale must be positive, got -1000", id="negative-scale"),
])
def test_pair_checks_match(stat, b, scale, message):
    # both statistics reject the same pairs with the same message; a
    # negative scale would flip the sign of every certified lower bound
    with pytest.raises(ValueError, match=message):
        stat(_series(5, (1, 3), 8), _series(*b), scale)


def test_certified_bounds_never_exceed_raw(sweep13, sweep135):
    d = diff_stat(sweep13, sweep135)
    certified = certified_lower_bounds(sweep13, sweep135)
    assert certified[0] == 0.0
    for t in range(1, 351):
        assert certified[t] <= d.values[t] + 1e-15
    # no pruning means no widening
    a = _series(3, (1,), 10, backend=FLOAT, eps=0.0)
    b = _series(3, (1, 3), 10, backend=FLOAT, eps=0.0)
    exact_d = diff_stat(a, b)
    for t, lo in enumerate(certified_lower_bounds(a, b)):
        assert lo == exact_d.values[t]
    # eps = 0.6 prunes {1}'s computed regret down to -1 by T = 5, whose
    # square alone would bound D(5) at 200 against the exact 5625/32
    a = _series(2, (1,), 8, backend=FLOAT, eps=0.6)
    b = _series(2, (1, 2), 8, backend=FLOAT, eps=0.6)
    assert a.values[5] == -1.0
    exact_d = diff_stat(_series(2, (1,), 8), _series(2, (1, 2), 8))
    assert exact_d.values[5] == Fraction(5625, 32)
    for t, lo in enumerate(certified_lower_bounds(a, b)):
        assert lo <= exact_d.values[t]


def test_constancy_report():
    flat = DiffStatSeries(5, "a", "b", 1000, False, (0.0,) + (7.5,) * 20)
    cs = constancy_report(flat, 5, 20)
    assert cs.minimum == cs.maximum == cs.mean == 7.5
    assert cs.slope == 0.0

    linear = DiffStatSeries(5, "a", "b", 1000, False, tuple(2.0 * t for t in range(21)))
    cs = constancy_report(linear, 1, 20)
    assert abs(cs.slope - 2.0) < 1e-12
    assert cs.minimum == 2.0 and cs.maximum == 40.0

    with pytest.raises(ValueError):
        constancy_report(flat, 10, 10)
    with pytest.raises(ValueError):
        constancy_report(flat, 0, 10)
    with pytest.raises(ValueError):
        constancy_report(flat, 5, 21)


def test_summary_lines_format():
    cs = ConstancySummary(100, 350, 1.0, 1.5, 1.25, 0.0)
    lines = summary_lines(cs)
    assert lines[0] == "window=100..350"
    assert lines[1] == "min=1"
    assert any(line.startswith("slope=") for line in lines)


def test_dominance_in_sweeps(sweep13, sweep135):
    d = diff_stat(sweep13, sweep135)
    assert d.values[6] == 0.0
    for t in range(7, 351):
        assert d.values[t] > 0.0


def test_diff_csv_roundtrip_exact():
    a = _series(5, (1, 3), 6)
    b = _series(5, (1, 3, 5), 6)
    d = diff_stat(a, b)
    buf = io.StringIO()
    write_diff_csv(d, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == DIFF_HEADER
    assert "5,2475/128" in text.splitlines()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [(int(t), Fraction(v)) for t, v in rows] == [(t, d.values[t]) for t in range(1, 7)]


def test_diff_csv_roundtrip_float(sweep13, sweep135):
    d = diff_stat(sweep13, sweep135)
    buf = io.StringIO()
    write_diff_csv(d, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == DIFF_HEADER and len(lines) == 351
    for line in lines[1:]:
        t, v = line.split(",")
        assert float(v) == d.values[int(t)]
