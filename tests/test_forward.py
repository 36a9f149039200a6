import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combregret.backend import EXACT, FLOAT
from combregret.dyadic import HALF, ONE, ZERO, Dyadic
from combregret import forward
from combregret.errors import BudgetError
from combregret.forward import (
    SERIES_HEADER,
    _at_least,
    _gain_rows,
    _member_sums,
    _Table,
    regret_series_fixed,
    write_series_csv,
)
from combregret.game import RankSubset, all_strategies, packed_width
from combregret.optimal import AdaptiveSolver
from combregret.oracle import k2_closed_form
from tests.support import reference_series


def test_exact_pruning_after_merge_and_delta():
    # k=2, {1}: day 2 holds (0,0) and (0,2) at 1/2 each; on day 3 three
    # branches of 1/4 merge into (0,1) = 3/4, which survives eps = 0.3, and
    # only (0,3) = 1/4 is dropped, after its leader delta was counted
    s = RankSubset.of(2, (1,))
    full = regret_series_fixed(2, s, 4)
    pruned = regret_series_fixed(2, s, 4, eps=0.3)
    assert full.frontier_peak == 3
    assert pruned.frontier_peak == 2
    assert pruned.values[:4] == full.values[:4]
    assert pruned.error_bounds == (ZERO, ZERO, ZERO, ZERO, Dyadic(1, 2))
    assert pruned.values[4] < full.values[4]


def test_exact_pruning_interval_and_mass_ledger():
    s = RankSubset.comb(5)
    full = regret_series_fixed(5, s, 15)
    for eps in (2.0 ** -12, 2.0 ** -10, 2.0 ** -6, 0.3):
        pruned = regret_series_fixed(5, s, 15, eps=eps)
        assert pruned.backend is EXACT
        for t in range(16):
            v, b = pruned.values[t], pruned.error_bounds[t]
            assert v <= full.values[t] <= v + b
        # bound(t+1) - bound(t) is the mass pruned through day t: it never
        # shrinks and never exceeds the unit of probability
        mass = [pruned.error_bounds[t + 1] - pruned.error_bounds[t] for t in range(15)]
        assert all(ZERO <= a <= b <= ONE for a, b in zip(mass, mass[1:]))
        assert mass[-1] > ZERO
    # a threshold above 1/2 drops all of day 1's mass, exactly one unit,
    # also when the cut needs more limbs than any count
    for eps in (0.6, 2.0 ** 40):
        gone = regret_series_fixed(5, s, 15, eps=eps)
        assert gone.frontier_peak == 1
        assert all(gone.error_bounds[t] == Dyadic(t - 1) for t in range(1, 16))


def test_small_exact_values():
    series = regret_series_fixed(2, RankSubset.of(2, (1,)), 3)
    assert series.values[0] == ZERO
    assert series.values[1] == HALF
    assert series.values[2] == HALF
    assert series.values[3] == Dyadic(3, 2)


def test_matches_closed_form_exact():
    series = regret_series_fixed(2, RankSubset.of(2, (1,)), 60)
    for t in range(1, 61):
        assert series.values[t] == k2_closed_form(t)


def test_full_set_regret_is_zero():
    for k in range(2, 7):
        full = RankSubset.of(k, tuple(range(1, k + 1)))
        series = regret_series_fixed(k, full, 12)
        for t in range(13):
            assert series.values[t] == ZERO


def test_complement_invariance():
    base = regret_series_fixed(5, RankSubset.of(5, (1, 3)), 8)
    other = regret_series_fixed(5, RankSubset(5, (2, 4, 5)), 8)
    for t in range(9):
        assert base.values[t] == other.values[t]
    assert other.subset.ranks == (1, 3)


def test_k4_subsets_1_3_and_1_4_tie_exactly():
    # not complements of each other, yet equal at every horizon checked
    a = regret_series_fixed(4, RankSubset.of(4, (1, 3)), 200)
    b = regret_series_fixed(4, RankSubset.of(4, (1, 4)), 200)
    assert a.values == b.values


def test_monotone_nondecreasing_exact():
    for subset in all_strategies(4):
        series = regret_series_fixed(4, subset, 10)
        for t in range(1, 11):
            assert series.values[t] >= series.values[t - 1]


def test_float_matches_exact_small_horizons():
    for k, ranks in ((2, (1,)), (3, (1, 3)), (5, (1, 3)), (5, (1, 3, 5))):
        s = RankSubset.of(k, ranks)
        exact = regret_series_fixed(k, s, 20, backend=EXACT)
        approx = regret_series_fixed(k, s, 20, backend=FLOAT, eps=0.0)
        for t in range(21):
            assert abs(approx.values[t] - float(exact.values[t])) <= 2.0 ** -40


@st.composite
def _float_cases(draw):
    k = draw(st.integers(2, 6))
    ranks = draw(st.sets(st.integers(2, k))) | {1}
    t_max = draw(st.integers(1, 24))
    eps = draw(st.sampled_from((0.0, 2.0 ** -8, 2.0 ** -16)))
    return k, RankSubset.of(k, ranks), t_max, eps


@settings(max_examples=100, deadline=None)
@given(_float_cases())
def test_float_matches_exact_property(case):
    # weights stay exact dyadics this early, so both engines prune the same
    # states and keep the same frontier
    k, subset, t_max, eps = case
    exact = regret_series_fixed(k, subset, t_max, EXACT, eps)
    approx = regret_series_fixed(k, subset, t_max, FLOAT, eps)
    assert approx.frontier_peak == exact.frontier_peak
    for t in range(t_max + 1):
        assert abs(approx.values[t] - float(exact.values[t])) <= 2.0 ** -40
        assert abs(approx.error_bounds[t] - float(exact.error_bounds[t])) <= 2.0 ** -40


def test_float_frontier_keeps_underflowed_states():
    # by T = 1100 the k = 2 walk's far tail has weights below the smallest
    # double: they round to 0.0 but are still reached, so eps = 0 keeps them
    s = RankSubset.of(2, (1,))
    approx = regret_series_fixed(2, s, 1100, FLOAT, 0.0)
    exact = regret_series_fixed(2, s, 1100, EXACT, 0.0)
    assert approx.frontier_peak == exact.frontier_peak == 551


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_table_budget(monkeypatch, backend):
    monkeypatch.setattr("combregret.forward.MAX_TABLE_ROWS", 100)
    s = RankSubset.comb(5)
    small = regret_series_fixed(5, s, 3, backend)
    assert [float(v) for v in small.values] == [float(v) for v in reference_series(s, 3, 0.0)[0]]
    with pytest.raises(BudgetError, match="table exceeded 100 rows"):
        regret_series_fixed(5, s, 30, backend)


def _poison_spare_rows(monkeypatch) -> list:
    """Fill the spare rows of every buffer the table grows with values a
    reader would trip on: codes at the int64 maximum, child rows at 2^40 (no
    row) and leader deltas at 100.  Returns a list that collects the number of
    spare cells poisoned per growth."""
    grow, poisoned = forward._grow, []

    def poison(a, size):
        out = grow(a, size)
        spare = out[..., a.shape[-1] :]
        if a.dtype == np.int8:
            spare[...] = 100
        elif a.dtype == np.int64:
            spare[...] = np.iinfo(np.int64).max if a.ndim == 1 else 1 << 40
        poisoned.append(spare.size)
        return out

    monkeypatch.setattr("combregret.forward._grow", poison)
    return poisoned


def _table_runs():
    comb = RankSubset.comb(5)
    solver = AdaptiveSolver(4, all_strategies(4), 12)
    return (
        regret_series_fixed(5, comb, 120, FLOAT),
        regret_series_fixed(5, comb, 60, EXACT),
        (solver.expected_max, solver.node_count, list(solver.trace())),
    )


def test_spare_table_rows_are_never_read(monkeypatch):
    # the table's buffers keep spare rows past its live ones; every engine
    # reads live rows only, so poisoned spares change no bit of any result
    clean = _table_runs()
    poisoned = _poison_spare_rows(monkeypatch)
    dirty = _table_runs()
    assert sum(poisoned) > 0
    for a, b in zip(clean[:2], dirty[:2]):
        assert a.values == b.values and a.error_bounds == b.error_bounds
        assert a.frontier_peak == b.frontier_peak
    assert clean[2] == dirty[2]


def _family_table(family):
    """A one-member table of every branch of ``family``, as the float sweep
    and the adaptive solver build it, holding the day-0 state."""
    k = family[0].k
    return _Table(k, _gain_rows(family).T.reshape(-1, 1), packed_width(k) * (k - 1), np.zeros(1, dtype=np.int64))


def test_find_sees_only_live_rows(monkeypatch):
    _poison_spare_rows(monkeypatch)
    table = _family_table((RankSubset.comb(5),))
    rows = np.zeros(1, dtype=np.int64)
    for _ in range(40):
        if len(table) < table.expanded.shape[0]:
            break
        table.expand(rows)
        rows = table.reach(table.children[:, rows])
    assert table.codes.shape[0] == len(table) < table.expanded.shape[0]
    top = np.iinfo(np.int64).max
    absent = int(table.codes.max()) + 1
    assert table.find(np.array([0, absent, top])).tolist() == [0, -1, -1]


def test_table_capacity_within_budget(monkeypatch):
    # the buffers grow by a quarter at a time, but never past the row budget:
    # at 400 rows the growth from 390 rows would overshoot, so it stops at 400
    monkeypatch.setattr("combregret.forward.MAX_TABLE_ROWS", 400)
    grow, sizes = forward._grow, []
    monkeypatch.setattr("combregret.forward._grow", lambda a, size: sizes.append(size) or grow(a, size))
    table = _family_table((RankSubset.comb(5),))
    rows = np.zeros(1, dtype=np.int64)
    with pytest.raises(BudgetError, match="table exceeded 400 rows"):
        for _ in range(200):
            table.expand(rows)
            rows = table.reach(table.children[:, rows])
    assert len(table) <= 400 and max(sizes) == table.expanded.shape[0] == 400


def test_reach_returns_the_child_rows_of_every_branch():
    # a family table: 8 members, 16 branches, each day from every row reached
    table = _family_table(tuple(all_strategies(4)))
    rows = np.zeros(1, dtype=np.int64)
    for _ in range(6):
        table.expand(rows)
        assert table.expanded[rows].all() and table.children.shape[0] == 16
        nxt = table.reach(branch[rows] for branch in table.children)
        assert (np.diff(nxt) > 0).all()
        assert nxt.tolist() == sorted(set(table.children[:, rows].ravel().tolist()))
        rows = nxt


def test_sweep_rows_in_first_reached_day_then_code_order():
    # the float sweep adds in row order, so this order fixes its digits
    table = _family_table((RankSubset.comb(5),))
    first = {0: 0}  # row -> the day it was first reached
    rows = np.zeros(1, dtype=np.int64)
    for day in range(1, 40):
        table.expand(rows)
        rows = table.reach(table.children[:, rows])
        assert (np.diff(rows) > 0).all()
        for row in rows.tolist():
            first.setdefault(row, day)
    keys = [(first[row], int(table.codes[row])) for row in range(len(table))]
    assert len(first) == len(table) and keys == sorted(keys)


def test_table_from_unsorted_distinct_codes():
    # a scan group's half starts its table from the old frontier's codes in
    # frontier order, which need not be code order
    start = np.array([50, 10, 90, 30], dtype=np.int64)
    table = _Table(5, _gain_rows((RankSubset.comb(5),)), packed_width(5) * 3 + 7, start.copy())
    assert table.find(start).tolist() == [0, 1, 2, 3]
    assert table.find(np.array([10, 70, 50, 100])).tolist() == [1, -1, 0, -1]
    table.add(np.array([70, 30, 100, 70, 10], dtype=np.int64))
    assert table.codes.tolist() == [50, 10, 90, 30, 70, 100]
    assert table.order.tolist() == [1, 3, 0, 4, 2, 5]
    assert table.find(np.array([100, 70, 90])).tolist() == [5, 4, 2]


def test_member_sums_of_an_interleaved_group():
    # a group's frontier lists its rows ascending, so members' pairs
    # interleave; member 2 holds no pairs, and some entries sit at the top
    # of the range, twice a full limb
    subsets = tuple(all_strategies(5))[:4]
    shift = packed_width(5) * 3 + 7
    members = np.array([3, 0, 1, 3, 0, 1, 1, 3, 0], dtype=np.int64)
    table = _Table(5, _gain_rows(subsets), shift, (members << shift) | np.arange(9))
    rows = np.array([8, 0, 5, 2, 7, 3, 1, 6, 4], dtype=np.int64)
    top = 2 * ((1 << forward.LIMB_BITS) - 1)
    limbs = [
        np.array([top, 5, top, 0, top, 7, 1, top, 3], dtype=np.int64),
        np.array([top, top, 4, top, 0, 2, top, 9, 1], dtype=np.int64),
    ]
    expected = [0] * 4
    for i, row in enumerate(rows.tolist()):
        expected[int(members[row])] += sum(int(limb[i]) << (forward.LIMB_BITS * j) for j, limb in enumerate(limbs))
    assert expected[2] == 0 and min(expected[:2] + expected[3:]) > 0
    assert _member_sums(table, rows, limbs) == expected
    empty = np.zeros(0, dtype=np.int64)
    assert _member_sums(table, empty, [empty, empty]) == [0] * 4


@st.composite
def _reference_cases(draw):
    k = draw(st.integers(2, 5))
    ranks = draw(st.sets(st.integers(2, k))) | {1}
    t_max = draw(st.integers(1, 90))
    eps = draw(st.sampled_from((0.0, 2.0 ** -20, 2.0 ** -40, 2.0 ** -70, 0.3, 0.6)))
    return RankSubset.of(k, ranks), t_max, eps


@settings(max_examples=100, deadline=None)
@given(_reference_cases())
def test_exact_matches_dict_reference_property(case):
    # T <= 90 crosses the limb boundaries at days 28, 56 and 84, in the
    # counts and, for eps = 2^-40 and 2^-70, in the pruning cut; eps = 0.3
    # prunes part of the frontier, and 0.6 empties it within two days for
    # most subsets, so the sweep runs on with no pairs
    subset, t_max, eps = case
    series = regret_series_fixed(subset.k, subset, t_max, EXACT, eps)
    assert (series.values, series.error_bounds, series.frontier_peak) == reference_series(
        subset, t_max, eps
    )


@st.composite
def _limb_comparisons(draw):
    # each pair is free, exactly equal, tied on the limbs above a lower one
    # that decides, or against the pruning cut's capped top limb of 2^bits
    bits = draw(st.sampled_from((28, 61)))
    limbs = draw(st.integers(1, 4))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.integers(0, (1 << bits * limbs) - 1))
        kind = draw(st.sampled_from(("free", "equal", "tie", "cap")))
        if kind == "free":
            b = draw(st.integers(0, (1 << bits * limbs) - 1))
        elif kind == "equal":
            b = a
        elif kind == "tie" and limbs > 1:
            low = bits * draw(st.integers(1, limbs - 1))
            b = a >> low << low | draw(st.integers(0, (1 << low) - 1))
        else:  # a one-limb "tie" has no lower limb to decide: a cap instead
            b = (1 << bits * limbs) + draw(st.integers(0, (1 << bits * (limbs - 1)) - 1))
        pairs.append((a, b))
    return bits, limbs, pairs


@settings(max_examples=200, deadline=None)
@given(_limb_comparisons())
def test_at_least_matches_python_integers(case):
    bits, limbs, pairs = case

    def rows(values):
        # normalized limbs, the top one unmasked
        return np.array([[v >> bits * j & ((1 << bits) - 1) if j < limbs - 1 else v >> bits * j
                          for v in values] for j in range(limbs)], dtype=np.int64)

    a, b = rows([a for a, _ in pairs]), rows([b for _, b in pairs])
    before = a.copy(), b.copy()
    assert _at_least(a, b, bits).tolist() == [x >= y for x, y in pairs]
    assert (a == before[0]).all() and (b == before[1]).all()


def test_pruning_interval_contains_exact():
    exact = regret_series_fixed(5, RankSubset.of(5, (1, 3)), 40, backend=EXACT)
    for eps in (2.0 ** -30, 2.0 ** -40):
        approx = regret_series_fixed(5, RankSubset.of(5, (1, 3)), 40, backend=FLOAT, eps=eps)
        for t in range(41):
            truth = float(exact.values[t])
            lo = approx.values[t] - 1e-11
            hi = approx.values[t] + approx.error_bounds[t] + 1e-11
            assert lo <= truth <= hi


@pytest.mark.parametrize("k, ranks, t_max, eps", [
    (5, (1, 3, 5), 120, 2.0 ** -50),
    (5, (1, 3), 120, 2.0 ** -50),
    (4, (1, 3), 80, 2.0 ** -30),
    (3, (1,), 60, 0.0),
], ids=["comb", "1,3", "k4", "k3-unpruned"])
def test_float_matches_dict_reference_bit_for_bit(k, ranks, t_max, eps):
    # the reference adds every weight, delta and pruned mass by first-reached
    # day, then code, so a frontier visited in any other order shows in the
    # last bits
    subset = RankSubset.of(k, ranks)
    series = regret_series_fixed(k, subset, t_max, FLOAT, eps)
    assert (series.values, series.error_bounds, series.frontier_peak) == reference_series(
        subset, t_max, eps, FLOAT
    )


def test_float_determinism():
    s = RankSubset.comb(5)
    a = regret_series_fixed(5, s, 60, backend=FLOAT)
    b = regret_series_fixed(5, s, 60, backend=FLOAT)
    assert a.values == b.values
    assert a.error_bounds == b.error_bounds


def test_series_bounds_zero_when_unpruned():
    series = regret_series_fixed(3, RankSubset.of(3, (1,)), 10, backend=FLOAT, eps=0.0)
    assert all(b == 0.0 for b in series.error_bounds)


def test_bad_arguments():
    with pytest.raises(ValueError):
        regret_series_fixed(5, RankSubset.of(5, (1, 3)), 0)
    with pytest.raises(ValueError):
        regret_series_fixed(4, RankSubset.of(5, (1, 3)), 5)
    for backend in (EXACT, FLOAT):
        for eps in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="prune threshold"):
                regret_series_fixed(2, RankSubset.of(2, (1,)), 3, backend, eps)
        # k - 1 packed gaps share 63 bits: 10 bits each at k = 7, 9 at k = 8
        for k, t_max in ((7, 1024), (8, 512)):
            with pytest.raises(ValueError, match="exceeds packed-gap range"):
                regret_series_fixed(k, RankSubset.comb(k), t_max, backend)


def test_csv_roundtrip_exact(tmp_path):
    series = regret_series_fixed(2, RankSubset.of(2, (1,)), 5)
    path = tmp_path / "series.csv"
    with open(path, "w") as fh:
        write_series_csv(series, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == SERIES_HEADER
    assert lines[3] == "3,0.75,3/2^2,0"
    t, regret, regret_exact, bound = lines[3].split(",")
    assert int(t) == 3
    assert float(regret) == 0.75
    assert regret_exact == Dyadic(3, 2).interchange()
    assert float(bound) == 0.0


def test_csv_roundtrip_float(tmp_path):
    series = regret_series_fixed(5, RankSubset.comb(5), 30, backend=FLOAT)
    path = tmp_path / "series.csv"
    with open(path, "w") as fh:
        write_series_csv(series, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == SERIES_HEADER and len(lines) == 31
    for line in lines[1:]:
        t, regret, regret_exact, _ = line.split(",")
        assert float(regret) == series.values[int(t)]
        assert regret_exact == ""
