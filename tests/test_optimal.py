import numpy as np
import pytest

from combregret import forward, optimal
from combregret.dyadic import ZERO, Dyadic
from combregret.errors import BudgetError
from combregret.forward import _successors, regret_series_fixed
from combregret.game import RankSubset, all_strategies, unpack
from combregret.optimal import (
    MAX_HORIZON,
    AdaptiveSolver,
    _limb_count,
    best_fixed_subset,
    value_adaptive,
)
from tests.support import (
    collapse_reference,
    collapsed_layers,
    raw_reference_step,
    reference_values,
)


def _nodes(k, family, t):
    """|L_0| + ... + |L_{t-1}| of horizon t, by the walk on gap tuples."""
    return sum(map(len, collapsed_layers(k, tuple(family), t)[:t]))


def _table_states(k, family, t):
    """The layers of horizon t and the raw children of all but the last."""
    layers = collapsed_layers(k, tuple(family), t)
    children = {
        raw_reference_step(gaps, ranks)[0]
        for layer in layers[:t]
        for gaps in layer
        for s in family
        for ranks in (s.ranks, s.complement_ranks())
    }
    return children.union(*layers)


def test_singleton_family_equals_fixed_series():
    for k in range(2, 6):
        for subset in all_strategies(k):
            series = regret_series_fixed(k, subset, 8)
            for t in range(1, 9):
                assert AdaptiveSolver(k, [subset], t).regret == series.values[t]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_singleton_family_across_int64_switch(k):
    # a value with up to 55 days left is one int64 limb, and two beyond;
    # both sides of the switch must match the forward engine exactly, and at
    # k = 2 both sides of the switch to three limbs after 115 days too
    assert [_limb_count(t) for t in (55, 56, 115, 116)] == [1, 2, 2, 3]
    horizons = (55, 56, 57, 58) + ((115, 116, 117, 118) if k == 2 else ())
    for subset in all_strategies(k):
        series = regret_series_fixed(k, subset, horizons[-1])
        for t in horizons:
            assert AdaptiveSolver(k, [subset], t).regret == series.values[t]


def test_k3_all_family_equals_comb_at_t100():
    # with two limbs past 57 days left, adaptive play over all four subsets
    # of k = 3 gains nothing over the fixed {1,3}
    fixed = regret_series_fixed(3, RankSubset.of(3, (1, 3)), 100).values[100]
    assert value_adaptive(3, all_strategies(3), 100).regret == fixed


def test_k3_all_family_in_small_blocks(monkeypatch):
    # blocks of 16 branch-rows split every layer's members, and each member's
    # values, two limbs with more than 55 days left, meet the max of the
    # members before it in _lex_maximum
    limbs = []

    def counting(a, b):
        limbs.append(a.shape[0])
        return lex_maximum(a, b)

    lex_maximum = optimal._lex_maximum
    monkeypatch.setattr("combregret.optimal._lex_maximum", counting)
    monkeypatch.setattr("combregret.forward.BLOCK_CELLS", 16)
    test_k3_all_family_equals_comb_at_t100()
    assert max(limbs) == 2


@pytest.mark.slow
def test_k5_all_family_equals_13_at_t80():
    # the headline family, with two limbs past 57 days left: no adaptive
    # gain over the fixed [1,3]
    fixed = regret_series_fixed(5, RankSubset.of(5, (1, 3)), 80).values[80]
    assert value_adaptive(5, all_strategies(5), 80).regret == fixed


@pytest.mark.slow
def test_k6_all_family_beats_136_at_t39():
    # past the raw solver's table budget: adaptive play over all 32 subsets
    # of k = 6 gains over the best fixed subset, {1,3,6}
    best = best_fixed_subset(6, 39)
    assert best.maximizers == (RankSubset.of(6, (1, 3, 6)),)
    assert best.regret == Dyadic(317477291097, 36)
    res = value_adaptive(6, all_strategies(6), 39)
    assert res.regret == Dyadic(79559529375, 34) > best.regret
    assert res.node_count == 1_503_397


def test_all_subset_values_and_node_counts():
    # node_count is the number of collapsed states valued, |L_0| + ... +
    # |L_{T-1}|, against the layers walked on gap tuples
    k3 = value_adaptive(3, all_strategies(3), 80)
    assert k3.regret == Dyadic(5745867330449876380037831, 80)
    assert k3.node_count == 31_789 == _nodes(3, all_strategies(3), 80)
    k6 = value_adaptive(6, all_strategies(6), 13)
    assert k6.node_count == 5_986 == _nodes(6, all_strategies(6), 13)
    assert len(k6.table) == 4_342
    # at every horizon, a solver's table holds exactly the states of its
    # layers and their raw children
    for k, horizons in ((2, (1, 9, 40)), (3, (5, 20)), (4, (4, 15)), (5, (3, 10)), (6, (2, 7))):
        family = list(all_strategies(k))
        for t in horizons:
            solver = AdaptiveSolver(k, family, t)
            assert solver.node_count == _nodes(k, family, t)
            states = _table_states(k, family, t)
            codes = np.stack(unpack(solver.table.codes, k), axis=1).tolist()
            assert len(solver.table) == len(states) == len(set(map(tuple, codes)) & states)


def test_family_monotonicity():
    # a larger family can only help the adversary
    base = value_adaptive(5, [RankSubset.of(5, (1, 3))], 10).regret
    for extra in all_strategies(5):
        grown = value_adaptive(5, [RankSubset.of(5, (1, 3)), extra], 10).regret
        assert grown >= base


def test_dominated_member_changes_nothing():
    alone = value_adaptive(5, [RankSubset.of(5, (1, 3))], 10)
    both = value_adaptive(5, [RankSubset.of(5, (1, 3)), RankSubset.comb(5)], 10)
    assert both.regret == alone.regret
    assert both.expected_max == alone.expected_max


def test_k6_t13_two_subset_family(k6_family):
    res = value_adaptive(6, k6_family, 13)
    assert res.expected_max == Dyadic(2341, 8)
    assert res.regret == Dyadic(677, 8)
    assert res.expected_max - res.regret == Dyadic(13, 1)
    assert ":".join(s.label() for s in res.family) == "1,3,6:1,4,6"
    assert res.node_count == 234 == _nodes(6, k6_family, 13)


def test_k6_t13_best_fixed():
    res = best_fixed_subset(6, 13)
    assert res.expected_max == Dyadic(37451, 12)
    assert res.regret == Dyadic(10827, 12)
    assert res.scanned == 32
    assert res.maximizers == (RankSubset.of(6, (1, 3, 6)),)
    assert res.maximizers[0].ranks == (1, 3, 6)


def test_best_fixed_small_cases():
    for t in range(1, 13):
        res = best_fixed_subset(2, t)
        assert res.maximizers[0].ranks == (1,)
    res5 = best_fixed_subset(5, 5)
    assert res5.maximizers[0].ranks == (1, 3)
    assert res5.scanned == 16
    # {1,3} and {1,4} tie exactly at k=4, so both are reported
    res4 = best_fixed_subset(4, 80)
    assert res4.maximizers == (RankSubset.of(4, (1, 3)), RankSubset.of(4, (1, 4)))


def test_adaptive_trace_k6(k6_family):
    solver = AdaptiveSolver(6, k6_family, 13)
    nodes = list(solver.trace())
    state0, r0, maxers0 = nodes[0]
    assert state0 == (0,) * 6
    assert r0 == 13
    assert maxers0
    # the family is genuinely adaptive: somewhere along optimal play each
    # member is the unique best reply
    uniques = {maxers[0].ranks for _, _, maxers in nodes if len(maxers) == 1}
    assert (1, 3, 6) in uniques
    assert (1, 4, 6) in uniques
    assert ((0, 1, 2, 3, 3, 3), 9, (RankSubset.of(6, (1, 4, 6)),)) in nodes
    for state, r, maxers in nodes:
        assert r >= 1
        assert maxers
        assert state[0] == 0


def test_full_set_never_unique_at_start():
    full = RankSubset.of(3, (1, 2, 3))
    res = value_adaptive(3, [full, RankSubset.of(3, (1,))], 4)
    assert next(res.trace()) == ((0, 0, 0), 4, (RankSubset.of(3, (1,)),))


@pytest.mark.parametrize("k, family, t", [
    (4, [RankSubset.of(4, (1, 3)), RankSubset.of(4, (1, 4))], 6),
    (6, [RankSubset.of(6, (1, 3, 6)), RankSubset.of(6, (1, 4, 6))], 13),
    (3, list(all_strategies(3)), 10),
], ids=["k4-1,3:1,4", "k6-1,3,6:1,4,6", "k3-all"])
def test_trace_matches_the_raw_recursion(k, family, t):
    # every traced state is a valid gap vector whose collapse lies in the
    # layer of its day, answered as a recursion on the raw state answers,
    # and the trace is the breadth-first walk over that recursion's
    # maximizers
    layers = collapsed_layers(k, tuple(family), t)
    scaled = reference_values(family)
    nodes = list(AdaptiveSolver(k, family, t).trace())
    for state, r, maxers in nodes:
        assert len(state) == k and state[0] == 0
        assert all(x <= y for x, y in zip(state, state[1:]))
        assert collapse_reference(state, r) in layers[t - r]
        assert maxers == tuple(family[m] for m in scaled(state, r)[1])
    walk, level = set(), {((0,) * k, t)}
    while level:
        walk |= level
        level = {
            (raw_reference_step(state, ranks)[0], r - 1)
            for state, r in level
            if r > 1
            for m in scaled(state, r)[1]
            for ranks in (family[m].ranks, family[m].complement_ranks())
        }
    traced = [(state, r) for state, r, _ in nodes]
    assert len(set(traced)) == len(traced)
    assert set(traced) == walk


def test_reproducible_and_shared_memo():
    # two solvers of one horizon agree on every result, and a longer horizon
    # values more states
    fam = [RankSubset.of(4, (1, 3)), RankSubset.of(4, (1, 4))]
    counts = []
    for t in (5, 9):
        a, b = AdaptiveSolver(4, fam, t), AdaptiveSolver(4, fam, t)
        assert a.regret == b.regret and a.expected_max == b.expected_max
        assert a.node_count == b.node_count
        assert list(a.trace()) == list(b.trace())
        counts.append(a.node_count)
    assert counts[0] < counts[1]


def test_each_state_stepped_once(monkeypatch):
    # the layers share one transition table, so each distinct state of
    # L_0 .. L_79 is stepped once under each member, however many layers
    # hold it
    stepped = []

    def counting(codes, k, gains):
        stepped.append(codes.shape[0] * len(gains))  # two branches per member
        return _successors(codes, k, gains)

    monkeypatch.setattr("combregret.forward._successors", counting)
    family = tuple(all_strategies(3))
    solver = AdaptiveSolver(3, family, 80)
    assert solver.node_count == _nodes(3, family, 80) == 31_789
    states = set().union(*collapsed_layers(3, family, 80)[:80])
    assert sum(stepped) == 2 * len(family) * len(states)
    assert len(states) < solver.node_count


def test_blocked_steps_match_one_block(monkeypatch):
    # the 64 branches of the k = 6 all-family table, their child rows looked
    # up and valued in blocks of several branches, against one block per
    # layer; states are stepped by table lookup, not in blocks
    blocks = []

    def counting(branches, rows, pair=1):
        out = branch_blocks(branches, rows, pair)
        blocks.append((branches // pair, len(out)))
        return out

    branch_blocks = forward._branch_blocks
    monkeypatch.setattr("combregret.forward._branch_blocks", counting)
    monkeypatch.setattr("combregret.optimal._branch_blocks", counting)
    runs = []
    for cells in (1 << 40, 200):
        monkeypatch.setattr("combregret.forward.BLOCK_CELLS", cells)
        blocks.clear()
        runs.append((AdaptiveSolver(6, all_strategies(6), 9), list(blocks)))
    (one, one_blocks), (several, several_blocks) = runs
    assert {n for _, n in one_blocks} == {1}
    # branches (64) and members (32) both went in several blocks of more than one
    assert {groups for groups, n in several_blocks if 1 < n < groups / 2} == {32, 64}
    assert several.table.children.shape[0] == 64
    for name in ("codes", "order", "children", "deltas", "expanded"):
        assert (getattr(several.table, name) == getattr(one.table, name)).all()
    assert several.expected_max == one.expected_max and several.node_count == one.node_count
    assert list(several.trace()) == list(one.trace())


def test_node_budget_counts_node_count(monkeypatch):
    # the budget admits exactly node_count states, checked before each layer
    # is stepped
    need = value_adaptive(3, all_strategies(3), 10).node_count
    monkeypatch.setattr("combregret.optimal.MAX_MEMO_NODES", need)
    assert value_adaptive(3, all_strategies(3), 10).node_count == need
    monkeypatch.setattr("combregret.optimal.MAX_MEMO_NODES", need - 1)
    with pytest.raises(BudgetError, match=f"memo exceeded {need - 1} nodes"):
        value_adaptive(3, all_strategies(3), 10)


def test_family_validation():
    with pytest.raises(ValueError):
        AdaptiveSolver(5, [], 1)
    with pytest.raises(ValueError):
        AdaptiveSolver(5, [RankSubset.of(5, (1,)), RankSubset.of(4, (1,))], 1)
    with pytest.raises(ValueError):
        AdaptiveSolver(4, [RankSubset.of(5, (1,))], 1)
    solver = AdaptiveSolver(5, [RankSubset(5, (2, 4, 5)), RankSubset.of(5, (1, 3))], 1)
    assert solver.family == (RankSubset.of(5, (1, 3)),)


def test_horizon_limits(monkeypatch):
    family = [RankSubset.of(2, (1,))]
    solver = AdaptiveSolver(2, family, 0)
    assert solver.t == 0 and solver.regret == ZERO and solver.node_count == 0
    with pytest.raises(ValueError):
        AdaptiveSolver(2, family, -1)
    with pytest.raises(BudgetError):
        AdaptiveSolver(2, family, MAX_HORIZON + 1)
    with pytest.raises(ValueError):
        best_fixed_subset(2, 0)
    monkeypatch.setattr("combregret.optimal.MAX_MEMO_NODES", 10)
    with pytest.raises(BudgetError, match="memo exceeded 10 nodes"):
        value_adaptive(3, all_strategies(3), 10)


def test_construction_checks_inputs_before_any_work(monkeypatch):
    # the family first, then the horizon, and only then the table
    def no_table(family):
        raise AssertionError("the transition table was built")

    monkeypatch.setattr("combregret.optimal._TransitionTable", no_table)
    family = [RankSubset.of(2, (1,))]
    with pytest.raises(BudgetError, match=f"horizon {MAX_HORIZON + 1} exceeds"):
        AdaptiveSolver(2, family, MAX_HORIZON + 1)
    with pytest.raises(ValueError, match="horizon must be nonnegative, got -1"):
        AdaptiveSolver(2, family, -1)
    with pytest.raises(ValueError, match="strategy family must be nonempty"):
        AdaptiveSolver(5, [], -1)
