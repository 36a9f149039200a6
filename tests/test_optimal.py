import math
import tracemalloc

import pytest

from combregret import forward, optimal
from combregret.dyadic import ZERO, Dyadic
from combregret.errors import BudgetError
from combregret.forward import _successors, regret_series_fixed
from combregret.game import RankSubset, all_strategies
from combregret.optimal import (
    MAX_HORIZON,
    AdaptiveSolver,
    _limb_count,
    best_fixed_subset,
    value_adaptive,
)
from tests.support import enumerate_states, raw_reference_step


def test_singleton_family_equals_fixed_series():
    for k in range(2, 6):
        for subset in all_strategies(k):
            series = regret_series_fixed(k, subset, 8)
            solver = AdaptiveSolver(k, [subset])
            for t in range(1, 9):
                assert solver.value(t).regret == series.values[t]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_singleton_family_across_int64_switch(k):
    # a value with up to 55 days left is one int64 limb, and two beyond;
    # both sides of the switch must match the forward engine exactly, and at
    # k = 2 both sides of the switch to three limbs after 115 days too
    assert [_limb_count(t) for t in (55, 56, 115, 116)] == [1, 2, 2, 3]
    horizons = (55, 56, 57, 58) + ((115, 116, 117, 118) if k == 2 else ())
    for subset in all_strategies(k):
        series = regret_series_fixed(k, subset, horizons[-1])
        solver = AdaptiveSolver(k, [subset])
        for t in horizons:
            assert solver.value(t).regret == series.values[t]


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
def test_k5_all_family_equals_13_at_t60():
    # the headline family, with two limbs past 57 days left: no adaptive
    # gain over the fixed [1,3]
    fixed = regret_series_fixed(5, RankSubset.of(5, (1, 3)), 60).values[60]
    assert value_adaptive(5, all_strategies(5), 60).regret == fixed


def test_all_subset_values_and_node_counts():
    # node_count is the number of states valued: |L_0| + ... + |L_{T-1}|
    k3 = value_adaptive(3, all_strategies(3), 80)
    assert k3.regret == Dyadic(5745867330449876380037831, 80)
    assert k3.node_count == 88_560
    assert value_adaptive(6, all_strategies(6), 13).node_count == 18_564
    # the closed form of an `all` family: layer d is every sorted gap vector
    # whose largest gap is at most d, C(d+k-1, k-1) states, so T layers hold
    # C(T+k-1, k) and the table C(T+k-1, k-1) rows
    for k, horizons in ((2, (1, 9, 40)), (3, (5, 20)), (4, (4, 15)), (5, (3, 10)), (6, (2, 7))):
        solver = AdaptiveSolver(k, all_strategies(k))
        for t in horizons:
            assert solver.value(t).node_count == math.comb(t + k - 1, k)
            assert len(solver.table) == math.comb(t + k - 1, k - 1)


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
    assert res.node_count == 312


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
    solver = AdaptiveSolver(6, k6_family)
    solver.value(13)
    nodes = list(solver.trace(13))
    state0, r0, maxers0 = nodes[0]
    assert state0 == (0,) * 6
    assert r0 == 13
    assert maxers0
    # the family is genuinely adaptive: somewhere along optimal play each
    # member is the unique best reply
    uniques = {maxers[0].ranks for _, _, maxers in nodes if len(maxers) == 1}
    assert (1, 3, 6) in uniques
    assert (1, 4, 6) in uniques
    assert solver.maximizers((0, 1, 2, 3, 3, 3), 9) == (RankSubset.of(6, (1, 4, 6)),)
    for state, r, maxers in nodes:
        assert r >= 1
        assert maxers
        assert state[0] == 0


@pytest.mark.parametrize("other", [13, 3])
def test_trace_raises_after_another_horizon_is_solved(k6_family, other):
    # a trace reads the values of the horizon the solver holds: solving
    # another one mid-trace must stop it, not let it go on with the wrong
    # maximizer sets (or fail on a missing layer)
    assert len(list(AdaptiveSolver(6, k6_family).trace(8))) == 52
    solver = AdaptiveSolver(6, k6_family)
    nodes = solver.trace(8)
    for _ in range(3):
        next(nodes)
    solver.value(other)
    with pytest.raises(RuntimeError, match="horizon 8"):
        list(nodes)


def test_full_set_never_unique_at_start():
    full = RankSubset.of(3, (1, 2, 3))
    res = value_adaptive(3, [full, RankSubset.of(3, (1,))], 4)
    assert res.solver.maximizers((0, 0, 0), 4) == (RankSubset.of(3, (1,)),)


def test_maximizers_skip_shorter_horizons():
    # T = 6, the horizon last solved, answers; T = 3, solved first, is
    # released and had no layer with 5 or 6 days left
    family = [RankSubset.of(4, (1, 3)), RankSubset.of(4, (1, 4))]
    solver = AdaptiveSolver(4, family)
    solver.value(3)
    solver.value(6)
    fresh = AdaptiveSolver(4, family)
    fresh.value(6)
    for state, r, maxers in fresh.trace(6):
        if r > 3:
            assert solver.maximizers(state, r) == maxers


def test_maximizers_on_missing_node():
    solver = AdaptiveSolver(2, [RankSubset.of(2, (1,))])
    solver.value(3)
    with pytest.raises(ValueError, match="node not computed"):
        solver.maximizers((0, 9), 1)


def test_maximizers_answer_exactly_the_layer_states():
    # L_d by a plain set walk with the oracle's raw-total step; every other
    # valid state, reachable at another day or never, must read "node not
    # computed"
    family = [RankSubset.of(4, (1, 3)), RankSubset.of(4, (1, 4))]
    layers = [{(0, 0, 0, 0)}]
    for _ in range(5):
        layers.append({
            raw_reference_step(gaps, ranks)[0]
            for gaps in layers[-1]
            for s in family
            for ranks in (s.ranks, s.complement_ranks())
        })
    res = value_adaptive(4, family, 6)
    answered = set()
    for state in enumerate_states(4, 9):
        for remaining in range(1, 7):
            if state in layers[6 - remaining]:
                assert res.solver.maximizers(state, remaining)
                answered.add((state, remaining))
            else:
                with pytest.raises(ValueError, match="node not computed"):
                    res.solver.maximizers(state, remaining)
    assert len(answered) == res.node_count == 19


def test_maximizers_never_alias_wide_gaps():
    # masked to the packed width, each of these states would read as the
    # computed all-tied start; k = 7 packs 10 bits per gap, k = 3 packs 12
    for k, gap in ((7, 1 << 10), (3, 1 << 12), (3, 1 << 64)):
        solver = AdaptiveSolver(k, [RankSubset.comb(k)])
        solver.value(3)
        assert solver.maximizers((0,) * k, 3) == (RankSubset.comb(k),)
        with pytest.raises(ValueError, match="node not computed"):
            solver.maximizers((0,) * (k - 1) + (gap,), 3)


def test_maximizers_validates_state():
    solver = AdaptiveSolver(3, [RankSubset.of(3, (1,))])
    solver.value(2)
    # (0, 0) packs to the same code as the computed (0, 0, 0)
    with pytest.raises(ValueError, match="expected k=3"):
        solver.maximizers((0, 0), 1)
    with pytest.raises(ValueError, match="nondecreasing"):
        solver.maximizers((0, 2, 1), 1)
    # the state is checked before the horizon, even where no node is valued
    with pytest.raises(ValueError, match="nondecreasing"):
        solver.maximizers((0, 2, 1), 0)
    assert solver.maximizers((0, 0, 0), 2) == (RankSubset.of(3, (1,)),)


def test_reproducible_and_shared_memo():
    fam = [RankSubset.of(4, (1, 3)), RankSubset.of(4, (1, 4))]
    a = AdaptiveSolver(4, fam)
    b = AdaptiveSolver(4, fam)
    nine = a.value(9)
    assert nine.regret == b.value(9).regret
    # a smaller horizon afterwards reuses the layers: it adds no rows
    sizes = len(a.table), len(a._layers)
    five_shared = a.value(5)
    fresh = AdaptiveSolver(4, fam).value(5)
    assert five_shared.regret == fresh.regret
    assert (len(a.table), len(a._layers)) == sizes
    assert five_shared.node_count == fresh.node_count < nine.node_count
    # horizons in ascending order: T = 9 appends table rows after T = 5's
    # layers were stored, and leaves every row T = 5 made as it was
    c = AdaptiveSolver(4, fam)
    c.value(5)
    table, n = c.table, len(c.table)
    # the live rows: past them the buffers hold spare capacity
    codes, expanded, children, deltas = (
        x[..., :n].copy() for x in (table.codes, table.expanded, table.children, table.deltas)
    )
    c.value(9)
    assert len(table) > n
    assert (table.codes[:n] == codes).all() and table.expanded[:n][expanded].all()
    assert (table.children[:, :n][:, expanded] == children[:, expanded]).all()
    assert (table.deltas[:, :n][:, expanded] == deltas[:, expanded]).all()
    assert list(c.trace(5)) == list(fresh.solver.trace(5))
    for state, r, maxers in fresh.solver.trace(5):
        assert c.maximizers(state, r) == fresh.solver.maximizers(state, r) == maxers


def test_solver_holds_one_horizon():
    # a map over horizons holds the values of its last horizon only
    family = list(all_strategies(3))
    solver = AdaptiveSolver(3, family)
    for t in range(1, 61):
        assert solver.value(t).regret == AdaptiveSolver(3, family).value(t).regret
    fresh = AdaptiveSolver(3, family)
    fresh.value(60)
    assert sum(a.nbytes for a in solver._values) == sum(a.nbytes for a in fresh._values)
    # a re-solve releases the values held before it builds the next ones
    tracemalloc.start()
    try:
        solver = AdaptiveSolver(3, family)
        solver.value(200)
        values = sum(a.nbytes for a in solver._values)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solver.value(199)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < values / 2
    # maximizers answers for the nodes of the last horizon solved only
    solver = AdaptiveSolver(3, family)
    solver.value(6)
    nodes = [(state, maxers) for state, r, maxers in solver.trace(6) if r == 5]
    solver.value(3)
    for state, _ in nodes:
        with pytest.raises(ValueError, match="node not computed"):
            solver.maximizers(state, 5)
    solver.value(6)
    assert [(state, solver.maximizers(state, 5)) for state, _ in nodes] == nodes


def test_each_state_stepped_once(monkeypatch):
    # the layers share one transition table, so each distinct state of
    # L_0 .. L_79 is stepped once under each member, however many layers
    # hold it: 3,240 states against 88,560 layer rows
    stepped = []

    def counting(codes, k, gains):
        stepped.append(codes.shape[0] * len(gains))  # two branches per member
        return _successors(codes, k, gains)

    monkeypatch.setattr("combregret.forward._successors", counting)
    family = list(all_strategies(3))
    assert value_adaptive(3, family, 80).node_count == 88_560
    assert sum(stepped) == 2 * len(family) * 3_240


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
        solver = AdaptiveSolver(6, all_strategies(6))
        runs.append((solver, solver.value(9), list(blocks)))
    (one, v1, one_blocks), (several, v2, several_blocks) = runs
    assert {n for _, n in one_blocks} == {1}
    # branches (64) and members (32) both went in several blocks of more than one
    assert {groups for groups, n in several_blocks if 1 < n < groups / 2} == {32, 64}
    assert several.table.children.shape[0] == 64
    for name in ("codes", "order", "children", "deltas", "expanded"):
        assert (getattr(several.table, name) == getattr(one.table, name)).all()
    assert v2.expected_max == v1.expected_max and v2.node_count == v1.node_count
    assert list(several.trace(9)) == list(one.trace(9))


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
        AdaptiveSolver(5, [])
    with pytest.raises(ValueError):
        AdaptiveSolver(5, [RankSubset.of(5, (1,)), RankSubset.of(4, (1,))])
    with pytest.raises(ValueError):
        AdaptiveSolver(4, [RankSubset.of(5, (1,))])
    solver = AdaptiveSolver(5, [RankSubset(5, (2, 4, 5)), RankSubset.of(5, (1, 3))])
    assert solver.family == (RankSubset.of(5, (1, 3)),)


def test_horizon_limits(monkeypatch):
    solver = AdaptiveSolver(2, [RankSubset.of(2, (1,))])
    assert solver.value(0).regret == ZERO
    with pytest.raises(ValueError):
        solver.value(-1)
    with pytest.raises(BudgetError):
        solver.value(MAX_HORIZON + 1)
    with pytest.raises(ValueError):
        best_fixed_subset(2, 0)
    monkeypatch.setattr("combregret.optimal.MAX_MEMO_NODES", 10)
    with pytest.raises(BudgetError, match="memo exceeded 10 nodes"):
        value_adaptive(3, all_strategies(3), 10)
