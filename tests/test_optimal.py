import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combregret import forward, optimal
from combregret.dyadic import ZERO, Dyadic
from combregret.errors import BudgetError
from combregret.forward import _gain_rows, _sorted_unique, _successors, _Table, regret_series_fixed, scan_exact
from combregret.game import RankSubset, all_strategies, pack, packed_width, unpack
from combregret.oracle import brute_regret_fixed
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
    reference_series,
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
    # through k = 8: at k = 7 and 8 the one-member table's shift is 60 and
    # 63 bits, so the state mask spans every bit below the sign
    for k in range(2, 9):
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
    assert res.node_count == 1_306_276


@pytest.mark.slow
def test_k5_best_fixed_at_t200():
    # the scan's slowest shape: 16 members to T = 200, 8 limbs
    best = best_fixed_subset(5, 200)
    assert best.maximizers == (RankSubset.of(5, (1, 3)),)
    assert best.regret == Dyadic(491239253406467103245791690841732370609786648042295343809375, 195)


def test_all_subset_values_and_node_counts():
    # node_count is the number of collapsed states valued, |L_0| + ... +
    # |L_{T-1}|, against the layers walked on gap tuples
    k3 = value_adaptive(3, all_strategies(3), 80)
    assert k3.regret == Dyadic(5745867330449876380037831, 80)
    assert k3.node_count == 30_658 == _nodes(3, all_strategies(3), 80)
    k6 = value_adaptive(6, all_strategies(6), 13)
    assert k6.node_count == 4_182 == _nodes(6, all_strategies(6), 13)
    assert len(k6.table) == 3_358
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
    assert res.node_count == 176 == _nodes(6, k6_family, 13)


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


def test_scan_matches_every_fixed_series():
    # one sweep over (member, state) pairs gives every subset's R(T), as
    # the dict recurrence, which shares no code with forward, does
    for k, t_max in ((2, 20), (3, 20), (4, 20), (5, 20), (6, 8), (7, 8), (8, 8)):
        series = [reference_series(s, t_max, 0.0)[0] for s in all_strategies(k)]
        for t in range(1, t_max + 1):
            assert list(scan_exact(k, t)) == [values[t] for values in series]


def test_scan_carries_across_limbs():
    # five 28-bit limbs by T = 120: every carry between them runs
    res = best_fixed_subset(3, 120)
    assert ":".join(s.label() for s in res.maximizers) == "1:1,3"
    assert res.regret == Dyadic(7740049020348251711427135862170904335, 120)


def test_scan_matches_oracle_k4():
    regrets = [scan_exact(4, t) for t in range(1, 8)]
    for i, subset in enumerate(all_strategies(4)):
        for t in range(1, 8):
            assert regrets[t - 1][i] == brute_regret_fixed(4, subset, t)


@pytest.mark.parametrize("pairs", [1, 40])
def test_scan_splits_groups(monkeypatch, pairs):
    # a group whose table passes SCAN_PAIRS rows carries on as two halves,
    # each over a table started from its frontier; k = 8 at T = 8 starts in
    # four groups of 32 members, as its pair codes leave 5 bits for members
    monkeypatch.setattr(forward, "SCAN_PAIRS", pairs)
    for k, t in ((5, 20), (8, 8)):
        assert list(scan_exact(k, t)) == [reference_series(s, t, 0.0)[0][t] for s in all_strategies(k)]


@pytest.mark.parametrize("pairs", [forward.SCAN_PAIRS, 40])
def test_pruned_groups_match_reference(monkeypatch, pairs):
    # a group charges each member's pruned mass to its own ledger, and runs
    # on when some members have no pairs left (eps = 0.3 and 0.6); k = 8 at
    # T = 10 fills each of its four groups up to member 31
    monkeypatch.setattr(forward, "SCAN_PAIRS", pairs)
    for k, t, eps in ((4, 12, 2.0**-6), (5, 20, 0.3), (6, 10, 0.6), (8, 10, 2.0**-5)):
        records, _ = forward._sweep_exact(tuple(all_strategies(k)), t, eps)
        for subset, record in zip(all_strategies(k), records):
            values, bounds, _ = reference_series(subset, t, eps)
            assert [Dyadic(r, day) for day, (r, _, _) in enumerate(record)] == list(values)
            assert [Dyadic(s0 * day - s1, day) for day, (_, s0, s1) in enumerate(record)] == list(bounds)


@st.composite
def _pairs(draw):
    # a horizon t, states whose gaps stay below it, and members whose pair
    # codes fit an int64
    k = draw(st.integers(2, 8))
    t = draw(st.integers(1, (1 << packed_width(k)) - 1))
    shift = packed_width(k) * (k - 2) + t.bit_length()
    tails = st.lists(st.integers(0, t - 1), min_size=k - 1, max_size=k - 1)
    states = [(0, *sorted(tail)) for tail in draw(st.lists(tails, min_size=1, max_size=8))]
    top = min(1 << (k - 1), 1 << (63 - shift)) - 1
    members = draw(st.lists(st.integers(0, top), min_size=len(states), max_size=len(states)))
    return k, shift, states, members


@settings(max_examples=200, deadline=None)
@given(_pairs())
def test_pair_step_matches_successors(case):
    # a member's child codes and leader deltas in the group layout, gain rows
    # of shape (2, members), are those of its two branches in the one-member
    # layout, shape (2 * members, 1), code for code, and its children keep
    # its member bits
    k, shift, states, members = case
    codes = np.array([pack(g, k) for g in states], dtype=np.int64)
    pairs = np.array(members, dtype=np.int64) << shift | codes
    gain_rows = _gain_rows(tuple(all_strategies(k)))
    table = _Table(k, gain_rows, shift, _sorted_unique(pairs))
    rows = table.find(pairs)
    table.expand(rows)
    children = table.codes[table.children[:, rows]]
    assert (children >> shift == members).all()
    want_codes, want_deltas = _successors(codes, k, gain_rows.T.reshape(-1, 1), packed_width(k) * (k - 1))
    at = np.arange(len(states))
    for b in (0, 1):
        branch = 2 * np.array(members) + b
        assert (children[b] & ((1 << shift) - 1)).tolist() == want_codes[branch, at].tolist()
        assert table.deltas[b, rows].tolist() == want_deltas[branch, at].tolist()


@pytest.mark.parametrize("k, t", [(4, 12), (6, 7)])
def test_each_pair_expanded_once(monkeypatch, k, t):
    # a scan whose one group never splits steps each (member, state) pair on
    # the frontier of days 0 .. t - 1 once, and no other pair
    stepped = []
    expand = _Table.expand

    def counting(table, rows):
        codes = table.codes[rows[~table.expanded[rows]]]
        gaps = np.stack(unpack(codes & ((1 << table.shift) - 1), k), axis=1).tolist()
        stepped.extend(zip((codes >> table.shift).tolist(), map(tuple, gaps)))
        expand(table, rows)

    monkeypatch.setattr(_Table, "expand", counting)
    scan_exact(k, t)
    assert len(stepped) == len(set(stepped))
    walk = set()
    for m, subset in enumerate(all_strategies(k)):
        level = {(0,) * k}
        for _ in range(t):
            walk |= {(m, gaps) for gaps in level}
            level = {
                raw_reference_step(gaps, ranks)[0]
                for gaps in level
                for ranks in (subset.ranks, subset.complement_ranks())
            }
    assert set(stepped) == walk


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
    # the layers share one table, so each distinct state of
    # L_0 .. L_79 is stepped once under each member, however many layers
    # hold it
    stepped = []

    def counting(codes, k, gain_rows, shift):
        stepped.append(codes.shape[0] * len(gain_rows))  # two branches per member
        return _successors(codes, k, gain_rows, shift)

    monkeypatch.setattr("combregret.forward._successors", counting)
    family = tuple(all_strategies(3))
    solver = AdaptiveSolver(3, family, 80)
    assert solver.node_count == _nodes(3, family, 80) == 30_658
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
    def no_table(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr("combregret.optimal._Table", no_table)
    family = [RankSubset.of(2, (1,))]
    with pytest.raises(BudgetError, match=f"horizon {MAX_HORIZON + 1} exceeds"):
        AdaptiveSolver(2, family, MAX_HORIZON + 1)
    with pytest.raises(ValueError, match="horizon must be nonnegative, got -1"):
        AdaptiveSolver(2, family, -1)
    with pytest.raises(ValueError, match="strategy family must be nonempty"):
        AdaptiveSolver(5, [], -1)
