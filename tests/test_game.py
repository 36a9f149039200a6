import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combregret.forward import _successors
from combregret.game import (
    RankSubset,
    all_strategies,
    collapse,
    pack,
    packed_width,
    sentinel,
    unpack,
)
from combregret.optimal import MAX_HORIZON
from tests.support import (
    collapse_reference,
    one_member,
    raw_reference_step,
    reference_values,
    tie_consistent_perms,
)


def test_comb_construction():
    s = RankSubset.comb(5)
    assert s.ranks == (1, 3, 5)
    assert RankSubset.comb(2).ranks == (1,)
    assert RankSubset.comb(6).ranks == (1, 3, 5)
    assert RankSubset.comb(7).ranks == (1, 3, 5, 7)


def test_canonical_subset():
    assert RankSubset.of(5, (2, 4, 5)).canonical() == RankSubset.of(5, (1, 3))
    assert RankSubset.of(5, (1, 3)).canonical() == RankSubset.of(5, (1, 3))
    assert RankSubset.of(4, (1, 2, 3, 4)).canonical() == RankSubset.of(4, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        RankSubset.of(5, (0, 1))
    with pytest.raises(ValueError):
        RankSubset.of(5, (6,))


def test_parse():
    assert RankSubset.parse(5, "1,3,5").ranks == (1, 3, 5)
    assert RankSubset.parse(6, "comb").ranks == (1, 3, 5)
    with pytest.raises(ValueError, match="rank out of range"):
        RankSubset.parse(5, "6")
    with pytest.raises(ValueError):
        RankSubset.parse(5, "0")
    with pytest.raises(ValueError):
        RankSubset.parse(5, "2,2")
    with pytest.raises(ValueError):
        RankSubset.parse(5, "")
    with pytest.raises(ValueError, match=r"^expert count"):
        RankSubset.parse(9, "1")


def test_labels():
    assert RankSubset.of(5, (1, 3)).label() == "1,3"
    assert RankSubset.of(6, (1, 3, 6)).label() == "1,3,6"
    s = RankSubset.of(6, (1, 3, 6))
    assert str(s) == s.label()


def _children(states, subset):
    """(child_a, child_b, delta_a + delta_b) of each gap tuple in ``states``,
    by one ``_successors`` call."""
    k = subset.k
    codes = np.array([pack(gaps, k) for gaps in states], dtype=np.int64)
    child_codes, deltas = _successors(codes, k, *one_member((subset.gains(), subset.complement_gains()), k))
    children = [[unpack(c, k) for c in row] for row in child_codes.tolist()]
    return list(zip(*children, (deltas[0] + deltas[1]).tolist()))


def test_worked_step_examples():
    assert _children([(0, 0, 0, 0, 0)], RankSubset.of(5, (1, 3))) == [
        ((0, 0, 1, 1, 1), (0, 0, 0, 1, 1), 2)]
    assert _children([(0, 2, 2, 3, 7)], RankSubset.of(5, (1, 3, 5))) == [
        ((0, 2, 3, 4, 7), (0, 1, 2, 2, 7), 1)]
    assert _children([(0, 0, 3)], RankSubset.of(3, (1, 3))) == [((0, 1, 3), (0, 1, 4), 2)]
    # the oracle's raw-total step agrees, gap tuple for gap tuple
    assert raw_reference_step((0, 0, 3), (1, 3)) == ((0, 1, 3), 1)
    assert raw_reference_step((0, 0, 3), (2,)) == ((0, 1, 4), 1)


def _small_states(k, gap_max):
    for tail in itertools.combinations_with_replacement(range(gap_max + 1), k - 1):
        yield (0,) + tail


def test_step_enumeration_properties():
    for k in range(2, 6):
        states = list(_small_states(k, 6))
        for subset in all_strategies(k):
            for gaps, (a, b, d) in zip(states, _children(states, subset)):
                # branch A plays the subset itself, whose ranks include 1, so
                # its leader delta is 1 and branch B's is d - 1
                assert d in (1, 2)
                n_gains = len(subset.ranks)
                for out, delta, n in ((a, 1, n_gains), (b, d - 1, k - n_gains)):
                    # a valid gap vector: k gaps, the leader's zero first,
                    # then nondecreasing
                    assert len(out) == k and out[0] == 0
                    assert all(x <= y for x, y in zip(out, out[1:]))
                    assert sum(out) == sum(gaps) + k * delta - n


def test_complement_swap():
    # playing the complement subset swaps the two branches
    for k in (3, 5):
        states = list(_small_states(k, 4))
        for subset in all_strategies(k):
            if len(subset.ranks) == k:
                continue
            comp = RankSubset(k, subset.complement_ranks())
            swapped = [(b, a, d) for a, b, d in _children(states, comp)]
            assert _children(states, subset) == swapped


def test_vectorized_successors_match_step():
    # forward._successors, the transition every engine runs, against the
    # brute-force oracle's step on raw totals, code for code, for every
    # canonical subset
    for k in range(2, 9):
        states = list(_small_states(k, 5 if k <= 6 else 3))
        codes = [pack(gaps, k) for gaps in states]
        decoded = np.stack(unpack(np.array(codes), k), axis=1)
        assert [tuple(row) for row in decoded.tolist()] == states
        for subset in all_strategies(k):
            gains = (subset.gains(), subset.complement_gains())
            child_codes, deltas = _successors(np.array(codes), k, *one_member(gains, k))
            children = child_codes.T.tolist()
            sums = (deltas[0] + deltas[1]).tolist()
            for gaps, kids, d in zip(states, children, sums):
                (a, da), (b, db) = (raw_reference_step(gaps, r)
                                    for r in (subset.ranks, subset.complement_ranks()))
                assert (pack(a, k), pack(b, k), da + db) == (*kids, d)


def _pattern_states(k):
    """States of every tie pattern of k gaps (bit p set when gaps p + 1 and
    p + 2 tie): one whose gaps rise by 1 at each untied step, and, where a
    step rises, two whose largest gap is 2^width - 2, with the long rise
    first or last, so that an offset borrowing across fields shows."""
    top = (1 << packed_width(k)) - 2
    for pattern in range(1 << (k - 1)):
        rises = [1 - (pattern >> p & 1) for p in range(k - 1)]
        at = [p for p, r in enumerate(rises) if r]
        spreads = [rises]
        for long in at[:1] + at[-1:]:
            spreads.append([top - len(at) + 1 if p == long else r for p, r in enumerate(rises)])
        for spread in spreads:
            yield tuple(itertools.accumulate(spread, initial=0))


def _check_against_oracle(states, k, gains):
    """``_successors`` on ``states`` against the oracle's raw-total step,
    under the oracle's rank order and each tie-consistent permutation."""
    codes = np.array([pack(gaps, k) for gaps in states], dtype=np.int64)
    child_codes, deltas = _successors(codes, k, *one_member(gains, k))
    for gaps, kids, kid_deltas in zip(states, child_codes.T.tolist(), deltas.T.tolist()):
        for a, kid, delta in zip(gains, kids, kid_deltas):
            ranks = [r for r in range(1, k + 1) if a[r - 1]]
            for order in [None, *tie_consistent_perms(gaps)]:
                child, rise = raw_reference_step(gaps, ranks, order)
                assert (pack(child, k), rise) == (kid, delta), (gaps, a, order)


def test_successors_every_tie_pattern():
    # every tie pattern, with small gaps and with gaps near the top of their
    # fields, under every canonical subset and its complement
    for k in range(2, 9):
        states = sorted(set(_pattern_states(k)))
        assert {sum((g[p] == g[p + 1]) << p for p in range(k - 1)) for g in states} == set(
            range(1 << (k - 1)))
        assert max(g[-1] for g in states) == (1 << packed_width(k)) - 2
        gains = [g for s in all_strategies(k) for g in (s.gains(), s.complement_gains())]
        _check_against_oracle(states, k, gains)
        child_codes, deltas = _successors(np.zeros(0, dtype=np.int64), k, *one_member(gains, k))
        assert child_codes.shape == deltas.shape == (len(gains), 0)


@st.composite
def _random_steps(draw):
    k = draw(st.integers(2, 8))
    top = (1 << packed_width(k)) - 2
    tails = st.lists(st.integers(0, top), min_size=k - 1, max_size=k - 1)
    states = [(0, *sorted(tail)) for tail in draw(st.lists(tails, min_size=1, max_size=8))]
    family = draw(st.lists(st.sets(st.integers(2, k)), min_size=1, max_size=4))
    subsets = [RankSubset.of(k, {1} | ranks) for ranks in family]
    return k, states, [g for s in subsets for g in (s.gains(), s.complement_gains())]


@settings(max_examples=200, deadline=None)
@given(_random_steps())
def test_successors_match_oracle_random(case):
    # random sorted gaps below 2^width - 1 and a random family's gains
    k, states, gains = case
    _check_against_oracle(states, k, gains)


def test_encode_decode_roundtrip():
    for k in range(2, 7):
        for gaps in _small_states(k, 9):
            assert unpack(pack(gaps, k), k) == gaps
    assert pack((0,) * 5, 5) == 0
    # the widest gap of every k round-trips in every field, as an int and
    # through the array path as one int64 array; all k - 1 fields fit an int64
    widths = {2: 12, 3: 12, 4: 12, 5: 12, 6: 12, 7: 10, 8: 9}
    for k, width in widths.items():
        assert packed_width(k) == width
        top = (1 << width) - 1
        states = [(0,) * i + (top,) * (k - i) for i in range(1, k)]
        codes = [pack(gaps, k) for gaps in states]
        assert [unpack(code, k) for code in codes] == states
        assert pack(np.array(states, dtype=np.int64).T, k).tolist() == codes
        columns = unpack(np.array(codes, dtype=np.int64), k)
        assert list(zip(*(g.tolist() for g in columns))) == states
        assert pack((0,) + (top,) * (k - 1), k) < 1 << 63


def test_encode_injective():
    seen = {}
    count = 0
    for gaps in _small_states(5, 20):
        key = pack(gaps, 5)
        assert key not in seen
        seen[key] = gaps
        count += 1
    assert count == 10626


@st.composite
def _collapse_cases(draw):
    k = draw(st.integers(2, 8))
    top = (1 << packed_width(k)) - 1
    r = draw(st.integers(0, MAX_HORIZON))
    # small rises, rises around the split at r + 1, and any rise at all
    rise = st.one_of(st.integers(0, 2), st.integers(max(r - 1, 0), r + 2), st.integers(0, top))
    states = []
    for _ in range(draw(st.integers(1, 6))):
        gaps = itertools.accumulate(draw(st.lists(rise, min_size=k - 1, max_size=k - 1)), initial=0)
        states.append(tuple(min(g, top) for g in gaps))
    return k, r, states


@settings(max_examples=300, deadline=None)
@given(_collapse_cases())
def test_collapse_matches_tuple_reference(case):
    # the gaps up to the first split are kept, every gap below it becomes
    # 2^width - 2, and a collapsed state collapses to itself
    k, r, states = case
    assert sentinel(k) == (1 << packed_width(k)) - 2
    codes = np.array([pack(gaps, k) for gaps in states], dtype=np.int64)
    out = collapse(codes, k, r)
    assert out.tolist() == [pack(collapse_reference(gaps, r), k) for gaps in states]
    assert (collapse(out, k, r) == out).all()


def test_collapse_keeps_the_value():
    # the lemma behind the adaptive solver's layers: N(s, r) and its
    # maximizing members equal those of collapse(s, r), by a recursion on
    # raw gap tuples, over all subsets and over one pair of them
    for k in range(3, 6):
        states = list(_small_states(k, 6))
        codes = np.array([pack(gaps, k) for gaps in states], dtype=np.int64)
        families = (tuple(all_strategies(k)), (RankSubset.of(k, (1, 3)), RankSubset.of(k, (1, k))))
        for scaled in map(reference_values, families):
            moved = 0
            for r in range(6):
                images = np.stack(unpack(collapse(codes, k, r), k), axis=1).tolist()
                for gaps, image in zip(states, map(tuple, images)):
                    assert scaled(gaps, r) == scaled(image, r), (gaps, r)
                    moved += image != gaps
            assert moved > len(states)


def test_all_strategies():
    for k, n in ((2, 2), (3, 4), (4, 8), (5, 16), (6, 32)):
        subs = list(all_strategies(k))
        assert len(subs) == n
        labels = [s.label() for s in subs]
        assert labels == sorted(labels)
        assert len(set(labels)) == n
        for s in subs:
            assert s.ranks[0] == 1
        full = tuple(range(1, k + 1))
        assert any(s.ranks == full for s in subs)
