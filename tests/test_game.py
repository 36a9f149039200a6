import itertools

import numpy as np
import pytest

from combregret.forward import _branch_gains, _successors, _unpack
from combregret.game import (
    RankSubset,
    all_strategies,
    apply_gains,
    decode_state,
    encode_state,
    initial_state,
    pack,
    packed_width,
    step,
    unpack,
    validate_state,
)
from tests.support import raw_reference_step, tie_consistent_perms, tied_states


def test_initial_state():
    assert initial_state(2) == (0, 0)
    assert initial_state(6) == (0,) * 6
    with pytest.raises(ValueError):
        initial_state(1)
    with pytest.raises(ValueError):
        initial_state(9)


def test_validate_state():
    validate_state((0, 1, 5))
    with pytest.raises(ValueError):
        validate_state((1, 2))
    with pytest.raises(ValueError):
        validate_state((0, 2, 1))
    with pytest.raises(ValueError):
        validate_state((0,))


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


def _step(gaps, subset):
    """step on gap tuples: (child_a, child_b, delta_a + delta_b)."""
    k = len(gaps)
    ca, cb, d = step(encode_state(gaps), k, subset.gains(), subset.complement_gains())
    return decode_state(ca, k), decode_state(cb, k), d


def test_worked_step_examples():
    assert _step((0, 0, 0, 0, 0), RankSubset.of(5, (1, 3))) == (
        (0, 0, 1, 1, 1), (0, 0, 0, 1, 1), 2)
    assert _step((0, 2, 2, 3, 7), RankSubset.of(5, (1, 3, 5))) == (
        (0, 2, 3, 4, 7), (0, 1, 2, 2, 7), 1)
    assert _step((0, 0, 3), RankSubset.of(3, (1, 3))) == ((0, 1, 3), (0, 1, 4), 2)
    # codes in, codes out
    assert step(0, 3, (1, 0, 1), (0, 1, 0)) == (encode_state((0, 0, 1)), encode_state((0, 1, 1)), 2)
    with pytest.raises(ValueError, match="k=3 entries"):
        step(0, 3, (1, 0), (0, 1, 1))


def _small_states(k, gap_max):
    for tail in itertools.combinations_with_replacement(range(gap_max + 1), k - 1):
        yield (0,) + tail


def test_step_enumeration_properties():
    for k in range(2, 6):
        subsets = list(all_strategies(k))
        for gaps in _small_states(k, 6):
            total = sum(gaps)
            for subset in subsets:
                a, b, d = _step(gaps, subset)
                # branch A plays the subset itself, whose ranks include 1, so
                # its leader delta is 1 and branch B's is d - 1
                assert d in (1, 2)
                n_gains = len(subset.ranks)
                for out, delta, n in ((a, 1, n_gains), (b, d - 1, k - n_gains)):
                    validate_state(out)
                    assert sum(out) == total + k * delta - n


def test_complement_swap():
    # playing the complement subset swaps the two branches
    for k in (3, 5):
        for gaps in _small_states(k, 4):
            code = encode_state(gaps)
            for subset in all_strategies(k):
                if len(subset.ranks) == k:
                    continue
                comp = RankSubset(k, subset.complement_ranks())
                ca, cb, d = step(code, k, subset.gains(), subset.complement_gains())
                assert step(code, k, comp.gains(), comp.complement_gains()) == (cb, ca, d)


def test_apply_gains_matches_step():
    for gaps in _small_states(4, 5):
        for subset in all_strategies(4):
            sa, da = apply_gains(gaps, subset.gains())
            sb, db = apply_gains(gaps, subset.complement_gains())
            assert _step(gaps, subset) == (sa, sb, da + db)


def test_vectorized_successors_match_step():
    # forward._successors, the transition every engine runs, against the
    # scalar reference, code for code
    for k in range(2, 9):
        states = list(_small_states(k, 5 if k <= 6 else 3))
        codes = [encode_state(gaps) for gaps in states]
        assert [tuple(row) for row in _unpack(np.array(codes), k).tolist()] == states
        for subset in all_strategies(k):
            child_codes, deltas = _successors(np.array(codes), k, _branch_gains(subset))
            children = child_codes.T.tolist()
            sums = (deltas[0] + deltas[1]).tolist()
            for code, kids, d in zip(codes, children, sums):
                assert step(code, k, subset.gains(), subset.complement_gains()) == (*kids, d)


def test_tie_permutation_invariance():
    # ranks within a tie block are interchangeable: permuting which tied
    # expert receives a gain must not change the successor state
    states = tied_states(5, 20) + tied_states(6, 12)
    assert len(states) >= 10_000
    checked = 0
    for gaps in states:
        k = len(gaps)
        perms = tie_consistent_perms(gaps)
        if not perms:
            continue
        for subset in (RankSubset.comb(k), RankSubset.of(k, (1,))):
            base = apply_gains(gaps, subset.gains())
            for perm in perms:
                assert raw_reference_step(gaps, subset.gains(), perm) == base
                checked += 1
    assert checked >= 10_000


def test_encode_decode_roundtrip():
    for k in range(2, 7):
        for gaps in _small_states(k, 9):
            key = encode_state(gaps)
            assert decode_state(key, k) == gaps
    assert encode_state((0,) * 5) == 0
    # the widest gap of every k round-trips in every field, as an int and
    # through the array path as one int64 array; all k - 1 fields fit an int64
    for k in range(2, 9):
        top = (1 << packed_width(k)) - 1
        states = [(0,) * i + (top,) * (k - i) for i in range(1, k)]
        codes = [encode_state(gaps) for gaps in states]
        assert [decode_state(code, k) for code in codes] == states
        assert pack(np.array(states, dtype=np.int64).T, k).tolist() == codes
        columns = unpack(np.array(codes, dtype=np.int64), k)
        assert list(zip(*(g.tolist() for g in columns))) == states
        assert encode_state((0,) + (top,) * (k - 1)) < 1 << 63


def test_encode_injective():
    seen = {}
    count = 0
    for gaps in _small_states(5, 20):
        key = encode_state(gaps)
        assert key not in seen
        seen[key] = gaps
        count += 1
    assert count == 10626


def test_encode_errors():
    # one past the widest gap of every k, as a gap and as a code
    widths = {2: 12, 3: 12, 4: 12, 5: 12, 6: 12, 7: 10, 8: 9}
    for k, width in widths.items():
        assert packed_width(k) == width
        with pytest.raises(ValueError, match="encodable range"):
            encode_state((0,) * (k - 1) + (1 << width,))
        with pytest.raises(ValueError, match="beyond"):
            decode_state(1 << (width * (k - 1)), k)
    with pytest.raises(ValueError):
        decode_state(-1, 3)
    # codes exist only for sorted states: an unsorted or negative gap has none
    for gaps in ((0, 3, 1), (0, -1), (0, -1, 2)):
        with pytest.raises(ValueError, match="nondecreasing"):
            encode_state(gaps)


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
