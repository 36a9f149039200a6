import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combregret.dyadic import Dyadic, HALF
from combregret.errors import BudgetError
from combregret.forward import regret_series_fixed
from combregret.game import RankSubset, all_strategies
from combregret.checks import run_suite
from combregret.optimal import AdaptiveSolver, value_adaptive
from combregret.oracle import (
    brute_regret_fixed,
    brute_value_adaptive,
    k2_closed_form,
)


def test_closed_form_values():
    assert k2_closed_form(1) == HALF
    assert k2_closed_form(2) == HALF
    assert k2_closed_form(3) == Dyadic(3, 2)
    assert k2_closed_form(5) == Dyadic(15, 4)
    with pytest.raises(ValueError):
        k2_closed_form(0)


def test_brute_k2_t1():
    assert brute_regret_fixed(2, RankSubset.of(2, (1,)), 1) == HALF


def test_brute_k5_t5_values():
    r13 = brute_regret_fixed(5, RankSubset.of(5, (1, 3)), 5)
    r135 = brute_regret_fixed(5, RankSubset.comb(5), 5)
    assert r13 == Dyadic(25, 4)
    assert r135 == Dyadic(49, 5)
    assert r13 > r135


def test_engine_matches_oracle_all_subsets():
    for k in range(2, 6):
        for subset in all_strategies(k):
            series = regret_series_fixed(k, subset, 7)
            for t in range(1, 8):
                assert series.values[t] == brute_regret_fixed(k, subset, t)


@st.composite
def _fixed_cases(draw):
    k = draw(st.integers(2, 6))
    ranks = draw(st.sets(st.integers(1, k), min_size=1))
    return k, RankSubset.of(k, ranks), draw(st.integers(1, 9))


@settings(max_examples=100, deadline=None)
@given(_fixed_cases())
def test_exact_series_matches_oracle_property(case):
    # any rank set, complements included: engines canonicalize, the oracle
    # plays the set as given
    k, subset, t_max = case
    series = regret_series_fixed(k, subset, t_max)
    for t in range(1, t_max + 1):
        assert series.values[t] == brute_regret_fixed(k, subset, t)
    assert value_adaptive(k, [subset], t_max).regret == series.values[t_max]


@st.composite
def _family_cases(draw):
    k = draw(st.integers(2, 5))
    ranks = st.sets(st.integers(1, k), min_size=1).map(lambda r: RankSubset.of(k, r))
    family = draw(st.lists(ranks, min_size=2, max_size=3))
    return k, family, draw(st.integers(1, 5))


@settings(max_examples=50, deadline=None)
@given(_family_cases())
def test_adaptive_matches_oracle_property(case):
    # complements allowed: the solver canonicalizes, the oracle plays each
    # member as given
    k, family, t = case
    assert value_adaptive(k, family, t).regret == brute_value_adaptive(k, family, t)


def test_adaptive_oracle_singleton_matches_fixed():
    s = RankSubset.of(3, (1, 3))
    for t in range(1, 7):
        assert brute_value_adaptive(3, [s], t) == brute_regret_fixed(3, s, t)


def test_adaptive_oracle_k3_all_matches_engine():
    fam = list(all_strategies(3))
    for t in range(1, 7):
        oracle = brute_value_adaptive(3, fam, t)
        engine = value_adaptive(3, fam, t)
        assert engine.regret == oracle


def test_adaptive_oracle_k7_all_matches_engine():
    # the whole family of k = 7: a one-member table of 64 branches, whose
    # state codes take 60 of its 63 bits
    fam = list(all_strategies(7))
    assert value_adaptive(7, fam, 3).regret == brute_value_adaptive(7, fam, 3)


def test_adaptive_oracle_k6_family_matches_engine(k6_family):
    for t in range(1, 11):
        oracle = brute_value_adaptive(6, k6_family, t)
        engine = value_adaptive(6, k6_family, t)
        assert engine.regret == oracle


def test_budget_guards():
    with pytest.raises(BudgetError):
        brute_regret_fixed(2, RankSubset.of(2, (1,)), 21)
    fam = [RankSubset.of(2, (1,)), RankSubset.of(2, (1, 2))]
    with pytest.raises(BudgetError):
        brute_value_adaptive(2, fam, 14)
    with pytest.raises(ValueError):
        brute_regret_fixed(2, RankSubset.of(2, (1,)), 0)
    with pytest.raises(ValueError):
        brute_value_adaptive(2, [], 3)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: brute_regret_fixed(4, RankSubset.comb(3), 2),
                 "subset is for k=3, not k=4", id="fixed-subset-k"),
    pytest.param(lambda: brute_value_adaptive(4, [RankSubset.comb(3)], 2),
                 "family member 1,3 is for k=3, not k=4", id="adaptive-member-k"),
    pytest.param(lambda: brute_value_adaptive(3, [RankSubset.comb(3)], 0),
                 "horizon must be at least 1, got 0", id="adaptive-t0"),
    # {1} of k = 5 and {1} of k = 4 share their ranks, not their game
    pytest.param(lambda: AdaptiveSolver(4, [RankSubset.of(5, (1,)), RankSubset.of(4, (1,))], 1),
                 r"family mixes expert counts: \[4, 5\]", id="family-mixes-k"),
    pytest.param(lambda: RankSubset(3, ()), "rank subset must be nonempty", id="empty-subset"),
    pytest.param(lambda: run_suite("nope"), "unknown suite 'nope'", id="unknown-suite"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.slow
def test_adaptive_oracle_k6_family_t13(k6_family):
    assert brute_value_adaptive(6, k6_family, 13) == Dyadic(677, 8)
