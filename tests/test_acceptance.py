"""Acceptance suite: one test per advertised result, at the stated tolerance.

Each test prints an ACCEPTANCE line with the measured values before
asserting, so a failing run still reports what was computed.
"""

import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from combregret import cli
from combregret.analysis import certified_lower_bounds, constancy_report, diff_stat
from combregret.backend import FLOAT
from combregret.dyadic import ZERO, Dyadic
from combregret.forward import _successors, regret_series_fixed
from combregret.game import RankSubset, all_strategies, pack
from combregret.optimal import AdaptiveSolver, best_fixed_subset, value_adaptive
from combregret.oracle import brute_regret_fixed, brute_value_adaptive, k2_closed_form
from tests.support import one_member, raw_reference_step, tie_consistent_perms, tied_states


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_adaptive_two_subset_family(k6_family):
    result = value_adaptive(6, k6_family, 13)
    expected = Dyadic(2341, 8)
    ok = result.expected_max == expected
    _report(
        "criterion_1_adaptive_two_subset_family", ok,
        f"expected={expected.decimal()} got={result.expected_max.decimal()}",
    )
    assert ok
    assert result.expected_max.decimal() == "9.14453125"
    assert result.regret == expected - Dyadic(13, 1)


def test_criterion_2_best_fixed_subset_scan():
    t0 = time.perf_counter()
    result = best_fixed_subset(6, 13)
    elapsed = time.perf_counter() - t0
    expected = Dyadic(37451, 12)
    value_ok = result.expected_max == expected
    subset_ok = (1, 3, 6) in {s.ranks for s in result.maximizers}
    scan_ok = result.scanned == 32
    time_ok = elapsed < 60.0
    ok = value_ok and subset_ok and scan_ok and time_ok
    _report(
        "criterion_2_best_fixed_subset_scan", ok,
        f"expected={expected.decimal()} got={result.expected_max.decimal()} "
        f"maximizers={':'.join(s.label() for s in result.maximizers)} "
        f"scanned={result.scanned} elapsed={elapsed:.2f}s",
    )
    assert value_ok
    assert result.expected_max.decimal() == "9.143310546875"
    assert subset_ok and scan_ok and time_ok


def test_criterion_3_strict_dominance_at_t5():
    a = RankSubset.of(5, (1, 3))
    b = RankSubset.comb(5)
    ra = regret_series_fixed(5, a, 5).values[5]
    rb = regret_series_fixed(5, b, 5).values[5]
    oa = brute_regret_fixed(5, a, 5)
    ob = brute_regret_fixed(5, b, 5)
    ok = ra == oa and rb == ob and ra > rb
    _report(
        "criterion_3_strict_dominance_at_t5", ok,
        f"R[1,3](5)={ra.interchange()} (oracle {oa.interchange()}) "
        f"R[1,3,5](5)={rb.interchange()} (oracle {ob.interchange()})",
    )
    assert ra == Dyadic(25, 4) == oa
    assert rb == Dyadic(49, 5) == ob
    assert ra > rb


def test_criterion_4_positivity_interval_safe_t5_to_t350(
    sweep13, sweep135, exact13_t40, exact135_t40
):
    # D(6) = 0 exactly: the one horizon in 5..350 where positivity is false.
    exact = diff_stat(exact13_t40, exact135_t40)
    ties = {t for t in range(5, 41) if exact.values[t] == 0}
    negative = [t for t in range(5, 41) if exact.values[t] < 0]
    tie = Dyadic(13, 3)
    oracle_a = brute_regret_fixed(5, RankSubset.of(5, (1, 3)), 6)
    oracle_b = brute_regret_fixed(5, RankSubset.comb(5), 6)

    lower = certified_lower_bounds(sweep13, sweep135)
    off_tie = [t for t in range(5, 351) if t != 6]
    bad = [t for t in off_tie if lower[t] <= 0.0]
    certified_min = min(lower[t] for t in off_tie)
    ok = (
        ties == {6} and not negative and oracle_a == tie == oracle_b
        and not bad and lower[6] <= 0.0
    )
    _report(
        "criterion_4_positivity_interval_safe_t5_to_t350", ok,
        f"exact_ties_t5_to_t40={sorted(ties)} nonpositive_elsewhere={bad or 'none'} "
        f"certified_min_except_t6={certified_min:.6g} lower_at_6={lower[6]:.6g}",
    )
    assert ties == {6}, f"exact D(T) = 0 at T={sorted(ties)} in 5..40, expected only T=6"
    assert not negative, f"exact D(T) < 0 at T={negative}"
    assert oracle_a == tie == oracle_b, (
        f"oracle gives R[1,3](6) = {oracle_a.interchange()}, "
        f"R[1,3,5](6) = {oracle_b.interchange()}, expected both {tie.interchange()}"
    )
    assert not bad, f"certified lower bound of D(T) is not positive at T={bad}"
    assert lower[6] <= 0.0, f"certified lower bound {lower[6]!r} exceeds the true D(6) = 0"


@pytest.mark.slow
def test_criterion_4_exact_d_to_t350(tmp_path):
    # the unpruned exact series of both strategies, through the CLI
    path = tmp_path / "d.csv"
    argv = ["compare", "--k", "5", "--a", "1,3", "--b", "1,3,5", "--t-max", "350",
            "--backend", "exact", "--out", str(path)]
    assert cli.main(argv) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "T,D"
    # exact D values are written as fractions n/d, or integers
    d = {int(t): v for t, v in (line.split(",") for line in lines[1:])}
    assert all(re.fullmatch(r"-?\d+(/\d+)?", v) for v in d.values())
    d = {t: Fraction(v) for t, v in d.items()}
    assert sorted(d) == list(range(1, 351))
    ties = sorted(t for t in d if d[t] == 0)
    negative = [t for t in d if d[t] < 0]
    t_min = min(range(7, 351), key=d.get)
    window = [d[t] for t in range(100, 351)]
    ok = (
        ties == [1, 2, 3, 4, 6] and not negative and t_min == 13
        and round(float(d[13]), 10) == 3.4577284868 and round(float(d[350]), 10) == 7.1787864217
        and Fraction("7.1655206514") <= min(window) and max(window) <= Fraction("7.1867798917")
    )
    _report(
        "criterion_4_exact_d_to_t350", ok,
        f"ties={ties} negative={negative or 'none'} min_from_t7={float(d[t_min]):.11g} "
        f"at T={t_min} D(350)={float(d[350]):.11g} "
        f"window_100_350=[{float(min(window)):.11g}, {float(max(window)):.11g}]",
    )
    assert all(isinstance(v, Fraction) for v in d.values())
    assert ties == [1, 2, 3, 4, 6], f"exact D(T) = 0 at T={ties}"
    assert not negative, f"exact D(T) < 0 at T={negative}"
    assert t_min == 13 and round(float(d[13]), 10) == 3.4577284868
    assert round(float(d[350]), 10) == 7.1787864217
    assert Fraction("7.1655206514") <= min(window) and max(window) <= Fraction("7.1867798917")


def test_criterion_4_window_dispersion(sweep13, sweep135):
    d = diff_stat(sweep13, sweep135)
    cs = constancy_report(d, 100, 350)
    ratio = cs.maximum / cs.minimum
    ok = cs.minimum > 0.0 and ratio <= 1.5
    _report(
        "criterion_4_window_dispersion", ok,
        f"window=[100,350] min={cs.minimum:.6g} max={cs.maximum:.6g} ratio={ratio:.6g}",
    )
    assert cs.minimum > 0.0
    assert ratio <= 1.5


def test_criterion_4_scaled_gate_runtime():
    t0 = time.perf_counter()
    a = regret_series_fixed(5, RankSubset.of(5, (1, 3)), 150, FLOAT)
    b = regret_series_fixed(5, RankSubset.comb(5), 150, FLOAT)
    d = diff_stat(a, b)
    lower = certified_lower_bounds(a, b)
    cs = constancy_report(d, 100, 150)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(
        "criterion_4_scaled_gate_runtime", ok,
        f"t_max=150 elapsed={elapsed:.2f}s certified_min_from_t7={min(lower[7:]):.6g} "
        f"window_mean={cs.mean:.6g}",
    )
    assert ok
    assert min(lower[7:]) > 0.0


def test_criterion_5_adaptive_matches_best_member():
    cases = [
        (2, (1,), 15),
        (3, (1, 3), 15),
        (4, (1, 3), 12),
        (5, (1, 3), 10),
    ]
    worst = None
    for k, best_ranks, t_max in cases:
        series = regret_series_fixed(k, RankSubset.of(k, best_ranks), t_max)
        for t in range(1, t_max + 1):
            adaptive = AdaptiveSolver(k, all_strategies(k), t).regret
            fixed = series.values[t]
            assert adaptive == fixed, (
                f"k={k} T={t}: adaptive-over-all {adaptive.interchange()} != "
                f"fixed [{','.join(map(str, best_ranks))}] {fixed.interchange()}"
            )
        worst = (k, t_max, adaptive.interchange())
    _report(
        "criterion_5_adaptive_matches_best_member", True,
        f"k2,k3 to T=15, k4 to T=12, k5 to T=10 all equal; last: k={worst[0]} "
        f"T={worst[1]} value={worst[2]}",
    )


def test_criterion_6_oracle_equivalence(k6_family):
    checked = 0
    for k in (2, 3, 4, 5):
        for subset in all_strategies(k):
            series = regret_series_fixed(k, subset, 7)
            for t in range(1, 8):
                assert series.values[t] == brute_regret_fixed(k, subset, t)
                checked += 1
    fam3 = list(all_strategies(3))
    for t in range(1, 7):
        assert value_adaptive(3, fam3, t).regret == brute_value_adaptive(3, fam3, t)
        checked += 1
    for t in range(1, 11):
        assert value_adaptive(6, k6_family, t).regret == brute_value_adaptive(6, k6_family, t)
        checked += 1
    _report(
        "criterion_6_oracle_equivalence", True,
        f"{checked} engine values equal to enumeration "
        f"(fixed k=2..5 T<=7; adaptive k=3 all T<=6, k=6 family T<=10)",
    )


def test_criterion_7_k2_closed_form_and_limit():
    subset = RankSubset.of(2, (1,))
    exact = regret_series_fixed(2, subset, 60)
    for t in range(1, 61):
        assert exact.values[t] == k2_closed_form(t)
    sweep = regret_series_fixed(2, subset, 350, FLOAT)
    worst = 0.0
    for t in range(1, 351):
        err = abs(sweep.values[t] - float(k2_closed_form(t)))
        worst = max(worst, err)
    limit = 1.0 / math.sqrt(2.0 * math.pi)
    measured = sweep.values[350] / math.sqrt(350.0)
    rel = abs(measured - limit) / limit
    ok = worst <= 1e-9 and rel < 0.05
    _report(
        "criterion_7_k2_closed_form_and_limit", ok,
        f"exact equal to closed form T<=60; float worst_abs_err={worst:.3g}; "
        f"R(350)/sqrt(350)={measured:.5f} vs 1/sqrt(2*pi)={limit:.5f} (rel {rel:.4f})",
    )
    assert worst <= 1e-9
    assert rel < 0.05


def test_criterion_8_monotonicity(sweep13, sweep135):
    for k in (2, 3, 4, 5):
        for subset in all_strategies(k):
            series = regret_series_fixed(k, subset, 12)
            for t in range(1, 13):
                assert series.values[t] >= series.values[t - 1]
    for sweep in (sweep13, sweep135):
        for t in range(1, 351):
            assert sweep.values[t] >= sweep.values[t - 1] - 1e-12
    _report(
        "criterion_8_monotonicity", True,
        "exact series nondecreasing for every canonical subset, k=2..5, T<=12; "
        "float sweeps nondecreasing to T=350 within 1e-12",
    )


def test_criterion_8_complement_invariance():
    pairs = [
        (5, (1, 3), (2, 4, 5)),
        (5, (1, 3, 5), (2, 4)),
        (4, (1,), (2, 3, 4)),
    ]
    for k, ranks, comp in pairs:
        a = regret_series_fixed(k, RankSubset.of(k, ranks), 8)
        b = regret_series_fixed(k, RankSubset(k, comp), 8)
        for t in range(9):
            assert a.values[t] == b.values[t]
    _report(
        "criterion_8_complement_invariance", True,
        "subset and complement give identical exact series through T=8",
    )


def test_criterion_8_tie_permutation_invariance():
    # ranks within a tie block are interchangeable: the oracle's raw-total
    # step, with any assignment of tied ranks to experts, must land on the
    # child that _successors computes for the sorted state
    checked = 0
    for k, gap_max in ((5, 20), (6, 12)):
        states = tied_states(k, gap_max)
        codes = np.array([pack(gaps, k) for gaps in states], dtype=np.int64)
        for subset in (RankSubset.comb(k), RankSubset.of(k, (1,))):
            child_codes, deltas = _successors(codes, k, *one_member((subset.gains(), subset.complement_gains()), k))
            for gaps, code, delta in zip(states, child_codes[0].tolist(), deltas[0].tolist()):
                for perm in tie_consistent_perms(gaps):
                    child, rise = raw_reference_step(gaps, subset.ranks, perm)
                    assert (pack(child, k), rise) == (code, delta)
                    checked += 1
    ok = checked >= 10_000
    _report(
        "criterion_8_tie_permutation_invariance", ok,
        f"{checked} permuted-transition checks, all equal to the sorted transition",
    )
    assert ok


def test_criterion_8_full_set_zero():
    for k in range(2, 7):
        full = RankSubset.of(k, tuple(range(1, k + 1)))
        series = regret_series_fixed(k, full, 12)
        assert all(v == ZERO for v in series.values)
        assert value_adaptive(k, [full], 12).regret == ZERO
    _report(
        "criterion_8_full_set_zero", True,
        "full-set strategy has identically zero regret for k=2..6, T<=12",
    )


def test_criterion_8_pruning_interval(exact13_t40):
    subset = RankSubset.of(5, (1, 3))
    details = []
    for eps in (2.0 ** -30, 2.0 ** -40):
        approx = regret_series_fixed(5, subset, 40, FLOAT, eps)
        for t in range(41):
            truth = float(exact13_t40.values[t])
            lo = approx.values[t] - 1e-11
            hi = approx.values[t] + approx.error_bounds[t] + 1e-11
            assert lo <= truth <= hi, f"eps=2^{math.log2(eps):.0f} T={t}"
        details.append(f"eps={eps:.3g} bound(40)={approx.error_bounds[40]:.3g}")
    _report(
        "criterion_8_pruning_interval", True,
        "k=5 [1,3] T<=40: exact value inside [R, R+bound] for " + "; ".join(details),
    )
