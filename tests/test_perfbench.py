import subprocess
import sys
from pathlib import Path

from combregret import (
    Dyadic,
    RankSubset,
    best_fixed_subset,
    brute_regret_fixed,
    brute_value_adaptive,
    k2_closed_form,
    regret_series_fixed,
    value_adaptive,
)

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest():
    # the benchmark reads library names: combregret.dyadic.Dyadic, the .num
    # and .exp of exact values (which test_exact_values_are_dyadic checks
    # without running the benchmark) and series.backend.is_exact.  A change
    # that breaks one fails here, not in a benchmark run.  The self-test
    # writes only under the ignored .perfbench/ directory.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: PASS"


def test_exact_values_are_dyadic(k6_family):
    # Fraction arithmetic returns a plain Fraction, which has no .num/.exp,
    # so every exact value the engines return must be built as a Dyadic
    def parts(v):
        assert type(v) is Dyadic, repr(v)
        return v.num, v.exp

    pruned = regret_series_fixed(2, RankSubset.of(2, (1,)), 4, eps=0.3)
    assert pruned.backend.is_exact
    assert [parts(v) for v in pruned.values] == [(0, 0), (1, 1), (1, 1), (3, 2), (5, 3)]
    assert [parts(b) for b in pruned.error_bounds] == [(0, 0)] * 4 + [(1, 2)]
    a, b = RankSubset.of(5, (1, 3)), RankSubset.comb(5)
    assert parts(brute_regret_fixed(5, a, 5)) == (25, 4)
    assert parts(brute_regret_fixed(5, b, 5)) == (49, 5)
    assert parts(brute_value_adaptive(5, [a, b], 5)) == (25, 4)
    assert parts(k2_closed_form(5)) == (15, 4)
    res = value_adaptive(6, k6_family, 13)
    assert (parts(res.expected_max), parts(res.regret)) == ((2341, 8), (677, 8))
    best = best_fixed_subset(6, 13)
    assert (parts(best.expected_max), parts(best.regret)) == ((37451, 12), (10827, 12))
