"""Named verification checks behind the CLI verify command.

Each check recomputes a value with one engine and confronts it with an
independent source: a frozen reference constant, the brute-force oracle, or
the k=2 closed form.  Checks report expected/got strings so a failure is
diagnosable from the one-line output alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import EXACT
from .dyadic import Dyadic
from .forward import regret_series_fixed
from .game import RankSubset, all_strategies
from .optimal import best_fixed_subset, value_adaptive
from .oracle import brute_regret_fixed, k2_closed_form

# frozen reference values for the k=6, T=13 computations
K6_T13_ADAPTIVE_EXPECTED_MAX = Dyadic(2341, 8)  # 9.14453125
K6_T13_BEST_FIXED_EXPECTED_MAX = Dyadic(37451, 12)  # 9.143310546875


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    got: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} expected={self.expected}, got={self.got}"


def check_k6_t13_adaptive() -> CheckResult:
    family = [RankSubset.of(6, (1, 3, 6)), RankSubset.of(6, (1, 4, 6))]
    result = value_adaptive(6, family, 13)
    expected = K6_T13_ADAPTIVE_EXPECTED_MAX
    return CheckResult(
        name="k6_t13_adaptive",
        passed=result.expected_max == expected,
        expected=expected.decimal(),
        got=result.expected_max.decimal(),
    )


def check_k6_t13_best_fixed() -> CheckResult:
    result = best_fixed_subset(6, 13)
    expected = K6_T13_BEST_FIXED_EXPECTED_MAX
    value_ok = result.expected_max == expected
    subset_ok = (1, 3, 6) in {s.ranks for s in result.maximizers}
    got = f"{result.expected_max.decimal()} by {':'.join(s.label() for s in result.maximizers)}"
    return CheckResult(
        name="k6_t13_best_fixed",
        passed=value_ok and subset_ok,
        expected=f"{expected.decimal()} by a set including 1,3,6",
        got=got,
    )


def check_k5_t5_strict() -> CheckResult:
    a = RankSubset.of(5, (1, 3))
    b = RankSubset.of(5, (1, 3, 5))
    ra = regret_series_fixed(5, a, 5, EXACT, eps=0.0).values[5]
    rb = regret_series_fixed(5, b, 5, EXACT, eps=0.0).values[5]
    oa = brute_regret_fixed(5, a, 5)
    ob = brute_regret_fixed(5, b, 5)
    ok = ra == oa and rb == ob and ra > rb
    return CheckResult(
        name="k5_t5_strict_comparison",
        passed=ok,
        expected="R[1,3](5) > R[1,3,5](5), engine equal to oracle on both",
        got=f"R[1,3]={ra.interchange()} (oracle {oa.interchange()}), "
        f"R[1,3,5]={rb.interchange()} (oracle {ob.interchange()})",
    )


def suite_reference_values() -> list[CheckResult]:
    return [check_k6_t13_adaptive(), check_k6_t13_best_fixed(), check_k5_t5_strict()]


def suite_oracle() -> list[CheckResult]:
    """Engine-vs-enumeration equality for every canonical k=4 subset through T=7."""
    k, t_max = 4, 7
    out = []
    for subset in all_strategies(k):
        series = regret_series_fixed(k, subset, t_max, EXACT, eps=0.0)
        bad = None
        for t in range(1, t_max + 1):
            oracle_value = brute_regret_fixed(k, subset, t)
            if series.values[t] != oracle_value:
                bad = (t, oracle_value, series.values[t])
                break
        name = f"oracle_k{k}_subset_{subset.label().replace(',', '_')}"
        if bad is None:
            final = series.values[t_max].interchange()
            out.append(CheckResult(name, True, f"engine=oracle through T={t_max}", f"both {final}"))
        else:
            t, ov, ev = bad
            out.append(CheckResult(name, False, f"T={t}: {ov.interchange()}", ev.interchange()))
    return out


def suite_k2_closed_form() -> list[CheckResult]:
    """Engine series for k=2 comb against the binomial closed form, through T=60."""
    t_max = 60
    series = regret_series_fixed(2, RankSubset.comb(2), t_max, EXACT, eps=0.0)
    out = []
    for t in range(1, t_max + 1):
        expected = k2_closed_form(t)
        got = series.values[t]
        out.append(
            CheckResult(
                name=f"k2_closed_form_t{t}",
                passed=expected == got,
                expected=expected.interchange(),
                got=got.interchange(),
            )
        )
    return out


# "all" runs every suite in this order
SUITES = {
    "reference-values": suite_reference_values,
    "oracle": suite_oracle,
    "k2-closed-form": suite_k2_closed_form,
}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str) -> list[CheckResult]:
    """Run one suite, or all of them; raises ValueError for an unknown suite."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    chosen = SUITES.values() if name == "all" else [SUITES[name]]
    return [r for suite in chosen for r in suite()]
