"""Brute-force evaluators over raw gain histories, plus the k=2 closed form.

These oracles deliberately share no state representation with the engines:
they track unsorted per-expert totals, re-rank from scratch every day, and
enumerate every branch sequence.  Agreement with the gap-state engines is
therefore real evidence that sorting totals into gap vectors loses nothing,
not a tautology.  One recursion serves both: the fixed oracle is the
adaptive oracle over a one-member family.

All values stay in scaled integers during recursion: with r days left, the
quantity propagated is 2^r times the expected final maximum, which max() and
addition both preserve.  Budget guards are hard errors; an oracle must never
approximate.
"""

from __future__ import annotations

import math
from typing import Iterable

from .dyadic import Dyadic
from .errors import BudgetError
from .game import RankSubset

MAX_FIXED_HORIZON = 20
ADAPTIVE_NODE_BUDGET = 200_000_000

_TIE_ORDERS = ("first", "last")


def _rank_order(gains: tuple[int, ...], tie_order: str) -> list[int]:
    # rank 1 = biggest total; ties go to the lower index ("first") or the
    # higher one ("last") -- results must not depend on this choice
    if tie_order == "first":
        return sorted(range(len(gains)), key=lambda i: (-gains[i], i))
    if tie_order == "last":
        return sorted(range(len(gains)), key=lambda i: (-gains[i], -i))
    raise ValueError(f"tie_order must be one of {_TIE_ORDERS}, got {tie_order!r}")


def _advance(gains: tuple[int, ...], order: list[int], ranks: frozenset[int]) -> tuple[int, ...]:
    new = list(gains)
    for pos, idx in enumerate(order):
        if (pos + 1) in ranks:
            new[idx] += 1
    return tuple(new)


def brute_regret_fixed(
    k: int, subset: RankSubset, t: int, tie_order: str = "first"
) -> Dyadic:
    """Expected regret of a fixed subset strategy by full enumeration.

    The adaptive oracle over the one-member family ``(subset,)``: it walks
    all 2^t branch sequences on raw totals and averages the final maximum.
    The subset is applied exactly as given (no canonicalization).
    """
    if subset.k != k:
        raise ValueError(f"subset is for k={subset.k}, not k={k}")
    if t < 1:
        raise ValueError(f"horizon must be at least 1, got {t}")
    if t > MAX_FIXED_HORIZON:
        raise BudgetError(f"fixed oracle enumerates 2^t sequences; t={t} exceeds {MAX_FIXED_HORIZON}")
    return brute_value_adaptive(k, (subset,), t, tie_order)


def brute_value_adaptive(
    k: int, family: Iterable[RankSubset], t: int, tie_order: str = "first"
) -> Dyadic:
    """Expected regret of best adaptive play, by un-memoized enumeration.

    Maximizes over the family at every raw-gain history.  Cost is
    (2*len(family))^t nodes, guarded by a hard budget.
    """
    fam = tuple(family)
    if not fam:
        raise ValueError("strategy family must be nonempty")
    for s in fam:
        if s.k != k:
            raise ValueError(f"family member {s.label()} is for k={s.k}, not k={k}")
    if t < 1:
        raise ValueError(f"horizon must be at least 1, got {t}")
    if (2 * len(fam)) ** t > ADAPTIVE_NODE_BUDGET:
        raise BudgetError(
            f"adaptive oracle needs (2*{len(fam)})^{t} nodes, over the budget {ADAPTIVE_NODE_BUDGET}"
        )
    rank_pairs = [
        (frozenset(s.ranks), frozenset(s.complement_ranks())) for s in fam
    ]

    def total_max(gains: tuple[int, ...], r: int) -> int:
        # 2^r times the expected final maximum from this position
        if r == 0:
            return max(gains)
        order = _rank_order(gains, tie_order)
        best = None
        for ranks_a, ranks_b in rank_pairs:
            v = total_max(_advance(gains, order, ranks_a), r - 1) + total_max(
                _advance(gains, order, ranks_b), r - 1
            )
            if best is None or v > best:
                best = v
        return best

    # 2^t * (E[max] - t/2)
    return Dyadic(total_max((0,) * k, t) - (t << (t - 1)), t)


def k2_closed_form(t: int) -> Dyadic:
    """Exact regret of the comb strategy {1} for two experts.

    The gap performs a reflected simple random walk, and the regret collects
    one half for every day the walk sits at the origin:
    R(T) = (1/2) * sum_{s<T} P(S_s = 0) with P(S_{2m} = 0) = C(2m, m)/4^m.
    """
    if t < 1:
        raise ValueError(f"horizon must be at least 1, got {t}")
    return Dyadic(sum(math.comb(s, s // 2) << (t - s - 1) for s in range(0, t, 2)), t)
