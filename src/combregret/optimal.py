"""Best adaptive play over a family of subset strategies, and best fixed subset.

The adaptive adversary may pick a different subset from the family at every
state and day.  With r days remaining, the value of a state is

    V(s, 0) = 0
    V(s, r) = max over A in the family of
              (delta_A + V(s_A, r-1) + delta_B + V(s_B, r-1)) / 2

where (s_A, delta_A) and (s_B, delta_B) are the two branches of one day under
A.  V(initial, T) is the expected maximum total gain after T days; subtracting
T/2 (the expected gain any player is pinned to) gives the expected regret.

The memo is keyed by (packed state code, remaining), which is sound because
the value is horizon-dependent but day-translation-invariant; successors come
from ``game.step``.  It holds the scaled integer N(s, r) = V(s, r) * 2^r,
which obeys

    N(s, r) = max over A of 2^(r-1) * (delta_A + delta_B) + N(s_A, r-1) + N(s_B, r-1)

so every comparison is exact, and ties are exact equalities.  Values leave
the solver as ``Dyadic(N, r)``; there is no float solver (the CLI prints the
correctly rounded float of the exact value when asked for one).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .backend import EXACT, ValueBackend
from .dyadic import Dyadic
from .errors import BudgetError
from .forward import regret_series_fixed
from .game import (
    GapState,
    RankSubset,
    all_strategies,
    decode_state,
    encode_state,
    initial_state,
    step,
    validate_state,
)

# hard ceilings; exceeding them is an error, never a silent approximation
MAX_MEMO_NODES = 20_000_000
MAX_HORIZON = 400


def _canonical_family(family: Iterable[RankSubset]) -> tuple[RankSubset, ...]:
    seen = {}
    for s in family:
        c = s.canonical()
        seen[c.ranks] = c
    if not seen:
        raise ValueError("strategy family must be nonempty")
    ks = {s.k for s in seen.values()}
    if len(ks) != 1:
        raise ValueError(f"family mixes expert counts: {sorted(ks)}")
    return tuple(seen[r] for r in sorted(seen))


class AdaptiveSolver:
    """Memoized evaluator for one (k, family) pair.

    A single solver can value several horizons; the memo is shared, so asking
    for T after T_max costs almost nothing extra.  States are packed codes
    (``encode_state``) inside; gap tuples appear only at the public methods.
    """

    def __init__(self, k: int, family: Iterable[RankSubset]):
        self.family = _canonical_family(family)
        if self.family[0].k != k:
            raise ValueError(f"family is for k={self.family[0].k}, not k={k}")
        self.k = k
        self._gains = tuple((s.gains(), s.complement_gains()) for s in self.family)
        self.memo: dict = {}
        self._succ_cache: dict = {}

    def _succ(self, code: int):
        """``step`` triples of ``code``, one per family member, in family order."""
        cached = self._succ_cache.get(code)
        if cached is None:
            cached = tuple(step(code, self.k, ga, gb) for ga, gb in self._gains)
            self._succ_cache[code] = cached
        return cached

    def _eval(self, code: int, r: int) -> int:
        """N(code, r): 2^r times the value with r days left."""
        if r == 0:
            return 0
        key = (code, r)
        v = self.memo.get(key)
        if v is not None:
            return v
        # one Python frame per day of recursion (max() over a generator would
        # add a second)
        unit = 1 << (r - 1)
        best = -1
        for ca, cb, d in self._succ(code):
            cand = d * unit + self._eval(ca, r - 1) + self._eval(cb, r - 1)
            if cand > best:
                best = cand
        if len(self.memo) >= MAX_MEMO_NODES:
            raise BudgetError(f"adaptive memo exceeded {MAX_MEMO_NODES} nodes")
        self.memo[key] = best
        return best

    def _argmax(self, code: int, r: int) -> list:
        """(subset, step triple) of every member achieving the computed N(code, r)."""
        target = self.memo[(code, r)]
        unit = 1 << (r - 1)
        return [
            (subset, tr)
            for subset, tr in zip(self.family, self._succ(code))
            if tr[2] * unit + self._eval(tr[0], r - 1) + self._eval(tr[1], r - 1) == target
        ]

    def expected_max(self, t: int) -> Dyadic:
        """E[max total gain] after t days of best adaptive play."""
        if t < 0:
            raise ValueError(f"horizon must be nonnegative, got {t}")
        if t > MAX_HORIZON:
            raise BudgetError(f"horizon {t} exceeds the adaptive engine cap {MAX_HORIZON}")
        return Dyadic(self._eval(encode_state(initial_state(self.k)), t), t)

    def value(self, t: int) -> "AdaptivePolicyValue":
        emax = self.expected_max(t)
        return AdaptivePolicyValue(
            k=self.k,
            t=t,
            family=self.family,
            expected_max=emax,
            regret=emax - Dyadic(t, 1),
            node_count=len(self.memo),
            solver=self,
        )

    def maximizers(self, state: GapState, remaining: int) -> tuple[RankSubset, ...]:
        """All family members achieving the max at a computed memo node."""
        # packed codes drop trailing zero gaps, so check the length first
        if len(state) != self.k:
            raise ValueError(f"state has {len(state)} entries, expected k={self.k}: {state!r}")
        validate_state(state)
        code = encode_state(state)
        if (code, remaining) not in self.memo:
            raise ValueError(f"node not computed: state={state}, remaining={remaining}")
        return tuple(subset for subset, _ in self._argmax(code, remaining))

    def trace(self, t: int) -> Iterator[tuple[GapState, int, tuple[RankSubset, ...]]]:
        """Nodes reachable under optimal play from the start, breadth-first.

        Yields (state, remaining, maximizers); children follow every
        maximizing subset, both branches, so the dump covers the whole set of
        positions an optimal adversary can face.
        """
        start = encode_state(initial_state(self.k))
        if (start, t) not in self.memo:
            self.expected_max(t)
        queue = deque([(start, t)])
        seen = {(start, t)}
        while queue:
            code, r = queue.popleft()
            if r == 0:
                continue
            best = self._argmax(code, r)
            yield decode_state(code, self.k), r, tuple(subset for subset, _ in best)
            for _, (ca, cb, _) in best:
                for child in (ca, cb):
                    node = (child, r - 1)
                    if r - 1 > 0 and node not in seen:
                        seen.add(node)
                        queue.append(node)


@dataclass(frozen=True)
class AdaptivePolicyValue:
    """Result of valuing one horizon: both the raw expected maximum and the
    centered regret (their difference is exactly t/2)."""

    k: int
    t: int
    family: tuple[RankSubset, ...]
    expected_max: Dyadic
    regret: Dyadic
    node_count: int
    solver: AdaptiveSolver = field(repr=False, compare=False)

    def maximizers(self, state: GapState, remaining: int) -> tuple[RankSubset, ...]:
        return self.solver.maximizers(state, remaining)

    def family_label(self) -> str:
        return ":".join(s.label() for s in self.family)


def value_adaptive(k: int, family: Iterable[RankSubset], t: int) -> AdaptivePolicyValue:
    """Expected regret of the best adaptive policy over ``family`` at horizon t."""
    return AdaptiveSolver(k, family).value(t)


@dataclass(frozen=True)
class BestFixedResult:
    """Outcome of scanning every canonical subset at one horizon."""

    k: int
    t: int
    backend: ValueBackend
    maximizers: tuple[RankSubset, ...]
    regret: object
    expected_max: object
    scanned: int

    def primary(self) -> RankSubset:
        return self.maximizers[0]


def best_fixed_subset(k: int, t: int, backend: ValueBackend = EXACT) -> BestFixedResult:
    """The best single subset strategy at horizon t, with all tied maximizers.

    Scans all 2^(k-1) canonical subsets; ties are reported in lexicographic
    rank order, so the primary maximizer is deterministic.
    """
    if t < 1:
        raise ValueError(f"horizon must be at least 1, got {t}")
    best = None
    winners: list[RankSubset] = []
    scanned = 0
    for subset in all_strategies(k):
        scanned += 1
        series = regret_series_fixed(k, subset, t, backend, eps=0.0)
        v = series.regret_at(t)
        if best is None or v > best:
            best = v
            winners = [subset]
        elif v == best:
            winners.append(subset)
    if backend.is_exact:
        emax = best + Dyadic(t, 1)
    else:
        emax = best + t / 2.0
    return BestFixedResult(
        k=k,
        t=t,
        backend=backend,
        maximizers=tuple(winners),
        regret=best,
        expected_max=emax,
        scanned=scanned,
    )
