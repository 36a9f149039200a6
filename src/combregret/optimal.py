"""Best adaptive play over a family of subset strategies, and best fixed subset.

The adaptive adversary may pick a different subset from the family at every
state and day.  With r days remaining, the value of a state is

    V(s, 0) = 0
    V(s, r) = max over A in the family of
              (delta_A + V(s_A, r-1) + delta_B + V(s_B, r-1)) / 2

where (s_A, delta_A) and (s_B, delta_B) are the two branches of one day under
A.  V(initial, T) is the expected maximum total gain after T days; subtracting
T/2 (the expected gain any player is pinned to) gives the expected regret.

The value is horizon-dependent but day-translation-invariant, so the solver
works in layers.  A forward pass enumerates L_0 ... L_T over one
``forward._TransitionTable`` of the whole family, which steps each state
once however many layers hold it and keeps its children and leader deltas.
L_d holds the table rows of every state reachable at day d under some
sequence of family members, in ascending order; a row never moves once the
table has it, so a layer stays valid as later layers add states.  States
are looked up by packed code (``game.encode_state``) only in
``maximizers``.  A backward pass then values a whole
layer at once on the scaled integers N(s, r) = V(s, r) * 2^r, which obey

    N(s, r) = max over A of 2^(r-1) * (delta_A + delta_B) + N(s_A, r-1) + N(s_B, r-1)

so every comparison is exact, and ties are exact equalities.  N(s, r) is at
most r * 2^r, so a horizon up to ``INT64_HORIZON`` is valued in int64 and a
longer one in Python integers.  Values leave the solver as ``Dyadic(N, r)``,
and regrets as ``Dyadic(x)`` of their ``Fraction`` difference; there is no
float solver (the CLI prints the correctly rounded float of the exact value
when asked for one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator

import numpy as np

from .backend import EXACT, ValueBackend
from .dyadic import Dyadic
from .errors import BudgetError
from .forward import _TransitionTable, _unpack, regret_series_fixed
from .game import (
    MAX_K,
    GapState,
    RankSubset,
    all_strategies,
    encode_state,
    packed_width,
)

# hard ceilings; exceeding them is an error, never a silent approximation.
# A layer row keeps an 8 B table row index and one value per solved horizon (8 B in
# int64); children and deltas live in the shared table, capped by
# forward.MAX_TABLE_ROWS.  Counting the table, peak RSS grows by about
# 440-490 B per layer row for the 32 subsets of k = 6 (T = 13, 16), 85-110 B
# for the 16 of k = 5 (T = 30, 40) and 44-58 B for the 4 of k = 3 (T = 80,
# 200, Python-int values).
MAX_MEMO_NODES = 20_000_000
MAX_HORIZON = 400
# every gap reached within MAX_HORIZON days fits the packed width of any k
assert MAX_HORIZON < 1 << packed_width(MAX_K)

# N(s, r) <= r * 2^r < 2^63 while r <= 57
INT64_HORIZON = 57


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
    """Layered evaluator for one (k, family) pair.

    A single solver can value several horizons: the layers are shared, so
    asking for T after T_max adds no rows, only one backward pass.  States
    are table rows inside; gap tuples appear only at the public methods.
    """

    def __init__(self, k: int, family: Iterable[RankSubset]):
        self.family = _canonical_family(family)
        if self.family[0].k != k:
            raise ValueError(f"family is for k={self.family[0].k}, not k={k}")
        self.k = k
        self.table = _TransitionTable(self.family)
        self._layers = [np.zeros(1, dtype=np.int64)]  # L_0: row 0, the day-0 state
        self._values: dict = {}  # horizon t -> [N over L_0, ..., N over L_t]
        self.rows = 0  # states in the expanded layers

    def _expand(self, t: int) -> None:
        """Enumerate the layers up to L_t."""
        for d in range(len(self._layers) - 1, t):
            rows = self._layers[d]
            if self.rows + rows.shape[0] > MAX_MEMO_NODES:
                raise BudgetError(f"adaptive memo exceeded {MAX_MEMO_NODES} nodes")
            self.table.expand(rows)
            reached = np.zeros(len(self.table), dtype=bool)
            for branch in self.table.children:
                reached[branch[rows]] = True
            self._layers.append(np.flatnonzero(reached))
            self.rows += rows.shape[0]

    def _solve(self, t: int) -> None:
        """The backward pass: N over every layer for horizon t."""
        self._expand(t)
        n = np.zeros(self._layers[t].shape[0], dtype=np.int64 if t <= INT64_HORIZON else object)
        values = [n]
        for d in reversed(range(t)):
            n = reduce(np.maximum, self._candidates(d, t - d, n))
            values.append(n)
        values.reverse()
        self._values[t] = values

    def _candidates(self, d: int, r: int, below, rows=slice(None)):
        """N(s, r) under each member in turn, of layer d's ``rows``, given
        ``below``, the N over L_{d+1} with r-1 days left."""
        spread = np.zeros(len(self.table), dtype=below.dtype)
        spread[self._layers[d + 1]] = below
        at = self._layers[d][rows]
        children, deltas = self.table.children, self.table.deltas
        for a in range(0, children.shape[0], 2):
            ca, cb = children[a][at], children[a + 1][at]
            dsum = deltas[a][at] + deltas[a + 1][at]
            # cast before shifting: an int8 shifted by 56 bits would overflow
            yield (dsum.astype(below.dtype) << (r - 1)) + spread[ca] + spread[cb]

    def _best(self, t: int, d: int, rows):
        """Mask (members, rows) of the members achieving N at layer d's rows."""
        values = self._values[t]
        target = values[d][rows]
        return np.stack([c == target for c in self._candidates(d, t - d, values[d + 1], rows)])

    def expected_max(self, t: int) -> Dyadic:
        """E[max total gain] after t days of best adaptive play."""
        if t < 0:
            raise ValueError(f"horizon must be nonnegative, got {t}")
        if t > MAX_HORIZON:
            raise BudgetError(f"horizon {t} exceeds the adaptive engine cap {MAX_HORIZON}")
        if t not in self._values:
            self._solve(t)
        return Dyadic(int(self._values[t][0][0]), t)

    def value(self, t: int) -> "AdaptivePolicyValue":
        emax = self.expected_max(t)
        return AdaptivePolicyValue(
            k=self.k,
            t=t,
            family=self.family,
            expected_max=emax,
            regret=Dyadic(emax - Dyadic(t, 1)),
            # the states valued for horizon t: L_0 ... L_{t-1}
            node_count=sum(layer.shape[0] for layer in self._layers[:t]),
            solver=self,
        )

    def maximizers(self, state: GapState, remaining: int) -> tuple[RankSubset, ...]:
        """All family members achieving the max at a computed node."""
        # packed codes drop trailing zero gaps, so check the length first
        if len(state) != self.k:
            raise ValueError(f"state has {len(state)} entries, expected k={self.k}: {state!r}")
        # no layer holds a gap of 2^width or more: gaps never exceed MAX_HORIZON
        if remaining >= 1 and not state[-1] >> packed_width(self.k):
            # -1 for a state with no table row, which no layer holds
            row = self.table.find(np.array([encode_state(state)]))[0]
            for t in self._values:
                d = t - remaining
                if d < 0:
                    continue
                layer = self._layers[d]
                at = int(np.searchsorted(layer, row))
                if at < layer.shape[0] and layer[at] == row:
                    best = self._best(t, d, np.array([at]))[:, 0]
                    return tuple(s for s, b in zip(self.family, best) if b)
        raise ValueError(f"node not computed: state={state}, remaining={remaining}")

    def trace(self, t: int) -> Iterator[tuple[GapState, int, tuple[RankSubset, ...]]]:
        """Nodes reachable under optimal play from the start, breadth-first.

        Yields (state, remaining, maximizers); children follow every
        maximizing subset in family order, a-branch before b-branch, so the
        dump covers the whole set of positions an optimal adversary can face.
        """
        self.expected_max(t)
        level = np.zeros(1, dtype=np.int64)  # positions in layer d, in breadth-first order
        for d in range(t):
            best = self._best(t, d, level).T.tolist()
            # child table rows to positions in layer d + 1
            at = self._layers[d][level]
            children = np.searchsorted(self._layers[d + 1], self.table.children[:, at])
            gaps = _unpack(self.table.codes[at], self.k).tolist()
            reached: dict = {}  # insertion-ordered set
            for state, mask, kids in zip(gaps, best, children.T.tolist()):
                members = [m for m, b in enumerate(mask) if b]
                yield tuple(state), t - d, tuple(self.family[m] for m in members)
                for m in members:
                    reached.setdefault(kids[2 * m])
                    reached.setdefault(kids[2 * m + 1])
            level = np.array(list(reached), dtype=np.int64)


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
        emax = Dyadic(best + Dyadic(t, 1))
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
