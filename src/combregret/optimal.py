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
works in layers, one set for the horizon T it solves.  A forward pass
enumerates L_0 ... L_T over one ``forward._Table`` of one member, every
branch of the whole family, which steps each state once however many layers
hold it and keeps its children and leader deltas.  L_d holds the table rows
of the states reachable at day d under some sequence of family members, each
collapsed by ``game.collapse`` with T - d days left, in ascending order.  A
collapsed state has the value of every state it stands for (the proof is in
``collapse``'s docstring), so L_{d+1} is the collapse of what the table's
``reach`` returns for the child rows of L_d, and a layer keeps those raw
child rows with the position of each one's collapse in L_{d+1}.  A child's
gaps are at most d + 1, and a split with T - d - 1 days left is a gap of at
least T - d - 1, so while d + 2 < T - d the collapse is the identity and the
child rows are the next layer.  ``add`` appends the collapsed codes that
have no row and returns the rows of all of them at once.  A row never moves
once the table has it.  Gap tuples become codes and back only at
``trace``.  A backward pass then values a whole layer at once on the scaled
integers N(s, r) = V(s, r) * 2^r, which obey

    N(s, r) = max over A of 2^(r-1) * (delta_A + delta_B) + N(s_A, r-1) + N(s_B, r-1)

so every comparison is exact, and ties are exact equalities.  N(s, r) is at
most r * 2^r, which ``_limb_count(r)`` int64 limbs of ``LIMB_BITS`` bits hold
in ``forward``'s limb convention (one limb while r <= 55, two through
r = 115).  Members are valued in blocks of ``forward.BLOCK_CELLS``
branch-rows and folded into the max one at a time; two limb rows are
compared by the sign of their normalized difference, ``forward._at_least``.
Values leave the solver as ``Dyadic(N, r)``, and regrets as ``Dyadic(x)`` of
their ``Fraction`` difference.  Neither this solver nor ``best_fixed_subset``
(exact forward sweeps of groups of subsets at once, ``forward.scan_exact``)
has a float engine: the CLI prints the correctly rounded float of the exact
value when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator

import numpy as np

from .dyadic import Dyadic
from .errors import BudgetError
from .forward import (
    _at_least, _branch_blocks, _carry, _gain_rows, _join, _successors, _Table, scan_exact,
)
from .game import (
    MAX_K, GapState, RankSubset, all_strategies, collapse, packed_width, sentinel, unpack,
)

# hard ceilings; exceeding them is an error, never a silent approximation.
# A layer row keeps an 8 B table row index and its value (8 B per int64
# limb: one limb while r <= 55 days are left, two through r = 115); where
# the collapse is not the identity, the layer before it keeps 16 B per raw
# child row, its table row and its position (0.7-1.3 raw rows per layer
# row for all subsets of k = 3, 5 and 6 at T = 80, 80 and 39).
# Children and deltas live in the shared table, capped by
# forward.MAX_TABLE_ROWS.  Counting the table, peak RSS grows by about
# 660-810 B per layer row for the 32 subsets of k = 6 (T = 13, 16), 113-146 B
# for the 16 of k = 5 (T = 30, 40) and 12-37 B for the 4 of k = 3 (T = 80,
# 200: up to two and four limbs).
MAX_MEMO_NODES = 20_000_000
MAX_HORIZON = 400
# every gap reached within MAX_HORIZON days fits the packed width of any k,
# and collapse's sentinel S keeps its split at every horizon T: a gap kept
# on day d is at most d, and S - d >= T - d when S >= T
assert MAX_HORIZON < 1 << packed_width(MAX_K)
assert MAX_HORIZON <= sentinel(MAX_K)

# values are limb rows of LIMB_BITS bits.  Before its carry, a limb of a
# candidate sums two limbs, a delta sum of at most 2 shifted by up to 60 bits
# and a carry of at most 3, so it stays in int64.
LIMB_BITS = 61
assert 2 * ((1 << LIMB_BITS) - 1) + (2 << 60) + 3 < 1 << 63


def _limb_count(r: int) -> int:
    """The limbs that hold every N(s, r) <= r * 2^r, with r days left."""
    return max(1, -(-(r + r.bit_length()) // LIMB_BITS))  # the bits of r * 2^r


# a full budget of layer rows fits in 2 GiB: per row an 8 B table row and at
# most 7 limbs of value at MAX_HORIZON, about 1.28 GB
assert MAX_MEMO_NODES * 8 * (1 + _limb_count(MAX_HORIZON)) <= 2 << 30


def _lex_maximum(a, b):
    """Per row, the larger of the limb rows ``a`` and ``b``, shape (limbs, rows)."""
    if a.shape[0] == 1:
        return np.maximum(a, b)
    return np.where(_at_least(a, b, LIMB_BITS), a, b)


def _canonical_family(family: Iterable[RankSubset]) -> tuple[RankSubset, ...]:
    # a set of subsets, not of rank tuples: {1} of k = 4 is not {1} of k = 5
    members = {s.canonical() for s in family}
    if not members:
        raise ValueError("strategy family must be nonempty")
    ks = {s.k for s in members}
    if len(ks) != 1:
        raise ValueError(f"family mixes expert counts: {sorted(ks)}")
    return tuple(sorted(members, key=lambda s: s.ranks))


class AdaptiveSolver:
    """The best adaptive play over a family of subsets at horizon t.

    Construction checks the family, then the horizon, and only then derives
    and values the layers; the solver is its own result, with ``family``,
    ``t``, ``expected_max``, ``regret`` (their difference is exactly t/2) and
    ``node_count`` as attributes, and the policy is read through ``trace``.
    States are table rows inside; gap tuples appear only at ``trace``.
    """

    def __init__(self, k: int, family: Iterable[RankSubset], t: int):
        self.family = _canonical_family(family)
        if self.family[0].k != k:
            raise ValueError(f"family is for k={self.family[0].k}, not k={k}")
        if t < 0:
            raise ValueError(f"horizon must be nonnegative, got {t}")
        if t > MAX_HORIZON:
            raise BudgetError(f"horizon {t} exceeds the adaptive engine cap {MAX_HORIZON}")
        self.t = t
        # one member of every branch: rows 2j and 2j + 1 are subset j's
        self.table = _Table(
            k, _gain_rows(self.family).T.reshape(-1, 1), packed_width(k) * (k - 1), np.zeros(1, dtype=np.int64)
        )
        self._derive()
        self._solve()
        self.expected_max = Dyadic(_join(self._values[0][:, 0], LIMB_BITS), t)
        self.regret = Dyadic(self.expected_max - Dyadic(t, 1))
        # the collapsed states valued: L_0 ... L_{t-1}
        self.node_count = sum(layer.shape[0] for layer in self._layers[:t])

    def _derive(self) -> None:
        """The layers L_0 .. L_t, and per layer d < t the raw child rows of
        L_d with their positions in L_{d+1} (None where the collapse is the
        identity)."""
        k, t, table = self.table.k, self.t, self.table
        layers, reached = [np.zeros(1, dtype=np.int64)], []  # L_0: row 0, the day-0 state
        nodes = 0
        for d in range(t):
            # the states of L_0 .. L_d, all of them valued if d = t - 1
            rows = layers[d]
            nodes += rows.shape[0]
            if nodes > MAX_MEMO_NODES:
                raise BudgetError(f"adaptive memo exceeded {MAX_MEMO_NODES} nodes")
            table.expand(rows)
            blocks = _branch_blocks(table.children.shape[0], rows.shape[0])
            raw = table.reach(np.take(table.children[b], rows, axis=1) for b in blocks)
            if d + 2 < t - d:
                # a child's gaps are at most d + 1: none spans a split of t - d - 1
                layers.append(raw)
                reached.append((raw, None))
                continue
            codes = collapse(table.codes[raw], k, t - d - 1)
            distinct, rows = table.add(codes)
            layer = np.sort(rows)
            layers.append(layer)
            reached.append((raw, np.searchsorted(layer, rows)[np.searchsorted(distinct, codes)]))
        self._layers, self._reached = layers, reached

    def _solve(self) -> None:
        """The backward pass: N over every layer, L_t first."""
        n = np.zeros((1, self._layers[self.t].shape[0]), dtype=np.int64)
        self._values = [n]
        for d in reversed(range(self.t)):
            # each block's members, one at a time
            n = reduce(_lex_maximum, (m for c in self._candidates(d, n) for m in c.swapaxes(0, 1)))
            self._values.append(n)
        self._values.reverse()

    def _candidates(self, d: int, below, rows=slice(None)):
        """N(s, r) of layer d's ``rows``, r = t - d, under each block of
        members in turn, given ``below``, the N over L_{d+1}: carried limb
        rows of shape (limbs, members, rows)."""
        r = self.t - d
        spread = np.zeros((_limb_count(r), len(self.table)), dtype=np.int64)
        raw, collapsed = self._reached[d]
        spread[: below.shape[0], raw] = below if collapsed is None else np.take(below, collapsed, axis=1)
        at = self._layers[d][rows]
        # 2^(r-1) is bit `shift` of limb `limb`
        limb, shift = divmod(r - 1, LIMB_BITS)
        children, deltas = self.table.children, self.table.deltas
        for block in _branch_blocks(children.shape[0], at.shape[0], 2):
            # np.take, not 2-D fancy indexing, which is several times slower
            kids = np.take(children[block], at, axis=1)
            n = np.take(spread, kids[0::2], axis=1)
            n += np.take(spread, kids[1::2], axis=1)
            dsum = np.take(deltas[block], at, axis=1)
            # each member's int8 delta sum, at most 2, is cast before its shift
            # by up to 60 bits
            n[limb] += (dsum[0::2] + dsum[1::2]).astype(np.int64) << shift
            _carry(n, LIMB_BITS)
            yield n

    def _best(self, d: int, rows):
        """Mask (members, rows) of the members achieving N at layer d's rows."""
        values = self._values
        target = values[d][:, None, rows]
        return np.concatenate([(c == target).all(axis=0) for c in self._candidates(d, values[d + 1], rows)])

    def trace(self) -> Iterator[tuple[GapState, int, tuple[RankSubset, ...]]]:
        """Nodes reachable under optimal play from the start, breadth-first.

        Yields (state, remaining, maximizers); children follow every
        maximizing subset in family order, a-branch before b-branch, so the
        dump covers the whole set of positions an optimal adversary can face.
        States are raw, not collapsed: each is stepped by ``_successors`` and
        answered at its collapse, which lies in layer d for a state of day
        d.  That holds at the start, and a raw child has the collapse of
        the child of its parent's collapse, which L_{d+1} holds: above the
        split the two step alike, and below it every gap is still past a
        split with r - 1 days left, so it is set to the sentinel again.
        """
        k, t = self.table.k, self.t
        level = np.zeros(1, dtype=np.int64)  # the codes of day d, in breadth-first order
        for d in range(t):
            rows = self.table.find(collapse(level, k, t - d))
            best = self._best(d, np.searchsorted(self._layers[d], rows)).T.tolist()
            children = _successors(level, k, self.table.gain_rows, self.table.shift)[0].T.tolist()
            states = np.stack(unpack(level, k), axis=1).tolist()
            reached: dict = {}  # insertion-ordered set
            for state, mask, kids in zip(states, best, children):
                members = [m for m, b in enumerate(mask) if b]
                yield tuple(state), t - d, tuple(self.family[m] for m in members)
                for m in members:
                    reached.setdefault(kids[2 * m])
                    reached.setdefault(kids[2 * m + 1])
            level = np.array(list(reached), dtype=np.int64)


def value_adaptive(k: int, family: Iterable[RankSubset], t: int) -> AdaptiveSolver:
    """Expected regret of the best adaptive policy over ``family`` at horizon t."""
    return AdaptiveSolver(k, family, t)


@dataclass(frozen=True)
class BestFixedResult:
    """Outcome of scanning every canonical subset at one horizon."""

    maximizers: tuple[RankSubset, ...]
    regret: Dyadic
    expected_max: Dyadic
    scanned: int


def best_fixed_subset(k: int, t: int) -> BestFixedResult:
    """The best single subset strategy at horizon t, with all tied maximizers.

    Values all 2^(k-1) canonical subsets by exact, unpruned sweeps over
    groups of them, ``forward.scan_exact``; ties are exact equalities, reported in
    lexicographic rank order, so the first maximizer is deterministic.
    """
    if t < 1:
        raise ValueError(f"horizon must be at least 1, got {t}")
    subsets = list(all_strategies(k))
    regrets = scan_exact(k, t)
    best = max(regrets)
    return BestFixedResult(
        maximizers=tuple(s for s, v in zip(subsets, regrets) if v == best),
        regret=best,
        expected_max=Dyadic(best + Dyadic(t, 1)),
        scanned=len(subsets),
    )
