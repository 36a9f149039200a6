"""Shared helpers for the test suite: state enumeration, the brute-force
oracle's raw-totals step as the reference for the one-day transition, a
collapse of gap tuples with the adaptive solver's layers and values built on
it, and a dict-based reference for exact and float forward series."""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement

import numpy as np

from combregret.backend import EXACT
from combregret.dyadic import ZERO, Dyadic
from combregret.game import pack, packed_width, unpack
from combregret.oracle import _advance, _rank_order


def enumerate_states(k: int, gap_max: int) -> list[tuple[int, ...]]:
    """All valid sorted gap states with every gap at most gap_max."""
    return [
        (0,) + rest for rest in combinations_with_replacement(range(gap_max + 1), k - 1)
    ]


def tied_states(k: int, gap_max: int) -> list[tuple[int, ...]]:
    return [s for s in enumerate_states(k, gap_max) if len(set(s)) < len(s)]


def tie_consistent_perms(gaps: tuple[int, ...]) -> list[list[int]]:
    """Nontrivial permutations of rank positions that only shuffle tied ranks.

    For each maximal run of equal gaps the run is rotated by one and,
    separately, reversed; states without ties yield no permutations.
    """
    k = len(gaps)
    runs = []
    start = 0
    for i in range(1, k + 1):
        if i == k or gaps[i] != gaps[start]:
            if i - start > 1:
                runs.append(range(start, i))
            start = i
    if not runs:
        return []
    perms = []
    rotated = list(range(k))
    reversed_ = list(range(k))
    for run in runs:
        idx = list(run)
        for a, b in zip(idx, idx[1:] + idx[:1]):
            rotated[a] = b
        for a, b in zip(idx, reversed(idx)):
            reversed_[a] = b
    for p in (rotated, reversed_):
        if p != list(range(k)) and p not in perms:
            perms.append(p)
    return perms


def raw_reference_step(
    gaps: tuple[int, ...], ranks, order: list[int] | None = None
) -> tuple[tuple[int, ...], int]:
    """One day on raw totals, by the brute-force oracle's own step.

    Expert i starts at total -gaps[i], so the maximum total is 0; the
    experts at the 1-based ``ranks`` gain 1 through ``oracle._advance``.
    ``order`` lists the expert at each rank, by default the oracle's
    ``_rank_order``; any order that only permutes tied experts is as
    legitimate.  Returns the sorted successor gaps and the rise of the
    maximum total.
    """
    totals = tuple(-g for g in gaps)
    if order is None:
        order = _rank_order(totals)
    new = _advance(totals, order, frozenset(ranks))
    new_max = max(new)
    return tuple(sorted(new_max - t for t in new)), new_max


def one_member(gains, k: int):
    """The one-member ``gain_rows`` of the 0/1 gain vectors ``gains``, shape
    (len(gains), 1), and the ``shift`` of a one-member table: the arguments
    after ``k`` with which ``forward._successors`` steps bare state codes
    under every branch of ``gains``."""
    rows = np.asarray(gains, dtype=np.int64) @ (1 << np.arange(k))
    return rows[:, None], packed_width(k) * (k - 1)


def collapse_reference(gaps: tuple[int, ...], r: int) -> tuple[int, ...]:
    """``gaps`` with r days left, every gap below the first split (the first
    i with gaps[i + 1] - gaps[i] > r) set to the far gap 2^width - 2."""
    far = (1 << packed_width(len(gaps))) - 2
    for i in range(1, len(gaps)):
        if gaps[i] - gaps[i - 1] > r:
            return gaps[:i] + (far,) * (len(gaps) - i)
    return gaps


@cache
def collapsed_layers(k: int, family: tuple, t: int) -> tuple[frozenset, ...]:
    """The adaptive solver's layers L_0 .. L_t of horizon t as sets of gap
    tuples: L_{d+1} holds the ``raw_reference_step`` children of L_d under
    every member, each collapsed by ``collapse_reference`` with t - d - 1
    days left.  ``family`` is a tuple of subsets."""
    branches = [ranks for s in family for ranks in (s.ranks, s.complement_ranks())]
    layers = [frozenset([(0,) * k])]
    for d in range(t):
        layers.append(frozenset(
            collapse_reference(raw_reference_step(gaps, ranks)[0], t - d - 1)
            for gaps in layers[-1]
            for ranks in branches
        ))
    return tuple(layers)


def reference_values(family):
    """A function of (gaps, r): the scaled value N(s, r) = V(s, r) * 2^r of
    best adaptive play over ``family`` from the gap tuple s with r days
    left, and the indices of the members achieving it.  A memoized
    recursion over ``raw_reference_step``, with no collapse."""
    pairs = [(s.ranks, s.complement_ranks()) for s in family]

    @cache
    def scaled(gaps: tuple[int, ...], r: int) -> tuple[int, tuple[int, ...]]:
        if r == 0:
            return 0, ()
        values = []
        for pair in pairs:
            n = 0
            for ranks in pair:
                child, delta = raw_reference_step(gaps, ranks)
                n += (delta << (r - 1)) + scaled(child, r - 1)[0]
            values.append(n)
        best = max(values)
        return best, tuple(m for m, n in enumerate(values) if n == best)

    return scaled


def reference_series(subset, t_max: int, eps: float, backend=EXACT):
    """(values, error_bounds, frontier_peak) by a plain dict recurrence.

    Weights are keyed by packed code and stepped with ``raw_reference_step``:
    the reference for the table engines in ``forward``.  Exact weights are
    path counts over 2^day.  Float states are listed by the day they were
    first reached, then by code, the order of the float engine's table rows:
    weights are merged over the parents in that order, every a-branch before
    every b-branch, and the expected delta and the pruned mass are
    ``np.sum``s over arrays in that order.  These are the operands and the
    order the float engine adds them in, so its series match these bit for
    bit.
    """
    subset = subset.canonical()
    k = subset.k
    ranks = subset.ranks, subset.complement_ranks()
    moves: dict = {}  # code -> (child a, child b, delta a, delta b)

    def move(code):
        if code not in moves:
            gaps = unpack(code, k)
            (child_a, delta_a), (child_b, delta_b) = (raw_reference_step(gaps, r) for r in ranks)
            moves[code] = pack(child_a, k), pack(child_b, k), delta_a, delta_b
        return moves[code]

    start = pack((0,) * k, k)
    if backend.is_exact:
        return _reference_exact(move, start, t_max, eps)
    return _reference_float(move, start, t_max, eps)


def _reference_exact(move, start: int, t_max: int, eps: float):
    eps_num, eps_den = float(eps).as_integer_ratio()
    counts = {start: 1}
    values, bounds = [ZERO], [ZERO]
    regret = s0 = s1 = 0
    peak = 1
    for day in range(1, t_max + 1):
        nxt: dict = {}
        delta = 0
        for code, w in counts.items():
            code_a, code_b, delta_a, delta_b = move(code)
            nxt[code_a] = nxt.get(code_a, 0) + w
            nxt[code_b] = nxt.get(code_b, 0) + w
            delta += (delta_a + delta_b) * w
        counts = nxt
        regret = 2 * regret + delta - (1 << (day - 1))
        pruned = 0
        if eps_num:
            cut = -(-(eps_num << day) // eps_den)  # w/2^day < eps iff w < cut
            pruned = sum(counts.pop(code) for code in [c for c, w in counts.items() if w < cut])
        s0 = 2 * s0 + pruned
        s1 = 2 * s1 + pruned * day
        values.append(Dyadic(regret, day))
        bounds.append(Dyadic(s0 * day - s1, day))
        peak = max(peak, len(counts))
    return tuple(values), tuple(bounds), peak


def _reference_float(move, start: int, t_max: int, eps: float):
    weights = {start: 1.0}
    first = {start: 0}  # code -> the day it was first reached, pruned or not
    values, bounds = [0.0], [0.0]
    regret = s0 = s1 = 0.0
    peak = 1
    for day in range(1, t_max + 1):
        parents = sorted(weights, key=lambda code: (first[code], code))
        moves = [move(code) for code in parents]
        half = np.array([weights[code] for code in parents]) * 0.5
        merged: dict = {}
        for branch in (0, 1):
            for m, w in zip(moves, half.tolist()):
                merged[m[branch]] = merged.get(m[branch], 0.0) + w
        delta_a = float(np.sum(half * np.array([m[2] for m in moves])))
        delta_b = float(np.sum(half * np.array([m[3] for m in moves])))
        for code in merged:
            first.setdefault(code, day)
        codes = sorted(merged, key=lambda code: (first[code], code))
        reached = np.array([merged[code] for code in codes])
        keep = reached >= eps
        pruned = float(np.sum(reached[~keep]))
        weights = {code: w for code, w, kept in zip(codes, reached.tolist(), keep) if kept}
        regret += delta_a + delta_b - 0.5
        s0 += pruned
        s1 += pruned * day
        values.append(regret)
        bounds.append(s0 * day - s1)
        peak = max(peak, len(weights))
    return tuple(values), tuple(bounds), peak
