"""Shared helpers for the test suite: state enumeration, an independent
raw-totals reference for the one-day transition, and a dict-based reference
for exact forward series."""

from __future__ import annotations

from itertools import combinations_with_replacement

from combregret.dyadic import ZERO, Dyadic
from combregret.game import encode_state, initial_state, step


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
    gaps: tuple[int, ...], gains: tuple[int, ...], perm: list[int]
) -> tuple[tuple[int, ...], int]:
    """One day computed on raw totals with an explicit rank-to-expert map.

    Expert i starts at total -gaps[i]; the ranking assigns rank j (and hence
    gains[j]) to expert perm[j], which is legitimate whenever perm only
    permutes tied positions.  Returns the sorted successor gaps and the rise
    of the maximum total.
    """
    k = len(gaps)
    totals = [-g for g in gaps]
    for j in range(k):
        totals[perm[j]] += gains[j]
    new_max = max(totals)
    next_gaps = tuple(sorted(new_max - t for t in totals))
    return next_gaps, new_max  # old max total is 0 by construction


def reference_series(subset, t_max: int, eps: float):
    """Exact (values, error_bounds, frontier_peak) by a plain dict recurrence.

    Path counts over 2^day are keyed by packed code and stepped with
    ``game.step``: the reference for the table engine in ``forward``.
    """
    subset = subset.canonical()
    gains_a, gains_b = subset.gains(), subset.complement_gains()
    eps_num, eps_den = float(eps).as_integer_ratio()
    counts = {encode_state(initial_state(subset.k)): 1}
    moves: dict = {}  # code -> step(code, ...)
    values, bounds = [ZERO], [ZERO]
    regret = s0 = s1 = 0
    peak = 1
    for day in range(1, t_max + 1):
        nxt: dict = {}
        delta = 0
        for code, w in counts.items():
            if code not in moves:
                moves[code] = step(code, subset.k, gains_a, gains_b)
            code_a, code_b, d = moves[code]
            nxt[code_a] = nxt.get(code_a, 0) + w
            nxt[code_b] = nxt.get(code_b, 0) + w
            delta += d * w
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
