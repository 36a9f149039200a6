"""Forward propagation of the gap-state distribution under a fixed strategy.

The frontier is the ascending array of the transition-table rows of the
states reached, with their probability weights: one float64 per state, or
int64 limb rows of exact path counts.  One day of play splits every state
into its two equally likely branch successors and accumulates the expected
leader delta; the regret after T days is the sum of the daily expected
deltas minus T/2.

Both backends run this recurrence over one per-series ``_TransitionTable``:
every state reached so far, one row each, appended as the state first
appears and never moved, with the rows of its children and their leader
deltas filled in the first day the state is on the frontier.  Rows live in
buffers with spare capacity, grown by a quarter when a batch of new states
does not fit, and ``len`` of the table counts the live rows.  The table
holds a family of subsets; a sweep passes its one subset, and the adaptive
solver in ``optimal`` its whole family.  Each state is therefore stepped
once, by ``_successors``.  Re-sorting a child's gaps only reorders runs of
tied gaps, so the step reads the state's tie pattern through
``game.unpack`` and adds a tabulated offset to its code; the tests check it
against the brute-force oracle's step on raw totals.  Every engine
expands a day's states and hands their child rows to the table's ``reach``,
which returns the next frontier, or the raw states the solver collapses
into its next layer and appends through ``add``; a sweep also adds one
``np.bincount`` per weight row.  The table never forgets a state, so it is
capped at ``MAX_TABLE_ROWS`` rows for one member and fewer for a family;
growing past the cap raises ``BudgetError``.

The backends differ only in how they hold the weights:

* exact (the reference): every weight after day t is an integer path count
  over 2^t, so a parent's count passes unchanged to both children.  Counts
  are held in ``LIMB_BITS``-bit limbs, one int64 row per limb, and the
  regret and the pruned-mass ledger are Python integers over 2^t.
  The series handed back to callers are built from them as ``Dyadic``
  values, ``Fraction``s with exact decimal and ``n/2^e`` formatters.
* float: one float64 weight per state.  Every reduction adds its operands
  in row order, and a sweep appends rows by the day a state is first
  reached, then by code, so the series are reproducible bit for bit.

Both backends support pruning: states whose merged weight falls below a
threshold are dropped (without renormalizing), and the lost mass is logged
per day.  A trajectory lost at day t adds between 0 and 1 to each of the
T - t remaining leader deltas, so the true regret lies in [R(T), R(T) +
sum_t pruned_t * (T - t)] for the exact R; the float bound covers the
pruned mass but not binary64 rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate

import numpy as np

from .backend import EXACT, FLOAT, ValueBackend
from .dyadic import ZERO, Dyadic
from .errors import BudgetError
from .game import RankSubset, pack, packed_width, unpack

# default prune threshold for float sweeps; exact runs default to no pruning
DEFAULT_FLOAT_EPS = 2.0**-50

# hard ceiling on the rows of a one-member transition table, which keeps
# every state a sweep ever reaches.  A float sweep peaks at about 119-133 B
# of RSS per row (k = 5 comb, eps = 0, T = 340-355: 555,089-629,404 rows,
# over a 113-row sweep; 128 B at T = 350), up to 7 B of it in the table's
# spare rows; ROW_BYTES is 128 B, so a 2 GiB budget allows
# 2^24 rows, the most for which merged limbs stay exact (the assert below).
# An exact sweep also holds an int64 limb per frontier state for every 28
# days of horizon: the same T = 350 sweep (13 limbs) peaks at 177-181 MiB,
# 147-152 MiB above a T = 30 sweep, about 256-263 B per row.  It charges
# ROW_BYTES, which covers the first limb as it covers a float weight, plus
# 16 B per further limb for each row against the same budget: 320 B at 13
# limbs, which covers the whole peak.
# A family's table gets fewer rows, in the ratio of one member's row width to
# its own: 35 B against 593 B for the 32 subsets of k = 6, whose solve peaks
# at about 1.2 KB of RSS per row (T = 13, 16).
ROW_BYTES = 128
MAX_TABLE_ROWS = (2 << 30) // ROW_BYTES

# exact path counts are split into limbs of this many bits.  np.bincount
# sums in float64, and a merged limb sums at most two limbs, each below
# 2^LIMB_BITS, per table row, so every merged limb is an exact integer.
LIMB_BITS = 28
_LIMB_MASK = (1 << LIMB_BITS) - 1
assert 2 * MAX_TABLE_ROWS << LIMB_BITS <= 1 << 53

# the most branch-rows (branches times states) one numpy call looks up or
# values at once: a small layer goes in one call, a layer of more rows one
# branch (or one member) at a time
BLOCK_CELLS = 1 << 13


def _grow(a, size: int):
    """A zeroed copy of ``a`` with its last axis lengthened to ``size``."""
    out = np.zeros(a.shape[:-1] + (size,), dtype=a.dtype)
    out[..., : a.shape[-1]] = a
    return out


def _sorted_unique(codes):
    """The distinct values of ``codes``, ascending."""
    # sort plus adjacent difference: np.unique would import numpy.ma
    out = np.sort(codes, axis=None)
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def _branch_blocks(branches: int, rows: int, pair: int = 1) -> list[slice]:
    """Slices covering ``branches`` for a step of ``rows`` rows: blocks of as
    many whole groups of ``pair`` branches as fit in ``BLOCK_CELLS``
    branch-rows, and at least one group."""
    step = max(1, BLOCK_CELLS // (pair * max(rows, 1))) * pair
    return [slice(lo, lo + step) for lo in range(0, branches, step)]


def _sort_step(gaps, k: int, gains):
    """The child gaps (one array per rank) and leader deltas of the states
    ``gaps`` (one array per rank) under each branch of ``gains``, shape
    (branches, n) each: x_i = g_i + delta - a_i, delta = max_i (a_i - g_i),
    sorted rank by rank by an insertion network of compare-exchanges."""
    rel = [gains[:, i, None] - gaps[i] for i in range(k)]
    delta = reduce(np.maximum, rel)
    nxt = [np.subtract(delta, r, out=r) for r in rel]
    for i in range(1, k):
        for j in range(i, 0, -1):
            low = np.minimum(nxt[j - 1], nxt[j])
            nxt[j] = np.maximum(nxt[j - 1], nxt[j])
            nxt[j - 1] = low
    return nxt, delta


@cache
def _step_table(k: int):
    """The code offsets (int64) and leader deltas (int8) of one day, each
    indexed by [gain vector, tie pattern]: rank i gains at bit i - 1 of the
    gain vector, and bit p of the pattern is set when gaps p + 1 and p + 2
    tie.  Filled by ``_sort_step`` on one state per pattern, whose gaps rise
    by 1 wherever the pattern has no tie, under all 2^k gain vectors."""
    patterns = np.arange(1 << (k - 1))
    rises = (1 - ((patterns >> p) & 1) for p in range(k - 1))
    gaps = list(accumulate(rises, initial=patterns * 0))
    gains = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    child, deltas = _sort_step(gaps, k, gains)
    # read-only: every caller shares the cached arrays
    offsets, deltas = pack(child, k) - pack(gaps, k), deltas.astype(np.int8)
    offsets.flags.writeable = deltas.flags.writeable = False
    return offsets, deltas


def _successors(codes, k: int, gains):
    """One day from every packed state in ``codes``, vectorized over the codes.

    ``gains`` holds the 0/1 per-rank gains of each branch (a subset and its
    complement, for one or more subsets in turn).  Returns the child codes
    and the leader deltas of every branch, shape (len(gains), n) each.

    A child's code is its parent's code plus an offset from ``_step_table``,
    which depends only on the branch's gains and the parent's tie pattern.
    Write the parent's gaps g_1 = 0 <= g_2 <= ... <= g_k and the branch's
    gains a_i in {0, 1}.  The step forms x_i = g_i + delta - a_i, with
    delta = max_i (a_i - g_i) in {0, 1}, and sorts.  For i < j with
    g_i < g_j, x_i <= g_j - 1 + delta <= x_j; with g_i = g_j, x_i > x_j
    only when a_i = 0 and a_j = 1.  So sorting only reorders runs of equal
    gaps, and inside a run it puts the gaining ranks first: the sorted
    child is g + delta - a', where a' is a with each tie run reordered
    gainers first.  A rank outside the leader's run has g_i >= 1, so
    delta = 1 exactly when a rank in the leader's run gains.  Both a' and
    delta therefore depend only on a and on the tie pattern, whose bit p is
    set when g_(p+1) = g_(p+2): 2^(k-1) patterns.  Every child gap is at most
    one above the parent's largest, and every engine steps gaps of at most
    2^width - 2 alone: a sweep's are below t_max < 2^width, and the adaptive
    solver's below its horizon or at ``game.sentinel``, 2^width - 2.  So
    every child gap stays inside its packed field.  ``game.pack`` is
    additive over in-range gaps, so pack(child) - pack(parent) is one fixed
    offset for each (gain vector, tie pattern).

    ``game.unpack`` reads the tie pattern; nothing of shape (branches, n)
    is allocated beyond the two outputs.
    """
    gaps = unpack(codes, k)
    pattern = np.zeros(codes.shape[0], dtype=np.int64)
    for p in range(k - 1):
        pattern |= (gaps[p] == gaps[p + 1]) << p
    offsets, deltas = _step_table(k)
    rows = np.asarray(gains, dtype=np.int64) @ (1 << np.arange(k))
    child_codes = np.take(offsets[rows], pattern, axis=1)
    child_codes += codes
    return child_codes, np.take(deltas[rows], pattern, axis=1)


class _TransitionTable:
    """Every state reached under a family of subsets, one row per state.

    Row i holds the code of state i and, once the state has been expanded,
    the rows of its children and their leader deltas: rows 2j and 2j + 1 of
    ``children`` and ``deltas`` are the two branches of member j.  Each state
    is therefore stepped once, however many days it stays on a sweep's
    frontier or in how many of the adaptive solver's layers it lies.  Rows
    are appended by ``add`` alone, as states appear, each batch in code
    order, and never move; ``order`` lists them in code order, for lookups.
    A batch of states is stepped in one call, and their child rows looked up
    in blocks of branches of at most ``BLOCK_CELLS`` branch-rows.

    ``len`` counts the live rows.  ``children``, ``deltas`` and ``expanded``
    are whole buffers with spare rows past the live ones, which no reader
    indexes; ``codes`` is a view of the live rows of its buffer, so lookups
    never see a spare code.  A batch that does not fit grows every buffer by
    a quarter, or to the batch, and never past the row budget.
    """

    def __init__(self, family: tuple[RankSubset, ...]):
        self.k = family[0].k
        self.gains = np.array(  # (branches, k)
            [g for s in family for g in (s.gains(), s.complement_gains())], dtype=np.int64
        )
        self._codes = np.zeros(1, dtype=np.int64)  # the day-0 state
        self.codes = self._codes[:1]  # the live rows' codes
        self.order = np.zeros(1, dtype=np.int64)
        self.children = np.zeros((len(self.gains), 1), dtype=np.int64)
        self.deltas = np.zeros((len(self.gains), 1), dtype=np.int8)  # a leader delta is 0 or 1
        self.expanded = np.zeros(1, dtype=bool)

    def __len__(self) -> int:
        return self.codes.shape[0]

    def find(self, codes):
        """The rows of the states ``codes``, -1 for a code with no row."""
        at = np.searchsorted(self.codes, codes, sorter=self.order)
        rows = self.order[np.minimum(at, len(self) - 1)]
        return np.where(self.codes[rows] == codes, rows, -1)

    def reach(self, children):
        """The rows that ``children``, arrays of child rows, reach, ascending: a
        sweep's next frontier, or the raw rows of the solver's next layer
        (the solver passes blocks of branches)."""
        reached = np.zeros(len(self), dtype=bool)
        for rows in children:
            reached[rows] = True
        return np.flatnonzero(reached)

    def add(self, codes) -> None:
        """Append a row for each distinct state of ``codes`` that has none, in code order."""
        fresh = _sorted_unique(codes)
        fresh = fresh[self.find(fresh) < 0]
        if fresh.shape[0] == 0:
            return
        n, size = len(self), len(self) + fresh.shape[0]
        fixed = self.codes.itemsize + self.order.itemsize + self.expanded.itemsize
        branch = self.children.itemsize + self.deltas.itemsize
        limit = MAX_TABLE_ROWS * (fixed + 2 * branch) // (fixed + len(self.gains) * branch)
        if size > limit:
            raise BudgetError(f"transition table exceeded {limit} rows")
        self.order = np.insert(
            self.order, np.searchsorted(self.codes, fresh, sorter=self.order), np.arange(n, size)
        )
        if size > self._codes.shape[0]:
            # 1.25x, not 2x: spare rows cost peak memory at the solver's reach.
            # One buffer at a time, so that one old copy at most is held
            cap = min(max(size, self._codes.shape[0] * 5 // 4), limit)
            self._codes = _grow(self._codes, cap)
            self.children = _grow(self.children, cap)
            self.deltas = _grow(self.deltas, cap)
            self.expanded = _grow(self.expanded, cap)
        self._codes[n:size] = fresh
        self.codes = self._codes[:size]

    def expand(self, rows) -> None:
        """Step the unexpanded states among ``rows``, appending their new children."""
        new = rows[~self.expanded[rows]]
        if new.shape[0] == 0:
            return
        child_codes, child_deltas = _successors(self.codes[new], self.k, self.gains)
        self.add(child_codes)
        # in blocks of branches, to keep the transient row indices small
        for block in _branch_blocks(len(self.gains), new.shape[0]):
            self.children[block, new] = self.find(child_codes[block])
        self.deltas[:, new] = child_deltas
        self.expanded[new] = True

# ----------------------------------------------------------------------
# exact weights: path counts as int64 limb rows

# Every limb row in the package follows one convention: limb j, least
# significant first, is an int64 (or a row of them) below 2^bits, worth
# 2^(bits * j).  Sweeps use LIMB_BITS; the adaptive solver its own, wider one.
# Rows are compared by the sign of the normalized difference, ``_at_least``.

def _carry(limbs, bits: int) -> None:
    """Normalize the limb rows ``limbs`` in place: carry every limb's bits at
    and above ``bits`` into the next one.  The top limb is not masked: the
    caller sizes ``limbs`` so that it stays below 2^bits."""
    for j in range(len(limbs) - 1):
        limbs[j + 1] += limbs[j] >> bits
        limbs[j] &= (1 << bits) - 1


def _join(limbs, bits: int) -> int:
    """The Python integer of the limbs ``limbs``: the sum of the j-th times 2^(bits * j)."""
    return sum(int(x) << (bits * j) for j, x in enumerate(limbs))


def _at_least(a, b, bits: int):
    """Mask of where the limb rows ``a`` hold at least ``b``, both normalized
    (the top limb of ``b`` may be 2^bits, above every ``a``).

    Where a limb of the difference is negative, ``_carry`` borrows from the
    next one (numpy's right shift is arithmetic), so the top limb of the
    normalized difference has the sign of ``a - b``."""
    diff = [x - y for x, y in zip(a, b)]
    _carry(diff, bits)
    return diff[-1] >= 0


# ----------------------------------------------------------------------
# series over a horizon

@dataclass(frozen=True)
class RegretSeries:
    """R(T) for one strategy at every horizon 1..t_max.

    values[T] is the expected regret after T days (values[0] is zero); with
    pruning, the true value lies within error_bounds[T] above an exact
    stored one (a float bound does not cover binary64 rounding).
    """

    subset: RankSubset
    backend: ValueBackend
    values: tuple
    error_bounds: tuple
    frontier_peak: int

    @property
    def t_max(self) -> int:
        return len(self.values) - 1


def regret_series_fixed(
    k: int,
    subset: RankSubset,
    t_max: int,
    backend: ValueBackend = EXACT,
    eps: float | None = None,
) -> RegretSeries:
    """Expected-regret series of a fixed subset strategy up to horizon t_max."""
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")
    subset = subset.canonical()
    if subset.k != k:
        raise ValueError(f"subset is for k={subset.k}, not k={k}")
    if eps is None:
        eps = 0.0 if backend.is_exact else DEFAULT_FLOAT_EPS
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"prune threshold must be finite and nonnegative, got {eps}")
    if t_max >= 1 << packed_width(k):
        raise ValueError(f"t_max {t_max} exceeds packed-gap range for k={k}")

    if backend.is_exact:
        return _series_exact(subset, t_max, eps)
    return _series_float(subset, t_max, eps)


def _series_exact(subset: RankSubset, t_max: int, eps) -> RegretSeries:
    """The exact recurrence over a ``_TransitionTable``.

    ``counts`` holds the frontier's path counts over 2^day as int64 rows of
    ``LIMB_BITS``-bit limbs, least significant first; entry i of each row
    belongs to frontier state i.  A day merges each limb with one
    ``np.bincount`` of the child rows, gathers the sums to the next frontier
    and ``_carry``s them into a spare top limb, kept only when the carry
    reaches it.  Raises ``BudgetError`` when the table would exceed
    ``MAX_TABLE_ROWS`` rows, or its rows at ``ROW_BYTES`` plus 16 B per limb
    after the first the float sweep's ``MAX_TABLE_ROWS * ROW_BYTES`` bytes.
    """
    table = _TransitionTable((subset,))
    eps_num, eps_den = float(eps).as_integer_ratio()
    budget = MAX_TABLE_ROWS * ROW_BYTES
    frontier = np.zeros(1, dtype=np.int64)
    counts = [np.ones(1, dtype=np.int64)]
    values = [ZERO]
    bounds = [ZERO]
    # all scaled by 2^day: the regret, and the pruned-mass ledger
    # bound(T) = S0*T - S1 with S0 = sum m_t, S1 = sum m_t*t
    regret = s0 = s1 = 0
    peak = 1
    for day in range(1, t_max + 1):
        table.expand(frontier)
        deltas = np.take(table.deltas, frontier, axis=1)
        children = np.take(table.children, frontier, axis=1)
        frontier = table.reach(children)
        both = deltas[0] + deltas[1]
        delta = _join((limb @ both for limb in counts), LIMB_BITS)
        merged = []
        while counts:
            # popped, so each limb is freed once merged
            limb = counts.pop(0)
            sums = np.bincount(children.ravel(), weights=np.concatenate([limb, limb]), minlength=len(table))
            merged.append(sums[frontier].astype(np.int64))
        merged.append(np.zeros_like(frontier))
        _carry(merged, LIMB_BITS)
        counts = merged if merged[-1].any() else merged[:-1]
        # free the day's arrays before the next day grows the table
        del deltas, children, both, limb, sums
        if len(table) * (ROW_BYTES + 16 * (len(counts) - 1)) > budget:
            raise BudgetError(
                f"exact sweep exceeded {budget} bytes: {len(table)} rows of {len(counts)} limbs"
            )
        regret = 2 * regret + delta - (1 << (day - 1))
        pruned = 0
        if eps_num:
            # w/2^day < eps exactly when the integer w < ceil(eps * 2^day), in
            # limbs; a top limb of 2^LIMB_BITS already exceeds every count
            cut, top = -(-(eps_num << day) // eps_den), len(counts) - 1
            cut = [cut >> (LIMB_BITS * j) & _LIMB_MASK for j in range(top)] + [
                min(cut >> (LIMB_BITS * top), 1 << LIMB_BITS)
            ]
            keep = _at_least(counts, cut, LIMB_BITS)
            pruned = _join((limb[~keep].sum() for limb in counts), LIMB_BITS)
            frontier, counts = frontier[keep], [limb[keep] for limb in counts]
        s0 = 2 * s0 + pruned
        s1 = 2 * s1 + pruned * day
        values.append(Dyadic(regret, day))
        bounds.append(Dyadic(s0 * day - s1, day))
        peak = max(peak, frontier.shape[0])
    return RegretSeries(subset, EXACT, tuple(values), tuple(bounds), peak)


def _series_float(subset: RankSubset, t_max: int, eps: float) -> RegretSeries:
    """The float recurrence over a ``_TransitionTable``.

    A day merges the children's weights with one ``np.bincount``.  The
    frontier lists its rows in ascending order, which is the order of the
    day each state was first reached, then of its code, so every reduction
    adds its operands in that fixed order: the expected-delta sums, each
    merged weight (bincount adds in input order, every a-child before every
    b-child) and the pruned mass.  The series are reproducible bit for bit.
    A state stays on the frontier when a branch reaches it, even if its
    weight has underflowed to 0.0, as the exact engine keeps it.  Raises
    ``BudgetError`` when the table would exceed ``MAX_TABLE_ROWS`` rows.
    """
    table = _TransitionTable((subset,))
    frontier = np.zeros(1, dtype=np.int64)
    weights = np.ones(1, dtype=np.float64)
    values = [0.0]
    bounds = [0.0]
    regret = 0.0
    s0 = 0.0
    s1 = 0.0
    peak = 1
    for day in range(1, t_max + 1):
        table.expand(frontier)
        deltas = np.take(table.deltas, frontier, axis=1)
        children = np.take(table.children, frontier, axis=1)
        frontier = table.reach(children)
        half = weights * 0.5
        # the expected delta is accumulated before pruning
        expected_delta = float(np.sum(half * deltas[0])) + float(np.sum(half * deltas[1]))
        merged = np.bincount(children.ravel(), weights=np.concatenate([half, half]), minlength=len(table))
        weights = merged[frontier]
        # free the day's arrays before the next day grows the table
        del deltas, children, half, merged
        pruned = 0.0
        if eps > 0.0:
            keep = weights >= eps
            pruned = float(np.sum(weights[~keep]))
            frontier = frontier[keep]
            weights = weights[keep]
        regret += expected_delta - 0.5
        s0 += pruned
        s1 += pruned * day
        values.append(regret)
        bounds.append(s0 * day - s1)
        peak = max(peak, frontier.shape[0])
    return RegretSeries(subset, FLOAT, tuple(values), tuple(bounds), peak)


# ----------------------------------------------------------------------
# CSV interchange

SERIES_HEADER = "T,regret,regret_exact,error_bound"


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def write_series_csv(series: RegretSeries, out) -> None:
    """Write "T,regret,regret_exact,error_bound" rows for T = 1..t_max.

    ``out`` is a writable text file object.  Exact values print as exact
    decimals plus the n/2^e form; float values print with 17 significant
    digits and an empty exact column.
    """
    out.write(SERIES_HEADER + "\n")
    exact = series.backend.is_exact
    for t in range(1, series.t_max + 1):
        v = series.values[t]
        b = series.error_bounds[t]
        if exact:
            out.write(f"{t},{v.decimal()},{v.interchange()},{b.decimal()}\n")
        else:
            out.write(f"{t},{_fmt_float(v)},,{_fmt_float(b)}\n")

