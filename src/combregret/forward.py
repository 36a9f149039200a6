"""Forward propagation of the gap-state distribution under a fixed strategy.

The frontier is the array of the table rows of the states reached, with
their probability weights: one float64 per state, or int64 limb rows of
exact path counts.  One day of play splits every state
into its two equally likely branch successors and accumulates the expected
leader delta; the regret after T days is the sum of the daily expected
deltas minus T/2.

Every engine runs this recurrence over one kind of table, ``_Table``, of
every (member, state) code reached so far, one row each, appended as the
code first appears and never moved, with the rows of its children and
their leader deltas under its own member's branches filled in the first
day the code is on the frontier.  Rows live in buffers with spare
capacity, grown to a quarter past what a batch of new codes needs when it
does not fit, and ``len`` of a table counts the live rows.  Each code is
stepped once, by ``_successors``: re-sorting a child's gaps only reorders
runs of tied gaps, so the step reads the state's tie pattern through
``game.unpack`` and adds a tabulated offset to its code; the tests check it
against the brute-force oracle's step on raw totals.  A table never forgets
a code, so it is capped at ``MAX_TABLE_ROWS`` rows for a two-branch row and
fewer for a wider one; growing past the cap raises ``BudgetError``.

Every engine hands a day's child rows to the table's ``reach``, which
returns the rows they reach, ascending: every sweep's next frontier, and
the raw states the adaptive solver collapses into its next layer and
appends through ``add``, which returns the rows of the codes it is given.
A table of one member holds bare states under every branch of a family:
the float sweep's, of its one subset, and the adaptive solver's in
``optimal``, of its whole family.  A table of many
members, each of one subset's two branches, steps each row under its own
member alone, so a day costs the same number of numpy calls however many
members it holds; a member's sums over the frontier are one
``np.bincount`` by the rows' member bits.  It serves the one exact sweep,
``_sweep_exact``: one member for ``regret_series_fixed`` (``eval`` and
``compare``), and groups of members for ``scan_exact`` (``best-fixed``),
which values every canonical subset of k experts at one horizon.  A group
whose table outgrows ``SCAN_PAIRS`` rows splits in two, so long horizons
hold one or a few subsets' rows at a time.

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
from functools import cache
from itertools import accumulate

import numpy as np

from .backend import EXACT, FLOAT, ValueBackend
from .dyadic import Dyadic
from .errors import BudgetError
from .game import RankSubset, all_strategies, pack, packed_width, unpack

# default prune threshold for float sweeps; exact runs default to no pruning
DEFAULT_FLOAT_EPS = 2.0**-50

# hard ceiling on the rows of a one-member table, which keeps
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
# So is every member sum (``_member_sums``): a frontier holds at most one
# entry per table row, each below 2^(LIMB_BITS + 1).
LIMB_BITS = 28
_LIMB_MASK = (1 << LIMB_BITS) - 1
assert 2 * MAX_TABLE_ROWS << LIMB_BITS <= 1 << 53

# the most rows a scan's table holds for a group of more than one
# member before the group splits in two, each half over a table of its own.
# At 2^13 rows, about 0.4 MB of table, the k = 5 scans at T = 150 and 200
# peaked at most 2.3 MB (4 %) above one sweep per subset; at 2^16 they
# peaked 5-8 MB above it, and k = 6 at T = 80 8 MB above it
SCAN_PAIRS = 1 << 13

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


@cache
def _step_table(k: int):
    """The code offsets (int64) and leader deltas (int8) of one day, each
    indexed by [gain vector, tie pattern]: rank i gains at bit i - 1 of the
    gain vector, and bit p of the pattern is set when gaps p + 1 and p + 2
    tie.  Filled by one step of one state per pattern, whose gaps rise by 1
    wherever the pattern has no tie, under all 2^k gain vectors: x_i = g_i +
    delta - a_i, delta = max_i (a_i - g_i), sorted."""
    patterns = np.arange(1 << (k - 1))
    rises = (1 - ((patterns >> p) & 1) for p in range(k - 1))
    gaps = np.array(list(accumulate(rises, initial=patterns * 0)))
    gains = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    rel = gains[:, :, None] - gaps
    deltas = rel.max(axis=1)
    child = np.sort(deltas[:, None] - rel, axis=1)
    # read-only: every caller shares the cached arrays
    offsets, deltas = pack(child.swapaxes(0, 1), k) - pack(gaps[:, None], k), deltas.astype(np.int8)
    offsets.flags.writeable = deltas.flags.writeable = False
    return offsets, deltas


def _gain_rows(subsets):
    """The ``_step_table`` rows of each subset's two branches, shape (2,
    len(subsets)): row 0 the subset's gains, row 1 its complement's."""
    gains = np.array([[s.gains(), s.complement_gains()] for s in subsets], dtype=np.int64)
    return (gains @ (1 << np.arange(subsets[0].k))).T


def _successors(codes, k: int, gain_rows, shift: int):
    """One day from every (member, state) code in ``codes``, vectorized over
    the codes.

    A code is ``member << shift | state``, with the state's packed code below
    2^shift.  Column m of ``gain_rows`` names member m's branches as rows of
    ``_step_table``: shape (branches, members).  Returns the child codes and
    the leader deltas of every branch of each code's own member, shape
    (branches, n) each; a child keeps its parent's member bits.

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
    every child gap stays inside its packed field, and every child's state
    code below 2^shift.
    ``game.pack`` is additive over in-range gaps, so pack(child) -
    pack(parent) is one fixed offset for each (gain vector, tie pattern).

    The tie pattern is read from the state bits through ``game.unpack``, and
    every branch's offset and delta taken at column member * 2^(k-1) +
    pattern of its row of the members' tables laid side by side; nothing of
    shape (branches, n) is allocated beyond the two outputs.
    """
    gaps = unpack(codes & ((1 << shift) - 1), k)
    column = (codes >> shift) << (k - 1)
    for p in range(k - 1):
        column |= (gaps[p] == gaps[p + 1]) << p
    offsets, deltas = _step_table(k)
    width = gain_rows.shape[1] << (k - 1)
    child_codes = np.take(offsets[gain_rows].reshape(-1, width), column, axis=1)
    child_codes += codes
    return child_codes, np.take(deltas[gain_rows].reshape(-1, width), column, axis=1)


class _Table:
    """Every (member, state) code reached under a table's members, one row
    per code, with each row's child rows and leader deltas under every
    branch of its own member.

    A code is ``member << shift | state``, and column m of ``gain_rows``,
    shape (branches, members), names member m's branches as rows of
    ``_step_table``, the arguments ``_successors`` steps by.  The exact
    sweep's groups have many members of two branches each, shape (2, m).
    Every gap of a sweep to t_max is at most t_max, so its state codes stay
    below 2^shift for shift = ``packed_width(k) * (k - 2) +
    t_max.bit_length()``.
    The float sweep and the adaptive solver have one member of every branch
    of their family, shape (2m, 1), and shift = ``packed_width(k) * (k -
    1)``, so that every code is a bare state code; rows 2j and 2j + 1 are
    subset j's two branches.

    Row i holds code i and, once it has been expanded, the rows of its
    children and their leader deltas in column i of ``children`` and
    ``deltas``.  Each code is stepped once, the first time ``expand`` meets
    it, however many days it stays on a sweep's frontier or in how many of
    the solver's layers it lies; a batch is stepped in one call, and its
    child rows looked up in blocks of branches of at most ``BLOCK_CELLS``
    branch-rows.  Rows are appended by ``add`` alone, as codes appear, each
    batch in code order, and never move; ``order`` lists them in code order,
    for lookups.  The table starts from the rows ``codes``, distinct, in
    the order given: a scan group's half starts from its frontier.

    ``len`` counts the live rows.  ``children``, ``deltas`` and ``expanded``
    are whole buffers with spare rows past the live ones, which no reader
    indexes; ``codes`` is a view of the live rows of its buffer, so lookups
    never see a spare code.  A batch that does not fit grows every buffer to
    a quarter past the rows it needs, and never past the row budget: at most
    ``MAX_TABLE_ROWS`` rows, and fewer in the ratio of a two-branch row's
    width to the row's own where a row holds more branches.
    """

    def __init__(self, k: int, gain_rows, shift: int, codes):
        self.k, self.gain_rows, self.shift = k, gain_rows, shift
        self._codes = codes  # distinct
        self.codes = codes[:]  # the live rows' codes
        self.order = np.argsort(codes)
        self.children = np.zeros((gain_rows.shape[0], codes.shape[0]), dtype=np.int64)
        self.deltas = np.zeros(self.children.shape, dtype=np.int8)  # a leader delta is 0 or 1
        self.expanded = np.zeros(codes.shape[0], dtype=bool)

    def __len__(self) -> int:
        return self.codes.shape[0]

    def find(self, codes):
        """The rows of ``codes``, -1 for a code with no row."""
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

    def expand(self, rows) -> None:
        """Step the unexpanded codes among ``rows``, appending their new
        children.  ``add`` looks each distinct child code up once; each
        block of branches then finds its children's rows by a search of
        those distinct codes alone, not of the whole table."""
        new = rows[~self.expanded[rows]]
        if new.shape[0] == 0:
            return
        child_codes, child_deltas = _successors(self.codes[new], self.k, self.gain_rows, self.shift)
        distinct, rows = self.add(child_codes)
        # in blocks of branches, to keep the transient row indices small
        for block in _branch_blocks(self.children.shape[0], new.shape[0]):
            self.children[block, new] = rows[np.searchsorted(distinct, child_codes[block])]
        self.deltas[:, new] = child_deltas
        self.expanded[new] = True

    def add(self, codes):
        """Append a row for each distinct code of ``codes`` that has none, in
        code order, and return the distinct codes, ascending, with their
        rows: ``rows[np.searchsorted(distinct, codes)]`` are the rows of
        ``codes``, in any shape."""
        distinct = _sorted_unique(codes)
        rows = self.find(distinct)
        missing = rows < 0
        fresh = distinct[missing]
        if fresh.shape[0] == 0:
            return distinct, rows
        n, size = len(self), len(self) + fresh.shape[0]
        rows[missing] = np.arange(n, size)
        fixed = self.codes.itemsize + self.order.itemsize + self.expanded.itemsize
        branch = self.children.itemsize + self.deltas.itemsize
        limit = MAX_TABLE_ROWS * (fixed + 2 * branch) // (fixed + self.children.shape[0] * branch)
        if size > limit:
            raise BudgetError(f"table exceeded {limit} rows")
        self.order = np.insert(
            self.order, np.searchsorted(self.codes, fresh, sorter=self.order), np.arange(n, size)
        )
        if size > self._codes.shape[0]:
            # 1.25x, not 2x: spare rows cost peak memory at the solver's reach.
            # One buffer at a time, so that one old copy at most is held
            cap = min(size * 5 // 4, limit)
            self._codes = _grow(self._codes, cap)
            self.children = _grow(self.children, cap)
            self.deltas = _grow(self.deltas, cap)
            self.expanded = _grow(self.expanded, cap)
        self._codes[n:size] = fresh
        self.codes = self._codes[:size]
        return distinct, rows


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
    frontier_peak is the largest frontier of any day, after pruning.
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

    if not backend.is_exact:
        return _series_float(subset, t_max, eps)
    (record,), peak = _sweep_exact((subset,), t_max, eps)
    values = tuple(Dyadic(r, day) for day, (r, _, _) in enumerate(record))
    bounds = tuple(Dyadic(s0 * day - s1, day) for day, (_, s0, s1) in enumerate(record))
    return RegretSeries(subset, EXACT, values, bounds, peak)


def scan_exact(k: int, t_max: int) -> tuple[Dyadic, ...]:
    """R(t_max) of every canonical subset of k experts, exact and unpruned,
    in ``all_strategies`` order, from one ``_sweep_exact`` of them all."""
    if t_max >= 1 << packed_width(k):
        raise ValueError(f"t_max {t_max} exceeds packed-gap range for k={k}")
    records, _ = _sweep_exact(tuple(all_strategies(k)), t_max, 0.0)
    return tuple(Dyadic(record[-1][0], t_max) for record in records)


def _sweep_exact(subsets: tuple[RankSubset, ...], t_max: int, eps):
    """The exact sweep of ``subsets`` to ``t_max``, pruned at ``eps``: each
    subset's record, in order, and the largest frontier a group held after
    pruning (the subset's own for one subset).

    A record lists, for every day 0..t_max, the subset's regret and its
    pruned-mass ledger S0 = sum m_t and S1 = sum m_t * t, all three Python
    integers over 2^day; the error bound is S0 * day - S1.

    The subsets start in as few groups as their (member, state) codes allow
    (one group up to k = 5, and at k = 6, 7 and 8 to T = 1,023, 127 and 3),
    each over a ``_Table`` of its own, with a member of two branches per
    subset.  A group whose table passes ``SCAN_PAIRS`` rows, or the row or
    byte budget, splits into two halves at the end of that day (or before
    the day whose step overflows the table); each half carries on over a
    new table, started from its frontier in frontier order, so that its
    rows 0, 1, ... are its frontier, and the first half runs to
    ``t_max`` before the second starts.  A group of one subset
    splits no further and raises ``BudgetError`` instead: its table rows are
    the subset's states.
    """
    k = subsets[0].k
    gain_rows = _gain_rows(subsets)
    shift = packed_width(k) * (k - 2) + t_max.bit_length()
    size = min(gain_rows.shape[1], 1 << (63 - shift))
    codes = np.arange(size, dtype=np.int64) << shift
    # a group: its day, gain rows, frontier pairs and their counts, and its
    # members' records; the first group is popped first
    pending = [
        (0, gain_rows[:, lo : lo + size], codes, [np.ones(size, dtype=np.int64)], [[(0, 0, 0)] for _ in range(size)])
        for lo in reversed(range(0, gain_rows.shape[1], size))
    ]
    records, peak = [], 0
    while pending:
        done, halves, group_peak = _sweep_group(k, t_max, shift, eps, *pending.pop())
        records += done
        pending += reversed(halves)
        peak = max(peak, group_peak)
    return records, peak


def _sweep_group(k: int, t_max: int, shift: int, eps, day: int, gain_rows, codes, counts, records):
    """Carry a group of ``_sweep_exact`` from ``day`` on: its members'
    records to ``t_max`` and no halves, or no records and its two halves on
    the day it splits; and the largest frontier it held after pruning.

    ``counts`` holds the frontier's path counts over 2^day as int64 rows of
    ``LIMB_BITS``-bit limbs, least significant first; entry i of each row
    belongs to frontier pair i.  The frontier lists its table rows
    ascending, from ``_Table.reach``, so its gathers from the table run
    forward, and each member's expected delta and pruned mass are sums over
    its own pairs (``_member_sums``).  A pair's children are pairs of its
    own member, and a day merges each limb with one ``np.bincount`` of the
    children straight into their positions in the next frontier, then
    ``_carry``s the sums into a spare top limb,
    kept only when the carry reaches it.  The pruning cut drops the pairs
    whose count over 2^day falls below ``eps`` and charges each member's
    dropped mass to its own ledger.  The table's rows are charged
    ``ROW_BYTES`` plus 16 B per limb after the first, against
    ``MAX_TABLE_ROWS * ROW_BYTES`` bytes.
    """
    table = _Table(k, gain_rows, shift, codes)
    size = gain_rows.shape[1]
    eps_num, eps_den = float(eps).as_integer_ratio()
    budget = MAX_TABLE_ROWS * ROW_BYTES
    frontier = np.arange(len(table))
    peak = frontier.shape[0]
    for day in range(day + 1, t_max + 1):
        try:
            table.expand(frontier)
        except BudgetError:
            if size == 1:
                raise
            return [], _halves(table, day - 1, frontier, counts, records), peak
        deltas = np.take(table.deltas, frontier, axis=1)
        both = deltas[0] + deltas[1]
        delta = _member_sums(table, frontier, [limb * both for limb in counts])
        children = np.take(table.children, frontier, axis=1)
        frontier = table.reach(children)
        # each child's position in the next frontier, where its count merges
        at = np.empty(len(table), dtype=np.int64)
        at[frontier] = np.arange(frontier.shape[0])
        into = at[children.ravel()]
        # free the day's arrays before the merge and before the next day
        # grows the table
        del deltas, both, children, at
        merged = []
        while counts:
            # popped, so each limb is freed once merged
            limb = counts.pop(0)
            sums = np.bincount(into, weights=np.concatenate([limb, limb]), minlength=frontier.shape[0])
            merged.append(sums.astype(np.int64))
        merged.append(np.zeros_like(frontier))
        _carry(merged, LIMB_BITS)
        counts = merged if merged[-1].any() else merged[:-1]
        del into, limb, sums
        over = len(table) * (ROW_BYTES + 16 * (len(counts) - 1)) > budget
        if over and size == 1:
            raise BudgetError(f"exact sweep exceeded {budget} bytes: {len(table)} rows of {len(counts)} limbs")
        pruned = [0] * size
        if eps_num:
            # w/2^day < eps exactly when the integer w < ceil(eps * 2^day), in
            # limbs; a top limb of 2^LIMB_BITS already exceeds every count
            cut, top = -(-(eps_num << day) // eps_den), len(counts) - 1
            cut = [cut >> (LIMB_BITS * j) & _LIMB_MASK for j in range(top)] + [
                min(cut >> (LIMB_BITS * top), 1 << LIMB_BITS)
            ]
            keep = _at_least(counts, cut, LIMB_BITS)
            gone = ~keep
            pruned = _member_sums(table, frontier[gone], [limb[gone] for limb in counts])
            frontier, counts = frontier[keep], [limb[keep] for limb in counts]
        half = 1 << (day - 1)
        for record, d, m in zip(records, delta, pruned):
            r, s0, s1 = record[-1]
            record.append((2 * r + d - half, 2 * s0 + m, 2 * s1 + m * day))
        peak = max(peak, frontier.shape[0])
        if day < t_max and (over or (size > 1 and len(table) > SCAN_PAIRS)):
            return [], _halves(table, day, frontier, counts, records), peak
    return records, [], peak


def _member_sums(table: _Table, rows, limbs) -> list[int]:
    """Each member's sum of the limb rows ``limbs`` over its pairs, as Python
    ints, where entry i of each limb row belongs to the table row
    ``rows[i]``.  A lone member's sums are whole-row sums; a group's are one
    ``np.bincount`` per limb by the rows' member bits, 0 for a member with
    no pairs.  Both are exact: no frontier holds more than 2^24 pairs, each
    entry below 2^(LIMB_BITS + 1) (the assert on ``LIMB_BITS``)."""
    size = table.gain_rows.shape[1]
    if size == 1:
        return [_join((int(limb.sum()) for limb in limbs), LIMB_BITS)]
    members = table.codes[rows] >> table.shift
    sums = [np.bincount(members, weights=limb, minlength=size).astype(np.int64) for limb in limbs]
    return [_join(column, LIMB_BITS) for column in zip(*sums)]


def _halves(table: _Table, day: int, frontier, counts, records):
    """The two halves of a ``_sweep_exact`` group whose ``table`` holds the
    pairs ``frontier``, with ``counts`` at the end of ``day``: the first
    half of its members, then the rest, renumbered from 0, each listing its
    pairs in frontier order."""
    codes = table.codes[frontier]
    half = len(records) // 2
    low = codes < half << table.shift
    return [
        (day, table.gain_rows[:, :half], codes[low], [limb[low] for limb in counts], records[:half]),
        (day, table.gain_rows[:, half:], codes[~low] - (half << table.shift), [limb[~low] for limb in counts], records[half:]),
    ]


def _series_float(subset: RankSubset, t_max: int, eps: float) -> RegretSeries:
    """The float recurrence over a one-member ``_Table`` of ``subset``.

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
    k = subset.k
    table = _Table(k, _gain_rows((subset,)), packed_width(k) * (k - 1), np.zeros(1, dtype=np.int64))
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

