"""Forward propagation of the gap-state distribution under a fixed strategy.

The frontier is a sparse map from encoded states to probability weights.  One
day of play splits every state into its two equally likely branch successors
and accumulates the expected leader delta; the regret after T days is the sum
of the daily expected deltas minus T/2.

Two backends share this contract.  The exact backend is the reference and
works on scaled Python integers: every weight after day t is an integer path
count over 2^t, so a parent's count passes unchanged to both children, and
the regret and the pruned-mass ledger are carried as integers over 2^t too.
``Dyadic`` values are built only for the series handed back to callers.

The float backend runs the same recurrence on numpy arrays over a per-series
transition table: every state reached so far, sorted by packed code, with
the rows of its two children and their leader deltas filled in the first day
the state is on the frontier.  Each state is therefore decoded, stepped and
re-encoded once, and a day is a gather plus one ``np.bincount``.  The
frontier is an ascending array of table rows, so it stays in code order and
every float reduction adds its operands in that fixed order: the series are
reproducible bit for bit.  The table never forgets a state, so it is capped
at ``MAX_FLOAT_STATES`` rows; a sweep that would grow past the cap raises
``BudgetError``.

Both backends support pruning: states whose merged weight falls below a
threshold are dropped (without renormalizing), and the lost mass is logged
per day so a rigorous error interval can be reported.  A trajectory lost at
day t contributes between 0 and 1 to each of the T - t remaining leader
deltas, so the true regret lies in [R(T), R(T) + sum_t pruned_t * (T - t)].
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .backend import EXACT, FLOAT, ValueBackend
from .dyadic import ZERO, Dyadic
from .errors import BudgetError
from .game import ENCODE_BITS, RankSubset, encode_state, initial_state, step

# default prune threshold for float sweeps; exact runs default to no pruning
DEFAULT_FLOAT_EPS = 2.0**-50

# hard ceiling on the rows of a float sweep's transition table, which keeps
# every state the sweep ever reaches.  A sweep peaks at about 150 B of RSS
# per row (k = 5 comb, eps = 0, T = 350: 603,903 rows, 85 MiB above a 325-row
# sweep), so a 2 GiB budget allows about 14.3M rows.
MAX_FLOAT_STATES = (2 << 30) // 150


# ----------------------------------------------------------------------
# float fast path: the same recurrence over a persistent transition table

def _float_width(k: int) -> int:
    # k-1 packed fields must fit 63 bits to stay within int64
    return min(ENCODE_BITS, 63 // (k - 1))


def _spread(a, old):
    """A zeroed copy of ``a`` with its last axis moved to the positions flagged in ``old``."""
    out = np.zeros(a.shape[:-1] + old.shape, dtype=a.dtype)
    # row by row: a 1-D boolean assignment is much faster than a 2-D one
    for src, dst in zip(a.reshape(-1, a.shape[-1]), out.reshape(-1, old.shape[0])):
        dst[old] = src
    return out


class _TransitionTable:
    """Every state a float sweep has reached, sorted by packed code.

    Row i holds the code of state i and, once the state has been expanded,
    the table indices of its two children and their leader deltas, so each
    state is decoded, stepped and re-encoded once per series however many
    days it stays on the frontier.  Inserting new codes keeps the rows in
    code order and renumbers the stored child indices.
    """

    def __init__(self, k: int, width: int, gains_a, gains_b):
        self.k = k
        self.width = width
        self.gains = (gains_a, gains_b)
        self.codes = np.zeros(1, dtype=np.int64)  # the day-0 state
        self.children = np.zeros((2, 1), dtype=np.int64)
        self.deltas = np.zeros((2, 1), dtype=np.int8)  # a leader delta is 0 or 1
        self.expanded = np.zeros(1, dtype=bool)

    def __len__(self) -> int:
        return self.codes.shape[0]

    def expand(self, frontier):
        """Expand the frontier's unexpanded states; return the frontier's
        (ascending) indices after any rows were inserted."""
        new = frontier[~self.expanded[frontier]]
        if new.shape[0] == 0:
            return frontier
        child_codes, child_deltas = self._successors(self.codes[new])
        fresh = np.unique(child_codes)
        at = np.searchsorted(self.codes, fresh)
        known = self.codes[np.minimum(at, len(self) - 1)] == fresh
        fresh, at = fresh[~known], at[~known]
        if fresh.shape[0]:
            size = len(self) + fresh.shape[0]
            if size > MAX_FLOAT_STATES:
                raise BudgetError(f"float sweep table exceeded {MAX_FLOAT_STATES} states")
            # old row i moves down by the number of fresh codes below it
            old = np.ones(size, dtype=bool)
            old[at + np.arange(fresh.shape[0])] = False
            moved = np.flatnonzero(old)
            self.children = np.take(moved, self.children)
            self.codes, self.children, self.deltas, self.expanded = (
                _spread(a, old) for a in (self.codes, self.children, self.deltas, self.expanded)
            )
            self.codes[~old] = fresh
            frontier, new = moved[frontier], moved[new]
        self.children[:, new] = np.searchsorted(self.codes, child_codes)
        self.deltas[:, new] = child_deltas
        self.expanded[new] = True
        return frontier

    def _successors(self, codes):
        """Child codes and leader deltas, shape (2, n) each, of packed states."""
        k, width = self.k, self.width
        n = codes.shape[0]
        mask = np.int64((1 << width) - 1)
        gaps = np.zeros((n, k), dtype=np.int64)
        for i in range(1, k):
            gaps[:, i] = (codes >> np.int64(width * (i - 1))) & mask
        child_codes = np.zeros((2, n), dtype=np.int64)
        deltas = np.empty((2, n), dtype=np.int64)
        for b, gains in enumerate(self.gains):
            rel = gains[None, :] - gaps
            delta = rel.max(axis=1)
            nxt = delta[:, None] - rel
            nxt.sort(axis=1)
            for i in range(1, k):
                child_codes[b] |= nxt[:, i] << np.int64(width * (i - 1))
            deltas[b] = delta
        return child_codes, deltas


# ----------------------------------------------------------------------
# exact path: integer path counts in a plain dict

def _exact_step(counts: dict, gains_a, gains_b, k: int, cache: dict):
    """One day of the exact recurrence.

    counts maps keys to path counts over 2^(day-1); the returned counts are
    over 2^day, so each parent's count passes unchanged to both children.
    Returns (counts, delta) with delta equal to 2^day times the expected
    leader delta of the day.  cache maps key -> ``step(key, ...)``; states
    recur day after day, so a per-series cache skips most decode/sort work.
    """
    nxt: dict = {}
    delta = 0
    for key, w in counts.items():
        tr = cache.get(key)
        if tr is None:
            tr = cache[key] = step(key, k, gains_a, gains_b)
        ka, kb, d = tr
        nxt[ka] = nxt.get(ka, 0) + w
        nxt[kb] = nxt.get(kb, 0) + w
        if d:
            delta += d * w
    return nxt, delta


# ----------------------------------------------------------------------
# series over a horizon

@dataclass(frozen=True)
class RegretSeries:
    """R(T) for one strategy at every horizon 1..t_max.

    values[T] is the expected regret after T days (values[0] is zero); with
    pruning, the true value lies within error_bounds[T] above the stored one.
    """

    k: int
    subset: RankSubset
    backend: ValueBackend
    eps: float
    values: tuple
    error_bounds: tuple
    frontier_peak: int

    @property
    def t_max(self) -> int:
        return len(self.values) - 1

    def regret_at(self, t: int):
        return self.values[t]

    def bound_at(self, t: int):
        return self.error_bounds[t]


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

    if backend.is_exact:
        return _series_exact(k, subset, t_max, eps)
    return _series_float(k, subset, t_max, eps)


def _series_exact(k: int, subset: RankSubset, t_max: int, eps) -> RegretSeries:
    gains_a = subset.gains()
    gains_b = subset.complement_gains()
    eps_num, eps_den = float(eps).as_integer_ratio()
    counts = {encode_state(initial_state(k)): 1}
    cache: dict = {}
    values = [ZERO]
    bounds = [ZERO]
    # all scaled by 2^day: the regret, and the pruned-mass ledger
    # bound(T) = S0*T - S1 with S0 = sum m_t, S1 = sum m_t*t
    regret = s0 = s1 = 0
    peak = 1
    for day in range(1, t_max + 1):
        counts, delta = _exact_step(counts, gains_a, gains_b, k, cache)
        regret = 2 * regret + delta - (1 << (day - 1))
        pruned = 0
        if eps_num:
            # w/2^day < eps exactly when the integer w < ceil(eps * 2^day)
            cut = -(-(eps_num << day) // eps_den)
            for key in [key for key, w in counts.items() if w < cut]:
                pruned += counts.pop(key)
        s0 = 2 * s0 + pruned
        s1 = 2 * s1 + pruned * day
        values.append(Dyadic(regret, day))
        bounds.append(Dyadic(s0 * day - s1, day))
        peak = max(peak, len(counts))
    return RegretSeries(k, subset, EXACT, float(eps), tuple(values), tuple(bounds), peak)


def _series_float(k: int, subset: RankSubset, t_max: int, eps: float) -> RegretSeries:
    """The float recurrence over a ``_TransitionTable``.

    The frontier is an ascending array of table rows, that is of states in
    code order.  A day gathers their child rows and deltas and merges the
    children's weights with one ``np.bincount``.  Every reduction so adds
    the same operands in the same order as a sort-and-merge by code would:
    the expected-delta sums, each merged weight (bincount adds in input
    order, every a-child before every b-child, as a stable sort of the
    concatenated child codes does) and the pruned mass.  The series are
    reproducible bit for bit and do not depend on when a state entered the
    table.  A state stays on the frontier when a branch reaches it, even if
    its weight has underflowed to 0.0, as the exact engine keeps it.
    Raises ``BudgetError`` when the table would exceed ``MAX_FLOAT_STATES``
    rows.
    """
    width = _float_width(k)
    if t_max > (1 << width) - 1:
        raise ValueError(f"t_max {t_max} exceeds packed-gap range for k={k}")
    ga = np.array(subset.gains(), dtype=np.int64)
    gb = np.array(subset.complement_gains(), dtype=np.int64)
    table = _TransitionTable(k, width, ga, gb)
    frontier = np.zeros(1, dtype=np.int64)
    weights = np.ones(1, dtype=np.float64)
    values = [0.0]
    bounds = [0.0]
    regret = 0.0
    s0 = 0.0
    s1 = 0.0
    peak = 1
    for day in range(1, t_max + 1):
        frontier = table.expand(frontier)
        half = weights * 0.5
        deltas = np.take(table.deltas, frontier, axis=1)
        # the expected delta is accumulated before pruning
        expected_delta = float(np.sum(half * deltas[0])) + float(np.sum(half * deltas[1]))
        children = np.take(table.children, frontier, axis=1).ravel()
        merged = np.bincount(children, weights=np.concatenate([half, half]), minlength=len(table))
        reached = np.zeros(len(table), dtype=bool)
        reached[children] = True
        frontier = np.flatnonzero(reached)
        weights = merged[frontier]
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
    return RegretSeries(k, subset, FLOAT, eps, tuple(values), tuple(bounds), peak)


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


@dataclass(frozen=True)
class SeriesRow:
    t: int
    regret: float
    regret_exact: Dyadic | None
    error_bound: float


def read_series_csv(text_or_file) -> list[SeriesRow]:
    """Parse the CSV written by write_series_csv."""
    if isinstance(text_or_file, str):
        f = io.StringIO(text_or_file)
    else:
        f = text_or_file
    header = f.readline().strip()
    if header != SERIES_HEADER:
        raise ValueError(f"unexpected series header: {header!r}")
    rows = []
    for line in f:
        line = line.strip()
        if not line:
            continue
        t_txt, regret_txt, exact_txt, bound_txt = line.split(",")
        exact = Dyadic.parse(exact_txt) if exact_txt else None
        rows.append(SeriesRow(int(t_txt), float(regret_txt), exact, float(bound_txt)))
    return rows
