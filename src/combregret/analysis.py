"""Statistics derived from regret series.

The headline quantity is the scaled difference of normalized squared regrets,

    D(T) = scale * (R_a(T)^2 - R_b(T)^2) / T,

whose positivity (a = [1,3], b = [1,3,5], k = 5) is the evidence that the
comb strategy is dominated.  D is exactly 0 at T = 1..4 and T = 6, where the
two regrets tie (R(6) = 13/2^3 for both), and strictly positive at T = 5 and
every T >= 7 computed (exactly to T = 350, from the unpruned exact series).
Exact input series give exact D values: a ``Dyadic`` is a ``Fraction``,
and division by T leaves the dyadics, so D is a plain ``Fraction``.  For
pruned float sweeps, a certified lower bound widens each regret by its error
bound in the adverse direction, so positivity claims survive the lost mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forward import RegretSeries


@dataclass(frozen=True)
class DiffStatSeries:
    """D(T) for T = 1..t_max; values[0] is a zero placeholder."""

    k: int
    label_a: str
    label_b: str
    scale: int
    exact: bool
    values: tuple

    @property
    def t_max(self) -> int:
        return len(self.values) - 1


def diff_stat(a: RegretSeries, b: RegretSeries, scale: int = 1000) -> DiffStatSeries:
    """Scaled difference of normalized squared regrets, entry per horizon."""
    if a.k != b.k:
        raise ValueError(f"series disagree on k: {a.k} vs {b.k}")
    if a.t_max != b.t_max:
        raise ValueError(f"series cover different ranges: {a.t_max} vs {b.t_max}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    exact = a.backend.is_exact and b.backend.is_exact
    values = [Fraction(0) if exact else 0.0]
    for t in range(1, a.t_max + 1):
        ra, rb = a.values[t], b.values[t]
        if not exact:
            ra, rb = float(ra), float(rb)
        values.append(scale * (ra * ra - rb * rb) / t)
    return DiffStatSeries(
        k=a.k,
        label_a=a.subset.label(),
        label_b=b.subset.label(),
        scale=scale,
        exact=exact,
        values=tuple(values),
    )


def certified_lower_bounds(a: RegretSeries, b: RegretSeries, scale: int = 1000) -> tuple:
    """Per-horizon lower bounds on the true D(T), safe against pruning.

    A true regret is nonnegative, at least the computed one and at most
    that plus its error bound, so the true D(T) is at least
    scale*(max(R_a, 0)^2 - (R_b + e_b)^2)/T: heavy pruning can drive the
    computed R_a below 0, where its square would overstate the true one.

    The widening covers pruned mass only, not binary64 rounding in the
    sweeps or in this subtraction.  Against the exact series for k = 5,
    [1,3] vs [1,3,5], the bound exceeds the exact D at 17 horizons in 7..40,
    by at most about 8e-14 (T = 40: 7.4465736948507555, where the exact D
    rounds to 7.446573694850673), far below the ~3.46 minimum of D off the
    ties.
    """
    if a.k != b.k or a.t_max != b.t_max:
        raise ValueError("series must cover the same game and range")
    out = [0.0]
    for t in range(1, a.t_max + 1):
        ra = max(float(a.values[t]), 0.0)
        rb = float(b.values[t]) + float(b.error_bounds[t])
        out.append(scale * (ra * ra - rb * rb) / t)
    return tuple(out)


@dataclass(frozen=True)
class ConstancySummary:
    t_lo: int
    t_hi: int
    minimum: float
    maximum: float
    mean: float
    slope: float


def constancy_report(d: DiffStatSeries, t_lo: int, t_hi: int) -> ConstancySummary:
    """Window statistics of D: min, max, mean, and least-squares slope in T."""
    if not 1 <= t_lo < t_hi <= d.t_max:
        raise ValueError(f"window [{t_lo}, {t_hi}] not inside 1..{d.t_max}")
    ys = [float(d.values[t]) for t in range(t_lo, t_hi + 1)]
    ts = list(range(t_lo, t_hi + 1))
    n = len(ys)
    mean_t = sum(ts) / n
    mean_y = sum(ys) / n
    sxx = sum((t - mean_t) ** 2 for t in ts)
    sxy = sum((t - mean_t) * (y - mean_y) for t, y in zip(ts, ys))
    return ConstancySummary(
        t_lo=t_lo,
        t_hi=t_hi,
        minimum=min(ys),
        maximum=max(ys),
        mean=mean_y,
        slope=sxy / sxx,
    )


def summary_lines(cs: ConstancySummary) -> list[str]:
    return [
        f"window={cs.t_lo}..{cs.t_hi}",
        f"min={cs.minimum:.17g}",
        f"max={cs.maximum:.17g}",
        f"mean={cs.mean:.17g}",
        f"slope={cs.slope:.17g}",
    ]


# ----------------------------------------------------------------------
# CSV interchange

DIFF_HEADER = "T,D"


def write_diff_csv(d: DiffStatSeries, out) -> None:
    """Rows "T,D" for T = 1..t_max; exact values as fractions, else 17 digits."""
    out.write(DIFF_HEADER + "\n")
    for t in range(1, d.t_max + 1):
        v = d.values[t]
        text = str(v) if d.exact else f"{v:.17g}"
        out.write(f"{t},{text}\n")

