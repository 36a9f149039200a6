"""Exact expected-regret computations for balanced rank-subset adversaries
in the prediction-with-expert-advice game."""

from .analysis import (
    ConstancySummary,
    DiffStatSeries,
    certified_lower_bounds,
    constancy_report,
    diff_stat,
    write_diff_csv,
)
from .backend import EXACT, FLOAT, ValueBackend
from .dyadic import HALF, ONE, ZERO, Dyadic
from .errors import BudgetError
from .forward import (
    DEFAULT_FLOAT_EPS,
    RegretSeries,
    regret_series_fixed,
    write_series_csv,
)
from .game import (
    GapState,
    RankSubset,
    all_strategies,
)
from .optimal import (
    AdaptiveSolver,
    BestFixedResult,
    best_fixed_subset,
    value_adaptive,
)
from .oracle import brute_regret_fixed, brute_value_adaptive, k2_closed_form

__version__ = "0.1.0"
