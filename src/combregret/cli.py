"""Command-line front end.

Subcommands expose the engines over a small, reproducible surface: identical
configurations produce byte-identical output files.  Exit codes: 0 on
success, 1 when a verify suite fails, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from decimal import Decimal

from .analysis import (
    certified_lower_bounds,
    check_window,
    constancy_report,
    diff_stat,
    summary_lines,
    write_diff_csv,
)
from .backend import EXACT, FLOAT, ValueBackend
from .checks import SUITE_NAMES, run_suite
from .errors import BudgetError
from .forward import regret_series_fixed, write_series_csv
from .game import RankSubset, all_strategies
from .optimal import best_fixed_subset, value_adaptive

FIGURE_K = 5
FIGURE_A = (1, 3)
FIGURE_B = (1, 3, 5)
BACKENDS = tuple(b.value for b in ValueBackend)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _parse_eps(text: str) -> float:
    """Prune threshold: '0', a float literal, or a power like '2^-50'."""
    s = text.strip()
    power = s.startswith("2^")
    try:
        value = 2.0 ** int(s[2:]) if power else float(s)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"prune threshold {text} overflows a float") from None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"prune threshold {text} is not 0, a float or 2^N") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"prune threshold must be finite and nonnegative, got {text}"
        )
    if value == 0.0 and (power or Decimal(s) != 0):
        raise argparse.ArgumentTypeError(f"prune threshold {text} underflows to 0 as a float "
                                         "(smallest positive: 2^-1074); pass 0 for no pruning")
    return value


def _resolve_backend(name: str | None, t_max: int) -> ValueBackend:
    # small horizons default to exact arithmetic, sweeps to float
    if name is not None:
        return ValueBackend(name)
    return EXACT if t_max <= 30 else FLOAT


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as f:
            yield f


def _parse_family(k: int, text: str) -> list[RankSubset]:
    if text.strip() == "all":
        return list(all_strategies(k))
    return [RankSubset.parse(k, part) for part in text.split(":")]


def _print_values(result, backend_name: str) -> None:
    """Print a solver's expected_max and regret exactly or correctly rounded."""
    exact = ValueBackend(backend_name).is_exact
    for name, value in (("expected_max", result.expected_max), ("regret", result.regret)):
        text = f"{value.decimal()} ({value.interchange()})" if exact else f"{float(value):.17g}"
        print(f"{name}={text}")


# ----------------------------------------------------------------------
# subcommands

def _cmd_eval(args) -> int:
    subset = RankSubset.parse(args.k, args.subset)
    backend = _resolve_backend(args.backend, args.t_max)
    series = regret_series_fixed(args.k, subset, args.t_max, backend, args.prune)
    with _open_out(args.out) as f:
        write_series_csv(series, f)
    return 0


def _cmd_compare(args) -> int:
    a = RankSubset.parse(args.k, args.a)
    b = RankSubset.parse(args.k, args.b)
    # the window is checked before the sweeps, which may take long
    if args.window is not None:
        try:
            lo, hi = map(int, args.window.split(":"))
        except ValueError:
            raise ValueError(f"window must be LO:HI, got {args.window!r}") from None
        check_window(lo, hi, args.t_max)
    elif args.t_max > 100:
        lo, hi = 100, args.t_max
    else:
        lo, hi = max(1, args.t_max // 2), args.t_max
    backend = _resolve_backend(args.backend, args.t_max)
    sa = regret_series_fixed(args.k, a, args.t_max, backend, args.prune)
    sb = regret_series_fixed(args.k, b, args.t_max, backend, args.prune)
    d = diff_stat(sa, sb, args.scale)
    lines = summary_lines(constancy_report(d, lo, hi)) if lo < hi else []

    with _open_out(args.out) as f:
        write_diff_csv(d, f)
    # after a CSV on stdout, the summary lines are comments
    for line in lines:
        print(f"# {line}" if args.out == "-" else line)
    return 0


def _cmd_optimal(args) -> int:
    family = _parse_family(args.k, args.family)
    result = value_adaptive(args.k, family, args.t)
    label = {s: s.label() for s in result.family}
    print(f"family={':'.join(label.values())}")
    print(f"t={args.t}")
    print(f"nodes={result.node_count}")
    _print_values(result, args.backend)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as f:
            for state, remaining, maxers in result.solver.trace(args.t):
                state_txt = ",".join(map(str, state))
                f.write(f"({state_txt}) {remaining} -> {':'.join(label[s] for s in maxers)}\n")
    return 0


def _cmd_best_fixed(args) -> int:
    result = best_fixed_subset(args.k, args.t)
    print(f"t={args.t}")
    print(f"scanned={result.scanned}")
    print(f"best={result.maximizers[0].label()}")
    print(f"maximizers={':'.join(s.label() for s in result.maximizers)}")
    _print_values(result, args.backend)
    return 0


def _svg_chart(d) -> str:
    """Minimal SVG polyline of D(T): axes, title, one path, no styling."""
    width, height = 720, 440
    ml, mr, mt, mb = 60, 20, 40, 50
    t_max = d.t_max
    ys = [float(v) for v in d.values[1:]]
    y_hi = max(max(ys), 0.0) * 1.05 or 1.0
    y_lo = min(min(ys), 0.0)
    span = y_hi - y_lo or 1.0

    def x(t: float) -> float:
        return ml + (t - 1) / max(t_max - 1, 1) * (width - ml - mr)

    def y(v: float) -> float:
        return height - mb - (v - y_lo) / span * (height - mt - mb)

    points = " ".join(f"{x(t):.2f},{y(v):.2f}" for t, v in enumerate(ys, start=1))
    title = f"{d.scale}*(R[{d.label_a}]^2 - R[{d.label_b}]^2)/T, k={d.k}"
    zero_y = y(0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{zero_y:.2f}" x2="{width - mr}" y2="{zero_y:.2f}" stroke="black"/>',
        f'<text x="{ml - 8}" y="{y(y_hi / 1.05):.2f}" text-anchor="end" font-size="11">{y_hi / 1.05:.3g}</text>',
        f'<text x="{ml - 8}" y="{zero_y + 4:.2f}" text-anchor="end" font-size="11">0</text>',
        f'<text x="{x(t_max):.2f}" y="{height - mb + 16}" text-anchor="end" font-size="11">T={t_max}</text>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{points}"/>',
        "</svg>",
    ]
    return "\n".join(parts)


def _cmd_figure1(args) -> int:
    a = RankSubset.of(FIGURE_K, FIGURE_A)
    b = RankSubset.of(FIGURE_K, FIGURE_B)
    sa = regret_series_fixed(FIGURE_K, a, args.t_max, FLOAT, args.prune)
    sb = regret_series_fixed(FIGURE_K, b, args.t_max, FLOAT, args.prune)
    d = diff_stat(sa, sb, args.scale)
    with open(args.out_csv, "w", encoding="utf-8") as f:
        write_diff_csv(d, f)
    with open(args.out_svg, "w", encoding="utf-8") as f:
        f.write(_svg_chart(d))
    if args.t_max >= 5:
        # positivity that survives the pruning error, from T=5 on
        lower = certified_lower_bounds(sa, sb, args.scale)
        print(f"certified_min_from_t5={min(lower[5:]):.17g}")
    if args.t_max > 100:
        for line in summary_lines(constancy_report(d, 100, args.t_max)):
            print(line)
    print(f"csv={args.out_csv}")
    print(f"svg={args.out_svg}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, k=args.k, t_max=args.t_max)
    failures = 0
    for r in results:
        print(r.line())
        if not r.passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combregret",
        description="Exact expected-regret computations for balanced rank-subset adversaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p):
        p.add_argument("--backend", choices=BACKENDS, default=None,
                       help="arithmetic backend (default: exact up to T=30, float beyond)")
        p.add_argument("--prune", type=_parse_eps, default=None, metavar="EPS",
                       help="drop states below this weight, e.g. 2^-50 "
                       "(default: 0 exact, 2^-50 float)")

    def add_print_format(p):
        # the solvers are exact; float only rounds what they print
        p.add_argument("--backend", choices=BACKENDS, default="exact",
                       help="print the exact value, or its correctly rounded float")

    p = sub.add_parser("eval", help="regret series of one fixed subset strategy")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--subset", required=True, help="comma-separated ranks, e.g. 1,3, or comb")
    p.add_argument("--t-max", type=_positive_int, required=True)
    add_backend(p)
    p.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="difference statistic D(T) between two strategies")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--a", required=True, help="first subset, e.g. 1,3")
    p.add_argument("--b", required=True, help="second subset, e.g. 1,3,5")
    p.add_argument("--t-max", type=_positive_int, required=True)
    p.add_argument("--scale", type=_positive_int, default=1000)
    p.add_argument("--window", default=None, metavar="LO:HI",
                   help="constancy window (default 100:T_MAX when T_MAX > 100)")
    add_backend(p)
    p.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("optimal", help="best adaptive value over a family of subsets")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--family", required=True,
                   help="colon-separated subsets, e.g. 1,3,6:1,4,6, or 'all'")
    p.add_argument("--t", type=_positive_int, required=True)
    add_print_format(p)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="dump 'state remaining -> maximizers' lines to PATH")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("best-fixed", help="best single subset strategy at one horizon")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--t", type=_positive_int, required=True)
    add_print_format(p)
    p.set_defaults(func=_cmd_best_fixed)

    p = sub.add_parser("figure1", help="D(T) sweep for k=5, [1,3] vs [1,3,5]: CSV plus SVG")
    p.add_argument("--t-max", type=_positive_int, default=350)
    p.add_argument("--scale", type=_positive_int, default=1000)
    p.add_argument("--prune", type=_parse_eps, default=None, metavar="EPS")
    p.add_argument("--out-csv", default="figure1.csv")
    p.add_argument("--out-svg", default="figure1.svg")
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--k", type=_positive_int, default=None)
    p.add_argument("--t-max", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # output paths are checked before any engine runs; append mode
        # leaves an existing file as it is
        for name in ("out", "trace", "out_csv", "out_svg"):
            path = getattr(args, name, None)
            if path not in (None, "-"):
                open(path, "a", encoding="utf-8").close()
        return args.func(args)
    except (ValueError, BudgetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
