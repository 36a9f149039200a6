"""Write the reference of the figure1 workload under ref/.

Run from the repository root with the library on the path:

    PYTHONPATH=src python3 perfbench/make_ref.py

``figure1.csv`` has columns T, D as the CLI computes it, and [lo, hi], the
interval that holds the true D(T) given the pruned-mass error bounds of the
two float series.  ``figure1_window.json`` has the window statistics of D
over 100..T_MAX that the CLI prints (``constancy_report``).  The stored files
come from the seed commit and should only change when the reference itself is
in question, not to make a change pass.
"""

import json
from pathlib import Path

from combregret.analysis import constancy_report, diff_stat
from combregret.backend import FLOAT
from combregret.forward import DEFAULT_FLOAT_EPS, regret_series_fixed
from combregret.game import RankSubset

T_MAX = 350
SCALE = 1000
WINDOW_LO = 100


def main() -> None:
    a = regret_series_fixed(5, RankSubset.of(5, (1, 3)), T_MAX, FLOAT, DEFAULT_FLOAT_EPS)
    b = regret_series_fixed(5, RankSubset.of(5, (1, 3, 5)), T_MAX, FLOAT, DEFAULT_FLOAT_EPS)
    d = diff_stat(a, b, SCALE)
    lines = ["T,D,lo,hi"]
    for t in range(1, T_MAX + 1):
        ra, ea = a.values[t], a.error_bounds[t]
        rb, eb = b.values[t], b.error_bounds[t]
        lo = SCALE * (ra * ra - (rb + eb) ** 2) / t
        hi = SCALE * ((ra + ea) ** 2 - rb * rb) / t
        lines.append(f"{t},{d.values[t]!r},{lo!r},{hi!r}")
    ref = Path(__file__).resolve().parent / "ref"
    ref.mkdir(exist_ok=True)
    (ref / "figure1.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    cs = constancy_report(d, WINDOW_LO, T_MAX)
    window = {"window": [cs.t_lo, cs.t_hi], "min": cs.minimum, "max": cs.maximum,
              "mean": cs.mean, "slope": cs.slope}
    (ref / "figure1_window.json").write_text(json.dumps(window, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
