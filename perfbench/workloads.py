"""The four benchmark workloads: their commands, seeded input forms and checks.

Each workload is a list of CLI commands.  ``--seed`` picks, for every op, one
of several equivalent spellings of each command (a subset or its complement,
``all`` or a shuffled explicit family, optional flags given or left at their
defaults, flag order, command order).  All spellings must produce the same
output, so the work done and the metrics do not depend on the seed, while a
change that special-cases the literal benchmark arguments fails on a seed it
was not written against.

Checks never pin ``nodes=``: a lossless state collapse changes it on purpose.
Exact values are pinned bit for bit; the float sweep of ``figure1`` is
compared with a stored reference within its certified error bounds, because
binary64 reductions round differently across numpy builds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIGURE1_REF = HERE / "ref" / "figure1.csv"
FIGURE1_WINDOW = HERE / "ref" / "figure1_window.json"

# figure1 uses float arithmetic: allowance for reduction-order rounding on D,
# far above binary64 error (D ~ 7, R <= 13, sums of <= 1e5 terms) and far
# below any change of the computed values
FLOAT_SLACK = 1e-9
# pruned-mass error bound of the seed's figure1 sweep; a change may not widen
# it by more than a quarter (coarser pruning would buy speed with accuracy)
FIGURE1_ERR_BOUND = 8.291397669090541e-09
ERR_BOUND_GROWTH = 1.25

# exact results of the seed commit, keyed by workload and horizon; the small
# horizons serve the self-test
PINS = {
    "exact-eval": {
        100: {"csv_sha256": "d3730b5975ee7c646d5c1b530d90a287c018c1ef7ada1b2d1ff7b1831237c142"},
        8: {"csv_sha256": "9fa6babe87fb7d2c4590ae93188ad7f228b1b39e777b6d403f18e2fa3aa3a3c7"},
    },
    "adaptive-k6": {
        13: {"all": "37459/2^12", "pair": "2341/2^8", "best-fixed": "37451/2^12", "best": "1,3,6"},
        5: {"all": "67/2^4", "pair": "67/2^4", "best-fixed": "67/2^4", "best": "1,3,6"},
    },
    "adaptive-k3": {
        80: {"regret": "5745867330449876380037831/2^80"},
        8: {"regret": "383/2^8"},
    },
}

VALUE_RE = re.compile(r"^(expected_max|regret)=(-?[0-9.]+) \((-?\d+)/2\^(\d+)\)$")


def _dyadic(text: str) -> Fraction:
    num, exp = text.split("/2^")
    return Fraction(int(num), 1 << int(exp))


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _flags(rng: random.Random, required: list, optional: list) -> list[str]:
    """Required flag pairs plus each optional one with probability 1/2, shuffled."""
    pairs = list(required) + [p for p in optional if rng.random() < 0.5]
    rng.shuffle(pairs)
    return [x for pair in pairs for x in pair]


def _all_subsets(k: int) -> list[tuple[int, ...]]:
    out = []
    for mask in range(1 << (k - 1)):
        out.append((1,) + tuple(r for r in range(2, k + 1) if mask >> (r - 2) & 1))
    return out


def _family_text(rng: random.Random, k: int, members: list[tuple[int, ...]]) -> str:
    """A shuffled colon list of ``members``, each given as itself or as its
    complement (the full set has no nonempty complement)."""
    parts = []
    for ranks in members:
        comp = tuple(r for r in range(1, k + 1) if r not in ranks)
        parts.append(comp if comp and rng.random() < 0.5 else ranks)
    rng.shuffle(parts)
    return ":".join(",".join(str(r) for r in p) for p in parts)


def _all_family(rng: random.Random, k: int) -> str:
    return "all" if rng.random() < 0.5 else _family_text(rng, k, _all_subsets(k))


def parse_values(stdout: str) -> dict:
    """expected_max / regret lines as exact Fractions, decimals cross-checked."""
    out = {}
    for line in stdout.splitlines():
        m = VALUE_RE.match(line)
        if not m:
            continue
        value = Fraction(int(m.group(3)), 1 << int(m.group(4)))
        if Fraction(m.group(2)) != value:
            raise ValueError(f"decimal and n/2^e disagree: {line}")
        out[m.group(1)] = value
    return out


def keyed_lines(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


@dataclass
class Command:
    """One CLI op: its role in the workload, argv, and files it writes."""

    role: str
    argv: list[str]
    files: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one successful op produced, as the checks see it."""

    stdout: str
    files: dict  # name -> text
    series: list  # captured RegretSeries records


class Workload:
    name = ""
    why = ""
    full_horizon = 0
    # stdout lines that may differ between spellings of one command
    volatile = ("nodes=", "csv=", "svg=")

    def __init__(self, horizon: int | None = None):
        self.horizon = horizon or self.full_horizon

    def commands(self, rng: random.Random, workdir: Path, tag: str) -> list[Command]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference values computed once per run, outside any timed region."""

    def check(self, cmd: Command, out: Outcome) -> list[str]:
        """Every way the op's output is wrong; empty when it is right."""
        raise NotImplementedError

    def errors(self, cmd: Command, out: Outcome) -> list[str]:
        """``check``, with output too malformed to check counted as wrong."""
        try:
            return self.check(cmd, out)
        except (ValueError, KeyError, IndexError) as e:
            return [f"unreadable output: {e!r}"]

    def exact_err_bound(self, out: Outcome) -> list[str]:
        bad = [s["label"] for s in out.series if s["err_bound"] != 0.0]
        return [f"nonzero error bound on exact series {bad}"] if bad else []

    def signature(self, out: Outcome) -> str:
        """Everything an op outputs except volatile lines; spellings must agree."""
        lines = [ln for ln in out.stdout.splitlines() if not ln.startswith(self.volatile)]
        parts = ["\n".join(lines)] + [_sha256(out.files[k]) for k in sorted(out.files)]
        return _sha256("\x00".join(parts))


class Figure1(Workload):
    name = "figure1"
    why = ("float path of forward plus analysis, two pruned k=5 sweeps to T=350; "
           "zero Dyadic calls, so it is the control for exact-arithmetic and solver changes")
    full_horizon = 350

    def __init__(self, horizon=None):
        super().__init__(horizon)
        with open(FIGURE1_REF, encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        self.ref = {int(r["T"]): (float(r["D"]), float(r["lo"]), float(r["hi"])) for r in rows}
        # the CLI prints window statistics of D over 100..T_MAX when T_MAX > 100;
        # the reference holds them for the full horizon only
        self.window = range(100, self.horizon + 1) if self.horizon > 100 else None
        if self.window:
            with open(FIGURE1_WINDOW, encoding="utf-8") as f:
                self.ref_summary = json.load(f)
            if self.ref_summary.pop("window") != [100, self.horizon]:
                raise ValueError(f"no reference window statistics for T_MAX={self.horizon}")

    def commands(self, rng, workdir, tag):
        csv_path, svg_path = workdir / f"fig-{tag}.csv", workdir / f"fig-{tag}.svg"
        required = [("--out-csv", str(csv_path)), ("--out-svg", str(svg_path))]
        optional = [("--scale", "1000"), ("--prune", rng.choice(["2^-50", repr(2.0**-50)]))]
        if self.horizon != self.full_horizon or rng.random() < 0.5:
            required.append(("--t-max", str(self.horizon)))
        argv = ["figure1"] + _flags(rng, required, optional)
        return [Command("figure1", argv, {"csv": csv_path, "svg": svg_path})]

    def check(self, cmd, out):
        errors = []
        lines = keyed_lines(out.stdout)
        if float(lines.get("certified_min_from_t5", "nan")) != 0.0:
            errors.append(f"certified_min_from_t5={lines.get('certified_min_from_t5')}, want 0 (D(6) = 0)")
        if not out.files["svg"].startswith("<svg") or not out.files["svg"].endswith("</svg>"):
            errors.append("svg is not a complete <svg> element")
        rows = out.files["csv"].splitlines()
        if rows[0] != "T,D" or len(rows) != self.horizon + 1:
            return errors + [f"csv has header {rows[0]!r} and {len(rows) - 1} rows"]
        d = {int(t): float(v) for t, v in (r.split(",") for r in rows[1:])}
        errors += [f"D({t})={d[t]} is not positive" for t in range(7, self.horizon + 1) if not d[t] > 0]

        sa = [s for s in out.series if s["label"] == "1,3"]
        sb = [s for s in out.series if s["label"] == "1,3,5"]
        if len(sa) != 1 or len(sb) != 1:
            return errors + [f"expected one [1,3] and one [1,3,5] series, captured {len(out.series)}"]
        sa, sb = sa[0], sb[0]
        worst = max(sa["err_bound"], sb["err_bound"])
        if worst > FIGURE1_ERR_BOUND * ERR_BOUND_GROWTH:
            errors.append(f"error bound {worst} exceeds {ERR_BOUND_GROWTH} x the seed's {FIGURE1_ERR_BOUND}")
        tol, far = {}, []
        for t in range(1, self.horizon + 1):
            ra, ea = sa["values"][t], sa["error_bounds"][t]
            rb, eb = sb["values"][t], sb["error_bounds"][t]
            width = 1000 * ((ra + ea) ** 2 - ra * ra + (rb + eb) ** 2 - rb * rb) / t
            ref_d, ref_lo, ref_hi = self.ref[t]
            tol[t] = width + (ref_hi - ref_lo) + FLOAT_SLACK
            if not abs(d[t] - ref_d) <= tol[t]:
                far.append(t)
        if far:
            errors.append(f"D(T) outside the certified reference interval at T={far[:10]}")
        if self.window:
            if lines.get("window") != f"100..{self.horizon}":
                errors.append(f"window={lines.get('window')}")
            # an error of at most e on every D(T) moves min, max and mean by
            # at most e and the slope by at most e * sum|t - mean_t| / Sxx
            e = max(tol[t] for t in self.window)
            mean_t = sum(self.window) / len(self.window)
            slope_e = e * sum(abs(t - mean_t) for t in self.window) / sum(
                (t - mean_t) ** 2 for t in self.window)
            for key, want in self.ref_summary.items():
                got = float(lines.get(key, "nan"))
                if not abs(got - want) <= (slope_e if key == "slope" else e):
                    errors.append(f"{key}={got} outside the certified reference {want}")
        return errors


class ExactEval(Workload):
    name = "exact-eval"
    why = ("exact path of forward and dyadic: k=5 comb to T=100, 17k peak states, ~1.4M Dyadic "
           "constructions; no optimal work, where scaled-int arithmetic should show")
    full_horizon = 100
    brute_horizon = 12

    def commands(self, rng, workdir, tag):
        subset = rng.choice(["1,3,5", "2,4", "comb", "5,3,1", "4,2"])
        required = [("--k", "5"), ("--subset", subset), ("--t-max", str(self.horizon)),
                    ("--backend", "exact")]
        files = {}
        if rng.random() < 0.5:
            path = workdir / f"eval-{tag}.csv"
            required.append(("--out", str(path)))
            files["csv"] = path
        argv = ["eval"] + _flags(rng, required, [("--prune", "0")])
        return [Command("eval", argv, files)]

    def prepare(self):
        from combregret.game import RankSubset
        from combregret.oracle import brute_regret_fixed

        comb = RankSubset.of(5, (1, 3, 5))
        self.brute = {}
        for t in range(1, min(self.brute_horizon, self.horizon) + 1):
            v = brute_regret_fixed(5, comb, t)
            self.brute[t] = Fraction(v.num, 1 << v.exp)

    def signature(self, out):
        # the csv goes to stdout or to --out; either way it is the output
        return _sha256(out.files.get("csv", out.stdout))

    def check(self, cmd, out):
        text = out.files.get("csv", out.stdout)
        errors = self.exact_err_bound(out)
        if _sha256(text) != PINS[self.name][self.horizon]["csv_sha256"]:
            errors.append("csv digest differs from the seed's")
        rows = text.splitlines()[1:]
        for t, exact in self.brute.items():
            got = _dyadic(rows[t - 1].split(",")[2]) if t <= len(rows) else None
            if got != exact:
                errors.append(f"R({t})={got} but brute force gives {exact}")
        return errors


class Adaptive(Workload):
    """Shared checks of the two ``optimal`` workloads."""

    def value_errors(self, out: Outcome, field_name: str, want: str, t: int) -> list[str]:
        vals = parse_values(out.stdout)
        if set(vals) != {"expected_max", "regret"}:
            return [f"missing value lines in {out.stdout!r}"]
        errors = []
        if vals["expected_max"] - vals["regret"] != Fraction(t, 2):
            errors.append("expected_max - regret is not T/2")
        if vals[field_name] != _dyadic(want):
            errors.append(f"{field_name}={vals[field_name]}, want {want}")
        return errors

    def family_errors(self, out: Outcome, members: list[tuple[int, ...]]) -> list[str]:
        want = ":".join(",".join(map(str, m)) for m in sorted(members))
        got = keyed_lines(out.stdout).get("family")
        return [] if got == want else [f"family={got}, want {want}"]


class AdaptiveK6(Adaptive):
    name = "adaptive-k6"
    why = ("the paper's headline at k=6, T=13: wide family (32 subsets x 6,188 states = 198k step "
           "calls for 18.6k memo nodes), the two-subset family and the best-fixed scan")
    full_horizon = 13
    pair = [(1, 3, 6), (1, 4, 6)]

    def commands(self, rng, workdir, tag):
        t = ("--t", str(self.horizon))
        backend = [("--backend", "exact")]
        cmds = [
            Command("all", ["optimal"] + _flags(
                rng, [("--k", "6"), ("--family", _all_family(rng, 6)), t], backend)),
            Command("pair", ["optimal"] + _flags(
                rng, [("--k", "6"), ("--family", _family_text(rng, 6, self.pair)), t], backend)),
            Command("best-fixed", ["best-fixed"] + _flags(rng, [("--k", "6"), t], backend)),
        ]
        rng.shuffle(cmds)
        return cmds

    def check(self, cmd, out):
        pins = PINS[self.name][self.horizon]
        errors = self.exact_err_bound(out)
        errors += self.value_errors(out, "expected_max", pins[cmd.role], self.horizon)
        if cmd.role == "all":
            errors += self.family_errors(out, _all_subsets(6))
        elif cmd.role == "pair":
            errors += self.family_errors(out, self.pair)
        else:
            lines = keyed_lines(out.stdout)
            if lines.get("best") != pins["best"] or lines.get("scanned") != "32":
                errors.append(f"best={lines.get('best')} scanned={lines.get('scanned')}")
        return errors


class AdaptiveK3(Adaptive):
    name = "adaptive-k3"
    why = ("the optimal layer in the deep shape: 4 subsets to T=80, 3,240 states each valued at ~27 "
           "horizons, 88.6k memo nodes and 160-frame recursion, so memo growth dominates")
    full_horizon = 80

    def commands(self, rng, workdir, tag):
        required = [("--k", "3"), ("--family", _all_family(rng, 3)), ("--t", str(self.horizon))]
        return [Command("optimal", ["optimal"] + _flags(rng, required, [("--backend", "exact")]))]

    def prepare(self):
        from combregret.backend import EXACT
        from combregret.forward import regret_series_fixed
        from combregret.game import RankSubset

        self.members = {}
        for ranks in _all_subsets(3):
            series = regret_series_fixed(3, RankSubset.of(3, ranks), self.horizon, EXACT)
            v = series.values[self.horizon]
            self.members[ranks] = Fraction(v.num, 1 << v.exp)

    def check(self, cmd, out):
        errors = self.exact_err_bound(out)
        errors += self.value_errors(out, "regret", PINS[self.name][self.horizon]["regret"], self.horizon)
        errors += self.family_errors(out, _all_subsets(3))
        regret = parse_values(out.stdout).get("regret")
        if regret is not None:
            errors += [f"adaptive regret {regret} below fixed {m} at {v}"
                       for m, v in self.members.items() if regret < v]
        return errors


WORKLOADS = {w.name: w for w in (Figure1, ExactEval, AdaptiveK6, AdaptiveK3)}
