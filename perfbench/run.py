"""Benchmark runner for the combregret command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are defined in ``workloads.py``;
``--workload all`` runs each in turn.  Every op is one CLI command in a fresh
interpreter (``child.py``), because users pay the import and start with an
empty memo on every invocation.  Ops run one at a time: a closed loop with a
single client, no threads.  The loop repeats the workload's commands until
``--seconds`` would be exceeded, checks every output, and prints one line per
metric followed, as the last line, by a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
run's iterations).  ``wall_s`` and ``setup_s`` are scaled to a reference
machine speed (``speed.py``), measured inside each command and just before
each start of a child, because the shared host's own speed swings by up to
1.6x between and within runs; the unscaled medians are printed beside them.  With ``--trace 1`` traced and untraced iterations
alternate; the metrics are the per-layer ones from the traced iterations,
except ``proc.*`` (the program's own CPU and garbage-collection figures),
which come from the untraced ones.  The spans of each traced iteration are
written to
``.perfbench/<workload>-s<seed>-t1/spans-<i>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import speed
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 2  # set-up-only children after each iteration
# children still running this long after the start are killed, so a run
# ends inside the 180 s it may take whatever --seconds says
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "game.step.calls": "count",
    "game.step.s": "s",
    "game.apply_gains.calls": "count",
    "game.apply_gains.s": "s",
    "game.codec.calls": "count",
    "dyadic.init.calls": "count",
    "dyadic.add.calls": "count",
    "dyadic.half.calls": "count",
    "dyadic.cmp.calls": "count",
    "dyadic.s": "s",
    "forward.regret_series_fixed.calls": "count",
    "forward.self_s": "s",
    "forward.frontier_peak": "count",
    "forward.err_bound": "1",
    "forward.write_series_csv.s": "s",
    "optimal.value_adaptive.self_s": "s",
    "optimal.best_fixed_subset.s": "s",
    "optimal.memo_nodes": "count",
    "optimal.distinct_states": "count",
    "optimal.nodes_per_state": "ratio",
    "optimal.rss_growth_mb": "MB",
    "optimal.bytes_per_node": "B",
    "analysis.s": "s",
    "analysis.write_diff_csv.s": "s",
    "cli.self_s": "s",
    "proc.cpu_s": "s",
    "proc.gc_s": "s",
    "proc.gc_collections": "count",
    "trace.overhead_s": "s",
}

# per-layer metrics read from the untraced iterations of a trace run
PROC = ["proc.cpu_s", "proc.gc_s", "proc.gc_collections"]

# per-layer counts that must repeat exactly between traced iterations
EXACT_COUNTS = [
    name for name in PER_LAYER
    if name.endswith(".calls") or name in (
        "forward.frontier_peak", "optimal.memo_nodes", "optimal.distinct_states")
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    """Starts child interpreters one at a time and collects their results."""

    def __init__(self, workdir: Path, hard_deadline: float):
        self.workdir = workdir
        self.hard_deadline = hard_deadline
        # numpy asks for transparent huge pages on large arrays, and whether
        # the kernel grants them depends on the host's free memory at the time;
        # without the request figure1's peak RSS repeats to 0.1 MB, not 5 MB.
        # numpy's OpenBLAS starts a thread per CPU on import, which spin
        # beside the import on the benchmark's 2 vCPUs; no command does BLAS
        # work, so one thread is all any command uses.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), NUMPY_MADVISE_HUGEPAGE="0",
                        OPENBLAS_NUM_THREADS="1")

    def spawn(self, mode: str, argv: list[str], tag: str) -> dict:
        result = self.workdir / f"{tag}.json"
        timeout = max(1.0, self.hard_deadline - time.monotonic())
        machine_speed = speed.speed_now()
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(result), repr(spawned), mode, "--", *argv],
            cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        if not data["src"].startswith(str(SRC)):
            raise BenchError(f"child imported combregret from {data['src']}, not {SRC}")
        # the import is over within a quarter second of the probe
        data["raw_setup_s"] = data["setup_s"]
        data["setup_s"] *= machine_speed
        return data


# ----------------------------------------------------------------------
# per-layer metrics from the traces of one iteration

def _self_times(spans: list[dict]) -> None:
    """Add duration ``s`` and ``self_s`` (minus child spans and hot calls)."""
    child_s = defaultdict(float)
    for sp in spans:
        sp["s"] = (sp["end_ns"] - sp["start_ns"]) / 1e9
        if sp["parent"] is not None:
            child_s[sp["parent"]] += sp["s"]
    for sp in spans:
        sp["self_s"] = sp["s"] - child_s[sp["id"]] - sp["hot_ns"] / 1e9


def layer_metrics(ops: list[dict]) -> dict:
    """Sum the per-layer metrics over the traced ops of one iteration."""
    m = dict.fromkeys(PER_LAYER, 0)
    rss_growth_kb = 0
    for op in ops:
        tr = op["trace"]
        counters = tr["counters"]

        def calls(*names):
            return sum(counters.get(n, [0, 0])[0] for n in names)

        def secs(name):
            return counters.get(name, [0, 0])[1] / 1e9

        m["game.step.calls"] += calls("game.step")
        m["game.step.s"] += secs("game.step")
        m["game.apply_gains.calls"] += calls("game.apply_gains")
        m["game.apply_gains.s"] += secs("game.apply_gains")
        m["game.codec.calls"] += calls("game.encode_state", "game.decode_state")
        for part in ("init", "add", "half", "cmp"):
            m[f"dyadic.{part}.calls"] += calls(f"dyadic.{part}")
        m["dyadic.s"] += tr["layer_s"].get("dyadic", 0.0)

        _self_times(tr["spans"])
        for sp in tr["spans"]:
            name = sp["name"]
            if name == "forward.regret_series_fixed":
                m["forward.regret_series_fixed.calls"] += 1
                m["forward.self_s"] += sp["self_s"]
            elif name == "forward.write_series_csv":
                m["forward.write_series_csv.s"] += sp["s"]
            elif name == "optimal.value_adaptive":
                m["optimal.value_adaptive.self_s"] += sp["self_s"]
                m["optimal.memo_nodes"] += sp["memo_nodes"]
                m["optimal.distinct_states"] += sp["step_calls"] / sp["family_size"]
                rss_growth_kb += sp["rss_after_kb"] - sp["rss_before_kb"]
            elif name == "optimal.best_fixed_subset":
                m["optimal.best_fixed_subset.s"] += sp["s"]
            elif name == "analysis.write_diff_csv":
                m["analysis.write_diff_csv.s"] += sp["s"]
            elif name.startswith("analysis."):
                m["analysis.s"] += sp["s"]
            elif name == "cli.main":
                m["cli.self_s"] += sp["self_s"]
        for s in op["series"]:
            m["forward.frontier_peak"] = max(m["forward.frontier_peak"], s["frontier_peak"])
            m["forward.err_bound"] = max(m["forward.err_bound"], s["err_bound"])
    if m["optimal.distinct_states"]:
        m["optimal.nodes_per_state"] = m["optimal.memo_nodes"] / m["optimal.distinct_states"]
    m["optimal.rss_growth_mb"] = rss_growth_kb / 1024
    if m["optimal.memo_nodes"]:
        m["optimal.bytes_per_node"] = rss_growth_kb * 1024 / m["optimal.memo_nodes"]
    return m


# ----------------------------------------------------------------------
# one run

class Run:
    """One ``--workload`` run: its loop, checks and metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = WORK / f"{workload.name}-s{seed}-t{int(trace)}"
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.signatures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.nondeterministic = False
        self.outcomes: dict = {}  # role -> (command, outcome) of its latest op
        self.setup_s: list[float] = []
        self.raw_setup_s: list[float] = []
        self.iterations: list[dict] = []

    def setup(self, data: dict) -> None:
        self.setup_s.append(data["setup_s"])
        self.raw_setup_s.append(data["raw_setup_s"])

    def op(self, runner: Runner, cmd, traced: bool, tag: str) -> dict:
        self.attempted += 1
        data = runner.spawn("1" if traced else "0", cmd.argv, tag)
        self.setup(data)
        errors = [] if data["code"] == 0 else [f"exit code {data['code']}: {data['stderr'].strip()}"]
        files = {}
        for name, path in cmd.files.items():
            if path.exists():
                files[name] = path.read_text(encoding="utf-8")
                path.unlink()
            else:
                errors.append(f"{name} file {path.name} was not written")
        if not errors:
            out = Outcome(data["stdout"], files, data["series"])
            self.outcomes[cmd.role] = (cmd, out)
            errors = self.wl.errors(cmd, out)
            sig = self.wl.signature(out)
            if self.signatures.setdefault(cmd.role, sig) != sig:
                errors.append("output differs from an equivalent spelling earlier in this run")
        if errors:
            self.failed += 1
            self.problems.append(f"{' '.join(cmd.argv)[:160]}: {'; '.join(errors)[:600]}")
        missing = data.get("trace", data)["missing"]
        if missing and f"trace points not found: {missing}" not in self.problems:
            self.problems.append(f"trace points not found: {missing}")
        return data

    def iteration(self, runner: Runner, traced: bool) -> None:
        idx = len(self.iterations)
        cmds = self.wl.commands(self.rng, self.workdir, str(idx))
        ops = [self.op(runner, cmd, traced, f"op-{idx}-{j}") for j, cmd in enumerate(cmds)]
        it = {
            "traced": traced,
            "wall_s": sum(op["wall_s"] for op in ops),
            "raw_wall_s": sum(op["raw_wall_s"] for op in ops),
            "peak_rss_mb": max(op["peak_rss_kb"] for op in ops) / 1024,
            "err_bound": max((s["err_bound"] for op in ops for s in op["series"]), default=0.0),
            "proc.cpu_s": sum(op["cpu_s"] for op in ops),
            "proc.gc_s": sum(op["gc_s"] for op in ops),
            "proc.gc_collections": sum(op["gc_collections"] for op in ops),
        }
        if traced:
            it["layers"] = layer_metrics(ops)  # also adds s and self_s to each span
            dump = [{"argv": cmd.argv, **op["trace"]} for cmd, op in zip(cmds, ops)]
            with open(self.workdir / f"spans-{idx}.json", "w", encoding="utf-8") as f:
                json.dump(dump, f)
        self.iterations.append(it)

    def execute(self) -> None:
        start = time.monotonic()
        deadline = start + self.seconds
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        runner = Runner(self.workdir, start + RUN_LIMIT_S)
        self.wl.prepare()
        runner.spawn("setup", [], "warm")  # bytecode cache and page cache, untimed

        # trace mode alternates traced / untraced, at least two traced (their
        # counts must agree) and one untraced (the overhead baseline); a child
        # still running at the hard deadline is killed and the run fails
        min_iters = 3 if self.trace else 1
        longest = {True: 0.0, False: 0.0}
        while True:
            traced = self.trace and len(self.iterations) % 2 == 0
            t0 = time.monotonic()
            self.iteration(runner, traced)
            # extra set-up samples, spread over the run like the ops themselves
            for i in range(0 if self.trace else SETUP_PROBES):
                self.setup(runner.spawn("setup", [], f"setup-{i}"))
            longest[traced] = max(longest[traced], time.monotonic() - t0)
            nxt = self.trace and len(self.iterations) % 2 == 0
            need = longest[nxt] or max(longest.values())
            # stop once the next iteration would end more than half of one
            # past the deadline, so that runs last --seconds on average
            if len(self.iterations) >= min_iters and time.monotonic() + need / 2 > deadline:
                break
        if not self.trace:
            shutil.rmtree(self.workdir)

    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        plain = [it for it in self.iterations if not it["traced"]]
        if not self.trace:
            return {
                "wall_s": statistics.median(it["wall_s"] for it in plain),
                "setup_s": statistics.median(self.setup_s),
                "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
            }
        traced = [it["layers"] for it in self.iterations if it["traced"]]
        for name in EXACT_COUNTS:
            values = {layers[name] for layers in traced}
            if len(values) > 1:
                self.nondeterministic = True
                self.problems.append(f"{name} differs between traced iterations: {sorted(values)}")
        m = {name: traced[0][name] if name in EXACT_COUNTS
             else statistics.median(layers[name] for layers in traced) for name in PER_LAYER}
        # the tracer's wrappers would inflate these; take the program's own
        for name in PROC:
            m[name] = statistics.median(it[name] for it in plain)
        # traced commands run no speed probes, so compare unscaled times
        traced_wall = statistics.median(it["raw_wall_s"] for it in self.iterations if it["traced"])
        m["trace.overhead_s"] = traced_wall - statistics.median(it["raw_wall_s"] for it in plain)
        return m

    def report(self) -> dict:
        """Print one line per metric, then return the result object."""
        metrics = self.metrics()
        units = PER_LAYER if self.trace else END_TO_END
        plain = [it for it in self.iterations if not it["traced"]]
        print(f"workload={self.wl.name} seed={self.seed} trace={int(self.trace)} "
              f"iterations={len(self.iterations)} (untraced {len(plain)})")
        samples = {
            "wall_s": [it["wall_s"] for it in plain],
            "setup_s": self.setup_s,
            "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
        }
        n_traced = len(self.iterations) - len(plain)
        for name, value in metrics.items():
            line = f"  {name:34s} {value:.6g} {units[name]}"
            if name == "trace.overhead_s":
                line += "  (traced minus untraced median unscaled wall_s)"
            elif name in PROC:
                line += f"  (median of untraced iterations, n={len(plain)})"
            elif self.trace:
                line += f"  (median of traced iterations, n={n_traced})"
            else:
                xs = samples[name]
                q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (value, value, value)
                line += f"  (median, q1 {q1:.6g}, q3 {q3:.6g}, n={len(xs)})"
            print(line)
        if not self.trace:
            for name, raw in (("raw_wall_s", [it["raw_wall_s"] for it in plain]),
                              ("raw_setup_s", self.raw_setup_s)):
                print(f"  {name:34s} {statistics.median(raw):.6g} s  (unscaled median, n={len(raw)})")
        err_bound = max(it["err_bound"] for it in self.iterations)
        print(f"  {'err_bound':34s} {err_bound:.6g} 1  (largest certified error bound)")
        print(f"  {'ops':34s} {self.attempted} count")
        print(f"  {'ops_failed':34s} {self.failed} count")
        for problem in self.problems:
            print(f"  problem: {problem}")
        return {
            "correct": self.failed == 0 and not self.nondeterministic,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "combregret" / "cli.py").is_file():
        print(f"error: no combregret sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = [args.workload]
    if args.workload == "all":
        names = list(WORKLOADS)
        random.Random(args.seed).shuffle(names)
    results = {}
    try:
        for name in names:
            run = Run(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace))
            run.execute()
            results[name] = run.report()
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
