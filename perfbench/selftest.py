"""Quick self-test of the benchmark: every workload's run, check and trace path.

    python3 perfbench/selftest.py

Run from the repository root; it takes a few seconds.  Each workload runs at
a tiny horizon (T = 5 to 8, with exact results pinned for those horizons in
``workloads.PINS``), untraced and traced.  Then every check is shown a
tampered copy of a good output and must reject it, the speed scaling is
checked on made-up probes, and ``run.py`` must refuse to run, printing no
result, where the sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
import speed
from workloads import WORKLOADS

SMALL = {"figure1": 8, "exact-eval": 8, "adaptive-k6": 5, "adaptive-k3": 8}


def _tampered(name: str, outcomes: dict) -> list[tuple[str, object, object]]:
    """(what, command, outcome) triples that the checks must reject."""
    cases = []
    if name == "figure1":
        cmd, out = outcomes["figure1"]
        rows = out.files["csv"].splitlines()
        t, d = rows[-1].split(",")
        for what, new in (("D(T) moved", f"{t},{float(d) + 1e-6!r}"), ("D(T) negative", f"{t},-1.0")):
            files = dict(out.files, csv="\n".join(rows[:-1] + [new]) + "\n")
            cases.append((what, cmd, replace(out, files=files)))
        stdout = out.stdout.replace("certified_min_from_t5=0", "certified_min_from_t5=0.5")
        cases.append(("certified minimum", cmd, replace(out, stdout=stdout)))
        wide = [dict(s, err_bound=1e-3) for s in out.series]
        cases.append(("coarser error bound", cmd, replace(out, series=wide)))
    elif name == "exact-eval":
        cmd, out = outcomes["eval"]
        text = out.files.get("csv", out.stdout).replace("49/2^5", "51/2^5")
        key = "files" if "csv" in out.files else "stdout"
        value = dict(out.files, csv=text) if key == "files" else text
        cases.append(("R(5) changed", cmd, replace(out, **{key: value})))
    elif name == "adaptive-k6":
        cmd, out = outcomes["pair"]
        cases.append(("value changed", cmd, replace(out, stdout=out.stdout.replace("4.1875 (67/2^4)", "4.3125 (69/2^4)"))))
        cmd, out = outcomes["best-fixed"]
        cases.append(("best changed", cmd, replace(out, stdout=out.stdout.replace("best=1,3,6", "best=1,4,6"))))
    elif name == "adaptive-k3":
        cmd, out = outcomes["optimal"]
        stdout = out.stdout.replace("1.49609375 (383/2^8)", "0.49609375 (127/2^8)").replace(
            "5.49609375 (1407/2^8)", "4.49609375 (1151/2^8)")
        cases.append(("below a fixed member", cmd, replace(out, stdout=stdout)))
        cases.append(("nonzero exact bound", cmd, replace(out, series=[{"label": "1", "err_bound": 0.5}])))
    return cases


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures = []
    for name, horizon in SMALL.items():
        for trace in (False, True):
            r = run.Run(WORKLOADS[name](horizon), seed=7, seconds=0, trace=trace)
            with contextlib.redirect_stdout(io.StringIO()):
                r.execute()
                result = r.report()
            want = run.PER_LAYER if trace else run.END_TO_END
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{name} trace={trace}: {r.problems}")
            if set(result["metrics"]) != set(want):
                failures.append(f"{name} trace={trace}: metrics {sorted(result['metrics'])}")
            if trace and name == "figure1":
                dyadic = [m for m in result["metrics"] if m.startswith("dyadic.")]
                if any(result["metrics"][m]["value"] != 0 for m in dyadic):
                    failures.append("figure1 made Dyadic calls")
        for what, cmd, out in _tampered(name, r.outcomes):
            if not r.wl.errors(cmd, out):
                failures.append(f"{name}: check accepted a tampered output ({what})")

    # scaling: each gap between probes at the mean speed of its two ends
    probe = speed.SpeedProbe()
    ref = speed.REF_S
    probe.probes = [(0.0, ref), (1.0, 1.0 + 2 * ref), (2.0, 2.0 + ref)]
    got = probe.scaled(ref, 2.0)
    want = ((2.0 - 3 * ref) * 0.75, 2.0 - 3 * ref)
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        failures.append(f"speed scaling: {got} != {want}")

    # a directory with only the benchmark must be refused without a result
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "figure1", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
