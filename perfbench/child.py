"""One benchmark op: a fresh interpreter runs one combregret CLI command.

Usage: child.py RESULT_JSON SPAWN_MONOTONIC TRACE -- CLI_ARGS...
       child.py RESULT_JSON SPAWN_MONOTONIC setup

``run.py`` passes the ``time.monotonic()`` reading it took just before
starting this process (the clock is system-wide on Linux), so ``setup_s``
covers interpreter start plus the import of ``combregret.cli``, as a user
pays it on every invocation.  ``setup`` mode stops after that import.

Untraced commands report ``wall_s`` scaled to the reference machine speed
(``speed.py``), with the unscaled figure beside it.  Traced commands run no
speed probes, so none lands inside a span.  ``setup_s`` is reported unscaled;
``run.py`` scales it by a probe taken just before it starts this process.
"""

import sys
import time

import combregret.cli  # noqa: E402  (first, so setup_s measures what users pay)

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracer as tracer_mod  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _series_record(series) -> dict:
    """What the checks and metrics need from one captured RegretSeries."""
    rec = {
        "label": series.subset.label(),
        "exact": series.backend.is_exact,
        "t_max": series.t_max,
        "frontier_peak": int(series.frontier_peak),
        "err_bound": max(float(b) for b in series.error_bounds),
    }
    if not series.backend.is_exact:
        rec["values"] = [float(v) for v in series.values]
        rec["error_bounds"] = [float(b) for b in series.error_bounds]
    return rec


def main() -> int:
    result_path = sys.argv[1]
    spawned = float(sys.argv[2])
    mode = sys.argv[3]
    out = {"setup_s": IMPORTED - spawned, "src": combregret.cli.__file__}
    if mode == "setup":
        with open(result_path, "w", encoding="utf-8") as f:
            json.dump(out, f)
        return 0

    traced = mode == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    pkg = sys.modules["combregret"]
    captured: list = []
    missing = tracer_mod.capture_series(pkg, captured)
    tracer = None
    if traced:
        tracer = tracer_mod.Tracer()
        tracer.install(pkg)

    stdout, stderr = io.StringIO(), io.StringIO()
    gc_clock = tracer_mod.GcClock()
    probe = SpeedProbe()
    if not traced:
        probe.start()
    cpu0 = _cpu_s()
    span = tracer.open_span("cli.main") if tracer else None
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = combregret.cli.main(argv)
    except SystemExit as e:  # argparse rejects the command line
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        code = -1
        stderr.write(traceback.format_exc())
    t1 = time.monotonic()
    if span is not None:
        tracer.close_span(span)
    cpu = _cpu_s() - cpu0
    if traced:
        wall = raw_wall = t1 - t0
    else:
        probe.stop()
        wall, raw_wall = probe.scaled(t0, t1)
        cpu -= t1 - t0 - raw_wall  # the probes' own time

    out.update(
        code=code,
        stdout=stdout.getvalue(),
        stderr=stderr.getvalue(),
        wall_s=wall,
        raw_wall_s=raw_wall,
        cpu_s=cpu,
        gc_s=gc_clock.ns / 1e9,
        gc_collections=gc_clock.collections,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        series=[_series_record(s) for s in captured],
        missing=missing,
    )
    if tracer is not None:
        out["trace"] = tracer.dump()
        out["trace"]["missing"] += missing
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
