"""Outside-in tracing of one combregret CLI invocation.

Nothing under ``src/`` is edited.  The tracer replaces public functions at the
module attributes where their callers look them up (``combregret.optimal.step``,
``combregret.forward.apply_gains``, ``combregret.cli.regret_series_fixed``, the
``Dyadic`` operators, ...) with wrappers that record what they did:

* layer boundaries (a handful of calls per command) become spans kept in
  memory: id, name, parent id, start, end, plus the time of hot calls made
  directly beneath the span;
* hot calls (hundreds of thousands per command) only bump a call counter and
  an inclusive time, so tracing stays within memory on every workload.

``capture_series`` is the pass-through used by untraced runs too: it keeps the
``RegretSeries`` every command computed so ``run.py`` can read error bounds
and frontier sizes without a second run.
"""

from __future__ import annotations

import gc
import resource
import time

_now = time.perf_counter_ns

# (module, attribute, span name): one span per call
SPAN_POINTS = [
    ("cli", "regret_series_fixed", "forward.regret_series_fixed"),
    ("optimal", "regret_series_fixed", "forward.regret_series_fixed"),
    ("cli", "write_series_csv", "forward.write_series_csv"),
    ("cli", "value_adaptive", "optimal.value_adaptive"),
    ("cli", "best_fixed_subset", "optimal.best_fixed_subset"),
    ("cli", "diff_stat", "analysis.diff_stat"),
    ("cli", "certified_lower_bounds", "analysis.certified_lower_bounds"),
    ("cli", "constancy_report", "analysis.constancy_report"),
    ("cli", "write_diff_csv", "analysis.write_diff_csv"),
]

# (module, attribute, counter name, layer): counted and timed, no span
HOT_POINTS = [
    ("optimal", "step", "game.step", "game"),
    ("game", "apply_gains", "game.apply_gains", "game"),
    ("forward", "apply_gains", "game.apply_gains", "game"),
    ("forward", "encode_state", "game.encode_state", "game"),
    ("forward", "decode_state", "game.decode_state", "game"),
]

# Dyadic class attributes; subtraction is counted with addition, every
# equality or ordering test as one comparison
DYADIC_POINTS = [
    ("__init__", "dyadic.init"),
    ("__add__", "dyadic.add"),
    ("__radd__", "dyadic.add"),
    ("__sub__", "dyadic.add"),
    ("__rsub__", "dyadic.add"),
    ("__mul__", "dyadic.mul"),
    ("half", "dyadic.half"),
    ("_cmp", "dyadic.cmp"),
    ("__eq__", "dyadic.cmp"),
]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def capture_series(pkg, sink: list) -> list[str]:
    """Wrap every lookup of ``regret_series_fixed`` so results land in ``sink``.

    Returns the wrap points that were missing from the package.
    """
    missing = []
    for mod_name in ("cli", "optimal"):
        mod = getattr(pkg, mod_name)
        fn = getattr(mod, "regret_series_fixed", None)
        if fn is None:
            missing.append(f"{mod_name}.regret_series_fixed")
            continue

        def wrapper(*args, _fn=fn, **kwargs):
            series = _fn(*args, **kwargs)
            sink.append(series)
            return series

        setattr(mod, "regret_series_fixed", wrapper)
    return missing


class GcClock:
    """Collections and time spent in them, through ``gc.callbacks``.

    Cheap enough (one call per collection) to run in every child, so the
    ``proc.gc_*`` figures come from untraced commands.
    """

    def __init__(self):
        self.ns = 0
        self.collections = 0
        self._start = 0
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info):
        if phase == "start":
            self._start = _now()
        else:
            self.ns += _now() - self._start
            self.collections += 1


class Tracer:
    """Spans and counters for one process; install once, dump at exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.counters: dict[str, list[int]] = {}  # name -> [calls, inclusive ns]
        self.layer_ns: dict[str, int] = {}  # outermost hot time per layer
        self._hot_depth = 0
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    # spans

    def open_span(self, name: str, **extra) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start_ns": _now(),
            "end_ns": None,
            "hot_ns": 0,
        }
        rec.update(extra)
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close_span(self, rec: dict) -> None:
        rec["end_ns"] = _now()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close_span(rec)

        return wrapper

    def _adaptive_wrapper(self, name: str, fn):
        # records what memo-size and memory metrics need from each solve
        tracer = self

        def wrapper(*args, **kwargs):
            steps = tracer.counters.setdefault("game.step", [0, 0])
            steps_before = steps[0]
            rec = tracer.open_span(name, rss_before_kb=_maxrss_kb())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(rec)
            rec["rss_after_kb"] = _maxrss_kb()
            rec["step_calls"] = steps[0] - steps_before
            rec["memo_nodes"] = result.node_count
            rec["family_size"] = len(result.family)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # hot calls

    def _hot_wrapper(self, name: str, layer: str, fn):
        tracer = self
        counter = self.counters.setdefault(name, [0, 0])
        self.layer_ns.setdefault(layer, 0)

        def wrapper(*args, **kwargs):
            tracer._hot_depth += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                tracer._hot_depth -= 1
                counter[0] += 1
                counter[1] += dt
                if tracer._hot_depth == 0:
                    tracer.layer_ns[layer] += dt
                    if tracer._stack:
                        tracer._stack[-1]["hot_ns"] += dt

        return wrapper

    # ------------------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap every trace point of the imported ``combregret`` package."""
        for mod_name, attr, name in SPAN_POINTS:
            mod = getattr(pkg, mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if name == "optimal.value_adaptive":
                setattr(mod, attr, self._adaptive_wrapper(name, fn))
            else:
                setattr(mod, attr, self._span_wrapper(name, fn))
        for mod_name, attr, name, layer in HOT_POINTS:
            mod = getattr(pkg, mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self._hot_wrapper(name, layer, fn))
        cls = pkg.dyadic.Dyadic
        for attr, name in DYADIC_POINTS:
            fn = cls.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"dyadic.Dyadic.{attr}")
                continue
            setattr(cls, attr, self._hot_wrapper(name, "dyadic", fn))

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": self.spans,
            "counters": self.counters,
            "layer_s": {k: v / 1e9 for k, v in self.layer_ns.items()},
            "missing": self.missing,
        }
