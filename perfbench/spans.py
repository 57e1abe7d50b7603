"""Instrumentation applied from outside the program, and its analysis.

`Tracer` wraps public functions of the carbonsched modules (and scipy's
HiGHS entry point) and records one span per call: name, start, end,
parent span and an optional work count. Spans stay in memory until the
child process writes them out at exit. `StepClock` records only the
per-decision latency that the untraced runs report.

Every binding of a wrapped function is replaced, in every carbonsched
module that holds it, by the same wrapper, so a call is counted once no
matter which module it goes through. A target that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _rows(result) -> tuple[int]:
    return (len(result.timestamps) if hasattr(result, "timestamps") else len(result),)


def _lp_size(lp) -> tuple[int, int]:
    return (int(lp.a_ub.shape[0]), int(lp.a_ub.nnz))


def _nit(res) -> tuple[int]:
    return (int(getattr(res, "nit", 0) or 0),)


# (span name, module, attribute, work count taken from the return value).
# "Class.method" names a method; "*.window" every class with a `window`.
TARGETS = (
    ("cli.cmd_simulate", "carbonsched.cli", "cmd_simulate", None),
    ("ingest.parse_grid_mix", "carbonsched.ingest", "parse_grid_mix", _rows),
    ("ingest.parse_sessions", "carbonsched.ingest", "parse_sessions", _rows),
    ("ingest.parse_load", "carbonsched.ingest", "parse_load", _rows),
    ("carbon.compute_intensity", "carbonsched.carbon", "compute_intensity", None),
    ("timegrid.timestamps", "carbonsched.timegrid", "TimeGrid.timestamps", None),
    ("scheduler.build_lp", "carbonsched.scheduler", "build_lp", _lp_size),
    ("scheduler.solve", "carbonsched.scheduler", "solve", None),
    ("scheduler.linprog", "carbonsched.scheduler", "linprog", _nit),
    ("scheduler.highs_core", "scipy.optimize._linprog_highs", "_highs_wrapper", None),
    ("baselines.edf", "carbonsched.baselines", "earliest_deadline_first", None),
    ("online.run_online", "carbonsched.online", "run_online", None),
    ("online.window", "carbonsched.online", "*.window", None),
    ("forecast.rollout", "carbonsched.forecast", "rollout", None),
    ("forecast.build_features", "carbonsched.forecast", "build_features", None),
    ("forecast.fit", "carbonsched.forecast", "fit", None),
)


def _rebind(original, replacement) -> None:
    """Point every carbonsched-module binding of `original` at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "carbonsched" or name.startswith("carbonsched.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch(module: str, attr: str, make_wrapper) -> bool:
    """Wrap `module.attr` with make_wrapper(fn); False if it does not exist."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if attr.startswith("*."):
        method = attr[2:]
        owners = [c for c in vars(mod).values()
                  if isinstance(c, type) and c.__module__ == module
                  and callable(c.__dict__.get(method))]
        for cls in owners:
            setattr(cls, method, make_wrapper(cls.__dict__[method]))
        return bool(owners)
    if "." in attr:
        cls_name, method = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        if not isinstance(cls, type) or not callable(cls.__dict__.get(method)):
            return False
        setattr(cls, method, make_wrapper(cls.__dict__[method]))
        return True
    fn = getattr(mod, attr, None)
    if not callable(fn):
        return False
    wrapper = make_wrapper(fn)
    setattr(mod, attr, wrapper)
    _rebind(fn, wrapper)
    return True


class Tracer:
    """In-memory span recorder. Spans are [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for name, module, attr, count in TARGETS:
            if not _patch(module, attr, lambda fn, n=name, c=count: self._wrap(n, fn, c)):
                self.absent.append(name)

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if count is not None:
                spans[idx][4] = count(out)
            return out
        return wrapper


class StepClock:
    """Per-decision latency of a policy, in seconds.

    Online: the time between consecutive forecaster `window` calls inside
    one `run_online`, plus the time from the last call to its return.
    Offline: the duration of each day's `carbon_schedule` call.
    """

    def __init__(self):
        self.steps: list[float] = []

    def install(self, online: bool) -> None:
        if not online:
            _patch("carbonsched.scheduler", "carbon_schedule", self._timed)
            return
        marks: list[float] = []

        def mark(fn):
            @functools.wraps(fn)
            def window(*args, **kwargs):
                marks.append(perf_counter())
                return fn(*args, **kwargs)
            return window

        def run(fn):
            @functools.wraps(fn)
            def run_online(*args, **kwargs):
                marks.clear()
                try:
                    return fn(*args, **kwargs)
                finally:
                    points = marks + [perf_counter()]
                    self.steps.extend(b - a for a, b in zip(points, points[1:]))
            return run_online

        _patch("carbonsched.online", "*.window", mark)
        _patch("carbonsched.online", "run_online", run)

    def _timed(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.steps.append(perf_counter() - t0)
        return wrapper


class _Spans:
    """Index over one traced call's spans for the per-layer formulas."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [end - start for _, start, end, _, _ in spans]
        covered = [0.0] * len(spans)
        for i, sp in enumerate(spans):
            if sp[3] >= 0:
                covered[sp[3]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, covered)]
        self.by_name = defaultdict(list)
        for i, sp in enumerate(spans):
            self.by_name[sp[0]].append(i)

    def total(self, *names) -> float:
        return sum((self.dur[i] for n in names for i in self.by_name[n]), 0.0)

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def own(self, name) -> float:
        return sum((self.self_time[i] for i in self.by_name[name]), 0.0)

    def counted(self, name, k=0) -> int:
        return sum(self.spans[i][4][k] for i in self.by_name[name]
                   if self.spans[i][4] is not None)

    def children_of(self, child, parent) -> int:
        parents = set(self.by_name[parent])
        return sum(1 for i in self.by_name[child] if self.spans[i][3] in parents)


_PARSERS = ("ingest.parse_grid_mix", "ingest.parse_sessions", "ingest.parse_load")

# (metric, unit, spans it reads, formula). The order is the report order.
LAYER_METRICS = (
    ("scheduler.build_lp_s", "s", ("scheduler.build_lp",),
     lambda s: s.total("scheduler.build_lp")),
    ("scheduler.build_lp_calls", "count", ("scheduler.build_lp",),
     lambda s: s.calls("scheduler.build_lp")),
    ("scheduler.lp_rows", "count", ("scheduler.build_lp",),
     lambda s: s.counted("scheduler.build_lp", 0)),
    ("scheduler.lp_nnz", "count", ("scheduler.build_lp",),
     lambda s: s.counted("scheduler.build_lp", 1)),
    ("scheduler.linprog_s", "s", ("scheduler.linprog",),
     lambda s: s.total("scheduler.linprog")),
    ("scheduler.highs_core_s", "s", ("scheduler.highs_core",),
     lambda s: s.total("scheduler.highs_core")),
    ("scheduler.simplex_iters", "count", ("scheduler.linprog",),
     lambda s: s.counted("scheduler.linprog")),
    ("scheduler.expand_s", "s", ("scheduler.solve", "scheduler.linprog"),
     lambda s: s.own("scheduler.solve")),
    ("baselines.edf_s", "s", ("baselines.edf",),
     lambda s: s.total("baselines.edf")),
    ("baselines.edf_calls", "count", ("baselines.edf",),
     lambda s: s.calls("baselines.edf")),
    ("timegrid.timestamps_calls", "count", ("timegrid.timestamps",),
     lambda s: s.calls("timegrid.timestamps")),
    ("timegrid.timestamps_s", "s", ("timegrid.timestamps",),
     lambda s: s.total("timegrid.timestamps")),
    ("ingest.parse_s", "s", _PARSERS,
     lambda s: s.total(*_PARSERS)),
    ("ingest.rows", "count", _PARSERS,
     lambda s: sum(s.counted(n) for n in _PARSERS)),
    ("carbon.intensity_s", "s", ("carbon.compute_intensity",),
     lambda s: s.total("carbon.compute_intensity")),
    ("online.run_online_s", "s", ("online.run_online",),
     lambda s: s.total("online.run_online")),
    ("online.self_s", "s", ("online.run_online",),
     lambda s: s.own("online.run_online")),
    ("online.resolves", "count", ("online.run_online", "scheduler.solve"),
     lambda s: s.children_of("scheduler.solve", "online.run_online")),
    ("online.forecast_window_s", "s", ("online.window",),
     lambda s: s.total("online.window")),
    ("forecast.rollout_s", "s", ("forecast.rollout",),
     lambda s: s.total("forecast.rollout")),
    ("forecast.rollout_calls", "count", ("forecast.rollout",),
     lambda s: s.calls("forecast.rollout")),
    ("forecast.build_features_s", "s", ("forecast.build_features",),
     lambda s: s.total("forecast.build_features")),
    ("forecast.fit_s", "s", ("forecast.fit",),
     lambda s: s.total("forecast.fit")),
    ("cli.self_s", "s", ("cli.cmd_simulate",),
     lambda s: s.own("cli.cmd_simulate")),
)

# Counts that must repeat exactly between traced calls of one input.
REPEATING_COUNTS = ("scheduler.lp_nnz", "scheduler.simplex_iters",
                    "scheduler.build_lp_calls", "forecast.rollout_calls")


def layer_metrics(spans, scale: float) -> dict[str, float]:
    """Per-layer values of one traced call, times multiplied by `scale`."""
    index = _Spans(spans)
    return {name: fn(index) * (scale if unit == "s" else 1)
            for name, unit, _, fn in LAYER_METRICS}


def absent_metrics(absent_spans) -> list[str]:
    """Metrics that read a span whose target no longer exists."""
    gone = set(absent_spans)
    return [name for name, _, reads, _ in LAYER_METRICS if gone.intersection(reads)]
