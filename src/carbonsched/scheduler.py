"""Carbon-aware charging LP.

Minimizes sum_t sum_i price(t) * u_i(t) * slot_hours
        + lam * sum_i |x_i(T) - soc_target_i|
over per-slot charging powers u, subject to per-EV power limits and the
station power cap. SoC variables are eliminated by cumulative
substitution, and each session is capped at its target, so the terminal
gap is the shortfall target - x_i(T) >= 0 and enters the cost linearly.
With every price >= 0 this changes no optimum: scaling down a schedule
that overshoots a target raises neither term.

`solve` first tries a screen: without its station rows the LP is one
fractional knapsack per session, and a greedy fill (cheapest columns
first, the earlier slot on a tie) solves it exactly. When that fill keeps
every slot within the cap, it is the LP's optimum and HiGHS does not run;
when the cap would bind, or a request is negative, HiGHS solves the LP.
On tied costs the two can return different optimal vertices.

`session_slots` maps LP columns to (session, slot) pairs for the LP, its
solution and the CLI's schedule.csv. `SessionArrays.of` is the one reader
of a session list into columns, for `build_lp`, `result_from_power` and
the slot-loop policies, equal sharing, EDF and the online controller,
each of which walks `active_sets` over its table's windows. An
`LpInstance` keeps each column's SoC-row entry `g`; its `a_ub`, the CSC
matrix HiGHS is given, is built when first read, so an LP the screen
answers never builds it. Every ScheduleResult comes from
`result_from_power`, so every policy's objective is the formula above
with its emissions counted against the accounting signal.
"""

from __future__ import annotations

import importlib.util
import os
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import metrics
from .errors import NonFiniteValue, NumericalFailure, SessionOutsideHorizon
from .ingest import ChargingSession


def _load_highs():
    """scipy's bundled HiGHS binding, `scipy.optimize._highspy._core`.

    The usual import runs scipy.optimize's package __init__, which imports
    most of scipy and takes longer than everything else a CLI run does at
    start-up. The extension is therefore loaded from its file, under its
    own name, without importing scipy. CPython keeps an extension module
    per file and name, so a later `import scipy.optimize` gets this same
    module object. If no such file is found, the usual import is used.
    """
    name = "scipy.optimize._highspy._core"
    package = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin),
                           "optimize", "_highspy")
    spec = FileFinder(package, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        from scipy.optimize._highspy import _core
        return _core
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


highs = _load_highs()

# HiGHS is called through that binding: dual simplex with tighter
# feasibility tolerances and presolve off (on the offline month's LPs it
# costs more than it removes); the tests check the result bit for bit
# against `linprog(method="highs")` with these options.
_HIGHS_OPTIONS = highs.HighsOptions()
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.presolve = "off"
_HIGHS_OPTIONS.simplex_strategy = int(
    highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_HIGHS_OPTIONS.primal_feasibility_tolerance = 1e-10
_HIGHS_OPTIONS.dual_feasibility_tolerance = 1e-9


@dataclass(frozen=True)
class StationConfig:
    """Station-level parameters: power cap (kW), slot length (hours),
    terminal-gap weight `lam`, and the online lookahead in slots."""

    power_cap_kw: float
    slot_hours: float
    lam: float
    horizon_slots: int

    def __post_init__(self):
        if not (0 < self.power_cap_kw < np.inf and 0 < self.slot_hours < np.inf):
            raise ValueError("power_cap_kw and slot_hours must be positive and finite")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and >= 0")
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")


@dataclass(frozen=True)
class ScheduleResult:
    """Schedule: power[i, t] in kW, soc[i, t] for t = 0..T, emissions in
    kg against the accounting signal, and the objective: those emissions
    plus lam times the summed absolute terminal SoC gap."""

    power: np.ndarray
    soc: np.ndarray
    objective: float
    emissions_kg: float

    @property
    def station_power(self) -> np.ndarray:
        return self.power.sum(axis=0)

    def delivered_kwh(self, sessions: Sequence[ChargingSession]) -> float:
        """Energy credited to batteries: `metrics.delivered_kwh`."""
        return metrics.delivered_kwh(sessions, self.soc[:, -1])


@dataclass(frozen=True)
class CscMatrix:
    """A sparse matrix in compressed sparse column form, as HiGHS takes
    it: column j holds data[indptr[j]:indptr[j + 1]] in the rows
    indices[indptr[j]:indptr[j + 1]]. `indices` and `indptr` are int32,
    HiGHS's index type, so HiGHS reads them without a copy."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


@dataclass(frozen=True)
class LpInstance:
    """Assembled LP in standard form min c.x s.t. A_ub x <= b_ub, bounds.

    Column k is the power of session owner[k] in slot[k] (`session_slots`).
    Rows: one SoC row per session, then one station row per slot, so
    column k has two entries: g[k] in row owner[k] and 1 in row
    n + slot[k]. `a_ub` is that matrix as a plain `CscMatrix`, the arrays
    HiGHS is given, built from g, owner and slot when first read. Every
    upper bound is finite: the owning session's power limit.
    """

    c: np.ndarray
    g: np.ndarray  # column k's SoC-row entry, delta / capacity_kwh of its session
    b_ub: np.ndarray
    upper: np.ndarray  # per-variable upper bound
    owner: np.ndarray
    slot: np.ndarray
    shape: tuple[int, int]  # of the power matrix: (sessions, slots)

    @cached_property
    def a_ub(self) -> CscMatrix:
        n, T = self.shape
        n_u = len(self.c)
        return CscMatrix(data=np.column_stack([self.g, np.ones(n_u)]).ravel(),
                         indices=np.column_stack([self.owner, n + self.slot]).ravel()
                         .astype(np.int32),
                         indptr=np.arange(0, 2 * n_u + 1, 2, dtype=np.int32),
                         shape=(n + T, n_u))


class SessionArrays(NamedTuple):
    """A session list as the columns the policies read, entry i for session
    i: its window of slots [lo, hi), its SoC and target SoC, soc_max, g =
    delta / capacity, power limit in kW, SoC step factor and capacity."""

    lo: np.ndarray
    hi: np.ndarray
    soc: np.ndarray
    target: np.ndarray
    soc_max: np.ndarray
    g: np.ndarray
    power_max: np.ndarray
    delta: np.ndarray
    capacity: np.ndarray

    @classmethod
    def of(cls, sessions: Sequence[ChargingSession], horizon: int) -> SessionArrays:
        """The table of `sessions`, windows clipped to the horizon and SoC
        at arrival. Raises SessionOutsideHorizon through `_windows`."""
        lo, hi = _windows(sessions, horizon)
        delta = np.array([s.delta for s in sessions], dtype=float)
        capacity = np.array([s.capacity_kwh for s in sessions], dtype=float)
        return cls(lo, hi, np.array([s.soc_arrival for s in sessions], dtype=float),
                   np.array([s.soc_target for s in sessions], dtype=float),
                   np.array([s.soc_max for s in sessions], dtype=float), delta / capacity,
                   np.array([s.power_max_kw for s in sessions], dtype=float), delta, capacity)


def _windows(sessions: Sequence[ChargingSession],
             horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of each session's window, clipped to the horizon. Raises
    SessionOutsideHorizon for the first session, in index order, with no
    slot in it; no other code raises it for a policy."""
    # conditional expressions: calls to max() and min() take three times as long
    lo = np.array([s.t_arrival if s.t_arrival > 0 else 0 for s in sessions], dtype=int)
    hi = np.array([s.t_depart if s.t_depart < horizon else horizon for s in sessions],
                  dtype=int)
    if (empty := np.flatnonzero(lo >= hi)).size:
        raise SessionOutsideHorizon(sessions[empty[0]].id)
    return lo, hi


def _columns(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, slot) of the windows [lo, hi): session by session, slots
    ascending."""
    n = hi - lo
    owner = np.repeat(np.arange(len(n)), n)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(n) - n - lo, n)


def session_slots(sessions: Sequence[ChargingSession],
                  horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(owner, slot): session owner[k] may charge in slot[k]; session by
    session, window slots ascending, windows clipped to the horizon.
    Raises SessionOutsideHorizon for a session with no slot in it."""
    return _columns(*_windows(sessions, horizon))


def build_lp(sessions: Sequence[ChargingSession] | SessionArrays, price: np.ndarray,
             config: StationConfig) -> LpInstance:
    """Assemble the sparse LP for the sessions, or for their
    `SessionArrays`, over the slots of `price`."""
    price = np.asarray(price, dtype=float)
    T = len(price)
    table = sessions if isinstance(sessions, SessionArrays) else SessionArrays.of(sessions, T)
    owner, slot = _columns(table.lo, table.hi)
    g = table.g[owner]

    # Each unit of SoC delivered cuts the shortfall lam * (target - soc - g sum(u)).
    c = price[slot] * config.slot_hours - config.lam * g

    # Rows: the SoC cap g * sum(u) <= target - soc, one per session (u >= 0,
    # so it bounds every partial sum too); the station cap, one row per
    # slot (kept even when no session is active).
    b = np.concatenate([table.target - table.soc, np.full(T, float(config.power_cap_kw))])
    return LpInstance(c=c, g=g, b_ub=b, upper=table.power_max[owner],
                      owner=owner, slot=slot, shape=(len(table.g), T))


def _require_finite(lp: LpInstance) -> None:
    if not all(np.isfinite(v).all() for v in (lp.c, lp.g, lp.b_ub, lp.upper)):
        raise NonFiniteValue("LP cost, constraint or bound")


def _run_highs(lp: LpInstance) -> tuple[np.ndarray, float, int]:
    """Solve a finite LP with HiGHS: (x, objective, simplex iterations).
    Raises NumericalFailure on any status other than optimal."""
    a = lp.a_ub
    m, n = a.shape
    solver = highs._Highs()
    solver.passOptions(_HIGHS_OPTIONS)
    # (cols, rows, nnz, format, sense, offset, cost, col bounds, row bounds, CSC, integrality)
    solver.passModel(n, m, a.nnz, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize,
                     0.0, lp.c, np.zeros(n), lp.upper, np.full(m, -highs.kHighsInf),
                     lp.b_ub, a.indptr, a.indices, a.data, np.zeros(n, dtype=np.int32))
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    if status != highs.HighsModelStatus.kOptimal:
        raise NumericalFailure(solver.modelStatusToString(status),
                               info.simplex_iteration_count)
    return (np.array(solver.getSolution().col_value),
            info.objective_function_value, info.simplex_iteration_count)


def _screen(lp: LpInstance) -> np.ndarray | None:
    """The LP's optimal x when the station cap cannot bind, else None.

    Without its station rows the LP is one fractional knapsack per
    session: fill the columns with c < 0 in ascending c (ties: the
    earlier slot first), each up to min(upper, what is left of the
    request), which is optimal. If every slot's sum is then within its
    cap, compared exactly, that x is feasible for the whole LP and so
    optimal for it. Needs every request >= 0, every g > 0, one upper
    bound per session and the columns session by session, slots
    ascending, as `build_lp` sets.
    """
    n, T = lp.shape
    if not ((lp.b_ub[:n] >= 0).all() and (lp.g > 0).all()):
        return None
    k = np.flatnonzero(lp.c < 0)
    # A stable sort by session, then c, keeps a tie in slot order.
    k = k[np.lexsort((lp.c[k], lp.owner[k]))]
    owner, upper = lp.owner[k], lp.upper[k]
    # Power the session's earlier columns in this order take when full: its
    # rank among them times its one upper bound (no other session's sum).
    rank = np.arange(len(k)) - np.searchsorted(owner, owner)
    x = np.zeros(len(lp.c))
    x[k] = np.clip(lp.b_ub[owner] / lp.g[k] - rank * upper, 0.0, upper)
    if (np.bincount(lp.slot, weights=x, minlength=T) <= lp.b_ub[n:]).all():
        return x
    return None


def solve(lp: LpInstance) -> np.ndarray:
    """Solve the LP: the power matrix, kW per (session, slot).

    `_screen` answers when the station cap cannot bind; otherwise HiGHS
    runs. On tied costs the two may return different optimal vertices.
    Raises NonFiniteValue on a non-finite cost, matrix entry, right-hand
    side or upper bound, and NumericalFailure when HiGHS ends in any
    status other than optimal.
    """
    power = np.zeros(lp.shape)
    if lp.c.size:
        _require_finite(lp)
        x = _screen(lp)
        if x is None:
            x, _, _ = _run_highs(lp)
        power[lp.owner, lp.slot] = np.maximum(x, 0.0)
    return power


def carbon_schedule(sessions: Sequence[ChargingSession], carbon: np.ndarray,
                    config: StationConfig) -> ScheduleResult:
    """Offline carbon-aware schedule: build, solve and expand in one call."""
    return result_from_power(sessions, solve(build_lp(sessions, carbon, config)),
                             config, carbon)


def result_from_power(sessions: Sequence[ChargingSession], power: np.ndarray,
                      config: StationConfig, carbon: np.ndarray) -> ScheduleResult:
    """The ScheduleResult of a power matrix: SoC trajectories, emissions
    against `carbon`, and the objective, those emissions plus lam times
    the summed absolute terminal SoC gap."""
    table = SessionArrays.of(sessions, power.shape[1])
    arrival = table.soc[:, None]
    soc = np.hstack([arrival, arrival + np.cumsum(power, axis=1)
                     * table.delta[:, None] / table.capacity[:, None]])
    gaps = np.abs(soc[:, -1] - table.target)
    emissions = float(np.sum(carbon * power.sum(axis=0)) * config.slot_hours)
    return ScheduleResult(power=power, soc=soc,
                          objective=emissions + config.lam * float(gaps.sum()),
                          emissions_kg=emissions)


PENDING_EPS = 1e-9  # a session this close below its target is finished


def active_sets(lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[int, list[int]]]:
    """Walk the windows [lo[i], hi[i]) of a `SessionArrays`, each
    non-empty: (t, active) for each slot t inside some window, `active`
    listing the indices i of those windows ascending.

    The list changes only at event slots: at hi[i] index i leaves it, and
    at lo[i] it joins it by `insort`. The caller reads it and neither
    keeps nor changes it.
    """
    events: dict[int, tuple[list[int], list[int]]] = {}  # slot: (leaving, arriving)
    for i, (a, d) in enumerate(zip(lo.tolist(), hi.tolist())):
        events.setdefault(a, ([], []))[1].append(i)
        events.setdefault(d, ([], []))[0].append(i)
    active: list[int] = []
    for t in range(max(events, default=0)):
        if t in events:
            leaving, arriving = events[t]
            for i in leaving:
                active.remove(i)
            for i in arriving:
                insort(active, i)
        if active:
            yield t, active


def select_lambda(n_sessions_today: int) -> float:
    """Adaptive balanced factor keyed to the day's session count."""
    if n_sessions_today < 0:
        raise ValueError("session count must be >= 0")
    if n_sessions_today <= 20:
        return 0.3
    if n_sessions_today <= 30:
        return 0.25
    return 0.35


def max_constraint_violation(result: ScheduleResult,
                             sessions: Sequence[ChargingSession],
                             config: StationConfig) -> float:
    """Largest violation of the charging constraints by a schedule.

    Checks SoC dynamics consistency, SoC bounds, per-EV power bounds, the
    station cap, and zero power outside each session's window.
    """
    T = result.power.shape[1]
    v = 0.0
    for i, s in enumerate(sessions):
        g = s.delta / s.capacity_kwh
        x = s.soc_arrival + np.concatenate([[0.0], np.cumsum(result.power[i]) * g])
        v = max(v, float(np.max(np.abs(x - result.soc[i]))))
        v = max(v, float(np.max(result.soc[i] - s.soc_max)), float(np.max(-result.soc[i])))
        v = max(v, float(np.max(result.power[i] - s.power_max_kw)),
                float(np.max(-result.power[i])))
        lo, hi = max(0, s.t_arrival), min(T, s.t_depart)
        outside = np.concatenate([result.power[i, :lo], result.power[i, hi:]])
        if outside.size:
            v = max(v, float(np.max(np.abs(outside))))
    v = max(v, float(np.max(result.station_power - config.power_cap_kw, initial=0.0)))
    return v
