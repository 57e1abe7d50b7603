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
solution and the CLI's schedule.csv. Every ScheduleResult comes from
`result_from_power`, so every policy's objective is the formula above
with its emissions counted against the accounting signal.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Callable, Sequence

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
    module object. If the file does not load, the usual import is used.
    """
    name = "scipy.optimize._highspy._core"
    package = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin),
                           "optimize", "_highspy")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(package, "_core" + suffix)
        spec = importlib.util.spec_from_file_location(
            name, path, loader=ExtensionFileLoader(name, path))
        try:
            module = importlib.util.module_from_spec(spec)
        except ImportError:  # no such file, or not loadable
            continue
        spec.loader.exec_module(module)
        return module
    from scipy.optimize._highspy import _core
    return _core


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
    column k has two entries, in rows owner[k] and n + slot[k]. `a_ub` is
    a plain `CscMatrix`, the arrays HiGHS is given. Every upper bound is
    finite: the owning session's power limit.
    """

    c: np.ndarray
    a_ub: CscMatrix
    b_ub: np.ndarray
    upper: np.ndarray  # per-variable upper bound
    owner: np.ndarray
    slot: np.ndarray
    shape: tuple[int, int]  # of the power matrix: (sessions, slots)


def session_slots(sessions: Sequence[ChargingSession],
                  horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(owner, slot): session owner[k] may charge in slot[k]; session by
    session, window slots ascending, windows clipped to the horizon.
    Raises SessionOutsideHorizon for a session with no slot in it."""
    windows = []
    for s in sessions:
        lo, hi = max(0, s.t_arrival), min(horizon, s.t_depart)
        if lo >= hi:
            raise SessionOutsideHorizon(s.id)
        windows.append(np.arange(lo, hi))
    owner = np.repeat(np.arange(len(windows)), [len(w) for w in windows])
    return owner, np.concatenate([np.zeros(0, dtype=int), *windows])


def build_lp(sessions: Sequence[ChargingSession], price: np.ndarray,
             config: StationConfig) -> LpInstance:
    """Assemble the sparse LP for the sessions over the slots of `price`."""
    price = np.asarray(price, dtype=float)
    T = len(price)
    owner, slot = session_slots(sessions, T)
    n, n_u = len(sessions), len(owner)
    g = np.array([s.delta / s.capacity_kwh for s in sessions], dtype=float)[owner]
    request = np.array([s.soc_target - s.soc_arrival for s in sessions], dtype=float)
    power_max = np.array([s.power_max_kw for s in sessions], dtype=float)

    # Each unit of SoC delivered cuts the shortfall lam * (request - g sum(u)).
    c = price[slot] * config.slot_hours - config.lam * g

    # Rows: the SoC cap g * sum(u) <= soc_target - soc_arrival, one per
    # session (u >= 0, so it bounds every partial sum too); the station
    # cap, one row per slot (kept even when no session is active).
    a_ub = CscMatrix(data=np.column_stack([g, np.ones(n_u)]).ravel(),
                     indices=np.column_stack([owner, n + slot]).ravel().astype(np.int32),
                     indptr=np.arange(0, 2 * n_u + 1, 2, dtype=np.int32),
                     shape=(n + T, n_u))
    b = np.concatenate([request, np.full(T, float(config.power_cap_kw))])
    return LpInstance(c=c, a_ub=a_ub, b_ub=b, upper=power_max[owner],
                      owner=owner, slot=slot, shape=(n, T))


def _require_finite(lp: LpInstance) -> None:
    if not all(np.isfinite(v).all() for v in (lp.c, lp.a_ub.data, lp.b_ub, lp.upper)):
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
    optimal for it. Needs every request >= 0, every g > 0 and one upper
    bound per session, as `build_lp` sets.
    """
    n, T = lp.shape
    g = lp.a_ub.data[::2]    # column k's SoC-row entry
    if not ((lp.b_ub[:n] >= 0).all() and (g > 0).all()):
        return None
    k = np.flatnonzero(lp.c < 0)
    k = k[np.lexsort((lp.slot[k], lp.c[k], lp.owner[k]))]
    owner, upper = lp.owner[k], lp.upper[k]
    # Power the session's earlier columns in this order take when full: its
    # rank among them times its one upper bound (no other session's sum).
    at = np.arange(len(k))
    rank = at - np.maximum.accumulate(np.where(np.diff(owner, prepend=-1) != 0, at, 0))
    x = np.zeros(len(lp.c))
    x[k] = np.clip(lp.b_ub[owner] / g[k] - rank * upper, 0.0, upper)
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
    def per_session(name):
        return np.array([getattr(s, name) for s in sessions], dtype=float)[:, None]

    arrival = per_session("soc_arrival")
    soc = np.hstack([arrival, arrival + np.cumsum(power, axis=1)
                     * per_session("delta") / per_session("capacity_kwh")])
    gaps = np.abs(soc[:, -1] - per_session("soc_target")[:, 0])
    emissions = float(np.sum(carbon * power.sum(axis=0)) * config.slot_hours)
    return ScheduleResult(power=power, soc=soc,
                          objective=emissions + config.lam * float(gaps.sum()),
                          emissions_kg=emissions)


PENDING_EPS = 1e-9  # a session this close below its target is finished


def run_slots(sessions: Sequence[ChargingSession], config: StationConfig,
              carbon: np.ndarray, decide: Callable[..., tuple]) -> ScheduleResult:
    """Step the station through its horizon one slot at a time.

    At each slot with a pending session (in its window, below its target),
    `decide(t, active, pending, soc)` returns the sessions to charge and
    their powers in kW, within every limit; the stepper applies them.
    `active` and `pending` list session indices in ascending order, and
    `soc[i]` is session i's state of charge; `decide` changes none of them.

    The horizon is as long as `carbon`. The active set is kept by events:
    a session enters at max(t_arrival, 0) and leaves at t_depart. Raises
    SessionOutsideHorizon for a session with no slot in the horizon.
    """
    T = len(carbon)
    power = np.zeros((len(sessions), T))
    soc = [s.soc_arrival for s in sessions]
    done = [s.soc_target - PENDING_EPS for s in sessions]
    step = [(s.delta, s.capacity_kwh) for s in sessions]
    enter: dict[int, list[int]] = {}
    for i, s in enumerate(sessions):
        if max(s.t_arrival, 0) >= min(s.t_depart, T):
            raise SessionOutsideHorizon(s.id)
        enter.setdefault(max(s.t_arrival, 0), []).append(i)
    leave = {s.t_depart for s in sessions}
    active: list[int] = []
    for t in range(T):
        if t in enter or t in leave:
            active = sorted([i for i in active if sessions[i].t_depart > t]
                            + enter.get(t, []))
        pending = [i for i in active if soc[i] < done[i]]
        if not pending:
            continue
        for i, u in zip(*decide(t, active, pending, soc)):
            power[i, t] = u
            delta, capacity = step[i]
            soc[i] += u * delta / capacity
    return result_from_power(sessions, power, config, carbon)


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
