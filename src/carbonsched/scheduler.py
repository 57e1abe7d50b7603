"""Carbon-aware charging LP.

Minimizes sum_t sum_i price(t) * u_i(t) * slot_hours
        + lam * sum_i |x_i(T) - soc_target_i|
over per-slot charging powers u, subject to per-EV power and SoC limits
and the station power cap. SoC variables are eliminated by cumulative
substitution and the absolute terminal gap is handled with one slack per
session (epigraph trick), so the problem is a plain sparse LP.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import EmptyHorizon, NumericalFailure, SessionOutsideHorizon
from .ingest import ChargingSession

_SOLVER_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-9,
}


@dataclass(frozen=True)
class StationConfig:
    """Station-level parameters: power cap (kW), slot length (hours),
    terminal-gap weight `lam`, and horizon length in slots."""

    power_cap_kw: float
    slot_hours: float
    lam: float
    horizon_slots: int

    def __post_init__(self):
        if self.power_cap_kw <= 0 or self.slot_hours <= 0:
            raise ValueError("power_cap_kw and slot_hours must be positive")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.horizon_slots < 1:
            raise EmptyHorizon("horizon_slots must be >= 1")


@dataclass(frozen=True)
class ScheduleResult:
    """Solved schedule: power[i, t] in kW, soc[i, t] for t = 0..T, the
    objective value, emissions against the pricing signal, and per-session
    terminal SoC gaps."""

    session_ids: tuple[str, ...]
    power: np.ndarray
    soc: np.ndarray
    objective: float
    emissions_kg: float
    terminal_gaps: np.ndarray

    @property
    def station_power(self) -> np.ndarray:
        return self.power.sum(axis=0)

    def delivered_kwh(self, sessions: Sequence[ChargingSession]) -> float:
        """Energy credited to batteries: SoC gain times capacity."""
        return float(sum((self.soc[i, -1] - self.soc[i, 0]) * s.capacity_kwh
                         for i, s in enumerate(sessions)))

    def to_csv(self, out: IO[str]) -> None:
        w = csv.writer(out)
        w.writerow(["session_id", "slot", "power_kw", "soc"])
        for i, sid in enumerate(self.session_ids):
            for t in range(self.power.shape[1]):
                w.writerow([sid, t, repr(float(self.power[i, t])),
                            repr(float(self.soc[i, t + 1]))])

    def summary(self) -> dict:
        return {
            "objective": self.objective,
            "emissions_kg": self.emissions_kg,
            "terminal_gaps": {sid: float(g) for sid, g
                              in zip(self.session_ids, self.terminal_gaps)},
        }


@dataclass(frozen=True)
class LpInstance:
    """Assembled LP in standard form min c.x s.t. A_ub x <= b_ub, bounds.

    Variable order: u vars session by session (window slots ascending),
    then one terminal slack per session. Row order: one SoC cap row per
    session, then the two slack rows per session (+gap then -gap), then
    one station row per slot.
    """

    sessions: tuple[ChargingSession, ...]
    config: StationConfig
    price: np.ndarray
    c: np.ndarray
    a_ub: sp.csr_matrix
    b_ub: np.ndarray
    upper: np.ndarray  # per-variable upper bound, inf for slacks
    window_slots: tuple[np.ndarray, ...]


def _window(session: ChargingSession, horizon: int) -> np.ndarray:
    lo, hi = max(0, session.t_arrival), min(horizon, session.t_depart)
    if lo >= hi:
        raise SessionOutsideHorizon(session.id)
    return np.arange(lo, hi)


def build_lp(sessions: Sequence[ChargingSession], price: np.ndarray,
             config: StationConfig) -> LpInstance:
    """Assemble the sparse LP for the given sessions and price signal."""
    T = config.horizon_slots
    price = np.asarray(price, dtype=float)
    if price.shape != (T,):
        raise EmptyHorizon(f"price length {price.shape} != horizon {T}")

    windows = [_window(s, T) for s in sessions]
    lengths = np.array([len(w) for w in windows], dtype=int)
    n_u = int(lengths.sum())
    n = len(sessions)
    n_vars = n_u + n
    # u column k charges session owner[k] in slot[k].
    owner = np.repeat(np.arange(n), lengths)
    slot = np.concatenate(windows) if windows else np.zeros(0, dtype=int)
    g = np.array([s.delta / s.capacity_kwh for s in sessions], dtype=float)
    soc_arrival = np.array([s.soc_arrival for s in sessions], dtype=float)
    soc_max = np.array([s.soc_max for s in sessions], dtype=float)
    gap = np.array([s.soc_target for s in sessions], dtype=float) - soc_arrival
    power_max = np.array([s.power_max_kw for s in sessions], dtype=float)

    c = np.concatenate([price[slot] * config.slot_hours, np.full(n, config.lam)])
    upper = np.concatenate([power_max[owner], np.full(n, np.inf)])

    # Rows: the SoC cap g * sum(u) <= soc_max - soc_arrival, one per session
    # (u >= 0, so it bounds every partial sum too); the terminal-gap slack
    # rows +g sum(u) - s <= gap and -g sum(u) - s <= -gap; the station cap,
    # one row per slot (kept even when no session is active), whose columns
    # a stable sort by slot lists in ascending order.
    u_cols = np.arange(n_u)
    slack_cols = n_u + np.arange(n)
    plus = n + 2 * np.arange(n)  # each session's +gap row; -gap is next
    order = np.argsort(slot, kind="stable")
    rows = np.concatenate([owner, plus[owner], plus[owner] + 1, plus, plus + 1,
                           3 * n + slot[order]])
    cols = np.concatenate([u_cols, u_cols, u_cols, slack_cols, slack_cols, order])
    gu = g[owner]
    data = np.concatenate([gu, gu, -gu, np.full(2 * n, -1.0), np.ones(n_u)])
    b = np.concatenate([soc_max - soc_arrival, np.column_stack([gap, -gap]).ravel(),
                        np.full(T, float(config.power_cap_kw))])

    a_ub = sp.csr_matrix((data, (rows, cols)), shape=(3 * n + T, n_vars))
    return LpInstance(
        sessions=tuple(sessions), config=config, price=price,
        c=c, a_ub=a_ub, b_ub=b, upper=upper,
        window_slots=tuple(windows),
    )


def solve(lp: LpInstance, carbon: np.ndarray | None = None) -> ScheduleResult:
    """Solve the LP with HiGHS and expand the solution into a schedule.

    `carbon` overrides the emission-accounting signal (used when the LP
    prices in dollars, as in the TOU variant); defaults to lp.price.
    """
    n = len(lp.sessions)
    power = np.zeros((n, lp.config.horizon_slots))
    objective = 0.0
    if n:
        res = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub,
                      bounds=np.column_stack([np.zeros(len(lp.c)), lp.upper]),
                      method="highs", options=_SOLVER_OPTIONS)
        if res.status != 0:
            raise NumericalFailure(res.message, getattr(res, "nit", None))
        owner = np.repeat(np.arange(n), [len(w) for w in lp.window_slots])
        power[owner, np.concatenate(lp.window_slots)] = \
            np.maximum(res.x[:len(owner)], 0.0)
        objective = float(res.fun)

    signal = lp.price if carbon is None else np.asarray(carbon, dtype=float)
    return replace(result_from_power(lp.sessions, power, lp.config, signal),
                   objective=objective)


def carbon_schedule(sessions: Sequence[ChargingSession], carbon: np.ndarray,
                    config: StationConfig) -> ScheduleResult:
    """Offline carbon-aware schedule: build and solve in one call."""
    return solve(build_lp(sessions, carbon, config))


def tou_schedule(sessions: Sequence[ChargingSession], tou_price: np.ndarray,
                 config: StationConfig,
                 carbon: np.ndarray | None = None) -> ScheduleResult:
    """Same LP with a $/kWh tariff as the price signal; emissions are
    accounted against `carbon` when provided."""
    return solve(build_lp(sessions, tou_price, config), carbon=carbon)


def result_from_power(sessions: Sequence[ChargingSession], power: np.ndarray,
                      config: StationConfig,
                      carbon: np.ndarray | None = None) -> ScheduleResult:
    """Wrap an externally computed power matrix into a ScheduleResult,
    deriving SoC trajectories, terminal gaps, and (if `carbon` is given)
    emissions and the equivalent LP objective value."""
    n = len(sessions)
    T = config.horizon_slots
    soc = np.zeros((n, T + 1))
    gaps = np.zeros(n)
    for i, s in enumerate(sessions):
        soc[i, 0] = s.soc_arrival
        soc[i, 1:] = s.soc_arrival + np.cumsum(power[i]) * s.delta / s.capacity_kwh
        gaps[i] = abs(soc[i, -1] - s.soc_target)
    if carbon is not None:
        emissions = float(np.sum(carbon * power.sum(axis=0)) * config.slot_hours)
        objective = emissions + config.lam * float(gaps.sum())
    else:
        emissions = 0.0
        objective = config.lam * float(gaps.sum())
    return ScheduleResult(session_ids=tuple(s.id for s in sessions),
                          power=power, soc=soc, objective=objective,
                          emissions_kg=emissions, terminal_gaps=gaps)


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
    T = config.horizon_slots
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
