"""Rolling-horizon real-time scheduling.

The controller reads the sessions once, into a `SessionArrays` table, and
walks `scheduler.active_sets` over its windows, as the baselines do. At
each slot with a pending session it sees only the sessions that have
already arrived and a forecast of carbon intensity over the lookahead
window, cut at the run's end and at the latest departure of those
sessions, and it applies one slot of a charging plan to every session
present. The plan is re-solved when a session has arrived or the
forecast has changed since the last solve; otherwise the rest of the last
plan is still optimal (principle of optimality) and the controller
follows it. Each re-plan's LP is built from the table's active rows,
re-based to the slot. Realized emissions are always accounted against
the true intensity; forecasts drive decisions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .carbon import CarbonIntensitySeries
from .errors import ForecastUnavailable, NumericalFailure
from .forecast import ForecastModel, _base_columns, check_same_grid, rollout
from .ingest import ChargingSession, LoadForecastSeries
from .scheduler import (PENDING_EPS, ScheduleResult, SessionArrays, StationConfig,
                        active_sets, build_lp, result_from_power, solve)


class Forecaster(Protocol):
    def window(self, k: int, horizon: int) -> np.ndarray:
        """Forecast intensity for slots k..k+horizon-1."""
        ...


class PerfectForecaster:
    """Oracle forecaster returning the true intensity; a window must lie
    within the series."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=float)

    def window(self, k: int, horizon: int) -> np.ndarray:
        if k < 0 or k + horizon > len(self.values):
            raise ForecastUnavailable(k)
        return self.values[k:k + horizon]


class ModelForecaster:
    """Recursive day-ahead rollout of a fitted regression model.

    `carbon` and `load` share one grid covering a warm-up prefix plus the
    simulation span; simulation slot k maps to grid index sim_start + k.
    Only intensity values strictly before the queried slot are read, so
    the forecaster is causal by construction; a window must end by the
    grid's end.

    The calendar and load columns of the rollout are built once per
    forecaster: `_base` holds them for grid slots sim_start onward, as far
    as a window has reached, and grows by at least one day of slots at a
    time, so that the short windows of a run whose sessions leave early do
    not grow it in many small steps. Each window hands `rollout` its own
    rows of `_base` and the intensity observed before the window starts.
    """

    def __init__(self, model: ForecastModel, carbon: CarbonIntensitySeries,
                 load: LoadForecastSeries, sim_start: int):
        check_same_grid(carbon, load)
        self.model = model
        self.carbon = carbon
        self.load = load
        self.sim_start = sim_start
        self._base = _base_columns(carbon.timestamps, load.load_mw, sim_start,
                                   sim_start)

    def window(self, k: int, horizon: int) -> np.ndarray:
        start = self.sim_start + k
        if k < 0 or start + horizon > len(self.carbon.values):
            raise ForecastUnavailable(k)
        cached = self.sim_start + len(self._base)
        if start + horizon > cached:    # `_base_columns` stops at the grid's end
            self._base = np.concatenate([self._base, _base_columns(
                self.carbon.timestamps, self.load.load_mw, cached,
                cached + max(start + horizon - cached, 1440 // self.carbon.slot_minutes))])
        return rollout(self.model, self.carbon.values[:start],
                       self._base[k:k + horizon], self.carbon.slot_minutes)


def _relative(table: SessionArrays, k: int, h: int, active: list[int],
              soc: Sequence[float]) -> SessionArrays:
    """The `SessionArrays` of the sessions `active` at slot k, read from the
    run's `table`, each as if it arrived at k with SoC soc[i] and left by
    k + h. Against float drift the SoC is clipped to soc_max, and the
    target to between the SoC and soc_max, so that no request is negative.
    With h <= the table's horizon - k, min(hi - k, h) is min(t_depart - k, h)."""
    a = np.array(active, dtype=int)
    soc_max = table.soc_max[a]
    # numpy's minimum and maximum return their second operand on a tie,
    # Python's min and max their first: the operands are swapped so that
    # 0.0 and -0.0 tie as min(soc, soc_max) and max(target, soc) have it.
    x = np.minimum(soc_max, [soc[i] for i in active])
    return SessionArrays(np.zeros(len(a), dtype=int), np.minimum(table.hi[a] - k, h), x,
                         np.minimum(soc_max, np.maximum(x, table.target[a])), soc_max,
                         table.g[a], table.power_max[a], table.delta[a], table.capacity[a])


@dataclass(frozen=True)
class _Plan:
    """The last solve: its slot, the plan row of each session it covered,
    its forecast window and its power plan (rows x lookahead slots)."""

    k0: int
    rows: dict[int, int]
    window: np.ndarray
    power: np.ndarray

    def column(self, k: int, active: list[int], hi: Sequence[int],
               target: Sequence[float], soc: Sequence[float],
               window: np.ndarray) -> np.ndarray | None:
        """Planned powers of `active` at slot k, or None when a re-solve
        at k could give a different answer: a session arrived since k0, a
        window end hi[i] clipped to the window's end would be clipped
        later, a target target[i] would be re-clipped, or the forecast no
        longer matches the plan's shifted tail."""
        end = self.k0 + len(self.window)
        for i in active:
            if i not in self.rows or end < min(hi[i], k + len(window)) \
                    or soc[i] > target[i]:
                return None
        d = k - self.k0
        if not np.array_equal(window[:end - k], self.window[d:]):
            return None
        return self.power[[self.rows[i] for i in active], d]


def run_online(sessions: Sequence[ChargingSession], forecaster: Forecaster,
               true_carbon: np.ndarray, config: StationConfig, total_slots: int,
               decisions: list[tuple] | None = None) -> ScheduleResult:
    """Simulate the online loop over slots 0..total_slots-1.

    Each re-solve at slot k looks config.horizon_slots ahead, cut at
    total_slots, and at the latest departure of the sessions active at k
    but no nearer than k + 2 (see below). It plans a session that
    departs later as if it left at the window's end. The LP keeps its zero
    pad to config.horizon_slots, and no column reads a slot past that
    departure, so the cut changes none of its costs. The sessions are
    read into one `SessionArrays` table once per run, windows clipped to
    total_slots; a clipped end cuts the window and tests a plan as the
    departure would, since each use is bounded by total_slots. A re-solve
    hands `build_lp` the active rows re-based to k (`_relative`).
    The returned schedule spans the full simulation and its emissions use
    `true_carbon`. If `decisions` is given, each decision is appended to it
    as (slot, session index, power_kw, forecast intensity of the slot). A
    forecast window of another length raises ForecastUnavailable for its
    slot; a solver failure is re-raised with the slot it happened at as
    `slot`.
    """
    true_carbon = np.asarray(true_carbon, dtype=float)
    if total_slots < 1 or len(true_carbon) < total_slots:
        raise ValueError("need true carbon for every simulated slot")
    T = config.horizon_slots
    table = SessionArrays.of(sessions, total_slots)
    power = np.zeros((len(sessions), total_slots))
    soc, hi, target, delta, capacity = (c.tolist() for c in (
        table.soc, table.hi, table.target, table.delta, table.capacity))
    done = [x - PENDING_EPS for x in target]
    plan: _Plan | None = None
    for k, active in active_sets(table.lo, table.hi):
        if not any(soc[i] < done[i] for i in active):
            continue
        # No column reads a slot past the latest active departure. The floor
        # of 2 keeps every window a bitwise prefix of the longest one at k:
        # numpy's one-row product `cols @ beta` in `forecast.rollout` rounds
        # differently from the same row inside a longer product.
        last = max(hi[i] for i in active)
        h = min(T, total_slots - k, max(last - k, 2))
        window = np.asarray(forecaster.window(k, h), dtype=float)
        if window.shape != (h,):
            raise ForecastUnavailable(k)
        step = (plan.column(k, active, hi, target, soc, window)
                if plan is not None else None)
        if step is None:
            # No column reaches the zero pad. It keeps T station rows, and with
            # them the vertex HiGHS picks when a re-plan ties (ROADMAP item 11).
            price = np.concatenate([window, np.zeros(T - h)])
            try:
                planned = solve(build_lp(_relative(table, k, h, active, soc), price, config))
            except NumericalFailure as exc:
                exc.slot, exc.where = k, f"slot {k}"
                raise
            plan = _Plan(k, {i: j for j, i in enumerate(active)}, window, planned)
            step = planned[:, 0]
        if decisions is not None:
            decisions.extend((k, i, u, window[0]) for i, u in zip(active, step))
        for i, u in zip(active, step):
            power[i, k] = u
            soc[i] += u * delta[i] / capacity[i]
    return result_from_power(sessions, power, config, true_carbon[:total_slots])
