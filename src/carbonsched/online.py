"""Rolling-horizon real-time scheduling.

The controller is a plan-following rule over `scheduler.run_slots`, the
slot loop the baselines share. At each pending slot it sees only the
sessions that have already arrived and a forecast of carbon intensity
over the lookahead window, cut at the run's end and at the latest
departure of those sessions, and it hands the stepper one slot of a
charging plan to apply. The plan is re-solved when a session has arrived
or the forecast has changed since the last solve; otherwise the rest of
the last plan is still optimal (principle of optimality) and the
controller follows it. Realized emissions are always accounted against
the true intensity; forecasts drive decisions only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, Sequence

import numpy as np

from .carbon import CarbonIntensitySeries
from .errors import ForecastUnavailable, NumericalFailure
from .forecast import ForecastModel, _base_columns, check_same_grid, rollout
from .ingest import ChargingSession, LoadForecastSeries
from .scheduler import (ScheduleResult, StationConfig, build_lp, run_slots,
                        solve)


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


@dataclass(frozen=True)
class _Plan:
    """The last solve: its slot, the plan row of each session it covered,
    its forecast window and its power plan (rows x lookahead slots)."""

    k0: int
    rows: dict[int, int]
    window: np.ndarray
    power: np.ndarray

    def column(self, k: int, active: list[int],
               sessions: Sequence[ChargingSession], soc: Sequence[float],
               window: np.ndarray) -> np.ndarray | None:
        """Planned powers of `active` at slot k, or None when a re-solve
        at k could give a different answer: a session arrived since k0, a
        departure clipped to the window's end would be clipped later, a
        target would be re-clipped, or the forecast no longer matches the
        plan's shifted tail."""
        end = self.k0 + len(self.window)
        for i in active:
            s = sessions[i]
            if i not in self.rows or end < min(s.t_depart, k + len(window)) \
                    or soc[i] > s.soc_target:
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
    but no nearer than k + 2 (see `decide`). It plans a session that
    departs later as if it left at the window's end. The LP keeps its zero
    pad to config.horizon_slots, and no column reads a slot past that
    departure, so the cut changes none of its costs.
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
    plan: _Plan | None = None

    def decide(k, active, pending, soc):
        nonlocal plan
        # No column reads a slot past the latest active departure. The floor
        # of 2 keeps every window a bitwise prefix of the longest one at k:
        # numpy's one-row product `cols @ beta` in `forecast.rollout` rounds
        # differently from the same row inside a longer product.
        last = max(sessions[i].t_depart for i in active)
        h = min(T, total_slots - k, max(last - k, 2))
        window = np.asarray(forecaster.window(k, h), dtype=float)
        if window.shape != (h,):
            raise ForecastUnavailable(k)
        step = (plan.column(k, active, sessions, soc, window)
                if plan is not None else None)
        if step is None:
            rel = []
            for i in active:
                s = sessions[i]
                # Clip against float drift so the relative session still
                # satisfies the SoC invariants.
                x = min(float(soc[i]), s.soc_max)
                rel.append(replace(s, t_arrival=0,
                                   t_depart=min(s.t_depart - k, h),
                                   soc_arrival=x,
                                   soc_target=min(max(s.soc_target, x), s.soc_max)))
            # No column reaches the zero pad. It keeps T station rows, and with
            # them the vertex HiGHS picks when a re-plan ties (ROADMAP item 11).
            price = np.concatenate([window, np.zeros(T - h)])
            try:
                planned = solve(build_lp(rel, price, config))
            except NumericalFailure as exc:
                exc.slot, exc.where = k, f"slot {k}"
                raise
            plan = _Plan(k, {i: j for j, i in enumerate(active)}, window, planned)
            step = planned[:, 0]
        if decisions is not None:
            decisions.extend((k, i, u, window[0]) for i, u in zip(active, step))
        return active, step

    return run_slots(sessions, config, true_carbon[:total_slots], decide)
