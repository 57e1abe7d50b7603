"""Rolling-horizon real-time scheduling.

At each slot the scheduler sees only the sessions that have already
arrived and a forecast of carbon intensity over the lookahead window. It
applies one slot of a charging plan and advances the battery states.
The plan is re-solved when a session has arrived or the forecast has
changed since the last solve; otherwise the rest of the last plan is
still optimal (principle of optimality) and the controller follows it.
Realized emissions are always accounted against the true intensity;
forecasts drive decisions only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import IO, Protocol, Sequence

import numpy as np

from .carbon import CarbonIntensitySeries
from .errors import ForecastUnavailable, NumericalFailure
from .forecast import ForecastModel, check_same_grid, rollout
from .ingest import ChargingSession, LoadForecastSeries
from .scheduler import (ScheduleResult, StationConfig, build_lp,
                        result_from_power, solve)

DECISION_LOG_HEADER = ("slot", "session_id", "power_kw", "forecast_c", "true_c")


class Forecaster(Protocol):
    def window(self, k: int, horizon: int) -> np.ndarray:
        """Forecast intensity for slots k..k+horizon-1."""
        ...


class PerfectForecaster:
    """Oracle forecaster returning the true intensity; slots past the end
    of the series repeat the final day cyclically."""

    def __init__(self, values: np.ndarray, slots_per_day: int = 288):
        self.values = np.asarray(values, dtype=float)
        self.slots_per_day = min(slots_per_day, len(self.values))

    def window(self, k: int, horizon: int) -> np.ndarray:
        if k < 0 or k >= len(self.values):
            raise ForecastUnavailable(k)
        out = list(self.values[k:k + horizon])
        tail = self.values[-self.slots_per_day:]
        while len(out) < horizon:
            out.extend(tail[:horizon - len(out)])
        return np.asarray(out)


class ModelForecaster:
    """Recursive day-ahead rollout of a fitted regression model.

    `carbon` and `load` share one grid covering a warm-up prefix plus the
    simulation span; simulation slot k maps to grid index sim_start + k.
    Only intensity values strictly before the queried slot are read, so
    the forecaster is causal by construction.
    """

    def __init__(self, model: ForecastModel, carbon: CarbonIntensitySeries,
                 load: LoadForecastSeries, sim_start: int):
        check_same_grid(carbon, load)
        self.model = model
        self.carbon = carbon
        self.load = load
        self.sim_start = sim_start

    def window(self, k: int, horizon: int) -> np.ndarray:
        start = self.sim_start + k
        return rollout(self.model, self.carbon.values, start, horizon,
                       self.carbon.timestamps, self.load.load_mw,
                       self.carbon.slot_minutes)


def lookahead_window(k: int, horizon: int, forecaster: Forecaster) -> np.ndarray:
    """Fetch the length-`horizon` forecast window starting at slot k."""
    w = np.asarray(forecaster.window(k, horizon), dtype=float)
    if w.shape != (horizon,):
        raise ForecastUnavailable(k)
    return w


@dataclass(frozen=True)
class _Plan:
    """The last solve: its slot, the plan row of each session it covered,
    its forecast window and its power plan (rows x window slots)."""

    k0: int
    rows: dict[int, int]
    window: np.ndarray
    power: np.ndarray

    def column(self, k: int, active: list[int],
               sessions: Sequence[ChargingSession], soc: np.ndarray,
               window: np.ndarray) -> np.ndarray | None:
        """Planned powers of `active` at slot k, or None when a re-solve
        at k could give a different answer: a session arrived since k0, a
        window was truncated at k0, a target would be re-clipped, or the
        forecast no longer matches the plan's shifted tail."""
        T = len(self.window)
        for i in active:
            s = sessions[i]
            if i not in self.rows or s.t_depart > self.k0 + T \
                    or soc[i] > s.soc_target:
                return None
        d = k - self.k0
        if not np.array_equal(window[:T - d], self.window[d:]):
            return None
        return self.power[[self.rows[i] for i in active], d]


def run_online(sessions: Sequence[ChargingSession], forecaster: Forecaster,
               true_carbon: np.ndarray, config: StationConfig, total_slots: int,
               log_out: IO[str] | None = None,
               slot_offset: int = 0) -> ScheduleResult:
    """Simulate the online loop over slots 0..total_slots-1.

    config.horizon_slots is the lookahead length of each re-solve; the
    returned schedule spans the full simulation and its emissions use
    `true_carbon`. Decisions go to `log_out` as CSV rows under
    DECISION_LOG_HEADER, which the caller writes; their `slot` is the
    simulation slot plus `slot_offset`, the absolute slot of slot 0.
    """
    true_carbon = np.asarray(true_carbon, dtype=float)
    if total_slots < 1 or len(true_carbon) < total_slots:
        raise ValueError("need true carbon for every simulated slot")
    T = config.horizon_slots
    n = len(sessions)
    soc = np.array([s.soc_arrival for s in sessions])
    power = np.zeros((n, total_slots))
    log = csv.writer(log_out) if log_out is not None else None
    plan: _Plan | None = None

    for k in range(total_slots):
        active = [i for i, s in enumerate(sessions)
                  if s.t_arrival <= k and s.t_depart > k]
        pending = [i for i in active
                   if soc[i] < sessions[i].soc_target - 1e-9]
        if not pending:
            continue
        window = lookahead_window(k, T, forecaster)
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
                                   t_depart=min(s.t_depart - k, T),
                                   soc_arrival=x,
                                   soc_target=min(max(s.soc_target, x), s.soc_max)))
            try:
                planned = solve(build_lp(rel, window, config)).power
            except NumericalFailure as exc:
                raise NumericalFailure(f"slot {k}: {exc}") from exc
            plan = _Plan(k, {i: j for j, i in enumerate(active)}, window, planned)
            step = planned[:, 0]
        for j, i in enumerate(active):
            u = float(step[j])
            power[i, k] = u
            soc[i] += u * sessions[i].delta / sessions[i].capacity_kwh
        if log:
            for j, i in enumerate(active):
                log.writerow([slot_offset + k, sessions[i].id,
                              repr(float(step[j])), repr(float(window[0])),
                              repr(float(true_carbon[k]))])

    final_config = StationConfig(config.power_cap_kw, config.slot_hours,
                                 config.lam, total_slots)
    return result_from_power(sessions, power, final_config,
                             true_carbon[:total_slots])
