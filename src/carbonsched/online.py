"""Rolling-horizon real-time scheduling.

At each slot the scheduler sees only the sessions that have already
arrived and a forecast of carbon intensity over the lookahead window. It
re-solves the charging LP, applies the first slot of the solution, and
advances the battery states. Realized emissions are always accounted
against the true intensity; forecasts drive decisions only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import IO, Protocol, Sequence

import numpy as np

from .carbon import CarbonIntensitySeries
from .errors import ForecastUnavailable, NumericalFailure
from .forecast import ForecastModel, rollout
from .ingest import ChargingSession, LoadForecastSeries
from .scheduler import (ScheduleResult, StationConfig, build_lp,
                        result_from_power, solve)

_EPS = 1e-12


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
        if tuple(carbon.timestamps) != tuple(load.timestamps):
            raise ForecastUnavailable(sim_start)
        self.model = model
        self.carbon = carbon
        self.load = load
        self.sim_start = sim_start

    def window(self, k: int, horizon: int) -> np.ndarray:
        start = self.sim_start + k
        return rollout(self.model, self.carbon.values, start, horizon,
                       self.carbon.timestamps, self.load.load_mw,
                       self.carbon.slot_minutes)


@dataclass
class SimulationState:
    """Mutable progress of one online run."""

    k: int
    soc: np.ndarray


def lookahead_window(k: int, horizon: int, forecaster: Forecaster) -> np.ndarray:
    """Fetch the length-`horizon` forecast window starting at slot k."""
    w = np.asarray(forecaster.window(k, horizon), dtype=float)
    if w.shape != (horizon,):
        raise ForecastUnavailable(k)
    return w


def run_online(sessions: Sequence[ChargingSession], forecaster: Forecaster,
               true_carbon: np.ndarray, config: StationConfig, total_slots: int,
               log_out: IO[str] | None = None) -> ScheduleResult:
    """Simulate the online loop over slots 0..total_slots-1.

    config.horizon_slots is the lookahead length of each re-solve; the
    returned schedule spans the full simulation and its emissions use
    `true_carbon`.
    """
    true_carbon = np.asarray(true_carbon, dtype=float)
    if total_slots < 1 or len(true_carbon) < total_slots:
        raise ValueError("need true carbon for every simulated slot")
    T = config.horizon_slots
    n = len(sessions)
    state = SimulationState(k=0, soc=np.array([s.soc_arrival for s in sessions]))
    power = np.zeros((n, total_slots))

    log = csv.writer(log_out) if log_out is not None else None
    if log:
        log.writerow(["slot", "session_id", "power_kw", "forecast_c", "true_c"])

    for k in range(total_slots):
        state.k = k
        active = [i for i, s in enumerate(sessions)
                  if s.t_arrival <= k and s.t_depart > k]
        pending = [i for i in active
                   if state.soc[i] < sessions[i].soc_target - 1e-9]
        if pending:
            window = lookahead_window(k, T, forecaster)
            rel = []
            for i in active:
                s = sessions[i]
                # Clip against float drift so the relative session still
                # satisfies the SoC invariants.
                x = min(float(state.soc[i]), s.soc_max)
                rel.append(replace(s, t_arrival=0,
                                   t_depart=min(s.t_depart - k, T),
                                   soc_arrival=x,
                                   soc_target=min(max(s.soc_target, x), s.soc_max)))
            try:
                step = solve(build_lp(rel, window, config))
            except NumericalFailure as exc:
                raise NumericalFailure(f"slot {k}: {exc}") from exc
            for j, i in enumerate(active):
                u = float(step.power[j, 0])
                power[i, k] = u
                state.soc[i] += u * sessions[i].delta / sessions[i].capacity_kwh
            if log:
                for j, i in enumerate(active):
                    log.writerow([k, sessions[i].id, repr(float(step.power[j, 0])),
                                  repr(float(window[0])),
                                  repr(float(true_carbon[k]))])

    final_config = StationConfig(config.power_cap_kw, config.slot_hours,
                                 config.lam, total_slots)
    return result_from_power(sessions, power, final_config,
                             true_carbon[:total_slots])
