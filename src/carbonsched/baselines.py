"""Heuristic baseline schedulers: equal sharing and earliest deadline first.

Each slot a rule splits the station cap among the pending sessions,
granting no session more than its per-EV limit or the power that reaches
its target SoC in that slot, so neither rule violates a limit or
overshoots a target. Both walk `scheduler.active_sets`, as the online
controller does. Equal sharing walks the sessions in index order and
returns a ScheduleResult. Earliest deadline first walks them in deadline
order and returns only the power matrix, as `scheduler.solve` does; the
CLI's `shift.csv` reference reads its station power and builds no SoC.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ingest import ChargingSession
from .scheduler import (PENDING_EPS, ScheduleResult, StationConfig, _windows,
                        active_sets, result_from_power)

_EPS = 1e-12


def _cap(s: ChargingSession, soc: float) -> float:
    """Per-EV cap of `s`, or the power reaching its target if lower."""
    return min(s.power_max_kw, max(s.soc_target - soc, 0.0) * s.capacity_kwh / s.delta)


def _water_fill(budget: float, caps: list[float]) -> list[float]:
    """Split `budget` equally, redistributing the surplus of capped
    participants until a fixpoint."""
    alloc = [0.0] * len(caps)
    uncapped = list(range(len(caps)))
    remaining = budget
    while uncapped and remaining > _EPS:
        share = remaining / len(uncapped)
        newly = [i for i in uncapped if caps[i] <= share + _EPS]
        if not newly:
            for i in uncapped:
                alloc[i] = share
            return alloc
        for i in newly:
            alloc[i] = caps[i]
            remaining -= caps[i]
            uncapped.remove(i)
    return alloc


def equal_sharing(sessions: Sequence[ChargingSession], config: StationConfig,
                  carbon: np.ndarray) -> ScheduleResult:
    """Each slot, divide the station cap equally among pending sessions by
    water-filling over their per-slot caps."""
    power = np.zeros((len(sessions), len(carbon)))
    soc = [s.soc_arrival for s in sessions]
    done = [s.soc_target - PENDING_EPS for s in sessions]
    for t, active in active_sets(sessions, len(carbon)):
        pending = [i for i in active if soc[i] < done[i]]
        caps = [_cap(sessions[i], soc[i]) for i in pending]
        for i, u in zip(pending, _water_fill(config.power_cap_kw, caps)):
            power[i, t] = u
            soc[i] += u * sessions[i].delta / sessions[i].capacity_kwh
    return result_from_power(sessions, power, config, carbon)


def earliest_deadline_first(sessions: Sequence[ChargingSession],
                            config: StationConfig,
                            carbon: np.ndarray) -> np.ndarray:
    """Power matrix of EDF over the horizon of `carbon`: each slot, grant
    pending sessions their per-slot cap in deadline order (ties: arrival,
    then id) until the station budget is exhausted.

    The walk runs over the sessions ranked in that order, so each slot's
    active list is in deadline order. Grants and SoC steps round as in
    `equal_sharing`. Raises SessionOutsideHorizon for the first session,
    in index order, with no slot in the horizon.
    """
    T = len(carbon)
    _windows(sessions, T)   # names the first such session in index order
    order = sorted(range(len(sessions)), key=lambda i: (
        sessions[i].t_depart, sessions[i].t_arrival, sessions[i].id))
    ranked = [sessions[i] for i in order]
    limits = [(s.power_max_kw, s.soc_target, s.capacity_kwh, s.delta,
               s.soc_target - PENDING_EPS) for s in ranked]
    soc = [s.soc_arrival for s in ranked]
    rows, cols, grants = [], [], []
    for t, active in active_sets(ranked, T):
        budget = config.power_cap_kw
        for r in active:
            power_max, target, capacity, delta, done = limits[r]
            x = soc[r]
            if x >= done:
                continue
            if budget <= _EPS:
                break
            # _cap's min(power_max, max(target - x, 0.0) * capacity / delta)
            # and then min(cap, budget), in one call: target - x > 0 as x < done
            u = min(power_max, (target - x) * capacity / delta, budget)
            soc[r] = x + u * delta / capacity
            budget -= u
            rows.append(r)
            cols.append(t)
            grants.append(u)
    power = np.zeros((len(sessions), T))
    power[np.array(order, dtype=np.intp)[rows], cols] = grants
    return power
