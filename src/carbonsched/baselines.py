"""Heuristic baseline schedulers: equal sharing and earliest deadline first.

Each slot a rule splits the station cap among the pending sessions,
granting no session more than its per-EV limit or the power that reaches
its target SoC in that slot, so neither rule violates a limit or
overshoots a target. Both walk `scheduler.active_sets` over the windows
of a `SessionArrays`, their one read of the sessions, as the online
controller does. Equal sharing walks the sessions in index order and
returns a ScheduleResult. Earliest deadline first walks them in deadline
order and returns only the power matrix, as `scheduler.solve` does; the
CLI's `shift.csv` reference reads its station power and builds no SoC.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ingest import ChargingSession
from .scheduler import (PENDING_EPS, ScheduleResult, SessionArrays, StationConfig,
                        active_sets, result_from_power)

_EPS = 1e-12


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
    table = SessionArrays.of(sessions, len(carbon))
    power = np.zeros((len(sessions), len(carbon)))
    soc, power_max, target, capacity, delta = (c.tolist() for c in (
        table.soc, table.power_max, table.target, table.capacity, table.delta))
    done = [x - PENDING_EPS for x in target]
    for t, active in active_sets(table.lo, table.hi):
        pending = [i for i in active if soc[i] < done[i]]
        caps = [min(power_max[i], max(target[i] - soc[i], 0.0) * capacity[i] / delta[i])
                for i in pending]
        for i, u in zip(pending, _water_fill(config.power_cap_kw, caps)):
            power[i, t] = u
            soc[i] += u * delta[i] / capacity[i]
    return result_from_power(sessions, power, config, carbon)


def earliest_deadline_first(sessions: Sequence[ChargingSession],
                            config: StationConfig,
                            carbon: np.ndarray) -> np.ndarray:
    """Power matrix of EDF over the horizon of `carbon`: each slot, grant
    pending sessions their per-slot cap in deadline order (ties: arrival,
    then id) until the station budget is exhausted.

    The walk runs over the table's windows in that order, so each slot's
    active list is in deadline order. Grants and SoC steps round as in
    `equal_sharing`. Raises SessionOutsideHorizon for the first session,
    in index order, with no slot in the horizon.
    """
    T = len(carbon)
    table = SessionArrays.of(sessions, T)
    order = np.array(sorted(range(len(sessions)), key=lambda i: (
        sessions[i].t_depart, sessions[i].t_arrival, sessions[i].id)), dtype=np.intp)
    limits = list(zip(*(c[order].tolist() for c in (
        table.power_max, table.target, table.capacity, table.delta,
        table.target - PENDING_EPS))))
    soc = table.soc[order].tolist()
    rows, cols, grants = [], [], []
    for t, active in active_sets(table.lo[order], table.hi[order]):
        budget = config.power_cap_kw
        for r in active:
            power_max, target, capacity, delta, done = limits[r]
            x = soc[r]
            if x >= done:
                continue
            if budget <= _EPS:
                break
            # equal sharing's cap and then min(cap, budget), in one call:
            # target - x > 0 as x < done
            u = min(power_max, (target - x) * capacity / delta, budget)
            soc[r] = x + u * delta / capacity
            budget -= u
            rows.append(r)
            cols.append(t)
            grants.append(u)
    power = np.zeros((len(sessions), T))
    power[order[rows], cols] = grants
    return power
