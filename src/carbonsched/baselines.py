"""Heuristic baseline schedulers: equal sharing and earliest deadline first.

Both are allocation rules over `scheduler.run_slots`, the one slot loop
that also drives the online controller. Each slot a rule splits the
station cap among the pending sessions, granting no session more than
its per-EV limit or the power that reaches its target SoC in that slot,
so neither rule violates a limit or overshoots a target.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ingest import ChargingSession
from .scheduler import ScheduleResult, StationConfig, run_slots

_EPS = 1e-12


def _caps(sessions: Sequence[ChargingSession], idx: list[int],
          soc: np.ndarray) -> list[float]:
    """Per-EV cap of each of `idx`, or the power reaching its target if lower."""
    return [min(sessions[i].power_max_kw,
                max(sessions[i].soc_target - soc[i], 0.0)
                * sessions[i].capacity_kwh / sessions[i].delta) for i in idx]


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
    def decide(t, active, pending, soc):
        return pending, _water_fill(config.power_cap_kw,
                                    _caps(sessions, pending, soc))
    return run_slots(sessions, config, carbon, decide)


def earliest_deadline_first(sessions: Sequence[ChargingSession],
                            config: StationConfig,
                            carbon: np.ndarray) -> ScheduleResult:
    """Each slot, grant pending sessions their per-slot cap in deadline
    order (ties: arrival, then id) until the station budget is exhausted."""
    key = [(s.t_depart, s.t_arrival, s.id) for s in sessions]

    def decide(t, active, pending, soc):
        order = sorted(pending, key=key.__getitem__)
        budget, alloc = config.power_cap_kw, []
        for cap in _caps(sessions, order, soc):
            if budget <= _EPS:
                break
            alloc.append(min(cap, budget))
            budget -= alloc[-1]
        return order, alloc
    return run_slots(sessions, config, carbon, decide)
