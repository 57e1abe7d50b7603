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
    def decide(t, active, pending, soc):
        return pending, _water_fill(config.power_cap_kw,
                                    [_cap(sessions[i], soc[i]) for i in pending])
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
        for i in order:
            if budget <= _EPS:
                break
            alloc.append(min(_cap(sessions[i], soc[i]), budget))
            budget -= alloc[-1]
        return order, alloc
    return run_slots(sessions, config, carbon, decide)
