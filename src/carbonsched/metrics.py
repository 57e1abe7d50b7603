"""Energy-delivery-quality and emission metrics.

`make_report` builds every figure of a run's report, as the dict that
report.json holds; a session's delivery quality is its delivered SoC,
credited at most its request, over its requested SoC, and 1.0 when it
requests nothing.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .ingest import ChargingSession

_EPS = 1e-12


def _ratio(delivered: float, requested: float) -> float:
    return delivered / requested if requested > _EPS else 1.0


def delivered_kwh(sessions: Sequence[ChargingSession], final_soc: Sequence[float]) -> float:
    """Energy credited to batteries: SoC gain times capacity."""
    return float(sum((x - s.soc_arrival) * s.capacity_kwh
                     for x, s in zip(final_soc, sessions)))


def make_report(policy: str,
                days: Mapping[int, tuple[Sequence[ChargingSession], Sequence[float], float]],
                season_of_day: Callable[[int], str] | None = None) -> dict:
    """Report of a run, the dict report.json holds, from each day's
    sessions, their final SoC and its emissions in kg, keyed by day index.

    Every total is summed day by day in day order, each day's own sum
    first. `per_day` has one row per day; `per_season`, grouped by
    `season_of_day`, is left out when that is None.
    """
    emissions = energy = delivered = requested = 0.0
    ratios: list[float] = []
    per_day = []
    seasons: dict[str, dict] = {}
    for day in sorted(days):
        sessions, final_soc, day_emissions = days[day]
        r = [s.soc_target - s.soc_arrival for s in sessions]
        d = [min(x - s.soc_arrival, ri) for x, s, ri in zip(final_soc, sessions, r)]
        day_delivered, day_requested = sum(d), sum(r)
        emissions += day_emissions
        energy += delivered_kwh(sessions, final_soc)
        delivered += day_delivered
        requested += day_requested
        ratios.extend(map(_ratio, d, r))
        per_day.append({"day": day, "n_sessions": len(sessions),
                        "emissions_kg": day_emissions,
                        "edq_station": _ratio(day_delivered, day_requested)})
        if season_of_day is not None:
            bucket = seasons.setdefault(season_of_day(day), {
                "emissions_kg": 0.0, "delivered": 0.0, "requested": 0.0, "days": 0})
            bucket["emissions_kg"] += day_emissions
            bucket["delivered"] += day_delivered
            bucket["requested"] += day_requested
            bucket["days"] += 1
    n = len(ratios)
    report = {
        "policy": policy,
        "total_emissions_kg": emissions,
        "emissions_per_session_kg": emissions / n if n else 0.0,
        "edq_station": _ratio(delivered, requested),
        "edq_session": float(np.mean(ratios)) if ratios else 1.0,
        "energy_delivered_kwh": energy,
        "n_sessions": n,
        "per_day": per_day,
    }
    if season_of_day is not None:
        report["per_season"] = {
            name: {"emissions_kg": b["emissions_kg"], "days": b["days"],
                   "edq_station": _ratio(b["delivered"], b["requested"])}
            for name, b in sorted(seasons.items())}
    return report

