"""Energy-delivery-quality and emission metrics, plus policy comparison.

`make_report` builds every figure of a run's report; a session's delivery
quality is its delivered SoC over its requested SoC, and 1.0 when it
requests nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .ingest import ChargingSession
from .scheduler import ScheduleResult

_EPS = 1e-12


@dataclass(frozen=True)
class RunReport:
    """Aggregate outcome of one policy run."""

    policy: str
    total_emissions_kg: float
    emissions_per_session_kg: float
    edq_station: float
    edq_session: float
    energy_delivered_kwh: float
    n_sessions: int
    per_day: tuple[dict, ...] = ()
    per_season: dict[str, dict] | None = None

    def to_dict(self) -> dict:
        d = {
            "policy": self.policy,
            "total_emissions_kg": self.total_emissions_kg,
            "emissions_per_session_kg": self.emissions_per_session_kg,
            "edq_station": self.edq_station,
            "edq_session": self.edq_session,
            "energy_delivered_kwh": self.energy_delivered_kwh,
            "n_sessions": self.n_sessions,
            "per_day": list(self.per_day),
        }
        if self.per_season is not None:
            d["per_season"] = self.per_season
        return d


def _delivered_requested(result: ScheduleResult,
                         sessions: Sequence[ChargingSession]
                         ) -> tuple[list[float], list[float]]:
    """Per-session SoC delivered (final minus arrival) and requested
    (target minus arrival)."""
    delivered = [abs(result.soc[i, -1] - s.soc_arrival) for i, s in enumerate(sessions)]
    requested = [abs(s.soc_target - s.soc_arrival) for s in sessions]
    return delivered, requested


def _ratio(delivered: float, requested: float) -> float:
    return delivered / requested if requested > _EPS else 1.0


def make_report(policy: str,
                days: Mapping[int, tuple[Sequence[ChargingSession], ScheduleResult]],
                season_of_day: Callable[[int], str] | None = None) -> RunReport:
    """Report of a run from its per-day (sessions, result) pairs, keyed by
    day index.

    Every total is summed day by day in day order, each day's own sum
    first. `per_day` has one row per day; `per_season`, grouped by
    `season_of_day`, is left out when that is None.
    """
    emissions = energy = delivered = requested = 0.0
    ratios: list[float] = []
    per_day = []
    seasons: dict[str, dict] = {}
    for day in sorted(days):
        sessions, result = days[day]
        d, r = _delivered_requested(result, sessions)
        day_delivered, day_requested = sum(d), sum(r)
        emissions += result.emissions_kg
        energy += result.delivered_kwh(sessions)
        delivered += day_delivered
        requested += day_requested
        ratios.extend(map(_ratio, d, r))
        per_day.append({"day": day, "n_sessions": len(sessions),
                        "emissions_kg": result.emissions_kg,
                        "edq_station": _ratio(day_delivered, day_requested)})
        if season_of_day is not None:
            bucket = seasons.setdefault(season_of_day(day), {
                "emissions_kg": 0.0, "delivered": 0.0, "requested": 0.0, "days": 0})
            bucket["emissions_kg"] += result.emissions_kg
            bucket["delivered"] += day_delivered
            bucket["requested"] += day_requested
            bucket["days"] += 1
    n = len(ratios)
    return RunReport(
        policy=policy,
        total_emissions_kg=emissions,
        emissions_per_session_kg=emissions / n if n else 0.0,
        edq_station=_ratio(delivered, requested),
        edq_session=float(np.mean(ratios)) if ratios else 1.0,
        energy_delivered_kwh=energy,
        n_sessions=n,
        per_day=tuple(per_day),
        per_season=None if season_of_day is None else {
            name: {"emissions_kg": b["emissions_kg"], "days": b["days"],
                   "edq_station": _ratio(b["delivered"], b["requested"])}
            for name, b in sorted(seasons.items())},
    )


def compare(reports: Sequence[RunReport], base: RunReport) -> list[dict]:
    """Per-policy comparison rows with percent deltas vs the `base` report.

    Deltas are 100*(base - x)/base, computed from unrounded values, so a
    positive emissions delta is a reduction.
    """
    def pct(b: float, x: float) -> float:
        return 100.0 * (b - x) / b if abs(b) > _EPS else 0.0

    return [{
        "policy": r.policy,
        "emissions_per_session_kg": r.emissions_per_session_kg,
        "total_emissions_kg": r.total_emissions_kg,
        "edq_station": r.edq_station,
        "edq_session": r.edq_session,
        "emissions_reduction_pct": pct(base.total_emissions_kg, r.total_emissions_kg),
        "edq_station_change_pct": pct(base.edq_station, r.edq_station),
    } for r in reports]
