"""Energy-delivery-quality and emission metrics.

`make_report` builds every figure of a run's report, as the dict that
report.json holds; a session's delivery quality is its delivered SoC,
credited at most its request, over its requested SoC, and 1.0 when it
requests nothing.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .ingest import ChargingSession

_EPS = 1e-12


def _ratio(delivered: float, requested: float) -> float:
    return delivered / requested if requested > _EPS else 1.0


def delivered_kwh(sessions: Sequence[ChargingSession], final_soc: Sequence[float]) -> float:
    """Energy credited to batteries: SoC gain times capacity."""
    return float(_add((x - s.soc_arrival) * s.capacity_kwh
                      for x, s in zip(final_soc, sessions)))


def _add(values: Iterable[float]) -> float:
    """`values` added left to right from 0.0, as `+=` adds; `sum` would
    compensate its rounding from Python 3.12 on."""
    return reduce(operator.add, values, 0.0)


def _fold(rows: Sequence[dict], key: str) -> float:
    """`key` of each of `rows`, added by `_add`."""
    return _add(row[key] for row in rows)


def _totals(rows: Sequence[dict]) -> dict:
    return {"emissions_kg": _fold(rows, "emissions_kg"), "days": len(rows),
            "edq_station": _ratio(_fold(rows, "delivered"), _fold(rows, "requested"))}


def make_report(policy: str,
                days: Mapping[int, tuple[Sequence[ChargingSession], Sequence[float], float]],
                season_of_day: Callable[[int], str] | None = None) -> dict:
    """Report of a run, the dict report.json holds, from each day's
    sessions, their final SoC and its emissions in kg, keyed by day index.

    Each day makes one row, of its session count, emissions, delivered and
    requested SoC and kWh; the run totals, `per_day` and `per_season` (by
    `season_of_day`, left out when that is None) all fold these in day order.
    """
    rows, ratios = [], []
    for day in sorted(days):
        sessions, final_soc, emissions = days[day]
        r = [s.soc_target - s.soc_arrival for s in sessions]
        d = [min(x - s.soc_arrival, ri) for x, s, ri in zip(final_soc, sessions, r)]
        ratios.extend(map(_ratio, d, r))
        rows.append({"day": day, "n_sessions": len(sessions), "emissions_kg": emissions,
                     "delivered": _add(d), "requested": _add(r),
                     "kwh": delivered_kwh(sessions, final_soc)})
    run, n = _totals(rows), len(ratios)
    report = {
        "policy": policy,
        "total_emissions_kg": run["emissions_kg"],
        "emissions_per_session_kg": run["emissions_kg"] / n if n else 0.0,
        "edq_station": run["edq_station"],
        "edq_session": float(np.mean(ratios)) if ratios else 1.0,
        "energy_delivered_kwh": _fold(rows, "kwh"),
        "n_sessions": n,
        "per_day": [{"day": row["day"], "n_sessions": row["n_sessions"],
                     "emissions_kg": row["emissions_kg"],
                     "edq_station": _ratio(row["delivered"], row["requested"])} for row in rows],
    }
    if season_of_day is not None:
        seasons = [season_of_day(row["day"]) for row in rows]
        report["per_season"] = {
            name: _totals([row for row, s in zip(rows, seasons) if s == name])
            for name in sorted(set(seasons))}
    return report
