"""Grid carbon intensity: the generation-weighted average of per-source
emission factors, plus seasonal aggregation and synthetic curves."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ZeroTotalGeneration
from .ingest import GridMixSeries
from .timegrid import TimeGrid

# Season partition by calendar month (Feb 29 lands in winter).
MET_SEASONS: dict[str, frozenset[int]] = {
    "spring": frozenset({3, 4, 5}),
    "summer": frozenset({6, 7, 8}),
    "autumn": frozenset({9, 10, 11}),
    "winter": frozenset({12, 1, 2}),
}


@dataclass(frozen=True)
class CarbonIntensitySeries:
    """C(t) in kgCO2/kWh on a uniform time grid."""

    timestamps: tuple[datetime, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.timestamps),):
            raise ValueError("values length mismatch")

    @property
    def slot_minutes(self) -> int:
        step = self.timestamps[1] - self.timestamps[0]
        return int(round(step.total_seconds() / 60.0))


def compute_intensity(mix: GridMixSeries) -> CarbonIntensitySeries:
    """Weighted-average intensity: C(t) = sum_i C_i * P_i(t) / P_total(t).

    Negative source readings participate with their sign; a zero total is
    treated as corrupt input, not as zero intensity.
    """
    totals = mix.power.sum(axis=1)
    zero = np.flatnonzero(np.abs(totals) < 1e-12)
    if zero.size:
        raise ZeroTotalGeneration(int(zero[0]))
    values = (mix.power @ mix.factors) / totals
    return CarbonIntensitySeries(mix.timestamps, values)


def seasonal_profile(series: CarbonIntensitySeries,
                     seasons: dict[str, frozenset[int]] = MET_SEASONS,
                     ) -> dict[str, np.ndarray]:
    """Slot-of-day mean intensity per season.

    Returns one daily curve (1440/slot_minutes values) for each season that
    has data; seasons with no member days are absent from the result.
    """
    slot_minutes = series.slot_minutes
    slots_per_day = 1440 // slot_minutes
    if len(series.timestamps) < slots_per_day:
        raise ValueError("series must span at least one day")

    sums = {name: np.zeros(slots_per_day) for name in seasons}
    counts = {name: np.zeros(slots_per_day) for name in seasons}
    month_to_season = {m: name for name, months in seasons.items() for m in months}

    for ts, v in zip(series.timestamps, series.values):
        name = month_to_season.get(ts.month)
        if name is None:
            continue
        slot = (ts.hour * 60 + ts.minute) // slot_minutes
        sums[name][slot] += v
        counts[name][slot] += 1

    out = {}
    for name in seasons:
        if np.all(counts[name] > 0):
            out[name] = sums[name] / counts[name]
    return out


def synthetic_duck_curve(grid: TimeGrid,
                         night: float = 0.32,
                         dip: float = 0.15,
                         peak_hour: float = 13.0,
                         width_hours: float = 3.0,
                         dip_by_month: dict[int, float] | None = None,
                         noise: float = 0.0,
                         seed: int = 0) -> CarbonIntensitySeries:
    """Duck-curve intensity: `night` baseline with a Gaussian midday dip of
    depth `dip` (per-month override via dip_by_month)."""
    rng = np.random.default_rng(seed)
    timestamps = grid.timestamps()
    values = np.empty(grid.n_slots)
    for k, ts in enumerate(timestamps):
        d = dip_by_month.get(ts.month, dip) if dip_by_month else dip
        h = ts.hour + ts.minute / 60.0
        values[k] = night - d * np.exp(-((h - peak_hour) ** 2) / (2 * width_hours ** 2))
    if noise > 0:
        values = np.maximum(values + rng.normal(0, noise, size=grid.n_slots), 0.0)
    return CarbonIntensitySeries(tuple(timestamps), values)
