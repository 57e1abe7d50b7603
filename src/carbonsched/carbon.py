"""Grid carbon intensity: the generation-weighted average of per-source
emission factors, and the calendar seasons reports group it by."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import NonFiniteValue, ZeroTotalGeneration
from .ingest import GridMixSeries

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
    treated as corrupt input, not as zero intensity, and so is a C(t) that
    is not finite, as when a product of power and factor overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        totals = mix.power.sum(axis=1)
        zero = np.flatnonzero(np.abs(totals) < 1e-12)
        if zero.size:
            raise ZeroTotalGeneration(int(zero[0]))
        values = (mix.power @ mix.factors) / totals
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteValue(f"intensity at slot {bad[0]}")
    return CarbonIntensitySeries(mix.timestamps, values)
