"""Grid carbon intensity: the generation-weighted average of per-source
emission factors, and the calendar seasons reports group it by."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import NonFiniteValue, OutOfRange, ZeroTotalGeneration
from .ingest import GridMixSeries

# The largest intensity magnitude accepted, in kgCO2/kWh. Real grids stay
# under about 1.5; one far above is corrupt input, and near the float range
# its products with the energy charged overflow.
MAX_INTENSITY = 1e6

# The meteorological season of each calendar month, 1 to 12 (Feb 29 lands in winter).
SEASON_OF_MONTH: dict[int, str] = dict(enumerate((
    "winter", "winter", "spring", "spring", "spring", "summer",
    "summer", "summer", "autumn", "autumn", "autumn", "winter"), start=1))


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

    Negative source readings participate with their sign. Corrupt input,
    not an intensity: a total that is zero or overflows a float, a C(t)
    that is not finite, as when a product of power and factor overflows,
    and a C(t) above MAX_INTENSITY in magnitude.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        totals = mix.power.sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(totals))
        if bad.size:
            raise NonFiniteValue(f"total generation at slot {bad[0]}")
        zero = np.flatnonzero(np.abs(totals) < 1e-12)
        if zero.size:
            raise ZeroTotalGeneration(int(zero[0]))
        values = (mix.power @ mix.factors) / totals
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteValue(f"intensity at slot {bad[0]}")
    high = np.flatnonzero(np.abs(values) > MAX_INTENSITY)
    if high.size:
        raise OutOfRange(f"intensity at slot {high[0]} is {float(values[high[0]])!r} "
                         f"kgCO2/kWh; it must be at most {MAX_INTENSITY:g}")
    return CarbonIntensitySeries(mix.timestamps, values)
