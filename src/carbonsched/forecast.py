"""Day-ahead carbon-intensity forecaster.

Linear regression of C(t) on calendar fields, the system load forecast,
and trailing moving averages of C over the past 24 h, 12 h and 1 h. At
forecast time the moving-average features beyond the last observed slot
are fed recursively from the model's own predictions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import IO, Sequence

import numpy as np
import scipy.linalg

from .carbon import CarbonIntensitySeries
from .errors import GridMismatch, InsufficientHistory, RankDeficient
from .ingest import LoadForecastSeries

FEATURE_NAMES = ("minute", "hour", "day", "month", "load_mw", "ma24", "ma12", "ma1")

# Moving-average windows, in hours of trailing history.
MA_WINDOWS_H = (24.0, 12.0, 1.0)

_PIVOT_EPS = 1e-10


@dataclass(frozen=True)
class FeatureRow:
    """Regressors for one slot. `day` is day-of-week (0=Monday); the moving
    averages use only data strictly before the slot."""

    timestamp: datetime
    minute: int
    hour: int
    day: int
    month: int
    load_mw: float
    ma24: float
    ma12: float
    ma1: float

    def vector(self) -> np.ndarray:
        return np.array([self.minute, self.hour, self.day, self.month,
                         self.load_mw, self.ma24, self.ma12, self.ma1], dtype=float)


@dataclass(frozen=True)
class ForecastModel:
    """Fitted coefficients in raw feature space: prediction is
    beta[0] + beta[1:] . features, clamped below at zero."""

    beta: np.ndarray
    feature_means: np.ndarray
    feature_stds: np.ndarray

    def __post_init__(self):
        if self.beta.shape != (9,):
            raise ValueError("beta must have 9 entries (intercept + 8 features)")
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("non-finite coefficients")


def _ma_slots(slot_minutes: int) -> tuple[int, ...]:
    windows = tuple(int(round(h * 60 / slot_minutes)) for h in MA_WINDOWS_H)
    if any(w < 1 for w in windows):
        raise ValueError("slot length too coarse for a 1 h moving average")
    return windows


def _make_row(ts: datetime, load: float, mas: tuple[float, float, float]) -> FeatureRow:
    return FeatureRow(timestamp=ts, minute=ts.minute, hour=ts.hour,
                      day=ts.weekday(), month=ts.month, load_mw=load,
                      ma24=mas[0], ma12=mas[1], ma1=mas[2])


def build_features(carbon: CarbonIntensitySeries, load: LoadForecastSeries,
                   ) -> list[tuple[FeatureRow, float]]:
    """One (features, target) pair per slot after the 24 h warm-up."""
    if tuple(carbon.timestamps) != tuple(load.timestamps):
        raise GridMismatch("carbon and load series are on different grids")
    w24, w12, w1 = _ma_slots(carbon.slot_minutes)
    n = len(carbon.values)
    if n <= w24:
        raise InsufficientHistory(f"need more than {w24} slots, got {n}")

    csum = np.concatenate([[0.0], np.cumsum(carbon.values)])

    def trailing(t: int, w: int) -> float:
        return (csum[t] - csum[t - w]) / w

    out = []
    for t in range(w24, n):
        row = _make_row(carbon.timestamps[t], float(load.load_mw[t]),
                        (trailing(t, w24), trailing(t, w12), trailing(t, w1)))
        out.append((row, float(carbon.values[t])))
    return out


def fit(rows: Sequence[tuple[FeatureRow, float]], seed: int = 0,
        ) -> tuple[ForecastModel, float, float]:
    """OLS on a random 80% split; returns (model, held-out MAE, held-out MSE).

    Features are z-scored before solving the normal equations (Cholesky on
    the Gram matrix) and the coefficients are mapped back to raw space.
    """
    if len(rows) < 10:
        raise InsufficientHistory("need at least 10 feature rows")
    X = np.stack([r.vector() for r, _ in rows])
    y = np.array([t for _, t in rows])

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(rows))
    n_train = int(round(0.8 * len(rows)))
    train, test = perm[:n_train], perm[n_train:]

    means = X[train].mean(axis=0)
    stds = X[train].std(axis=0)
    if np.any(stds <= _PIVOT_EPS):
        raise RankDeficient("constant feature column")
    Z = np.column_stack([np.ones(len(train)), (X[train] - means) / stds])

    G = Z.T @ Z
    evals = np.linalg.eigvalsh(G)
    if evals[0] <= _PIVOT_EPS * max(evals[-1], 1.0):
        raise RankDeficient("design matrix is rank deficient after standardization")
    bz = scipy.linalg.cho_solve(scipy.linalg.cho_factor(G), Z.T @ y[train])

    beta = np.empty(9)
    beta[1:] = bz[1:] / stds
    beta[0] = bz[0] - float(np.sum(bz[1:] * means / stds))
    model = ForecastModel(beta=beta, feature_means=means, feature_stds=stds)

    pred = np.maximum(beta[0] + X[test] @ beta[1:], 0.0)
    err = pred - y[test]
    return model, float(np.mean(np.abs(err))), float(np.mean(err ** 2))


def predict(model: ForecastModel, rows: Sequence[FeatureRow]) -> CarbonIntensitySeries:
    """Evaluate the fitted model; intensities are clamped below at zero."""
    X = np.stack([r.vector() for r in rows])
    values = np.maximum(model.beta[0] + X @ model.beta[1:], 0.0)
    return CarbonIntensitySeries(tuple(r.timestamp for r in rows), values)


def rollout(model: ForecastModel, observed: np.ndarray, start: int, horizon: int,
            timestamps: Sequence[datetime], load_mw: np.ndarray,
            slot_minutes: int) -> np.ndarray:
    """Recursive day-ahead rollout.

    Forecast slots start..start+horizon-1 given the true intensity of the
    trailing 24 h, `observed[start-w24:start]`; nothing earlier is read.
    Moving averages past the observed prefix are fed from prior
    predictions. `timestamps`/`load_mw` index the same grid; slots past
    their end reuse the final day cyclically.

    Costs O(horizon) per call: the calendar and load terms of every slot
    come from one matrix product, and the three moving averages are
    running sums slid forward as predictions are appended.
    """
    w24, w12, w1 = _ma_slots(slot_minutes)
    if start < w24:
        raise InsufficientHistory(f"rollout needs {w24} observed slots, got {start}")
    slots_per_day = 1440 // slot_minutes
    n_known = len(timestamps)
    step = timedelta(minutes=slot_minutes)

    end = start + horizon
    stamps = list(timestamps[start:min(end, n_known)]) + [
        timestamps[0] + s * step for s in range(max(start, n_known), end)]
    slots = np.arange(start, end)
    # Past the data end, load repeats the final day cyclically.
    load_idx = np.where(slots < n_known, slots,
                        n_known - slots_per_day + (slots - n_known) % slots_per_day)
    cal = np.empty((horizon, 5))
    cal[:, :4] = np.array([(ts.minute, ts.hour, ts.weekday(), ts.month) for ts in stamps],
                          dtype=float).reshape(horizon, 4)
    cal[:, 4] = np.asarray(load_mw, dtype=float)[load_idx]
    beta = model.beta
    base = (beta[0] + cal @ beta[1:6]).tolist()
    k24, k12, k1 = (float(b) for b in beta[6:9])

    # seq[w24 + j] is the prediction for slot start + j.
    seq = np.asarray(observed[:start][-w24:], dtype=float).tolist()
    if len(seq) < w24:
        raise InsufficientHistory(f"rollout needs {w24} observed slots, got {len(seq)}")
    s24, s12, s1 = sum(seq), sum(seq[-w12:]), sum(seq[-w1:])
    for j in range(horizon):
        pred = max(base[j] + k24 * (s24 / w24) + k12 * (s12 / w12) + k1 * (s1 / w1), 0.0)
        pos = w24 + j
        s24 += pred - seq[pos - w24]
        s12 += pred - seq[pos - w12]
        s1 += pred - seq[pos - w1]
        seq.append(pred)
    return np.asarray(seq[w24:], dtype=float)


def save_model(model: ForecastModel, out: IO[str]) -> None:
    json.dump({"beta": model.beta.tolist(),
               "feature_means": model.feature_means.tolist(),
               "feature_stds": model.feature_stds.tolist()}, out, sort_keys=True)


def load_model(fp: IO[str]) -> ForecastModel:
    d = json.load(fp)
    return ForecastModel(beta=np.asarray(d["beta"], dtype=float),
                         feature_means=np.asarray(d["feature_means"], dtype=float),
                         feature_stds=np.asarray(d["feature_stds"], dtype=float))
