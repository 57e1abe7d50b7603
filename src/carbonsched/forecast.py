"""Day-ahead carbon-intensity forecaster.

Linear regression of C(t) on calendar fields, the system load forecast,
and trailing moving averages of C over the past 24 h, 12 h and 1 h. At
forecast time the moving-average features beyond the last observed slot
are fed recursively from the model's own predictions.

Features are one matrix, one row per slot: the calendar and load
columns of `_base_columns`, then the three moving averages in
`MA_WINDOWS_H` order. `build_features` and `rollout` both take the
non-lagged columns from that one helper, so the column order lives there.
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

# Moving-average windows, in hours of trailing history.
MA_WINDOWS_H = (24.0, 12.0, 1.0)

_PIVOT_EPS = 1e-10


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


def check_same_grid(carbon: CarbonIntensitySeries, load: LoadForecastSeries) -> None:
    """Raise GridMismatch unless intensity and load share one time grid."""
    if tuple(carbon.timestamps) != tuple(load.timestamps):
        raise GridMismatch("carbon and load series are on different grids")


def _base_columns(timestamps: Sequence[datetime], load_mw: np.ndarray,
                  start: int, stop: int, slot_minutes: int) -> np.ndarray:
    """Non-lagged feature columns of slots start..stop-1: minute, hour,
    weekday (0=Monday), month and load. Slots past the end of `timestamps`
    continue the calendar, and their load repeats the final day cyclically."""
    n_known = len(timestamps)
    slots_per_day = 1440 // slot_minutes
    step = timedelta(minutes=slot_minutes)
    stamps = list(timestamps[start:min(stop, n_known)]) + [
        timestamps[0] + s * step for s in range(max(start, n_known), stop)]
    slots = np.arange(start, stop)
    load_idx = np.where(slots < n_known, slots,
                        n_known - slots_per_day + (slots - n_known) % slots_per_day)
    cols = np.empty((stop - start, 5))
    cols[:, :4] = np.array([(ts.minute, ts.hour, ts.weekday(), ts.month) for ts in stamps],
                           dtype=float).reshape(stop - start, 4)
    cols[:, 4] = np.asarray(load_mw, dtype=float)[load_idx]
    return cols


def build_features(carbon: CarbonIntensitySeries, load: LoadForecastSeries,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix X and targets y, one row per slot after the 24 h
    warm-up; the moving averages use only data strictly before the slot."""
    check_same_grid(carbon, load)
    windows = _ma_slots(carbon.slot_minutes)
    w24 = windows[0]
    n = len(carbon.values)
    if n <= w24:
        raise InsufficientHistory(f"need more than {w24} slots, got {n}")

    csum = np.concatenate([[0.0], np.cumsum(carbon.values)])
    t = np.arange(w24, n)
    X = np.column_stack([
        _base_columns(carbon.timestamps, load.load_mw, w24, n, carbon.slot_minutes),
        *((csum[t] - csum[t - w]) / w for w in windows)])
    return X, np.array(carbon.values[w24:], dtype=float)


def fit(data: tuple[np.ndarray, np.ndarray], seed: int = 0,
        ) -> tuple[ForecastModel, float, float]:
    """OLS of `build_features`' (X, y) on a random 80% split; returns
    (model, held-out MAE, held-out MSE).

    Features are z-scored before solving the normal equations (Cholesky on
    the Gram matrix) and the coefficients are mapped back to raw space.
    """
    X, y = data
    if len(y) < 10:
        raise InsufficientHistory("need at least 10 feature rows")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(y))
    n_train = int(round(0.8 * len(y)))
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

    err = predict(model, X[test]) - y[test]
    return model, float(np.mean(np.abs(err))), float(np.mean(err ** 2))


def predict(model: ForecastModel, X: np.ndarray) -> np.ndarray:
    """Evaluate the fitted model on feature rows; clamped below at zero."""
    return np.maximum(model.beta[0] + X @ model.beta[1:], 0.0)


def rollout(model: ForecastModel, observed: np.ndarray, start: int, horizon: int,
            timestamps: Sequence[datetime], load_mw: np.ndarray,
            slot_minutes: int) -> np.ndarray:
    """Recursive day-ahead rollout.

    Forecast slots start..start+horizon-1 given the true intensity of the
    trailing 24 h, `observed[start-w24:start]`; nothing earlier is read.
    Moving averages past the observed prefix are fed from prior
    predictions. `timestamps`/`load_mw` index the same grid; slots past
    their end reuse the final day cyclically.

    Costs O(horizon) per call: the non-lagged terms of every slot come
    from one matrix product, and the three moving averages are running
    sums slid forward as predictions are appended.
    """
    w24, w12, w1 = _ma_slots(slot_minutes)
    if start < w24:
        raise InsufficientHistory(f"rollout needs {w24} observed slots, got {start}")
    cols = _base_columns(timestamps, load_mw, start, start + horizon, slot_minutes)
    beta = model.beta
    n_base = cols.shape[1]
    base = (beta[0] + cols @ beta[1:1 + n_base]).tolist()
    k24, k12, k1 = (float(b) for b in beta[1 + n_base:])

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
