"""Day-ahead carbon-intensity forecaster.

Linear regression of C(t) on calendar fields, the system load forecast,
and trailing moving averages of C over the past 24 h, 12 h and 1 h. At
forecast time the moving-average features beyond the last observed slot
are fed recursively from the model's own predictions.

Features are one matrix, one row per slot: the calendar and load
columns of `_base_columns`, then the three moving averages in
`MA_WINDOWS_H` order. `build_features` and `ModelForecaster` take the
non-lagged columns from that one helper, so the column order lives there
and in `FEATURES`, the column names next to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from .carbon import CarbonIntensitySeries
from .errors import (GridMismatch, InsufficientHistory, RankDeficient,
                     UnsupportedSlotLength)
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
    if any(w < 1 for w in windows):    # round(x) < 1 for x <= 0.5
        h = min(MA_WINDOWS_H)
        raise UnsupportedSlotLength(timedelta(minutes=slot_minutes),
                                    f"under {2 * h:g} h for a {h:g} h moving average")
    return windows


def check_same_grid(carbon: CarbonIntensitySeries, load: LoadForecastSeries) -> None:
    """Raise GridMismatch unless intensity and load share one time grid."""
    if tuple(carbon.timestamps) != tuple(load.timestamps):
        raise GridMismatch("carbon and load series are on different grids")


# The names of `_base_columns`' columns, then of the moving averages.
FEATURES = ("minute", "hour", "weekday", "month", "load",
            *(f"ma_{h:g}h" for h in MA_WINDOWS_H))


def _base_columns(timestamps: Sequence[datetime], load_mw: np.ndarray,
                  start: int, stop: int) -> np.ndarray:
    """Non-lagged feature columns of the series' slots start..stop-1:
    minute, hour, weekday (0=Monday), month and load. A slot past the end
    of the series has no row."""
    stamps = timestamps[start:stop]
    return np.column_stack([[ts.minute for ts in stamps], [ts.hour for ts in stamps],
                            [ts.weekday() for ts in stamps], [ts.month for ts in stamps],
                            np.asarray(load_mw, dtype=float)[start:stop]])


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
        _base_columns(carbon.timestamps, load.load_mw, w24, n),
        *((csum[t] - csum[t - w]) / w for w in windows)])
    return X, np.array(carbon.values[w24:], dtype=float)


def fit(data: tuple[np.ndarray, np.ndarray], seed: int = 0,
        ) -> tuple[ForecastModel, float, float]:
    """OLS of `build_features`' (X, y) on a random 80% split; returns
    (model, held-out MAE, held-out MSE).

    Features are z-scored before the normal equations are solved with
    `numpy.linalg`, and the coefficients are mapped back to raw space.
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
    if constant := [name for name, sd in zip(FEATURES, stds) if sd <= _PIVOT_EPS]:
        raise RankDeficient(f"constant feature columns on the {n_train} training "
                            f"rows: {', '.join(constant)}")
    Z = np.column_stack([np.ones(len(train)), (X[train] - means) / stds])

    G = Z.T @ Z
    evals, evecs = np.linalg.eigh(G)
    if evals[0] <= _PIVOT_EPS * max(evals[-1], 1.0):
        weight = np.abs(evecs[1:, 0])    # of each feature in the near-null direction
        collinear = [name for name, w in zip(FEATURES, weight) if w >= weight.max() / 10]
        raise RankDeficient(f"near-collinear feature columns on the {n_train} training "
                            f"rows: {', '.join(collinear)}")
    bz = np.linalg.solve(G, Z.T @ y[train])

    beta = np.empty(9)
    beta[1:] = bz[1:] / stds
    beta[0] = bz[0] - float(np.sum(bz[1:] * means / stds))
    model = ForecastModel(beta=beta, feature_means=means, feature_stds=stds)

    err = predict(model, X[test]) - y[test]
    return model, float(np.mean(np.abs(err))), float(np.mean(err ** 2))


def predict(model: ForecastModel, X: np.ndarray) -> np.ndarray:
    """Evaluate the fitted model on feature rows; clamped below at zero."""
    return np.maximum(model.beta[0] + X @ model.beta[1:], 0.0)


def rollout(model: ForecastModel, observed: np.ndarray, cols: np.ndarray,
            slot_minutes: int) -> np.ndarray:
    """Recursive day-ahead rollout: forecast the `len(cols)` slots that
    follow `observed`, from its last 24 h; nothing earlier is read. `cols`
    holds `_base_columns` of those slots, and moving averages past
    `observed` are fed from prior predictions.

    Costs O(len(cols)) per call: the non-lagged terms of every slot come
    from one matrix product, and the three moving averages are running
    sums slid forward as predictions are appended.
    """
    w24, w12, w1 = _ma_slots(slot_minutes)
    # seq[w24 + j] is the prediction for the j-th forecast slot.
    seq = np.asarray(observed[-w24:], dtype=float).tolist()
    if len(seq) < w24:
        raise InsufficientHistory(f"rollout needs {w24} observed slots, got {len(seq)}")
    beta = model.beta
    n_base = cols.shape[1]
    base = (beta[0] + cols @ beta[1:1 + n_base]).tolist()
    k24, k12, k1 = (float(b) for b in beta[1 + n_base:])

    s24, s12, s1 = sum(seq), sum(seq[-w12:]), sum(seq[-w1:])
    for j in range(len(cols)):
        pred = max(base[j] + k24 * (s24 / w24) + k12 * (s12 / w12) + k1 * (s1 / w1), 0.0)
        pos = w24 + j
        s24 += pred - seq[pos - w24]
        s12 += pred - seq[pos - w12]
        s1 += pred - seq[pos - w1]
        seq.append(pred)
    return np.asarray(seq[w24:], dtype=float)
