from datetime import datetime, timezone

import numpy as np
import pytest

from carbonsched import errors, forecast
from carbonsched.carbon import CarbonIntensitySeries
from carbonsched.ingest import LoadForecastSeries
from carbonsched.timegrid import TimeGrid

from conftest import make_grid

UTC = timezone.utc
W24, W12, W1 = 288, 144, 12
# Moving-average columns of the feature matrix.
MA24, MA12, MA1 = 5, 6, 7

PLANTED = np.array([0.05, 1e-5, 5e-4, 1e-4, 2e-3, 1e-6, 0.20, 0.10, 0.30])


def _load_series(grid, seed=0, noise=0.0):
    hours = np.array([ts.hour + ts.minute / 60.0 for ts in grid.timestamps()])
    rng = np.random.default_rng(seed)
    load = 20000.0 + 3000.0 * np.sin(2 * np.pi * hours / 24.0)
    if noise:
        load = load + rng.normal(0, noise, size=grid.n_slots)
    return LoadForecastSeries(tuple(grid.timestamps()), load)


def _features_at(ts, load, buf):
    return np.array([ts.minute, ts.hour, ts.weekday(), ts.month, load,
                     np.mean(buf[-W24:]), np.mean(buf[-W12:]),
                     np.mean(buf[-W1:])])


def planted_series(grid, load, beta=PLANTED, sigma=0.0, seed=3):
    """Intensity generated recursively so that C(t) is exactly (or up to
    noise) the model's linear form for t >= one day."""
    rng = np.random.default_rng(seed)
    ts = grid.timestamps()
    values = list(0.25 + 0.02 * np.sin(np.arange(W24) / 20.0))
    for t in range(W24, grid.n_slots):
        x = _features_at(ts[t], float(load.load_mw[t]), values)
        v = beta[0] + float(x @ beta[1:])
        if sigma:
            v += float(rng.normal(0, sigma))
        values.append(v)
    return CarbonIntensitySeries(tuple(ts), np.asarray(values))


@pytest.fixture(scope="module")
def two_month():
    grid = make_grid(60)
    load = _load_series(grid)
    return grid, load, planted_series(grid, load)


class TestBuildFeatures:
    def test_constant_series_moving_averages(self):
        grid = make_grid(2)
        load = _load_series(grid)
        ci = CarbonIntensitySeries(tuple(grid.timestamps()),
                                   np.full(grid.n_slots, 0.3))
        X, y = forecast.build_features(ci, load)
        assert X.shape == (grid.n_slots - W24, 8)
        assert y.shape == (grid.n_slots - W24,)
        np.testing.assert_allclose(X[:20, MA24:MA1 + 1], 0.3, rtol=0, atol=1e-12)

    def test_warmup_consumes_first_day(self):
        grid = make_grid(1)
        load = _load_series(grid)
        ci = CarbonIntensitySeries(tuple(grid.timestamps()),
                                   np.full(grid.n_slots, 0.3))
        with pytest.raises(errors.InsufficientHistory):
            forecast.build_features(ci, load)

    def test_ramp_ma1_windowed_sum_oracle(self):
        grid = make_grid(2)
        load = _load_series(grid)
        ramp = np.linspace(0.1, 0.5, grid.n_slots)
        ci = CarbonIntensitySeries(tuple(grid.timestamps()), ramp)
        X, _ = forecast.build_features(ci, load)
        for k in (0, 17, 100):
            t = W24 + k
            expected = sum(ramp[t - W1:t]) / W1
            assert X[k, MA1] == pytest.approx(expected, abs=1e-12)

    def test_grid_mismatch(self):
        g1, g2 = make_grid(2), make_grid(2, start=datetime(2022, 1, 1, tzinfo=UTC))
        ci = CarbonIntensitySeries(tuple(g1.timestamps()),
                                   np.full(g1.n_slots, 0.3))
        with pytest.raises(errors.GridMismatch):
            forecast.build_features(ci, _load_series(g2))

    def test_no_leakage(self, two_month):
        grid, load, ci = two_month
        X, _ = forecast.build_features(ci, load)
        cut = 3 * 288 + 7
        trunc_ts = ci.timestamps[:cut + 1]
        ci_trunc = CarbonIntensitySeries(trunc_ts, ci.values[:cut + 1])
        load_trunc = LoadForecastSeries(trunc_ts, load.load_mw[:cut + 1])
        X_trunc, _ = forecast.build_features(ci_trunc, load_trunc)
        # the last truncated row is the row for slot `cut`
        np.testing.assert_array_equal(X_trunc[-1], X[cut - W24])

    def test_rows_match_hand_features(self, two_month):
        _, load, ci = two_month
        X, y = forecast.build_features(ci, load)
        for t in (W24, 1000, 40 * 288 + 3):
            np.testing.assert_allclose(
                X[t - W24], _features_at(ci.timestamps[t], float(load.load_mw[t]),
                                         ci.values[:t]), rtol=1e-12)
            assert y[t - W24] == ci.values[t]


class TestFit:
    def test_recovers_planted_coefficients(self, two_month):
        _, load, ci = two_month
        rows = forecast.build_features(ci, load)
        model, mae, mse = forecast.fit(rows, seed=1)
        np.testing.assert_allclose(model.beta, PLANTED, atol=1e-8)
        assert mse <= 1e-10

    def test_pure_intercept(self):
        grid = make_grid(60)
        load = _load_series(grid)
        # vary targets' features but make the target constant
        ci = planted_series(grid, load)
        X, y = forecast.build_features(ci, load)
        model, _, _ = forecast.fit((X, np.full_like(y, 0.25)), seed=2)
        assert model.beta[0] == pytest.approx(0.25, abs=1e-8)
        np.testing.assert_allclose(model.beta[1:], 0.0, atol=1e-8)

    def test_noisy_held_out_mae(self):
        sigma = 0.02
        grid = make_grid(60)
        load = _load_series(grid)
        ci = planted_series(grid, load, sigma=sigma)
        rows = forecast.build_features(ci, load)
        _, mae, _ = forecast.fit(rows, seed=3)
        assert mae <= 2 * sigma

    def test_rank_deficient_constant_feature(self):
        grid = make_grid(3)
        load = _load_series(grid)
        ci = CarbonIntensitySeries(tuple(grid.timestamps()),
                                   np.full(grid.n_slots, 0.3))
        rows = forecast.build_features(ci, load)  # all MA columns constant
        with pytest.raises(errors.RankDeficient):
            forecast.fit(rows)

    @pytest.mark.parametrize("days,flat,names", [
        (2, False, "weekday, month"),    # the rows of one day of January
        (3, True, "month, ma_24h, ma_12h, ma_1h"),
    ])
    def test_constant_features_are_named(self, days, flat, names):
        grid = make_grid(days)
        load = _load_series(grid)
        ci = (CarbonIntensitySeries(tuple(grid.timestamps()), np.full(grid.n_slots, 0.3))
              if flat else planted_series(grid, load))
        X, y = forecast.build_features(ci, load)
        n_train = round(0.8 * len(y))
        with pytest.raises(errors.RankDeficient) as exc:
            forecast.fit((X, y))
        assert str(exc.value) == \
            f"constant feature columns on the {n_train} training rows: {names}"

    def test_rank_deficient_collinear_features(self, two_month):
        # no column is constant, but the load column is an affine function
        # of the hour column, so the z-scored columns are linearly dependent
        _, load, ci = two_month
        X, y = forecast.build_features(ci, load)
        X = X.copy()
        X[:, 4] = 3.0 * X[:, 1] + 7.0
        with pytest.raises(errors.RankDeficient) as exc:
            forecast.fit((X, y))
        assert str(exc.value) == (f"near-collinear feature columns on the "
                                  f"{round(0.8 * len(y))} training rows: hour, load")

    def test_near_collinear_moving_averages_are_named(self):
        # a smooth intensity, 400 / (1400 + k) at slot k, makes its three
        # moving averages near-affine in each other; no column is constant
        grid = TimeGrid(datetime(2021, 1, 30, tzinfo=UTC), 5, 4 * W24)
        ci = CarbonIntensitySeries(tuple(grid.timestamps()),
                                   400.0 / (1400.0 + np.arange(grid.n_slots)))
        X, y = forecast.build_features(ci, _load_series(grid))
        with pytest.raises(errors.RankDeficient) as exc:
            forecast.fit((X, y))
        assert str(exc.value) == ("near-collinear feature columns on the 691 "
                                  "training rows: ma_24h, ma_12h, ma_1h")

    def test_too_few_rows(self, two_month):
        _, load, ci = two_month
        X, y = forecast.build_features(ci, load)
        with pytest.raises(errors.InsufficientHistory):
            forecast.fit((X[:5], y[:5]))

    def test_deterministic_split(self, two_month):
        _, load, ci = two_month
        rows = forecast.build_features(ci, load)
        m1, mae1, mse1 = forecast.fit(rows, seed=9)
        m2, mae2, mse2 = forecast.fit(rows, seed=9)
        np.testing.assert_array_equal(m1.beta, m2.beta)
        assert (mae1, mse1) == (mae2, mse2)

    def test_training_residuals_orthogonal(self, two_month):
        _, load, ci = two_month
        noisy = planted_series(make_grid(60), _load_series(make_grid(60)),
                               sigma=0.01)
        X, y = forecast.build_features(noisy, _load_series(make_grid(60)))
        model, _, _ = forecast.fit((X, y), seed=4)
        # replicate the deterministic split
        rng = np.random.default_rng(4)
        perm = rng.permutation(len(y))
        train = perm[:int(round(0.8 * len(y)))]
        X, y = X[train], y[train]
        Z = np.column_stack([np.ones(len(train)),
                             (X - model.feature_means) / model.feature_stds])
        resid = y - (model.beta[0] + X @ model.beta[1:])
        assert np.max(np.abs(Z.T @ resid) / len(train)) <= 1e-6


class TestPredict:
    def test_zero_coefficients(self, two_month):
        _, load, ci = two_month
        X, _ = forecast.build_features(ci, load)
        model = forecast.ForecastModel(np.zeros(9), np.zeros(8), np.ones(8))
        out = forecast.predict(model, X)
        assert out.shape == (len(X),)
        np.testing.assert_array_equal(out, 0.0)

    def test_noiseless_reproduction(self, two_month):
        _, load, ci = two_month
        X, y = forecast.build_features(ci, load)
        model, _, _ = forecast.fit((X, y), seed=5)
        np.testing.assert_allclose(forecast.predict(model, X), y, atol=1e-8)

    def test_affine_before_clamp(self, two_month):
        _, load, ci = two_month
        X, y = forecast.build_features(ci, load)
        model, _, _ = forecast.fit((X, y), seed=6)
        doubled = forecast.ForecastModel(2.0 * model.beta, model.feature_means,
                                         model.feature_stds)
        base = forecast.predict(model, X[:100])
        assert np.all(base > 0)  # no clamping in play
        np.testing.assert_allclose(forecast.predict(doubled, X[:100]),
                                   2.0 * base, rtol=1e-12)


def _hand_rollout(beta, ci, load, start, horizon):
    """Independent step-by-step rollout over the whole observed prefix."""
    buf = list(ci.values[:start])
    out = []
    for s in range(start, start + horizon):
        x = _features_at(ci.timestamps[s], float(load.load_mw[s]), buf)
        v = max(beta[0] + float(x @ beta[1:]), 0.0)
        out.append(v)
        buf.append(v)
    return np.array(out)


# A model whose recursion drifts away from the planted series.
DRIFTING = np.array([0.02, 1e-5, -5e-4, 2e-4, 1e-6, 0.0, 0.40, 0.20, 0.30])


class TestRollout:
    def test_matches_hand_recursion(self, two_month):
        _, load, ci = two_month
        model = forecast.ForecastModel(PLANTED.copy(), np.zeros(8), np.ones(8))
        start, horizon = 600, 3
        got = forecast.rollout(model, ci.values[:start], forecast._base_columns(
            ci.timestamps, load.load_mw, start, start + horizon), 5)
        expected = _hand_rollout(PLANTED, ci, load, start, horizon)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("beta", [PLANTED, DRIFTING], ids=["planted", "drifting"])
    @pytest.mark.parametrize("start", [600, W24], ids=["mid", "start-eq-w24"])
    def test_full_horizon_matches_hand_recursion(self, two_month, beta, start):
        _, load, ci = two_month
        model = forecast.ForecastModel(beta.copy(), np.zeros(8), np.ones(8))
        got = forecast.rollout(model, ci.values[:start], forecast._base_columns(
            ci.timestamps, load.load_mw, start, start + 288), 5)
        expected = _hand_rollout(beta, ci, load, start, 288)
        assert got.shape == (288,)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_prediction_below_zero_is_clamped_before_it_is_fed_back(self, two_month):
        # The load term swings the prediction across zero over the day: each
        # step below zero is forecast as 0.0, and 0.0, not the negative value,
        # enters the moving averages that the later positive steps read.
        _, load, ci = two_month
        beta = np.array([-2.0, 0.0, 0.0, 0.0, 0.0, 1e-4, 0.2, 0.1, 0.3])
        model = forecast.ForecastModel(beta, np.zeros(8), np.ones(8))
        got = forecast.rollout(model, ci.values[:600], forecast._base_columns(
            ci.timestamps, load.load_mw, 600, 888), 5)
        assert np.any(got == 0.0) and np.any(got > 0.0)
        np.testing.assert_allclose(got, _hand_rollout(beta, ci, load, 600, 288),
                                   rtol=1e-12, atol=1e-12)

    def test_reads_only_trailing_day(self, two_month):
        _, load, ci = two_month
        model = forecast.ForecastModel(DRIFTING.copy(), np.zeros(8), np.ones(8))
        start = 3 * 288 + 40
        stale = ci.values.copy()
        stale[:start - W24] = np.nan
        cols = forecast._base_columns(ci.timestamps, load.load_mw, start, start + 288)
        clean = forecast.rollout(model, ci.values[:start], cols, 5)
        got = forecast.rollout(model, stale[:start], cols, 5)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got, clean)

    def test_self_consistent_on_planted_series(self, two_month):
        # the planted series is generated by the same recursion, so the
        # rollout must reproduce it exactly
        grid, load, ci = two_month
        model = forecast.ForecastModel(PLANTED.copy(), np.zeros(8), np.ones(8))
        start = 5 * 288
        got = forecast.rollout(model, ci.values[:start], forecast._base_columns(
            ci.timestamps, load.load_mw, start, start + 288), 5)
        np.testing.assert_allclose(got, ci.values[start:start + 288], atol=1e-10)

    @pytest.mark.parametrize("start", [W24, 600, 20 * 288 + 7, 60 * 288 - 1])
    def test_one_step_matches_predict(self, two_month, start):
        # rollout's first step sees only observed history, so it is the
        # model evaluated on build_features' row for that slot
        _, load, ci = two_month
        model = forecast.ForecastModel(DRIFTING.copy(), np.zeros(8), np.ones(8))
        X, _ = forecast.build_features(ci, load)
        got = forecast.rollout(model, ci.values[:start], forecast._base_columns(
            ci.timestamps, load.load_mw, start, start + 1), 5)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(forecast.predict(model, X)[start - W24],
                                       rel=1e-12, abs=1e-12)

    def test_requires_warmup(self, two_month):
        _, load, ci = two_month
        model = forecast.ForecastModel(PLANTED.copy(), np.zeros(8), np.ones(8))
        with pytest.raises(errors.InsufficientHistory):
            forecast.rollout(model, ci.values[:100], forecast._base_columns(
                ci.timestamps, load.load_mw, 100, 103), 5)
