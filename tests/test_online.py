import io

import numpy as np
import pytest

from carbonsched import forecast
from carbonsched.errors import ForecastUnavailable
from carbonsched.online import (ModelForecaster, PerfectForecaster,
                                lookahead_window, run_online)
from carbonsched.scheduler import StationConfig, carbon_schedule

from conftest import duck_curve, flexible_sessions, make_grid, make_session


def _config(T=288, cap=180.0, lam=0.4):
    return StationConfig(power_cap_kw=cap, slot_hours=5 / 60, lam=lam,
                         horizon_slots=T)


@pytest.fixture(scope="module")
def day():
    grid = make_grid(1)
    return grid, duck_curve(grid)


class TestLookaheadWindow:
    def test_singleton(self, day):
        _, ci = day
        fc = PerfectForecaster(ci.values)
        w = lookahead_window(5, 1, fc)
        assert w.shape == (1,)
        assert w[0] == ci.values[5]

    def test_constant_forecaster(self):
        fc = PerfectForecaster(np.full(288, 0.3))
        np.testing.assert_allclose(lookahead_window(0, 50, fc), 0.3)

    def test_padding_past_series_end(self, day):
        _, ci = day
        fc = PerfectForecaster(ci.values, slots_per_day=288)
        w = lookahead_window(280, 288, fc)
        assert w.shape == (288,)
        np.testing.assert_array_equal(w[:8], ci.values[280:])
        # padding repeats the final day from its start
        np.testing.assert_array_equal(w[8:20], ci.values[:12])

    def test_unavailable(self, day):
        _, ci = day
        with pytest.raises(ForecastUnavailable):
            lookahead_window(len(ci.values), 4, PerfectForecaster(ci.values))


class TestRunOnline:
    def test_zero_sessions(self, day):
        _, ci = day
        res = run_online([], PerfectForecaster(ci.values), ci.values,
                         _config(), 288)
        assert res.power.shape == (0, 288)
        assert res.emissions_kg == 0.0

    def test_no_power_before_arrival(self, day):
        _, ci = day
        s = make_session(t_arrival=5, t_depart=100)
        res = run_online([s], PerfectForecaster(ci.values), ci.values,
                         _config(), 288)
        np.testing.assert_array_equal(res.power[0, :5], 0.0)

    def test_causality(self, day):
        grid, ci = day
        base = flexible_sessions(grid, 5, seed=21)
        future = make_session("future", t_arrival=150, t_depart=250,
                              soc_arrival=0.1, soc_target=0.9)
        fc = PerfectForecaster(ci.values)
        res_a = run_online(base, fc, ci.values, _config(), 288)
        res_b = run_online(base + [future], fc, ci.values, _config(), 288)
        np.testing.assert_array_equal(res_a.power[:, :150],
                                      res_b.power[:5, :150])

    def test_perfect_forecast_stationary_matches_offline(self, day):
        # all sessions known and active from slot 0: MPC with no new
        # information keeps re-solving the same LP
        _, ci = day
        sessions = [
            make_session("a", 0, 288, 0.2, 0.7),
            make_session("b", 0, 288, 0.1, 0.6, power_max_kw=5.0),
        ]
        config = _config()
        offline = carbon_schedule(sessions, ci.values, config)
        online = run_online(sessions, PerfectForecaster(ci.values),
                            ci.values, config, 288)
        assert online.objective == pytest.approx(offline.objective, abs=1e-6)

    def test_station_cap_and_soc_limits(self, day):
        grid, ci = day
        sessions = flexible_sessions(grid, 12, seed=8)
        config = _config(cap=20.0)
        res = run_online(sessions, PerfectForecaster(ci.values), ci.values,
                         config, 288)
        assert np.all(res.station_power <= 20.0 + 1e-8)
        for i, s in enumerate(sessions):
            assert np.all(res.soc[i] <= s.soc_max + 1e-8)

    def test_decision_log_consistent_with_emissions(self, day):
        grid, ci = day
        sessions = flexible_sessions(grid, 4, seed=31)
        log = io.StringIO()
        res = run_online(sessions, PerfectForecaster(ci.values), ci.values,
                         _config(), 288, log_out=log)
        lines = log.getvalue().strip().splitlines()
        assert lines[0] == "slot,session_id,power_kw,forecast_c,true_c"
        total = 0.0
        for line in lines[1:]:
            _, _, p, _, c = line.split(",")
            total += float(p) * float(c) * (5 / 60)
        assert total == pytest.approx(res.emissions_kg, abs=1e-9)


class TestModelForecaster:
    def test_online_with_fitted_model(self):
        # two days: day one is warm-up history, day two is simulated
        grid = make_grid(60)  # spans two months so no feature is constant
        ci = duck_curve(grid, noise=0.005, seed=2)
        hours = np.array([t.hour + t.minute / 60.0 for t in grid.timestamps()])
        load = np.maximum(20000.0 + 3000.0 * np.sin(2 * np.pi * hours / 24.0),
                          1.0)
        from carbonsched.ingest import LoadForecastSeries
        load_series = LoadForecastSeries(tuple(grid.timestamps()), load)
        model, _, _ = forecast.fit(forecast.build_features(ci, load_series),
                                   seed=1)

        sim_start = 59 * 288
        fc = ModelForecaster(model, ci, load_series, sim_start=sim_start)
        w = fc.window(0, 288)
        assert w.shape == (288,)
        assert np.all(w >= 0)
        # forecast should roughly track the duck shape
        assert w[13 * 12] < w[2 * 12]

        sessions = flexible_sessions(make_grid(1), 4, seed=12)
        res = run_online(sessions, fc, ci.values[sim_start:], _config(), 288)
        assert np.all(res.station_power <= 180.0 + 1e-8)
