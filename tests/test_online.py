import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonsched import forecast, online
from carbonsched.errors import ForecastUnavailable, GridMismatch
from carbonsched.online import (DECISION_LOG_HEADER, ModelForecaster,
                                PerfectForecaster, lookahead_window,
                                run_online)
from carbonsched.scheduler import (StationConfig, carbon_schedule,
                                   max_constraint_violation)

from conftest import duck_curve, flexible_sessions, make_grid, make_session
from oracles import always_resolve_online


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
        # run_online writes data rows only; the caller writes the header
        log = io.StringIO()
        csv.writer(log).writerow(DECISION_LOG_HEADER)
        res = run_online(sessions, PerfectForecaster(ci.values), ci.values,
                         _config(), 288, log_out=log)
        lines = log.getvalue().strip().splitlines()
        assert lines[0] == "slot,session_id,power_kw,forecast_c,true_c"
        total = 0.0
        for line in lines[1:]:
            _, _, p, _, c = line.split(",")
            total += float(p) * float(c) * (5 / 60)
        assert total == pytest.approx(res.emissions_kg, abs=1e-9)


@pytest.fixture
def solve_count(monkeypatch):
    """Counts the LP solves made by run_online."""
    calls = []
    solve = online.solve

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(online, "solve", counting)
    return calls


class DriftingForecaster:
    """True intensity plus an offset that grows with every call, so no two
    forecast windows agree."""

    def __init__(self, values):
        self.inner = PerfectForecaster(values)
        self.calls = 0

    def window(self, k, horizon):
        self.calls += 1
        return self.inner.window(k, horizon) + 1e-4 * self.calls


class TestPlanReuse:
    def test_acceptance_days_match_always_resolve(self, day, solve_count):
        # the ten days of acceptance criterion 5
        _, ci = day
        config = _config(lam=0.4)
        resolves = oracle_solves = 0
        for d in range(10):
            sessions = flexible_sessions(make_grid(1), 5, seed=500 + d)
            fc = PerfectForecaster(ci.values)
            ref, n_ref = always_resolve_online(sessions, fc, ci.values, config, 288)
            solve_count.clear()
            res = run_online(sessions, fc, ci.values, config, 288)
            resolves += len(solve_count)
            oracle_solves += n_ref
            assert res.emissions_kg == pytest.approx(ref.emissions_kg, abs=1e-9)
            assert res.objective == pytest.approx(ref.objective, abs=1e-9)
            assert res.terminal_gaps.sum() == pytest.approx(
                ref.terminal_gaps.sum(), abs=1e-9)
        assert 5 * resolves < oracle_solves

    def test_all_known_at_slot_zero_solves_once(self, day, solve_count):
        # Every session is there from slot 0 and the forecast is exact, so
        # the first plan stays optimal to the end. lam = 5 makes charging
        # pay only in the midday dip and the 15 kW cap keeps every target
        # out of reach, so no SoC can drift past its target and force a
        # re-solve.
        _, ci = day
        sessions = [make_session(f"s{i}", 0, d, 0.2, 0.95, capacity_kwh=50.0)
                    for i, d in enumerate(range(100, 289, 30))]
        config = _config(cap=15.0, lam=5.0)
        offline = carbon_schedule(sessions, ci.values, config)
        res = run_online(sessions, PerfectForecaster(ci.values), ci.values,
                         config, 288)
        assert len(solve_count) == 1
        assert res.objective == pytest.approx(offline.objective, abs=1e-9)
        assert res.delivered_kwh(sessions) > 0
        assert np.all(res.soc[:, -1] < [s.soc_target for s in sessions])

    def test_changing_forecast_resolves_every_pending_slot(self, day,
                                                           solve_count):
        grid, ci = day
        sessions = flexible_sessions(grid, 6, seed=44)
        fc = DriftingForecaster(ci.values)
        res = run_online(sessions, fc, ci.values, _config(), 288)
        ref, n_ref = always_resolve_online(
            sessions, DriftingForecaster(ci.values), ci.values, _config(), 288)
        assert len(solve_count) == fc.calls == n_ref
        np.testing.assert_array_equal(res.power, ref.power)

    def test_truncated_window_resolves(self, solve_count):
        # The 24-slot lookahead cuts the session's window at every slot
        # before 16, so each new slot reveals cheaper slots than the last
        # plan could use, and following that plan would charge too early.
        carbon = np.linspace(0.5, 0.05, 48)
        sessions = [make_session("long", 0, 40, 0.2, 0.6)]
        config = _config(T=24, lam=10.0)
        res = run_online(sessions, PerfectForecaster(carbon, slots_per_day=24),
                         carbon, config, 48)
        ref, n_ref = always_resolve_online(
            sessions, PerfectForecaster(carbon, slots_per_day=24), carbon,
            config, 48)
        np.testing.assert_allclose(res.power, ref.power, atol=1e-9)
        assert res.power[0, :30].sum() == pytest.approx(0.0, abs=1e-9)
        assert len(solve_count) < n_ref

    def test_soc_past_target_is_not_followed(self):
        # Float drift can leave a SoC a hair above its target; a re-solve
        # would then clip the target to it, so the plan is stale.
        s = make_session("a", 0, 10, 0.2, 0.6)
        window = np.linspace(0.3, 0.1, 10)
        plan = online._Plan(0, {0: 0}, window, np.full((1, 10), 2.0))
        tail = np.concatenate([window[1:], [0.3]])
        assert plan.column(1, [0], [s], np.array([0.6]), tail) == [2.0]
        above = np.array([np.nextafter(0.6, 1.0)])
        assert plan.column(1, [0], [s], above, tail) is None

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_staggered_arrivals_stay_feasible(self, data):
        total, T = 48, 24
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sessions = []
        for i in range(data.draw(st.integers(1, 6))):
            a = data.draw(st.integers(0, total - 1))
            d = data.draw(st.integers(a + 1, total))
            soc_arr = float(rng.uniform(0.0, 0.5))
            sessions.append(make_session(
                f"h{i}", a, d, soc_arr, float(rng.uniform(soc_arr, 1.0)),
                capacity_kwh=float(rng.uniform(1.0, 20.0)),
                power_max_kw=float(rng.uniform(1.0, 10.0))))
        carbon = rng.uniform(0.05, 0.5, size=total)
        config = _config(T=T, cap=data.draw(st.floats(2.0, 30.0)),
                         lam=data.draw(st.floats(0.0, 5.0)))
        log = io.StringIO()
        res = run_online(sessions, PerfectForecaster(carbon, slots_per_day=T),
                         carbon, config, total, log_out=log)
        full = StationConfig(config.power_cap_kw, config.slot_hours,
                             config.lam, total)
        assert max_constraint_violation(res, sessions, full) <= 1e-8
        logged = sum(float(p) * float(c) * config.slot_hours
                     for _, _, p, _, c in csv.reader(io.StringIO(log.getvalue())))
        assert logged == pytest.approx(res.emissions_kg, abs=1e-9)


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

    def test_mismatched_grids(self):
        from datetime import datetime, timezone

        from carbonsched.ingest import LoadForecastSeries
        grid = make_grid(2)
        other = make_grid(2, start=datetime(2022, 1, 1, tzinfo=timezone.utc))
        load = LoadForecastSeries(tuple(other.timestamps()),
                                  np.full(other.n_slots, 20000.0))
        model = forecast.ForecastModel(np.zeros(9), np.zeros(8), np.ones(8))
        with pytest.raises(GridMismatch):
            ModelForecaster(model, duck_curve(grid), load, sim_start=288)
