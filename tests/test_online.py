from dataclasses import replace
from datetime import timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonsched import forecast, online, scheduler
from carbonsched.carbon import CarbonIntensitySeries
from carbonsched.errors import (ForecastUnavailable, GridMismatch,
                                NumericalFailure)
from carbonsched.ingest import LoadForecastSeries
from carbonsched.online import ModelForecaster, PerfectForecaster, run_online
from carbonsched.scheduler import (StationConfig, build_lp, carbon_schedule,
                                   max_constraint_violation)

from conftest import duck_curve, flexible_sessions, make_grid, make_session
from oracles import always_resolve_online, terminal_gaps
from test_scheduler import infeasible


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
        w = fc.window(5, 1)
        assert w.shape == (1,)
        assert w[0] == ci.values[5]

    def test_constant_forecaster(self):
        fc = PerfectForecaster(np.full(288, 0.3))
        np.testing.assert_allclose(fc.window(0, 50), 0.3)

    def test_padding_past_series_end(self, day):
        # a window ends by the series' end; none is padded past it
        _, ci = day
        fc = PerfectForecaster(ci.values)
        np.testing.assert_array_equal(fc.window(280, 8), ci.values[280:])
        with pytest.raises(ForecastUnavailable) as info:
            fc.window(280, 9)
        assert info.value.slot == 280

    def test_unavailable(self, day):
        _, ci = day
        with pytest.raises(ForecastUnavailable):
            PerfectForecaster(ci.values).window(len(ci.values), 4)


class TestRunOnline:
    def test_zero_sessions(self, day):
        _, ci = day
        res = run_online([], PerfectForecaster(ci.values), ci.values,
                         _config(), 288)
        assert res.power.shape == (0, 288)
        assert res.emissions_kg == 0.0

    def test_solver_failure_names_the_slot(self, day, monkeypatch):
        _, ci = day
        monkeypatch.setattr(online, "build_lp",
                            lambda *a: infeasible(build_lp(*a)))
        with pytest.raises(NumericalFailure) as info:
            run_online([make_session(t_arrival=5, t_depart=100)],
                       PerfectForecaster(ci.values), ci.values, _config(), 288)
        assert str(info.value) == \
            "slot 5: LP solver failed: Infeasible (after 0 iterations)"
        assert info.value.iterations == 0

    def test_short_forecast_window_is_unavailable(self, day):
        _, ci = day

        class Short:
            def window(self, k, horizon):
                return ci.values[k:k + horizon - 1]

        with pytest.raises(ForecastUnavailable) as info:
            run_online([make_session(t_arrival=5, t_depart=100)], Short(), ci.values,
                       _config(), 288)
        assert info.value.slot == 5

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

    def test_perfect_forecast_under_loose_cap_never_runs_highs(self, day, highs_runs):
        # five sessions of 7.5 kW each under a 37.5 kW cap: every re-plan
        # is answered by the screen
        grid, ci = day
        sessions = flexible_sessions(grid, 5, seed=500)
        res = run_online(sessions, PerfectForecaster(ci.values), ci.values,
                         _config(cap=5 * 7.5), 288)
        assert highs_runs == []
        assert res.delivered_kwh(sessions) > 0

    def test_builds_one_schedule_record(self, day, monkeypatch):
        # every re-solve hands back its power matrix; only the whole run
        # is expanded into a ScheduleResult
        grid, ci = day
        real, records = scheduler.result_from_power, []

        def counting(*args):
            records.append(None)
            return real(*args)

        monkeypatch.setattr(scheduler, "result_from_power", counting)
        fc = DriftingForecaster(ci.values)
        run_online(flexible_sessions(grid, 4, seed=31), fc, ci.values, _config(), 288)
        assert fc.calls > 1
        assert len(records) == 1

    def test_decision_log_consistent_with_emissions(self, day):
        grid, ci = day
        sessions = flexible_sessions(grid, 4, seed=31)
        decisions = []
        res = run_online(sessions, PerfectForecaster(ci.values), ci.values,
                         _config(), 288, decisions)
        assert decisions
        total = 0.0
        for k, i, p, c in decisions:
            assert res.power[i, k] == p
            assert c == ci.values[k]     # a perfect forecast
            total += p * ci.values[k] * (5 / 60)
        assert total == pytest.approx(res.emissions_kg, abs=1e-9)


class RecordingForecaster:
    """A perfect forecaster that records the (slot, horizon) of each window."""

    def __init__(self, values):
        self.inner = PerfectForecaster(values)
        self.calls = []

    def window(self, k, horizon):
        self.calls.append((k, horizon))
        return self.inner.window(k, horizon)


class TestWindowLength:
    """A window reaches no further than an active session can charge: at
    slot k it is min(T, total_slots - k, max(latest active departure - k,
    2)) slots long."""

    # "last" is alone and pending at slot 200 with one slot to go, so its
    # windows take the floor of 2 slots; every session leaves by slot 201
    # of the 288-slot run.
    SESSIONS = [make_session("a", 10, 60), make_session("b", 30, 120, capacity_kwh=50.0),
                make_session("c", 100, 150), make_session("last", 200, 201, 0.2, 0.3)]

    @pytest.mark.parametrize("T", [288, 60, 1])
    def test_window_ends_at_the_latest_active_departure(self, day, T):
        _, ci = day
        fc = RecordingForecaster(ci.values)
        run_online(self.SESSIONS, fc, ci.values, _config(T=T), 288)
        assert len(fc.calls) > 50
        for k, h in fc.calls:
            latest = max(s.t_depart for s in self.SESSIONS
                         if s.t_arrival <= k < s.t_depart)
            assert h == min(T, 288 - k, max(latest - k, 2))
        assert (200, min(T, 2)) in fc.calls


class TestRunEnd:
    def test_session_departing_after_the_run_is_planned_to_its_end(self):
        # Intensity drops from 0.5 to 0.01 kg/kWh only after the run's 48
        # slots. A plan that counted on those slots would charge nothing in
        # the run; the session is planned as if it departed at slot 48.
        carbon = np.concatenate([np.full(48, 0.5), np.full(48, 0.01)])
        config = _config(T=96, lam=10.0)
        late, at_end = ([make_session("s", 0, depart)] for depart in (96, 48))
        res = run_online(late, PerfectForecaster(carbon), carbon, config, 48)
        ref = run_online(at_end, PerfectForecaster(carbon), carbon, config, 48)
        np.testing.assert_array_equal(res.power, ref.power)
        assert res.delivered_kwh(late) > 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_no_window_runs_past_the_run(self, data):
        total = data.draw(st.integers(1, 40))
        T = data.draw(st.integers(1, 60))
        n = data.draw(st.integers(total, 80))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sessions = []
        for i in range(data.draw(st.integers(1, 4))):
            a = data.draw(st.integers(0, total - 1))
            d = data.draw(st.integers(a + 1, n + 10))
            soc_arr = float(rng.uniform(0.0, 0.5))
            sessions.append(make_session(
                f"h{i}", a, d, soc_arr, float(rng.uniform(soc_arr, 1.0)),
                power_max_kw=float(rng.uniform(1.0, 10.0))))
        carbon = rng.uniform(0.05, 0.5, size=n)
        config = _config(T=T, cap=data.draw(st.floats(2.0, 30.0)),
                         lam=data.draw(st.floats(0.0, 20.0)))
        fc = RecordingForecaster(carbon)
        res = run_online(sessions, fc, carbon, config, total)
        assert fc.calls
        assert all(k + h <= total for k, h in fc.calls)
        # a departure after the run is planned as one at its end
        clipped = [replace(s, t_depart=min(s.t_depart, total)) for s in sessions]
        ref = run_online(clipped, PerfectForecaster(carbon), carbon, config, total)
        np.testing.assert_array_equal(res.power, ref.power)


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
            assert terminal_gaps(res, sessions).sum() == pytest.approx(
                terminal_gaps(ref, sessions).sum(), abs=1e-9)
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
        res = run_online(sessions, PerfectForecaster(carbon), carbon, config, 48)
        ref, n_ref = always_resolve_online(
            sessions, PerfectForecaster(carbon), carbon, config, 48)
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
        decisions = []
        res = run_online(sessions, PerfectForecaster(carbon), carbon, config,
                         total, decisions)
        assert max_constraint_violation(res, sessions, config) <= 1e-8
        logged = sum(p * carbon[k] * config.slot_hours for k, _, p, _ in decisions)
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


class TestRolloutCache:
    """ModelForecaster builds the rollout's calendar and load columns once;
    every window must equal `forecast.rollout` on columns built for that
    window alone, bit for bit."""

    # intercept, minute, hour, weekday, month, load, then the 24 h, 12 h
    # and 1 h moving averages; every column moves the forecast
    BETA = np.array([0.02, 1e-5, -5e-4, 2e-4, 1e-3, 2e-6, 0.40, 0.20, 0.30])

    @staticmethod
    def _series(timestamps):
        rng = np.random.default_rng(5)
        n = len(timestamps)
        hours = np.array([ts.hour + ts.minute / 60.0 for ts in timestamps])
        load = 20000.0 + 3000.0 * np.sin(2 * np.pi * hours / 24.0) \
            + rng.normal(0, 200.0, size=n)
        return (CarbonIntensitySeries(tuple(timestamps), rng.uniform(0.1, 0.4, size=n)),
                LoadForecastSeries(tuple(timestamps), load))

    def _check(self, timestamps, sim_start, ks, horizon):
        ci, load = self._series(timestamps)
        model = forecast.ForecastModel(self.BETA.copy(), np.zeros(8), np.ones(8))
        fc = ModelForecaster(model, ci, load, sim_start=sim_start)
        for k in ks:
            start = sim_start + k
            want = forecast.rollout(model, ci.values[:start], forecast._base_columns(
                ci.timestamps, load.load_mw, start, start + horizon), 5)
            np.testing.assert_array_equal(fc.window(k, horizon), want)
        return fc

    def test_consecutive_slots(self):
        # the online loop asks for k, k + 1, ...; the cache starts at
        # sim_start and runs at most one day past the last window
        fc = self._check(make_grid(3).timestamps(), 288, range(289), 288)
        assert len(fc._base) <= 288 + 2 * 288

    @pytest.mark.parametrize("horizon", [1, 37, 700])
    def test_other_horizons(self, horizon):
        self._check(make_grid(5).timestamps(), 300, [0, 1, 2, 50, 9, 400, 401],
                    horizon)

    def test_windows_past_grid_end(self):
        # 2 days of grid from slot 288: a window must end by the grid's
        # end, 288 slots on, and the cache stops growing there
        fc = self._check(make_grid(2).timestamps(), 288, [0, 100], 188)
        for k, horizon in ((0, 289), (1, 288), (100, 189), (288, 1)):
            with pytest.raises(ForecastUnavailable) as info:
                fc.window(k, horizon)
            assert info.value.slot == k
        assert len(fc._base) == 288

    def test_utc_offset_changes_mid_series(self):
        # the same instants, but from slot 400 on written at +01:00, so
        # their hour differs from the first stamp plus a multiple of 5 min
        plus_one = timezone(timedelta(hours=1))
        stamps = [ts if s < 400 else ts.astimezone(plus_one)
                  for s, ts in enumerate(make_grid(3).timestamps())]
        self._check(stamps, 288, range(0, 289, 3), 288)

    def test_windows_of_two_or_more_slots_are_prefixes(self):
        # What the online controller's window cut rests on: at every k,
        # each window of 2 or more slots is bit for bit the start of the
        # longest one. A one-slot window need not be, since numpy's
        # one-row product `cols @ beta` may round differently.
        ci, load = self._series(make_grid(2).timestamps())
        model = forecast.ForecastModel(self.BETA.copy(), np.zeros(8), np.ones(8))
        span = 120
        fc = ModelForecaster(model, ci, load, sim_start=len(ci.values) - span)
        for k in range(span):
            longest = fc.window(k, span - k)
            for h in range(2, span - k + 1):
                assert fc.window(k, h).tobytes() == longest[:h].tobytes()

    def test_negative_slot_unavailable(self):
        ci, load = self._series(make_grid(2).timestamps())
        model = forecast.ForecastModel(self.BETA.copy(), np.zeros(8), np.ones(8))
        with pytest.raises(ForecastUnavailable):
            ModelForecaster(model, ci, load, sim_start=300).window(-1, 10)
