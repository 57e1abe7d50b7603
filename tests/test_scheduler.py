import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbonsched import errors, scheduler
from carbonsched.ingest import ChargingSession
from carbonsched.scheduler import (StationConfig, build_lp, carbon_schedule,
                                   max_constraint_violation, select_lambda,
                                   solve, tou_schedule)

from conftest import make_session
from oracles import (brute_force_objective, naive_dense_lp, random_instance,
                     resolution_bound)


def _config(T=6, cap=100.0, lam=10.0, slot_hours=1.0):
    return StationConfig(power_cap_kw=cap, slot_hours=slot_hours, lam=lam,
                         horizon_slots=T)


@st.composite
def lp_instances(draw):
    """Sessions whose windows may overlap, leave slots idle, span a single
    slot or reach past either end of the horizon; possibly no sessions."""
    T = draw(st.integers(1, 24))
    sessions = []
    for i in range(draw(st.integers(0, 6))):
        a = draw(st.integers(-2, T - 1))
        d = draw(st.integers(max(a, 0) + 1, T + 2))
        soc_arr, soc_tgt, soc_max = sorted(
            draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
        sessions.append(ChargingSession(
            id=f"h{i}", t_arrival=a, t_depart=d, soc_arrival=soc_arr,
            soc_target=soc_tgt, soc_max=soc_max,
            capacity_kwh=draw(st.floats(1.0, 60.0)),
            power_max_kw=draw(st.floats(1.0, 10.0)),
            delta=draw(st.floats(0.01, 1.0))))
    price = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=T, max_size=T)))
    config = _config(T=T, cap=draw(st.floats(1.0, 50.0)),
                     lam=draw(st.floats(0.0, 2.0)), slot_hours=5 / 60)
    return sessions, price, config


class TestBuildLp:
    def test_structural_counts(self):
        s = make_session(t_arrival=1, t_depart=5, capacity_kwh=20.0, delta=1.0)
        lp = build_lp([s], np.full(6, 0.2), _config())
        assert lp.c.shape == (5,)                 # 4 power vars + 1 slack
        assert lp.a_ub.shape == (1 + 2 + 6, 5)    # SoC cap + slack + station
        # the SoC cap row weights every power var of the session by g
        np.testing.assert_array_equal(lp.a_ub.toarray()[0], [0.05] * 4 + [0.0])
        assert lp.b_ub[0] == pytest.approx(1.0 - 0.2)
        # station rows are the last six and each touches at most the u vars
        station = lp.a_ub.toarray()[-6:]
        assert station[0].sum() == 0              # slot 0: session not active
        assert station[1].sum() == 1

    def test_matches_naive_dense_builder(self):
        sessions = [
            make_session("a", 0, 5, 0.1, 0.6, capacity_kwh=10.0, delta=0.5),
            make_session("b", 3, 12, 0.3, 0.9, capacity_kwh=30.0,
                         power_max_kw=4.0, delta=0.75),
            make_session("c", 6, 10, 0.0, 0.5, capacity_kwh=20.0, soc_max=0.8,
                         delta=0.25),
        ]
        price = np.linspace(0.5, 0.1, 12)
        config = _config(T=12, cap=9.0, lam=0.7, slot_hours=0.25)
        lp = build_lp(sessions, price, config)
        c, a, b, upper = naive_dense_lp(sessions, price, config)
        np.testing.assert_allclose(lp.c, c)
        np.testing.assert_allclose(lp.a_ub.toarray(), a)
        np.testing.assert_allclose(lp.b_ub, b)
        np.testing.assert_allclose(lp.upper, upper)

    @settings(max_examples=200, deadline=None)
    @given(lp_instances())
    @example(([], np.full(4, 0.2), _config(T=4)))
    @example(([make_session("a", 0, 1), make_session("b", 0, 3),
               make_session("c", 2, 3), make_session("d", 5, 6)],
              np.linspace(0.1, 0.6, 8), _config(T=8)))
    def test_matches_naive_dense_builder_on_random_instances(self, instance):
        sessions, price, config = instance
        lp = build_lp(sessions, price, config)
        _, a, b, _ = naive_dense_lp(sessions, price, config)
        np.testing.assert_array_equal(lp.a_ub.toarray(), a)
        np.testing.assert_array_equal(lp.b_ub, b)

    def test_price_length_mismatch(self):
        s = make_session(t_arrival=0, t_depart=4)
        with pytest.raises(errors.EmptyHorizon):
            build_lp([s], np.full(5, 0.2), _config(T=6))

    def test_session_outside_horizon(self):
        s = make_session(t_arrival=10, t_depart=12)
        with pytest.raises(errors.SessionOutsideHorizon):
            build_lp([s], np.full(6, 0.2), _config(T=6))


class TestSolve:
    def test_constant_price_exact_energy(self):
        # 10 kWh requested, window long enough, large lambda: delivered
        # energy is exact and placement is irrelevant to the objective
        s = make_session(t_arrival=0, t_depart=6, soc_arrival=0.2,
                         soc_target=0.7, capacity_kwh=20.0, power_max_kw=5.0,
                         delta=1.0)
        res = solve(build_lp([s], np.full(6, 0.2), _config(lam=10.0)))
        assert res.delivered_kwh([s]) == pytest.approx(10.0, abs=1e-7)
        assert res.objective == pytest.approx(0.2 * 10.0, abs=1e-6)
        assert res.terminal_gaps[0] <= 1e-8

    def test_two_slot_dominance(self):
        s = make_session(t_arrival=0, t_depart=2, soc_arrival=0.3,
                         soc_target=0.5, capacity_kwh=10.0, power_max_kw=5.0,
                         delta=1.0)
        res = solve(build_lp([s], np.array([0.4, 0.1]), _config(T=2)))
        assert res.power[0, 0] == pytest.approx(0.0, abs=1e-8)
        assert res.power[0, 1] == pytest.approx(2.0, abs=1e-7)

    def test_lambda_zero_no_charging(self):
        s = make_session(t_arrival=0, t_depart=6, capacity_kwh=20.0, delta=1.0)
        res = solve(build_lp([s], np.full(6, 0.2), _config(lam=0.0)))
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert res.delivered_kwh([s]) <= 1e-7

    def test_disjoint_windows_station_rows_slack(self):
        a = make_session("a", 0, 3, capacity_kwh=20.0, delta=1.0)
        b = make_session("b", 3, 6, capacity_kwh=20.0, delta=1.0)
        res = solve(build_lp([a, b], np.full(6, 0.1), _config(cap=100.0)))
        assert np.all(res.station_power <= min(100.0, 7.5) + 1e-8)

    def test_zero_sessions(self):
        res = solve(build_lp([], np.full(6, 0.2), _config()))
        assert res.power.shape == (0, 6)
        assert res.emissions_kg == 0.0

    def test_brute_force_oracle(self):
        price = np.array([0.4, 0.3, 0.1, 0.1, 0.3, 0.4])
        sessions = [
            make_session("a", 0, 6, 0.2, 0.8, capacity_kwh=3.0,
                         power_max_kw=4.0, delta=0.5),
            make_session("b", 1, 5, 0.1, 0.9, capacity_kwh=2.0,
                         power_max_kw=3.0, delta=0.5),
        ]
        config = _config(cap=5.0, lam=1.2)
        res = solve(build_lp(sessions, price, config))
        enum = brute_force_objective(sessions, price, config)
        assert res.objective <= enum + 1e-7
        assert res.objective >= enum - resolution_bound(sessions, config) - 1e-7

    def test_random_feasibility(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            sessions, price, config = random_instance(rng, 6, 48)
            res = solve(build_lp(sessions, price, config))
            assert max_constraint_violation(res, sessions, config) <= 1e-8

    def test_lambda_monotonicity(self):
        rng = np.random.default_rng(7)
        sessions, price, config = random_instance(rng, 5, 48, power_cap=20.0)
        sessions = [s for s in sessions]
        prev_em, prev_gap = -np.inf, np.inf
        for lam in np.arange(0.05, 0.501, 0.05):
            cfg = StationConfig(config.power_cap_kw, config.slot_hours,
                                float(lam), config.horizon_slots)
            res = solve(build_lp(sessions, price, cfg))
            gap = float(res.terminal_gaps.sum())
            assert res.emissions_kg >= prev_em - 1e-7
            assert gap <= prev_gap + 1e-7
            prev_em, prev_gap = res.emissions_kg, gap

    def test_price_scale_invariance(self):
        rng = np.random.default_rng(13)
        sessions, price, config = random_instance(rng, 4, 24, lam=0.4)
        alpha = 3.7
        base = solve(build_lp(sessions, price, config))
        scaled_cfg = StationConfig(config.power_cap_kw, config.slot_hours,
                                   config.lam * alpha, config.horizon_slots)
        scaled = solve(build_lp(sessions, price * alpha, scaled_cfg))
        assert scaled.objective == pytest.approx(alpha * base.objective,
                                                 rel=1e-7, abs=1e-9)

    def test_zero_demand_session_idle(self):
        s = make_session(soc_arrival=0.5, soc_target=0.5, t_depart=6,
                         capacity_kwh=20.0, delta=1.0)
        res = solve(build_lp([s], np.full(6, 0.2), _config(lam=1.0)))
        assert res.delivered_kwh([s]) <= 1e-8


class TestTouSchedule:
    def test_constant_price_matches_constant_carbon(self):
        sessions = [make_session("a", 0, 6, capacity_kwh=5.0, delta=1.0),
                    make_session("b", 2, 6, capacity_kwh=5.0, delta=1.0)]
        config = _config(lam=10.0)
        by_tou = tou_schedule(sessions, np.full(6, 0.3), config)
        by_carbon = carbon_schedule(sessions, np.full(6, 0.3), config)
        assert by_tou.delivered_kwh(sessions) \
            == pytest.approx(by_carbon.delivered_kwh(sessions), abs=1e-7)

    def test_two_tier_charges_before_peak(self):
        # peak tariff after 16:00; a straddling EV with slack charges early
        T = 288
        price = np.array([0.25 if t < 16 * 12 else 0.55 for t in range(T)])
        s = make_session(t_arrival=14 * 12, t_depart=20 * 12, soc_arrival=0.2,
                         soc_target=0.6, capacity_kwh=2.0, delta=0.075)
        config = StationConfig(180.0, 5 / 60, 1.0, T)
        res = tou_schedule([s], price, config)
        assert res.terminal_gaps[0] <= 1e-7
        assert np.all(res.power[0, 16 * 12:] <= 1e-8)

    def test_emissions_accounted_against_carbon(self):
        s = make_session(t_arrival=0, t_depart=6, capacity_kwh=5.0, delta=1.0)
        carbon = np.full(6, 0.1)
        res = tou_schedule([s], np.full(6, 0.3), _config(lam=10.0),
                           carbon=carbon)
        delivered_grid_kwh = res.power.sum() * 1.0
        assert res.emissions_kg == pytest.approx(0.1 * delivered_grid_kwh)


class TestSelectLambda:
    @pytest.mark.parametrize("n,expected", [
        (0, 0.3), (20, 0.3), (21, 0.25), (25, 0.25), (30, 0.25),
        (31, 0.35), (100, 0.35),
    ])
    def test_rule(self, n, expected):
        assert select_lambda(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            select_lambda(-1)


class TestScheduleResult:
    def test_csv_export(self):
        s = make_session(t_arrival=0, t_depart=2, capacity_kwh=10.0, delta=1.0)
        res = solve(build_lp([s], np.array([0.2, 0.1]), _config(T=2)))
        out = io.StringIO()
        res.to_csv(out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "session_id,slot,power_kw,soc"
        assert len(lines) == 3

    def test_summary_fields(self):
        s = make_session(t_arrival=0, t_depart=2, capacity_kwh=10.0, delta=1.0)
        res = solve(build_lp([s], np.array([0.2, 0.1]), _config(T=2)))
        summary = res.summary()
        assert set(summary) == {"objective", "emissions_kg", "terminal_gaps"}
        assert "s0" in summary["terminal_gaps"]
