from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from carbonsched import errors, scheduler
from carbonsched.baselines import equal_sharing
from carbonsched.ingest import ChargingSession
from carbonsched.online import PerfectForecaster, run_online
from carbonsched.scheduler import (StationConfig, build_lp, carbon_schedule,
                                   max_constraint_violation, result_from_power,
                                   select_lambda, solve)

from conftest import duck_curve, edf_schedule, flexible_sessions, make_grid, make_session
from oracles import (brute_force_objective, cheapest_first_then_capped,
                     epigraph_optimum, flow_optimum, linprog_solve, loop_soc_and_gaps,
                     naive_dense_lp, objective_slack, random_instance,
                     resolution_bound, scipy_matrix, terminal_gaps, three_key_screen)
from test_acceptance import criterion_2_instances


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
        assert lp.c.shape == (4,)                 # 4 power vars, no slack
        assert lp.a_ub.shape == (1 + 6, 4)        # SoC cap + station
        # price * h less lam * g per power var
        np.testing.assert_allclose(lp.c, [0.2 - 10.0 * 0.05] * 4)
        np.testing.assert_array_equal(lp.upper, [7.5] * 4)
        # the SoC cap row weights every power var of the session by g
        # and stops the session at its target
        np.testing.assert_array_equal(scipy_matrix(lp.a_ub).toarray()[0], [0.05] * 4)
        assert lp.b_ub[0] == pytest.approx(0.6 - 0.2)
        # station rows are the last six and each touches at most the u vars
        station = scipy_matrix(lp.a_ub).toarray()[-6:]
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
        np.testing.assert_allclose(scipy_matrix(lp.a_ub).toarray(), a)
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
        np.testing.assert_array_equal(scipy_matrix(lp.a_ub).toarray(), a)
        np.testing.assert_array_equal(lp.b_ub, b)

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
        res = carbon_schedule([s], np.full(6, 0.2), _config(lam=10.0))
        assert res.delivered_kwh([s]) == pytest.approx(10.0, abs=1e-7)
        assert res.objective == pytest.approx(0.2 * 10.0, abs=1e-6)
        assert terminal_gaps(res, [s])[0] <= 1e-8

    def test_two_slot_dominance(self):
        s = make_session(t_arrival=0, t_depart=2, soc_arrival=0.3,
                         soc_target=0.5, capacity_kwh=10.0, power_max_kw=5.0,
                         delta=1.0)
        res = carbon_schedule([s], np.array([0.4, 0.1]), _config(T=2))
        assert res.power[0, 0] == pytest.approx(0.0, abs=1e-8)
        assert res.power[0, 1] == pytest.approx(2.0, abs=1e-7)

    def test_lambda_zero_no_charging(self):
        s = make_session(t_arrival=0, t_depart=6, capacity_kwh=20.0, delta=1.0)
        res = carbon_schedule([s], np.full(6, 0.2), _config(lam=0.0))
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert res.delivered_kwh([s]) <= 1e-7

    def test_disjoint_windows_station_rows_slack(self):
        a = make_session("a", 0, 3, capacity_kwh=20.0, delta=1.0)
        b = make_session("b", 3, 6, capacity_kwh=20.0, delta=1.0)
        res = carbon_schedule([a, b], np.full(6, 0.1), _config(cap=100.0))
        assert np.all(res.station_power <= min(100.0, 7.5) + 1e-8)

    def test_zero_sessions(self):
        res = carbon_schedule([], np.full(6, 0.2), _config())
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
        res = carbon_schedule(sessions, price, config)
        enum = brute_force_objective(sessions, price, config)
        assert res.objective <= enum + 1e-7
        assert res.objective >= enum - resolution_bound(sessions, config) - 1e-7

    def test_objective_equals_epigraph_optimum(self):
        # prices >= 0: capping each session at its target changes no optimum
        rng = np.random.default_rng(909)
        for _ in range(200):
            sessions, price, config = random_instance(
                rng, 6, int(rng.choice([6, 24, 48])))
            res = carbon_schedule(sessions, price, config)
            ref = epigraph_optimum(sessions, price, config)
            assert res.objective == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_random_feasibility(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            sessions, price, config = random_instance(rng, 6, 48)
            res = carbon_schedule(sessions, price, config)
            assert max_constraint_violation(res, sessions, config) <= 1e-8

    def test_lambda_monotonicity(self):
        rng = np.random.default_rng(7)
        sessions, price, config = random_instance(rng, 5, 48, power_cap=20.0)
        sessions = [s for s in sessions]
        prev_em, prev_gap = -np.inf, np.inf
        for lam in np.arange(0.05, 0.501, 0.05):
            cfg = StationConfig(config.power_cap_kw, config.slot_hours,
                                float(lam), config.horizon_slots)
            res = carbon_schedule(sessions, price, cfg)
            gap = float(terminal_gaps(res, sessions).sum())
            assert res.emissions_kg >= prev_em - 1e-7
            assert gap <= prev_gap + 1e-7
            prev_em, prev_gap = res.emissions_kg, gap

    def test_price_scale_invariance(self):
        rng = np.random.default_rng(13)
        sessions, price, config = random_instance(rng, 4, 24, lam=0.4)
        alpha = 3.7
        base = carbon_schedule(sessions, price, config)
        scaled_cfg = StationConfig(config.power_cap_kw, config.slot_hours,
                                   config.lam * alpha, config.horizon_slots)
        scaled = carbon_schedule(sessions, price * alpha, scaled_cfg)
        assert scaled.objective == pytest.approx(alpha * base.objective,
                                                 rel=1e-7, abs=1e-9)

    def test_zero_demand_session_idle(self):
        s = make_session(soc_arrival=0.5, soc_target=0.5, t_depart=6,
                         capacity_kwh=20.0, delta=1.0)
        res = carbon_schedule([s], np.full(6, 0.2), _config(lam=1.0))
        assert res.delivered_kwh([s]) <= 1e-8


@pytest.mark.usefixtures("highs_only")
class TestSolveOnHighsPath(TestSolve):
    """TestSolve with every LP solved by HiGHS: most of its instances
    leave the station cap slack, so the screen answers them otherwise."""


# Two sessions whose power limits sum to 7 kW, both cheapest in slots 2-3.
SCREEN_SESSIONS = [
    make_session("a", 0, 6, 0.2, 0.8, capacity_kwh=3.0, power_max_kw=4.0, delta=0.5),
    make_session("b", 1, 5, 0.1, 0.9, capacity_kwh=2.0, power_max_kw=3.0, delta=0.5),
]
SCREEN_PRICE = np.array([0.4, 0.3, 0.1, 0.1, 0.3, 0.4])


class TestScreen:
    def test_loose_cap_skips_highs(self, highs_runs):
        lp = build_lp(SCREEN_SESSIONS, SCREEN_PRICE, _config(cap=7.0, lam=1.2))
        x = solve(lp)[lp.owner, lp.slot]
        assert highs_runs == []
        assert x.sum() > 0
        _, objective, _ = scheduler._run_highs(lp)
        assert len(highs_runs) == 1
        assert abs(float(lp.c @ x) - objective) <= objective_slack(lp, 1.2)

    def test_binding_cap_runs_highs(self, highs_runs):
        # in slot 2, a takes 3.6 kW and b 3 kW: over a 5 kW cap
        lp = build_lp(SCREEN_SESSIONS, SCREEN_PRICE, _config(cap=5.0, lam=1.2))
        assert scheduler._screen(lp) is None
        power = solve(lp)
        assert len(highs_runs) == 1
        assert power.sum(axis=0).max() <= 5.0 + 1e-9

    def test_negative_request_goes_to_highs(self, highs_runs):
        lp = infeasible(build_lp(SCREEN_SESSIONS, SCREEN_PRICE, _config(cap=7.0)))
        with pytest.raises(errors.NumericalFailure, match="Infeasible"):
            solve(lp)
        assert len(highs_runs) == 1

    def test_nan_cost_under_loose_cap_raises(self, highs_runs):
        lp = build_lp(SCREEN_SESSIONS, SCREEN_PRICE, _config(cap=7.0))
        assert scheduler._screen(lp) is not None
        c = lp.c.copy()
        c[3] = np.nan
        with pytest.raises(errors.NonFiniteValue):
            solve(replace(lp, c=c))
        assert highs_runs == []

    def test_matches_the_loop_reference_when_the_cap_is_slack(self):
        rng = np.random.default_rng(77)
        answered = 0
        for _ in range(200):
            sessions, price, config = random_instance(rng, 6, int(rng.choice([6, 24, 48])))
            lp = build_lp(sessions, price, config)
            if scheduler._screen(lp) is None:
                continue
            answered += 1
            # each power is a difference of sums of at most N column powers
            atol = len(lp.c) * np.finfo(float).eps * lp.upper.sum()
            np.testing.assert_allclose(
                solve(lp), cheapest_first_then_capped(sessions, price, config).power,
                rtol=0, atol=atol)
        assert answered >= 100

    def test_matches_the_three_key_screen_on_tied_costs(self):
        # Columns come session by session, slots ascending, so sorting by
        # (owner, c) keeps tied costs in slot order: x is the three-key
        # sort's, bit for bit, and so is each zero's sign.
        rng = np.random.default_rng(29)
        answered = declined = 0
        for _ in range(300):
            horizon = int(rng.choice([6, 24, 48]))
            sessions, _, config = random_instance(rng, 6, horizon,
                                                  lam=float(rng.choice([0.5, 2.0, 8.0])))
            lp = build_lp(sessions, rng.choice([0.0, 0.1, 0.2], size=horizon), config)
            x, ref = scheduler._screen(lp), three_key_screen(lp)
            if ref is None:
                assert x is None
                declined += 1
            else:
                assert x.tobytes() == ref.tobytes()
                answered += 1
        assert answered >= 100 and declined >= 20

    @pytest.mark.parametrize("cap", [7.0, 5.0])
    def test_finiteness_checked_once(self, monkeypatch, cap):
        calls = []
        check = scheduler._require_finite
        monkeypatch.setattr(scheduler, "_require_finite",
                            lambda lp: calls.append(lp) or check(lp))
        solve(build_lp(SCREEN_SESSIONS, SCREEN_PRICE, _config(cap=cap)))
        assert len(calls) == 1


JUDGE_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])
seeds = st.integers(0, 2 ** 32 - 1)


def _judged_instance(seed):
    rng = np.random.default_rng(seed)
    return random_instance(rng, 6, int(rng.choice([6, 24, 48])))


@pytest.fixture(params=["screen", "highs"])
def solver_path(request, monkeypatch):
    """Run a test as it is, then with every LP solved by HiGHS."""
    if request.param == "highs":
        monkeypatch.setattr(scheduler, "_screen", lambda lp: None)


@pytest.mark.usefixtures("solver_path")
class TestSolverFreeJudges:
    """Two facts of every optimum, judged without a solver of their own.

    Dominance: ES, EDF, perfect-forecast `run_online`, the `tou` schedule
    and `cheapest_first_then_capped` never pass a target or the cap, so
    each is feasible for the carbon LP and its objective is at least the
    optimum. Monotone
    trade-off: adding the optimality inequalities at lam1 < lam2 gives
    (lam2 - lam1)(D2 - D1) >= 0 and E2 - E1 >= lam1 (D2 - D1) >= 0, with D
    the delivered SoC and E the emissions. `objective_slack` bounds how far
    each computed objective may miss its optimum, and enters each bound
    as those inequalities carry it."""

    @JUDGE_SETTINGS
    @given(seeds)
    def test_carbon_lp_dominates_every_other_policy(self, seed):
        sessions, carbon, config = _judged_instance(seed)
        T = len(carbon)
        best = carbon_schedule(sessions, carbon, config)
        tariff = np.where(np.arange(T) < 2 * T // 3, 0.25, 0.55)
        others = {
            "es": equal_sharing(sessions, config, carbon),
            "edf": edf_schedule(sessions, config, carbon),
            "online": run_online(sessions, PerfectForecaster(carbon), carbon, config, T),
            "tou": result_from_power(sessions, solve(build_lp(sessions, tariff, config)),
                                     config, carbon),
            "cheapest first": cheapest_first_then_capped(sessions, carbon, config),
        }
        slack = objective_slack(build_lp(sessions, carbon, config), config.lam)
        for name, other in others.items():
            assert best.objective <= other.objective + slack, name

    @JUDGE_SETTINGS
    @given(seeds)
    def test_delivery_and_emissions_never_fall_as_lambda_rises(self, seed):
        sessions, carbon, config = _judged_instance(seed)
        runs = []
        for lam in (0.0, 0.1, 0.3, 1.0, 3.0):
            cfg = replace(config, lam=lam)
            res = carbon_schedule(sessions, carbon, cfg)
            runs.append((lam, res.emissions_kg, float(np.sum(res.soc[:, -1] - res.soc[:, 0])),
                         objective_slack(build_lp(sessions, carbon, cfg), lam)))
        for (lam1, e1, d1, s1), (lam2, e2, d2, s2) in zip(runs, runs[1:]):
            d_tol = (s1 + s2) / (lam2 - lam1)
            assert d2 >= d1 - d_tol
            assert e2 >= e1 - lam1 * d_tol - s1


_SCREEN = scheduler._screen    # as it is, whichever path a test forces


def _flow_instances():
    """`random_instance` LPs as drawn, where the station cap seldom binds,
    then with caps of 2-12 kW, where it often does."""
    rng = np.random.default_rng(31)
    for _ in range(150):
        yield random_instance(rng, 6, int(rng.choice([6, 24, 48])))
    for _ in range(150):
        yield random_instance(rng, 6, int(rng.choice([6, 24, 48])),
                              power_cap=float(rng.uniform(2.0, 12.0)))


@pytest.mark.usefixtures("solver_path")
class TestFlowOracle:
    """`oracles.flow_optimum` solves the LP as a min-cost flow with
    networkx, from the definitions alone, and brackets its optimum OPT.
    The LP value of the library's solution, lp.c . x plus lam times the
    summed requests, judges `build_lp` and `solve`; the schedule's
    objective judges `carbon_schedule` as a whole. Each lies within
    `objective_slack` of OPT."""

    def test_optimum_equals_the_min_cost_flow(self):
        binding = 0
        for sessions, price, config in _flow_instances():
            lp = build_lp(sessions, price, config)
            binding += _SCREEN(lp) is None
            x = solve(lp)[lp.owner, lp.slot]
            requested = sum(s.soc_target - s.soc_arrival for s in sessions)
            opt, tol = flow_optimum(sessions, price, config)
            slack = objective_slack(lp, config.lam)
            for value in (float(lp.c @ x) + config.lam * requested,
                          carbon_schedule(sessions, price, config).objective):
                assert opt - tol - slack <= value <= opt + slack
        assert binding >= 20    # the cap binds on 26 of them


def test_optimum_equals_the_min_cost_flow_on_an_offline_day():
    # one block of the offline month's size: 60 sessions over 288 slots of
    # 5 minutes, with the 120 kW cap binding, so HiGHS solves it
    grid = make_grid(1)
    price = duck_curve(grid).values
    sessions = flexible_sessions(grid, 60, seed=20, capacity_kwh=50.0)
    config = StationConfig(120.0, grid.slot_hours, 15.0, grid.n_slots)
    lp = build_lp(sessions, price, config)
    assert scheduler._screen(lp) is None
    x = solve(lp)[lp.owner, lp.slot]
    result = carbon_schedule(sessions, price, config)
    requested = sum(s.soc_target - s.soc_arrival for s in sessions)
    opt, tol = flow_optimum(sessions, price, config)
    slack = objective_slack(lp, config.lam)
    for value in (float(lp.c @ x) + config.lam * requested, result.objective):
        assert opt - tol - slack <= value <= opt + slack
    assert max_constraint_violation(result, sessions, config) <= 1e-8


def infeasible(lp):
    """`lp` with session 0's SoC cap row set to g * sum(u) <= -0.1, which
    no u >= 0 satisfies."""
    b_ub = lp.b_ub.copy()
    b_ub[0] = -0.1
    return replace(lp, b_ub=b_ub)


class TestSolveLp:
    """The HiGHS call, `_run_highs`, against `linprog`, and the errors
    `solve` raises before and after it."""

    def test_bitwise_equal_to_linprog_on_criterion_2_instances(self):
        for sessions, price, config in criterion_2_instances():
            lp = build_lp(sessions, price, config)
            x, objective, nit = scheduler._run_highs(lp)
            ref_x, ref_objective, ref_nit = linprog_solve(lp)
            assert np.array_equal(x, ref_x)
            assert objective == ref_objective
            assert nit == ref_nit

    def test_nan_price_rejected_before_highs(self):
        price = np.full(6, 0.2)
        price[3] = np.nan
        lp = build_lp([make_session(t_depart=6)], price, _config())
        with pytest.raises(errors.NonFiniteValue):
            solve(lp)

    @pytest.mark.parametrize("field,value", [
        ("c", np.inf), ("b_ub", np.nan), ("b_ub", np.inf), ("upper", np.nan)])
    def test_non_finite_lp_rejected(self, field, value):
        lp = build_lp([make_session(t_depart=6)], np.full(6, 0.2), _config())
        bad = getattr(lp, field).copy()
        bad[0] = value
        with pytest.raises(errors.NonFiniteValue):
            solve(replace(lp, **{field: bad}))

    def test_infeasible_raises_numerical_failure(self):
        lp = build_lp([make_session(t_depart=6)], np.full(6, 0.2), _config())
        with pytest.raises(errors.NumericalFailure, match="Infeasible"):
            solve(infeasible(lp))


class TestResultFromPower:
    def test_bitwise_equal_to_per_session_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            sessions, price, config = random_instance(rng, 10, 288)
            power = rng.uniform(0.0, 10.0, size=(len(sessions), 288))
            power[rng.random(power.shape) < 0.5] = 0.0
            res = result_from_power(sessions, power, config, price)
            soc, gaps = loop_soc_and_gaps(sessions, power)
            assert np.array_equal(res.soc, soc)
            assert res.objective == res.emissions_kg + config.lam * float(gaps.sum())


class TestTouSchedule:
    def test_constant_price_matches_constant_carbon(self):
        sessions = [make_session("a", 0, 6, capacity_kwh=5.0, delta=1.0),
                    make_session("b", 2, 6, capacity_kwh=5.0, delta=1.0)]
        config = _config(lam=10.0)
        tariff = np.full(6, 0.3)
        by_tou = result_from_power(sessions, solve(build_lp(sessions, tariff, config)),
                                   config, tariff)
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
        res = carbon_schedule([s], price, config)
        assert terminal_gaps(res, [s])[0] <= 1e-7
        assert np.all(res.power[0, 16 * 12:] <= 1e-8)


class TestMaxConstraintViolation:
    def test_power_past_departure_fails(self):
        # the schedule's length is read off its power matrix, not the config
        s = make_session(t_arrival=1, t_depart=4, capacity_kwh=20.0, delta=1.0)
        price = np.full(6, 0.2)
        power = np.zeros((1, 6))
        power[0, 1:4] = 1.0
        config = _config(T=1)
        inside = result_from_power([s], power, config, price)
        assert max_constraint_violation(inside, [s], config) <= 1e-12
        power[0, 4] = 1.0
        late = result_from_power([s], power, config, price)
        assert max_constraint_violation(late, [s], config) == 1.0


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

