"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single summary line
(visible with `pytest -s`); the pass/fail verdict is the test outcome
itself. Tolerances are stated inline next to each assertion.
"""

import json
import time

import numpy as np

from carbonsched.baselines import equal_sharing
from carbonsched.carbon import compute_intensity
from carbonsched.cli import main as cli_main
from carbonsched.forecast import build_features, fit
from carbonsched.ingest import GridMixSeries
from carbonsched.metrics import make_report
from carbonsched.online import PerfectForecaster, run_online
from carbonsched.scheduler import (StationConfig, carbon_schedule,
                                   max_constraint_violation)

from conftest import duck_curve, edf_schedule, flexible_sessions, make_grid, make_session
from oracles import (brute_force_objective, random_instance, resolution_bound,
                     terminal_gaps)
from test_forecast import PLANTED, _load_series, planted_series


def _ok(n, msg):
    print(f"[PASS] criterion {n}: {msg}")


def _config(T=288, cap=180.0, lam=0.4):
    return StationConfig(power_cap_kw=cap, slot_hours=5 / 60, lam=lam,
                         horizon_slots=T)


def test_criterion_1_solver_matches_enumeration_oracle():
    """Solver objective bracketed by half-power enumeration on 50 tiny
    instances (<= 2 EVs x 6 slots) in under 10 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(50):
        sessions, price, config = random_instance(rng, 2, 6)
        res = carbon_schedule(sessions, price, config)
        enum = brute_force_objective(sessions, price, config)
        assert res.objective <= enum + 1e-7
        assert res.objective >= enum - resolution_bound(sessions, config) - 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(1, f"50 instances bracketed by enumeration in {elapsed:.2f}s")


def test_criterion_1_on_the_highs_path(highs_only):
    """Criterion 1 with every LP solved by HiGHS: the station cap of most
    of its instances cannot bind, so the screen answers them otherwise."""
    test_criterion_1_solver_matches_enumeration_oracle()


def criterion_2_instances():
    """Criterion 2's 1,000 random instances, then its 60 EV x 288 slot one,
    as (sessions, price, config)."""
    rng = np.random.default_rng(202)
    for _ in range(1000):
        horizon = int(rng.choice([24, 48, 96]))
        yield random_instance(rng, 10, horizon)

    sessions = []
    for i in range(60):
        a = int(rng.integers(0, 200))
        d = int(rng.integers(a + 12, 289))
        arr = float(rng.uniform(0.1, 0.5))
        sessions.append(make_session(f"big-{i}", a, d, arr,
                                     arr + float(rng.uniform(0.1, 0.4)),
                                     capacity_kwh=50.0))
    price = rng.uniform(0.05, 0.4, size=288)
    yield sessions, price, _config(lam=0.3)


def test_criterion_2_constraint_satisfaction_and_scale():
    """1,000 random schedules feasible within 1e-8; one full-size
    60 EV x 288 slot instance solves in under 10 s."""
    *small, (sessions, price, config) = criterion_2_instances()
    worst = 0.0
    for s, p, c in small:
        res = carbon_schedule(s, p, c)
        worst = max(worst, max_constraint_violation(res, s, c))
    assert worst <= 1e-8

    t0 = time.perf_counter()
    res = carbon_schedule(sessions, price, config)
    elapsed = time.perf_counter() - t0
    assert max_constraint_violation(res, sessions, config) <= 1e-8
    assert elapsed < 10.0
    _ok(2, f"worst violation {worst:.2e}; 60x288 solved in {elapsed:.2f}s")


def test_criterion_2_on_the_highs_path(highs_only):
    """Criterion 2 with every LP solved by HiGHS."""
    test_criterion_2_constraint_satisfaction_and_scale()


def test_criterion_3_lambda_tradeoff_monotone():
    """On a fixed 20-day workload, emissions never decrease and the
    terminal shortfall never increases as lambda grows."""
    lams = [round(0.05 * k, 2) for k in range(1, 11)]
    day = make_grid(1)
    carbon = duck_curve(day).values
    workload = [flexible_sessions(day, 3, seed=300 + d) for d in range(20)]

    totals = []
    for lam in lams:
        config = _config(lam=lam)
        em, gap = 0.0, 0.0
        for sessions in workload:
            res = carbon_schedule(sessions, carbon, config)
            em += res.emissions_kg
            gap += float(terminal_gaps(res, sessions).sum())
        totals.append((em, gap))
    for (em_a, gap_a), (em_b, gap_b) in zip(totals, totals[1:]):
        assert em_b >= em_a - 1e-9
        assert gap_b <= gap_a + 1e-9
    _ok(3, f"emissions {totals[0][0]:.3f}->{totals[-1][0]:.3f} kg rising, "
           f"shortfall {totals[0][1]:.3f}->{totals[-1][1]:.3f} falling "
           f"over lambda {lams[0]}..{lams[-1]}")


def test_criterion_4_energy_neutral_savings():
    """With a duck-shaped intensity (midday at least 0.12 kg/kWh below
    night) and morning arrivals, the optimizer at lambda=0.4 matches the
    deadline baseline's delivery within 0.1 percentage points while
    cutting emissions by at least 2%."""
    grid = make_grid(3)
    ci = duck_curve(grid, width_hours=4.5)
    assert ci.values.max() - ci.values.min() >= 0.12

    config = _config(T=grid.n_slots, lam=0.4)
    sessions = flexible_sessions(grid, 36, seed=404)
    lp = carbon_schedule(sessions, ci.values, config)
    edf = edf_schedule(sessions, config, ci.values)

    edq_lp = make_report("lp", {0: (sessions, lp.soc[:, -1],
                                    lp.emissions_kg)})["edq_station"]
    edq_edf = make_report("edf", {0: (sessions, edf.soc[:, -1],
                                      edf.emissions_kg)})["edq_station"]
    assert abs(edq_lp - edq_edf) <= 0.001
    assert lp.emissions_kg < edf.emissions_kg
    reduction = 100.0 * (edf.emissions_kg - lp.emissions_kg) / edf.emissions_kg
    assert reduction >= 2.0
    _ok(4, f"EDQ {edq_lp:.4f} vs {edq_edf:.4f}, "
           f"emissions cut {reduction:.1f}%")


def test_criterion_5_online_tracks_offline_with_perfect_forecast():
    """Rolling-horizon control with a perfect forecast stays within 2%
    of offline emissions and 0.5 pp of offline delivery over 10 days,
    in under 5 minutes."""
    day = make_grid(1)
    carbon = duck_curve(day).values
    config = _config(lam=0.4)
    forecaster = PerfectForecaster(carbon)

    t0 = time.perf_counter()
    em_off = em_on = 0.0
    deliv_off = deliv_on = requested = 0.0
    for d in range(10):
        sessions = flexible_sessions(day, 5, seed=500 + d)
        off = carbon_schedule(sessions, carbon, config)
        on = run_online(sessions, forecaster, carbon, config, 288)
        em_off += off.emissions_kg
        em_on += on.emissions_kg
        for i, s in enumerate(sessions):
            deliv_off += abs(off.soc[i, -1] - s.soc_arrival)
            deliv_on += abs(on.soc[i, -1] - s.soc_arrival)
            requested += abs(s.soc_target - s.soc_arrival)
    elapsed = time.perf_counter() - t0

    assert em_off > 0
    assert abs(em_on - em_off) <= 0.02 * em_off
    assert abs(deliv_on - deliv_off) / requested <= 0.005
    assert elapsed < 300.0
    _ok(5, f"emissions gap {100 * abs(em_on - em_off) / em_off:.3f}%, "
           f"EDQ gap {100 * abs(deliv_on - deliv_off) / requested:.3f} pp, "
           f"{elapsed:.1f}s")


def test_criterion_6_fair_share_equals_deadline_when_uncongested():
    """When the station cap never binds, equal sharing and the deadline
    baseline deliver identical energy and emissions (1e-9 relative)."""
    rng = np.random.default_rng(606)
    for _ in range(30):
        n = int(rng.integers(2, 25))
        sessions = []
        for i in range(n):
            a = int(rng.integers(0, 200))
            d = int(rng.integers(a + 10, 289))
            arr = float(rng.uniform(0.1, 0.5))
            sessions.append(make_session(f"u{i}", a, d, arr,
                                         arr + float(rng.uniform(0.1, 0.4)),
                                         capacity_kwh=50.0))
        config = _config(cap=n * 7.5 + 1.0)
        carbon = rng.uniform(0.1, 0.4, size=288)
        es = equal_sharing(sessions, config, carbon)
        edf = edf_schedule(sessions, config, carbon)
        assert abs(es.delivered_kwh(sessions) - edf.delivered_kwh(sessions)) \
            <= 1e-9 * max(es.delivered_kwh(sessions), 1.0)
        assert abs(es.emissions_kg - edf.emissions_kg) \
            <= 1e-9 * max(es.emissions_kg, 1.0)
    _ok(6, "30 uncongested instances: identical totals to 1e-9 relative")


def test_criterion_7_forecaster_soundness():
    """Regression recovers planted coefficients to 1e-8 on noiseless
    data, uses no future information, and holds MAE under 2 sigma."""
    grid = make_grid(60)
    load = _load_series(grid)
    clean = planted_series(grid, load)
    X, y = build_features(clean, load)
    model, _, mse = fit((X, y), seed=7)
    np.testing.assert_allclose(model.beta, PLANTED, atol=1e-8)
    assert mse <= 1e-10

    # feature rows for slot t are unchanged when everything after t is
    # deleted, so nothing trailing leaks into them
    from carbonsched.carbon import CarbonIntensitySeries
    from carbonsched.ingest import LoadForecastSeries
    cut = 5 * 288 + 11
    trunc_ts = clean.timestamps[:cut + 1]
    X_trunc, _ = build_features(
        CarbonIntensitySeries(trunc_ts, clean.values[:cut + 1]),
        LoadForecastSeries(trunc_ts, load.load_mw[:cut + 1]))
    np.testing.assert_array_equal(X_trunc[-1], X[cut - 288])

    sigma = 0.02
    noisy = planted_series(grid, load, sigma=sigma)
    _, mae, _ = fit(build_features(noisy, load), seed=8)
    assert mae <= 2 * sigma
    _ok(7, f"planted betas to 1e-8, no leakage, MAE {mae:.4f} <= {2 * sigma}")


def test_criterion_8_intensity_oracle_and_properties():
    """Weighted intensity matches a scalar per-slot recomputation to
    1e-12; 100 random mixes stay within the factor hull and are
    invariant to rescaling all generation."""
    rng = np.random.default_rng(808)
    grid = make_grid(1)
    sources = ("solar", "wind", "nuclear", "gas", "imports")
    factors = np.array([0.0, 0.0, 0.0, 0.42, 0.30])
    power = rng.uniform(10.0, 500.0, size=(288, 5))
    mix = GridMixSeries(tuple(grid.timestamps()), sources, power, factors)
    ci = compute_intensity(mix)
    for t in range(288):
        total = sum(power[t, i] for i in range(5))
        expected = sum(factors[i] * power[t, i] for i in range(5)) / total
        assert abs(ci.values[t] - expected) <= 1e-12

    ts4 = tuple(grid.timestamps())[:4]
    for _ in range(100):
        f = rng.uniform(0.0, 1.0, size=5)
        p = rng.uniform(0.0, 300.0, size=(4, 5)) + 1e-3
        c = compute_intensity(GridMixSeries(ts4, sources, p, f)).values
        assert np.all(c >= f.min() - 1e-12)
        assert np.all(c <= f.max() + 1e-12)
        alpha = float(rng.uniform(0.1, 10.0))
        scaled = GridMixSeries(ts4, sources, alpha * p, f)
        np.testing.assert_allclose(compute_intensity(scaled).values, c,
                                   rtol=1e-12, atol=1e-12)
    _ok(8, "per-slot oracle to 1e-12; hull and scale invariance on 100 mixes")


def test_criterion_9_simulation_is_deterministic(tmp_path):
    """Two simulate runs with the same seed produce byte-identical
    report JSON."""
    args = ("simulate", "--policy", "carbon-offline", "--lambda", "0.4",
            "--synth-days", "2", "--synth-sessions-per-day", "8",
            "--synth-capacity-kwh", "5", "--seed", "11")
    assert cli_main(list(args) + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli_main(list(args) + ["--out-dir", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a/report.json").read_bytes()
    b = (tmp_path / "b/report.json").read_bytes()
    assert a == b
    json.loads(a)  # and it is valid JSON
    _ok(9, f"byte-identical report.json ({len(a)} bytes)")
