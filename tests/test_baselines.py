import numpy as np
import pytest

from carbonsched.baselines import (_water_fill, earliest_deadline_first,
                                   equal_sharing)
from carbonsched.scheduler import StationConfig, max_constraint_violation

from conftest import make_session
from oracles import (loop_earliest_deadline_first, loop_equal_sharing,
                     random_instance)


def _config(T=288, cap=180.0, lam=0.3):
    return StationConfig(power_cap_kw=cap, slot_hours=5 / 60, lam=lam,
                         horizon_slots=T)


class TestEqualSharing:
    def test_symmetric_split(self):
        sessions = [make_session(f"s{i}", 0, 288, 0.2, 0.9, capacity_kwh=50.0)
                    for i in range(2)]
        res = equal_sharing(sessions, _config(cap=10.0), np.zeros(288))
        np.testing.assert_allclose(res.power[:, 0], 5.0)

    def test_per_ev_cap_binds(self):
        sessions = [make_session(f"s{i}", 0, 288, 0.2, 0.9, capacity_kwh=50.0)
                    for i in range(3)]
        res = equal_sharing(sessions, _config(cap=180.0), np.zeros(288))
        np.testing.assert_allclose(res.power[:, 0], 7.5)

    def test_water_fill_redistribution(self):
        sessions = [
            make_session("a", 0, 288, 0.2, 0.9, capacity_kwh=50.0,
                         power_max_kw=3.0),
            make_session("b", 0, 288, 0.2, 0.9, capacity_kwh=50.0,
                         power_max_kw=7.5),
        ]
        res = equal_sharing(sessions, _config(cap=10.0), np.zeros(288))
        assert res.power[0, 0] == pytest.approx(3.0)
        assert res.power[1, 0] == pytest.approx(7.0)

    def test_water_fill_fixpoint_direct(self):
        assert _water_fill(10.0, [3.0, 7.5]) == pytest.approx([3.0, 7.0])
        assert _water_fill(10.0, [2.0, 2.0, 2.0]) == pytest.approx([2.0] * 3)
        assert _water_fill(6.0, [5.0, 5.0, 5.0]) == pytest.approx([2.0] * 3)


class TestEarliestDeadlineFirst:
    def test_single_ev_matches_equal_sharing(self):
        s = make_session("a", 10, 60, 0.2, 0.8, capacity_kwh=5.0)
        config = _config()
        edf = earliest_deadline_first([s], config, np.zeros(288))
        es = equal_sharing([s], config, np.zeros(288))
        np.testing.assert_allclose(edf.power, es.power)

    def test_strict_priority(self):
        sessions = [
            make_session("late", 0, 12 * 12, 0.2, 0.9, capacity_kwh=50.0),
            make_session("early", 0, 10 * 12, 0.2, 0.9, capacity_kwh=50.0),
        ]
        res = earliest_deadline_first(sessions, _config(cap=7.5), np.zeros(288))
        # earlier deadline takes the entire budget while it still needs energy
        assert res.power[1, 0] == pytest.approx(7.5)
        assert res.power[0, 0] == pytest.approx(0.0)

    def test_deterministic_tiebreak_by_id(self):
        sessions = [make_session(sid, 0, 48, 0.2, 0.9, capacity_kwh=50.0)
                    for sid in ("b", "a")]
        res = earliest_deadline_first(sessions, _config(cap=7.5), np.zeros(288))
        assert res.power[1, 0] == pytest.approx(7.5)  # "a" wins the tie


class TestSharedProperties:
    @pytest.mark.parametrize("policy", [equal_sharing, earliest_deadline_first])
    def test_constraints_hold_exactly(self, policy):
        rng = np.random.default_rng(99)
        for _ in range(50):
            sessions, _, config = random_instance(rng, 8, 96)
            res = policy(sessions, config, np.zeros(config.horizon_slots))
            assert max_constraint_violation(res, sessions, config) <= 1e-9

    @pytest.mark.parametrize("policy", [equal_sharing, earliest_deadline_first])
    def test_no_target_overshoot(self, policy):
        rng = np.random.default_rng(5)
        for _ in range(30):
            sessions, _, config = random_instance(rng, 6, 96)
            res = policy(sessions, config, np.zeros(config.horizon_slots))
            for i, s in enumerate(sessions):
                assert res.soc[i, -1] <= s.soc_target + 1e-9

    def test_work_conservation(self):
        sessions = [
            make_session("a", 0, 48, 0.2, 0.9, capacity_kwh=50.0),
            make_session("b", 0, 48, 0.1, 0.8, capacity_kwh=50.0,
                         power_max_kw=4.0),
        ]
        config = _config(T=48, cap=9.0)
        for policy in (equal_sharing, earliest_deadline_first):
            res = policy(sessions, config, np.zeros(config.horizon_slots))
            for t in range(48):
                demands = []
                for i, s in enumerate(sessions):
                    need = max(s.soc_target - res.soc[i, t], 0.0)
                    demands.append(min(s.power_max_kw,
                                       need * s.capacity_kwh / s.delta))
                if max(demands) > 1e-9:
                    expected = min(config.power_cap_kw, sum(demands))
                    assert res.station_power[t] == pytest.approx(expected,
                                                                 abs=1e-9)

    def test_equal_totals_when_cap_slack(self):
        # 24 EVs, station cap far above the sum of per-EV limits
        rng = np.random.default_rng(17)
        sessions = []
        for i in range(24):
            a = int(rng.integers(0, 200))
            d = int(rng.integers(a + 10, 288))
            arr = float(rng.uniform(0.1, 0.5))
            sessions.append(make_session(f"s{i}", a, d, arr,
                                         arr + float(rng.uniform(0.1, 0.4)),
                                         capacity_kwh=50.0))
        config = _config(cap=24 * 7.5 + 1.0)
        carbon = rng.uniform(0.1, 0.4, size=288)
        es = equal_sharing(sessions, config, carbon)
        edf = earliest_deadline_first(sessions, config, carbon)
        assert es.delivered_kwh(sessions) \
            == pytest.approx(edf.delivered_kwh(sessions), rel=1e-12)
        assert es.emissions_kg == pytest.approx(edf.emissions_kg, rel=1e-12)


@pytest.mark.parametrize("policy,reference", [
    (equal_sharing, loop_equal_sharing),
    (earliest_deadline_first, loop_earliest_deadline_first),
])
def test_bitwise_equal_to_slot_loop_reference(policy, reference):
    # 600 random instances; a third have a station cap below every EV's
    # limit. Then one session that arrives 5e-10 below its target, inside
    # the band where the slot loop counts a session as finished.
    rng = np.random.default_rng(2024)
    instances = [random_instance(rng, 10, 48, power_cap=(
        float(rng.uniform(0.2, 2.0)), float(rng.uniform(2.0, 12.0)), None)[k % 3])
        for k in range(600)]
    near = make_session("near", 0, 12, soc_arrival=0.6 - 5e-10, soc_target=0.6)
    instances.append(([near], np.full(12, 0.2), _config(T=12, cap=10.0)))
    for k, (sessions, price, config) in enumerate(instances):
        got = policy(sessions, config, price)
        want = reference(sessions, config, price)
        assert np.array_equal(got.power, want.power), k
        assert np.array_equal(got.soc, want.soc), k
        assert got.objective == want.objective, k
