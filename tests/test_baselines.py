import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbonsched.baselines import (_water_fill, earliest_deadline_first,
                                   equal_sharing)
from carbonsched.errors import SessionOutsideHorizon
from carbonsched.scheduler import PENDING_EPS, StationConfig, max_constraint_violation

from conftest import edf_schedule, make_session
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
        np.testing.assert_allclose(edf, es.power)

    def test_strict_priority(self):
        sessions = [
            make_session("late", 0, 12 * 12, 0.2, 0.9, capacity_kwh=50.0),
            make_session("early", 0, 10 * 12, 0.2, 0.9, capacity_kwh=50.0),
        ]
        power = earliest_deadline_first(sessions, _config(cap=7.5), np.zeros(288))
        # earlier deadline takes the entire budget while it still needs energy
        assert power[1, 0] == pytest.approx(7.5)
        assert power[0, 0] == pytest.approx(0.0)

    def test_deterministic_tiebreak_by_id(self):
        sessions = [make_session(sid, 0, 48, 0.2, 0.9, capacity_kwh=50.0)
                    for sid in ("b", "a")]
        power = earliest_deadline_first(sessions, _config(cap=7.5), np.zeros(288))
        assert power[1, 0] == pytest.approx(7.5)  # "a" wins the tie


class TestSharedProperties:
    @pytest.mark.parametrize("policy", [equal_sharing, edf_schedule],
                             ids=["equal_sharing", "earliest_deadline_first"])
    def test_constraints_hold_exactly(self, policy):
        rng = np.random.default_rng(99)
        for _ in range(50):
            sessions, _, config = random_instance(rng, 8, 96)
            res = policy(sessions, config, np.zeros(config.horizon_slots))
            assert max_constraint_violation(res, sessions, config) <= 1e-9

    @pytest.mark.parametrize("policy", [equal_sharing, edf_schedule],
                             ids=["equal_sharing", "earliest_deadline_first"])
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
        for policy in (equal_sharing, edf_schedule):
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
        edf = edf_schedule(sessions, config, carbon)
        assert es.delivered_kwh(sessions) \
            == pytest.approx(edf.delivered_kwh(sessions), rel=1e-12)
        assert es.emissions_kg == pytest.approx(edf.emissions_kg, rel=1e-12)


@pytest.mark.parametrize("policy,reference", [
    (equal_sharing, loop_equal_sharing),
    pytest.param(edf_schedule, loop_earliest_deadline_first,
                 id="earliest_deadline_first-loop_earliest_deadline_first"),
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
        assert got.power.tobytes() == want.power.tobytes(), k
        assert got.soc.tobytes() == want.soc.tobytes(), k
        assert got.objective == want.objective, k


@st.composite
def edf_instances(draw):
    """A few sessions on a short horizon, listed in no particular order:
    windows from before slot 0 to past the end, some with no slot in the
    horizon, from a small set of slots so that (t_depart, t_arrival)
    pairs tie; ids a permutation of the indices, so the id order is not
    the list order; small batteries, some within PENDING_EPS of their
    target; and a station cap from far below one session's limit to
    above all of them."""
    T = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(n)))
    sessions = []
    for i in range(n):
        arrival = draw(st.integers(-2, T + 1))
        target = draw(st.floats(0.3, 0.9))
        gap = draw(st.one_of(st.sampled_from([0.0, PENDING_EPS / 2, 2 * PENDING_EPS]),
                             st.floats(0.0, 0.3)))
        sessions.append(make_session(
            f"s{ids[i]}", arrival, draw(st.integers(arrival + 1, T + 3)),
            soc_arrival=target - gap, soc_target=target,
            capacity_kwh=draw(st.floats(0.5, 20.0)),
            power_max_kw=draw(st.floats(0.5, 8.0))))
    return sessions, draw(st.floats(0.05, 50.0)), T


def _slot_loop_examples(test):
    """The explicit examples of the slot-loop properties below."""
    for instance in (
        # out of arrival order, with "a" and "b" tied on (t_depart, t_arrival)
        # under a cap below their summed limits, and one window before slot 0
        ([make_session("c", 2, 6, 0.2, 0.9, capacity_kwh=2.0, power_max_kw=3.0),
          make_session("b", 0, 5, 0.2, 0.9, capacity_kwh=2.0, power_max_kw=3.0),
          make_session("a", 0, 5, 0.2, 0.9, capacity_kwh=2.0, power_max_kw=3.0),
          make_session("z", -3, 9, 0.1, 0.5, capacity_kwh=4.0, power_max_kw=2.5)],
         4.0, 6),
        # one session 5e-10 below its target, which the loops count as finished
        ([make_session("near", 0, 3, 0.6 - PENDING_EPS / 2, 0.6),
          make_session("far", 0, 3, 0.2, 0.6)], 10.0, 3),
        # "late" and then "later" have no slot in the horizon: "late" is named
        ([make_session("in", 0, 3, 0.2, 0.6),
          make_session("late", 4, 6, 0.2, 0.6),
          make_session("later", 5, 6, 0.2, 0.6)], 10.0, 4),
    ):
        test = example(instance)(test)
    return test


def _assert_bytewise_or_refused(policy, reference, instance):
    """`policy` writes the bytes of `reference`, or, when some session has
    no slot in the horizon, refuses the first such one in index order."""
    sessions, cap, T = instance
    config, carbon = _config(T=T, cap=cap), np.linspace(0.1, 0.4, T)
    outside = [s.id for s in sessions if max(s.t_arrival, 0) >= min(s.t_depart, T)]
    if outside:
        with pytest.raises(SessionOutsideHorizon) as info:
            policy(sessions, config, carbon)
        assert info.value.session_id == outside[0]
        return
    got = policy(sessions, config, carbon)
    want = reference(sessions, config, carbon)
    assert got.power.tobytes() == want.power.tobytes()
    assert got.soc.tobytes() == want.soc.tobytes()


@settings(max_examples=400, deadline=None)
@given(edf_instances())
@_slot_loop_examples
def test_edf_is_bytewise_the_slot_loop_reference(instance):
    _assert_bytewise_or_refused(edf_schedule, loop_earliest_deadline_first, instance)


@settings(max_examples=400, deadline=None)
@given(edf_instances())
@_slot_loop_examples
def test_equal_sharing_is_bytewise_the_slot_loop_reference(instance):
    _assert_bytewise_or_refused(equal_sharing, loop_equal_sharing, instance)
