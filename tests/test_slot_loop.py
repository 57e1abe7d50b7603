"""Edge cases of the slot loops, equal sharing, EDF and the online
controller, each a walk of `scheduler.active_sets`, byte for byte against
the self-contained loop references in oracles.py, so a -0.0 where the
reference has 0.0 fails too.

Every case lists its sessions out of arrival order, so a loop that kept
its active set in arrival order, not index order or deadline order,
would split the station cap in another order and round differently. The online controller is
checked under a forecast that changes at every call, so it re-solves at
every pending slot, exactly as the always-re-solve reference does.
"""

from dataclasses import fields

import numpy as np
import pytest

from carbonsched.baselines import earliest_deadline_first, equal_sharing
from carbonsched.errors import SessionOutsideHorizon
from carbonsched.ingest import ChargingSession
from carbonsched.online import PerfectForecaster, run_online
from carbonsched.scheduler import StationConfig, carbon_schedule

from conftest import edf_schedule, make_session
from oracles import (always_resolve_online, loop_earliest_deadline_first,
                     loop_equal_sharing)
from test_online import DriftingForecaster

T = 12


def _s(sid, arrival, depart, power, target=0.9, soc=0.2):
    return make_session(sid, arrival, depart, soc, target, capacity_kwh=5.0,
                        power_max_kw=power)


CASES = {
    "several-arrivals-in-one-slot": [
        _s("a", 3, 9, 0.7), _s("b", 3, 11, 2.9), _s("c", 1, 6, 0.35),
        _s("d", 3, 7, 5.1, target=0.25), _s("e", 3, 12, 1.9)],
    "departure-and-arrival-in-one-slot": [
        _s("late", 5, 10, 1.05), _s("mid", 2, 8, 0.65), _s("early", 0, 5, 0.35),
        _s("next", 5, 6, 2.2, target=0.3), _s("first", 0, 5, 0.9)],
    "one-slot-windows": [
        _s("x", 7, 8, 1.7), _s("y", 4, 5, 0.3), _s("z", 4, 5, 7.5, target=0.22),
        _s("w", 0, 12, 0.9), _s("v", 4, 5, 1.05)],
    "windows-at-0-and-T": [
        _s("to-T", 6, T, 1.9), _s("whole", 0, T, 0.65), _s("past-T", 9, T + 5, 2.6),
        _s("from-0", 0, 4, 1.45, target=0.3), _s("before-0", -3, 2, 0.8)],
    "reverse-arrival-order": [
        _s(f"r{i}", 10 - i, 10 - i + 1 + i % 4, 0.3 + 0.37 * i,
           target=0.2 + 0.05 * (i % 5)) for i in range(10)],
}


def _config(cap, horizon=T):
    return StationConfig(power_cap_kw=cap, slot_hours=5 / 60, lam=2.0,
                         horizon_slots=horizon)


def _carbon():
    return np.random.default_rng(7).uniform(0.1, 0.4, size=T)


def _assert_bitwise(got, want):
    assert got.power.tobytes() == want.power.tobytes()
    assert got.soc.tobytes() == want.soc.tobytes()
    assert got.objective == want.objective


@pytest.mark.parametrize("cap", [1.1, 3.7, 50.0])
@pytest.mark.parametrize("policy,reference", [
    (equal_sharing, loop_equal_sharing),
    (edf_schedule, loop_earliest_deadline_first),
], ids=["es", "edf"])
@pytest.mark.parametrize("case", CASES)
def test_baseline_matches_loop_reference(case, policy, reference, cap):
    sessions, config, carbon = CASES[case], _config(cap), _carbon()
    got = policy(sessions, config, carbon)
    assert got.power.any()
    _assert_bitwise(got, reference(sessions, config, carbon))


@pytest.mark.parametrize("cap", [1.1, 3.7])
@pytest.mark.parametrize("case", CASES)
def test_online_matches_always_resolve(case, cap):
    # a lookahead shorter than the run, so some windows are cut
    sessions, carbon = CASES[case], _carbon()
    config = _config(cap, horizon=5)
    got = run_online(sessions, DriftingForecaster(carbon), carbon, config, T)
    assert got.power.any()
    want, _ = always_resolve_online(sessions, DriftingForecaster(carbon), carbon,
                                    config, T)
    _assert_bitwise(got, want)


@pytest.mark.parametrize("schedule", [
    equal_sharing,
    earliest_deadline_first,
    lambda sessions, config, carbon: run_online(
        sessions, PerfectForecaster(carbon), carbon, config, T),
    lambda sessions, config, carbon: carbon_schedule(sessions, carbon, config),
], ids=["es", "edf", "online", "offline"])
def test_session_outside_the_horizon_is_refused(schedule):
    # Every policy refuses a session with no slot in its horizon, rather
    # than returning it unserved, and names the first such session in index
    # order, also when the deadline order puts another one first.
    for sessions, named in (
            ([_s("in", 2, 8, 1.0), _s("out", T + 2, T + 8, 1.0)], "out"),
            ([_s("in", 2, 8, 1.0), _s("out-late", T + 2, T + 9, 1.0),
              _s("out-early", T + 1, T + 3, 1.0)], "out-late")):
        with pytest.raises(SessionOutsideHorizon) as info:
            schedule(sessions, _config(3.7), _carbon())
        assert info.value.session_id == named


_FIELDS = frozenset(f.name for f in fields(ChargingSession))


class _CountedSession(ChargingSession):
    """A session that counts, on its class, every read of one of its fields."""

    reads = 0

    def __getattribute__(self, name):
        if name in _FIELDS:
            _CountedSession.reads += 1
        return super().__getattribute__(name)


@pytest.mark.parametrize("schedule", [
    equal_sharing,
    earliest_deadline_first,
    lambda sessions, config, carbon: run_online(
        sessions, PerfectForecaster(carbon), carbon, config, len(carbon)),
    lambda sessions, config, carbon: carbon_schedule(sessions, carbon, config),
], ids=["es", "edf", "online", "offline"])
def test_session_fields_are_read_the_same_number_of_times_at_any_horizon(schedule):
    # Each policy reads the sessions into a table once, so a walk over four
    # times the slots reads no field more often. The sessions stay pending
    # and present to the horizon's end, so a read per slot would show.
    config = StationConfig(power_cap_kw=3.0, slot_hours=5 / 60, lam=100.0,
                           horizon_slots=12)
    reads = []
    for horizon in (24, 96):
        sessions = [_CountedSession(f"c{i}", 3 - i, 1000, 0.2, 0.7, capacity_kwh=100.0,
                                    power_max_kw=1.0) for i in range(4)]
        carbon = np.linspace(0.4, 0.2, horizon)
        _CountedSession.reads = 0
        schedule(sessions, config, carbon)
        reads.append(_CountedSession.reads)
    assert reads[0] == reads[1], reads
