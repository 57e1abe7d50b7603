import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonsched.metrics import make_report
from carbonsched.scheduler import StationConfig, result_from_power

from conftest import make_session


def edq_station(result, sessions):
    return make_report("p", {0: (sessions, result.soc[:, -1],
                                 result.emissions_kg)})["edq_station"]


def edq_session(result, sessions):
    return make_report("p", {0: (sessions, result.soc[:, -1],
                                 result.emissions_kg)})["edq_session"]


def _result(sessions, delivered_soc, T=12):
    """Build a result delivering the given SoC amounts in the first slots."""
    config = StationConfig(180.0, 1.0, 0.3, T)
    power = np.zeros((len(sessions), T))
    for i, (s, d) in enumerate(zip(sessions, delivered_soc)):
        power[i, s.t_arrival] = d * s.capacity_kwh / s.delta
    return result_from_power(sessions, power, config,
                             carbon=np.full(T, 0.25)), config


def _two_sessions():
    return [
        make_session("a", 0, 12, soc_arrival=0.3, soc_target=0.5,
                     capacity_kwh=10.0, delta=1.0, power_max_kw=100.0),
        make_session("b", 0, 12, soc_arrival=0.2, soc_target=0.6,
                     capacity_kwh=10.0, delta=1.0, power_max_kw=100.0),
    ]


class TestEdq:
    def test_fully_charged(self):
        sessions = _two_sessions()
        res, _ = _result(sessions, [0.2, 0.4])
        assert edq_station(res, sessions) == pytest.approx(1.0)
        assert edq_session(res, sessions) == pytest.approx(1.0)

    def test_no_charging(self):
        sessions = _two_sessions()
        res, _ = _result(sessions, [0.0, 0.0])
        assert edq_station(res, sessions) == pytest.approx(0.0)
        assert edq_session(res, sessions) == pytest.approx(0.0)

    def test_partial_delivery_metrics_diverge(self):
        # demands 0.2/0.4 SoC, delivered 0.2/0.2
        sessions = _two_sessions()
        res, _ = _result(sessions, [0.2, 0.2])
        assert edq_station(res, sessions) == pytest.approx(2.0 / 3.0)
        assert edq_session(res, sessions) == pytest.approx(0.75)

    def test_zero_demand_conventions(self):
        sessions = [make_session("a", 0, 12, soc_arrival=0.5, soc_target=0.5,
                                 capacity_kwh=10.0, delta=1.0)]
        res, _ = _result(sessions, [0.0])
        assert edq_session(res, sessions) == 1.0
        assert edq_station(res, sessions) == 1.0

    def test_single_session_identity(self):
        s = make_session("a", 0, 12, soc_arrival=0.2, soc_target=0.6,
                         capacity_kwh=10.0, delta=1.0, power_max_kw=100.0)
        res, _ = _result([s], [0.3])
        assert edq_station(res, [s]) == pytest.approx(edq_session(res, [s]))

    def test_station_equals_session_for_equal_demands(self):
        sessions = [
            make_session("a", 0, 12, soc_arrival=0.1, soc_target=0.4,
                         capacity_kwh=10.0, delta=1.0, power_max_kw=100.0),
            make_session("b", 0, 12, soc_arrival=0.5, soc_target=0.8,
                         capacity_kwh=20.0, delta=1.0, power_max_kw=100.0),
        ]
        res, _ = _result(sessions, [0.3, 0.15])
        assert edq_station(res, sessions) \
            == pytest.approx(edq_session(res, sessions))

    def test_energy_weighted_variant(self):
        sessions = [
            make_session("a", 0, 12, soc_arrival=0.0, soc_target=0.4,
                         capacity_kwh=10.0, delta=1.0, power_max_kw=100.0),
            make_session("b", 0, 12, soc_arrival=0.0, soc_target=0.4,
                         capacity_kwh=40.0, delta=1.0, power_max_kw=100.0),
        ]
        res, _ = _result(sessions, [0.4, 0.2])
        # SoC-weighted (0.4+0.2)/0.8, not energy-weighted (4+8)/20
        assert edq_station(res, sessions) == pytest.approx(0.75)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_order_invariance(self, rnd):
        sessions = _two_sessions() + [
            make_session("c", 0, 12, soc_arrival=0.1, soc_target=0.9,
                         capacity_kwh=5.0, delta=1.0, power_max_kw=100.0)]
        delivered = [0.1, 0.3, 0.5]
        res, _ = _result(sessions, delivered)
        st_val = edq_station(res, sessions)
        se_val = edq_session(res, sessions)
        order = list(range(3))
        rnd.shuffle(order)
        shuffled = [sessions[i] for i in order]
        res2, _ = _result(shuffled, [delivered[i] for i in order])
        assert edq_station(res2, shuffled) == pytest.approx(st_val)
        assert edq_session(res2, shuffled) == pytest.approx(se_val)


class TestMakeReport:
    def test_fields(self):
        sessions = _two_sessions()
        res, _ = _result(sessions, [0.2, 0.2])
        rep = make_report("test", {0: (sessions, res.soc[:, -1], res.emissions_kg)})
        assert rep["n_sessions"] == 2
        assert rep["edq_station"] == pytest.approx(2.0 / 3.0)
        assert rep["energy_delivered_kwh"] == pytest.approx(4.0)
        assert rep["total_emissions_kg"] == res.emissions_kg
        assert rep["policy"] == "test"
        assert rep["per_day"] == [{"day": 0, "n_sessions": 2,
                                   "emissions_kg": res.emissions_kg,
                                   "edq_station": rep["edq_station"]}]
        assert "per_season" not in rep

    def test_totals_fold_the_day_rows_in_day_order(self):
        # Four days in two seasons, given out of day order. Added left to
        # right in day order, 1e16 + 1.0 rounds back to 1e16, so winter's
        # emissions fold to 0.0, where the compensated `sum` of Python 3.12
        # gives 1.0, and the run's to 0.5, where the reverse order gives 0.0.
        sessions = _two_sessions()
        emissions = {70: 0.5, 40: -1e16, 1: 1.0, 0: 1e16}
        soc = {70: [0.5, 0.6], 40: [0.4, 0.3], 1: [0.3, 0.2], 0: [0.35, 0.6]}
        rep = make_report("p", {day: (sessions, np.array(soc[day]), e)
                                for day, e in emissions.items()},
                          lambda day: "winter" if day < 60 else "spring")

        def fold(values):
            return reduce(operator.add, values, 0.0)

        assert [row["day"] for row in rep["per_day"]] == [0, 1, 40, 70]
        assert [row["emissions_kg"] for row in rep["per_day"]] == [1e16, 1.0, -1e16, 0.5]
        assert rep["total_emissions_kg"] == fold(row["emissions_kg"] for row in rep["per_day"])
        assert rep["per_season"]["winter"]["emissions_kg"] == 0.0
        for name, days in (("winter", (0, 1, 40)), ("spring", (70,))):
            rows = [row for row in rep["per_day"] if row["day"] in days]
            assert rep["per_season"][name]["emissions_kg"] \
                == fold(row["emissions_kg"] for row in rows)
            assert rep["per_season"][name]["days"] == len(rows)
        assert sorted(rep["per_season"]) == ["spring", "winter"]
        # Each day requests 0.6 of SoC, 6 kWh, and gets 0.45, 0, 0.2 and 0.6 of it.
        assert rep["per_season"]["spring"]["edq_station"] == rep["per_day"][3]["edq_station"]
        assert rep["per_season"]["winter"]["edq_station"] == pytest.approx(0.65 / 1.8)
        assert rep["edq_station"] == pytest.approx(1.25 / 2.4)
        assert rep["energy_delivered_kwh"] == pytest.approx(12.5)
