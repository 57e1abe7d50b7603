import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonsched import metrics
from carbonsched.errors import UnknownBaseline
from carbonsched.metrics import (RunReport, compare, comparison_csv,
                                 edq_session, edq_station, edq_station_energy,
                                 format_table, make_report)
from carbonsched.scheduler import StationConfig, result_from_power

from conftest import make_session


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
        assert edq_station_energy(res, sessions) == 1.0

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
        # SoC-weighted: (0.4+0.2)/0.8; energy-weighted: (4+8)/20
        assert edq_station(res, sessions) == pytest.approx(0.75)
        assert edq_station_energy(res, sessions) == pytest.approx(0.6)

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


def _report(policy, emissions):
    return RunReport(policy=policy, total_emissions_kg=emissions,
                     emissions_per_session_kg=emissions, edq_station=1.0,
                     edq_session=1.0, energy_delivered_kwh=10.0, n_sessions=1)


class TestCompare:
    def test_percentage_reductions(self):
        rows = compare([_report("edf", 2.913), _report("offline-0.4", 2.798),
                        _report("offline-0.3", 2.195)], baseline="edf")
        by = {r["policy"]: r for r in rows}
        assert by["offline-0.4"]["emissions_reduction_pct"] \
            == pytest.approx(3.948, abs=0.001)
        assert by["offline-0.3"]["emissions_reduction_pct"] \
            == pytest.approx(24.648, abs=0.001)

    def test_identical_reports_zero_delta(self):
        rows = compare([_report("a", 2.0), _report("b", 2.0)], baseline="a")
        assert rows[1]["emissions_reduction_pct"] == 0.0

    def test_unknown_baseline(self):
        with pytest.raises(UnknownBaseline):
            compare([_report("a", 1.0), _report("b", 2.0)], baseline="zzz")

    def test_requires_two_reports(self):
        with pytest.raises(ValueError):
            compare([_report("a", 1.0)], baseline="a")

    def test_csv_and_table_rendering(self):
        rows = compare([_report("edf", 2.913), _report("lp", 2.798)],
                       baseline="edf")
        buf = io.StringIO()
        comparison_csv(rows, buf)
        assert buf.getvalue().startswith("policy,")
        table = format_table(rows)
        assert "2.798" in table
        assert "3.948" in table


class TestMakeReport:
    def test_fields(self):
        sessions = _two_sessions()
        res, _ = _result(sessions, [0.2, 0.2])
        rep = make_report("test", {0: (sessions, res)})
        assert rep.n_sessions == 2
        assert rep.edq_station == pytest.approx(2.0 / 3.0)
        assert rep.energy_delivered_kwh == pytest.approx(4.0)
        assert rep.total_emissions_kg == res.emissions_kg
        d = rep.to_dict()
        assert d["policy"] == "test"
        assert d["per_day"] == [{"day": 0, "n_sessions": 2,
                                 "emissions_kg": res.emissions_kg,
                                 "edq_station": rep.edq_station}]
        assert "per_season" not in d
