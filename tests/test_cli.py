import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from collections import defaultdict
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbonsched import cli, forecast, ingest, online, scheduler
from carbonsched.cli import POLICIES, main
from carbonsched.errors import CarbonSchedError, ZeroTotalGeneration
from carbonsched.scheduler import build_lp

from conftest import DAY_SLOTS, duck_curve, make_grid, make_session
from oracles import (loop_decisions_csv, loop_schedule_csv, loop_shift_csv,
                     objective_slack)
from output_digest import (COLLINEAR_MIX, GAS_IMPORTS, GAS_SOLAR, HUGE_FACTORS,
                           HUGE_INTENSITY_MIX, ONE_DAY_MIX, ONE_SESSION, OVERFLOW_FACTORS,
                           OVERFLOW_MIX, TOTAL_OVERFLOW_MIX, ZERO_TOTAL_MIX)
from test_scheduler import infeasible


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_edf_uncongested_full_delivery(self, tmp_path):
        # small batteries and long windows: EDF always finishes everyone
        out = tmp_path / "out"
        code = run_cli("simulate", "--policy", "edf", "--synth-days", "1",
                       "--synth-sessions-per-day", "8",
                       "--synth-capacity-kwh", "5", "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["edq_station"] == pytest.approx(1.0, abs=1e-9)
        assert (out / "schedule.csv").exists()
        assert (out / "shift.csv").exists()

    def test_lambda_zero_means_no_charging(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("simulate", "--policy", "carbon-offline", "--lambda",
                       "0", "--synth-days", "1", "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["total_emissions_kg"] == pytest.approx(0.0, abs=1e-7)
        assert report["edq_station"] == pytest.approx(0.0, abs=1e-7)

    def test_unknown_policy_exits_1(self, capsys):
        assert run_cli("simulate", "--policy", "nope") == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_input_file_exits_1(self, tmp_path):
        code = run_cli("simulate", "--policy", "edf",
                       "--sessions", str(tmp_path / "absent.csv"),
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1

    def test_online_policy_writes_decision_log(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("simulate", "--policy", "carbon-online",
                       "--synth-days", "1", "--synth-sessions-per-day", "4",
                       "--synth-capacity-kwh", "5", "--out-dir", str(out))
        assert code == 0
        log = (out / "decisions.csv").read_text().splitlines()
        assert log[0] == "slot,session_id,power_kw,forecast_c,true_c"
        assert len(log) > 1

    def test_multi_day_decision_log_has_one_header(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("simulate", "--policy", "carbon-online",
                       "--synth-days", "2", "--synth-sessions-per-day", "4",
                       "--synth-capacity-kwh", "5", "--out-dir", str(out))
        assert code == 0
        lines = (out / "decisions.csv").read_text().splitlines()
        assert lines[0] == "slot,session_id,power_kw,forecast_c,true_c"
        rows = [line.split(",") for line in lines[1:]]
        assert all(int(row[0]) >= 0 for row in rows)
        assert len({row[1] for row in rows}) > 4   # sessions of both days

    def test_decision_rows_join_schedule(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("simulate", "--policy", "carbon-online",
                       "--synth-days", "2", "--synth-sessions-per-day", "4",
                       "--synth-capacity-kwh", "5", "--out-dir", str(out))
        assert code == 0
        with open(out / "schedule.csv", newline="") as f:
            schedule = {(r["session_id"], int(r["slot"])): float(r["power_kw"])
                        for r in csv.DictReader(f)}
        with open(out / "decisions.csv", newline="") as f:
            decisions = list(csv.DictReader(f))
        assert any(int(r["slot"]) >= DAY_SLOTS for r in decisions)
        for r in decisions:
            assert schedule[(r["session_id"], int(r["slot"]))] \
                == float(r["power_kw"]), r

    def test_csv_outputs_end_lines_in_lf(self, tmp_path):
        # an id with a comma is quoted alike in decisions.csv and schedule.csv
        (tmp_path / "s.csv").write_text(
            _SESSIONS_HEADER + _session_row('"car,1"') + _session_row("b"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--policy", "carbon-online", "--lambda", "100",
                       "--synth-days", "1", "--sessions", str(tmp_path / "s.csv"),
                       "--out-dir", str(out)) == 0
        for name in ("decisions.csv", "schedule.csv", "shift.csv"):
            assert b"\r" not in (out / name).read_bytes(), name
        with open(out / "schedule.csv", newline="") as f:
            schedule = {(r["session_id"], r["slot"]) for r in csv.DictReader(f)}
        with open(out / "decisions.csv", newline="") as f:
            decisions = {(r["session_id"], r["slot"]) for r in csv.DictReader(f)}
        assert {sid for sid, _ in decisions} == {"car,1", "b"}
        assert decisions <= schedule

    def test_zero_demand_reports_full_delivery(self, tmp_path):
        grid = make_grid(1)
        path = tmp_path / "sessions.csv"
        with open(path, "w", newline="") as f:
            ingest.write_sessions(
                [make_session("a", 96, 144, soc_arrival=0.4, soc_target=0.4),
                 make_session("b", 108, 180, soc_arrival=0.6, soc_target=0.6)],
                grid, f)
        out = tmp_path / "out"
        assert run_cli("simulate", "--policy", "edf", "--synth-days", "1",
                       "--sessions", str(path), "--out-dir", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["edq_station"] == 1.0
        assert report["edq_session"] == 1.0
        assert report["per_day"][0]["edq_station"] == 1.0

    def test_multi_day_report_matches_schedule(self, tmp_path):
        # totals recomputed from schedule.csv, shift.csv and the sessions
        grid = make_grid(3)
        sessions = ingest.synth_sessions(18, grid, seed=4, capacity_kwh=5.0)
        days = {s.t_arrival // DAY_SLOTS for s in sessions}
        assert days == {0, 1, 2}
        path = tmp_path / "sessions.csv"
        with open(path, "w", newline="") as f:
            ingest.write_sessions(sessions, grid, f)
        out = tmp_path / "out"
        assert run_cli("simulate", "--policy", "carbon-offline",
                       "--lambda", "1", "--power-cap-kw", "10",
                       "--synth-days", "3", "--sessions", str(path),
                       "--out-dir", str(out)) == 0
        report = json.loads((out / "report.json").read_text())

        final_soc = {}
        with open(out / "schedule.csv", newline="") as f:
            for r in csv.DictReader(f):    # slots ascend within a session
                final_soc[r["session_id"]] = float(r["soc"])
        with open(out / "shift.csv", newline="") as f:
            shift_kg = sum(float(r["policy_kg"]) for r in csv.DictReader(f))
        delivered = {s.id: final_soc[s.id] - s.soc_arrival for s in sessions}
        requested = {s.id: s.soc_target - s.soc_arrival for s in sessions}
        ratios = [delivered[k] / requested[k] if requested[k] > 1e-12 else 1.0
                  for k in delivered]

        per_day = report["per_day"]
        assert [row["day"] for row in per_day] == [0, 1, 2]
        assert report["n_sessions"] == len(sessions)
        assert report["total_emissions_kg"] == pytest.approx(
            sum(row["emissions_kg"] for row in per_day), rel=1e-12)
        assert report["total_emissions_kg"] == pytest.approx(shift_kg, rel=1e-9)
        assert report["edq_station"] == pytest.approx(
            sum(delivered.values()) / sum(requested.values()), rel=1e-9)
        assert report["edq_session"] == pytest.approx(
            sum(ratios) / len(ratios), rel=1e-9)
        assert report["edq_station"] != pytest.approx(report["edq_session"])
        for row in per_day:
            ids = [s.id for s in sessions if s.t_arrival // DAY_SLOTS == row["day"]]
            assert row["n_sessions"] == len(ids)
            assert row["edq_station"] == pytest.approx(
                sum(delivered[k] for k in ids) / sum(requested[k] for k in ids),
                rel=1e-9)
        assert sum(b["days"] for b in report["per_season"].values()) == 3

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("simulate", "--policy", "carbon-offline", "--lambda", "0.4",
                       "--synth-days", "2", "--synth-sessions-per-day", "6",
                       "--synth-capacity-kwh", "5", "--out-dir", str(out))
        assert code == 0
        numeric = {"schedule.csv": ("slot", "power_kw", "soc"),
                   "shift.csv": ("slot", "policy_kg", "baseline_edf_kg")}
        for name, columns in numeric.items():
            with open(out / name, newline="") as f:
                rows = list(csv.DictReader(f))
            assert rows, name
            for row in rows:
                for col in columns:
                    assert math.isfinite(float(row[col])), (name, col, row[col])

    def test_determinism_byte_identical(self, tmp_path):
        args = ("simulate", "--policy", "carbon-offline", "--lambda", "0.4",
                "--synth-days", "2", "--synth-sessions-per-day", "6",
                "--synth-capacity-kwh", "5", "--seed", "3")
        assert run_cli(*args, "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out-dir", str(tmp_path / "b")) == 0
        assert (tmp_path / "a/report.json").read_bytes() \
            == (tmp_path / "b/report.json").read_bytes()
        assert (tmp_path / "a/schedule.csv").read_bytes() \
            == (tmp_path / "b/schedule.csv").read_bytes()

    def test_adaptive_policy_runs(self, tmp_path):
        # 35 sessions in the day select lambda 0.35, which the day's row
        # reports; --lambda is not used, so the report must not carry it
        out = tmp_path / "out"
        code = run_cli("simulate", "--policy", "carbon-adaptive", "--lambda", "7",
                       "--synth-days", "1", "--synth-sessions-per-day", "35",
                       "--synth-capacity-kwh", "5", "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["policy"] == "carbon-adaptive"
        assert report["per_day"][0]["lambda"] == 0.35
        assert 7.0 not in list(_numbers(report))

    def test_tou_emissions_accounted_against_carbon(self, tmp_path):
        # TOU prices its LP by the tariff, but its emissions, like every
        # policy's, are the schedule's energy times the intensity: here a
        # constant 0.1 kg/kWh, where the tariff is 0.25 and 0.55 $/kWh
        (tmp_path / "mix.csv").write_text("timestamp,gas\n" + "".join(
            f"{_stamp(k)},1000\n" for k in range(DAY_SLOTS)))
        (tmp_path / "factors.csv").write_text("source,kgco2_per_kwh\ngas,0.1\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--policy", "tou", "--lambda", "5",
                       "--mix", str(tmp_path / "mix.csv"),
                       "--factors", str(tmp_path / "factors.csv"),
                       "--synth-sessions-per-day", "6", "--synth-capacity-kwh", "5",
                       "--out-dir", str(out)) == 0
        with open(out / "schedule.csv", newline="") as f:
            grid_kwh = sum(float(r["power_kw"]) for r in csv.DictReader(f)) * 5 / 60
        assert grid_kwh > 0
        report = json.loads((out / "report.json").read_text())
        assert report["total_emissions_kg"] == pytest.approx(0.1 * grid_kwh, rel=1e-12)

    def test_tou_policy_runs(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("simulate", "--policy", "tou", "--lambda", "5",
                       "--synth-days", "1", "--synth-sessions-per-day", "6",
                       "--synth-capacity-kwh", "5", "--out-dir", str(out))
        assert code == 0

    def test_writes_only_under_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only"
        assert run_cli("simulate", "--policy", "edf", "--synth-days", "1",
                       "--synth-sessions-per-day", "3",
                       "--out-dir", str(out)) == 0
        created = {p.name for p in tmp_path.iterdir()}
        assert created == {"only"}

    def test_model_forecast_without_warmup_exits_1(self, tmp_path, capsys):
        # day 0 has no 24 h of observed intensity before it, so the model
        # forecast cannot start there; the run stops before any output
        code = run_cli("simulate", "--policy", "carbon-online",
                       "--online-forecast", "model", "--synth-days", "60",
                       "--synth-sessions-per-day", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: day 0: the model forecast needs 24 h of observed "
                       "intensity before the day starts, and the series has 0 h\n")
        assert not (tmp_path / "out").exists()

    def test_model_forecast_fits_nothing_without_sessions(self, tmp_path, capsys,
                                                          monkeypatch):
        # no block needs a forecast, so none is fitted: three days of
        # January would fail the fit on their constant month column
        fits = []
        monkeypatch.setattr(forecast, "fit", lambda *a, **k: fits.append(a))
        argv = ("simulate", "--policy", "carbon-online", "--online-forecast", "model",
                "--synth-days", "3", "--synth-sessions-per-day", "0")
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        assert fits == []
        assert (out / "decisions.csv").read_text() == \
            "slot,session_id,power_kw,forecast_c,true_c\n"
        assert json.loads((out / "report.json").read_text())["n_sessions"] == 0
        # --load is still read
        absent = tmp_path / "absent.csv"
        assert run_cli(*argv, "--load", str(absent), "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == \
            f"error: --load {absent}: No such file or directory\n"


def _session_row(sid="a", tz="+00:00", capacity="50", power="7.5"):
    return (f"{sid},2021-01-01T08:00:00{tz},2021-01-01T12:00:00{tz},"
            f"0.2,0.6,{capacity},{power}\n")


_SESSIONS_HEADER = ("id,arrival_ts,depart_ts,soc_arrival,soc_target,"
                    "capacity_kwh,power_max_kw\n")
_MIXED_MIX = ("timestamp,gas\n2021-01-01T00:00:00+00:00,100\n"
              "2021-01-01T00:05:00,100\n2021-01-01T00:10:00+00:00,100\n")
_NAN_MIX = ("timestamp,gas\n2021-01-01T00:00:00+00:00,100\n"
            "2021-01-01T00:05:00+00:00,nan\n2021-01-01T00:10:00+00:00,100\n")
_FACTORS = "source,kgco2_per_kwh\ngas,0.4\n"
# Three days of 2 h rows: the slot length divides a day, but the
# forecaster's 1 h moving average spans no slot.
_TWO_HOUR_MIX = "timestamp,gas\n" + "".join(
    f"2021-01-{1 + k // 12:02d}T{2 * (k % 12):02d}:00:00+00:00,100\n"
    for k in range(12 * 3))
_TOO_COARSE = ("rows are 7200 s apart; the slot length must be under 2 h "
               "for a 1 h moving average")
_ONE_ROW_MIX = "timestamp,gas\n2021-01-01T00:00:00+00:00,100\n"
_MIX = ("timestamp,gas\n2021-01-01T00:00:00+00:00,100\n"
        "2021-01-01T00:05:00+00:00,100\n")
# One day on the synthetic grid, so only the nan cell is wrong.
_NAN_LOAD = "timestamp,load_mw\n" + "".join(
    f"2021-01-01T{k // 12:02d}:{5 * (k % 12):02d}:00+00:00,"
    f"{'nan' if k == 100 else '24000'}\n" for k in range(DAY_SLOTS))


@pytest.mark.parametrize("files,args", [
    pytest.param({"s.csv": _SESSIONS_HEADER + _session_row(capacity="inf")},
                 ("--sessions", "s.csv"), id="capacity-inf"),
    pytest.param({"s.csv": _SESSIONS_HEADER + _session_row(power="nan")},
                 ("--sessions", "s.csv"), id="power-max-nan"),
    pytest.param({"s.csv": _SESSIONS_HEADER + _session_row() + _session_row()},
                 ("--sessions", "s.csv"), id="duplicate-id"),
    pytest.param({"s.csv": _SESSIONS_HEADER + _session_row(tz="")},
                 ("--sessions", "s.csv"), id="naive-sessions-utc-grid"),
    pytest.param({"mix.csv": _MIXED_MIX,
                  "factors.csv": "source,kgco2_per_kwh\ngas,0.4\n"},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 id="mix-naive-and-aware-rows"),
    pytest.param({"mix.csv": _NAN_MIX, "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 id="mix-nan-cell-edf"),
    pytest.param({"mix.csv": _NAN_MIX, "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv",
                  "--policy", "carbon-offline"), id="mix-nan-cell-offline"),
    pytest.param({"mix.csv": _ONE_ROW_MIX, "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 id="mix-one-row"),
    pytest.param({"load.csv": _NAN_LOAD},
                 ("--load", "load.csv", "--policy", "carbon-online",
                  "--online-forecast", "model"), id="load-nan-cell"),
    pytest.param({"mix.csv": _MIX.replace(",100\n", ",100,7\n", 1),
                  "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"), id="mix-long-row"),
    pytest.param({"mix.csv": "timestamp,gas,solar\n2021-01-01T00:00:00+00:00,1,2\n"
                             "2021-01-01T00:05:00+00:00,1\n",
                  "factors.csv": _FACTORS + "solar,0.0\n"},
                 ("--mix", "mix.csv", "--factors", "factors.csv"), id="mix-short-row"),
    pytest.param({"mix.csv": "", "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"), id="mix-empty-file"),
    pytest.param({"mix.csv": _MIX, "factors.csv": _FACTORS + "solar\n"},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 id="factors-short-row"),
    pytest.param({"load.csv": _NAN_LOAD.replace(",nan\n", "\n")},
                 ("--load", "load.csv", "--policy", "carbon-online",
                  "--online-forecast", "model"), id="load-short-row"),
    pytest.param({"s.csv": _SESSIONS_HEADER + _session_row().replace(",7.5\n", "\n")},
                 ("--sessions", "s.csv"), id="sessions-short-row"),
    pytest.param({"s.csv": _SESSIONS_HEADER.replace("depart_ts,", "")
                  + "a,2021-01-01T08:00:00+00:00,0.2,0.6,50,7.5\n"},
                 ("--sessions", "s.csv"), id="sessions-without-depart-ts"),
    pytest.param({"mix.csv": TOTAL_OVERFLOW_MIX, "factors.csv": GAS_SOLAR},
                 ("--mix", "mix.csv", "--factors", "factors.csv"), id="mix-total-overflow"),
    pytest.param({"mix.csv": HUGE_INTENSITY_MIX, "factors.csv": HUGE_FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"), id="mix-huge-intensity"),
    pytest.param({}, ("--lambda", "nan"), id="lambda-nan"),
    pytest.param({}, ("--lambda", "inf"), id="lambda-inf"),
    pytest.param({}, ("--lambda", "nan", "--policy", "carbon-adaptive"),
                 id="lambda-nan-adaptive"),
    pytest.param({}, ("--power-cap-kw", "nan"), id="power-cap-nan"),
])
def test_boundary_input_exits_1(tmp_path, capsys, files, args):
    # A --policy in `args` overrides the default edf (argparse keeps the last).
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in args]
    code = run_cli("simulate", "--policy", "edf", "--synth-days", "1",
                   "--synth-sessions-per-day", "3", *argv,
                   "--out-dir", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("bad,files,args,detail", [
    pytest.param("mix.csv", {"mix.csv": _MIX.replace(",100\n", ",100,7\n", 1),
                             "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "malformed CSV row 1: 3 cells, the header has 2", id="mix"),
    pytest.param("factors.csv", {"mix.csv": _MIX, "factors.csv": _FACTORS + "solar\n"},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "malformed CSV row 2: 1 cells, the header has 2", id="factors"),
    pytest.param("s.csv", {"s.csv": _SESSIONS_HEADER
                           + _session_row().replace(",7.5\n", "\n")},
                 ("--sessions", "s.csv"),
                 "malformed CSV row 1: 6 cells, the header has 7", id="sessions"),
    pytest.param("s.csv", {"s.csv": _SESSIONS_HEADER + _session_row().replace(
                               "08:00:00", "08:02:00").replace("12:00:00", "08:04:00")},
                 ("--sessions", "s.csv"),
                 "session 'a' has an empty charging window after snapping",
                 id="sessions-empty-window"),
    pytest.param("load.csv", {"load.csv": _NAN_LOAD.replace(",nan\n", "\n")},
                 ("--load", "load.csv", "--policy", "carbon-online",
                  "--online-forecast", "model"),
                 "malformed CSV row 101: 1 cells, the header has 2", id="load"),
    pytest.param("mix.csv", {"mix.csv": _MIX.replace("00:05:00+00:00,100",
                                                      "00:05:00+00:00,-5"),
                             "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "negative power for non-signed source 'gas' at row 2",
                 id="mix-negative-power"),
    pytest.param("mix.csv", {"mix.csv": _ONE_ROW_MIX, "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "a time series needs at least two rows to fix its slot length, got 1",
                 id="mix-one-row"),
    pytest.param("factors.csv", {"mix.csv": _MIX,
                                 "factors.csv": _FACTORS.replace("0.4", "-0.4")},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "negative emission factor -0.4 for source 'gas'",
                 id="factors-negative"),
    pytest.param("mix.csv", {"mix.csv": _MIX.replace("00:05:00", "00:01:30"),
                             "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "rows are 90 s apart; the slot length must be a whole number of "
                 "minutes that divides 24 h", id="mix-90-s-spacing"),
    pytest.param("mix.csv", {"mix.csv": _MIX.replace("00:05:00", "00:07:00"),
                             "factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "rows are 420 s apart; the slot length must be a whole number of "
                 "minutes that divides 24 h", id="mix-7-min-spacing"),
    pytest.param("load.csv", {"load.csv": _NAN_LOAD.replace(",nan\n", ",0\n")},
                 ("--load", "load.csv", "--policy", "carbon-online",
                  "--online-forecast", "model"),
                 "load_mw must be positive, got 0.0 at row 101", id="load-zero"),
    pytest.param("load.csv", {"load.csv": "timestamp,load_mw\n"
                              "2021-01-01T00:00:00+00:00,24000\n"},
                 ("--load", "load.csv", "--policy", "carbon-online",
                  "--online-forecast", "model"),
                 "a time series needs at least two rows to fix its slot length, got 1",
                 id="load-one-row"),
    pytest.param("s.csv", {"s.csv": (_SESSIONS_HEADER + _session_row()).encode()
                           .replace(b"a,", b"\xff,", 1)},
                 ("--sessions", "s.csv"), "not UTF-8: byte 73 is 0xff", id="sessions-not-utf8"),
    pytest.param("s.csv", {"s.csv": _SESSIONS_HEADER + _session_row().replace(",0.2,", ",nan,")},
                 ("--sessions", "s.csv"),
                 "non-finite value in row 1, column 'soc_arrival'", id="soc-nan"),
    pytest.param("s.csv", {"s.csv": _SESSIONS_HEADER + _session_row(capacity="inf")},
                 ("--sessions", "s.csv"),
                 "non-finite value in row 1, column 'capacity_kwh'", id="capacity-inf"),
    pytest.param("s.csv", {"s.csv": _SESSIONS_HEADER + _session_row(power="nan")},
                 ("--sessions", "s.csv"),
                 "non-finite value in row 1, column 'power_max_kw'", id="power-max-nan"),
    pytest.param("factors.csv", {"mix.csv": _MIX,
                                 "factors.csv": _FACTORS.replace("0.4", "1e400")},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "non-finite value in row 1, column 'kgco2_per_kwh'", id="factors-1e400"),
    # the one session starts on day 1, after a day of history
    pytest.param("mix.csv", {"mix.csv": _TWO_HOUR_MIX, "factors.csv": _FACTORS,
                             "s.csv": _SESSIONS_HEADER + _session_row().replace(
                                 "01-01T", "01-02T")},
                 ("--mix", "mix.csv", "--factors", "factors.csv", "--sessions", "s.csv",
                  "--policy", "carbon-online", "--online-forecast", "model"),
                 _TOO_COARSE, id="mix-2-h-model-forecast"),
    pytest.param("factors.csv", {"mix.csv": _MIX, "factors.csv": _FACTORS + "gas,0.9\n"},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "malformed CSV row 2: source 'gas' is repeated", id="factors-repeated-source"),
    pytest.param("s.csv", {"s.csv": _SESSIONS_HEADER + _session_row().replace(
                               ",0.6,", ",0." + "0" * 140_000 + "6,")},
                 ("--sessions", "s.csv"),
                 "malformed CSV row 1: field larger than field limit (131072)",
                 id="sessions-cell-over-field-limit"),
    # `bad` is not written: the file is missing
    pytest.param("mix.csv", {"factors.csv": _FACTORS},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "No such file or directory", id="mix-missing"),
    pytest.param("factors.csv", {"mix.csv": _MIX},
                 ("--mix", "mix.csv", "--factors", "factors.csv"),
                 "No such file or directory", id="factors-missing"),
    pytest.param("s.csv", {}, ("--sessions", "s.csv"),
                 "No such file or directory", id="sessions-missing"),
    pytest.param("load.csv", {}, ("--load", "load.csv", "--policy", "carbon-online",
                                  "--online-forecast", "model"),
                 "No such file or directory", id="load-missing"),
])
def test_input_error_names_flag_and_file(tmp_path, capsys, bad, files, args, detail):
    # --mix and --factors are read by one parser; the message still names
    # the one of the two files that is wrong
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = [str(tmp_path / a) if a in files or a == bad else a for a in args]
    flag = args[args.index(bad) - 1]
    code = run_cli("simulate", "--policy", "edf", "--synth-days", "1",
                   "--synth-sessions-per-day", "3", *argv,
                   "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {flag} {tmp_path / bad}: {detail}\n"


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("lam", ["nan", "inf", "-0.1"])
def test_bad_lambda_rejected_before_any_day(tmp_path, capsys, policy, lam):
    code = run_cli("simulate", "--policy", policy, "--lambda", lam,
                   "--synth-days", "1", "--synth-sessions-per-day", "3",
                   "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "error: --lambda must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# One day whose imports turn to -3000 MW (exports) from 10:00 to 15:00,
# where C(t) = (0.42 * 1000 - 0.30 * 3000) / 8000 = -0.06 kg/kWh.
_NEGATIVE_MIDDAY_MIX = "timestamp,solar,gas,imports\n" + "".join(
    f"2021-01-01T{k // 12:02d}:{5 * (k % 12):02d}:00+00:00,10000,1000,"
    f"{-3000 if 10 * 12 <= k < 15 * 12 else 1800}\n" for k in range(DAY_SLOTS))


@pytest.mark.parametrize("policy",
                         ["carbon-offline", "carbon-adaptive", "carbon-online"])
def test_negative_intensity_never_charges_past_target(tmp_path, policy):
    files = {"mix.csv": _NEGATIVE_MIDDAY_MIX,
             "factors.csv": "source,kgco2_per_kwh\nsolar,0.0\ngas,0.42\n"
                            "imports,0.30\n",
             "sessions.csv": "id,arrival_ts,depart_ts,soc_arrival,soc_target\n"
                             "a,2021-01-01T09:00:00+00:00,"
                             "2021-01-01T16:00:00+00:00,0.2,0.5\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert run_cli("simulate", "--policy", policy, "--lambda", "0.3",
                   "--mix", str(tmp_path / "mix.csv"),
                   "--factors", str(tmp_path / "factors.csv"),
                   "--sessions", str(tmp_path / "sessions.csv"),
                   "--out-dir", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["total_emissions_kg"] < 0     # it charged while C < 0
    assert report["edq_station"] <= 1.0
    final_soc = {}
    with open(out / "schedule.csv", newline="") as f:
        for r in csv.DictReader(f):    # slots ascend within a session
            final_soc[r["session_id"]] = float(r["soc"])
    assert final_soc["a"] <= 0.5 + 1e-8


def test_solver_failure_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scheduler, "build_lp",
                        lambda *a: infeasible(build_lp(*a)))
    code = run_cli("simulate", "--policy", "carbon-offline",
                   "--synth-days", "1", "--synth-sessions-per-day", "3",
                   "--out-dir", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert "error: LP solver failed: Infeasible" in err
    assert "Traceback" not in err


def test_out_of_memory_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch):
    # the MemoryError is raised by a stand-in, not by allocating memory
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "_schedule", exhausted)
    out = tmp_path / "out"
    code = run_cli("simulate", "--policy", "carbon-offline", "--synth-days", "1",
                   "--synth-sessions-per-day", "3", "--out-dir", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err
    assert not out.exists()


# Signed zeros, the least subnormal and a larger one, the least normal, the
# largest finite magnitudes and values whose repr needs 17 digits.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
                1.7e308, -1.7e308, 1.7976931348623157e308, 0.1, 1 / 3, -2.5)


@st.composite
def _float_columns(draw):
    """A float64 column drawn from a few values, so most of them repeat."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
    return np.array([pool[j] for j in picks], dtype=np.float64)


@settings(max_examples=200, deadline=None)
@example(values=np.zeros(0))
@example(values=np.array(_EDGE_FLOATS * 40))
@given(values=_float_columns())
def test_reprs_is_the_repr_of_each_float(values):
    assert cli._reprs(values) == [repr(x) for x in values.tolist()]


def test_quoted_session_ids_keep_four_cells(tmp_path):
    # schedule.csv quotes an id as csv.writer does in decisions.csv, so
    # both parse back to the same ids and every row has its header's cells
    (tmp_path / "sessions.csv").write_text(_QUOTED_SESSIONS)
    out = tmp_path / "out"
    argv = [str(tmp_path / a) if a == "sessions.csv" else a for a in _OVERNIGHT]
    assert run_cli("simulate", "--policy", "carbon-online", *argv,
                   "--out-dir", str(out)) == 0
    with open(out / "schedule.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert all(len(row) == len(header) == 4 for row in rows)
    assert set(_QUOTED_IDS) <= {row[0] for row in rows}
    schedule = {(row[0], int(row[1])): float(row[2]) for row in rows}
    with open(out / "decisions.csv", newline="") as f:
        decisions = list(csv.DictReader(f))
    assert set(_QUOTED_IDS) <= {r["session_id"] for r in decisions}
    for r in decisions:
        assert schedule[(r["session_id"], int(r["slot"]))] == float(r["power_kw"])


def _fail_second_online_day(monkeypatch):
    real, calls = online.run_online, []

    def run_online(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            monkeypatch.setattr(online, "build_lp", lambda *a: infeasible(build_lp(*a)))
        return real(*args, **kwargs)

    monkeypatch.setattr(online, "run_online", run_online)


_TWO_DAYS = ("--synth-days", "2", "--synth-sessions-per-day", "4",
             "--synth-capacity-kwh", "5")


@pytest.mark.parametrize("argv,patch,code", [
    pytest.param(("simulate", "--policy", "carbon-online", "--horizon", "0", *_TWO_DAYS),
                 None, 1, id="simulate-horizon-0"),
    pytest.param(("simulate", "--policy", "edf", "--power-cap-kw", "0", *_TWO_DAYS),
                 None, 1, id="simulate-power-cap-0"),
    pytest.param(("simulate", "--policy", "carbon-online", *_TWO_DAYS),
                 _fail_second_online_day, 2, id="online-solver-fails-on-day-2"),
    pytest.param(("lambda-sweep", "--lambdas", "0.3", "--mix", "absent.csv",
                  "--factors", "absent.csv"), None, 1, id="sweep-missing-mix"),
    pytest.param(("forecast", "--synth-days", "1"), None, 1, id="forecast-one-day"),
])
def test_failed_run_creates_no_out_dir(tmp_path, monkeypatch, capsys, argv, patch, code):
    # every output is written after the run has succeeded, so a run that
    # fails leaves no --out-dir behind, not even an empty one
    if patch:
        patch(monkeypatch)
    out = tmp_path / "out"
    argv = [str(tmp_path / a) if a == "absent.csv" else a for a in argv]
    assert run_cli(*argv, "--out-dir", str(out)) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_online_solver_error_names_the_run_slot(tmp_path, monkeypatch, capsys):
    # day 1 fails at its slot 82, which decisions.csv and schedule.csv
    # number 288 + 82
    _fail_second_online_day(monkeypatch)
    assert run_cli("simulate", "--policy", "carbon-online", *_TWO_DAYS,
                   "--out-dir", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == \
        "error: slot 370: LP solver failed: Infeasible (after 0 iterations)\n"


@pytest.mark.parametrize("argv,message", [
    (("simulate", "--policy", "carbon-online", "--horizon", "0"),
     "--horizon must be >= 1, got 0"),
    (("simulate", "--policy", "edf", "--power-cap-kw", "nan"),
     "--power-cap-kw must be finite and > 0, got nan"),
    (("lambda-sweep", "--lambdas", "0.3", "--power-cap-kw", "0"),
     "--power-cap-kw must be finite and > 0, got 0.0"),
    (("forecast", "--seed", "-1"), "--seed must be >= 0, got -1"),
    (("simulate", "--policy", "edf", "--synth-days", "0"),
     "--synth-days must be >= 1, got 0"),
    (("simulate", "--policy", "es", "--synth-sessions-per-day", "-1"),
     "--synth-sessions-per-day must be >= 0, got -1"),
    (("simulate", "--policy", "edf", "--synth-capacity-kwh", "0"),
     "--synth-capacity-kwh must be finite and > 0, got 0.0"),
    (("simulate", "--policy", "tou", "--lambda", "-0.5"),
     "--lambda must be finite and >= 0, got -0.5"),
    (("lambda-sweep", "--lambdas", "0.1,inf"),
     "--lambdas must be finite and >= 0, got inf"),
    (("lambda-sweep", "--lambdas", ","),
     "--lambdas must list at least one factor, got ','"),
])
def test_numeric_flag_out_of_range_names_the_flag(tmp_path, capsys, argv, message):
    # the flags are checked before any input is read: the --mix and
    # --factors files named here do not exist
    absent = str(tmp_path / "absent.csv")
    out = tmp_path / "out"
    assert run_cli(*argv, "--mix", absent, "--factors", absent,
                   "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("policy", ["edf", "es"])
@pytest.mark.parametrize("capacity", ["1e17", "1e300"])
def test_battery_too_large_to_charge_is_refused(tmp_path, capsys, policy, capacity):
    # one full-power slot's SoC step rounds away at the target: the run
    # used to report emissions with no energy delivered
    out = tmp_path / "out"
    assert run_cli("simulate", "--policy", policy, "--synth-days", "1",
                   "--synth-capacity-kwh", capacity, "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: session 'synth-0000' violates SoC invariants: "
                          "a slot at power_max moves the SoC by ")
    assert "rounds away at target=" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [("simulate", "--policy", "edf"),
                                     ("lambda-sweep", "--lambdas", "0.3")])
def test_out_dir_under_a_file_names_the_flag(tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"
    assert run_cli(*command, "--synth-days", "1", "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: --out-dir {out}: Not a directory\n"


@pytest.mark.parametrize("argv,name,kept", [
    pytest.param(("simulate", "--policy", "edf", "--synth-days", "1"), "report.json", [],
                 id="simulate-report"),
    pytest.param(("simulate", "--policy", "edf", "--synth-days", "1"), "schedule.csv",
                 ["report.json"], id="simulate-schedule"),
    pytest.param(("lambda-sweep", "--lambdas", "0.3", "--synth-days", "1"),
                 "tradeoff.csv", [], id="lambda-sweep-tradeoff"),
    pytest.param(("forecast", "--synth-days", "32"), "model.json", [],
                 id="forecast-model"),
])
def test_failed_write_names_the_flag_and_file(tmp_path, capsys, argv, name, kept):
    # a directory where the output file goes; the files written before it stay
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert run_cli(*argv, "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: --out-dir {out / name}: Is a directory\n"
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == kept


def test_each_subcommand_takes_only_the_flags_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: {a.option_strings[0] for a in p._actions if a.dest != "help"}
             for name, p in sub.choices.items()}
    grid = {"--mix", "--factors", "--seed", "--out-dir", "--exclude-negative",
            "--synth-days"}
    station = {"--sessions", "--power-cap-kw", "--synth-sessions-per-day",
               "--synth-capacity-kwh"}
    assert flags == {
        "simulate": grid | station | {"--load", "--policy", "--lambda", "--horizon",
                                      "--online-forecast"},
        "lambda-sweep": grid | station | {"--lambdas"},
        "forecast": grid | {"--load"},
    }
    assert sum(map(len, flags.values())) == 33


@pytest.mark.parametrize("argv", [
    ("forecast", "--sessions", "s.csv"), ("forecast", "--power-cap-kw", "20"),
    ("forecast", "--synth-sessions-per-day", "4"),
    ("forecast", "--synth-capacity-kwh", "5"),
    ("lambda-sweep", "--lambdas", "0.3", "--load", "load.csv"),
])
def test_flag_a_subcommand_never_reads_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out-dir", str(out)) == 1
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    *(pytest.param(("--policy", p, "--online-forecast", "model"),
                   "--online-forecast model is read only by --policy carbon-online",
                   id=f"{p}-model-forecast")
      for p in POLICIES if p != "carbon-online"),
    *(pytest.param(("--policy", p, *forecast, "--load", "{tmp}/absent.csv"),
                   "--load is read only with --online-forecast model",
                   id=f"{p}-{forecast[-1] if forecast else 'default'}-forecast-load")
      for p in POLICIES for forecast in ((), ("--online-forecast", "perfect"))),
    *(pytest.param(("--policy", p, "--horizon", "5"),
                   "--horizon is read only by --policy carbon-online", id=f"{p}-horizon")
      for p in POLICIES if p != "carbon-online"),
])
def test_flag_the_policy_never_reads_exits_1(tmp_path, capsys, argv, message):
    # Refused before any input is read: the absent --mix is never opened.
    out = tmp_path / "out"
    absent = ("--mix", str(tmp_path / "absent.csv"), "--factors", str(tmp_path / "absent.csv"))
    assert run_cli("simulate", *(a.format(tmp=tmp_path) for a in argv), *absent,
                   "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_horizon_sets_the_lookahead(tmp_path, monkeypatch):
    lengths = []

    def build(sessions, price, config):
        lengths.append(len(price))
        return build_lp(sessions, price, config)

    monkeypatch.setattr(online, "build_lp", build)
    # by default, one day of the grid's slots: 288 of 5 minutes, 96 of 15
    (tmp_path / "mix.csv").write_text("timestamp,gas\n" + "".join(
        f"2021-01-0{1 + k // 96}T{k % 96 // 4:02d}:{15 * (k % 4):02d}:00+00:00,1000\n"
        for k in range(2 * 96)))
    (tmp_path / "factors.csv").write_text("source,kgco2_per_kwh\ngas,0.01\n")
    mix = ("--mix", str(tmp_path / "mix.csv"), "--factors", str(tmp_path / "factors.csv"))
    for argv, expected in ((("--horizon", "12"), 12), ((), 288), (mix, 96)):
        lengths.clear()
        assert run_cli("simulate", "--policy", "carbon-online", *argv, *_TWO_DAYS,
                       "--out-dir", str(tmp_path / str(expected))) == 0
        assert lengths and set(lengths) == {expected}


def test_horizon_past_the_block_plans_the_block(tmp_path, monkeypatch):
    # a lookahead longer than the run looks to the block's end, as one
    # of the block's length does, and writes the same files
    lengths = []

    def build(sessions, price, config):
        lengths.append(len(price))
        return build_lp(sessions, price, config)

    monkeypatch.setattr(online, "build_lp", build)
    outs = {h: tmp_path / h for h in ("288", str(10 ** 12))}
    for h, out in outs.items():
        assert run_cli("simulate", "--policy", "carbon-online", "--synth-days", "1",
                       "--synth-sessions-per-day", "5", "--lambda", "100", "--horizon", h,
                       "--out-dir", str(out)) == 0
    assert lengths and set(lengths) == {288}
    short, long = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs.values())
    assert sorted(short) == ["decisions.csv", "report.json", "schedule.csv", "shift.csv"]
    assert short == long


def test_model_forecast_runs(tmp_path):
    # 32 days span January and February, so no calendar column of the fit
    # is constant; the sessions start on day 1, after a day of history
    (tmp_path / "sessions.csv").write_text(
        "id,arrival_ts,depart_ts,soc_arrival,soc_target,capacity_kwh\n"
        "a,2021-01-02T07:00:00+00:00,2021-01-02T15:00:00+00:00,0.2,0.7,20\n"
        "b,2021-02-01T09:30:00+00:00,2021-02-01T20:00:00+00:00,0.3,0.6,20\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--policy", "carbon-online", "--online-forecast", "model",
                   "--synth-days", "32", "--sessions", str(tmp_path / "sessions.csv"),
                   "--lambda", "100", "--out-dir", str(out)) == 0
    with open(out / "decisions.csv", newline="") as f:
        decisions = list(csv.DictReader(f))
    assert {r["session_id"] for r in decisions} == {"a", "b"}
    # the model's forecast, not the true intensity, drove the decisions
    assert any(r["forecast_c"] != r["true_c"] for r in decisions)
    report = json.loads((out / "report.json").read_text())
    assert report["edq_station"] > 0


def test_exclude_negative_zeroes_exports(tmp_path):
    # without the flag the midday exports make C(t) < 0 (see the test
    # above); zeroed, every slot's intensity is positive
    (tmp_path / "mix.csv").write_text(_NEGATIVE_MIDDAY_MIX)
    (tmp_path / "factors.csv").write_text(
        "source,kgco2_per_kwh\nsolar,0.0\ngas,0.42\nimports,0.30\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--policy", "edf", "--exclude-negative",
                   "--mix", str(tmp_path / "mix.csv"),
                   "--factors", str(tmp_path / "factors.csv"),
                   "--synth-sessions-per-day", "3", "--out-dir", str(out)) == 0
    with open(out / "shift.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    powered = [float(r["policy_kg"]) for r in rows if float(r["policy_kg"]) != 0]
    assert powered and min(powered) > 0
    midday = [float(r["policy_kg"]) for r in rows if 120 <= int(r["slot"]) < 180]
    assert any(midday)


@pytest.mark.parametrize("flag", ["--mix", "--factors"])
def test_mix_and_factors_go_together(tmp_path, capsys, flag):
    (tmp_path / "f.csv").write_text(_FACTORS)
    out = tmp_path / "out"
    assert run_cli("simulate", "--policy", "edf", flag, str(tmp_path / "f.csv"),
                   "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == "error: --mix and --factors must be given together\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,mix,detail", [
    pytest.param(("simulate", "--policy", "edf"), ZERO_TOTAL_MIX,
                 "total generation is zero at slot 5", id="zero-total"),
    pytest.param(("forecast",), ONE_DAY_MIX, "need more than 288 slots, got 288",
                 id="forecast-one-day"),
])
def test_error_derived_from_the_mix_names_it(tmp_path, capsys, argv, mix, detail):
    (tmp_path / "mix.csv").write_text(mix)
    (tmp_path / "factors.csv").write_text(GAS_IMPORTS)
    out = tmp_path / "out"
    assert run_cli(*argv, "--mix", str(tmp_path / "mix.csv"),
                   "--factors", str(tmp_path / "factors.csv"), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: --mix {tmp_path / 'mix.csv'}: {detail}\n"
    assert not out.exists()


def test_named_keeps_the_innermost_name_and_names_nothing_without_a_path(tmp_path):
    absent = tmp_path / "absent.csv"
    with pytest.raises(CarbonSchedError) as exc:
        with cli._named("--mix", "mix.csv"), cli._named("--factors", str(absent)):
            open(absent)
    assert str(exc.value) == f"--factors {absent}: No such file or directory"
    with pytest.raises(CarbonSchedError) as exc:
        with cli._named("--mix", None):
            raise ZeroTotalGeneration(5)
    assert exc.value.where is None


def _src_env():
    """The environment, with src/ first on PYTHONPATH, so that a new
    interpreter finds the package without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("argv", [
    ("simulate", "--policy", "edf"), ("simulate", "--policy", "carbon-offline"),
    ("lambda-sweep", "--lambdas", "0.3"), ("forecast",)], ids=" ".join)
def test_non_finite_intensity_names_the_mix(tmp_path, argv):
    # in a new interpreter, so that a numpy warning on stderr would show
    mix, factors = tmp_path / "mix.csv", tmp_path / "factors.csv"
    mix.write_text(OVERFLOW_MIX)
    factors.write_text(OVERFLOW_FACTORS)
    proc = subprocess.run([sys.executable, "-m", "carbonsched.cli", *argv,
                           "--mix", str(mix), "--factors", str(factors),
                           "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 1
    assert proc.stderr == f"error: --mix {mix}: non-finite value in intensity at slot 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mix_text,factors_text,detail", [
    pytest.param(TOTAL_OVERFLOW_MIX, GAS_SOLAR,
                 "non-finite value in total generation at slot 0", id="total-overflow"),
    pytest.param(HUGE_INTENSITY_MIX, HUGE_FACTORS,
                 "intensity at slot 0 is 9.090909090909091e+305 kgCO2/kWh; "
                 "it must be at most 1e+06", id="huge-intensity")])
@pytest.mark.parametrize("argv", [
    *(("simulate", "--policy", p) for p in POLICIES),
    ("lambda-sweep", "--lambdas", "0.3"), ("forecast",)], ids=" ".join)
def test_intensity_out_of_range_names_the_mix(tmp_path, capsys, argv, mix_text,
                                              factors_text, detail):
    # Before, the overflowing total gave an intensity of 0 and the huge one
    # numpy warnings and emissions of inf; a warning now fails the test.
    mix, factors = tmp_path / "mix.csv", tmp_path / "factors.csv"
    mix.write_text(mix_text)
    factors.write_text(factors_text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--mix", str(mix), "--factors", str(factors),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: --mix {mix}: {detail}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("policy", ["edf", "es"])
def test_a_session_served_past_its_target_is_credited_its_request(tmp_path, policy):
    (tmp_path / "one.csv").write_text(ONE_SESSION)
    out = tmp_path / "out"
    assert run_cli("simulate", "--policy", policy, "--synth-days", "1",
                   "--sessions", str(tmp_path / "one.csv"), "--out-dir", str(out)) == 0
    with open(out / "schedule.csv", newline="") as f:
        assert float(list(csv.DictReader(f))[-1]["soc"]) > 0.6    # a few ulps past
    report = json.loads((out / "report.json").read_text())
    assert [report["edq_station"], report["edq_session"],
            *(row["edq_station"] for row in report["per_day"]),
            *(b["edq_station"] for b in report["per_season"].values())] == [1.0] * 4
    assert report["energy_delivered_kwh"] == 20.00000000000002    # the physical gain


class TestLambdaSweep:
    def test_single_lambda_single_row(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("lambda-sweep", "--lambdas", "0.3", "--synth-days", "1",
                       "--synth-sessions-per-day", "5",
                       "--synth-capacity-kwh", "5", "--out-dir", str(out))
        assert code == 0
        lines = (out / "tradeoff.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,emissions_kg,energy_loss_pct"
        assert len(lines) == 2

    def test_empty_lambda_list_exits_1(self, tmp_path):
        assert run_cli("lambda-sweep", "--lambdas", "",
                       "--out-dir", str(tmp_path / "out")) == 1

    def test_emissions_monotone_in_lambda(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("lambda-sweep", "--lambdas", "0.1,0.2,0.3,0.4,0.5",
                       "--synth-days", "2", "--synth-sessions-per-day", "6",
                       "--synth-capacity-kwh", "5", "--seed", "2",
                       "--out-dir", str(out))
        assert code == 0
        rows = [line.split(",") for line in
                (out / "tradeoff.csv").read_text().strip().splitlines()[1:]]
        emissions = [float(r[1]) for r in rows]
        losses = [float(r[2]) for r in rows]
        assert all(b >= a - 1e-7 for a, b in zip(emissions, emissions[1:]))
        assert all(b <= a + 1e-7 for a, b in zip(losses, losses[1:]))


    def test_rows_keep_the_trade_off_order(self, tmp_path):
        # Per day, as in test_scheduler.TestSolverFreeJudges,
        # (lam2 - lam1)(D2 - D1) >= -(s1 + s2) and E2 - E1 >= lam1 (D2 - D1) - s1,
        # with s each LP's `objective_slack`; the rows sum the days. D is the
        # delivered SoC and energy_loss_pct is 100 (1 - D / requested SoC).
        argv = ["lambda-sweep", "--lambdas", "0,0.5,1.2,3,8", "--synth-days", "2",
                "--synth-sessions-per-day", "8", "--synth-capacity-kwh", "5",
                "--power-cap-kw", "20", "--seed", "3"]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        rows = [[float(v) for v in line.split(",")] for line in
                (out / "tradeoff.csv").read_text().splitlines()[1:]]
        args = cli.build_parser().parse_args(argv)
        intensity = cli._load_intensity(args)
        grid = cli._grid_of(intensity)
        plans = cli._day_plans(cli._load_sessions(args, grid), grid)
        requested = sum(s.soc_target - s.soc_arrival
                        for _, _, rel in plans.values() for s in rel)

        def slack(lam):
            return sum(objective_slack(build_lp(
                rel, intensity.values[off:off + horizon], scheduler.StationConfig(
                    args.power_cap_kw, grid.slot_hours, lam, horizon)), lam)
                for off, horizon, rel in plans.values())

        assert [r[0] for r in rows] == args.lambdas
        for (lam1, e1, loss1), (lam2, e2, loss2) in zip(rows, rows[1:]):
            s1, s2 = slack(lam1), slack(lam2)
            d_tol = (s1 + s2) / (lam2 - lam1)
            assert loss2 <= loss1 + 100 * d_tol / requested
            assert e2 >= e1 - lam1 * d_tol - s1
        assert rows[-1][1] > rows[0][1]


class TestTouTieBreak:
    def test_flat_tariff_charges_earliest_slots_on_both_paths(self, monkeypatch,
                                                             highs_runs):
        sessions = [make_session("a", 2, 20, 0.2, 0.6), make_session("b", 0, 12, 0.3, 0.5)]
        T, h, lam = 24, 5 / 60, 8.0
        lp = build_lp(sessions, cli._tou_price(np.full(T, 0.3), sessions, lam, h),
                      scheduler.StationConfig(20.0, h, lam, T))
        expected = np.zeros((2, T))
        for i, s in enumerate(sessions):
            need = (s.soc_target - s.soc_arrival) * s.capacity_kwh / s.delta  # kW-slots
            expected[i, s.t_arrival:s.t_depart] = np.clip(
                need - 7.5 * np.arange(s.t_depart - s.t_arrival), 0.0, 7.5)
        # a SoC row within eps_p of its bound moves a column by eps_p / g kW
        atol = scheduler._HIGHS_OPTIONS.primal_feasibility_tolerance \
            * max(s.capacity_kwh / s.delta for s in sessions)
        by_screen = scheduler.solve(lp)
        assert highs_runs == []
        monkeypatch.setattr(scheduler, "_screen", lambda lp: None)
        by_highs = scheduler.solve(lp)
        assert len(highs_runs) == 1
        np.testing.assert_allclose(by_screen, expected, rtol=0, atol=atol)
        np.testing.assert_allclose(by_highs, expected, rtol=0, atol=atol)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 20.0),
           st.lists(st.floats(2.0, 60.0), min_size=1, max_size=4))
    def test_term_keeps_each_sessions_cost_order_and_sign(self, lam, capacities):
        h, T = 5 / 60, DAY_SLOTS
        tariff = np.where(np.arange(T) < 16 * 12, cli.TOU_OFFPEAK, cli.TOU_PEAK)
        sessions = [make_session(f"s{i}", capacity_kwh=c) for i, c in enumerate(capacities)]
        price = cli._tou_price(tariff, sessions, lam, h)
        earlier = np.arange(T)[:, None] < np.arange(T)[None, :]
        for s in sessions:
            g = s.delta / s.capacity_kwh
            c, tied = tariff * h - lam * g, price * h - lam * g
            assert np.all(np.sign(tied[c != 0]) == np.sign(c[c != 0]))
            below = (c[:, None] < c[None, :]) | ((c[:, None] == c[None, :]) & earlier)
            assert np.all((tied[:, None] < tied[None, :])[below])


class TestForecastCommand:
    def test_fits_and_reports(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("forecast", "--synth-days", "60", "--out-dir", str(out))
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert len(model["beta"]) == 9
        stats = json.loads((out / "forecast_metrics.json").read_text())
        assert stats["mae"] >= 0.0

    def test_model_json_holds_the_fitted_model(self, tmp_path):
        out = tmp_path / "out"
        argv = ["forecast", "--synth-days", "60", "--seed", "7"]
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        args = cli.build_parser().parse_args(argv)
        intensity = cli._load_intensity(args)
        model, _, _ = forecast.fit(forecast.build_features(
            intensity, cli._load_load(args, intensity.timestamps)), seed=7)
        text = (out / "model.json").read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text) == {"beta": model.beta.tolist(),
                                    "feature_means": model.feature_means.tolist(),
                                    "feature_stds": model.feature_stds.tolist()}

    def test_too_little_history_exits_1(self, tmp_path):
        # one synthetic day leaves no rows after warm-up
        code = run_cli("forecast", "--synth-days", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1

    def test_constant_features_are_named(self, tmp_path, capsys):
        # the rows of two days are all one weekday of one month
        out = tmp_path / "out"
        assert run_cli("forecast", "--synth-days", "2", "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == ("error: constant feature columns on the "
                                           "230 training rows: weekday, month\n")
        assert not out.exists()

    def test_near_collinear_features_are_named(self, tmp_path, capsys):
        # no column is constant, but the smooth intensity's moving averages
        # are near-affine in each other
        (tmp_path / "mix.csv").write_text(COLLINEAR_MIX)
        (tmp_path / "factors.csv").write_text(GAS_SOLAR)
        out = tmp_path / "out"
        assert run_cli("forecast", "--mix", str(tmp_path / "mix.csv"),
                       "--factors", str(tmp_path / "factors.csv"),
                       "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == ("error: near-collinear feature columns on the "
                                           "691 training rows: ma_24h, ma_12h, ma_1h\n")
        assert not out.exists()

    def test_grid_coarser_than_the_1_h_average_exits_1(self, tmp_path, capsys):
        (tmp_path / "mix.csv").write_text(_TWO_HOUR_MIX)
        (tmp_path / "factors.csv").write_text(_FACTORS)
        code = run_cli("forecast", "--mix", str(tmp_path / "mix.csv"),
                       "--factors", str(tmp_path / "factors.csv"),
                       "--out-dir", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: --mix {tmp_path / 'mix.csv'}: {_TOO_COARSE}\n"
        assert not (tmp_path / "out").exists()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "carbonsched.cli", "--help"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def _numbers(node):
    """Every number in a parsed JSON document."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


# Three days; night-a and night-d cross midnight, night-b shares night-a's
# slots, and one session alone can fill the 7.5 kW cap.
_OVERNIGHT_SESSIONS = (
    "id,arrival_ts,depart_ts,soc_arrival,soc_target,capacity_kwh\n"
    "night-a,2021-01-01T22:00:00+00:00,2021-01-02T06:00:00+00:00,0.1,0.9,60\n"
    "night-b,2021-01-02T00:30:00+00:00,2021-01-02T05:00:00+00:00,0.1,0.9,60\n"
    "day-c,2021-01-02T09:00:00+00:00,2021-01-02T15:00:00+00:00,0.2,0.6,20\n"
    "night-d,2021-01-02T23:00:00+00:00,2021-01-03T07:00:00+00:00,0.3,0.8,40\n")


# The same sessions under ids that CSV must quote: a comma and a quote.
_QUOTED_IDS = {"car,1": "night-a", 'say "hi"': "night-b"}
_QUOTED_SESSIONS = _OVERNIGHT_SESSIONS.replace(
    "night-a,", '"car,1",').replace("night-b,", '"say ""hi""",')
_OVERNIGHT = ("--synth-days", "3", "--sessions", "sessions.csv",
              "--power-cap-kw", "7.5", "--lambda", "100")


@pytest.mark.parametrize("policy,sessions,args", [
    pytest.param("carbon-offline", _OVERNIGHT_SESSIONS, _OVERNIGHT,
                 id="offline-3-days-overnight"),
    pytest.param("carbon-online", _OVERNIGHT_SESSIONS,
                 ("--synth-days", "2", "--synth-sessions-per-day", "4",
                  "--synth-capacity-kwh", "5", "--lambda", "2"),
                 id="online-2-days"),
    pytest.param("carbon-online", _QUOTED_SESSIONS, _OVERNIGHT,
                 id="online-3-days-quoted-ids"),
])
def test_csv_files_match_loop_writers(tmp_path, monkeypatch, policy, sessions, args):
    (tmp_path / "sessions.csv").write_text(sessions)
    real, runs, plans = cli._schedule, defaultdict(dict), {}

    def spy(block_policy, block, lam, parsed, intensity, *rest):
        # keyed by the block's first slot, which the loop writers read
        res = real(block_policy, block, lam, parsed, intensity, *rest)
        runs[block_policy][block[0]] = block[2], res
        plans[block[0]], runs["intensity"] = block, intensity
        runs["power_cap_kw"] = parsed.power_cap_kw
        if len(rest) == 2:    # the policy's call logs its decisions
            runs["decisions"][block[0]] = rest[1]
        return res

    monkeypatch.setattr(cli, "_schedule", spy)
    out = tmp_path / "out"
    argv = [str(tmp_path / a) if a == "sessions.csv" else a for a in args]
    assert run_cli("simulate", "--policy", policy, *argv,
                   "--out-dir", str(out)) == 0
    intensity = runs["intensity"]
    if "--sessions" in args:
        assert any(horizon > DAY_SLOTS for _, horizon, _ in plans.values())
    assert any(res.power.any() for _, res in runs[policy].values())
    assert (out / "schedule.csv").read_bytes() \
        == loop_schedule_csv(plans, runs[policy]).encode()
    assert (out / "shift.csv").read_bytes() == loop_shift_csv(
        plans, runs[policy], intensity, cli._grid_of(intensity).slot_hours,
        runs["power_cap_kw"]).encode()
    if policy == "carbon-online":
        assert any(runs["decisions"].values())
        assert (out / "decisions.csv").read_bytes() \
            == loop_decisions_csv(plans, runs["decisions"], intensity).encode()


@pytest.mark.parametrize("argv", [
    ("simulate", "--policy", "carbon-offline"),
    ("simulate", "--policy", "carbon-online"),
    ("simulate", "--policy", "edf"),
    ("lambda-sweep", "--lambdas", "0.3,2"),
], ids=["offline-and-edf", "online-and-edf", "edf", "sweep"])
def test_no_block_keeps_a_schedule_two_blocks_back(tmp_path, monkeypatch, argv):
    # A run holds each block's rows and final SoC, not its matrices: when a
    # block is scheduled, no schedule of a block two or more before it is
    # alive, nor its power or SoC matrix. Consecutive calls for one block
    # (the policy and the EDF reference) are one step.
    real, refs, stale, steps = cli._schedule, [], [], []

    def spy(policy, block, *rest):
        if not steps or steps[-1] != block[0]:
            steps.append(block[0])
        step = len(steps) - 1
        stale.extend((old, step) for old, ref in refs
                     if old <= step - 2 and ref() is not None)
        res = real(policy, block, *rest)
        refs.extend((step, weakref.ref(x)) for x in (res, res.power, res.soc))
        return res

    monkeypatch.setattr(cli, "_schedule", spy)
    assert run_cli(*argv, "--synth-days", "4", "--synth-sessions-per-day", "8",
                   "--synth-capacity-kwh", "5", "--out-dir", str(tmp_path / "out")) == 0
    assert len(steps) >= 3 and stale == []


@pytest.mark.parametrize("policy", POLICIES)
def test_station_cap_holds_across_midnight(tmp_path, policy):
    # night-a and night-d link the three days into one block, so every slot
    # is planned once: the stitched schedule keeps the cap and shift.csv
    # has one row per slot.
    (tmp_path / "sessions.csv").write_text(_OVERNIGHT_SESSIONS)
    argv = [str(tmp_path / a) if a == "sessions.csv" else a for a in _OVERNIGHT]
    out = tmp_path / "out"
    assert run_cli("simulate", "--policy", policy, *argv, "--out-dir", str(out)) == 0
    station = defaultdict(float)
    with open(out / "schedule.csv", newline="") as f:
        for row in csv.DictReader(f):
            station[int(row["slot"])] += float(row["power_kw"])
    assert max(station.values()) <= 7.5 + 1e-8
    slots = [line.split(",")[0]
             for line in (out / "shift.csv").read_text().splitlines()[1:]]
    assert len(slots) == len(set(slots))


def test_day_plans_join_days_that_a_session_links():
    D = DAY_SLOTS
    grid = make_grid(5)
    sessions = [
        make_session("e", 4 * D + 10, 4 * D + 100),
        make_session("d", 3 * D + 100, 4 * D),           # departs at midnight
        make_session("c", 2 * D + 20, 2 * D + 200),
        make_session("b", D + 100, 2 * D + 10),           # into day 2
        make_session("b0", D + 100, D + 200),
        make_session("a", 100, D + 50),                   # into day 1
    ]
    plans = cli._day_plans(sessions, grid)
    assert {day: (off, horizon) for day, (off, horizon, _) in plans.items()} \
        == {0: (0, 2 * D + 200), 3: (3 * D, D), 4: (4 * D, D)}
    assert [(s.id, s.t_arrival, s.t_depart) for s in plans[0][2]] == [
        ("a", 100, D + 50), ("b", D + 100, 2 * D + 10), ("b0", D + 100, D + 200),
        ("c", 2 * D + 20, 2 * D + 200)]
    assert [(s.id, s.t_arrival, s.t_depart) for s in plans[3][2]] == [("d", 100, D)]
    assert [(s.id, s.t_arrival, s.t_depart) for s in plans[4][2]] == [("e", 10, 100)]


@st.composite
def _overnight_sessions(draw):
    """Up to six sessions on a 3-day grid; the first arrives late in the
    evening of day 0 or 1 and stays past midnight."""
    D = DAY_SLOTS
    day = draw(st.integers(0, 1))
    spans = [(day * D + draw(st.integers(D - 60, D - 1)), draw(st.integers(61, 360)))]
    spans += draw(st.lists(st.tuples(st.integers(0, 3 * D - 1), st.integers(1, 360)),
                           max_size=5))
    return [make_session(f"s{i}", a, min(a + stay, 3 * D), 0.1, 0.9, capacity_kwh=20.0)
            for i, (a, stay) in enumerate(spans)]


@settings(max_examples=10, deadline=None)
@given(sessions=_overnight_sessions(), cap=st.sampled_from([7.5, 10.0]))
def test_stitched_schedule_keeps_the_cap(sessions, cap):
    grid = make_grid(3)
    intensity = duck_curve(grid)
    plans = cli._day_plans(sessions, grid)
    args = argparse.Namespace(power_cap_kw=cap, horizon=None)
    for policy in ("es", "edf", "carbon-offline"):
        station = np.zeros(grid.n_slots)
        for off, horizon, rel in plans.values():
            res = cli._schedule(policy, (off, horizon, rel), 100.0, args, intensity)
            station[off:off + len(res.station_power)] += res.station_power
        assert station.max() <= cap + 1e-8, policy


_STAMP_COLUMNS = {"timestamp", "arrival_ts", "depart_ts"}
_TEXT_COLUMNS = {"id", "session_id", "source", "timestamp"}


def _stamp(k: int) -> str:
    return (datetime(2021, 1, 29, tzinfo=timezone.utc)
            + timedelta(minutes=5 * k)).isoformat()


# Four valid days from 29 January: a two-source mix, its factors, the load
# and three sessions on the second day. The model forecast fits on the rows
# of the last three days, which span three weekdays and two months.
_D = DAY_SLOTS
_VALID_INPUTS = {
    "mix.csv": [["timestamp", "gas", "solar"]] + [
        [_stamp(k), "1000", str(max(0, 900 - 8 * abs(k % _D - 156)) + 7 * (k % 11))]
        for k in range(4 * _D)],
    "factors.csv": [["source", "kgco2_per_kwh"], ["gas", "0.4"], ["solar", "0.0"]],
    "load.csv": [["timestamp", "load_mw"]] + [
        [_stamp(k), f"{20000 + 3000 * math.sin(k / 40):.1f}"] for k in range(4 * _D)],
    "sessions.csv": [
        ["id", "arrival_ts", "depart_ts", "soc_arrival", "soc_target",
         "capacity_kwh", "power_max_kw"],
        ["a", _stamp(_D + 96), _stamp(_D + 180), "0.2", "0.8", "20", "7.5"],
        ["b", _stamp(_D + 100), _stamp(_D + 250), "0.1", "0.5", "50", "11"],
        ["c", _stamp(_D + 150), _stamp(_D + 200), "0.4", "0.9", "5", "3.7"]],
}


@st.composite
def _mutated_inputs(draw):
    """The valid inputs with up to four edits: a cell replaced by a naive
    or shifted stamp, nan, inf, a negative, empty or malformed number or
    another row's id; a row duplicated; two rows swapped; a row cut short
    or given an extra cell; a BOM; the file emptied."""
    files = {name: [row[:] for row in rows] for name, rows in _VALID_INPUTS.items()}
    boms, empty = set(), set()
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(files)))
        rows = files[name]
        r = draw(st.integers(1, len(rows) - 1))
        edit = draw(st.sampled_from(("cell", "duplicate", "swap", "short", "long",
                                     "bom", "empty")))
        if edit == "cell":
            c = draw(st.integers(0, min(len(rows[0]), len(rows[r])) - 1))
            col = rows[0][c]
            if col in _STAMP_COLUMNS:
                cell = draw(st.sampled_from((
                    rows[r][c][:-6], rows[r][c][:-6] + "+02:00", "", "noon")))
            elif col in _TEXT_COLUMNS:
                cell = draw(st.sampled_from(("", *(row[c] for row in rows[1:]))))
            else:
                cell = draw(st.sampled_from((
                    "nan", "inf", "-inf", "-1", "-0.5", "0", "", "x", "1e400")))
            rows[r][c] = cell
        elif edit == "duplicate":
            rows.insert(r, rows[r][:])
        elif edit == "swap":
            r2 = draw(st.integers(1, len(rows) - 1))
            rows[r], rows[r2] = rows[r2], rows[r]
        elif edit == "short":
            rows[r] = rows[r][:draw(st.integers(1, max(1, len(rows[r]) - 1)))]
        elif edit == "long":
            rows[r].append(draw(st.sampled_from(("", "1"))))
        elif edit == "bom":
            boms.add(name)
        else:
            empty.add(name)
    texts = {name: ("\ufeff" if name in boms else "") + ("" if name in empty else
             "".join(",".join(row) + "\n" for row in rows))
             for name, rows in files.items()}
    return texts


@st.composite
def _commands(draw):
    """A subcommand on the files, each numeric flag it takes at its
    default or at a bound."""
    command = draw(st.sampled_from((
        *(("simulate", "--policy", p) for p in POLICIES),
        ("simulate", "--policy", "carbon-online", "--online-forecast", "model",
         "--load", "load.csv"),
        ("lambda-sweep",), ("forecast",))))
    argv = [*command, "--mix", "mix.csv", "--factors", "factors.csv"]
    if command[0] != "forecast":
        argv += ["--sessions", "sessions.csv", *draw(st.sampled_from((
            (), ("--power-cap-kw", "1e-9"), ("--power-cap-kw", "12"),
            ("--power-cap-kw", "1e9"))))]
    if command[0] == "simulate":
        argv += ["--lambda", draw(st.sampled_from(("2", "0", "1e6")))]
    if command[:3] == ("simulate", "--policy", "carbon-online"):
        argv += draw(st.sampled_from(((), ("--horizon", "1"))))
    if command[0] == "lambda-sweep":
        argv += ["--lambdas", draw(st.sampled_from(("0.5,2", "0", "1e6", "0,1e6")))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in strict JSON")


def _rows(path):
    with open(path, newline="", encoding="utf-8-sig") as f:
        return [row for row in csv.DictReader(f) if any(row.values())]


def _audit_simulate(tmp, argv):
    """Judge a successful `simulate` run from its files and its input CSVs
    alone, with the defaults the README documents for an empty cell or an
    absent column: 50 kWh, 7.5 kW and an efficiency of 0.9."""
    eps = sys.float_info.epsilon
    cap = float(argv[argv.index("--power-cap-kw") + 1]) if "--power-cap-kw" in argv \
        else 180.0
    mix = _rows(tmp / "mix.csv")
    start = datetime.fromisoformat(mix[0]["timestamp"].strip())
    step = datetime.fromisoformat(mix[1]["timestamp"].strip()) - start
    hours = step / timedelta(hours=1)
    sessions = {}
    for row in _rows(tmp / "sessions.csv"):
        arrival, depart = (datetime.fromisoformat(row[c].strip())
                           for c in ("arrival_ts", "depart_ts"))
        capacity, power_max = (float(row[c]) if row[c].strip() else default
                               for c, default in (("capacity_kwh", 50.0),
                                                  ("power_max_kw", 7.5)))
        # the window snapped inwards: arrival up, departure down to a slot
        sessions[row["id"].strip()] = dict(
            lo=-((start - arrival) // step), hi=(depart - start) // step,
            soc=float(row["soc_arrival"]), target=float(row["soc_target"]),
            capacity=capacity, power_max=power_max)

    schedule = _rows(tmp / "out" / "schedule.csv")
    station, rows_of = defaultdict(float), defaultdict(list)
    for row in schedule:
        slot, power = int(row["slot"]), float(row["power_kw"])
        station[slot] += power
        rows_of[row["session_id"]].append((slot, power, float(row["soc"])))
    assert max(station.values(), default=0.0) <= cap + 1e-8
    energy = 0.0
    for sid, rows in rows_of.items():
        s = sessions[sid]
        soc = s["soc"]
        # A written SoC is the arrival SoC plus a running sum of k powers
        # times efficiency / capacity. The power that reaches the target is
        # the request less the slot loop's running SoC, or less the LP's
        # earlier columns (a multiple of the power limit), times capacity /
        # efficiency. Each running sum errs by at most k roundings of a SoC
        # <= 1, and each product or difference by one more, so a SoC that
        # should end on its target ends at most (2 k + 4) eps past it.
        bound = (2 * len(rows) + 4) * eps
        for slot, power, after in sorted(rows):
            assert s["lo"] <= slot < s["hi"], (sid, slot)
            assert power <= s["power_max"], (sid, slot, power)
            assert soc <= after <= s["target"] + bound, (sid, slot, soc, after)
            soc = after
            energy += power * 0.9 * hours
    shift = _rows(tmp / "out" / "shift.csv")
    slots = [int(row["slot"]) for row in shift]
    assert slots == sorted(set(slots))
    assert all(datetime.fromisoformat(row["timestamp"]) == start + int(row["slot"]) * step
               for row in shift)

    report = json.loads((tmp / "out" / "report.json").read_text())
    assert all(edq <= 1.0 for edq in (
        report["edq_station"], report["edq_session"],
        *(row["edq_station"] for row in report["per_day"]),
        *(b["edq_station"] for b in report["per_season"].values())))
    # Each side sums the same terms in its own order, and a sum of n terms
    # errs by at most n roundings (eps / 2 each) of the sum of their
    # magnitudes. Emissions: the n slot products, each rounded once more on
    # one side, summed per block and then over blocks. Energy: per session
    # a running sum of its k rows plus a few products, then a sum over the
    # m sessions, against the sum of n row products; a session gains at
    # most its capacity, since its SoC stays in [0, 1].
    kg = [float(row["policy_kg"]) for row in shift]
    assert abs(report["total_emissions_kg"] - sum(kg)) \
        <= (len(kg) + 4) * eps * sum(map(abs, kg))
    assert abs(report["energy_delivered_kwh"] - energy) \
        <= (len(schedule) + len(rows_of) + 4) * eps * sum(
            sessions[sid]["capacity"] for sid in rows_of)


@pytest.mark.parametrize("cap", ["12", "180"])
@pytest.mark.parametrize("policy", POLICIES)
def test_valid_inputs_pass_the_audit(tmp_path, policy, cap):
    # Every session charges to its target where it can. Sessions a and b
    # overlap with 18.5 kW of limits, so a 12 kW cap binds; under 180 kW
    # the LP needs no HiGHS run.
    for name, rows in _VALID_INPUTS.items():
        (tmp_path / name).write_text("".join(",".join(row) + "\n" for row in rows))
    argv = ["simulate", "--policy", policy, "--power-cap-kw", cap, "--lambda", "1e6"]
    assert main([*argv, *(a if a.startswith("--") else str(tmp_path / a) for a in (
        "--mix", "mix.csv", "--factors", "factors.csv", "--sessions", "sessions.csv",
        "--out-dir", "out"))]) == 0
    _audit_simulate(tmp_path, argv)


@settings(max_examples=100, deadline=None)
@given(_mutated_inputs(), _commands())
def test_mutated_inputs_exit_cleanly(texts, argv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in texts.items():
            (tmp / name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(tmp / a) if a.endswith(".csv") else a for a in argv]
                        + ["--out-dir", str(tmp / "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            # one line of error, and no output
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert not (tmp / "out").exists()
            return
        if argv[0] == "simulate":
            _audit_simulate(tmp, argv)
        for path in (tmp / "out").glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
        for path in (tmp / "out").glob("*.csv"):
            with open(path, newline="") as f:
                for row in csv.DictReader(f):
                    for col, cell in row.items():
                        if col not in _TEXT_COLUMNS:
                            assert math.isfinite(float(cell)), (path.name, col, cell)
