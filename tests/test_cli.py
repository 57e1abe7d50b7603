import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from carbonsched import ingest
from carbonsched.cli import main

from conftest import DAY_SLOTS, make_grid, make_session


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
        out = tmp_path / "out"
        code = run_cli("simulate", "--policy", "carbon-adaptive",
                       "--synth-days", "1", "--synth-sessions-per-day", "6",
                       "--synth-capacity-kwh", "5", "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["policy"] == "carbon-adaptive"

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
        # day 0 has no 24 h of observed intensity before its first session,
        # so the model forecast cannot start there (an open defect)
        code = run_cli("simulate", "--policy", "carbon-online",
                       "--online-forecast", "model", "--synth-days", "60",
                       "--synth-sessions-per-day", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert "rollout needs 288 observed slots, got " in err
        assert "Traceback" not in err


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


class TestForecastCommand:
    def test_fits_and_reports(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("forecast", "--synth-days", "60", "--out-dir", str(out))
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert len(model["beta"]) == 9
        stats = json.loads((out / "forecast_metrics.json").read_text())
        assert stats["mae"] >= 0.0

    def test_too_little_history_exits_1(self, tmp_path):
        # one synthetic day leaves no rows after warm-up
        code = run_cli("forecast", "--synth-days", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1


def test_console_entry_point():
    # the new interpreter finds the package in src/ even without an install
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "carbonsched.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
