"""Timed calls of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED INPUT_DIR OUT_DIR RESULT_JSON SECONDS [--trace]

run.py starts it with src/ on PYTHONPATH and the thread counts pinned to
one. The child times the import of carbonsched, then makes timed calls of
the workload until SECONDS are used (at least one), with the calibration
workload (calib.py) timed before the first call and after each call.
Each call's report.json lands in OUT_DIR and is checked before the next
call. RESULT_JSON gets the import time, the calibration times, the peak
RSS and, per call, the wall time, the per-decision latencies, the check's
finding, the report's sha256 and, with --trace, the recorded spans.
"""

import time

_T0 = time.perf_counter()
import carbonsched.cli  # noqa: E402  (brings numpy and scipy with it)

IMPORT_S = time.perf_counter() - _T0

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from carbonsched import carbon, forecast, ingest, online, scheduler  # noqa: E402
from carbonsched.timegrid import TimeGrid  # noqa: E402

import calib  # noqa: E402
from spans import StepClock, Tracer  # noqa: E402
from workloads import SLOTS_PER_DAY, WORKLOADS, Workload  # noqa: E402

MAX_VIOLATION = 1e-8


def cli_argv(w: Workload, seed: int, inputs: Path, out_dir: Path) -> list[str]:
    return ["simulate", *w.cli_args,
            "--mix", str(inputs / "mix.csv"), "--factors", str(inputs / "factors.csv"),
            "--sessions", str(inputs / "sessions.csv"),
            "--lambda", repr(w.lam), "--power-cap-kw", repr(w.power_cap_kw),
            "--seed", str(seed), "--out-dir", str(out_dir)]


def model_online(w: Workload, seed: int, inputs: Path):
    """Load the inputs, fit the forecaster on the warm-up prefix, then run
    the online controller with the model forecast over the simulated span.
    This is the timed call of the library workload."""
    with open(inputs / "mix.csv", "rb") as mf, open(inputs / "factors.csv", "rb") as ff:
        intensity = carbon.compute_intensity(ingest.parse_grid_mix(mf, ff))
    with open(inputs / "load.csv", "rb") as f:
        load = ingest.parse_load(f)
    sim_start = w.warmup_days * SLOTS_PER_DAY
    n_slots = w.days * SLOTS_PER_DAY
    grid = TimeGrid(intensity.timestamps[sim_start], intensity.slot_minutes, n_slots)
    with open(inputs / "sessions.csv", "rb") as f:
        sessions = ingest.parse_sessions(f, grid)
    rows = forecast.build_features(
        carbon.CarbonIntensitySeries(intensity.timestamps[:sim_start],
                                     intensity.values[:sim_start]),
        ingest.LoadForecastSeries(load.timestamps[:sim_start], load.load_mw[:sim_start]))
    model, _, _ = forecast.fit(rows, seed=seed)
    fc = online.ModelForecaster(model, intensity, load, sim_start=sim_start)
    lookahead = scheduler.StationConfig(w.power_cap_kw, grid.slot_hours, w.lam,
                                        SLOTS_PER_DAY)
    result = online.run_online(sessions, fc, intensity.values[sim_start:],
                               lookahead, n_slots)
    return sessions, result, scheduler.StationConfig(
        w.power_cap_kw, grid.slot_hours, w.lam, n_slots)


def model_report(sessions, result, config) -> dict:
    """report.json of the library workload, with the fields the CLI's
    report has for the same checks, plus the schedule's constraint audit."""
    delivered = sum(abs(result.soc[i, -1] - s.soc_arrival) for i, s in enumerate(sessions))
    requested = sum(abs(s.soc_target - s.soc_arrival) for s in sessions)
    return {
        "n_sessions": len(sessions),
        "edq_station": delivered / requested if requested > 1e-12 else 1.0,
        "total_emissions_kg": result.emissions_kg,
        "objective": result.objective,
        "energy_delivered_kwh": result.delivered_kwh(sessions),
        "max_constraint_violation": scheduler.max_constraint_violation(
            result, sessions, config),
    }


def all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(all_finite(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def check_report(path: Path, n_sessions: int) -> tuple[str | None, str | None]:
    """(problem or None, sha256 of report.json or None)."""
    try:
        raw = path.read_bytes()
    except OSError:
        return "no report.json", None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        report = json.loads(raw)
    except ValueError:
        return "report.json does not parse", digest
    if not all_finite(report):
        return "non-finite number in report.json", digest
    if report.get("n_sessions") != n_sessions:
        return f"n_sessions {report.get('n_sessions')} != {n_sessions}", digest
    edq = report.get("edq_station")
    if not isinstance(edq, (int, float)) or not 0.0 <= edq <= 1.0:
        return f"edq_station {edq} outside [0, 1]", digest
    violation = report.get("max_constraint_violation", 0.0)
    if violation > MAX_VIOLATION:
        return f"max_constraint_violation {violation} > {MAX_VIOLATION}", digest
    return None, digest


def non_numeric_cells(out_dir: Path) -> dict[str, int]:
    """Cells of the numeric CSV columns that do not parse as plain numbers."""
    columns = {"schedule.csv": ("slot", "power_kw", "soc"),
               "shift.csv": ("slot", "policy_kg", "baseline_edf_kg")}
    counts = {}
    for name, numeric in columns.items():
        bad = 0
        with open(out_dir / name, newline="") as f:
            for row in csv.DictReader(f):
                for col in numeric:
                    try:
                        float(row[col])
                    except ValueError:
                        bad += 1
        counts[name] = bad
    return counts


def timed_call(w: Workload, seed: int, inputs: Path, out_dir: Path) -> tuple[int, float]:
    """One call of the workload; (exit status, wall seconds)."""
    if w.cli_args is not None:
        argv_cli = cli_argv(w, seed, inputs, out_dir)
        t0 = time.perf_counter()
        rc = carbonsched.cli.main(argv_cli)
        return rc, time.perf_counter() - t0
    t0 = time.perf_counter()
    sessions, result, config = model_online(w, seed, inputs)
    wall = time.perf_counter() - t0
    out_dir.mkdir(parents=True)
    with open(out_dir / "report.json", "w") as f:
        json.dump(model_report(sessions, result, config), f, sort_keys=True, indent=2)
        f.write("\n")
    return 0, wall


def main(argv: list[str]) -> int:
    name, seed, inputs, out_dir, result_path, seconds = argv[:6]
    w, seed, seconds = WORKLOADS[name], int(seed), float(seconds)
    inputs, out_dir = Path(inputs), Path(out_dir)
    tracer = Tracer() if "--trace" in argv[6:] else None
    clock = StepClock()
    clock.install(w.online)
    if tracer:
        tracer.install()

    calib.run()                      # warm-up: HiGHS and numpy first-call costs
    cals = [calib.run()]
    calls, cells, rc = [], None, 0
    t_end = time.perf_counter() + seconds
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        clock.steps.clear()
        if tracer:
            tracer.spans.clear()
        t0 = time.perf_counter()
        rc, wall = timed_call(w, seed, inputs, out_dir)
        problem, digest = check_report(out_dir / "report.json", w.n_sessions)
        if rc != 0:
            problem = f"exit status {rc}"
        if cells is None and problem is None and w.cli_args is not None:
            cells = non_numeric_cells(out_dir)
        cals.append(calib.run())
        call = {"wall_s": wall, "steps_s": list(clock.steps),
                "problem": problem, "sha256": digest}
        if tracer:
            call["spans"] = [list(sp) for sp in tracer.spans]
        calls.append(call)
        if problem or time.perf_counter() + (time.perf_counter() - t0) > t_end:
            break

    out = {
        "import_s": IMPORT_S,
        "cal_s": cals,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "non_numeric_cells": cells,
        "absent": tracer.absent if tracer else [],
    }
    with open(result_path, "w") as f:
        json.dump(out, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
