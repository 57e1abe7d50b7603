"""Command-line interface.

Subcommands:
  simulate      run one charging policy day by day and write reports
  lambda-sweep  emissions / energy-loss trade-off across balanced factors
  forecast      fit the day-ahead intensity model and report held-out error

Exit codes: 0 success, 1 input error, 2 numerical (solver) failure.
When --mix/--factors or --sessions are omitted, synthetic data matching
the built-in generators is used so every subcommand runs standalone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import baselines, carbon, forecast, ingest, metrics, online, scheduler
from .errors import CarbonSchedError, NumericalFailure
from .timegrid import TimeGrid

POLICIES = ("carbon-offline", "carbon-online", "es", "edf", "tou", "carbon-adaptive")

TOU_OFFPEAK = 0.25  # $/kWh before 16:00
TOU_PEAK = 0.55     # $/kWh from 16:00


class _Parser(argparse.ArgumentParser):
    # Input errors (including unknown flags/policies) must exit 1, not
    # argparse's default 2, which is reserved for solver failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("CARBON_SCHED_THREADS", "1")))
    except ValueError:
        return 1


def _load_intensity(args) -> carbon.CarbonIntensitySeries:
    if args.mix and args.factors:
        with open(args.mix, "rb") as mf, open(args.factors, "rb") as ff:
            mix = ingest.parse_grid_mix(mf, ff)
        if getattr(args, "exclude_negative", False):
            mix = mix.drop_negative_sources()
        return carbon.compute_intensity(mix)
    if args.mix or args.factors:
        raise CarbonSchedError("--mix and --factors must be given together")
    mix = ingest.synth_grid_mix(args.synth_days, seed=args.seed)
    return carbon.compute_intensity(mix)


def _grid_of(series: carbon.CarbonIntensitySeries) -> TimeGrid:
    return TimeGrid(series.timestamps[0], series.slot_minutes,
                    len(series.timestamps))


def _load_sessions(args, grid: TimeGrid) -> list[ingest.ChargingSession]:
    if args.sessions:
        with open(args.sessions, "rb") as f:
            return ingest.parse_sessions(f, grid)
    n_days = max(1, int(grid.n_slots * grid.slot_minutes) // 1440)
    return ingest.synth_sessions(args.synth_sessions_per_day * n_days, grid,
                                 seed=args.seed,
                                 capacity_kwh=args.synth_capacity_kwh)


def _load_load(args, timestamps) -> ingest.LoadForecastSeries:
    if args.load:
        with open(args.load, "rb") as f:
            return ingest.parse_load(f)
    hours = np.array([ts.hour + ts.minute / 60.0 for ts in timestamps])
    rng = np.random.default_rng(args.seed + 1)
    load = 24000.0 + 4000.0 * np.sin(2 * np.pi * (hours - 17.0) / 24.0) \
        + rng.normal(0, 150.0, size=len(timestamps))
    return ingest.LoadForecastSeries(tuple(timestamps), np.maximum(load, 1.0))


def _tou_prices(timestamps, offset: int, n: int) -> np.ndarray:
    ts = timestamps[offset:offset + n]
    return np.array([TOU_PEAK if t.hour >= 16 else TOU_OFFPEAK for t in ts])


def _split_days(sessions, slots_per_day: int) -> dict[int, list]:
    days: dict[int, list] = {}
    for s in sessions:
        days.setdefault(s.t_arrival // slots_per_day, []).append(s)
    return days


def _day_plan(day: int, day_sessions, slots_per_day: int, n_slots: int):
    """Day-relative sessions plus the day's horizon (sessions may run past
    midnight; the horizon extends to cover them)."""
    off = day * slots_per_day
    horizon = max(slots_per_day, max(s.t_depart for s in day_sessions) - off)
    horizon = min(horizon, n_slots - off)
    rel = [replace(s, t_arrival=s.t_arrival - off,
                   t_depart=min(s.t_depart - off, horizon))
           for s in day_sessions]
    return off, horizon, rel


def _run_policy_day(policy, rel, values, off, horizon, lam, args, grid,
                    timestamps, intensity, model_forecaster, log):
    cvals = values[off:off + horizon]
    config = scheduler.StationConfig(args.power_cap_kw, grid.slot_hours, lam, horizon)
    if policy == "es":
        return baselines.equal_sharing(rel, config, cvals)
    if policy == "edf":
        return baselines.earliest_deadline_first(rel, config, cvals)
    if policy == "tou":
        return scheduler.tou_schedule(rel, _tou_prices(timestamps, off, horizon),
                                      config, carbon=cvals)
    if policy in ("carbon-offline", "carbon-adaptive"):
        return scheduler.carbon_schedule(rel, cvals, config)
    if policy == "carbon-online":
        lookahead = scheduler.StationConfig(args.power_cap_kw, grid.slot_hours,
                                            lam, args.horizon)
        if args.online_forecast == "model":
            fc = online.ModelForecaster(model_forecaster[0], intensity,
                                        model_forecaster[1], sim_start=off)
        else:
            fc = online.PerfectForecaster(values[off:],
                                          1440 // grid.slot_minutes)
        return online.run_online(rel, fc, cvals, lookahead, horizon, log_out=log)
    raise CarbonSchedError(f"unknown policy {policy!r}")


def _aggregate(day_results, season_of_day):
    """Merge per-day (sessions, result) pairs into report-level numbers."""
    totals = {"emissions_kg": 0.0, "energy_kwh": 0.0,
              "delivered_soc": 0.0, "requested_soc": 0.0}
    ratios = []
    per_day = []
    per_season: dict[str, dict] = {}
    for day in sorted(day_results):
        sess, res = day_results[day]
        delivered = [abs(res.soc[i, -1] - s.soc_arrival) for i, s in enumerate(sess)]
        requested = [abs(s.soc_target - s.soc_arrival) for s in sess]
        totals["emissions_kg"] += res.emissions_kg
        totals["energy_kwh"] += res.delivered_kwh(sess)
        totals["delivered_soc"] += sum(delivered)
        totals["requested_soc"] += sum(requested)
        ratios.extend(d / r if r > 1e-12 else 1.0
                      for d, r in zip(delivered, requested))
        day_edq = (sum(delivered) / sum(requested)
                   if sum(requested) > 1e-12 else 1.0)
        per_day.append({"day": day, "n_sessions": len(sess),
                        "emissions_kg": res.emissions_kg,
                        "edq_station": day_edq})
        season = season_of_day(day)
        bucket = per_season.setdefault(
            season, {"emissions_kg": 0.0, "delivered_soc": 0.0,
                     "requested_soc": 0.0, "days": 0})
        bucket["emissions_kg"] += res.emissions_kg
        bucket["delivered_soc"] += sum(delivered)
        bucket["requested_soc"] += sum(requested)
        bucket["days"] += 1
    n = len(ratios)
    season_out = {
        name: {"emissions_kg": b["emissions_kg"], "days": b["days"],
               "edq_station": (b["delivered_soc"] / b["requested_soc"]
                               if b["requested_soc"] > 1e-12 else 1.0)}
        for name, b in sorted(per_season.items())}
    report = {
        "total_emissions_kg": totals["emissions_kg"],
        "emissions_per_session_kg": totals["emissions_kg"] / n if n else 0.0,
        "edq_station": (totals["delivered_soc"] / totals["requested_soc"]
                        if totals["requested_soc"] > 1e-12 else 1.0),
        "edq_session": float(np.mean(ratios)) if ratios else 1.0,
        "energy_delivered_kwh": totals["energy_kwh"],
        "n_sessions": n,
        "per_season": season_out,
    }
    return report, per_day


def cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    intensity = _load_intensity(args)
    grid = _grid_of(intensity)
    timestamps = grid.timestamps()
    sessions = _load_sessions(args, grid)
    slots_per_day = 1440 // grid.slot_minutes
    days = _split_days(sessions, slots_per_day)

    model_forecaster = None
    if args.policy == "carbon-online" and args.online_forecast == "model":
        load = _load_load(args, timestamps)
        rows = forecast.build_features(intensity, load)
        model, _, _ = forecast.fit(rows, seed=args.seed)
        model_forecaster = (model, load)

    def run_day(day, log=None):
        sess = sorted(days[day], key=lambda s: (s.t_arrival, s.id))
        off, horizon, rel = _day_plan(day, sess, slots_per_day, grid.n_slots)
        lam = (scheduler.select_lambda(len(rel))
               if args.policy == "carbon-adaptive" else args.lam)
        res = _run_policy_day(args.policy, rel, intensity.values, off, horizon,
                              lam, args, grid, timestamps, intensity,
                              model_forecaster, log)
        base = baselines.earliest_deadline_first(
            rel, scheduler.StationConfig(args.power_cap_kw, grid.slot_hours,
                                         lam, horizon),
            intensity.values[off:off + horizon])
        return day, (rel, res), base

    results, edf_results = {}, {}
    workers = _thread_count()
    if workers > 1 and args.policy != "carbon-online":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for day, pair, base in pool.map(run_day, sorted(days)):
                results[day], edf_results[day] = pair, base
    else:
        # The online policy appends every day to one decision log, so it
        # stays sequential.
        with (open(out_dir / "decisions.csv", "w", newline="")
              if args.policy == "carbon-online"
              else contextlib.nullcontext()) as log:
            if log:
                csv.writer(log).writerow(online.DECISION_LOG_HEADER)
            for day in sorted(days):
                day, pair, base = run_day(day, log)
                results[day], edf_results[day] = pair, base

    def season_of_day(day: int) -> str:
        ts = timestamps[day * slots_per_day]
        for name, months in carbon.MET_SEASONS.items():
            if ts.month in months:
                return name
        return "unknown"

    report, per_day = _aggregate(results, season_of_day)
    report.update({"policy": args.policy, "lambda": args.lam, "seed": args.seed,
                   "per_day": per_day})

    with open(out_dir / "report.json", "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")

    with open(out_dir / "schedule.csv", "w", newline="") as f:
        f.write("session_id,slot,power_kw,soc\n")
        for day in sorted(results):
            rel, res = results[day]
            off = day * slots_per_day
            for i, s in enumerate(rel):
                for t in range(s.t_arrival, s.t_depart):
                    f.write(f"{s.id},{off + t},{float(res.power[i, t])!r},"
                            f"{float(res.soc[i, t + 1])!r}\n")

    with open(out_dir / "shift.csv", "w", newline="") as f:
        f.write("slot,timestamp,policy_kg,baseline_edf_kg\n")
        for day in sorted(results):
            _, res = results[day]
            base = edf_results[day]
            off = day * slots_per_day
            horizon = res.power.shape[1]
            cvals = intensity.values[off:off + horizon]
            pol = cvals * res.station_power * grid.slot_hours
            ref = cvals * base.station_power * grid.slot_hours
            for t in range(horizon):
                f.write(f"{off + t},{timestamps[off + t].isoformat()},"
                        f"{float(pol[t])!r},{float(ref[t])!r}\n")
    return 0


def cmd_lambda_sweep(args) -> int:
    if not args.lambdas:
        raise CarbonSchedError("empty lambda list")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    intensity = _load_intensity(args)
    grid = _grid_of(intensity)
    sessions = _load_sessions(args, grid)
    slots_per_day = 1440 // grid.slot_minutes
    days = _split_days(sessions, slots_per_day)

    rows = []
    for lam in args.lambdas:
        emissions = 0.0
        delivered = requested = 0.0
        for day in sorted(days):
            sess = sorted(days[day], key=lambda s: (s.t_arrival, s.id))
            off, horizon, rel = _day_plan(day, sess, slots_per_day, grid.n_slots)
            config = scheduler.StationConfig(args.power_cap_kw, grid.slot_hours,
                                             lam, horizon)
            res = scheduler.carbon_schedule(rel, intensity.values[off:off + horizon],
                                            config)
            emissions += res.emissions_kg
            delivered += sum(abs(res.soc[i, -1] - s.soc_arrival)
                             for i, s in enumerate(rel))
            requested += sum(abs(s.soc_target - s.soc_arrival) for s in rel)
        loss_pct = 100.0 * (1.0 - delivered / requested) if requested > 0 else 0.0
        rows.append((lam, emissions, loss_pct))

    with open(out_dir / "tradeoff.csv", "w", newline="") as f:
        f.write("lambda,emissions_kg,energy_loss_pct\n")
        for lam, em, loss in rows:
            f.write(f"{float(lam)!r},{float(em)!r},{float(loss)!r}\n")
    return 0


def cmd_forecast(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    intensity = _load_intensity(args)
    grid = _grid_of(intensity)
    load = _load_load(args, grid.timestamps())
    rows = forecast.build_features(intensity, load)
    model, mae, mse = forecast.fit(rows, seed=args.seed)
    with open(out_dir / "model.json", "w") as f:
        forecast.save_model(model, f)
        f.write("\n")
    with open(out_dir / "forecast_metrics.json", "w") as f:
        json.dump({"mae": mae, "mse": mse, "n_rows": len(rows)}, f,
                  sort_keys=True, indent=2)
        f.write("\n")
    print(f"held-out MAE={mae:.6f} MSE={mse:.8f} over {len(rows)} rows")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mix", help="fuel-mix CSV (timestamp,<source>,... in MW)")
    p.add_argument("--factors", help="emission-factor CSV (source,kgco2_per_kwh)")
    p.add_argument("--sessions", help="charging sessions CSV")
    p.add_argument("--load", help="load-forecast CSV (timestamp,load_mw)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--power-cap-kw", type=float, default=180.0)
    p.add_argument("--exclude-negative", action="store_true",
                   help="zero out negative generation readings")
    p.add_argument("--synth-days", type=int, default=1,
                   help="days of synthetic data when --mix is omitted")
    p.add_argument("--synth-sessions-per-day", type=int, default=20)
    p.add_argument("--synth-capacity-kwh", type=float,
                   default=ingest.DEFAULT_CAPACITY_KWH)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="carbon-sched",
                     description="Carbon-aware EV charging scheduler")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy day by day")
    _add_common(sim)
    sim.add_argument("--policy", choices=POLICIES, required=True)
    sim.add_argument("--lambda", dest="lam", type=float, default=0.3,
                     help="balanced factor trading emissions vs delivery")
    sim.add_argument("--horizon", type=int, default=288,
                     help="online lookahead length in slots")
    sim.add_argument("--online-forecast", choices=("perfect", "model"),
                     default="perfect")

    sweep = sub.add_parser("lambda-sweep", help="emissions/energy trade-off")
    _add_common(sweep)
    sweep.add_argument("--lambdas", type=lambda s: [float(x) for x in s.split(",") if x],
                       required=True, help="comma-separated balanced factors")

    fc = sub.add_parser("forecast", help="fit the day-ahead intensity model")
    _add_common(fc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "lambda-sweep":
            return cmd_lambda_sweep(args)
        return cmd_forecast(args)
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CarbonSchedError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
