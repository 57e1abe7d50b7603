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
import sys
from dataclasses import replace
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


def _day_plans(sessions, grid: TimeGrid) -> dict[int, tuple[int, int, list]]:
    """Per day with arrivals: its first absolute slot, its horizon and its
    sessions relative to that slot, ordered by arrival then id. Sessions
    may run past midnight; the horizon extends to cover them."""
    slots_per_day = 1440 // grid.slot_minutes
    days: dict[int, list] = {}
    for s in sessions:
        days.setdefault(s.t_arrival // slots_per_day, []).append(s)
    plans = {}
    for day in sorted(days):
        sess = sorted(days[day], key=lambda s: (s.t_arrival, s.id))
        off = day * slots_per_day
        horizon = max(slots_per_day, max(s.t_depart for s in sess) - off)
        horizon = min(horizon, grid.n_slots - off)
        plans[day] = off, horizon, [
            replace(s, t_arrival=s.t_arrival - off,
                    t_depart=min(s.t_depart - off, horizon))
            for s in sess]
    return plans


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
        return online.run_online(rel, fc, cvals, lookahead, horizon,
                                 log_out=log, slot_offset=off)
    raise CarbonSchedError(f"unknown policy {policy!r}")


def cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    intensity = _load_intensity(args)
    grid = _grid_of(intensity)
    timestamps = grid.timestamps()
    plans = _day_plans(_load_sessions(args, grid), grid)

    model_forecaster = None
    if args.policy == "carbon-online" and args.online_forecast == "model":
        load = _load_load(args, timestamps)
        model, _, _ = forecast.fit(forecast.build_features(intensity, load),
                                   seed=args.seed)
        model_forecaster = (model, load)

    results, edf_results = {}, {}
    with (open(out_dir / "decisions.csv", "w", newline="")
          if args.policy == "carbon-online"
          else contextlib.nullcontext()) as log:
        if log:
            csv.writer(log).writerow(online.DECISION_LOG_HEADER)
        for day, (off, horizon, rel) in plans.items():
            lam = (scheduler.select_lambda(len(rel))
                   if args.policy == "carbon-adaptive" else args.lam)
            results[day] = rel, _run_policy_day(
                args.policy, rel, intensity.values, off, horizon, lam, args,
                grid, timestamps, intensity, model_forecaster, log)
            edf_results[day] = baselines.earliest_deadline_first(
                rel, scheduler.StationConfig(args.power_cap_kw, grid.slot_hours,
                                             lam, horizon),
                intensity.values[off:off + horizon])

    def season_of_day(day: int) -> str:
        ts = timestamps[plans[day][0]]
        for name, months in carbon.MET_SEASONS.items():
            if ts.month in months:
                return name
        return "unknown"

    report = metrics.make_report(args.policy, results, season_of_day).to_dict()
    report.update({"lambda": args.lam, "seed": args.seed})

    with open(out_dir / "report.json", "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")

    with open(out_dir / "schedule.csv", "w", newline="") as f:
        f.write("session_id,slot,power_kw,soc\n")
        for day, (rel, res) in results.items():
            off = plans[day][0]
            for i, s in enumerate(rel):
                for t in range(s.t_arrival, s.t_depart):
                    f.write(f"{s.id},{off + t},{float(res.power[i, t])!r},"
                            f"{float(res.soc[i, t + 1])!r}\n")

    with open(out_dir / "shift.csv", "w", newline="") as f:
        f.write("slot,timestamp,policy_kg,baseline_edf_kg\n")
        for day, (off, horizon, _) in plans.items():
            cvals = intensity.values[off:off + horizon]
            pol = cvals * results[day][1].station_power * grid.slot_hours
            ref = cvals * edf_results[day].station_power * grid.slot_hours
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
    plans = _day_plans(_load_sessions(args, grid), grid)

    rows = []
    for lam in args.lambdas:
        results = {
            day: (rel, scheduler.carbon_schedule(
                rel, intensity.values[off:off + horizon],
                scheduler.StationConfig(args.power_cap_kw, grid.slot_hours,
                                        lam, horizon)))
            for day, (off, horizon, rel) in plans.items()}
        report = metrics.make_report("carbon-offline", results)
        rows.append((lam, report.total_emissions_kg,
                     100.0 * (1.0 - report.edq_station)))

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
    X, y = forecast.build_features(intensity, load)
    model, mae, mse = forecast.fit((X, y), seed=args.seed)
    with open(out_dir / "model.json", "w") as f:
        forecast.save_model(model, f)
        f.write("\n")
    with open(out_dir / "forecast_metrics.json", "w") as f:
        json.dump({"mae": mae, "mse": mse, "n_rows": len(y)}, f,
                  sort_keys=True, indent=2)
        f.write("\n")
    print(f"held-out MAE={mae:.6f} MSE={mse:.8f} over {len(y)} rows")
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
