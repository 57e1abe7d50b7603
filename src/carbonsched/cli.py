"""Command-line interface.

Subcommands:
  simulate      run one charging policy day by day and write reports
  lambda-sweep  emissions / energy-loss trade-off across balanced factors
  forecast      fit the day-ahead intensity model and report held-out error

Exit codes: 0 success, 1 input error or out of memory, 2 numerical (solver) failure.
When --mix/--factors or --sessions are omitted, synthetic data matching
the built-in generators is used so every subcommand runs standalone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, carbon, forecast, ingest, metrics, online, scheduler
from .errors import CarbonSchedError, InsufficientHistory, NumericalFailure
from .timegrid import TimeGrid

POLICIES = ("carbon-offline", "carbon-online", "es", "edf", "tou", "carbon-adaptive")

TOU_OFFPEAK = 0.25  # $/kWh before 16:00
TOU_PEAK = 0.55     # $/kWh from 16:00


class _Parser(argparse.ArgumentParser):
    # Input errors (including unknown flags/policies) must exit 1, not
    # argparse's default 2, which is reserved for solver failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@contextlib.contextmanager
def _named(flag: str, path: str | None):
    """An error in the file at `path` is found in `flag path`: an OSError
    becomes an input error, and an input error found in `path` or in no
    named input is renamed, unless there is no `path` (synthetic data)."""
    try:
        yield
    except OSError as exc:
        error = CarbonSchedError(exc.strerror)
        error.where = f"{flag} {path}"
        raise error from exc
    except CarbonSchedError as exc:
        if path and exc.where in (None, path):
            exc.where = f"{flag} {path}"
        raise


@contextlib.contextmanager
def _input(flag: str, path: str):
    """The file at `path`, opened for a parser, under `_named`."""
    with _named(flag, path), open(path, "rb") as f:
        yield f


def _write(args, outputs: dict[str, list[str]]) -> None:
    """Write each of `outputs`, a file name to its texts, in --out-dir, made
    if it is missing; an OSError names --out-dir and the directory or the file."""
    with _named("--out-dir", args.out_dir):
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    for name, parts in outputs.items():
        path = str(Path(args.out_dir) / name)
        with _named("--out-dir", path), open(path, "w", newline="") as f:
            f.writelines(parts)


def _load_intensity(args) -> carbon.CarbonIntensitySeries:
    if bool(args.mix) != bool(args.factors):
        raise CarbonSchedError("--mix and --factors must be given together")
    with _named("--mix", args.mix):
        if args.mix:
            with _input("--mix", args.mix) as mf, _input("--factors", args.factors) as ff:
                mix = ingest.parse_grid_mix(mf, ff)
            if args.exclude_negative:
                mix = replace(mix, power=np.maximum(mix.power, 0.0))
        else:
            mix = ingest.synth_grid_mix(args.synth_days, seed=args.seed)
        return carbon.compute_intensity(mix)


def _grid_of(series: carbon.CarbonIntensitySeries) -> TimeGrid:
    return TimeGrid(series.timestamps[0], series.slot_minutes,
                    len(series.timestamps))


def _load_sessions(args, grid: TimeGrid) -> list[ingest.ChargingSession]:
    if args.sessions:
        with _input("--sessions", args.sessions) as f:
            return ingest.parse_sessions(f, grid)
    n_days = max(1, int(grid.n_slots * grid.slot_minutes) // 1440)
    return ingest.synth_sessions(args.synth_sessions_per_day * n_days, grid,
                                 seed=args.seed,
                                 capacity_kwh=args.synth_capacity_kwh)


def _load_load(args, timestamps) -> ingest.LoadForecastSeries:
    if args.load:
        with _input("--load", args.load) as f:
            return ingest.parse_load(f)
    hours = np.array([ts.hour + ts.minute / 60.0 for ts in timestamps])
    rng = np.random.default_rng(args.seed + 1)
    load = 24000.0 + 4000.0 * np.sin(2 * np.pi * (hours - 17.0) / 24.0) \
        + rng.normal(0, 150.0, size=len(timestamps))
    return ingest.LoadForecastSeries(tuple(timestamps), np.maximum(load, 1.0))


def _day_plans(sessions, grid: TimeGrid) -> dict[int, tuple[int, int, list]]:
    """Per block of days with arrivals, keyed by its first day: its first
    slot, its horizon and its sessions relative to that slot, ordered by
    arrival then id. A day joins the block before it when a session of that
    block departs after the day starts. The horizon runs to the latest
    departure, at least one day and at most to the end of the series."""
    slots_per_day = 1440 // grid.slot_minutes
    blocks: dict[int, list] = {}
    end = 0    # the latest departure so far
    for s in sorted(sessions, key=lambda s: (s.t_arrival, s.id)):
        day = s.t_arrival // slots_per_day
        if day * slots_per_day >= end:
            block = blocks.setdefault(day, [])
        block.append(s)
        end = max(end, s.t_depart)
    plans = {}
    for day, sess in blocks.items():
        off = day * slots_per_day
        horizon = max(slots_per_day, max(s.t_depart for s in sess) - off)
        plans[day] = off, min(horizon, grid.n_slots - off), [
            replace(s, t_arrival=s.t_arrival - off, t_depart=s.t_depart - off)
            for s in sess]
    return plans


def _tou_price(tariff: np.ndarray, sessions, lam: float,
               slot_hours: float) -> np.ndarray:
    """`tariff` plus a term that rises by slot, so that among slots of
    equal tariff the LP charges the earlier first.

    Session i's column in slot t costs h (p_t - lam g_i / h) (`build_lp`),
    so two columns of one session differ in cost as their tariffs do, and
    a column's cost has the sign of p_t - lam g_i / h. Let m be the least
    non-zero gap between two tariff levels, or between a level and some
    lam g_i / h. The term m t / (2 T) adds less than m / 2 to every price:
    it neither reorders two unequal costs of a session nor flips the sign
    of a non-zero cost, and it orders equal ones by slot. Each slot adds
    h m / (2 T) to a cost; HiGHS tells that from a tie when it is above
    its dual feasibility tolerance, 1e-9, which with 5-minute slots over
    a day holds for m above 6.9e-6 $/kWh.
    """
    levels = np.unique(tariff)
    g = np.array([s.delta / s.capacity_kwh for s in sessions])
    gaps = np.abs(np.concatenate([np.diff(levels),
                                  (levels[:, None] - lam * g / slot_hours).ravel()]))
    m = gaps[gaps > 0].min(initial=1.0)    # no non-zero gap: any m will do
    return tariff + m * np.arange(len(tariff)) / (2 * len(tariff))


def _schedule(policy, block, lam, args, intensity, forecaster=None, log=None):
    """`policy`'s schedule of one block of `_day_plans`, `(off, horizon,
    sessions)`, at balanced factor `lam`. The online policy forecasts with
    `forecaster`, the perfect forecast when it is None, and appends its
    decisions to `log` when that is given."""
    off, horizon, rel = block
    grid = _grid_of(intensity)
    cvals = intensity.values[off:off + horizon]
    config = scheduler.StationConfig(args.power_cap_kw, grid.slot_hours, lam, horizon)
    if policy == "es":
        return baselines.equal_sharing(rel, config, cvals)
    if policy == "edf":
        return scheduler.result_from_power(
            rel, baselines.earliest_deadline_first(rel, config, cvals), config, cvals)
    if policy == "tou":
        tariff = np.array([TOU_PEAK if ts.hour >= 16 else TOU_OFFPEAK
                           for ts in intensity.timestamps[off:off + horizon]])
        power = scheduler.solve(scheduler.build_lp(
            rel, _tou_price(tariff, rel, lam, grid.slot_hours), config))
        return scheduler.result_from_power(rel, power, config, cvals)
    if policy in ("carbon-offline", "carbon-adaptive"):
        return scheduler.carbon_schedule(rel, cvals, config)
    # A lookahead past the block's end sees no more of the block.
    lookahead = replace(config, horizon_slots=min(args.horizon or 1440 // grid.slot_minutes,
                                                  horizon))
    try:
        return online.run_online(rel, forecaster or online.PerfectForecaster(cvals),
                                 cvals, lookahead, horizon, log)
    except NumericalFailure as exc:    # the run's slot, not the block's
        exc.where = f"slot {off + exc.slot}"
        raise


def _outcome(sessions, result: scheduler.ScheduleResult) -> tuple:
    """What `make_report` reads of a block: no matrix, so it can be freed."""
    return sessions, result.soc[:, -1].copy(), result.emissions_kg


def _csv_cell(text: str) -> str:
    """`text` as one cell of a CSV row, quoted as `csv.writer` quotes it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _reprs(values: np.ndarray) -> list[str]:
    """`repr` of each float of `values`, made once per distinct bit
    pattern, so that -0.0 and 0.0 keep their own."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return list(map([repr(v) for v in bits.view(np.float64).tolist()].__getitem__,
                    index.tolist()))


def _number(flag: str, kind: type, low: float, strict: bool = False):
    """The argparse type of a numeric flag: the text as `kind`, which must
    be finite and >= `low` (> with `strict`), or an input error naming
    `flag`, raised while the command line is parsed."""
    def parse(text: str):
        v = kind(text)
        if not (low < v if strict else low <= v) or not v < np.inf:
            raise CarbonSchedError(
                f"{flag} must be {'finite and ' if kind is float else ''}"
                f"{'>' if strict else '>='} {low}, got {v!r}")
        return v
    parse.__name__ = kind.__name__    # argparse's "invalid int value"
    return parse


def cmd_simulate(args) -> int:
    if args.online_forecast == "model" and args.policy != "carbon-online":
        raise CarbonSchedError("--online-forecast model is read only by --policy carbon-online")
    if args.load is not None and args.online_forecast != "model":
        raise CarbonSchedError("--load is read only with --online-forecast model")
    if args.horizon is not None and args.policy != "carbon-online":
        raise CarbonSchedError("--horizon is read only by --policy carbon-online")
    intensity = _load_intensity(args)
    grid = _grid_of(intensity)
    timestamps = intensity.timestamps
    plans = _day_plans(_load_sessions(args, grid), grid)

    model = None
    if args.online_forecast == "model":
        load = _load_load(args, timestamps)
        if plans:    # blocks come in day order, so only the first can start too early
            day, (off, _, _) = next(iter(plans.items()))
            history_h = forecast.MA_WINDOWS_H[0]
            if off * grid.slot_minutes < 60 * history_h:
                raise InsufficientHistory(
                    f"day {day}: the model forecast needs {history_h:g} h of observed "
                    f"intensity before the day starts, and the series has "
                    f"{off * grid.slot_minutes / 60:g} h")
            with _named("--mix", args.mix):
                features = forecast.build_features(intensity, load)
            model, _, _ = forecast.fit(features, seed=args.seed)

    adaptive = args.policy == "carbon-adaptive"
    days, kept = {}, []
    for day, (off, horizon, rel) in plans.items():    # schedules only
        lam = scheduler.select_lambda(len(rel)) if adaptive else args.lam
        fc = model and online.ModelForecaster(model, intensity, load, sim_start=off)
        decisions = []
        result = _schedule(args.policy, plans[day], lam, args, intensity, fc, decisions)
        days[day] = _outcome(rel, result)
        cvals = intensity.values[off:off + horizon]
        # The reference's power does not depend on its factor.
        edf = result.power if args.policy == "edf" else baselines.earliest_deadline_first(
            rel, scheduler.StationConfig(args.power_cap_kw, grid.slot_hours, args.lam,
                                         horizon), cvals)
        owner, slot = scheduler.session_slots(rel, horizon)
        # One float array per file: a rendered block frees pieces text reuses.
        kept.insert(0, (off, cvals, [_csv_cell(s.id) for s in rel],
                        np.array([*zip(*decisions)]).reshape(4, -1),
                        np.array([owner, slot, result.power[owner, slot],
                                  result.soc[owner, slot + 1]]),
                        np.array([cvals * power.sum(axis=0) * grid.slot_hours
                                  for power in (result.power, edf)])))
    log = ["slot,session_id,power_kw,forecast_c,true_c\n"]
    rows = ["session_id,slot,power_kw,soc\n"]
    shift = ["slot,timestamp,policy_kg,baseline_edf_kg\n"]
    while kept:    # in day order, each block's columns freed once rendered
        off, cvals, ids, decisions, schedule, (pol, ref) = kept.pop()
        if decisions.size:
            (k, i), (u, c) = decisions[:2].astype(int), decisions[2:]
            log.append("".join(f"{t},{ids[j]},{a},{b},{x}\n" for t, j, a, b, x in zip(
                (off + k).tolist(), i.tolist(), _reprs(u), _reprs(c), _reprs(cvals[k]))))
        (owner, slot), (power, soc) = schedule[:2].astype(int), schedule[2:]
        rows.append("".join(f"{ids[i]},{off + t},{u},{x}\n" for i, t, u, x in zip(
            owner.tolist(), slot.tolist(), _reprs(power), _reprs(soc))))
        shift.append("".join(
            f"{off + t},{timestamps[off + t].isoformat()},{p!r},{r!r}\n"
            for t, (p, r) in enumerate(zip(pol.tolist(), ref.tolist()))))

    report = metrics.make_report(args.policy, days, lambda day: carbon.SEASON_OF_MONTH[
        timestamps[plans[day][0]].month])
    if adaptive:    # each block ran under the factor of its session count
        for row in report["per_day"]:
            row["lambda"] = scheduler.select_lambda(row["n_sessions"])
    else:
        report["lambda"] = args.lam
    report["seed"] = args.seed
    report_text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)

    # Every output is written after the run has succeeded.
    online_log = {"decisions.csv": log} if args.policy == "carbon-online" else {}
    _write(args, {"report.json": [report_text, "\n"], **online_log,
                  "schedule.csv": rows, "shift.csv": shift})
    return 0


def cmd_lambda_sweep(args) -> int:
    intensity = _load_intensity(args)
    grid = _grid_of(intensity)
    plans = _day_plans(_load_sessions(args, grid), grid)

    rows = ["lambda,emissions_kg,energy_loss_pct\n"]
    for lam in args.lambdas:
        report = metrics.make_report("carbon-offline", {
            day: _outcome(block[2], _schedule("carbon-offline", block, lam, args, intensity))
            for day, block in plans.items()})
        loss = 100.0 * (1.0 - report["edq_station"])
        rows.append(f"{float(lam)!r},{float(report['total_emissions_kg'])!r},{float(loss)!r}\n")
    _write(args, {"tradeoff.csv": rows})
    return 0


def cmd_forecast(args) -> int:
    intensity = _load_intensity(args)
    load = _load_load(args, intensity.timestamps)
    with _named("--mix", args.mix):
        X, y = forecast.build_features(intensity, load)
    model, mae, mse = forecast.fit((X, y), seed=args.seed)
    model_text = json.dumps({"beta": model.beta.tolist(),
                             "feature_means": model.feature_means.tolist(),
                             "feature_stds": model.feature_stds.tolist()},
                            sort_keys=True, allow_nan=False)
    metrics_text = json.dumps({"mae": mae, "mse": mse, "n_rows": len(y)},
                              sort_keys=True, indent=2, allow_nan=False)
    _write(args, {"model.json": [model_text, "\n"],
                  "forecast_metrics.json": [metrics_text, "\n"]})
    print(f"held-out MAE={mae:.6f} MSE={mse:.8f} over {len(y)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="carbon-sched",
                     description="Carbon-aware EV charging scheduler")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand takes only the flags it reads: `grid`'s all three,
    # `station`'s the two that schedule, `load`'s the two that may fit.
    grid, station, load = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    grid.add_argument("--mix", help="fuel-mix CSV (timestamp,<source>,... in MW)")
    grid.add_argument("--factors", help="emission-factor CSV (source,kgco2_per_kwh)")
    grid.add_argument("--seed", type=_number("--seed", int, 0), default=0)
    grid.add_argument("--out-dir", default="out")
    grid.add_argument("--exclude-negative", action="store_true",
                      help="zero out negative generation readings")
    grid.add_argument("--synth-days", type=_number("--synth-days", int, 1), default=1,
                      help="days of synthetic data when --mix is omitted")
    station.add_argument("--sessions", help="charging sessions CSV")
    station.add_argument("--power-cap-kw", default=180.0,
                         type=_number("--power-cap-kw", float, 0, strict=True))
    station.add_argument("--synth-sessions-per-day", default=20,
                         type=_number("--synth-sessions-per-day", int, 0))
    station.add_argument("--synth-capacity-kwh", default=ingest.DEFAULT_CAPACITY_KWH,
                         type=_number("--synth-capacity-kwh", float, 0, strict=True))
    load.add_argument("--load", help="load-forecast CSV (timestamp,load_mw)")

    sim = sub.add_parser("simulate", parents=[grid, station, load],
                         help="run one policy day by day")
    sim.add_argument("--policy", choices=POLICIES, required=True,
                     help="days a session links across midnight are planned as "
                          "one block, which counts as one day: carbon-adaptive's "
                          "factor is from its session count, and its per_day row "
                          "is keyed by its first day. tou minimises the tariff "
                          "cost and, among slots of equal tariff, charges the "
                          "earlier slot first")
    sim.add_argument("--lambda", dest="lam", default=0.3,
                     type=_number("--lambda", float, 0),
                     help="balanced factor trading emissions vs delivery")
    sim.add_argument("--horizon", type=_number("--horizon", int, 1),
                     help="carbon-online's lookahead length in slots "
                          "(default: one day of the input grid's slots)")
    sim.add_argument("--online-forecast", choices=("perfect", "model"),
                     default="perfect")

    sweep = sub.add_parser("lambda-sweep", parents=[grid, station],
                           help="emissions/energy trade-off")
    lam = _number("--lambdas", float, 0)

    def lambdas(text: str) -> list[float]:
        if not (values := [lam(x) for x in text.split(",") if x]):
            raise CarbonSchedError(f"--lambdas must list at least one factor, got {text!r}")
        return values

    sweep.add_argument("--lambdas", type=lambdas, required=True,
                       help="comma-separated balanced factors")

    sub.add_parser("forecast", parents=[grid, load],
                   help="fit the day-ahead intensity model")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "lambda-sweep":
            return cmd_lambda_sweep(args)
        return cmd_forecast(args)
    except SystemExit as exc:    # --help exits 0, a usage error 1
        return exc.code
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CarbonSchedError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:    # numpy's names the size it asked for
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
