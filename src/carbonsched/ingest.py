"""Input parsing and synthetic workload generation.

CSV conventions: UTF-8, RFC 4180 quoting, ISO-8601 timestamps with offset.
All parsers validate and reject; nothing is silently clamped except the
documented timestamp snapping of charging sessions.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from typing import IO, Iterable

import numpy as np

from .errors import (
    EmptyWindow,
    InvalidSoC,
    MalformedNumber,
    MissingSourceFactor,
    NonMonotonicTimestamps,
    SessionOutsideHorizon,
)
from .timegrid import TimeGrid

# Sources allowed to carry negative power (exports / storage charging).
SIGNED_SOURCES = frozenset({"imports", "batteries", "exports"})

# Station-wide battery defaults used when the sessions file omits the
# optional columns.
DEFAULT_CAPACITY_KWH = 50.0
DEFAULT_POWER_MAX_KW = 7.5
DEFAULT_SOC_MAX = 1.0
DEFAULT_EFFICIENCY = 0.9


@dataclass(frozen=True)
class GridMixSeries:
    """Per-source generation power on a uniform time grid.

    power[t, i] is the power of sources[i] in MW at timestamps[t];
    factors[i] is that source's emission factor in kgCO2/kWh.
    """

    timestamps: tuple[datetime, ...]
    sources: tuple[str, ...]
    power: np.ndarray
    factors: np.ndarray

    def __post_init__(self):
        t, s = len(self.timestamps), len(self.sources)
        if self.power.shape != (t, s):
            raise ValueError(f"power matrix shape {self.power.shape} != ({t}, {s})")
        if self.factors.shape != (s,):
            raise ValueError(f"factors shape {self.factors.shape} != ({s},)")
        if np.any(self.factors < 0):
            raise ValueError("emission factors must be >= 0")
        _check_uniform(self.timestamps)
        for j, name in enumerate(self.sources):
            if name not in SIGNED_SOURCES and np.any(self.power[:, j] < 0):
                raise ValueError(f"negative power for non-signed source {name!r}")

    @property
    def slot_minutes(self) -> int:
        step = self.timestamps[1] - self.timestamps[0]
        return int(round(step.total_seconds() / 60.0))

    def drop_negative_sources(self) -> "GridMixSeries":
        """Copy with negative power readings zeroed (CLI --exclude-negative)."""
        return replace(self, power=np.maximum(self.power, 0.0))


@dataclass(frozen=True)
class LoadForecastSeries:
    """Day-ahead system load forecast on a uniform grid, in MW."""

    timestamps: tuple[datetime, ...]
    load_mw: np.ndarray

    def __post_init__(self):
        if self.load_mw.shape != (len(self.timestamps),):
            raise ValueError("load_mw length mismatch")
        if np.any(self.load_mw <= 0):
            raise ValueError("load_mw must be positive")
        _check_uniform(self.timestamps)


@dataclass(frozen=True)
class ChargingSession:
    """One EV charging request, snapped to the simulation grid.

    t_arrival/t_depart are slot indices; charging may occur in slots
    [t_arrival, t_depart). delta is the SoC step factor
    (efficiency * slot_hours), so one slot at power u adds delta*u/capacity
    to the state of charge.
    """

    id: str
    t_arrival: int
    t_depart: int
    soc_arrival: float
    soc_target: float
    capacity_kwh: float = DEFAULT_CAPACITY_KWH
    soc_max: float = DEFAULT_SOC_MAX
    power_max_kw: float = DEFAULT_POWER_MAX_KW
    delta: float = DEFAULT_EFFICIENCY * 5 / 60

    def __post_init__(self):
        if not (0.0 <= self.soc_arrival <= self.soc_target <= self.soc_max <= 1.0):
            raise InvalidSoC(self.id, f"arrival={self.soc_arrival} target={self.soc_target} "
                                      f"max={self.soc_max}")
        if self.t_arrival >= self.t_depart:
            raise EmptyWindow(self.id)
        if self.capacity_kwh <= 0 or self.power_max_kw <= 0 or self.delta <= 0:
            raise InvalidSoC(self.id, "capacity, power_max and delta must be positive")


def _check_uniform(timestamps) -> None:
    if len(timestamps) < 1:
        raise ValueError("empty timestamp series")
    if len(timestamps) == 1:
        return
    step = timestamps[1] - timestamps[0]
    if step <= timedelta(0):
        raise NonMonotonicTimestamps(2)
    for k in range(1, len(timestamps)):
        if timestamps[k] - timestamps[k - 1] != step:
            raise NonMonotonicTimestamps(k + 1, "non-uniform spacing")


def _text(stream: IO) -> IO[str]:
    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or "b" in getattr(stream, "mode", ""):
        return io.TextIOWrapper(stream, encoding="utf-8", newline="")
    return stream


def _parse_ts(raw: str, row: int, col: str) -> datetime:
    try:
        return datetime.fromisoformat(raw.strip())
    except ValueError:
        raise MalformedNumber(row, col) from None


def _parse_float(raw: str, row: int, col: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise MalformedNumber(row, col) from None


def parse_grid_mix(mix_file: IO, factors_file: IO) -> GridMixSeries:
    """Parse a fuel-mix CSV (`timestamp,<source>,...` in MW) plus a
    per-source emission-factor CSV (`source,kgco2_per_kwh`)."""
    factors: dict[str, float] = {}
    for row_no, row in enumerate(csv.DictReader(_text(factors_file)), start=1):
        factors[row["source"].strip()] = _parse_float(row["kgco2_per_kwh"], row_no,
                                                      "kgco2_per_kwh")

    reader = csv.reader(_text(mix_file))
    header = next(reader)
    sources = [h.strip() for h in header[1:]]
    for name in sources:
        if name not in factors:
            raise MissingSourceFactor(name)

    timestamps: list[datetime] = []
    rows: list[list[float]] = []
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        timestamps.append(_parse_ts(row[0], row_no, header[0]))
        rows.append([_parse_float(v, row_no, sources[j]) for j, v in enumerate(row[1:])])

    return GridMixSeries(
        timestamps=tuple(timestamps),
        sources=tuple(sources),
        power=np.asarray(rows, dtype=float).reshape(len(timestamps), len(sources)),
        factors=np.asarray([factors[s] for s in sources], dtype=float),
    )


def write_grid_mix(mix: GridMixSeries, mix_out: IO[str], factors_out: IO[str]) -> None:
    """Inverse of parse_grid_mix, lossless up to float formatting."""
    w = csv.writer(mix_out)
    w.writerow(["timestamp", *mix.sources])
    for t, ts in enumerate(mix.timestamps):
        w.writerow([ts.isoformat(), *(repr(float(v)) for v in mix.power[t])])
    wf = csv.writer(factors_out)
    wf.writerow(["source", "kgco2_per_kwh"])
    for name, f in zip(mix.sources, mix.factors):
        wf.writerow([name, repr(float(f))])


def parse_load(load_file: IO) -> LoadForecastSeries:
    """Parse a load-forecast CSV `timestamp,load_mw`."""
    timestamps, load = [], []
    for row_no, row in enumerate(csv.DictReader(_text(load_file)), start=1):
        timestamps.append(_parse_ts(row["timestamp"], row_no, "timestamp"))
        load.append(_parse_float(row["load_mw"], row_no, "load_mw"))
    return LoadForecastSeries(tuple(timestamps), np.asarray(load, dtype=float))


_SESSION_REQUIRED = ("id", "arrival_ts", "depart_ts", "soc_arrival", "soc_target")


def parse_sessions(file: IO, grid: TimeGrid) -> list[ChargingSession]:
    """Parse charging sessions and snap them onto `grid`.

    Arrival rounds UP to the next slot boundary and departure rounds
    DOWN, so charging never extends outside the true session window.
    """
    out: list[ChargingSession] = []
    for row_no, row in enumerate(csv.DictReader(_text(file)), start=1):
        sid = row["id"].strip()
        arrival = _parse_ts(row["arrival_ts"], row_no, "arrival_ts")
        depart = _parse_ts(row["depart_ts"], row_no, "depart_ts")
        if not (grid.contains(arrival) and grid.contains(depart)):
            raise SessionOutsideHorizon(sid)

        t_arrival = max(0, grid.ceil_index(arrival))
        t_depart = min(grid.n_slots, grid.floor_index(depart))
        if t_arrival >= t_depart:
            raise EmptyWindow(sid)

        def _opt(col: str, default: float) -> float:
            raw = (row.get(col) or "").strip()
            return _parse_float(raw, row_no, col) if raw else default

        efficiency = _opt("efficiency", DEFAULT_EFFICIENCY)
        out.append(ChargingSession(
            id=sid,
            t_arrival=t_arrival,
            t_depart=t_depart,
            soc_arrival=_parse_float(row["soc_arrival"], row_no, "soc_arrival"),
            soc_target=_parse_float(row["soc_target"], row_no, "soc_target"),
            capacity_kwh=_opt("capacity_kwh", DEFAULT_CAPACITY_KWH),
            soc_max=_opt("soc_max", DEFAULT_SOC_MAX),
            power_max_kw=_opt("power_max_kw", DEFAULT_POWER_MAX_KW),
            delta=efficiency * grid.slot_hours,
        ))
    return out


def write_sessions(sessions: Iterable[ChargingSession], grid: TimeGrid, out: IO[str]) -> None:
    """Serialize sessions back to the parse_sessions CSV format."""
    w = csv.writer(out)
    w.writerow(["id", "arrival_ts", "depart_ts", "soc_arrival", "soc_target",
                "capacity_kwh", "soc_max", "power_max_kw", "efficiency"])
    dt = timedelta(minutes=grid.slot_minutes)
    for s in sessions:
        w.writerow([
            s.id,
            (grid.start + s.t_arrival * dt).isoformat(),
            (grid.start + s.t_depart * dt).isoformat(),
            repr(s.soc_arrival), repr(s.soc_target), repr(s.capacity_kwh),
            repr(s.soc_max), repr(s.power_max_kw), repr(s.delta / grid.slot_hours),
        ])


def synth_sessions(count: int, grid: TimeGrid, seed: int,
                   capacity_kwh: float = DEFAULT_CAPACITY_KWH,
                   power_max_kw: float = DEFAULT_POWER_MAX_KW,
                   soc_max: float = DEFAULT_SOC_MAX,
                   efficiency: float = DEFAULT_EFFICIENCY) -> list[ChargingSession]:
    """Generate synthetic workplace-style sessions on `grid`.

    Arrival times peak mid-morning and most stays are under four hours,
    matching the observed campus charging statistics. Deterministic for a
    fixed seed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    n_days = max(1, int(grid.n_slots * grid.slot_minutes) // 1440)
    slots_per_day = 1440 // grid.slot_minutes

    out: list[ChargingSession] = []
    for n in range(count):
        day = int(rng.integers(0, n_days))
        arrive_h = float(np.clip(rng.normal(9.5, 2.2), 0.25, 20.0))
        stay_h = float(np.clip(rng.lognormal(np.log(2.0), 0.55), 0.5, 12.0))
        t_arrival = day * slots_per_day + int(np.ceil(arrive_h * 60 / grid.slot_minutes))
        t_depart = day * slots_per_day + int(np.floor((arrive_h + stay_h) * 60
                                                      / grid.slot_minutes))
        t_depart = min(t_depart, grid.n_slots)
        t_arrival = min(t_arrival, grid.n_slots - 1)
        if t_depart <= t_arrival:
            t_depart = t_arrival + 1

        soc_arrival = float(rng.uniform(0.2, 0.5))
        soc_target = min(soc_arrival + float(rng.uniform(0.1, 0.4)), soc_max)
        out.append(ChargingSession(
            id=f"synth-{n:04d}",
            t_arrival=t_arrival,
            t_depart=t_depart,
            soc_arrival=soc_arrival,
            soc_target=soc_target,
            capacity_kwh=capacity_kwh,
            soc_max=soc_max,
            power_max_kw=power_max_kw,
            delta=efficiency * grid.slot_hours,
        ))
    return out


def synth_grid_mix(n_days: int, seed: int = 0,
                   start: datetime = datetime(2021, 1, 1, tzinfo=timezone.utc),
                   slot_minutes: int = 5) -> GridMixSeries:
    """Five-source synthetic fuel mix whose weighted intensity traces a
    duck curve (midday solar depresses the average)."""
    rng = np.random.default_rng(seed)
    slots_per_day = 1440 // slot_minutes
    n = n_days * slots_per_day
    hours = (np.arange(n) % slots_per_day) * slot_minutes / 60.0
    day_of_year = np.arange(n) // slots_per_day

    # Seasonal solar scaling: strongest late spring.
    season = 1.0 + 0.35 * np.cos(2 * np.pi * (day_of_year - 130) / 365.0)
    solar = 12000.0 * season * np.exp(-((hours - 13.0) ** 2) / (2 * 3.0 ** 2))
    wind = 2500.0 + 500.0 * np.sin(2 * np.pi * hours / 24.0) \
        + rng.normal(0, 60.0, size=n)
    nuclear = np.full(n, 2200.0)
    base_demand = 24000.0 + 4000.0 * np.sin(2 * np.pi * (hours - 17.0) / 24.0)
    gas = np.maximum(base_demand - solar - wind - nuclear, 1500.0) \
        + rng.normal(0, 80.0, size=n)
    gas = np.maximum(gas, 1000.0)
    imports = np.full(n, 1800.0) + rng.normal(0, 50.0, size=n)

    grid = TimeGrid(start, slot_minutes, n)
    return GridMixSeries(
        timestamps=tuple(grid.timestamps()),
        sources=("solar", "wind", "nuclear", "gas", "imports"),
        power=np.column_stack([solar, np.maximum(wind, 0.0), nuclear, gas, imports]),
        factors=np.array([0.0, 0.0, 0.0, 0.42, 0.30]),
    )
