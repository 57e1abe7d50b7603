"""Input parsing and synthetic workload generation.

CSV conventions: UTF-8 (a leading BOM is skipped), RFC 4180 quoting,
ISO-8601 timestamps with offset. The first non-blank row is the header,
with no repeated column; blank rows are skipped, and every other row has
exactly the header's number of cells. Rows are numbered from 1 after the
header, blank rows not counted. All parsers validate and reject; nothing
is silently clamped except the documented timestamp snapping of charging
sessions.

The mix and load parsers share one series reader, `_series`. It first
tries the whole-file path, `_numeric_table`, which converts a chunk of
cells at a time and reads only the plain case: no quote, no CR but in a
CRLF, no blank row, every row of the header's width and every cell valid.
Anything else goes to the row path, `read_csv` with `_cell` on each cell,
as in the factors and sessions parsers: it reads every file these
conventions allow and names the first fault in file order by its row and
column. Both paths call `float` and `datetime.fromisoformat` on the same
cell texts, so they return the same series, bit for bit, or raise the
same error, but for one limit: the row path's `csv.reader` refuses a cell
over 131,072 characters (`csv.field_size_limit`) as MalformedRow, and the
whole-file path has no cell-size limit.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import repeat
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    CarbonSchedError,
    DuplicateSessionId,
    EmptyWindow,
    InvalidSoC,
    MalformedNumber,
    MalformedRow,
    MissingSourceFactor,
    MixedTimezones,
    NonFiniteValue,
    NonMonotonicTimestamps,
    OutOfRange,
    SessionOutsideHorizon,
    TooFewRows,
    UnsupportedSlotLength,
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

# First timestamp of the synthetic fuel mix.
SYNTH_START = datetime(2021, 1, 1, tzinfo=timezone.utc)


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
        if not np.isfinite(self.factors).all():
            raise NonFiniteValue("emission factors")
        if np.any(self.factors < 0):
            raise OutOfRange("emission factors must be >= 0")
        _check_finite(self.power, self.sources)
        _check_uniform(self.timestamps)
        for j, name in enumerate(self.sources):
            negative = np.flatnonzero(self.power[:, j] < 0)
            if name not in SIGNED_SOURCES and negative.size:
                raise OutOfRange(f"negative power for non-signed source {name!r} "
                                 f"at row {negative[0] + 1}")


@dataclass(frozen=True)
class LoadForecastSeries:
    """Day-ahead system load forecast on a uniform grid, in MW."""

    timestamps: tuple[datetime, ...]
    load_mw: np.ndarray

    def __post_init__(self):
        if self.load_mw.shape != (len(self.timestamps),):
            raise ValueError("load_mw length mismatch")
        _check_finite(self.load_mw[:, None], ("load_mw",))
        bad = np.flatnonzero(self.load_mw <= 0)
        if bad.size:
            raise OutOfRange("load_mw must be positive, got "
                             f"{float(self.load_mw[bad[0]])!r} at row {bad[0] + 1}")
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
        if not all(0 < v < np.inf for v in (self.capacity_kwh, self.power_max_kw,
                                             self.delta)):
            raise InvalidSoC(self.id, "capacity, power_max and delta must be "
                                      "positive and finite")
        step = self.power_max_kw * self.delta / self.capacity_kwh
        if self.soc_target > self.soc_arrival and self.soc_target + step == self.soc_target:
            raise InvalidSoC(self.id, f"a slot at power_max moves the SoC by {step!r}, "
                                      f"which rounds away at target={self.soc_target}")


def _check_finite(values: np.ndarray, columns) -> None:
    """Reject a NaN or infinite cell, naming its (1-based) row and column."""
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        row, col = bad[0]
        raise NonFiniteValue(f"row {row + 1}, column {columns[col]!r}")


def _check_uniform(timestamps) -> None:
    """Two or more stamps, all naive or all aware, evenly spaced by a whole
    number of minutes that divides 24 h."""
    if len(timestamps) < 2:
        raise TooFewRows(len(timestamps))
    naive = [ts.tzinfo is None for ts in timestamps]
    if any(naive) and not all(naive):
        raise MixedTimezones(naive.index(not naive[0]) + 1)
    step = timestamps[1] - timestamps[0]
    if step <= timedelta(0):
        raise NonMonotonicTimestamps(2)
    minutes, rest = divmod(step, timedelta(minutes=1))
    if rest or 1440 % minutes:
        raise UnsupportedSlotLength(step)
    for k in range(1, len(timestamps)):
        if timestamps[k] - timestamps[k - 1] != step:
            raise NonMonotonicTimestamps(k + 1, "non-uniform spacing")


def _text(stream: IO) -> str:
    """The text of `stream`, decoded as UTF-8 if it is binary, with a
    leading BOM skipped; bytes that are not UTF-8 are an input error,
    whether `stream` or this function decodes them. A text stream read
    whole decodes its file in one call, so the offset is the file's."""
    try:
        text = stream.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CarbonSchedError(f"not UTF-8: byte {exc.start} is "
                               f"0x{exc.object[exc.start]:02x}") from None
    return text.removeprefix("\ufeff")


def read_csv(text: str, required: Iterable[str] = ()
             ) -> tuple[dict[str, int], Iterator[tuple[int, list[str]]]]:
    """The column positions of the CSV `text` by stripped name, in header
    order, and an iterator of its numbered data rows, by this module's
    conventions. Raises MalformedRow for an empty file, a repeated or
    missing `required` column, a row whose cell count is not the
    header's, or a row that `csv.reader` refuses.

    The rows stay lazy: one generator reads them one at a time, the
    header as row 0, skipping blank rows and checking each row's cell
    count in the same loop."""
    def numbered(row_no=0, width=0):
        try:
            for row in csv.reader(io.StringIO(text, newline="")):
                if row:
                    if row_no and len(row) != width:
                        raise MalformedRow(row_no, f"{len(row)} cells, the header has {width}")
                    width = width or len(row)
                    yield row_no, row
                    row_no += 1
        except csv.Error as exc:
            raise MalformedRow(row_no, str(exc)) from None

    rows = numbered()
    header = [name.strip() for name in next(rows, (0, ()))[1]]
    if not header:
        raise MalformedRow(0, "the file is empty")
    columns = {name: j for j, name in enumerate(header)}
    if len(columns) < len(header):
        raise MalformedRow(0, "a column name is repeated")
    for name in required:
        if name not in columns:
            raise MalformedRow(0, f"no column {name!r}")
    return columns, rows


# Characters per chunk of `_numeric_table`, about 150 rows of a five-source
# mix. Only one chunk's row and cell strings are alive at a time: with all
# of a 57-day mix's alive at once, the process kept about 4 MB more after
# the parse, in allocator pages that the stamps, which outlive it, pinned.
_CHUNK_CHARS = 1 << 14


def _numeric_table(text: str) -> tuple[list[str], list[datetime], np.ndarray] | None:
    """The header, the stamps of the first column and the other columns
    as a float matrix, one row per data row, of the CSV `text` read in one
    pass; None when `text` needs `read_csv`'s row path.

    It reads only the plain case: no quote, no CR but in a CRLF, a
    non-blank header of unique names, and every row non-blank with the
    header's number of cells, two or more. There `csv.reader` splits rows
    on "\n" and cells on ",", so the cells are the row path's, with the CR
    of a CRLF left on a row's last cell, a number, where `float` skips it
    as whitespace. `np.array(..., dtype=float)` calls `float` on each
    cell, as the row path does. It never raises: on a cell that fails it
    returns None too, so that the row path names the error."""
    if '"' in text or "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    end = text.find("\n")
    header = [name.strip() for name in text[:end].split(",")]
    width = len(header)
    if end <= 0 or width < 2 or len(set(header)) < width:
        return None
    stamps: list[datetime] = []
    values = []
    stop = len(text) - text.endswith("\n")
    pos = end + 1
    try:
        while pos <= stop:
            cut = text.find("\n", pos + _CHUNK_CHARS, stop)
            cut = stop if cut < 0 else cut
            rows = text[pos:cut].split("\n")
            if set(map(str.count, rows, repeat(","))) != {width - 1}:
                return None
            cells = ",".join(rows).split(",")
            stamps += map(datetime.fromisoformat, map(str.strip, cells[::width]))
            del cells[::width]
            values.append(np.array(cells, dtype=float))
            pos = cut + 1
    except ValueError:
        return None
    if not stamps:
        return None
    return header, stamps, np.concatenate(values).reshape(-1, width - 1)


@contextmanager
def _naming(stream: IO):
    """Let an input error raised while `stream` is read name the file, when
    the stream has a file name (it was opened by path)."""
    try:
        yield
    except CarbonSchedError as exc:
        name = getattr(stream, "name", None)
        if exc.where is None and isinstance(name, str):
            exc.where = name
        raise


def _stamp(raw: str) -> datetime:
    return datetime.fromisoformat(raw.strip())


def _cell(parse, raw: str, row: int, col: str):
    """The cell `raw` at (`row`, `col`) read by `parse`, `float` or
    `_stamp`: a cell it rejects is MalformedNumber, a non-finite number
    NonFiniteValue."""
    try:
        value = parse(raw)
    except ValueError:
        raise MalformedNumber(row, col) from None
    if parse is float and not math.isfinite(value):
        raise NonFiniteValue(f"row {row}, column {col!r}")
    return value


def _series(text: str, names: tuple[str, ...] = ()
            ) -> tuple[list[str], list[datetime], np.ndarray]:
    """The header, the stamps and the float matrix of the series CSV
    `text`. With `names` empty, column 0 holds the stamps and every other
    column is a number; else the columns `names`, stamps then numbers,
    are read by name. A non-finite cell is named, whichever path reads
    it, before the caller checks the header."""
    table = _numeric_table(text)
    if table and (not names or table[0] == list(names)):
        _check_finite(table[2], table[0][1:])
        return table
    columns, rows = read_csv(text, names)
    header = list(names or columns)
    at = [columns[name] for name in header]
    stamps, values = [], []
    for row_no, row in rows:
        stamps.append(_cell(_stamp, row[at[0]], row_no, header[0]))
        values.append([_cell(float, row[j], row_no, name)
                       for j, name in zip(at[1:], header[1:])])
    return header, stamps, np.array(values, dtype=float).reshape(len(stamps), len(at) - 1)


def parse_grid_mix(mix_file: IO, factors_file: IO) -> GridMixSeries:
    """Parse a fuel-mix CSV (`timestamp,<source>,...` in MW) plus a
    per-source emission-factor CSV (`source,kgco2_per_kwh`). An input
    error names the file it was found in."""
    with _naming(factors_file):
        columns, rows = read_csv(_text(factors_file), ("source", "kgco2_per_kwh"))
        name, value = columns["source"], columns["kgco2_per_kwh"]
        factors = {}
        for row_no, row in rows:
            source = row[name].strip()
            if source in factors:
                raise MalformedRow(row_no, f"source {source!r} is repeated")
            factors[source] = _cell(float, row[value], row_no, "kgco2_per_kwh")
        for source, factor in factors.items():
            if factor < 0:
                raise OutOfRange(f"negative emission factor {factor!r} "
                                 f"for source {source!r}")

    with _naming(mix_file):
        (_, *sources), timestamps, power = _series(_text(mix_file))
        for name in sources:
            if name not in factors:
                raise MissingSourceFactor(name)
        return GridMixSeries(
            timestamps=tuple(timestamps),
            sources=tuple(sources),
            power=power,
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
    """Parse a load-forecast CSV with columns `timestamp` and `load_mw`,
    among others in any order. An input error names the file it was
    found in."""
    with _naming(load_file):
        _, timestamps, load = _series(_text(load_file), ("timestamp", "load_mw"))
        return LoadForecastSeries(tuple(timestamps), load.ravel())


def parse_sessions(file: IO, grid: TimeGrid) -> list[ChargingSession]:
    """Parse charging sessions and snap them onto `grid`.

    Arrival rounds UP to the next slot boundary and departure rounds
    DOWN, so charging never extends outside the true session window.
    Stamps must be naive exactly when the grid's are, and ids unique.
    An input error names the file it was found in.
    """
    with _naming(file):
        columns, rows = read_csv(_text(file), ("id", "arrival_ts", "depart_ts",
                                               "soc_arrival", "soc_target"))
        sid_at, arrival_at, depart_at = (columns[c] for c in ("id", "arrival_ts",
                                                              "depart_ts"))
        # The number columns in the order a row's cells are checked: each
        # one's position (None when it is absent) and the value of an
        # absent or empty cell (None when the column is required).
        numbers = [(columns.get(col), col, default) for col, default in (
            ("efficiency", DEFAULT_EFFICIENCY), ("soc_arrival", None),
            ("soc_target", None), ("capacity_kwh", DEFAULT_CAPACITY_KWH),
            ("soc_max", DEFAULT_SOC_MAX), ("power_max_kw", DEFAULT_POWER_MAX_KW))]
        naive = grid.start.tzinfo is None
        out: list[ChargingSession] = []
        seen: set[str] = set()
        for row_no, cells in rows:
            sid = cells[sid_at].strip()
            if sid in seen:
                raise DuplicateSessionId(sid, row_no)
            seen.add(sid)
            arrival = _cell(_stamp, cells[arrival_at], row_no, "arrival_ts")
            depart = _cell(_stamp, cells[depart_at], row_no, "depart_ts")
            if (arrival.tzinfo is None) != naive or (depart.tzinfo is None) != naive:
                raise MixedTimezones(row_no, f"session {sid!r} against the intensity grid")
            if not (grid.contains(arrival) and grid.contains(depart)):
                raise SessionOutsideHorizon(sid)
            efficiency, soc_arrival, soc_target, capacity, soc_max, power_max = [
                _cell(float, cells[j], row_no, col)
                if default is None or j is not None and cells[j].strip() else default
                for j, col, default in numbers]
            out.append(ChargingSession(
                id=sid, t_arrival=grid.ceil_index(arrival), t_depart=grid.floor_index(depart),
                soc_arrival=soc_arrival, soc_target=soc_target, capacity_kwh=capacity,
                soc_max=soc_max, power_max_kw=power_max, delta=efficiency * grid.slot_hours))
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
                   capacity_kwh: float = DEFAULT_CAPACITY_KWH) -> list[ChargingSession]:
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
        soc_target = min(soc_arrival + float(rng.uniform(0.1, 0.4)), DEFAULT_SOC_MAX)
        out.append(ChargingSession(
            id=f"synth-{n:04d}",
            t_arrival=t_arrival,
            t_depart=t_depart,
            soc_arrival=soc_arrival,
            soc_target=soc_target,
            capacity_kwh=capacity_kwh,
            delta=DEFAULT_EFFICIENCY * grid.slot_hours,
        ))
    return out


def synth_grid_mix(n_days: int, seed: int = 0, slot_minutes: int = 5) -> GridMixSeries:
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

    grid = TimeGrid(SYNTH_START, slot_minutes, n)
    return GridMixSeries(
        timestamps=tuple(grid.timestamps()),
        sources=("solar", "wind", "nuclear", "gas", "imports"),
        power=np.column_stack([solar, np.maximum(wind, 0.0), nuclear, gas, imports]),
        factors=np.array([0.0, 0.0, 0.0, 0.42, 0.30]),
    )
