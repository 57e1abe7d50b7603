"""Digest of every output file of a fixed list of seeded CLI runs.

    PYTHONPATH=src python3 tests/output_digest.py > digest.txt
    python3 tests/output_digest.py --against REV

Each run calls `carbonsched.cli.main` in-process in a fresh temporary
directory and prints one line per output file with its sha256, plus the
exit code, or the type of an exception that escapes `main`, and the
sha256 of stdout and stderr; an output directory left
with no file in it gets a line of its own. A run that writes report.json
also gets one line for each of its figures in `FIGURES`, to 9 significant
digits, and a run that writes schedule.csv one `max_slot_kw` line: the
largest sum of `power_kw` over the rows of one slot, to 9 significant
digits, which a run that keeps its station cap holds at or below the cap.
Two checkouts that write the same bytes print the same digest, so
a refactor that must keep every output identical is checked with one
`diff` of the two digests, and where a change moves a report the figure
lines show by how much. With `--against REV` the script makes both
digests itself, each in a subprocess: one of the `src/` in `git archive
REV`, one of the working tree's `src/`. It prints their unified diff and
exits 1 when they differ. Pytest does not collect this file.
"""

import argparse
import contextlib
import csv
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict
from datetime import datetime, timedelta
from pathlib import Path

# The working tree's package, unless PYTHONPATH names another one.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))
from carbonsched.cli import POLICIES, main  # noqa: E402

SYNTH = ("--synth-days", "2", "--synth-sessions-per-day", "8",
         "--synth-capacity-kwh", "5", "--power-cap-kw", "20",
         "--seed", "1")

# Three days with sessions that cross midnight into the next day, against a
# cap one session can fill on its own.
OVERNIGHT_SESSIONS = (
    "id,arrival_ts,depart_ts,soc_arrival,soc_target,capacity_kwh\n"
    "night-a,2021-01-01T22:00:00+00:00,2021-01-02T06:00:00+00:00,0.1,0.9,60\n"
    "night-b,2021-01-02T00:30:00+00:00,2021-01-02T05:00:00+00:00,0.1,0.9,60\n"
    "day-c,2021-01-02T09:00:00+00:00,2021-01-02T15:00:00+00:00,0.2,0.6,20\n"
    "night-d,2021-01-02T23:00:00+00:00,2021-01-03T07:00:00+00:00,0.3,0.8,40\n")
OVERNIGHT_INPUT = ("--synth-days", "3", "--sessions", "{tmp}/sessions.csv",
                   "--power-cap-kw", "7.5")
OVERNIGHT = (*OVERNIGHT_INPUT, "--lambda", "100")
# The same sessions under ids that CSV must quote: a comma and a quote.
QUOTED_SESSIONS = OVERNIGHT_SESSIONS.replace("night-a,", '"car,1",').replace(
    "night-b,", '"say ""hi""",')

# Two days of generation in MW, read through --mix and --factors: solar
# peaks at 13:00 and the imports turn to exports from 10:00 to 15:00.
MIX = "timestamp,solar,gas,imports\n" + "".join(
    f"2021-06-0{1 + k // 288}T{k % 288 // 12:02d}:{5 * (k % 12):02d}:00+00:00,"
    f"{max(0, 9000 - 80 * abs(k % 288 - 156))},{1000 + 10 * (k % 7)},"
    f"{-3000 if 120 <= k % 288 < 180 else 1800}\n" for k in range(576))
FACTORS = "source,kgco2_per_kwh\nsolar,0.0\ngas,0.42\nimports,0.30\n"
FILES = ("--mix", "{tmp}/mix.csv", "--factors", "{tmp}/factors.csv",
         "--synth-sessions-per-day", "8", "--synth-capacity-kwh", "5",
         "--power-cap-kw", "20", "--lambda", "1.2", "--seed", "1")

# The same kind of mix at 15-minute spacing, where one day is 96 slots, and
# three sessions on it. The second day exports more at midday, so its
# intensity is lower then; the second session stays 31 h, and a lookahead
# of one day does not see that second midday when the session arrives.
MIX_15 = "timestamp,solar,gas,imports\n" + "".join(
    f"2021-06-0{1 + k // 96}T{k % 96 // 4:02d}:{15 * (k % 4):02d}:00+00:00,"
    f"{max(0, 9000 - 320 * abs(k % 96 - 52))},{1000 + 10 * (k % 7)},"
    f"{-3000 - 1500 * (k // 96) if 40 <= k % 96 < 60 else 1800}\n"
    for k in range(2 * 96))
SESSIONS_15 = (
    "id,arrival_ts,depart_ts,soc_arrival,soc_target,capacity_kwh\n"
    "q-a,2021-06-01T07:10:00+00:00,2021-06-01T16:00:00+00:00,0.2,0.8,30\n"
    "q-b,2021-06-01T08:00:00+00:00,2021-06-02T15:00:00+00:00,0.1,0.7,40\n"
    "q-c,2021-06-02T10:05:00+00:00,2021-06-02T18:40:00+00:00,0.3,0.9,20\n")
FILES_15 = ("--mix", "{tmp}/mix15.csv", "--factors", "{tmp}/factors.csv",
            "--sessions", "{tmp}/sessions15.csv", "--power-cap-kw", "7.5",
            "--lambda", "100", "--seed", "1")

# Sessions for the fitted-model forecast, which needs a day of history and
# two months of it to fit: none on day 0, two on day 1, and two on the last
# of 60 days, whose lookahead windows run past the end of the series.
MODEL_SESSIONS = (
    "id,arrival_ts,depart_ts,soc_arrival,soc_target,capacity_kwh\n"
    "jan-a,2021-01-02T07:00:00+00:00,2021-01-02T15:00:00+00:00,0.2,0.7,20\n"
    "jan-b,2021-01-02T09:30:00+00:00,2021-01-02T13:00:00+00:00,0.3,0.6,20\n"
    "mar-c,2021-03-01T08:00:00+00:00,2021-03-01T20:00:00+00:00,0.1,0.8,30\n"
    "mar-d,2021-03-01T18:00:00+00:00,2021-03-01T23:55:00+00:00,0.4,0.9,30\n")
MODEL = ("--synth-days", "60", "--sessions", "{tmp}/model_sessions.csv",
         "--power-cap-kw", "7.5", "--lambda", "100", "--seed", "1")



def _stamp(k: int, day: str = "2021-01-01") -> str:
    """The stamp of 5-minute slot k from midnight UTC of `day`."""
    return (datetime.fromisoformat(f"{day}T00:00:00+00:00")
            + timedelta(minutes=5 * k)).isoformat()


# One day of generation whose total is zero at slot 5, where the imports
# cancel the gas; without that slot it is one day of flat gas.
ZERO_TOTAL_MIX = "timestamp,gas,imports\n" + "".join(
    f"{_stamp(k)},{500 if k == 5 else 1000},{-500 if k == 5 else 0}\n"
    for k in range(288))
ONE_DAY_MIX = "timestamp,gas,imports\n" + "".join(
    f"{_stamp(k)},1000,0\n" for k in range(288))
GAS_IMPORTS = "source,kgco2_per_kwh\ngas,0.4\nimports,0.3\n"
# Two days whose gas times its factor overflows a float.
OVERFLOW_MIX = "timestamp,gas,solar\n" + "".join(
    f"{_stamp(k)},1e10,1\n" for k in range(2 * 288))
OVERFLOW_FACTORS = "source,kgco2_per_kwh\ngas,1e300\nsolar,0\n"
# Two days whose total generation overflows a float, while the weighted
# sum does not.
TOTAL_OVERFLOW_MIX = "timestamp,gas,solar\n" + "".join(
    f"{_stamp(k)},1e308,1e308\n" for k in range(2 * 288))
# Two days of a finite intensity of about 9.1e305 kgCO2/kWh, whose emissions
# would overflow.
HUGE_INTENSITY_MIX = "timestamp,gas,solar\n" + "".join(
    f"{_stamp(k)},10,1\n" for k in range(2 * 288))
HUGE_FACTORS = "source,kgco2_per_kwh\ngas,1e306\nsolar,0\n"
# Four days of a smooth intensity, 400 / (1400 + k) at slot k, whose three
# moving averages are near-affine in each other.
COLLINEAR_MIX = "timestamp,gas,solar\n" + "".join(
    f"{_stamp(k, '2021-01-30')},1000,{400 + k}\n" for k in range(4 * 288))
GAS_SOLAR = "source,kgco2_per_kwh\ngas,0.4\nsolar,0.0\n"
# Two days of a mix as R's `write.csv` writes it, with the header and the
# stamps quoted, which the row path reads.
QUOTED_MIX = '"timestamp","gas","solar"\n' + "".join(
    f'"{_stamp(k)}",{1000 + 10 * (k % 7)},{max(0, 9000 - 80 * abs(k % 288 - 156))}\n'
    for k in range(2 * 288))
# A second factor for gas, which would price it at 0.9.
REPEATED_FACTORS = "source,kgco2_per_kwh\nsolar,0\ngas,0.4\ngas,0.9\n"
# MODEL's sixty days of load with a note column first and the stamps last,
# which the row path reads by name.
NOTE_LOAD = "note,load_mw,timestamp\n" + "".join(
    f"{'peak' if k % 288 == 204 else ''},{24000 + 37 * (k % 101) + 3 * (k % 288)},"
    f"{_stamp(k)}\n" for k in range(60 * 288))
# A session whose soc_target cell is longer than `csv.reader` reads.
HUGE_CELL_SESSIONS = ("id,arrival_ts,depart_ts,soc_arrival,soc_target\n"
                      "a,2021-01-01T06:00:00+00:00,2021-01-01T20:00:00+00:00,0.2,0."
                      + "0" * 140_000 + "6\n")
# One session that EDF fills: its SoC ends a few ulps past its target.
ONE_SESSION = ("id,arrival_ts,depart_ts,soc_arrival,soc_target\n"
               "a,2021-01-01T06:00:00+00:00,2021-01-01T20:00:00+00:00,0.2,0.6\n")
# Two sessions with one window under a cap below their summed limits: the
# id breaks EDF's tie on (t_depart, t_arrival), so "tie-a" takes its full
# 7.5 kW and "tie-b" the 2.5 kW left.
TIED_SESSIONS = ("id,arrival_ts,depart_ts,soc_arrival,soc_target,capacity_kwh\n"
                 "tie-b,2021-01-01T08:00:00+00:00,2021-01-01T12:00:00+00:00,0.2,0.9,20\n"
                 "tie-a,2021-01-01T08:00:00+00:00,2021-01-01T12:00:00+00:00,0.3,0.9,20\n")

INPUTS = {
    "sessions.csv": OVERNIGHT_SESSIONS, "model_sessions.csv": MODEL_SESSIONS,
    "quoted_sessions.csv": QUOTED_SESSIONS,
    "mix.csv": MIX, "factors.csv": FACTORS, "mix15.csv": MIX_15,
    "sessions15.csv": SESSIONS_15, "zero_total_mix.csv": ZERO_TOTAL_MIX,
    "one_day_mix.csv": ONE_DAY_MIX, "gas_imports.csv": GAS_IMPORTS,
    "overflow_mix.csv": OVERFLOW_MIX, "overflow_factors.csv": OVERFLOW_FACTORS,
    "collinear_mix.csv": COLLINEAR_MIX, "gas_solar.csv": GAS_SOLAR,
    "one_session.csv": ONE_SESSION, "total_overflow_mix.csv": TOTAL_OVERFLOW_MIX,
    "huge_intensity_mix.csv": HUGE_INTENSITY_MIX, "huge_factors.csv": HUGE_FACTORS,
    "quoted_mix.csv": QUOTED_MIX, "repeated_factors.csv": REPEATED_FACTORS,
    "note_load.csv": NOTE_LOAD, "huge_cell_sessions.csv": HUGE_CELL_SESSIONS,
    "tied_sessions.csv": TIED_SESSIONS,
}

RUNS = [
    *((f"simulate-{p}", ("simulate", "--policy", p, "--lambda", "1.2", *SYNTH))
      for p in POLICIES),
    ("simulate-tou-lambda-8",
     ("simulate", "--policy", "tou", "--lambda", "8", *SYNTH)),
    ("simulate-carbon-adaptive-lambda-7",
     ("simulate", "--policy", "carbon-adaptive", "--lambda", "7", *SYNTH)),
    # Blocks of 21 and 29 sessions, then of 42 and 38, so the adaptive
    # factor is 0.25, then 0.35, and small batteries take some energy at each.
    *((f"simulate-carbon-adaptive-{n}-per-day",
       ("simulate", "--policy", "carbon-adaptive", "--synth-days", "2",
        "--synth-sessions-per-day", n, "--synth-capacity-kwh", "0.5",
        "--power-cap-kw", "20", "--seed", "1")) for n in ("25", "40")),
    *((f"overnight-{p}", ("simulate", "--policy", p, *OVERNIGHT))
      for p in POLICIES),
    # Ids that decisions.csv and schedule.csv quote.
    ("overnight-quoted-ids-carbon-online",
     ("simulate", "--policy", "carbon-online", "--synth-days", "3",
      "--sessions", "{tmp}/quoted_sessions.csv", "--power-cap-kw", "7.5",
      "--lambda", "100")),
    ("mix-files-carbon-offline",
     ("simulate", "--policy", "carbon-offline", *FILES)),
    ("mix-files-carbon-offline-exclude-negative",
     ("simulate", "--policy", "carbon-offline", "--exclude-negative", *FILES)),
    ("mix-15-min-carbon-online", ("simulate", "--policy", "carbon-online", *FILES_15)),
    ("model-carbon-online", ("simulate", "--policy", "carbon-online",
                             "--online-forecast", "model", *MODEL)),
    # A lookahead shorter than the sessions' stays, under the fitted model.
    ("model-carbon-online-horizon-12", ("simulate", "--policy", "carbon-online",
                                        "--online-forecast", "model", "--horizon", "12",
                                        *MODEL)),
    # No block to forecast, so no model is fitted.
    ("model-carbon-online-no-sessions",
     ("simulate", "--policy", "carbon-online", "--online-forecast", "model",
      "--synth-days", "3", "--synth-sessions-per-day", "0", "--seed", "1")),
    ("lambda-sweep", ("lambda-sweep", "--lambdas", "0.1,1,1.2,3", *SYNTH)),
    # One block of three days that the sessions link across midnight.
    ("overnight-lambda-sweep", ("lambda-sweep", "--lambdas", "0.3,15,100",
                                *OVERNIGHT_INPUT)),
    ("forecast", ("forecast", "--synth-days", "60", "--seed", "1")),
    ("simulate-bad-lambda", ("simulate", "--policy", "edf", "--lambda", "nan")),
    # Runs that fail after their inputs are read: they leave no output.
    ("simulate-horizon-0", ("simulate", "--policy", "carbon-online",
                            "--horizon", "0", *SYNTH)),
    ("lambda-sweep-missing-mix", ("lambda-sweep", "--lambdas", "0.3",
                                  "--mix", "{tmp}/absent.csv",
                                  "--factors", "{tmp}/absent.csv", *SYNTH)),
    # Its rows are all one weekday of one month.
    ("forecast-two-days", ("forecast", "--synth-days", "2", "--seed", "1")),
    # Errors in what is derived from the mix name --mix.
    ("mix-zero-generation-edf", ("simulate", "--policy", "edf",
                                 "--mix", "{tmp}/zero_total_mix.csv",
                                 "--factors", "{tmp}/gas_imports.csv")),
    ("forecast-one-day-mix", ("forecast", "--mix", "{tmp}/one_day_mix.csv",
                              "--factors", "{tmp}/gas_imports.csv")),
    ("mix-intensity-overflow-edf", ("simulate", "--policy", "edf",
                                    "--mix", "{tmp}/overflow_mix.csv",
                                    "--factors", "{tmp}/overflow_factors.csv")),
    ("mix-total-overflow-edf", ("simulate", "--policy", "edf",
                                "--mix", "{tmp}/total_overflow_mix.csv",
                                "--factors", "{tmp}/gas_solar.csv")),
    ("mix-huge-intensity-edf", ("simulate", "--policy", "edf",
                                "--mix", "{tmp}/huge_intensity_mix.csv",
                                "--factors", "{tmp}/huge_factors.csv")),
    # Inputs that only the row path reads.
    ("quoted-mix-carbon-offline", ("simulate", "--policy", "carbon-offline",
                                   "--mix", "{tmp}/quoted_mix.csv",
                                   "--factors", "{tmp}/gas_solar.csv", "--lambda", "100",
                                   "--seed", "1")),
    ("note-load-model-carbon-online", ("simulate", "--policy", "carbon-online",
                                       "--online-forecast", "model",
                                       "--load", "{tmp}/note_load.csv", *MODEL)),
    ("factors-repeated-source-edf", ("simulate", "--policy", "edf",
                                     "--mix", "{tmp}/quoted_mix.csv",
                                     "--factors", "{tmp}/repeated_factors.csv")),
    ("sessions-cell-over-field-limit-edf", ("simulate", "--policy", "edf", "--synth-days", "1",
                                            "--sessions", "{tmp}/huge_cell_sessions.csv")),
    ("simulate-horizon-past-the-block", ("simulate", "--policy", "carbon-online",
                                         "--horizon", "1000000000000", "--synth-days", "1",
                                         "--synth-sessions-per-day", "5", "--lambda", "100",
                                         "--seed", "1")),
    ("edf-one-session-served", ("simulate", "--policy", "edf", "--synth-days", "1",
                                "--sessions", "{tmp}/one_session.csv")),
    ("edf-tied-deadlines", ("simulate", "--policy", "edf", "--synth-days", "1",
                            "--sessions", "{tmp}/tied_sessions.csv",
                            "--power-cap-kw", "10")),
    ("forecast-near-collinear", ("forecast", "--mix", "{tmp}/collinear_mix.csv",
                                 "--factors", "{tmp}/gas_solar.csv")),
]


FIGURES = ("total_emissions_kg", "energy_delivered_kwh", "edq_station")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def max_slot_kw(path: Path) -> float:
    """The largest per-slot sum of `power_kw` in a schedule.csv."""
    station = defaultdict(float)
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            station[int(row["slot"])] += float(row["power_kw"])
    return max(station.values(), default=0.0)


def digest(name: str, argv: tuple[str, ...]) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        for file, text in INPUTS.items():
            (Path(tmp) / file).write_text(text)
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([a.format(tmp=tmp) for a in argv] + ["--out-dir", str(out)])
            except Exception as exc:    # a crash is a line of the digest too
                code = f"raised {type(exc).__module__}.{type(exc).__qualname__}"
        lines = [f"{name} exit {code}",
                 f"{name} stdout {sha(stdout.getvalue().replace(tmp, '<tmp>').encode())}",
                 f"{name} stderr {sha(stderr.getvalue().replace(tmp, '<tmp>').encode())}"]
        if out.is_dir():
            lines += [f"{name} {p.name} {sha(p.read_bytes())}"
                      for p in sorted(out.iterdir())] or [f"{name} out-dir with no files"]
            if (out / "report.json").is_file():
                report = json.loads((out / "report.json").read_text())
                lines += [f"{name} {key} {report[key]:.9g}" for key in FIGURES]
            if (out / "schedule.csv").is_file():
                lines.append(f"{name} max_slot_kw {max_slot_kw(out / 'schedule.csv'):.9g}")
    return lines


def against(rev: str) -> int:
    """Print the unified diff of the digests of `rev`'s `src/` and the
    working tree's; 1 when they differ, else 0."""
    root = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=root,
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        runs = [subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE,
                                 text=True, env={**os.environ, "PYTHONPATH": str(src)})
                for src in (Path(tmp) / "src", root / "src")]
        old, new = (run.communicate()[0] for run in runs)
    if any(run.returncode for run in runs):
        raise SystemExit("a digest run failed")
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        rev, "working tree"))
    return int(old != new)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="diff this digest against the one of REV's src/")
    rev = parser.parse_args().against
    if rev is not None:
        sys.exit(against(rev))
    for name, argv in RUNS:
        print("\n".join(digest(name, argv)), flush=True)
