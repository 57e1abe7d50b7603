"""Metamorphic judges of `simulate`: two runs whose inputs differ in a way
that must not move some of their outputs, compared byte for byte, for every
policy that reads the changed input, on small seeded inputs.

- Shuffling the data rows of sessions.csv leaves every output file as it was.
- So does writing sessions.csv, the mix and its factors, or the load that
  the fitted-model forecast reads, another way that CSV allows: CRLF line
  ends, a leading byte order mark or every cell quoted; and for
  sessions.csv and the load, whose columns are read by name, an unknown
  extra column or the columns in reverse order.
- Prefixing every session id leaves report.json and shift.csv as they
  were, and schedule.csv and decisions.csv too once the ids are mapped back.
- Dropping one block's sessions, or adding sessions on a day that has none
  and links to no neighbour, leaves every other block's rows of
  schedule.csv, decisions.csv and shift.csv as they were.
"""

import csv
import io
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonsched import ingest
from carbonsched.cli import POLICIES, main
from conftest import DAY_SLOTS

D = DAY_SLOTS
N_DAYS = 4
HEADER = "id,arrival_ts,depart_ts,soc_arrival,soc_target,capacity_kwh\n"


def _stamp(k: int) -> str:
    return (datetime(2021, 1, 1, tzinfo=timezone.utc) + timedelta(minutes=5 * k)).isoformat()


def _blocks(seed: int) -> list[list[tuple]]:
    """Three blocks of sessions `(id, arrival slot, departure slot, text of
    the rest of the row)` drawn from `seed`: days 0 and 1, which a session
    that stays past midnight links, then day 2, then day 3. Two sessions of
    each block arrive in one slot, so their order is the ids', which are
    drawn in a random order; one id needs quoting in CSV."""
    rng = np.random.default_rng(seed)
    names = iter(f"ev{n:02d}" for n in rng.permutation(90))
    blocks = []
    for day, n in ((0, 3), (2, 3), (3, 2)):
        arrivals = day * D + rng.integers(72, 200, size=n)
        arrivals[1] = arrivals[0]
        spans = [(int(a), int(a + rng.integers(12, 80))) for a in arrivals]
        if day == 0:    # 22:00 to 03:20, and an arrival before it leaves
            spans += [(D - 24, D + 40), (D + int(rng.integers(0, 30)), D + 120)]
        blocks.append([(next(names), a, d,
                        f"{rng.uniform(0.1, 0.4):.3f},{rng.uniform(0.6, 0.9):.3f},"
                        f"{rng.choice([0.5, 5, 20, 40])}") for a, d in spans])
    blocks[1][0] = ("car,7", *blocks[1][0][1:])
    return blocks


def _cell(text: str) -> str:
    """`text` as one CSV cell, quoted as `csv.writer` quotes it."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"') else text


def _sessions_csv(sessions: list[tuple]) -> str:
    """sessions.csv for `sessions`."""
    return HEADER + "".join(f"{_cell(sid)},{_stamp(a)},{_stamp(d)},{rest}\n"
                            for sid, a, d, rest in sessions)


def _series_files(seed: int) -> dict[str, str]:
    """mix.csv, factors.csv and load.csv drawn from `seed`, on one grid of
    six days from 2020-12-30: two days before `_blocks`' first, so that the
    fitted model has the day of history it needs before the first block,
    and its month column is not constant."""
    rng = np.random.default_rng(seed)
    stamps = [_stamp(k) for k in range(-2 * D, N_DAYS * D)]
    n = len(stamps)
    solar = np.maximum(0.0, rng.normal(3000.0, 3000.0, n))
    gas, imports = rng.uniform(800.0, 1500.0, n), rng.uniform(-700.0, 1800.0, n)
    load = rng.uniform(20000.0, 28000.0, n)
    return {"mix.csv": "timestamp,solar,gas,imports\n" + "".join(
                f"{t},{s:.0f},{g:.2f},{i:.1f}\n"
                for t, s, g, i in zip(stamps, solar, gas, imports)),
            "factors.csv": f"source,kgco2_per_kwh\nsolar,0\ngas,{rng.uniform(0.3, 0.5):.3f}\n"
                           f"imports,{rng.uniform(0.1, 0.4):.3f}\n",
            "load.csv": "timestamp,load_mw\n" + "".join(
                f"{t},{x:.1f}\n" for t, x in zip(stamps, load))}


def _spellings(text: str) -> dict[str, str]:
    """The CSV `text` written in each of the other ways: CRLF line ends, a
    leading BOM, every cell quoted, an unknown second column whose cells
    need quoting, and the columns in reverse order. The last two keep a
    file the same only where its columns are read by name."""
    plain = list(csv.reader(io.StringIO(text, newline="")))

    def write(table, end="\n", quote=False):
        def cell(c):
            return '"' + c.replace('"', '""') + '"' if quote else _cell(c)
        return "".join(",".join(map(cell, row)) + end for row in table)

    notes = ["note", *(f"seen {k}, then" for k in range(len(plain) - 1))]
    return {"crlf": write(plain, end="\r\n"), "bom": "\ufeff" + write(plain),
            "quoted": write(plain, quote=True),
            # second, so that every later column moves
            "extra-column": write([[r[0], note, *r[1:]] for r, note in zip(plain, notes)]),
            "reordered": write([row[::-1] for row in plain])}


def _run(policy: str, sessions: list[tuple] | str, files: dict[str, str] | None = None,
         *flags: str) -> dict[str, bytes]:
    """Every output file of `simulate --policy policy` on `sessions`, or on
    that text of sessions.csv. With `files`, a file name to its text, the
    intensity is read from their mix.csv and factors.csv, and `flags`
    follow, where `{tmp}` is the directory the files are in; without, it is
    N_DAYS synthetic days."""
    if not isinstance(sessions, str):
        sessions = _sessions_csv(sessions)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {"sessions.csv": sessions, **(files or {})}.items():
            (Path(tmp) / name).write_bytes(text.encode())
        if files:
            flags = ("--mix", f"{tmp}/mix.csv", "--factors", f"{tmp}/factors.csv",
                     *(f.format(tmp=tmp) for f in flags))
        else:
            flags = ("--synth-days", str(N_DAYS))
        assert main(["simulate", "--policy", policy, *flags, "--seed", "3",
                     "--sessions", f"{tmp}/sessions.csv", "--power-cap-kw", "10",
                     "--lambda", "100", "--out-dir", f"{tmp}/out"]) == 0
        return {p.name: p.read_bytes() for p in (Path(tmp) / "out").iterdir()}


def _rows(text: bytes) -> list[tuple[list[str], str]]:
    """Each data row of a CSV file: its cells, and its line as written."""
    lines = text.decode().splitlines(keepends=True)[1:]
    return [(next(csv.reader([line])), line) for line in lines]


def _assert_other_blocks_kept(full: dict[str, bytes], part: dict[str, bytes],
                              policy: str, block: list[tuple]) -> None:
    """`part` is `full` without `block`'s rows: of its sessions, and of its
    slots, from its first day's start to its latest departure, at least one
    day. Blocks are written in day order, one shift.csv row per slot."""
    ids = {s[0] for s in block}
    start = min(s[1] for s in block) // D * D
    end = max(start + D, max(s[2] for s in block))
    kept = {"schedule.csv": lambda cells: cells[0] not in ids,
            "decisions.csv": lambda cells: cells[1] not in ids,
            "shift.csv": lambda cells: not start <= int(cells[0]) < end}
    assert set(full) == set(part) == {"report.json", "schedule.csv", "shift.csv"} | (
        {"decisions.csv"} if policy == "carbon-online" else set())
    for name in set(full) & set(kept):
        assert [line for cells, line in _rows(part[name])] \
            == [line for cells, line in _rows(full[name]) if kept[name](cells)], name
    for files in (full, part):
        slots = [int(cells[0]) for cells, _ in _rows(files["shift.csv"])]
        assert slots == sorted(set(slots))


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), order=st.randoms(use_true_random=False))
def test_shuffled_sessions_write_the_same_files(policy, seed, order):
    sessions = [s for block in _blocks(seed) for s in block]
    shuffled = sessions[:]
    order.shuffle(shuffled)
    assert _run(policy, shuffled) == _run(policy, sessions)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_sessions_csv_written_another_way_writes_the_same_files(policy, seed):
    sessions = [s for block in _blocks(seed) for s in block]
    want = _run(policy, sessions)
    for name, text in _spellings(_sessions_csv(sessions)).items():
        assert _run(policy, text) == want, name


# The ways that send a series file to `read_csv`'s row path; CRLF and the
# BOM keep it on the whole-file path.
ROW_PATH = {"quoted", "extra-column", "reordered"}


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_mix_and_factors_written_another_way_write_the_same_files(policy, seed):
    sessions = [s for block in _blocks(seed) for s in block]
    files = _series_files(seed)
    want = _run(policy, sessions, files)
    mix, factors = _spellings(files["mix.csv"]), _spellings(files["factors.csv"])
    for way in ("crlf", "bom", "quoted"):    # a mix's columns are read by position
        text = mix[way]
        assert (ingest._numeric_table(text.removeprefix("\ufeff")) is None) == (way in ROW_PATH)
        assert _run(policy, sessions, {**files, "mix.csv": text,
                                       "factors.csv": factors[way]}) == want, way


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_load_written_another_way_writes_the_same_files(seed):
    sessions = [s for block in _blocks(seed) for s in block]
    files = _series_files(seed)
    model = ("--online-forecast", "model", "--load", "{tmp}/load.csv")
    want = _run("carbon-online", sessions, files, *model)
    assert "decisions.csv" in want
    for way, text in _spellings(files["load.csv"]).items():
        assert (ingest._numeric_table(text.removeprefix("\ufeff")) is None) == (way in ROW_PATH)
        assert _run("carbon-online", sessions, {**files, "load.csv": text}, *model) == want, way


# Prefixes of printable characters that `str.strip` keeps, quotes and
# commas among them.
prefixes = st.text(st.characters(categories=("L", "N", "P", "S")), min_size=1, max_size=4)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), prefix=prefixes)
def test_prefixed_ids_write_the_same_files_up_to_the_ids(policy, seed, prefix):
    sessions = [s for block in _blocks(seed) for s in block]
    want = _run(policy, sessions)
    got = _run(policy, [(prefix + sid, *rest) for sid, *rest in sessions])
    assert set(got) == set(want)
    assert got["report.json"] == want["report.json"]
    assert got["shift.csv"] == want["shift.csv"]
    for name, at in (("schedule.csv", 0), ("decisions.csv", 1)):
        if name in want:
            assert got[name].split(b"\n", 1)[0] == want[name].split(b"\n", 1)[0]
            renamed = [cells for cells, _ in _rows(got[name])]
            assert all(cells[at].startswith(prefix) for cells in renamed), name
            for cells in renamed:
                cells[at] = cells[at].removeprefix(prefix)
            assert renamed == [cells for cells, _ in _rows(want[name])], name


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), drop=st.integers(0, 2))
def test_dropping_a_block_keeps_the_other_blocks_rows(policy, seed, drop):
    blocks = _blocks(seed)
    full = _run(policy, [s for block in blocks for s in block])
    part = _run(policy, [s for j, block in enumerate(blocks) if j != drop for s in block])
    _assert_other_blocks_kept(full, part, policy, blocks[drop])


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), day=st.sampled_from([2, 3]), data=st.data())
def test_adding_a_day_of_sessions_keeps_the_other_blocks_rows(policy, seed, day, data):
    # `_blocks` without its block of `day`, which no other block reaches,
    # and new sessions that arrive on that day and leave by its end.
    blocks = _blocks(seed)
    part = [s for block in blocks if block[0][1] // D != day for s in block]
    added = []
    for j in range(data.draw(st.integers(1, 3), label="sessions")):
        a = day * D + data.draw(st.integers(0, D - 2))
        d = data.draw(st.integers(a + 1, min((day + 1) * D, N_DAYS * D - 1)))
        added.append((f"ev{data.draw(st.integers(0, 99)):02d}+{j}", a, d,
                      f"{data.draw(st.floats(0.0, 0.5)):.3f},"
                      f"{data.draw(st.floats(0.5, 1.0)):.3f},"
                      f"{data.draw(st.sampled_from([0.5, 5, 20, 40]))}"))
    _assert_other_blocks_kept(_run(policy, part + added), _run(policy, part), policy, added)
