"""Metamorphic judges of `simulate`: two runs whose inputs differ in a way
that must not move some of their outputs, compared byte for byte, for every
policy on small seeded inputs.

- Shuffling the data rows of sessions.csv leaves every output file as it was.
- So does writing sessions.csv another way that CSV allows: CRLF line ends,
  a leading byte order mark, an unknown extra column, or every cell quoted.
- Dropping one block's sessions leaves every other block's rows of
  schedule.csv, decisions.csv and shift.csv as they were.
"""

import csv
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _csv_row(session: tuple) -> str:
    sid, a, d, rest = session
    cell = f'"{sid}"' if "," in sid else sid
    return f"{cell},{_stamp(a)},{_stamp(d)},{rest}\n"


def _spellings(sessions: list[tuple]) -> dict[str, str]:
    """sessions.csv for `sessions`, written in each of the other ways."""
    header = HEADER.rstrip("\n").split(",")
    rows = [next(csv.reader([_csv_row(s)])) for s in sessions]

    def text(table, end="\n", quote=False):
        def cell(c):
            return '"' + c.replace('"', '""') + '"' if quote or "," in c else c
        return "".join(",".join(map(cell, row)) + end for row in table)

    plain = [header, *rows]
    return {"crlf": text(plain, end="\r\n"),
            "bom": "\ufeff" + text(plain),
            # second, so that every later column moves
            "extra-column": text([[r[0], note, *r[1:]] for r, note in zip(
                plain, ["note", *(f"seen {k}, then" for k in range(len(rows)))])]),
            "quoted": text(plain, quote=True)}


def _run(policy: str, sessions: list[tuple] | str) -> dict[str, bytes]:
    """Every output file of `simulate --policy policy` on `sessions`, or
    on that text of sessions.csv."""
    if not isinstance(sessions, str):
        sessions = HEADER + "".join(map(_csv_row, sessions))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sessions.csv"
        path.write_bytes(sessions.encode())
        assert main(["simulate", "--policy", policy, "--synth-days", str(N_DAYS),
                     "--seed", "3", "--sessions", str(path), "--power-cap-kw", "10",
                     "--lambda", "100", "--out-dir", str(Path(tmp) / "out")]) == 0
        return {p.name: p.read_bytes() for p in (Path(tmp) / "out").iterdir()}


def _rows(text: bytes) -> list[tuple[list[str], str]]:
    """Each data row of a CSV file: its cells, and its line as written."""
    lines = text.decode().splitlines(keepends=True)[1:]
    return [(next(csv.reader([line])), line) for line in lines]


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
    for name, text in _spellings(sessions).items():
        assert _run(policy, text) == want, name


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), drop=st.integers(0, 2))
def test_dropping_a_block_keeps_the_other_blocks_rows(policy, seed, drop):
    blocks = _blocks(seed)
    full = _run(policy, [s for block in blocks for s in block])
    part = _run(policy, [s for j, block in enumerate(blocks) if j != drop for s in block])
    # The dropped block's sessions and slots: from its first day's start to
    # its latest departure, at least one day.
    ids = {s[0] for s in blocks[drop]}
    start = min(s[1] for s in blocks[drop]) // D * D
    end = max(start + D, max(s[2] for s in blocks[drop]))
    kept = {"schedule.csv": lambda cells: cells[0] not in ids,
            "decisions.csv": lambda cells: cells[1] not in ids,
            "shift.csv": lambda cells: not start <= int(cells[0]) < end}
    assert set(full) == set(part) == {"report.json", "schedule.csv", "shift.csv"} | (
        {"decisions.csv"} if policy == "carbon-online" else set())
    for name in set(full) & set(kept):
        assert [line for cells, line in _rows(part[name])] \
            == [line for cells, line in _rows(full[name]) if kept[name](cells)], name
    # Blocks are written in day order, one shift.csv row per slot.
    for files in (full, part):
        slots = [int(cells[0]) for cells, _ in _rows(files["shift.csv"])]
        assert slots == sorted(set(slots))
