import csv
import io
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbonsched import errors, ingest
from carbonsched.timegrid import TimeGrid

from conftest import make_grid, make_session

UTC = timezone.utc


def _mix_csv(rows, sources=("solar", "gas")):
    header = "timestamp," + ",".join(sources)
    return io.StringIO("\n".join([header, *rows]) + "\n")


def _factors_csv(pairs):
    lines = ["source,kgco2_per_kwh"] + [f"{s},{f}" for s, f in pairs]
    return io.StringIO("\n".join(lines) + "\n")


class TestParseGridMix:
    def test_minimal_two_source(self):
        mix = ingest.parse_grid_mix(
            _mix_csv(["2021-01-01T00:00:00+00:00,100,100",
                      "2021-01-01T00:05:00+00:00,100,100"]),
            _factors_csv([("solar", 0.0), ("gas", 0.4)]))
        assert mix.sources == ("solar", "gas")
        assert mix.power.shape == (2, 2)
        np.testing.assert_allclose(mix.power, 100.0)
        np.testing.assert_allclose(mix.factors, [0.0, 0.4])

    def test_missing_factor(self):
        with pytest.raises(errors.MissingSourceFactor) as exc:
            ingest.parse_grid_mix(
                _mix_csv(["2021-01-01T00:00:00+00:00,1,2"],
                         sources=("solar", "imports")),
                _factors_csv([("solar", 0.0)]))
        assert exc.value.source == "imports"

    def test_non_uniform_rows_rejected(self):
        with pytest.raises(errors.NonMonotonicTimestamps) as exc:
            ingest.parse_grid_mix(
                _mix_csv(["2021-01-01T00:00:00+00:00,1,1",
                          "2021-01-01T00:05:00+00:00,1,1",
                          "2021-01-01T00:15:00+00:00,1,1"]),
                _factors_csv([("solar", 0.0), ("gas", 0.4)]))
        assert exc.value.row == 3

    @pytest.mark.parametrize("second", ["00:05:00", "00:00:00"])
    def test_second_stamp_not_after_the_first_rejected(self, second):
        with pytest.raises(errors.NonMonotonicTimestamps, match="at row 2$"):
            ingest.parse_grid_mix(
                _mix_csv(["2021-01-01T00:05:00+00:00,1,1",
                          f"2021-01-01T{second}+00:00,1,1"]),
                _factors_csv([("solar", 0.0), ("gas", 0.4)]))

    def test_malformed_number(self):
        with pytest.raises(errors.MalformedNumber) as exc:
            ingest.parse_grid_mix(
                _mix_csv(["2021-01-01T00:00:00+00:00,oops,1"]),
                _factors_csv([("solar", 0.0), ("gas", 0.4)]))
        assert exc.value.row == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, cell):
        with pytest.raises(errors.NonFiniteValue,
                           match="row 2, column 'gas'"):
            ingest.parse_grid_mix(
                _mix_csv(["2021-01-01T00:00:00+00:00,1,1",
                          f"2021-01-01T00:05:00+00:00,1,{cell}"]),
                _factors_csv([("solar", 0.0), ("gas", 0.4)]))

    def test_non_finite_factor_rejected(self):
        with pytest.raises(errors.NonFiniteValue,
                           match="row 2, column 'kgco2_per_kwh'"):
            ingest.parse_grid_mix(
                _mix_csv(["2021-01-01T00:00:00+00:00,1,1"]),
                _factors_csv([("solar", 0.0), ("gas", "nan")]))

    def test_repeated_source_rejected(self):
        # a second factor for one source would silently replace the first
        with pytest.raises(errors.MalformedRow,
                           match="^malformed CSV row 3: source 'gas' is repeated$"):
            ingest.parse_grid_mix(
                _mix_csv(["2021-01-01T00:00:00+00:00,1,1",
                          "2021-01-01T00:05:00+00:00,1,1"]),
                _factors_csv([("solar", 0.0), ("gas", 0.4), ("gas", 0.9)]))

    def test_negative_power_needs_signed_source(self):
        rows = ["2021-01-01T00:00:00+00:00,-5,1", "2021-01-01T00:05:00+00:00,-5,1"]
        with pytest.raises(errors.OutOfRange,
                           match="negative power for non-signed source 'solar' at row 1"):
            ingest.parse_grid_mix(
                _mix_csv(rows), _factors_csv([("solar", 0.0), ("gas", 0.4)]))
        # imports may legitimately go negative (exports)
        mix = ingest.parse_grid_mix(
            _mix_csv(rows, sources=("imports", "gas")),
            _factors_csv([("imports", 0.3), ("gas", 0.4)]))
        assert mix.power[0, 0] == -5.0

    def test_roundtrip_lossless(self):
        mix = ingest.synth_grid_mix(1, seed=7)
        m_out, f_out = io.StringIO(), io.StringIO()
        ingest.write_grid_mix(mix, m_out, f_out)
        again = ingest.parse_grid_mix(io.StringIO(m_out.getvalue()),
                                      io.StringIO(f_out.getvalue()))
        assert again.sources == mix.sources
        assert again.timestamps == mix.timestamps
        np.testing.assert_array_equal(again.power, mix.power)
        np.testing.assert_array_equal(again.factors, mix.factors)


def _sessions_csv(rows, header=None):
    header = header or ("id,arrival_ts,depart_ts,soc_arrival,soc_target,"
                        "capacity_kwh,soc_max,power_max_kw,efficiency")
    return io.StringIO("\n".join([header, *rows]) + "\n")


class TestParseLoad:
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_rejected(self, cell):
        with pytest.raises(errors.NonFiniteValue,
                           match="row 2, column 'load_mw'"):
            ingest.parse_load(io.StringIO(
                "timestamp,load_mw\n2021-01-01T00:00:00+00:00,24000\n"
                f"2021-01-01T00:05:00+00:00,{cell}\n"))

    def test_one_row_rejected(self):
        # one stamp fixes no slot length
        with pytest.raises(errors.TooFewRows, match="at least two rows"):
            ingest.parse_load(io.StringIO(
                "timestamp,load_mw\n2021-01-01T00:00:00+00:00,24000\n"))


@pytest.mark.parametrize("parser", ["mix", "load"])
class TestSlotLength:
    """A series' spacing is its slot length, so it must be a whole number
    of minutes that divides 24 h: 90 s would give 2-minute slots (every
    kWh off by a third) and 7 minutes 205-slot days of 23 h 55 min."""

    @staticmethod
    def _parse(parser, second):
        rows = ["2021-01-01T00:00:00+00:00,1,1", f"2021-01-01T{second}+00:00,1,1"]
        if parser == "mix":
            return ingest.parse_grid_mix(
                _mix_csv(rows), _factors_csv([("solar", 0.0), ("gas", 0.4)]))
        return ingest.parse_load(io.StringIO(
            "timestamp,load_mw\n" + "".join(r.rsplit(",", 1)[0] + "\n" for r in rows)))

    @pytest.mark.parametrize("second,seconds", [("00:01:30", 90), ("00:07:00", 420),
                                                ("00:00:30", 30), ("16:00:00", 57600)])
    def test_rejected(self, parser, second, seconds):
        with pytest.raises(errors.UnsupportedSlotLength,
                           match=f"rows are {seconds} s apart") as exc:
            self._parse(parser, second)
        assert exc.value.step.total_seconds() == seconds

    @pytest.mark.parametrize("second", ["00:01:00", "00:05:00", "00:15:00", "01:00:00"])
    def test_accepted(self, parser, second):
        self._parse(parser, second)


class TestParseSessions:
    def test_delta_from_efficiency(self):
        # 90% efficiency: 15-min slots give 0.225, 5-min slots give 0.075
        for slot_minutes, expected in ((15, 0.225), (5, 0.075)):
            grid = TimeGrid(datetime(2021, 1, 1, tzinfo=UTC), slot_minutes,
                            1440 // slot_minutes)
            sess = ingest.parse_sessions(_sessions_csv(
                ["a,2021-01-01T08:00:00+00:00,2021-01-01T12:00:00+00:00,"
                 "0.2,0.6,50,1.0,7.5,0.9"]), grid)
            assert sess[0].delta == pytest.approx(expected)

    def test_snapping_arrival_up_departure_down(self, day_grid):
        sess = ingest.parse_sessions(_sessions_csv(
            ["a,2021-04-01T08:01:00+00:00,2021-04-01T11:59:00+00:00,"
             "0.2,0.6,50,1.0,7.5,0.9"]), day_grid)
        assert sess[0].t_arrival == 8 * 12 + 1   # 08:05 boundary
        assert sess[0].t_depart == 11 * 12 + 11  # 11:55 boundary

    def test_exact_boundaries_not_moved(self, day_grid):
        sess = ingest.parse_sessions(_sessions_csv(
            ["a,2021-04-01T08:00:00+00:00,2021-04-01T12:00:00+00:00,"
             "0.2,0.6,50,1.0,7.5,0.9"]), day_grid)
        assert (sess[0].t_arrival, sess[0].t_depart) == (96, 144)

    def test_outside_horizon(self, day_grid):
        with pytest.raises(errors.SessionOutsideHorizon):
            ingest.parse_sessions(_sessions_csv(
                ["a,2021-03-31T23:00:00+00:00,2021-04-01T02:00:00+00:00,"
                 "0.2,0.6,50,1.0,7.5,0.9"]), day_grid)

    def test_depart_before_arrival(self, day_grid):
        # 08:02 -> 08:04 snaps to 08:05 -> 08:00, an empty window too
        for arrival, depart in (("12:00", "08:00"), ("08:02", "08:04")):
            with pytest.raises(errors.EmptyWindow, match="empty charging window"):
                ingest.parse_sessions(_sessions_csv(
                    [f"a,2021-04-01T{arrival}:00+00:00,2021-04-01T{depart}:00+00:00,"
                     "0.2,0.6,50,1.0,7.5,0.9"]), day_grid)

    def test_invalid_soc(self, day_grid):
        with pytest.raises(errors.InvalidSoC):
            ingest.parse_sessions(_sessions_csv(
                ["a,2021-04-01T08:00:00+00:00,2021-04-01T12:00:00+00:00,"
                 "0.7,0.6,50,1.0,7.5,0.9"]), day_grid)

    @pytest.mark.parametrize("capacity", [1e17, 1e300])
    def test_step_that_rounds_away_at_the_target(self, capacity):
        # a full-power slot's SoC step, 7.5 * delta / capacity, is below
        # half an ulp of 0.6, so no schedule could deliver energy
        with pytest.raises(errors.InvalidSoC, match="'a' .* rounds away at target=0.6"):
            make_session("a", 0, 12, 0.2, 0.6, capacity_kwh=capacity)

    def test_step_that_rounds_away_with_nothing_to_deliver(self):
        # at its target the session asks for no energy, so it is kept
        s = make_session("a", 0, 12, 0.6, 0.6, capacity_kwh=1e300)
        assert s.capacity_kwh == 1e300
        assert make_session("b", 0, 12, 0.2, 0.6, capacity_kwh=1e15).capacity_kwh == 1e15

    @staticmethod
    def _one_row_with(column, cell):
        """`_sessions_csv` of one valid row with `column`'s cell set to `cell`."""
        header = ("id,arrival_ts,depart_ts,soc_arrival,soc_target,"
                  "capacity_kwh,soc_max,power_max_kw,efficiency")
        cells = ("a,2021-04-01T08:00:00+00:00,2021-04-01T12:00:00+00:00,"
                 "0.2,0.6,50,1.0,7.5,0.9").split(",")
        cells[header.split(",").index(column)] = cell
        return _sessions_csv([",".join(cells)])

    @pytest.mark.parametrize("column", ["capacity_kwh", "soc_max", "power_max_kw",
                                        "efficiency"])
    def test_non_finite_optional_cell_names_row_and_column(self, day_grid, column):
        with pytest.raises(errors.NonFiniteValue,
                           match=f"^non-finite value in row 1, column '{column}'$"):
            ingest.parse_sessions(self._one_row_with(column, "inf"), day_grid)

    @pytest.mark.parametrize("column,cell", [("capacity_kwh", "0"), ("power_max_kw", "-1"),
                                             ("efficiency", "0")])
    def test_battery_cell_that_is_not_positive_names_the_session(self, day_grid, column,
                                                                 cell):
        with pytest.raises(errors.InvalidSoC, match="^session 'a' violates SoC invariants: "
                           "capacity, power_max and delta must be positive and finite$"):
            ingest.parse_sessions(self._one_row_with(column, cell), day_grid)

    def test_defaults_for_optional_columns(self, day_grid):
        sess = ingest.parse_sessions(_sessions_csv(
            ["a,2021-04-01T08:00:00+00:00,2021-04-01T12:00:00+00:00,0.2,0.6"],
            header="id,arrival_ts,depart_ts,soc_arrival,soc_target"), day_grid)
        s = sess[0]
        assert s.capacity_kwh == 50.0
        assert s.power_max_kw == 7.5
        assert s.soc_max == 1.0
        assert s.delta == pytest.approx(0.9 * 5 / 60)

    def test_write_then_parse_roundtrip(self, day_grid):
        sessions = ingest.synth_sessions(25, day_grid, seed=4)
        out = io.StringIO()
        ingest.write_sessions(sessions, day_grid, out)
        again = ingest.parse_sessions(io.StringIO(out.getvalue()), day_grid)
        assert [(s.id, s.t_arrival, s.t_depart) for s in again] \
            == [(s.id, s.t_arrival, s.t_depart) for s in sessions]
        np.testing.assert_allclose([s.soc_target for s in again],
                                   [s.soc_target for s in sessions])


class TestBinaryStreams:
    """Parsers read a caller's binary file and leave it open."""

    def _write(self, path, text):
        path.write_text(text, encoding="utf-8", newline="")
        return path

    def test_parsers_leave_stream_open(self, tmp_path):
        mix = self._write(tmp_path / "mix.csv", "timestamp,solar,gas\r\n"
                          "2021-01-01T00:00:00+00:00,100,100\r\n"
                          "2021-01-01T00:05:00+00:00,100,300\r\n")
        factors = self._write(tmp_path / "factors.csv",
                              "source,kgco2_per_kwh\nsolar,0.0\ngas,0.4\n")
        load = self._write(tmp_path / "load.csv", "timestamp,load_mw\n"
                           "2021-01-01T00:00:00+00:00,24000\n"
                           "2021-01-01T00:05:00+00:00,24000\n")
        sessions = self._write(
            tmp_path / "sessions.csv",
            "id,arrival_ts,depart_ts,soc_arrival,soc_target\n"
            "a,2021-01-01T08:00:00+00:00,2021-01-01T12:00:00+00:00,0.2,0.6\n")
        with open(mix, "rb") as mf, open(factors, "rb") as ff:
            parsed = ingest.parse_grid_mix(mf, ff)
            assert not mf.closed and not ff.closed
        np.testing.assert_array_equal(parsed.power, [[100.0, 100.0], [100.0, 300.0]])
        with open(load, "rb") as f:
            assert ingest.parse_load(f).load_mw.tolist() == [24000.0, 24000.0]
            assert not f.closed
        with open(sessions, "rb") as f:
            assert [s.id for s in ingest.parse_sessions(f, make_grid(1))] == ["a"]
            assert not f.closed


    def test_byte_order_mark_skipped(self):
        # spreadsheet exports start with a UTF-8 BOM
        texts = {
            "mix": "timestamp,solar,gas\n2021-01-01T00:00:00+00:00,100,100\n"
                   "2021-01-01T00:05:00+00:00,100,300\n",
            "factors": "source,kgco2_per_kwh\nsolar,0.0\ngas,0.4\n",
            "load": "timestamp,load_mw\n2021-01-01T00:00:00+00:00,24000\n"
                    "2021-01-01T00:05:00+00:00,25000\n",
            "sessions": "id,arrival_ts,depart_ts,soc_arrival,soc_target\n"
                        "a,2021-01-01T08:00:00+00:00,2021-01-01T12:00:00+00:00,"
                        "0.2,0.6\n",
        }

        def parse(stream):
            f = {k: stream(v) for k, v in texts.items()}
            mix = ingest.parse_grid_mix(f["mix"], f["factors"])
            load = ingest.parse_load(f["load"])
            return (mix.timestamps, mix.sources, mix.power.tolist(),
                    mix.factors.tolist(), load.timestamps, load.load_mw.tolist(),
                    ingest.parse_sessions(f["sessions"], make_grid(1)))

        plain = parse(lambda text: io.BytesIO(text.encode()))
        assert parse(lambda text: io.BytesIO(b"\xef\xbb\xbf" + text.encode())) == plain
        # a text stream, as from open(path) without "b", keeps the BOM as
        # a character of its first line
        assert parse(lambda text: io.StringIO("\ufeff" + text)) == plain


_FACTORS = "source,kgco2_per_kwh\nsolar,0.0\ngas,0.4\n"
_MIX = ("timestamp,solar,gas\n2021-01-01T00:00:00+00:00,1,1\n"
        "2021-01-01T00:05:00+00:00,1,1\n")
_PARSERS = {
    "mix": (_MIX, lambda f: ingest.parse_grid_mix(f, io.StringIO(_FACTORS))),
    "factors": (_FACTORS, lambda f: ingest.parse_grid_mix(io.StringIO(_MIX), f)),
    "load": ("timestamp,load_mw\n2021-01-01T00:00:00+00:00,24000\n"
             "2021-01-01T00:05:00+00:00,24000\n", ingest.parse_load),
    "sessions": ("id,arrival_ts,depart_ts,soc_arrival,soc_target\n"
                 "a,2021-01-01T08:00:00+00:00,2021-01-01T12:00:00+00:00,0.2,0.6\n"
                 "b,2021-01-01T09:00:00+00:00,2021-01-01T11:00:00+00:00,0.2,0.6\n",
                 lambda f: ingest.parse_sessions(f, make_grid(1))),
}


@pytest.mark.parametrize("parser", sorted(_PARSERS))
class TestMalformedRows:
    """Every parser reads its file through `read_csv`: the header's cell
    count binds every row, blank rows are skipped and not counted."""

    def _parse(self, parser, text):
        return _PARSERS[parser][1](io.StringIO(text))

    @pytest.mark.parametrize("edit", [lambda row: row[:row.rindex(",")],
                                      lambda row: row + ",1"], ids=["short", "long"])
    def test_error_names_the_row(self, parser, edit):
        header, first, second = _PARSERS[parser][0].splitlines()
        self._parse(parser, "\n".join([header, first, second]) + "\n")
        with pytest.raises(errors.MalformedRow, match="row 2: ") as exc:
            self._parse(parser, "\n".join([header, "", first, "", edit(second)]) + "\n")
        assert exc.value.row == 2

    def test_empty_file(self, parser):
        with pytest.raises(errors.MalformedRow, match="header: the file is empty"):
            self._parse(parser, "")

    def test_missing_or_repeated_column(self, parser):
        header, *rows = _PARSERS[parser][0].splitlines()
        last = header.rsplit(",", 1)[1]
        with pytest.raises(errors.MalformedRow, match="header: a column name is repeated"):
            self._parse(parser, "\n".join([f"{header},{last}",
                                           *(f"{r},1" for r in rows)]) + "\n")
        if parser != "mix":    # the mix's columns are positional
            with pytest.raises(errors.MalformedRow, match=f"header: no column {last!r}"):
                self._parse(parser, "\n".join(
                    [header.rsplit(",", 1)[0], *(r.rsplit(",", 1)[0] for r in rows)]) + "\n")


    def test_cell_over_the_field_limit(self, parser):
        # `csv.reader` refuses a cell over 131,072 characters; the mix and
        # load reach it only through a quote, as the whole-file path, which
        # has no cell-size limit, reads them otherwise
        header, first, second = _PARSERS[parser][0].splitlines()
        first = first[:first.rindex(",") + 1] + "1." + "0" * 140_000
        text = "\n".join([header, first, second]) + "\n"
        if parser in ("mix", "load"):
            self._parse(parser, text)
            text = '"' + text.replace(",", '",', 1)
        with pytest.raises(errors.MalformedRow, match=r"^malformed CSV row 1: field "
                           r"larger than field limit \(131072\)$"):
            self._parse(parser, text)

    def test_error_names_the_file(self, parser, tmp_path):
        # a file opened by path names itself; the other file of the mix
        # parser is an unnamed stream, so the error is this file's
        header, first, second = _PARSERS[parser][0].splitlines()
        path = tmp_path / f"{parser}.csv"
        path.write_text("\n".join([header, first, second + ",1"]) + "\n")
        with open(path, "rb") as f, pytest.raises(errors.MalformedRow) as exc:
            _PARSERS[parser][1](f)
        assert exc.value.where == str(path)
        assert str(exc.value).startswith(f"{path}: malformed CSV row 2: ")


@pytest.mark.parametrize("parser,column", [
    ("mix", "timestamp"), ("mix", "solar"), ("mix", "gas"),
    ("factors", "kgco2_per_kwh"), ("load", "timestamp"), ("load", "load_mw"),
    ("sessions", "arrival_ts"), ("sessions", "soc_target")])
def test_bad_cell_names_row_and_column(parser, column):
    header, first, second = _PARSERS[parser][0].splitlines()
    cells = second.split(",")
    cells[header.split(",").index(column)] = "oops"
    with pytest.raises(errors.MalformedNumber) as exc:
        _PARSERS[parser][1](io.StringIO("\n".join([header, first, ",".join(cells)]) + "\n"))
    assert (exc.value.row, exc.value.col) == (2, column)


@pytest.mark.parametrize("parser,column", [
    ("mix", "gas"), ("factors", "kgco2_per_kwh"), ("load", "load_mw"),
    ("sessions", "soc_arrival"), ("sessions", "soc_target")])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_cell_names_row_and_column(parser, column, cell):
    header, first, second = _PARSERS[parser][0].splitlines()
    cells = second.split(",")
    cells[header.split(",").index(column)] = cell
    with pytest.raises(errors.NonFiniteValue) as exc:
        _PARSERS[parser][1](io.StringIO("\n".join([header, first, ",".join(cells)]) + "\n"))
    assert str(exc.value) == f"non-finite value in row 2, column {column!r}"


def test_header_over_the_field_limit_is_named():
    with pytest.raises(errors.MalformedRow, match="^malformed CSV header: field larger"):
        ingest.read_csv("x" * 140_000 + ",y\n1,2\n")


@pytest.mark.parametrize("parser,text,error", [
    pytest.param("mix", _MIX.replace(",1,1\n", ",nan,2\n", 1).replace(",1,1\n", ",1,oops\n"),
                 "non-finite value in row 1, column 'solar'", id="mix"),
    pytest.param("load", "timestamp,load_mw\n2021-01-01T00:00:00+00:00,inf\n"
                 "2021-01-01T00:05:00+00:00,oops\n",
                 "non-finite value in row 1, column 'load_mw'", id="load")])
def test_first_fault_in_file_order_is_named(parser, text, error):
    with pytest.raises(errors.CarbonSchedError) as exc:
        _PARSERS[parser][1](io.StringIO(text))
    assert str(exc.value) == error


@pytest.mark.parametrize("cell,error", [("oops", errors.MalformedNumber),
                                        ("nan", errors.NonFiniteValue)])
def test_bad_cell_named_before_a_source_without_factor(cell, error):
    # whichever path reads the mix: a nan cell leaves it to the whole-file path
    with pytest.raises(error, match="row 2, column 'coal'"):
        ingest.parse_grid_mix(_mix_csv(["2021-01-01T00:00:00+00:00,1,1",
                                        f"2021-01-01T00:05:00+00:00,1,{cell}"],
                                       sources=("solar", "coal")),
                              _factors_csv([("solar", 0.0)]))


@pytest.mark.parametrize("parser", sorted(_PARSERS))
def test_bytes_that_are_not_utf8_name_the_byte(parser):
    text = _PARSERS[parser][0].encode()
    at = text.index(b"\n") + 1    # the first byte of the first data row
    with pytest.raises(errors.CarbonSchedError) as exc:
        _PARSERS[parser][1](io.BytesIO(text[:at] + b"\xff" + text[at + 1:]))
    assert type(exc.value) is errors.CarbonSchedError
    assert str(exc.value) == f"not UTF-8: byte {at} is 0xff"


@pytest.mark.parametrize("parser", sorted(_PARSERS))
def test_text_stream_of_bytes_that_are_not_utf8_names_file_and_byte(parser, tmp_path):
    # the stream, not the parser, decodes; the error is still an input
    # error, at the byte's offset in the file, and names the file
    text = _PARSERS[parser][0].encode()
    at = text.index(b"\n") + 1
    path = tmp_path / f"{parser}.csv"
    path.write_bytes(text[:at] + b"\xff" + text[at + 1:])
    with open(path, encoding="utf-8", newline="") as f, \
            pytest.raises(errors.CarbonSchedError) as exc:
        _PARSERS[parser][1](f)
    assert type(exc.value) is errors.CarbonSchedError
    assert str(exc.value) == f"{path}: not UTF-8: byte {at} is 0xff"


# Texts that make a cell or a row differ between a CSV reader and a naive
# split: whitespace, some of which `float` skips and some of which
# `str.splitlines` breaks at (`csv.reader` breaks only at CR and LF),
# separators, quotes, and numbers that are not finite or that only
# Python's `float` reads.
_SPACES = (" ", "\t", "\xa0", "\r", "\v", "\f", "\x1c", "\x85", "\u2028")
_TOKENS = (*_SPACES, ",", '"', "\n", "\r\n", "\ufeff", "_", "e", "-", ".", "nan", "inf",
           "1e400", "١", "0", "7")
# A CSV reader ends a row at CR, LF or CRLF only; `str.splitlines` at each.
_BREAKS = ("\n", "\r\n", "\r", "\n\n", "\v", "\f", "\x1c", "\x85", "\u2028")
# Each parser's header, then headers that a naive split reads otherwise
# or that the parser rejects.
_HEADERS = {
    "mix": ("timestamp,solar,gas", " timestamp , solar,gas ", 'timestamp,"solar",gas',
            '"timestamp","solar","gas"', 'timestamp,"solar,gas"', "timestamp,solar,solar"),
    "load": ("timestamp,load_mw", " timestamp,load_mw ", '"timestamp",load_mw',
             "timestamp,load_mw,load_mw", 'timestamp,"load_mw,x"'),
}
_EDITS = ("header", "noise", "quote", "pad", "break", "width", "insert")


@st.composite
def _numeric_csv(draw, kind):
    """A CSV text for the `kind` parser, stamps 5 minutes apart and then
    numbers, with one or two `_EDITS`: another of `_HEADERS`, a cell that
    is noise, quoted or padded with one of `_SPACES`, a row break that is
    another of `_BREAKS`, a row that loses or gains a cell, or noise put
    anywhere. Edits of rows leave the first row alone."""
    noise = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=3).map("".join)
    number = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr)
    header = _HEADERS[kind][0]
    offset = draw(st.sampled_from(["+00:00", "+05:30", ""]))
    rows = [[(datetime(2021, 1, 1) + timedelta(minutes=5 * k)).isoformat() + offset,
             *(draw(number) for _ in header.split(",")[1:])]
            for k in range(draw(st.integers(2, 5)))]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    breaks = [newline] * len(rows)    # the break before each row
    edits = draw(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=2))
    for edit in edits:
        row = rows[k := draw(st.integers(1, len(rows) - 1))]
        j = draw(st.integers(0, len(row) - 1))
        if edit == "header":
            header = draw(st.sampled_from(_HEADERS[kind][1:]))
        elif edit == "noise":
            row[j] = draw(noise)
        elif edit == "quote":
            row[j] = f'"{row[j]}"'
        elif edit == "pad":
            space = draw(st.sampled_from(_SPACES))
            row[j] = draw(st.sampled_from([space + row[j], row[j] + space]))
        elif edit == "break":
            breaks[k] = draw(st.sampled_from(_BREAKS))
        elif edit == "width":
            rows[k] = row[:-1] if draw(st.booleans()) else [*row, draw(number)]
    text = draw(st.sampled_from(["", "\ufeff"])) + header \
        + "".join(b + ",".join(row) for b, row in zip(breaks, rows)) \
        + draw(st.sampled_from(["", newline, newline * 2]))
    if "insert" in edits:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(noise) + text[at:]
    return text


def _outcome(parse, text):
    """What `parse` makes of `text`: the series' stamps with their offsets,
    its arrays' bytes, shapes and layout, or the error's type and text."""
    try:
        series = parse(io.StringIO(text))
    except Exception as exc:    # any error, typed or not, must match
        return type(exc), str(exc)
    arrays = [v for v in vars(series).values() if isinstance(v, np.ndarray)]
    return ([(ts.isoformat(), ts.utcoffset()) for ts in series.timestamps],
            getattr(series, "sources", None),
            [(a.tobytes(), a.shape, a.dtype, a.flags.c_contiguous) for a in arrays])


# Two rows of the mix or the load; {} stands where the break between them goes.
_TWO_ROWS = {"mix": "timestamp,solar,gas\n2021-01-01T00:00:00,1,2{}2021-01-01T00:05:00,1,2\n",
             "load": "timestamp,load_mw\n2021-01-01T00:00:00,1{}2021-01-01T00:05:00,2\n"}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["mix", "load"]).flatmap(
    lambda kind: st.tuples(st.just(kind), _numeric_csv(kind))))
@example(("mix", _TWO_ROWS["mix"].format("\n").replace("\n", "\r\n")))
@example(("mix", _TWO_ROWS["mix"].format("\x1c")))    # one row of 5 cells to a CSV reader
@example(("load", _TWO_ROWS["load"].format("\u2028")))
@example(("mix", _TWO_ROWS["mix"].format("\n").replace(",1,", ",1\r,", 1)))
@example(("mix", _TWO_ROWS["mix"].format("\n").replace("solar,gas", "solar,solar")))
@example(("mix", _TWO_ROWS["mix"].format("\n").replace("solar,gas", '"solar",gas')))
@example(("mix", _TWO_ROWS["mix"].format("\n").replace("solar,gas", '"solar,gas"')))
@example(("mix", "timestamp,solar,gas\n"))    # a header and no data row
@example(("mix", "timestamp,solar,gas"))
@example(("load", "timestamp,load_mw\n"))
@example(("load", "timestamp,load_mw"))
def test_whole_file_path_matches_the_row_path(case):
    # The same series, bit for bit, or the same error, whichever path reads it.
    kind, text = case
    parse = _PARSERS[kind][1]
    fast = _outcome(parse, text)
    with mock.patch.object(ingest, "_numeric_table", lambda text: None):
        rows = _outcome(parse, text)
    assert fast == rows


@pytest.mark.parametrize("end", ["\n", ""])
@pytest.mark.parametrize("parser", ["mix", "load"])
def test_header_only_series_has_too_few_rows(parser, end):
    header = _PARSERS[parser][0].split("\n")[0]
    with pytest.raises(errors.TooFewRows, match="got 0$"):
        _PARSERS[parser][1](io.StringIO(header + end))


def test_benchmark_shaped_inputs_skip_the_row_path(tmp_path, monkeypatch):
    # A CRLF mix as `write_grid_mix` writes it and an LF load: only the
    # factors file goes through `csv.reader`.
    mix = ingest.synth_grid_mix(2, seed=3)
    with open(tmp_path / "mix.csv", "w", newline="") as mf, \
            open(tmp_path / "factors.csv", "w", newline="") as ff:
        ingest.write_grid_mix(mix, mf, ff)
    (tmp_path / "load.csv").write_text("timestamp,load_mw\n" + "".join(
        f"{ts.isoformat()},{24000.0 + k!r}\n" for k, ts in enumerate(mix.timestamps)))
    assert b"\r\n" in (tmp_path / "mix.csv").read_bytes()
    read = []
    monkeypatch.setattr(csv, "reader", lambda f, reader=csv.reader: read.append(
        f.getvalue()) or reader(f))
    with open(tmp_path / "mix.csv", "rb") as mf, open(tmp_path / "factors.csv", "rb") as ff:
        again = ingest.parse_grid_mix(mf, ff)
    with open(tmp_path / "load.csv", "rb") as f:
        load = ingest.parse_load(f)
    assert read == [(tmp_path / "factors.csv").read_bytes().decode()]
    assert again.timestamps == load.timestamps == mix.timestamps
    np.testing.assert_array_equal(again.power, mix.power)
    assert load.load_mw.tolist() == [24000.0 + k for k in range(len(mix.timestamps))]


class TestSynthSessions:
    def test_count_zero(self, day_grid):
        assert ingest.synth_sessions(0, day_grid, seed=1) == []

    def test_arrival_and_duration_statistics(self, day_grid):
        sessions = ingest.synth_sessions(1000, day_grid, seed=11)
        slots_per_hour = 12
        arrivals_before_noon = sum(
            1 for s in sessions if (s.t_arrival % 288) < 12 * slots_per_hour)
        durations_under_4h = sum(
            1 for s in sessions
            if (s.t_depart - s.t_arrival) < 4 * slots_per_hour)
        assert arrivals_before_noon >= 600
        assert durations_under_4h >= 500

    def test_deterministic(self, day_grid):
        a = ingest.synth_sessions(50, day_grid, seed=5)
        b = ingest.synth_sessions(50, day_grid, seed=5)
        assert a == b

    def test_hourly_grid_gives_every_session_a_slot(self):
        # A stay of half an hour can hold no whole hour: such a session gets
        # the one slot after its arrival, where ChargingSession would refuse
        # its empty window.
        grid = TimeGrid(datetime(2021, 1, 1, tzinfo=UTC), 60, 72)
        sessions = ingest.synth_sessions(200, grid, seed=6)
        assert all(s.t_arrival < s.t_depart <= grid.n_slots for s in sessions)
        assert any(s.t_depart == s.t_arrival + 1 for s in sessions)

    def test_all_pass_validation(self, day_grid):
        # construction enforces invariants; re-assert the key ones anyway
        for s in ingest.synth_sessions(200, make_grid(3), seed=6):
            assert 0 <= s.soc_arrival <= s.soc_target <= s.soc_max <= 1
            assert s.t_arrival < s.t_depart
            assert s.delta > 0
