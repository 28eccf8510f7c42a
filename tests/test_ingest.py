import csv
import io
import logging
import math
import tempfile
import tracemalloc
from collections import defaultdict
from datetime import datetime, timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geopriv import _digits, ingest
from geopriv.core import Dataset, GeoPoint, MobilityTrace, TimestampedLocation
from geopriv.ingest import (
    FEATURE_HEADER,
    FilterPolicy,
    _fmt_degrees,
    dataset_digest,
    filter_dataset,
    parse_canonical,
    parse_features,
    parse_geolife,
    parse_pois,
    parse_sfcabs,
    write_canonical,
    write_pois,
)
from geopriv.core import Poi, PoiSet
from geopriv.features import Feature
from geopriv.mechanism import PrivacyLevel, RandomSource, obfuscate_trace

from oracles import fmt_degrees, parse_canonical_literal

DAY = 86_400


def _csv(*lines):
    return io.StringIO("\n".join(lines) + "\n")


class TestParseCanonical:
    def test_single_line(self):
        ds = parse_canonical(_csv("user_id,timestamp,lat,lon", "u1,100,0,0"))
        assert ds.traces["u1"].locations == (TimestampedLocation(100, GeoPoint(0, 0)),)

    def test_sorts_by_time(self):
        ds = parse_canonical(_csv("user_id,timestamp,lat,lon", "u1,200,1,1", "u1,100,0,0"))
        assert [loc.t for loc in ds.traces["u1"].locations] == [100, 200]

    def test_out_of_range_latitude_counted_malformed(self, caplog):
        lines = ["user_id,timestamp,lat,lon"] + [f"u1,{i},10,10" for i in range(200)]
        lines.append("u1,999,91,0")
        with caplog.at_level("WARNING"):
            ds = parse_canonical(_csv(*lines))
        assert len(ds.traces["u1"]) == 200
        assert "1 of 201" in caplog.text

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_canonical(_csv("u1,100,0,0"))
        with pytest.raises(ValueError, match="header"):
            parse_canonical(iter([]))

    def test_too_many_malformed_lines_is_corrupt(self):
        lines = ["user_id,timestamp,lat,lon"] + [f"u1,{i},0,0" for i in range(50)] + ["garbage"]
        with pytest.raises(ValueError, match="corrupt input"):
            parse_canonical(_csv(*lines))

    def test_timestamp_beyond_int64_counted_malformed(self, caplog):
        lines = ["user_id,timestamp,lat,lon"] + [f"u1,{i},10,10" for i in range(200)]
        lines += [f"u1,{2**63},0,0", f"u2,{2**63 - 1},0,0"]
        with caplog.at_level("WARNING"):
            ds = parse_canonical(_csv(*lines))
        assert len(ds.traces["u1"]) == 200
        assert ds.traces["u2"].t.tolist() == [2**63 - 1]
        assert "1 of 202" in caplog.text

    def test_records_around_an_overflow_keep_their_fields(self, caplog):
        lines = [_HEADER] + [f"u1,{i},{i % 90},{i % 180}" for i in range(150)]
        lines += [f"u1,{2**63},1,1", f"u2,{-(2**63) - 1},2,2", f"u2,{2**63 - 1},3,3"]
        lines += [f"u1,{i},{i % 90},{i % 180}" for i in range(150, 300)]
        with caplog.at_level("WARNING"):
            ds = parse_canonical(_csv(*lines))
        assert ds.traces["u1"].t.tolist() == list(range(300))
        assert ds.traces["u1"].lat.tolist() == [i % 90 for i in range(300)]
        assert ds.traces["u1"].lon.tolist() == [i % 180 for i in range(300)]
        assert ds.traces["u2"].t.tolist() == [2**63 - 1] and ds.traces["u2"].lat.tolist() == [3.0]
        assert "2 of 303" in caplog.text


_HEADER = "user_id,timestamp,lat,lon"


class TestBoundedMemory:
    @pytest.mark.parametrize("users, interleaved", [(20, False), (500, True)])
    def test_parse_peak_per_point(self, users, interleaved):
        # 100,000 points, each user's rows together and in time order as
        # write_canonical writes them, or one row of each user in turn. The
        # columns alone take 24 B a point; holding every record as Python
        # objects took about 130, in either layout.
        rows = [(u, i) for i in range(100_000 // users) for u in range(users)]
        if not interleaved:
            rows.sort()
        text = io.StringIO("".join(
            [_HEADER + "\n"] + [
                f"u{u},{1_211_068_800 + 60 * i},{37.7 + (i % 997) * 1e-5:.6f},{-122.4 - (i % 991) * 1.1e-5!r}\n"
                for u, i in rows
            ]
        ))
        tracemalloc.start()
        try:
            ds = parse_canonical(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.total_locations() == 100_000 and len(ds.users()) == users
        assert peak / 100_000 < 64

    @pytest.mark.parametrize("newest_first, bound", [(False, 60), (True, 72)])
    def test_one_user_peak_per_point(self, newest_first, bound):
        # One user's 100,000 records. In time order they become the columns
        # with one copy each, besides the 27 B a point of packed records;
        # newest first they are masked, sorted and gathered (about 70 B).
        times = range(100_000)[::-1] if newest_first else range(100_000)
        text = io.StringIO("".join(
            [_HEADER + "\n"] + [
                f"u0,{1_211_068_800 + 60 * i},{37.7 + (i % 997) * 1e-5:.6f},{-122.4 - (i % 991) * 1.1e-5!r}\n"
                for i in times
            ]
        ))
        tracemalloc.start()
        try:
            ds = parse_canonical(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.users() == ["u0"] and ds.total_locations() == 100_000
        assert peak / 100_000 < bound

    def test_cab_file_peak_per_point(self, tmp_path):
        # One taxi's 100,000 records, newest first as in the source: the
        # lines stream from the open file, so the peak is the canonical
        # newest-first one. Reading the whole file as text and a list of
        # lines first took about 164 B a point.
        (tmp_path / "new_cab.txt").write_text("".join(
            f"{37.7 + (i % 997) * 1e-5:.5f} {-122.4 - (i % 991) * 1.1e-5:.5f} {i % 2} {1_211_068_800 + 60 * i}\n"
            for i in range(100_000)[::-1]
        ))
        tracemalloc.start()
        try:
            ds = parse_sfcabs(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.users() == ["cab"] and ds.total_locations() == 100_000
        assert peak / 100_000 < 72

    @pytest.mark.parametrize("users", [1, 5_000])
    def test_write_peak(self, users):
        # 100,000 noisy points of one user or of 5,000, written into a sink
        # that keeps no text. The f-string writer this one replaced peaked
        # at 1.56 MB on the one-user input, the text of one block of 4,096
        # rows, and at 0.05 MB on 5,000 users, whose blocks held one user
        # each; the bound is 1.56 MB plus 15 %. The rows, their matrices
        # and the kernel's arrays are held for one block of rows, across
        # users: the text of the whole trace is 5.2 M characters.
        points = 100_000 // users
        rng = np.random.default_rng(28)
        ds = Dataset({
            f"u{u}": MobilityTrace.from_columns(
                f"u{u}",
                1_211_068_800 + 60 * np.arange(points),
                np.round(rng.uniform(37.7, 37.8, points), 6) + rng.laplace(0, 0.003, points),
                np.round(rng.uniform(-122.5, -122.4, points), 6) + rng.laplace(0, 0.003, points),
            )
            for u in range(users)
        })
        sink = _Sink()
        tracemalloc.start()
        try:
            write_canonical(ds, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sink.lengths) > 5_000_000
        assert peak < 1.8e6


class _Sink:
    """A text sink that keeps the length of each write, not its text."""

    def __init__(self):
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))


class TestFreshColumns:
    """The columns of the traces the package builds are read-only and own
    their memory; a read-only array that owns its memory is shared, and a
    caller's writeable array is copied."""

    @staticmethod
    def _owned(trace):
        return all(not c.flags.writeable and c.flags.owndata and c.base is None for c in (trace.t, trace.lat, trace.lon))

    def test_built_columns(self):
        ds = parse_canonical(_csv(_HEADER, "a,2,1,1", "a,1,2,2", "b,5,3,3"))
        assert all(self._owned(trace) for trace in ds.traces.values())
        kept = filter_dataset(ds, FilterPolicy(min_locations_per_day=1, min_qualifying_days=1))
        assert kept.users() == ["a"] and self._owned(kept.traces["a"])
        noisy = obfuscate_trace(ds.traces["a"], PrivacyLevel(0.01), RandomSource(3))
        assert self._owned(noisy) and noisy.t is ds.traces["a"].t

    def test_shared_or_copied(self):
        lat = np.array([1.0, 2.0])
        lat.flags.writeable = False
        t, lon = np.array([1, 2]), np.array([3.0, 4.0])
        trace = MobilityTrace.from_columns("a", t, lat, lon)
        assert trace.lat is lat
        assert self._owned(trace) and t.flags.writeable and lon.flags.writeable
        t[0], lon[0] = 0, 0.0
        assert trace.t.tolist() == [1, 2] and trace.lon.tolist() == [3.0, 4.0]


def _valid_line(user, t, lat, lon, style):
    if style == 0:
        return f"{user},{t},{lat!r},{lon!r}"
    if style == 1:
        return f"{user},{t},{lat:.6f},{lon:.6f}"
    return f"  {user}, {t} ,{lat:.3f} , {lon:.2f}\t"  # padded fields parse too


_BAD_LINES = st.one_of(
    st.sampled_from(["", "   ", "\t \t"]),  # blank: not counted at all
    st.sampled_from(["garbage", "a,1,2", "a,1,2,3,4", "a,,1,1", ",,,", "a,1,2,3,"]),
    st.tuples(
        st.sampled_from(["a", "z"]),  # "z" has no valid line
        st.sampled_from(["-1", "-86400", "1.5", "nan", "abc", "", "1e3", str(2**63 - 1), str(2**63), str(10**20)]),
        st.sampled_from(["nan", "-nan", "inf", "-inf", "x", "90.0000001", "-91", "1e400", "45.0"]),
        st.sampled_from(["nan", "inf", "181", "-180.0000001", "y", "5.0"]),
    ).map(",".join),
)


@st.composite
def line_soups(draw):
    """Canonical input mixing valid records of interleaved users (with
    repeated timestamps) and malformed or blank lines; about half of the
    draws sit at or just past the 1 % rejection boundary. Up to 30 valid
    lines are drawn; longer inputs repeat them, shuffled in."""
    bad = draw(st.lists(_BAD_LINES, max_size=4))
    counted_bad = sum(1 for line in bad if line.strip())
    if draw(st.booleans()):
        n_valid = max(0, 99 * counted_bad + draw(st.integers(-2, 2) | st.integers(3, 30)))
    else:
        n_valid = draw(st.integers(0, 30))
    lat = st.one_of(
        st.floats(-90, 90, allow_nan=False),
        st.sampled_from([90.0, -90.0, 0.0, -0.0, 45.1234565]),
    )
    lon = st.one_of(st.floats(-180, 180, allow_nan=False), st.sampled_from([180.0, -180.0]))
    distinct = draw(st.lists(
        st.builds(
            _valid_line,
            st.sampled_from(["a", "b", "c", "user 4"]),
            st.integers(0, 12) | st.just(2**63 - 1),
            lat,
            lon,
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=30,
    ))
    rnd = draw(st.randoms(use_true_random=False))
    valid = distinct[:n_valid] + [rnd.choice(distinct) for _ in range(n_valid - len(distinct))]
    lines = valid + bad
    rnd.shuffle(lines)
    return [_HEADER] + lines


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(parse, logger_name, lines):
    """The dataset or ValueError message of a parser, with its warnings."""
    handler = _Messages()
    log = logging.getLogger(logger_name)
    log.addHandler(handler)
    try:
        result = parse(iter(line + "\n" for line in lines))
    except ValueError as exc:
        result = f"ValueError: {exc}"
    finally:
        log.removeHandler(handler)
    return result, handler.messages


class TestParserOracle:
    @settings(max_examples=200, deadline=None)
    @given(line_soups())
    @example([_HEADER, "a,5,1,1", "b,5,2,2", "a,5,3,3", "a,4,4,4", "", "b,5,5,5"])
    @example([_HEADER] + ["a,1,0,0"] * 98 + ["a,1,91,0"])
    @example([_HEADER] + ["a,1,0,0"] * 99 + ["a,1,nan,0"])
    @example([_HEADER] + ["a,1,0,0"] * 99 + ["z,-1,45.0,5.0"])
    @example([_HEADER, "a,1,1,1", "b,1,2,2", "a,2,3,3", "b,2,4,4", "a,2,5,5"])
    @example([_HEADER, "a,1,1,1", "a,2,2,2", "a,3,3,3", "a,2,4,4"])
    @example([_HEADER] + [f"a,{t},0,{t}" for t in range(50)] + ["a,50,91,0"] + [f"a,{t},0,0" for t in range(51, 100)])
    def test_matches_line_by_line_parser(self, lines):
        got = _outcome(parse_canonical, "geopriv.ingest", lines)
        want = _outcome(parse_canonical_literal, "oracles", lines)
        assert got == want


# A record soup entry is (user, record): a record is either a raw line,
# the same in every format, or (t, lat, lon) fields that each reader's
# layout renders. Every bad field is malformed in all three layouts.
_SOUP_RAW = st.sampled_from(["", "  ", "\t", "garbage", "x;y"])
_SOUP_BAD_RECORD = st.tuples(
    st.sampled_from([-1, -86400, "abc", "1.5", "", 7]),
    st.sampled_from(["nan", "91", "-90.0000001", "x", "inf", "45.0"]),
    st.sampled_from(["-inf", "181", "nan", "y", "5.0"]),
).filter(lambda record: record != (7, "45.0", "5.0"))


def _soup_record(t, lat, lon):
    return (t, repr(lat), repr(lon))


@st.composite
def record_soups(draw):
    """Interleaved users' records, with repeated timestamps, blank lines and
    bad or out-of-range fields; about half of the draws sit at or just past
    the 1 % rejection boundary. User "z" has bad records only."""
    bad = draw(st.lists(
        st.tuples(st.sampled_from(["a", "b", "z"]), _SOUP_RAW | _SOUP_BAD_RECORD), max_size=4
    ))
    counted_bad = sum(1 for _, record in bad if not isinstance(record, str) or record.strip())
    if draw(st.booleans()):
        n_valid = max(0, 99 * counted_bad + draw(st.integers(-2, 2) | st.integers(3, 30)))
    else:
        n_valid = draw(st.integers(0, 30))
    distinct = draw(st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.builds(
                _soup_record,
                st.integers(0, 12) | st.integers(0, 2**33),
                st.floats(-90, 90, allow_nan=False) | st.sampled_from([90.0, -90.0, -0.0]),
                st.floats(-180, 180, allow_nan=False) | st.sampled_from([180.0, -180.0]),
            ),
        ),
        min_size=1,
        max_size=30,
    ))
    rnd = draw(st.randoms(use_true_random=False))
    valid = distinct[:n_valid] + [rnd.choice(distinct) for _ in range(n_valid - len(distinct))]
    entries = valid + bad
    rnd.shuffle(entries)
    return entries or [("a", "")]


def _plt_when(t):
    if isinstance(t, str):
        return f"{t},00:00:00"
    when = datetime(1970, 1, 1) + timedelta(seconds=t)
    return f"{when.date().isoformat()},{when.time().isoformat()}"


def _render(user, record, layout):
    if isinstance(record, str):
        return record
    t, lat, lon = record
    if layout == "canonical":
        return f"{user},{t},{lat},{lon}"
    if layout == "cab":
        return f"{lat} {lon} 0 {t}"
    return f"{lat},{lon},0,0,0,{_plt_when(t)}"


def _read_logged(read):
    """read()'s Dataset or ValueError message, with the counts it logged."""
    handler = _Messages()
    log = logging.getLogger("geopriv.ingest")
    log.addHandler(handler)
    try:
        result = read()
    except ValueError as exc:
        result = f"ValueError: {exc}"
    finally:
        log.removeHandler(handler)
    return result, [message.split(" input: ", 1)[1] for message in handler.messages]


class TestOneReader:
    @settings(max_examples=100, deadline=None)
    @given(record_soups())
    @example([("a", (5, "1.0", "1.0")), ("z", (-1, "45.0", "5.0"))])
    @example([("a", (1, "0.0", "0.0"))] * 99 + [("b", "garbage")])
    @example([("a", (1, "0.0", "0.0"))] * 98 + [("z", ("abc", "45.0", "5.0"))])
    def test_three_layouts_read_alike(self, entries):
        per_user = defaultdict(list)
        for user, record in entries:
            per_user[user].append(record)
        with tempfile.TemporaryDirectory() as tmp:
            cab, plt = Path(tmp, "cab"), Path(tmp, "plt")
            cab.mkdir()
            for user, records in per_user.items():
                (cab / f"new_{user}.txt").write_text("".join(_render(user, r, "cab") + "\n" for r in records))
                (plt / user / "Trajectory").mkdir(parents=True)
                (plt / user / "Trajectory" / "0.plt").write_text(
                    "\n".join(TestParseGeolife.HEADER + [_render(user, r, "plt") for r in records]) + "\n"
                )
            canonical = [_HEADER] + [_render(user, r, "canonical") for user, r in entries]
            outcomes = [
                _read_logged(lambda: parse_canonical(iter(line + "\n" for line in canonical))),
                _read_logged(lambda: parse_sfcabs(cab)),
                _read_logged(lambda: parse_geolife(plt)),
            ]
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
        result = outcomes[0][0]
        assert isinstance(result, str) or "z" not in result.traces


def _with_block(size, read):
    """read() with blocks of ``size[0]`` lines, of which numpy's reader is
    given runs of at least ``size[1]``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_LINES", size[0])
        mp.setattr(ingest, "_MIN_RUN", size[1])
        return read()


# Small blocks put every kind of line first, last or alone in a block;
# a few rows per numpy run put refusals before and after _MIN_RUN rows.
_SIZES = [(2, 2), (3, 2), (8, 2), (16, 3)]


def _around(line, at, n=99):
    """``line`` at position ``at`` among ``n`` valid records of two users."""
    lines = [f"{'ab'[i % 2]},{i},{i % 90},{i % 180}" for i in range(n)]
    return [_HEADER] + lines[:at] + [line] + lines[at:]


def _by_line(lines):
    """parse_canonical without numpy's reader: the line reader that
    defines the malformed-record policy."""
    body = ingest._after_header(lines, _HEADER, "input")
    return ingest._read_traces("canonical", [("", body)], ingest._canonical_record)


def _counting(mp, name):
    """Replace ingest.<name> with a wrapper; returns its list of calls."""
    calls = []
    wrapped = getattr(ingest, name)

    def count(*args):
        calls.append(args)
        return wrapped(*args)

    mp.setattr(ingest, name, count)
    return calls


# Lines that numpy's reader reads, refuses or reads otherwise than
# int()/float(), where each must end as the line reader has it.
_EDGE_LINES = [
    f"a,{2**63},1,1", f"a,{-(2**63) - 1},1,1",
    "garbage", "a,1,2", "a,1,2,3,4", "a,1,2,3,", "a,,1,1", "a,", ",", "", "   ", "\t",
    "a,1.0,1,1", "a,1_0,1,1", "a,5,1_0,1", "a,0x10,1,1", "a,5,1,1 at row 1",
    'a,"5",1,1', " u1,5,1,1", "u1 ,5,1,1", " u1 , 5 , 1 , 1 ", "a,+5,1,1", "a,5,nan,1", "a,5,1,infinity",
    "a,5\x1c,1,1", "a,5,1\x1f,1", "a,\u0665,1,1", "a,5\u01fe,1,1", "us\u00e9r,5,1,1", "a,1,1,1\rb,2,2,2",
    "a,5,1,1\x00",
]


class TestBlockBoundaries:
    """The reader reads blocks of _BLOCK_LINES lines. numpy's C reader
    reads each run of lines it accepts; the line reader reads the rows it
    refuses, and the rows around a refusal it cannot place. However the
    lines fall in blocks and runs, the outcome is the line reader's."""

    @settings(max_examples=200, deadline=None)
    @given(line_soups(), st.sampled_from(_SIZES))
    def test_soups_match_oracle(self, lines, size):
        got = _with_block(size, lambda: _outcome(parse_canonical, "geopriv.ingest", lines))
        assert got == _outcome(parse_canonical_literal, "oracles", lines)

    @settings(max_examples=100, deadline=None)
    @given(record_soups(), st.sampled_from(_SIZES))
    def test_record_soups_match_oracle(self, entries, size):
        canonical = [_HEADER] + [_render(user, r, "canonical") for user, r in entries]
        per_user = defaultdict(list)
        for user, record in entries:
            per_user[user].append(record)
        with tempfile.TemporaryDirectory() as tmp:
            for user, records in per_user.items():
                Path(tmp, f"new_{user}.txt").write_text("".join(_render(user, r, "cab") + "\n" for r in records))
            cab = _with_block(size, lambda: _read_logged(lambda: parse_sfcabs(tmp)))
        got = _with_block(size, lambda: _outcome(parse_canonical, "geopriv.ingest", canonical))
        assert got == _outcome(parse_canonical_literal, "oracles", canonical)
        assert cab == _read_logged(lambda: parse_canonical(iter(line + "\n" for line in canonical)))

    @pytest.mark.parametrize("line", _EDGE_LINES)
    def test_edge_line_anywhere_in_a_block(self, line):
        for size, at in [
            ((2, 2), 0), ((2, 2), 1), ((2, 2), 2), ((3, 2), 0), ((3, 2), 2), ((3, 2), 3), ((3, 2), 5),
            ((2, 2), 99), ((3, 2), 99), ((8, 2), 1), ((8, 2), 2), ((8, 2), 7), ((16, 3), 2), ((16, 3), 3),
            ((16, 3), 4), ((16, 3), 15), ((16, 3), 17), ((1024, 32), 31), ((1024, 32), 33), ((1024, 32), 60),
        ]:
            lines = _around(line, at)
            got = _with_block(size, lambda: _outcome(parse_canonical, "geopriv.ingest", lines))
            assert got == _outcome(_by_line, "geopriv.ingest", lines)
            assert got == _outcome(parse_canonical_literal, "oracles", lines)

    @pytest.mark.parametrize("size", [(1, 2), *_SIZES, (1024, 32)])
    @pytest.mark.parametrize("lines", [
        # users straddle blocks and come back in later ones, out of time order
        [_HEADER, "a,1,1,1", "a,2,2,2", "b,1,1,1", "a,3,3,3", "b,0,0,0", "c,7,7,7", "a,0,5,5", "b,9,9,9"],
        # a whole block of blank lines between two blocks of one user
        [_HEADER, "a,3,1,1", "a,1,1,1", "", "  ", "\t", "", "a,2,1,1", "a,0,1,1"],
        # padded user fields name other users once stripped of the line's ends only
        [_HEADER, " u1,1,1,1", "u1 ,2,2,2", "u1,3,3,3", "\tu1 ,4,4,4", " u1,0,0,0"],
        # an underscore is a digit separator to int() and float(), not to numpy
        [_HEADER, "a,1,1,1", "a,1_0,1,1", "a,2,1_5.5,1", "a,3,1,1"],
        # a line break inside a line must not pass off "b" as "u"
        [_HEADER, "u,1,1,1", "b,2,2,2", "u,3,3,3", "u,4,x,4", "z\nu,\nu,5", "u,6,6,6"],
    ])
    def test_examples_match_oracle(self, lines, size):
        got = _with_block(size, lambda: _outcome(parse_canonical, "geopriv.ingest", lines))
        assert got == _outcome(parse_canonical_literal, "oracles", lines)

    @pytest.mark.parametrize("size", [*_SIZES, (1024, 32)])
    @pytest.mark.parametrize("line", [
        "37.1 -122.1 x 5", "37.1 -122.1 0 1_0", "37.1 -122.1 0 1.0", "37.1 -122.1 0 5 9", "37.1 -122.1 0",
        "37.1\t-122.1\x0b0 \x0c5", "37.1\x1c-122.1 0 5", "37.1 -122.1 0 \u0665", f"37.1 -122.1 0 {2**63}",
    ])
    def test_cab_line_matches_line_reader(self, tmp_path, line, size):
        lines = [f"37.0 -122.0 {i % 2} {200 - i}" for i in range(199)]
        lines.insert(size[0] + 1, line)
        lines.insert(150, line)
        (tmp_path / "new_x.txt").write_text("\n".join(lines) + "\n")
        got = _with_block(size, lambda: _read_logged(lambda: parse_sfcabs(tmp_path)))
        by_line = _read_logged(lambda: ingest._read_traces("cab", [("x", iter(lines))], ingest._cab_record))
        assert got == by_line

    def test_clean_blocks_skip_the_line_reader(self, tmp_path):
        # numpy's reader reads input as write_canonical writes it, and as a
        # cab file holds it; the line split is not even looked up
        ds = parse_canonical(_csv(_HEADER, *[f"{'ab'[i // 1500]},{i},{i / 1e4!r},{-i / 1e4:.6f}" for i in range(3000)]))
        (tmp_path / "new_x.txt").write_text("".join(f"37.{i} -122.{i} {i % 2} {3000 - i}\n" for i in range(3000)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_canonical_record", None)
            mp.setattr(ingest, "_cab_record", None)
            text = io.StringIO()
            write_canonical(ds, text)
            assert parse_canonical(io.StringIO(text.getvalue())) == ds
            assert parse_sfcabs(tmp_path).total_locations() == 3000

    @pytest.mark.parametrize("bad", [
        "a,12x,1,1", "a,1,2", "a,1,2,3,4", "a,0x10,1,1", "garbage", "a,\u0665,1,1", "a,5,1,1 at row 5",
    ])
    def test_a_refused_line_leaves_its_block_to_numpy(self, bad):
        # the line reader reads the refused row and at most the one before
        # it, as numpy's error counts rows from 0 or from 1; numpy reads the
        # rest of the block, with no row read twice by the line reader
        lines = _around(bad, 500, n=1023)
        with pytest.MonkeyPatch.context() as mp:
            by_line = _counting(mp, "_canonical_record")
            got = _outcome(parse_canonical, "geopriv.ingest", lines)
        assert got == _outcome(parse_canonical_literal, "oracles", lines)
        assert bad in [line for _, line in by_line] and len(by_line) <= 2

    def test_scattered_refusals_leave_most_lines_to_numpy(self):
        lines = [_HEADER] + [f"{'ab'[i % 2]},{i},{i % 90},{i % 180}" for i in range(3000)]
        for at, bad in [(1, "a,x,1,1"), (2, "a,1"), (32, "a,1,1"), (33, "b,1,1,1,1"), (34, "garbage"), (500, "a,1,x"),
                        (501, "b,1,1"), (1024, "a,,1,1"), (1025, "b,1,1,"), (2000, "a,1x3,1,1"), (3001, "b,2,3")]:
            lines.insert(at, bad)
        with pytest.MonkeyPatch.context() as mp:
            by_line = _counting(mp, "_canonical_record")
            got = _outcome(parse_canonical, "geopriv.ingest", lines)
        assert got == _outcome(parse_canonical_literal, "oracles", lines)
        assert len(by_line) < len(lines) / 10

    def test_garbage_costs_few_refused_calls(self):
        # after each refusal among a run's first rows the line reader takes
        # twice as many rows before numpy is called again
        lines = [_HEADER] + ["not,a,re,cord"] * 2048
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp, "_canonical_rows")
            got = _outcome(parse_canonical, "geopriv.ingest", lines)
        assert got == _outcome(parse_canonical_literal, "oracles", lines)
        assert len(calls) == 2 * 6  # rows 0, 32, 96, 224, 480 and 992 of each block


class TestWriteCanonical:
    def test_empty_dataset(self):
        buf = io.StringIO()
        assert write_canonical(Dataset({}), buf) == 0
        assert buf.getvalue() == "user_id,timestamp,lat,lon\n"

    def test_count_is_total_locations(self):
        ds = Dataset(
            {
                "a": MobilityTrace("a", (TimestampedLocation(1, GeoPoint(1, 1)),)),
                "b": MobilityTrace("b", (TimestampedLocation(1, GeoPoint(2, 2)), TimestampedLocation(2, GeoPoint(3, 3)))),
                "c": MobilityTrace("c", ()),
            }
        )
        buf = io.StringIO()
        assert write_canonical(ds, buf) == 3

    def test_round_trip(self):
        ds = Dataset(
            {
                "u1": MobilityTrace(
                    "u1",
                    (
                        TimestampedLocation(5, GeoPoint(48.8566969, 2.3514616)),
                        TimestampedLocation(9, GeoPoint(-33.0, 151.12345678901)),
                    ),
                )
            }
        )
        buf = io.StringIO()
        write_canonical(ds, buf)
        buf.seek(0)
        assert parse_canonical(buf) == ds


@st.composite
def datasets(draw):
    n_users = draw(st.integers(0, 4))
    traces = []
    for i in range(n_users):
        n = draw(st.integers(1, 8))
        locs = [
            TimestampedLocation(
                draw(st.integers(0, 2**31)),
                GeoPoint(
                    draw(st.floats(-90, 90, allow_nan=False)),
                    draw(st.floats(-180, 180, allow_nan=False)),
                ),
            )
            for _ in range(n)
        ]
        traces.append(MobilityTrace(f"user{i}", sorted(locs, key=lambda loc: loc.t)))
    return Dataset({trace.user: trace for trace in traces})


_NEAR_GRID = st.builds(
    lambda k, nudge: float(np.nextafter(k / 1e6, np.inf * nudge)) if nudge else k / 1e6,
    st.integers(-180_000_000, 180_000_000),
    st.sampled_from([0, 1, -1]),
)
# values whose seventh decimal is a 5: six-decimal rounding sits on a tie
_HALF_WAY = st.builds(lambda k: (k + 0.5) / 1e6, st.integers(-180_000_000, 179_999_999))
_EDGES = st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0, -180.0])
_DEGREES = st.one_of(st.floats(-180, 180, allow_nan=False), _NEAR_GRID, _HALF_WAY, _EDGES)


class TestWriteBlocks:
    @pytest.mark.parametrize("block", [1, 2, 7])
    @settings(max_examples=30, deadline=None)
    @given(datasets())
    def test_block_size_does_not_change_bytes(self, block, ds):
        whole = io.StringIO()
        write_canonical(ds, whole)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", block)
            blocked = io.StringIO()
            assert write_canonical(ds, blocked) == ds.total_locations()
        assert blocked.getvalue() == whole.getvalue()

    def test_blocks_span_users(self):
        # blocks of 4 rows: a's trace crosses a block boundary, the second
        # block holds the end of a, all of b and the start of c, and each
        # block is one write; the bytes are the scalar rule's, row by row
        columns = {
            "a": ([0, 1, 2, 3, 4], [0.0, -0.5, 45.1234565, 2.0**-7, 1e-5], [180.0, -180.0, 5.1, -0.0234375, 1 + 2**-17]),
            "b": ([2**63 - 1], [-89.99999999999999], [1.2345e-05]),
            "c": ([7, 8, 9], [0.1, 0.30000000000000004, 1e-4], [-5e-324, 99.99999999999999, 10.0]),
            "us\u00e9r 4": ([10, 10, 11, 12, 13, 14, 15], [1.5, -2.25, 3.0, 4.0, 5.0, 6.0, 7.0], [0.0] * 7),
        }
        ds = Dataset({user: MobilityTrace.from_columns(user, *cols) for user, cols in columns.items()})
        reference = _HEADER + "\n" + "".join(
            f"{user},{t},{fmt_degrees(lat)},{fmt_degrees(lon)}\n"
            for user in ds.users()
            for t, lat, lon in zip(*(getattr(ds.traces[user], c).tolist() for c in ("t", "lat", "lon")))
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_RECORDS", 4)
            text, sink = io.StringIO(), _Sink()
            assert write_canonical(ds, text) == write_canonical(ds, sink) == 16
        assert text.getvalue() == reference
        assert len(sink.lengths) == 1 + 4


def _steps(x, n):
    """The double ``n`` doubles above ``x`` (below for n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@st.composite
def _short_decimals(draw):
    """A double from the decimal of 1 to 17 significant digits m * 10^x in
    [1e-4, 180], with either sign: its shortest repr has at most as many."""
    d = draw(st.integers(1, 17))
    m = draw(st.integers(10 ** (d - 1), 10**d - 1))
    e = draw(st.integers(-4, 2))
    v = float(f"{m}e{e - d + 1}")
    return draw(st.sampled_from([1.0, -1.0])) * (v if v <= 180 else float(f"{m}e{e - d}"))


_SIGN = st.sampled_from([1.0, -1.0])
# What the column path decides exactly, and what it leaves to the scalar
# rule: powers of two, doubles around 10^k, values below 1e-4 (exponent
# form), integral values, 1 to 17 significant digits, and runs of nines
# whose rounding carries to 10^p.
_KERNEL_CASES = st.one_of(
    st.builds(lambda k, sign: sign * 2.0**k, st.integers(-40, 7), _SIGN),
    st.builds(lambda k, n, sign: sign * _steps(float(f"1e{k}"), n), st.integers(-5, 2), st.integers(-3, 3), _SIGN),
    st.floats(-1e-4, 1e-4),
    st.sampled_from([5e-324, -5e-324]),
    st.integers(-180, 180).map(float),
    _short_decimals(),
    st.builds(
        lambda d, e, n, sign: sign * _steps(float("9" * d + f"e{e - d + 1}"), n),
        st.integers(1, 17), st.integers(-4, 1), st.integers(-2, 2), _SIGN,
    ),
)


class TestFormatDegrees:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_DEGREES, max_size=20))
    @example([0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 0.0000005, 1e-7])
    def test_column_matches_scalar(self, values):
        column = np.array(values, dtype=np.float64)
        assert _fmt_degrees(column) == [fmt_degrees(v) for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_KERNEL_CASES, max_size=40))
    @example([2.0**-7, -(2.0**-13), 0.0234375, 1 + 2**-17, 1.2345e-05, 5e-324, 9.999999999999999e-05, 1e-4])
    @example([0.1, 0.30000000000000004, 179.99999999999997, 99.99999999999999, 0.09999999999999999, 1e-3])
    def test_kernel_cases_match_scalar(self, values):
        column = np.array(values, dtype=np.float64)
        assert _fmt_degrees(column) == [fmt_degrees(v) for v in values]

    def test_bulk_matches_scalar(self):
        # 200,000 doubles over [-180, 180], and a noisy column as a campaign
        # writes it: a trace on the six-decimal grid, obfuscated
        rng = np.random.default_rng(2028)
        n = 20_000
        trace = MobilityTrace.from_columns(
            "u", np.arange(n), np.round(rng.uniform(37.7, 37.8, n), 6), np.round(rng.uniform(-122.5, -122.4, n), 6)
        )
        noisy = obfuscate_trace(trace, PrivacyLevel(0.01), RandomSource(28))
        for column in (rng.uniform(-180, 180, 200_000), noisy.lat, noisy.lon):
            assert _fmt_degrees(column) == [fmt_degrees(v) for v in column.tolist()]

    def test_each_fallback_is_reached(self):
        # the scalar rule writes the values below 1e-4 (repr writes them
        # with an exponent), beyond 180, powers of two and ties (0.0234375
        # at six digits, 1 + 2^-17 at seventeen); the column path writes
        # the doubles next to the last two kinds
        fallback = [1.2345e-05, -5e-324, 200.123456789, -(2.0**-7), 2.0**-13, 0.0234375, 1 + 2**-17]
        decided = [math.nextafter(v, math.inf) for v in fallback[3:]] + [0.1, math.nextafter(1e-4, 1)]
        *_, rest, texts = _digits.degree_parts(np.array(fallback + decided))
        assert rest[0].tolist() == list(range(len(fallback)))
        assert texts == [fmt_degrees(v) for v in fallback]
        assert _digits.shortest(np.array([0.0234375, 1 + 2**-17]))[2].all()
        # each decade bound is 10^k rounded up, or exact
        assert all(Fraction(d) >= Fraction(10) ** k for d, k in zip(_digits._DECADES.tolist(), range(-4, 3)))


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_parse_write_inverse(self, ds):
        buf = io.StringIO()
        write_canonical(ds, buf)
        buf.seek(0)
        assert parse_canonical(buf) == ds

    def test_empty_trace_cannot_round_trip(self):
        # A row-based format has no row to carry a user with no locations;
        # such users vanish on write/parse.
        ds = Dataset({"ghost": MobilityTrace("ghost", ())})
        buf = io.StringIO()
        write_canonical(ds, buf)
        buf.seek(0)
        assert parse_canonical(buf).traces == {}

    @settings(max_examples=60, deadline=None)
    @given(datasets(), st.integers(1, 4), st.integers(1, 3))
    def test_filter_idempotent(self, ds, locs, days):
        policy = FilterPolicy(min_locations_per_day=locs, min_qualifying_days=days)
        once = filter_dataset(ds, policy)
        assert filter_dataset(once, policy) == once


class TestParseSfcabs:
    def test_parses_and_sorts(self, tmp_path):
        (tmp_path / "new_abc.txt").write_text(
            "37.75134 -122.39488 0 1213084687\n"
            "37.75136 -122.39527 0 1213084659\n"
            "37.75199 -122.3946 1 1213084540\n"
        )
        ds = parse_sfcabs(tmp_path)
        trace = ds.traces["abc"]
        assert [loc.t for loc in trace.locations] == [1213084540, 1213084659, 1213084687]

    def test_non_numeric_latitude_skipped(self, tmp_path, caplog):
        valid = "".join(f"37.0 -122.0 0 {200 + i}\n" for i in range(199))
        (tmp_path / "new_x.txt").write_text("bogus -122.0 0 100\n" + valid)
        with caplog.at_level("WARNING"):
            ds = parse_sfcabs(tmp_path)
        assert len(ds.traces["x"]) == 199
        assert "malformed" in caplog.text

    def test_one_bad_line_of_two_is_corrupt(self, tmp_path):
        (tmp_path / "new_x.txt").write_text("bogus -122.0 0 100\n37.0 -122.0 0 200\n")
        with pytest.raises(ValueError, match="corrupt input: 1 of 2 lines malformed"):
            parse_sfcabs(tmp_path)

    @pytest.mark.parametrize("n_valid, corrupt", [(99, False), (98, True)])
    def test_tolerance_boundary(self, tmp_path, n_valid, corrupt):
        # one out-of-range record: 1 of 100 lines is tolerated, 1 of 99 is not
        lines = [f"37.0 -122.0 0 {i}" for i in range(n_valid)] + ["37.0 -181.0 0 5"]
        (tmp_path / "new_x.txt").write_text("\n".join(lines) + "\n")
        if corrupt:
            with pytest.raises(ValueError, match=f"corrupt input: 1 of {n_valid + 1} lines malformed"):
                parse_sfcabs(tmp_path)
        else:
            assert len(parse_sfcabs(tmp_path).traces["x"]) == n_valid

    def test_file_without_valid_line_adds_no_user(self, tmp_path):
        (tmp_path / "new_good.txt").write_text("".join(f"37.0 -122.0 0 {i}\n" for i in range(200)))
        (tmp_path / "new_bad.txt").write_text("bogus -122.0 0 100\n91.0 -122.0 0 200\n\n")
        assert parse_sfcabs(tmp_path).users() == ["good"]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ValueError, match="no cab files"):
            parse_sfcabs(tmp_path)

    def test_index_beside_taxi_files_is_not_read(self, tmp_path):
        (tmp_path / "new_abboip.txt").write_text("".join(f"37.0 -122.0 0 {i}\n" for i in range(50)))
        (tmp_path / "_cabs.txt").write_text('<cab id="abboip" updates="50"/>\n')
        ds = parse_sfcabs(tmp_path)
        assert ds.users() == ["abboip"] and len(ds.traces["abboip"]) == 50
        (tmp_path / "new_abboip.txt").unlink()
        with pytest.raises(ValueError, match="no cab files"):
            parse_sfcabs(tmp_path)


class TestParseGeolife:
    HEADER = ["Geolife trajectory", "WGS 84", "Altitude is in Feet", "Reserved 3",
              "0,2,255,My Track,0,0,2182,16711680", "0"]

    def _write_plt(self, path, records):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(self.HEADER + records) + "\n")

    def test_single_file(self, tmp_path):
        self._write_plt(
            tmp_path / "000" / "Trajectory" / "20081023025304.plt",
            [
                "39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04",
                "39.984683,116.31845,0,492,39744.1202546296,2008-10-23,02:53:10",
            ],
        )
        ds = parse_geolife(tmp_path)
        trace = ds.traces["000"]
        assert len(trace) == 2
        # 2008-10-23 02:53:04 UTC
        from datetime import datetime, timezone

        want = int(datetime(2008, 10, 23, 2, 53, 4, tzinfo=timezone.utc).timestamp())
        assert trace.locations[0].t == want

    def test_merges_and_sorts_across_files(self, tmp_path):
        self._write_plt(
            tmp_path / "007" / "Trajectory" / "b.plt",
            ["39.0,116.0,0,0,0,2008-10-23,03:00:00"],
        )
        self._write_plt(
            tmp_path / "007" / "Trajectory" / "a.plt",
            ["39.1,116.1,0,0,0,2008-10-23,02:00:00", "39.2,116.2,0,0,0,2008-10-23,04:00:00"],
        )
        ds = parse_geolife(tmp_path)
        ts = [loc.t for loc in ds.traces["007"].locations]
        assert ts == sorted(ts) and len(ts) == 3

    def test_short_header_skipped(self, tmp_path, caplog):
        target = tmp_path / "001" / "Trajectory" / "bad.plt"
        target.parent.mkdir(parents=True)
        target.write_text("too\nshort\n")
        self._write_plt(
            tmp_path / "001" / "Trajectory" / "good.plt",
            ["39.0,116.0,0,0,0,2008-10-23,03:00:00"],
        )
        with caplog.at_level("WARNING"):
            ds = parse_geolife(tmp_path)
        assert len(ds.traces["001"]) == 1
        assert "malformed header" in caplog.text

    @pytest.mark.parametrize("n_valid, corrupt", [(99, False), (98, True)])
    def test_tolerance_boundary(self, tmp_path, n_valid, corrupt):
        # one record before the epoch: 1 of 100 lines is tolerated, 1 of 99 is not
        records = [f"39.0,116.0,0,0,0,2008-10-23,03:00:{i % 60:02d}" for i in range(n_valid)]
        self._write_plt(tmp_path / "001" / "a.plt", records + ["39.0,116.0,0,0,0,1969-12-31,23:59:59"])
        if corrupt:
            with pytest.raises(ValueError, match=f"corrupt input: 1 of {n_valid + 1} lines malformed"):
                parse_geolife(tmp_path)
        else:
            assert len(parse_geolife(tmp_path).traces["001"]) == n_valid

    def test_user_without_valid_record_is_absent(self, tmp_path):
        self._write_plt(tmp_path / "001" / "a.plt", ["39.0,116.0,0,0,0,2008-10-23,03:00:00"] * 200)
        self._write_plt(tmp_path / "002" / "a.plt", ["91.0,116.0,0,0,0,2008-10-23,03:00:00"])
        (tmp_path / "003").mkdir()
        assert parse_geolife(tmp_path).users() == ["001"]


def _day_trace(user, day_points):
    """day_points: mapping day index -> number of points that day."""
    locs = []
    for day, n in day_points.items():
        locs.extend(
            TimestampedLocation(day * DAY + i, GeoPoint(0, 0)) for i in range(n)
        )
    return MobilityTrace(user, sorted(locs, key=lambda loc: loc.t))


class TestFilterDataset:
    def test_boundary_is_strictly_more(self):
        ds = Dataset({"u": _day_trace("u", {0: 481})})
        policy = FilterPolicy(min_locations_per_day=480, min_qualifying_days=1)
        assert filter_dataset(ds, policy) == ds
        ds_eq = Dataset({"u": _day_trace("u", {0: 480})})
        assert filter_dataset(ds_eq, policy).traces == {}

    def test_too_few_qualifying_days_drops_user(self):
        ds = Dataset({"u": _day_trace("u", {d: 481 for d in range(29)})})
        policy = FilterPolicy(min_locations_per_day=480, min_qualifying_days=30)
        assert filter_dataset(ds, policy).traces == {}

    def test_nonqualifying_days_are_dropped(self):
        ds = Dataset({"u": _day_trace("u", {0: 5, 1: 2})})
        policy = FilterPolicy(min_locations_per_day=4, min_qualifying_days=1)
        out = filter_dataset(ds, policy)
        assert len(out.traces["u"]) == 5
        assert all(loc.t < DAY for loc in out.traces["u"].locations)

    def test_untouched_trace_is_returned_itself(self):
        trace = _day_trace("u", {0: 3, 1: 2})
        out = filter_dataset(Dataset({"u": trace}), FilterPolicy(min_locations_per_day=1, min_qualifying_days=2))
        assert out.traces["u"] is trace

    def test_dropped_day_gets_new_owned_columns(self):
        trace = _day_trace("u", {0: 3, 1: 1})
        out = filter_dataset(Dataset({"u": trace}), FilterPolicy(min_locations_per_day=1, min_qualifying_days=1))
        kept = out.traces["u"]
        assert kept is not trace and len(kept) == 3
        for column in (kept.t, kept.lat, kept.lon):
            assert not column.flags.writeable and column.flags.owndata and column.base is None


def _grid_or_float(bound):
    """On-grid (millionths), just-off-grid and arbitrary degrees in [-bound, bound]."""
    n = bound * 1_000_000
    return st.one_of(
        st.builds(lambda k: k / 1e6, st.integers(-n, n)),
        st.builds(lambda k: float(np.nextafter(k / 1e6, 0.0)), st.integers(-n, n)),
        st.floats(-bound, bound, allow_nan=False),
    )


_POIS = st.builds(Poi, st.builds(GeoPoint, _grid_or_float(90), _grid_or_float(180)), st.integers(1, 50))


def _write_features(features, out):
    """Write features as the CSV that parse_features reads; returns the row count."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FEATURE_HEADER.split(","))
    count = 0
    for f in features:
        writer.writerow([f.id, fmt_degrees(f.point.lat), fmt_degrees(f.point.lon), f.category, f.name])
        count += 1
    return count


class TestFeatureAndPoiCsv:
    def test_feature_round_trip(self):
        feats = [
            Feature("f1", GeoPoint(45.0, 5.0), "restaurant", 'Chez "Maurice", Lyon'),
            Feature("f2", GeoPoint(45.1, 5.1), "shop", "corner store"),
        ]
        buf = io.StringIO()
        assert _write_features(feats, buf) == 2
        buf.seek(0)
        assert parse_features(buf) == feats

    def test_poi_round_trip(self):
        sets = {
            "u1": PoiSet("u1", (Poi(GeoPoint(45.0, 5.0), 2), Poi(GeoPoint(45.2, 5.1), 3))),
            "u2": PoiSet("u2", ()),
        }
        buf = io.StringIO()
        assert write_pois(sets, buf) == 2
        buf.seek(0)
        got = parse_pois(buf)
        # users with zero POIs have no rows to carry them
        assert got == {"u1": sets["u1"]}

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from(["a", "b", "u 3", "é"]), st.lists(_POIS, max_size=4), max_size=3))
    def test_poi_round_trip_property(self, pois_by_user):
        sets = {user: PoiSet(user, tuple(pois)) for user, pois in pois_by_user.items()}
        buf = io.StringIO()
        assert write_pois(sets, buf) == sum(map(len, sets.values()))
        # every row carries the scalar rule's text, users in sorted order
        assert buf.getvalue().splitlines()[1:] == [
            f"{user},{fmt_degrees(p.centroid.lat)},{fmt_degrees(p.centroid.lon)},{p.support}"
            for user in sorted(sets)
            for p in sets[user].pois
        ]
        buf.seek(0)
        assert parse_pois(buf) == {user: s for user, s in sets.items() if len(s)}

    def test_digest_is_stable_and_sensitive(self):
        ds = Dataset({"u": MobilityTrace("u", (TimestampedLocation(1, GeoPoint(1, 2)),))})
        other = Dataset({"u": MobilityTrace("u", (TimestampedLocation(2, GeoPoint(1, 2)),))})
        assert dataset_digest(ds) == dataset_digest(ds)
        assert dataset_digest(ds) != dataset_digest(other)


def _columns_dataset(traces):
    """A Dataset of ``{user: (t, lat, lon)}`` column triples."""
    return Dataset({u: MobilityTrace.from_columns(u, *cols) for u, cols in traces.items()})


# A few shared values make equal columns likely between two draws; -0.0 is
# left out because np.array_equal calls it equal to 0.0 while its bytes differ.
_DIGEST_LATS = st.one_of(st.sampled_from([0.0, 1.5, 45.000001]), st.floats(-90, 90).map(lambda x: x + 0.0))
_DIGEST_LONS = st.one_of(st.sampled_from([0.0, 1.5, 5.1234567891]), st.floats(-180, 180).map(lambda x: x + 0.0))


@st.composite
def _digest_datasets(draw):
    traces = {}
    for user in draw(st.lists(st.sampled_from(["a", "b", "ab", "é"]), unique=True, max_size=3)):
        n = draw(st.integers(0, 2))
        traces[user] = (
            sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))),
            draw(st.lists(_DIGEST_LATS, min_size=n, max_size=n)),
            draw(st.lists(_DIGEST_LONS, min_size=n, max_size=n)),
        )
    return _columns_dataset(traces)


def _same_columns(a: Dataset, b: Dataset) -> bool:
    return a.users() == b.users() and all(
        np.array_equal(getattr(a.traces[u], c), getattr(b.traces[u], c))
        for u in a.users()
        for c in ("t", "lat", "lon")
    )


class TestDatasetDigest:
    def test_known_answer(self):
        ds = _columns_dataset(
            {"u1": ([0, 60], [45.0, 45.000001], [5.0, 5.1234567891]), "u2": ([10], [-33.5], [151.25])}
        )
        assert dataset_digest(ds) == "f0626ca68d0a4aa6"

    @settings(max_examples=300, deadline=None)
    @given(_digest_datasets(), _digest_datasets())
    def test_equal_exactly_when_columns_are(self, a, b):
        copy = _columns_dataset({u: (tr.t.copy(), tr.lat.copy(), tr.lon.copy()) for u, tr in a.traces.items()})
        assert dataset_digest(copy) == dataset_digest(a)
        assert (dataset_digest(a) == dataset_digest(b)) == _same_columns(a, b)

    def test_user_ids_are_framed(self):
        # same concatenated ids and columns, split differently
        one = _columns_dataset({"a": ([1], [1.0], [2.0]), "bc": ([2, 3], [3.0, 4.0], [5.0, 6.0])})
        two = _columns_dataset({"ab": ([1], [1.0], [2.0]), "c": ([2, 3], [3.0, 4.0], [5.0, 6.0])})
        assert dataset_digest(one) != dataset_digest(two)

    def test_empty_trace_users_are_framed(self):
        base = {"a": ([1], [1.0], [2.0])}
        with_ghost = dict(base, ghost=([], [], []))
        assert dataset_digest(_columns_dataset(base)) != dataset_digest(_columns_dataset(with_ghost))

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_survives_canonical_round_trip(self, ds):
        written = io.StringIO()
        write_canonical(ds, written)
        written.seek(0)
        assert dataset_digest(parse_canonical(written)) == dataset_digest(ds)
