"""Loaders for mobility-trace datasets and CSV serialization.

Three trace sources are supported:

* the canonical CSV format (header ``user_id,timestamp,lat,lon``), which is
  also what every other command consumes;
* San-Francisco-cabs-style directories: one whitespace-separated file per
  taxi, ``new_<id>.txt`` (``latitude longitude occupancy timestamp``),
  newest record first;
* Geolife-style directories: one directory per user containing PLT files
  (six header lines, then comma-separated records whose first two fields
  are latitude/longitude and whose sixth and seventh are date and time,
  interpreted as UTC).

All three share one record reader and one malformed-record policy.
Every source is read from the open file in blocks of ``_BLOCK_LINES``
stripped non-blank lines; a line ends at ``\n``, ``\r`` or ``\r\n``, and
blank lines are skipped. numpy's C text reader, ``np.loadtxt``, reads
canonical and SF-cab blocks: one call a block where it accepts every
line. It is not given a line that holds a character it reads unlike
Python's ``int()`` and ``float()`` (anything outside ASCII, and
``\x1c``-``\x1f``). A line it refuses or warns on goes to the line
reader, ``int()`` and ``float()`` on the line's fields, and numpy goes on
with the rest of the block (``_runs``); every Geolife line goes to the
line reader. What numpy accepts, they accept with the same value, so the
line reader defines the policy: a record that does not parse, falls
before the epoch, exceeds int64, or has an out-of-range or NaN coordinate
is counted and dropped; any count is logged, and more than
``MALFORMED_TOLERANCE`` of the non-blank lines makes the input corrupt.
A user appears only through a valid record, and each trace is sorted
stably by time.

The reader appends each record to its user's byte buffer as an int64
timestamp and two float64 coordinates (the line reader stores a
timestamp beyond int64 as -1, which fails the epoch check). At the end
it reads each buffer as numpy columns and releases the buffer once that
user's columns are built.
A user whose records are all valid and in time order, as in every file
``write_canonical`` writes, gets a copy of each column and nothing more;
any other user's records are masked, sorted stably and gathered. So it
holds 24 bytes a record, plus the buffers' over-allocation (about an
eighth), however the users' records are interleaved; besides them it holds
the columns it returns, 24 bytes a point, and for one user at a time the
mask, order and gathered columns of the sort. While it reads, it also
holds one block: its lines, their joined text, numpy's rows and, in a
block of several users, each line's user and the rows grouped by user;
for 35-character lines, 130 kB in a block of one user and 210 kB in one
of several.

``write_canonical`` writes ``_BLOCK_RECORDS`` rows at a time, one
``out.write`` a block; a block takes consecutive users' rows, so short
traces share one. A coordinate is written with six decimals where that
form reads back as the same float, and as its shortest ``repr``
otherwise: ``_digits`` decides both for a whole block in numpy, with
exact arithmetic, and leaves to Python's formatting, one value at a
time, only what it cannot decide (values below 1e-4, which ``repr``
writes with an exponent, powers of two and ties). Each row is a row of
one byte matrix: the user field, gathered by each row's user, then ``t``,
``lat`` and ``lon``, written two digits at a time; a mask keeps each
field's bytes, and the kept bytes are the block's text. The writer holds
one block at a time, its columns, matrix, mask, the kernel's arrays and
its text: 1.3 MB for 4,096 rows of noisy coordinates, however long the
traces.

Day-level filtering keeps, per user, only UTC calendar days with strictly
more than ``min_locations_per_day`` records, and then only users with at
least ``min_qualifying_days`` such days.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import re
import struct
import warnings
from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TextIO

import numpy as np

from .core import Dataset, GeoPoint, MobilityTrace, Poi, PoiSet, _read_only
from ._digits import digit_count, even, fmt_degrees as _fmt_degrees, put_digits, text_rows
from .features import Feature

logger = logging.getLogger(__name__)

CANONICAL_HEADER = "user_id,timestamp,lat,lon"
FEATURE_HEADER = "feature_id,lat,lon,category,name"
POI_HEADER = "user_id,lat,lon,support"

# Fraction of malformed lines tolerated before trace input is
# considered corrupt rather than merely noisy.
MALFORMED_TOLERANCE = 0.01

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

# Rows per write of write_canonical: its row matrix and text are bounded
# by one block, not by a user's trace; a block spans users.
_BLOCK_RECORDS = 4096


@dataclass(frozen=True)
class FilterPolicy:
    """Day-quality filter: how many locations make a day count, and how
    many qualifying days keep a user."""

    min_locations_per_day: int = 480
    min_qualifying_days: int = 30

    def __post_init__(self) -> None:
        if self.min_locations_per_day < 1 or self.min_qualifying_days < 1:
            raise ValueError("filter thresholds must be >= 1")


def _after_header(lines: Iterable[str] | TextIO, header: str, what: str) -> Iterator[str]:
    """The lines after the first, which must be ``header``."""
    it = iter(lines)
    first = next(it, None)
    if first is None:
        raise ValueError(f"missing header: empty {what}")
    if first.strip() != header:
        raise ValueError(f"missing or wrong header, expected {header!r}")
    return it


# A source's line reader: (group's user, stripped non-blank line) to
# (user, t, lat, lon); raises ValueError when the line does not parse.
_Split = Callable[[str, str], tuple[str, int, float, float]]

# numpy's reader for a source: (group's user, stripped non-blank lines) to
# their records as _RECORD rows and their users: one a line, or the one
# user of every line. It raises ValueError, which names the row it refuses
# where numpy does, or a warning.
_Rows = Callable[[str, list[str]], tuple[np.ndarray, str | list[str]]]

# The reader's record, packed as bytes and read back as a numpy row.
_pack_record = struct.Struct("=qdd").pack
_RECORD = np.dtype([("t", "=i8"), ("lat", "=f8"), ("lon", "=f8")])

# Stripped non-blank lines per block: the reader's transient text, rows
# and users are bounded by one block, not by a user's trace.
_BLOCK_LINES = 1024

# The fewest lines numpy's reader is given at the start of a run: for
# fewer, a refused call and a second call for the lines before the refused
# one cost more than the line reader does.
_MIN_RUN = 32

# ASCII characters on which numpy's text reader and Python's int() and
# float() part ways: numpy strips them as whitespace, Python refuses them.
# Outside ASCII, numpy's integer parser also takes some letters.
_NOT_FOR_NUMPY = "\x1c\x1d\x1e\x1f"

# Where numpy's error names the row it refuses, last in its message: from 0
# in a conversion error, from 1 in a wrong field count.
_REFUSED_ROW = re.compile(r" at row (\d+)")


def _misread(text: str) -> bool:
    """Whether ``text`` holds a character that numpy's reader reads unlike
    int() and float()."""
    return not text.isascii() or any(c in text for c in _NOT_FOR_NUMPY)


def _refuse_misread(lines: list[str], text: str) -> None:
    """Refuse, naming its row from 0, the first of ``lines`` (which ``text``
    joins) that holds such a character."""
    if _misread(text):
        row = next(i for i, line in enumerate(lines) if _misread(line))
        raise ValueError(f"a character numpy reads unlike int() and float() at row {row}")


def _read_traces(
    source: str,
    groups: Iterable[tuple[str, Iterable[str]]],
    split: _Split,
    rows: _Rows | None = None,
) -> Dataset:
    """The Dataset of the records in ``groups``, under the one
    malformed-record policy of the module docstring, each user's records
    packed into one buffer as they are read. Without numpy's reader
    ``rows`` every line goes to the line reader ``split``."""
    buffers, total, malformed = _pack(groups, split, rows)

    traces = {}
    for user in list(buffers):
        # each user's buffer is released once its columns are built
        records = np.frombuffer(buffers.pop(user), dtype=_RECORD)
        t, lat, lon = records["t"], records["lat"], records["lon"]
        ok = (t >= 0) & (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)
        if ok.all() and not np.any(t[1:] < t[:-1]):  # from_columns copies each column once
            traces[user] = MobilityTrace.from_columns(user, t, lat, lon)
            continue
        keep = np.flatnonzero(ok)
        malformed += len(t) - len(keep)
        if len(keep):  # a user appears through a valid record only
            order = keep[np.argsort(t[keep], kind="stable")]
            traces[user] = MobilityTrace.from_columns(
                user, _read_only(t[order]), _read_only(lat[order]), _read_only(lon[order])
            )

    if malformed:
        logger.warning("%s input: %d of %d lines malformed", source, malformed, total)
        if malformed / total > MALFORMED_TOLERANCE:
            raise ValueError(f"corrupt input: {malformed} of {total} lines malformed")
    return Dataset(traces)


def _pack(
    groups: Iterable[tuple[str, Iterable[str]]], split: _Split, rows: _Rows | None
) -> tuple[dict[str, bytearray], int, int]:
    """Each user's records packed into one buffer, block by block, with the
    count of non-blank lines and of the lines that did not parse."""
    buffers: defaultdict[str, bytearray] = defaultdict(bytearray)
    total = 0
    malformed = 0
    for group, lines in groups:
        lines = filter(None, map(str.strip, lines))
        while block := list(islice(lines, _BLOCK_LINES)):
            total += len(block)
            users, records, bad = _read_block(group, block, split, rows)
            malformed += bad
            if isinstance(users, str):
                buffers[users] += records
                continue
            # one append per (user, block): the block's rows grouped by user
            index: dict[str, int] = {}
            codes = np.array([index.setdefault(user, len(index)) for user in users], dtype=np.intp)
            grouped = memoryview(np.frombuffer(records, dtype=_RECORD)[np.argsort(codes, kind="stable")])
            start = 0
            for user, end in zip(index, np.cumsum(np.bincount(codes)).tolist()):
                buffers[user] += grouped[start:end]
                start = end
    return buffers, total, malformed


def _read_block(
    group: str, block: list[str], split: _Split, rows: _Rows | None
) -> tuple[str | list[str], bytearray | memoryview, int]:
    """Each record's user, or the one user of every record, the records of
    ``block`` in line order packed as _RECORD rows, and the count of its
    lines that did not parse."""
    runs = _runs(group, block, rows) if rows else [(0, len(block), None)]
    if len(runs) == 1 and runs[0][2] is not None:  # numpy read every line
        got, users = runs[0][2]
        return users, memoryview(got), 0
    users = []
    records = bytearray()
    malformed = 0
    for start, stop, run in runs:
        if run is not None:
            records += memoryview(run[0])
            users += [run[1]] * (stop - start) if isinstance(run[1], str) else run[1]
            continue
        for line in block[start:stop]:
            try:
                user, t, lat, lon = split(group, line)
            except ValueError:
                malformed += 1
                continue
            users.append(user)
            try:
                records += _pack_record(t, lat, lon)
            except struct.error:  # beyond int64: -1 fails the epoch check
                records += _pack_record(-1, lat, lon)
    if users and users.count(users[0]) == len(users):
        return users[0], records, malformed
    return users, records, malformed


def _runs(
    group: str, block: list[str], rows: _Rows
) -> list[tuple[int, int, tuple[np.ndarray, str | list[str]] | None]]:
    """``block`` covered in order by runs (start, stop, numpy's records and
    users of block[start:stop]) and runs (start, stop, None) left to the
    line reader.

    numpy's reader is given the rest of the block, unless fewer than
    ``_MIN_RUN`` lines remain. Where it refuses a row it names, the line
    reader takes that row and the one before it, numpy reads the rows
    before them again, and goes on after them. A refusal among the first
    ``_MIN_RUN`` rows leaves the next ``_MIN_RUN`` rows to the line reader,
    twice as many after each such refusal in a row, so a block of garbage
    costs a handful of refused calls. A refusal that names no row leaves
    the rest of the block to the line reader.
    """
    runs: list[tuple[int, int, tuple[np.ndarray, str | list[str]] | None]] = []
    start, stop, skip = 0, len(block), _MIN_RUN
    with warnings.catch_warnings():
        # numpy 1.x warns where it still reads an int from '1.0'
        warnings.simplefilter("error")
        while len(block) - start >= _MIN_RUN:
            try:
                got = rows(group, block if stop - start == len(block) else block[start:stop])
            except (ValueError, Warning) as exc:
                found = _REFUSED_ROW.findall(str(exc))
                row = int(found[-1]) if found else stop - start + 1
                if row > stop - start:
                    break
                if row >= _MIN_RUN:
                    stop = start + row - 1
                else:
                    runs.append((start, min(start + skip, len(block)), None))
                    start, stop, skip = min(start + skip, len(block)), len(block), 2 * skip
                continue
            runs.append((start, stop, got))
            if stop < len(block):  # the refused row, counted from 0 or from 1
                runs.append((stop, min(stop + 2, len(block)), None))
            start, stop, skip = min(stop + 2, len(block)), len(block), _MIN_RUN
    if start < len(block):
        runs.append((start, len(block), None))
    return runs


def _canonical_record(_: str, line: str) -> tuple[str, int, float, float]:
    user, t, lat, lon = line.split(",")
    return user, int(t), float(lat), float(lon)


def _canonical_rows(_: str, lines: list[str]) -> tuple[np.ndarray, str | list[str]]:
    text = "\n".join(lines)
    _refuse_misread(lines, text)
    records = np.loadtxt(lines, delimiter=",", usecols=(1, 2, 3), dtype=_RECORD, comments=None, ndmin=1)
    # numpy refuses a line without a fourth field, but reads one with a fifth
    if text.count(",") != 3 * len(lines):
        row = next(i for i, line in enumerate(lines) if line.count(",") != 3)
        raise ValueError(f"a line with more than four fields at row {row}")
    # numpy refuses a line break inside a line, so each "\n" starts one
    prefix = lines[0].partition(",")[0] + ","
    if lines[-1].startswith(prefix) and text.count("\n" + prefix) == len(lines) - 1:
        return records, prefix[:-1]
    return records, [line.partition(",")[0] for line in lines]


def parse_canonical(lines: Iterable[str] | TextIO) -> Dataset:
    """Parse the canonical trace CSV into a Dataset, traces sorted by time.

    A line with the wrong field count is malformed; more than 1 % of
    malformed lines makes the input corrupt.
    """
    body = _after_header(lines, CANONICAL_HEADER, "input")
    return _read_traces("canonical", [("", body)], _canonical_record, _canonical_rows)


# Rows [start, stop) of a user's trace.
_Span = tuple[str, MobilityTrace, int, int]


def _row_blocks(dataset: Dataset) -> Iterator[list[_Span]]:
    """The rows of consecutive users in ``dataset.users()`` order, in
    blocks of at most ``_BLOCK_RECORDS`` rows."""
    spans: list[_Span] = []
    size = 0
    for user in dataset.users():
        trace = dataset.traces[user]
        start = 0
        while start < len(trace):
            stop = min(len(trace), start + _BLOCK_RECORDS - size)
            spans.append((user, trace, start, stop))
            size += stop - start
            start = stop
            if size == _BLOCK_RECORDS:
                yield spans
                spans, size = [], 0
    if spans:
        yield spans


def _block_text(spans: list[_Span]) -> np.ndarray:
    """The canonical CSV rows of one block, as UTF-8 bytes."""
    t = np.concatenate([trace.t[start:stop] for _, trace, start, stop in spans])
    xy = np.empty((len(t), 2))
    xy[:, 0] = np.concatenate([trace.lat[start:stop] for _, trace, start, stop in spans])
    xy[:, 1] = np.concatenate([trace.lon[start:stop] for _, trace, start, stop in spans])
    # each row's "user," field, gathered from the block's users by code
    prefixes = [f"{user},".encode() for user, *_ in spans]
    wu = even(max(map(len, prefixes)))
    codes = np.repeat(np.arange(len(spans)), [stop - start for *_, start, stop in spans])
    digits = digit_count(t)
    wt = even(digits.max())
    rows, keep = text_rows(xy, wu + wt)
    rows[:, :wu] = np.array(prefixes, dtype=f"S{wu}")[codes].view(np.uint8).reshape(-1, wu)
    keep[:, :wu] = np.arange(wu) < np.array([len(prefix) for prefix in prefixes])[codes, None]
    put_digits(rows[:, wu:wu + wt].view(np.uint16), keep[:, wu:wu + wt], t, digits)
    return rows[keep]


def write_canonical(dataset: Dataset, out: TextIO) -> int:
    """Write a Dataset as canonical CSV; returns the record count.

    Users are written in sorted order, locations in trace order, so output
    is deterministic. Round-trips through parse_canonical exactly.
    """
    out.write(CANONICAL_HEADER + "\n")
    for spans in _row_blocks(dataset):
        out.write(str(_block_text(spans), "utf-8"))
    return dataset.total_locations()


def _file_lines(path: Path, kind: str, header: int = 0) -> Iterator[str]:
    """The lines of a source file after its first ``header`` lines, read
    from the open file as they are needed; none, with a warning, when the
    file cannot be opened or has fewer than ``header`` lines."""
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        logger.warning("skipping unreadable %s file %s: %s", kind, path, exc)
        return
    with fh:
        if sum(1 for _ in islice(fh, header)) < header:
            logger.warning("skipping %s file with malformed header: %s", kind, path)
            return
        yield from fh


def _cab_record(taxi: str, line: str) -> tuple[str, int, float, float]:
    lat, lon, _occupancy, t = line.split()
    return taxi, int(t), float(lat), float(lon)


# A cab line's four fields as numpy's reader reads them: the record drops
# the occupancy, but numpy refuses a line whose occupancy is not a float,
# and the line reader reads it.
_CAB_ROW = np.dtype([("lat", "=f8"), ("lon", "=f8"), ("occupancy", "=f8"), ("t", "=i8")])


def _cab_rows(taxi: str, lines: list[str]) -> tuple[np.ndarray, str | list[str]]:
    _refuse_misread(lines, "\n".join(lines))
    rows = np.loadtxt(lines, dtype=_CAB_ROW, comments=None, ndmin=1)
    records = np.empty(len(rows), dtype=_RECORD)
    for name in _RECORD.names:
        records[name] = rows[name]
    return records, taxi


def parse_sfcabs(directory: str | Path) -> Dataset:
    """Load a directory of per-taxi files (``new_<id>.txt``); other files,
    such as the dataset's ``_cabs.txt`` index, are not read.

    Source files are reverse-chronological; traces come out ascending.
    Files that cannot be opened are skipped with a warning; malformed
    lines fall under the module's one policy.
    """
    directory = Path(directory)
    files = sorted(directory.glob("new_*.txt"))
    if not files:
        raise ValueError(f"no cab files found in {directory}")
    groups = ((path.stem.removeprefix("new_"), _file_lines(path, "cab")) for path in files)
    return _read_traces("cab", groups, _cab_record, _cab_rows)


def _plt_files(user_dirs: list[Path]) -> Iterator[tuple[str, Iterator[str]]]:
    for user_dir in user_dirs:
        for path in sorted(user_dir.rglob("*.plt")):
            yield user_dir.name, _file_lines(path, "PLT", header=6)


def _plt_record(user: str, line: str) -> tuple[str, int, float, float]:
    lat, lon, _, _, _, date_s, time_s, *_ = line.split(",")
    # 'YYYY-MM-DD', 'HH:MM:SS', read as UTC.
    day = date(int(date_s[0:4]), int(date_s[5:7]), int(date_s[8:10]))
    time_s = time_s.strip()
    secs = int(time_s[0:2]) * 3600 + int(time_s[3:5]) * 60 + int(time_s[6:8])
    return user, (day.toordinal() - _EPOCH_ORDINAL) * 86400 + secs, float(lat), float(lon)


def parse_geolife(directory: str | Path) -> Dataset:
    """Load a Geolife-style tree: one directory per user, PLT files inside.

    Timestamps are rebuilt from the date/time string fields. Files too
    short to carry the six-line header are skipped with a warning;
    malformed records fall under the module's one policy.
    """
    directory = Path(directory)
    user_dirs = sorted(p for p in directory.iterdir() if p.is_dir())
    if not user_dirs:
        raise ValueError(f"no user directories found in {directory}")
    return _read_traces("geolife", _plt_files(user_dirs), _plt_record)


def filter_dataset(dataset: Dataset, policy: FilterPolicy) -> Dataset:
    """Keep only qualifying UTC days and users with enough of them.

    A day qualifies with strictly more than ``min_locations_per_day``
    records. A kept user whose every day qualifies keeps its trace object
    itself; the others get new columns. Idempotent: filtering a filtered
    dataset changes nothing.
    """
    out: dict[str, MobilityTrace] = {}
    for user, trace in dataset.traces.items():
        days = trace.t // 86400
        day, count = np.unique(days, return_counts=True)
        good_days = day[count > policy.min_locations_per_day]
        if len(good_days) < policy.min_qualifying_days:
            continue
        if len(good_days) == len(day):
            out[user] = trace
            continue
        kept = np.isin(days, good_days)
        out[user] = MobilityTrace.from_columns(
            user, _read_only(trace.t[kept]), _read_only(trace.lat[kept]), _read_only(trace.lon[kept])
        )
    return Dataset(out)


def parse_features(lines: Iterable[str] | TextIO) -> list[Feature]:
    """Parse the feature CSV (``feature_id,lat,lon,category,name``)."""
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("missing header: empty feature input") from None
    if [h.strip() for h in header] != FEATURE_HEADER.split(","):
        raise ValueError(f"missing or wrong header, expected {FEATURE_HEADER!r}")
    features = []
    for row in reader:
        if not row:
            continue
        if len(row) != 5:
            raise ValueError(f"malformed feature row: {row!r}")
        features.append(
            Feature(id=row[0], point=GeoPoint(float(row[1]), float(row[2])), category=row[3], name=row[4])
        )
    return features


def parse_pois(lines: Iterable[str] | TextIO) -> dict[str, PoiSet]:
    """Parse the POI CSV (``user_id,lat,lon,support``) into per-user sets."""
    by_user: dict[str, list[Poi]] = defaultdict(list)
    for line in _after_header(lines, POI_HEADER, "POI input"):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed POI row: {line!r}")
        by_user[parts[0]].append(
            Poi(centroid=GeoPoint(float(parts[1]), float(parts[2])), support=int(parts[3]))
        )
    return {user: PoiSet(user=user, pois=tuple(pois)) for user, pois in by_user.items()}


def write_pois(poi_sets: Mapping[str, PoiSet], out: TextIO) -> int:
    """Write per-user POI sets in deterministic order; returns row count."""
    out.write(POI_HEADER + "\n")
    rows = [(user, poi) for user in sorted(poi_sets) for poi in poi_sets[user].pois]
    texts = _fmt_degrees(np.array([poi.centroid.lat for _, poi in rows] + [poi.centroid.lon for _, poi in rows]))
    lats, lons = texts[:len(rows)], texts[len(rows):]
    out.write("".join(f"{user},{lat},{lon},{poi.support}\n" for (user, poi), lat, lon in zip(rows, lats, lons)))
    return len(rows)


def dataset_digest(dataset: Dataset) -> str:
    """Short content hash of a dataset's columns: blake2b, 8 bytes, as hex.

    For each user in ``dataset.users()`` order it hashes the byte length of
    the UTF-8 user id, the id's bytes, the point count, then the ``t``
    column as little-endian int64 and the ``lat`` and ``lon`` columns as
    little-endian float64; both lengths are 8-byte little-endian integers.
    A user with an empty trace is framed with a count of 0, though
    canonical CSV has no row to carry it.
    """
    h = hashlib.blake2b(digest_size=8)
    for user in dataset.users():
        trace = dataset.traces[user]
        uid = user.encode("utf-8")
        h.update(len(uid).to_bytes(8, "little"))
        h.update(uid)
        h.update(len(trace).to_bytes(8, "little"))
        h.update(np.ascontiguousarray(trace.t, dtype="<i8"))
        h.update(np.ascontiguousarray(trace.lat, dtype="<f8"))
        h.update(np.ascontiguousarray(trace.lon, dtype="<f8"))
    return h.hexdigest()
