"""Core CDR domain model: records, tower registry, dataset span, partitions.

Records live in columnar numpy arrays grouped into per-user partitions; the
partition a user lands in depends only on the user id (splitmix64 hash mod
partition count), so any merge of per-partition results is order-free.
Each partition holds its records once, in the detection index (see
UserPartition), which is one function of the partition's record multiset:
partition_records accepts records in any order, so a chunked concurrent
reader would produce the identical final state. Ingestion reads the file
once, in blocks of a fixed size: numpy parses the lines of the two common
shapes and a per-line parser judges every other line, in file order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from datetime import date
from pathlib import Path

import numpy as np

from .timebase import CivilClock

RECORDS_HEADER = ("user_id", "tower_id", "timestamp")
TOWERS_HEADER = ("tower_id", "lon", "lat", "population")

_U64_MAX = 2**64 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1
_DAY = 86400


@dataclass(frozen=True)
class DatasetSpan:
    """Closed interval of civil dates: the days a dataset covers, and the
    one type of every other range of days (windows.ObservationWindow and
    synth.MigrationConfig extend it). Its text is 'FIRST..LAST'."""

    first_day: date
    last_day: date

    def __post_init__(self):
        if self.last_day < self.first_day:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def n_days(self) -> int:
        return (self.last_day - self.first_day).days + 1

    @property
    def first_ord(self) -> int:
        return self.first_day.toordinal()

    @property
    def last_ord(self) -> int:
        return self.last_day.toordinal()

    def contains(self, d: date) -> bool:
        return self.first_day <= d <= self.last_day

    def overlaps(self, other: "DatasetSpan") -> bool:
        """Whether the two ranges share a day."""
        return self.first_day <= other.last_day and other.first_day <= self.last_day

    @classmethod
    def parse(cls, text: str) -> "DatasetSpan":
        """Parse 'YYYY-MM-DD..YYYY-MM-DD'; a range that ends before it
        starts keeps its own message."""
        try:
            a, b = text.split("..")
            first, last = date.fromisoformat(a), date.fromisoformat(b)
        except ValueError as exc:
            raise ValueError(f"bad span {text!r}: expected FIRST..LAST dates") from exc
        return cls(first, last)

    def __str__(self) -> str:
        return f"{self.first_day.isoformat()}..{self.last_day.isoformat()}"


class TowerRegistry:
    """Immutable table of towers: id, position, resident population."""

    def __init__(self, tower_ids, lon, lat, population):
        self.tower_ids = np.asarray(tower_ids, dtype=np.int64)
        self.lon = np.asarray(lon, dtype=np.float64)
        self.lat = np.asarray(lat, dtype=np.float64)
        self.population = np.asarray(population, dtype=np.int64)
        n = len(self.tower_ids)
        if not (len(self.lon) == len(self.lat) == len(self.population) == n):
            raise ValueError("registry columns have unequal lengths")
        if np.any(self.tower_ids < 0) or np.any(self.population < 0):
            raise ValueError("negative tower_id or population in tower registry")
        order = argsort_unique(self.tower_ids, "duplicate tower_id {} in registry")
        self._sorted_ids = self.tower_ids[order]
        self._sorted_rows = order.astype(np.int64)
        for arr in (self.tower_ids, self.lon, self.lat, self.population):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.tower_ids)

    def contains_ids(self, tower_ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the given ids exist in the registry."""
        return np.isin(np.asarray(tower_ids, dtype=np.int64), self._sorted_ids)

    def rows_for(self, tower_ids: np.ndarray) -> np.ndarray:
        """Registry row index per id; raises on any id not in the registry."""
        ids = np.asarray(tower_ids, dtype=np.int64)
        return self._sorted_rows[
            find_sorted(self._sorted_ids, ids, "tower_id {} not in registry")
        ]

    def write_csv(self, path) -> None:
        """One line per tower: ids and counts as str(), coordinates as
        repr(), as csv.writer writes Python ints and floats."""
        rows = zip(self.tower_ids.tolist(), self.lon.tolist(), self.lat.tolist(),
                   self.population.tolist())
        write_atomic(path, csv_text(",".join(TOWERS_HEADER), (
            f"{t},{lo!r},{la!r},{p}" for t, lo, la, p in rows)))

    @classmethod
    def read_csv(cls, path) -> "TowerRegistry":
        return cls(*read_table(
            path, TOWERS_HEADER, (np.int64, np.float64, np.float64, np.int64)
        ))


def read_table(path, header, types, blank=()) -> list[np.ndarray]:
    """A comma-separated table's columns, one array per header name.

    Line 1 is skipped if it starts with header[0] (ingest's rule for line 1
    of the records file too), and so is a blank line. Every other line has
    one field per header name, parsed by its column's type: Python's int or
    float, as numpy parses a string, and an integer must lie in its numpy
    type's range and be non-negative. An empty field reads -1 (none) in the
    columns named in blank. The first column's values must be unique. A bad
    line raises ValueError starting 'FILE:LINE:'.
    """
    path = Path(path)
    # each column's parser, and an integer column's largest value
    parsers = [(float, None) if np.dtype(kind).kind == "f"
               else (int, int(np.iinfo(kind).max)) for kind in types]
    columns: list[list] = [[] for _ in header]
    seen = set()
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        at = f"{path}:{lineno}:"
        line = raw.decode(errors="replace")  # an undecodable byte fails its field
        if not line.strip() or (lineno == 1 and line.startswith(header[0])):
            continue
        values = line.split(",")
        if len(values) != len(header):
            raise ValueError(f"{at} expected {len(header)} fields, got {len(values)}")
        for name, (parse, top), text, column in zip(header, parsers, values, columns):
            try:  # an empty field of blank reads -1, unchecked
                value = -1 if text == "" and name in blank else parse(text)
                if top is not None and text and not 0 <= value <= top:
                    raise ValueError("negative" if value < 0 else f"above {top}")
            except ValueError as exc:
                raise ValueError(f"{at} bad {name} {text!r}: {exc}") from None
            column.append(value)
        if columns[0][-1] in seen:
            raise ValueError(f"{at} duplicate {header[0]} {values[0]}")
        seen.add(columns[0][-1])
    return [np.array(c, dtype=kind) for c, kind in zip(columns, types)]


def argsort_unique(ids: np.ndarray, duplicate: str) -> np.ndarray:
    """Stable argsort of an id column; ValueError (duplicate, formatted
    with the id) when an id repeats."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    repeats = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if len(repeats):
        raise ValueError(duplicate.format(int(repeats[0])))
    return order


def find_sorted(sorted_ids: np.ndarray, ids: np.ndarray, missing: str) -> np.ndarray:
    """Position of each of ids in the sorted unique sorted_ids; KeyError
    (missing, formatted with the id) when one is absent. An empty
    sorted_ids holds no id."""
    i = np.searchsorted(sorted_ids, ids)
    found = i < len(sorted_ids)
    found[found] = sorted_ids[i[found]] == ids[found]
    if not found.all():
        raise KeyError(missing.format(int(ids[~found][0])))
    return i


@dataclass
class UserPartition:
    """One shard of the record table holding every record of its users.

    user_ids is sorted unique. The records are held once, in the detection
    index: the index_* columns, ordered by (civil day, pair, timestamp),
    where a pair is one (user, tower) combination numbered densely in
    (user, tower) order: pair_users ascends, and pair_towers ascends within
    each user. Records of index_days[i] fill
    index_day_starts[i]:index_day_starts[i+1], which makes any window a
    slice (day_slice). index_day_first marks the first record of each
    (pair, day) run; as a window keeps or drops whole days, the flags in a
    window's slice count each pair's distinct days, and the flagged records
    carry each pair's earliest timestamp per day. Nothing assumes the civil
    date rises with the timestamp. The layout costs 14 bytes per record,
    16 per pair, 8 per user and 12 per civil day (plus 8). partition_records
    builds it with one sort by timestamp and 16-bit radix passes, whose
    count follows the ids' value ranges (see _detection_index). Tower ids
    are non-negative; a home of -1 means no tower.
    """

    user_ids: np.ndarray  # uint64, sorted unique
    pair_users: np.ndarray  # int64 row in user_ids, per pair
    pair_towers: np.ndarray  # int64 tower id, per pair
    index_days: np.ndarray  # int32 civil date ordinals present, ascending
    index_day_starts: np.ndarray  # int64, len index_days + 1
    index_pairs: np.ndarray  # int32 pair id per indexed record
    index_timestamps: np.ndarray  # int64 epoch seconds
    index_week_hours: np.ndarray  # uint8 civil weekday (Mon=0) * 24 + hour
    index_day_first: np.ndarray  # bool, first record of its (pair, day)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def n_records(self) -> int:
        return len(self.index_pairs)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_towers)

    def day_slice(self, first_ord: int, last_ord: int) -> slice:
        """Slice of the index_* columns holding civil days first..last."""
        lo, hi = np.searchsorted(self.index_days, [first_ord, last_ord + 1])
        return slice(int(self.index_day_starts[lo]), int(self.index_day_starts[hi]))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; uniform over uint64 even for small sequential ids."""
    z = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def _radix_argsort(column: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """order (None: the identity), stably sorted by column[order].

    numpy's stable argsort is a radix sort only for keys of 16 bits or
    less, so the integer column's offset from its minimum is sorted one
    16-bit digit at a time, least significant first, in as many passes as
    its value range needs: none for a constant column, four for one that
    spans 64 bits.
    """
    lo, hi = (int(column.min()), int(column.max())) if len(column) else (0, 0)
    # the range fits the column's width, so the offset wraps to its exact
    # value in the unsigned type of that width
    unsigned = np.dtype(f"u{column.itemsize}")
    base = unsigned.type(lo % 2 ** (8 * column.itemsize))
    for shift in range(0, (hi - lo).bit_length(), 16):
        digit = column.view(unsigned) - base
        digit >>= unsigned.type(shift)
        digit = digit.astype(np.uint16)
        if order is None:
            order = np.argsort(digit, kind="stable")
        else:
            order = order[np.argsort(digit[order], kind="stable")]
    return np.arange(len(column)) if order is None else order


def _change_flags(sorted_column: np.ndarray) -> np.ndarray:
    """Whether each value of a sorted column differs from the one before."""
    flags = np.empty(len(sorted_column), dtype=bool)
    flags[:1] = True
    np.not_equal(sorted_column[1:], sorted_column[:-1], out=flags[1:])
    return flags


def _detection_index(users, towers, timestamps, day_ords, week_hours):
    """user_ids and the pair_* and index_* columns of one partition's records.

    A sort by timestamp, then stable 16-bit radix passes by tower and by
    user (_radix_argsort), put the records in (user, tower, timestamp)
    order, where change flags and their running sums number the users and
    the pairs. A last stable pass by civil day gives (day, pair, timestamp)
    order; records that tie on all three are equal, so every column is a
    function of the record multiset, not the input order. Each column is
    gathered through the order once, and freed before the next.
    """
    n = len(users)
    order = np.argsort(timestamps)
    order = _radix_argsort(towers, order)
    order = _radix_argsort(users, order)
    sorted_users = users[order]
    new_user = _change_flags(sorted_users)
    user_ids = sorted_users[new_user]
    del sorted_users
    sorted_towers = towers[order]
    new_pair = _change_flags(sorted_towers)
    new_pair |= new_user
    pair_towers = sorted_towers[new_pair]
    del sorted_towers
    pair_users = np.cumsum(new_user[new_pair], dtype=np.int64)
    pair_users -= 1
    del new_user
    pairs = np.cumsum(
        new_pair, dtype=np.int32 if len(pair_towers) <= 2**31 else np.int64
    )
    pairs -= 1
    del new_pair
    days = day_ords[order]
    by_day = _radix_argsort(days, None)
    pairs = pairs[by_day]
    days = days[by_day]
    order = order[by_day]
    del by_day
    day_first = _change_flags(days)
    day_starts = np.flatnonzero(day_first)
    day_first[1:] |= pairs[1:] != pairs[:-1]
    return {
        "user_ids": user_ids,
        "pair_users": pair_users,
        "pair_towers": pair_towers,
        "index_days": days[day_starts],
        "index_day_starts": np.append(day_starts, n).astype(np.int64),
        "index_pairs": pairs,
        "index_timestamps": timestamps[order],
        "index_week_hours": week_hours[order],
        "index_day_first": day_first,
    }


def _column(values, dtype, name: str) -> np.ndarray:
    """values as an array of dtype. An array of another type is cast only
    if dtype holds each value, or ValueError names the first it cannot: the
    cast would wrap it. An array of dtype is taken as it is."""
    column = np.asarray(values)
    if column.dtype != dtype and len(column):
        limits = np.iinfo(dtype)
        for v in (int(column.min()), int(column.max())):
            if not limits.min <= v <= limits.max:
                raise ValueError(f"{name} {v} outside the range of {limits.dtype}")
    return column.astype(dtype, copy=False)


def partition_records(
    users, towers, timestamps, day_ords, week_hours, *, n_partitions: int = 1
) -> list[UserPartition]:
    """Split records into per-user partitions, each holding its detection index.

    Each record's civil day ordinal and week hour, as CivilClock.local_fields
    gives them, go into the index as they are. Input order never matters
    (see UserPartition). ValueError refuses a negative tower id, a week hour
    above 167, and a value its column's type cannot hold (see _column).
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    users = _column(users, np.uint64, "user id")
    towers = _column(towers, np.int64, "tower id")
    timestamps = _column(timestamps, np.int64, "timestamp")
    day_ords = _column(day_ords, np.int32, "day ordinal")
    week_hours = _column(week_hours, np.uint8, "week hour")
    columns = (users, towers, timestamps, day_ords, week_hours)
    if len({len(c) for c in columns}) > 1:
        raise ValueError("record columns have unequal lengths")
    # a negative home means "no tower" to every consumer of detection
    if len(towers) and towers.min() < 0:
        raise ValueError(f"negative tower id {int(towers.min())} in records")
    # a TC filter's table has one entry per hour of the week
    if len(week_hours) and week_hours.max() > 167:
        raise ValueError(f"week hour {int(week_hours.max())} above 167 in records")

    if n_partitions == 1:  # every record is the one partition's: nothing to hash
        return [UserPartition(**_detection_index(*columns))]
    # the narrowest type: the column stays live while the indexes are built
    part_idx = (_splitmix64(users) % np.uint64(n_partitions)).astype(
        np.min_scalar_type(n_partitions - 1)
    )
    parts: list[UserPartition] = []
    for p in range(n_partitions):
        m = part_idx == p
        held = [c[m] for c in columns]
        del m
        parts.append(UserPartition(**_detection_index(*held)))
    return parts


@dataclass
class IngestReport:
    """Per-reason accounting for one ingestion pass.

    total_lines = parsed records + malformed lines: a recognized header is
    flagged, never counted, and every other line is one or the other. So
    accepted + the three reject columns always equals it; ingest writes
    every count. The two timings (perf_counter seconds in the file parse,
    the reject filters and civil-time derivation included, and in
    partition_records, the index build alone) vary from run to run: they
    take no part in equality and stay out of as_dict.
    """

    records_file: str
    header_line: bool = False
    total_lines: int = 0
    accepted: int = 0
    rejected_malformed: int = 0
    rejected_unknown_tower: int = 0
    rejected_out_of_span: int = 0
    distinct_users: int = 0
    sample_rejects: list[str] = field(default_factory=list)
    parse_seconds: float = field(default=0.0, compare=False)
    partition_seconds: float = field(default=0.0, compare=False)

    def check(self) -> None:
        total = (self.accepted + self.rejected_malformed + self.rejected_unknown_tower
                 + self.rejected_out_of_span)
        if total != self.total_lines:
            raise AssertionError(
                f"ingest accounting broken: {total} != {self.total_lines}")

    def as_dict(self) -> dict:
        """Every field but sample_rejects and the timings, in field order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.compare and f.name != "sample_rejects"
        }

    def as_text(self) -> str:
        lines = [f"{k}={v}" for k, v in self.as_dict().items()]
        return "\n".join(lines + [f"sample_reject={s}" for s in self.sample_rejects])


_MAX_SAMPLE_REJECTS = 5
_HEADER_START = RECORDS_HEADER[0].encode()  # how a header line 1 starts

# bytes read per block of the records file; each block is cut after its
# last whole line, so ingest's transient memory is a few times this
_BLOCK_BYTES = 1 << 20

# byte classes of the two fast line shapes (see _parse_block)
_DIGIT, _COMMA, _DASH, _T, _COLON, _CR, _NL, _OTHER = range(8)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b",-T:\r\n")] = [_COMMA, _DASH, _T, _COLON, _CR, _NL]
# an ISO time's non-digits, and the digit runs before them and the line end
_ISO_CLASSES = np.array([_DASH, _DASH, _T, _COLON, _COLON])
_ISO_RUNS = np.array([4, 2, 2, 2, 2, 2])
_ISO_WIDTH = 19  # YYYY-MM-DDTHH:MM:SS
_MAX_FAST_DIGITS = 18  # any 18-digit number fits user, tower and timestamp
_NL_TO_COMMA = bytes.maketrans(b"\n", b",")


def _note_reject(report: IngestReport, line: str, reason: str) -> None:
    if len(report.sample_rejects) < _MAX_SAMPLE_REJECTS:
        report.sample_rejects.append(f"{reason}: {line[:80]}")


class _LineJudge:
    """The per-line parser, for the lines neither fast shape takes.

    Lines reach it in file order. No fast shape fits a header line, so the
    first line it gets is the header when report.header_line says so; it
    drops that line uncounted. Every other line yields a record or counts
    as malformed, so total_lines is the records plus the malformed lines.
    """

    def __init__(self, report: IngestReport, clock: CivilClock):
        self.report = report
        self.clock = clock
        self.header = report.header_line

    def __call__(self, text: bytes) -> list[tuple[int, int, int]]:
        """Records of the lines in text, which end at CR LF, a lone CR or LF
        (bytes.splitlines() ends lines at those alone)."""
        out = []
        for raw in text.splitlines():
            if self.header:
                self.header = False
                continue
            # an undecodable byte becomes a \xNN escape, which no field
            # parses: the line counts as malformed
            line = raw.decode("utf-8", "backslashreplace").strip()
            try:
                user, tower, stamp = line.split(",")
                uid, tid = int(user), int(tower)
                if not (0 <= uid <= _U64_MAX) or not (_I64_MIN <= tid <= _I64_MAX):
                    raise ValueError("id out of range")
                try:
                    ts = int(stamp)
                except ValueError:
                    ts = self.clock.parse_local(stamp.strip())
                if not (_I64_MIN <= ts <= _I64_MAX):
                    raise ValueError("timestamp out of range")
            except ValueError:
                self.report.rejected_malformed += 1
                _note_reject(self.report, line, "malformed")
                continue
            out.append((uid, tid, ts))
        return out


def _fast_digits(run: np.ndarray) -> np.ndarray:
    """Whether each digit run is 1 to _MAX_FAST_DIGITS long."""
    return (run - 1).astype(np.uint64) < _MAX_FAST_DIGITS


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of np.arange(start, stop) over the pairs."""
    lengths = stops - starts
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return shift + np.arange(len(shift))


def _iso_local_seconds(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(valid mask, wall-clock seconds since 1970) of (n, 19) ISO time bytes.

    A time is valid when strptime takes it: a real calendar date in years
    0001-9999 (numpy's calendar has a year 0, strptime's none), hour up to
    23, minute and second up to 59.
    """
    digits = fields.astype(np.int64) - ord("0")

    def number(lo: int, hi: int) -> np.ndarray:
        return digits[:, lo:hi] @ 10 ** np.arange(hi - lo - 1, -1, -1)

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    months = (year - 1970) * 12 + month - 1
    month_start = months.astype("datetime64[M]").astype("datetime64[D]")
    month_days = ((months + 1).astype("datetime64[M]") - month_start).astype(np.int64)
    valid = (
        (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
        & (hour <= 23) & (minute <= 59) & (second <= 59)
    )
    days = month_start.astype(np.int64) + day - 1
    return valid, days * _DAY + hour * 3600 + minute * 60 + second


def _parse_block(
    buf: bytes, judge: _LineJudge, clock: CivilClock
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, towers, timestamps) of the whole lines in buf, in file order.

    numpy parses the lines of two shapes, each id 1-18 digits and the line
    ended by LF or CR LF: all-integer 'U,T,S' with S also 1-18 digits, and
    ISO local time 'U,T,YYYY-MM-DDTHH:MM:SS' with a valid time, however far
    from the span. Every other line, a header included, goes to judge in
    file order, and so does what follows buf's last LF: lines ended by a
    lone CR or by the end of file. It reads and writes no IngestReport:
    judge counts the malformed lines, and ingest derives total_lines from
    the records and those.
    """
    end = buf.rfind(b"\n") + 1
    a = np.frombuffer(buf, dtype=np.uint8, count=end)
    p = np.flatnonzero(a - ord("0") > 9)  # every byte but the digits
    k = _BYTE_CLASS[a[p]]
    runs = p.copy()  # digits before each non-digit
    runs[1:] -= p[:-1] + 1
    nl = np.flatnonzero(k == _NL)  # in p, each line's '\n'
    head = np.zeros_like(nl)  # in p, each line's first non-digit
    np.add(nl[:-1], 1, out=head[1:])
    cr = (nl > head) & (k[nl - 1] == _CR) & (runs[nl] == 0)
    width = nl - cr - head  # non-digits before the line end

    ids = (k == _COMMA) & _fast_digits(runs)  # commas after 1-18 digit ids
    fast = np.zeros(len(nl), dtype=bool)
    rows = np.flatnonzero(width == 2)
    at = head[rows]
    fast[rows[ids[at] & ids[at + 1] & _fast_digits(runs[at + 2])]] = True
    rows = np.flatnonzero(width == 2 + len(_ISO_CLASSES))
    at = head[rows, None] + np.arange(3 + len(_ISO_CLASSES))
    ok = (ids[at[:, 0]] & ids[at[:, 1]]
          & (k[at[:, 2:-1]] == _ISO_CLASSES).all(axis=1)
          & (runs[at[:, 2:]] == _ISO_RUNS).all(axis=1))
    rows, at = rows[ok], at[ok]
    time_at = p[at[:, 1]] + 1  # byte after the second comma
    ok, local = _iso_local_seconds(a[time_at[:, None] + np.arange(_ISO_WIDTH)])
    iso, time_at = rows[ok], time_at[ok]
    fast[iso] = True
    slow = np.flatnonzero(~fast)
    starts, stops = p[head[slow]] - runs[head[slow]], p[nl[slow]] + 1

    # three numbers per fast line in one fromstring: blank every other line
    # and each ISO time but its last digit, then turn line ends into commas
    if len(slow) or len(iso):
        blanked = a.copy()
        blanked[_ranges(starts, stops)] = 0
        blanked[time_at[:, None] + np.arange(_ISO_WIDTH - 1)] = 0
        text = blanked.tobytes()
    else:
        text = buf[:end]
    values = np.fromstring(
        text.translate(_NL_TO_COMMA, b"\0\r"), dtype=np.int64, sep=","
    )
    if len(values) != 3 * (len(nl) - len(slow)):
        raise AssertionError("fast-path line classification broken")
    users, towers, stamps = values.reshape(-1, 3).T
    # a line's place among the fast lines: its row less the slow rows before
    stamps[iso - np.searchsorted(slow, iso)] = clock.epochs_from_local(local[ok])
    users = users.astype(np.uint64)

    # the judged lines' records, placed among the fast ones in file order
    judged: list[tuple[int, int, int]] = []
    rows: list[int] = []
    for row, lo, hi in zip(slow.tolist(), starts.tolist(), stops.tolist()):
        got = judge(buf[lo:hi])
        judged += got
        rows += [row] * len(got)
    got = judge(buf[end:])
    judged += got
    rows += [len(nl)] * len(got)
    if not judged:
        return users, towers, stamps
    at = np.subtract(rows, np.searchsorted(slow, rows))
    return tuple(np.insert(column, at, values)
                 for column, values in zip((users, towers, stamps), zip(*judged)))


def _read_records(
    path: Path, judge: _LineJudge, clock: CivilClock
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, towers, timestamps) of the records file, in file order.

    The file is read in blocks of _BLOCK_BYTES, each cut after its last
    whole line. The records go into columns sized from the file (grown by
    doubling if its lines are short): growing columns block by block would
    leave them scattered among the blocks' freed temporaries, which the
    allocator then cannot give back.
    """
    columns = [np.empty(path.stat().st_size // 16 + 1, dtype=dtype)
               for dtype in (np.uint64, np.int64, np.int64)]
    n = 0
    with open(path, "rb") as fh:
        carry = b""
        while True:
            chunk = fh.read(_BLOCK_BYTES)
            buf = carry + chunk
            cut = len(buf)
            if chunk:
                # after the last whole line: a final '\r' may be the first
                # half of a '\r\n'
                cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1
            parsed = _parse_block(buf[:cut], judge, clock)
            m = len(parsed[0])
            if n + m > len(columns[0]):
                columns = [_grown(c[:n], 2 * (n + m)) for c in columns]
            for column, part in zip(columns, parsed):
                column[n:n + m] = part
            n += m
            carry = buf[cut:]
            if not chunk:
                break
    return columns[0][:n], columns[1][:n], columns[2][:n]


def _grown(column: np.ndarray, size: int) -> np.ndarray:
    out = np.empty(size, dtype=column.dtype)
    out[: len(column)] = column
    return out


def ingest(
    records_path,
    registry: TowerRegistry,
    span: DatasetSpan,
    *,
    n_partitions: int = 1,
    clock: CivilClock | None = None,
) -> tuple[list[UserPartition], IngestReport]:
    """Read a delimited records file into partitions with full reject accounting.

    Columns: user_id, tower_id, timestamp (epoch seconds, or local ISO
    'YYYY-MM-DDTHH:MM:SS'). The file is UTF-8 text whose lines end at LF,
    CR LF or a lone CR. Line 1 is a header if it starts with user_id, as in
    read_table and is never counted; any other line that is not a valid
    record counts as malformed, so total_lines = parsed records + malformed
    lines. Of the records, one on a tower the registry lacks counts as
    unknown_tower, whatever its time, and any other whose civil date in the
    clock's zone lies outside the span as out_of_span. Every reject is
    decided here: partition_records indexes the accepted records with the
    civil fields derived for the span filter.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    clock = clock or CivilClock()
    path = Path(records_path)
    if not path.exists():
        raise FileNotFoundError(f"records file not found: {path}")

    t_start = time.perf_counter()
    report = IngestReport(records_file=str(path))
    with open(path, "rb") as fh:
        report.header_line = fh.read(len(_HEADER_START)) == _HEADER_START
    judge = _LineJudge(report, clock)
    u, t, s = _read_records(path, judge, clock)
    # [lo, hi) seconds since 1970: the span's days and one day either side.
    # A UTC offset is under a day, so this holds every instant whose civil
    # date is in the span. Records outside it are out of span and dropped
    # before civil-time derivation, which keeps local_fields far inside the
    # instants whose civil day ordinals it can hold.
    first = (span.first_day - date(1970, 1, 1)).days
    lo, hi = (first - 1) * _DAY, (first + span.n_days + 1) * _DAY
    report.total_lines = len(u) + report.rejected_malformed

    keep = registry.contains_ids(t)
    n_known = int(keep.sum())
    report.rejected_unknown_tower = len(t) - n_known
    for tid in t[~keep][:_MAX_SAMPLE_REJECTS]:
        _note_reject(report, f"tower_id={int(tid)}", "unknown_tower")
    keep &= s >= lo
    keep &= s < hi
    if not keep.all():
        u, t, s = u[keep], t[keep], s[keep]
    day_ords, week_hours = clock.local_fields(s)
    keep = (day_ords >= span.first_ord) & (day_ords <= span.last_ord)
    if not keep.all():
        u, t, s, day_ords, week_hours = (
            c[keep] for c in (u, t, s, day_ords, week_hours)
        )
    report.rejected_out_of_span = n_known - len(u)

    t_parsed = time.perf_counter()
    parts = partition_records(u, t, s, day_ords, week_hours, n_partitions=n_partitions)
    report.parse_seconds = t_parsed - t_start
    report.partition_seconds = time.perf_counter() - t_parsed
    report.accepted = int(sum(p.n_records for p in parts))
    report.distinct_users = int(sum(p.n_users for p in parts))
    report.check()
    return parts, report


# rows per block of write_records_csv: a block's text and keep matrices are
# each (line width x rows) bytes, a few hundred KiB, which keeps the writing
# process's peak memory flat. 4x the rows saves little for 4x the memory per
# block: 646,254 three-column records took a median 83 ms against 95 ms on
# a 2-core VM.
_FORMAT_ROWS = 1 << 14


def _format_rows(columns: list[np.ndarray], blank: tuple[int, ...] = ()) -> bytes:
    """The CSV lines of integer columns, as csv.writer writes Python ints;
    in the columns numbered in blank, a negative value is an empty field.

    Each value takes a field of a sign byte and its column's largest digit
    count in a (line width x rows) byte matrix, so that each digit of a
    column is one contiguous row. The digits come from repeated division by
    ten in the narrowest unsigned type that holds the column's largest
    magnitude in this block (np.min_scalar_type): uint16 divides about three
    times as fast as uint64. A mask of the bytes each value's str() has
    drops the sign, the leading zeros and the empty fields in one compress
    of the transposed matrices, which reads the lines out in order.
    """
    specs = []
    for i, column in enumerate(columns):
        empty = None
        if column.dtype.kind == "u":
            negative, magnitude = None, column
        elif i in blank:
            negative, empty = None, column < 0
            magnitude = np.where(empty, 0, column)
        else:
            negative = column < 0
            # abs of the type's minimum wraps to itself, which reads back
            # as the exact magnitude in the unsigned type of the same width
            magnitude = np.abs(column).view(f"u{column.itemsize}")
        top = int(magnitude.max())
        magnitude = magnitude.astype(np.min_scalar_type(top), copy=False)
        specs.append((negative, empty, magnitude, len(str(top))))
    width = sum(2 + digits for *_, digits in specs)
    text = np.empty((width, len(columns[0])), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    ends = b"," * (len(columns) - 1) + b"\n"
    at = 0
    for (negative, empty, magnitude, digits), end in zip(specs, ends):
        text[at] = ord("-")
        keep[at] = False if negative is None else negative
        ten = magnitude.dtype.type(10)
        rest = magnitude
        for p, row in enumerate(range(at + digits, at, -1)):
            if p:  # rest is magnitude // 10**p: a leading zero where it is 0
                np.not_equal(rest, 0, out=keep[row])
            elif empty is not None:  # otherwise the last digit shows, 0 included
                np.logical_not(empty, out=keep[row])
            quotient = rest // ten  # a // by a scalar is several times
            text[row] = rest - quotient * ten  # faster than np.divmod
            rest = quotient
        text[at + 1:at + 1 + digits] += ord("0")
        text[at + 1 + digits] = end
        at += 2 + digits
    return text.T[keep.T].tobytes()


def format_blocks(header: tuple[str, ...], columns, blank: tuple[int, ...] = ()):
    """The CSV bytes of an integer table, the one builder of records, truth
    and assignments/ files: the header line, then _format_rows of the
    columns' rows, _FORMAT_ROWS at a time."""
    yield (",".join(header) + "\n").encode()
    for lo in range(0, len(columns[0]), _FORMAT_ROWS):
        yield _format_rows([c[lo:lo + _FORMAT_ROWS] for c in columns], blank)


def csv_text(header: str, rows) -> str:
    """The CSV text of a table of text lines, the one builder of every other
    table: the header line, then a line per row."""
    return "\n".join([header, *rows]) + "\n"


def write_atomic(path, data) -> None:
    """The writer of every file but cells.jsonl, which a sweep appends to:
    text, bytes or byte blocks (written as they come, at flat memory) go to
    NAME.tmp, which then replaces path. So a file appears whole or not at
    all: a write cut short leaves NAME.tmp, and any older file at path."""
    if isinstance(data, str):
        data = data.encode()
    with open(f"{path}.tmp", "wb") as fh:
        fh.writelines([data] if isinstance(data, bytes) else data)
    os.replace(f"{path}.tmp", path)


def write_records_csv(path, users, towers, timestamps) -> None:
    """Write integer records as user_id,tower_id,timestamp rows.

    The bytes are those of csv.writer given the values as Python ints;
    numpy formats them _FORMAT_ROWS rows at a time (see format_blocks).
    """
    columns = [np.asarray(c) for c in (users, towers, timestamps)]
    if any(c.dtype.kind not in "iu" for c in columns):
        raise TypeError("record columns must be integer arrays")
    if not len(columns[0]) == len(columns[1]) == len(columns[2]):
        raise ValueError("record columns have unequal lengths")
    write_atomic(path, format_blocks(RECORDS_HEADER, columns))
