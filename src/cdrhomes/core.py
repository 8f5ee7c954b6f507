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

import csv
import re
import time
from dataclasses import dataclass, field, fields
from datetime import date
from pathlib import Path

import numpy as np

from .timebase import CivilClock, day_ordinal

RECORDS_HEADER = ("user_id", "tower_id", "timestamp")
TOWERS_HEADER = ("tower_id", "lon", "lat", "population")

_U64_MAX = 2**64 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1
_DAY = 86400


class IngestError(ValueError):
    """Fatal ingestion failure (missing file, unknown tower under fail policy)."""


@dataclass(frozen=True)
class DatasetSpan:
    """Closed interval of civil dates the dataset covers."""

    first_day: date
    last_day: date

    def __post_init__(self):
        if self.last_day < self.first_day:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def n_days(self) -> int:
        return (self.last_day - self.first_day).days + 1

    def contains(self, d: date) -> bool:
        return self.first_day <= d <= self.last_day

    @classmethod
    def parse(cls, text: str) -> "DatasetSpan":
        """Parse 'YYYY-MM-DD..YYYY-MM-DD'."""
        try:
            a, b = text.split("..")
            return cls(date.fromisoformat(a), date.fromisoformat(b))
        except ValueError as exc:
            raise ValueError(f"bad span {text!r}: expected FIRST..LAST dates") from exc

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
        if np.any(self.population < 0):
            raise ValueError("negative population in tower registry")
        order = np.argsort(self.tower_ids, kind="stable")
        sorted_ids = self.tower_ids[order]
        if n > 1 and np.any(sorted_ids[1:] == sorted_ids[:-1]):
            dup = int(sorted_ids[:-1][sorted_ids[1:] == sorted_ids[:-1]][0])
            raise ValueError(f"duplicate tower_id {dup} in registry")
        self._sorted_ids = sorted_ids
        self._sorted_rows = order.astype(np.int64)
        for arr in (self.tower_ids, self.lon, self.lat, self.population):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.tower_ids)

    def __contains__(self, tower_id: int) -> bool:
        i = np.searchsorted(self._sorted_ids, tower_id)
        return i < len(self._sorted_ids) and self._sorted_ids[i] == tower_id

    def contains_ids(self, tower_ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the given ids exist in the registry."""
        return np.isin(np.asarray(tower_ids, dtype=np.int64), self._sorted_ids)

    def rows_for(self, tower_ids: np.ndarray) -> np.ndarray:
        """Registry row index per id; raises on any id not in the registry."""
        ids = np.asarray(tower_ids, dtype=np.int64)
        i = np.searchsorted(self._sorted_ids, ids)
        i_clip = np.minimum(i, len(self._sorted_ids) - 1)
        ok = (i < len(self._sorted_ids)) & (self._sorted_ids[i_clip] == ids)
        if not ok.all():
            bad = int(ids[~ok][0])
            raise KeyError(f"tower_id {bad} not in registry")
        return self._sorted_rows[i_clip]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(TOWERS_HEADER) + "\n")
            for rows in row_chunks(self.tower_ids, self.lon, self.lat, self.population):
                fh.write("".join([f"{t},{lo!r},{la!r},{p}\n" for t, lo, la, p in rows]))

    @classmethod
    def read_csv(cls, path) -> "TowerRegistry":
        path = Path(path)
        if not path.exists():
            raise IngestError(f"tower registry not found: {path}")
        ids, lon, lat, pop = [], [], [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                if row[0] == TOWERS_HEADER[0]:
                    continue
                if len(row) != 4:
                    raise IngestError(f"bad registry row {row!r} in {path}")
                try:
                    ids.append(int(row[0]))
                    lon.append(float(row[1]))
                    lat.append(float(row[2]))
                    pop.append(int(row[3]))
                except ValueError as exc:
                    raise IngestError(f"bad registry row {row!r} in {path}") from exc
        return cls(ids, lon, lat, pop)


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
    count follows the ids' value ranges (see _detection_index); any uint64
    user id and int64 tower id is taken.
    """

    index: int
    n_partitions: int
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


def partition_of(user_id: int, n_partitions: int) -> int:
    """Partition index a user id maps to; stable across runs and machines."""
    return int(_splitmix64(np.asarray([user_id], dtype=np.uint64))[0] % n_partitions)


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


def partition_records(
    users,
    towers,
    timestamps,
    *,
    clock: CivilClock,
    n_partitions: int = 1,
    span: DatasetSpan | None = None,
) -> tuple[list[UserPartition], int]:
    """Split records into per-user partitions, each holding its detection index.

    Derives civil fields in bulk; when a span is given, records whose civil
    date falls outside it are dropped and counted. Returns (partitions,
    n_out_of_span). Input order never matters (see UserPartition).
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    users = np.asarray(users, dtype=np.uint64)
    towers = np.asarray(towers, dtype=np.int64)
    timestamps = np.asarray(timestamps, dtype=np.int64)
    if not (len(users) == len(towers) == len(timestamps)):
        raise ValueError("record columns have unequal lengths")

    n_in = len(users)
    if span is not None:
        # a civil date is within a day of the UTC date: records two days
        # outside the span's midnights are out of span, and dropping them
        # before civil-time derivation keeps the zone's transition table
        # (and datetime's year range) to the span
        lo = clock.midnight_epoch(span.first_day) - 2 * _DAY
        hi = clock.midnight_epoch(span.last_day) + 3 * _DAY
        keep = (timestamps >= lo) & (timestamps < hi)
        if not keep.all():
            users, towers, timestamps = users[keep], towers[keep], timestamps[keep]
    day_ords, hours, week_hours = clock.local_fields(timestamps)
    week_hours *= 24  # the weekday's first hour
    week_hours += hours
    del hours
    if span is not None:
        lo, hi = day_ordinal(span.first_day), day_ordinal(span.last_day)
        keep = (day_ords >= lo) & (day_ords <= hi)
        if not keep.all():
            users, towers, timestamps = users[keep], towers[keep], timestamps[keep]
            day_ords, week_hours = day_ords[keep], week_hours[keep]
    n_out = n_in - len(users)

    # the narrowest type: the column stays live while the indexes are built
    part_idx = (_splitmix64(users) % np.uint64(n_partitions)).astype(
        np.min_scalar_type(n_partitions - 1)
    )
    parts: list[UserPartition] = []
    columns = (users, towers, timestamps, day_ords, week_hours)
    for p in range(n_partitions):
        m = part_idx == p
        # a partition holding every record takes the columns as they are:
        # copying them would add their size to ingest's peak memory
        held = columns if m.all() else [c[m] for c in columns]
        del m
        parts.append(
            UserPartition(
                index=p, n_partitions=n_partitions, **_detection_index(*held)
            )
        )
    return parts, n_out


@dataclass
class IngestReport:
    """Per-reason accounting for one ingestion pass.

    total_lines counts data lines (a recognized header line is flagged, not
    counted), so accepted + the three reject columns always equals it. The
    two timings (perf_counter seconds in the file parse, unknown-tower
    filter included, and in partition_records) vary from run to run: they
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
    n_partitions: int = 1
    sample_rejects: list[str] = field(default_factory=list)
    parse_seconds: float = field(default=0.0, compare=False)
    partition_seconds: float = field(default=0.0, compare=False)

    def check(self) -> None:
        total = (
            self.accepted
            + self.rejected_malformed
            + self.rejected_unknown_tower
            + self.rejected_out_of_span
        )
        if total != self.total_lines:
            raise AssertionError(
                f"ingest accounting broken: {total} != {self.total_lines}"
            )

    def as_dict(self) -> dict:
        """Every field but sample_rejects and the timings, in field order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.compare and f.name != "sample_rejects"
        }

    def as_text(self) -> str:
        lines = [f"{k}={v}" for k, v in self.as_dict().items()]
        for s in self.sample_rejects:
            lines.append(f"sample_reject={s}")
        return "\n".join(lines)


_MAX_SAMPLE_REJECTS = 5

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
_LINE_END = re.compile(rb"\r\n|\r|\n")
_KIND_SLOW, _KIND_INT, _KIND_ISO = 0, 1, 2


def _note_reject(report: IngestReport, line: str, reason: str) -> None:
    if len(report.sample_rejects) < _MAX_SAMPLE_REJECTS:
        report.sample_rejects.append(f"{reason}: {line[:80]}")


class _LineJudge:
    """The per-line parser, for the lines neither fast shape takes.

    Lines reach it in file order; the first line of the file always does,
    as it may be a header.
    """

    def __init__(self, report: IngestReport, clock: CivilClock):
        self.report = report
        self.clock = clock
        self.first = True

    def records(self, text: bytes) -> list[tuple[int, int, int]]:
        """Records of the lines in text, which end at CR LF, a lone CR or LF."""
        lines = _LINE_END.split(text)
        if lines[-1] == b"":
            lines.pop()  # text is empty or ends with a line end
        out = []
        for raw in lines:
            # an undecodable byte becomes a \xNN escape, which no field
            # parses: the line counts as malformed (or as the header)
            record = self.judge(raw.decode("utf-8", "backslashreplace"))
            if record is not None:
                out.append(record)
        return out

    def judge(self, line: str) -> tuple[int, int, int] | None:
        report = self.report
        line = line.strip()
        if self.first:
            self.first = False
            head = line.split(",")[0].strip()
            try:
                int(head)
            except ValueError:
                report.header_line = True
                return None
        report.total_lines += 1
        fields = line.split(",")
        if len(fields) != 3:
            report.rejected_malformed += 1
            _note_reject(report, line, "malformed")
            return None
        try:
            uid = int(fields[0])
            tid = int(fields[1])
            if not (0 <= uid <= _U64_MAX) or not (_I64_MIN <= tid <= _I64_MAX):
                raise ValueError("id out of range")
            try:
                ts = int(fields[2])
            except ValueError:
                ts = self.clock.parse_local(fields[2].strip())
            if not (_I64_MIN <= ts <= _I64_MAX):
                raise ValueError("timestamp out of range")
        except ValueError:
            report.rejected_malformed += 1
            _note_reject(report, line, "malformed")
            return None
        return uid, tid, ts


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

    A time is valid when strptime takes it: a real calendar date, hour up
    to 23, minute and second up to 59.
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
        (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
        & (hour <= 23) & (minute <= 59) & (second <= 59)
    )
    days = month_start.astype(np.int64) + day - 1
    return valid, days * _DAY + hour * 3600 + minute * 60 + second


def _parse_block(
    buf: bytes, judge: _LineJudge, clock: CivilClock, iso_range: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, towers, timestamps) of the whole lines in buf, in file order.

    numpy parses the lines of two shapes, each id 1-18 digits and the line
    ended by LF or CR LF: all-integer 'U,T,S' with S also 1-18 digits, and
    ISO local time 'U,T,YYYY-MM-DDTHH:MM:SS' with a valid time whose wall
    clock lies in iso_range (seconds since 1970, half-open). Every other
    line goes to judge, in file order, and so does what follows buf's last
    LF: lines ended by a lone CR or by the end of the file.
    """
    end = buf.rfind(b"\n") + 1
    a = np.frombuffer(buf, dtype=np.uint8, count=end)
    p = np.flatnonzero(a - ord("0") > 9)  # every byte but the digits
    k = _BYTE_CLASS[a[p]]
    runs = np.diff(p, prepend=-1) - 1  # digits before each non-digit
    nl = np.flatnonzero(k == _NL)  # in p, each line's '\n'
    head = np.concatenate(([-1], nl))[:-1] + 1  # in p, each line's first non-digit
    cr = (nl > head) & (k[nl - 1] == _CR) & (runs[nl] == 0)
    width = nl - cr - head  # non-digits before the line end
    if judge.first and len(nl):
        width[0] = -1  # the first line of the file may be a header

    ids = (k == _COMMA) & _fast_digits(runs)  # commas after 1-18 digit ids
    kind = np.zeros(len(nl), dtype=np.uint8)
    rows = np.flatnonzero(width == 2)
    at = head[rows]
    kind[rows[ids[at] & ids[at + 1] & _fast_digits(runs[at + 2])]] = _KIND_INT
    rows = np.flatnonzero(width == 2 + len(_ISO_CLASSES))
    at = head[rows, None] + np.arange(3 + len(_ISO_CLASSES))
    ok = (ids[at[:, 0]] & ids[at[:, 1]]
          & (k[at[:, 2:-1]] == _ISO_CLASSES).all(axis=1)
          & (runs[at[:, 2:]] == _ISO_RUNS).all(axis=1))
    rows, at = rows[ok], at[ok]
    time_at = p[at[:, 1]] + 1  # byte after the second comma
    ok, local = _iso_local_seconds(a[time_at[:, None] + np.arange(_ISO_WIDTH)])
    ok &= (local >= iso_range[0]) & (local < iso_range[1])
    iso, time_at = rows[ok], time_at[ok]
    kind[iso] = _KIND_ISO
    iso_stamps = clock.epochs_from_local(local[ok])

    # the numbers of the fast lines in one fromstring: blank every other
    # line and every ISO time with its comma, then turn line ends into commas
    line_start = np.concatenate(([-1], p[nl]))[:-1] + 1
    slow = np.flatnonzero(kind == _KIND_SLOW)
    if len(slow) or len(iso):
        blanked = a.copy()
        blanked[_ranges(line_start[slow], p[nl[slow]] + 1)] = 0
        blanked[_ranges(time_at - 1, time_at + _ISO_WIDTH)] = 0
        text = blanked.tobytes()
    else:
        text = buf[:end]
    values = np.fromstring(
        text.translate(_NL_TO_COMMA, b"\0\r"), dtype=np.int64, sep=","
    )
    fast = np.flatnonzero(kind)
    judge.report.total_lines += len(fast)
    is_iso = kind[fast] == _KIND_ISO
    n_values = np.where(is_iso, 2, 3)
    if len(values) != n_values.sum():
        raise AssertionError("fast-path line classification broken")
    first = np.cumsum(n_values) - n_values
    users, towers = values[first].astype(np.uint64), values[first + 1]
    stamps = np.empty(len(fast), dtype=np.int64)
    stamps[~is_iso] = values[first[~is_iso] + 2]
    stamps[is_iso] = iso_stamps

    # the judged lines' records, placed among the fast ones in file order
    records: list[tuple[int, int, int]] = []
    record_rows: list[int] = []
    for row, lo, hi in zip(slow.tolist(), line_start[slow].tolist(),
                           (p[nl[slow]] + 1).tolist()):
        got = judge.records(buf[lo:hi])
        records += got
        record_rows += [row] * len(got)
    got = judge.records(buf[end:])
    records += got
    record_rows += [len(nl)] * len(got)
    if not records:
        return users, towers, stamps
    record_rows = np.asarray(record_rows, dtype=np.int64)
    fast_at = np.arange(len(fast)) + np.searchsorted(record_rows, fast)
    slow_at = np.searchsorted(fast, record_rows) + np.arange(len(records))
    n = len(fast) + len(records)
    columns = []
    for dtype, fast_column, slow_column in zip(
        (np.uint64, np.int64, np.int64), (users, towers, stamps), zip(*records)
    ):
        column = np.empty(n, dtype=dtype)
        column[fast_at] = fast_column
        column[slow_at] = np.asarray(slow_column, dtype=dtype)
        columns.append(column)
    return tuple(columns)


def _read_records(
    path: Path, judge: _LineJudge, clock: CivilClock, iso_range: tuple[int, int]
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
            parsed = _parse_block(buf[:cut], judge, clock, iso_range)
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
    unknown_tower: str = "skip",
    clock: CivilClock | None = None,
) -> tuple[list[UserPartition], IngestReport]:
    """Read a delimited records file into partitions with full reject accounting.

    Columns: user_id, tower_id, timestamp (epoch seconds, or local ISO
    'YYYY-MM-DDTHH:MM:SS'). unknown_tower is 'skip' (count and drop) or
    'fail' (raise on first occurrence). The file is UTF-8 text whose lines
    end at LF, CR LF or a lone CR; a line that is not a valid record (one
    with an undecodable byte included) counts as malformed.
    """
    if unknown_tower not in ("skip", "fail"):
        raise ValueError(f"unknown_tower must be skip|fail, got {unknown_tower!r}")
    clock = clock or CivilClock()
    path = Path(records_path)
    if not path.exists():
        raise IngestError(f"records file not found: {path}")

    t_start = time.perf_counter()
    report = IngestReport(records_file=str(path), n_partitions=n_partitions)
    judge = _LineJudge(report, clock)
    # ISO times more than two days outside the span are out of span; they
    # take the per-line path, which keeps the zone's transition table short
    epoch = date(1970, 1, 1)
    iso_range = (
        ((span.first_day - epoch).days - 2) * _DAY,
        ((span.last_day - epoch).days + 3) * _DAY,
    )
    u, t, s = _read_records(path, judge, clock, iso_range)

    known = registry.contains_ids(t)
    n_unknown = int((~known).sum())
    if n_unknown:
        if unknown_tower == "fail":
            bad = int(t[~known][0])
            raise IngestError(f"record references unknown tower_id {bad}")
        report.rejected_unknown_tower = n_unknown
        for tid in t[~known][:_MAX_SAMPLE_REJECTS]:
            _note_reject(report, f"tower_id={int(tid)}", "unknown_tower")
        u, t, s = u[known], t[known], s[known]

    t_parsed = time.perf_counter()
    parts, n_out = partition_records(
        u, t, s, clock=clock, n_partitions=n_partitions, span=span
    )
    report.parse_seconds = t_parsed - t_start
    report.partition_seconds = time.perf_counter() - t_parsed
    report.rejected_out_of_span = n_out
    report.accepted = int(sum(p.n_records for p in parts))
    report.distinct_users = int(sum(p.n_users for p in parts))
    report.check()
    return parts, report


# rows per chunk of the registry and truth writers: larger chunks are no
# faster, and their Python objects would raise the writing process's peak
# memory
_WRITE_ROWS = 1 << 10


def row_chunks(*columns):
    """The columns' rows as tuples of Python scalars, _WRITE_ROWS at a time.

    The CSV writers format these with f-strings, which give each value's
    str (or repr) as csv.writer does, at a fraction of its cost.
    """
    columns = [np.asarray(c) for c in columns]
    for lo in range(0, len(columns[0]), _WRITE_ROWS):
        yield zip(*(c[lo:lo + _WRITE_ROWS].tolist() for c in columns))


# rows per block of write_records_csv: each block's text matrix is a few
# hundred KiB, which keeps the writing process's peak memory flat
_FORMAT_ROWS = 1 << 14
_POWERS_OF_TEN = [np.uint64(10**p) for p in range(20)]  # all of uint64's
_TEN = _POWERS_OF_TEN[1]


def _format_rows(columns: list[np.ndarray]) -> bytes:
    """The CSV lines of integer columns, as csv.writer writes Python ints.

    Each value takes a field of a sign byte and its column's largest digit
    count in an (n rows, line width) byte matrix, filled by repeated
    division by ten; a mask of the bytes each value's str() has drops the
    padding in one compress.
    """
    specs = []
    for column in columns:
        if column.dtype.kind == "u":
            negative = None
            magnitude = column.astype(np.uint64)
        else:
            negative = column < 0
            magnitude = column.astype(np.int64).astype(np.uint64)
            # negating in uint64 wraps, so the magnitude of int64 min is exact
            np.negative(magnitude, out=magnitude, where=negative)
        specs.append((negative, magnitude, len(str(int(magnitude.max())))))
    width = sum(2 + digits for _, _, digits in specs)
    text = np.empty((len(columns[0]), width), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    at = 0
    for (negative, magnitude, digits), end in zip(specs, b",,\n"):
        text[:, at] = ord("-")
        keep[:, at] = False if negative is None else negative
        rest = magnitude
        for p, col in enumerate(range(at + digits, at, -1)):
            if p:  # the last digit always shows, 0 included
                keep[:, col] = magnitude >= _POWERS_OF_TEN[p]
            quotient = rest // _TEN  # a // by a scalar is several times
            text[:, col] = rest - quotient * _TEN  # faster than np.divmod
            rest = quotient
        text[:, at + 1:at + 1 + digits] += ord("0")
        text[:, at + 1 + digits] = end
        at += 2 + digits
    return text[keep].tobytes()


def write_records_csv(path, users, towers, timestamps, header: bool = True) -> None:
    """Write integer records as user_id,tower_id,timestamp rows.

    The bytes are those of csv.writer given the values as Python ints;
    numpy formats them _FORMAT_ROWS rows at a time (see _format_rows).
    """
    columns = [np.asarray(c) for c in (users, towers, timestamps)]
    if any(c.dtype.kind not in "iu" for c in columns):
        raise TypeError("record columns must be integer arrays")
    if not len(columns[0]) == len(columns[1]) == len(columns[2]):
        raise ValueError("record columns have unequal lengths")
    with open(path, "wb") as fh:
        if header:
            fh.write((",".join(RECORDS_HEADER) + "\n").encode())
        for lo in range(0, len(columns[0]), _FORMAT_ROWS):
            fh.write(_format_rows([c[lo:lo + _FORMAT_ROWS] for c in columns]))
