"""Core CDR domain model: records, tower registry, dataset span, partitions.

Records live in columnar numpy arrays grouped into per-user partitions; the
partition a user lands in depends only on the user id (splitmix64 hash mod
partition count), so any merge of per-partition results is order-free.
Each partition holds its records once, in the detection index (see
UserPartition), which is one function of the partition's record multiset:
partition_records accepts records in any order, so a chunked concurrent
reader would produce the identical final state. Ingestion is sequential.
"""

from __future__ import annotations

import csv
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
        ids = np.asarray(tower_ids, dtype=np.int64)
        i = np.searchsorted(self._sorted_ids, ids)
        i_clip = np.minimum(i, len(self._sorted_ids) - 1)
        return (i < len(self._sorted_ids)) & (self._sorted_ids[i_clip] == ids)

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
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(TOWERS_HEADER)
            for tid, lo, la, pop in zip(
                self.tower_ids, self.lon, self.lat, self.population
            ):
                w.writerow([int(tid), repr(float(lo)), repr(float(la)), int(pop)])

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
    16 per pair, 8 per user and 12 per civil day (plus 8).
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


def _detection_index(users, towers, timestamps, day_ords, week_hours):
    """user_ids and the pair_* and index_* columns of one partition's records."""
    n = len(users)
    user_ids, user_rows = np.unique(users, return_inverse=True)
    tower_ids, tower_codes = np.unique(towers, return_inverse=True)
    pair_keys = user_rows * len(tower_ids) + tower_codes
    # a sort by timestamp, then stable sorts by pair and by day, give (day,
    # pair, timestamp) order; records that tie on all three are equal, so
    # every column is a function of the record multiset, not the input
    # order. The day key is small and unsigned, which numpy sorts by radix
    order = np.argsort(timestamps)
    order = order[np.argsort(pair_keys[order], kind="stable")]
    pair_keys = pair_keys[order]
    new_pair = np.empty(n, dtype=bool)
    new_pair[:1] = True
    np.not_equal(pair_keys[1:], pair_keys[:-1], out=new_pair[1:])
    pairs = np.cumsum(new_pair, dtype=np.int64) - 1
    pair_keys = pair_keys[new_pair]
    pairs = pairs.astype(np.int32 if len(pair_keys) <= 2**31 else np.int64)
    days = day_ords[order]
    first_day, last_day = (int(days.min()), int(days.max())) if n else (0, 0)
    by_day = np.argsort(
        (days - first_day).astype(np.min_scalar_type(last_day - first_day)),
        kind="stable",
    )
    order = order[by_day]
    pairs, days = pairs[by_day], days[by_day]
    new_day = np.empty(n, dtype=bool)
    new_day[:1] = True
    np.not_equal(days[1:], days[:-1], out=new_day[1:])
    day_first = new_day.copy()
    day_first[1:] |= pairs[1:] != pairs[:-1]
    day_starts = np.flatnonzero(new_day)
    return {
        "user_ids": user_ids,
        "pair_users": pair_keys // len(tower_ids),
        "pair_towers": tower_ids[pair_keys % len(tower_ids)],
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
    day_ords, hours, weekdays = clock.local_fields(timestamps)
    week_hours = weekdays * 24 + hours
    if span is not None:
        lo, hi = day_ordinal(span.first_day), day_ordinal(span.last_day)
        keep = (day_ords >= lo) & (day_ords <= hi)
        if not keep.all():
            users, towers, timestamps = users[keep], towers[keep], timestamps[keep]
            day_ords, week_hours = day_ords[keep], week_hours[keep]
    n_out = n_in - len(users)

    part_idx = _splitmix64(users) % np.uint64(n_partitions)
    parts: list[UserPartition] = []
    for p in range(n_partitions):
        m = part_idx == np.uint64(p)
        parts.append(
            UserPartition(
                index=p,
                n_partitions=n_partitions,
                **_detection_index(
                    users[m], towers[m], timestamps[m], day_ords[m], week_hours[m]
                ),
            )
        )
    return parts, n_out


@dataclass
class IngestReport:
    """Per-reason accounting for one ingestion pass.

    total_lines counts data lines (a recognized header line is flagged, not
    counted), so accepted + the three reject columns always equals it.
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
        """Every field but sample_rejects, in field order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "sample_rejects"
        }

    def as_text(self) -> str:
        lines = [f"{k}={v}" for k, v in self.as_dict().items()]
        for s in self.sample_rejects:
            lines.append(f"sample_reject={s}")
        return "\n".join(lines)


_MAX_SAMPLE_REJECTS = 5


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
    'fail' (raise on first occurrence).
    """
    if unknown_tower not in ("skip", "fail"):
        raise ValueError(f"unknown_tower must be skip|fail, got {unknown_tower!r}")
    clock = clock or CivilClock()
    path = Path(records_path)
    if not path.exists():
        raise IngestError(f"records file not found: {path}")

    report = IngestReport(records_file=str(path), n_partitions=n_partitions)
    users: list[int] = []
    towers: list[int] = []
    stamps: list[int] = []

    def note_reject(line: str, reason: str) -> None:
        if len(report.sample_rejects) < _MAX_SAMPLE_REJECTS:
            report.sample_rejects.append(f"{reason}: {line[:80]}")

    with open(path, newline="") as fh:
        first = True
        for raw in fh:
            line = raw.strip()
            if first:
                first = False
                head = line.split(",")[0].strip()
                try:
                    int(head)
                except ValueError:
                    report.header_line = True
                    continue
            report.total_lines += 1
            fields = line.split(",")
            if len(fields) != 3:
                report.rejected_malformed += 1
                note_reject(line, "malformed")
                continue
            try:
                uid = int(fields[0])
                tid = int(fields[1])
                if not (0 <= uid <= _U64_MAX) or not (_I64_MIN <= tid <= _I64_MAX):
                    raise ValueError("id out of range")
                try:
                    ts = int(fields[2])
                except ValueError:
                    ts = clock.parse_local(fields[2].strip())
                if not (_I64_MIN <= ts <= _I64_MAX):
                    raise ValueError("timestamp out of range")
            except ValueError:
                report.rejected_malformed += 1
                note_reject(line, "malformed")
                continue
            users.append(uid)
            towers.append(tid)
            stamps.append(ts)

    u = np.asarray(users, dtype=np.uint64)
    t = np.asarray(towers, dtype=np.int64)
    s = np.asarray(stamps, dtype=np.int64)
    # the parse lists take several times the arrays' memory; free them first
    del users, towers, stamps

    known = registry.contains_ids(t)
    n_unknown = int((~known).sum())
    if n_unknown:
        if unknown_tower == "fail":
            bad = int(t[~known][0])
            raise IngestError(f"record references unknown tower_id {bad}")
        report.rejected_unknown_tower = n_unknown
        for tid in t[~known][:_MAX_SAMPLE_REJECTS]:
            note_reject(f"tower_id={int(tid)}", "unknown_tower")
        u, t, s = u[known], t[known], s[known]

    parts, n_out = partition_records(
        u, t, s, clock=clock, n_partitions=n_partitions, span=span
    )
    report.rejected_out_of_span = n_out
    report.accepted = int(sum(p.n_records for p in parts))
    report.distinct_users = int(sum(p.n_users for p in parts))
    report.check()
    return parts, report


def write_records_csv(path, users, towers, timestamps, header: bool = True) -> None:
    """Write records as user_id,tower_id,timestamp rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if header:
            w.writerow(RECORDS_HEADER)
        for uid, tid, ts in zip(users, towers, timestamps):
            w.writerow([int(uid), int(tid), int(ts)])
