"""Home detection criteria and the bulk detection engine.

Three criterion families decide a user's home tower inside an observation
window: MA (tower with the most events), DD (tower seen on the most distinct
civil days), and TC (event count restricted to an hour interval and/or a
weekday subset). Hour intervals are half-open [start, end) and wrap past
midnight when start > end; weekends are Saturday and Sunday.

Ties on the criterion value are broken deterministically: earliest first
qualifying record, then smaller tower id. The tie_broken flag records that
the top value was shared by more than one tower.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import TowerRegistry, UserPartition, _change_flags
from .windows import ObservationWindow

CRITERIA = ("MA", "DD", "TC")
DAY_FILTERS = ("all", "weekend_only", "weekday_only")

_SATURDAY = 5  # Mon=0; Saturday and Sunday make the weekend
_NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True)
class HdaSpec:
    """One parameterization of a home detection criterion."""

    name: str
    criterion: str
    tc_start_hour: int | None = None
    tc_end_hour: int | None = None
    day_filter: str = "all"

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.day_filter not in DAY_FILTERS:
            raise ValueError(f"unknown day filter {self.day_filter!r}")
        has_hours = self.tc_start_hour is not None or self.tc_end_hour is not None
        if self.criterion != "TC":
            if has_hours or self.day_filter != "all":
                raise ValueError(f"{self.criterion} takes no time constraints")
            return
        if (self.tc_start_hour is None) != (self.tc_end_hour is None):
            raise ValueError("tc_start_hour and tc_end_hour come as a pair")
        if has_hours:
            for h in (self.tc_start_hour, self.tc_end_hour):
                if not 0 <= h <= 23:
                    raise ValueError(f"hour {h} outside 0..23")
            if self.tc_start_hour == self.tc_end_hour:
                raise ValueError("empty hour interval (start == end)")
        elif self.day_filter == "all":
            raise ValueError("TC needs an hour interval or a day filter")

    @property
    def has_hour_filter(self) -> bool:
        return self.tc_start_hour is not None


CANONICAL_HDAS: tuple[HdaSpec, ...] = (
    HdaSpec("MA", "MA"),
    HdaSpec("DD", "DD"),
    HdaSpec("TC-19-9", "TC", 19, 9),
    HdaSpec("TC-19-9-WE", "TC", 19, 9, "weekend_only"),
    HdaSpec("TC-21-7", "TC", 21, 7),
    HdaSpec("TC-21-7-WE", "TC", 21, 7, "weekend_only"),
    HdaSpec("TC-9-19", "TC", 9, 19),
    HdaSpec("TC-9-19-WK", "TC", 9, 19, "weekday_only"),
    HdaSpec("TC-WE", "TC", None, None, "weekend_only"),
)

CANONICAL_HDA_NAMES: tuple[str, ...] = tuple(s.name for s in CANONICAL_HDAS)

_BY_NAME = {s.name: s for s in CANONICAL_HDAS}


def canonical_hda(name: str) -> HdaSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(CANONICAL_HDA_NAMES)
        raise ValueError(f"unknown HDA {name!r}; canonical set: {known}") from None


def hour_in_interval(hour: int, start: int, end: int) -> bool:
    """Membership in the half-open hour interval [start, end), wrapping at 24."""
    if start < end:
        return start <= hour < end
    return hour >= start or hour < end


@functools.cache
def _week_hour_lut(spec: HdaSpec) -> np.ndarray:
    """Qualifying mask over the index's week hours, weekday * 24 + hour;
    built once per spec, read-only."""
    lut = np.ones((7, 24), dtype=bool)
    if spec.has_hour_filter:
        for h in range(24):
            lut[:, h] = hour_in_interval(h, spec.tc_start_hour, spec.tc_end_hour)
    if spec.day_filter == "weekend_only":
        lut[:_SATURDAY] = False
    elif spec.day_filter == "weekday_only":
        lut[_SATURDAY:] = False
    lut = lut.ravel()
    lut.setflags(write=False)
    return lut


@dataclass
class BulkAssignments:
    """Columnar assignments in one cell: for every user of one partition
    (detect_homes_bulk), or of every partition in turn (a sweep's cell).

    home_towers uses -1 for "no home assigned"; qualifying_count keeps the
    best criterion value even when it fell below the minimum threshold.
    """

    user_ids: np.ndarray  # uint64, sorted within each partition
    home_towers: np.ndarray  # int64, -1 = none
    qualifying: np.ndarray  # int64
    tie_broken: np.ndarray  # bool


def detect_homes_bulk(
    partition: UserPartition,
    window: ObservationWindow,
    spec: HdaSpec,
    *,
    min_qualifying: int = 1,
) -> BulkAssignments:
    """Columnar detection for every user of a partition in one cell.

    Reads only the partition's detection index: the window is a slice of
    it, TC filters the slice through a weekday x hour table, a bincount of
    pair ids gives every (user, tower) score and a per-pair minimum gives
    the earliest qualifying timestamp. MA and DD take that minimum over the
    first record of each (pair, day) only, and DD counts only those records,
    since a window keeps or drops whole days. Winners are picked per user
    among the pairs that scored, with no sort.
    """
    if min_qualifying < 1:
        raise ValueError("min_qualifying must be >= 1")
    n_all = partition.n_users
    home = np.full(n_all, -1, dtype=np.int64)
    qual = np.zeros(n_all, dtype=np.int64)
    tieb = np.zeros(n_all, dtype=bool)

    days = partition.day_slice(window.first_ord, window.last_ord)
    pairs = partition.index_pairs[days]
    stamps = partition.index_timestamps[days]
    # the records kept, as positions in the slice: numpy gathers by integer
    # positions several times faster than by a boolean mask
    if spec.criterion == "TC":
        keep = np.flatnonzero(
            _week_hour_lut(spec).take(partition.index_week_hours[days])
        )
        pairs, stamps = pairs[keep], stamps[keep]
        first_pairs, first_stamps = pairs, stamps
    else:
        day_first = np.flatnonzero(partition.index_day_first[days])
        first_pairs, first_stamps = pairs[day_first], stamps[day_first]
        if spec.criterion == "DD":
            pairs = first_pairs
    if len(pairs) == 0:
        return BulkAssignments(partition.user_ids, home, qual, tieb)

    n_pairs = partition.n_pairs
    score = np.bincount(pairs, minlength=n_pairs)
    earliest = np.full(n_pairs, _NEVER, dtype=np.int64)
    np.minimum.at(earliest, first_pairs, first_stamps)

    # pairs that scored, grouped by user, towers ascending within a user
    live = np.flatnonzero(score)
    users = partition.pair_users[live]
    score, earliest = score[live], earliest[live]
    new_user = _change_flags(users)
    starts = np.flatnonzero(new_user)
    group = np.cumsum(new_user) - 1

    # winner per user: max score, then earliest first record, then smaller id
    best = np.maximum.reduceat(score, starts)
    top = score == best[group]
    n_top = np.add.reduceat(top, starts, dtype=np.int64)
    top_first = np.minimum.reduceat(np.where(top, earliest, _NEVER), starts)
    wins = top & (earliest == top_first[group])
    win_pos = np.minimum.reduceat(
        np.where(wins, np.arange(len(live)), len(live)), starts
    )

    rows = users[starts]
    home[rows] = partition.pair_towers[live[win_pos]]
    qual[rows] = best
    tieb[rows] = n_top > 1
    if min_qualifying > 1:
        below = qual < min_qualifying
        home[below] = -1
        tieb[below] = False
    return BulkAssignments(partition.user_ids, home, qual, tieb)


def aggregate_homes(
    assignments: BulkAssignments, registry: TowerRegistry
) -> np.ndarray:
    """Detected homes per tower (int64, registry row order) of the
    assignments. A home tower missing from the registry is a fatal error,
    never a silent drop.
    """
    homes = assignments.home_towers
    rows = registry.rows_for(homes[homes >= 0])
    return np.bincount(rows, minlength=len(registry)).astype(np.int64)


def merge_vectors(parts: Iterable[np.ndarray]) -> np.ndarray:
    """Sum per-partition home counts; order-free by construction. No
    caller in the package: a sweep aggregates a cell's one BulkAssignments."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to merge")
    return np.sum(parts, axis=0)
