"""Civil-time derivation for epoch timestamps in one fixed IANA zone.

All record timestamps are UTC epoch seconds; every date/hour/weekday the rest
of the package reasons about is civil time in the dataset's zone. The bulk
path avoids per-record datetime objects by resolving the zone to a table of
UTC-offset transitions and applying it with a binary search. Each conversion
builds that table over its own instants, probing the zone at the start of
each UTC day that holds one, or lies within a day of a wall time's day, and
of the day after, within years 1-9999; beyond the probes the edge offset holds.
"""

from __future__ import annotations

from datetime import date, datetime
from zoneinfo import ZoneInfo

import numpy as np

DEFAULT_TZ = "Europe/Paris"

# date(1970, 1, 1).toordinal(); 1970-01-01 was a Thursday (weekday 3, Monday=0)
_EPOCH_ORDINAL = 719163
_EPOCH_WEEKDAY = 3

_DAY = 86400

# 00:00 UTC on 0001-01-02 and 9999-12-30: a UTC offset is under a day either
# way, so datetime can show both instants in any zone
_FIRST_PROBE = (date(1, 1, 2).toordinal() - _EPOCH_ORDINAL) * _DAY
_LAST_PROBE = (date(9999, 12, 30).toordinal() - _EPOCH_ORDINAL) * _DAY


class CivilClock:
    """Epoch-seconds to civil (date, hour, weekday) conversion in one zone."""

    def __init__(self, tz_name: str = DEFAULT_TZ):
        self.tz_name = tz_name
        self._tz = ZoneInfo(tz_name)

    def __repr__(self) -> str:
        return f"CivilClock({self.tz_name!r})"

    def utc_offset(self, timestamp: int) -> int:
        """UTC offset in whole seconds in force at the given epoch."""
        dt = datetime.fromtimestamp(int(timestamp), self._tz)
        off = dt.utcoffset()
        assert off is not None
        return int(off.total_seconds())

    def midnight_epoch(self, day: date) -> int:
        """Epoch of civil midnight opening the given date (fold=0)."""
        dt = datetime(day.year, day.month, day.day, tzinfo=self._tz)
        return int(dt.timestamp())

    def parse_local(self, text: str) -> int:
        """Epoch for an ISO 'YYYY-MM-DDTHH:MM:SS' wall-clock time in this zone."""
        naive = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
        return int(naive.replace(tzinfo=self._tz).timestamp())

    # -- bulk path --------------------------------------------------------

    def local_fields(self, timestamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized civil fields for an int64 epoch array.

        Returns (day_ordinal int32, week_hour uint8): day_ordinal matches
        datetime.date.toordinal() and week_hour is weekday (Mon=0) * 24 +
        hour, 0..167. Above its input it holds two int64 columns and the
        week hours at a time: 17 bytes per record at peak. A civil day
        ordinal outside int32 (5.8 million years from 1970) raises ValueError.
        """
        ts = np.asarray(timestamps, dtype=np.int64)
        if ts.size == 0:
            return np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.uint8)
        starts, offsets = self._transition_table(ts)
        local = offsets[np.searchsorted(starts, ts, side="right") - 1]
        local += ts
        week = local + _EPOCH_WEEKDAY * _DAY
        week %= 7 * _DAY
        week //= 3600
        week_hours = week.astype(np.uint8)
        del week
        local //= _DAY
        local += _EPOCH_ORDINAL
        int32 = np.iinfo(np.int32)  # a wrapped ts + offset lies 10**14 days out
        if local.min() < int32.min or local.max() > int32.max:
            first = np.flatnonzero((local < int32.min) | (local > int32.max))[0]
            raise ValueError(f"instant {ts[first]}: civil day ordinal outside int32")
        return local.astype(np.int32), week_hours

    def epochs_from_local(self, local: np.ndarray) -> np.ndarray:
        """Vectorized parse_local: epochs of wall-clock times in this zone.

        local holds int64 seconds since 1970-01-01T00:00:00 wall-clock time.
        Offset i-1 of the transition table holds while the wall clock reads
        less than transition i's start plus the larger of the two offsets:
        a time in a gap takes the offset before it and a time in a fold its
        first occurrence, which is what parse_local (fold=0) returns.
        """
        local = np.asarray(local, dtype=np.int64)
        if local.size == 0:
            return np.zeros(0, dtype=np.int64)
        # a UTC offset is less than a day either way
        starts, offsets = self._transition_table(local, reach=1)
        ends = starts[1:] + np.maximum(offsets[:-1], offsets[1:])
        return local - offsets[np.searchsorted(ends, local, side="right")]

    def _transition_table(self, instants: np.ndarray, reach: int = 0) -> tuple:
        """Piecewise-constant UTC offsets over the instants: (starts, offsets).

        Each UTC day within reach days of an instant's day, clipped into
        [_FIRST_PROBE, _LAST_PROBE - _DAY], is probed at its start and the
        next day's. A change between adjacent probes is bisected to its
        second; one between two held days apart starts where the later one
        does. The first start is the smallest int64, so the first offset
        holds before the first probe and the last offset after the last one.
        """
        # clipped reach days wider, so that the days kept below are as described
        days = np.clip(instants, _FIRST_PROBE - reach * _DAY,
                       _LAST_PROBE + (reach - 1) * _DAY)
        days //= _DAY
        first = int(days.min())
        held = np.zeros(int(days.max()) - first + 2 * reach + 2, dtype=bool)
        days -= first
        held[days] = True
        for _ in range(2 * reach + 1):  # and the 2 * reach + 1 days after each
            held[1:] |= held[:-1]
        days = first - reach + np.flatnonzero(held)  # from reach days before each
        days = days[(days >= _FIRST_PROBE // _DAY) & (days <= _LAST_PROBE // _DAY)]
        probes = (days * _DAY).tolist()
        starts, offsets = [np.iinfo(np.int64).min], [self.utc_offset(probes[0])]
        for a, b in zip(probes, probes[1:]):
            off = self.utc_offset(b)
            if off != offsets[-1]:
                if b - a > _DAY:
                    a = b - 1
                while b - a > 1:
                    mid = (a + b) // 2
                    if self.utc_offset(mid) == offsets[-1]:
                        a = mid
                    else:
                        b = mid
                starts.append(b)
                offsets.append(off)
        return np.asarray(starts, dtype=np.int64), np.asarray(offsets, dtype=np.int64)
