"""Observation-window grids over a dataset span.

Four duration classes: consecutive non-overlapping 14-day and 30-day windows
packed from the span start (remainder days at the tail are dropped), calendar
months clipped to the span, and the full span itself. Labels are unique
across the grid and stable for a given span.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

from .core import DatasetSpan

DURATION_CLASSES = ("days14", "days30", "month", "full")
# grids only use the four classes above; ad-hoc single windows are "custom"
VALID_CLASSES = DURATION_CLASSES + ("custom",)

_FIXED_LENGTH = {"days14": 14, "days30": 30}
_LABEL_PREFIX = {"days14": "14d", "days30": "30d"}


@dataclass(frozen=True)
class ObservationWindow:
    """Closed civil-date interval a detection run is restricted to."""

    label: str
    first_day: date
    last_day: date
    duration_class: str

    def __post_init__(self):
        if self.duration_class not in VALID_CLASSES:
            raise ValueError(f"unknown duration class {self.duration_class!r}")
        if self.last_day < self.first_day:
            raise ValueError(f"window ends before it starts: {self}")

    @property
    def n_days(self) -> int:
        return (self.last_day - self.first_day).days + 1

    @property
    def midpoint(self) -> date:
        return self.first_day + timedelta(days=(self.n_days - 1) // 2)

    @property
    def first_ord(self) -> int:
        return self.first_day.toordinal()

    @property
    def last_ord(self) -> int:
        return self.last_day.toordinal()

    def overlaps(self, first: date, last: date) -> bool:
        return self.first_day <= last and first <= self.last_day


def _fixed_windows(span: DatasetSpan, duration_class: str) -> list[ObservationWindow]:
    length = _FIXED_LENGTH[duration_class]
    prefix = _LABEL_PREFIX[duration_class]
    out = []
    count = span.n_days // length
    for i in range(count):
        first = span.first_day + timedelta(days=i * length)
        last = first + timedelta(days=length - 1)
        out.append(
            ObservationWindow(f"{prefix}-{i + 1:02d}", first, last, duration_class)
        )
    return out


def _month_windows(span: DatasetSpan) -> list[ObservationWindow]:
    out = []
    year, month = span.first_day.year, span.first_day.month
    while True:
        month_first = date(year, month, 1)
        if month_first > span.last_day:
            break
        if month == 12:
            next_first = date(year + 1, 1, 1)
        else:
            next_first = date(year, month + 1, 1)
        month_last = next_first - timedelta(days=1)
        first = max(month_first, span.first_day)
        last = min(month_last, span.last_day)
        out.append(
            ObservationWindow(f"month-{year:04d}-{month:02d}", first, last, "month")
        )
        year, month = next_first.year, next_first.month
    return out


def generate_windows(
    span: DatasetSpan, classes: tuple[str, ...] = DURATION_CLASSES
) -> list[ObservationWindow]:
    """Build the window grid for a span, in canonical class-then-date order."""
    for c in classes:
        if c not in DURATION_CLASSES:
            raise ValueError(f"unknown duration class {c!r}")
    out: list[ObservationWindow] = []
    for c in DURATION_CLASSES:  # canonical order regardless of argument order
        if c not in classes:
            continue
        if c in _FIXED_LENGTH:
            out.extend(_fixed_windows(span, c))
        elif c == "month":
            out.extend(_month_windows(span))
        else:
            out.append(ObservationWindow("full", span.first_day, span.last_day, "full"))
    labels = [w.label for w in out]
    if len(set(labels)) != len(labels):
        raise AssertionError("window labels are not unique")
    return out


def windows_table(windows: list[ObservationWindow]) -> str:
    """Delimited audit table, one row per window."""
    lines = ["label,first_day,last_day,class"]
    for w in windows:
        lines.append(
            f"{w.label},{w.first_day.isoformat()},{w.last_day.isoformat()},{w.duration_class}"
        )
    return "\n".join(lines) + "\n"
