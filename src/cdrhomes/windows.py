"""Observation-window grids over a dataset span.

Four duration classes: consecutive non-overlapping 14-day and 30-day windows
packed from the span start (remainder days at the tail are dropped), calendar
months clipped to the span, and the full span itself. Labels are unique
across the grid and stable for a given span.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from datetime import date, timedelta

from .core import DatasetSpan, csv_text

DURATION_CLASSES = ("days14", "days30", "month", "full")
# grids only use the four classes above; ad-hoc single windows are "custom"
VALID_CLASSES = DURATION_CLASSES + ("custom",)

_FIXED_LENGTH = {"days14": 14, "days30": 30}
_LABEL_PREFIX = {"days14": "14d", "days30": "30d"}


@dataclass(frozen=True)
class ObservationWindow(DatasetSpan):
    """The range of days a detection run is restricted to, with the label
    that names it in the grid and its duration class."""

    label: str
    duration_class: str

    def __post_init__(self):
        super().__post_init__()
        if self.duration_class not in VALID_CLASSES:
            raise ValueError(f"unknown duration class {self.duration_class!r}")

    @property
    def midpoint(self) -> date:
        return self.first_day + timedelta(days=(self.n_days - 1) // 2)


def _fixed_windows(span: DatasetSpan, duration_class: str) -> list[ObservationWindow]:
    length = _FIXED_LENGTH[duration_class]
    prefix = _LABEL_PREFIX[duration_class]
    out = []
    count = span.n_days // length
    for i in range(count):
        first = span.first_day + timedelta(days=i * length)
        last = first + timedelta(days=length - 1)
        out.append(
            ObservationWindow(first, last, f"{prefix}-{i + 1:02d}", duration_class)
        )
    return out


def _month_windows(span: DatasetSpan) -> list[ObservationWindow]:
    out = []
    first = span.first_day
    while True:
        n = calendar.monthrange(first.year, first.month)[1]
        last = min(first.replace(day=n), span.last_day)
        label = f"month-{first.year:04d}-{first.month:02d}"
        out.append(ObservationWindow(first, last, label, "month"))
        if last == span.last_day:
            return out
        first = last + timedelta(days=1)


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
            out.append(ObservationWindow(span.first_day, span.last_day, "full", "full"))
    labels = [w.label for w in out]
    if len(set(labels)) != len(labels):
        raise AssertionError("window labels are not unique")
    return out


def windows_table(windows: list[ObservationWindow]) -> str:
    """Delimited audit table, one row per window."""
    return csv_text("label,first_day,last_day,class", (
        f"{w.label},{w.first_day.isoformat()},{w.last_day.isoformat()},{w.duration_class}"
        for w in windows
    ))
