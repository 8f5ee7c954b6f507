"""Observation-window grid construction."""

from datetime import date

import pytest

from cdrhomes.core import DatasetSpan
from cdrhomes.windows import (
    DURATION_CLASSES,
    ObservationWindow,
    generate_windows,
    windows_table,
)

SPAN = DatasetSpan.parse("2007-05-13..2007-10-13")


def test_canonical_grid_shape():
    wins = generate_windows(SPAN)
    by_class = {}
    for w in wins:
        by_class.setdefault(w.duration_class, []).append(w)
    assert len(by_class["days14"]) == 11
    assert len(by_class["days30"]) == 5
    assert len(by_class["month"]) == 6
    assert len(by_class["full"]) == 1
    assert len(wins) == 23
    assert len({w.label for w in wins}) == 23


def test_canonical_grid_dates():
    wins = generate_windows(SPAN)
    d14 = [w for w in wins if w.duration_class == "days14"]
    assert d14[0].first_day == date(2007, 5, 13)
    assert d14[0].last_day == date(2007, 5, 26)
    assert d14[-1].last_day == date(2007, 10, 13)  # 154 days = 11 x 14 exactly
    assert all(w.n_days == 14 for w in d14)
    # consecutive, non-overlapping
    for a, b in zip(d14, d14[1:]):
        assert (b.first_day - a.last_day).days == 1

    d30 = [w for w in wins if w.duration_class == "days30"]
    assert d30[0].first_day == date(2007, 5, 13)
    assert d30[0].last_day == date(2007, 6, 11)
    assert all(w.n_days == 30 for w in d30)

    months = [w for w in wins if w.duration_class == "month"]
    assert months[0].first_day == date(2007, 5, 13)  # clipped to span
    assert months[0].last_day == date(2007, 5, 31)
    assert months[-1].first_day == date(2007, 10, 1)
    assert months[-1].last_day == date(2007, 10, 13)
    assert [w.first_day.month for w in months] == [5, 6, 7, 8, 9, 10]

    full = [w for w in wins if w.duration_class == "full"]
    assert full[0].first_day == SPAN.first_day
    assert full[0].last_day == SPAN.last_day
    assert full[0].n_days == 154


def test_labels_sort_in_grid_order():
    wins = generate_windows(SPAN)
    labels = [w.label for w in wins]
    assert labels[0] == "14d-01"
    assert labels[10] == "14d-11"
    assert labels[11] == "30d-01"
    assert "month-2007-05" in labels
    assert labels[-1] == "full"


def test_class_subset():
    wins = generate_windows(SPAN, classes=("days30", "full"))
    assert {w.duration_class for w in wins} == {"days30", "full"}
    assert len(wins) == 6
    with pytest.raises(ValueError):
        generate_windows(SPAN, classes=("fortnight",))


def test_short_span_degenerates():
    span = DatasetSpan.parse("2007-06-10..2007-06-19")  # 10 days
    wins = generate_windows(span)
    assert [w.duration_class for w in wins] == ["month", "full"]
    assert wins[0].first_day == span.first_day
    assert wins[0].last_day == span.last_day


def test_month_windows_run_to_the_last_representable_day():
    span = DatasetSpan.parse("9999-11-20..9999-12-31")
    assert windows_table(generate_windows(span, ("month",))).splitlines()[1:] == [
        "month-9999-11,9999-11-20,9999-11-30,month",
        "month-9999-12,9999-12-01,9999-12-31,month",
    ]


def test_window_midpoint_and_membership():
    w = ObservationWindow(date(2007, 5, 13), date(2007, 5, 26), "14d-01", "days14")
    assert w.midpoint == date(2007, 5, 19)  # first_day + (14-1)//2
    assert (w.first_day, w.last_day) == (date(2007, 5, 13), date(2007, 5, 26))
    assert w.overlaps(DatasetSpan(date(2007, 5, 26), date(2007, 6, 1)))
    assert not w.overlaps(DatasetSpan(date(2007, 5, 27), date(2007, 6, 1)))
    assert w.overlaps(DatasetSpan(date(2007, 5, 1), date(2007, 5, 13)))


def test_window_validation():
    with pytest.raises(ValueError):
        ObservationWindow(date(2007, 5, 26), date(2007, 5, 13), "bad", "days14")
    with pytest.raises(ValueError):
        ObservationWindow(date(2007, 5, 13), date(2007, 5, 26), "bad", "week")


def test_duration_classes_constant():
    assert DURATION_CLASSES == ("days14", "days30", "month", "full")


def test_windows_table():
    text = windows_table(generate_windows(SPAN))
    lines = text.strip().split("\n")
    assert lines[0] == "label,first_day,last_day,class"
    assert len(lines) == 24
    assert lines[1] == "14d-01,2007-05-13,2007-05-26,days14"
