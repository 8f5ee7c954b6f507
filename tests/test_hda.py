"""Detection criteria: the bulk engine against the independent oracle."""

from datetime import date

import numpy as np
import pytest

from cdrhomes.core import DatasetSpan
from cdrhomes.hda import (
    CANONICAL_HDA_NAMES,
    CANONICAL_HDAS,
    BulkAssignments,
    HdaSpec,
    _week_hour_lut,
    aggregate_homes,
    canonical_hda,
    detect_homes_bulk,
    hour_in_interval,
    merge_vectors,
)
from cdrhomes.timebase import CivilClock
from cdrhomes.windows import ObservationWindow, generate_windows

from conftest import make_registry, one_partition, random_records
from oracles import (
    TZ_NAME, brute_force_home, event_qualifies, local_fields, records_by_user,
    user_fields,
)

SPAN = DatasetSpan.parse("2007-05-13..2007-10-13")
CLOCK = CivilClock()
T0 = CLOCK.midnight_epoch(date(2007, 5, 13))
T1 = CLOCK.midnight_epoch(date(2007, 10, 14))
FULL = ObservationWindow(SPAN.first_day, SPAN.last_day, "full", "full")


def _at(text: str) -> int:
    return CLOCK.parse_local(text)


def _row(bulk, i):
    """(home | None, qualifying, tie_broken) of the bulk's i-th user."""
    home = int(bulk.home_towers[i])
    qual, tie = int(bulk.qualifying[i]), bool(bulk.tie_broken[i])
    return (home if home >= 0 else None), qual, tie


def _assert_matches_oracle(
    part, bulk, spec, window, records, min_qualifying=1, tz_name=TZ_NAME,
    fields=None,
):
    """Every user of the bulk equals brute_force_home over the user's input
    records (records_by_user), and the partition holds exactly those
    users and records; fields caches user_fields per user id across calls."""
    fields = {} if fields is None else fields
    assert np.array_equal(bulk.user_ids, part.user_ids)
    assert part.user_ids.tolist() == sorted(records)
    assert part.n_records == sum(len(records[int(u)][1]) for u in part.user_ids)
    for i, uid in enumerate(part.user_ids.tolist()):
        tw, ts = records[uid]
        if uid not in fields:
            fields[uid] = user_fields(ts, tz_name)
        want = brute_force_home(
            spec, tw, ts, fields[uid],
            window.first_day, window.last_day, min_qualifying,
        )
        assert _row(bulk, i) == want, (window.label, spec.name, uid)


def _detect(name, *pairs, min_qualifying=1):
    """Bulk-engine outcome of one user's (tower, ts) pairs over the full span,
    checked against the oracle first."""
    spec = canonical_hda(name)
    users = np.full(len(pairs), 7, dtype=np.uint64)
    towers = np.array([t for t, _ in pairs], dtype=np.int64)
    stamps = np.array([ts for _, ts in pairs], dtype=np.int64)
    part = one_partition(users, towers, stamps)[0]
    bulk = detect_homes_bulk(part, FULL, spec, min_qualifying=min_qualifying)
    records = records_by_user(users, towers, stamps)
    _assert_matches_oracle(part, bulk, spec, FULL, records, min_qualifying)
    return _row(bulk, 0)


def _bulk(homes):
    """BulkAssignments of users 1..n with the given homes (-1 = none)."""
    n = len(homes)
    return BulkAssignments(
        np.arange(1, n + 1, dtype=np.uint64),
        np.asarray(homes, dtype=np.int64), np.ones(n, dtype=np.int64),
        np.zeros(n, dtype=bool),
    )


def test_canonical_set():
    assert CANONICAL_HDA_NAMES == (
        "MA", "DD", "TC-19-9", "TC-19-9-WE", "TC-21-7", "TC-21-7-WE",
        "TC-9-19", "TC-9-19-WK", "TC-WE",
    )
    assert canonical_hda("TC-21-7").tc_start_hour == 21
    assert canonical_hda("TC-WE").tc_start_hour is None
    assert canonical_hda("TC-WE").day_filter == "weekend_only"
    assert canonical_hda("TC-9-19-WK").day_filter == "weekday_only"
    with pytest.raises(ValueError, match="canonical"):
        canonical_hda("TC-0-0")


def test_spec_validation():
    with pytest.raises(ValueError):
        HdaSpec("x", "XX")
    with pytest.raises(ValueError):
        HdaSpec("x", "MA", 19, 9)  # MA takes no hours
    with pytest.raises(ValueError):
        HdaSpec("x", "DD", day_filter="weekend_only")
    with pytest.raises(ValueError):
        HdaSpec("x", "TC", 19, None)  # unpaired hours
    with pytest.raises(ValueError):
        HdaSpec("x", "TC", 19, 19)  # empty interval
    with pytest.raises(ValueError):
        HdaSpec("x", "TC", 19, 24)
    with pytest.raises(ValueError):
        HdaSpec("x", "TC")  # no constraint at all
    with pytest.raises(ValueError, match="unknown day filter 'sunday_only'"):
        HdaSpec("x", "TC", day_filter="sunday_only")
    HdaSpec("ok", "TC", None, None, "weekday_only")


def test_hour_interval_wraps():
    accepted = [h for h in range(24) if hour_in_interval(h, 19, 9)]
    assert accepted == [0, 1, 2, 3, 4, 5, 6, 7, 8, 19, 20, 21, 22, 23]
    assert [h for h in range(24) if hour_in_interval(h, 9, 19)] == list(range(9, 19))


def test_tc_filter_matches_oracle_on_all_cells():
    # the bulk engine's mask over the index's weekday * 24 + hour, every cell
    for spec in CANONICAL_HDAS:
        lut = _week_hour_lut(spec)
        assert lut.shape == (7 * 24,)
        for hour in range(24):
            for weekday in range(7):
                assert bool(lut[weekday * 24 + hour]) == event_qualifies(
                    spec, hour, weekday
                ), (spec.name, hour, weekday)


def test_week_hour_lut_is_built_once_per_spec_and_read_only():
    for spec in CANONICAL_HDAS:
        lut = _week_hour_lut(spec)
        assert _week_hour_lut(HdaSpec(**vars(spec))) is lut  # an equal spec
        with pytest.raises(ValueError, match="read-only"):
            lut[0] = not lut[0]


def test_ma_counts_events_dd_counts_days():
    # 5 events one day at tower 100; one event on each of 3 days at tower 200
    day = "2007-06-0{}T12:00:00"
    recs = [
        *[(100, _at("2007-06-01T10:0{}:00".format(i))) for i in range(5)],
        *[(200, _at(day.format(i))) for i in (2, 3, 4)],
    ]
    assert _detect("MA", *recs) == (100, 5, False)
    assert _detect("DD", *recs) == (200, 3, False)


def test_dd_midnight_crossing_counts_two_days():
    home, days, _ = _detect(
        "DD",
        (100, _at("2007-06-01T23:30:00")),
        (100, _at("2007-06-02T00:30:00")),
        (200, _at("2007-06-05T10:00:00")),
    )
    assert (home, days) == (100, 2)


def test_tie_break_earliest_first_record():
    home, _, tie = _detect(
        "MA",
        (300, _at("2007-06-01T10:00:00")),
        (100, _at("2007-06-01T11:00:00")),
        (300, _at("2007-06-02T10:00:00")),
        (100, _at("2007-06-02T11:00:00")),
    )
    assert home == 300  # equal counts; 300 seen first
    assert tie


def test_tie_break_smaller_id_on_equal_timestamps():
    ts = _at("2007-06-01T10:00:00")
    home, _, tie = _detect("MA", (200, ts), (100, ts))
    assert home == 100
    assert tie


def test_no_qualifying_records():
    # weekday-only events cannot satisfy a weekend-only criterion
    got = _detect("TC-WE", (100, _at("2007-06-04T12:00:00")))  # a Monday
    assert got == (None, 0, False)


def test_min_qualifying_threshold():
    recs = [(100, _at(f"2007-06-01T1{i}:00:00")) for i in range(3)]
    assert _detect("MA", *recs, min_qualifying=3)[0] == 100
    low = _detect("MA", *recs, min_qualifying=4)
    assert low == (None, 3, False)  # best value still reported
    with pytest.raises(ValueError):
        part = one_partition(
            np.array([1], dtype=np.uint64),
            np.array([100], dtype=np.int64),
            np.array([T0 + 60], dtype=np.int64),
        )[0]
        detect_homes_bulk(part, FULL, canonical_hda("MA"), min_qualifying=0)


def test_bulk_matches_reference_and_oracle():
    # randomized datasets with few towers so count ties are frequent
    windows = [
        FULL,
        ObservationWindow(date(2007, 5, 27), date(2007, 6, 9), "14d-02", "days14"),
        ObservationWindow(date(2007, 6, 8), date(2007, 6, 11), "wk", "custom"),
    ]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        users, towers, stamps = random_records(
            rng, 20, np.arange(100, 105), T0, T1, mean_events=12
        )
        part = one_partition(users, towers, stamps)[0]
        records = records_by_user(users, towers, stamps)
        for window in windows:
            for spec in CANONICAL_HDAS:
                bulk = detect_homes_bulk(part, window, spec)
                _assert_matches_oracle(part, bulk, spec, window, records)


def test_bulk_min_qualifying_matches_reference():
    rng = np.random.default_rng(42)
    users, towers, stamps = random_records(
        rng, 15, np.arange(100, 104), T0, T1, mean_events=6
    )
    part = one_partition(users, towers, stamps)[0]
    records = records_by_user(users, towers, stamps)
    for spec in (canonical_hda("MA"), canonical_hda("DD"), canonical_hda("TC-WE")):
        bulk = detect_homes_bulk(part, FULL, spec, min_qualifying=3)
        _assert_matches_oracle(part, bulk, spec, FULL, records, min_qualifying=3)


@pytest.mark.parametrize("n_partitions", [1, 3])
def test_bulk_matches_oracle_on_whole_grid(n_partitions):
    # few towers so ties are frequent; records start after the span's first
    # week and end before its last, so "before" and "after" hold no record
    first, last = date(2007, 5, 20), date(2007, 10, 6)
    windows = [
        *generate_windows(SPAN),
        ObservationWindow(SPAN.first_day, date(2007, 5, 19), "before", "custom"),
        ObservationWindow(date(2007, 10, 7), SPAN.last_day, "after", "custom"),
    ]
    thresholds = [
        (spec, 1) for spec in CANONICAL_HDAS
    ] + [(spec, 3) for spec in CANONICAL_HDAS if spec.criterion != "MA"]
    rng = np.random.default_rng(30 + n_partitions)
    users, towers, stamps = random_records(
        rng, 24, np.arange(100, 104),
        CLOCK.midnight_epoch(first), CLOCK.midnight_epoch(last), mean_events=40,
    )
    parts = one_partition(users, towers, stamps, n_partitions=n_partitions)
    assert len(parts) == n_partitions
    records = records_by_user(users, towers, stamps)
    held = np.concatenate([p.user_ids for p in parts])
    assert sorted(held.tolist()) == sorted(records)
    # each partition's users' records
    own = [{u: records[u] for u in p.user_ids.tolist()} for p in parts]
    fields = {}
    for window in windows:
        for spec, min_q in thresholds:
            for part, part_records in zip(parts, own):
                bulk = detect_homes_bulk(part, window, spec, min_qualifying=min_q)
                _assert_matches_oracle(
                    part, bulk, spec, window, part_records, min_q, fields=fields
                )
                if window.label in ("before", "after"):
                    assert (bulk.home_towers == -1).all() and not bulk.qualifying.any()


def test_bulk_matches_oracle_where_civil_date_steps_back():
    # St. John's left DST at 00:01 on 2007-11-04: the clocks went back to
    # 23:01 on Nov 3, so a later record can carry an earlier civil date
    tz_name = "America/St_Johns"
    clock = CivilClock(tz_name)
    switch = 1194143460  # 2007-11-04 02:31 UTC, 00:01 NDT -> 23:01 NST
    # user 99: tower 100 first on Nov 4 00:00:30, then on Nov 3 23:20;
    # tower 101 twice on Nov 3 in between, so the earliest record of the
    # tied pair 100 sits on the later civil day
    own = [(100, switch - 30), (100, switch + 1200),
           (101, switch + 300), (101, switch + 600)]
    days = [local_fields(ts, tz_name)[0] for _, ts in own]
    assert days == [date(2007, 11, 4)] + [date(2007, 11, 3)] * 3
    rng = np.random.default_rng(7)
    users, towers, stamps = random_records(
        rng, 30, np.arange(100, 103), switch - 3600, switch + 3600, mean_events=4
    )
    users = np.concatenate([users, np.full(len(own), 99, dtype=np.uint64)])
    towers = np.concatenate([towers, np.array([t for t, _ in own], dtype=np.int64)])
    stamps = np.concatenate([stamps, np.array([s for _, s in own], dtype=np.int64)])
    part = one_partition(users, towers, stamps, clock=clock)[0]
    records = records_by_user(users, towers, stamps)
    windows = [
        ObservationWindow(
            date(2007, 11, 1), date(2007, 11, 10), "nov", "custom"
        ),
        ObservationWindow(date(2007, 11, 3), date(2007, 11, 3), "nov3", "custom"),
        ObservationWindow(date(2007, 11, 4), date(2007, 11, 4), "nov4", "custom"),
    ]
    fields = {}
    for window in windows:
        for spec in CANONICAL_HDAS:
            bulk = detect_homes_bulk(part, window, spec)
            _assert_matches_oracle(
                part, bulk, spec, window, records, tz_name=tz_name, fields=fields
            )
    row = int(np.searchsorted(part.user_ids, 99))
    bulk = detect_homes_bulk(part, windows[0], canonical_hda("MA"))
    assert _row(bulk, row) == (100, 2, True)


def test_bulk_empty_window():
    part = one_partition(
        np.array([1, 2], dtype=np.uint64),
        np.array([100, 101], dtype=np.int64),
        np.array([T0 + 60, T0 + 120], dtype=np.int64),
    )[0]
    window = ObservationWindow(date(2007, 9, 1), date(2007, 9, 14), "later", "custom")
    bulk = detect_homes_bulk(part, window, canonical_hda("MA"))
    assert (bulk.home_towers == -1).all()
    assert (bulk.qualifying == 0).all()


def test_aggregate_and_merge_partition_invariance():
    rng = np.random.default_rng(13)
    reg = make_registry(6)
    users, towers, stamps = random_records(rng, 50, reg.tower_ids, T0, T1)
    single = one_partition(users, towers, stamps)[0]
    split = one_partition(users, towers, stamps, n_partitions=4)
    spec = canonical_hda("MA")
    bulk = detect_homes_bulk(single, FULL, spec)
    want = aggregate_homes(bulk, reg)
    got = merge_vectors(
        aggregate_homes(detect_homes_bulk(p, FULL, spec), reg) for p in split
    )
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert int(want.sum()) == (bulk.home_towers >= 0).sum()
    with pytest.raises(ValueError):
        merge_vectors([])


def test_aggregate_from_bulk_assignments():
    reg = make_registry(3)
    x = aggregate_homes(_bulk([100, 100, 102, -1]), reg)
    assert x.dtype == np.int64
    assert x.tolist() == [2, 0, 1]


def test_aggregate_rejects_unknown_towers():
    with pytest.raises(KeyError):
        aggregate_homes(_bulk([100, 999]), make_registry(3))


def test_bulk_over_canonical_grid_smoke():
    rng = np.random.default_rng(21)
    users, towers, stamps = random_records(rng, 10, np.arange(100, 103), T0, T1)
    part = one_partition(users, towers, stamps)[0]
    for window in generate_windows(SPAN):
        bulk = detect_homes_bulk(part, window, canonical_hda("DD"))
        assert len(bulk.user_ids) == 10
