"""Records model, partitioning, and ingestion accounting."""

import csv
import tracemalloc
from collections import Counter
from datetime import date, datetime, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from cdrhomes import core
from cdrhomes.core import (
    DatasetSpan,
    TowerRegistry,
    ingest,
    partition_records,
    write_records_csv,
)
from cdrhomes.synth import GroundTruthTable
from cdrhomes.timebase import CivilClock

from conftest import (
    array_fields, assert_same_partitions, make_registry, random_records,
)
from oracles import local_fields as oracle_local_fields
from oracles import partition_of, reference_index

SPAN = DatasetSpan.parse("2007-05-13..2007-10-13")
T0 = CivilClock().midnight_epoch(date(2007, 5, 13))
T1 = CivilClock().midnight_epoch(date(2007, 10, 14))


def test_span_parse_and_contains():
    assert SPAN.first_day == date(2007, 5, 13)
    assert SPAN.last_day == date(2007, 10, 13)
    assert SPAN.n_days == 154
    assert str(SPAN) == "2007-05-13..2007-10-13"
    assert SPAN.contains(date(2007, 7, 1))
    assert not SPAN.contains(date(2007, 10, 14))
    with pytest.raises(ValueError):
        DatasetSpan.parse("2007-10-13..2007-05-13")
    with pytest.raises(ValueError):
        DatasetSpan.parse("2007-05-13")


def test_registry_basics():
    reg = make_registry(5, populations=[10, 0, 30, 40, 50])
    assert len(reg) == 5
    rows = reg.rows_for(np.array([104, 100], dtype=np.int64))
    assert rows.tolist() == [4, 0]
    with pytest.raises(KeyError):
        reg.rows_for(np.array([999], dtype=np.int64))
    mask = reg.contains_ids(np.array([100, 999, 103], dtype=np.int64))
    assert mask.tolist() == [True, False, True]


def test_registry_rejects_duplicates_and_negative_population():
    with pytest.raises(ValueError):
        TowerRegistry(
            tower_ids=np.array([1, 1]),
            lon=np.zeros(2),
            lat=np.zeros(2),
            population=np.array([1, 2]),
        )
    with pytest.raises(ValueError):
        TowerRegistry(
            tower_ids=np.array([1, 2]),
            lon=np.zeros(2),
            lat=np.zeros(2),
            population=np.array([1, -2]),
        )
    with pytest.raises(ValueError, match="negative tower_id or population"):
        TowerRegistry(
            tower_ids=np.array([1, -5]),
            lon=np.zeros(2),
            lat=np.zeros(2),
            population=np.array([1, 2]),
        )


def _csv_writer_bytes(path, header, rows):
    """What csv.writer makes of the rows: the writers' earlier form."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def _records_rows(*columns):
    return [[int(v) for v in row] for row in zip(*columns)]


def _check_writers(tmp_path):
    u64 = np.array([2**64 - 1, 0, 7], dtype=np.uint64)
    i64 = np.array([-(2**63), -5, 2**63 - 1], dtype=np.int64)
    floats = np.array([0.1, -0.0, 5e-324], dtype=np.float64)
    header = ["user_id", "tower_id", "timestamp"]

    # digit-count boundaries, signs and both integer extremes
    users = np.array(
        [0, 9, 10, 99, 100, 2**64 - 1, 10**19, 10**19 - 1, 1, 2**63],
        dtype=np.uint64,
    )
    towers = np.array(
        [-(2**63), 2**63 - 1, -1, 0, 9, 10, -9, -10, -(10**18), 10**18],
        dtype=np.int64,
    )
    # a largest magnitude at each edge of the unsigned types the writer
    # divides in; in 3-row blocks, the second block holds only small values
    u_tops = [255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    i_tops = [-1, -(2**31), -(2**63), 2**63 - 1]
    edges = [
        (np.array([top, 0, top - 1, 9, 10], dtype=np.uint64),
         np.array([0, low, low // 7, 1, -10], dtype=np.int64),
         np.array([low, 1, 0, 99, 100], dtype=np.int64))
        for top, low in zip(u_tops, i_tops * 2)
    ]
    for cols in (
        (u64, i64, i64[::-1]),
        (users, towers, towers[::-1]),
        (users[::-1], towers // 7, np.arange(10, dtype=np.int64) - 5),
        (users[:0], towers[:0], towers[:0]),
        *edges,
    ):
        want = _csv_writer_bytes(tmp_path / "r0.csv", header, _records_rows(*cols))
        write_records_csv(tmp_path / "r.csv", *cols)
        assert (tmp_path / "r.csv").read_bytes() == want

    reg = TowerRegistry(  # tower ids are non-negative
        np.array([0, 10**18, 2**63 - 1]), floats, -floats * 1e300,
        np.array([0, 3, 2**62]),
    )
    reg.write_csv(tmp_path / "t.csv")
    want = _csv_writer_bytes(
        tmp_path / "t0.csv", ["tower_id", "lon", "lat", "population"],
        [[int(t), repr(float(lo)), repr(float(la)), int(p)]
         for t, lo, la, p in zip(reg.tower_ids, reg.lon, reg.lat, reg.population)],
    )
    assert (tmp_path / "t.csv").read_bytes() == want

    # a blank column mixed, and all empty
    for migration in (np.array([-1, -7, 2**32]), np.array([-1, -1, -(2**63)])):
        truth = GroundTruthTable(u64, i64, i64[::-1], migration)
        truth.write_csv(tmp_path / "g.csv")
        want = _csv_writer_bytes(
            tmp_path / "g0.csv",
            ["user_id", "home_tower", "work_tower", "migration_tower"],
            [[int(u), int(h), int(w), int(m) if m >= 0 else ""]
             for u, h, w, m in zip(truth.user_ids, truth.home_towers,
                                   truth.work_towers, truth.migration_towers)],
        )
        assert (tmp_path / "g.csv").read_bytes() == want
        assert b",\n" in want  # an empty migration tower


def test_writers_equal_csv_writer(tmp_path, monkeypatch):
    _check_writers(tmp_path)
    # again with blocks of 3 rows, so every file spans several blocks
    monkeypatch.setattr(core, "_FORMAT_ROWS", 3)
    _check_writers(tmp_path)
    with pytest.raises(ValueError, match="unequal"):
        write_records_csv(tmp_path / "r.csv", np.zeros(3, dtype=np.uint64),
                          np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64))


def test_registry_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    reg = make_registry(20, rng=rng)
    path = tmp_path / "towers.csv"
    reg.write_csv(path)
    back = TowerRegistry.read_csv(path)
    assert np.array_equal(back.tower_ids, reg.tower_ids)
    assert np.array_equal(back.lon, reg.lon)  # repr round-trips floats exactly
    assert np.array_equal(back.lat, reg.lat)
    assert np.array_equal(back.population, reg.population)


def _with_duplicates(rng, users, towers, stamps, n_dup=15):
    """The records plus n_dup repeats of random ones, shuffled."""
    rows = np.concatenate([np.arange(len(users)), rng.choice(len(users), n_dup)])
    rows = rng.permutation(rows)
    return users[rows], towers[rows], stamps[rows]


def test_partition_canonical_order_ignores_input_order():
    rng = np.random.default_rng(5)
    users, towers, stamps = _with_duplicates(
        rng, *random_records(rng, 30, np.arange(100, 110), T0, T1)
    )
    clock = CivilClock()
    for n_partitions in (1, 3):
        parts_a = partition_records(
            users, towers, stamps, *clock.local_fields(stamps),
            n_partitions=n_partitions,
        )
        shuffle = rng.permutation(len(users))
        parts_b = partition_records(
            users[shuffle], towers[shuffle], stamps[shuffle],
            *clock.local_fields(stamps[shuffle]), n_partitions=n_partitions,
        )
        assert_same_partitions(parts_b, parts_a)


def _indexed_records(part):
    """(user, tower, timestamp) of every record the index holds."""
    pairs = part.index_pairs
    return zip(
        part.user_ids[part.pair_users[pairs]].tolist(),
        part.pair_towers[pairs].tolist(),
        part.index_timestamps.tolist(),
    )


def test_partition_holds_each_input_record_once():
    rng = np.random.default_rng(6)
    users, towers, stamps = _with_duplicates(
        rng, *random_records(rng, 25, np.arange(100, 105), T0, T1)
    )
    parts = partition_records(
        users, towers, stamps, *CivilClock().local_fields(stamps), n_partitions=2
    )
    assert sum(p.n_users for p in parts) == 25
    assert sum(p.n_records for p in parts) == len(users)
    held = Counter()
    for part in parts:
        held.update(_indexed_records(part))
    assert held == Counter(zip(users.tolist(), towers.tolist(), stamps.tolist()))


def test_partition_assignment_stable_and_complete():
    # users always land in the partition splitmix64 says, for any count
    for n_partitions in (1, 2, 7):
        for uid in (1, 2, 999, 2**40):
            assert 0 <= partition_of(uid, n_partitions) < n_partitions
    rng = np.random.default_rng(8)
    users, towers, stamps = random_records(rng, 60, np.arange(100, 104), T0, T1)
    parts = partition_records(
        users, towers, stamps, *CivilClock().local_fields(stamps), n_partitions=4
    )
    assert sum(p.n_records for p in parts) == len(users)
    for index, p in enumerate(parts):
        for uid in p.user_ids:
            assert partition_of(int(uid), 4) == index
    # the same users never split across partitions
    seen = np.concatenate([p.user_ids for p in parts])
    assert len(np.unique(seen)) == len(seen)


@pytest.mark.parametrize(
    "tz", ["Pacific/Kiritimati", "Etc/GMT+12", "America/St_Johns"]
)
def test_span_band_keeps_every_in_span_record_at_extreme_offsets(tz, tmp_path):
    # UTC+14, UTC-12 and a half-hour offset: the records dropped before
    # civil-time derivation must all have civil dates outside the span
    span = DatasetSpan.parse("2007-06-01..2007-07-01")
    start = int(datetime(2007, 5, 27, tzinfo=timezone.utc).timestamp())
    stamps = start + 600 * np.arange((span.n_days + 10) * 144, dtype=np.int64)
    users = np.arange(1, len(stamps) + 1, dtype=np.uint64)
    path = tmp_path / "records.csv"
    write_records_csv(path, users, np.full(len(stamps), 100), stamps)
    parts, report = ingest(path, make_registry(1), span, clock=CivilClock(tz))
    zone = ZoneInfo(tz)
    want = [
        int(ts) for ts in stamps
        if span.contains(datetime.fromtimestamp(int(ts), zone).date())
    ]
    assert sorted(parts[0].index_timestamps.tolist()) == want
    assert report.rejected_out_of_span == len(stamps) - len(want)


def test_partition_records_refuses_a_negative_tower_id():
    # detection would report tower -5 as user 1's home, which every
    # consumer reads as "no home"
    users = np.array([1, 1, 1, 1], dtype=np.uint64)
    towers = np.array([-5, -5, -5, 7], dtype=np.int64)
    stamps = T0 + 3600 * np.arange(4, dtype=np.int64)
    fields = CivilClock().local_fields(stamps)
    with pytest.raises(ValueError, match="negative tower id -5"):
        partition_records(users, towers, stamps, *fields)
    parts = partition_records(users, towers[3:].repeat(4), stamps, *fields)
    assert parts[0].pair_towers.tolist() == [7]


def test_partition_arrays_read_only():
    rng = np.random.default_rng(9)
    users, towers, stamps = random_records(rng, 5, np.arange(100, 103), T0, T1)
    part = partition_records(
        users, towers, stamps, *CivilClock().local_fields(stamps)
    )[0]
    with pytest.raises(ValueError):
        part.index_timestamps[0] = 5
    arrays = array_fields(part)
    assert {"user_ids", "index_pairs", "index_timestamps", "index_week_hours",
            "index_day_first", "index_days", "index_day_starts",
            "pair_users", "pair_towers"} == set(arrays)
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[:1] = arr[:1]


def test_partition_layout_bytes():
    # the records are held once: 14 bytes per record (int32 pair, int64
    # timestamp, uint8 week hour, bool first-of-day), 16 per pair, 8 per
    # user, 12 per civil day plus the closing day start
    rng = np.random.default_rng(13)
    users, towers, stamps = random_records(rng, 40, np.arange(100, 106), T0, T1)
    for part in partition_records(
        users, towers, stamps, *CivilClock().local_fields(stamps), n_partitions=2
    ):
        n_days = len(part.index_days)
        layout = (14 * part.n_records + 16 * part.n_pairs + 8 * part.n_users
                  + 12 * n_days + 8)
        assert sum(a.nbytes for a in array_fields(part).values()) == layout


def test_detection_index_holds_the_input_records_by_day():
    rng = np.random.default_rng(11)
    users, towers, stamps = _with_duplicates(
        rng, *random_records(rng, 12, np.arange(100, 104), T0, T1)
    )
    part = partition_records(
        users, towers, stamps, *CivilClock().local_fields(stamps)
    )[0]
    pairs = part.index_pairs
    # pairs number (user, tower) combinations densely in that order
    key = part.pair_users * 1000 + part.pair_towers
    assert (np.diff(key) > 0).all()
    assert part.user_ids.tolist() == sorted(set(users.tolist()))
    day_of = np.repeat(part.index_days, np.diff(part.index_day_starts))
    assert (np.diff(part.index_days) > 0).all()
    assert part.index_day_starts[-1] == part.n_records == len(users)
    # the input records, duplicates included, in (day, pair, timestamp) order
    index_rows = np.lexsort((part.index_timestamps, pairs, day_of))
    assert np.array_equal(index_rows, np.arange(part.n_records))
    assert sorted(_indexed_records(part)) == sorted(
        zip(users.tolist(), towers.tolist(), stamps.tolist())
    )
    # one flag per (pair, day); a day range is a slice
    assert part.index_day_first.sum() == len(set(zip(pairs, day_of)))
    sl = part.day_slice(int(part.index_days[3]), int(part.index_days[5]))
    assert set(day_of[sl]) == set(part.index_days[3:6])
    assert part.day_slice(0, int(part.index_days[0]) - 1) == slice(0, 0)


def _reference_partitions(users, towers, stamps, n_partitions):
    """oracles.reference_index of each partition's records, with civil
    fields from the stdlib."""
    fields = [oracle_local_fields(ts) for ts in stamps.tolist()]
    day_ords = np.array([d.toordinal() for d, _, _ in fields], dtype=np.int32)
    week_hours = np.array([w * 24 + h for _, h, w in fields], dtype=np.uint8)
    part_of = np.array(
        [partition_of(u, n_partitions) for u in users.tolist()], dtype=np.int64
    )
    return [
        reference_index(users[m], towers[m], stamps[m], day_ords[m], week_hours[m])
        for m in (part_of == p for p in range(n_partitions))
    ]


def _wide_id_records(rng, n, t0, t1):
    """n records on user ids across uint64 and tower ids across int64's
    non-negative range, extremes included, plus repeats of some of them,
    shuffled."""
    user_pool = np.concatenate([
        np.array([0, 2**64 - 1, 1, 2**63, 2**63 - 1, 2**16 - 1, 2**16, 2**48],
                 dtype=np.uint64),
        rng.integers(0, 2**64 - 1, 24, dtype=np.uint64, endpoint=True),
    ])
    tower_pool = np.concatenate([
        np.array([0, 2**63 - 1, 1, 2**16 - 1, 2**16, 2**32, 2**47 + 3, 2**62]),
        rng.integers(0, 2**63 - 1, 12, endpoint=True),
    ])
    return _with_duplicates(
        rng,
        user_pool[rng.integers(0, len(user_pool), n)],
        tower_pool[rng.integers(0, len(tower_pool), n)],
        rng.integers(t0, t1, n, dtype=np.int64),
        n_dup=n // 10,
    )


def test_detection_index_equals_reference_on_any_ids():
    rng = np.random.default_rng(17)
    wide = _wide_id_records(rng, 400, T0, T1)
    # civil days across 250 years: a day range beyond 16 bits
    epochs = CivilClock().midnight_epoch
    centuries = _wide_id_records(
        rng, 200, epochs(date(1850, 1, 1)), epochs(date(2100, 1, 1))
    )
    one_pair = (
        np.full(50, 2**64 - 1, dtype=np.uint64),
        np.full(50, 2**63 - 1, dtype=np.int64),
        rng.integers(T0, T1, 50, dtype=np.int64),
    )
    cases = {
        "wide ids": wide,
        "wide ids over centuries": centuries,
        "one pair": one_pair,
        "one record": tuple(c[:1] for c in wide),
        "no records": tuple(c[:0] for c in wide),
    }
    clock = CivilClock()
    for name, records in cases.items():
        for n_partitions in (1, 3):
            parts = partition_records(
                *records, *clock.local_fields(records[2]),
                n_partitions=n_partitions,
            )
            want = _reference_partitions(*records, n_partitions)
            assert len(parts) == len(want)
            for part, ref in zip(parts, want):
                got = array_fields(part)
                assert got.keys() == ref.keys()
                for field, arr in ref.items():
                    where = f"{name}, {n_partitions} partitions, {field}"
                    assert got[field].dtype == arr.dtype, where
                    assert np.array_equal(got[field], arr), where


def test_partition_records_memory_peak():
    # above the caller's columns, civil fields and the index build stay
    # within 72 bytes per record (a build by np.unique and a 64-bit
    # pair-key sort needs about 90)
    n = 600_000
    rng = np.random.default_rng(19)
    users = rng.integers(1, 15_001, n).astype(np.uint64)
    towers = rng.integers(100, 400, n)
    stamps = rng.integers(T0, T1, n)
    clock = CivilClock()
    clock.local_fields(np.array([T0, T1]))  # the zone table, outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        partition_records(users, towers, stamps, *clock.local_fields(stamps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / n <= 72


def test_local_fields_memory_peak():
    # two int64 columns and the week hours at a time: 17 bytes per record
    n = 1_000_000
    stamps = np.random.default_rng(23).integers(T0, T1, n)
    clock = CivilClock()
    clock.local_fields(np.array([T0, T1]))  # the zone table, outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clock.local_fields(stamps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / n <= 28


def test_partition_civil_fields_match_clock():
    rng = np.random.default_rng(10)
    users, towers, stamps = random_records(rng, 10, np.arange(100, 103), T0, T1)
    clock = CivilClock()
    part = partition_records(users, towers, stamps, *clock.local_fields(stamps))[0]
    day_of = np.repeat(part.index_days, np.diff(part.index_day_starts))
    for i in range(0, part.n_records, 31):
        d, h, w = oracle_local_fields(int(part.index_timestamps[i]))
        assert day_of[i] == d.toordinal()
        assert part.index_week_hours[i] == w * 24 + h


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_ingest_happy_path_with_header(tmp_path):
    reg = make_registry(3)
    path = tmp_path / "records.csv"
    _write_lines(path, [
        "user_id,tower_id,timestamp",
        f"1,100,{T0 + 50}",
        f"1,101,{T0 + 90000}",
        f"2,102,2007-06-01T08:30:00",
    ])
    parts, report = ingest(path, reg, SPAN)
    assert report.header_line is True
    assert report.total_lines == 3
    assert report.accepted == 3
    assert report.distinct_users == 2
    assert parts[0].n_records == 3
    report.check()


def test_ingest_reject_accounting(tmp_path):
    reg = make_registry(3)
    path = tmp_path / "records.csv"
    _write_lines(path, [
        f"1,100,{T0 + 50}",          # ok
        "not,enough",                 # malformed: field count
        "1,100,never",                # malformed: timestamp
        f"1,999,{T0 + 60}",           # unknown tower
        f"1,100,{T0 - 100}",          # out of span
        f"2,101,{T0 + 70}",           # ok
    ])
    parts, report = ingest(path, reg, SPAN)
    assert report.header_line is False
    assert report.total_lines == 6
    assert report.accepted == 2
    assert report.rejected_malformed == 2
    assert report.rejected_unknown_tower == 1
    assert report.rejected_out_of_span == 1
    assert len(report.sample_rejects) <= 5
    assert any("malformed" in s for s in report.sample_rejects)
    text = report.as_text()
    assert "accepted=2" in text


def test_ingest_rejects_timestamps_beyond_int64(tmp_path):
    reg = make_registry(2)
    path = tmp_path / "records.csv"
    _write_lines(path, [
        f"1,100,{T0 + 50}",
        "1,100,99999999999999999999",
        "1,100,-99999999999999999999",
        f"1,100,{2**63}",
    ])
    parts, report = ingest(path, reg, SPAN)
    assert report.accepted == 1
    assert report.rejected_malformed == 3
    assert parts[0].index_timestamps.tolist() == [T0 + 50]


def test_ingest_counts_far_off_timestamps_out_of_span(tmp_path):
    # some 32 million years either side of 1970, and the int64 extremes:
    # dropped before civil-time derivation, which cannot represent them
    reg = make_registry(2)
    path = tmp_path / "records.csv"
    _write_lines(path, [
        f"1,100,{T0 + 50}",
        "1,100,1000000000000000",
        "1,101,-1000000000000000",
        f"2,100,{2**63 - 1}",
        f"2,101,{-(2**63)}",
        "3,999,1000000000000000",  # an unknown tower wins over the span
        f"3,100,{T0 - 100}",  # in the two-day band, the civil day before the span
        "3,100,never",  # malformed: sampled while parsing, before any tower
    ])
    for n_partitions in (1, 3):
        parts, report = ingest(path, reg, SPAN, n_partitions=n_partitions)
        assert report.accepted == 1
        assert report.rejected_malformed == 1
        assert report.rejected_unknown_tower == 1
        assert report.rejected_out_of_span == 5
        assert report.distinct_users == 1
        assert report.sample_rejects == [
            "malformed: 3,100,never", "unknown_tower: tower_id=999",
        ]
        stamps = np.concatenate([p.index_timestamps for p in parts])
        assert stamps.tolist() == [T0 + 50]


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="records file not found: .*nope.csv"):
        ingest(tmp_path / "nope.csv", make_registry(1), SPAN)


def test_write_then_ingest_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    reg = make_registry(6)
    users, towers, stamps = _with_duplicates(
        rng, *random_records(rng, 40, reg.tower_ids, T0, T1)
    )
    path = tmp_path / "records.csv"
    write_records_csv(path, users, towers, stamps)
    parts, report = ingest(path, reg, SPAN, n_partitions=3)
    assert report.accepted == len(users)
    direct = partition_records(
        users, towers, stamps, *CivilClock().local_fields(stamps), n_partitions=3
    )
    assert_same_partitions(parts, direct)
