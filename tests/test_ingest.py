"""The records-file reader: block parsing against the per-line reference."""

from datetime import date, datetime
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from cdrhomes import core
from cdrhomes.core import (
    DatasetSpan, IngestReport, TowerRegistry, ingest, partition_records,
)
from cdrhomes.synth import generate, summer_scenario
from cdrhomes.timebase import CivilClock

from conftest import assert_same_partitions, make_registry
from oracles import reference_records

SPAN = DatasetSpan.parse("2007-05-13..2007-10-13")
T0 = CivilClock().midnight_epoch(date(2007, 5, 13))


def _reference_ingest(path, registry, span, clock, n_partitions):
    """ingest's result from the per-line reference parser, with each
    record's civil date and fields from zoneinfo; an instant that datetime
    cannot represent is out of span."""
    counts, users, towers, stamps = reference_records(
        path, registry.tower_ids, clock.tz_name
    )
    zone = ZoneInfo(clock.tz_name)
    kept = []
    for record in zip(users, towers, stamps):
        try:
            local = datetime.fromtimestamp(record[2], zone)
        except (OverflowError, OSError, ValueError):
            continue
        if span.contains(local.date()):
            week_hour = local.weekday() * 24 + local.hour
            kept.append((*record, local.toordinal(), week_hour))
    columns = [
        np.array([r[i] for r in kept], dtype=dtype)
        for i, dtype in enumerate((np.uint64, np.int64, np.int64, np.int32, np.uint8))
    ]
    parts = partition_records(*columns, n_partitions=n_partitions)
    report = IngestReport(
        records_file=str(path),
        accepted=sum(p.n_records for p in parts),
        rejected_out_of_span=len(users) - len(kept),
        distinct_users=sum(p.n_users for p in parts),
        **counts,
    )
    return parts, report


def _assert_matches_reference(path, registry, span, tz_name="Europe/Paris"):
    for n_partitions in (1, 3):
        parts, report = ingest(
            path, registry, span, n_partitions=n_partitions,
            clock=CivilClock(tz_name),
        )
        want_parts, want_report = _reference_ingest(
            path, registry, span, CivilClock(tz_name), n_partitions
        )
        assert report == want_report
        assert_same_partitions(parts, want_parts)
    return report


@pytest.fixture(params=["default", 64])
def block_bytes(request, monkeypatch):
    """The block size: the module's, and 64 bytes so lines straddle blocks."""
    if request.param != "default":
        monkeypatch.setattr(core, "_BLOCK_BYTES", request.param)
    return request.param


@pytest.fixture(scope="module")
def mixed_input(tmp_path_factory):
    """A synthetic records file with ISO, malformed, unknown-tower and
    out-of-span lines in the shares of the benchmark's mixed workload."""
    res = generate(summer_scenario(5, n_towers=30, n_population=600))
    rng = np.random.default_rng(50)
    rows = np.sort(rng.choice(res.n_records, size=3000, replace=False))
    users, towers = res.users[rows].tolist(), res.towers[rows].tolist()
    stamps = res.timestamps[rows].tolist()
    lines = [f"{u},{t},{s}" for u, t, s in zip(users, towers, stamps)]
    tz = ZoneInfo(res.config.tz_name)
    picked = rng.permutation(len(lines)).tolist()
    for i in picked[:150]:
        local = datetime.fromtimestamp(stamps[i], tz)
        lines[i] = f"{users[i]},{towers[i]},{local:%Y-%m-%dT%H:%M:%S}"
    for i in picked[150:180]:
        lines[i] = f"{users[i]},{towers[i]}"
    for i in picked[180:210]:
        lines[i] = f"{users[i]},{towers[i] + 1_000_000},{stamps[i]}"
    for i in picked[210:240]:
        lines[i] = f"{users[i]},{towers[i]},{stamps[i] + 400 * 86400}"
    path = tmp_path_factory.mktemp("mixed") / "records.csv"
    path.write_text("user_id,tower_id,timestamp\n" + "\n".join(lines) + "\n")
    return path, res.registry


def test_mixed_file_matches_reference(mixed_input, block_bytes):
    path, registry = mixed_input
    report = _assert_matches_reference(path, registry, SPAN)
    assert report.total_lines == 3000
    assert report.rejected_malformed == 30
    assert report.rejected_unknown_tower == 30
    assert report.rejected_out_of_span == 30
    assert [s.split(":")[0] for s in report.sample_rejects] == ["malformed"] * 5


def test_short_lines_grow_the_columns(tmp_path, block_bytes, monkeypatch):
    # the columns are sized for 16-byte lines: lines like "1,1,5" outgrow them
    sizes, original = [], core._grown

    def grown(column, size):
        sizes.append(size)
        return original(column, size)

    monkeypatch.setattr(core, "_grown", grown)
    rng = np.random.default_rng(3)
    lines = [f"{u},{t},{s}" for u, t, s in zip(
        rng.integers(1, 10, 2000), rng.integers(1, 3, 2000),
        rng.integers(-3000, 200_000, 2000),
    )]
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    registry = TowerRegistry([1, 2], [0.0, 0.1], [0.0, 0.1], [5, 7])
    span = DatasetSpan.parse("1970-01-01..1970-01-02")
    report = _assert_matches_reference(path, registry, span)
    assert sizes
    assert report.total_lines == 2000
    assert report.accepted and report.rejected_out_of_span


# a span holding both 2007 DST changes of Europe/Paris
DST_SPAN = DatasetSpan.parse("2007-03-01..2007-11-30")
T = CivilClock().midnight_epoch(date(2007, 6, 1)) + 3600
EDGE_LINES = [
    "user_id,tower_id,timestamp",
    f"18446744073709551615,100,{T}",  # uint64 max user
    f"18446744073709551616,100,{T}",  # one past it
    f"999999999999999999,101,{T}",  # 18 digits: the fast path's largest
    f"1,100,{2**63 - 1}",  # int64 extremes: out of span
    f"1,100,{-(2**63)}",
    f"1,100,{2**63}",  # beyond int64
    "1,100,1000000000000000000",  # 19 digits
    f"0001,0100,0{T}",  # leading zeros
    f"+1,100,{T}",
    f" 1 ,100,{T}",
    f"1_0,100,{T}",
    f"1,+100,{T}",
    f"1,100, {T}",
    f"-1,100,{T}",
    f"1,-100,{T}",
    f"\u0661,100,{T}",  # an Arabic-Indic digit, which int() takes
    f"\u00a01,100,{T}",  # a no-break space, which strip() removes
    f"1,100,{T}\x00",
    f"1,9999,{T}",  # unknown towers
    f"1,{2**63 - 1},{T}",
    f"1,{-(2**63)},{T}",
    "1,100,2007-02-29T10:00:00",  # no such date
    "1,100,2008-02-29T10:00:00",  # a date, but far outside the span
    "1,100,2007-06-31T10:00:00",
    "1,100,2007-13-01T10:00:00",
    "1,100,2007-00-10T10:00:00",
    "1,100,2007-06-00T10:00:00",
    "1,100,2007-06-01T24:00:00",
    "1,100,2007-06-01T10:60:00",
    "1,100,2007-06-01T10:00:60",
    "1,100,2007-03-25T01:59:59",  # around the spring-forward gap
    "1,100,2007-03-25T02:00:00",
    "1,100,2007-03-25T02:30:00",
    "1,100,2007-03-25T03:00:00",
    "1,100,2007-10-28T01:59:59",  # around the fall-back fold
    "1,100,2007-10-28T02:00:00",
    "1,100,2007-10-28T02:30:00",
    "1,100,2007-10-28T03:00:00",
    "1,100,2007-02-26T23:00:00",  # two days and an hour before the span
    "1,100,2007-02-27T01:00:00",
    "1,100,2007-12-02T23:59:59",
    "1,100,2007-12-03T00:00:00",
    "2,101,2007-5-3T1:2:3",  # other forms strptime takes
    "2,101,2007-05-03t01:02:03",
    "2,101, 2007-05-03T01:02:03",
    "2,101,2007-05-03T01:02:03 ",
    "2,101,2007-05-03T01:02:03Z",
    "2,101,2007-05-03 01:02:03",
    "1234567890123456789,101,2007-05-03T01:02:03",
    f"3,102,{T}\r",  # CRLF
    "3,102,2007-05-03T01:02:03\r",
    f"3,102,{T}\r\r",
    f"3,10\r2,{T}",  # a lone CR ends a line
    "3,102,2007-05-03T01:02\r:03",
    "",
    "1,100",
    f"1,100,{T},5",
    ",,",
    f"1,,{T}",
    "1,100,",
]


def test_edge_lines_match_reference(tmp_path, block_bytes):
    path = tmp_path / "records.csv"
    path.write_bytes("\n".join(EDGE_LINES).encode() + b"\n")
    report = _assert_matches_reference(path, make_registry(3), DST_SPAN)
    assert report.header_line
    # CR CR LF ends two lines, and each lone CR inside a line ends one
    assert report.total_lines == len(EDGE_LINES) - 1 + 3
    assert report.rejected_unknown_tower == 4


def test_header_and_first_line_rules(tmp_path, block_bytes):
    # line 1 is a header if it starts with user_id, as in read_table; any
    # other line 1 is judged like every line, so a bad one counts as malformed
    reg = make_registry(3)
    for first, header, malformed in (
        ("user_id,tower_id,timestamp", True, 0),
        ("user_id", True, 0),
        ("user_id\ttower_id\ttimestamp", True, 0),
        (f"1,100,{T0 + 5}", False, 0),
        (f" 7,100,{T0}", False, 0),
        ("2007-05-13T00:00:00", False, 1),
        ("1a,100,1180000000", False, 1),
        (f"1\t100\t{T0}", False, 1),
        (" user_id,tower_id,timestamp", False, 1),
        ("", False, 1),
        ("\ufeffuser_id,tower_id,timestamp", False, 1),
        ("\ufeff1,100,5", False, 1),
    ):
        path = tmp_path / "records.csv"
        path.write_text(f"{first}\n2,101,{T0 + 9}\n", encoding="utf-8")
        report = _assert_matches_reference(path, reg, SPAN)
        assert (report.header_line, report.total_lines, report.rejected_malformed) \
            == (header, 2 - header, malformed), first


# line-splitting files, with (header_line, total, accepted, malformed): the
# reader ends lines at '\n', '\r\n' and a lone '\r', and nowhere else (not
# at the other characters str.splitlines splits at)
SPLIT_CASES = {
    "mixed": (
        b"user_id,tower_id,timestamp\r\n"
        + f"1,100,{T0 + 50}\r\n".encode()
        + f"1,101,{T0 + 60}\r2,100,{T0 + 70}\n".encode()
        + b"\n"
        + f"2,101,{T0 + 80}\x0c\r\n".encode()
        + f"3,1\x0b00,{T0 + 90}\n".encode()
        + f"4,10\x1c1,{T0 + 90}\n".encode()
        + f"4,10\u00851,{T0 + 90}\n".encode()
        + b"\r\n"
        + f"5,102,{T0 + 100}".encode(),
        (True, 10, 5, 5),
    ),
    "cr_only": (
        b"user_id,tower_id,timestamp\r"
        + f"1,100,{T0 + 50}\r2,101,{T0 + 60}\r\r3,102,{T0 + 70}\r".encode(),
        (True, 4, 3, 1),
    ),
    "empty_first_line": (f"\n1,100,{T0 + 50}\n".encode(), (False, 2, 1, 1)),
    "empty_file": (b"", (False, 0, 0, 0)),
    "line_ends_only": (b"\n\n\r\n\r", (False, 4, 0, 4)),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_line_ends(tmp_path, block_bytes, case):
    data, (header, total, accepted, malformed) = SPLIT_CASES[case]
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    report = _assert_matches_reference(path, make_registry(3), SPAN)
    assert (report.header_line, report.total_lines, report.accepted,
            report.rejected_malformed) == (header, total, accepted, malformed)


def test_undecodable_bytes_count_as_malformed(tmp_path, block_bytes):
    path = tmp_path / "records.csv"
    path.write_bytes(
        b"user_id,tower_id,timestamp\n"
        + f"1,100,{T0 + 50}\n".encode()
        + f"1,100,{T0 + 60}\xff\n".encode("latin-1")
        + f"2,\xe9101,{T0 + 70}\n".encode("latin-1")
        + f"2,101,{T0 + 80}\n".encode()
        + "3,100,café\n".encode()
    )
    report = _assert_matches_reference(path, make_registry(3), SPAN)
    assert report.accepted == 2
    assert report.rejected_malformed == 3
    assert report.sample_rejects == [
        f"malformed: 1,100,{T0 + 60}\\xff",
        f"malformed: 2,\\xe9101,{T0 + 70}",
        "malformed: 3,100,café",
    ]
