"""Civil-time derivation against the stdlib zoneinfo oracle."""

from datetime import date, datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from cdrhomes.timebase import _LAST_PROBE, CivilClock

from oracles import epochs_from_local_around, local_fields

PARIS = ZoneInfo("Europe/Paris")

# epoch seconds bracketing the 2007 DST transitions in Europe/Paris
SPRING_FORWARD = 1174784400  # 2007-03-25 02:00 UTC+1 -> 03:00 UTC+2
FALL_BACK = 1193533200  # 2007-10-28 03:00 UTC+2 -> 02:00 UTC+1


def _assert_local_fields_match_zoneinfo(clock, stamps):
    day_ords, week_hours = clock.local_fields(np.asarray(stamps, dtype=np.int64))
    assert day_ords.dtype == np.int32 and week_hours.dtype == np.uint8
    want = [local_fields(ts, clock.tz_name) for ts in stamps]
    assert day_ords.tolist() == [d.toordinal() for d, _, _ in want]
    assert week_hours.tolist() == [w * 24 + h for _, h, w in want]


def _counted_probes(clock, monkeypatch, limit):
    """The instants clock probes from now on. More than limit fail the test
    at once: a table that probed each day between its smallest and largest
    instant would probe 3.65M times over the whole calendar."""
    probes, real = [], clock.utc_offset

    def probe(ts):
        probes.append(ts)
        if len(probes) > limit:
            raise AssertionError(f"more than {limit} probes")
        return real(ts)

    monkeypatch.setattr(clock, "utc_offset", probe)
    return probes


def test_derive_matches_zoneinfo_at_transitions():
    stamps = [base + delta for base in (SPRING_FORWARD, FALL_BACK)
              for delta in range(-7200, 7201, 600)]
    _assert_local_fields_match_zoneinfo(CivilClock(), stamps)


def test_derive_matches_zoneinfo_random_epochs():
    rng = np.random.default_rng(7)
    lo = int(datetime(2006, 12, 1, tzinfo=PARIS).timestamp())
    hi = int(datetime(2008, 2, 1, tzinfo=PARIS).timestamp())
    stamps = rng.integers(lo, hi, size=500).tolist()
    _assert_local_fields_match_zoneinfo(CivilClock(), stamps)


def test_local_fields_bulk_matches_scalar():
    rng = np.random.default_rng(11)
    ts = rng.integers(1178000000, 1192300000, size=2000, dtype=np.int64)
    _assert_local_fields_match_zoneinfo(CivilClock(), ts.tolist())


def test_local_fields_empty():
    clock = CivilClock()
    day_ords, week_hours = clock.local_fields(np.zeros(0, dtype=np.int64))
    assert len(day_ords) == len(week_hours) == 0


def test_midnight_epoch_is_local_midnight():
    clock = CivilClock()
    d = date(2007, 5, 13)
    for _ in range(160):
        ts = clock.midnight_epoch(d)
        got_day, got_hour, got_weekday = local_fields(ts)
        assert got_day == d
        assert got_hour == 0
        assert got_weekday == d.weekday()
        d += timedelta(days=1)


def test_dst_day_lengths():
    clock = CivilClock()
    def day_len(d):
        return clock.midnight_epoch(d + timedelta(days=1)) - clock.midnight_epoch(d)
    assert day_len(date(2007, 3, 25)) == 23 * 3600
    assert day_len(date(2007, 10, 28)) == 25 * 3600
    assert day_len(date(2007, 7, 1)) == 24 * 3600


def test_parse_local_round_trip():
    clock = CivilClock()
    ts = clock.parse_local("2007-07-01T12:30:00")
    dt = datetime.fromtimestamp(ts, tz=PARIS)
    assert (dt.year, dt.month, dt.day, dt.hour, dt.minute) == (2007, 7, 1, 12, 30)
    with pytest.raises(ValueError):
        clock.parse_local("2007-07-01 12:30:00")


@pytest.mark.parametrize(
    "tz_name", ["Europe/Paris", "America/St_Johns", "Australia/Lord_Howe", "UTC"]
)
def test_epochs_from_local_equals_parse_local(tz_name):
    # every minute from noon before to midnight after each day of 2007 whose
    # UTC offset changes: St John's changed at 00:01, Lord Howe by 30 minutes
    clock = CivilClock(tz_name)
    tz = ZoneInfo(tz_name)
    days = [date(2007, 1, 1) + timedelta(days=i) for i in range(365)]
    noon_offsets = [datetime(d.year, d.month, d.day, 12, tzinfo=tz).utcoffset()
                    for d in days]
    changes = [d for d, a, b in zip(days[1:], noon_offsets, noon_offsets[1:]) if a != b]
    assert len(changes) == (0 if tz_name == "UTC" else 2)
    start = datetime(2007, 1, 1, 12)  # uniform sample for UTC
    walls = [datetime(d.year, d.month, d.day) - timedelta(hours=12) for d in changes]
    walls = [w + timedelta(minutes=m) for w in walls or [start] for m in range(36 * 60)]
    local = np.array([(w - datetime(1970, 1, 1)) // timedelta(seconds=1) for w in walls])
    want = [clock.parse_local(w.strftime("%Y-%m-%dT%H:%M:%S")) for w in walls]
    assert clock.epochs_from_local(local).tolist() == want
    assert clock.epochs_from_local(np.zeros(0, dtype=np.int64)).size == 0


def _walls(*texts_and_minutes):
    """Wall-clock seconds since 1970 of every minute over each (ISO start,
    minutes) pair."""
    return np.array([
        (datetime.fromisoformat(text) - datetime(1970, 1, 1)) // timedelta(seconds=1)
        + 60 * m
        for text, n in texts_and_minutes for m in range(n)
    ])


WALL_SETS = {
    # a spring-forward gap and a fall-back fold, the hours around them
    "2007-dst": (("2007-03-24T22:00:00", 600), ("2007-10-27T22:00:00", 600)),
    # the first and last days of the calendar
    "years-1-and-9999": (("0001-01-01T00:00:00", 2 * 1440),
                         ("9999-12-30T00:00:00", 2 * 1440)),
    "all-of-them": (("0001-01-01T00:00:00", 1440), ("2007-03-25T01:00:00", 180),
                    ("2007-10-28T01:00:00", 180), ("9999-12-31T00:00:00", 1440)),
}


@pytest.mark.parametrize("walls", WALL_SETS.values(), ids=WALL_SETS.keys())
@pytest.mark.parametrize("tz_name", [
    "Europe/Paris", "America/St_Johns", "Australia/Lord_Howe",
    "Pacific/Kiritimati", "Etc/GMT+12", "UTC",
])
def test_epochs_from_local_equals_its_table_over_a_day_either_side(
    tz_name, walls, monkeypatch
):
    # the table is built from local itself, a day either side of each wall
    # time held in the day mask: the same probes, and the same epochs, as
    # the table over local - 1 day and local + 1 day
    clock = CivilClock(tz_name)
    local = _walls(*walls)
    probes = _counted_probes(clock, monkeypatch, limit=10_000)
    got = clock.epochs_from_local(local)
    n_got = len(probes)
    want = epochs_from_local_around(clock, local)
    assert got.tolist() == want.tolist()
    assert probes[:n_got] == probes[n_got:]


def test_utc_offset_values():
    clock = CivilClock()
    assert clock.utc_offset(clock.parse_local("2007-07-01T12:00:00")) == 7200
    assert clock.utc_offset(clock.parse_local("2007-01-15T12:00:00")) == 3600


def test_other_timezone():
    # 1970-01-01 was a Thursday: week hour 3 * 24
    _assert_local_fields_match_zoneinfo(CivilClock("UTC"), [0, 3600 * 24 * 4 - 1])
    day_ords, week_hours = CivilClock("UTC").local_fields(np.array([0]))
    assert (day_ords[0], week_hours[0]) == (date(1970, 1, 1).toordinal(), 72)


EDGE_ZONES = ["Pacific/Kiritimati", "Etc/GMT+12", "Europe/Paris"]
UTC_MIN = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
UTC_END = int(datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp()) + 86400


@pytest.mark.parametrize("tz_name", EDGE_ZONES)
def test_local_fields_at_both_ends_of_the_calendar(tz_name):
    # the first and last 10 days of instants that datetime shows both in UTC
    # and in the zone; the table once probed 90 days past them and failed
    clock = CivilClock(tz_name)
    first = max(UTC_MIN, clock.parse_local("0001-01-01T00:00:00"))
    end = min(UTC_END, clock.parse_local("9999-12-31T23:59:59") + 1)
    for lo, hi in ((first, first + 10 * 86400), (end - 10 * 86400, end)):
        stamps = list(range(lo, hi, 3607)) + [hi - 1]
        _assert_local_fields_match_zoneinfo(clock, stamps)


@pytest.mark.parametrize("tz_name", EDGE_ZONES)
def test_epochs_from_local_at_both_ends_of_the_calendar(tz_name):
    clock = CivilClock(tz_name)
    # one call per end (the test below makes one over both)
    for start in (datetime(1, 1, 1), datetime(9999, 12, 22)):
        walls = [start + timedelta(seconds=s) for s in range(0, 10 * 86400, 3607)]
        walls.append(start + timedelta(days=10, seconds=-1))
        local = np.array([(w - datetime(1970, 1, 1)) // timedelta(seconds=1)
                          for w in walls])
        want = [clock.parse_local(w.isoformat()) for w in walls]
        assert clock.epochs_from_local(local).tolist() == want


@pytest.mark.parametrize("tz_name", EDGE_ZONES)
def test_one_table_over_both_ends_of_the_calendar_probes_near_its_instants(
    tz_name, monkeypatch
):
    # the first and last 10 days of the calendar in one call of each kind:
    # each table probes the days that hold its instants, and the days after
    clock = CivilClock(tz_name)
    first = max(UTC_MIN, clock.parse_local("0001-01-01T00:00:00"))
    end = min(UTC_END, clock.parse_local("9999-12-31T23:59:59") + 1)
    stamps = [t for lo, hi in ((first, first + 10 * 86400), (end - 10 * 86400, end))
              for t in [*range(lo, hi, 3607), hi - 1]]
    walls = [start + timedelta(seconds=s)
             for start in (datetime(1, 1, 1), datetime(9999, 12, 22))
             for s in [*range(0, 10 * 86400, 3607), 10 * 86400 - 1]]
    local = np.array([(w - datetime(1970, 1, 1)) // timedelta(seconds=1) for w in walls])
    want = [clock.parse_local(w.isoformat()) for w in walls]
    probes = _counted_probes(clock, monkeypatch, limit=1000)
    _assert_local_fields_match_zoneinfo(clock, stamps)
    n_fields = len(probes)
    assert clock.epochs_from_local(local).tolist() == want
    assert n_fields < 500 and len(probes) - n_fields < 500


@pytest.mark.parametrize("gap_days", [3653, 1_095_727], ids=["ten-years", "3000-years"])
def test_two_bursts_cost_the_same_probes_however_far_apart(gap_days, monkeypatch):
    # a burst over the 2007 fall-back, and one gap_days later: each probes
    # its own days, and the change between them needs no bisection
    clock = CivilClock()
    early = [FALL_BACK - 7200 + 600 * k for k in range(25)]
    late = [t + gap_days * 86400 for t in early]
    probes = _counted_probes(clock, monkeypatch, limit=1000)
    _assert_local_fields_match_zoneinfo(clock, early + late)
    # each burst holds two days, probed with the day after; one day bisected
    assert len(probes) == 3 + 3 + 17


def test_one_instant_a_year_costs_two_probes_each(monkeypatch):
    # 12:00 UTC on 15 January of each year 1-9999: each instant's day and
    # the next, 19,998 probes, and no bisection; a table that probed weeks
    # around each instant would pass the limit at once
    clock = CivilClock()
    stamps = [int(datetime(y, 1, 15, 12, tzinfo=timezone.utc).timestamp())
              for y in range(1, 10000)]
    probes = _counted_probes(clock, monkeypatch, limit=25_000)
    _assert_local_fields_match_zoneinfo(clock, stamps)
    assert len(probes) < 25_000


@pytest.mark.parametrize("tz_name", EDGE_ZONES)
def test_an_instant_past_the_last_probe_takes_the_last_offset(tz_name):
    # 10000-01-01T01:00 UTC: datetime cannot show it, the table can
    clock = CivilClock(tz_name)
    ts = _LAST_PROBE + 2 * 86400 + 3600
    local = ts + clock.utc_offset(_LAST_PROBE)
    day_ords, week_hours = clock.local_fields(np.array([ts]))
    assert day_ords[0] == local // 86400 + date(1970, 1, 1).toordinal()
    assert week_hours[0] == (local // 3600 + 3 * 24) % 168


I32_MIN, I32_MAX = -(2**31), 2**31 - 1
ORDINAL_1970 = date(1970, 1, 1).toordinal()


def test_local_fields_holds_each_day_ordinal_int32_can_and_no_other():
    # the first and last second of the first and last int32 day ordinals,
    # and a second further out either way
    clock = CivilClock("UTC")
    stamps = [(I32_MIN - ORDINAL_1970) * 86400, (I32_MAX - ORDINAL_1970 + 1) * 86400 - 1]
    day_ords, week_hours = clock.local_fields(np.array(stamps))
    assert day_ords.tolist() == [I32_MIN, I32_MAX]
    assert week_hours.tolist() == [(t // 3600 + 3 * 24) % 168 for t in stamps]
    for outside in (stamps[0] - 1, stamps[1] + 1):
        with pytest.raises(ValueError, match=f"^instant {outside}: "):
            clock.local_fields(np.array(stamps + [outside]))


@pytest.mark.parametrize("tz_name", ["UTC", "Europe/Paris", "Pacific/Kiritimati"])
@pytest.mark.parametrize("outside", [
    (I32_MIN - ORDINAL_1970 - 1) * 86400, (I32_MAX - ORDINAL_1970 + 2) * 86400,
    10**15, 2**63 - 1, -(2**63),
], ids=["a-day-before-int32", "a-day-after-int32", "1e15", "int64-max", "int64-min"])
def test_local_fields_refuses_a_day_ordinal_int32_cannot_hold(tz_name, outside):
    # ts + offset, or the int32 day ordinal, would wrap silently
    clock = CivilClock(tz_name)
    with pytest.raises(ValueError, match=f"^instant {outside}: "):
        clock.local_fields(np.array([FALL_BACK, outside, FALL_BACK]))
