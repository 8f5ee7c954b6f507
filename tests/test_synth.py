"""Generator invariants: determinism, stream isolation, and calibrated shares."""

import hashlib
from datetime import date, timedelta

import numpy as np
import pytest

from cdrhomes import synth
from cdrhomes.core import DatasetSpan, write_records_csv
from cdrhomes.hda import BulkAssignments, canonical_hda, detect_homes_bulk
from cdrhomes.synth import (
    GroundTruthTable,
    MigrationConfig,
    SynthConfig,
    accuracy_csv,
    build_registry,
    generate,
    pick_touristic_towers,
    score_against_truth,
    summer_scenario,
)
from cdrhomes.timebase import CivilClock
from cdrhomes.windows import ObservationWindow

from conftest import one_partition

SPAN30 = DatasetSpan.parse("2007-06-01..2007-06-30")
SPAN = DatasetSpan.parse("2007-05-13..2007-10-13")


def _cfg(**kw):
    base = dict(
        seed=5, n_towers=12, n_population=600, span=SPAN30, daily_event_rate=3.0
    )
    base.update(kw)
    return SynthConfig(**base)


def _mig(first="2007-06-05", last="2007-06-25", fraction=0.4, towers=(1,), stay=5):
    return MigrationConfig(
        date.fromisoformat(first),
        date.fromisoformat(last),
        fraction,
        towers,
        min_stay_days=stay,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(market_share=0.0)
    with pytest.raises(ValueError):
        _cfg(daily_event_rate=0)
    with pytest.raises(ValueError):
        _cfg(work_call_share_day=0.7, home_call_share_day=0.4)
    with pytest.raises(ValueError):
        _cfg(home_call_share_night=1.2)
    with pytest.raises(ValueError):
        _mig(fraction=1.5)
    with pytest.raises(ValueError):
        _mig(first="2007-06-25", last="2007-06-05")
    with pytest.raises(ValueError):
        _mig(fraction=0.5, towers=())
    with pytest.raises(ValueError):
        _mig(towers=(100, 100))
    with pytest.raises(ValueError):
        _mig(stay=40)  # longer than the range itself
    with pytest.raises(ValueError, match="not inside"):
        generate(_cfg(migration=_mig(first="2007-05-01", last="2007-06-10")))


def test_n_subscribers_floor():
    assert _cfg(n_population=600, market_share=0.28).n_subscribers == 168
    assert _cfg(n_population=100, market_share=0.29).n_subscribers == 29


def test_registry_reproducible_and_population_exact():
    a = build_registry(7, 25, 5000)
    b = build_registry(7, 25, 5000)
    assert np.array_equal(a.tower_ids, b.tower_ids)
    assert np.array_equal(a.lon, b.lon)
    assert np.array_equal(a.population, b.population)
    assert int(a.population.sum()) == 5000
    c = build_registry(8, 25, 5000)
    assert not np.array_equal(a.lon, c.lon)


def test_pick_touristic_towers_lowest_population():
    reg = build_registry(7, 25, 5000)
    picked = pick_touristic_towers(reg, 4)
    assert len(picked) == 4
    chosen_pop = sorted(
        int(reg.population[int(np.where(reg.tower_ids == t)[0][0])]) for t in picked
    )
    assert chosen_pop == sorted(reg.population.tolist())[:4]


def test_generate_deterministic():
    a = generate(_cfg())
    b = generate(_cfg())
    assert np.array_equal(a.users, b.users)
    assert np.array_equal(a.towers, b.towers)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.truth.home_towers, b.truth.home_towers)


def test_grown_record_columns_do_not_depend_on_where_they_grow(monkeypatch):
    # three subscribers' geometric day counts of mean 1e5 overflow the
    # columns sized for 1.02 x the expected count at seed 1; with blocks of
    # one subscriber they grow after another subscriber's records
    cfg = SynthConfig(seed=1, n_towers=4, n_population=10, market_share=0.3,
                      span=DatasetSpan.parse("2007-06-01..2007-06-01"),
                      daily_event_rate=1e5)
    real, kept = synth._grown, []

    def grown(column, size):
        kept.append(len(column))
        return real(column, size)

    monkeypatch.setattr(synth, "_grown", grown)
    runs = []
    for block in (synth._SUBSCRIBER_BLOCK, 1):
        monkeypatch.setattr(synth, "_SUBSCRIBER_BLOCK", block)
        kept.clear()
        runs.append((generate(cfg), kept[:]))
    (a, kept_a), (b, kept_b) = runs
    assert kept_a == [0, 0, 0] and kept_b and min(kept_b) > 0
    assert a.n_records > int(cfg.n_subscribers * cfg.daily_event_rate * 1.02) + 1024
    for name in ("users", "towers", "timestamps"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.truth.home_towers, b.truth.home_towers)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5, 3**80])
def test_stream_states_equal_numpys_seeding(seed):
    # seeds of one to four 32-bit words, so the seed sequence mixes three to
    # six words; ids with low and high bits set
    uids = np.array([1, 2, 64, 65, 2**16, 2**31, 2**32 - 1], dtype=np.int64)
    want = [
        np.random.default_rng(
            np.random.SeedSequence([seed, synth._TAG_USER, uid])
        ).bit_generator.state
        for uid in uids.tolist()
    ]
    assert synth._stream_states(seed, uids) == want
    assert synth._stream_states(seed, uids[:0]) == []
    with pytest.raises(ValueError, match="below 2"):
        synth._stream_states(seed, np.array([2**32]))


def _argsorted_pools(lon, lat, k):
    """The reference: the first k of a stable argsort of each whole row."""
    pts = np.stack([lon, lat], axis=1)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    d2[np.arange(len(lon)), np.arange(len(lon))] = np.inf  # exclude self
    return np.argsort(d2, axis=1, kind="stable")[:, :max(min(k, len(lon) - 1), 0)]


_GRID = np.stack(np.meshgrid(np.arange(7.0), np.arange(9.0)), axis=-1).reshape(-1, 2)
_RANDOM = np.random.default_rng(3).uniform(0, 10, size=(600, 2))  # two chunks
POOL_POINTS = {
    "grid": _GRID,  # many equal distances
    "duplicate": np.repeat(_GRID[::4], 3, axis=0),
    "all-equal": np.full((20, 2), 2.5),
    "random": _RANDOM[:300],
    "random-600": _RANDOM,
    "one": _RANDOM[:1],
}


@pytest.mark.parametrize("name", POOL_POINTS)
def test_nearest_pools_equal_a_stable_argsort(name):
    lon, lat = POOL_POINTS[name].T.copy()
    n = len(lon)
    for k in (1, 3, 8, n - 1, n + 2):
        got = synth._nearest_pools(lon, lat, k)
        want = _argsorted_pools(lon, lat, k)
        assert got.shape == want.shape and np.array_equal(got, want), (name, k)


def test_generate_canonical_record_order_and_span():
    res = generate(_cfg())
    order = np.lexsort((res.towers, res.users, res.timestamps))
    assert np.array_equal(order, np.arange(len(order)))
    clock = CivilClock(res.config.tz_name)
    lo = clock.midnight_epoch(SPAN30.first_day)
    hi = clock.midnight_epoch(date(2007, 7, 1))
    assert res.timestamps.min() >= lo
    assert res.timestamps.max() < hi
    assert set(np.unique(res.towers)) <= set(res.registry.tower_ids.tolist())
    assert res.truth.user_ids.tolist() == list(range(1, 169))



def test_generated_day_starts_are_local_midnights(monkeypatch):
    # the day starts come from the clock's table in one call; across both
    # 2007 DST changes each must equal the scalar midnight_epoch
    span = DatasetSpan.parse("2007-03-20..2007-11-05")
    seen = []
    table_path = CivilClock.epochs_from_local

    def spy(self, local):
        seen.append(table_path(self, local))
        return seen[-1]

    monkeypatch.setattr(CivilClock, "epochs_from_local", spy)
    generate(_cfg(span=span, n_population=60))
    clock = CivilClock()
    days = [span.first_day + timedelta(days=i) for i in range(span.n_days + 1)]
    assert len(seen) == 1
    assert seen[0].tolist() == [clock.midnight_epoch(d) for d in days]

# sha256 of the records, towers and truth CSV each config writes: they pin
# the generator's output byte for byte (draw order, float arithmetic, record
# order and CSV formatting). 168 subscribers (most configs) and 28 are not
# multiples of the generator's block of subscribers; "sparse" leaves 40 of
# its 168 subscribers without a record; "dst_change" spans the end of
# summer time, a 25-hour day.
PINNED_OUTPUT = {
    "calm": (
        "b03c1c6b0070e4607b7f7760ff3b9f78c8cf97d5198a6482b08b8187678b27f7",
        "b91b520b8dd29d88a20c06aead69433fb569bc450a4faca049fc19e71206a943",
        "1495499ec1438ce19a9f7b59f33cbf143c335defb92ec2dd40956ef883a10080",
    ),
    "migration": (
        "b80ae6e6cbadfd63f211c5291b1e277c9aa2ca64fea12ee6865c004ba70636dd",
        "b91b520b8dd29d88a20c06aead69433fb569bc450a4faca049fc19e71206a943",
        "fe65c62b4dbca763690ef988c79d578db92f628857858a3b9cb0a08672d41d92",
    ),
    "work_pool_0": (
        "aa38bb5a65918e60615312d8d82c0389d65ebf3ed8bfe66f5a301b07c35dce06",
        "b91b520b8dd29d88a20c06aead69433fb569bc450a4faca049fc19e71206a943",
        "7f4d5aaea14a1fd862e794c7824cfeaf5d0598b1e76dde4be0488859d7fdc016",
    ),
    "work_pool_1_no_neighbors": (
        "68b9eb0ee0a3b36bd49c7e54b168ab26dbd8d5f7103742d566a6e47fd89964ff",
        "b91b520b8dd29d88a20c06aead69433fb569bc450a4faca049fc19e71206a943",
        "29d9fe8a61fab2b0c0739601f8557935024f3f5096d4cc69c04874f2d8b72ff6",
    ),
    "sparse": (
        "8bae0b2b8f831be3064310729dd1071765c34ccb8156d2ca46816d7125d8a129",
        "b91b520b8dd29d88a20c06aead69433fb569bc450a4faca049fc19e71206a943",
        "1495499ec1438ce19a9f7b59f33cbf143c335defb92ec2dd40956ef883a10080",
    ),
    "no_subscribers": (
        "7f545b30a6c5b3efc5f7d63194b8f4f62c346bb0630d97187c2f0a2182832eef",
        "1c1070485a2da7f77cb0f4fb1ad0cc963211b844b70d2b60511f338f3b6d13ef",
        "3c83a313b9cc6723091b26bcc5d4d711e93390a4f4937beb82d319e3f727288d",
    ),
    "few_subscribers": (
        "03da2fa7031eeefe43558428778003c3fc0dcf750fd7049d93fbd09247db2185",
        "ec935e10ebabac0c2ac8ad766eed788992902718efb4a10332473f332f4f63ac",
        "3d4bdc74b3ac8a2b013841664b2bcfc1440163fc904582ee7241abc6d7c4c726",
    ),
    "dst_change": (
        "ba38e9d3429d55effbcb3ca9bc36a21b278c5f669adb6ac9dcaa8cc110f3e619",
        "c2bfec99e3285f64f52815f379973fafb921c15fb8c03b0ac832314fa025636d",
        "8aed04d9909eda3f4aae362b2a4c2a623eed026f996553eac880bfd678d85610",
    ),
}


def _pinned_configs():
    return {
        "calm": _cfg(),
        "migration": _cfg(migration=_mig()),
        "work_pool_0": _cfg(work_pool_size=0, migration=_mig()),
        "work_pool_1_no_neighbors": _cfg(work_pool_size=1, neighbor_pool_size=0),
        "sparse": _cfg(daily_event_rate=0.05),
        "no_subscribers": _cfg(n_population=3),
        "few_subscribers": _cfg(n_population=100, migration=_mig()),
        "dst_change": _cfg(
            span=DatasetSpan.parse("2007-10-20..2007-11-03"), n_population=300
        ),
    }


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUT))
def test_generated_files_match_pinned_digests(name, tmp_path):
    res = generate(_pinned_configs()[name])
    write_records_csv(tmp_path / "records.csv", res.users, res.towers, res.timestamps)
    res.registry.write_csv(tmp_path / "towers.csv")
    res.truth.write_csv(tmp_path / "truth.csv")
    got = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("records.csv", "towers.csv", "truth.csv")
    )
    assert got == PINNED_OUTPUT[name]


def test_adding_users_never_perturbs_existing_traces():
    small = generate(_cfg(market_share=0.28))
    big = generate(_cfg(market_share=0.56))
    keep = np.isin(big.users, small.truth.user_ids)
    assert np.array_equal(np.unique(big.users[keep]), np.unique(small.users))
    # restrict to common users and compare canonical per-user streams
    def per_user(res, mask=None):
        u = res.users if mask is None else res.users[mask]
        t = res.towers if mask is None else res.towers[mask]
        s = res.timestamps if mask is None else res.timestamps[mask]
        order = np.lexsort((t, s, u))
        return u[order], t[order], s[order]

    au, at, ats = per_user(small)
    bu, bt, bts = per_user(big, keep)
    assert np.array_equal(au, bu)
    assert np.array_equal(at, bt)
    assert np.array_equal(ats, bts)


def test_raising_migration_fraction_keeps_non_migrants_identical():
    calm = generate(_cfg(migration=None))
    mig = _mig(fraction=0.5, towers=(1, 2))
    shocked = generate(_cfg(migration=mig))
    stay_ids = shocked.truth.user_ids[~shocked.truth.is_migrant]
    assert 0 < len(stay_ids) < len(shocked.truth)

    def stream(res, ids):
        m = np.isin(res.users, ids)
        u, t, s = res.users[m], res.towers[m], res.timestamps[m]
        order = np.lexsort((t, s, u))
        return u[order], t[order], s[order]

    au, at, ats = stream(calm, stay_ids)
    bu, bt, bts = stream(shocked, stay_ids)
    assert np.array_equal(au, bu)
    assert np.array_equal(at, bt)
    assert np.array_equal(ats, bts)


def test_daily_event_count_median_at_rate_six():
    res = generate(_cfg(daily_event_rate=6.0))
    clock = CivilClock(res.config.tz_name)
    day_ords = clock.local_fields(res.timestamps)[0]
    n_users = len(res.truth)
    n_days = SPAN30.n_days
    # count events per (user, day); days without events count as zero
    key = res.users.astype(np.int64) * 10000 + (day_ords - int(day_ords.min()))
    _, counts = np.unique(key, return_counts=True)
    zeros = n_users * n_days - len(counts)
    all_counts = np.concatenate([np.zeros(zeros, dtype=np.int64), counts])
    assert int(np.median(all_counts)) == 4


def test_generative_shares_roughly_calibrated():
    res = generate(_cfg(n_population=4000, daily_event_rate=6.0))
    clock = CivilClock(res.config.tz_name)
    hours = clock.local_fields(res.timestamps)[1] % 24
    tr = res.truth.rows_for_users(res.users)
    at_home = res.towers == res.truth.home_towers[tr]
    night = (hours >= 20) | (hours < 8)
    night_home = at_home[night].mean()
    day_home = at_home[~night].mean()
    assert abs(night_home - 0.85) < 0.02
    # day events: direct home share 0.3 plus home's slot in the work pool
    assert abs(day_home - (0.3 + 0.6 / 6)) < 0.02


def test_degenerate_all_home_config():
    res = generate(
        _cfg(
            home_call_share_night=1.0,
            home_call_share_day=1.0,
            work_call_share_day=0.0,
        )
    )
    tr = res.truth.rows_for_users(res.users)
    assert (res.towers == res.truth.home_towers[tr]).all()


def test_migrants_actually_move():
    mig = _mig(fraction=1.0, towers=(3,), first="2007-06-01", last="2007-06-30",
               stay=30)  # everyone away the whole span
    res = generate(_cfg(migration=mig))
    assert res.truth.is_migrant.all()
    tr = res.truth.rows_for_users(res.users)
    at_dest = res.towers == res.truth.migration_towers[tr]
    assert at_dest.mean() > 0.5  # destination dominates away days


def test_truth_csv_round_trip(tmp_path):
    res = generate(_cfg(migration=_mig()))
    path = tmp_path / "truth.csv"
    res.truth.write_csv(path)
    back = GroundTruthTable.read_csv(path)
    assert np.array_equal(back.user_ids, res.truth.user_ids)
    assert np.array_equal(back.home_towers, res.truth.home_towers)
    assert np.array_equal(back.work_towers, res.truth.work_towers)
    assert np.array_equal(back.migration_towers, res.truth.migration_towers)
    with pytest.raises(KeyError):
        back.rows_for_users(np.array([99999], dtype=np.uint64))


def test_score_against_truth_grouping():
    truth = GroundTruthTable(
        user_ids=np.array([1, 2, 3, 4], dtype=np.uint64),
        home_towers=np.array([100, 101, 102, 103], dtype=np.int64),
        work_towers=np.array([100, 101, 102, 103], dtype=np.int64),
        migration_towers=np.array([-1, 110, -1, 111], dtype=np.int64),
    )
    assignments = {
        "MA": BulkAssignments(
            truth.user_ids,
            np.array([100, 999, 102, -1], dtype=np.int64),
            np.full(4, 3, dtype=np.int64), np.zeros(4, dtype=bool),
        )
    }
    overlap_win = ObservationWindow(
        date(2007, 6, 1), date(2007, 6, 14), "w", "custom"
    )
    migration = DatasetSpan(date(2007, 6, 10), date(2007, 8, 31))
    rows = score_against_truth(assignments, truth, overlap_win, migration)
    assert rows == [
        ("MA", "w", "all", 4, 2),
        ("MA", "w", "migrant", 2, 0),
        ("MA", "w", "non_migrant", 2, 2),
    ]

    # window before the range: nobody counts as a migrant there
    clean_win = ObservationWindow(date(2007, 5, 1), date(2007, 5, 14), "w", "custom")
    rows2 = score_against_truth(assignments, truth, clean_win, migration)
    assert rows2[1] == ("MA", "w", "migrant", 0, 0)
    assert accuracy_csv(rows2) == (
        "hda,window,group,n_users,n_correct,accuracy\n"
        "MA,w,all,4,2,0.5\n"
        "MA,w,migrant,0,0,\n"
        "MA,w,non_migrant,4,2,0.5\n"
    )


def test_an_unassigned_user_never_matches_a_truth_home_of_minus_one():
    truth = GroundTruthTable(
        user_ids=np.array([1, 2], dtype=np.uint64),
        home_towers=np.array([-1, 100], dtype=np.int64),
        work_towers=np.array([100, 100], dtype=np.int64),
        migration_towers=np.array([-1, -1], dtype=np.int64),
    )
    unassigned_first = BulkAssignments(
        truth.user_ids, np.array([-1, 100], dtype=np.int64),
        np.array([0, 3], dtype=np.int64), np.zeros(2, dtype=bool),
    )
    window = ObservationWindow(date(2007, 6, 1), date(2007, 6, 14), "w", "custom")
    rows = score_against_truth({"MA": unassigned_first}, truth, window)
    assert rows[0] == ("MA", "w", "all", 2, 1)


def test_detection_on_calm_data_is_accurate():
    res = generate(_cfg(daily_event_rate=6.0))
    part = one_partition(
        res.users, res.towers, res.timestamps, clock=CivilClock()
    )[0]
    window = ObservationWindow(SPAN30.first_day, SPAN30.last_day, "full", "full")
    for name in ("MA", "DD", "TC-19-9"):
        bulk = detect_homes_bulk(part, window, canonical_hda(name))
        rows = score_against_truth({name: bulk}, res.truth, window)
        _, _, group, n_users, n_correct = rows[0]
        assert group == "all" and n_correct / n_users > 0.9, (name, rows[0])


def test_summer_scenario_config():
    cfg = summer_scenario(seed=3, n_towers=20, n_population=800)
    assert cfg.migration is not None
    assert cfg.migration.fraction == 0.3
    assert cfg.migration.min_stay_days == 30
    assert len(cfg.migration.touristic_towers) == 6
    assert cfg.span == SPAN
    echo = cfg.echo()
    assert echo["min_stay_days"] == "30"
    assert echo["migration_range"] == "2007-06-01..2007-09-30"
    assert echo["n_subscribers"] == "224"
    assert echo["event_count_family"] == "geometric_zero_based"
    reg = build_registry(3, 20, 800)
    assert cfg.migration.touristic_towers == pick_touristic_towers(reg, 6)
    res = generate(cfg)
    assert res.n_records > 0
