"""Release gate: one check per hard guarantee, one summary line each.

Every test here prints a single PASS/FAIL line through acceptance_log so
the terminal summary ends with the complete scorecard. Tolerances are
pinned in the assertions; the throughput checks are tracked but never fail
the suite.
"""

import math
import time
from datetime import date

import numpy as np
import pytest

from cdrhomes.core import (
    DatasetSpan, TowerRegistry, ingest, partition_records, write_records_csv,
)
from cdrhomes.hda import CANONICAL_HDAS, canonical_hda, detect_homes_bulk
from cdrhomes.metrics import log_ratio_array, pearson_r
from cdrhomes.sweep import SweepOptions, run_sweep
from cdrhomes.synth import (
    SynthConfig,
    generate,
    score_against_truth,
    summer_scenario,
)
from cdrhomes.timebase import CivilClock
from cdrhomes.windows import generate_windows

from acceptance_log import log
from oracles import (
    brute_force_home, records_by_user, two_pass_pearson, user_fields,
)

CLOCK = CivilClock("Europe/Paris")


def _check(name: str, ok: bool, detail: str):
    log(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _parts(res, n_partitions=2):
    return partition_records(
        res.users, res.towers, res.timestamps,
        *CivilClock(res.config.tz_name).local_fields(res.timestamps),
        n_partitions=n_partitions,
    )


def test_bulk_engine_equals_brute_force_reference():
    # >= 1000 subscribers on >= 50 towers over a 30-day span, all 9 HDAs
    cfg = summer_scenario(
        401,
        n_towers=60,
        n_population=4000,
        span=DatasetSpan(date(2007, 6, 1), date(2007, 6, 30)),
        migration_range=(date(2007, 6, 8), date(2007, 6, 24)),
        min_stay_days=7,
        daily_event_rate=2.5,
    )
    res = generate(cfg)
    part = _parts(res, 1)[0]
    window = generate_windows(cfg.span, classes=("full",))[0]
    assert part.n_users >= 1000 and len(res.registry) >= 50

    started = time.perf_counter()
    # each user's records straight from the generator's arrays, so a record
    # the partition dropped or duplicated shows as a mismatch
    records = records_by_user(res.users, res.towers, res.timestamps)
    per_user = [records[uid] + (user_fields(records[uid][1]),)
                for uid in part.user_ids.tolist()]
    mismatches = int(part.user_ids.tolist() != sorted(records))
    mismatches += abs(part.n_records - len(res.users))

    for spec in CANONICAL_HDAS:
        bulk = detect_homes_bulk(part, window, spec)
        for i, (tw, ts, fields) in enumerate(per_user):
            want = brute_force_home(
                spec, tw, ts, fields, window.first_day, window.last_day
            )
            got_home = int(bulk.home_towers[i]) if bulk.home_towers[i] >= 0 else None
            got = (got_home, int(bulk.qualifying[i]), bool(bulk.tie_broken[i]))
            mismatches += got != want
    elapsed = time.perf_counter() - started

    _check(
        "oracle equivalence",
        mismatches == 0 and elapsed < 30.0,
        f"9 HDAs x {part.n_users} users vs brute force: "
        f"{mismatches} mismatches in {elapsed:.1f}s (budget 30s)",
    )


def test_window_grid_fixture():
    wins = generate_windows(DatasetSpan.parse("2007-05-13..2007-10-13"))
    by_class = {}
    for w in wins:
        by_class.setdefault(w.duration_class, []).append(w)
    first14 = by_class["days14"][0]
    first30 = by_class["days30"][0]
    ok = (
        len(wins) == 23
        and [len(by_class[c]) for c in ("days14", "days30", "month", "full")]
        == [11, 5, 6, 1]
        and (first14.first_day, first14.last_day)
        == (date(2007, 5, 13), date(2007, 5, 26))
        and (first30.first_day, first30.last_day)
        == (date(2007, 5, 13), date(2007, 6, 11))
        and by_class["full"][0].last_day == date(2007, 10, 13)
    )
    _check(
        "window grid",
        ok,
        f"{len(wins)} windows (11+5+6+1); 14d-01 {first14.first_day}..{first14.last_day}, "
        f"30d-01 ends {first30.last_day}",
    )


def test_correlation_engine_tolerances():
    x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    d_ident = abs(pearson_r(x, x) - 1.0)
    d_hand = abs(pearson_r([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) - 0.5)
    d_log = abs(log_ratio_array([28], [100])[0] - math.log(0.28))

    rng = np.random.default_rng(20070513)
    big_x = rng.normal(size=1_000_000)
    big_y = 0.3 * big_x + 0.9 * rng.normal(size=1_000_000) + 5.0
    d_pass = abs(pearson_r(big_x, big_y) - two_pass_pearson(big_x, big_y))

    ok = d_ident < 1e-12 and d_hand < 1e-12 and d_log < 1e-9 and d_pass < 1e-9
    _check(
        "correlation engine",
        ok,
        f"identity {d_ident:.1e}, hand case {d_hand:.1e} (tol 1e-12); "
        f"log-ratio {d_log:.1e}, 1e6-element engine vs oracle two pass {d_pass:.1e} (tol 1e-9)",
    )


def test_noise_free_generator_is_exactly_recoverable():
    cfg = SynthConfig(
        seed=77,
        n_towers=30,
        n_population=1200,
        span=DatasetSpan(date(2007, 6, 1), date(2007, 6, 30)),
        daily_event_rate=3.0,
        home_call_share_night=1.0,
        home_call_share_day=1.0,
        work_call_share_day=0.0,
    )
    res = generate(cfg)
    part = _parts(res, 1)[0]
    window = generate_windows(cfg.span, classes=("full",))[0]
    accs = {}
    for name in ("MA", "DD"):
        bulk = detect_homes_bulk(part, window, canonical_hda(name))
        rows = score_against_truth({name: bulk}, res.truth, window)
        _, _, group, n_users, n_correct = rows[0]  # the "all" group comes first
        assert group == "all"
        accs[name] = n_correct / n_users
    ok = accs["MA"] == 1.0 and accs["DD"] == 1.0
    _check(
        "noise-free recovery",
        ok,
        f"all-home traffic: MA accuracy {accs['MA']}, DD accuracy {accs['DD']} "
        f"(exactly 1.0 required)",
    )


@pytest.fixture(scope="module")
def summer_runs():
    """Ten seeded relocation scenarios, each swept over 14d + full windows."""
    runs = []
    for seed in range(1, 11):
        cfg = summer_scenario(seed)
        res = generate(cfg)
        wins = generate_windows(cfg.span, classes=("days14", "full"))
        sweep, _ = run_sweep(_parts(res), res.registry, wins, CANONICAL_HDAS)
        mig = cfg.migration
        overlapping, clean = [], []
        for w in wins:
            if w.duration_class != "days14":
                continue
            hit = w.last_day >= mig.first_day and w.first_day <= mig.last_day
            (overlapping if hit else clean).append(w.label)
        r = {
            (spec.name, w.label): pearson_r(
                sweep.reports[(spec.name, w.label)]["x"], res.registry.population
            )
            for spec in CANONICAL_HDAS
            for w in wins
        }
        runs.append((seed, overlapping, clean, r))
    return runs


def test_migration_degrades_overlapping_windows(summer_runs):
    worst = None
    for seed, overlapping, clean, r in summer_runs:
        assert overlapping and clean
        for spec in CANONICAL_HDAS:
            gap = float(
                np.mean([r[(spec.name, w)] for w in clean])
                - np.mean([r[(spec.name, w)] for w in overlapping])
            )
            entry = (gap, seed, spec.name)
            worst = entry if worst is None or entry < worst else worst
    gap, seed, name = worst
    _check(
        "migration distortion",
        gap >= 0.05,
        f"clean-minus-overlapping 14d Pearson gap >= 0.05 for all 9 HDAs on "
        f"10 seeds; smallest gap {gap:+.3f} ({name}, seed {seed})",
    )


def test_full_span_sits_between_window_extremes(summer_runs):
    violations = []
    margin = math.inf
    for seed, overlapping, clean, r in summer_runs:
        for spec in CANONICAL_HDAS:
            shorts = [r[(spec.name, w)] for w in overlapping + clean]
            full = r[(spec.name, "full")]
            lo, hi = min(shorts), max(shorts)
            margin = min(margin, full - lo, hi - full)
            if not lo <= full <= hi:
                violations.append((seed, spec.name, lo, full, hi))
    _check(
        "full-span bracketing",
        not violations,
        f"full-span Pearson within [worst, best] 14d window for all 9 HDAs on "
        f"10 seeds; tightest margin {margin:+.3f}; violations: {violations or 'none'}",
    )


def test_worker_count_never_changes_results(tmp_path):
    cfg = summer_scenario(31, n_population=2000)
    res = generate(cfg)
    parts = _parts(res, 4)
    wins = generate_windows(cfg.span)
    outs = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        run_sweep(
            parts, res.registry, wins, CANONICAL_HDAS, out,
            SweepOptions(workers=workers),
        )
        outs.append((out / "metrics.csv").read_bytes())
    ok = outs[0] == outs[1] and outs[0].count(b"\n") == 1 + 23 * 9
    _check(
        "parallel determinism",
        ok,
        f"metrics.csv over {23 * 9} cells byte-identical between 1 and 8 workers",
    )


def test_single_hda_throughput_over_ten_million_records():
    n = 10_000_000
    rng = np.random.default_rng(8)
    users = rng.integers(1, 5001, n, dtype=np.uint64)
    towers = rng.integers(1, 201, n)
    t0 = CLOCK.midnight_epoch(date(2007, 5, 13))
    t1 = CLOCK.midnight_epoch(date(2007, 10, 14))
    stamps = rng.integers(t0, t1, n)
    parts = partition_records(users, towers, stamps, *CLOCK.local_fields(stamps))
    window = generate_windows(
        DatasetSpan(date(2007, 5, 13), date(2007, 10, 13)), classes=("full",)
    )[0]

    started = time.perf_counter()
    bulk = detect_homes_bulk(parts[0], window, canonical_hda("TC-19-9"))
    elapsed = time.perf_counter() - started

    assert (bulk.home_towers >= 0).sum() == 5000
    verdict = "PASS" if elapsed < 60.0 else "MISS"
    log(
        f"{verdict} throughput (tracked): TC-19-9 over {n:,} records in "
        f"{elapsed:.1f}s (target 60s, not a gate)"
    )


def test_ingest_throughput_over_two_million_lines(tmp_path):
    n = 2_000_000
    rng = np.random.default_rng(19)
    users = rng.integers(1, 20_001, n, dtype=np.uint64).tolist()
    towers = rng.integers(1, 301, n).tolist()
    span = DatasetSpan(date(2007, 5, 13), date(2007, 10, 13))
    t0 = CLOCK.midnight_epoch(span.first_day)
    t1 = CLOCK.midnight_epoch(date(2007, 10, 14))
    stamps = np.sort(rng.integers(t0, t1, n))
    iso = rng.random(n) < 0.05
    path = tmp_path / "records.csv"
    with open(path, "w") as fh:
        fh.write("user_id,tower_id,timestamp\n")
        for lo in range(0, n, 1 << 16):
            hi = min(lo + (1 << 16), n)
            texts = stamps[lo:hi].astype(str).astype(object)
            rows = np.flatnonzero(iso[lo:hi])
            # wall-clock text: summer time holds over the span
            texts[rows] = np.datetime_as_string(
                (stamps[lo:hi][rows] + 7200).astype("datetime64[s]")
            )
            fh.write("".join([f"{u},{t},{s}\n" for u, t, s in
                              zip(users[lo:hi], towers[lo:hi], texts.tolist())]))
    del users, towers, stamps
    registry = TowerRegistry(np.arange(1, 301), np.zeros(300), np.zeros(300),
                             np.ones(300, dtype=np.int64))

    started = time.perf_counter()
    _, report = ingest(path, registry, span, clock=CLOCK)
    elapsed = time.perf_counter() - started

    assert report.total_lines == n and report.accepted == n
    rate = n / elapsed
    verdict = "PASS" if rate >= 1_000_000 else "MISS"
    log(
        f"{verdict} ingest throughput (tracked): {n:,} lines, "
        f"{int(iso.sum()):,} of them ISO local time, in {elapsed:.1f}s = "
        f"{rate:,.0f} lines/s (target 1,000,000 lines/s, not a gate)"
    )


def test_setup_throughput_at_population_12500(tmp_path):
    # the inputs of the benchmark's ingest-mixed workload, before its rewrite
    cfg = summer_scenario(1, n_towers=300, n_population=12_500)

    started = time.perf_counter()
    res = generate(cfg)
    generated = time.perf_counter()
    write_records_csv(tmp_path / "records.csv", res.users, res.towers, res.timestamps)
    written = time.perf_counter()
    elapsed, writing = written - started, written - generated

    n = res.n_records
    assert (tmp_path / "records.csv").stat().st_size > n * 10
    rate = n / elapsed
    verdict = "PASS" if rate >= 1_000_000 else "MISS"
    log(
        f"{verdict} set-up throughput (tracked): generate + write_records_csv of "
        f"{n:,} records in {elapsed:.2f}s = {rate:,.0f} records/s "
        f"(target 1,000,000 records/s, not a gate); write_records_csv alone "
        f"{writing:.3f}s = {n / writing:,.0f} records/s"
    )
