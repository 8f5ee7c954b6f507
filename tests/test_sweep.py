"""Sweep runner: persistence, resume, parallel determinism, failure isolation."""

import concurrent.futures
import fnmatch
import json
import multiprocessing
import os
import re
import shutil
import sys
import time
from dataclasses import asdict
from datetime import date

import numpy as np
import pytest

from cdrhomes import core
from cdrhomes import sweep as sweep_mod
from cdrhomes.cli import main
from cdrhomes.core import DatasetSpan, TowerRegistry
from cdrhomes.hda import (
    CANONICAL_HDA_NAMES, BulkAssignments, aggregate_homes, canonical_hda,
    detect_homes_bulk,
)
from cdrhomes.metrics import compute_metric_report, log_ratio_array
from cdrhomes.sweep import SweepOptions, emit_reports, load_run, run_sweep
from cdrhomes.synth import SynthConfig, MigrationConfig, generate
from cdrhomes.timebase import CivilClock
from cdrhomes.windows import ObservationWindow, generate_windows

from conftest import one_partition
from oracles import partition_of

SPAN = DatasetSpan.parse("2007-06-01..2007-07-14")
HDAS = [canonical_hda(name) for name in ("MA", "DD", "TC-19-9")]


def _dataset(seed=9, fraction=0.0):
    migration = None
    if fraction:
        migration = MigrationConfig(
            date(2007, 6, 10), date(2007, 7, 5), fraction, (1, 2), min_stay_days=7
        )
    cfg = SynthConfig(
        seed=seed,
        n_towers=15,
        n_population=700,
        span=SPAN,
        daily_event_rate=2.5,
        migration=migration,
    )
    res = generate(cfg)
    parts = one_partition(
        res.users, res.towers, res.timestamps,
        clock=CivilClock(cfg.tz_name), n_partitions=2,
    )
    wins = generate_windows(SPAN, classes=("days14", "full"))
    return res, parts, wins


def test_in_memory_sweep_covers_grid():
    res, parts, wins = _dataset()
    sw, manifest = run_sweep(parts, res.registry, wins, HDAS)
    assert sw.n_cells == len(wins) * len(HDAS)
    assert len(sw.reports) == sw.n_cells
    assert sw.n_failed == 0
    rep = sw.reports[("MA", "full")]
    assert 0 < sum(rep["x"]) <= len(res.truth)  # every placed user, once
    assert manifest["n_cells"] == sw.n_cells
    assert manifest["n_failed"] == 0
    assert json.loads(json.dumps(manifest)) == manifest


def test_progress_goes_to_stderr_only_when_it_is_a_terminal(monkeypatch, capsys):
    res, parts, wins = _dataset()
    full = [w for w in wins if w.duration_class == "full"]
    run_sweep(parts, res.registry, full, HDAS)
    assert capsys.readouterr().err == ""

    monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
    run_sweep(parts, res.registry, full, HDAS)
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    lines = err.rstrip("\n").split("\r")[1:]  # each update overwrites the last
    assert [line.split(",")[0] for line in lines] == [f"cells {i}/3" for i in (1, 2, 3)]
    assert all(re.fullmatch(r"cells \d/3, ETA \d+ s", line) for line in lines)
    assert lines[-1] == "cells 3/3, ETA 0 s"


def test_sweep_forks_no_more_workers_than_cells(monkeypatch):
    # a fork pool starts all its workers at once; a one-thread pool stands
    # in for it and records the pool size asked for (its thread runs the
    # initializer, which fills in this process's module state: monkeypatch
    # restores it)
    asked = []

    class OneThreadPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, mp_context=None, initializer=None,
                     initargs=()):
            asked.append(max_workers)
            super().__init__(max_workers=1, initializer=initializer,
                             initargs=initargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OneThreadPool)
    monkeypatch.setattr(sweep_mod, "_STATE", {})
    res, parts, wins = _dataset()
    full = [w for w in wins if w.duration_class == "full"]
    sw, _ = run_sweep(
        parts, res.registry, full, HDAS[:2], options=SweepOptions(workers=8)
    )
    assert asked == [2]
    assert sw.n_failed == 0 and len(sw.reports) == 2


def test_without_fork_two_workers_write_what_one_writes(tmp_path, monkeypatch):
    # a platform without the fork start method runs every cell in-process
    res, parts, wins = _dataset(fraction=0.3)

    def sweep(out, workers):
        _, manifest = run_sweep(
            parts, res.registry, wins, HDAS, out,
            SweepOptions(workers=workers, dump_assignments=True),
            truth=res.truth, migration=res.config.migration,
        )
        assert manifest["stages"]["workers_peak_rss_mb"] is None  # no pool ran
        return _run_files(out)

    want = sweep(tmp_path / "one", 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert sweep(tmp_path / "two", 2) == want
    assert len(load_run(tmp_path / "two").reports) == len(wins) * len(HDAS)


def test_sweep_writes_expected_files(tmp_path):
    res, parts, wins = _dataset(fraction=0.3)
    out = tmp_path / "run"
    sw, returned = run_sweep(
        parts, res.registry, wins, HDAS, out,
        SweepOptions(dump_assignments=True),
        truth=res.truth, migration=res.config.migration,
        span=str(SPAN), tz_name=res.config.tz_name,
    )
    for name in (
        "manifest.json", "cells.jsonl", "windows.csv", "metrics.csv",
        "correlation_over_time.csv", "duration_sensitivity.csv",
        "criteria_sensitivity.csv", "decile_summary.csv", "accuracy.csv",
        "correlation_over_time_days14.svg", "duration_sensitivity.svg",
        "criteria_sensitivity.svg",
    ):
        assert (out / name).exists(), name

    metrics = (out / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == "hda,window,class,pearson_r,n_used,excluded"
    assert len(metrics) == 1 + sw.n_cells

    cells = [json.loads(l) for l in (out / "cells.jsonl").read_text().splitlines()]
    assert len(cells) == sw.n_cells
    assert all(c["status"] == "ok" for c in cells)

    towers = list((out / "towers").glob("*.csv"))
    assert len(towers) == sw.n_cells
    header = towers[0].read_text().split("\n")[0]
    assert header == "tower_id,lon,lat,x,y,logratio"

    dumps = list((out / "assignments").glob("*.csv"))
    assert len(dumps) == sw.n_cells
    lines = (out / "assignments" / "MA__full.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + len(res.truth)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "cdrhomes"
    assert manifest["n_partitions"] == 2
    assert manifest == returned
    assert manifest["failed_cells"] == []

    acc = (out / "accuracy.csv").read_text().strip().split("\n")
    assert acc[0] == "hda,window,group,n_users,n_correct,accuracy"
    # one row per (cell, group)
    assert len(acc) == 1 + sw.n_cells * 3


def test_sweep_deterministic_across_runs_and_workers(tmp_path):
    res, parts, wins = _dataset()
    outs = []
    for i, workers in enumerate((1, 1, 2)):
        out = tmp_path / f"run{i}"
        run_sweep(
            parts, res.registry, wins, HDAS, out, SweepOptions(workers=workers)
        )
        outs.append(out)
    names = [
        "metrics.csv", "correlation_over_time.csv", "duration_sensitivity.csv",
        "criteria_sensitivity.csv", "decile_summary.csv", "windows.csv",
        "duration_sensitivity.svg",
    ]
    names += [f"towers/{p.name}" for p in (outs[0] / "towers").glob("*.csv")]
    for name in names:
        base = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == base, name
        assert (outs[2] / name).read_bytes() == base, name


def test_cells_log_holds_the_records_in_grid_order_at_any_worker_count(
    tmp_path, monkeypatch
):
    # the grid's first cell is the slowest, so a worker finishes others
    # before it; the sweep still appends its record first. 63 cells go to 2
    # and 3 workers in chunks of 3 and 2 cells
    res, parts, _ = _dataset()
    wins = generate_windows(SPAN)
    hdas = [canonical_hda(name) for name in CANONICAL_HDA_NAMES]
    real = sweep_mod.detect_homes_bulk

    def slow_first(part, window, spec, **kwargs):
        if (spec.name, window.label) == (hdas[0].name, wins[0].label):
            time.sleep(0.2)
        return real(part, window, spec, **kwargs)

    monkeypatch.setattr(sweep_mod, "detect_homes_bulk", slow_first)
    logs, files = [], []
    assert len(wins) * len(hdas) // (sweep_mod._CHUNKS_PER_WORKER * 3) > 1
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        run_sweep(parts, res.registry, wins, hdas, out,
                  SweepOptions(workers=workers, dump_assignments=True))
        recs = [json.loads(l) for l in (out / "cells.jsonl").read_text().splitlines()]
        logs.append([{k: v for k, v in r.items() if k != "elapsed"} for r in recs])
        files.append(_run_files(out))
    assert [(r["hda"], r["window"]) for r in logs[0]] == [
        (spec.name, w.label) for spec in hdas for w in wins
    ]
    assert logs[1] == logs[2] == logs[0]
    assert files[1] == files[2] == files[0]
    assert len([f for f in files[0] if f.startswith("assignments/")]) == len(logs[0])


def test_sweep_resume_skips_completed_cells(tmp_path):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions())
    want = (out / "metrics.csv").read_bytes()
    all_lines = (out / "cells.jsonl").read_text().splitlines()

    # simulate a run killed after 4 cells, with a torn final write
    (out / "cells.jsonl").write_text(
        "\n".join(all_lines[:4]) + '\n{"hda": "MA", "window": "full", "st'
    )
    sw, _ = run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions(resume=True))
    assert sw.n_failed == 0
    assert (out / "metrics.csv").read_bytes() == want
    resumed = (out / "cells.jsonl").read_text().splitlines()
    # 4 kept + recomputed remainder; the resume's rewrite dropped the torn line
    assert resumed[:4] == all_lines[:4]
    cells = [json.loads(l) for l in resumed]
    assert len(cells) == sw.n_cells
    assert all(c["status"] == "ok" for c in cells)


DAMAGE = {
    "no-x": lambda rec: rec.pop("x"),
    "x-short": lambda rec: rec["x"].pop(),
    "x-count-text": lambda rec: rec["x"].__setitem__(0, "3"),
    "x-beyond-int64": lambda rec: rec["x"].__setitem__(0, 2**70),
    "x-negative": lambda rec: rec["x"].__setitem__(0, -3),
    "no-accuracy": lambda rec: rec.pop("accuracy"),
    "accuracy-number": lambda rec: rec.update(accuracy=5),
    "accuracy-row-long": lambda rec: rec["accuracy"][0].append(1),
    "accuracy-count-text": lambda rec: rec["accuracy"][0].__setitem__(1, "9"),
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_unreadable_ok_record_is_skipped_by_report_and_recomputed_by_resume(
    tmp_path, capsys, damage
):
    res, parts, wins = _dataset(fraction=0.3)
    out = tmp_path / "run"
    scored = {"truth": res.truth, "migration": res.config.migration}
    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions(), **scored)
    want = _run_files(out)
    lines = (out / "cells.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    damage(rec)
    lines[2] = json.dumps(rec)
    (out / "cells.jsonl").write_text("\n".join(lines) + "\n")

    assert main(["report", "--out", str(out)]) == 0
    assert "skipped 1 unparseable line(s)" in capsys.readouterr().err
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert len(metrics) == len(lines)  # the header, and every other cell
    assert not any(m.startswith(f"{rec['hda']},{rec['window']},") for m in metrics)

    sw, _ = run_sweep(
        parts, res.registry, wins, HDAS, out, SweepOptions(resume=True), **scored
    )
    assert sw.n_failed == 0 and len(sw.reports) == sw.n_cells
    assert _run_files(out) == want


# the statistics of x that records of earlier versions carried, damaged or
# contradicting x: the reports compute each from x and read none of them
STALE = {
    "no-pearson": lambda rec: rec.pop("pearson"),
    "pearson-text": lambda rec: rec.update(pearson="0.5"),
    "pearson-infinite": lambda rec: rec.update(pearson=float("inf")),
    "pearson-above-one": lambda rec: rec.update(pearson=1.5),
    "pearson-contradicts-x": lambda rec: rec.update(pearson=-0.25),
    "n-used-text": lambda rec: rec.update(n_used="12"),
    "n-excluded-float": lambda rec: rec.update(n_excluded=0.0),
    "no-n-excluded": lambda rec: rec.pop("n_excluded"),
    "n-used-contradicts-x": lambda rec: rec.update(n_used=1, n_excluded=14),
    "deciles-number": lambda rec: rec.update(deciles=5),
    "decile-row-short": lambda rec: rec["deciles"][0].pop(),
    "decile-value-text": lambda rec: rec["deciles"][0].__setitem__(2, "x"),
    "decile-infinite": lambda rec: rec["deciles"][0].__setitem__(4, float("inf")),
    "decile-beyond-float": lambda rec: rec["deciles"][0].__setitem__(2, 10**400),
    "deciles-contradict-x": lambda rec: rec.update(deciles=rec["deciles"][::-1]),
}


@pytest.mark.parametrize("stale", STALE.values(), ids=STALE.keys())
def test_report_reads_each_statistic_from_x_alone(tmp_path, capsys, stale):
    res, parts, wins = _dataset(fraction=0.3)
    out = tmp_path / "run"
    scored = {"truth": res.truth, "migration": res.config.migration}
    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions(), **scored)
    want = _run_files(out)
    lines = (out / "cells.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    assert not {"pearson", "pearson_note", "n_used", "n_excluded", "deciles",
                "n_users"} & set(rec)
    rec.update(compute_metric_report(np.array(rec["x"]), res.registry.population),
               n_users=len(res.truth))
    stale(rec)
    lines[2] = json.dumps(rec)
    (out / "cells.jsonl").write_text("\n".join(lines) + "\n")

    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert _run_files(out) == want
    # a resume keeps the record as it is, and reports the same
    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions(resume=True), **scored)
    assert capsys.readouterr().err == ""
    assert json.loads((out / "cells.jsonl").read_text().splitlines()[2]) == rec
    assert _run_files(out) == want


def _run_files(out) -> dict:
    """{relative path: bytes} of a run directory, less the two files that
    carry timings (manifest.json and cells.jsonl)."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name not in ("manifest.json", "cells.jsonl")
    }


def _make_unreadable(log, hda, label) -> None:
    """Put a negative count in the x of the (hda, label) record of log."""
    lines = log.read_text().splitlines()
    i = next(i for i, l in enumerate(lines)
             if (json.loads(l)["hda"], json.loads(l)["window"]) == (hda, label))
    lines[i] = lines[i].replace('"x": [', '"x": [-1, ')
    log.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workers", [1, 2])
def test_resume_after_a_kill_between_cell_files_and_record(
    tmp_path, monkeypatch, workers, capsys
):
    res, parts, wins = _dataset()
    dumps = SweepOptions(dump_assignments=True)
    fresh = tmp_path / "fresh"
    run_sweep(parts, res.registry, wins, HDAS, fresh, dumps)

    # writing one cell's assignment dump fails, in the sweep process, which
    # writes every file: the sweep aborts, and the cell is not recorded
    out = tmp_path / "run"
    real = sweep_mod._write_assignment_dump

    def fails_on_one_cell(path, dump):
        if path.name == "MA__14d-03.csv":
            raise OSError(f"cannot write {path}")
        real(path, dump)

    monkeypatch.setattr(sweep_mod, "_write_assignment_dump", fails_on_one_cell)
    with pytest.raises(OSError, match="MA__14d-03"):
        run_sweep(parts, res.registry, wins, HDAS, out,
                  SweepOptions(workers=workers, dump_assignments=True))
    monkeypatch.setattr(sweep_mod, "_write_assignment_dump", real)
    log = out / "cells.jsonl"
    recorded = [json.loads(l) for l in log.read_text().splitlines()] if log.exists() else []
    assert ("MA", "14d-03") not in {(r["hda"], r["window"]) for r in recorded}

    run_sweep(parts, res.registry, wins, HDAS, out,
              SweepOptions(resume=True, dump_assignments=True))
    files = _run_files(out)
    assert "assignments/MA__14d-03.csv" in files
    assert files == _run_files(fresh)

    # a resume of the finished run is killed the same way, after it has
    # dropped the unreadable record of that cell: it has removed the earlier
    # manifest and reports first, so the directory is a killed run's, which
    # report refuses, and the next resume completes it
    _make_unreadable(log, "MA", "14d-03")
    monkeypatch.setattr(sweep_mod, "_write_assignment_dump", fails_on_one_cell)
    with pytest.raises(OSError, match="MA__14d-03"):
        run_sweep(parts, res.registry, wins, HDAS, out,
                  SweepOptions(workers=workers, resume=True, dump_assignments=True))
    monkeypatch.setattr(sweep_mod, "_write_assignment_dump", real)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: no manifest.json in {out}; run sweep first\n"
    )
    run_sweep(parts, res.registry, wins, HDAS, out,
              SweepOptions(resume=True, dump_assignments=True))
    assert _run_files(out) == _run_files(fresh)


def test_resume_whose_recomputed_cell_fails_leaves_what_a_fresh_run_leaves(
    tmp_path, monkeypatch
):
    res, parts, wins = _dataset()
    dumps = SweepOptions(dump_assignments=True)
    out = tmp_path / "run"
    run_sweep(parts, res.registry, wins, HDAS, out, dumps)
    # the MA|14d-01 record becomes unreadable, so a resume computes it again
    _make_unreadable(out / "cells.jsonl", "MA", "14d-01")

    real = sweep_mod.detect_homes_bulk

    def fails_on_one_cell(part, window, spec, **kwargs):
        if (spec.name, window.label) == ("MA", "14d-01"):
            raise RuntimeError("detection failed")
        return real(part, window, spec, **kwargs)

    monkeypatch.setattr(sweep_mod, "detect_homes_bulk", fails_on_one_cell)
    sw, _ = run_sweep(parts, res.registry, wins, HDAS, out,
                      SweepOptions(resume=True, dump_assignments=True))
    fresh = tmp_path / "fresh"
    sw_fresh, _ = run_sweep(parts, res.registry, wins, HDAS, fresh, dumps)
    assert sw.errors.keys() == sw_fresh.errors.keys() == {("MA", "14d-01")}
    files = _run_files(out)
    assert "assignments/MA__14d-01.csv" not in files
    assert files == _run_files(fresh)


def test_a_failed_record_is_reported_as_missing_and_computed_again_by_resume(
    tmp_path, monkeypatch, capsys
):
    res, parts, wins = _dataset()
    dumps = SweepOptions(dump_assignments=True)
    out = tmp_path / "run"
    real = sweep_mod.detect_homes_bulk
    failing, computed = {("MA", "14d-01")}, []

    def counted(part, window, spec, **kwargs):
        computed.append((spec.name, window.label))
        if (spec.name, window.label) in failing:
            raise RuntimeError("detection failed")
        return real(part, window, spec, **kwargs)

    monkeypatch.setattr(sweep_mod, "detect_homes_bulk", counted)
    sw, _ = run_sweep(parts, res.registry, wins, HDAS, out, dumps)
    assert sw.errors.keys() == {("MA", "14d-01")}
    want = _run_files(out)
    capsys.readouterr()
    # the failed record is a cell without results: report writes what the
    # sweep wrote, and says nothing of it
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert _run_files(out) == want

    failing.clear()
    computed.clear()
    sw, _ = run_sweep(parts, res.registry, wins, HDAS, out,
                      SweepOptions(resume=True, dump_assignments=True))
    assert computed == [("MA", "14d-01")] * len(parts)
    assert sw.n_failed == 0
    fresh = tmp_path / "fresh"
    run_sweep(parts, res.registry, wins, HDAS, fresh, dumps)
    assert _run_files(out) == _run_files(fresh)


def test_a_raising_cell_cancels_the_cells_still_queued(tmp_path, monkeypatch):
    # the first cell's assignment dump fails at once in the sweep process;
    # every other cell leaves a marker and sleeps in its forked worker, so
    # the failure surfaces while all but the pool's running and pre-queued
    # cells are still waiting
    res, parts, wins = _dataset()
    assert len(wins) * len(HDAS) == 12
    out, computed = tmp_path / "run", tmp_path / "computed"
    computed.mkdir()
    real_compute, real_write = sweep_mod._compute_cell, sweep_mod._write_assignment_dump
    parent = os.getpid()
    first = f"{HDAS[0].name}__{wins[0].label}.csv"

    def marks_and_sleeps(state, h_idx, w_idx):
        if (h_idx, w_idx) != (0, 0) and os.getpid() != parent:
            (computed / f"{h_idx}-{w_idx}").touch()
            time.sleep(0.5)
        return real_compute(state, h_idx, w_idx)

    def fails_first(path, dump):
        if path.name == first:
            raise OSError(f"cannot write {path}")
        real_write(path, dump)

    monkeypatch.setattr(sweep_mod, "_compute_cell", marks_and_sleeps)
    monkeypatch.setattr(sweep_mod, "_write_assignment_dump", fails_first)
    workers = 2
    with pytest.raises(OSError, match=first):
        run_sweep(parts, res.registry, wins, HDAS, out,
                  SweepOptions(workers=workers, dump_assignments=True))
    ran = sorted(p.name for p in computed.iterdir())
    assert len(ran) <= 2 * workers + 1, ran
    assert list((out / "assignments").iterdir()) == []


def test_the_sweep_process_creates_every_file_of_the_run(tmp_path, monkeypatch):
    # 63 cells at 2 workers go to the pool in chunks of 3 cells; every file
    # of the run directory is created by write_atomic in the sweep process
    res, parts, _ = _dataset()
    wins = generate_windows(SPAN)
    hdas = [canonical_hda(name) for name in CANONICAL_HDA_NAMES]
    workers = 2
    assert len(wins) * len(hdas) // (sweep_mod._CHUNKS_PER_WORKER * workers) > 1
    out, log = tmp_path / "run", tmp_path / "writers.txt"
    real = sweep_mod.write_atomic

    def logs_its_process(path, data):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {path}\n")
        real(path, data)

    monkeypatch.setattr(sweep_mod, "write_atomic", logs_its_process)
    run_sweep(parts, res.registry, wins, hdas, out,
              SweepOptions(workers=workers, dump_assignments=True))
    writers = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert {pid for pid, _ in writers} == {str(os.getpid())}
    files = {str(p) for p in out.rglob("*") if p.is_file()}
    assert files <= {path for _, path in writers}
    assert len(list((out / "assignments").iterdir())) == len(wins) * len(hdas)


def _tower_export_oracle(registry, x) -> str:
    """A cell's tower export, formatted line by line from the registry and
    the cell's x."""
    lr = log_ratio_array(x, registry.population)
    lines = ["tower_id,lon,lat,x,y,logratio"] + [
        f"{tid},{lon!r},{lat!r},{xi},{y},{'' if v != v else repr(v)}"
        for tid, lon, lat, xi, y, v in zip(
            registry.tower_ids.tolist(), registry.lon.tolist(),
            registry.lat.tolist(), np.asarray(x, dtype=np.int64).tolist(),
            registry.population.tolist(), lr.tolist(),
        )
    ]
    return "\n".join(lines) + "\n"


def _tower_export_text(registry, parts, window, spec) -> str:
    """The oracle's tower export of one cell computed from parts."""
    x = sum(
        aggregate_homes(detect_homes_bulk(part, window, spec), registry)
        for part in parts
    )
    return _tower_export_oracle(registry, x)


def test_tower_export_key_does_not_wrap():
    # 2**62 * 4 towers is 2**64: a key x * n_towers + row in int64 wraps to
    # 0, the key of x = 0 at the same row
    registry = TowerRegistry([10, 20, 30, 40], [0.0] * 4, [0.0] * 4, [5, 6, 7, 8])
    X = np.array([[2**62, 1, 1, 1], [0, 1, 1, 1]], dtype=np.int64)
    texts = sweep_mod._tower_exports(registry, X)
    lr = log_ratio_array([2**62], [5]).tolist()[0]
    assert texts[0].splitlines()[1] == f"10,0.0,0.0,{2**62},5,{lr!r}"
    assert texts[1].splitlines()[1] == "10,0.0,0.0,0,5,"


def test_tower_exports_equal_the_per_cell_oracle(tmp_path):
    windows = [
        ObservationWindow(date(2007, 6, 1), date(2007, 6, 14 + i), f"w{i}", "days14")
        for i in range(4)
    ]
    cases = {
        # registry rows not in tower-id order; each x repeated across cells,
        # 0 among them, at a tower whose y is 0 too (empty log ratio), and
        # 2**62 at the row where a later cell has 0
        "mixed": ((30, 10, 20, 40), (4, 0, 7, 9), [
            [2**62, 0, 3, 3], [0, 5, 3, 0], [3, 5, 2**62, 1], [0, 0, 0, 0],
        ]),
        "no-ok-cell": ((30, 10, 20, 40), (4, 0, 7, 9), []),
        "no-tower": ((), (), [[], []]),
    }
    for case, (ids, population, xs) in cases.items():
        registry = TowerRegistry(
            ids, np.linspace(-1.5, 2.25, len(ids)), np.linspace(43.1, 44.7, len(ids)),
            population,
        )
        result = sweep_mod.SweepResult(windows, ["MA"], registry, SweepOptions())
        for i, w in enumerate(windows):  # the cells past xs failed
            result.add_cell({
                "hda": "MA", "window": w.label, "status": "ok", "accuracy": None,
                "x": xs[i],
            } if i < len(xs) else {
                "hda": "MA", "window": w.label, "status": "failed", "error": "boom",
            })
        emit_reports(result, tmp_path / case)
        # no ok cell, no towers/: as a run at --per-tower-exports false
        assert (tmp_path / case / "towers").is_dir() == bool(xs), case
        got = {p.name: p.read_text() for p in (tmp_path / case).glob("towers/*")}
        assert got == {
            f"MA__{w.label}.csv": _tower_export_oracle(registry, x)
            for w, x in zip(windows, xs)
        }, case


def test_report_re_emits_each_runs_own_tower_lines(tmp_path):
    # two runs in one process over the same records and tower ids: every
    # cell has the same x in both, but each run's towers/ lines must come
    # from its own registry's lon, lat and population
    res, parts, wins = _dataset()
    reg = res.registry
    ids = np.append(reg.tower_ids, reg.tower_ids.max() + 1)  # no record: x = 0
    first = TowerRegistry(
        ids, np.append(reg.lon, 5.0), np.append(reg.lat, 45.0),
        np.append(reg.population, 7),
    )
    second = TowerRegistry(
        ids, first.lon + 0.5, first.lat - 0.25,
        np.append(0, first.population[1:] * 3),  # y = 0 at the first tower
    )
    runs = [(first, tmp_path / "first"), (second, tmp_path / "second")]
    swept = {}
    for registry, out in runs:
        run_sweep(parts, registry, wins, HDAS, out, SweepOptions())
        swept[out] = _run_files(out)
        shutil.rmtree(out / "towers")
    for registry, out in runs:
        assert main(["report", "--out", str(out)]) == 0
        assert _run_files(out) == swept[out]
        assert len(list((out / "towers").iterdir())) == len(HDAS) * len(wins)
        for spec in HDAS:
            for w in wins:
                text = (out / "towers" / f"{spec.name}__{w.label}.csv").read_text()
                assert text == _tower_export_text(registry, parts, w, spec)
                rows = [line.split(",") for line in text.splitlines()[1:]]
                assert rows[-1][3] == "0" and rows[-1][5] == ""  # x = 0
                if registry is second:
                    assert rows[0][4] == "0" and rows[0][5] == ""  # y = 0


def test_undecodable_cells_line_is_skipped_by_report_and_dropped_by_resume(
    tmp_path, capsys
):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions())
    want = _run_files(out)
    cells = (out / "cells.jsonl").read_bytes()
    (out / "cells.jsonl").write_bytes(cells + b"\xff\xfe junk\n")
    for path in out.glob("*.csv"):
        path.unlink()

    assert main(["report", "--out", str(out)]) == 0
    assert "skipped 1 unparseable line(s)" in capsys.readouterr().err
    assert _run_files(out) == want

    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions(resume=True))
    assert "skipped 1 unparseable line(s)" in capsys.readouterr().err
    assert (out / "cells.jsonl").read_bytes() == cells
    assert _run_files(out) == want


def test_resume_refuses_cells_of_other_inputs(tmp_path, monkeypatch):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions())
    cells = (out / "cells.jsonl").read_bytes()
    resume = SweepOptions(resume=True)

    other, other_parts, _ = _dataset(seed=10)
    for args in (
        (other_parts, res.registry),  # other records
        (parts, other.registry),  # other tower registry
        (parts[:1], res.registry),  # other partitions
    ):
        with pytest.raises(ValueError, match="other inputs or options"):
            run_sweep(*args, wins, HDAS, out, resume)
        assert (out / "cells.jsonl").read_bytes() == cells
    with pytest.raises(ValueError, match="other inputs or options"):
        run_sweep(parts, res.registry, wins, HDAS, out, resume, truth=res.truth)
    with monkeypatch.context() as m:  # np.log and np.std may differ under it
        m.setattr(np, "__version__", "0.0.0")
        with pytest.raises(ValueError, match="other inputs or options"):
            run_sweep(parts, res.registry, wins, HDAS, out, resume)
    assert (out / "cells.jsonl").read_bytes() == cells

    # a record without a fingerprint (written before fingerprints) is refused
    lines = cells.decode().splitlines()
    rec = json.loads(lines[0])
    del rec["fingerprint"]
    (out / "cells.jsonl").write_text("\n".join([json.dumps(rec), *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match="fingerprint None"):
        run_sweep(parts, res.registry, wins, HDAS, out, resume)


def test_manifest_states_what_the_fingerprint_hashes(tmp_path):
    # the fingerprint is a hash of the manifest's identity fields, with the
    # options narrowed to those that change a record and each HDA spelled
    # out, and of the input arrays; no record restates a manifest field
    res, parts, wins = _dataset(fraction=0.3)
    out = tmp_path / "run"
    run_sweep(
        parts, res.registry, wins, HDAS, out, SweepOptions(dump_assignments=True),
        truth=res.truth, migration=res.config.migration,
        span=str(SPAN), tz_name=res.config.tz_name,
    )
    manifest = json.loads((out / "manifest.json").read_text())
    identity = {k: manifest[k] for k in (
        "tool", "version", "numpy", "span", "tz", "n_partitions", "windows",
        "towers", "migration_range",
    )}
    identity["options"] = {k: manifest["options"][k] for k in (
        "min_qualifying", "dump_assignments",
    )}
    identity["hdas"] = [asdict(canonical_hda(name)) for name in manifest["hdas"]]
    fingerprint = sweep_mod._fingerprint(identity, parts, res.truth)
    assert fingerprint == manifest["fingerprint"]
    records = [json.loads(l) for l in (out / "cells.jsonl").read_text().splitlines()]
    assert len(records) == manifest["n_cells"]
    for rec in records:
        assert rec["fingerprint"] == fingerprint
        # what the cell computed from the records, and nothing derived from x
        assert set(rec) == {"hda", "window", "status", "n_tied", "accuracy", "x",
                            "fingerprint", "elapsed"}

    # only accuracy reads the migration range: without truth it is not hashed
    _, bare = run_sweep(parts, res.registry, wins[:1], HDAS[:1])
    _, split = run_sweep(parts, res.registry, wins[:1], HDAS[:1],
                         migration=res.config.migration)
    assert bare["fingerprint"] == split["fingerprint"]


def test_assignment_dump_rows_do_not_depend_on_partition_count(tmp_path):
    res, _, wins = _dataset()
    dumps = {}
    for n_parts in (1, 4):
        parts = one_partition(
            res.users, res.towers, res.timestamps,
            clock=CivilClock(res.config.tz_name), n_partitions=n_parts,
        )
        out = tmp_path / f"p{n_parts}"
        run_sweep(
            parts, res.registry, wins, HDAS, out, SweepOptions(dump_assignments=True)
        )
        dumps[n_parts] = {
            p.name: p.read_text().splitlines()
            for p in (out / "assignments").glob("*.csv")
        }
    assert len(dumps[1]) == len(wins) * len(HDAS)
    assert dumps[4].keys() == dumps[1].keys()
    for name, lines in dumps[1].items():
        # rows come partition by partition, each partition by user id
        assert [int(l.split(",")[0]) for l in lines[1:]] == sorted(res.truth.user_ids)
        assert dumps[4][name][0] == lines[0]
        assert sorted(dumps[4][name][1:]) == sorted(lines[1:]), name


def test_assignment_dump_rows_come_in_partition_order(tmp_path):
    # the order perfbench's parallel-dump digests pin at 4 partitions:
    # partition by partition, each by ascending user id
    res, _, wins = _dataset()
    parts = one_partition(
        res.users, res.towers, res.timestamps,
        clock=CivilClock(res.config.tz_name), n_partitions=4,
    )
    run_sweep(parts, res.registry, wins, HDAS, tmp_path,
              SweepOptions(dump_assignments=True))
    want = sorted(res.truth.user_ids.tolist(), key=lambda u: (partition_of(u, 4), u))
    dumps = sorted((tmp_path / "assignments").glob("*.csv"))
    assert len(dumps) == len(wins) * len(HDAS)
    for path in dumps:
        rows = path.read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == want, path.name


def _f_string_dump(bulk) -> str:
    """A cell's assignment dump as the row-by-row f-string writer made it."""
    lines = ["user_id,home_tower,qualifying_count,tie_broken"]
    lines += [
        f"{uid},{'' if home < 0 else home},{q},{int(t)}"
        for uid, home, q, t in zip(
            bulk.user_ids.tolist(), bulk.home_towers.tolist(),
            bulk.qualifying.tolist(), bulk.tie_broken.tolist(),
        )
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows_per_block", [1 << 14, 2])
def test_assignment_dump_equals_the_f_string_rows_at_the_extremes(
    tmp_path, monkeypatch, rows_per_block
):
    monkeypatch.setattr(core, "_FORMAT_ROWS", rows_per_block)

    def bulk(users, homes, quals, ties):
        return BulkAssignments(
            np.array(users, dtype=np.uint64), np.array(homes, dtype=np.int64),
            np.array(quals, dtype=np.int64), np.array(ties, dtype=bool),
        )

    extremes = bulk(
        [0, 9, 10, 2**64 - 1, 10**19], [-1, 0, 2**63 - 1, 10, -1],
        [0, 2**63 - 1, 1, 10, 0], [False, True, True, False, False],
    )
    unassigned = bulk([3, 4], [-1, -1], [0, 0], [False, False])
    empty = bulk([], [], [], [])
    rng = np.random.default_rng(4)
    homes = rng.integers(-1, 400, 50)
    drawn = bulk(np.sort(rng.integers(0, 2**64 - 1, 50, dtype=np.uint64)),
                 homes, rng.integers(0, 90, 50) * (homes >= 0),
                 rng.random(50) < 0.2)
    cases = {
        "extremes": extremes,
        "all unassigned": unassigned,
        "empty": empty,
        "drawn": drawn,
    }
    for name, bulk in cases.items():
        path = tmp_path / f"{name}.csv"
        sweep_mod._write_assignment_dump(path, sweep_mod._assignment_dump(bulk))
        assert path.read_bytes() == _f_string_dump(bulk).encode(), name
        assert not path.with_name(path.name + ".tmp").exists()


def test_cells_count_tied_users_for_any_worker_and_partition_count(
    tmp_path, capsys
):
    res, _, wins = _dataset(fraction=0.3)
    n_tied = []
    for workers, n_parts in ((1, 1), (2, 3)):
        parts = one_partition(
            res.users, res.towers, res.timestamps,
            clock=CivilClock(res.config.tz_name), n_partitions=n_parts,
        )
        out = tmp_path / f"w{workers}p{n_parts}"
        run_sweep(
            parts, res.registry, wins, HDAS, out,
            SweepOptions(workers=workers, dump_assignments=True),
        )
        cells = [json.loads(l) for l in (out / "cells.jsonl").read_text().splitlines()]
        tied = {}
        for cell in cells:
            dump = out / "assignments" / f"{cell['hda']}__{cell['window']}.csv"
            rows = dump.read_text().splitlines()[1:]
            assert cell["n_tied"] == sum(row.endswith(",1") for row in rows)
            tied[cell["hda"], cell["window"]] = cell["n_tied"]
        n_tied.append(tied)
    assert n_tied[0] == n_tied[1]
    assert len(n_tied[0]) == len(wins) * len(HDAS)
    assert sum(n_tied[0].values()) > 0

    # n_tied is in no report, and report takes records without it
    want = _run_files(out)
    (out / "cells.jsonl").write_text("".join(
        json.dumps({k: v for k, v in cell.items() if k != "n_tied"}) + "\n"
        for cell in cells
    ))
    for name in want:
        if "/" not in name:
            (out / name).unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert _run_files(out) == want


def test_report_after_resume_from_torn_cells_log_emits_every_cell(tmp_path, capsys):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions())
    want = (out / "metrics.csv").read_bytes()
    lines = (out / "cells.jsonl").read_text().splitlines()
    (out / "cells.jsonl").write_text("\n".join(lines[:4]) + "\n" + lines[4][:30])

    assert main(["report", "--out", str(out)]) == 0
    assert "skipped 1 unparseable line(s)" in capsys.readouterr().err

    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions(resume=True))
    assert "skipped 1 unparseable line(s)" in capsys.readouterr().err  # the torn line
    (out / "metrics.csv").unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "metrics.csv").read_bytes() == want


BAD_OPTIONS = {
    "threshold-text": lambda o: o.update(exclusion_threshold="5"),
    "threshold-negative": lambda o: o.update(exclusion_threshold=-1),
    "threshold-bool": lambda o: o.update(exclusion_threshold=True),
    "no-threshold": lambda o: o.pop("exclusion_threshold"),
    "exports-number": lambda o: o.update(per_tower_exports=1),
    "unknown-option": lambda o: o.update(colour="red"),
}


@pytest.mark.parametrize("damage", BAD_OPTIONS.values(), ids=BAD_OPTIONS.keys())
def test_load_run_refuses_options_no_sweep_writes(tmp_path, damage):
    # the reports read the exclusion threshold from the manifest's options
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    run_sweep(parts, res.registry, wins[:1], HDAS[:1], out)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    damage(manifest["options"])
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="not a sweep manifest"):
        load_run(out)


def test_resume_rewrites_cells_log_without_the_lines_it_dropped(tmp_path, capsys):
    res, parts, wins = _dataset()
    grid = (res.registry, [w for w in wins if w.duration_class == "full"], HDAS[:2])
    out = tmp_path / "run"
    run_sweep(parts, *grid, out, SweepOptions())
    lines = (out / "cells.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["x"] = 5
    (out / "cells.jsonl").write_text("\n".join([json.dumps(rec), lines[1]]) + "\n")

    run_sweep(parts, *grid, out, SweepOptions(resume=True))
    assert "skipped 1 unparseable line(s)" in capsys.readouterr().err
    resumed = (out / "cells.jsonl").read_text().splitlines()
    assert resumed[0] == lines[1] and len(resumed) == 2
    assert json.loads(resumed[1])["x"] != 5
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_load_run_counts_lines_that_are_not_cell_objects(tmp_path, capsys):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    sw, _ = run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions())
    with open(out / "cells.jsonl", "a") as fh:
        fh.write("[1, 2]\nnot json\n")
    loaded = load_run(out)
    assert capsys.readouterr().err == (
        f"warning: skipped 2 unparseable line(s) in {out / 'cells.jsonl'}\n"
    )
    assert loaded.hda_names == [s.name for s in HDAS]
    assert loaded.reports.keys() == sw.reports.keys()


def test_sweep_without_resume_restarts_cells_log(tmp_path):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    for _ in range(2):
        sw, _ = run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions())
    lines = (out / "cells.jsonl").read_text().splitlines()
    assert len(lines) == sw.n_cells  # not doubled


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_fresh_sweep_leaves_no_file_of_an_earlier_run(tmp_path):
    res, parts, wins = _dataset(fraction=0.3)
    out = tmp_path / "run"
    sw, _ = run_sweep(
        parts, res.registry, wins, HDAS, out, SweepOptions(dump_assignments=True),
        truth=res.truth, migration=res.config.migration,
    )
    # RUN_FILES names every file a sweep writes: REPORT_FILES each that
    # emit_reports writes, and the sweep's own files
    assert sweep_mod.RUN_FILES == (
        "cells.jsonl", "manifest.json", *sweep_mod.REPORT_FILES, "assignments/*.csv"
    )
    assert all(
        any(fnmatch.fnmatch(name, pattern) for pattern in sweep_mod.RUN_FILES)
        for name in _files(out)
    )
    emitted = tmp_path / "emitted"
    written = emit_reports(sw, emitted)
    assert sorted(p.relative_to(emitted).as_posix() for p in written) == sorted(
        _files(emitted)
    )
    assert "accuracy.csv" in _files(emitted)
    assert all(
        any(fnmatch.fnmatch(name, pattern) for pattern in sweep_mod.REPORT_FILES)
        for name in _files(emitted)
    )
    (out / "notes.txt").write_text("kept\n")
    (out / "towers" / "notes.txt").write_text("kept\n")
    # and the temp files of writes killed before their rename
    for name in ("metrics.csv.tmp", "towers/TC-19-9__full.csv.tmp",
                 "assignments/MA__full.csv.tmp", "notes.txt.tmp"):
        (out / name).write_text("partial\n")
    narrow = ([w for w in wins if w.duration_class == "full"], HDAS[:1])
    run_sweep(parts, res.registry, *narrow, out, SweepOptions())
    fresh = tmp_path / "fresh"
    run_sweep(parts, res.registry, *narrow, fresh, SweepOptions())

    got, want = _files(out), _files(fresh)
    assert got.pop("notes.txt") == got.pop("towers/notes.txt") == b"kept\n"
    assert got.pop("notes.txt.tmp") == b"partial\n"
    for name in ("cells.jsonl", "manifest.json"):
        assert len(got.pop(name)) > 0 and len(want.pop(name)) > 0
    assert got == want
    assert "accuracy.csv" not in got and "towers/MA__full.csv" in got
    assert not (out / "assignments").exists()

    # a resume keeps its records and their cells' dumps, untouched, and
    # removes every other file of RUN_FILES, a dump no record owns included
    full = (narrow[0], HDAS)
    run_sweep(parts, res.registry, *full, out, SweepOptions(dump_assignments=True))
    kept = {p.name: (p.read_bytes(), p.stat().st_ino)
            for p in (out / "assignments").iterdir()}
    assert len(kept) == len(HDAS)
    for name in ("assignments/MA__99d-99.csv", "assignments/MA__full.csv.tmp"):
        (out / name).write_text("stale\n")
    run_sweep(parts, res.registry, *full, out,
              SweepOptions(resume=True, dump_assignments=True))
    assert {p.name: (p.read_bytes(), p.stat().st_ino)
            for p in (out / "assignments").iterdir()} == kept
    assert (out / "notes.txt").read_bytes() == b"kept\n"


def test_sweep_isolates_cell_failures(tmp_path):
    res, parts, wins = _dataset()
    # registry missing most towers: winning homes cannot be aggregated
    reg = TowerRegistry(
        tower_ids=np.array([1], dtype=np.int64),
        lon=np.zeros(1),
        lat=np.zeros(1),
        population=np.array([10], dtype=np.int64),
    )
    out = tmp_path / "run"
    sw, manifest = run_sweep(parts, reg, wins, HDAS, out, SweepOptions())
    assert sw.n_failed == sw.n_cells
    assert not sw.reports
    key = next(iter(sw.errors))
    assert "not in registry" in sw.errors[key]
    assert manifest["failed_cells"] == sorted(f"{h}|{w}" for h, w in sw.errors)
    assert len(manifest["failed_cells"]) == sw.n_cells
    cells = [json.loads(l) for l in (out / "cells.jsonl").read_text().splitlines()]
    assert all(c["status"] == "failed" for c in cells)
    # report files still exist with headers
    assert (out / "metrics.csv").read_text().startswith("hda,window,class,")


def test_sweep_accuracy_scoring():
    res, parts, wins = _dataset(fraction=0.4)
    sw, _ = run_sweep(
        parts, res.registry, wins, HDAS,
        truth=res.truth, migration=res.config.migration,
    )
    full = [w for w in wins if w.duration_class == "full"][0]
    assert {h for h, w in sw.reports if w == full.label} == {"MA", "DD", "TC-19-9"}
    groups = {g: (n, c) for g, n, c in sw.reports[("MA", full.label)]["accuracy"]}
    assert list(groups) == ["all", "migrant", "non_migrant"]
    assert groups["all"][0] == len(res.truth)
    assert groups["migrant"][0] == int(res.truth.is_migrant.sum())
    assert groups["all"][1] == groups["migrant"][1] + groups["non_migrant"][1]


def test_sweep_no_tower_exports_option(tmp_path):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    run_sweep(
        parts, res.registry, wins, HDAS, out, SweepOptions(per_tower_exports=False)
    )
    assert not (out / "towers").exists()
    assert not (out / "assignments").exists()
    # report follows the run's option
    assert main(["report", "--out", str(out)]) == 0
    assert not (out / "towers").exists()


def test_manifest_writes_each_list_of_numbers_on_one_line(tmp_path):
    res, parts, wins = _dataset()
    reg = res.registry
    _, manifest = run_sweep(parts, reg, wins, HDAS, tmp_path / "run")
    text = (tmp_path / "run" / "manifest.json").read_text()
    assert json.loads(text) == json.loads(json.dumps(manifest))
    for name, column in zip(core.TOWERS_HEADER, (
        reg.tower_ids, reg.lon, reg.lat, reg.population
    )):
        assert f'"{name}": {json.dumps(column.tolist())}' in text
    assert not [
        line for line in text.splitlines() if re.fullmatch(r"\s*[-+.\deE]+,?", line)
    ]
    assert '  "hdas": [\n    "MA",\n' in text  # a list of text keeps its lines


def test_empty_grid_emits_valid_headers(tmp_path):
    res, parts, _ = _dataset()
    sw, _ = run_sweep(parts, res.registry, [], HDAS, tmp_path / "run")
    assert sw.n_cells == 0
    text = (tmp_path / "run" / "metrics.csv").read_text()
    assert text == "hda,window,class,pearson_r,n_used,excluded\n"


def test_emit_reports_standalone(tmp_path):
    res, parts, wins = _dataset()
    sw, _ = run_sweep(parts, res.registry, wins, HDAS)
    written = emit_reports(sw, tmp_path / "re")
    assert (tmp_path / "re" / "metrics.csv").exists()
    assert all(p.exists() for p in written)


def test_sweep_options_validation():
    with pytest.raises(ValueError):
        SweepOptions(workers=0)
    with pytest.raises(ValueError):
        SweepOptions(min_qualifying=0)
    with pytest.raises(ValueError):
        SweepOptions(exclusion_threshold=-1)
