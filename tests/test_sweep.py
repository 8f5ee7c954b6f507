"""Sweep runner: persistence, resume, parallel determinism, failure isolation."""

import json
from datetime import date

import numpy as np
import pytest

from cdrhomes import sweep as sweep_mod
from cdrhomes.cli import main
from cdrhomes.core import DatasetSpan, TowerRegistry
from cdrhomes.hda import hdas_by_name
from cdrhomes.sweep import SweepOptions, emit_reports, load_run, run_sweep
from cdrhomes.synth import SynthConfig, MigrationConfig, generate
from cdrhomes.timebase import CivilClock
from cdrhomes.windows import generate_windows

from conftest import one_partition

SPAN = DatasetSpan.parse("2007-06-01..2007-07-14")
HDAS = hdas_by_name(["MA", "DD", "TC-19-9"])


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
    rep = sw.report_for("MA", "full")
    assert rep.n_users == len(res.truth)
    assert manifest.n_cells == sw.n_cells
    assert json.loads(manifest.to_json())["n_failed"] == 0


def test_sweep_writes_expected_files(tmp_path):
    res, parts, wins = _dataset(fraction=0.3)
    out = tmp_path / "run"
    sw, _ = run_sweep(
        parts, res.registry, wins, HDAS, out,
        SweepOptions(dump_assignments=True),
        truth=res.truth, migration=res.config.migration,
        span=str(SPAN), tz_name=res.config.tz_name,
        seeds={"dataset": res.config.seed},
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
    assert manifest["seeds"] == {"dataset": 9}
    assert set(manifest["cell_status"].values()) == {"ok"}

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
    # 4 kept + recomputed remainder; the torn line was cut off before appending
    assert resumed[:4] == all_lines[:4]
    cells = [json.loads(l) for l in resumed]
    assert len(cells) == sw.n_cells
    assert all(c["status"] == "ok" for c in cells)


def _run_files(out) -> dict:
    """{relative path: bytes} of a run directory, less the two files that
    carry timings (manifest.json and cells.jsonl)."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name not in ("manifest.json", "cells.jsonl")
    }


def test_resume_after_a_kill_between_cell_files_and_record(tmp_path, monkeypatch):
    res, parts, wins = _dataset()
    fresh = tmp_path / "fresh"
    run_sweep(parts, res.registry, wins, HDAS, fresh, SweepOptions())

    # the run is killed while it writes the third cell's tower export
    out = tmp_path / "run"
    real = sweep_mod._write_tower_export
    calls = []

    def killed_on_third(*args):
        calls.append(args[0].name)
        if len(calls) == 3:
            raise KeyboardInterrupt
        real(*args)

    monkeypatch.setattr(sweep_mod, "_write_tower_export", killed_on_third)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions())
    monkeypatch.setattr(sweep_mod, "_write_tower_export", real)
    assert calls[-1] == "MA__14d-03.csv"

    run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions(resume=True))
    files = _run_files(out)
    assert "towers/MA__14d-03.csv" in files
    assert files == _run_files(fresh)


def test_resume_refuses_cells_of_other_inputs(tmp_path):
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

    # a record without a fingerprint (written before fingerprints) is refused
    lines = cells.decode().splitlines()
    rec = json.loads(lines[0])
    del rec["fingerprint"]
    (out / "cells.jsonl").write_text("\n".join([json.dumps(rec), *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match="fingerprint None"):
        run_sweep(parts, res.registry, wins, HDAS, out, resume)


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
    (out / "metrics.csv").unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "metrics.csv").read_bytes() == want


def test_load_run_counts_lines_that_are_not_cell_objects(tmp_path):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    sw, _ = run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions())
    with open(out / "cells.jsonl", "a") as fh:
        fh.write("[1, 2]\nnot json\n")
    loaded, n_bad = load_run(out)
    assert n_bad == 2
    assert loaded.hda_names == [s.name for s in HDAS]
    assert loaded.reports.keys() == sw.reports.keys()


def test_sweep_without_resume_restarts_cells_log(tmp_path):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    for _ in range(2):
        sw, _ = run_sweep(parts, res.registry, wins, HDAS, out, SweepOptions())
    lines = (out / "cells.jsonl").read_text().splitlines()
    assert len(lines) == sw.n_cells  # not doubled


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
    assert set(manifest.cell_status.values()) == {"failed"}
    assert manifest.failed_cells
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
    rep = sw.accuracy_report(full)
    assert {r.hda for r in rep.rows} == {"MA", "DD", "TC-19-9"}
    groups = rep.by_group("MA")
    assert groups["all"].n_users == len(res.truth)
    assert groups["migrant"].n_users == int(res.truth.is_migrant.sum())
    assert groups["all"].n_correct == (
        groups["migrant"].n_correct + groups["non_migrant"].n_correct
    )


def test_sweep_no_tower_exports_option(tmp_path):
    res, parts, wins = _dataset()
    out = tmp_path / "run"
    run_sweep(
        parts, res.registry, wins, HDAS, out, SweepOptions(per_tower_exports=False)
    )
    assert not (out / "towers").exists()
    assert not (out / "assignments").exists()


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
