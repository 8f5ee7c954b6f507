"""End-to-end runs of the command-line front end via main(argv)."""

import fnmatch
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdrhomes
from cdrhomes import cli
from cdrhomes import sweep as sweep_mod
from cdrhomes.cli import load_config, main
from cdrhomes.core import DatasetSpan
from cdrhomes.sweep import RUN_FILES
from cdrhomes.synth import SynthConfig

SPAN = "2007-06-01..2007-06-28"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main([
        "synth", "--out", str(out), "--seed", "11",
        "--span", SPAN, "--n-towers", "12", "--n-population", "400",
        "--daily-event-rate", "3",
        "--migration-fraction", "0.25",
        "--migration-range", "2007-06-08..2007-06-24",
        "--min-stay-days", "7",
        "--touristic-towers", "lowest:2",
    ])
    assert rc == 0
    return out


def test_synth_outputs(synth_dir, capsys):
    for name in ("towers.csv", "truth.csv", "records.csv", "synth_manifest.txt"):
        assert (synth_dir / name).exists(), name
    manifest = dict(
        line.split("=", 1)
        for line in (synth_dir / "synth_manifest.txt").read_text().splitlines()
    )
    assert manifest["seed"] == "11"
    assert manifest["n_subscribers"] == "112"
    assert manifest["min_stay_days"] == "7"
    n_lines = len((synth_dir / "records.csv").read_text().splitlines())
    assert n_lines == int(manifest["n_records"]) + 1  # header


def test_synth_without_tunables_writes_the_generator_defaults(tmp_path, capsys):
    out = tmp_path / "synth"
    rc = main([
        "synth", "--out", str(out), "--seed", "3", "--span", SPAN,
        "--n-towers", "5", "--n-population", "60",
    ])
    assert rc == 0
    lines = (out / "synth_manifest.txt").read_text().splitlines()
    assert lines[-1].startswith("n_records=")
    config = SynthConfig(
        seed=3, n_towers=5, n_population=60, span=DatasetSpan.parse(SPAN)
    )
    assert lines[:-1] == [f"{k}={v}" for k, v in config.echo().items()]


SYNTH_REFUSALS = {  # extra flags -> what the one-line error must say
    "n-towers": (["--n-towers", "0"], "at least one tower"),
    "tz": (["--tz", "Bad/Zone"], "--tz='Bad/Zone'"),
    "touristic-towers": (
        ["--migration-fraction", "0.25", "--migration-range", "2007-06-08..2007-06-24",
         "--touristic-towers", "lowest:x"], "--touristic-towers='lowest:x'",
    ),
    "migration-range": (
        ["--migration-fraction", "0.25", "--migration-range", "2007-05-01..2007-06-10",
         "--touristic-towers", "lowest:2"], "not inside span",
    ),
    "lowest-0": (
        ["--migration-fraction", "0.25", "--migration-range", "2007-06-08..2007-06-24",
         "--touristic-towers", "lowest:0"], "cannot pick 0 touristic towers",
    ),
    "seed": (["--seed", "-1"], "seed must be non-negative"),
    "n-population": (["--n-population", "-5"], "population must be non-negative"),
    "work-pool-size": (["--work-pool-size", "-1"], "pool sizes must be non-negative"),
}


@pytest.mark.parametrize("refused,said", SYNTH_REFUSALS.values(),
                         ids=SYNTH_REFUSALS.keys())
def test_synth_that_refuses_its_options_makes_no_directory(
    tmp_path, refused, said, capsys
):
    out = tmp_path / "synth"
    argv = ["synth", "--out", str(out), "--seed", "3", "--span", SPAN,
            "--n-towers", "5", "--n-population", "60"]
    assert main(argv + refused) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and said in err[0], err
    assert not out.exists()


def test_synth_of_a_population_beyond_int64_is_one_error_line(tmp_path, capsys):
    # numpy's multinomial raised an OverflowError that main did not catch
    out = tmp_path / "synth"
    argv = ["synth", "--out", str(out), "--seed", "3", "--span", SPAN,
            "--n-towers", "5", "--n-population", "99999999999999999999"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


@pytest.mark.parametrize("span", ["0001-01-01..0001-01-20", "9999-12-12..9999-12-31"])
def test_a_span_at_either_end_of_the_calendar_runs_end_to_end(tmp_path, span, capsys):
    # every span windows takes: the clock's table once probed 90 days past
    # the records and the generator the midnight after 9999-12-31
    data, run = tmp_path / "data", tmp_path / "run"
    inputs = ["--records", str(data / "records.csv"), "--towers",
              str(data / "towers.csv"), "--span", span]
    assert main(["synth", "--out", str(data), "--seed", "5", "--span", span,
                 "--n-towers", "12", "--n-population", "400"]) == 0
    assert main(["ingest-check", *inputs]) == 0
    assert "rejected_out_of_span=0" in capsys.readouterr().out.splitlines()
    assert main(["sweep", *inputs, "--out", str(run), "--truth",
                 str(data / "truth.csv"), "--classes", "full,days14",
                 "--workers", "1"]) == 0
    rows = (run / "accuracy.csv").read_text().splitlines()
    assert any(row.startswith("MA,full,all,") for row in rows)


@pytest.mark.parametrize("span,stamp", [
    ("9999-12-01..9999-12-31", "9999-12-15T12:00:00"),
    ("0001-01-01..0001-01-31", "0001-01-05T12:00:00"),
    ("0001-04-01..0001-04-10", "0001-04-01T01:00:00"),
])
def test_ingest_check_of_one_record_near_either_end_of_the_calendar(
    tmp_path, span, stamp, capsys
):
    towers = tmp_path / "towers.csv"
    towers.write_text(f"{TOWERS_HEADER}\n1,2.0,3.0,10\n")
    records = tmp_path / "records.csv"
    records.write_text(f"user_id,tower_id,timestamp\n1,1,{stamp}\n")
    assert main(["ingest-check", "--records", str(records), "--towers", str(towers),
                 "--span", span]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "accepted=1" in out and "rejected_out_of_span=0" in out


@pytest.mark.parametrize("span", ["0001-01-01..0001-01-20", "2007-01-01..2007-01-20"])
def test_a_year_0_time_is_malformed_under_any_span(tmp_path, span, capsys):
    # numpy's calendar has a year 0, strptime's none: the block parser
    # leaves the line to the per-line parser, under a span the next day too
    towers = tmp_path / "towers.csv"
    towers.write_text(f"{TOWERS_HEADER}\n5,2.0,3.0,10\n")
    records = tmp_path / "records.csv"
    records.write_text("user_id,tower_id,timestamp\n1,5,0000-12-31T12:00:00\n")
    assert main(["ingest-check", "--records", str(records), "--towers", str(towers),
                 "--span", span, "--tz", "UTC"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "rejected_malformed=1" in out and "rejected_out_of_span=0" in out


def test_ingest_check(synth_dir, capsys):
    rc = main([
        "ingest-check", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "accepted=9528" in text
    assert "rejected_malformed=0" in text
    assert "distinct_users=112" in text


def test_ingest_check_counts_undecodable_line(synth_dir, tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_bytes((synth_dir / "records.csv").read_bytes() + b"1,2,\xff3\n")
    rc = main([
        "ingest-check", "--records", str(records),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "accepted=9528" in text
    assert "rejected_malformed=1" in text
    assert "sample_reject=malformed: 1,2,\\xff3" in text


def test_ingest_check_counts_a_corrupt_first_line(tmp_path, capsys):
    # line 1 is a header only if it starts with user_id: a corrupt line 1
    # was once taken for the header and dropped uncounted
    towers = tmp_path / "towers.csv"
    towers.write_text(f"{TOWERS_HEADER}\n5,0.0,0.0,10\n")
    records = tmp_path / "records.csv"
    argv = ["ingest-check", "--records", str(records), "--towers", str(towers),
            "--span", "2007-05-13..2007-10-13"]
    lines = "1a,5,1180000000\n2,5,1180000000\n"
    for header, text in ((False, lines), (True, "user_id,tower_id,timestamp\n" + lines)):
        records.write_text(text)
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"header_line={header}", "total_lines=2", "accepted=1",
            "rejected_malformed=1", "rejected_unknown_tower=0",
            "rejected_out_of_span=0", "distinct_users=1",
            "sample_reject=malformed: 1a,5,1180000000",
        ]


def test_windows_table(capsys):
    rc = main(["windows", "--span", "2007-05-13..2007-10-13"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "label,first_day,last_day,class"
    assert len(lines) == 1 + 23
    rc = main(["windows", "--span", SPAN, "--classes", "days14,full"])
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 3


def test_windows_out_writes_the_table(tmp_path, capsys):
    main(["windows", "--span", SPAN])
    table = capsys.readouterr().out
    path = tmp_path / "windows.csv"
    assert main(["windows", "--span", SPAN, "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_text() == table


def test_detect_and_score(synth_dir, tmp_path, capsys):
    out = tmp_path / "detect"
    rc = main([
        "detect", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--hda", "MA", "--window", SPAN, "--out", str(out),
        "--dump-assignments",
    ])
    assert rc == 0
    said = capsys.readouterr().out
    assert "hda=MA" in said and "users=112" in said
    towers = (out / "towers" / f"MA__{SPAN}.csv").read_text().strip().split("\n")
    assert towers[0] == "tower_id,lon,lat,x,y,logratio"
    assert len(towers) == 1 + 12
    assigned = sum(int(l.split(",")[3]) for l in towers[1:])
    assert f"assigned={assigned}" in said

    rc = main([
        "score", "--assignments", str(out / "assignments" / f"MA__{SPAN}.csv"),
        "--truth", str(synth_dir / "truth.csv"), "--window", SPAN,
        "--migration-range", "2007-06-08..2007-06-24", "--hda", "MA",
    ])
    assert rc == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "hda,window,group,n_users,n_correct,accuracy"
    by_group = {r.split(",")[2]: r.split(",") for r in rows[1:]}
    assert int(by_group["all"][3]) == 112
    assert int(by_group["migrant"][3]) + int(by_group["non_migrant"][3]) == 112


def test_detect_dump_equals_sweep_dump(synth_dir, tmp_path, capsys):
    inputs = [
        "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
    ]
    detect, sweep = tmp_path / "detect", tmp_path / "sweep"
    assert main([
        "detect", *inputs, "--hda", "DD", "--window", SPAN,
        "--out", str(detect), "--dump-assignments",
    ]) == 0
    assert main([
        "sweep", *inputs, "--hdas", "DD", "--classes", "full",
        "--out", str(sweep), "--dump-assignments", "true",
    ]) == 0
    for kind in ("towers", "assignments"):
        got = (detect / kind / f"DD__{SPAN}.csv").read_bytes()
        assert got == (sweep / kind / "DD__full.csv").read_bytes(), kind
    assert got.count(b"\n") == 1 + 112
    # the cell's r, and its tower counts, as in the sweep's metrics.csv
    (_, swept), (_, row) = (
        (run / "metrics.csv").read_text().splitlines() for run in (sweep, detect)
    )
    assert row.split(",")[:3] == ["DD", SPAN, "custom"]
    assert row.split(",")[3:] == swept.split(",")[3:]

    # a one-cell run directory, whose report files `report` re-emits
    files = {p.relative_to(detect).as_posix(): p.read_bytes()
             for p in detect.rglob("*") if p.is_file()}
    assert all(
        any(fnmatch.fnmatch(name, pattern) for pattern in RUN_FILES)
        for name in files
    )
    assert "correlation_over_time_custom.svg" in files
    for name in files:
        if "/" not in name and name not in ("cells.jsonl", "manifest.json"):
            (detect / name).unlink()
    capsys.readouterr()
    assert main(["report", "--out", str(detect)]) == 0
    assert {p.relative_to(detect).as_posix(): p.read_bytes()
            for p in detect.rglob("*") if p.is_file()} == files


def test_detect_failed_cell_exits_2(synth_dir, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("detection failed")

    monkeypatch.setattr(sweep_mod, "detect_homes_bulk", fail)
    assert main([
        "detect", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--hda", "MA", "--window", SPAN,
    ]) == 2
    said = capsys.readouterr()
    assert said.out == ""
    assert said.err.splitlines() == [f"failed: MA|{SPAN}"]


def test_detect_dump_without_out_is_refused(synth_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "dump.cfg"
    cfg.write_text("dump-assignments = true\n")
    inputs = [
        "detect", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--hda", "MA", "--window", SPAN,
    ]
    for extra in (["--dump-assignments"], ["--config", str(cfg)]):
        assert main(inputs + extra) == 2
        said = capsys.readouterr()
        assert "--out" in said.err
        assert said.out == ""
    assert main(inputs) == 0  # without --out nothing is written
    assert capsys.readouterr().out.startswith(f"hda=MA window={SPAN} users=112 ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.cfg"]


@pytest.mark.parametrize("command,flag", [
    ("sweep", "--workers=0"),
    ("sweep", "--exclusion-threshold=-1"),
    ("sweep", "--min-qualifying=0"),
    ("sweep", "--partitions=0"),
    ("sweep", "--hdas="),
    ("sweep", "--classes=,"),
    ("detect", "--min-qualifying=0"),
    ("ingest-check", "--tz=Bad/Zone"),
    ("detect", "--tz=Bad/Zone"),
    ("sweep", "--tz=Bad/Zone"),
])
def test_option_values_are_checked_before_the_records_are_read(
    synth_dir, tmp_path, command, flag, capsys
):
    argv = [command, "--records", str(tmp_path / "missing.csv"),
            "--towers", str(synth_dir / "towers.csv"), "--span", SPAN, flag]
    if command == "detect":
        argv += ["--hda", "MA", "--window", SPAN]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and flag[2:].split("=")[0].replace("-", "_") in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ingest-check", "detect"])
def test_only_sweep_takes_partitions(synth_dir, tmp_path, command, capsys):
    # ingest-check never detects, and detect's one cell always runs at one
    # partition, so its dump rows come in user-id order
    argv = [command, "--records", str(synth_dir / "records.csv"),
            "--towers", str(synth_dir / "towers.csv"), "--span", SPAN]
    if command == "detect":
        argv += ["--hda", "MA", "--window", SPAN]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--partitions", "2"])
    assert exc.value.code == 2
    assert "--partitions" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("partitions = 2\n")  # a key only sweep takes
    assert main(argv + ["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "users=112" in out and "partitions" not in out


def test_sweep_boolean_flags_take_false(synth_dir, tmp_path, capsys):
    argv = [
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "full", "--hdas", "MA", "--out", str(tmp_path / "run"),
    ]
    rc = main(argv + ["--dump-assignments", "false", "--per-tower-exports", "false"])
    assert rc == 0
    assert not (tmp_path / "run" / "assignments").exists()
    assert not (tmp_path / "run" / "towers").exists()
    options = json.loads((tmp_path / "run" / "manifest.json").read_text())["options"]
    assert options["dump_assignments"] is False
    assert options["per_tower_exports"] is False

    assert main(argv + ["--dump-assignments", "maybe"]) == 1
    assert "not a boolean" in capsys.readouterr().err


def test_sweep_and_report_reemit(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    argv = [
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "days14,full", "--hdas", "MA,DD,TC-19-9",
        "--out", str(run),
        "--truth", str(synth_dir / "truth.csv"),
        "--migration-range", "2007-06-08..2007-06-24",
    ]
    rc = main(argv)
    assert rc == 0
    assert "cells=9 failed=0" in capsys.readouterr().out
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["migration_range"] == "2007-06-08..2007-06-24"
    live = {
        p.name: p.read_bytes()
        for p in run.iterdir()
        if p.is_file() and p.name not in ("manifest.json", "cells.jsonl")
    }
    assert set(live) == {
        "windows.csv", "metrics.csv", "correlation_over_time.csv",
        "duration_sensitivity.csv", "criteria_sensitivity.csv",
        "decile_summary.csv", "accuracy.csv", "correlation_over_time_days14.svg",
        "correlation_over_time_full.svg", "duration_sensitivity.svg",
        "criteria_sensitivity.svg",
    }
    assert live["metrics.csv"].decode().count("\n") == 1 + 9

    # re-emission from cells.jsonl alone reproduces every report file
    for name in live:
        (run / name).unlink()
    rc = main(["report", "--out", str(run)])
    assert rc == 0
    reemitted = {
        p.name: p.read_bytes()
        for p in run.iterdir()
        if p.is_file() and p.name not in ("manifest.json", "cells.jsonl")
    }
    assert reemitted.keys() == live.keys()
    for name, data in live.items():
        assert reemitted[name] == data, name


def test_report_on_a_run_without_cell_records_has_nothing_to_report(
    synth_dir, tmp_path, capsys
):
    run = tmp_path / "run"
    assert main([
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "full", "--hdas", "MA", "--out", str(run),
    ]) == 0
    (run / "cells.jsonl").unlink()
    capsys.readouterr()
    assert main(["report", "--out", str(run)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no cells.jsonl in {run}; nothing to report\n"


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _reports(run: Path) -> dict[str, bytes]:
    """_tree of a run directory without the two files that carry timings."""
    return {k: v for k, v in _tree(run).items()
            if k not in ("manifest.json", "cells.jsonl")}


@pytest.mark.parametrize("command", ["sweep-1", "sweep-2", "detect"])
def test_report_restores_a_deleted_towers_directory(synth_dir, tmp_path, command):
    run = tmp_path / "run"
    argv = ["--records", str(synth_dir / "records.csv"),
            "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
            "--out", str(run)]
    if command == "detect":
        argv = ["detect", *argv, "--hda", "TC-19-9", "--window", "2007-06-03..2007-06-20"]
    else:
        argv = ["sweep", *argv, "--classes", "days14,full", "--workers", command[-1]]
    assert main(argv) == 0
    towers = _tree(run / "towers")
    assert len(towers) == (1 if command == "detect" else 9 * 3)
    shutil.rmtree(run / "towers")
    assert main(["report", "--out", str(run)]) == 0
    assert _tree(run / "towers") == towers


@pytest.mark.parametrize("threshold", ["5", "50"], ids=["fewer-towers", "no-r"])
def test_resume_under_another_exclusion_threshold_reports_at_it(
    synth_dir, tmp_path, threshold
):
    # no record depends on the threshold: a resume under another one keeps
    # every cell and writes what a fresh run at the new threshold writes; at
    # 50 no r is defined, so the charts of the first run must go
    argv = [
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "days14,full", "--hdas", "MA,DD",
        "--truth", str(synth_dir / "truth.csv"), "--dump-assignments",
    ]
    fresh, run = tmp_path / "fresh", tmp_path / "run"
    assert main(argv + ["--out", str(fresh), "--exclusion-threshold", threshold]) == 0
    assert main(argv + ["--out", str(run)]) == 0
    cells = (run / "cells.jsonl").read_bytes()
    want = _reports(fresh)
    assert _tree(run)["metrics.csv"] != want["metrics.csv"]
    resume = ["--out", str(run), "--resume", "--exclusion-threshold", threshold]
    assert main(argv + resume) == 0
    assert (run / "cells.jsonl").read_bytes() == cells
    got = _tree(run)
    assert {k: v for k, v in got.items() if k in want} == want
    assert got.keys() == _tree(fresh).keys()
    # report reads the threshold from the resumed run's manifest
    for name in want:
        if not name.startswith("assignments/"):  # no report writes a dump
            (run / name).unlink()
    assert main(["report", "--out", str(run)]) == 0
    assert _tree(run) == got


def test_resume_may_flip_per_tower_exports(synth_dir, tmp_path):
    # no record depends on the option: a resume under the other value keeps
    # every cell, and leaves what a fresh run at the new value leaves
    argv = [
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "full", "--hdas", "MA,DD",
    ]
    fresh, run = tmp_path / "fresh", tmp_path / "run"
    assert main(argv + ["--out", str(fresh)]) == 0
    assert main(argv + ["--out", str(run), "--per-tower-exports", "false"]) == 0
    cells = (run / "cells.jsonl").read_bytes()
    assert not (run / "towers").exists()
    fresh_false = _reports(run)
    assert main(argv + ["--out", str(run), "--resume"]) == 0
    assert (run / "cells.jsonl").read_bytes() == cells
    assert _reports(run) == _reports(fresh)

    assert main(argv + ["--out", str(run), "--resume", "--per-tower-exports", "false"]) == 0
    assert (run / "cells.jsonl").read_bytes() == cells
    assert _reports(run) == fresh_false
    assert not (run / "towers").exists()


def test_report_leaves_only_the_report_files_it_writes(synth_dir, tmp_path, capsys):
    # an emission removes each report file it did not write: the towers/
    # file of a cell whose record became unreadable, and the .tmp of a
    # killed write; any other file, and every assignments/ dump, stays
    run = tmp_path / "run"
    assert main([
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "days14,full", "--hdas", "MA,DD", "--dump-assignments",
        "--out", str(run),
    ]) == 0
    towers, assignments = _tree(run / "towers"), _tree(run / "assignments")
    assert "MA__14d-01.csv" in towers and len(assignments) == len(towers) == 6
    recs = [json.loads(line) for line in (run / "cells.jsonl").read_text().splitlines()]
    for rec in recs:
        if (rec["hda"], rec["window"]) == ("MA", "14d-01"):
            rec["x"] = "unreadable"
    (run / "cells.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
    planted = ("metrics.csv.tmp", "towers/MA__full.csv.tmp", "notes.txt",
               "towers/notes.txt")
    for name in planted:
        (run / name).write_text("planted\n")
    capsys.readouterr()
    assert main(["report", "--out", str(run)]) == 0
    assert "skipped 1 unparseable line(s)" in capsys.readouterr().err

    rows = [row.split(",") for row in (run / "metrics.csv").read_text().splitlines()[1:]]
    assert len(rows) == 5
    got = _tree(run / "towers")
    assert sorted(k for k in got if k.endswith(".csv")) == sorted(
        f"{h}__{w}.csv" for h, w, *_ in rows
    )
    del towers["MA__14d-01.csv"]
    assert got == {**towers, "notes.txt": b"planted\n"}
    assert not (run / "metrics.csv.tmp").exists()
    assert not (run / "towers" / "MA__full.csv.tmp").exists()
    assert (run / "notes.txt").read_text() == "planted\n"
    assert _tree(run / "assignments") == assignments


def test_report_on_a_run_without_a_tower_registry_writes_nothing(
    synth_dir, tmp_path, capsys
):
    # a run directory from before records carried x: reporting its records
    # would rewrite every report with headers only
    run = tmp_path / "run"
    assert main([
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "full", "--hdas", "MA,DD", "--out", str(run),
    ]) == 0
    path = run / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["towers"]
    path.write_text(json.dumps(manifest))
    cells = run / "cells.jsonl"
    cells.write_text("".join(
        json.dumps({k: v for k, v in json.loads(line).items() if k != "x"}) + "\n"
        for line in cells.read_text().splitlines()
    ))
    before = _tree(run)
    capsys.readouterr()
    assert main(["report", "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a sweep manifest") and "towers" in err
    assert err.count("\n") == 1
    assert _tree(run) == before


def test_sweep_manifest_records_stages(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    argv = [
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "full", "--hdas", "MA,DD", "--workers", "2",
        "--out", str(run),
    ]
    assert main(argv) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert set(manifest) == {
        "tool", "created_utc", "version", "numpy", "span", "tz", "n_partitions",
        "options", "hdas", "windows", "fingerprint", "n_cells", "n_failed",
        "failed_cells", "elapsed_seconds", "ingest", "stages", "migration_range",
        "towers",
    }
    assert manifest["migration_range"] is None  # no truth, nothing split
    stages = manifest["stages"]
    assert set(stages) == {
        "ingest_parse_s", "partition_records_s", "run_sweep_s", "cells_s",
        "emit_reports_s", "peak_rss_mb", "workers_peak_rss_mb", "workers_cpu_s",
    }
    for key, value in stages.items():
        assert isinstance(value, (int, float)) and value >= 0, key
    assert stages["peak_rss_mb"] > 0
    assert stages["workers_cpu_s"] > 0
    assert stages["cells_s"] + stages["emit_reports_s"] <= stages["run_sweep_s"]
    # one worker runs no pool: the workers' figures are null
    one = tmp_path / "one"
    assert main([*argv[:-4], "--workers", "1", "--out", str(one)]) == 0
    stages = json.loads((one / "manifest.json").read_text())["stages"]
    assert stages["workers_cpu_s"] is stages["workers_peak_rss_mb"] is None
    # the ingest block holds the counts alone, as ingest-check prints them
    capsys.readouterr()
    assert main(["ingest-check", *argv[1:7]]) == 0
    printed = [line.split("=", 1) for line in capsys.readouterr().out.splitlines()]
    assert {k: str(v) for k, v in manifest["ingest"].items()} == {
        k: v for k, v in printed if k != "sample_reject"
    }


def test_a_worker_that_dies_ends_the_sweep_with_one_error_line(
    synth_dir, tmp_path, monkeypatch, capsys
):
    # a worker exits abruptly in one cell, as an OOM kill would end it: the
    # sweep stops with one error line, and a resume completes the run
    argv = [
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "days14,full", "--hdas", "MA,DD", "--dump-assignments",
        "--truth", str(synth_dir / "truth.csv"),
    ]
    fresh, run = tmp_path / "fresh", tmp_path / "run"
    assert main(argv + ["--out", str(fresh)]) == 0
    real, parent = sweep_mod._compute_cell, os.getpid()

    def dies_in_one_cell(state, h_idx, w_idx):
        if (h_idx, w_idx) == (1, 1) and os.getpid() != parent:
            os._exit(3)
        return real(state, h_idx, w_idx)

    monkeypatch.setattr(sweep_mod, "_compute_cell", dies_in_one_cell)
    capsys.readouterr()
    assert main(argv + ["--out", str(run), "--workers", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: a worker process died") and "--resume" in err[0]
    assert not (run / "manifest.json").exists()

    monkeypatch.setattr(sweep_mod, "_compute_cell", real)
    assert main(argv + ["--out", str(run), "--workers", "2", "--resume"]) == 0
    assert _reports(run) == _reports(fresh)
    assert _tree(run).keys() == _tree(fresh).keys()

    def records(out):
        return [{k: v for k, v in json.loads(line).items() if k != "elapsed"}
                for line in (out / "cells.jsonl").read_text().splitlines()]

    assert records(run) == records(fresh)


NO_GRID = {
    "not-an-object": lambda m: [],
    "empty-object": lambda m: {},
    "window-without-first-day": lambda m: {
        **m, "windows": [{k: v for k, v in w.items() if k != "first_day"}
                         for w in m["windows"]],
    },
    "hdas-not-text": lambda m: {**m, "hdas": [1]},
}


@pytest.mark.parametrize("damage", NO_GRID.values(), ids=NO_GRID.keys())
def test_report_on_a_manifest_without_a_grid_names_the_file(
    synth_dir, tmp_path, capsys, damage
):
    run = tmp_path / "run"
    assert main([
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "full", "--hdas", "MA", "--out", str(run),
    ]) == 0
    path = run / "manifest.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(["report", "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a sweep manifest")
    assert err.count("\n") == 1


# reaps a child that touched 64 MiB, then execs the rest of its command line
_REAP_THEN_EXEC = (
    "import os, subprocess, sys; "
    "subprocess.run([sys.executable, '-c', 'b = bytes(1) * (64 << 20)'], check=True); "
    "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no VmHWM")
def test_sweep_peak_rss_is_its_own_not_its_launchers(synth_dir, tmp_path):
    # getrusage(RUSAGE_SELF) in the sweep would carry this process's
    # high-water mark, 160 MiB or more, across exec; RUSAGE_CHILDREN would
    # carry the child its launcher reaped, though no worker ran
    held = np.ones(160 * 2**20 // 8)
    run = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-c", _REAP_THEN_EXEC, "-m", "cdrhomes.cli", "sweep",
         "--records", str(synth_dir / "records.csv"),
         "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
         "--classes", "full", "--hdas", "MA", "--out", str(run)],
        env={**os.environ, "PYTHONPATH": str(Path(cdrhomes.__file__).parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    del held
    assert done.returncode == 0, done.stderr
    stages = json.loads((run / "manifest.json").read_text())["stages"]
    assert 0 < stages["peak_rss_mb"] < 120
    assert stages["workers_peak_rss_mb"] is stages["workers_cpu_s"] is None


def test_resume_under_other_options_is_refused(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    argv = [
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "full", "--hdas", "MA,DD", "--out", str(run),
    ]
    assert main(argv) == 0
    cells = (run / "cells.jsonl").read_bytes()
    capsys.readouterr()

    # the cells kept would be wrong: a fresh run with this option differs
    fresh = tmp_path / "fresh"
    assert main(argv[:-1] + [str(fresh), "--min-qualifying", "20"]) == 0
    assert (fresh / "metrics.csv").read_bytes() != (run / "metrics.csv").read_bytes()
    assert main(argv + ["--resume", "--min-qualifying", "20"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot resume") and "fingerprint" in err
    assert (run / "cells.jsonl").read_bytes() == cells
    fingerprint = json.loads((run / "manifest.json").read_text())["fingerprint"]
    assert all(
        json.loads(line)["fingerprint"] == fingerprint
        for line in cells.decode().splitlines()
    )

    # the same options resume: every cell is kept, none recomputed
    assert main(argv + ["--resume", "--workers", "2"]) == 0
    assert (run / "cells.jsonl").read_bytes() == cells


def test_resume_under_other_code_is_refused(synth_dir, tmp_path):
    run = tmp_path / "run"
    argv = [
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--classes", "full", "--hdas", "MA", "--out", str(run),
    ]
    assert main(argv) == 0
    cells = (run / "cells.jsonl").read_bytes()

    # a copy of the package that differs from this one in one comment byte
    pkg = tmp_path / "edited" / "cdrhomes"
    shutil.copytree(Path(cdrhomes.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (pkg / "windows.py").read_text()
    at = source.index("# grids only use") + 2
    (pkg / "windows.py").write_text(source[:at] + "G" + source[at + 1:])
    done = subprocess.run(
        [sys.executable, "-m", "cdrhomes.cli", *argv, "--resume"],
        env={**os.environ, "PYTHONPATH": str(pkg.parent)}, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: cannot resume")
    assert (run / "cells.jsonl").read_bytes() == cells


def test_config_file_defaults_and_precedence(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for this dataset\n"
        f"span = {SPAN}\n"
        "classes = full\n"
    )
    rc = main(["windows", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2 and out[1].startswith("full,2007-06-01")

    # explicit flag beats the config file
    rc = main(["windows", "--config", str(cfg), "--classes", "days14"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 3 and out[1].startswith("14d-01")

    assert load_config(cfg) == {"span": SPAN, "classes": "full"}


@pytest.mark.parametrize("argv,fragment", [
    (["windows"], "missing required option --span"),
    (["windows", "--span", "2007-06-01"], "bad span"),
    (["windows", "--span", SPAN, "--classes", "noclass"], "unknown window class"),
    (["windows", "--span", SPAN, "--config", "/nonexistent.cfg"], "config file not found"),
    (["score", "--truth", "/missing.csv", "--window", SPAN,
      "--assignments", "/missing.csv"], ""),
    (["sweep", "--workers", "x"], "bad value --workers='x'"),
])
def test_cli_errors_exit_1(argv, fragment, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err


TRUTH_HEADER = "user_id,home_tower,work_tower,migration_tower"


@pytest.mark.parametrize("truth_rows,fragment", [
    ([], "user 1 has no ground-truth row"),
    (["-1,100,100,"], "truth.csv:2: bad user_id '-1'"),
    (["1,100,100,", "1,101,101,"], "truth.csv:3: duplicate user_id 1"),
], ids=["header-only", "negative-id", "duplicate-id"])
def test_score_rejects_bad_truth_table(tmp_path, truth_rows, fragment, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("\n".join([TRUTH_HEADER, *truth_rows]) + "\n")
    dump = tmp_path / "MA__w.csv"
    dump.write_text("user_id,home_tower,qualifying_count,tie_broken\n1,100,3,0\n")
    argv = ["score", "--assignments", str(dump), "--truth", str(truth), "--window", SPAN]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert fragment in err[0]


def test_score_of_a_sweep_dump_prints_that_cells_accuracy_rows(
    synth_dir, tmp_path, capsys
):
    # score's rows join accuracy.csv on (hda, window): it takes the window
    # label from the dump's name, HDA__LABEL.csv, not from --window
    run, migration = tmp_path / "run", "2007-06-08..2007-06-24"
    assert main([
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--hdas", "MA,TC-9-19-WK", "--classes", "days14,full", "--out", str(run),
        "--dump-assignments", "--truth", str(synth_dir / "truth.csv"),
        "--migration-range", migration,
    ]) == 0
    accuracy = (run / "accuracy.csv").read_text().splitlines()
    windows = [line.split(",") for line in
               (run / "windows.csv").read_text().splitlines()[1:]]
    assert len(windows) == 3
    capsys.readouterr()
    for hda in ("MA", "TC-9-19-WK"):
        for label, first, last, _ in windows:
            assert main([
                "score", "--assignments", str(run / "assignments" / f"{hda}__{label}.csv"),
                "--truth", str(synth_dir / "truth.csv"), "--window", f"{first}..{last}",
                "--migration-range", migration,
            ]) == 0
            want = [line for line in accuracy if line.startswith(f"{hda},{label},")]
            assert len(want) == 3
            assert capsys.readouterr().out.splitlines() == [accuracy[0], *want]


def test_a_user_missing_from_the_truth_is_named_without_quotes(tmp_path, capsys):
    # main printed str(KeyError), which quotes the message
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_HEADER + "\n1,100,100,\n")
    dump = tmp_path / "MA__w.csv"
    dump.write_text("user_id,home_tower,qualifying_count,tie_broken\n"
                    "1,100,3,0\n99999,100,3,0\n")
    argv = ["score", "--assignments", str(dump), "--truth", str(truth), "--window", SPAN]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: user 99999 has no ground-truth row\n"


def test_a_truth_table_that_lacks_a_user_stops_the_sweep_before_any_cell(
    synth_dir, tmp_path, capsys
):
    # every cell failed with the same KeyError, and --resume retried them all
    lines = (synth_dir / "truth.csv").read_text().splitlines(keepends=True)
    assert lines[1].startswith("1,")
    truth = tmp_path / "truth.csv"
    truth.write_text(lines[0] + "".join(lines[2:]))
    run = tmp_path / "run"
    assert main([
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--out", str(run), "--truth", str(truth),
        "--migration-range", "2007-06-08..2007-06-24",
    ]) == 1
    said = capsys.readouterr()
    assert said.err == "error: user 1 has no ground-truth row\n"
    assert said.out == ""
    assert not (run / "cells.jsonl").exists()


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write into any directory")
def test_a_sweep_into_a_read_only_directory_is_one_error_line(
    synth_dir, tmp_path, capsys
):
    # no probe file is written: the sweep's own first write, made before any
    # cell runs, raises OSError naming a path in the directory
    run = tmp_path / "run"
    run.mkdir()
    run.chmod(0o500)
    try:
        rc = main([
            "sweep", "--records", str(synth_dir / "records.csv"),
            "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
            "--out", str(run), "--hdas", "MA", "--classes", "full",
        ])
    finally:
        run.chmod(0o700)
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(run) in err[0], err
    assert not (run / "cells.jsonl").exists()


def test_detect_refuses_a_window_that_shares_no_day_with_the_span(
    synth_dir, tmp_path, capsys
):
    # ingest drops the records outside the span, so such a window placed no
    # one and exited 0; the refusal comes before the records file is read
    argv = ["detect", "--records", str(tmp_path / "missing.csv"),
            "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
            "--hda", "MA", "--window", "2008-01-01..2008-01-10"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--window" in err[0], err
    # a window that shares some days with the span runs
    argv[2] = str(synth_dir / "records.csv")
    argv[-1] = "2007-06-20..2007-07-10"
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("hda=MA window=2007-06-20..2007-07-10 ")


@pytest.mark.parametrize("argv", [
    ["windows", "--span", "2007-06-28..2007-06-01"],
    ["score", "--assignments", "a.csv", "--truth", "t.csv",
     "--window", "2007-06-28..2007-06-01"],
    ["score", "--assignments", "a.csv", "--truth", "t.csv", "--window", SPAN,
     "--migration-range", "2007-06-28..2007-06-01"],
], ids=["span", "window", "migration-range"])
def test_a_reversed_date_range_says_it_ends_before_it_starts(argv, capsys):
    # DatasetSpan.parse once replaced this reason with the format message
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "ends before it starts" in err[0], err
    assert "expected FIRST..LAST" not in err[0]


DUMP_HEADER = "user_id,home_tower,qualifying_count,tie_broken"
TOWERS_HEADER = "tower_id,lon,lat,population"
# each table's header and a good row
GOOD_ROW = {
    "dump": (DUMP_HEADER, "1,100,3,0"),
    "truth": (TRUTH_HEADER, "1,100,100,"),
    "registry": (TOWERS_HEADER, "100,2.3,48.8,10"),
}
BAD_TABLES = {  # id: (table, its lines after the header, the last one bad)
    "negative-user": ("dump", ["1,100,3,0", "-1,100,3,0"]),
    "user-beyond-uint64": ("dump", ["1,100,3,0", "18446744073709551616,100,3,0"]),
    "home-beyond-int64": ("dump", ["1,100,3,0", "1,99999999999999999999,3,0"]),
    "count-below-int64": ("dump", ["1,100,3,0", "1,100,-9223372036854775809,0"]),
    "tie-beyond-int64": ("dump", ["1,100,3,0", "1,100,3,9223372036854775808"]),
    "not-an-integer": ("dump", ["1,100,3,0", "1,100,three,0"]),
    "dump-field-count": ("dump", ["1,100,3"]),
    "dump-empty-field": ("dump", [",100,3,0"]),
    "dump-repeated-id": ("dump", ["1,100,3,0", "1,101,2,0"]),
    "dump-negative-home": ("dump", ["1,100,3,0", "2,-1,3,0"]),
    "dump-header-on-line-2": ("dump", [DUMP_HEADER]),
    "truth-field-count": ("truth", ["1,100,100"]),
    "truth-empty-field": ("truth", ["1,,100,"]),
    "truth-repeated-id": ("truth", ["1,100,100,", "1,101,101,"]),
    "truth-negative-home": ("truth", ["1,-1,100,"]),
    "truth-negative-work": ("truth", ["1,100,-3,"]),
    "truth-negative-migration": ("truth", ["1,100,100,-1"]),
    "truth-header-on-line-2": ("truth", [TRUTH_HEADER]),
    "registry-field-count": ("registry", ["100,2.3,48.8"]),
    "registry-empty-field": ("registry", ["100,,48.8,10"]),
    "registry-repeated-id": ("registry", ["100,2.3,48.8,10", "100,2.4,48.9,11"]),
    "registry-negative-id": ("registry", ["-5,0.0,0.0,10"]),
    "registry-negative-population": ("registry", ["1,2.0,3.0,-5"]),
    "registry-header-on-line-2": ("registry", [TOWERS_HEADER]),
}


@pytest.mark.parametrize("table,rows", BAD_TABLES.values(), ids=BAD_TABLES.keys())
def test_score_rejects_bad_dump_row_with_its_line(tmp_path, table, rows, capsys):
    # a bad line of the dump, truth or registry: one error naming file and line
    paths = {name: tmp_path / f"{name}.csv" for name in GOOD_ROW}
    for name, (header, good) in GOOD_ROW.items():
        lines = [header, *(rows if name == table else [good])]
        paths[name].write_text("\n".join(lines) + "\n")
    if table == "registry":
        argv = ["ingest-check", "--records", str(tmp_path / "records.csv"),
                "--towers", str(paths["registry"]), "--span", SPAN]
    else:
        argv = ["score", "--assignments", str(paths["dump"]),
                "--truth", str(paths["truth"]), "--window", SPAN]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    bad_line = f"{paths[table]}:{1 + len(rows)}: "
    assert len(err) == 1 and err[0].startswith(f"error: {bad_line}"), err


def test_a_negative_registry_tower_id_stops_the_sweep(tmp_path, capsys):
    # -1 reads as "no home": user 1's three records at tower -5 once gave
    # tower -5 an x of 0 and dumped user 1 as unassigned, and exit 0
    towers = tmp_path / "towers.csv"
    towers.write_text(f"{TOWERS_HEADER}\n-5,0.0,0.0,10\n")
    records = tmp_path / "records.csv"
    records.write_text("".join(f"1,-5,2007-06-0{d}T21:00:00\n" for d in (4, 5, 6)))
    run = tmp_path / "run"
    assert main(["sweep", "--records", str(records), "--towers", str(towers),
                 "--span", SPAN, "--classes", "full", "--hdas", "MA",
                 "--out", str(run), "--dump-assignments"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not run.exists()
    assert captured.err == f"error: {towers}:2: bad tower_id '-5': negative\n"


def test_score_rejects_a_repeated_user_with_its_line(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_HEADER + "\n1,100,100,\n2,100,100,\n")
    dump = tmp_path / "MA__w.csv"
    dump.write_text("user_id,home_tower,qualifying_count,tie_broken\n"
                    "1,100,3,0\n2,100,3,0\n1,101,2,0\n")
    argv = ["score", "--assignments", str(dump), "--truth", str(truth), "--window", SPAN]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {dump}:4: duplicate user_id 1"]


@pytest.mark.parametrize("command", ["ingest-check", "detect", "sweep"])
def test_tower_id_beyond_int64_is_a_registry_error(synth_dir, tmp_path, command, capsys):
    towers = tmp_path / "towers.csv"
    good = (synth_dir / "towers.csv").read_text()
    towers.write_text(good + "9223372036854775808,2.3,48.8,10\n")
    argv = [command, "--records", str(synth_dir / "records.csv"),
            "--towers", str(towers), "--span", SPAN]
    if command == "detect":
        argv += ["--hda", "MA", "--window", SPAN]
    if command != "ingest-check":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    lineno = len(good.splitlines()) + 1
    bad_line = f"{towers}:{lineno}: bad tower_id '9223372036854775808'"
    assert len(err) == 1 and err[0].startswith(f"error: {bad_line}"), err


# two values for every flag of every command, the first not its default
FLAG_VALUES = {
    "records": ("r1.csv", "r2.csv"),
    "towers": ("t1.csv", "t2.csv"),
    "span": (SPAN, "2007-06-01..2007-07-14"),
    "tz": ("UTC", "Europe/Lisbon"),
    "partitions": ("3", "4"),
    "classes": ("full", "days14,month"),
    "out": ("o1", "o2"),
    "seed": ("4", "5"),
    "n-towers": ("5", "6"),
    "n-population": ("60", "70"),
    "market-share": ("0.5", "0.25"),
    "daily-event-rate": ("2.5", "3"),
    "home-call-share-night": ("0.7", "0.8"),
    "work-call-share-day": ("0.5", "0.4"),
    "home-call-share-day": ("0.2", "0.1"),
    "work-pool-size": ("3", "4"),
    "neighbor-pool-size": ("2", "5"),
    "migration-fraction": ("0.2", "0.1"),
    "migration-range": ("2007-06-08..2007-06-24", "2007-06-10..2007-06-20"),
    "min-stay-days": ("7", "9"),
    "touristic-towers": ("lowest:2", "1,2"),
    "hda": ("DD", "MA"),
    "window": (SPAN, "2007-06-01..2007-06-14"),
    "min-qualifying": ("3", "2"),
    "dump-assignments": ("true", "false"),
    "hdas": ("MA,DD", "TC-19-9"),
    "workers": ("2", "3"),
    "exclusion-threshold": ("5", "6"),
    "resume": ("true", "false"),
    "per-tower-exports": ("false", "true"),
    "truth": ("truth1.csv", "truth2.csv"),
    "assignments": ("a1.csv", "a2.csv"),
}
FLAGS = [(command, flag) for command, (_, _, flags) in cli._COMMANDS.items()
         for flag, _ in flags]


def _required_except(command, flag):
    return [f"--{other}={FLAG_VALUES[other][0]}"
            for other, kw in cli._COMMANDS[command][2]
            if kw.get("required") and other != flag]


def _options(argv):
    return {k: v for k, v in vars(cli.parse_args(argv)).items() if k != "config"}


@pytest.mark.parametrize("command,flag", FLAGS, ids=[f"{c}--{f}" for c, f in FLAGS])
def test_flag_and_config_line_give_the_same_options(tmp_path, command, flag):
    base = [command, *_required_except(command, flag)]
    value, other = FLAG_VALUES[flag]
    given = _options(base + [f"--{flag}={value}"])
    default = vars(cli.build_parser().parse_args(base))  # None when required
    dest = flag.replace("-", "_")
    assert given[dest] != default[dest]

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    assert _options(base + ["--config", str(cfg)]) == given
    # an explicit flag beats the file, wherever it stands
    assert _options(base + [f"--{flag}={other}", "--config", str(cfg)]) == _options(
        base + [f"--{flag}={other}"]
    )


BOOLEAN_FLAGS = [("detect", "dump-assignments"), ("sweep", "resume"),
                 ("sweep", "per-tower-exports"), ("sweep", "dump-assignments")]


@pytest.mark.parametrize("command,flag", BOOLEAN_FLAGS,
                         ids=[f"{c}--{f}" for c, f in BOOLEAN_FLAGS])
def test_boolean_flag_takes_three_forms(command, flag):
    base = [command, *_required_except(command, flag)]
    forms = [[f"--{flag}"], [f"--{flag}", "true"], [f"--{flag}", "false"]]
    dest = flag.replace("-", "_")
    assert [_options(base + form)[dest] for form in forms] == [True, True, False]


# unknown-tower: records on unknown towers are always counted rejects
@pytest.mark.parametrize(
    "line", ["min_qualifying = 3", "clases = full", "unknown-tower = fail"]
)
def test_config_key_no_command_declares_is_refused(synth_dir, tmp_path, line, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    argv = (["detect", "--records", str(synth_dir / "records.csv"),
             "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
             "--hda", "MA", "--window", SPAN]
            if line.startswith("min") else ["windows", "--span", SPAN])
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    key = line.split(" =")[0]
    assert captured.err == f"error: {cfg}: no command takes the key {key!r}\n"


def test_config_key_of_another_command_is_skipped(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 4\n")
    assert main(["windows", "--span", SPAN]) == 0
    table = capsys.readouterr().out
    assert main(["windows", "--span", SPAN, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == table


def test_config_value_its_type_refuses_names_the_option(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = x\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad value --workers='x'"), err


@pytest.mark.parametrize("command", [
    "ingest-check", "windows", "synth", "detect", "sweep", "report", "score",
])
def test_help_of_every_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: cdrhomes {command} ")


def test_bad_config_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("span\n")
    assert main(["windows", "--config", str(cfg)]) == 1
    assert "expected key=value" in capsys.readouterr().err


def test_unknown_hda_rejected(synth_dir, tmp_path, capsys):
    rc = main([
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--hdas", "MA,TC-0-0", "--out", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "unknown HDA" in capsys.readouterr().err


def test_duplicate_hda_rejected(synth_dir, tmp_path, capsys):
    out = tmp_path / "r"
    rc = main([
        "sweep", "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--hdas", "MA,DD,MA", "--classes", "full", "--out", str(out),
    ])
    assert rc == 1
    assert "duplicate HDA 'MA'" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("cdrhomes ")
