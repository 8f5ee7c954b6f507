"""End-to-end runs of the command-line front end via main(argv)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdrhomes
from cdrhomes.cli import load_config, main
from cdrhomes.core import DatasetSpan
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


def test_windows_table(capsys):
    rc = main(["windows", "--span", "2007-05-13..2007-10-13"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "label,first_day,last_day,class"
    assert len(lines) == 1 + 23
    rc = main(["windows", "--span", SPAN, "--classes", "days14,full"])
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 3


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
    vectors = (out / "vectors.csv").read_text().strip().split("\n")
    assert vectors[0] == "tower_id,x,y"
    assert len(vectors) == 1 + 12
    assigned = sum(int(l.split(",")[1]) for l in vectors[1:])
    assert f"assigned={assigned}" in said

    rc = main([
        "score", "--assignments", str(out / "assignments.csv"),
        "--truth", str(synth_dir / "truth.csv"), "--window", SPAN,
        "--migration-range", "2007-06-08..2007-06-24", "--hda", "MA",
    ])
    assert rc == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "hda,window,group,n_users,n_correct,accuracy"
    by_group = {r.split(",")[2]: r.split(",") for r in rows[1:]}
    assert int(by_group["all"][3]) == 112
    assert int(by_group["migrant"][3]) + int(by_group["non_migrant"][3]) == 112


def test_detect_dump_equals_sweep_dump(synth_dir, tmp_path):
    inputs = [
        "--records", str(synth_dir / "records.csv"),
        "--towers", str(synth_dir / "towers.csv"), "--span", SPAN,
        "--partitions", "2",
    ]
    assert main([
        "detect", *inputs, "--hda", "DD", "--window", SPAN,
        "--out", str(tmp_path / "detect"), "--dump-assignments",
    ]) == 0
    assert main([
        "sweep", *inputs, "--hdas", "DD", "--classes", "full",
        "--out", str(tmp_path / "sweep"), "--dump-assignments", "true",
    ]) == 0
    dump = (tmp_path / "detect" / "assignments.csv").read_bytes()
    assert dump == (tmp_path / "sweep" / "assignments" / "DD__full.csv").read_bytes()
    assert dump.count(b"\n") == 1 + 112


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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.cfg"]


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
    stages = manifest["stages"]
    assert set(stages) == {
        "ingest_parse_s", "partition_records_s", "run_sweep_s",
        "peak_rss_mb", "workers_peak_rss_mb",
    }
    for key, value in stages.items():
        assert isinstance(value, (int, float)) and value >= 0, key
    assert stages["peak_rss_mb"] > 0
    # the ingest block holds the counts alone, as ingest-check prints them
    capsys.readouterr()
    assert main(["ingest-check", *argv[1:7]]) == 0
    printed = [line.split("=", 1) for line in capsys.readouterr().out.splitlines()]
    assert {k: str(v) for k, v in manifest["ingest"].items()} == {
        k: v for k, v in printed if k != "sample_reject"
    }


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no VmHWM")
def test_sweep_peak_rss_is_its_own_not_its_launchers(synth_dir, tmp_path):
    # getrusage(RUSAGE_SELF) in the sweep would carry this process's
    # high-water mark, 160 MiB or more, across exec
    held = np.ones(160 * 2**20 // 8)
    run = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-m", "cdrhomes.cli", "sweep",
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

    # the cells kept would be wrong: a fresh run with this threshold differs
    fresh = tmp_path / "fresh"
    assert main(argv[:-1] + [str(fresh), "--exclusion-threshold", "50"]) == 0
    assert (fresh / "metrics.csv").read_bytes() != (run / "metrics.csv").read_bytes()
    assert main(argv + ["--resume", "--exclusion-threshold", "50"]) == 1
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
])
def test_cli_errors_exit_1(argv, fragment, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err


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
