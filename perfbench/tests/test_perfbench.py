"""Self-tests of the benchmark on tiny versions of each workload shape.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bench
import checks
import inputs
import spans

WORKLOADS = ("full-grid", "ingest-mixed", "parallel-dump")
BENCHMARK_JSON = bench.ROOT / "BENCHMARK.json"


def tiny(name: str) -> dict:
    spec = copy.deepcopy(bench.load_workloads()[name])
    spec["synth"].update(n_population=800, n_towers=40)
    spec["setup_repeats"] = 2
    return spec


def declared(section: str) -> dict[str, str]:
    doc = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def test_workloads_match_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bench.load_workloads())


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_emitted_with_its_unit(tmp_path, name, trace, section):
    result = bench.run_workload(name, tiny(name), 5, 0.1, trace, tmp_path)
    assert result["correct"], result["samples"]
    assert result["failed"] == 0 and result["attempted"] >= tiny(name)["cells"]
    assert len(result["samples"]["setup_s"]) == tiny(name)["setup_repeats"]
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == declared(section)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _corrupting_launch(monkeypatch, corrupt):
    real = bench._launch

    def launch(cmd, log_path, timeout):
        sweep = real(cmd, log_path, timeout)
        corrupt(Path(cmd[cmd.index("--out") + 1]))
        return sweep

    monkeypatch.setattr(bench, "_launch", launch)


def _append_byte(run_dir: Path) -> None:
    with open(run_dir / "duration_sensitivity.svg", "a") as fh:
        fh.write(" ")


def _move_one_home(run_dir: Path) -> None:
    path = run_dir / "towers" / "MA__full.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][3] = str(int(rows[1][3]) + 1)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_corrupted_report_differs_from_earlier_run(tmp_path, monkeypatch):
    spec = tiny("full-grid")
    assert bench.run_workload("full-grid", spec, 6, 0.1, False, tmp_path)["correct"]
    _corrupting_launch(monkeypatch, _append_byte)
    result = bench.run_workload("full-grid", spec, 6, 0.1, False, tmp_path)
    assert not result["correct"]
    # the warm-up sweep and one timed sweep
    assert result["failed"] == result["attempted"] == 2 * spec["cells"]
    problems = result["samples"]["sweeps"][0]["problems"]
    assert any("duration_sensitivity.svg" in p for p in problems)


def test_corrupted_report_fails_the_oracle_on_first_run(tmp_path, monkeypatch):
    _corrupting_launch(monkeypatch, _move_one_home)
    spec = tiny("ingest-mixed")
    result = bench.run_workload("ingest-mixed", spec, 7, 0.1, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("oracle" in p for p in result["samples"]["warmup"]["problems"])


def test_parallel_dump_matches_full_grid_on_shared_files(tmp_path):
    assert bench.run_workload("full-grid", tiny("full-grid"), 8, 0.1, False,
                              tmp_path)["correct"]
    result = bench.run_workload("parallel-dump", tiny("parallel-dump"), 8, 0.1, False,
                                tmp_path)
    assert result["correct"]
    stored = json.loads(next((tmp_path / "digests").glob("*.json")).read_text())
    shared = set(stored["full-grid"]) & set(stored["parallel-dump"])
    assert len(shared) == len(stored["full-grid"]) > 200


def test_ingest_mixed_injects_every_reject_kind(tmp_path):
    spec = tiny("ingest-mixed")
    inp = inputs.build(spec, 9, tmp_path)
    assert all(n > 0 for n in inp.injected.values())
    assert len(inp.users) == inp.n_lines - sum(
        inp.injected[k] for k in ("malformed", "unknown_tower", "out_of_span"))
    lines = inp.records.read_text().splitlines()
    assert len(lines) == inp.n_lines + 1
    assert sum(1 for line in lines if "T" in line.split(",")[-1]) == inp.injected["iso_local"]


def test_setup_repeat_must_write_the_same_files(tmp_path):
    inp = inputs.build(tiny("full-grid"), 11, tmp_path / "in")
    assert inputs.repeat_setup(inp, tmp_path / "again") == []
    assert len(inp.setup_s) == 2 and not (tmp_path / "again").exists()
    inp.digests[0] = "0" * 64
    problems = inputs.repeat_setup(inp, tmp_path / "again")
    assert len(problems) == 1 and "records.csv" in problems[0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_spans_nest_and_self_times_are_not_negative(tmp_path, name):
    spec = tiny(name)
    inp = inputs.build(spec, 10, tmp_path / "in")
    ctx = bench.Context(name, spec, inp, checks.oracle_ma_full(inp),
                        checks.DigestStore(tmp_path / "digests"), inputs.input_key(spec, 10),
                        time.perf_counter())
    traced = bench.traced_sweep(ctx, tmp_path)
    assert traced["sweep"].problems == []
    recorded = traced["spans"]
    assert spans.nesting_errors(recorded) == []
    kids = spans.children_of(recorded)
    assert all(spans.self_time(s, kids) >= 0 for s in recorded)
    flags = spec["sweep_flags"]
    n_parts = int(flags[flags.index("--partitions") + 1])
    detect = [s for s in recorded if s.name == "hda.detect_homes_bulk"]
    assert len(detect) == spec["cells"] * n_parts
    roots = [s for s in recorded if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    if bench._workers(spec) > 1:
        assert {s.pid for s in detect}.isdisjoint({roots[0].pid})


def test_self_time_and_nesting_arithmetic():
    parent = spans.Span("1:1", "p", 0.0, 10.0, None, 1)
    kids = [
        spans.Span("1:2", "a", 1.0, 4.0, "1:1", 1),
        spans.Span("1:3", "b", 3.0, 6.0, "1:1", 1),
        spans.Span("2:1", "w", 0.5, 9.0, "1:1", 2),  # another process: not subtracted
    ]
    assert spans.self_time(parent, spans.children_of([parent, *kids])) == pytest.approx(5.0)
    stray = spans.Span("1:4", "c", 9.0, 11.0, "1:1", 1)
    assert len(spans.nesting_errors([parent, stray])) == 1


def test_run_without_package_source_fails_without_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
