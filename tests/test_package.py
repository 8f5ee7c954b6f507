"""The names the benchmark's tracer rebinds, and what importing the
package and the CLI loads and starts."""

import collections
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdrhomes
from cdrhomes import cli


def _traced_sweep(monkeypatch):
    """perfbench/traced_sweep.py, imported; it prepends to sys.path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "traced_sweep.py"
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("traced_sweep", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def test_every_name_the_benchmark_tracer_rebinds_exists(monkeypatch):
    # perfbench/traced_sweep.py rebinds these names for --trace runs; a name
    # deleted here would break the trace without failing any other test
    targets = _traced_sweep(monkeypatch).layer_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("extra", [
    [],
    ["--workers", "2", "--dump-assignments", "true"],  # forked workers write files
], ids=["sequential", "forked"])
def test_traced_sweep_runs_and_records_a_span_per_layer(monkeypatch, tmp_path, extra):
    # the tracer's span callbacks take the rebound functions' arguments, so
    # a changed call signature breaks a traced run: run one, small
    traced = _traced_sweep(monkeypatch)
    data = tmp_path / "data"
    span = "2007-06-01..2007-06-28"
    assert cli.main([
        "synth", "--out", str(data), "--seed", "5", "--span", span,
        "--n-towers", "12", "--n-population", "400", "--daily-event-rate", "3",
    ]) == 0
    rc = traced.main([
        str(tmp_path / "spans"), "--records", str(data / "records.csv"),
        "--towers", str(data / "towers.csv"), "--span", span,
        "--truth", str(data / "truth.csv"), "--out", str(tmp_path / "run"),
        "--hdas", "MA,DD", "--classes", "full", "--partitions", "2", *extra,
    ])
    assert rc == 0
    spans = [
        json.loads(line)
        for path in (tmp_path / "spans").glob("spans-*.jsonl")
        for line in path.read_text().splitlines()
    ]
    n_pids = len({s["pid"] for s in spans})
    assert n_pids > 1 if extra else n_pids == 1
    count = collections.Counter(s["name"] for s in spans)
    assert count["sweep.cell"] == 2
    assert count["hda.detect_homes_bulk"] == 4  # per cell and partition
    assert count["metrics.compute_metric_report"] == 2
    assert count["synth.score_against_truth"] == 2
    assert {s["cell"] for s in spans if s["name"] == "synth.score_against_truth"} == {
        "MA|full", "DD|full"
    }


def _fresh_python(code: str, **env: str) -> str:
    """stdout of code run by a new interpreter that imports cdrhomes from
    this checkout, OPENBLAS_NUM_THREADS unset unless given in env."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(cdrhomes.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**base, "PYTHONPATH": src, **env},
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_importing_the_package_loads_no_numpy_and_sets_nothing():
    out = _fresh_python(
        "import os, sys, cdrhomes\n"
        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    assert out.split() == ["False", "None"]


def _threads_after_importing_the_cli(**env: str) -> tuple[int, bool]:
    """The thread count of a new process that imported cdrhomes.cli, and
    whether numpy's BLAS there is OpenBLAS."""
    out = _fresh_python(
        "import os, cdrhomes.cli\n"
        "maps = open('/proc/self/maps').read()\n"
        "print(len(os.listdir('/proc/self/task')), 'openblas' in maps.lower())\n",
        **env,
    )
    count, openblas = out.split()
    return int(count), openblas == "True"


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="counts the threads in /proc/self/task of a multi-core Linux host",
)
def test_the_cli_starts_no_blas_thread_pool_unless_asked():
    count, openblas = _threads_after_importing_the_cli()
    if not openblas:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert count == 1
    # a value already set wins over the CLI's pin: main thread and one more
    count, _ = _threads_after_importing_the_cli(OPENBLAS_NUM_THREADS="2")
    assert count == 2


def test_a_one_worker_sweep_imports_no_process_pool(tmp_path):
    # only a sweep that forks pays for importing the pool's modules
    data, run = tmp_path / "data", tmp_path / "run"
    out = _fresh_python(
        "import sys\n"
        "from cdrhomes.cli import main\n"
        f"assert main(['synth', '--out', {str(data)!r}, '--seed', '5',\n"
        "    '--span', '2007-06-01..2007-06-14', '--n-towers', '12',\n"
        "    '--n-population', '400']) == 0\n"
        f"assert main(['sweep', '--records', {str(data / 'records.csv')!r},\n"
        f"    '--towers', {str(data / 'towers.csv')!r},\n"
        "    '--span', '2007-06-01..2007-06-14', '--classes', 'full',\n"
        f"    '--out', {str(run)!r}, '--workers', '1']) == 0\n"
        "print(*(m in sys.modules for m in ('multiprocessing', 'concurrent.futures')))\n"
    )
    assert out.splitlines()[-1].split() == ["False", "False"]
    assert len(list((run / "towers").iterdir())) == 9  # every criterion ran
