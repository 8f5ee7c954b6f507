"""One benchmark run: set up a workload's inputs, time sweeps, check outputs.

Output checks (manifest, oracle, digests) run between sweeps, outside the
timed interval. One untimed warm-up sweep, checked like the others, comes
first. A sweep is timed from launching the `cdrhomes sweep` process to
reaping it with os.wait4, which also gives its CPU time and peak RSS, its
reaped worker processes included.

With trace on, one more sweep runs in a child process that calls cli.main
with a span around each layer call (traced_sweep.py); the per-layer metrics
come from its spans, and trace.overhead_s is its wall time minus the median
untraced one.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import checks
import inputs as inputs_mod
import spans as spans_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS_FILE = HERE / "workloads.json"
WORK_ROOT = ROOT / ".perfbench-work"

# A run must exit within 180 s. No sweep starts that would likely end past
# RUN_BUDGET_S, and one still running at RUN_DEADLINE_S is killed (and fails).
RUN_BUDGET_S = 150.0
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "records_per_s": "records/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "synth.generate_s": "s",
    "synth.score_s": "s",
    "core.write_records_csv_s": "s",
    "core.ingest_s": "s",
    "core.ingest_parse_s": "s",
    "core.ingest_lines_per_s": "lines/s",
    "core.partition_records_s": "s",
    "core.lines": "count",
    "core.accepted": "count",
    "core.rejected_malformed": "count",
    "core.rejected_unknown_tower": "count",
    "core.rejected_out_of_span": "count",
    "timebase.local_fields_s": "s",
    "hda.detect_s": "s",
    "hda.detect_calls": "count",
    "hda.detect_call_ms.p50": "ms",
    "hda.detect_call_ms.p95": "ms",
    "hda.detect_s.MA": "s",
    "hda.detect_s.DD": "s",
    "hda.detect_s.TC": "s",
    "hda.detect_s.days14": "s",
    "hda.detect_s.days30": "s",
    "hda.detect_s.month": "s",
    "hda.detect_s.full": "s",
    "hda.aggregate_s": "s",
    "metrics.report_s": "s",
    "sweep.run_s": "s",
    "sweep.self_s": "s",
    "sweep.emit_s": "s",
    "sweep.cells_per_s": "cells/s",
    "sweep.files_written": "count",
    "sweep.bytes_written": "bytes",
    "sweep.parallel_efficiency": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def load_workloads() -> dict[str, dict]:
    return json.loads(WORKLOADS_FILE.read_text())["workloads"]


@dataclass
class Sweep:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    load_1min: float
    probe_ms: float
    problems: list[str] = field(default_factory=list)


def _loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


_PROBE = np.random.default_rng(0).integers(0, 2**62, size=1_000_000)


def _cpu_probe_ms() -> float:
    """Median time of a fixed sort in this process: how fast the machine is now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(_PROBE)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def _launch(cmd: list[str], log_path: Path, timeout: float) -> Sweep:
    """Run cmd to completion or kill it after timeout seconds.

    Wall time runs from launch to reaping; CPU and peak RSS come from wait4.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    load, probe = _loadavg(), _cpu_probe_ms()
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sweep(
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        peak_rss_mb=ru.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
        load_1min=load,
        probe_ms=probe,
    )


def sweep_args(spec: dict, inp: inputs_mod.Inputs, out_dir: Path) -> list[str]:
    s = spec["synth"]
    return [
        "--records", str(inp.records),
        "--towers", str(inp.towers),
        "--span", s["span"],
        "--tz", s["tz"],
        "--out", str(out_dir),
        "--truth", str(inp.truth),
        "--migration-range", s["migration_range"],
        *spec["sweep_flags"],
    ]


def _workers(spec: dict) -> int:
    flags = spec["sweep_flags"]
    return int(flags[flags.index("--workers") + 1])


def _log_tail(log_path: Path) -> str:
    text = log_path.read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-3:])


@dataclass
class Context:
    """What every output check of one run needs."""

    name: str
    spec: dict
    inp: inputs_mod.Inputs
    oracle: tuple
    store: checks.DigestStore
    key: str
    started: float  # perf_counter when the run began


def _checked_sweep(cmd: list[str], run_dir: Path, log: Path, ctx: Context) -> Sweep:
    """Launch one sweep writing to run_dir, then check its outputs."""
    sweep = _launch(cmd, log, max(1.0, RUN_DEADLINE_S - (time.perf_counter() - ctx.started)))
    sweep.problems = checks.check_run(run_dir, sweep.returncode, ctx.spec["cells"],
                                      ctx.inp, ctx.oracle, ctx.store, ctx.key, ctx.name)
    if sweep.returncode != 0:
        sweep.problems.append(f"log: {_log_tail(log)}")
    return sweep


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 work_root: Path = WORK_ROOT) -> dict:
    """Set up, time sweeps until `seconds` have passed, check them; returns the result set.

    The set-up runs setup_repeats times in all: once before the first sweep
    and the other times between sweeps, spread evenly over the timed
    interval, so that setup_s and the sweep metrics average the machine
    over the same stretch of time.
    """
    started = time.perf_counter()
    work = work_root / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inp = inputs_mod.build(spec, seed, work / "in")
        ctx = Context(name, spec, inp, checks.oracle_ma_full(inp),
                      checks.DigestStore(work_root / "digests"),
                      inputs_mod.input_key(spec, seed), started)

        def sweep_once(label: str) -> Sweep:
            run_dir = work / label
            cmd = [sys.executable, "-m", "cdrhomes.cli", "sweep",
                   *sweep_args(spec, inp, run_dir)]
            sweep = _checked_sweep(cmd, run_dir, work / f"{label}.log", ctx)
            shutil.rmtree(run_dir, ignore_errors=True)
            return sweep

        # checked like the others but not timed, so that timing starts with
        # the inputs, the package's bytecode and the interpreter warm
        warmup = sweep_once("warmup")
        sweeps: list[Sweep] = []
        setup_problems: list[str] = []
        repeats = spec["setup_repeats"]
        loop_t0 = time.perf_counter()
        while True:
            sweeps.append(sweep_once(f"sweep{len(sweeps)}"))
            now = time.perf_counter()
            if len(inp.setup_s) < repeats and now - loop_t0 >= seconds * len(inp.setup_s) / repeats:
                setup_problems += inputs_mod.repeat_setup(inp, work / "setup")
                now = time.perf_counter()
            last = sweeps[-1].wall_s
            reserve = (3 if trace else 2) * last  # the next sweep, and the traced one
            if now - loop_t0 >= seconds or now - started + reserve > RUN_BUDGET_S:
                break
        while len(inp.setup_s) < repeats:
            setup_problems += inputs_mod.repeat_setup(inp, work / "setup")
        traced = None
        if trace:
            traced = traced_sweep(ctx, work)
        return _result(name, spec, seed, seconds, trace, inp, warmup, sweeps, traced,
                       setup_problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_sweep(ctx: Context, work: Path) -> dict:
    """One checked sweep under traced_sweep.py, with its spans and output sizes."""
    run_dir = work / "traced"
    spans_dir = work / "spans"
    log = work / "traced.log"
    cmd = [sys.executable, str(HERE / "traced_sweep.py"), str(spans_dir),
           *sweep_args(ctx.spec, ctx.inp, run_dir)]
    sweep = _checked_sweep(cmd, run_dir, log, ctx)
    spans = spans_mod.read_spans(spans_dir)
    kids = spans_mod.children_of(spans)
    errors = spans_mod.nesting_errors(spans)
    errors += [f"{s.sid} {s.name} has negative self time" for s in spans
               if spans_mod.self_time(s, kids) < 0]
    sweep.problems += [f"trace: {e}" for e in errors[:5]]
    files = [p for p in run_dir.rglob("*") if p.is_file()]
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    return {
        "sweep": sweep,
        "spans": spans,
        "manifest": manifest,
        "files_written": len(files),
        "bytes_written": sum(p.stat().st_size for p in files),
    }


def layer_metrics(spans: list[spans_mod.Span], manifest: dict, inp: inputs_mod.Inputs,
                  untraced: list[Sweep], traced_wall: float, files_written: int,
                  bytes_written: int, workers: int) -> dict[str, float]:
    """Per-layer metrics from one traced sweep's spans and the untraced medians."""
    kids = spans_mod.children_of(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def only(name):
        found = named(name)
        if len(found) != 1:
            raise ValueError(f"expected one {name} span, found {len(found)}")
        return found[0]

    ingest, run, main = only("core.ingest"), only("sweep.run_sweep"), only("cli.main")
    detect = named("hda.detect_homes_bulk")
    detect_ms = np.array([s.duration * 1000.0 for s in detect])
    ing = manifest.get("ingest") or {}
    wall = statistics.median(s.wall_s for s in untraced)
    cpu = statistics.median(s.cpu_s for s in untraced)
    m = {
        "synth.generate_s": statistics.median(inp.call_s["synth.generate"]),
        "synth.score_s": total("synth.score_against_truth"),
        "core.write_records_csv_s": statistics.median(inp.call_s["core.write_records_csv"]),
        "core.ingest_s": ingest.duration,
        "core.ingest_parse_s": spans_mod.self_time(ingest, kids),
        "core.ingest_lines_per_s": ing.get("total_lines", 0) / ingest.duration,
        "core.partition_records_s": total("core.partition_records"),
        "core.lines": ing.get("total_lines", 0),
        "core.accepted": ing.get("accepted", 0),
        "core.rejected_malformed": ing.get("rejected_malformed", 0),
        "core.rejected_unknown_tower": ing.get("rejected_unknown_tower", 0),
        "core.rejected_out_of_span": ing.get("rejected_out_of_span", 0),
        "timebase.local_fields_s": total("timebase.local_fields"),
        "hda.detect_s": float(detect_ms.sum() / 1000.0),
        "hda.detect_calls": len(detect),
        "hda.detect_call_ms.p50": float(np.percentile(detect_ms, 50)),
        "hda.detect_call_ms.p95": float(np.percentile(detect_ms, 95)),
    }
    for crit in ("MA", "DD", "TC"):
        m[f"hda.detect_s.{crit}"] = sum(s.duration for s in detect
                                        if s.attrs["criterion"] == crit)
    for cls in ("days14", "days30", "month", "full"):
        m[f"hda.detect_s.{cls}"] = sum(s.duration for s in detect
                                       if s.attrs["class"] == cls)
    m.update({
        "hda.aggregate_s": total("hda.aggregate_homes") + total("hda.merge_vectors"),
        "metrics.report_s": total("metrics.compute_metric_report"),
        "sweep.run_s": run.duration,
        "sweep.self_s": spans_mod.self_time(run, kids),
        "sweep.emit_s": total("sweep.emit_reports"),
        "sweep.cells_per_s": manifest.get("n_cells", 0) / run.duration,
        "sweep.files_written": files_written,
        "sweep.bytes_written": bytes_written,
        "sweep.parallel_efficiency": cpu / (wall * workers),
        "cli.self_s": spans_mod.self_time(main, kids),
        "trace.overhead_s": traced_wall - wall,
    })
    return m


def _result(name, spec, seed, seconds, trace, inp, warmup, sweeps, traced,
            setup_problems) -> dict:
    all_sweeps = [warmup] + sweeps + ([traced["sweep"]] if traced else [])
    attempted = spec["cells"] * len(all_sweeps)
    failed = spec["cells"] * sum(1 for s in all_sweeps if s.problems)
    wall = statistics.median(s.wall_s for s in sweeps)
    if trace:
        metrics = layer_metrics(traced["spans"], traced["manifest"], inp, sweeps,
                                traced["sweep"].wall_s, traced["files_written"],
                                traced["bytes_written"], _workers(spec))
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall,
            "records_per_s": statistics.median(inp.n_lines / s.wall_s for s in sweeps),
            "cpu_s": statistics.median(s.cpu_s for s in sweeps),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in sweeps),
            "setup_s": statistics.median(inp.setup_s),
        }
        units = END_TO_END_UNITS
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and not setup_problems,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "samples": {
            "setup_s": inp.setup_s,
            "setup_problems": setup_problems,
            "warmup": warmup.__dict__,
            "sweeps": [s.__dict__ for s in sweeps],
            "traced": traced["sweep"].__dict__ if traced else None,
        },
        "input": {"lines": inp.n_lines, "injected": inp.injected,
                  "key": inputs_mod.input_key(spec, seed)},
        "env": environment(),
    }


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref).strip()
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def environment() -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "page_cache": "inputs are read warm from the page cache; caches are not dropped",
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def save_result(result: dict, work_root: Path = WORK_ROOT) -> Path:
    out = work_root / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = result["env"]["utc"].replace(":", "")
    path = out / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}-{stamp}.json"
    path.write_text(json.dumps(result, indent=1, default=str))
    return path
