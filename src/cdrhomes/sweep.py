"""Grid sweeps: every (HDA, window) cell detected, scored, and persisted.

Cells are independent, so parallelism is cell-level: each cell is computed
wholly inside one process and pure numpy makes its numbers bitwise
reproducible, which keeps final report files byte-identical for any worker
count. A cell's result is its cells.jsonl record, in memory as on disk:
computing a cell yields that record, SweepResult.add_cell keeps it, and the
reports read the kept records, so a live sweep and a run directory read back
by load_run emit the same bytes. The process computing a cell writes its
files, and the cell is recorded only after it returns. A killed run resumes
by skipping cells already recorded there, provided they carry the run's
fingerprint (a hash of the package source, options, grid and input arrays);
cells computed under anything else refuse the resume. A fresh (non-resume)
sweep first removes every file an earlier sweep may have left in the
directory (RUN_FILES, and their .tmp forms) and nothing else.

Worker processes use the fork start method and read the shared state from a
module global set before the pool starts; where fork is unavailable the
sweep degrades to sequential execution with identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, fields
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    IngestReport, TowerRegistry, UserPartition, format_blocks, read_table,
)
from .hda import (
    BulkAssignments, HdaSpec, aggregate_homes, detect_homes_bulk,
    merge_vectors,  # no caller: perfbench/traced_sweep.py rebinds this name
)
from .metrics import compute_metric_report, log_ratio_array
from .svgplot import line_chart
from .synth import GroundTruthTable, accuracy_csv, score_against_truth
from .windows import ObservationWindow, windows_table

CELLS_FILE = "cells.jsonl"
MANIFEST_FILE = "manifest.json"
TOWERS_DIR = "towers"
ASSIGNMENTS_DIR = "assignments"
ASSIGNMENTS_HEADER = ("user_id", "home_tower", "qualifying_count", "tie_broken")
# every file a sweep writes into its run directory, as glob patterns: a
# fresh sweep removes them and their .tmp forms (see _atomic_write) first,
# so none is left from an earlier run
RUN_FILES = (
    CELLS_FILE, MANIFEST_FILE, "windows.csv", "metrics.csv",
    "correlation_over_time.csv", "duration_sensitivity.csv",
    "criteria_sensitivity.csv", "decile_summary.csv", "accuracy.csv",
    "correlation_over_time_*.svg", "duration_sensitivity.svg",
    "criteria_sensitivity.svg", f"{TOWERS_DIR}/*.csv", f"{ASSIGNMENTS_DIR}/*.csv",
)


@dataclass(frozen=True)
class SweepOptions:
    """Knobs that apply to every cell of a sweep."""

    exclusion_threshold: int = 0
    min_qualifying: int = 1
    workers: int = 1
    per_tower_exports: bool = True
    dump_assignments: bool = False
    resume: bool = False

    def __post_init__(self):
        if self.exclusion_threshold < 0:
            raise ValueError("exclusion_threshold must be >= 0")
        if self.min_qualifying < 1:
            raise ValueError("min_qualifying must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class SweepResult:
    """Everything a finished sweep knows, keyed by (hda, window) labels:
    each ok cell's cells.jsonl record, and each failed cell's error."""

    windows: list[ObservationWindow]
    hda_names: list[str]
    reports: dict[tuple[str, str], dict] = field(default_factory=dict)
    errors: dict[tuple[str, str], str] = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        return len(self.hda_names) * len(self.windows)

    @property
    def n_failed(self) -> int:
        return len(self.errors)

    def add_cell(self, rec: dict) -> None:
        """Take in one cell record: an ok record itself, or a failed one's error."""
        key = (rec["hda"], rec["window"])
        if rec["status"] == "ok":
            self.reports[key] = rec
        else:
            self.errors[key] = rec["error"]


def _readable(rec: dict) -> bool:
    """Whether the reports can read an "ok" record: every field they use is
    there, with its type (numbers as json.loads gives them, never bool)."""

    def num(v) -> bool:
        return type(v) in (int, float)

    try:
        return (
            all(type(rec[k]) is str for k in ("hda", "window", "class"))
            and (rec["pearson"] is None or num(rec["pearson"]))
            and type(rec["n_used"]) is type(rec["n_excluded"]) is int
            and all(len(row) == 6 and all(map(num, row)) for row in rec["deciles"])
            and all(
                type(g) is str and type(n) is type(c) is int
                for g, n, c in rec["accuracy"] or ()
            )
        )
    except (KeyError, TypeError, ValueError):  # absent, or not rows of the length
        return False


def warn_unparseable(n_bad: int, path: Path) -> None:
    """Say on stderr how many lines of a cells.jsonl were skipped, if any."""
    if n_bad:
        print(f"warning: skipped {n_bad} unparseable line(s) in {path}",
              file=sys.stderr)


def _atomic_write(path: Path, data: str | bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)


def _ffmt(v) -> str:
    """Lossless float cell, empty for missing/NaN."""
    if v is None:
        return ""
    f = float(v)
    if f != f:  # NaN
        return ""
    return repr(f)


# shared state for forked workers; set in the parent before the pool starts
_STATE: dict | None = None


def _compute_cell(state: dict, h_idx: int, w_idx: int) -> dict:
    """The cell's cells.jsonl record, "ok" or "failed". An ok cell first
    writes its files; a write error aborts the sweep, it fails no cell."""
    spec: HdaSpec = state["hdas"][h_idx]
    window: ObservationWindow = state["windows"][w_idx]
    t0 = time.perf_counter()
    rec = {"hda": spec.name, "window": window.label}
    try:
        bulks = [
            detect_homes_bulk(
                part, window, spec, min_qualifying=state["min_qualifying"]
            )
            for part in state["partitions"]
        ]
        # the cell's one result: its users partition by partition, the
        # order its dump writes
        bulk = BulkAssignments(*(
            np.concatenate([getattr(b, f.name) for b in bulks])
            for f in fields(BulkAssignments)
        ))
        registry: TowerRegistry = state["registry"]
        x = aggregate_homes(bulk, registry)
        accuracy = None
        if state["truth"] is not None:
            rows = score_against_truth(
                {spec.name: bulk}, state["truth"], window, state["migration"]
            )
            accuracy = [[g, n, c] for _, _, g, n, c in rows]
        rec.update(
            compute_metric_report(
                x,
                registry.population,
                window.duration_class,
                n_users=len(bulk.user_ids),
                exclusion_threshold=state["exclusion_threshold"],
            ),
            status="ok",
            n_tied=int(bulk.tie_broken.sum()),
            accuracy=accuracy,
        )
    except Exception:
        rec.update(status="failed", error=traceback.format_exc(limit=8))
    else:
        name = f"{spec.name}__{window.label}.csv"
        if state["towers_dir"] is not None:
            _write_tower_export(
                state["towers_dir"] / name, x, registry.population,
                state["tower_rows"], state["tower_lines"],
            )
        if state["assignments_dir"] is not None:
            _write_assignment_dump(state["assignments_dir"] / name, bulk)
    rec["fingerprint"] = state["fingerprint"]
    rec["elapsed"] = round(time.perf_counter() - t0, 4)
    return rec


def _cell_entry(h_idx: int, w_idx: int) -> dict:
    assert _STATE is not None, "worker state missing (fork expected)"
    return _compute_cell(_STATE, h_idx, w_idx)


def _fingerprint(
    header: dict,
    partitions: list[UserPartition],
    registry: TowerRegistry,
    truth: GroundTruthTable | None,
) -> str:
    """sha256 of what a cell's record depends on: the package's own source,
    the header (numpy's version included), then every partition, registry
    and truth array (name, dtype, shape and bytes)."""
    arrays = [
        (f"partition{i}.{f.name}", getattr(p, f.name))
        for i, p in enumerate(partitions)
        for f in fields(p)
        if isinstance(getattr(p, f.name), np.ndarray)
    ]
    arrays += [
        (f"registry.{name}", getattr(registry, name))
        for name in ("tower_ids", "lon", "lat", "population")
    ]
    if truth is not None:
        arrays += [(f"truth.{f.name}", getattr(truth, f.name)) for f in fields(truth)]
    h = hashlib.sha256()
    # any edit to the code may change a record, so a resume under other
    # code is refused like one under other inputs
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"\n{path.name}\n".encode())
        h.update(path.read_bytes())
    h.update(json.dumps(header, sort_keys=True, default=str).encode())
    for name, a in arrays:
        h.update(f"\n{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


def load_run(
    out_dir, windows=None, hda_names=None, *, fingerprint: str | None = None
) -> tuple[SweepResult, int]:
    """Rebuild a SweepResult from a run directory's cells.jsonl.

    The grid comes from manifest.json unless windows and hda_names are
    given (a killed run has not written its manifest). Every grid cell
    recorded "ok" is restored through SweepResult.add_cell; failed cells
    are left out, so a resume computes them again. Returns the result and
    the number of unparseable lines: those that are not UTF-8 JSON objects, and
    "ok" records the reports cannot read (see _readable), whose cells a
    resume computes again too.

    The manifest is checked in one place: one that is not JSON, or records
    no grid, raises ValueError naming the file. A resume passes the run's
    fingerprint: an "ok" record with another fingerprint, or none, raises
    ValueError (it was computed under other inputs or options).
    """
    out_path = Path(out_dir)
    if windows is None:
        manifest_path = out_path / MANIFEST_FILE
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no {MANIFEST_FILE} in {out_path}; run sweep first"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
            windows = [
                ObservationWindow(
                    w["label"],
                    date.fromisoformat(w["first_day"]),
                    date.fromisoformat(w["last_day"]),
                    w["class"],
                )
                for w in manifest["windows"]
            ]
            hda_names = manifest["hdas"]
            if type(hda_names) is not list or not all(
                type(v) is str for v in [*hda_names, *(w.label for w in windows)]
            ):
                raise TypeError("hdas and window labels must be lists of text")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{manifest_path}: not a sweep manifest ({type(exc).__name__}: {exc})"
            ) from None
    result = SweepResult(windows=list(windows), hda_names=list(hda_names))
    path = out_path / CELLS_FILE
    if not path.exists():
        return result, 0
    grid = {(h, w.label) for h in result.hda_names for w in result.windows}
    n_bad = 0
    for line in path.read_bytes().split(b"\n"):  # decoded line by line
        if not line.strip():
            continue
        try:
            rec = json.loads(line.decode())
        except ValueError:  # UnicodeDecodeError or JSONDecodeError
            rec = None
        if not isinstance(rec, dict):
            n_bad += 1
            continue
        if rec.get("status") != "ok":
            continue
        if not _readable(rec):
            n_bad += 1
            continue
        if fingerprint is not None and rec.get("fingerprint") != fingerprint:
            raise ValueError(
                f"cannot resume {out_path}: cell {rec.get('hda')}|"
                f"{rec.get('window')} was computed under other inputs or options "
                f"(fingerprint {rec.get('fingerprint')} != {fingerprint}); "
                "run without resume"
            )
        if (rec.get("hda"), rec.get("window")) in grid:
            result.add_cell(rec)
    return result, n_bad


def _peak_rss_mb() -> tuple[float, float]:
    """Peak resident set sizes in MiB: this process's, and that of its
    largest waited-for child (0 without children).

    getrusage(RUSAGE_SELF) carries across exec the high-water mark of the
    process that started this one, so this process's own figure is read
    from VmHWM in /proc/self/status, which starts anew at exec, where that
    file exists (Linux). ru_maxrss is in KiB on Linux, in bytes on macOS.
    """
    unit = 2**20 if sys.platform == "darwin" else 2**10
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1]) / 2**10
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / unit
    return round(own, 1), round(children, 1)


def _tower_export_rows(registry: TowerRegistry) -> list[tuple[str, str]]:
    """Per-tower text of a tower export around its x: ("id,lon,lat,", ",y,")."""
    return [
        (f"{tid},{lon!r},{lat!r},", f",{pop},")
        for tid, lon, lat, pop in zip(
            registry.tower_ids.tolist(),
            registry.lon.tolist(),
            registry.lat.tolist(),
            registry.population.tolist(),
        )
    ]


# most lines a sweep process keeps in its tower-export memo; a full memo is
# emptied, so its memory never grows with towers x cells
_EXPORT_MEMO_LINES = 1 << 15


def _write_tower_export(
    path: Path,
    x: np.ndarray,
    population: np.ndarray,
    rows: list[tuple[str, str]],
    memo: dict[int, str],
) -> None:
    """One cell's per-tower CSV; rows come from _tower_export_rows.

    A line depends only on its registry row and x (the log ratio is ln(x/y)
    element by element), so memo maps row + x * len(rows) to finished line
    text, and a cell formats only the lines no earlier cell of this sweep
    process wrote; a cell whose every line is in the memo takes no log
    ratio. Each sweep, and each of its workers, has its own memo.
    """
    keys = (x * len(rows) + np.arange(len(rows))).tolist()
    lines = [memo.get(k) for k in keys]
    if None in lines:
        xs, lr = x.tolist(), log_ratio_array(x, population).tolist()
        for i, line in enumerate(lines):
            if line is None:
                head, mid = rows[i]
                v = "" if lr[i] != lr[i] else repr(lr[i])  # NaN
                if len(memo) >= _EXPORT_MEMO_LINES:
                    memo.clear()
                lines[i] = memo[keys[i]] = f"{head}{xs[i]}{mid}{v}"
    _atomic_write(path, "\n".join(["tower_id,lon,lat,x,y,logratio", *lines]) + "\n")


def _write_assignment_dump(path: Path, bulk: BulkAssignments) -> None:
    """Per-user CSV of a cell's BulkAssignments, rows in its user order.

    _compute_cell puts the users partition by partition, by ascending user
    id within each partition, so the row order (not the rows) depends on
    the partition count; an unassigned user has an empty home_tower. numpy
    formats the rows, as write_records_csv's (see core.format_blocks).
    """
    columns = [bulk.user_ids, bulk.home_towers, bulk.qualifying,
               bulk.tie_broken.view(np.uint8)]  # bool as 0 / 1
    header = (",".join(ASSIGNMENTS_HEADER) + "\n").encode()
    _atomic_write(path, b"".join([header, *format_blocks(columns, blank=(1,))]))


def read_assignment_dump(path) -> BulkAssignments:
    """The BulkAssignments of a file _write_assignment_dump wrote (rows in
    file order); ValueError naming the file and line of a bad row."""
    uids, homes, quals, ties = read_table(
        path, ASSIGNMENTS_HEADER, (np.uint64, np.int64, np.int64, np.int64),
        blank=("home_tower",),
    )
    return BulkAssignments(uids, homes, quals, ties.astype(bool))


def run_sweep(
    partitions: list[UserPartition],
    registry: TowerRegistry,
    windows: list[ObservationWindow],
    hdas: list[HdaSpec],
    out_dir=None,
    options: SweepOptions = SweepOptions(),
    *,
    truth: GroundTruthTable | None = None,
    migration=None,  # anything with first_day and last_day
    span: str = "",
    tz_name: str = "",
    ingest_report: IngestReport | None = None,
) -> tuple[SweepResult, dict]:
    """Compute the full grid, persisting each cell as it completes; returns
    the result and the manifest.json dict.

    With out_dir=None nothing is written (in-memory use); otherwise the
    directory is probed for writability first, and emit_reports is invoked
    at the end. A user of the partitions whom truth lacks raises KeyError
    before anything is written. options.resume keeps the records of an
    existing cells.jsonl (ValueError if any has another fingerprint) and
    rewrites the file with them alone, warning of the unparseable lines
    dropped; without it the RUN_FILES in the directory and their .tmp forms
    are removed first, and the towers and assignments directories too when
    that empties them. The
    manifest's stages hold the ingest parse, partition_records and run_sweep
    seconds (perf_counter; the first two from ingest_report) and the peak
    RSS in MiB of this process and of its largest worker (see _peak_rss_mb).
    """
    t_start = time.perf_counter()
    if truth is not None:
        for part in partitions:  # a user without a truth row fails every cell
            truth.rows_for_users(part.user_ids)
    hdas = list(hdas)
    result = SweepResult(windows=list(windows), hda_names=[s.name for s in hdas])
    window_dicts = [
        {
            "label": w.label,
            "first_day": w.first_day.isoformat(),
            "last_day": w.last_day.isoformat(),
            "class": w.duration_class,
        }
        for w in result.windows
    ]
    options_used = asdict(options)
    del options_used["workers"], options_used["resume"]  # neither changes a record
    header = {
        "numpy": np.__version__,  # np.log and np.std may differ between versions
        "options": options_used,
        "span": span,
        "tz": tz_name,
        "hdas": [asdict(s) for s in hdas],
        "windows": window_dicts,
        "n_partitions": len(partitions),
        "migration": None if migration is None else (
            migration.first_day, migration.last_day
        ),
    }
    fingerprint = _fingerprint(header, partitions, registry, truth)
    state = {
        "partitions": partitions,
        "registry": registry,
        "windows": result.windows,
        "hdas": hdas,
        "min_qualifying": options.min_qualifying,
        "exclusion_threshold": options.exclusion_threshold,
        "truth": truth,
        "migration": migration,
        "fingerprint": fingerprint,
        "towers_dir": None,
        "assignments_dir": None,
    }
    out_path: Path | None = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        probe = out_path / ".write_probe"
        try:
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            raise OSError(f"output directory not writable: {out_path}") from exc
        if options.resume:
            result, n_bad = load_run(
                out_path, result.windows, result.hda_names, fingerprint=fingerprint
            )
            warn_unparseable(n_bad, out_path / CELLS_FILE)
            _atomic_write(out_path / CELLS_FILE, "".join(
                json.dumps(r, sort_keys=True) + "\n" for r in result.reports.values()
            ))  # one record per kept cell: no unparseable, failed or torn line
        else:
            for pattern in (*RUN_FILES, *(p + ".tmp" for p in RUN_FILES)):
                for path in out_path.glob(pattern):
                    path.unlink()
            for name in (TOWERS_DIR, ASSIGNMENTS_DIR):
                with contextlib.suppress(OSError):  # absent, or holds other files
                    (out_path / name).rmdir()
        if options.per_tower_exports:
            state["towers_dir"] = out_path / TOWERS_DIR
            state["towers_dir"].mkdir(exist_ok=True)
            state["tower_rows"] = _tower_export_rows(registry)
            state["tower_lines"] = {}  # the memo of _write_tower_export
        if options.dump_assignments:
            state["assignments_dir"] = out_path / ASSIGNMENTS_DIR
            state["assignments_dir"].mkdir(exist_ok=True)

    todo = [
        (h_idx, w_idx)
        for h_idx, hda in enumerate(result.hda_names)
        for w_idx, window in enumerate(result.windows)
        if (hda, window.label) not in result.reports
    ]
    n_before = result.n_cells - len(todo)  # recorded by an earlier run

    show_progress = sys.stderr.isatty()
    t_cells = time.perf_counter()

    def take(rec: dict) -> None:
        result.add_cell(rec)
        if cells is not None:
            # the cell wrote its files before it returned: a resume skips
            # every recorded cell, so a run killed in between leaves it
            # unrecorded; each line is flushed whole, so a kill tears one at most
            cells.write(json.dumps(rec, sort_keys=True) + "\n")
            cells.flush()
        if show_progress:  # cells done, the total, and an ETA at this run's rate
            done, total = len(result.reports) + result.n_failed, result.n_cells
            eta = (time.perf_counter() - t_cells) / (done - n_before) * (total - done)
            print(f"\rcells {done}/{total}, ETA {eta:.0f} s", file=sys.stderr,
                  end="\n" if done == total else "", flush=True)

    # a fork pool starts all its workers at once: no more than there are cells
    use_workers = min(options.workers, len(todo))
    if use_workers > 1:
        # imported here, so that a one-worker sweep does not pay for them
        import concurrent.futures
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            use_workers = 1
    with (
        contextlib.nullcontext() if out_path is None
        else open(out_path / CELLS_FILE, "a")
    ) as cells:
        if use_workers > 1:
            global _STATE
            _STATE = state
            try:
                with concurrent.futures.ProcessPoolExecutor(
                    max_workers=use_workers,
                    mp_context=multiprocessing.get_context("fork"),
                ) as pool:
                    futures = [pool.submit(_cell_entry, h, w) for h, w in todo]
                    try:
                        for fut in concurrent.futures.as_completed(futures):
                            take(fut.result())
                    except BaseException:  # run none of the cells still queued
                        pool.shutdown(cancel_futures=True)
                        raise
            finally:
                _STATE = None
        else:
            for h, w in todo:
                take(_compute_cell(state, h, w))

    elapsed = round(time.perf_counter() - t_start, 3)
    if out_path is not None:
        emit_reports(result, out_path)
    stages = {}
    if ingest_report is not None:
        stages["ingest_parse_s"] = round(ingest_report.parse_seconds, 4)
        stages["partition_records_s"] = round(ingest_report.partition_seconds, 4)
    stages["run_sweep_s"] = round(time.perf_counter() - t_start, 4)
    # the pool's workers were waited for when it closed
    stages["peak_rss_mb"], stages["workers_peak_rss_mb"] = _peak_rss_mb()
    manifest = {
        "tool": "cdrhomes",
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "version": __version__,
        "span": span,
        "tz": tz_name,
        "n_partitions": len(partitions),
        "options": asdict(options),
        "hdas": list(result.hda_names),
        "windows": window_dicts,
        "fingerprint": fingerprint,
        "n_cells": result.n_cells,
        "n_failed": result.n_failed,
        "failed_cells": sorted(f"{h}|{w}" for h, w in result.errors),
        "elapsed_seconds": elapsed,
        "ingest": ingest_report.as_dict() if ingest_report else None,
        "stages": stages,
    }
    if out_path is not None:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _atomic_write(out_path / MANIFEST_FILE, text)
    return result, manifest


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _r_stats(rs: list[float]) -> tuple:
    """(mean, min, max, spread) of defined Pearson r values; Nones if none."""
    if not rs:
        return None, None, None, None
    return sum(rs) / len(rs), min(rs), max(rs), max(rs) - min(rs)


def emit_reports(result: SweepResult, out_dir) -> list[Path]:
    """Write the final report files; an empty grid still yields valid headers.

    One pass groups the cells: the computed cells in grid order, and the
    defined Pearson r per HDA (in window order) and per window (in HDA
    order). Every CSV and chart reads those lists.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = out_path / name
        _atomic_write(path, text)
        written.append(path)

    def chart(name: str, series: list, y_label: str = "Pearson r", **kwargs):
        if any(pts for _, pts in series):
            emit(name, line_chart(series, y_label=y_label, **kwargs))

    cells = [
        (hda, w, result.reports[(hda, w.label)])
        for hda in result.hda_names
        for w in result.windows
        if (hda, w.label) in result.reports
    ]
    r_by_hda = {hda: [] for hda in result.hda_names}
    r_by_window = {w.label: [] for w in result.windows}
    for hda, w, rec in cells:
        if rec["pearson"] is not None:
            r_by_hda[hda].append((w, rec["pearson"]))
            r_by_window[w.label].append(rec["pearson"])
    classes = list(dict.fromkeys(w.duration_class for w in result.windows))

    emit("windows.csv", windows_table(result.windows))
    emit("metrics.csv", _csv("hda,window,class,pearson_r,n_used,excluded", (
        f"{hda},{w.label},{w.duration_class},"
        f"{_ffmt(rec['pearson'])},{rec['n_used']},{rec['n_excluded']}"
        for hda, w, rec in cells
    )))
    emit("correlation_over_time.csv", _csv("hda,window,class,midpoint,pearson_r", (
        f"{hda},{w.label},{w.duration_class},"
        f"{w.midpoint.isoformat()},{_ffmt(rec['pearson'])}"
        for hda, w, rec in cells
    )))
    # r spread per HDA per duration class
    rows = []
    for hda in result.hda_names:
        for cls in classes:
            rs = [r for w, r in r_by_hda[hda] if w.duration_class == cls]
            stats = ",".join(_ffmt(v) for v in _r_stats(rs)[:3])
            rows.append(f"{hda},{cls},{len(rs)},{stats}")
    emit("duration_sensitivity.csv", _csv(
        "hda,class,n_windows,mean_pearson,min_pearson,max_pearson", rows
    ))
    # r spread across HDAs per window
    emit("criteria_sensitivity.csv", _csv(
        "window,class,n_hdas,mean_pearson,min_pearson,max_pearson,spread",
        (
            f"{w.label},{w.duration_class},{len(r_by_window[w.label])},"
            + ",".join(_ffmt(v) for v in _r_stats(r_by_window[w.label]))
            for w in result.windows
        ),
    ))
    emit("decile_summary.csv", _csv("hda,window,bin,n,y_lo,y_hi,mean_x,std_x", (
        f"{hda},{w.label},{index},{n},{','.join(_ffmt(v) for v in stats)}"
        for hda, w, rec in cells
        for index, n, *stats in rec["deciles"]
    )))
    # accuracy.csv only when the sweep was truth-scored
    accuracy = [
        (hda, w.label, *row) for hda, w, rec in cells for row in rec["accuracy"] or ()
    ]
    if accuracy:
        emit("accuracy.csv", accuracy_csv(accuracy))

    for cls in classes:
        chart(
            f"correlation_over_time_{cls}.svg",
            [
                (hda, [
                    (float(w.midpoint.toordinal()), r)
                    for w, r in r_by_hda[hda]
                    if w.duration_class == cls
                ])
                for hda in result.hda_names
            ],
            title=f"Correlation with population over time ({cls} windows)",
            x_label="window midpoint",
            x_date_ticks=True,
        )
    chart(
        "duration_sensitivity.svg",
        [
            (hda, [(float(w.n_days), r) for w, r in r_by_hda[hda]])
            for hda in result.hda_names
        ],
        title="Correlation against observation-window length",
        x_label="window length (days)",
        scatter=True,
    )
    chart(
        "criteria_sensitivity.svg",
        [
            (cls, [
                (float(w.midpoint.toordinal()), _r_stats(r_by_window[w.label])[3])
                for w in result.windows
                if w.duration_class == cls and len(r_by_window[w.label]) > 1
            ])
            for cls in classes
        ],
        title="Spread of Pearson r across detection criteria",
        x_label="window midpoint",
        y_label="max r - min r",
        x_date_ticks=True,
    )
    return written
