"""Grid sweeps: every (HDA, window) cell detected, scored, and persisted.

Cells are independent, so parallelism is cell-level: each cell is computed
wholly inside one process and pure numpy makes its numbers bitwise
reproducible, which keeps final report files byte-identical for any worker
count. Completed cells are appended to cells.jsonl as they land; a killed
run resumes by skipping cells already recorded there, and load_run is the
one reader of a run directory, for resume and for re-emitting reports.

Worker processes use the fork start method and read the shared state from a
module global set before the pool starts; where fork is unavailable the
sweep degrades to sequential execution with identical outputs.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import IngestReport, TowerRegistry, UserPartition
from .hda import HdaSpec, detect_homes_bulk, aggregate_homes, merge_vectors
from .metrics import MetricReport, compute_metric_report
from .svgplot import line_chart
from .synth import (
    AccuracyReport,
    AccuracyRow,
    GroundTruthTable,
    accuracy_csv,
    score_against_truth,
)
from .windows import ObservationWindow, windows_table

CELLS_FILE = "cells.jsonl"
MANIFEST_FILE = "manifest.json"
TOWERS_DIR = "towers"
ASSIGNMENTS_DIR = "assignments"


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

    def as_dict(self) -> dict:
        return {
            "exclusion_threshold": self.exclusion_threshold,
            "min_qualifying": self.min_qualifying,
            "workers": self.workers,
            "per_tower_exports": self.per_tower_exports,
            "dump_assignments": self.dump_assignments,
            "resume": self.resume,
        }


@dataclass
class SweepResult:
    """Everything a finished sweep knows, keyed by (hda, window) labels."""

    windows: list[ObservationWindow]
    hda_names: list[str]
    reports: dict[tuple[str, str], MetricReport] = field(default_factory=dict)
    accuracy: dict[tuple[str, str], list[AccuracyRow]] = field(default_factory=dict)
    errors: dict[tuple[str, str], str] = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        return len(self.hda_names) * len(self.windows)

    @property
    def n_failed(self) -> int:
        return len(self.errors)

    def report_for(self, hda: str, window: str) -> MetricReport:
        return self.reports[(hda, window)]

    def accuracy_report(self, window: ObservationWindow) -> AccuracyReport:
        rows = []
        for hda in self.hda_names:
            rows.extend(self.accuracy.get((hda, window.label), []))
        return AccuracyReport(window=window.label, rows=rows)


@dataclass
class RunManifest:
    """Reproduction record for one sweep run."""

    created_utc: str
    version: str
    span: str
    tz_name: str
    n_partitions: int
    options: dict
    hdas: list[str]
    windows: list[dict]
    n_cells: int
    n_failed: int
    failed_cells: list[str]
    cell_status: dict
    elapsed_seconds: float
    ingest: dict | None = None
    seeds: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "tool": "cdrhomes",
            "version": self.version,
            "created_utc": self.created_utc,
            "span": self.span,
            "tz": self.tz_name,
            "n_partitions": self.n_partitions,
            "options": self.options,
            "hdas": self.hdas,
            "windows": self.windows,
            "n_cells": self.n_cells,
            "n_failed": self.n_failed,
            "failed_cells": self.failed_cells,
            "cell_status": self.cell_status,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "ingest": self.ingest,
            "seeds": self.seeds,
            "extra": self.extra,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, out_dir) -> Path:
        path = Path(out_dir) / MANIFEST_FILE
        _atomic_write(path, self.to_json())
        return path


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
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


def _cell_key(hda: str, window: str) -> str:
    return f"{hda}|{window}"


def _compute_cell(state: dict, h_idx: int, w_idx: int) -> dict:
    spec: HdaSpec = state["hdas"][h_idx]
    window: ObservationWindow = state["windows"][w_idx]
    t0 = time.perf_counter()
    try:
        bulks = [
            detect_homes_bulk(
                part, window, spec, min_qualifying=state["min_qualifying"]
            )
            for part in state["partitions"]
        ]
        registry: TowerRegistry = state["registry"]
        vectors = merge_vectors([aggregate_homes(b, registry) for b in bulks])
        report = compute_metric_report(
            vectors,
            registry.population,
            window.duration_class,
            exclusion_threshold=state["exclusion_threshold"],
        )
        accuracy = None
        if state["truth"] is not None:
            acc = score_against_truth(
                {spec.name: bulks}, state["truth"], window, state["migration"]
            )
            accuracy = [
                [r.group, r.n_users, r.n_correct] for r in acc.rows
            ]
        return {
            "h": h_idx,
            "w": w_idx,
            "report": report,
            "x": vectors.x,
            "accuracy": accuracy,
            "assignments": bulks if state["dump_assignments"] else None,
            "error": None,
            "elapsed": time.perf_counter() - t0,
        }
    except Exception:
        return {
            "h": h_idx,
            "w": w_idx,
            "report": None,
            "x": None,
            "accuracy": None,
            "assignments": None,
            "error": traceback.format_exc(limit=8),
            "elapsed": time.perf_counter() - t0,
        }


def _cell_entry(h_idx: int, w_idx: int) -> dict:
    assert _STATE is not None, "worker state missing (fork expected)"
    return _compute_cell(_STATE, h_idx, w_idx)


def load_run(
    out_dir, windows=None, hda_names=None, *, resume: bool = False
) -> tuple[SweepResult, int]:
    """Rebuild a SweepResult from a run directory's cells.jsonl.

    The grid comes from manifest.json unless windows and hda_names are
    given (a killed run has not written its manifest). Every grid cell
    recorded "ok" is restored, without per-tower log-ratios. Returns the
    result and the number of lines that are not JSON objects. With
    resume=True a torn last line left by a killed run is cut off the file
    first, so the next appended cell starts a line of its own.
    """
    out_path = Path(out_dir)
    if windows is None:
        manifest_path = out_path / MANIFEST_FILE
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no {MANIFEST_FILE} in {out_path}; run sweep first"
            )
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
    result = SweepResult(windows=list(windows), hda_names=list(hda_names))
    path = out_path / CELLS_FILE
    if not path.exists():
        return result, 0
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if resume and end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
        data = data[:end]
    grid = {(h, w.label) for h in result.hda_names for w in result.windows}
    n_bad = 0
    for line in data.decode().splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        if not isinstance(rec, dict):
            n_bad += 1
            continue
        key = (rec.get("hda"), rec.get("window"))
        if rec.get("status") != "ok" or key not in grid:
            continue
        result.reports[key] = MetricReport.from_cell_dict(rec)
        if rec.get("accuracy") is not None:
            result.accuracy[key] = [
                AccuracyRow(*key, g, n, c) for g, n, c in rec["accuracy"]
            ]
    return result, n_bad


def _persist_cell(out_dir: Path, rec: dict) -> None:
    with open(out_dir / CELLS_FILE, "a") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.flush()


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


def _write_tower_export(
    out_dir: Path, report: MetricReport, x: np.ndarray, rows: list[tuple[str, str]]
) -> None:
    """One cell's per-tower CSV; rows come from _tower_export_rows."""
    path = out_dir / TOWERS_DIR / f"{report.hda}__{report.window}.csv"
    logratio = (
        [""] * len(rows)
        if report.logratio is None
        else ["" if v != v else repr(v) for v in report.logratio.tolist()]  # NaN
    )
    lines = ["tower_id,lon,lat,x,y,logratio"]
    lines += [
        f"{head}{xi}{mid}{lr}"
        for (head, mid), xi, lr in zip(rows, x.tolist(), logratio)
    ]
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_assignment_dump(path: Path, bulks) -> None:
    """Per-user CSV of a cell's BulkAssignments, one per partition, in order."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["user_id", "home_tower", "qualifying_count", "tie_broken"])
    for b in bulks:
        for uid, home, q, t in zip(
            b.user_ids, b.home_towers, b.qualifying, b.tie_broken
        ):
            w.writerow(
                [int(uid), int(home) if home >= 0 else "", int(q), int(bool(t))]
            )
    _atomic_write(path, buf.getvalue())


def run_sweep(
    partitions: list[UserPartition],
    registry: TowerRegistry,
    windows: list[ObservationWindow],
    hdas: list[HdaSpec],
    out_dir=None,
    options: SweepOptions = SweepOptions(),
    *,
    truth: GroundTruthTable | None = None,
    migration=None,  # MigrationConfig, DatasetSpan or (first_day, last_day)
    span: str = "",
    tz_name: str = "",
    ingest_report: IngestReport | None = None,
    seeds: dict | None = None,
) -> tuple[SweepResult, RunManifest]:
    """Compute the full grid, persisting each cell as it completes.

    With out_dir=None nothing is written (in-memory use); otherwise the
    directory is probed for writability before any computation starts, and
    emit_reports is invoked at the end. options.resume skips cells already
    recorded in an existing cells.jsonl.
    """
    t_start = time.perf_counter()
    hdas = list(hdas)
    result = SweepResult(windows=list(windows), hda_names=[s.name for s in hdas])
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
        if options.per_tower_exports:
            (out_path / TOWERS_DIR).mkdir(exist_ok=True)
            tower_rows = _tower_export_rows(registry)
        if options.dump_assignments:
            (out_path / ASSIGNMENTS_DIR).mkdir(exist_ok=True)
        if options.resume:
            result, _ = load_run(
                out_path, result.windows, result.hda_names, resume=True
            )
        else:
            (out_path / CELLS_FILE).unlink(missing_ok=True)

    state = {
        "partitions": partitions,
        "registry": registry,
        "windows": result.windows,
        "hdas": hdas,
        "min_qualifying": options.min_qualifying,
        "exclusion_threshold": options.exclusion_threshold,
        "truth": truth,
        "migration": migration,
        "dump_assignments": options.dump_assignments,
    }

    todo = [
        (h_idx, w_idx)
        for h_idx, hda in enumerate(result.hda_names)
        for w_idx, window in enumerate(result.windows)
        if (hda, window.label) not in result.reports
    ]

    def take(payload: dict) -> None:
        hda = result.hda_names[payload["h"]]
        window = result.windows[payload["w"]]
        key = (hda, window.label)
        if payload["error"] is not None:
            result.errors[key] = payload["error"]
            if out_path is not None:
                _persist_cell(
                    out_path,
                    {
                        "hda": hda,
                        "window": window.label,
                        "status": "failed",
                        "error": payload["error"],
                        "elapsed": round(payload["elapsed"], 4),
                    },
                )
            return
        report: MetricReport = payload["report"]
        result.reports[key] = report
        if payload["accuracy"] is not None:
            result.accuracy[key] = [
                AccuracyRow(hda, window.label, g, n, c)
                for g, n, c in payload["accuracy"]
            ]
        if out_path is not None:
            rec = report.as_cell_dict()
            rec["status"] = "ok"
            rec["accuracy"] = payload["accuracy"]
            rec["elapsed"] = round(payload["elapsed"], 4)
            _persist_cell(out_path, rec)
            if options.per_tower_exports:
                _write_tower_export(out_path, report, payload["x"], tower_rows)
            if options.dump_assignments:
                _write_assignment_dump(
                    out_path / ASSIGNMENTS_DIR / f"{hda}__{window.label}.csv",
                    payload["assignments"],
                )

    use_workers = options.workers if len(todo) > 1 else 1
    if use_workers > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = None
        if ctx is None:
            use_workers = 1

    if use_workers > 1:
        global _STATE
        _STATE = state
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=use_workers, mp_context=ctx
            ) as pool:
                futures = [pool.submit(_cell_entry, h, w) for h, w in todo]
                for fut in concurrent.futures.as_completed(futures):
                    take(fut.result())
        finally:
            _STATE = None
    else:
        for h, w in todo:
            take(_compute_cell(state, h, w))

    manifest = RunManifest(
        created_utc=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        version=__version__,
        span=span,
        tz_name=tz_name,
        n_partitions=len(partitions),
        options=options.as_dict(),
        hdas=list(result.hda_names),
        windows=[
            {
                "label": w.label,
                "first_day": w.first_day.isoformat(),
                "last_day": w.last_day.isoformat(),
                "class": w.duration_class,
            }
            for w in result.windows
        ],
        n_cells=result.n_cells,
        n_failed=result.n_failed,
        failed_cells=sorted(_cell_key(h, w) for h, w in result.errors),
        cell_status={
            _cell_key(h, w.label): (
                "failed" if (h, w.label) in result.errors else "ok"
            )
            for h in result.hda_names
            for w in result.windows
        },
        elapsed_seconds=time.perf_counter() - t_start,
        ingest=ingest_report.as_dict() if ingest_report else None,
        seeds=dict(seeds or {}),
    )
    if out_path is not None:
        emit_reports(result, out_path)
        manifest.write(out_path)
    return result, manifest


def _cells_in_order(result: SweepResult):
    for hda in result.hda_names:
        for window in result.windows:
            key = (hda, window.label)
            if key in result.reports:
                yield hda, window, result.reports[key]


def emit_reports(result: SweepResult, out_dir) -> list[Path]:
    """Write the final report files; an empty grid still yields valid headers."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = out_path / name
        _atomic_write(path, text)
        written.append(path)

    # windows.csv: the grid audit table
    emit("windows.csv", windows_table(result.windows))

    # metrics.csv: one row per computed cell
    buf = ["hda,window,class,pearson_r,n_used,excluded"]
    for hda, window, rep in _cells_in_order(result):
        buf.append(
            f"{hda},{window.label},{window.duration_class},"
            f"{_ffmt(rep.pearson)},{rep.n_used},{rep.n_excluded}"
        )
    emit("metrics.csv", "\n".join(buf) + "\n")

    # correlation_over_time.csv: r against window midpoint
    buf = ["hda,window,class,midpoint,pearson_r"]
    for hda, window, rep in _cells_in_order(result):
        buf.append(
            f"{hda},{window.label},{window.duration_class},"
            f"{window.midpoint.isoformat()},{_ffmt(rep.pearson)}"
        )
    emit("correlation_over_time.csv", "\n".join(buf) + "\n")

    # duration_sensitivity.csv: r spread per HDA per duration class
    buf = ["hda,class,n_windows,mean_pearson,min_pearson,max_pearson"]
    for hda in result.hda_names:
        for cls in _classes_in_order(result):
            rs = [
                rep.pearson
                for h, w, rep in _cells_in_order(result)
                if h == hda
                and w.duration_class == cls
                and rep.pearson is not None
            ]
            if rs:
                buf.append(
                    f"{hda},{cls},{len(rs)},{_ffmt(sum(rs) / len(rs))},"
                    f"{_ffmt(min(rs))},{_ffmt(max(rs))}"
                )
            else:
                buf.append(f"{hda},{cls},0,,,")
    emit("duration_sensitivity.csv", "\n".join(buf) + "\n")

    # criteria_sensitivity.csv: r spread across HDAs per window
    buf = ["window,class,n_hdas,mean_pearson,min_pearson,max_pearson,spread"]
    for window in result.windows:
        rs = [
            rep.pearson
            for _, w, rep in _cells_in_order(result)
            if w.label == window.label and rep.pearson is not None
        ]
        if rs:
            buf.append(
                f"{window.label},{window.duration_class},{len(rs)},"
                f"{_ffmt(sum(rs) / len(rs))},{_ffmt(min(rs))},{_ffmt(max(rs))},"
                f"{_ffmt(max(rs) - min(rs))}"
            )
        else:
            buf.append(f"{window.label},{window.duration_class},0,,,,")
    emit("criteria_sensitivity.csv", "\n".join(buf) + "\n")

    # decile_summary.csv: population-decile profile per cell
    buf = ["hda,window,bin,n,y_lo,y_hi,mean_x,std_x"]
    for hda, window, rep in _cells_in_order(result):
        for b in rep.deciles:
            buf.append(
                f"{hda},{window.label},{b.index},{b.n},"
                f"{_ffmt(b.y_lo)},{_ffmt(b.y_hi)},{_ffmt(b.mean_x)},{_ffmt(b.std_x)}"
            )
    emit("decile_summary.csv", "\n".join(buf) + "\n")

    # accuracy.csv only when the sweep was truth-scored
    if result.accuracy:
        rows = [
            r
            for hda in result.hda_names
            for window in result.windows
            for r in result.accuracy.get((hda, window.label), [])
        ]
        emit("accuracy.csv", accuracy_csv(rows))

    _emit_charts(result, emit)
    return written


def _classes_in_order(result: SweepResult) -> list[str]:
    seen: list[str] = []
    for w in result.windows:
        if w.duration_class not in seen:
            seen.append(w.duration_class)
    return seen


def _emit_charts(result: SweepResult, emit) -> None:
    # one time-series chart per duration class, a polyline per HDA
    for cls in _classes_in_order(result):
        series = []
        for hda in result.hda_names:
            pts = [
                (float(w.midpoint.toordinal()), rep.pearson)
                for h, w, rep in _cells_in_order(result)
                if h == hda
                and w.duration_class == cls
                and rep.pearson is not None
            ]
            series.append((hda, pts))
        if any(pts for _, pts in series):
            emit(
                f"correlation_over_time_{cls}.svg",
                line_chart(
                    series,
                    title=f"Correlation with population over time ({cls} windows)",
                    x_label="window midpoint",
                    y_label="Pearson r",
                    x_date_ticks=True,
                ),
            )

    # duration sensitivity: r against window length, a series per HDA
    series = []
    for hda in result.hda_names:
        pts = [
            (float(w.n_days), rep.pearson)
            for h, w, rep in _cells_in_order(result)
            if h == hda and rep.pearson is not None
        ]
        series.append((hda, pts))
    if any(pts for _, pts in series):
        emit(
            "duration_sensitivity.svg",
            line_chart(
                series,
                title="Correlation against observation-window length",
                x_label="window length (days)",
                y_label="Pearson r",
                scatter=True,
            ),
        )

    # criteria sensitivity: cross-HDA r spread per window over time
    series = []
    for cls in _classes_in_order(result):
        pts = []
        for window in result.windows:
            if window.duration_class != cls:
                continue
            rs = [
                rep.pearson
                for _, w, rep in _cells_in_order(result)
                if w.label == window.label and rep.pearson is not None
            ]
            if len(rs) > 1:
                pts.append((float(window.midpoint.toordinal()), max(rs) - min(rs)))
        series.append((cls, pts))
    if any(pts for _, pts in series):
        emit(
            "criteria_sensitivity.svg",
            line_chart(
                series,
                title="Spread of Pearson r across detection criteria",
                x_label="window midpoint",
                y_label="max r - min r",
                x_date_ticks=True,
            ),
        )
