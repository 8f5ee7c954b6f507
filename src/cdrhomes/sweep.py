"""Grid sweeps: every (HDA, window) cell detected, scored, and persisted.

Cells are independent, so parallelism is cell-level: each cell is computed
wholly inside one process and pure numpy makes its numbers bitwise
reproducible, which keeps final report files byte-identical for any worker
count. A cell's result is its cells.jsonl record: computing a cell yields
that record, SweepResult.add_cell takes it in, and the reports are built
from what add_cell kept, so a live sweep and a run directory read back by
load_run emit the same bytes. A killed run resumes by skipping cells already
recorded there, provided they carry the run's fingerprint (a hash of the
package source, options, grid and input arrays); cells computed under
anything else refuse the resume. A cell is recorded only after its export
files are written.

Worker processes use the fork start method and read the shared state from a
module global set before the pool starts; where fork is unavailable the
sweep degrades to sequential execution with identical outputs.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import multiprocessing
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
from .core import IngestReport, TowerRegistry, UserPartition
from .hda import HdaSpec, detect_homes_bulk, aggregate_homes, merge_vectors
from .metrics import MetricReport, compute_metric_report
from .svgplot import line_chart
from .synth import (
    AccuracyReport,
    AccuracyRow,
    GroundTruthTable,
    accuracy_csv,
    migration_range,
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
        return asdict(self)


@dataclass
class SweepResult:
    """Everything a finished sweep knows, keyed by (hda, window) labels.

    Reports are rebuilt from the cells' records, so they carry no per-tower
    log-ratios (those live in the tower exports).
    """

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

    def add_cell(self, rec: dict) -> None:
        """Take in one cell record: an ok cell's report and accuracy, or its error."""
        key = (rec["hda"], rec["window"])
        if rec["status"] != "ok":
            self.errors[key] = rec["error"]
            return
        self.reports[key] = MetricReport.from_cell_dict(rec)
        if rec.get("accuracy") is not None:
            self.accuracy[key] = [
                AccuracyRow(*key, g, n, c) for g, n, c in rec["accuracy"]
            ]


@dataclass
class RunManifest:
    """Reproduction record for one sweep run.

    stages holds what the run cost: the ingest parse, partition_records
    and run_sweep seconds (perf_counter; the ingest ones only when an
    IngestReport is given) and the peak RSS in MiB of this process and of
    its largest worker (see _peak_rss_mb).
    """

    created_utc: str
    version: str
    span: str
    tz_name: str
    n_partitions: int
    options: dict
    hdas: list[str]
    windows: list[dict]
    fingerprint: str
    n_cells: int
    n_failed: int
    failed_cells: list[str]
    cell_status: dict
    elapsed_seconds: float
    ingest: dict | None = None
    seeds: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"tool": "cdrhomes", **asdict(self)}
        payload["tz"] = payload.pop("tz_name")
        payload["elapsed_seconds"] = round(self.elapsed_seconds, 3)
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


def _compute_cell(state: dict, h_idx: int, w_idx: int) -> tuple:
    """(record, x, logratio, bulks): the cell's cells.jsonl record, "ok" or
    "failed", and what its export files need (None for a failed cell)."""
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
        rec = report.as_cell_dict()
        rec["status"] = "ok"
        rec["n_tied"] = sum(int(b.tie_broken.sum()) for b in bulks)
        rec["accuracy"] = None
        if state["truth"] is not None:
            acc = score_against_truth(
                {spec.name: bulks}, state["truth"], window, state["migration"]
            )
            rec["accuracy"] = [[r.group, r.n_users, r.n_correct] for r in acc.rows]
        exports = (
            vectors.x, report.logratio, bulks if state["dump_assignments"] else None
        )
    except Exception:
        rec = {
            "hda": spec.name,
            "window": window.label,
            "status": "failed",
            "error": traceback.format_exc(limit=8),
        }
        exports = (None, None, None)
    rec["fingerprint"] = state["fingerprint"]
    rec["elapsed"] = round(time.perf_counter() - t0, 4)
    return (rec, *exports)


def _cell_entry(h_idx: int, w_idx: int) -> tuple:
    assert _STATE is not None, "worker state missing (fork expected)"
    return _compute_cell(_STATE, h_idx, w_idx)


def _fingerprint(
    header: dict,
    partitions: list[UserPartition],
    registry: TowerRegistry,
    truth: GroundTruthTable | None,
) -> str:
    """sha256 of what a cell's record depends on: the package's own source,
    the header, then every partition, registry and truth array (name, dtype,
    shape and bytes)."""
    arrays = [
        (f"partition{p.index}.{f.name}", getattr(p, f.name))
        for p in partitions
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
    the number of lines that are not JSON objects.

    A resume passes the run's fingerprint: an "ok" record with another
    fingerprint, or none, raises ValueError (it was computed under other
    inputs or options), and a torn last line left by a killed run is cut
    off the file, so the next appended cell starts a line of its own.
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
    torn = fingerprint is not None and end < len(data)
    if torn:
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
        if rec.get("status") != "ok":
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
    if torn:
        with open(path, "r+b") as fh:
            fh.truncate(end)
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


def _write_tower_export(
    path: Path, x: np.ndarray, logratio: np.ndarray, rows: list[tuple[str, str]]
) -> None:
    """One cell's per-tower CSV; rows come from _tower_export_rows."""
    lr = ["" if v != v else repr(v) for v in logratio.tolist()]  # NaN
    lines = ["tower_id,lon,lat,x,y,logratio"]
    lines += [
        f"{head}{xi}{mid}{v}" for (head, mid), xi, v in zip(rows, x.tolist(), lr)
    ]
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_assignment_dump(path: Path, bulks) -> None:
    """Per-user CSV of a cell's BulkAssignments, one per partition.

    Rows come partition by partition, by ascending user id within each
    partition, so the row order (not the rows) depends on the partition
    count; an unassigned user has an empty home_tower.
    """
    lines = ["user_id,home_tower,qualifying_count,tie_broken"]
    for b in bulks:
        lines += [
            f"{uid},{'' if home < 0 else home},{q},{int(t)}"
            for uid, home, q, t in zip(
                b.user_ids.tolist(),
                b.home_towers.tolist(),
                b.qualifying.tolist(),
                b.tie_broken.tolist(),
            )
        ]
    _atomic_write(path, "\n".join(lines) + "\n")


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
    emit_reports is invoked at the end; run_sweep_s in the manifest's stages
    includes it. options.resume skips cells already
    recorded in an existing cells.jsonl, and raises ValueError when any of
    them was computed under another fingerprint.
    """
    t_start = time.perf_counter()
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
    options_used = options.as_dict()
    del options_used["workers"], options_used["resume"]  # neither changes a record
    header = {
        "options": options_used,
        "span": span,
        "tz": tz_name,
        "hdas": [asdict(s) for s in hdas],
        "windows": window_dicts,
        "n_partitions": len(partitions),
        "migration": migration_range(migration),
    }
    fingerprint = _fingerprint(header, partitions, registry, truth)
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
            result, _ = load_run(
                out_path, result.windows, result.hda_names, fingerprint=fingerprint
            )
        else:
            (out_path / CELLS_FILE).unlink(missing_ok=True)
        if options.per_tower_exports:
            (out_path / TOWERS_DIR).mkdir(exist_ok=True)
            tower_rows = _tower_export_rows(registry)
        if options.dump_assignments:
            (out_path / ASSIGNMENTS_DIR).mkdir(exist_ok=True)

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
        "fingerprint": fingerprint,
    }

    todo = [
        (h_idx, w_idx)
        for h_idx, hda in enumerate(result.hda_names)
        for w_idx, window in enumerate(result.windows)
        if (hda, window.label) not in result.reports
    ]

    def take(cell: tuple) -> None:
        rec, x, logratio, bulks = cell
        result.add_cell(rec)
        if out_path is None:
            return
        # the cell's files come before its record: a resume skips every
        # recorded cell, so a run killed in between must leave it unrecorded
        if rec["status"] == "ok":
            name = f"{rec['hda']}__{rec['window']}.csv"
            if options.per_tower_exports:
                _write_tower_export(
                    out_path / TOWERS_DIR / name, x, logratio, tower_rows
                )
            if options.dump_assignments:
                _write_assignment_dump(out_path / ASSIGNMENTS_DIR / name, bulks)
        with open(out_path / CELLS_FILE, "a") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    use_workers = options.workers if len(todo) > 1 else 1
    if "fork" not in multiprocessing.get_all_start_methods():
        use_workers = 1
    if use_workers > 1:
        global _STATE
        _STATE = state
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=use_workers, mp_context=multiprocessing.get_context("fork")
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
        windows=window_dicts,
        fingerprint=fingerprint,
        n_cells=result.n_cells,
        n_failed=result.n_failed,
        failed_cells=sorted(f"{h}|{w}" for h, w in result.errors),
        cell_status={
            f"{h}|{w.label}": "failed" if (h, w.label) in result.errors else "ok"
            for h in result.hda_names
            for w in result.windows
        },
        elapsed_seconds=time.perf_counter() - t_start,
        ingest=ingest_report.as_dict() if ingest_report else None,
        seeds=dict(seeds or {}),
    )
    if out_path is not None:
        emit_reports(result, out_path)
    stages = manifest.stages
    if ingest_report is not None:
        stages["ingest_parse_s"] = round(ingest_report.parse_seconds, 4)
        stages["partition_records_s"] = round(ingest_report.partition_seconds, 4)
    stages["run_sweep_s"] = round(time.perf_counter() - t_start, 4)
    # the pool's workers were waited for when it closed
    stages["peak_rss_mb"], stages["workers_peak_rss_mb"] = _peak_rss_mb()
    if out_path is not None:
        manifest.write(out_path)
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
    for hda, w, rep in cells:
        if rep.pearson is not None:
            r_by_hda[hda].append((w, rep.pearson))
            r_by_window[w.label].append(rep.pearson)
    classes = list(dict.fromkeys(w.duration_class for w in result.windows))

    emit("windows.csv", windows_table(result.windows))
    emit("metrics.csv", _csv("hda,window,class,pearson_r,n_used,excluded", (
        f"{hda},{w.label},{w.duration_class},"
        f"{_ffmt(rep.pearson)},{rep.n_used},{rep.n_excluded}"
        for hda, w, rep in cells
    )))
    emit("correlation_over_time.csv", _csv("hda,window,class,midpoint,pearson_r", (
        f"{hda},{w.label},{w.duration_class},"
        f"{w.midpoint.isoformat()},{_ffmt(rep.pearson)}"
        for hda, w, rep in cells
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
        f"{hda},{w.label},{b.index},{b.n},"
        f"{_ffmt(b.y_lo)},{_ffmt(b.y_hi)},{_ffmt(b.mean_x)},{_ffmt(b.std_x)}"
        for hda, w, rep in cells
        for b in rep.deciles
    )))
    # accuracy.csv only when the sweep was truth-scored
    if result.accuracy:
        emit("accuracy.csv", accuracy_csv([
            r for hda, w, _ in cells for r in result.accuracy.get((hda, w.label), [])
        ]))

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
