"""Grid sweeps: every (HDA, window) cell detected, scored, and persisted.

Cells are independent, so parallelism is cell-level: each cell is computed
wholly inside one process and pure numpy makes its numbers bitwise
reproducible, which keeps final report files byte-identical for any worker
count. A cell's result is its cells.jsonl record, in memory as on disk:
computing a cell yields that record, SweepResult.add_cell keeps it, and the
reports read the kept records, so a live sweep and a run directory read back
by load_run emit the same bytes. A record holds what the cell computed, x
(its home count per tower) first: emit_reports derives every statistic of
the cell, and its towers/ file, from x. The process computing a cell writes
its assignments/ dump, and the cell is recorded only after it returns. A
killed run resumes by skipping cells already recorded there, provided they
carry the run's fingerprint (a hash of the package source, the manifest's
identity fields and the input arrays); cells computed under anything else
refuse the resume. A sweep starts by removing each file of RUN_FILES (and
its .tmp form) but the records it keeps, none unless it resumes, and their
dumps; each emission the REPORT_FILES it did not write; no other file.

Forked workers inherit the sweep state as the pool initializer's argument,
and one loop takes the records in grid order at any worker count; without
fork the sweep computes every cell in-process, with identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
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
    TOWERS_HEADER, DatasetSpan, IngestReport, TowerRegistry, UserPartition,
    csv_text, format_blocks, read_table, write_atomic,
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
# every file emit_reports writes, and every file a sweep writes, as glob
# patterns: a sweep starts by removing RUN_FILES and their .tmp forms (see
# core.write_atomic) but its kept records and their dumps, and an emission the
# REPORT_FILES it did not write
REPORT_FILES = (
    "windows.csv", "metrics.csv", "correlation_over_time.csv",
    "duration_sensitivity.csv", "criteria_sensitivity.csv", "decile_summary.csv",
    "accuracy.csv", "correlation_over_time_*.svg", "duration_sensitivity.svg",
    "criteria_sensitivity.svg", f"{TOWERS_DIR}/*.csv",
)
RUN_FILES = (CELLS_FILE, MANIFEST_FILE, *REPORT_FILES, f"{ASSIGNMENTS_DIR}/*.csv")


@dataclass(frozen=True)
class SweepOptions:
    """A sweep's options: a cell reads min_qualifying and dump_assignments,
    the reports exclusion_threshold and per_tower_exports, and only the run
    itself workers and resume."""

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
    each ok cell's cells.jsonl record, and each failed cell's error; the
    registry whose rows a record's x counts, and the options emit_reports
    reads (the exclusion threshold, and whether it writes towers/)."""

    windows: list[ObservationWindow]
    hda_names: list[str]
    registry: TowerRegistry
    options: SweepOptions
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


def _readable(rec: dict, n_towers: int) -> bool:
    """Whether the reports can read an "ok" record: every field they use is
    there, with its type (ints as json.loads gives them, never bool); x
    holds one count per tower, each a non-negative int64, and accuracy is
    null or rows of (group, n_users, n_correct)."""
    try:
        return (
            type(rec["hda"]) is type(rec["window"]) is str
            and type(rec["x"]) is list and len(rec["x"]) == n_towers
            and all(type(v) is int and 0 <= v < 2**63 for v in rec["x"])
            and all(
                type(g) is str and type(n) is type(c) is int
                for g, n, c in rec["accuracy"] or ()
            )
        )
    except (KeyError, TypeError, ValueError):  # absent, or not rows of the length
        return False


def _remove_stale(out_path: Path, patterns, keep=()) -> None:
    """Unlink each file of out_path that matches a pattern or its .tmp form
    and is not in keep; then rmdir each pattern's subdirectory this empties."""
    keep = set(keep)
    for pattern in patterns:
        for path in [*out_path.glob(pattern), *out_path.glob(pattern + ".tmp")]:
            if path not in keep:
                path.unlink()
        if "/" in pattern:
            with contextlib.suppress(OSError):  # absent, or holds other files
                (out_path / pattern).parent.rmdir()


def _dump_name(hda: str, label: str) -> str:
    """The file name of the (hda, label) cell's assignments/ dump."""
    return f"{hda}__{label}.csv"


def _ffmt(v) -> str:
    """Lossless float cell, empty for missing/NaN."""
    return "" if v is None or v != v else repr(float(v))


# a forked worker's sweep state, which the pool's initializer fills in
_STATE: dict = {}


def _compute_cell(state: dict, h_idx: int, w_idx: int) -> dict:
    """The cell's cells.jsonl record, "ok" or "failed". An ok cell first
    writes its assignments/ dump, if asked for; a write error aborts the
    sweep, it fails no cell."""
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
        x = aggregate_homes(bulk, state["registry"])
        accuracy = None
        if state["truth"] is not None:
            rows = score_against_truth(
                {spec.name: bulk}, state["truth"], window, state["migration"]
            )
            accuracy = [[g, n, c] for _, _, g, n, c in rows]
        rec.update(
            status="ok",
            n_tied=int(bulk.tie_broken.sum()),
            accuracy=accuracy,
            x=x.tolist(),
        )
    except Exception:
        rec.update(status="failed", error=traceback.format_exc(limit=8))
    else:
        if state["assignments_dir"] is not None:
            path = state["assignments_dir"] / _dump_name(spec.name, window.label)
            _write_assignment_dump(path, bulk)
    rec["fingerprint"] = state["fingerprint"]
    rec["elapsed"] = round(time.perf_counter() - t0, 4)
    return rec


def _cell_entry(h_idx: int, w_idx: int) -> dict:
    return _compute_cell(_STATE, h_idx, w_idx)


def _fingerprint(
    identity: dict, partitions: list[UserPartition], truth: GroundTruthTable | None
) -> str:
    """sha256 of what a cell's record depends on: the package's own source,
    the manifest's identity fields (numpy's version and the tower registry
    included), then every partition and truth array (name, dtype, shape and
    bytes)."""
    arrays = [
        (f"partition{i}.{f.name}", getattr(p, f.name))
        for i, p in enumerate(partitions)
        for f in fields(p)
        if isinstance(getattr(p, f.name), np.ndarray)
    ]
    if truth is not None:
        arrays += [(f"truth.{f.name}", getattr(truth, f.name)) for f in fields(truth)]
    h = hashlib.sha256()
    # any edit to the code may change a record, so a resume under other
    # code is refused like one under other inputs
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"\n{path.name}\n".encode())
        h.update(path.read_bytes())
    h.update(json.dumps(identity, sort_keys=True).encode())
    for name, a in arrays:
        h.update(f"\n{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


def load_run(
    out_dir, result: SweepResult | None = None, *, fingerprint: str | None = None
) -> SweepResult:
    """Rebuild a SweepResult from a run directory's cells.jsonl.

    The grid, the tower registry and the options come from result, an
    empty SweepResult, or from manifest.json when it is None (a killed run
    has not written its manifest, so a resume passes its own). Every grid
    cell recorded "ok" is restored through SweepResult.add_cell; failed
    cells are left out, so a resume computes them again. Lines that are not
    UTF-8 JSON objects, and "ok" records the reports cannot read (see
    _readable), are skipped, their count named in one warning on stderr; a
    resume computes their cells again too.

    The manifest is checked in one place: one that is not JSON, or records
    no grid or no tower registry, raises ValueError naming the file. A
    resume passes the run's fingerprint: an "ok" record with another
    fingerprint, or none, raises ValueError (it was computed under other
    inputs or options).
    """
    out_path = Path(out_dir)
    if result is None:
        manifest_path = out_path / MANIFEST_FILE
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no {MANIFEST_FILE} in {out_path}; run sweep first"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
            windows = [
                ObservationWindow(
                    date.fromisoformat(w["first_day"]), date.fromisoformat(w["last_day"]),
                    w["label"], w["class"],
                )
                for w in manifest["windows"]
            ]
            hda_names = manifest["hdas"]
            if type(hda_names) is not list or not all(
                type(v) is str for v in [*hda_names, *(w.label for w in windows)]
            ):
                raise TypeError("hdas and window labels must be lists of text")
            towers = manifest["towers"]
            options = manifest["options"]
            for f in fields(SweepOptions):  # each of the type asdict wrote
                if type(options[f.name]) is not type(f.default):
                    raise TypeError(f"options.{f.name} is not {type(f.default).__name__}")
            result = SweepResult(
                windows, hda_names, TowerRegistry(*(towers[k] for k in TOWERS_HEADER)),
                SweepOptions(**options),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{manifest_path}: not a sweep manifest ({type(exc).__name__}: {exc})"
            ) from None
    path = out_path / CELLS_FILE
    if not path.exists():
        return result
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
        if not _readable(rec, len(result.registry)):
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
    if n_bad:
        print(f"warning: skipped {n_bad} unparseable line(s) in {path}",
              file=sys.stderr)
    return result


def _peak_rss_mb() -> tuple[float, float]:
    """Peak resident set sizes in MiB: this process's, and that of the
    largest child it has waited for.

    getrusage carries both across exec from the process that started this
    one, so this process's own figure is read from VmHWM in
    /proc/self/status, which starts anew at exec, where that file exists
    (Linux). The children's figure has no such source: it may be a child
    the launcher waited for before the exec, so it tells of a pool only
    when one ran. ru_maxrss is in KiB on Linux, in bytes on macOS.
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


def _tower_exports(registry: TowerRegistry, X: np.ndarray) -> list[str]:
    """The towers/ CSV text of each row of X, one cell's home count per tower.

    A line depends only on its registry row and x, since the log ratio
    ln(x/y) is taken element by element; so one pass formats each distinct
    (row, x) pair once, keyed by row and x's rank among X's values (a key
    below X.size * n_towers, which cannot wrap): each cell's text is its lines.
    """
    n = X.shape[1]
    values, rank = np.unique(X, return_inverse=True)
    pairs, line_of = np.unique(rank.reshape(X.shape) * n + np.arange(n),
                               return_inverse=True)
    rows, x = pairs % n, values[pairs // n]
    y = registry.population[rows]
    lines = np.array([
        f"{tid},{lon!r},{lat!r},{xi},{yi},{_ffmt(r)}"  # NaN ln(x/y): empty
        for tid, lon, lat, xi, yi, r in zip(*(a[rows].tolist() for a in (
            registry.tower_ids, registry.lon, registry.lat)), x.tolist(),
            y.tolist(), log_ratio_array(x, y).tolist())
    ], dtype=object)
    return [csv_text("tower_id,lon,lat,x,y,logratio", cell)
            for cell in lines[line_of.reshape(X.shape)].tolist()]


def _write_assignment_dump(path: Path, bulk: BulkAssignments) -> None:
    """Per-user CSV of a cell's BulkAssignments, rows in its user order.

    _compute_cell puts the users partition by partition, by ascending user
    id within each partition, so the row order (not the rows) depends on
    the partition count; an unassigned user has an empty home_tower. numpy
    formats the rows, as write_records_csv's (see core.format_blocks).
    """
    columns = [bulk.user_ids, bulk.home_towers, bulk.qualifying,
               bulk.tie_broken.view(np.uint8)]  # bool as 0 / 1
    write_atomic(path, format_blocks(ASSIGNMENTS_HEADER, columns, blank=(1,)))


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
    migration: DatasetSpan | None = None,
    span: str = "",
    tz_name: str = "",
    ingest_report: IngestReport | None = None,
) -> tuple[SweepResult, dict]:
    """Compute the full grid, persisting each cell in grid order; returns
    the result and the manifest.json dict.

    With out_dir=None nothing is written (in-memory use); otherwise
    emit_reports is invoked at the end. A user of the partitions whom truth
    lacks raises KeyError before anything is written. With truth, migration
    is the DatasetSpan that dates each cell's migrant rows (see
    score_against_truth); the manifest's migration_range is its text.
    options.resume keeps the readable "ok" records of an existing
    cells.jsonl (ValueError if any has another fingerprint), and a fresh
    sweep none: either rewrites the file with them alone, then removes
    every other RUN_FILES file and its .tmp form but the kept cells' dumps.
    An unwritable directory raises OSError before any cell runs, and a dead
    worker ChildProcessError (an OSError). The manifest's stages hold the
    ingest parse, partition_records and run_sweep seconds (perf_counter; the
    first two from ingest_report) and the peak RSS in MiB of this process
    and of its largest worker, None when no pool ran (see _peak_rss_mb).
    """
    t_start = time.perf_counter()
    if truth is not None:
        for part in partitions:  # a user without a truth row fails every cell
            truth.rows_for_users(part.user_ids)
    hdas = list(hdas)
    result = SweepResult(list(windows), [s.name for s in hdas], registry, options)
    # the run's identity: with the partitions and truth, what the
    # fingerprint hashes; JSON keeps every float of the registry exactly
    manifest = {
        "tool": "cdrhomes",
        "version": __version__,
        "numpy": np.__version__,  # np.log and np.std may differ between versions
        "span": span,
        "tz": tz_name,
        "n_partitions": len(partitions),
        "options": asdict(options),
        "hdas": list(result.hda_names),
        "windows": [{"label": w.label, "first_day": w.first_day.isoformat(),
                     "last_day": w.last_day.isoformat(), "class": w.duration_class}
                    for w in result.windows],
        # the registry's columns, whose rows each record's x counts
        "towers": dict(zip(TOWERS_HEADER, (
            registry.tower_ids.tolist(), registry.lon.tolist(),
            registry.lat.tolist(), registry.population.tolist(),
        ))),
        # the dates that split accuracy.csv's migrant rows
        "migration_range": None if truth is None or migration is None
        else str(migration),
    }
    # of the options, those a cell reads (not the reports'); each HDA in full
    fingerprint = _fingerprint({
        **manifest,
        "options": {k: manifest["options"][k]
                    for k in ("min_qualifying", "dump_assignments")},
        "hdas": [asdict(spec) for spec in hdas],
    }, partitions, truth)
    state = {
        "partitions": partitions,
        "registry": registry,
        "windows": result.windows,
        "hdas": hdas,
        "min_qualifying": options.min_qualifying,
        "truth": truth,
        "migration": migration,
        "fingerprint": fingerprint,
        "assignments_dir": None,
    }
    out_path: Path | None = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        if options.resume:
            result = load_run(out_path, result, fingerprint=fingerprint)
        # one record per kept cell, written before the removal so that no
        # record outlives its cell's dump: no unparseable, failed or torn line
        write_atomic(out_path / CELLS_FILE, "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in result.reports.values()))
        _remove_stale(out_path, RUN_FILES, keep=[out_path / CELLS_FILE, *(
            out_path / ASSIGNMENTS_DIR / _dump_name(*key) for key in result.reports)])
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
            # the cell wrote its dump before it returned: a resume skips
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
    broken = ()  # what the pool raises once a worker has died; no pool, none
    with contextlib.ExitStack() as stack:
        cells = None if out_path is None else stack.enter_context(
            open(out_path / CELLS_FILE, "a"))
        records = (_compute_cell(state, h, w) for h, w in todo)
        if use_workers > 1:
            # each worker inherits the state at fork; map yields records in grid order
            records = stack.enter_context(concurrent.futures.ProcessPoolExecutor(
                use_workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_STATE.update, initargs=(state,),
            )).map(_cell_entry, *zip(*todo))  # hdas, then windows
            broken = concurrent.futures.BrokenExecutor
        try:  # leaving the loop on an error closes records, which cancels map's queue
            for rec in stack.enter_context(contextlib.closing(records)):
                take(rec)
        except broken as exc:
            h, w = todo[len(result.reports) + result.n_failed - n_before]
            raise ChildProcessError(
                f"a worker process died (killed, or out of memory) before cell "
                f"{result.hda_names[h]}|{result.windows[w].label} returned; "
                "sweep again with --resume"
            ) from exc

    elapsed = round(time.perf_counter() - t_start, 3)
    if out_path is not None:
        emit_reports(result, out_path)
    stages = {}
    if ingest_report is not None:
        stages["ingest_parse_s"] = round(ingest_report.parse_seconds, 4)
        stages["partition_records_s"] = round(ingest_report.partition_seconds, 4)
    stages["run_sweep_s"] = round(time.perf_counter() - t_start, 4)
    # the pool's workers were waited for when it closed
    stages["peak_rss_mb"], workers_rss = _peak_rss_mb()
    stages["workers_peak_rss_mb"] = workers_rss if use_workers > 1 else None
    manifest.update(
        created_utc=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        fingerprint=fingerprint,
        n_cells=result.n_cells,
        n_failed=result.n_failed,
        failed_cells=sorted(f"{h}|{w}" for h, w in result.errors),
        elapsed_seconds=elapsed,
        ingest=ingest_report.as_dict() if ingest_report else None,
        stages=stages,
    )
    if out_path is not None:
        # each list of numbers on one line (no JSON string holds a raw newline)
        text = re.sub(r"\[\n\s*([-+.\deE]+(?:,\n\s*[-+.\deE]+)*)\n\s*\]",
                      lambda m: "[" + re.sub(r",\n\s*", ", ", m[1]) + "]",
                      json.dumps(manifest, indent=2, sort_keys=True))
        write_atomic(out_path / MANIFEST_FILE, text + "\n")
    return result, manifest


def _r_stats(rs: list[float]) -> tuple:
    """(mean, min, max, spread) of defined Pearson r values; Nones if none."""
    if not rs:
        return None, None, None, None
    return sum(rs) / len(rs), min(rs), max(rs), max(rs) - min(rs)


def emit_reports(result: SweepResult, out_dir) -> list[Path]:
    """Write the final report files; an empty grid still yields valid headers.

    The run's home counts are one int64 matrix, a row per computed cell in
    grid order: each cell's statistics are compute_metric_report of its row
    at result.options.exclusion_threshold, and no record's own. One pass
    groups them: the defined Pearson r per HDA (in window order) and per
    window (in HDA order). Every CSV and chart reads those lists. With
    result.options.per_tower_exports, towers/ gets each row's CSV too. Every
    other REPORT_FILES file goes: the directory holds what this emission
    wrote (no chart with nothing to draw, no towers/ file of another cell).
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}  # each report file's name and text

    def chart(name: str, series: list, y_label: str = "Pearson r", **kwargs):
        if any(pts for _, pts in series):  # else nothing to draw: no chart
            files[name] = line_chart(series, y_label=y_label, **kwargs)

    cells = [
        (hda, w, result.reports[(hda, w.label)])
        for hda in result.hda_names
        for w in result.windows
        if (hda, w.label) in result.reports
    ]
    X = np.array([rec["x"] for _, _, rec in cells], dtype=np.int64)
    X = X.reshape(len(cells), len(result.registry))
    y, threshold = result.registry.population, result.options.exclusion_threshold
    cells = [(hda, w, rec, compute_metric_report(x, y, exclusion_threshold=threshold))
             for (hda, w, rec), x in zip(cells, X)]
    r_by_hda = {hda: [] for hda in result.hda_names}
    r_by_window = {w.label: [] for w in result.windows}
    for hda, w, _, m in cells:
        if m["pearson"] is not None:
            r_by_hda[hda].append((w, m["pearson"]))
            r_by_window[w.label].append(m["pearson"])
    classes = list(dict.fromkeys(w.duration_class for w in result.windows))

    files["windows.csv"] = windows_table(result.windows)
    files["metrics.csv"] = csv_text("hda,window,class,pearson_r,n_used,excluded", (
        f"{hda},{w.label},{w.duration_class},"
        f"{_ffmt(m['pearson'])},{m['n_used']},{m['n_excluded']}"
        for hda, w, _, m in cells
    ))
    files["correlation_over_time.csv"] = csv_text("hda,window,class,midpoint,pearson_r", (
        f"{hda},{w.label},{w.duration_class},"
        f"{w.midpoint.isoformat()},{_ffmt(m['pearson'])}"
        for hda, w, _, m in cells
    ))
    # r spread per HDA per duration class
    rows = []
    for hda in result.hda_names:
        for cls in classes:
            rs = [r for w, r in r_by_hda[hda] if w.duration_class == cls]
            stats = ",".join(_ffmt(v) for v in _r_stats(rs)[:3])
            rows.append(f"{hda},{cls},{len(rs)},{stats}")
    files["duration_sensitivity.csv"] = csv_text(
        "hda,class,n_windows,mean_pearson,min_pearson,max_pearson", rows
    )
    # r spread across HDAs per window
    files["criteria_sensitivity.csv"] = csv_text(
        "window,class,n_hdas,mean_pearson,min_pearson,max_pearson,spread",
        (
            f"{w.label},{w.duration_class},{len(r_by_window[w.label])},"
            + ",".join(_ffmt(v) for v in _r_stats(r_by_window[w.label]))
            for w in result.windows
        ),
    )
    files["decile_summary.csv"] = csv_text("hda,window,bin,n,y_lo,y_hi,mean_x,std_x", (
        f"{hda},{w.label},{index},{n},{','.join(_ffmt(v) for v in stats)}"
        for hda, w, _, m in cells
        for index, n, *stats in m["deciles"]
    ))
    # accuracy.csv only when the sweep was truth-scored
    accuracy = [
        (hda, w.label, *row) for hda, w, rec, _ in cells for row in rec["accuracy"] or ()
    ]
    if accuracy:
        files["accuracy.csv"] = accuracy_csv(accuracy)

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
    if result.options.per_tower_exports:
        (out_path / TOWERS_DIR).mkdir(exist_ok=True)
        for (hda, w, _, _), text in zip(cells, _tower_exports(result.registry, X)):
            files[f"{TOWERS_DIR}/{_dump_name(hda, w.label)}"] = text
    written = [out_path / name for name in files]
    for path, text in zip(written, files.values()):
        write_atomic(path, text)
    _remove_stale(out_path, REPORT_FILES, keep=written)
    return written
