"""Command-line front end.

Subcommands: ingest-check, windows, synth, detect, sweep, report, score.
Every flag can also come from a key=value config file (--config); explicit
flags win over the file, the file wins over built-in defaults. Exit codes:
0 success, 1 fatal error, 2 sweep finished with failed cells or a command
line that cannot be carried out as given (argparse usage errors, detect
--dump-assignments without --out).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import DatasetSpan, IngestError, TowerRegistry, ingest
from .hda import (
    CANONICAL_HDA_NAMES,
    BulkAssignments,
    aggregate_homes,
    canonical_hda,
    detect_homes_bulk,
    hdas_by_name,
    merge_vectors,
)
from .sweep import (
    CELLS_FILE, SweepOptions, _write_assignment_dump, load_run, run_sweep,
    warn_unparseable,
)
from .sweep import emit_reports as _emit_reports
from .synth import (
    GroundTruthTable,
    MigrationConfig,
    SynthConfig,
    accuracy_csv,
    build_registry,
    generate,
    pick_touristic_towers,
    score_against_truth,
)
from .timebase import DEFAULT_TZ, CivilClock
from .windows import (
    DURATION_CLASSES,
    ObservationWindow,
    generate_windows,
    windows_table,
)


class CliError(Exception):
    """User-facing failure; printed as a one-line diagnostic, exit 1."""


def load_config(path) -> dict[str, str]:
    """Parse a key=value config file; '#' comments and blank lines ignored."""
    cfg: dict[str, str] = {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}")
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{p}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise CliError(f"not a boolean: {text!r}")


class Options:
    """Merged view over parsed flags and the config file."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None, convert=None):
        """Flag, else config value, else default; text goes through convert."""
        v = getattr(self.args, key.replace("-", "_"), None)
        if v is None:
            v = self.cfg.get(key)
        if v is None:
            return default
        if convert is not None and isinstance(v, str):
            try:
                v = convert(v)
            except (ValueError, TypeError) as exc:
                raise CliError(f"bad value {key}={v!r}: {exc}") from exc
        return v

    def require(self, key: str, convert=None):
        v = self.get(key, None, convert)
        if v is None:
            raise CliError(f"missing required option --{key} (or config key {key})")
        return v


def _span(opt: Options) -> DatasetSpan:
    return DatasetSpan.parse(opt.require("span"))

def _clock(opt: Options) -> CivilClock:
    return CivilClock(opt.get("tz", DEFAULT_TZ))


def _classes(opt: Options) -> tuple[str, ...]:
    raw = opt.get("classes", ",".join(DURATION_CLASSES))
    out = tuple(c.strip() for c in raw.split(",") if c.strip())
    for c in out:
        if c not in DURATION_CLASSES:
            raise CliError(
                f"unknown window class {c!r}; choose from {','.join(DURATION_CLASSES)}"
            )
    return out


def _hda_names(opt: Options) -> list[str]:
    raw = opt.get("hdas", ",".join(CANONICAL_HDA_NAMES))
    names = [n.strip() for n in raw.split(",") if n.strip()]
    for i, n in enumerate(names):
        canonical_hda(n)  # raises on unknown names
        if n in names[:i]:
            raise CliError(f"duplicate HDA {n!r}")
    return names


def _custom_window(text: str) -> ObservationWindow:
    dates = DatasetSpan.parse(text)
    return ObservationWindow(text, dates.first_day, dates.last_day, "custom")


def _read_registry(opt: Options) -> TowerRegistry:
    return TowerRegistry.read_csv(opt.require("towers"))


def _do_ingest(opt: Options, registry: TowerRegistry):
    span = _span(opt)
    return ingest(
        opt.require("records"),
        registry,
        span,
        n_partitions=opt.get("partitions", 1, int),
        unknown_tower=opt.get("unknown-tower", "skip"),
        clock=_clock(opt),
    )


# -- subcommands -----------------------------------------------------------


def cmd_ingest_check(opt: Options) -> int:
    registry = _read_registry(opt)
    _, report = _do_ingest(opt, registry)
    print(report.as_text())
    return 0


def cmd_windows(opt: Options) -> int:
    span = _span(opt)
    table = windows_table(generate_windows(span, _classes(opt)))
    out = opt.get("out")
    if out:
        Path(out).write_text(table)
        print(f"wrote {out}")
    else:
        print(table, end="")
    return 0


def _given(opt: Options, **converts) -> dict:
    """{name: value} of the names whose flag (the name with '-' for '_') or
    config key is given, so the callee's defaults hold for the rest."""
    given = {k: opt.get(k.replace("_", "-"), None, c) for k, c in converts.items()}
    return {k: v for k, v in given.items() if v is not None}


def cmd_synth(opt: Options) -> int:
    out_dir = Path(opt.require("out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = opt.require("seed", int)
    n_towers = opt.require("n-towers", int)
    n_population = opt.require("n-population", int)
    span = _span(opt)

    migration = None
    fraction = opt.get("migration-fraction", 0.0, float)
    if fraction > 0:
        dates = DatasetSpan.parse(opt.require("migration-range"))
        tour_raw = opt.require("touristic-towers")
        if tour_raw.startswith("lowest:"):
            k = int(tour_raw.split(":", 1)[1])
            registry = build_registry(seed, n_towers, n_population)
            touristic = pick_touristic_towers(registry, k)
        else:
            touristic = tuple(int(t) for t in tour_raw.split(",") if t.strip())
        migration = MigrationConfig(
            dates.first_day, dates.last_day, fraction, touristic,
            **_given(opt, min_stay_days=int),
        )

    tunables = _given(
        opt, market_share=float, daily_event_rate=float, home_call_share_night=float,
        work_call_share_day=float, home_call_share_day=float, work_pool_size=int,
        neighbor_pool_size=int, tz=str,
    )
    if "tz" in tunables:
        tunables["tz_name"] = tunables.pop("tz")
    config = SynthConfig(
        seed=seed,
        n_towers=n_towers,
        n_population=n_population,
        span=span,
        migration=migration,
        **tunables,
    )
    result = generate(config)
    result.registry.write_csv(out_dir / "towers.csv")
    result.truth.write_csv(out_dir / "truth.csv")
    result.write_records(out_dir / "records.csv")
    echo = config.echo()
    echo["n_records"] = str(result.n_records)
    manifest = "".join(f"{k}={v}\n" for k, v in echo.items())
    (out_dir / "synth_manifest.txt").write_text(manifest)
    print(f"towers={n_towers} subscribers={config.n_subscribers} "
          f"records={result.n_records}")
    print(f"wrote {out_dir}/towers.csv, truth.csv, records.csv, synth_manifest.txt")
    return 0


def cmd_detect(opt: Options) -> int:
    out = opt.get("out")
    dump = opt.get("dump-assignments", False, _parse_bool)
    if dump and not out:
        print("error: --dump-assignments needs --out (the dump is written there)",
              file=sys.stderr)
        return 2
    registry = _read_registry(opt)
    partitions, report = _do_ingest(opt, registry)
    window = _custom_window(opt.require("window"))
    spec = canonical_hda(opt.require("hda"))
    min_q = opt.get("min-qualifying", 1, int)
    bulks = [
        detect_homes_bulk(p, window, spec, min_qualifying=min_q) for p in partitions
    ]
    homes = merge_vectors([aggregate_homes(b, registry) for b in bulks])
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["tower_id,x,y"]
        for tid, x, y in zip(registry.tower_ids, homes, registry.population):
            lines.append(f"{int(tid)},{int(x)},{int(y)}")
        (out_dir / "vectors.csv").write_text("\n".join(lines) + "\n")
        if dump:
            _write_assignment_dump(out_dir / "assignments.csv", bulks)
        print(f"wrote {out_dir}/vectors.csv")
    print(
        f"hda={spec.name} window={window.label} users={report.distinct_users} "
        f"assigned={int(homes.sum())}"
    )
    return 0


def cmd_sweep(opt: Options) -> int:
    registry = _read_registry(opt)
    partitions, report = _do_ingest(opt, registry)
    span = _span(opt)
    windows = generate_windows(span, _classes(opt))
    hdas = hdas_by_name(_hda_names(opt))
    out_dir = opt.require("out")

    truth = None
    migration_range = None
    truth_path = opt.get("truth")
    if truth_path:
        truth = GroundTruthTable.read_csv(truth_path)
        mr = opt.get("migration-range")
        if mr:
            migration_range = DatasetSpan.parse(mr)

    options = SweepOptions(
        exclusion_threshold=opt.get("exclusion-threshold", 0, int),
        min_qualifying=opt.get("min-qualifying", 1, int),
        workers=opt.get("workers", 1, int),
        per_tower_exports=opt.get("per-tower-exports", True, _parse_bool),
        dump_assignments=opt.get("dump-assignments", False, _parse_bool),
        resume=opt.get("resume", False, _parse_bool),
    )
    result, manifest = run_sweep(
        partitions,
        registry,
        windows,
        hdas,
        out_dir,
        options,
        truth=truth,
        migration=migration_range,
        span=str(span),
        tz_name=opt.get("tz", DEFAULT_TZ),
        ingest_report=report,
    )
    print(
        f"cells={result.n_cells} failed={result.n_failed} "
        f"elapsed={manifest['elapsed_seconds']:.2f}s out={out_dir}"
    )
    if result.n_failed:
        for key in manifest["failed_cells"]:
            print(f"failed: {key}", file=sys.stderr)
        return 2
    return 0


def cmd_report(opt: Options) -> int:
    out_dir = Path(opt.require("out"))
    result, n_bad = load_run(out_dir)
    if not (out_dir / CELLS_FILE).exists():
        raise CliError(f"no {CELLS_FILE} in {out_dir}; nothing to report")
    warn_unparseable(n_bad, out_dir / CELLS_FILE)
    written = _emit_reports(result, out_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_score(opt: Options) -> int:
    truth = GroundTruthTable.read_csv(opt.require("truth"))
    window = _custom_window(opt.require("window"))
    mr = opt.get("migration-range")
    migration_range = DatasetSpan.parse(mr) if mr else None
    path = Path(opt.require("assignments"))
    if not path.exists():
        raise CliError(f"assignments file not found: {path}")
    hda_name = opt.get("hda") or path.stem.split("__")[0]
    cols: dict[int, list[int]] = {}  # user id -> row, in file order
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        if lineno == 1 and raw.startswith("user_id"):
            continue
        fields = raw.split(",")
        if len(fields) != 4:
            raise CliError(f"{path}:{lineno}: expected 4 columns")
        try:  # an empty home_tower is no home
            uid = int(fields[0])
            col = [int(fields[1] or -1), int(fields[2]), int(fields[3])]
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
        if not 0 <= uid < 2**64 or not all(-(2**63) <= v < 2**63 for v in col):
            raise CliError(
                f"{path}:{lineno}: user_id must fit uint64 and the other columns int64"
            )
        if uid in cols:
            raise CliError(f"{path}:{lineno}: duplicate user_id {uid}")
        cols[uid] = col
    homes, quals, ties = np.array(list(cols.values()), dtype=np.int64).reshape(-1, 3).T
    bulk = BulkAssignments(
        np.array(list(cols), dtype=np.uint64), homes, quals, ties.astype(bool)
    )
    rows = score_against_truth({hda_name: [bulk]}, truth, window, migration_range)
    print(accuracy_csv(rows), end="")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdrhomes",
        description="Home detection from call detail records",
    )
    parser.add_argument("--version", action="version", version=f"cdrhomes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, flags: list[tuple]):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file with defaults")
        for args, kwargs in flags:
            p.add_argument(*args, **kwargs)
        return p

    io_flags = [
        (("--records",), {"help": "records CSV: user_id,tower_id,timestamp"}),
        (("--towers",), {"help": "tower registry CSV"}),
        (("--span",), {"help": "dataset span FIRST..LAST"}),
        (("--tz",), {"help": f"IANA zone (default {DEFAULT_TZ})"}),
        (("--partitions",), {"type": int, "help": "user partition count"}),
        (("--unknown-tower",), {"choices": ["skip", "fail"],
                                "help": "policy for records on unknown towers"}),
    ]

    add("ingest-check", "read records, print the reject-accounting report", io_flags)

    add("windows", "print the observation-window grid for a span", [
        (("--span",), {"help": "dataset span FIRST..LAST"}),
        (("--classes",), {"help": "comma list of " + ",".join(DURATION_CLASSES)}),
        (("--out",), {"help": "write the table here instead of stdout"}),
    ])

    add("synth", "generate a synthetic dataset with ground truth", [
        (("--out",), {"help": "output directory"}),
        (("--seed",), {"type": int, "help": "generator seed"}),
        (("--span",), {"help": "dataset span FIRST..LAST"}),
        (("--tz",), {"help": f"IANA zone (default {DEFAULT_TZ})"}),
        (("--n-towers",), {"type": int, "help": "tower count"}),
        (("--n-population",), {"type": int, "help": "ground-truth population"}),
        (("--market-share",), {"type": float, "help": "subscriber share (default 0.28)"}),
        (("--daily-event-rate",), {"type": float, "help": "mean events/user/day"}),
        (("--home-call-share-night",), {"type": float}),
        (("--work-call-share-day",), {"type": float}),
        (("--home-call-share-day",), {"type": float}),
        (("--work-pool-size",), {"type": int}),
        (("--neighbor-pool-size",), {"type": int}),
        (("--migration-fraction",), {"type": float, "help": "share of users migrating"}),
        (("--migration-range",), {"help": "migration dates FIRST..LAST"}),
        (("--min-stay-days",), {"type": int, "help": "shortest personal stay"}),
        (("--touristic-towers",), {"help": "ids 'a,b,c' or 'lowest:K'"}),
    ])

    add("detect", "run one HDA over one window, dump per-tower vectors", io_flags + [
        (("--hda",), {"help": "HDA name, one of " + ",".join(CANONICAL_HDA_NAMES)}),
        (("--window",), {"help": "window FIRST..LAST"}),
        (("--min-qualifying",), {"type": int, "help": "evidence threshold"}),
        (("--out",), {"help": "output directory"}),
        (("--dump-assignments",), {"action": "store_const", "const": True,
                                   "help": "also dump per-user assignments"}),
    ])

    add("sweep", "run the full (HDA x window) grid and emit reports", io_flags + [
        (("--classes",), {"help": "comma list of " + ",".join(DURATION_CLASSES)}),
        (("--hdas",), {"help": "comma list of HDA names (default: all 9)"}),
        (("--out",), {"help": "run directory"}),
        (("--workers",), {"type": int, "help": "parallel worker processes"}),
        (("--exclusion-threshold",), {"type": int,
                                      "help": "exclude towers with x below this"}),
        (("--min-qualifying",), {"type": int, "help": "evidence threshold"}),
        (("--resume",), {"action": "store_const", "const": True,
                         "help": "skip cells already in cells.jsonl"}),
        (("--per-tower-exports",), {"help": "true|false (default true)"}),
        (("--dump-assignments",), {"help": "true|false (default false)"}),
        (("--truth",), {"help": "ground-truth CSV to score against"}),
        (("--migration-range",), {"help": "migration dates FIRST..LAST for scoring"}),
    ])

    add("report", "re-emit final report files from a run directory", [
        (("--out",), {"help": "run directory with cells.jsonl + manifest.json"}),
    ])

    add("score", "score an assignments dump against ground truth", [
        (("--assignments",), {"help": "assignments CSV from detect/sweep"}),
        (("--truth",), {"help": "ground-truth CSV"}),
        (("--window",), {"help": "window FIRST..LAST the assignments cover"}),
        (("--migration-range",), {"help": "migration dates FIRST..LAST"}),
        (("--hda",), {"help": "HDA name (default: from the file name)"}),
    ])
    return parser


_COMMANDS = {
    "ingest-check": cmd_ingest_check,
    "windows": cmd_windows,
    "synth": cmd_synth,
    "detect": cmd_detect,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "score": cmd_score,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opt = Options(args)
        return _COMMANDS[args.command](opt)
    except (CliError, IngestError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
