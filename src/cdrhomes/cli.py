"""Command-line front end: argument handling only.

Subcommands: ingest-check, windows, synth, detect (a one-cell sweep), sweep,
report, score. Each option's flag, type, default and required-ness is
declared once, in _COMMANDS; a boolean flag takes --x, --x true and --x
false. A --config file's `key = value` lines (key: a flag name without --)
become --key=value flags placed before the explicit ones, which so win over
the file. A key no subcommand declares is an error; one only other
subcommands declare is skipped. Exit codes: 0 success, 1 fatal error (a
missing option or a value its type refuses included; option values are
checked before the records file is read), 2 a run that finished with failed
cells or a command line that cannot be carried out as given (other argparse
usage errors, detect --dump-assignments without --out).

OpenBLAS gets one thread unless OPENBLAS_NUM_THREADS is already set: the
only BLAS call is Pearson's dot product over towers, and a sweep runs in
parallel by forking processes, so a pool of BLAS threads would only idle.
The variable is read when numpy loads, so it is set before anything here
imports numpy (importing the cdrhomes package loads none of it).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .core import DatasetSpan, TowerRegistry, ingest, write_records_csv
from .hda import CANONICAL_HDA_NAMES, canonical_hda
from .sweep import (
    CELLS_FILE, SweepOptions, load_run, read_assignment_dump, run_sweep,
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


# -- option types: each raises ValueError on a value it refuses -------------


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _classes(text: str) -> tuple[str, ...]:
    out = tuple(c.strip() for c in text.split(",") if c.strip())
    if not out:
        raise ValueError("no window class given")
    for c in out:
        if c not in DURATION_CLASSES:
            raise ValueError(
                f"unknown window class {c!r}; choose from {','.join(DURATION_CLASSES)}"
            )
    return out


def _hdas(text: str) -> list:
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise ValueError("no HDA given")
    for i, n in enumerate(names):
        if n in names[:i]:
            raise ValueError(f"duplicate HDA {n!r}")
    return [canonical_hda(n) for n in names]  # raises on unknown names


def _window(text: str) -> ObservationWindow:
    dates = DatasetSpan.parse(text)
    return ObservationWindow(text, dates.first_day, dates.last_day, "custom")


def _checked(flag: str, convert):
    """convert, raising CliError that names the flag on a value it refuses."""
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, TypeError) as exc:
            raise CliError(f"bad value --{flag}={text!r}: {exc}") from None
    return parse


def _need(args: argparse.Namespace, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is None:
            raise CliError(f"missing required option --{flag}")


# -- subcommands -----------------------------------------------------------


def cmd_ingest_check(args: argparse.Namespace) -> int:
    registry = TowerRegistry.read_csv(args.towers)
    _, report = ingest(args.records, registry, args.span, clock=CivilClock(args.tz))
    print(report.as_text())
    return 0


def cmd_windows(args: argparse.Namespace) -> int:
    table = windows_table(generate_windows(args.span, args.classes))
    if args.out:
        Path(args.out).write_text(table)
        print(f"wrote {args.out}")
    else:
        print(table, end="")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    migration = None
    if args.migration_fraction > 0:
        _need(args, "migration-range", "touristic-towers")
        tour_raw = args.touristic_towers
        if tour_raw.startswith("lowest:"):
            k = int(tour_raw.split(":", 1)[1])
            registry = build_registry(args.seed, args.n_towers, args.n_population)
            touristic = pick_touristic_towers(registry, k)
        else:
            touristic = tuple(int(t) for t in tour_raw.split(",") if t.strip())
        dates = args.migration_range
        migration = MigrationConfig(
            dates.first_day, dates.last_day, args.migration_fraction, touristic,
            min_stay_days=args.min_stay_days,
        )
    config = SynthConfig(
        seed=args.seed, n_towers=args.n_towers, n_population=args.n_population,
        span=args.span, migration=migration, tz_name=args.tz,
        **{f.name: getattr(args, f.name) for f in _TUNABLES},
    )
    result = generate(config)
    result.registry.write_csv(out_dir / "towers.csv")
    result.truth.write_csv(out_dir / "truth.csv")
    write_records_csv(out_dir / "records.csv", result.users, result.towers,
                      result.timestamps)
    echo = config.echo()
    echo["n_records"] = str(result.n_records)
    manifest = "".join(f"{k}={v}\n" for k, v in echo.items())
    (out_dir / "synth_manifest.txt").write_text(manifest)
    print(f"towers={args.n_towers} subscribers={config.n_subscribers} "
          f"records={result.n_records}")
    print(f"wrote {out_dir}/towers.csv, truth.csv, records.csv, synth_manifest.txt")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    span = args.span
    if not args.window.overlaps(span.first_day, span.last_day):
        # ingest drops every record outside the span: no one could be placed
        raise CliError(f"--window {args.window.label} shares no day with --span {span}")
    if args.dump_assignments and not args.out:
        print("error: --dump-assignments needs --out (the dump is written there)",
              file=sys.stderr)
        return 2
    options = SweepOptions(min_qualifying=args.min_qualifying,
                           dump_assignments=args.dump_assignments)
    registry = TowerRegistry.read_csv(args.towers)
    partitions, report = ingest(args.records, registry, args.span,
                                clock=CivilClock(args.tz))
    result, manifest = run_sweep(
        partitions, registry, [args.window], [args.hda], args.out, options,
        span=str(args.span), tz_name=args.tz, ingest_report=report,
    )
    for rec in result.reports.values():  # the one cell, unless it failed
        print(f"hda={rec['hda']} window={rec['window']} users={rec['n_users']} "
              f"assigned={rec['n_assigned']}")
    return _failed(manifest)


def cmd_sweep(args: argparse.Namespace) -> int:
    options = SweepOptions(
        **{f.name: getattr(args, f.name) for f in fields(SweepOptions)}
    )
    registry = TowerRegistry.read_csv(args.towers)
    partitions, report = ingest(args.records, registry, args.span,
                                n_partitions=args.partitions, clock=CivilClock(args.tz))
    truth = GroundTruthTable.read_csv(args.truth) if args.truth else None
    result, manifest = run_sweep(
        partitions, registry, generate_windows(args.span, args.classes), args.hdas,
        args.out, options, truth=truth,
        migration=args.migration_range if truth else None,
        span=str(args.span), tz_name=args.tz, ingest_report=report,
    )
    print(
        f"cells={result.n_cells} failed={result.n_failed} "
        f"elapsed={manifest['elapsed_seconds']:.2f}s out={args.out}"
    )
    return _failed(manifest)


def _failed(manifest: dict) -> int:
    """Name each failed cell on stderr; exit code 2 if there is one, else 0."""
    for key in manifest["failed_cells"]:
        print(f"failed: {key}", file=sys.stderr)
    return 2 if manifest["failed_cells"] else 0


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    result, n_bad = load_run(out_dir)
    if not (out_dir / CELLS_FILE).exists():
        raise CliError(f"no {CELLS_FILE} in {out_dir}; nothing to report")
    warn_unparseable(n_bad, out_dir / CELLS_FILE)
    written = _emit_reports(result, out_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    truth = GroundTruthTable.read_csv(args.truth)
    # a dump is named HDA__LABEL.csv: its rows take the cell's window label
    hda_name, _, label = Path(args.assignments).stem.partition("__")
    window = replace(args.window, label=label) if label else args.window
    rows = score_against_truth(
        {args.hda or hda_name: read_assignment_dump(args.assignments)}, truth,
        window, args.migration_range,
    )
    print(accuracy_csv(rows), end="")
    return 0


# -- options and parser ----------------------------------------------------


def _bool(default: bool, help_text: str) -> dict:
    """A boolean flag: --x and --x true give True, --x false gives False."""
    return {"type": _parse_bool, "nargs": "?", "const": True, "default": default,
            "metavar": "BOOL", "help": f"{help_text} (default %(default)s)"}


# SynthConfig's numeric generator parameters, each a synth flag
_TUNABLES = [f for f in fields(SynthConfig) if type(f.default) in (int, float)]

_SPAN = ("span", {"type": DatasetSpan.parse, "required": True,
                  "help": "dataset span FIRST..LAST"})
_TZ = ("tz", {"default": DEFAULT_TZ, "help": "IANA zone (default %(default)s)"})
_CLASSES = ("classes", {"type": _classes, "default": ",".join(DURATION_CLASSES),
                        "help": "comma list of window classes (default %(default)s)"})
_WINDOW = ("window", {"type": _window, "required": True, "help": "window FIRST..LAST"})
_MIGRATION_RANGE = ("migration-range", {"type": DatasetSpan.parse,
                                        "help": "migration dates FIRST..LAST"})
_MIN_QUALIFYING = ("min-qualifying", {"type": int, "help": "evidence threshold",
                                       "default": SweepOptions.min_qualifying})
_DUMP = ("dump-assignments", _bool(SweepOptions.dump_assignments,
                                   "also dump per-user assignments"))
_INPUT = [
    ("records", {"required": True, "help": "records CSV: user_id,tower_id,timestamp"}),
    ("towers", {"required": True, "help": "tower registry CSV"}),
    _SPAN,
    _TZ,
]

# command -> (function, help, [(flag without --, add_argument keywords)]);
# "required": True is checked after the config file is read (exit 1)
_COMMANDS = {
    "ingest-check": (cmd_ingest_check,
                     "read records, print the reject-accounting report", _INPUT),
    "windows": (cmd_windows, "print the observation-window grid for a span", [
        _SPAN,
        _CLASSES,
        ("out", {"help": "write the table here instead of stdout"}),
    ]),
    "synth": (cmd_synth, "generate a synthetic dataset with ground truth", [
        ("out", {"required": True, "help": "output directory"}),
        ("seed", {"type": int, "required": True, "help": "generator seed"}),
        _SPAN,
        _TZ,
        ("n-towers", {"type": int, "required": True, "help": "tower count"}),
        ("n-population", {"type": int, "required": True,
                          "help": "ground-truth population"}),
        *((f.name.replace("_", "-"), {
            "type": type(f.default), "default": f.default,
            "help": f"SynthConfig.{f.name} (default %(default)s)",
        }) for f in _TUNABLES),
        ("migration-fraction", {"type": float, "default": 0.0,
                                "help": "share of users migrating"}),
        _MIGRATION_RANGE,
        ("min-stay-days", {"type": int, "default": MigrationConfig.min_stay_days,
                           "help": "shortest personal stay (default %(default)s)"}),
        ("touristic-towers", {"help": "ids 'a,b,c' or 'lowest:K'"}),
    ]),
    "detect": (cmd_detect, "run one HDA over one window: a one-cell sweep", [
        *_INPUT,
        ("hda", {"type": canonical_hda, "required": True,
                 "help": "HDA name, one of " + ",".join(CANONICAL_HDA_NAMES)}),
        _WINDOW,
        _MIN_QUALIFYING,
        ("out", {"help": "output directory"}),
        _DUMP,
    ]),
    "sweep": (cmd_sweep, "run the full (HDA x window) grid and emit reports", [
        *_INPUT,
        ("partitions", {"type": int, "default": 1, "help": "user partition count"}),
        _CLASSES,
        ("hdas", {"type": _hdas, "default": ",".join(CANONICAL_HDA_NAMES),
                  "help": "comma list of HDA names (default: all 9)"}),
        ("out", {"required": True, "help": "run directory"}),
        ("workers", {"type": int, "default": SweepOptions.workers,
                     "help": "parallel worker processes (default %(default)s)"}),
        ("exclusion-threshold", {"type": int,
                                 "default": SweepOptions.exclusion_threshold,
                                 "help": "exclude towers with x below this"}),
        _MIN_QUALIFYING,
        ("resume", _bool(SweepOptions.resume, "skip cells already in cells.jsonl")),
        ("per-tower-exports", _bool(SweepOptions.per_tower_exports,
                                    "write towers/*.csv")),
        _DUMP,
        ("truth", {"help": "ground-truth CSV to score against"}),
        _MIGRATION_RANGE,
    ]),
    "report": (cmd_report, "re-emit final report files from a run directory", [
        ("out", {"required": True,
                 "help": "run directory with cells.jsonl + manifest.json"}),
    ]),
    "score": (cmd_score, "score an assignments dump against ground truth", [
        ("assignments", {"required": True, "help": "assignments CSV from detect/sweep"}),
        ("truth", {"required": True, "help": "ground-truth CSV"}),
        _WINDOW,
        _MIGRATION_RANGE,
        ("hda", {"help": "HDA name (default: from the file name)"}),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdrhomes",
        description="Home detection from call detail records",
    )
    parser.add_argument("--version", action="version", version=f"cdrhomes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="file of 'key = value' lines, "
                                        "each key a flag name without --")
        for flag, kw in flags:
            kw = {k: v for k, v in kw.items() if k != "required"}
            if "type" in kw:
                kw["type"] = _checked(flag, kw["type"])
            p.add_argument(f"--{flag}", **kw)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line and its --config file, and check that every
    required option has a value."""
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = dict(_COMMANDS[args.command][2])
    if args.config:
        cfg = load_config(args.config)
        everywhere = {flag for _, _, fl in _COMMANDS.values() for flag, _ in fl}
        for key in cfg:
            if key not in everywhere:
                raise CliError(f"{args.config}: no command takes the key {key!r}")
        at = argv.index(args.command) + 1
        from_file = [f"--{k}={v}" for k, v in cfg.items() if k in flags]
        args = parser.parse_args(argv[:at] + from_file + argv[at:])
    _need(args, *(flag for flag, kw in flags.items() if kw.get("required")))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (CliError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
