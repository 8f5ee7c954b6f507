"""Workload inputs: generated from a seed with the package's own generator.

setup_s is the time inside the program calls that build the inputs
(synth.generate, core.write_records_csv and the registry and truth
write_csv). build() sets up once into the files the sweeps read;
ingest-mixed then rewrites a share of the data lines per reject kind. That
rewrite is the benchmark's own work and is not timed. repeat_setup() sets
up again into a scratch directory, checks that the files come out
byte-identical to the first set-up's and deletes them; the benchmark spreads
these repeats over the run and reports the median.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from cdrhomes import core, synth
from cdrhomes.core import DatasetSpan

from spans import Tracer

SETUP_CALLS = (
    "synth.generate",
    "core.write_records_csv",
    "core.TowerRegistry.write_csv",
    "synth.GroundTruthTable.write_csv",
)

_TAG_REWRITE = 7
_UNKNOWN_TOWER_OFFSET = 1_000_000


def _date_range(text: str) -> tuple[date, date]:
    a, b = text.split("..")
    return date.fromisoformat(a), date.fromisoformat(b)


def input_key(spec: dict, seed: int) -> str:
    """Identifies the input files; workloads with equal keys read equal files."""
    blob = json.dumps({"synth": spec["synth"], "rewrite": spec["rewrite"], "seed": seed},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Inputs:
    records: Path
    towers: Path
    truth: Path
    n_lines: int
    injected: dict[str, int]
    # records the program should accept, for the output oracle
    users: np.ndarray
    tower_ids: np.ndarray
    stamps: np.ndarray
    registry_ids: np.ndarray
    truth_users: np.ndarray
    truth_homes: np.ndarray
    config: synth.SynthConfig
    digests: list[str]  # sha256 of each set-up file as the program wrote it
    setup_s: list[float]  # summed set-up call time, one per set-up
    call_s: dict[str, list[float]]  # per set-up call, one per set-up


def _paths(out_dir: Path) -> tuple[Path, Path, Path]:
    return out_dir / "records.csv", out_dir / "towers.csv", out_dir / "truth.csv"


def _set_up(config, paths, setup_s: list[float], call_s: dict[str, list[float]]):
    """Generate and write the inputs once; appends the call times."""
    tracer = Tracer()
    result = tracer.wrap("synth.generate", synth.generate)(config)
    tracer.wrap("core.write_records_csv", core.write_records_csv)(
        paths[0], result.users, result.towers, result.timestamps
    )
    tracer.wrap("core.TowerRegistry.write_csv", result.registry.write_csv)(paths[1])
    tracer.wrap("synth.GroundTruthTable.write_csv", result.truth.write_csv)(paths[2])
    for sp in tracer.spans:
        call_s.setdefault(sp.name, []).append(sp.duration)
    setup_s.append(sum(sp.duration for sp in tracer.spans))
    return result


def _digests(paths) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


def build(spec: dict, seed: int, out_dir: Path) -> Inputs:
    out_dir.mkdir(parents=True, exist_ok=True)
    s = spec["synth"]
    config = synth.summer_scenario(
        seed,
        n_towers=s["n_towers"],
        n_population=s["n_population"],
        span=DatasetSpan.parse(s["span"]),
        migration_range=_date_range(s["migration_range"]),
        migration_fraction=s["migration_fraction"],
        min_stay_days=s["min_stay_days"],
        n_touristic=s["n_touristic"],
        daily_event_rate=s["daily_event_rate"],
        tz_name=s["tz"],
    )
    paths = _paths(out_dir)
    setup_s: list[float] = []
    call_s: dict[str, list[float]] = {name: [] for name in SETUP_CALLS}
    result = _set_up(config, paths, setup_s, call_s)
    digests = _digests(paths)

    users, towers, stamps = result.users, result.towers, result.timestamps
    injected = {"malformed": 0, "unknown_tower": 0, "out_of_span": 0, "iso_local": 0}
    if spec["rewrite"]:
        keep, injected = _rewrite(paths[0], users, towers, stamps, spec["rewrite"],
                                  seed, DatasetSpan.parse(s["span"]), s["tz"])
        users, towers, stamps = users[keep], towers[keep], stamps[keep]
    return Inputs(
        records=paths[0],
        towers=paths[1],
        truth=paths[2],
        n_lines=result.n_records,
        injected=injected,
        users=users,
        tower_ids=towers,
        stamps=stamps,
        registry_ids=np.array(result.registry.tower_ids),
        truth_users=result.truth.user_ids,
        truth_homes=result.truth.home_towers,
        config=config,
        digests=digests,
        setup_s=setup_s,
        call_s=call_s,
    )


def repeat_setup(inp: Inputs, out_dir: Path) -> list[str]:
    """Set up once more into out_dir (then removed); problems if the files differ."""
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        paths = _paths(out_dir)
        _set_up(inp.config, paths, inp.setup_s, inp.call_s)
        return [f"set-up {len(inp.setup_s)} wrote a different {p.name} than set-up 1"
                for p, a, b in zip(paths, _digests(paths), inp.digests) if a != b]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _rewrite(path: Path, users, towers, stamps, shares: dict, seed: int,
             span: DatasetSpan, tz_name: str):
    """Rewrite a share of data lines per kind; returns (accepted mask, counts).

    Line i + 1 of the file (after the header) holds record i. Out-of-span
    epochs lie 2 to out_of_span_max_days days outside the span, so civil
    time stays well inside the zone tables.
    """
    n = len(users)
    kinds = ("iso_local", "malformed", "unknown_tower", "out_of_span")
    counts = {k: int(round(shares[k] * n)) for k in kinds}
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_REWRITE]))
    picked = rng.choice(n, size=sum(counts.values()), replace=False)
    lines = path.read_bytes().split(b"\n")
    keep = np.ones(n, dtype=bool)
    tz = ZoneInfo(tz_name)
    utc0 = int(datetime(span.first_day.year, span.first_day.month,
                        span.first_day.day, tzinfo=tz).timestamp())
    after = span.last_day + timedelta(days=1)
    utc1 = int(datetime(after.year, after.month, after.day, tzinfo=tz).timestamp())
    max_off = shares["out_of_span_max_days"] * 86400
    start = 0
    for kind in kinds:
        rows = picked[start:start + counts[kind]]
        start += counts[kind]
        u, t, ts = users[rows], towers[rows], stamps[rows]
        if kind == "iso_local":
            fields = [u, t, _local_iso(ts, tz)]
        elif kind == "malformed":
            fields = [u, t]
        elif kind == "unknown_tower":
            fields = [u, t + _UNKNOWN_TOWER_OFFSET, ts]
        else:
            offs = rng.integers(2 * 86400, max_off, size=len(rows))
            before = rng.random(len(rows)) < 0.5
            fields = [u, t, np.where(before, utc0 - offs, utc1 + offs)]
        for i, *values in zip(rows.tolist(), *(f.tolist() for f in fields)):
            lines[i + 1] = ",".join(map(str, values)).encode()
        if kind != "iso_local":
            keep[rows] = False
    path.write_bytes(b"\n".join(lines))
    return keep, counts


def _local_iso(stamps: np.ndarray, tz: ZoneInfo) -> np.ndarray:
    """'YYYY-MM-DDTHH:MM:SS' wall-clock text of each epoch in tz.

    Offsets come from zoneinfo once per UTC hour; a zone whose offset
    changes inside an hour is refused.
    """
    hours, inverse = np.unique(stamps // 3600, return_inverse=True)

    def offsets(at):
        return np.array([datetime.fromtimestamp(int(x), tz).utcoffset().total_seconds()
                         for x in at], dtype=np.int64)

    off = offsets(hours * 3600)
    if np.any(off != offsets(hours * 3600 + 3599)):
        raise ValueError(f"{tz} changes offset inside an hour")
    local = stamps + off[inverse.ravel()]
    return np.datetime_as_string(local.astype("datetime64[s]"))
