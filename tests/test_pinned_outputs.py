"""A small synth -> sweep -> report run, its output files pinned.

The run generates a 12-tower dataset over a 154-day span, then sweeps all
207 cells (9 HDAs x 23 windows) with truth, tower exports and assignment
dumps, at 1 partition and 2 workers. PINNED holds the sha256 of each output
file's text, or of each directory's files in name order, and the values of
the floats cut out of that text:

- the CSV columns named in FLOAT_COLUMNS (log ratio, Pearson r and its
  summaries, decile mean and std) and every number a chart prints are
  pinned by value, each replaced by '#' in the digested text. Every other
  byte is pinned by the digest: the synth files, assignments/, windows.csv,
  accuracy.csv and the integer columns of the rest;
- a CSV float may differ from its pinned value by at most FLOAT_ULPS units
  in the last place: numpy's SIMD log and its sums may round differently on
  other builds and CPUs. A chart number may differ by one unit in its last
  printed digit;
- cells.jsonl is pinned as its records in grid order, without elapsed and
  fingerprint: a record holds what its cell computed (x, accuracy, the tie
  count), and `report` derives metrics.csv, decile_summary.csv and the
  charts from x. manifest.json, which holds timings, is not.

A change that moves a pinned value rewrites PINNED with
`PYTHONPATH=src python tests/test_pinned_outputs.py`, and names every
changed file, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from cdrhomes.cli import main

PINNED = Path(__file__).with_name("pinned_sweep.json")
FLOAT_ULPS = 16
FLOAT_COLUMNS = {
    "logratio", "pearson_r", "mean_pearson", "min_pearson", "max_pearson",
    "spread", "mean_x", "std_x",
}
DIRECTORIES = ("synth/", "towers/", "assignments/")  # each pinned as one entry
_CHART_NUMBER = re.compile(r"-?\d+\.\d+")

SPAN = "2007-05-13..2007-10-13"
MIGRATION = "2007-06-01..2007-09-30"


def run(out: Path) -> None:
    """synth into out/synth, then a sweep into out/run."""
    data = out / "synth"
    assert main([
        "synth", "--out", str(data), "--seed", "3", "--span", SPAN,
        "--n-towers", "12", "--n-population", "3000", "--daily-event-rate", "1.2",
        "--migration-fraction", "0.3", "--migration-range", MIGRATION,
        "--min-stay-days", "30", "--touristic-towers", "lowest:2",
    ]) == 0
    assert main([
        "sweep", "--records", str(data / "records.csv"),
        "--towers", str(data / "towers.csv"), "--span", SPAN,
        "--out", str(out / "run"), "--partitions", "1", "--workers", "2",
        "--truth", str(data / "truth.csv"), "--migration-range", MIGRATION,
        "--dump-assignments",
    ]) == 0


def _cells_text(path: Path) -> str:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {r["status"] for r in records} == {"ok"}
    for r in records:
        for key in ("elapsed", "fingerprint"):
            del r[key]
    records.sort(key=lambda r: (r["hda"], r["window"]))
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _csv_floats(text: str) -> tuple[str, list[str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    at = [i for i, name in enumerate(header) if name in FLOAT_COLUMNS]
    floats = []
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        for i in at:
            if fields[i]:  # an undefined value is empty
                floats.append(fields[i])
                fields[i] = "#"
        lines[n] = ",".join(fields)
    return "\n".join(lines) + "\n", floats


def outputs(out: Path) -> dict[str, tuple[str, list[tuple[str, str]]]]:
    """{file name, or directory name for DIRECTORIES: (sha256 of the text
    with the floats replaced by '#', [(file name, float as printed)])}."""
    texts: dict[str, list[str]] = {}
    floats: dict[str, list[tuple[str, str]]] = {}
    for base, prefix in ((out / "run", ""), (out / "synth", "synth/")):
        for path in sorted(base.rglob("*")):
            name = prefix + path.relative_to(base).as_posix()
            if path.is_dir() or name == "manifest.json":
                continue
            text, found = path.read_text(), []
            if name == "cells.jsonl":
                text = _cells_text(path)
            elif name.endswith(".svg"):
                found = _CHART_NUMBER.findall(text)
                text = _CHART_NUMBER.sub("#", text)
            elif not name.startswith("synth/"):
                text, found = _csv_floats(text)
            key = next((d for d in DIRECTORIES if name.startswith(d)), name)
            texts.setdefault(key, []).append(f"{name}\n{text}")
            floats.setdefault(key, []).extend((name, f) for f in found)
    return {
        key: (hashlib.sha256("".join(parts).encode()).hexdigest(), floats[key])
        for key, parts in texts.items()
    }


def _within_bound(name: str, got: str, want: float) -> bool:
    if name.endswith(".svg"):  # one unit in the last printed digit
        return abs(float(got) - want) <= 1.01 * 10.0 ** -len(got.split(".")[1])
    g = float(got)
    return abs(g - want) <= FLOAT_ULPS * math.ulp(max(abs(g), abs(want)))


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    run(out)
    return out


def test_outputs_match_their_pinned_digests_and_values(swept):
    pinned = json.loads(PINNED.read_text())
    got = outputs(swept)
    assert sorted(got) == sorted(pinned)
    for key, (digest, floats) in got.items():
        want = pinned[key]
        assert digest == want["sha256"], f"{key}: text differs"
        assert len(floats) == len(want["floats"]), key
        bad = [(name, g, w) for (name, g), w in zip(floats, want["floats"])
               if not _within_bound(name, g, w)]
        assert not bad, f"{len(bad)} floats beyond the bound, first {bad[0]}"


def test_report_re_emits_every_report_file(swept, tmp_path):
    run_dir = shutil.copytree(swept / "run", tmp_path / "run")
    reports = {
        p: p.read_bytes() for p in run_dir.iterdir()
        if p.is_file() and p.name not in ("cells.jsonl", "manifest.json")
    }
    assert len(reports) == 13  # 7 CSVs, 6 charts
    for path in reports:
        path.unlink()
    assert main(["report", "--out", str(run_dir)]) == 0
    for path, data in reports.items():
        assert path.read_bytes() == data, path.name


if __name__ == "__main__":  # rewrite PINNED from a fresh run
    with tempfile.TemporaryDirectory() as tmp:
        run(Path(tmp))
        pinned = outputs(Path(tmp))
    PINNED.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: "
        + json.dumps({"sha256": digest, "floats": [float(f) for _, f in floats]})
        for key, (digest, floats) in sorted(pinned.items())
    ) + "\n}\n")
    print(f"wrote {PINNED}: {len(pinned)} entries")
