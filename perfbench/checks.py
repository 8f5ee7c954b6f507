"""Output checks run on every sweep the benchmark makes.

- Exit code 0, manifest n_failed 0 and the workload's cell count.
- Ingest accounting: total lines, and each reject count equal to the number
  of lines the benchmark injected for that reason.
- An independent oracle for the MA full-span cell: per-tower home counts and
  the number of users placed at their true home.
- Digests of every report file except manifest.json and cells.jsonl must
  equal those of earlier runs on the same inputs: of the same workload
  (same file set too) and of any other workload that reads the same inputs
  (on the files both write). Earlier runs are the committed golden files
  and a store the benchmark keeps in its work directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from inputs import Inputs

UNCHECKED = ("manifest.json", "cells.jsonl")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def digest_tree(run_dir: Path) -> dict[str, str]:
    out = {}
    for path in sorted(run_dir.rglob("*")):
        rel = path.relative_to(run_dir).as_posix()
        if path.is_file() and rel not in UNCHECKED:
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def check_manifest(run_dir: Path, expected_cells: int, inputs: Inputs) -> list[str]:
    path = run_dir / "manifest.json"
    if not path.exists():
        return ["manifest.json missing"]
    m = json.loads(path.read_text())
    problems = []
    if m.get("n_cells") != expected_cells:
        problems.append(f"n_cells {m.get('n_cells')} != {expected_cells}")
    if m.get("n_failed") != 0:
        problems.append(f"n_failed {m.get('n_failed')} != 0")
    ing = m.get("ingest") or {}
    rejects = {k: ing.get(f"rejected_{k}") for k in ("malformed", "unknown_tower", "out_of_span")}
    expected = {k: inputs.injected[k] for k in rejects}
    if rejects != expected:
        problems.append(f"ingest rejects {rejects} != injected {expected}")
    if ing.get("total_lines") != inputs.n_lines:
        problems.append(f"total_lines {ing.get('total_lines')} != {inputs.n_lines}")
    if ing.get("accepted") != inputs.n_lines - sum(expected.values()):
        problems.append(f"accepted {ing.get('accepted')} + rejects != total lines")
    return problems


def oracle_ma_full(inputs: Inputs) -> tuple[dict[int, int], int, int]:
    """Homes under MA over every accepted record, computed without the package.

    MA counts events per (user, tower); the highest count wins, then the
    tower whose first record is earliest, then the smaller tower id.
    Returns (home count per tower id, users placed, users at their true home).
    """
    u, t, s = inputs.users.astype(np.int64), inputs.tower_ids, inputs.stamps
    if np.any(np.diff(s) < 0):
        raise ValueError("the oracle needs records in time order")
    # the first record of each (user, tower) in time order is its earliest
    key = u * (int(t.max()) + 1) + t
    _, start, count = np.unique(key, return_index=True, return_counts=True)
    gu, gt, gfirst = u[start], t[start], s[start]
    best = np.lexsort((gt, gfirst, -count, gu))
    first = np.ones(len(best), dtype=bool)
    first[1:] = gu[best][1:] != gu[best][:-1]
    home_user, home_tower = gu[best][first], gt[best][first]
    ids, n = np.unique(home_tower, return_counts=True)
    truth_row = np.searchsorted(inputs.truth_users, home_user.astype(np.uint64))
    n_correct = int((inputs.truth_homes[truth_row] == home_tower).sum())
    return dict(zip(ids.tolist(), n.tolist())), len(home_user), n_correct


def check_oracle(run_dir: Path, inputs: Inputs, oracle) -> list[str]:
    """Compare the MA full-span outputs with oracle_ma_full(inputs)."""
    homes, n_users, n_correct = oracle
    problems = []
    export = run_dir / "towers" / "MA__full.csv"
    if not export.exists():
        return ["towers/MA__full.csv missing"]
    with open(export, newline="") as fh:
        x = {int(r["tower_id"]): int(r["x"]) for r in csv.DictReader(fh)}
    expected = {int(t): homes.get(int(t), 0) for t in inputs.registry_ids}
    if x != expected:
        bad = sorted(t for t in expected if x.get(t) != expected[t])[:5]
        problems.append(f"MA full homes per tower differ from the oracle at towers {bad}")
    acc = run_dir / "accuracy.csv"
    row = None
    if acc.exists():
        with open(acc, newline="") as fh:
            for r in csv.DictReader(fh):
                if (r["hda"], r["window"], r["group"]) == ("MA", "full", "all"):
                    row = (int(r["n_users"]), int(r["n_correct"]))
    if row != (n_users, n_correct):
        problems.append(f"MA full accuracy {row} != oracle {(n_users, n_correct)}")
    return problems


class DigestStore:
    """Report digests per input key and workload, from earlier runs."""

    def __init__(self, store_dir: Path, golden_dir: Path = GOLDEN_DIR):
        self.store_dir = store_dir
        self.golden_dir = golden_dir

    def _load(self, directory: Path, key: str) -> dict[str, dict[str, str]]:
        path = directory / f"{key}.json"
        return json.loads(path.read_text()) if path.exists() else {}

    def check_and_record(self, key: str, workload: str, digests: dict[str, str]) -> list[str]:
        problems = []
        known = self._load(self.store_dir, key)
        for source in (self._load(self.golden_dir, key), known):
            for other, theirs in source.items():
                if other == workload and set(theirs) != set(digests):
                    problems.append(f"file set differs from an earlier {workload} run")
                differ = sorted(f for f in set(theirs) & set(digests) if theirs[f] != digests[f])
                if differ:
                    problems.append(
                        f"{len(differ)} report files differ from {other} on the same "
                        f"inputs, e.g. {differ[:3]}"
                    )
        if not problems and workload not in known:
            known[workload] = digests
            self.store_dir.mkdir(parents=True, exist_ok=True)
            tmp = self.store_dir / f"{key}.json.tmp"
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            os.replace(tmp, self.store_dir / f"{key}.json")
        return problems


def check_run(run_dir: Path, returncode: int, expected_cells: int, inputs: Inputs,
              oracle, store: DigestStore, key: str, workload: str) -> list[str]:
    """Every problem found with one sweep's outputs; empty when it is correct."""
    if returncode != 0:
        return [f"sweep exited with code {returncode}"]
    problems = check_manifest(run_dir, expected_cells, inputs)
    problems += check_oracle(run_dir, inputs, oracle)
    problems += store.check_and_record(key, workload, digest_tree(run_dir))
    return problems
