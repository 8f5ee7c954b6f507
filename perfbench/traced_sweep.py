"""Run `cdrhomes sweep` in this process with a span around each layer call.

Usage: python3 perfbench/traced_sweep.py SPANS_DIR SWEEP_ARG...

SWEEP_ARG... are the arguments of `cdrhomes sweep` (without the `sweep`).
For the run's duration the names each caller looks up are rebound to
traced wrappers; spans are written to SPANS_DIR when the run ends, one file
per process. The exit code is cli.main's.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cdrhomes import cli, core, sweep  # noqa: E402
from cdrhomes.timebase import CivilClock  # noqa: E402

from spans import Tracer  # noqa: E402


def _cell_of_compute(state, h_idx, w_idx):
    return f"{state['hdas'][h_idx].name}|{state['windows'][w_idx].label}"


def _cell_of_detect(partition, window, spec, **kwargs):
    return f"{spec.name}|{window.label}"


def _attrs_of_detect(partition, window, spec, **kwargs):
    return {"criterion": spec.criterion, "class": window.duration_class}


def _cell_of_score(assignments_by_hda, truth, window, migration=None):
    return f"{','.join(assignments_by_hda)}|{window.label}"


def layer_targets():
    """(owner, attribute, span name, cell_of, attrs_of) for every traced call."""
    return [
        (cli, "ingest", "core.ingest", None, None),
        (cli, "run_sweep", "sweep.run_sweep", None, None),
        (core, "partition_records", "core.partition_records", None, None),
        (CivilClock, "local_fields", "timebase.local_fields", None, None),
        (sweep, "_compute_cell", "sweep.cell", _cell_of_compute, None),
        (sweep, "detect_homes_bulk", "hda.detect_homes_bulk",
         _cell_of_detect, _attrs_of_detect),
        (sweep, "aggregate_homes", "hda.aggregate_homes", None, None),
        (sweep, "merge_vectors", "hda.merge_vectors", None, None),
        (sweep, "compute_metric_report", "metrics.compute_metric_report", None, None),
        (sweep, "score_against_truth", "synth.score_against_truth", _cell_of_score, None),
        (sweep, "emit_reports", "sweep.emit_reports", None, None),
    ]


def main(argv: list[str]) -> int:
    tracer = Tracer(argv[0])
    with tracer.rebound(layer_targets()):
        rc = tracer.wrap("cli.main", cli.main)(["sweep", *argv[1:]])
    tracer.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
