"""Home detection from call detail records.

Detect each user's home tower under interchangeable criteria, sweep the
detection over grids of observation windows, score the resulting per-tower
counts against ground-truth population, and generate synthetic mobility
datasets with known truth to validate the whole chain.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the module defining it, imported on first use (PEP 562),
# so `import cdrhomes` loads no numpy: cdrhomes.cli sets numpy's thread
# settings before it loads
_EXPORTS = {
    name: module
    for module, names in {
        "core": "DatasetSpan IngestReport TowerRegistry UserPartition ingest "
                "partition_records",
        "hda": "CANONICAL_HDA_NAMES CANONICAL_HDAS BulkAssignments HdaSpec "
               "aggregate_homes canonical_hda detect_homes_bulk merge_vectors",
        "metrics": "UndefinedMetric compute_metric_report decile_summary "
                   "log_ratio_array pearson_r",
        "sweep": "SweepOptions SweepResult emit_reports run_sweep",
        "synth": "GroundTruthTable MigrationConfig SynthConfig SynthResult "
                 "build_registry generate pick_touristic_towers score_against_truth "
                 "summer_scenario",
        "timebase": "DEFAULT_TZ CivilClock",
        "windows": "DURATION_CLASSES ObservationWindow generate_windows windows_table",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
