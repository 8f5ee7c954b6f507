"""Home detection from call detail records.

Detect each user's home tower under interchangeable criteria, sweep the
detection over grids of observation windows, score the resulting per-tower
counts against ground-truth population, and generate synthetic mobility
datasets with known truth to validate the whole chain.
"""

__version__ = "0.1.0"

from .core import (
    DatasetSpan,
    IngestReport,
    TowerRegistry,
    UserPartition,
    ingest,
    partition_records,
)
from .hda import (
    CANONICAL_HDA_NAMES,
    CANONICAL_HDAS,
    BulkAssignments,
    HdaSpec,
    aggregate_homes,
    canonical_hda,
    detect_homes_bulk,
    merge_vectors,
)
from .metrics import (
    UndefinedMetric,
    compute_metric_report,
    decile_summary,
    log_ratio_array,
    pearson_r,
)
from .sweep import SweepOptions, SweepResult, emit_reports, run_sweep
from .synth import (
    GroundTruthTable,
    MigrationConfig,
    SynthConfig,
    SynthResult,
    build_registry,
    generate,
    pick_touristic_towers,
    score_against_truth,
    summer_scenario,
)
from .timebase import DEFAULT_TZ, CivilClock
from .windows import (
    DURATION_CLASSES,
    ObservationWindow,
    generate_windows,
    windows_table,
)

__all__ = [
    "__version__",
    "DatasetSpan",
    "IngestReport",
    "TowerRegistry",
    "UserPartition",
    "ingest",
    "partition_records",
    "CANONICAL_HDA_NAMES",
    "CANONICAL_HDAS",
    "BulkAssignments",
    "HdaSpec",
    "aggregate_homes",
    "canonical_hda",
    "detect_homes_bulk",
    "merge_vectors",
    "UndefinedMetric",
    "compute_metric_report",
    "decile_summary",
    "log_ratio_array",
    "pearson_r",
    "SweepOptions",
    "SweepResult",
    "emit_reports",
    "run_sweep",
    "GroundTruthTable",
    "MigrationConfig",
    "SynthConfig",
    "SynthResult",
    "build_registry",
    "generate",
    "pick_touristic_towers",
    "score_against_truth",
    "summer_scenario",
    "DEFAULT_TZ",
    "CivilClock",
    "DURATION_CLASSES",
    "ObservationWindow",
    "generate_windows",
    "windows_table",
]
