"""Home detection from call detail records.

Detect each user's home tower under interchangeable criteria, sweep the
detection over grids of observation windows, score the resulting per-tower
counts against ground-truth population, and generate synthetic mobility
datasets with known truth to validate the whole chain.
"""

__version__ = "0.1.0"
