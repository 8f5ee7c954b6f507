"""Agreement metrics between detected-home counts and ground-truth population.

Per (HDA, window) cell: Pearson's r across towers between the detected-home
vector x and the population vector y, the per-tower log ratio ln(x/y), and a
decile profile of x over towers binned by y. An undefined r raises
UndefinedMetric with its reason instead of degrading to a silent 0; an
undefined log ratio (x or y is 0) is NaN, which the exports write as empty.
"""

from __future__ import annotations

import math

import numpy as np

N_DECILE_BINS = 9  # top decile is excluded from the profile


class UndefinedMetric(ValueError):
    """A metric has no defined value for the given input; str(e) says why."""


def _as_vector(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _vectors(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float vectors of one length."""
    xa = _as_vector(x, "x")
    ya = _as_vector(y, "y")
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
    return xa, ya


def pearson_r(x, y) -> float:
    """Pearson correlation by the centred two-pass formula.

    The first pass takes the means, the second the centred second moments,
    so large offsets cause no catastrophic cancellation. Result is clamped
    to [-1, 1]; constant input raises UndefinedMetric rather than returning 0.
    """
    xa, ya = _vectors(x, y)
    n = len(xa)
    if n < 2:
        raise UndefinedMetric(f"need at least 2 points, got {n}")
    dx = xa - float(xa.mean())
    dy = ya - float(ya.mean())
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    sxy = float(dx @ dy)
    if sxx <= 0.0:
        raise UndefinedMetric("x is constant; correlation undefined")
    if syy <= 0.0:
        raise UndefinedMetric("y is constant; correlation undefined")
    r = sxy / math.sqrt(sxx) / math.sqrt(syy)
    return min(1.0, max(-1.0, r))


def log_ratio_array(x, y) -> np.ndarray:
    """Vector ln(x/y) for exports; undefined entries become NaN."""
    xa, ya = _vectors(x, y)
    out = np.full(len(xa), np.nan)
    ok = (xa > 0) & (ya > 0)
    out[ok] = np.log(xa[ok] / ya[ok])
    return out


def decile_summary(x, y) -> list[list]:
    """Mean and population-std of x per ascending y-decile, top decile
    dropped: 9 rows [index 1..9, n, y_lo, y_hi, mean_x, std_x].

    Towers are ordered by (y, x) so any permutation of the input yields the
    same rows. Fewer than 10 towers cannot form deciles; that returns the 9
    rows with n = 0 and NaN for the rest instead of failing.
    """
    xa, ya = _vectors(x, y)
    n = len(xa)
    if n < 10:
        return [[i + 1, 0] + [float("nan")] * 4 for i in range(N_DECILE_BINS)]
    order = np.lexsort((xa, ya))
    xs, ys = xa[order], ya[order]
    bounds = [i * n // 10 for i in range(N_DECILE_BINS + 1)]
    starts = np.array(bounds[:-1])
    sizes = np.diff(bounds)
    mean, std = np.empty(N_DECILE_BINS), np.empty(N_DECILE_BINS)
    # bins hold n // 10 or n // 10 + 1 towers: the bins of one size are
    # the rows of one matrix, and a row's mean and std are seg.mean() and
    # seg.std() bit for bit (the same pairwise sums along a contiguous row)
    for size in set(sizes.tolist()):
        bins = np.flatnonzero(sizes == size)
        segs = xs[starts[bins, None] + np.arange(size)]
        mean[bins] = segs.mean(axis=1)
        std[bins] = segs.std(axis=1)  # the population std (ddof=0)
    return [
        [i + 1, hi - lo, float(ys[lo]), float(ys[hi - 1]), m, s]
        for i, (lo, hi, m, s) in enumerate(
            zip(bounds, bounds[1:], mean.tolist(), std.tolist())
        )
    ]


def compute_metric_report(
    x: np.ndarray, population: np.ndarray, *, exclusion_threshold: int = 0
) -> dict:
    """Score one cell's detected homes per tower, x, against the population:
    the statistics the sweep's reports write for the cell.

    Correlation and deciles (decile_summary's rows) run over the towers
    whose x is not below exclusion_threshold; pearson is None when r is
    undefined, and pearson_note then says why.
    """
    y = np.asarray(population, dtype=np.int64)
    if len(x) != len(y):
        raise ValueError("home counts and population cover different tower sets")
    if exclusion_threshold < 0:
        raise ValueError("exclusion_threshold must be >= 0")
    excluded = x < exclusion_threshold
    used = ~excluded
    try:
        r = pearson_r(x[used], y[used])
        note = ""
    except UndefinedMetric as exc:
        r = None
        note = str(exc)
    return {
        "n_used": int(used.sum()),
        "n_excluded": int(excluded.sum()),
        "pearson": r,
        "pearson_note": note,
        "deciles": decile_summary(x[used], y[used]),
    }
