"""Agreement metrics between detected-home counts and ground-truth population.

Per (HDA, window) cell: Pearson's r across towers between the detected-home
vector x and the population vector y, the per-tower log ratio ln(x/y), and a
decile profile of x over towers binned by y. An undefined r raises
UndefinedMetric with its reason instead of degrading to a silent 0; an
undefined log ratio (x or y is 0) is NaN, which the exports write as empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def pearson_r(x, y) -> float:
    """Pearson correlation by the centred two-pass formula.

    The first pass takes the means, the second the centred second moments,
    so large offsets cause no catastrophic cancellation. Result is clamped
    to [-1, 1]; constant input raises UndefinedMetric rather than returning 0.
    """
    xa = _as_vector(x, "x")
    ya = _as_vector(y, "y")
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
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
    xa = _as_vector(x, "x")
    ya = _as_vector(y, "y")
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
    out = np.full(len(xa), np.nan)
    ok = (xa > 0) & (ya > 0)
    out[ok] = np.log(xa[ok] / ya[ok])
    return out


@dataclass(frozen=True)
class DecileBin:
    """Summary of x over the towers whose y falls in one population decile."""

    index: int  # 1..9, ascending population
    n: int
    y_lo: float
    y_hi: float
    mean_x: float
    std_x: float


def _empty_bins() -> list[DecileBin]:
    nan = float("nan")
    return [DecileBin(i + 1, 0, nan, nan, nan, nan) for i in range(N_DECILE_BINS)]


def decile_summary(x, y) -> list[DecileBin]:
    """Mean and population-std of x per ascending y-decile, top decile dropped.

    Towers are ordered by (y, x) so any permutation of the input yields the
    same bins. Fewer than 10 towers cannot form deciles; that returns the 9
    bins with n = 0 instead of failing.
    """
    xa = _as_vector(x, "x")
    ya = _as_vector(y, "y")
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
    n = len(xa)
    if n < 10:
        return _empty_bins()
    order = np.lexsort((xa, ya))
    xs, ys = xa[order], ya[order]
    bins = []
    for i in range(N_DECILE_BINS):
        lo = i * n // 10
        hi = (i + 1) * n // 10
        seg = xs[lo:hi]
        bins.append(
            DecileBin(
                index=i + 1,
                n=hi - lo,
                y_lo=float(ys[lo]),
                y_hi=float(ys[hi - 1]),
                mean_x=float(seg.mean()),
                std_x=float(seg.std()),  # population std (ddof=0)
            )
        )
    return bins


def exclusion_policy(x, threshold: int) -> np.ndarray:
    """Mask of towers to exclude: detected-home count below the threshold.

    threshold 0 excludes nothing (the default reporting mode); the mask is
    returned rather than applied so reports can state what was dropped.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    xa = np.asarray(x)
    return xa < threshold


@dataclass
class MetricReport:
    """Every agreement number reported for one (HDA, window) cell."""

    window_class: str
    n_towers: int
    n_used: int
    n_excluded: int
    exclusion_threshold: int
    pearson: float | None
    pearson_note: str
    n_users: int
    n_assigned: int
    deciles: list[DecileBin] = field(default_factory=list)
    logratio: np.ndarray | None = None  # full registry length, NaN = undefined

    def as_cell_dict(self) -> dict:
        """JSON-ready cell payload without the cell's labels (logratio lives
        in per-tower files)."""
        return {
            "class": self.window_class,
            "n_towers": self.n_towers,
            "n_used": self.n_used,
            "n_excluded": self.n_excluded,
            "exclusion_threshold": self.exclusion_threshold,
            "pearson": self.pearson,
            "pearson_note": self.pearson_note,
            "n_users": self.n_users,
            "n_assigned": self.n_assigned,
            "deciles": [
                [b.index, b.n, b.y_lo, b.y_hi, b.mean_x, b.std_x]
                for b in self.deciles
            ],
        }

    @classmethod
    def from_cell_dict(cls, d: dict) -> "MetricReport":
        return cls(
            window_class=d["class"],
            n_towers=d["n_towers"],
            n_used=d["n_used"],
            n_excluded=d["n_excluded"],
            exclusion_threshold=d["exclusion_threshold"],
            pearson=d["pearson"],
            pearson_note=d["pearson_note"],
            n_users=d["n_users"],
            n_assigned=d["n_assigned"],
            deciles=[DecileBin(*row) for row in d["deciles"]],
            logratio=None,
        )


def compute_metric_report(
    x: np.ndarray,
    population: np.ndarray,
    window_class: str,
    *,
    n_users: int,
    exclusion_threshold: int = 0,
) -> MetricReport:
    """Score one cell's detected homes per tower, x, against the population.

    n_users is the user universe the cell's assignments covered; every
    assigned user is counted in x, so n_assigned is its sum.

    Correlation and deciles run over the non-excluded towers; the log-ratio
    vector always covers the full registry (undefined entries as NaN) so
    per-tower exports stay aligned to registry order.
    """
    y = np.asarray(population, dtype=np.int64)
    if len(x) != len(y):
        raise ValueError("home counts and population cover different tower sets")
    excluded = exclusion_policy(x, exclusion_threshold)
    used = ~excluded
    try:
        r = pearson_r(x[used], y[used])
        note = ""
    except UndefinedMetric as exc:
        r = None
        note = str(exc)
    return MetricReport(
        window_class=window_class,
        n_towers=len(x),
        n_used=int(used.sum()),
        n_excluded=int(excluded.sum()),
        exclusion_threshold=exclusion_threshold,
        pearson=r,
        pearson_note=note,
        n_users=n_users,
        n_assigned=int(x.sum()),
        deciles=decile_summary(x[used], y[used]),
        logratio=log_ratio_array(x, y),
    )
