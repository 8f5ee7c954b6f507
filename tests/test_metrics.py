"""Correlation, log-ratio, and decile profiles against naive oracles."""

import json
import math

import numpy as np
import pytest

from cdrhomes.metrics import (
    UndefinedMetric,
    compute_metric_report,
    decile_summary,
    log_ratio_array,
    pearson_r,
)

from oracles import decile_bins, two_pass_pearson


def test_pearson_identity_and_hand_case():
    x = np.array([1.0, 2.0, 3.0])
    assert abs(pearson_r(x, x) - 1.0) < 1e-12
    assert abs(pearson_r([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12


def test_pearson_matches_two_pass_oracle():
    rng = np.random.default_rng(17)
    for n in (2, 3, 10, 1000, 65536, 65537, 200000):
        x = rng.normal(size=n)
        y = 0.4 * x + rng.normal(size=n)
        assert abs(pearson_r(x, y) - two_pass_pearson(x, y)) < 1e-12


def test_pearson_stable_under_large_offset():
    # naive single-pass sum-of-squares loses everything at this offset;
    # oracle and engine see the same (quantized) shifted inputs
    rng = np.random.default_rng(23)
    xs = rng.normal(size=5000) + 1e9
    ys = 0.7 * (xs - 1e9) + rng.normal(size=5000) + 1e9
    assert abs(pearson_r(xs, ys) - two_pass_pearson(xs, ys)) < 1e-9


def test_pearson_clamps_rounding():
    x = np.linspace(0, 1, 1000)
    r = pearson_r(x, -x)
    assert -1.0 <= r <= 1.0
    assert abs(r + 1.0) < 1e-12


def test_pearson_undefined_inputs():
    with pytest.raises(UndefinedMetric, match="constant"):
        pearson_r([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(UndefinedMetric, match="constant"):
        pearson_r([1, 2, 3], [5.0, 5.0, 5.0])
    with pytest.raises(UndefinedMetric, match="2 points"):
        pearson_r([1.0], [2.0])
    with pytest.raises(ValueError, match="finite"):
        pearson_r([1.0, np.nan, 3.0], [1, 2, 3])
    with pytest.raises(ValueError, match="mismatch"):
        pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="x must be one-dimensional"):
        pearson_r([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])


def test_log_ratio_values_and_reasons():
    out = log_ratio_array([28, 100, 0, 5, -1], [100, 100, 100, 0, 10])
    assert abs(out[0] - math.log(0.28)) < 1e-12
    assert out[1] == 0.0
    # no detected homes (x = 0), no population (y = 0) or a negative count
    assert np.isnan(out[2:]).all()


def test_log_ratio_array_nan_semantics():
    out = log_ratio_array([1, 0, 4, 2], [2, 3, 0, 2])
    assert abs(out[0] - math.log(0.5)) < 1e-12
    assert np.isnan(out[1]) and np.isnan(out[2])
    assert out[3] == 0.0


def test_decile_summary_matches_oracle():
    rng = np.random.default_rng(31)
    for n in (10, 23, 100, 1003):
        y = rng.integers(0, 1000, size=n)
        x = rng.integers(0, 200, size=n)
        got = decile_summary(x, y)
        want = decile_bins(x.tolist(), y.tolist())
        assert len(got) == 9
        assert [g[0] for g in got] == list(range(1, 10))
        for g, (wn, wlo, whi, wmean, wstd) in zip(got, want):
            _, gn, glo, ghi, gmean, gstd = g
            assert gn == wn
            assert glo == wlo and ghi == whi
            assert abs(gmean - wmean) < 1e-9
            assert abs(gstd - wstd) < 1e-9
        # deciles partition all but the top tenth
        assert sum(g[1] for g in got) == 9 * n // 10


def test_decile_summary_is_bitwise_the_per_bin_mean_and_std():
    # bins of one length are reduced as the rows of one matrix; each row's
    # mean and std equal the bin's own seg.mean() and seg.std()
    rng = np.random.default_rng(43)
    for n in (10, 11, 19, 23, 99, 101, 1003, 2017, 9999):
        x = rng.integers(0, 500, n) * rng.choice([1.0, 0.37, 1e9])
        y = rng.integers(0, 10 * n, n)
        order = np.lexsort((x, y))
        xs = x[order]
        want = [
            [xs[i * n // 10:(i + 1) * n // 10].mean(),
             xs[i * n // 10:(i + 1) * n // 10].std()]
            for i in range(9)
        ]
        got = [row[4:] for row in decile_summary(x, y)]
        assert np.array_equal(got, want), n  # bit for bit, no tolerance
    for n in range(10):
        rows = decile_summary(np.arange(n), np.arange(n))
        assert [row[:2] for row in rows] == [[i, 0] for i in range(1, 10)]
        assert all(math.isnan(v) for row in rows for v in row[2:])


def test_decile_summary_permutation_invariant():
    rng = np.random.default_rng(37)
    y = rng.integers(0, 50, size=40)  # heavy ties
    x = rng.integers(0, 9, size=40)
    base = decile_summary(x, y)
    perm = rng.permutation(40)
    assert decile_summary(x[perm], y[perm]) == base


def test_decile_summary_small_input():
    bins = decile_summary(np.arange(9), np.arange(9))
    assert all(b[1] == 0 and all(map(math.isnan, b[2:])) for b in bins)
    assert len(bins) == 9


def test_exclusion_policy():
    # towers with fewer detected homes than the threshold are excluded
    x, y = np.array([0, 1, 5, 10]), np.array([1, 2, 3, 4])
    kept = compute_metric_report(x, y, exclusion_threshold=0)
    assert (kept["n_used"], kept["n_excluded"]) == (4, 0)
    cut = compute_metric_report(x, y, exclusion_threshold=2)
    assert (cut["n_used"], cut["n_excluded"]) == (2, 2)
    assert cut["pearson"] == pytest.approx(two_pass_pearson([5, 10], [3, 4]))
    with pytest.raises(ValueError):
        compute_metric_report(x, y, exclusion_threshold=-1)
    with pytest.raises(ValueError, match="different tower sets"):
        compute_metric_report(x, y[:3])


def _report(x, y, **kwargs):
    return compute_metric_report(np.asarray(x, dtype=np.int64), y, **kwargs)


def test_compute_metric_report():
    rng = np.random.default_rng(41)
    y = rng.integers(1, 400, size=30)
    x = y // 3 + rng.integers(0, 10, size=30)
    rep = _report(x, y)
    # the record's other fields are the cell's or the manifest's to state
    assert set(rep) == {"n_used", "n_excluded", "pearson", "pearson_note", "deciles"}
    assert rep["n_used"] == 30 and rep["n_excluded"] == 0
    assert abs(rep["pearson"] - two_pass_pearson(x, y)) < 1e-12
    assert rep["pearson_note"] == ""
    assert rep["deciles"] == decile_summary(x, y)

    # exclusion shrinks the used set and is reported, never silent
    x2 = x.copy()
    x2[:4] = 0
    rep2 = _report(x2, y, exclusion_threshold=1)
    assert rep2["n_excluded"] == 4
    assert rep2["n_used"] == 26
    used = x2 >= 1
    assert abs(rep2["pearson"] - two_pass_pearson(x2[used], y[used])) < 1e-12


def test_compute_metric_report_undefined_pearson():
    y = np.arange(1, 13)
    rep = _report(np.full(12, 3), y)
    assert rep["pearson"] is None
    assert "constant" in rep["pearson_note"]


def test_metric_report_survives_json_round_trip():
    # the report is the cell record's metric fields: written to cells.jsonl
    # and read back, it is the same dict
    rng = np.random.default_rng(43)
    y = rng.integers(1, 400, size=25)
    x = y // 2 + rng.integers(0, 5, size=25)
    rep = _report(x, y, exclusion_threshold=2)
    assert json.loads(json.dumps(rep)) == rep
