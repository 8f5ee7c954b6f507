"""Shared builders for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cdrhomes.core import TowerRegistry, partition_records
from cdrhomes.timebase import CivilClock


def make_registry(n_towers: int, rng=None, populations=None) -> TowerRegistry:
    """Registry with ids 100, 101, ... and random or given populations."""
    ids = np.arange(100, 100 + n_towers, dtype=np.int64)
    if populations is None:
        rng = rng or np.random.default_rng(0)
        populations = rng.integers(0, 500, size=n_towers)
    grid = np.arange(n_towers, dtype=np.float64)
    return TowerRegistry(
        tower_ids=ids,
        lon=grid * 0.01,
        lat=grid * 0.02,
        population=np.asarray(populations, dtype=np.int64),
    )


def random_records(rng, n_users, tower_ids, t0: int, t1: int, mean_events=40):
    """Raw (users, towers, timestamps) arrays, unsorted, uniform in [t0, t1)."""
    users, towers, stamps = [], [], []
    for uid in range(1, n_users + 1):
        n = int(rng.poisson(mean_events))
        users.append(np.full(n, uid, dtype=np.uint64))
        towers.append(rng.choice(tower_ids, size=n))
        stamps.append(rng.integers(t0, t1, size=n, dtype=np.int64))
    return (
        np.concatenate(users),
        np.concatenate(towers).astype(np.int64),
        np.concatenate(stamps),
    )


def one_partition(users, towers, stamps, clock=None, n_partitions=1):
    parts, _ = partition_records(
        users, towers, stamps, clock=clock or CivilClock(),
        n_partitions=n_partitions,
    )
    return parts


def array_fields(part) -> dict:
    """{field name: array} of a UserPartition's array fields."""
    return {
        f.name: getattr(part, f.name)
        for f in dataclasses.fields(part)
        if isinstance(getattr(part, f.name), np.ndarray)
    }


def assert_same_partitions(got, want):
    """Equal partition lists: every array field equal, dtype included."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g_arrays, w_arrays = array_fields(g), array_fields(w)
        assert g_arrays.keys() == w_arrays.keys()
        for name, arr in w_arrays.items():
            assert g_arrays[name].dtype == arr.dtype, name
            assert np.array_equal(g_arrays[name], arr), name


@pytest.fixture(scope="session")
def clock() -> CivilClock:
    return CivilClock()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from acceptance_log import LINES

    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
