"""Synthetic CDR generator with known per-user ground truth.

Every user gets an independent RNG stream keyed by (seed, user id), and all
per-user draws happen in a fixed order whether or not a branch uses them, so:
adding users never perturbs existing traces, and raising the migration
fraction only turns additional users into migrants while every non-migrant's
records stay byte-identical (monotone degradation).

Daily event counts follow a zero-based geometric family with mean equal to
daily_event_rate (rate 6 puts the median at 4 events per day). Night hours
for the generative home bias are 20:00-08:00, deliberately different from
every canonical TC hour interval (19-9, 21-7, 9-19) so no consumer filter
coincides with the truth that produced the data.

Daytime work activity disperses uniformly over a small pool of nearby work
sites whose slot 0 is the home tower itself. The aggregate work share can
therefore exceed the direct home share while the home tower still ends up
the single busiest business-hour tower in the long run: short windows are
noisy for daytime criteria, long windows converge back toward home.

During a user's personal stay away, the destination tower takes over the
home tower's night and day anchor shares, neighbor wandering moves to the
destination's neighborhood, and the work-anchored share of day events
wanders there too: a holidaying user cannot produce events at a work tower
far away, and tourists do not commute. Keeping the destination's anchor
shares symmetric with home means every detection criterion weighs away
evidence against home evidence at the same rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date

import numpy as np

from .core import (
    DatasetSpan, TowerRegistry, _grown, argsort_unique, csv_text, format_blocks,
    find_sorted, read_table, write_atomic,
)
from .hda import BulkAssignments
from .timebase import DEFAULT_TZ, CivilClock
from .windows import ObservationWindow

TRUTH_HEADER = ("user_id", "home_tower", "work_tower", "migration_tower")

NIGHT_START_HOUR = 20
NIGHT_END_HOUR = 8

_TAG_TOWERS = 1
_TAG_USER = 2

# subscribers per block of the generator: their draws are taken one
# subscriber at a time, and all that follows from them in one numpy pass
_SUBSCRIBER_BLOCK = 64

_CLUSTERED_SHARE = 0.7
_CLUSTER_SPREAD = 0.25
_BOX = 10.0
_POP_SIGMA = 1.2


@dataclass(frozen=True)
class MigrationConfig(DatasetSpan):
    """A seasonal relocation shock: the range of days it spans, who leaves,
    and where to.

    Each migrant draws a personal stay of min_stay_days..n_days days
    starting at a random offset inside the range, so stays are staggered the
    way real holidays are: some users are away long enough that even a
    full-span window misplaces them, others recover.
    """

    fraction: float
    touristic_towers: tuple[int, ...]
    min_stay_days: int = 28

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"migration fraction {self.fraction} outside [0, 1]")
        if self.fraction > 0 and not self.touristic_towers:
            raise ValueError("migration with no touristic destination towers")
        if len(set(self.touristic_towers)) != len(self.touristic_towers):
            raise ValueError("duplicate touristic tower ids")
        if not 1 <= self.min_stay_days <= self.n_days:
            raise ValueError(
                f"min_stay_days {self.min_stay_days} outside "
                f"1..{self.n_days} (range length)"
            )


@dataclass(frozen=True)
class SynthConfig:
    """Full parameterization of one synthetic dataset."""

    seed: int
    n_towers: int
    n_population: int
    span: DatasetSpan
    market_share: float = 0.28
    daily_event_rate: float = 6.0
    home_call_share_night: float = 0.85
    work_call_share_day: float = 0.6
    home_call_share_day: float = 0.3
    work_pool_size: int = 6
    neighbor_pool_size: int = 8
    migration: MigrationConfig | None = None
    tz_name: str = DEFAULT_TZ

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_towers < 1:
            raise ValueError("need at least one tower")
        if self.n_population < 0:
            raise ValueError("population must be non-negative")
        if not 0.0 < self.market_share <= 1.0:
            raise ValueError(f"market share {self.market_share} outside (0, 1]")
        if self.daily_event_rate <= 0:
            raise ValueError("daily event rate must be positive")
        for name in ("home_call_share_night", "work_call_share_day",
                     "home_call_share_day"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.work_call_share_day + self.home_call_share_day > 1.0:
            raise ValueError("day shares (work + home) exceed 1")
        if self.work_pool_size < 0 or self.neighbor_pool_size < 0:
            raise ValueError("pool sizes must be non-negative")

    @property
    def n_subscribers(self) -> int:
        # floor of the product; epsilon guards float artifacts like 0.29*100
        return int(math.floor(self.market_share * self.n_population + 1e-9))

    def echo(self) -> dict:
        """All fields flattened to strings, defaults included, for manifests."""
        out: dict[str, str] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "span":
                out["span"] = str(v)
            elif f.name == "migration":
                if v is None:
                    out["migration"] = "none"
                else:
                    out["migration_range"] = str(v)
                    out["migration_fraction"] = repr(v.fraction)
                    out["min_stay_days"] = str(v.min_stay_days)
                    out["touristic_towers"] = ",".join(
                        str(t) for t in v.touristic_towers
                    )
            elif isinstance(v, float):
                out[f.name] = repr(v)
            else:
                out[f.name] = str(v)
        out["n_subscribers"] = str(self.n_subscribers)
        out["night_hours"] = f"{NIGHT_START_HOUR}..{NIGHT_END_HOUR}"
        out["event_count_family"] = "geometric_zero_based"
        return out


@dataclass
class GroundTruthTable:
    """Per-user truth: home, work, and migration destination (-1 = stays)."""

    user_ids: np.ndarray  # uint64, sorted unique
    home_towers: np.ndarray  # int64
    work_towers: np.ndarray  # int64
    migration_towers: np.ndarray  # int64, -1 for non-migrants

    def __post_init__(self):
        order = argsort_unique(self.user_ids, "duplicate user_id {} in ground truth")
        self.user_ids = self.user_ids[order]
        self.home_towers = self.home_towers[order]
        self.work_towers = self.work_towers[order]
        self.migration_towers = self.migration_towers[order]

    def __len__(self) -> int:
        return len(self.user_ids)

    @property
    def is_migrant(self) -> np.ndarray:
        return self.migration_towers >= 0

    def rows_for_users(self, user_ids: np.ndarray) -> np.ndarray:
        """Truth row per user id; any user missing from the table is fatal."""
        uids = np.asarray(user_ids, dtype=np.uint64)
        return find_sorted(self.user_ids, uids, "user {} has no ground-truth row")

    def write_csv(self, path) -> None:
        """numpy formats the rows (see core.format_blocks); a non-migrant's
        migration_tower is an empty field."""
        columns = [self.user_ids, self.home_towers, self.work_towers,
                   self.migration_towers]
        write_atomic(path, format_blocks(TRUTH_HEADER, columns, blank=(3,)))

    @classmethod
    def read_csv(cls, path) -> "GroundTruthTable":
        return cls(*read_table(
            path, TRUTH_HEADER, (np.uint64, np.int64, np.int64, np.int64),
            blank=("migration_tower",),
        ))


@dataclass
class SynthResult:
    """A generated dataset: registry, truth, and time-sorted record columns."""

    config: SynthConfig
    registry: TowerRegistry
    truth: GroundTruthTable
    users: np.ndarray  # uint64
    towers: np.ndarray  # int64
    timestamps: np.ndarray  # int64

    @property
    def n_records(self) -> int:
        return len(self.users)


def build_registry(seed: int, n_towers: int, n_population: int) -> TowerRegistry:
    """Tower layout and population, reproducible from the three arguments.

    70% of towers scatter around a handful of cluster centers (urban), the
    rest spread uniformly; population is a multinomial over heavy-tailed
    lognormal weights so totals are exact.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_TOWERS]))
    ids = np.arange(1, n_towers + 1, dtype=np.int64)
    n_clustered = int(round(_CLUSTERED_SHARE * n_towers))
    n_centers = max(1, n_towers // 25)
    centers = rng.uniform(0.0, _BOX, size=(n_centers, 2))
    assign = rng.integers(0, n_centers, size=n_clustered)
    clustered = centers[assign] + rng.normal(0.0, _CLUSTER_SPREAD, size=(n_clustered, 2))
    scattered = rng.uniform(0.0, _BOX, size=(n_towers - n_clustered, 2))
    pos = np.vstack([clustered, scattered])
    weights = rng.lognormal(mean=0.0, sigma=_POP_SIGMA, size=n_towers)
    population = rng.multinomial(n_population, weights / weights.sum())
    return TowerRegistry(ids, pos[:, 0], pos[:, 1], population)


def pick_touristic_towers(registry: TowerRegistry, k: int) -> tuple[int, ...]:
    """The k least-populated towers (ties by id): plausible holiday spots."""
    if not 1 <= k <= len(registry):
        raise ValueError(f"cannot pick {k} touristic towers from {len(registry)}")
    order = np.lexsort((registry.tower_ids, registry.population))
    return tuple(int(t) for t in registry.tower_ids[order[:k]])


def _nearest_pools(lon: np.ndarray, lat: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k nearest other towers per tower, ties by index:
    a stable argsort's first k, but only the towers no farther than a row's
    k-th distance (np.partition) are ordered."""
    n = len(lon)
    k = min(k, n - 1)
    if k <= 0:
        return np.zeros((n, 0), dtype=np.int64)
    pts = np.stack([lon, lat], axis=1)
    pools = np.empty((n, k), dtype=np.int64)
    chunk = 512
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        d2 = ((pts[i0:i1, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        d2[np.arange(i1 - i0), np.arange(i0, i1)] = np.inf  # exclude self
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        rows, cols = np.nonzero(d2 <= kth)  # by row, each row by index
        order = np.lexsort((d2[rows, cols], rows))  # stable: ties by index
        starts = np.searchsorted(rows, np.arange(i1 - i0))
        pools[i0:i1] = cols[order][starts[:, None] + np.arange(k)]
    return pools


# numpy's SeedSequence (a pool of four uint32 words) and PCG64 seeding
# constants; _stream_states hashes a block of subscriber seeds with them
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
_U32, _U128 = (1 << 32) - 1, (1 << 128) - 1


def _stream_states(seed: int, uids: np.ndarray) -> list[dict]:
    """The PCG64 state of np.random.default_rng(np.random.SeedSequence(
    [seed, _TAG_USER, uid])) for each uid below 2**32, in order.

    The seed sequence hashes the same words in the same order for every
    uid, so a block of them is hashed in uint32 arithmetic, one numpy
    operation per step for the whole block: about 6 us per subscriber with
    the state set, where building a Generator per subscriber took 18-25 us,
    more than its own draws.
    """
    if len(uids) and int(uids.max()) > _U32:
        raise ValueError("subscriber ids must be below 2**32")
    words = []  # SeedSequence's entropy: each int as 32-bit words, low first
    for n in (seed, _TAG_USER):
        words.append(n & _U32)
        while n > _U32:
            n >>= 32
            words.append(n & _U32)
    entropy = [np.full(len(uids), w, dtype=np.uint32) for w in words]
    entropy.append(uids.astype(np.uint32))
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_A & _U32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ result >> np.uint32(16)

    zeros = np.zeros(len(uids), dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    # generate_state(4, np.uint64): eight words, read as little-endian pairs
    hash_const = _HASH_INIT_B
    state = np.empty((len(uids), 8), dtype="<u4")
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_B & _U32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ value >> np.uint32(16)
    out = []
    for s_hi, s_lo, i_hi, i_lo in state.view("<u8").tolist():
        # PCG64's seeding: inc from the second pair, then two steps
        inc = (i_hi << 65 | i_lo << 1 | 1) & _U128
        pcg = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _U128
        out.append({"bit_generator": "PCG64", "state": {"state": pcg, "inc": inc},
                    "has_uint32": 0, "uinteger": 0})
    return out


def generate(config: SynthConfig) -> SynthResult:
    """Produce one deterministic synthetic dataset from a config.

    Each subscriber draws from its own stream, seeded by (seed,
    _TAG_USER, user id), in a fixed order: six uniforms (home, work,
    migration, destination, stay length, stay offset), one geometric event
    count per day, then three uniforms per event (second of the day,
    branch, pick). Only these draws run per subscriber, on one Generator
    whose state is set to each stream's in turn (see _stream_states);
    everything that follows from them runs as one numpy pass over a block
    of _SUBSCRIBER_BLOCK subscribers, writing into record columns sized for
    the expected count. The records come out ordered by (timestamp, user,
    tower).
    """
    clock = CivilClock(config.tz_name)
    registry = build_registry(config.seed, config.n_towers, config.n_population)
    n_subs = config.n_subscribers

    pop = registry.population.astype(np.float64)
    n_days = config.span.n_days
    first = (config.span.first_day - date(1970, 1, 1)).days
    boundaries = clock.epochs_from_local((first + np.arange(n_days + 1)) * 86400)
    midnights = boundaries[:-1]
    day_len = np.diff(boundaries)  # DST days differ

    home_cdf = np.cumsum(pop / pop.sum()) if pop.sum() > 0 else np.ones(len(pop))
    # work pool slot 0 is the home tower itself: dispersing day activity over
    # the pool hands home an extra 1/pool_size of the work share, keeping it
    # the long-run modal business-hour tower
    self_col = np.arange(len(registry), dtype=np.int64)[:, None]
    # one sort serves both pools: it is stable, so the k nearest are its first k
    n_near = max(config.work_pool_size - 1, 0)
    near = _nearest_pools(
        registry.lon, registry.lat, max(n_near, config.neighbor_pool_size)
    )
    work_pools = np.concatenate([self_col, near[:, :n_near]], axis=1)
    work_k = work_pools.shape[1]
    nb_pools = near[:, :config.neighbor_pool_size]
    if not nb_pools.shape[1]:
        nb_pools = self_col
    nb_k = nb_pools.shape[1]
    # a pool entry is read as flat[row * k + col]: np.take of a flat table
    # is about 2.5 times as fast as a 2-D fancy index
    work_flat = work_pools.ravel()
    nb_flat = np.ascontiguousarray(nb_pools).ravel()

    mig = config.migration
    if mig is not None and mig.fraction > 0:
        if not (config.span.contains(mig.first_day)
                and config.span.contains(mig.last_day)):
            raise ValueError(f"migration range {mig} not inside span {config.span}")
        tour_rows = registry.rows_for(np.asarray(mig.touristic_towers, dtype=np.int64))
        mig_start_idx = (mig.first_day - config.span.first_day).days
        mig_stay_spread = mig.n_days - mig.min_stay_days + 1
    else:
        mig = None

    p_event = 1.0 / (1.0 + config.daily_event_rate)
    day_cut = config.work_call_share_day + config.home_call_share_day
    day_index = np.arange(n_days)

    # the counts are geometric, so the total lies within a few hundredths of
    # its mean; the margin makes growing the columns all but never happen
    expected = n_subs * n_days * config.daily_event_rate
    columns = [np.empty(int(expected * 1.02) + 1024, dtype=dtype)
               for dtype in (np.uint64, np.int64, np.int64)]
    n = 0
    t_home = np.empty(n_subs, dtype=np.int64)
    t_work = np.empty(n_subs, dtype=np.int64)
    t_mig = np.full(n_subs, -1, dtype=np.int64)

    rng = np.random.Generator(np.random.PCG64(0))  # each subscriber sets its state
    for b0 in range(0, n_subs, _SUBSCRIBER_BLOCK):
        uids = np.arange(b0 + 1, min(b0 + _SUBSCRIBER_BLOCK, n_subs) + 1)
        m = len(uids)
        scalars = np.empty((m, 6))
        counts = np.empty((m, n_days), dtype=np.int64)
        draws = []
        for j, state in enumerate(_stream_states(config.seed, uids)):
            rng.bit_generator.state = state
            scalars[j] = rng.random(6)
            counts[j] = rng.geometric(p_event, size=n_days)
            total = int(counts[j].sum()) - n_days  # each count is 1 + events
            draws.append(rng.random(3 * total).reshape(3, total))
        counts -= 1
        u_home, u_work, u_mig, u_dest, u_stay_len, u_stay_off = scalars.T
        secs, branch, pick = np.concatenate(draws, axis=1)

        home_row = np.minimum(
            np.searchsorted(home_cdf, u_home, side="right"), len(pop) - 1
        )
        work_row = np.take(
            work_flat, home_row * work_k + (u_work * work_k).astype(np.int64)
        )
        t_home[b0:b0 + m] = registry.tower_ids[home_row]
        t_work[b0:b0 + m] = registry.tower_ids[work_row]

        totals = counts.sum(axis=1)
        k = int(totals.sum())
        if n + k > len(columns[0]):
            columns = [_grown(c[:n], 2 * (n + k)) for c in columns]
        users, towers, stamps = (c[n:n + k] for c in columns)
        n += k

        # per record: its subscriber in the block and its day of the span
        sub = np.repeat(np.arange(m), totals)
        users[:] = uids[sub]
        d_idx = np.repeat(np.tile(day_index, m), counts.ravel())
        offs = (secs * day_len[d_idx]).astype(np.int64)
        np.add(midnights[d_idx], offs, out=stamps)
        hour = offs // 3600
        night = (hour >= NIGHT_START_HOUR) | (hour < NIGHT_END_HOUR)

        base_home = home = home_row[sub]
        away = np.zeros(k, dtype=bool)
        if mig is not None and (migrant := u_mig < mig.fraction).any():
            dest_row = tour_rows[(u_dest * len(tour_rows)).astype(np.int64)]
            t_mig[b0:b0 + m][migrant] = registry.tower_ids[dest_row[migrant]]
            stay = mig.min_stay_days + (u_stay_len * mig_stay_spread).astype(np.int64)
            a0 = mig_start_idx + (u_stay_off * (mig.n_days - stay + 1)).astype(np.int64)
            a0[~migrant] = stay[~migrant] = 0  # away on no day
            away = (d_idx >= a0[sub]) & (d_idx < (a0 + stay)[sub])
            base_home = np.where(away, dest_row[sub], home)
        wander = np.take(
            nb_flat, base_home * nb_k + (pick * nb_k).astype(np.int64)
        )
        # Business-hour activity disperses over the whole work pool (slot 0
        # of which is the home tower), so no single work site outweighs the
        # home tower once enough days accumulate. Tourists neither commute
        # nor disperse: away-day work-share events stay at the destination,
        # which makes a long stay flip daytime criteria sooner than night
        # ones.
        work_scatter = np.take(
            work_flat, home * work_k + (pick * work_k).astype(np.int64)
        )
        day_work_rows = np.where(away, base_home, work_scatter)
        day_rows = np.where(
            branch < config.work_call_share_day,
            day_work_rows,
            np.where(branch < day_cut, base_home, wander),
        )
        night_rows = np.where(
            branch < config.home_call_share_night, base_home, wander
        )
        rows = np.where(night, night_rows, day_rows)
        np.take(registry.tower_ids, rows, out=towers)

    users, towers, stamps = (c[:n] for c in columns)
    del columns
    order = _time_order(users, towers, stamps)
    truth = GroundTruthTable(
        user_ids=np.arange(1, n_subs + 1, dtype=np.uint64),
        home_towers=t_home,
        work_towers=t_work,
        migration_towers=t_mig,
    )
    # each column is gathered in turn, so its unsorted buffer is freed
    # before the next one is gathered
    users = users[order]
    towers = towers[order]
    stamps = stamps[order]
    return SynthResult(
        config=config,
        registry=registry,
        truth=truth,
        users=users,
        towers=towers,
        timestamps=stamps,
    )


def _time_order(users, towers, stamps) -> np.ndarray:
    """The permutation that sorts the records by (timestamp, user, tower).

    One sort by timestamp, then a lexsort of only the records that share
    their timestamp with another. Records equal on all three keys are the
    same record, so the order of the columns is that of a full lexsort.
    """
    order = np.argsort(stamps)
    sorted_stamps = stamps[order]
    tied = np.zeros(len(order), dtype=bool)
    same = sorted_stamps[1:] == sorted_stamps[:-1]
    tied[1:] |= same
    tied[:-1] |= same
    del sorted_stamps, same
    at = order[tied]
    order[tied] = at[np.lexsort((towers[at], users[at], stamps[at]))]
    return order


def accuracy_csv(rows) -> str:
    """Accuracy table text: a header, then one line per
    (hda, window, group, n_users, n_correct) row, in order."""
    return csv_text("hda,window,group,n_users,n_correct,accuracy", (
        f"{hda},{window},{group},{n_users},{n_correct},"
        + (repr(n_correct / n_users) if n_users else "")
        for hda, window, group, n_users, n_correct in rows
    ))


def score_against_truth(
    assignments_by_hda: dict[str, BulkAssignments],
    truth: GroundTruthTable,
    window: ObservationWindow,
    migration: DatasetSpan | None = None,
) -> list[tuple]:
    """How many users' detected home matches the true home: one
    (hda, window, group, n_users, n_correct) row per HDA and group (all,
    migrant, non_migrant), in that order.

    Each HDA maps to its cell's assignments. Truth is the pre-migration
    home. Users count as migrants only when they have a destination AND the
    window overlaps the migration range (which the truth table alone cannot
    date, hence the explicit argument: a MigrationConfig, or the bare
    DatasetSpan of its days). An unassigned user is simply wrong (never
    dropped from the denominator), even against a truth home of -1.
    """
    overlap = migration is not None and window.overlaps(migration)
    rows = []
    for hda_name, bulk in assignments_by_hda.items():
        homes = bulk.home_towers
        tr = truth.rows_for_users(bulk.user_ids)
        correct = (homes >= 0) & (homes == truth.home_towers[tr])
        migrant = truth.is_migrant[tr] & overlap
        for group, mask in (
            ("all", np.ones(len(homes), dtype=bool)),
            ("migrant", migrant),
            ("non_migrant", ~migrant),
        ):
            rows.append((
                hda_name, window.label, group,
                int(mask.sum()), int((correct & mask).sum()),
            ))
    return rows


def summer_scenario(
    seed: int,
    *,
    n_towers: int = 60,
    n_population: int = 10000,
    span: DatasetSpan | None = None,
    migration_range: tuple[date, date] = (date(2007, 6, 1), date(2007, 9, 30)),
    migration_fraction: float = 0.3,
    min_stay_days: int = 30,
    n_touristic: int = 6,
    daily_event_rate: float = 1.2,
    **overrides,
) -> SynthConfig:
    """Canonical demonstration config: a summer relocation shock mid-span.

    Personal stays range from one month up to the whole four-month range, so
    the away period dominates some migrants' records but not others: short
    windows inside the range are badly distorted, while the full span
    recovers only part of the cohort (mitigation, not immunity).

    Touristic destinations are the least-populated towers of the registry
    this exact config will produce (the registry depends only on seed,
    n_towers and n_population, so it can be built ahead of the full config).
    """
    span = span or DatasetSpan(date(2007, 5, 13), date(2007, 10, 13))
    registry = build_registry(seed, n_towers, n_population)
    touristic = pick_touristic_towers(registry, n_touristic)
    migration = MigrationConfig(
        first_day=migration_range[0],
        last_day=migration_range[1],
        fraction=migration_fraction,
        touristic_towers=touristic,
        min_stay_days=min_stay_days,
    )
    return SynthConfig(
        seed=seed,
        n_towers=n_towers,
        n_population=n_population,
        span=span,
        daily_event_rate=daily_event_rate,
        migration=migration,
        **overrides,
    )
