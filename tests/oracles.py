"""Independent reference implementations the package must agree with.

Everything here is deliberately naive: per-record Python loops, dict
counters, numpy's general-purpose sorts, stdlib zoneinfo for civil time,
math.fsum for exact two-pass moments. No import from the package's engine
modules, so an engine bug cannot hide in its own oracle.
"""

from __future__ import annotations

import math
from collections import defaultdict
from datetime import datetime
from zoneinfo import ZoneInfo

import numpy as np

TZ_NAME = "Europe/Paris"


def partition_of(user_id: int, n_partitions: int) -> int:
    """The partition a user id lands in: the splitmix64 finalizer of the id,
    in Python integers, modulo the partition count."""
    mask = 2**64 - 1
    z = (user_id + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) % n_partitions


def local_fields(ts: int, tz_name: str = TZ_NAME):
    """(civil date, hour, weekday Mon=0) of an epoch second."""
    dt = datetime.fromtimestamp(int(ts), tz=ZoneInfo(tz_name))
    return dt.date(), dt.hour, dt.weekday()


def records_by_user(users, towers, timestamps):
    """{user id: (towers, timestamps)} of raw record columns, input order."""
    records = {}
    for uid, tower, ts in zip(users.tolist(), towers.tolist(), timestamps.tolist()):
        tw, st = records.setdefault(uid, ([], []))
        tw.append(tower)
        st.append(ts)
    return records


def reference_index(users, towers, timestamps, day_ords, week_hours) -> dict:
    """The detection index columns of one partition's records, built the
    slow, obvious way: np.unique ranks, one np.lexsort over (timestamp,
    tower, user, civil day) and per-record Python loops. Keys and dtypes
    are those of UserPartition's array fields.
    """
    users = np.asarray(users, dtype=np.uint64)
    day_ords = np.asarray(day_ords, dtype=np.int32)
    user_ids, user_ranks = np.unique(users, return_inverse=True)
    tower_ids, tower_ranks = np.unique(towers, return_inverse=True)
    order = np.lexsort((timestamps, tower_ranks, user_ranks, day_ords))
    pairs = sorted(set(zip(user_ranks.tolist(), tower_ranks.tolist())))
    pair_of = {pair: i for i, pair in enumerate(pairs)}
    record_pairs = [
        pair_of[pair]
        for pair in zip(user_ranks[order].tolist(), tower_ranks[order].tolist())
    ]
    days = day_ords[order].tolist()
    day_first = [
        i == 0 or (days[i], record_pairs[i]) != (days[i - 1], record_pairs[i - 1])
        for i in range(len(days))
    ]
    index_days = sorted(set(days))
    day_starts = [days.index(d) for d in index_days] + [len(days)]
    return {
        "user_ids": user_ids.astype(np.uint64),
        "pair_users": np.array([u for u, _ in pairs], dtype=np.int64),
        "pair_towers": np.array([int(tower_ids[t]) for _, t in pairs], dtype=np.int64),
        "index_days": np.array(index_days, dtype=np.int32),
        "index_day_starts": np.array(day_starts, dtype=np.int64),
        "index_pairs": np.array(record_pairs, dtype=np.int32),
        "index_timestamps": np.asarray(timestamps, dtype=np.int64)[order],
        "index_week_hours": np.asarray(week_hours, dtype=np.uint8)[order],
        "index_day_first": np.array(day_first, dtype=bool),
    }


def user_fields(timestamps, tz_name: str = TZ_NAME):
    """Precomputed local fields for one user's timestamps, in order."""
    tz = ZoneInfo(tz_name)
    out = []
    for ts in timestamps:
        dt = datetime.fromtimestamp(int(ts), tz=tz)
        out.append((dt.date(), dt.hour, dt.weekday()))
    return out


def event_qualifies(spec, hour: int, weekday: int) -> bool:
    """Whether an event at (hour, weekday) counts under the given HDA spec."""
    if spec.criterion != "TC":
        return True
    if spec.tc_start_hour is not None:
        s, e = spec.tc_start_hour, spec.tc_end_hour
        inside = (s <= hour < e) if s < e else (hour >= s or hour < e)
        if not inside:
            return False
    if spec.day_filter == "weekend_only" and weekday < 5:
        return False
    if spec.day_filter == "weekday_only" and weekday >= 5:
        return False
    return True


def brute_force_home(
    spec,
    towers,
    timestamps,
    fields,
    first_day,
    last_day,
    min_qualifying: int = 1,
):
    """(home_tower | None, qualifying_count, tie_broken) for one user.

    fields must be user_fields(timestamps). Counting rule: MA counts
    qualifying events, DD counts distinct civil days with a qualifying
    event, TC counts events passing the hour/day filter. Winner is the
    max count, ties broken by earliest first qualifying timestamp, then
    by smaller tower id; tie_broken reports whether the top count was
    shared at all.
    """
    counts: dict[int, int] = defaultdict(int)
    days: dict[int, set] = defaultdict(set)
    first_ts: dict[int, int] = {}
    for t, ts, (d, hour, wd) in zip(towers, timestamps, fields):
        if not (first_day <= d <= last_day):
            continue
        if not event_qualifies(spec, hour, wd):
            continue
        t = int(t)
        ts = int(ts)
        if t not in first_ts or ts < first_ts[t]:
            first_ts[t] = ts
        counts[t] += 1
        days[t].add(d)
    if spec.criterion == "DD":
        counts = {t: len(s) for t, s in days.items()}
    if not counts:
        return None, 0, False
    best = max(counts.values())
    contenders = [t for t, c in counts.items() if c == best]
    winner = min(contenders, key=lambda t: (first_ts[t], t))
    if best < min_qualifying:
        return None, best, False
    return winner, best, len(contenders) > 1


def two_pass_pearson(x, y) -> float:
    """Classic mean-first Pearson with exact fsum accumulation."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need two equal-length vectors of >= 2 points")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((a - mx) ** 2 for a in xs)
    syy = math.fsum((b - my) ** 2 for b in ys)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("constant input")
    return sxy / math.sqrt(sxx) / math.sqrt(syy)


def decile_bins(x, y):
    """[(n, y_lo, y_hi, mean_x, std_x)] over ascending-y deciles 1..9."""
    n = len(x)
    if n < 10:
        return None
    order = sorted(range(n), key=lambda i: (y[i], x[i]))
    xs = [float(x[i]) for i in order]
    ys = [float(y[i]) for i in order]
    out = []
    for i in range(9):
        lo = i * n // 10
        hi = (i + 1) * n // 10
        seg = xs[lo:hi]
        m = math.fsum(seg) / len(seg)
        var = math.fsum((v - m) ** 2 for v in seg) / len(seg)
        out.append((hi - lo, ys[lo], ys[hi - 1], m, math.sqrt(var)))
    return out


def reference_records(path, registry_ids, tz_name: str = TZ_NAME):
    """Per-line reference for the records-file reader, in file order.

    The line loop is the reader as it was before block parsing, reading
    UTF-8 with undecodable bytes escaped; line 1 is the header if it starts
    with user_id, and every other line counts. Returns (counts, users, towers,
    timestamps): counts holds header_line, total_lines, rejected_malformed,
    rejected_unknown_tower and sample_rejects; the columns hold the records
    on known towers, for partitioning and the span filter.
    """
    tz = ZoneInfo(tz_name)
    known = set(int(t) for t in registry_ids)
    counts = {"header_line": False, "total_lines": 0, "rejected_malformed": 0,
              "rejected_unknown_tower": 0, "sample_rejects": []}
    samples = counts["sample_rejects"]

    def note_reject(line: str, reason: str) -> None:
        if len(samples) < 5:
            samples.append(f"{reason}: {line[:80]}")

    records = []
    with open(path, newline="", encoding="utf-8", errors="backslashreplace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1 and raw.startswith("user_id"):
                counts["header_line"] = True
                continue
            line = raw.strip()
            counts["total_lines"] += 1
            fields = line.split(",")
            if len(fields) != 3:
                counts["rejected_malformed"] += 1
                note_reject(line, "malformed")
                continue
            try:
                uid = int(fields[0])
                tid = int(fields[1])
                if not (0 <= uid <= 2**64 - 1) or not (-(2**63) <= tid <= 2**63 - 1):
                    raise ValueError("id out of range")
                try:
                    ts = int(fields[2])
                except ValueError:
                    naive = datetime.strptime(fields[2].strip(), "%Y-%m-%dT%H:%M:%S")
                    ts = int(naive.replace(tzinfo=tz).timestamp())
                if not (-(2**63) <= ts <= 2**63 - 1):
                    raise ValueError("timestamp out of range")
            except ValueError:
                counts["rejected_malformed"] += 1
                note_reject(line, "malformed")
                continue
            records.append((uid, tid, ts))

    unknown = [tid for _, tid, _ in records if tid not in known]
    counts["rejected_unknown_tower"] = len(unknown)
    for tid in unknown[:5]:
        note_reject(f"tower_id={tid}", "unknown_tower")
    kept = [r for r in records if r[1] in known]
    return (counts, [r[0] for r in kept], [r[1] for r in kept], [r[2] for r in kept])
