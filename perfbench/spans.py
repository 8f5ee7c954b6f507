"""Span recording around calls into the package, and the arithmetic on spans.

A Tracer wraps a function so that each call records one span: a name, start
and end (time.perf_counter, which is CLOCK_MONOTONIC on Linux and so
comparable across processes), the span that was open when the call began,
the process id, and a cell id "hda|window" when the call's arguments name
one (otherwise the enclosing span's). Spans stay in memory and are written
out by flush().

Forked worker processes inherit the open-span stack, so their spans point
at the parent's run_sweep span. Each worker starts an empty span list and
writes it from a multiprocessing finalizer when the worker exits normally.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    sid: str
    name: str
    t0: float
    t1: float
    parent: str | None
    pid: int
    cell: str | None = None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans in memory; flush() writes this process's spans as JSON lines."""

    def __init__(self, out_dir=None):
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.spans: list[Span] = []
        self._stack: list[tuple[str, str | None]] = []  # (span id, cell)
        self._pid = os.getpid()
        self._count = 0

    def _start_child(self) -> None:
        # First traced call in a forked worker: drop the parent's spans and
        # write this process's own when it exits. multiprocessing clears its
        # finalizer registry when a worker starts and runs the registered
        # finalizers when the worker's bootstrap returns, so registering here,
        # inside the worker's run, is early enough and not cleared.
        from multiprocessing import util

        self.spans = []
        self._pid = os.getpid()
        self._count = 0
        if self.out_dir is not None:
            util.Finalize(None, self.flush, exitpriority=10)

    def wrap(self, name: str, fn, cell_of=None, attrs_of=None):
        """fn wrapped so that each call records a span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                self._start_child()
            self._count += 1
            sid = f"{self._pid}:{self._count}"
            parent, parent_cell = self._stack[-1] if self._stack else (None, None)
            cell = cell_of(*args, **kwargs) if cell_of else parent_cell
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            self._stack.append((sid, cell))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, t0, t1, parent, self._pid, cell, attrs))

        return traced

    @contextlib.contextmanager
    def rebound(self, targets):
        """Rebind (owner, attribute, span name, cell_of, attrs_of) for the block."""
        saved = []
        try:
            for owner, attr, name, cell_of, attrs_of in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, cell_of, attrs_of))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def flush(self) -> None:
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def read_spans(spans_dir) -> list[Span]:
    out: list[Span] = []
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            out.extend(Span(**json.loads(line)) for line in fh if line.strip())
    return out


def children_of(spans: list[Span]) -> dict[str, list[Span]]:
    kids: dict[str, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_time(span: Span, kids: dict[str, list[Span]]) -> float:
    """Span duration minus the part its same-process children cover."""
    covered = 0.0
    end = span.t0
    for c in sorted((k for k in kids.get(span.sid, []) if k.pid == span.pid),
                    key=lambda k: k.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            covered += hi - lo
            end = hi
    return span.duration - covered


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans whose parent is missing or does not contain them."""
    by_id = {s.sid: s for s in spans}
    errors = []
    for s in spans:
        if s.t1 < s.t0:
            errors.append(f"{s.sid} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"{s.sid} {s.name}: parent {s.parent} not recorded")
        elif not (p.t0 <= s.t0 and s.t1 <= p.t1):
            errors.append(f"{s.sid} {s.name} lies outside parent {p.sid} {p.name}")
    return errors
