"""Hierarchical spans: wall/cpu-timed context managers over the
default registry.

``with span("farm.job", engine="native"):`` records the block's wall
and CPU time into the ``ecl_span_seconds`` / ``ecl_span_cpu_seconds``
histograms (labelled by span name plus the given tags) and, when a
trace log is installed, appends one :class:`SpanRecord` to a bounded
ring buffer.  Spans nest per thread: each record knows its depth, its
parent's name, and its *self* wall time (own wall minus direct
children's wall), which is what the ``--profile`` breakdown
aggregates.  A span's CPU time is its own thread's
(``time.thread_time``), children included: work other threads do
meanwhile, such as sibling modules of a threaded build, is not
counted.

Like the rest of :mod:`repro.telemetry`, spans are zero-cost when
telemetry is disabled: :func:`span` returns a shared null context
manager and no clock is read.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter, thread_time
from typing import List, Optional

from .registry import histogram, is_enabled

__all__ = [
    "SpanRecord",
    "TraceLog",
    "span",
    "install_trace",
    "uninstall_trace",
    "trace_log",
    "profile_rows",
    "format_profile",
]

#: Histogram families every span feeds (tagged span=<name> + tags).
SPAN_WALL_METRIC = "ecl_span_seconds"
SPAN_CPU_METRIC = "ecl_span_cpu_seconds"

#: Default ring-buffer capacity (old records drop first).
DEFAULT_TRACE_CAPACITY = 4096


class SpanRecord:
    """One finished span, as the trace log keeps it."""

    __slots__ = ("name", "tags", "depth", "parent", "wall", "cpu",
                 "self_wall")

    def __init__(self, name, tags, depth, parent, wall, cpu, self_wall):
        self.name = name
        self.tags = tags
        self.depth = depth
        self.parent = parent
        self.wall = wall
        self.cpu = cpu
        self.self_wall = self_wall

    def as_dict(self):
        return {
            "name": self.name,
            "tags": dict(self.tags),
            "depth": self.depth,
            "parent": self.parent,
            "wall": self.wall,
            "cpu": self.cpu,
            "self_wall": self.self_wall,
        }


class TraceLog:
    """Bounded, thread-safe ring buffer of finished spans."""

    def __init__(self, capacity=DEFAULT_TRACE_CAPACITY):
        self._records = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()

    def record(self, record):
        with self._lock:
            self._records.append(record)

    def entries(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def clear(self):
        with self._lock:
            self._records.clear()

    def __len__(self):
        with self._lock:
            return len(self._records)


_TRACE: Optional[TraceLog] = None
_STACK = threading.local()


def install_trace(capacity=DEFAULT_TRACE_CAPACITY) -> TraceLog:
    """Install (and return) a fresh process-global trace ring buffer."""
    global _TRACE
    _TRACE = TraceLog(capacity)
    return _TRACE


def uninstall_trace():
    global _TRACE
    _TRACE = None


def trace_log() -> Optional[TraceLog]:
    return _TRACE


class _NullSpan:
    """Shared no-op context manager (telemetry disabled)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "tags", "_wall0", "_cpu0", "child_wall")

    def __init__(self, name, tags):
        self.name = name
        self.tags = tags
        self.child_wall = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self):
        stack = _stack()
        stack.append(self)
        self._wall0 = perf_counter()
        self._cpu0 = thread_time()
        return self

    def __exit__(self, *exc):
        wall = perf_counter() - self._wall0
        cpu = thread_time() - self._cpu0
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_wall += wall
        labels = {"span": self.name}
        labels.update(self.tags)
        histogram(SPAN_WALL_METRIC,
                  help="Wall time of instrumented spans.",
                  **labels).observe(wall)
        histogram(SPAN_CPU_METRIC,
                  help="CPU time of instrumented spans.",
                  **labels).observe(cpu)
        trace = _TRACE
        if trace is not None:
            trace.record(SpanRecord(
                self.name, self.tags, len(stack),
                parent.name if parent is not None else None,
                wall, cpu, max(0.0, wall - self.child_wall),
            ))
        return False


def _stack():
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = _STACK.spans = []
    return stack


def span(name, **tags):
    """A wall/cpu-timed context manager (no-op while disabled).  Tags
    become histogram labels — keep them low-cardinality (engine,
    tenant), never per-job ids."""
    if not is_enabled():
        return _NULL_SPAN
    return _Span(name, {k: str(v) for k, v in tags.items()})


# ----------------------------------------------------------------------
# Profile breakdown (the `--profile` table).


def profile_rows(entries, wall_total):
    """Aggregate trace records into per-phase rows.

    Each row sums the *self* wall time (own minus children) of one
    span name, so the rows partition the tracked time exactly; the
    remainder of ``wall_total`` becomes the ``(untracked)`` row and
    the rows always total the measured wall time.
    """
    phases = {}
    for record in entries:
        row = phases.get(record.name)
        if row is None:
            row = phases[record.name] = {
                "phase": record.name, "count": 0,
                "wall": 0.0, "cpu": 0.0,
            }
        row["count"] += 1
        row["wall"] += record.self_wall
        row["cpu"] += record.cpu
    rows = sorted(phases.values(), key=lambda r: -r["wall"])
    tracked = sum(row["wall"] for row in rows)
    untracked = max(0.0, wall_total - tracked)
    rows.append({"phase": "(untracked)", "count": 0,
                 "wall": untracked, "cpu": 0.0})
    return rows


def format_profile(entries, wall_total) -> str:
    """The ``--profile`` per-phase time breakdown table."""
    rows = profile_rows(entries, wall_total)
    total = sum(row["wall"] for row in rows)
    tracked = total - rows[-1]["wall"]
    lines = [
        "profile: %d span(s), wall %.3fs (%.1f%% tracked)"
        % (len(entries), wall_total,
           100.0 * tracked / wall_total if wall_total > 0 else 100.0),
        "  %-32s %7s %10s %10s %7s"
        % ("phase", "count", "self wall", "cpu", "%"),
    ]
    for row in rows:
        share = 100.0 * row["wall"] / wall_total if wall_total > 0 else 0.0
        lines.append(
            "  %-32s %7s %9.3fs %9.3fs %6.1f%%"
            % (row["phase"],
               row["count"] or "-", row["wall"], row["cpu"], share)
        )
    lines.append("  %-32s %7s %9.3fs %10s %6.1f%%"
                 % ("total", "", total, "", 100.0 if wall_total else 0.0))
    return "\n".join(lines)
