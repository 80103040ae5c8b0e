"""Spans recorded by the benchmark around its calls into the program.

A span has a name, a layer, a start and an end (``time.perf_counter``,
which is ``CLOCK_MONOTONIC`` on Linux and so comparable across the
benchmark's child processes), a parent and an optional id of the
design, batch or chunk it belongs to.  Spans stay in memory and are
written out when the run ends.

:func:`attribute` turns a span tree into per-layer self time.  Every
instant of the root span is given to the innermost spans active at that
instant, split evenly when several threads or processes are inside
spans at once, so the layers' self times plus ``untracked`` (instants
inside no span but the root) add up to the root's duration exactly.
With no concurrency this is the usual "span minus covered children".
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

#: The layers of the self-time breakdown, in the order the results
#: table lists them.  No kept workload's own operation crosses the
#: serve layer; its spans (layer ``serve``) come from the traced run's
#: serve probe, which the breakdown does not include.
LAYERS = ("cli", "ecl", "efsm", "lower", "pipeline", "engines", "farm")
UNTRACKED = "untracked"


class Tracer:
    """In-memory span recorder.  A disabled tracer records nothing and
    its :meth:`span` costs one branch."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._next = 1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _new_id(self):
        with self._lock:
            ident = self._next
            self._next += 1
        return ident

    @contextmanager
    def span(self, name, layer, ref=None, parent=None):
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {"id": self._new_id(), "name": name, "layer": layer,
                  "ref": ref,
                  "parent": parent if parent is not None else
                  (stack[-1] if stack else None),
                  "start": perf_counter(), "end": None}
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def adopt(self, spans, parent):
        """Merge spans recorded by a child process under ``parent``
        (renumbered; the child's roots become children of ``parent``)."""
        if not self.enabled:
            return
        mapping = {}
        for record in sorted(spans, key=lambda item: item["start"]):
            mapping[record["id"]] = self._new_id()
        with self._lock:
            for record in spans:
                copy = dict(record)
                copy["id"] = mapping[record["id"]]
                copy["parent"] = mapping.get(record["parent"], parent)
                self.spans.append(copy)

    def named(self, name):
        return [span for span in self.spans if span["name"] == name]

    def total(self, name):
        return sum(span["end"] - span["start"] for span in self.named(name))


def attribute(spans, root_id):
    """Per-layer self seconds of the tree under ``root_id``, plus
    ``untracked``; the values sum to the root's duration."""
    by_id = {span["id"]: span for span in spans}
    root = by_id[root_id]
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span["id"])
    members = []
    todo = [root_id]
    while todo:
        ident = todo.pop()
        members.append(ident)
        todo.extend(children.get(ident, ()))
    lo, hi = root["start"], root["end"]
    events = []
    for ident in members:
        span = by_id[ident]
        start, end = max(span["start"], lo), min(span["end"], hi)
        if end > start:
            events.append((start, 1, ident))
            events.append((end, 0, ident))
    events.sort()
    active = set()
    active_children = {}
    totals = {layer: 0.0 for layer in LAYERS}
    totals[UNTRACKED] = 0.0
    previous = lo
    for moment, is_start, ident in events:
        if moment > previous and active:
            leaves = [i for i in active if not active_children.get(i)]
            share = (moment - previous) / len(leaves)
            for leaf in leaves:
                layer = UNTRACKED if leaf == root_id else by_id[leaf]["layer"]
                totals[layer] = totals.get(layer, 0.0) + share
        previous = max(previous, moment)
        parent = by_id[ident]["parent"] if ident != root_id else None
        if is_start:
            active.add(ident)
            if parent is not None:
                active_children[parent] = active_children.get(parent, 0) + 1
        else:
            active.discard(ident)
            if parent is not None:
                active_children[parent] -= 1
    return totals
