"""In-memory spans around calls into the program's layers, and self time.

A span is a dict with ``id``, ``name`` (``<layer>.<function>``), ``start``,
``end`` (``time.perf_counter`` seconds), ``parent`` (span id or ``None``)
and ``command`` (the id of the root span it belongs to, one per CLI
command), plus any counts recorded at the same boundary.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Collects spans; nesting follows the ``with tracer.span(...)`` blocks."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._last_id = 0

    def _new_id(self) -> int:
        self._last_id += 1
        return self._last_id

    def add(self, name, start, end, parent, span_id=None, **counts) -> dict:
        """Record a finished span under ``parent`` (the innermost open span if ``None``)."""
        if parent is None and self._stack:
            parent = self._stack[-1]["id"]
        span_id = span_id or self._new_id()
        command = self._stack[0]["id"] if self._stack else span_id
        span = {"id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "command": command, **counts}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        """Time the block as one span; the yielded dict takes extra counts."""
        span = self.add(name, time.perf_counter(), None, None)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patch(self, module, attr, name, counts=None, hooks=None):
        """Time every call of ``module.attr`` as a span while the block runs.

        ``counts(result, *args, **kwargs)`` returns counts to add to the
        span.  ``hooks(span)`` returns keyword arguments to pass to the call
        (the trainer's hooks); each runs after any the caller passed.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                extra = {} if hooks is None else hooks(span)
                result = original(*args, **{**kwargs, **{k: _then(kwargs.get(k), h) for k, h in extra.items()}})
            if counts is not None:
                span.update(counts(result, *args, **kwargs))
            return result

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def train_hooks(self, train_span: dict) -> dict:
        """``progress`` and ``on_batch`` hooks that record epoch and batch spans.

        The hooks only see when an epoch or a batch ends, so each span runs
        from the previous hook call (or from the start of ``train_span``).
        Batch spans nest under their epoch, epochs under ``train_span``.
        """
        state = {"epoch": self._new_id(), "epoch_start": train_span["start"],
                 "batch_start": train_span["start"]}

        def on_batch(model, update):
            now = time.perf_counter()
            self.add("trainer.batch", state["batch_start"], now, state["epoch"],
                     rows=int(update.phi_rows.size + update.psi_rows.size), rows_total=2 * model.m)
            state["batch_start"] = now

        def progress(epoch, loss):
            now = time.perf_counter()
            self.add("trainer.epoch", state["epoch_start"], now, train_span["id"], span_id=state["epoch"])
            state.update(epoch=self._new_id(), epoch_start=now, batch_start=now)

        return {"progress": progress, "on_batch": on_batch}


class NullTracer:
    """Same interface as :class:`Tracer`, recording nothing (the untraced run)."""

    @contextmanager
    def span(self, name):
        yield {}

    def patch(self, module, attr, name, counts=None, hooks=None):
        return nullcontext()

    def train_hooks(self, train_span: dict) -> dict:
        return {}


def _then(first, second):
    """``second``, run after ``first`` when there is one."""
    if first is None:
        return second

    def both(*args):
        first(*args)
        second(*args)

    return both


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer, the part of a span name before the first dot."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"].split(".", 1)[0]] += own[s["id"]]
    return dict(totals)
