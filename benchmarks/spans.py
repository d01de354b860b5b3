"""Spans around calls into the package's layers, and what they add up to.

The traced run replaces every public function of the layer modules, under
each name a caller looks it up by (the module globals of ``cli``, ``theory``,
``synthetic``, ``discrete``, ...), with a wrapper that records a span.  The
only span of ``cli`` itself is ``cli.main``: its ``cmd_*`` handlers, argument
parsing, hashing and report writing are the cli layer's own work.

Spans are kept in memory and handed back when the operation ends.  A span
opened on a thread with no open span of its own (a Monte-Carlo worker)
takes as parent the innermost open span of the operation's thread, which
is the ``verify_theorem`` call that is waiting for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

PACKAGE = "spurious_lens"
LAYERS = ("synthetic", "alignment", "theory", "discrete", "evaluation", "svgplot", "cli")

# Work counts taken from a call's bound arguments or its result.
COUNTERS = {
    "synthetic.sample_batch": lambda args, result: args["size"],
    "evaluation.load_predictions": lambda args, result: len(result),
    "theory.worker_count": lambda args, result: result,
}


class Tracer:
    """Records spans for one operation; create it on the operation's thread."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._local.stack = self._op_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span hangs under the op thread's
            # innermost open span, which is blocked waiting for the worker.
            outer = stack or self._op_stack
            parent = outer[-1] if outer else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent, "op": self.op_id,
                        "thread": threading.get_ident()}
                if counter is not None and result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["count"] = counter(bound.arguments, result)
                self.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions where callers look them up."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                owner_module = value.__module__ or ""
                owner = owner_module.rpartition(".")[2]
                if not owner_module.startswith(PACKAGE + ".") or owner not in LAYERS:
                    continue
                if owner == "cli" and value.__name__ != "main":
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(f"{owner}.{value.__name__}", value)
                setattr(module, attr, wrappers[id(value)])


def union_length(intervals, lo: float | None = None, hi: float | None = None) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """Duration minus the part of it covered by children on any thread."""
    covered = union_length(((c["start"], c["end"]) for c in children),
                           span["start"], span["end"])
    return (span["end"] - span["start"]) - covered


def layer_metrics(spans: list[dict], op_wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced operation.

    For each span name ``<layer>.<function>``: ``_s`` busy time (summed over
    threads, a call nested in a call of the same function not counted
    twice), ``_self_s`` and ``_calls``.  Plus the named work counts, the
    Monte-Carlo pool's busy ratio, and ``unattributed_s``: op_wall minus the
    union of the spans directly under ``cli.main``.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int | None, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def nested_in_same(span: dict) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return True
            parent = by_id.get(parent["parent"])
        return False

    out: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
        out[f"{name}_self_s"] = out.get(f"{name}_self_s", 0.0) + self_time(
            s, children.get(s["id"], []))
        if not nested_in_same(s):
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (s["end"] - s["start"])

    def count(name: str) -> int:
        return sum(s.get("count", 0) for s in spans if s["name"] == name)

    out["synthetic.samples_drawn"] = count("synthetic.sample_batch")
    out["evaluation.rows_parsed"] = count("evaluation.load_predictions")
    out["discrete.training_runs"] = (out.get("discrete.train_supervised_calls", 0)
                                     + out.get("discrete.train_contrastive_perfect_calls", 0))
    workers = max((s.get("count", 0) for s in spans if s["name"] == "theory.worker_count"),
                  default=0)
    out["theory.workers"] = workers
    verify = [s for s in spans if s["name"] == "theory.verify_theorem"]
    if verify and workers:
        wall = sum(s["end"] - s["start"] for s in verify)
        busy = sum(c["end"] - c["start"] for s in verify
                   for c in children.get(s["id"], []) if c["thread"] != s["thread"])
        out["theory.mc_busy_ratio"] = busy / (wall * workers)

    roots = [s for s in spans if s["name"] == "cli.main"]
    top = [c for r in roots for c in children.get(r["id"], [])] if roots else children.get(None, [])
    out["unattributed_s"] = op_wall - union_length((s["start"], s["end"]) for s in top)
    return out
