"""Benchmark-owned spans around the program's public entry points.

The program is not instrumented for the benchmark.  Instead, a traced run
replaces each public entry point at the attribute where the program looks it
up (``repro.toolflow.parallel.simulate``, ``ExperimentStore.add``, ...) with a
wrapper that records one span per call: name, start, end and parent.  Spans
stay in memory until the run ends.  An entry point that cannot be found is
listed in :attr:`Tracer.missing`, so its metrics read ``unmeasured`` instead
of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span name of one timed job.  Its self time is benchmark glue: time inside
#: the job that no wrapped entry point covers.
ROOT = "bench.job"


class Tracer:
    """Records spans; installs and removes the entry-point wrappers."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index]`` list per call.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        #: Entry points that could not be resolved (``module:attr``).
        self.missing: List[str] = []
        #: Per-span-name sums fed by ``on_call`` hooks (ops, variants, ...).
        self.tallies: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ #
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _traced(self, fn: Callable, name: str,
                on_call: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_call is not None:
                on_call(self.tallies, args, result)
            return result

        return wrapper

    def wrap(self, target: str, name: str,
             on_call: Optional[Callable] = None) -> None:
        """Trace calls to ``target`` (``"module:attr"`` or ``"module:Class.attr"``)."""

        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            original = None
        if isinstance(original, property):
            replacement = property(self._traced(original.fget, name, on_call))
        elif callable(original):
            replacement = self._traced(original, name, on_call)
        else:
            if target not in self.missing:
                self.missing.append(target)
            return
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped entry point back."""

        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------ #
    def write(self, path, header: Dict[str, object]) -> None:
        """Write the header and every span as JSON lines."""

        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def span_totals(spans) -> Dict[str, Dict[str, float]]:
    """Fold ``[name, start, end, parent]`` spans into per-name totals.

    A span's self time is its duration minus its children's durations, so
    the self times of every span under a root add up to the root's duration.
    """

    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        row = totals[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_s[index]
    return dict(totals)


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first dotted component."""

    return name.split(".", 1)[0]
