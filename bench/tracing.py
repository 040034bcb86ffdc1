"""Spans around the public functions of each ``aof_lab`` module, installed
from outside the package.

Modules bind functions with ``from .x import f``, so a wrapper replaces
every module-level name in ``aof_lab.*`` that refers to the original
function; methods are wrapped on their classes.  Each call records a span
(name, start, end, parent) plus per-function counts taken from its
arguments or result.  Spans are kept in memory and written out by the
caller at the end of the run.  Self time is a span's duration minus the
time its child spans cover; calls run on one thread, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict


def _law_cells(result) -> int:
    return int(result.law.probs.size)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# (module, qualified name, counters).  A counter maps (args, kwargs, result)
# to a number that is summed over calls; "max_" counters keep the maximum.
TARGETS = [
    ("processes", "exact_window_law", {"cells": lambda a, k, r: _law_cells(r),
                                       "max_cells": lambda a, k, r: _law_cells(r)}),
    ("processes", "ExactLawProvider.window_law", {}),
    ("processes", "sample_trajectory", {"rows": lambda a, k, r: len(r)}),
    ("laws", "MixtureLawProvider.window_law", {}),
    ("information", "conditional_entropy", {}),
    ("information", "conditional_cross_entropy", {}),
    ("divergence", "chi2_conditional_mi", {}),
    ("divergence", "epsilon_coefficient", {"grid_points": lambda a, k, r: len(r.grid)}),
    ("divergence", "beta_between", {}),
    ("analysis", "loss_curve", {}),
    ("analysis", "decompose", {}),
    ("analysis", "dynamic_joint", {}),
    ("analysis", "testing_loss", {}),
    ("ingest", "Dataset.to_csv", {"rows": lambda a, k, r: len(a[0]),
                                  "bytes": lambda a, k, r: _file_bytes(a[1])}),
    ("ingest", "Dataset.from_csv", {"rows": lambda a, k, r: len(r),
                                    "bytes": lambda a, k, r: _file_bytes(a[1])}),
    ("ingest", "empirical_window_law", {"windows": lambda a, k, r: r.meta["n_windows"]}),
    ("ingest", "EmpiricalLawProvider.window_law", {}),
    ("aoi", "DeliveryTrace.from_csv", {"events": lambda a, k, r: sum(len(s) for s in r.events)}),
    ("aoi", "age_process", {"slots": lambda a, k, r: int(r.ages.size)}),
    ("aoi", "stochastic_order_multivariate",
     {"support_pairs": lambda a, k, r: len(a[0].vectors) * len(a[1].vectors)}),
    ("_util", "write_text_atomic", {"bytes": lambda a, k, r: _file_bytes(a[0])}),
]


class Tracer:
    """Span recorder.  Wrappers record only while ``active`` is true, so
    the benchmark's own checks never add spans."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent)
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self.active = False

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body."""
        sid, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(sid, name, parent, start)

    def _open(self, name: str) -> tuple[int, int | None, float]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid: int, name: str, parent, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, name, start, end, parent)

    def wrap(self, name: str, fn, counters: dict):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, parent, start)
            stats = tracer.counts[name]
            stats["calls"] += 1
            for key, count in counters.items():
                value = count(args, kwargs, result)
                stats[key] = max(stats[key], value) if key.startswith("max_") else stats[key] + value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in place, after the CLI has bound its imports."""
        importlib.import_module("aof_lab.cli")
        for module_name, qualname, counters in TARGETS:
            module = importlib.import_module(f"aof_lab.{module_name}")
            name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, counters)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, counters))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counters)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "aof_lab" or mod_name.startswith("aof_lab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            totals[name] += (end - start) - child_time[sid]
        return totals

    def durations(self, prefix: str) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            if name.startswith(prefix):
                totals[name] += end - start
        return totals

