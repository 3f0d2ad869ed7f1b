"""Span tracing of ltrkit from outside the package.

:meth:`Tracer.install` wraps every public function of each ltrkit module
(the callables its ``__all__`` names) and the ``AudioBuffer`` constructor. A
wrapped function is patched wherever a module imported it: every ``ltrkit``
module whose globals hold the original object gets the wrapper instead, so
calls from ``cli`` into ``dataset`` into ``audio_io`` are all seen. Each call
records a span (name, parent span, thread, start, end) plus counts taken from
its arguments and result. Spans stay in memory until :meth:`layer_metrics`
reduces them.

A span's parent is the innermost open span of its own thread. A span that
opens on a pool thread with nothing open there is adopted by the innermost
open span of the thread that installed the tracer (``dataset.build_set``
while it waits on its workers). Self time is a span's duration minus the
part of that interval its children cover, so time on worker threads is not
also charged to the waiting builder.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("audio_io", "ltr", "perturb", "features", "matrix_io", "dataset", "scoring", "metrics", "cli")


def _size_of(path) -> int:
    return os.stat(path).st_size


def _grid_frames(grid) -> int:
    return grid.num_frames if hasattr(grid, "num_frames") else len(grid)


# name -> function(args, kwargs, result) giving the counts a call adds
COUNTERS = {
    "audio_io.read_wav": lambda a, k, r: {"bytes_in": _size_of(a[0])},
    "audio_io.write_wav": lambda a, k, r: {"bytes_out": _size_of(a[1] if len(a) > 1 else k["path"])},
    "audio_io.AudioBuffer": lambda a, k, r: {"bytes_copied": a[0].samples.nbytes},
    "ltr.reverse_segments": lambda a, k, r: {"samples": len(a[0])},
    "perturb.speed_perturb": lambda a, k, r: {"samples_out": len(r)},
    "features.fbank": lambda a, k, r: {"frames": r.frames},
    "matrix_io.read_matrix": lambda a, k, r: {"bytes_in": _size_of(a[0])},
    "matrix_io.write_matrix": lambda a, k, r: {"bytes_out": _size_of(a[1])},
    "scoring.ctc_loss": lambda a, k, r: {"lattice_cells": _grid_frames(a[0]) * (2 * len(a[1]) + 1)},
    "metrics.align": lambda a, k, r: {"cells": (len(a[0]) + 1) * (len(a[1]) + 1)},
    # keys starting with "_" describe a call and are not summed
    "dataset.build_set": lambda a, k, r: {"_parallelism": k.get("parallelism", a[3] if len(a) > 3 else 1)},
    "dataset.build_speed_set": lambda a, k, r: {"_parallelism": k.get("parallelism", a[3] if len(a) > 3 else 1)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, counts)
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._home = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stacks, home, spans, ids = self._stacks, self._home, self.spans, self._ids

        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = stacks[thread]
            if stack:
                parent = stack[-1]
            else:
                home_stack = stacks[home]
                parent = home_stack[-1] if thread != home and home_stack else 0
            span = next(ids)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            spans.append((span, parent, name, start, end, counts))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr in module.__all__:
                original = getattr(module, attr)
                if not inspect.isfunction(original):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)
        buffer_cls = sys.modules[f"{package.__name__}.audio_io"].AudioBuffer
        self._patch(buffer_cls, "__post_init__", self._wrap("audio_io.AudioBuffer", buffer_cls.__post_init__))

    def _patch(self, holder, key, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # ------------------------------------------------------------ reduction

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round totals by span name: calls, self_s, and every count,
        plus ``dataset.worker_busy_fraction`` over the widest builds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        child_busy: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
            child_busy[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        builds = [s for s in self.spans if s[5] and "_parallelism" in s[5]]
        widest = max((s[5]["_parallelism"] for s in builds), default=1)
        busy = capacity = 0.0
        for span, _, name, start, end, counts in self.spans:
            covered = _union_within(children.get(span, ()), start, end)
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += (end - start) - covered
            for key, value in (counts or {}).items():
                if not key.startswith("_"):
                    totals[f"{name}.{key}"] += value
        for span, _, _, start, end, counts in builds:
            parallelism = counts["_parallelism"]
            if parallelism == widest:
                busy += child_busy[span]
                capacity += parallelism * (end - start)
        out = {key: value / rounds for key, value in totals.items()}
        out["dataset.worker_busy_fraction"] = busy / capacity if capacity else 0.0
        for name, cells in (("scoring.ctc_loss", "lattice_cells"), ("metrics.align", "cells")):
            n = totals.get(f"{name}.{cells}", 0.0)
            out[f"{name}.ns_per_cell"] = 1e9 * totals[f"{name}.self_s"] / n if n else 0.0
        return out


def _union_within(intervals, lo: float, hi: float) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered
