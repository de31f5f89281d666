"""Spans and counts for the traced run, recorded from outside the program.

The tracer replaces public functions of the ``polarview`` modules with
wrappers.  A function is patched at every place it is bound: its home
module and every other loaded ``polarview`` module that holds the same
object (``from .assignment import hungarian`` in ``tracker``, for
example), so no call path escapes by using another name.  Each call
becomes a span (id, name, start, end, parent id, root id) kept in memory;
counts are taken from the call's arguments and return value.  Nothing
under ``src/`` changes.

The program is single-threaded and has no queues, so no waiting time is
recorded: a span's self time is all busy time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

PIPELINES = ("dense", "sparse-long")
ORACLES = ("oracles",)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _kernel_bytes(args, kwargs, result) -> int:
    """Bytes of the array arguments plus the arrays returned (computed, not measured)."""
    return sum(_nbytes(a) for a in args) + sum(_nbytes(v) for v in kwargs.values()) + _nbytes(result)


@dataclass(frozen=True)
class Traced:
    """One program function to wrap.

    ``required_on`` lists the workloads that must reach it: a traced run
    of such a workload fails if the function exists but recorded no call.
    ``counts`` maps a counter name to a function of (args, kwargs, result).
    ``outermost`` records only the outermost call of a recursive function.
    The metrics are ``<label>_s`` (inclusive seconds) unless ``timed`` is
    false (then calls are only counted, with no span), ``<label>.self_s``
    when ``self_time`` is set, and the call count under the name ``calls``,
    if given.
    """

    name: str
    required_on: tuple[str, ...]
    counts: dict[str, Callable] = field(default_factory=dict)
    outermost: bool = False
    timed: bool = True
    self_time: bool = False
    calls: str | None = None

    @property
    def label(self) -> str:
        return self.name.lstrip("_")

    @property
    def module(self) -> str:
        return "polarview." + self.name.rsplit(".", 1)[0]

    @property
    def attr(self) -> str:
        return self.name.rsplit(".", 1)[1]


def _frames(attr: str):
    return lambda a, k, r: sum(len(getattr(f, attr)) for f in r.frames)


TRACED = (
    Traced(
        "serialization.dumps_json",
        PIPELINES,
        {"serialization.bytes_written": lambda a, k, r: len(r.encode("utf-8"))},
        outermost=True,
    ),
    Traced("serialization.load_scene", PIPELINES, {"serialization.bytes_read": lambda a, k, r: os.path.getsize(a[0])}),
    Traced("serialization.load_detections", PIPELINES, {"serialization.bytes_read": lambda a, k, r: os.path.getsize(a[0])}),
    Traced("simulator.generate_scene", PIPELINES, {"simulator.objects": _frames("objects")}),
    Traced("simulator.render_detections", PIPELINES, {"simulator.detections": _frames("detections")}),
    Traced(
        "assignment.build_cost_matrix",
        PIPELINES,
        {"assignment.cost_cells": lambda a, k, r: r.size},
        self_time=True,
    ),
    Traced(
        "assignment.hungarian",
        PIPELINES + ORACLES,
        {"assignment.matches": lambda a, k, r: len(r)},
        calls="assignment.hungarian_calls",
    ),
    Traced("tracker.run_tracker", PIPELINES, {"tracker.tracks_created": lambda a, k, r: r.tracks_created}),
    Traced(
        "tracker.match_tracks",
        PIPELINES,
        {
            "tracker.gate_cells": lambda a, k, r: len(a[1]) * len(a[0].tracks),
            "tracker.track_matches": lambda a, k, r: len(r[0]),
        },
        self_time=True,
    ),
    Traced("tracker.count_id_switches", PIPELINES, {"tracker.id_switches": lambda a, k, r: r}),
    Traced("metrics.average_precision_frames", PIPELINES),
    Traced("metrics.match_by_center_distance", PIPELINES, calls="metrics.match_by_center_distance_calls"),
    Traced("metrics.tp_errors", PIPELINES, {"metrics.matched_pairs": lambda a, k, r: len(a[0])}),
    Traced("geometry.decode_boxes", ORACLES, {"geometry.boxes": lambda a, k, r: len(r)}),
    Traced("geometry.encode_boxes", ORACLES, {"geometry.boxes": lambda a, k, r: len(r)}),
    Traced("loss.random_gradient_fixture", ORACLES, calls="loss.fixtures"),
    Traced("loss.loss_gradient", ORACLES),
    Traced("loss.finite_difference_gradient", ORACLES),
    Traced("camera.max_rotation_discrepancy", ORACLES),
    Traced("camera.project_to_view", ORACLES, timed=False, calls="camera.project_to_view_calls"),
    Traced("sampling.bilinear_sample_many", ORACLES, {"sampling.points": lambda a, k, r: len(r[1])}),
    Traced("_kernels.polar_cost_matrix", PIPELINES, {"kernels.polar_cost_matrix.bytes_computed": _kernel_bytes}),
    Traced("_kernels.pairwise_distances", PIPELINES, {"kernels.pairwise_distances.bytes_computed": _kernel_bytes}),
    Traced("_kernels.decode_boxes", ORACLES, {"kernels.decode_boxes.bytes_computed": _kernel_bytes}),
    Traced("_kernels.bilinear_many", ORACLES, {"kernels.bilinear_many.bytes_computed": _kernel_bytes}),
)


class Tracer:
    """Patches the functions in :data:`TRACED` and records their spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[int, int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else span_id
        self._stack.append(span_id)
        return span_id, parent, root

    def _close(self, name: str, ids: tuple[int, int, int], start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, root = ids
        self.spans.append((span_id, name, start, end, parent, root))

    def run_span(self, name: str, fn: Callable):
        """Call ``fn()`` inside a span opened by the benchmark itself."""
        ids = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(name, ids, start)

    def _wrap(self, spec: Traced, original: Callable) -> Callable:
        name = spec.name

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not spec.timed:
                self.calls[name] += 1
                return original(*args, **kwargs)
            if spec.outermost and self._depth[name]:
                return original(*args, **kwargs)
            self._depth[name] += 1
            self.calls[name] += 1
            ids = self._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(name, ids, start)
                self._depth[name] -= 1
            for counter, count in spec.counts.items():
                self.counts[counter] += int(count(args, kwargs, result))
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "polarview" or n.startswith("polarview.")]
        for spec in TRACED:
            try:
                original = getattr(importlib.import_module(spec.module), spec.attr)
            except (ImportError, AttributeError):
                self.absent.append(spec.name)
                continue
            wrapper = self._wrap(spec, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def binding_sites(self) -> list[str]:
        return sorted(f"{m.__name__}.{a}" for m, a, _ in self._patched)

    # -- results -----------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name, summed over spans."""
        inclusive: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[span_id]
        return inclusive, self_time

    def child_calls(self, child: str, parent: str) -> int:
        names = {span_id: name for span_id, name, *_ in self.spans}
        return sum(1 for _, name, _, _, p, _ in self.spans if name == child and names.get(p) == parent)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics of :data:`TRACED` over ``passes`` traced passes."""
        inclusive, self_time = self.times()
        values: dict[str, float] = {}
        for spec in TRACED:
            if spec.timed:
                values[f"{spec.label}_s"] = inclusive.get(spec.name, 0.0) / passes
            if spec.self_time:
                values[f"{spec.label}.self_s"] = self_time.get(spec.name, 0.0) / passes
            if spec.calls:
                values[spec.calls] = self.calls[spec.name] // passes
            for counter in spec.counts:
                values[counter] = self.counts[counter] // passes
        # a redraw after a kink is one more loss_gradient call inside the fixture draw
        attempts = self.child_calls("loss.loss_gradient", "loss.random_gradient_fixture")
        values["loss.fixture_attempts"] = attempts // passes
        return values

    def missing_calls(self, workload: str) -> list[str]:
        """Functions required on ``workload`` that exist but were never called."""
        return [
            s.name
            for s in TRACED
            if workload in s.required_on and s.name not in self.absent and not self.calls[s.name]
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "root"],
                    "spans": sorted(self.spans),
                    "calls": dict(self.calls),
                    "counts": dict(self.counts),
                    "absent": self.absent,
                    "binding_sites": self.binding_sites(),
                },
                fh,
            )
