"""Per-stage spans recorded from outside resfu.

Each traced function is replaced, in every loaded ``resfu`` module that
binds it, by a wrapper that records a span: name, start, end, parent span
and the bytes of the arrays it returns.  Replacing the binding wherever it
is found is what makes a caller's lookup hit the wrapper: ``group_normalize``
is called through ``resfu.pcdc``'s globals, ``guided_filter`` through
``resfu.upsampler``'s, ``load_tensor`` through ``resfu.cli``'s.

Spans stay in memory, grouped by upsample call, until the run ends.  A span
name whose function no longer exists is simply never recorded, so it reads
as zero calls.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "resfu"
MIB = 1 << 20

# Named "<module>.<function>" after the public function each span wraps.
SPAN_NAMES = (
    "cli.main",
    "tensor.load_tensor",
    "params_io.load_params",
    "tensor.save_tensor",
    "upsampler.run_pipeline",
    "upsampler.project_qk",
    "ops.bilinear_resize",
    "guided_filter.guided_filter",
    "ops.gaussian_smooth3",
    "pcdc.pcdc_block",
    "ops.group_normalize",
    "pcdc.pcdc_layer",
    "pcdc.channel_compressor",
    "ops.grouped_pointwise_conv",
    "ops.softmax_rows",
    "upsampler.kernel_apply_fns",
)


@dataclasses.dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    out_bytes: int = 0


def returned_arrays(obj) -> list[np.ndarray]:
    """The distinct arrays reachable from a return value: arrays,
    FeatureMaps (through ``.data``), dataclasses and tuples."""
    arrays: dict[int, np.ndarray] = {}

    def visit(item):
        if isinstance(item, np.ndarray):
            arrays[id(item)] = item
        elif isinstance(getattr(item, "data", None), np.ndarray):
            visit(item.data)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            for field in dataclasses.fields(item):
                visit(getattr(item, field.name))
        elif isinstance(item, (tuple, list)):
            for element in item:
                visit(element)

    visit(obj)
    return list(arrays.values())


class Tracer:
    """Collects the spans of successive upsample calls.

    Wrappers exist only inside ``installed()``; every patched binding is put
    back when it exits, so timed untraced calls never run through them.
    """

    def __init__(self):
        self.calls: list[list[Span]] = []
        self._stack: list[int] = []

    def begin_call(self) -> None:
        self.calls.append([])
        self._stack.clear()

    def discard_call(self) -> None:
        self.calls.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.calls[-1]
            span = Span(name, self._stack[-1] if self._stack else None)
            spans.append(span)
            self._stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name == "tensor.save_tensor":
                span.out_bytes = os.path.getsize(args[0])  # bytes written
            else:
                span.out_bytes = sum(array.nbytes for array in returned_arrays(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        patched = []
        try:
            for name in SPAN_NAMES:
                module_name, func_name = name.rsplit(".", 1)
                module = sys.modules.get(f"{PACKAGE}.{module_name}")
                original = getattr(module, func_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                        continue
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - _covered(kids) for span, kids in zip(spans, children)]


def per_layer_metrics(calls: list[list[Span]]) -> dict[str, tuple[float, str]]:
    """Per span name: self ms and MiB returned per span call, and calls per
    upsample, each the median over the traced upsample calls."""
    per_name: dict[str, list[tuple[float, int, int]]] = {name: [] for name in SPAN_NAMES}
    for spans in calls:
        totals = {name: [0.0, 0, 0] for name in SPAN_NAMES}
        for span, own in zip(spans, self_seconds(spans)):
            total = totals[span.name]
            total[0] += own
            total[1] += 1
            total[2] += span.out_bytes
        for name, (own, count, nbytes) in totals.items():
            per_name[name].append((own, count, nbytes))

    metrics: dict[str, tuple[float, str]] = {}
    for name, rows in per_name.items():
        rows = rows or [(0.0, 0, 0)]
        metrics[f"{name}.self_ms"] = (
            statistics.median(own * 1e3 / count if count else 0.0 for own, count, _ in rows), "ms")
        metrics[f"{name}.calls"] = (statistics.median(count for _, count, _ in rows), "count")
        metrics[f"{name}.out_mib"] = (
            statistics.median(nbytes / MIB / count if count else 0.0 for _, count, nbytes in rows), "MiB")
    return metrics
