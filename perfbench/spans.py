"""Outside-in span tracing of the twoatom package.

The package itself is not instrumented.  Instead each traced function is
replaced, in every loaded ``twoatom`` module, at the attribute its call
sites look up: ``pipeline`` imports ``simulate_ensemble`` by name, so the
wrapper goes onto ``twoatom.pipeline.simulate_ensemble``; ``eventsim``
calls ``kern.raw_draws``, so it goes onto ``twoatom._kernels.raw_draws``
(span ``kernels.raw_draws``).

A span is ``[name, start, end, parent index, items]``.  Spans are kept in
memory and written out once, when the traced process ends.  A span's self
time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, function) pairs; the span name is "<module>.<function>" with the
# module's leading underscore dropped (metric names start with a letter).
# ``grids`` costs nothing measurable and is not traced.
TARGETS = (
    ("_kernels", "raw_draws"),
    ("_kernels", "raw_for_slot"),
    ("eventsim", "simulate_ensemble"),
    ("eventsim", "assign_detections"),
    ("eventsim", "detector_streams"),
    ("eventsim", "build_histogram"),
    ("inference", "fit_exponential_mle"),
    ("inference", "fit_cumulative_curve"),
    ("kinetics", "detection_densities"),
    ("pipeline", "write_events_csv"),
    ("pipeline", "reproduce_figure1"),
    ("pipeline", "write_report"),
    ("cli", "main"),
    ("amplitudes", "first_emission_rate_ratio"),
    ("amplitudes", "property_case_rate"),
    ("pairstate", "make_two_atom_gaussian"),
    ("pairstate", "propagate_kernel"),
    ("packets", "sample_packet"),
)


def _result_size(args, kwargs, result):
    return int(result.size)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# work counted at the span boundary: draws hashed, bytes written
ITEM_COUNTERS = {
    "kernels.raw_draws": _result_size,
    "kernels.raw_for_slot": _result_size,
    "pipeline.write_events_csv": _file_bytes,
}

# per-layer metrics of the traced run: name -> unit
LAYER_METRICS = {
    "kernels.raw_draws.self_s": "s",
    "kernels.raw_for_slot.self_s": "s",
    "kernels.draws_per_molecule": "draws/molecule",
    "eventsim.simulate_ensemble.calls": "count",
    "eventsim.simulate_ensemble.self_s": "s",
    "eventsim.assign_detections.self_s": "s",
    "eventsim.detector_streams.calls": "count",
    "eventsim.detector_streams.self_s": "s",
    "eventsim.build_histogram.self_s": "s",
    "inference.fit_exponential_mle.self_s": "s",
    "inference.fit_cumulative_curve.self_s": "s",
    "pipeline.write_events_csv.self_s": "s",
    "pipeline.events_csv_mib_per_s": "MiB/s",
    "pipeline.reproduce_figure1.self_s": "s",
    "pipeline.write_report.calls": "count",
    "kinetics.detection_densities.calls": "count",
    "cli.main.self_s": "s",
    "cli.rows_per_s": "rows/s",
    "amplitudes.first_emission_rate_ratio.self_s": "s",
    "amplitudes.property_case_rate.self_s": "s",
    "pairstate.make_two_atom_gaussian.self_s": "s",
    "pairstate.propagate_kernel.calls": "count",
    "pairstate.propagate_kernel.self_s": "s",
    "packets.sample_packet.calls": "count",
    "packets.sample_packet.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records one span per call of each wrapped function.

    The parent of a span is the innermost open span; that holds because
    the benchmark runs the package single-threaded (workers = 1).
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, names=None):
        """Wrap every target (or only `names`) wherever twoatom looks it up."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "twoatom" or key.startswith("twoatom."))
        ]
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name.lstrip('_')}.{fn_name}"
            if names is not None and name not in names:
                continue
            original = getattr(importlib.import_module(f"twoatom.{mod_name}"), fn_name, None)
            if original is None:  # gone from the package: its metrics read 0
                continue
            wrapped = self.wrap(name, original, ITEM_COUNTERS.get(name))
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapped)

    def summary(self) -> dict:
        """name -> {"calls", "self_s", "items"} aggregated over all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, items), child in zip(self.spans, covered):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "items": 0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child
            agg["items"] += items or 0
        return out


def layer_metrics(summary: dict, n0: int, rows: int, overhead_s: float) -> dict:
    """The per-layer metric values from a merged span summary."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def per_s(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    values = {}
    for metric in LAYER_METRICS:
        span, _, key = metric.rpartition(".")
        if key in ("self_s", "calls"):
            values[metric] = get(span, key)
    draws = get("kernels.raw_draws", "items") + get("kernels.raw_for_slot", "items")
    values["kernels.draws_per_molecule"] = draws / n0
    values["pipeline.events_csv_mib_per_s"] = per_s(
        get("pipeline.write_events_csv", "items") / 2**20,
        get("pipeline.write_events_csv", "self_s"),
    )
    values["cli.rows_per_s"] = per_s(rows, get("cli.main", "self_s"))
    values["trace.overhead_s"] = overhead_s
    return values
