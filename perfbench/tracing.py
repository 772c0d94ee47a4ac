"""Span tracer that instruments wqisa from outside the package.

Each wrapper replaces a public function at the name its caller looks up
(``wqisa.cli.read_cloud``, ``wqisa.pipeline.fit_surface``, ...) and records a
span: name, start, end, parent span and op id, plus a count of the work the
call did.  Nothing under ``src/`` changes.  Wrappers are in place only while a
traced op runs, so untraced ops in the same process call the originals and
their times give the tracing overhead.  Spans stay in memory until the run
writes them out.

A span's self time is its duration minus the time its child spans cover;
along one op the self times of all spans sum to the op span's duration.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

import numpy as np

OP_SPAN = "bench.op"
FALLBACK_MESSAGE = "outlier filter rejected every contributing point"


class Span(NamedTuple):
    op: int
    parent: int  # index into Tracer.spans, -1 for an op span
    name: str
    start: float
    end: float
    count: float
    error: str | None


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


class Tracer:
    def __init__(self, wq):
        self.spans: list[Span] = []
        self.events: dict[int, Counter] = defaultdict(Counter)
        self.indexed_clouds: dict[int, set] = defaultdict(set)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._add_targets(wq)

    # -- instrumentation -------------------------------------------------

    def _wrap(self, owner, attr, name, count=None, call=None):
        """Record a span per call.  ``count(args, kwargs, result)`` gives the
        work done; ``call(original, *args, **kwargs)`` replaces the call and
        returns ``(result, work done)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1]
            tracer.spans.append(None)
            tracer._stack.append(sid)
            error = None
            work = 0
            start = perf_counter()
            try:
                if call is None:
                    result = original(*args, **kwargs)
                else:
                    result, work = call(original, *args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = Span(tracer._op, parent, name, start, end, work, error)
            if count is not None:
                # counted after the span closed, so the parent pays for it
                tracer.spans[sid] = tracer.spans[sid]._replace(count=count(args, kwargs, result))
            return result

        functools.update_wrapper(traced, original, updated=())
        self._patches.append((owner, attr, original, traced))

    def _add_targets(self, wq) -> None:
        cli, pipeline, weights = wq.cli, wq.pipeline, wq.weights
        read_size = lambda a, kw, r: _file_size(a[0])  # noqa: E731
        self._wrap(cli, "cli_main", "cli.main")
        self._wrap(cli, "read_cloud", "io.read", count=read_size)
        self._wrap(cli, "load_surface", "io.read", count=read_size)
        self._wrap(cli, "save_surface", "io.write", count=lambda a, kw, r: _file_size(a[1]))
        self._wrap(cli, "write_report", "io.write", count=lambda a, kw, r: _file_size(a[1]))
        self._wrap(cli, "write_surface_grid", "io.write", count=lambda a, kw, r: _file_size(a[2]))
        self._wrap(cli, "fit_split", "pipeline.fit_split", count=_final_elements)
        self._wrap(cli, "fit_mba", "mba.fit_mba")
        self._wrap(cli, "hausdorff", "metrics.hausdorff", count=_pairs)
        self._wrap(cli, "punctual_errors", "metrics.punctual")
        self._wrap(pipeline, "tune_parameters", "pipeline.tune_parameters", count=_tuned_at_edge)
        self._wrap(pipeline, "fit_surface", "weights.fit_surface")
        self._wrap(pipeline, "surface_gmse", "metrics.gmse")
        self._wrap(pipeline, "lmse", "metrics.lmse")
        self._wrap(pipeline, "insert_knot", "splines.insert_knot")
        self._wrap(weights, "PlanarIndex", "kdtree.build", count=self._indexed_cloud)
        self._wrap(weights, "estimate_control_point", "weights.estimate")
        self._wrap(wq.kdtree.PlanarIndex, "knn", "kdtree.knn", call=_knn_with_count)
        self._wrap(wq.splines.WqisaSurface, "evaluate_many", "splines.evaluate",
                   count=lambda a, kw, r: len(r))
        self._wrap(wq.mba, "mba_level_coefficients", "mba.level", count=lambda a, kw, r: r.size)
        for module in wq.modules:
            if "as_cloud" in vars(module):
                self._wrap(module, "as_cloud", "clouds.as_cloud")

    def _indexed_cloud(self, args, kwargs, index) -> int:
        digest = hashlib.blake2b(index.points.tobytes(), digest_size=16).digest()
        self.indexed_clouds[self._op].add(digest)
        return index.size

    # -- ops -------------------------------------------------------------

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: install the wrappers, open the op span, count
        outlier-filter fallbacks, and take everything out again on exit."""
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            show = warnings.showwarning

            def count_fallbacks(message, category, *rest, **kw):
                if FALLBACK_MESSAGE in str(message):
                    self.events[op_id]["weights.filter_fallbacks"] += 1
                else:
                    show(message, category, *rest, **kw)

            warnings.showwarning = count_fallbacks
            start = perf_counter()
            try:
                yield
            finally:
                end = perf_counter()
                for owner, attr, original, _ in self._patches:
                    setattr(owner, attr, original)
                self._stack.pop()
                self.spans[sid] = Span(op_id, -1, OP_SPAN, start, end, 0, None)
                self._op = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")

    # -- aggregation -----------------------------------------------------

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: ``<span>:calls``, ``:count`` (summed work), ``:max`` (largest
        single work count), ``:self`` (self time) and ``:error.<exception>``
        per span name, plus the op's event counters and indexed clouds."""
        child_time = np.zeros(len(self.spans))
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, span in enumerate(self.spans):
            row = out[span.op]
            row[span.name + ":calls"] += 1
            row[span.name + ":count"] += span.count
            row[span.name + ":max"] = max(row[span.name + ":max"], span.count)
            row[span.name + ":self"] += (span.end - span.start) - child_time[sid]
            if span.error:
                row[f"{span.name}:error.{span.error}"] += 1
        for op_id, events in self.events.items():
            out[op_id].update(events)
        for op_id in out:
            out[op_id]["indexed_clouds"] = len(self.indexed_clouds.get(op_id, ()))
        return out


def _knn_with_count(original, index, query, k, with_count=False):
    ids, visited = original(index, query, k, with_count=True)
    return ((ids, visited) if with_count else ids), visited


def _pairs(args, kwargs, result) -> int:
    return len(args[0]) * len(args[1])


def _tuned_at_edge(args, kwargs, result) -> int:
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    return int(len(grid) > 1 and result.spec in (grid[0], grid[-1]))


def _final_elements(args, kwargs, result) -> int:
    ex, ey = result[0].space.element_counts
    return ex * ey


# readers take one op's row from Tracer.per_op and return that op's value
def _ratio(num: str, den: str):
    return lambda row: row[num] / row[den] if row[den] else 0.0


def _self(*names: str):
    return lambda row: sum(row[n + ":self"] for n in names)


def _key(key: str):
    return lambda row: row[key]


# (metric, unit, reader); every metric is better when lower
LAYER_METRICS = [
    ("kdtree.builds", "count", _key("kdtree.build:calls")),
    ("kdtree.build_s", "s", _self("kdtree.build")),
    ("kdtree.builds_per_cloud", "ratio", _ratio("kdtree.build:calls", "indexed_clouds")),
    ("kdtree.knn_queries", "count", _key("kdtree.knn:calls")),
    ("kdtree.knn_s", "s", _self("kdtree.knn")),
    ("kdtree.nodes_per_query", "count", _ratio("kdtree.knn:count", "kdtree.knn:calls")),
    ("weights.grids", "count", _key("weights.fit_surface:calls")),
    ("weights.coefficients", "count", _key("weights.estimate:calls")),
    ("weights.grid_self_s", "s", _self("weights.fit_surface", "weights.estimate")),
    ("weights.zero_weight_skips", "count", _key("weights.fit_surface:error.ZeroWeightError")),
    ("weights.filter_fallbacks", "count", _key("weights.filter_fallbacks")),
    ("clouds.as_cloud_calls", "count", _key("clouds.as_cloud:calls")),
    ("clouds.as_cloud_s", "s", _self("clouds.as_cloud")),
    ("splines.eval_points", "count", _key("splines.evaluate:count")),
    ("splines.eval_s", "s", _self("splines.evaluate")),
    ("splines.knot_inserts", "count", _key("splines.insert_knot:calls")),
    ("pipeline.iterations", "count", _key("pipeline.tune_parameters:calls")),
    ("pipeline.grid_entries", "count", _key("weights.fit_surface:calls")),
    ("pipeline.tuned_at_edge", "count", _key("pipeline.tune_parameters:count")),
    ("pipeline.final_elements", "count", _key("pipeline.fit_split:count")),
    ("pipeline.self_s", "s", _self("pipeline.fit_split", "pipeline.tune_parameters")),
    ("metrics.hausdorff_s", "s", _self("metrics.hausdorff")),
    ("metrics.hausdorff_pairs", "count", _key("metrics.hausdorff:count")),
    ("metrics.gmse_s", "s", _self("metrics.gmse")),
    ("metrics.lmse_s", "s", _self("metrics.lmse")),
    ("metrics.punctual_s", "s", _self("metrics.punctual")),
    ("mba.levels", "count", _key("mba.level:calls")),
    ("mba.level_s", "s", _self("mba.level")),
    ("mba.max_coefficients", "count", _key("mba.level:max")),
    ("io.read_s", "s", _self("io.read")),
    ("io.read_bytes", "B", _key("io.read:count")),
    ("io.write_s", "s", _self("io.write")),
    ("io.write_bytes", "B", _key("io.write:count")),
    ("cli.self_s", "s", _self("cli.main")),
]


def layer_metrics(rows: list[dict], counted: list[dict]) -> dict[str, dict]:
    """Times are medians over *rows* (every traced op); counts are means over
    *counted* (one traced op per distinct cloud), so they do not depend on
    how many ops fit into the run."""
    metrics = {}
    for name, unit, read in LAYER_METRICS:
        source = rows if unit == "s" else counted
        values = [float(read(row)) for row in source]
        value = statistics.median(values) if unit == "s" else statistics.fmean(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def self_time_gap(row: dict, op_seconds: float) -> float:
    """|sum of self times - op_seconds| for one op, where the caller times
    *op_seconds* with its own clock around the traced op."""
    total = sum(v for k, v in row.items() if k.endswith(":self"))
    return abs(total - op_seconds)
