"""Spans and counters around the package's public functions, from outside it.

Each target is named by its dotted path.  Installing a target wraps the
function in every ``pugeo`` module namespace that binds the same object
(``pugeo.trainer.fuse_patches`` and ``pugeo.sampling.fuse_patches`` are
one function bound twice), or the attribute on its class for methods.  A
target that no longer resolves is reported as missing with the reason and
the run goes on; a wrapper that never fires on a workload that should use
it is flagged.  Spans (name, start, end, parent) stay in memory; self
time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

ALL = frozenset({"upsample-analytic", "eval", "train", "dataset-build"})
UPSAMPLE = frozenset({"upsample-analytic"})
EVAL = frozenset({"eval"})
TRAIN = frozenset({"train"})
BUILD = frozenset({"dataset-build"})

MLP_NAMES = ("stn.point", "stn.reg", "edge0", "edge1", "edge2", "h_r", "f1", "f2", "f3", "f4")
MODEL_STAGES = ("stn", "features", "recalibrate", "expand", "refine")

# (metric name, unit); every one is printed by a traced run, 0 where bypassed
LAYER_METRICS = [
    ("sampling.fps.self_s", "s"), ("sampling.fps.calls", "count"),
    ("sampling.fps.candidates", "count"), ("sampling.fps.picks", "count"),
    ("sampling.fuse.self_s", "s"), ("sampling.fuse.candidates", "count"),
    ("sampling.fuse.kept", "count"),
    ("sampling.patches.self_s", "s"), ("sampling.patches.count", "count"),
    ("sampling.patches.points", "count"),
    ("sampling.knn.self_s", "s"), ("sampling.knn.builds", "count"),
    ("sampling.knn.queries", "count"),
    ("sampling.poisson.self_s", "s"), ("sampling.poisson.candidates", "count"),
    ("sampling.poisson.kept", "count"),
    ("analytic.upsample.self_s", "s"), ("analytic.upsample.points_in", "count"),
    ("analytic.upsample.points_out", "count"), ("analytic.degenerate_frames", "count"),
    ("analytic.degenerate_fits", "count"),
    ("geometry.frame.self_s", "s"), ("geometry.frame.calls", "count"),
    ("geometry.forms.self_s", "s"), ("geometry.forms.calls", "count"),
    ("bvh.build.self_s", "s"), ("bvh.query.self_s", "s"), ("bvh.queries", "count"),
    ("bvh.triangles", "count"),
    ("metrics.report.self_s", "s"), ("metrics.p2f.self_s", "s"), ("metrics.hd.self_s", "s"),
    ("metrics.jsd.self_s", "s"), ("losses.chamfer.self_s", "s"),
    *[(f"model.{name}.fwd_s", "s") for name in MLP_NAMES],
    *[(f"model.{stage}.self_s", "s") for stage in MODEL_STAGES],
    ("model.forward.self_s", "s"),
    ("losses.chamfer_loss.self_s", "s"), ("losses.normal_loss.self_s", "s"),
    ("autodiff.backward.self_s", "s"), ("autodiff.graph_nodes", "count"),
    ("autodiff.adam.self_s", "s"),
    ("trainer.train.self_s", "s"), ("trainer.example_losses.self_s", "s"),
    ("trainer.augment.self_s", "s"), ("trainer.steps", "count"),
    ("trainer.examples", "count"),
    ("trainer.upsample_cloud.self_s", "s"), ("trainer.build_dataset.self_s", "s"),
    ("io.read.self_s", "s"), ("io.read.bytes", "bytes"),
    ("io.write.self_s", "s"), ("io.write.bytes", "bytes"),
    ("cli.other_s", "s"), ("trace.hooks_s", "s"), ("trace.op_wall_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
    ("trace.missing", "count"), ("trace.unfired", "count"),
]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.fired: set[str] = set()
        self.hook_errors: list[str] = []

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - children[i]
        return out


def _points(x) -> int:
    return len(getattr(x, "points", x))


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _graph_nodes(loss) -> int:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _poisson_counts(args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    oversample = args[3] if len(args) > 3 else kwargs.get("oversample", 4)
    return {"sampling.poisson.candidates": max(n * oversample, n),
            "sampling.poisson.kept": len(result)}


def _upsample_counts(args, kwargs, result):
    meta = result.metadata
    return {"analytic.upsample.points_in": _points(args[0]),
            "analytic.upsample.points_out": len(result.points),
            "analytic.degenerate_frames": meta.get("degenerate_frames", 0),
            "analytic.degenerate_fits": meta.get("degenerate_fits", 0)}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: dotted path, span name, optional counter hook."""

    path: str
    span: str | Callable
    expect: frozenset
    hook: Callable | None = None


TARGETS = [
    Target("pugeo.io.read_xyz", "io.read", ALL - BUILD,
           lambda a, k, r: {"io.read.bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    Target("pugeo.io.read_mesh", "io.read", EVAL | BUILD,
           lambda a, k, r: {"io.read.bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    Target("pugeo.io.write_xyz", "io.write", UPSAMPLE | BUILD,
           lambda a, k, r: {"io.write.bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    Target("pugeo.model.save_model", "io.write", TRAIN,
           lambda a, k, r: {"io.write.bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    Target("pugeo.trainer.upsample_cloud", "trainer.upsample_cloud", UPSAMPLE),
    Target("pugeo.trainer.build_dataset", "trainer.build_dataset", BUILD),
    Target("pugeo.trainer.train", "trainer.train", TRAIN),
    Target("pugeo.trainer._example_losses", "trainer.example_losses", TRAIN,
           lambda a, k, r: {"trainer.examples": 1}),
    Target("pugeo.trainer.augment_example", "trainer.augment", TRAIN),
    Target("pugeo.sampling.farthest_point_sample", "sampling.fps", UPSAMPLE | BUILD,
           lambda a, k, r: {"sampling.fps.calls": 1,
                            "sampling.fps.candidates": _points(_arg(a, k, 0, "cloud")),
                            "sampling.fps.picks": len(r)}),
    Target("pugeo.sampling.fuse_patches", "sampling.fuse", UPSAMPLE,
           lambda a, k, r: {"sampling.fuse.candidates":
                            sum(_points(c) for c in _arg(a, k, 0, "clouds")),
                            "sampling.fuse.kept": len(r)}),
    Target("pugeo.sampling.extract_patches", "sampling.patches", UPSAMPLE,
           lambda a, k, r: {"sampling.patches.count": len(r),
                            "sampling.patches.points": sum(len(p.indices) for p in r)}),
    Target("pugeo.sampling.NeighborIndex.__init__", "sampling.knn", ALL,
           lambda a, k, r: {"sampling.knn.builds": 1}),
    Target("pugeo.sampling.NeighborIndex.knn", "sampling.knn", UPSAMPLE | BUILD,
           lambda a, k, r: {"sampling.knn.queries": 1}),
    Target("pugeo.sampling.NeighborIndex.knn_batch", "sampling.knn", ALL - BUILD,
           lambda a, k, r: {"sampling.knn.queries": len(r)}),
    Target("pugeo.sampling.poisson_disk_sample", "sampling.poisson", BUILD, _poisson_counts),
    Target("pugeo.analytic.upsample_analytic", "analytic.upsample", UPSAMPLE,
           _upsample_counts),
    Target("pugeo.geometry.estimate_frame", "geometry.frame", UPSAMPLE,
           lambda a, k, r: {"geometry.frame.calls": 1}),
    Target("pugeo.geometry.fit_fundamental_forms", "geometry.forms", UPSAMPLE,
           lambda a, k, r: {"geometry.forms.calls": 1}),
    Target("pugeo.bvh.TriangleBVH.__init__", "bvh.build", EVAL,
           lambda a, k, r: {"bvh.triangles": len(_arg(a, k, 1, "mesh").triangles)}),
    Target("pugeo.bvh.TriangleBVH.distances", "bvh.query", EVAL,
           lambda a, k, r: {"bvh.queries": len(r)}),
    Target("pugeo.metrics.report_metrics", "metrics.report", EVAL),
    Target("pugeo.metrics.metric_p2f", "metrics.p2f", EVAL),
    Target("pugeo.metrics.metric_hd", "metrics.hd", EVAL),
    Target("pugeo.metrics.metric_jsd", "metrics.jsd", EVAL),
    Target("pugeo.losses.chamfer", "losses.chamfer", EVAL),
    Target("pugeo.losses.chamfer_loss", "losses.chamfer_loss", TRAIN),
    Target("pugeo.losses.coarse_normal_loss_graph", "losses.normal_loss", TRAIN),
    Target("pugeo.losses.refined_normal_loss_graph", "losses.normal_loss", TRAIN),
    Target("pugeo.autodiff.backward", "autodiff.backward", TRAIN,
           lambda a, k, r: {"autodiff.graph_nodes": _graph_nodes(_arg(a, k, 0, "loss"))}),
    Target("pugeo.autodiff.Adam.step", "autodiff.adam", TRAIN,
           lambda a, k, r: {"trainer.steps": 1}),
    Target("pugeo.autodiff.Mlp.__call__", lambda a, k: f"model.{a[0].name}", TRAIN),
    Target("pugeo.model.PUGeoNet.forward", "model.forward", TRAIN),
    Target("pugeo.model.PUGeoNet.stn_forward", "model.stn", TRAIN),
    Target("pugeo.model.PUGeoNet.extract_features", "model.features", TRAIN),
    Target("pugeo.model.PUGeoNet.recalibrate", "model.recalibrate", TRAIN),
    Target("pugeo.model.PUGeoNet.expand", "model.expand", TRAIN),
    Target("pugeo.model.PUGeoNet.refine", "model.refine", TRAIN),
]


def _resolve(path: str):
    """(owner, attribute, object) for a dotted path; raises LookupError."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    else:
        raise LookupError(f"no importable module in {path!r}")
    obj = owner
    for i, part in enumerate(parts[cut:]):
        owner = obj
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise LookupError(f"{'.'.join(parts[:cut + i])} has no attribute {part!r}") from None
    if not callable(obj):
        raise LookupError(f"{path} is not callable")
    return owner, parts[-1], obj


def _bindings(owner, attr: str, obj) -> list[tuple[object, str]]:
    if isinstance(owner, type):
        return [(owner, attr)]
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "pugeo" or name.startswith("pugeo.")):
            continue
        for key, value in list(vars(module).items()):
            if value is obj:
                out.append((module, key))
    return out


def _wrap(fn, target: Target, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = target.span(args, kwargs) if callable(target.span) else target.span
        tracer.fired.add(target.path)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if target.hook is not None:
            hook = tracer.begin("trace.hooks")
            try:
                for key, value in target.hook(args, kwargs, result).items():
                    tracer.counts[key] += value
            except Exception as exc:  # a counter must never break the traced call
                tracer.hook_errors.append(f"{target.path}: {type(exc).__name__}: {exc}")
            finally:
                tracer.end(hook)
        return result
    return wrapper


_ABSENT = object()


class Installation:
    """Wrappers installed for one tracer; `remove` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.missing: dict[str, str] = {}
        self.bound: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        for target in TARGETS:
            try:
                owner, attr, obj = _resolve(target.path)
            except LookupError as exc:
                self.missing[target.path] = str(exc)
                continue
            wrapper = _wrap(obj, target, tracer)
            bindings = _bindings(owner, attr, obj)
            for holder, key in bindings:
                self._saved.append((holder, key, vars(holder).get(key, _ABSENT)))
                setattr(holder, key, wrapper)
            self.bound[target.path] = len(bindings)

    def remove(self) -> None:
        for holder, key, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(holder, key)
            else:
                setattr(holder, key, original)
        self._saved.clear()

    def unfired(self, tracer: Tracer, workload: str) -> list[str]:
        return [t.path for t in TARGETS
                if workload in t.expect and t.path in self.bound and t.path not in tracer.fired]

    def unexpected_missing(self, workload: str) -> list[str]:
        return [t.path for t in TARGETS if workload in t.expect and t.path in self.missing]


# spans whose own time is glue around the layer spans, not work of a layer
GLUE_SPANS = ("cli", "trace.hooks", "trainer.upsample_cloud", "trainer.train",
              "trainer.build_dataset", "metrics.report")


def coverage(tracer: Tracer) -> float:
    """Share of the traced calls' wall time spent in a layer span's own time."""
    roots = sum(end - start for name, start, end, _ in tracer.spans if name == "cli")
    if roots <= 0:
        return 0.0
    self_times = tracer.self_times()
    return 1.0 - sum(self_times.get(name, 0.0) for name in GLUE_SPANS) / roots


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """Wrappers installed and a root ``cli`` span open for one CLI call."""
    installation = Installation(tracer)
    root = tracer.begin("cli")
    try:
        yield installation
    finally:
        tracer.end(root)
        installation.remove()


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation self times and counts, keyed by the LAYER_METRICS names."""
    values = {name: 0.0 for name, _ in LAYER_METRICS}
    for span, seconds in tracer.self_times().items():
        if span == "cli":
            key = "cli.other_s"
        elif span == "trace.hooks":
            key = "trace.hooks_s"
        elif span.startswith("model.") and span[len("model."):] in MLP_NAMES:
            key = f"{span}.fwd_s"
        else:
            key = f"{span}.self_s"
        values[key] = values.get(key, 0.0) + seconds / ops
    for key, count in tracer.counts.items():
        values[key] = values.get(key, 0.0) + count / ops
    return values
