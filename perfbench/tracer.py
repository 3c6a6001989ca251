"""Per-layer tracing of scanmend, done from outside the package.

``Tracer.install`` wraps, at runtime, the public functions of scanmend's
modules and the methods of its layers.  Each call becomes a span (name,
start, end, parent) kept in memory.  A layer's backward pass is timed by
wrapping the closure on every tensor node that the layer's forward created.
Any other closure in a graph is wrapped as ``nn.tensor.op.bwd`` when
``Tensor.backward`` starts, so the self time of ``nn.tensor.backward`` is
the graph walk.

Spans are grouped by the timed chunk they ran in.  A span's self time is
its duration minus its children's.  The tracer's own work, such as wrapping
closures and counting, is charged to no span.  Work counts that are derived
from shapes and outputs carry a unit ending in ``-computed``; a run checks
that they repeat exactly from chunk to chunk.

``METRICS`` lists every per-layer metric.  Each entry names the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter


def rss_hwm_mb() -> float:
    """High-water mark of this process's resident set, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Fields of a span record.
NAME, START, END, PARENT, CHILD, BOOK, CHUNK = range(7)

# Top-level spans (direct children of a chunk) whose memory high-water
# mark is reported.  The seven train_gan modes share one entry.
TOP_SPANS = (
    "autoencoder.train_ae",
    "autoencoder.reconstruction_emd",
    "gan.train_gan",
    "gan.complete",
    "metrics.evaluate",
    "synth.make_dataset",
    "synth.save_dataset",
    "synth.load_dataset",
    "nn.checkpoint.load",
    "ply.write",
    "ply.read",
    "metrics.jsd",
    "metrics.sweep",
)


def _family(span_name: str) -> str:
    return "gan.train_gan" if span_name.startswith("gan.train_gan.") else span_name


@dataclass
class ChunkStats:
    """Span totals of one traced chunk."""

    dur: float = 0.0
    uncovered: float = 0.0
    total: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.chunk = -1
        self.counts: list = []  # per chunk: counter name -> value
        self.hwm_after: dict = {}  # top-level span family -> MB after its first end
        self._undo: list = []

    # ---- spans and counters ----

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, 0.0, 0.0, self.chunk])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = clock()
        span = self.spans[idx]
        span[END] = end
        self._stack.pop()
        if span[PARENT] >= 0:
            parent = self.spans[span[PARENT]]
            parent[CHILD] += end - span[START]
            if parent[NAME] == "chunk":
                fam = _family(span[NAME])
                if fam not in self.hwm_after:
                    self.hwm_after[fam] = rss_hwm_mb()

    def book(self, t0: float) -> None:
        """Charge the tracer's own work since t0 to no span."""
        if self._stack:
            dt = clock() - t0
            span = self.spans[self._stack[-1]]
            span[CHILD] += dt
            span[BOOK] += dt

    def count(self, name: str, value: float) -> None:
        if self.chunk >= 0:
            self.counts[self.chunk][name] += value

    def begin_chunk(self) -> None:
        self.chunk += 1
        self.counts.append(defaultdict(float))
        self._chunk_span = self.open("chunk")

    def end_chunk(self) -> None:
        self.close(self._chunk_span)

    # ---- wrapping ----

    def _wrap(self, orig, name, after=None, on_error=None):
        """A traced stand-in for `orig`; `name` is a string or a function of
        (args, kwargs).  `after(out, *args, **kwargs)` records counts."""
        tracer = self
        name_of = name if callable(name) else None

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer.open(name_of(args, kwargs) if name_of else name)
            try:
                out = orig(*args, **kwargs)
            except BaseException as e:
                tracer.close(idx)
                if on_error is not None:
                    on_error(e)
                raise
            tracer.close(idx)
            if after is not None:
                t0 = clock()
                after(out, *args, **kwargs)
                tracer.book(t0)
            return out

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def function(self, module, attr: str, name, after=None, on_error=None) -> None:
        """Wrap a module-level function in every scanmend module that binds it."""
        orig = getattr(module, attr)
        traced = self._wrap(orig, name, after, on_error)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("scanmend") and mod.__dict__.get(attr) is orig:
                self._replace(mod, attr, traced)

    def method(self, cls, attr: str, name, after=None) -> None:
        self._replace(cls, attr, self._wrap(cls.__dict__[attr], name, after))

    def _closure(self, fn, label: str, extra=None):
        tracer = self

        def traced(g):
            idx = tracer.open(label)
            try:
                fn(g)
            finally:
                tracer.close(idx)
            if extra is not None:
                t0 = clock()
                extra()
                tracer.book(t0)

        traced.traced = True
        return traced

    def _wrap_new_nodes(self, out, inp, label: str, extra=None) -> None:
        """Wrap the closures of the nodes between `out` and the input `inp`;
        `extra` runs after the closure of `out` itself."""
        seen = {id(inp)}
        stack = [out]
        while stack:
            node = stack.pop()
            fn = node._backward
            if id(node) in seen or fn is None or getattr(fn, "traced", False):
                continue
            seen.add(id(node))
            node._backward = self._closure(fn, label, extra if node is out else None)
            stack.extend(node._parents)

    def _label_graph(self, root) -> None:
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            fn = node._backward
            if fn is not None and not getattr(fn, "traced", False):
                node._backward = self._closure(fn, "nn.tensor.op.bwd")
            stack.extend(node._parents)

    def _layer(self, cls, label, fwd_counts=None, bwd_counts=None) -> None:
        """Trace a layer's forward; its backward through its new nodes.

        `label` is a string or a function of the train flag.
        """
        label_of = label if callable(label) else (lambda train: label)

        def after(out, layer, x, train):
            if fwd_counts is not None:
                for key, value in fwd_counts(layer, x):
                    self.count(key, value)
            extra = None
            if bwd_counts is not None:
                pairs = bwd_counts(layer, x)

                def extra():
                    for key, value in pairs:
                        self.count(key, value)

            self._wrap_new_nodes(out, x, label_of(train) + ".bwd", extra)

        self.method(cls, "forward", lambda a, k: label_of(a[2]) + ".fwd", after)

    def install(self) -> None:
        from scanmend import autoencoder, distances, gan, metrics, ply, pointset, synth
        from scanmend.nn import checkpoint, layers, lossops, optim, tensor

        def size_of(key):
            return lambda out, path, *a, **k: self.count(key, os.path.getsize(path))

        def scan_counts(out, mesh, cameras):
            rays = sum(cam.res * cam.res for cam in cameras)
            self.count("synth.rays", rays)
            self.count("synth.ray_tri_tests", rays * mesh.faces.shape[0])
            self.count("synth.hits", out.n)

        def scan_error(e):
            if isinstance(e, synth.ScanError):
                self.count("synth.scan_errors", 1)

        def hausdorff_pairs(out, source, completion, *a, **k):
            s, c = np.shape(source), completion.data.shape
            batch = c[0] if len(c) == 3 else 1
            self.count("nn.lossops.soft_hausdorff.pairs", batch * s[-2] * c[-2])

        def ae_steps(out, clouds, spec, cfg):
            self.count("autoencoder.steps", cfg.epochs * math.ceil(len(clouds) / cfg.batch_size))

        def gan_steps(out, clean, partial, mode, cfg, **_):
            self.count("gan.steps", len(out.curves) * math.ceil(len(partial) / cfg.batch_size))
            self.count("gan.restores", int(out.diverged))

        def gan_mode(args, kwargs):
            mode = args[2] if len(args) > 2 else kwargs["mode"]
            return "gan.train_gan." + gan.TrainingMode(mode).value

        fn = self.function
        fn(synth, "make_dataset", "synth.make_dataset")
        fn(synth, "save_dataset", "synth.save_dataset")
        fn(synth, "load_dataset", "synth.load_dataset")
        fn(synth, "generate_shape", "synth.generate_shape", on_error=scan_error)
        fn(synth, "virtual_scan", "synth.virtual_scan", after=scan_counts)
        fn(synth, "corrupt", "synth.corrupt")
        fn(pointset, "farthest_point_indices", "pointset.fps")
        fn(ply, "write_ply", "ply.write", after=size_of("ply.write.bytes"))
        fn(ply, "read_ply", "ply.read", after=size_of("ply.read.bytes"))
        fn(checkpoint, "load_bundle", "nn.checkpoint.load", after=size_of("nn.checkpoint.load.bytes"))
        fn(optim, "adam_step", "nn.optim.adam",
           after=lambda out, state, params, grads: self.count("nn.optim.adam.elems", params.size))
        fn(lossops, "emd_loss", "nn.lossops.emd_loss")
        fn(lossops, "soft_hausdorff_loss", "nn.lossops.soft_hausdorff", after=hausdorff_pairs)
        fn(distances, "emd", "distances.emd")
        fn(distances, "linear_sum_assignment", "distances.lsa")
        fn(distances, "hausdorff_directed", "distances.hausdorff_directed")
        fn(distances, "chamfer", "distances.chamfer")
        fn(autoencoder, "train_ae", "autoencoder.train_ae", after=ae_steps)
        fn(autoencoder, "reconstruction_emd", "autoencoder.reconstruction_emd")
        fn(gan, "train_gan", gan_mode, after=gan_steps)
        fn(metrics, "evaluate_completions", "metrics.evaluate")
        fn(metrics, "jsd", "metrics.jsd")
        fn(metrics, "incompleteness_sweep", "metrics.sweep")
        self.method(gan.CompletionPipeline, "complete_batch", "gan.complete")
        self.method(layers.Network, "forward", lambda a, k: f"nn.network.{a[0].name}.fwd")
        for attr in ("param_vector", "grad_vector", "set_param_vector"):
            self.method(layers.Network, attr, "nn.network.params")

        def gemm(key):
            def fwd(layer, x):
                return [(key, 2 * (x.data.size // layer.n_in) * layer.n_in * layer.n_out)]

            def bwd(layer, x):  # input gradient and weight gradient: two GEMMs
                return [(key, 4 * (x.data.size // layer.n_in) * layer.n_in * layer.n_out)]

            return fwd, bwd

        self._layer(layers.PointwiseDense, "nn.pointwise", *gemm("nn.pointwise.flops"))
        self._layer(layers.Dense, "nn.dense", *gemm("nn.dense.flops"))
        # Minimum traffic: read x and write y forward; read g and x-hat and
        # write the input gradient backward; float64 throughout.
        self._layer(
            layers.BatchNorm,
            lambda train: "nn.batchnorm.train" if train else "nn.batchnorm.infer",
            lambda layer, x: [("nn.batchnorm.bytes", 16 * x.data.size)],
            lambda layer, x: [("nn.batchnorm.bytes", 24 * x.data.size)],
        )
        self._layer(layers.ReLU, "nn.relu")
        self._layer(
            layers.MaxPool,
            "nn.maxpool",
            lambda layer, x: [("nn.maxpool.ties", layer.last_tie_count)],
        )

        orig_backward = tensor.Tensor.__dict__["backward"]

        def backward(t, upstream=None):
            t0 = clock()
            self._label_graph(t)
            self.book(t0)
            idx = self.open("nn.tensor.backward")
            try:
                orig_backward(t, upstream)
            finally:
                self.close(idx)

        self._replace(tensor.Tensor, "backward", backward)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ---- results ----

    def chunk_stats(self) -> list:
        stats = [ChunkStats(counts=self.counts[c]) for c in range(self.chunk + 1)]
        for name, start, end, _, child, book, chunk in self.spans:
            if chunk < 0:
                continue
            st = stats[chunk]
            dur = end - start
            if name == "chunk":
                st.dur = dur
                st.uncovered = dur - (child - book)
                continue
            st.total[name] += dur
            st.self_s[name] += dur - child
            st.calls[name] += 1
        return stats

    def dump(self, path: str) -> None:
        """Write every span as [name, start_s, dur_s, self_s, parent, chunk]."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, child, _, chunk in self.spans:
                row = [name, round(start - t0, 9), round(end - start, 9),
                       round(end - start - child, 9), parent, chunk]
                f.write(json.dumps(row) + "\n")


# ---- the per-layer metrics ----


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move
    value: object = None  # ChunkStats -> float, or None for a run-level metric
    present: object = None  # ChunkStats -> bool


def _span(name, key, attr, unit, moves, better="lower"):
    return Metric(name, unit, better, moves,
                  lambda c: getattr(c, attr).get(key, 0.0), lambda c: key in c.calls)


def _count(name, key, span, unit, moves, better="lower"):
    return Metric(name, unit, better, moves,
                  lambda c: c.counts.get(key, 0.0), lambda c: span in c.calls)


def _self_matching(name, pattern, moves):
    def value(c):
        return sum(v for k, v in c.self_s.items() if fnmatch.fnmatchcase(k, pattern))

    def present(c):
        return any(fnmatch.fnmatchcase(k, pattern) for k in c.calls)

    return Metric(name, "s", "lower", moves, value, present)


def _run(name, unit, moves, better="lower"):
    return Metric(name, unit, better, moves)


SCAN = "items_per_s on scan-complete-score"
AE = "items_per_s on ae-train"
GAN = "items_per_s on gan-ablate"
TRAIN = "items_per_s on ae-train and gan-ablate"
MODES = ("default", "partial_ae", "emd_recon", "no_gan", "no_recon",
         "supervised_emd", "supervised_emd_gan")

METRICS = [
    _span("synth.virtual_scan.self_s", "synth.virtual_scan", "self_s", "s", SCAN),
    _count("synth.rays", "synth.rays", "synth.virtual_scan", "count-computed", SCAN),
    _count("synth.ray_tri_tests", "synth.ray_tri_tests", "synth.virtual_scan",
           "count-computed", SCAN),
    Metric("synth.hit_ratio", "ratio", "higher", SCAN + " (rays that find a surface)",
           lambda c: c.counts.get("synth.hits", 0.0) / c.counts["synth.rays"]
           if c.counts.get("synth.rays") else 0.0,
           lambda c: "synth.virtual_scan" in c.calls),
    _span("synth.corrupt.self_s", "synth.corrupt", "self_s", "s", SCAN),
    _span("synth.corrupt.calls", "synth.corrupt", "calls", "count", SCAN),
    _count("synth.scan_errors", "synth.scan_errors", "synth.generate_shape", "count", SCAN),
    _span("pointset.fps.self_s", "pointset.fps", "self_s", "s", SCAN),
    _span("ply.write.s", "ply.write", "total", "s", SCAN),
    _count("ply.write.bytes", "ply.write.bytes", "ply.write", "B-computed", SCAN),
    _span("ply.read.s", "ply.read", "total", "s", SCAN),
    _count("ply.read.bytes", "ply.read.bytes", "ply.read", "B-computed", SCAN),
    _span("nn.checkpoint.load.s", "nn.checkpoint.load", "total", "s", SCAN),
    _count("nn.checkpoint.load.bytes", "nn.checkpoint.load.bytes", "nn.checkpoint.load",
           "B-computed", SCAN),
    _span("nn.pointwise.fwd_s", "nn.pointwise.fwd", "total", "s", AE),
    _span("nn.pointwise.bwd_s", "nn.pointwise.bwd", "total", "s", AE),
    _count("nn.pointwise.flops", "nn.pointwise.flops", "nn.pointwise.fwd", "flop-computed", AE),
    _span("nn.batchnorm.train.fwd_s", "nn.batchnorm.train.fwd", "total", "s", AE),
    _span("nn.batchnorm.train.bwd_s", "nn.batchnorm.train.bwd", "total", "s", AE),
    _span("nn.batchnorm.infer.fwd_s", "nn.batchnorm.infer.fwd", "total", "s",
          "complete_ms.p50 on scan-complete-score"),
    Metric("nn.batchnorm.bytes", "B-computed", "lower", AE,
           lambda c: c.counts.get("nn.batchnorm.bytes", 0.0),
           lambda c: "nn.batchnorm.train.fwd" in c.calls or "nn.batchnorm.infer.fwd" in c.calls),
    _span("nn.relu.fwd_s", "nn.relu.fwd", "total", "s", AE),
    _span("nn.relu.bwd_s", "nn.relu.bwd", "total", "s", AE),
    _span("nn.maxpool.fwd_s", "nn.maxpool.fwd", "total", "s", AE),
    _span("nn.maxpool.bwd_s", "nn.maxpool.bwd", "total", "s", AE),
    _count("nn.maxpool.ties", "nn.maxpool.ties", "nn.maxpool.fwd", "count", AE),
    _span("nn.dense.fwd_s", "nn.dense.fwd", "total", "s", GAN),
    _span("nn.dense.bwd_s", "nn.dense.bwd", "total", "s", GAN),
    _count("nn.dense.flops", "nn.dense.flops", "nn.dense.fwd", "flop-computed", GAN),
    _self_matching("nn.network.check_s", "nn.network.*.fwd",
                   AE + "; complete_ms.p50 on scan-complete-score"),
    _span("nn.network.params_s", "nn.network.params", "total", "s", TRAIN),
    _span("nn.network.encoder.fwd_s", "nn.network.encoder.fwd", "total", "s",
          AE + "; peak_rss_mb on gan-ablate (one-off encoding of the training set)"),
    _span("nn.network.decoder.fwd_s", "nn.network.decoder.fwd", "total", "s", TRAIN),
    _span("nn.network.generator.fwd_s", "nn.network.generator.fwd", "total", "s", GAN),
    _span("nn.network.discriminator.fwd_s", "nn.network.discriminator.fwd", "total", "s", GAN),
    _span("nn.tensor.backward.s", "nn.tensor.backward", "total", "s", TRAIN),
    _span("nn.tensor.backward.self_s", "nn.tensor.backward", "self_s", "s",
          TRAIN + " (the graph walk)"),
    _span("nn.optim.adam.s", "nn.optim.adam", "total", "s", TRAIN),
    _span("nn.optim.adam.calls", "nn.optim.adam", "calls", "count", TRAIN),
    _count("nn.optim.adam.elems", "nn.optim.adam.elems", "nn.optim.adam", "count-computed", TRAIN),
    _span("nn.lossops.emd_loss.self_s", "nn.lossops.emd_loss", "self_s", "s",
          TRAIN + "; no change on scan-complete-score"),
    _span("nn.lossops.soft_hausdorff.s", "nn.lossops.soft_hausdorff", "total", "s",
          GAN + " (default, partial_ae, no_gan); no change on ae-train or scan-complete-score"),
    _count("nn.lossops.soft_hausdorff.pairs", "nn.lossops.soft_hausdorff.pairs",
           "nn.lossops.soft_hausdorff", "count-computed", GAN),
    _span("distances.emd.s", "distances.emd", "total", "s",
          TRAIN + " (emd_recon, supervised_emd, supervised_emd_gan); " + SCAN + " (scoring)"),
    _span("distances.emd.calls", "distances.emd", "calls", "count-computed", TRAIN),
    _span("distances.lsa.s", "distances.lsa", "total", "s", TRAIN),
    _span("distances.lsa.calls", "distances.lsa", "calls", "count-computed", TRAIN),
    _span("distances.hausdorff_directed.s", "distances.hausdorff_directed", "total", "s",
          GAN + " (per-sample hard_HL curve)"),
    _span("distances.hausdorff_directed.calls", "distances.hausdorff_directed", "calls",
          "count", GAN),
    _span("distances.chamfer.s", "distances.chamfer", "total", "s", SCAN),
    _span("autoencoder.train_ae.s", "autoencoder.train_ae", "total", "s", AE),
    _count("autoencoder.steps", "autoencoder.steps", "autoencoder.train_ae", "count-computed", AE),
    *[_span(f"gan.train_gan.{m}.s", f"gan.train_gan.{m}", "total", "s", GAN) for m in MODES],
    Metric("gan.steps", "count-computed", "lower", GAN,
           lambda c: c.counts.get("gan.steps", 0.0),
           lambda c: any(k.startswith("gan.train_gan.") for k in c.calls)),
    Metric("gan.restores", "count", "lower", GAN + " (a restore ends a mode early)",
           lambda c: c.counts.get("gan.restores", 0.0),
           lambda c: any(k.startswith("gan.train_gan.") for k in c.calls)),
    _span("gan.complete.s", "gan.complete", "total", "s", "complete_ms.p50 and " + SCAN),
    _span("metrics.evaluate.s", "metrics.evaluate", "total", "s", SCAN),
    _span("metrics.jsd.s", "metrics.jsd", "total", "s", SCAN),
    _span("metrics.sweep.s", "metrics.sweep", "total", "s", SCAN),
    _run("mem.rss_hwm_mb.setup", "MB", "peak_rss_mb on every workload"),
    *[_run(f"mem.rss_hwm_mb.{s}", "MB", "peak_rss_mb on the workload that runs it")
      for s in TOP_SPANS],
    _run("trace.overhead_ratio", "ratio",
         "none: untraced over traced items_per_s, the tracer's own cost"),
    _run("trace.uncovered_share", "ratio",
         "none: share of the timed chunks outside every top-level span"),
]


def layer_metrics(stats: list, run_values: dict) -> tuple:
    """(values, absent, mismatches) for every entry of METRICS.

    A chunk metric is the median over traced chunks.  `run_values` supplies
    the run-level ones.  An absent metric reads 0; `absent` says why.
    """
    values, absent, mismatches = {}, {}, []
    for m in METRICS:
        if m.value is None:
            values[m.name] = float(run_values.get(m.name, 0.0))
            if m.name not in run_values:
                absent[m.name] = "the span never ran at the top level of a timed chunk"
            continue
        per_chunk = [float(m.value(c)) for c in stats]
        values[m.name] = statistics.median(per_chunk) if per_chunk else 0.0
        if not any(m.present(c) for c in stats):
            absent[m.name] = "this workload does not run the layer in its timed chunks"
        elif m.unit.endswith("-computed") and len(set(per_chunk)) > 1:
            mismatches.append(f"{m.name} differs between chunks: {per_chunk}")
    return values, absent, mismatches


def span_table(stats: list) -> list:
    """(name, total_s, self_s, calls) per span name, medians over chunks."""
    names = sorted({n for c in stats for n in c.calls})
    rows = []
    for n in names:
        rows.append((
            n,
            statistics.median(c.total.get(n, 0.0) for c in stats),
            statistics.median(c.self_s.get(n, 0.0) for c in stats),
            statistics.median(c.calls.get(n, 0) for c in stats),
        ))
    return rows
