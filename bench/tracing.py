"""Per-layer tracing of fvig from outside the program.

The tracer replaces public functions and methods of the fvig modules with
timing wrappers and puts the originals back when it is uninstalled; the
program itself carries no tracing code. Spans are kept in memory as
(name, start, end, parent) and written out once at the end of a run. A
span's self time is its duration minus the time its child spans cover.

Backward time is split by op: every tensor an op returns gets its backward
rule wrapped, so the rule's run is recorded as a ``tensor.<op>.bwd`` span
under ``tensor.Tensor.backward``.

Besides spans, the tracer keeps counts that must repeat exactly from run
to run for the same code and shapes: calls, output bytes, matmul flops,
gathered rows, bytes allocated at peak by the distance kernel, the
candidates neighbour selection keeps over those the graph module sorts,
and the size of the autodiff graph behind the first loss (or, with no
loss, the first logits).

The tracer's own work (its hooks, the graph walk, the allocation
measurement) runs after the span it follows has closed, and its time is
taken out of the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, module, attribute path); the span name is also the metric prefix
LAYERS = [
    ("graph.pairwise_sq_euclidean", "fvig.graph", "pairwise_sq_euclidean"),
    ("graph.build_graph", "fvig.graph", "build_graph"),
    ("cluster.aggregate_multihead", "fvig.cluster", "aggregate_multihead"),
    ("cluster.dispatch", "fvig.cluster", "dispatch"),
    ("tensor.Tensor.backward", "fvig.tensor", "Tensor.backward"),
    ("saliency.channel_saliency_forward", "fvig.saliency", "channel_saliency_forward"),
    ("model.patchify", "fvig.model", "patchify"),
    ("model.NodeNorm", "fvig.model", "NodeNorm.__call__"),
    ("model.max_relative_aggregate", "fvig.model", "max_relative_aggregate"),
    ("model.FfnBlock.forward", "fvig.model", "FfnBlock.forward"),
    ("train.cross_entropy", "fvig.train", "cross_entropy"),
    ("optim.AdamW.step", "fvig.optim", "AdamW.step"),
    ("train.eval_accuracy", "fvig.train", "eval_accuracy"),
    ("data.synth_dataset", "fvig.data", "synth_dataset"),
    ("data.load_dataset", "fvig.data", "load_dataset"),
    ("data.read_ppm", "fvig.data", "read_ppm"),
    ("data.bilinear_resize", "fvig.data", "bilinear_resize"),
    ("checkpoint.save_checkpoint", "fvig.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "fvig.checkpoint", "load_checkpoint"),
    ("metrics.predict_probabilities", "fvig.metrics", "predict_probabilities"),
    ("metrics.report_from_scores", "fvig.metrics", "report_from_scores"),
]

# ops reported one by one; every other differentiable op is pooled as "other"
OPS = [
    "matmul", "gather_neighbors", "scatter_add_neighbors", "cosine_similarity", "softmax_lastdim",
    "max", "multiply", "broadcast_add", "divide", "reshape", "concat_lastdim", "sigmoid", "leaky_relu",
]
OTHER_OPS = ["subtract", "power", "exp", "log", "sum", "mean", "transpose_last2", "slice_lastdim", "dropout"]
TENSOR_METHODS = {"max", "sum", "mean"}  # defined on Tensor rather than as module functions

# spans that stand for the benchmark's own phases; their self time is the
# part of a phase that no layer span covers
ROOTS = ["bench.setup", "bench.task"]

COUNTS = [
    ("graph.dist_bytes", "bytes"),
    ("graph.rank_kept_ratio", "ratio"),
    ("tensor.matmul.flops", "flop"),
    ("tensor.gather_neighbors.rows", "rows"),
    ("tensor.graph_nodes_per_step", "count"),
    ("tensor.graph_bytes_held", "bytes"),
]


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit)."""
    specs = []
    for name in [span for span, _, _ in LAYERS] + ROOTS:
        specs += [(f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    for op in OPS + ["other"]:
        specs += [
            (f"tensor.{op}.fwd_s", "s"),
            (f"tensor.{op}.bwd_s", "s"),
            (f"tensor.{op}.calls", "count"),
            (f"tensor.{op}.out_mb", "MB"),
        ]
    specs += COUNTS
    specs += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return specs


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, original, replacement) -> None:
        """Rebind ``original`` in every fvig module that imported it by name."""
        for name, module in list(sys.modules.items()):
            if name != "fvig" and not name.startswith("fvig."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def wrap(self, module_name: str, path: str, make_wrapper) -> bool:
        """Wrap ``module.path`` (a function, or ``Class.method``) with ``make_wrapper(original)``.

        Returns False, wrapping nothing, when the program no longer has it.
        """
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            return False
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self.set(owner, attr, wrapper)
        else:
            self.replace_function(original, wrapper)
        return True

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def graph_footprint(root) -> tuple[int, int]:
    """(op nodes, bytes held) of the autodiff graph behind ``root``.

    Nodes are the tensors that carry a backward rule. Bytes are the unique
    buffers reachable from the root through those tensors' data and the
    arrays their backward rules captured; parameters are excluded, since
    they live whether or not a graph exists.
    """
    buffers: dict[int, int] = {}

    def hold(array: np.ndarray) -> None:
        while isinstance(array.base, np.ndarray):
            array = array.base
        buffers[id(array)] = array.nbytes

    nodes = 0
    seen: set[int] = set()
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        rule = t._backward_rule
        if rule is None:
            if not t.requires_grad:
                hold(t.data)
            continue
        nodes += 1
        hold(t.data)
        while hasattr(rule, "__wrapped__"):  # unwrap the tracer's own timing wrappers
            rule = rule.__wrapped__
        for cell in rule.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(value, np.ndarray):
                hold(value)
        stack.extend(t._parents)
    return nodes, sum(buffers.values())


class SortCounter:
    """Stands in for numpy inside ``fvig.graph`` and counts the elements it fully sorts.

    A partial selection (``argpartition``) is not a full sort, so a top-k
    that sorts only the kept candidates shows as a higher kept ratio.
    """

    def __init__(self, counts: dict[str, int]):
        self._counts = counts

    def __getattr__(self, name: str):
        value = getattr(np, name)
        setattr(self, name, value)  # later lookups skip __getattr__
        return value

    def argsort(self, a, *args, **kwargs):
        self._counts["rank.sorted"] += np.size(a)
        return np.argsort(a, *args, **kwargs)

    def sort(self, a, *args, **kwargs):
        self._counts["rank.sorted"] += np.size(a)
        return np.sort(a, *args, **kwargs)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_hidden: list[float] = []  # the tracer's own seconds inside each span
        self._stack = [-1]
        self.out_bytes: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.loss_graph: tuple[int, int] | None = None
        self.logits_graph: tuple[int, int] | None = None
        self.missing: list[str] = []  # layers the program no longer has; they read 0
        self._dist_peak: dict[tuple, int] = {}
        self._patches = Patches()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, out)`` runs once the span has closed."""
        nid = self._intern(name)
        names, starts, ends, parents, hidden, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.span_hidden, self._stack
        )
        clock = time.perf_counter
        untimed = self.untimed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            hidden.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                untimed(after, args, kwargs, out)
            return out

        return wrapper

    def untimed(self, hook, *args) -> None:
        """Run the tracer's own ``hook``, keeping its time out of the open span's self time."""
        start = time.perf_counter()
        try:
            hook(*args)
        finally:
            parent = self._stack[-1]
            if parent >= 0:
                self.span_hidden[parent] += time.perf_counter() - start

    def phase(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span of the benchmark."""
        return self.timed(name, fn)(*args)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        from fvig.tensor import Tensor

        p = self._patches
        for name, module, path in LAYERS:
            after = {
                "graph.pairwise_sq_euclidean": self._count_dist_bytes,
                "graph.build_graph": self._count_ranking,
                "train.cross_entropy": self._walk_loss,
            }.get(name)

            def make_wrapper(fn, name=name, after=after):
                # a hook gets the unwrapped function as its first argument
                return self.timed(name, fn, after and functools.partial(after, fn))

            if not p.wrap(module, path, make_wrapper):
                self.missing.append(name)
        for op in OPS + OTHER_OPS:
            path = f"Tensor.{op}" if op in TENSOR_METHODS else op
            if not p.wrap("fvig.tensor", path, lambda fn, op=op: self._wrap_op(op, fn, Tensor)):
                self.missing.append(f"tensor.{op}")
        p.wrap("fvig.model", "FViGModel.forward", self._walk_logits)
        graph = importlib.import_module("fvig.graph")
        p.set(graph, "np", SortCounter(self.counts))

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap_op(self, op: str, fn, tensor_type):
        label = op if op in OPS else "other"
        bwd_name = f"tensor.{op}.bwd"
        out_bytes, counts = self.out_bytes, self.counts

        def after(args, kwargs, out):
            if not isinstance(out, tensor_type) or any(out is a for a in args):
                return  # e.g. dropout in eval mode hands back its input
            out_bytes[label] += out.data.nbytes
            if op == "gather_neighbors":
                counts["tensor.gather_neighbors.rows"] += int(np.asarray(args[1]).size)
            rule = out._backward_rule
            if rule is None:
                return
            if op == "matmul":
                # one GEMM of the forward's size per operand that needs a gradient
                flops = 2 * out.data.size * out._parents[0].shape[-1]
                counts["tensor.matmul.flops"] += flops
                rule = self._count_flops(rule, flops * sum(p.requires_grad for p in out._parents))
            out._backward_rule = self.timed(bwd_name, rule)

        return self.timed(f"tensor.{op}", fn, after)

    def _count_flops(self, rule, flops: int):
        counts = self.counts

        @functools.wraps(rule)
        def counted(g, pending):
            counts["tensor.matmul.flops"] += flops
            return rule(g, pending)

        return counted

    def _count_dist_bytes(self, fn, args, kwargs, out):
        """Bytes the distance kernel allocates at its peak, as tracemalloc sees numpy's buffers.

        Measured on a second call of the (pure) kernel, once per input shape,
        so that tracemalloc never runs inside a timed span.
        """
        features = np.asarray(args[0] if args else kwargs["features"])
        key = (features.shape, features.dtype.str)
        if key not in self._dist_peak:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self._dist_peak[key] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        self.counts["graph.dist_bytes"] += self._dist_peak[key]

    def _count_ranking(self, fn, args, kwargs, out):
        # build_graph(features, k, alpha=None, dilation=1) ranks k*dilation
        # candidates per row and keeps every dilation-th of them; the
        # candidates sorted are counted by SortCounter
        dilation = kwargs["dilation"] if "dilation" in kwargs else (args[3] if len(args) > 3 else 1)
        b, n, k = out.shape
        self.counts["rank.kept"] += b * n * k * dilation

    def _walk_loss(self, fn, args, kwargs, out):
        if self.loss_graph is None:
            self.loss_graph = graph_footprint(out)

    def _walk_logits(self, forward):
        @functools.wraps(forward)
        def wrapper(*args, **kwargs):
            out = forward(*args, **kwargs)
            if self.logits_graph is None:
                self.untimed(self._walk_logits_once, out)
            return out

        return wrapper

    def _walk_logits_once(self, out) -> None:
        self.logits_graph = graph_footprint(out)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int32),
            "start": np.array(self.span_start),
            "end": np.array(self.span_end),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "hidden": np.array(self.span_hidden),
        }

    def save(self, path: Path) -> None:
        np.savez(path, **self.arrays())

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span name: (total self seconds, calls)."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration))
        self_s = duration - child_time - a["hidden"]
        k = len(self.names)
        return (
            np.bincount(a["name"], weights=self_s, minlength=k),
            np.bincount(a["name"], minlength=k),
        )

    def metrics(self, overhead_s: float) -> dict[str, float | int]:
        self_s, calls = self.self_times()
        ids = self._ids

        def total(names, values, cast=float):
            return cast(sum(values[ids[n]] for n in names if n in ids))

        out: dict[str, float | int] = {}
        for name in [span for span, _, _ in LAYERS] + ROOTS:
            out[f"{name}.self_s"] = total([name], self_s)
            out[f"{name}.calls"] = total([name], calls, int)
        for op in OPS + ["other"]:
            members = [op] if op != "other" else OTHER_OPS
            out[f"tensor.{op}.fwd_s"] = total([f"tensor.{m}" for m in members], self_s)
            out[f"tensor.{op}.bwd_s"] = total([f"tensor.{m}.bwd" for m in members], self_s)
            out[f"tensor.{op}.calls"] = total([f"tensor.{m}" for m in members], calls, int)
            out[f"tensor.{op}.out_mb"] = self.out_bytes[op] / 1e6
        graph = self.loss_graph or self.logits_graph or (0, 0)
        sorted_ = self.counts["rank.sorted"]
        out["graph.dist_bytes"] = int(self.counts["graph.dist_bytes"])
        out["graph.rank_kept_ratio"] = self.counts["rank.kept"] / sorted_ if sorted_ else 0.0
        out["tensor.matmul.flops"] = int(self.counts["tensor.matmul.flops"])
        out["tensor.gather_neighbors.rows"] = int(self.counts["tensor.gather_neighbors.rows"])
        out["tensor.graph_nodes_per_step"] = graph[0]
        out["tensor.graph_bytes_held"] = graph[1]
        out["trace.overhead_s"] = overhead_s
        out["trace.spans"] = len(self.span_start)
        return out
