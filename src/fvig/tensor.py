"""numpy-backed dense tensors with reverse-mode automatic differentiation.

Everything is float64. An op's output tensor points at a graph node that holds its operands'
graph refs (a leaf is its own ref, an op output its node), its backward rule and its shape, but
no value. Each rule captures at forward time only the arrays its formula reads, and only for an
operand that receives a gradient, so an intermediate that no rule reads is freed once the caller
drops its tensor. ``Tensor.backward()`` replays the rules in reverse topological order and
accumulates into the leaves' ``.grad`` until the caller resets it; the graph keeps its rules and
arrays, so a repeated call adds the same gradients again. Inside ``with no_grad():`` nothing is
attached or captured, so a forward holds no graph. Broadcasting follows numpy's trailing-dimension
rules only.

The shape ops ``reshape`` and ``transpose_last2`` return numpy views that share
memory with their input. That is safe because no op writes into an operand's
``.data`` or into another op's output, forward or backward. Only leaves are
written in place: by the optimizer's step after ``backward``, and by the
gradient check's probes, each before a fresh forward. A rule reads the arrays it
captured, so a leaf whose ``.data`` is reassigned between forward and backward does
not change that backward; an in-place write into a captured array would. The same
rule makes the backward's second lane safe: a large op with two operands that need
gradients computes one of them on a worker thread (``_both``), and both threads
read the incoming gradient and the captured arrays, which nothing writes. A large
forward runs each batch half on a lane of its own (``_split_forward``). In training each half
records its own graph, and ``_join_halves`` runs both halves' backwards and adds their totals: the
step's gradient is the sum of the halves' gradients, on two lanes or one after the other.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "ShapeError",
    "as_tensor",
    "glorot",
    "broadcast_add",
    "subtract",
    "multiply",
    "divide",
    "matmul",
    "power",
    "exp",
    "log",
    "sigmoid",
    "leaky_relu",
    "softmax_lastdim",
    "cosine_similarity",
    "concat_lastdim",
    "slice_lastdim",
    "transpose_last2",
    "reshape",
    "gather_neighbors",
    "scatter_add_neighbors",
    "gather_max",
    "gated_gather_sum",
    "gated_scatter_sum",
    "neighbor_cosine",
    "dropout",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _broadcast_shape(sa: tuple, sb: tuple) -> tuple:
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"shapes {sa} and {sb} are not broadcast-compatible") from None


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


_grad_enabled = contextvars.ContextVar("fvig_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no autodiff graph in the block: every op result is a leaf without parents or rule.

    Forward values are unchanged. The mode belongs to the caller's context, so each thread has its
    own. Blocks nest, and the previous state comes back on exit, also when the body raises.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class _Node:
    """An op output's place in the graph: its operands' refs, its backward rule and its shape.

    It holds no value (``data`` is one shared empty array): the output's array lives only as long
    as its ``Tensor`` or a rule that captured it.
    """

    __slots__ = ("_parents", "_backward_rule", "shape")
    requires_grad = True
    data = np.empty(0)

    def __init__(self, parents: tuple, rule: Callable[[np.ndarray, dict], None], shape: tuple):
        self._parents = parents
        self._backward_rule = rule
        self.shape = shape


class Tensor:
    """Dense float64 array plus an optional accumulated gradient.

    A tensor produced by an operation points at its graph node, which knows the
    operands and how to push a gradient back to them; leaf tensors created with
    ``requires_grad=True`` collect the final gradients.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], rule) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._node = _Node(tuple(p._ref for p in parents), rule, out.data.shape)
        return out

    @property
    def _ref(self) -> "Tensor | _Node":
        """This tensor's place in the graph: its node, or the tensor itself for a leaf."""
        return self if self._node is None else self._node

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward_rule(self) -> Callable[[np.ndarray, dict], None] | None:
        return None if self._node is None else self._node._backward_rule

    @_backward_rule.setter
    def _backward_rule(self, rule: Callable[[np.ndarray, dict], None]) -> None:
        self._node._backward_rule = rule

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """The one element, whatever the shape: a ``(1,)`` loss reads as a ``()`` one does."""
        return float(self.data.item())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------------
    # reverse pass
    # ------------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``.grad`` of every reachable leaf.

        ``self`` must be a scalar that recorded a graph (or a leaf that requires a gradient). An op
        output passes its gradient to its rule and keeps none. Repeated calls without resetting
        ``.grad`` add to the existing gradients.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ValueError(
                "backward() needs a loss that recorded a graph; this one was computed under no_grad() "
                "or from tensors that need no gradient"
            )
        _backprop(self._ref, np.ones_like(self.data), _accumulate)

    # ------------------------------------------------------------------
    # operators, with the tensor on the left
    # ------------------------------------------------------------------

    def __add__(self, other):
        return broadcast_add(self, other)

    def __sub__(self, other):
        return subtract(self, other)

    def __mul__(self, other):
        return multiply(self, other)

    def __truediv__(self, other):
        return divide(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        axis, shape = _check_axis(self, axis), self.shape
        out = self.data.sum(axis=axis, keepdims=keepdims)
        return _unary(self, out, lambda g, _: _spread(g, shape, axis, keepdims))

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        axis, shape = _check_axis(self, axis), self.shape
        count = self.data.size if axis is None else shape[axis]
        out = self.data.mean(axis=axis, keepdims=keepdims)
        return _unary(self, out, lambda g, _: _spread(g, shape, axis, keepdims) / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Max reduction; the backward routes gradient to the first argmax."""
        axis = _check_axis(self, axis)

        def grad(g, data):
            gx = np.zeros_like(data)
            if axis is None:
                gx.flat[int(np.argmax(data))] = g.sum()
            else:
                am = np.expand_dims(np.argmax(data, axis=axis), axis)
                gr = g if keepdims else np.expand_dims(g, axis)
                np.put_along_axis(gx, am, gr, axis=axis)
            return gx

        return _unary(self, self.data.max(axis=axis, keepdims=keepdims), grad, self.data)


def _backprop(root: Tensor | _Node, grad: np.ndarray, sink: Callable[[Tensor, np.ndarray], None]) -> None:
    """Replay the rules behind ``root`` in reverse topological order, from ``grad`` at ``root``.

    Each leaf's contributions are summed in this pass's ``pending`` and handed to ``sink(leaf,
    total)`` once, when the pass reaches the leaf. The depth-first sort visits a node's leaf
    operands after its node operands, so a leaf comes right after its last consumer and leaves
    ``pending`` early: a half-batch pass hands its totals over as it goes, instead of holding a
    whole set of parameter gradients to its end. Nodes keep their order, and so every sum its bits.
    """
    topo: list = []  # graph refs: nodes, and leaves that require a gradient
    seen: set[int] = set()
    stack: list[tuple] = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        leaves_at = len(stack)  # leaf operands go below node operands, so they pop after them
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                if type(parent) is _Node:
                    stack.append((parent, False))
                else:
                    stack.insert(leaves_at, (parent, False))
    pending: dict[int, np.ndarray] = {id(root): grad}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, _Node):
            node._backward_rule(g, pending)
        else:
            sink(node, g)


def _accumulate(leaf: Tensor, g: np.ndarray) -> None:
    """A leaf's ``.grad`` keeps the running total over backward passes."""
    leaf.grad = g if leaf.grad is None else leaf.grad + g


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    """Trainable (fan_in, fan_out) weight drawn from N(0, 2 / (fan_in + fan_out))."""
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(rng.normal(0.0, std, size=(fan_in, fan_out)), requires_grad=True)


def _grad_ref(t: Tensor) -> Tensor | _Node | None:
    """``t``'s graph ref if an op recorded now sends ``t`` a gradient, else None; every rule's refs come from here."""
    return t._ref if _grad_enabled.get() and t.requires_grad else None


def _unary(x: Tensor, out: np.ndarray, grad: Callable, saved: np.ndarray | None = None) -> Tensor:
    """Record ``out`` as a one-operand op of ``x`` whose backward sends ``grad(g, saved)`` to ``x``.

    ``saved`` is the one array the gradient reads, or None; the rule captures it directly, and
    ``grad`` captures no array or tensor (only scalars and shapes), so a graph holds exactly what
    its rules' closures show.
    """
    ref = _grad_ref(x)

    def rule(g, pending):
        _send(pending, ref, grad(g, saved))

    return Tensor._result(out, (x,), rule)


def _send(pending: dict, ref: Tensor | _Node | None, g: np.ndarray | None) -> None:
    """Add ``g`` to the gradient pending for ``ref``, a ``_grad_ref`` result; a None ``ref`` gets none."""
    if ref is None:
        return
    key = id(ref)
    if key in pending:
        pending[key] = pending[key] + g
    else:
        pending[key] = g


# An op's two operand gradients, or a graph-free forward's two batch halves, run on two threads when
# one of them streams at least this many float64 elements (see _both, _split_forward). On a 2-vCPU Xeon
# a handoff costs 30-46 us, and backward splits measured slower below about 100k elements; the micro
# config's ops stream at most 45k. A split forward took 0.48x one lane's time at 131,072 elements per
# half (mid, 64 images), 0.75x at 32,768 (mid, 16) and 1.13x at 15,360 (micro, 60). A training forward
# splits by halves from a quarter of this size, on its input alone. Forward and backward of a split step
# against the whole batch, in one process under 1 BLAS thread: 1.08x at 16,384 node elements per half
# (mid, 8 images), 0.97x at 16,384 (micro, 64), 0.80x at 32,768 (mid, 16), 0.80x at 37,632 (ViG-Ti, 2)
# and 0.73x at 75,264 (ViG-Ti, 4). With no spare CPU the halves ran in order at 0.94-1.03x.
_TWO_LANE_ELEMENTS = 1 << 17


def _blas_leaves_a_cpu() -> bool:
    """Whether OpenBLAS runs on fewer threads than this process has CPUs.

    OpenBLAS takes its thread count at load from the first positive one of these variables, else
    from the CPU count. Where it uses every CPU, its idle threads spin on the CPU the worker would
    need: on a 2-vCPU Xeon with 2 BLAS threads a split ViG-Ti step ran about 7.5% slower.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) < cpus
    return False


_SPARE_CPU = _blas_leaves_a_cpu()
_in_lane = contextvars.ContextVar("fvig_in_lane", default=False)  # True inside either of _two_lanes' lanes
# The second lane stays one live thread: a thread per split cost 61-70 us against 16-24 us per handoff, and
# each new thread took a fresh glibc malloc arena (vigti-train peak RSS +1.3% to +2.9% on a 2-vCPU Xeon).
_worker = None  # a one-thread ThreadPoolExecutor, started by the first _two_lanes call
_worker_lock = threading.Lock()


def _drop_worker() -> None:
    """A forked child has no copy of the worker thread, nor of a thread that held the lock."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def _one_malloc_arena() -> None:
    """Ask glibc for one malloc arena in the whole process (``mallopt(M_ARENA_MAX, 1)``), if it has the call.

    The worker then allocates from the main heap, where the calling lane's freed arrays are reused:
    with an arena of its own, vigti-train's peak RSS read 602-613 MiB against 569-571 with one.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt (not glibc), or no process symbol table
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-8, 1)  # M_ARENA_MAX is -8 in glibc's malloc.h


def _lane(work: Callable):
    """``work()``, marked as running in a lane, so that nothing it calls hands off again."""
    token = _in_lane.set(True)
    try:
        return work()
    finally:
        _in_lane.reset(token)


def _two_lanes(first: Callable, second: Callable) -> tuple:
    """``(first(), second())``, ``second`` on the one worker thread while ``first`` runs here.

    The worker runs in a copy of the caller's context, so under its ``np.errstate`` and grad mode.
    Both lanes are marked (``_in_lane``), so ``_halves``, ``_both`` and ``_split_forward`` run
    inline inside them and the worker never waits on itself. The first call sets the process's
    malloc arenas to one (``_one_malloc_arena``) just before the worker starts. An exception
    propagates once both have finished.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor  # only a process that splits loads it

            _one_malloc_arena()
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fvig-lane")
        future = _worker.submit(contextvars.copy_context().run, _lane, second)
    try:
        here = _lane(first)
    except BaseException:
        future.exception()  # wait for the worker's lane before this error propagates
        raise
    return here, future.result()


def _halves(first: Callable, second: Callable) -> tuple:
    """``(first(), second())``: on ``_two_lanes`` where BLAS leaves a CPU free and this is no lane, else in order."""
    return _two_lanes(first, second) if _SPARE_CPU and not _in_lane.get() else (first(), second())


def _split_forward(work: int, training: bool) -> bool:
    """Whether a forward whose smaller batch half streams ``work`` node elements runs by halves (``_halves``).

    A training forward splits from ``_TWO_LANE_ELEMENTS // 4`` on its input alone, two lanes or
    none, so its bytes never depend on the CPU count; its halves join in ``_join_halves``. A
    forward that records no graph and does not train splits from ``_TWO_LANE_ELEMENTS``, and only
    where ``_halves`` would use two lanes, since its halves are bit-equal to one pass.
    """
    if training:
        return work >= _TWO_LANE_ELEMENTS // 4
    return not _grad_enabled.get() and _SPARE_CPU and not _in_lane.get() and work >= _TWO_LANE_ELEMENTS


def _both(pending: dict, work: int, first: tuple, second: tuple) -> None:
    """The tail of a two-operand rule: for each ``(ref, kernel)`` with a ref, send ``kernel()`` to it.

    When both refs are given and ``work`` (the float64 elements one gradient streams) reaches
    ``_TWO_LANE_ELEMENTS``, the kernels run through ``_halves``: ``second``'s on the worker where a
    CPU is spare and this is no lane already. A split training step runs its ops inside the lanes,
    so this handoff serves the large backwards that do not split by halves: a ViG-Ti batch of one,
    mid-config batches of 8 to 15, and recorded eval-mode forwards. Either way each gradient is
    computed whole by one thread with the same numpy and BLAS calls, so its bytes do not depend on
    the lane, and both are sent from the calling thread in operand order. The kernels share ``g``
    and the captured arrays read-only, which is safe because no op writes an operand's array or
    another op's output. They run numpy on arrays and nothing else, never a ``Tensor``, ``_send`` or
    a public function of this module, since a tracer may rebind those.
    """
    (ref_a, kernel_a), (ref_b, kernel_b) = first, second
    if ref_a is None or ref_b is None or work < _TWO_LANE_ELEMENTS:
        here, there = (None if ref_a is None else kernel_a()), (None if ref_b is None else kernel_b())
    else:
        here, there = _halves(kernel_a, kernel_b)
    _send(pending, ref_a, here)
    _send(pending, ref_b, there)


def _join_halves(first: Tensor, second: Tensor) -> Tensor:
    """The rows of two batch halves' results, ``first``'s on top; each half keeps a graph of its own.

    The output's node names no parents, so a backward's topological sort never enters the halves'
    graphs. Its rule runs each half's backward (``_backprop``) from that half's rows of the incoming
    gradient, through ``_halves``. A lane sums a leaf's contributions in its own ``pending``, as one
    pass over the whole batch would, then hands the half's total to one store under a lock: the
    first arrival is kept and the second is added to it. IEEE addition commutes, so the sum does
    not depend on which lane finishes first. Once both lanes have finished, each total goes into
    its leaf's ``.grad``. The halves' graphs stay, so a repeated backward replays both.
    """
    out = Tensor(np.concatenate([first.data, second.data]))
    refs, rows = (_grad_ref(first), _grad_ref(second)), len(first.data)
    if refs[0] is None and refs[1] is None:
        return out

    def rule(g, pending):
        totals: dict[int, tuple[Tensor, np.ndarray]] = {}
        lock = threading.Lock()

        def sink(leaf, total):
            with lock:
                held = totals.get(id(leaf))
                totals[id(leaf)] = leaf, (total if held is None else held[1] + total)

        def lane(ref, part):
            return lambda: None if ref is None else _backprop(ref, part, sink)

        _halves(lane(refs[0], g[:rows]), lane(refs[1], g[rows:]))
        for leaf, total in totals.values():
            _accumulate(leaf, total)

    out.requires_grad = True
    out._node = _Node((), rule, out.data.shape)
    return out


def _check_axis(t: Tensor, axis: int | None) -> int | None:
    if axis is None:
        return None
    if not -t.ndim <= axis < t.ndim:
        raise ValueError(f"axis {axis} out of range for shape {t.shape}")
    return axis % t.ndim


def _spread(g: np.ndarray, shape: tuple, axis: int | None, keepdims: bool) -> np.ndarray:
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).astype(np.float64)


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------


def _binary(a, b, op, grad_a, grad_b, reads: tuple[str, str] = ("", "")) -> Tensor:
    """``op(a, b)`` under numpy broadcasting, for a ufunc ``op``.

    ``grad_a(g, a, b)`` and ``grad_b(g, a, b)`` map the output gradient and the operands' arrays
    to a gradient of the output's shape; ``reads`` names the operands (``"a"``, ``"b"``) each of
    them reads. Each is computed, and summed down to its operand's shape, only for an operand
    that requires a gradient, and only the arrays those read are captured (the rest are None).
    """
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    refs = _grad_ref(a), _grad_ref(b)
    read = "".join(r for ref, r in zip(refs, reads) if ref is not None)
    ad, bd = (a.data if "a" in read else None), (b.data if "b" in read else None)

    def rule(g, pending):
        for ref, grad in zip(refs, (grad_a, grad_b)):
            if ref is not None:
                _send(pending, ref, _unbroadcast(grad(g, ad, bd), ref.shape))

    return Tensor._result(op(a.data, b.data), (a, b), rule)


def broadcast_add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, a, b: g, lambda g, a, b: g)


def subtract(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)


def multiply(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a, ("b", "a"))


def divide(a, b) -> Tensor:
    return _binary(a, b, np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b), ("b", "ab"))


def power(x, exponent: float) -> Tensor:
    x = as_tensor(x)
    e = float(exponent)
    return _unary(x, x.data**e, lambda g, data: g * e * data ** (e - 1.0), x.data)


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)
    return _unary(x, out, lambda g, out: g * out, out)


def log(x) -> Tensor:
    x = as_tensor(x)
    return _unary(x, np.log(x.data), lambda g, data: g / data, x.data)


# ----------------------------------------------------------------------
# matrix product
# ----------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """``[.., M, K] @ [K, P] -> [.., M, P]``: ``a`` folds to ``a2[rows, K]`` for one GEMM.

    Backward is one GEMM per operand that requires a gradient: ``g2 @ b.T`` or ``a2.T @ g2``.
    So the rule captures ``b`` only if ``a`` needs a gradient, and ``a`` only if ``b`` does.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul needs [.., M, K] @ [K, P], got {a.shape} @ {b.shape}")
    k, p = b.shape
    out = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (p,))
    ar, br = _grad_ref(a), _grad_ref(b)
    ad, bd = (a.data if br is not None else None), (b.data if ar is not None else None)

    def rule(g, pending):
        g2 = g.reshape(-1, p)
        work = g2.size + (g2.shape[0] + p) * k
        _both(pending, work, (ar, lambda: (g2 @ bd.T).reshape(ar.shape)), (br, lambda: ad.reshape(-1, k).T @ g2))

    return Tensor._result(out, (a, b), rule)


# ----------------------------------------------------------------------
# nonlinearities
# ----------------------------------------------------------------------


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    # evaluate on the non-overflowing branch for either sign
    d = x.data
    e = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _unary(x, out, lambda g, out: g * out * (1.0 - out), out)


def leaky_relu(x, slope: float) -> Tensor:
    x = as_tensor(x)
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    d = x.data
    # max(slope*x, x) is x where x >= 0 and slope*x where x < 0, bit for bit for 0 < slope < 1:
    # the rounded slope*x never passes x, and -0.0, subnormals, infinities and NaN keep their bits
    out = np.multiply(d, slope, out=np.empty_like(d))
    np.maximum(out, d, out=out)
    positive = None if _grad_ref(x) is None else d >= 0  # the rule captures this bool mask, not the input

    def grad(g, positive):
        # slope + fl(1 - slope) rounds to exactly 1.0 for 0 < slope < 1, so the scale is 1.0 or slope
        # as the select's is, without the select's data-dependent branch
        gx = positive * (1.0 - slope)
        gx += slope
        gx *= g
        return gx

    return _unary(x, out, grad, positive)


def softmax_lastdim(x) -> Tensor:
    """Softmax along the last dimension, stabilized by max subtraction."""
    x = as_tensor(x)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"softmax_lastdim needs a non-empty last dimension, got {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return _unary(x, out, lambda g, out: out * (g - (g * out).sum(axis=-1, keepdims=True)), out)


COSINE_EPS = 1e-8  # the lower clamp on the norms inside a cosine


def cosine_similarity(a, b) -> Tensor:
    """Cosine of the angle between trailing-dim vectors of ``a`` and ``b``.

    Norms are clamped below at ``COSINE_EPS`` so zero vectors yield 0
    instead of NaN; where the clamp is active the norm contributes no gradient.
    Leading dimensions broadcast. The backward reduces before it broadcasts:
    ``grad_a = sum(g/denom * b) - sum(g*out/|a|^2) * a``, each sum over ``a``'s
    broadcast axes, so a center broadcast against its members gets no edge-sized
    gradient; ``b`` likewise. Only an operand that requires a gradient gets one.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"trailing dimensions differ: {a.shape} vs {b.shape}")
    _broadcast_shape(a.shape[:-1], b.shape[:-1])
    dot = (a.data * b.data).sum(axis=-1)
    na = np.sqrt((a.data * a.data).sum(axis=-1))
    nb = np.sqrt((b.data * b.data).sum(axis=-1))
    ca = np.maximum(na, COSINE_EPS)
    cb = np.maximum(nb, COSINE_EPS)
    denom = ca * cb
    out = dot / denom
    ad, bd, ar, br = a.data, b.data, _grad_ref(a), _grad_ref(b)

    def rule(g, pending):
        gd = (g / denom)[..., None]
        for ref, x, other, norm, clamped in ((ar, ad, bd, na, ca), (br, bd, ad, nb, cb)):
            if ref is not None:
                s = np.where(norm > COSINE_EPS, g * out / (clamped * clamped), 0.0)
                gx = _unbroadcast(gd * other, ref.shape)
                gx -= _unbroadcast(s, ref.shape[:-1])[..., None] * x
                _send(pending, ref, gx)

    return Tensor._result(out, (a, b), rule)


# ----------------------------------------------------------------------
# shape surgery
# ----------------------------------------------------------------------


def concat_lastdim(parts: Sequence[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_lastdim needs at least one part")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ShapeError(f"concat_lastdim parts disagree on leading shape: {[p.shape for p in parts]}")
    widths = [p.shape[-1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + widths)
    refs = [_grad_ref(p) for p in parts]

    def rule(g, pending):
        for ref, lo, hi in zip(refs, offsets[:-1], offsets[1:]):
            _send(pending, ref, g[..., lo:hi])

    return Tensor._result(out, tuple(parts), rule)


def slice_lastdim(x, start: int, stop: int) -> Tensor:
    x = as_tensor(x)
    width = x.shape[-1]
    if not 0 <= start <= stop <= width:
        raise ShapeError(f"slice [{start}:{stop}] out of range for last dimension {width}")
    shape = x.shape

    def grad(g, _):
        gx = np.zeros(shape)
        gx[..., start:stop] = g
        return gx

    return _unary(x, x.data[..., start:stop].copy(), grad)


def transpose_last2(x) -> Tensor:
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2 needs rank >= 2, got {x.shape}")
    return _unary(x, np.swapaxes(x.data, -1, -2), lambda g, _: np.swapaxes(g, -1, -2))


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape, before = tuple(int(s) for s in shape), x.shape
    return _unary(x, x.data.reshape(shape), lambda g, _: g.reshape(before))


# ----------------------------------------------------------------------
# neighborhood indexing
# ----------------------------------------------------------------------


def _check_index(index: np.ndarray, num_nodes: int) -> None:
    if not np.issubdtype(index.dtype, np.integer):
        raise TypeError(f"neighbor index must be integral, got dtype {index.dtype}")
    if index.size and (index.min() < 0 or index.max() >= num_nodes):
        raise IndexError(f"neighbor index out of range [0, {num_nodes}): min={index.min()}, max={index.max()}")


def _check_neighbors(op: str, x: Tensor, index, fused: bool = True) -> np.ndarray:
    """Check node rows ``x[B,N,C]`` against a neighbor index ``[B,N,K]`` into them; return the index.

    A fused op reduces over the neighbors, so it needs K >= 1.
    """
    index = np.asarray(index)
    if x.ndim != 3 or index.ndim != 3 or index.shape[:2] != x.shape[:2] or (fused and not index.shape[2]):
        need = " with K >= 1" if fused else ""
        raise ShapeError(f"{op} expects x[B,N,D] and index[B,N,K]{need}, got {x.shape} and {index.shape}")
    _check_index(index, x.shape[1])
    return index


def _rows_at(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``rows[b, index[b,i,k]]``, the ``[B,N,K,..]`` gather; the callers below only hold it while they run."""
    return rows[np.arange(rows.shape[0])[:, None, None], index]


_last_plan: tuple | None = None  # (index copy, num_nodes, plan) of the last _scatter_plan call


def _scatter_plan(index: np.ndarray, num_nodes: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The in-degree slots of a neighbor index: ``(position, slots)``.

    Targets ``b*num_nodes + index[b,i,k]`` are ordered by in-degree, largest first (stable), and
    ``position[t]`` is target ``t``'s place in that order. Slot ``r`` holds, for each target with
    in-degree > r in that order, its r-th edge as a flat ``(b,i,k)`` position. So slot r's targets
    are a prefix of the order, and no slot names a target twice. The sort keys take the smallest
    unsigned type that holds them: numpy's stable sort on keys of 16 bits or less is a radix sort.
    The last plan is kept and reused for an index equal by value (a block's backward scatters share
    one), so a stale plan can never be used. The memo is read once and replaced whole, so a thread
    that races another (see ``_two_lanes``) can only rebuild a plan, never read a mixed one.
    """
    global _last_plan
    last = _last_plan
    if last is not None and last[1] == num_nodes and np.array_equal(last[0], index):
        return last[2]
    num_targets = index.shape[0] * num_nodes
    key = np.min_scalar_type(max(num_targets - 1, 0))
    targets = (np.arange(index.shape[0])[:, None, None] * num_nodes + index).astype(key).ravel()
    degree = np.bincount(targets, minlength=num_targets)
    top = int(degree.max(initial=0))
    order = np.argsort((top - degree).astype(np.min_scalar_type(top)), kind="stable")
    position = np.empty(num_targets, key)
    position[order] = np.arange(num_targets, dtype=key)
    edge_position = position[targets]
    by_position = np.argsort(edge_position, kind="stable")  # edges grouped by target, flat order within
    grouped = edge_position[by_position].astype(np.intp)  # each grouped edge's target position
    ordered_degree = degree[order]
    counts = num_targets - np.cumsum(np.bincount(degree, minlength=top + 1))[:-1]  # targets per slot
    slot_start = np.cumsum(counts) - counts
    rank = np.arange(targets.size) - (np.cumsum(ordered_degree) - ordered_degree)[grouped]
    edges = np.empty(targets.size, np.intp)
    edges[slot_start[rank] + grouped] = by_position
    plan = position, [edges[start : start + count] for start, count in zip(slot_start.tolist(), counts.tolist())]
    _last_plan = index.copy(), num_nodes, plan
    return plan


def _slot_sum(index: np.ndarray, num_nodes: int, edge_rows: Callable, row_shape: tuple) -> np.ndarray:
    """``out[b*num_nodes + index[b,i,k]] += edge_rows(slot)`` over ``_scatter_plan``'s slots, ``[B*N, *row_shape]``.

    ``edge_rows(slot)`` gives the rows of a slot's edges, named by flat ``(b,i,k)`` position. Each
    target adds its edges' rows to +0.0 in flat ``(b,i,k)`` order, which is ``np.add.at``'s order,
    so the sums are bit-equal to it. A slot's rows are at most node-sized.
    """
    position, slots = _scatter_plan(index, num_nodes)
    out = np.zeros((index.shape[0] * num_nodes,) + row_shape)
    for slot in slots:
        out[: slot.size] += edge_rows(slot)
    return out[position]


def _scatter_add(values: np.ndarray, index: np.ndarray, num_nodes: int) -> np.ndarray:
    """``out[b, index[b,i,k], :] += values[b,i,k,:]``, summing over duplicate indices (``_slot_sum``)."""
    b, c = values.shape[0], values.shape[-1]
    edges = values.reshape(index.size, c)
    return _slot_sum(index, num_nodes, lambda slot: edges[slot], (c,)).reshape(b, num_nodes, c)


def _gated_gather(gates: np.ndarray, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``out[b,i,h] = sum_k gates[b,i,k,m] * rows[b, index[b,i,k], h]`` for channel ``h`` in head ``m``.

    The rows' C channels split into M contiguous head slices, one gate each. The loop over k
    adds in numpy's axis-2 order, so the sums are bit-equal to ``(gates * gathered).sum(axis=2)``
    over the whole ``[B,N,K,M,C/M]`` product, which it never forms.
    """
    b, n, k, m = gates.shape
    heads = rows.reshape(b, n, m, -1)
    batch = np.arange(b)[:, None]
    out = gates[:, :, 0, :, None] * heads[batch, index[:, :, 0]]
    for j in range(1, k):
        out += gates[:, :, j, :, None] * heads[batch, index[:, :, j]]
    return out.reshape(rows.shape)


def _gated_scatter(gates: np.ndarray, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The adjoint of ``_gated_gather``: ``out[b, index[b,i,k], h] += gates[b,i,k,m] * rows[b,i,h]``."""
    b, n, k, m = gates.shape
    gate, heads = gates.reshape(-1, m, 1), rows.reshape(b * n, m, -1)

    def gated(slot):  # a slot's gated rows, formed in the slot: never the [B,N,K,C] product
        edge = heads[slot // k]
        edge *= gate[slot]
        return edge

    return _slot_sum(index, n, gated, heads.shape[1:]).reshape(rows.shape)


def _head_dots(gathered: np.ndarray, node_rows: np.ndarray, index: np.ndarray, heads: int) -> np.ndarray:
    """``out[b,i,k,m] = <gathered[b, index[b,i,k], head m], node_rows[b, i, head m]>``, one k at a time."""
    b, n, k = index.shape
    node = node_rows.reshape(b, n, heads, -1)
    members = gathered.reshape(b, n, heads, -1)
    batch = np.arange(b)[:, None]
    out = np.empty((b, n, k, heads))
    for j in range(k):
        out[:, :, j] = (members[batch, index[:, :, j]] * node).sum(axis=-1)
    return out


def gather_neighbors(x, index: np.ndarray) -> Tensor:
    """Collect per-node neighbor features: ``out[b,i,k,:] = x[b, index[b,i,k], :]``.

    The backward scatter-adds the incoming gradient back into ``x``, so
    gradient mass is conserved across duplicate indices. The model's own ops
    below fuse the gather with what follows it and hold no ``[B,N,K,D]`` array.
    """
    x = as_tensor(x)
    index = _check_neighbors("gather_neighbors", x, index, fused=False)
    n = x.shape[1]
    return _unary(x, _rows_at(x.data, index), lambda g, index: _scatter_add(g, index, n), index)


def scatter_add_neighbors(values, index: np.ndarray, num_nodes: int) -> Tensor:
    """The adjoint of ``gather_neighbors``: ``out[b, index[b,i,k], :] += values[b,i,k,:]``."""
    values = as_tensor(values)
    index = np.asarray(index)
    if values.ndim != 4 or index.ndim != 3 or values.shape[:3] != index.shape:
        raise ShapeError(
            f"scatter_add_neighbors expects values[B,N,K,D] and index[B,N,K], got {values.shape} and {index.shape}"
        )
    _check_index(index, num_nodes)
    return _unary(values, _scatter_add(values.data, index, num_nodes), _rows_at, index)


def gather_max(x, index: np.ndarray) -> Tensor:
    """``out[b,i,:] = max_k x[b, index[b,i,k], :]``, bit-equal to ``gather_neighbors(x, index).max(axis=2)``.

    The gather is a temporary of the forward. The backward routes each entry's gradient to the
    first k whose neighbor equals the max, as ``Tensor.max`` routes to the first argmax; it
    compares one neighbor column at a time, so it holds no ``[B,N,K,D]`` array either. A source
    node that wins for several entries receives their sum. (Where a max is NaN, the gradient
    goes to the last neighbor.)
    """
    x = as_tensor(x)
    index = _check_neighbors("gather_max", x, index)
    ref, data = _grad_ref(x), x.data
    out = _rows_at(data, index).max(axis=2)

    def rule(g, pending):
        b, n, k = index.shape
        batch = np.arange(b)[:, None]
        source = np.broadcast_to(index[:, :, k - 1, None], out.shape)
        for j in range(k - 2, -1, -1):  # an earlier k overrides a later one
            column = index[:, :, j]
            source = np.where(data[batch, column] == out, column[..., None], source)
        # one np.bincount over the flat position (b*N + source)*C + c; it adds repeats in np.add.at's order
        c = data.shape[-1]
        flat = ((np.arange(b)[:, None, None] * n + source.astype(np.intp, copy=False)) * c + np.arange(c)).ravel()
        _send(pending, ref, np.bincount(flat, weights=g.ravel(), minlength=data.size).reshape(data.shape))

    return Tensor._result(out, (x,), rule)


def _gated_pair(op: str, gates, rows, index, forward: Callable, gates_grad: Callable, rows_grad: Callable) -> Tensor:
    """Record ``forward(gates, rows, index)`` for ``gates[B,N,K,M]`` and ``rows[B,N,C]``, M dividing C.

    The backward sends ``gates_grad(rows, g, index, heads)`` to ``gates`` on the calling thread and
    ``rows_grad(gates, g, index)`` to ``rows`` on ``_both``'s second lane. As ``matmul``'s does, the
    rule holds ``index`` and each operand only if the other needs a gradient.
    """
    gates, rows = as_tensor(gates), as_tensor(rows)
    index = _check_neighbors(op, rows, index)
    if gates.ndim != 4 or gates.shape[:3] != index.shape or not gates.shape[-1] or rows.shape[-1] % gates.shape[-1]:
        raise ShapeError(
            f"{op} expects gates[B,N,K,M] over index[B,N,K] and M dividing the width of rows[B,N,C], "
            f"got {gates.shape}, {index.shape} and {rows.shape}"
        )
    gr, rr, heads = _grad_ref(gates), _grad_ref(rows), gates.shape[-1]
    gd, rd = (gates.data if rr is not None else None), (rows.data if gr is not None else None)

    def rule(g, pending):
        work = index.size * g.shape[-1]
        _both(pending, work, (gr, lambda: gates_grad(rd, g, index, heads)), (rr, lambda: rows_grad(gd, g, index)))

    return Tensor._result(forward(gates.data, rows.data, index), (gates, rows), rule)


def gated_gather_sum(gates, rows, index: np.ndarray) -> Tensor:
    """Gated neighbor sum per head: ``out[b,i,h] = sum_k gates[b,i,k,m] * rows[b, index[b,i,k], h]``.

    ``gates`` is ``[B,N,K,M]``, ``rows`` ``[B,N,C]`` with channel ``h`` in head ``m = h // (C/M)``.
    Values equal ``(gates[..., None] * gathered_heads).sum(axis=2)`` bit for bit. The backward is
    ``gated_scatter_sum``'s kernel for ``rows`` and a re-gather of ``rows`` for ``gates``.
    """
    return _gated_pair("gated_gather_sum", gates, rows, index, _gated_gather, _head_dots, _gated_scatter)


def gated_scatter_sum(gates, rows, index: np.ndarray) -> Tensor:
    """The adjoint of ``gated_gather_sum``: ``out[b, index[b,i,k], h] += gates[b,i,k,m] * rows[b,i,h]``.

    Each node ``i`` sends its row, gated per head, to its K neighbors; values equal the scatter-add
    of the ``[B,N,K,C]`` gated product bit for bit. The backward is ``gated_gather_sum``'s kernel
    for ``rows`` and a re-gather of the gradient for ``gates``.
    """
    return _gated_pair(
        "gated_scatter_sum", gates, rows, index, _gated_scatter, lambda r, g, i, m: _head_dots(g, r, i, m), _gated_gather
    )


def neighbor_cosine(centers, x, index: np.ndarray, heads: int) -> Tensor:
    """Per-head cosine of each center with its members: ``out[b,i,k,m] = cos(c_i^m, x_{index[b,i,k]}^m)``.

    ``centers`` and ``x`` are ``[B,N,D]``, split into ``heads`` channel slices; the output is
    ``[B,N,K,M]`` and equals ``cosine_similarity`` of the center against the gathered members bit
    for bit: the member norms are taken on node rows and then gathered, which is the same sum.
    Norms are clamped below at ``COSINE_EPS`` as there, with no gradient through an active clamp. The
    graph holds ``out``, the denominator and the clamped norms; the backward gets both gradients
    from the gated kernels, ``g/denom`` as the gates, and never forms a ``[B,N,K,D]`` array:
    ``grad_c = sum_k (g/denom) x_j - (sum_k g*out/|c|^2) c`` and
    ``grad_x_t = sum_{(i,k) -> t} (g/denom) c_i - (sum_{(i,k) -> t} g*out/|x_t|^2) x_t``.
    """
    centers, x = as_tensor(centers), as_tensor(x)
    index = _check_neighbors("neighbor_cosine", x, index)
    if centers.shape != x.shape or heads < 1 or x.shape[-1] % heads:
        raise ShapeError(
            f"neighbor_cosine needs two [B,N,D] operands split into {heads} heads, got {centers.shape} and {x.shape}"
        )
    b, n, k = index.shape
    cd, xd = centers.data, x.data
    c5 = cd.reshape(b, n, 1, heads, -1)
    x4 = xd.reshape(b, n, heads, -1)
    dot = _head_dots(xd, cd, index, heads)
    ca = np.maximum(np.sqrt((c5 * c5).sum(axis=-1)), COSINE_EPS)        # [B,N,1,M]
    cx = np.maximum(np.sqrt((x4 * x4).sum(axis=-1)), COSINE_EPS)        # [B,N,M], node rows
    denom = ca * _rows_at(cx, index)
    out = dot / denom
    cr, xr = _grad_ref(centers), _grad_ref(x)

    def rule(g, pending):
        gd = g / denom

        def center_grad():
            s = np.where(ca > COSINE_EPS, g * out / (ca * ca), 0.0).sum(axis=2, keepdims=True)
            return _gated_gather(gd, xd, index) - (s[..., None] * c5).reshape(xd.shape)

        def member_grad():
            cb = _rows_at(cx, index)
            s = _scatter_add(np.where(cb > COSINE_EPS, g * out / (cb * cb), 0.0), index, n)
            return _gated_scatter(gd, cd, index) - (s[..., None] * x4).reshape(xd.shape)

        _both(pending, index.size * xd.shape[-1], (cr, center_grad), (xr, member_grad))

    return Tensor._result(out, (centers, x), rule)


# ----------------------------------------------------------------------
# regularization
# ----------------------------------------------------------------------


def dropout(x, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors are scaled by 1/(1-rate) so eval is exact identity."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    keep = rng.random(x.shape) >= rate  # the rule captures this bool mask and rescales it again
    return _unary(x, x.data * (keep / (1.0 - rate)), lambda g, keep: g * (keep / (1.0 - rate)), keep)
