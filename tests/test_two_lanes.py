"""Two lanes, bit for bit: a large op's two operand gradients, and a large training step's two batch halves.

``fvig.tensor._both`` runs one gradient kernel on a single worker thread while the other runs on
the calling thread. These tests pin down when it does (large two-operand rules only, never a
forward), that an exception in either lane surfaces after both finish, that the worker runs under
the caller's numpy error state, that the shared scatter plan memo survives racing threads, that a
forked child starts its own worker, that only a split backward imports the executor's module, and
that the gradients equal one-thread references byte for byte under one and under two BLAS threads.
They also pin down that grad mode belongs to each thread: one thread's ``no_grad`` neither stops
another from recording nor leaves it off when the two exit out of order, and the worker's lane runs
under the caller's mode. A large training step runs each batch half's forward and backward on its
own lane (``FViGModel.forward``, ``fvig.tensor._join_halves``): its losses and gradients do not
depend on whether the halves ran on two threads or one after the other, they match one pass over
the whole batch, and each half's dropout comes from its own generator.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fvig.model
import fvig.tensor
from fvig import checksuite
from fvig.checksuite import run_suite
from fvig.gradcheck import model_grad_check
from fvig.model import FViGModel
from fvig.optim import AdamW
from fvig.tensor import Tensor, gated_gather_sum, no_grad
from fvig.train import cross_entropy

from test_bench_hooks import MID, training_loss

SRC = Path(fvig.tensor.__file__).resolve().parent.parent


def program_env(**variables: str) -> dict:
    """This environment with ``variables`` set and these sources first on the import path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


class TestWhenTheWorkerRuns:
    def test_micro_steps_gradchecks_and_forwards_stay_on_one_thread(self, fresh_lane):
        before = threading.active_count()
        training_loss(checksuite.micro_config(), 16).backward()
        for op in ("matmul", "gated_gather_sum", "gated_scatter_sum", "neighbor_cosine"):
            assert all(report.passed for _, report in run_suite(only=op))
        mid_loss = training_loss(MID, 8)  # a recorded forward at a size whose backward splits
        with no_grad():
            FViGModel(MID, rng=np.random.default_rng(93)).forward(np.random.default_rng(94).random((8, 3, 64, 64)))
        assert fvig.tensor._worker is None and threading.active_count() == before
        mid_loss.backward()
        assert fvig.tensor._worker is not None and threading.active_count() == before + 1

    def test_no_spare_cpu_keeps_every_op_inline(self, fresh_lane, monkeypatch):
        monkeypatch.setattr(fvig.tensor, "_SPARE_CPU", False)
        training_loss(MID, 8).backward()
        assert fvig.tensor._worker is None

    @pytest.mark.parametrize(
        "cpus, variables, spare",
        [
            (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
            (2, {"OMP_NUM_THREADS": "1"}, True),
            (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
            (4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, True),
            (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
            (2, {"OPENBLAS_NUM_THREADS": "many"}, False),
            (2, {}, False),  # unset: OpenBLAS takes every CPU
            (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
        ],
    )
    def test_a_cpu_is_spare_only_where_blas_leaves_one(self, monkeypatch, cpus, variables, spare):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in variables.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert fvig.tensor._blas_leaves_a_cpu() is spare


def grad_mode() -> bool:
    """Whether an op recorded now on this thread gets a graph node."""
    return (Tensor([1.0], requires_grad=True) * 2.0).requires_grad


def run_in_threads(*bodies) -> None:
    """Run each body on its own thread, join them, and raise the first body's error, if any."""
    errors = []

    def guarded(body):
        try:
            body()
        except Exception as err:  # raised again on the test's thread
            errors.append(err)

    threads = [threading.Thread(target=guarded, args=(body,)) for body in bodies]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]


def wait(event: threading.Event) -> None:
    assert event.wait(timeout=30), "the other thread never reached its step"


class TestGradModePerThread:
    def test_a_thread_records_while_another_holds_no_grad(self):
        x = Tensor(np.random.default_rng(91).normal(size=(3, 4)), requires_grad=True)
        holding, recorded = threading.Event(), threading.Event()

        def hold():
            with no_grad():
                holding.set()
                wait(recorded)

        def record():
            wait(holding)
            try:
                (x * x).sum().backward()
            finally:
                recorded.set()

        run_in_threads(hold, record)
        assert x.grad is not None and x.grad.tobytes() == (2.0 * x.data).tobytes()

    def test_no_grad_blocks_exited_out_of_order_leave_grad_mode_on(self):
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        after = {}

        def first():
            with no_grad():
                a_in.set()
                wait(b_in)
            a_out.set()
            after["first"] = grad_mode()

        def second():
            wait(a_in)
            with no_grad():
                b_in.set()
                wait(a_out)
            after["second"] = grad_mode()

        run_in_threads(first, second)
        run_in_threads(lambda: after.setdefault("fresh", grad_mode()))
        assert after == {"first": True, "second": True, "fresh": True} and grad_mode()

    def test_the_worker_lane_runs_under_the_callers_grad_mode(self, fresh_lane):
        assert fvig.tensor._two_lanes(grad_mode, grad_mode) == (True, True)
        with no_grad():
            assert fvig.tensor._two_lanes(grad_mode, grad_mode) == (False, False)
        assert fvig.tensor._two_lanes(grad_mode, grad_mode) == (True, True)


@pytest.fixture
def halves_spy(monkeypatch):
    """The threads that ran each split forward's halves, one ``[first, second]`` per split."""
    splits = []
    real = fvig.model._halves

    def spy(first, second):
        names = [None, None]

        def watched(i, lane):
            def run():
                names[i] = threading.current_thread().name
                return lane()

            return run

        out = real(watched(0, first), watched(1, second))
        splits.append(names)
        return out

    monkeypatch.setattr(fvig.model, "_halves", spy)
    return splits


def training_steps(config, batch: int, steps: int = 2) -> tuple[list[float], list[list]]:
    """Each step's loss and every parameter's gradient bytes (None without one), over AdamW steps."""
    rng = np.random.default_rng(100)
    model = FViGModel(config, rng=rng)
    images = rng.random((steps, batch, 3, config.image_size, config.image_size))
    labels = rng.integers(0, config.num_classes, size=(steps, batch))
    optimizer, dropout_rng = AdamW(model.named_parameters(), lr=1e-3), np.random.default_rng(101)
    losses, grads = [], []
    for x, y in zip(images, labels):
        loss = cross_entropy(model.forward(x, training=True, rng=dropout_rng), y)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
        grads.append([(name, None if t.grad is None else t.grad.tobytes()) for name, t in model.named_parameters()])
    return losses, grads


class TestSplitTrainingStep:
    def test_bytes_do_not_depend_on_a_spare_cpu(self, fresh_lane, halves_spy, monkeypatch):
        # a mid half of 8 images holds 8 * 64 nodes * 64 channels = _TWO_LANE_ELEMENTS // 4, the smallest split
        monkeypatch.setattr(fvig.tensor, "_SPARE_CPU", False)
        in_order = training_steps(MID, 16)
        assert halves_spy == [["MainThread", "MainThread"]] * 2 and fvig.tensor._worker is None
        monkeypatch.setattr(fvig.tensor, "_SPARE_CPU", True)
        on_lanes = training_steps(MID, 16)
        assert halves_spy[2:] == [["MainThread", "fvig-lane_0"]] * 2
        assert on_lanes == in_order
        assert all(grad is not None for name, grad in in_order[1][0] if ".saliency." not in name)

    def test_smaller_batches_do_not_split(self, fresh_lane, halves_spy):
        training_loss(MID, 15).backward()
        training_loss(checksuite.micro_config(), 64).backward()  # the crossover: 32 * 16 nodes * 32 channels
        assert halves_spy == []

    def test_gradients_match_one_pass_over_the_whole_batch(self, fresh_lane, halves_spy, monkeypatch):
        config = dataclasses.replace(checksuite.micro_config(), dropout=0.0)
        monkeypatch.setattr(fvig.tensor, "_TWO_LANE_ELEMENTS", 1 << 40)
        whole = training_steps(config, 5, steps=1)
        monkeypatch.setattr(fvig.tensor, "_TWO_LANE_ELEMENTS", 0)  # a micro batch of two images splits
        split = training_steps(config, 5, steps=1)
        assert halves_spy == [["MainThread", "fvig-lane_0"]]
        assert split[0] == pytest.approx(whole[0], rel=1e-12)
        for (name, a), (_, b) in zip(split[1][0], whole[1][0]):
            assert (a is None) == (b is None), name
            if a is not None:
                a, b = np.frombuffer(a), np.frombuffer(b)
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    def test_model_gradcheck_passes_on_a_split_step(self, fresh_lane, halves_spy, monkeypatch):
        monkeypatch.setattr(fvig.tensor, "_TWO_LANE_ELEMENTS", 0)
        config = checksuite.micro_config()
        rng = np.random.default_rng(102)
        model = FViGModel(config, rng=rng)
        images, labels = rng.random((4, 3, 32, 32)), rng.integers(0, config.num_classes, size=4)

        def loss():  # a fresh dropout generator per call fixes both halves' masks across the probes
            return cross_entropy(model.forward(images, training=True, rng=np.random.default_rng(103)), labels)

        report = model_grad_check(model.named_parameters(), loss, num_params=20, rng=np.random.default_rng(4))
        assert report.passed, report
        assert len(halves_spy) == 1 + 2 * 20

    def test_a_repeated_backward_replays_both_halves(self, fresh_lane, monkeypatch):
        monkeypatch.setattr(fvig.tensor, "_TWO_LANE_ELEMENTS", 0)
        model = FViGModel(checksuite.micro_config(), rng=np.random.default_rng(104))
        images = np.random.default_rng(105).random((4, 3, 32, 32))
        loss = cross_entropy(model.forward(images, training=True, rng=np.random.default_rng(106)), np.arange(4) % 3)
        loss.backward()
        once = [t.grad.copy() for _, t in model.named_parameters() if t.grad is not None]
        loss.backward()
        twice = [t.grad for _, t in model.named_parameters() if t.grad is not None]
        assert len(once) == len(twice) > 0
        assert all(b.tobytes() == (a + a).tobytes() for a, b in zip(once, twice))

    def test_dropout_masks_come_from_each_halfs_generator_on_any_lane(self, fresh_lane, monkeypatch):
        monkeypatch.setattr(fvig.tensor, "_TWO_LANE_ELEMENTS", 0)
        masks, real = [], fvig.model.dropout

        def recording(x, rate, training, rng=None):
            out = real(x, rate, training, rng)
            masks.append((len(x.data), threading.current_thread().name, (out.data == 0.0).tobytes()))
            return out

        monkeypatch.setattr(fvig.model, "dropout", recording)
        model = FViGModel(checksuite.micro_config(), rng=np.random.default_rng(107))
        images = np.random.default_rng(108).random((5, 3, 32, 32))  # halves of 2 and 3 images

        def by_half(run) -> dict:
            masks.clear()
            run()
            return {rows: [mask for n, _, mask in masks if n == rows] for rows in (2, 3)}

        def step():
            model.forward(images, training=True, rng=np.random.default_rng(109))

        on_lanes = by_half(step)
        assert {(n, thread) for n, thread, _ in masks} == {(2, "MainThread"), (3, "fvig-lane_0")}
        monkeypatch.setattr(fvig.tensor, "_SPARE_CPU", False)
        in_order = by_half(step)
        first, second = np.random.default_rng(109).spawn(2)
        alone = by_half(lambda: (model._pooled(images[:2], True, first), model._pooled(images[2:], True, second)))
        assert on_lanes == in_order == alone
        assert len(on_lanes[2]) == 2 * model.config.depth and on_lanes[2] != on_lanes[3]


def test_the_shared_store_keeps_both_halves_totals_for_every_leaf(fresh_lane):
    # both lanes hand 300 leaves' totals to one store at once, switching threads as often as they can;
    # a lost update would leave a leaf with one half's total
    rng = np.random.default_rng(110)
    leaves = [Tensor(rng.normal(size=3), requires_grad=True) for _ in range(300)]
    scales = rng.normal(size=(2, len(leaves), 2, 3))

    def half(scale):
        out = Tensor(np.zeros((2, 3)))
        for leaf, c in zip(leaves, scale):
            out = out + leaf * Tensor(c)
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            for leaf in leaves:
                leaf.grad = None
            fvig.tensor._join_halves(half(scales[0]), half(scales[1])).sum().backward()
            for leaf, first, second in zip(leaves, scales[0], scales[1]):
                assert leaf.grad.tobytes() == (first.sum(axis=0) + second.sum(axis=0)).tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert fvig.tensor._worker is not None


def half_result(name: str, leaf: Tensor, failing: tuple, finished: list) -> Tensor:
    """A [2, 3] half-batch result of ``leaf`` whose backward sleeps unless it fails first, then maybe raises."""

    def rule(g, pending):
        if name != failing[0]:
            time.sleep(0.2)
        finished.append(name)
        if name in failing:
            raise FloatingPointError(f"{name} half failed")
        fvig.tensor._send(pending, leaf, g.sum(axis=0))

    return Tensor._result(np.ones((2, 3)), (leaf,), rule)


@pytest.mark.parametrize(
    "failing", [("first",), ("second",), ("first", "second")], ids=["calling-lane", "worker-lane", "both-lanes"]
)
def test_an_error_in_either_halfs_backward_propagates_after_both_lanes_finish(fresh_lane, failing):
    finished, leaf = [], Tensor(np.ones(3), requires_grad=True)
    joined = fvig.tensor._join_halves(*(half_result(name, leaf, failing, finished) for name in ("first", "second")))
    with pytest.raises(FloatingPointError, match=f"{failing[0]} half failed"):
        joined.sum().backward()
    assert sorted(finished) == ["first", "second"] and fvig.tensor._worker is not None
    assert leaf.grad is None  # a half's total reaches .grad only once both halves have finished


@pytest.mark.parametrize(
    "failing",
    [("_head_dots",), ("_gated_scatter",), ("_head_dots", "_gated_scatter")],
    ids=["calling-lane", "worker-lane", "both-lanes"],
)
def test_an_exception_in_either_lane_propagates_after_the_other_finishes(fresh_lane, monkeypatch, failing):
    # gated_gather_sum's rule computes the gates' gradient (_head_dots) here and the rows' gradient
    # (_gated_scatter) on the worker; the first failing kernel raises at once and the other sleeps
    # first, so an error that propagated before both lanes finished would leave one unlisted
    finished = []

    def stand_in(name):
        kernel = getattr(fvig.tensor, name)

        def run(*args):
            if name != failing[0]:
                time.sleep(0.2)
            out = None if name in failing else kernel(*args)
            finished.append(name)
            if name in failing:
                raise FloatingPointError(f"{name} failed")
            return out

        return run

    rng = np.random.default_rng(96)
    gates = Tensor(rng.uniform(size=(2, 12, 3, 2)), requires_grad=True)
    rows = Tensor(rng.normal(size=(2, 12, 8)), requires_grad=True)
    monkeypatch.setattr(fvig.tensor, "_TWO_LANE_ELEMENTS", 0)
    for name in ("_head_dots", "_gated_scatter"):
        monkeypatch.setattr(fvig.tensor, name, stand_in(name))
    loss = gated_gather_sum(gates, rows, rng.integers(0, 12, size=(2, 12, 3))).sum()  # binds the kernels
    with pytest.raises(FloatingPointError, match=f"{failing[0]} failed"):  # both-lanes: the calling lane's
        loss.backward()
    assert sorted(finished) == ["_gated_scatter", "_head_dots"] and fvig.tensor._worker is not None
    assert gates.grad is None and rows.grad is None


def test_only_a_split_backward_loads_the_executor_module():
    # the worker's module loads lazily: import order alone moves a process's peak RSS
    script = """
import sys
import numpy as np
import fvig.tensor
from fvig.checksuite import micro_config
from fvig.data import synth_dataset
from fvig.model import FViGModel, ModelConfig
from fvig.train import TrainConfig, cross_entropy, train

fvig.tensor._SPARE_CPU = True
loaded = lambda: "concurrent.futures" in sys.modules
train(FViGModel(micro_config(), rng=np.random.default_rng(0)), synth_dataset(0, 3, 6, 32), TrainConfig(epochs=1))
after_micro = loaded()
mid = ModelConfig(image_size=64, patch_size=8, dim=64, depth=4, k=4, heads=4, num_classes=4)
rng = np.random.default_rng(1)
model, images = FViGModel(mid, rng=rng), rng.random((8, 3, 64, 64))
model.eval_logits(images)
after_eval = loaded()
cross_entropy(model.forward(images, training=True, rng=rng), rng.integers(0, 4, size=8)).backward()
print(after_micro, after_eval, loaded())
"""
    env = program_env(OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False", "True"]


def test_the_worker_lane_runs_under_the_callers_numpy_error_state(fresh_lane, monkeypatch):
    # gated_gather_sum's worker lane computes the rows' gradient from gates * g, which overflows
    # here; the calling lane's rows . g does not
    rng = np.random.default_rng(95)
    gates = Tensor(np.full((2, 12, 3, 2), 1e200), requires_grad=True)
    rows = Tensor(rng.normal(size=(2, 12, 8)) * 1e-300, requires_grad=True)
    out = gated_gather_sum(gates, rows, rng.integers(0, 12, size=(2, 12, 3)))
    loss = (out * Tensor(np.full(out.shape, 1e200))).sum()
    monkeypatch.setattr(fvig.tensor, "_TWO_LANE_ELEMENTS", 0)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        loss.backward()
    assert fvig.tensor._worker is not None


def test_scatter_plan_memo_survives_racing_threads():
    # the memo is read once and replaced whole, so a thread that loses a race only rebuilds a plan
    rng = np.random.default_rng(97)
    cases = []
    for n in (5, 7, 9):
        index, values = rng.integers(0, n, size=(2, n, 3)), rng.normal(size=(2, n, 3, 2))
        expected = np.zeros((2, n, 2))
        np.add.at(expected, (np.arange(2)[:, None, None], index), values)
        cases.append((values, index, n, expected.tobytes()))
    wrong = []

    def hammer(offset):
        for i in range(300):
            values, index, n, expected = cases[(i + offset) % len(cases)]
            try:
                if fvig.tensor._scatter_add(values, index, n).tobytes() != expected:
                    wrong.append((offset, i, "wrong sums"))
            except (IndexError, ValueError) as err:  # a plan for another index can also fail to fit
                wrong.append((offset, i, repr(err)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(offset,)) for offset in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# Runs in a fresh interpreter so that the BLAS thread count is fixed before numpy loads. It
# prints whether every two-lane gradient equals its inline reference, a digest of them, and
# whether the worker ran.
LANES_SCRIPT = """
import hashlib, json
import numpy as np
import fvig.tensor as T

T._SPARE_CPU = True  # two lanes under any BLAS thread count
rng = np.random.default_rng(98)
a, w, g = rng.normal(size=(784, 192)), rng.normal(size=(192, 768)), rng.normal(size=(784, 768))
index = rng.integers(0, 196, size=(4, 196, 9))
gates, rows, h = rng.uniform(size=(4, 196, 9, 4)), rng.normal(size=(4, 196, 192)), rng.normal(size=(4, 196, 192))
cases = [
    (T.matmul, (a, w), g, [g @ w.T, a.T @ g]),
    (lambda x, y: T.gated_gather_sum(x, y, index), (gates, rows), h,
     [T._head_dots(rows, h, index, 4), T._gated_scatter(gates, h, index)]),
]
equal, digest = True, hashlib.sha256()
for _ in range(3):
    for op, operands, upstream, reference in cases:
        leaves = [T.Tensor(x, requires_grad=True) for x in operands]
        (op(*leaves) * T.Tensor(upstream)).sum().backward()  # each output gets exactly `upstream`
        for leaf, expected in zip(leaves, reference):
            equal &= leaf.grad.tobytes() == expected.tobytes()
            digest.update(leaf.grad.tobytes())
print(json.dumps({"equal": equal, "digest": digest.hexdigest(), "worker": T._worker is not None}))
"""


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_two_lane_gradients_equal_inline_ones_under_each_blas_thread_count(blas_threads):
    threads = str(blas_threads)
    env = program_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    done = subprocess.run(
        [sys.executable, "-c", LANES_SCRIPT], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["worker"] and result["equal"], result


FORK_SCRIPT = """
import os, time
import numpy as np
import fvig.tensor as T

T._SPARE_CPU = True
rng = np.random.default_rng(99)
a, w = T.Tensor(rng.normal(size=(512, 256)), requires_grad=True), T.Tensor(rng.normal(size=(256, 64)), requires_grad=True)
T.matmul(a, w).sum().backward()
assert T._worker is not None
with T._worker_lock:  # as if another thread were inside _both when this one forks
    pid = os.fork()
    if pid == 0:  # the child has no copy of the worker thread; its backward must start its own
        T.matmul(a, w).sum().backward()
        os._exit(0 if T._worker is not None else 1)
for _ in range(600):  # a child left waiting on a worker that does not exist would hang: stop it after 60 s
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print("child exit", os.waitstatus_to_exitcode(status))
        break
    time.sleep(0.1)
else:
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    print("child hung")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker():
    done = subprocess.run([sys.executable, "-c", FORK_SCRIPT], env=program_env(), capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "child exit 0", done.stderr
