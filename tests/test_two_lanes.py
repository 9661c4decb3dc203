"""The backward's second lane: a large op's two operand gradients run on two threads, bit for bit.

``fvig.tensor._both`` runs one gradient kernel on a single worker thread while the other runs on
the calling thread. These tests pin down when it does (large two-operand rules only, never a
forward), that an exception in either lane surfaces after both finish, that the worker runs under
the caller's numpy error state, that the shared scatter plan memo survives racing threads, that a
forked child starts its own worker, and that the gradients equal one-thread references byte for
byte under one and under two BLAS threads.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fvig.tensor
from fvig import checksuite
from fvig.checksuite import run_suite
from fvig.model import FViGModel
from fvig.tensor import Tensor, gated_gather_sum, no_grad

from test_bench_hooks import MID, training_loss

SRC = Path(fvig.tensor.__file__).resolve().parent.parent


@pytest.fixture
def fresh_lane(monkeypatch):
    """No worker yet and a CPU left free by BLAS; a worker started by the test is shut down after it."""
    monkeypatch.setattr(fvig.tensor, "_worker", None)
    monkeypatch.setattr(fvig.tensor, "_SPARE_CPU", True)
    yield
    if fvig.tensor._worker is not None:
        fvig.tensor._worker.shutdown()


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


@pytest.mark.parametrize("failing", ["_head_dots", "_gated_scatter"], ids=["calling-lane", "worker-lane"])
def test_an_exception_in_either_lane_propagates_after_the_other_finishes(fresh_lane, monkeypatch, failing):
    # gated_gather_sum's rule computes the gates' gradient (_head_dots) here and the rows' gradient
    # (_gated_scatter) on the worker
    other = "_gated_scatter" if failing == "_head_dots" else "_head_dots"
    kernel, finished = getattr(fvig.tensor, other), []

    def slow(*args):
        time.sleep(0.2)
        out = kernel(*args)
        finished.append(out)
        return out

    def fail(*args):
        raise FloatingPointError("lane failed")

    rng = np.random.default_rng(96)
    gates = Tensor(rng.uniform(size=(2, 12, 3, 2)), requires_grad=True)
    rows = Tensor(rng.normal(size=(2, 12, 8)), requires_grad=True)
    loss = gated_gather_sum(gates, rows, rng.integers(0, 12, size=(2, 12, 3))).sum()
    monkeypatch.setattr(fvig.tensor, "_TWO_LANE_ELEMENTS", 0)
    monkeypatch.setattr(fvig.tensor, failing, fail)
    monkeypatch.setattr(fvig.tensor, other, slow)
    with pytest.raises(FloatingPointError, match="lane failed"):
        loss.backward()
    assert len(finished) == 1 and fvig.tensor._worker is not None
    assert gates.grad is None and rows.grad is None


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
