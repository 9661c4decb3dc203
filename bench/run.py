"""Benchmark entry point.

    python3 bench/run.py --workload micro-recipe --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process with BLAS threads
pinned, checks its outputs, and prints every metric with its unit; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs set-up + task untraced, then traced, and reports the
per-layer metrics and the tracing overhead (traced wall time minus
untraced). Full results, and the spans of a traced run, go to
``.bench_run/<workload>/`` under the checkout root.

Exit status: 0 when a result line was printed (``correct`` tells whether
every operation passed), 2 when the arguments are bad or the fvig sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up is short, so setup_s is the median of many: a few before the first
# task, then more spread over the run (see SetupSampler)
SETUP_FIRST = 3
SETUP_SHARE = 0.05
BLAS_THREADS = 1
END_TO_END = [
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("images_per_s", "1/s"),
    ("task_s", "s"),
    ("peak_rss_mb", "MiB"),
]
_SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name for the last-level cache size


def pin_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy is imported.

    On a 2-core host a second BLAS thread doubles the CPU time of the big
    workloads (it mostly spins) without shortening their steps, and the
    step times spread more.
    """
    threads = BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program() -> None:
    """Import fvig from this checkout's sources, never from an installed copy."""
    package = ROOT / "src" / "fvig"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"fvig sources not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import fvig

    if Path(fvig.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported fvig from {fvig.__file__}, expected {package}")


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None  # e.g. a checkout that is not a git repository
    return done.stdout.strip()


def llc_bytes() -> int | None:
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        size = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def host_record(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "llc_bytes": llc_bytes(),
    }


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def attempt(fn, *args):
    """Run one operation: (value, None), or (None, error) for any exception.

    This is the runner's boundary: a failure, MemoryError included, is
    counted and reported, never raised further.
    """
    try:
        return fn(*args), None
    except Exception as err:
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(err).__name__}: {err}"


def check_failures(result, first_digest: str | None) -> list[str]:
    failures = [f"check failed: {name}" for name, ok in result.checks.items() if not ok]
    if first_digest is not None and result.digest != first_digest:
        failures.append("output digest differs from the first task's")
    return failures


class Tally:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def record(self, result, error: str | None, first_digest: str | None = None) -> bool:
        """Count one operation; True when it raised nothing and passed every check."""
        self.attempted += 1
        problems = [error] if error else check_failures(result, first_digest)
        self.failed += bool(problems)
        self.failures += problems
        if result is not None:
            self.digests.append(result.digest)
        return not problems


class SetupSampler:
    """Set-up samples spread over a run.

    The host's speed drifts over seconds, so set-ups timed in one burst see
    one moment of it, and runs disagree. Spread between the steps and tasks,
    the samples see the same host as the task does. Each ``top_up`` adds
    samples until they make up ``SETUP_SHARE`` of the run's time so far.
    """

    def __init__(self, workload, seed: int, workdir: Path, tally: Tally):
        self.args = (workload.setup, seed, workdir)
        self.tally = tally
        self.samples: list[float] = []
        self.total_s = 0.0
        self.failed = False
        self.began = time.perf_counter()

    def once(self) -> dict | None:
        start = time.perf_counter()
        state, error = attempt(*self.args)
        self.samples.append(time.perf_counter() - start)
        self.total_s += self.samples[-1]
        if error:
            self.tally.record(None, error)
            self.failed = True
        return state

    def top_up(self) -> float:
        """Take the samples now due, dropping their state; returns the seconds this took."""
        start = time.perf_counter()
        while not self.failed and self.total_s < SETUP_SHARE * (time.perf_counter() - self.began):
            self.once()
        return time.perf_counter() - start


def measure(workload, seed: int, seconds: float, workdir: Path, clock, tally: Tally) -> dict:
    """Untraced run: set-up + task while ``seconds`` allow, set-up samples spread over it.

    The first task always runs; another one runs only if it would likely
    end within the budget. Set-up samples taken between a task's training
    steps are left out of its wall time.
    """
    sampler = SetupSampler(workload, seed, workdir, tally)
    state = None
    for _ in range(SETUP_FIRST):
        state = None  # let the previous set-up's arrays go first
        state = sampler.once()
        if state is None:
            return {"setup_s": sampler.samples, "tasks": []}
    tasks = []
    began = time.perf_counter()
    clock.between = sampler.top_up
    while state is not None:
        clock.reset()
        start = time.perf_counter()
        result, error = attempt(workload.task, state, clock)
        wall = time.perf_counter() - start - clock.between_s
        state = None
        first = tally.digests[0] if tally.digests else None
        if not tally.record(result, error, first) or sampler.failed:
            break  # the run is already incorrect; do not repeat the failure
        tasks.append((wall, result))
        # stop before a task that would likely end past the budget
        if time.perf_counter() - began + statistics.median(w for w, _ in tasks) > seconds:
            break
        sampler.top_up()
        state = sampler.once()
    clock.between = None
    return {"setup_s": sampler.samples, "tasks": tasks}


def end_to_end(run: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, and the extra figures printed with them."""
    tasks = run["tasks"]
    steps = [s for _, result in tasks for s in result.steps_s]
    metrics = {
        "setup_s": statistics.median(run["setup_s"]),
        "step_ms_p50": 1e3 * statistics.median(steps) if steps else None,
        "images_per_s": sum(r.images for _, r in tasks) / sum(steps) if steps else None,
        "task_s": statistics.median(wall for wall, _ in tasks) if tasks else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"tasks": len(tasks), "step_samples": len(steps), "setup_samples": len(run["setup_s"])}
    # a percentile is reported only with at least ten samples beyond it
    if len(steps) >= 100:
        extra["step_ms_p90"] = 1e3 * statistics.quantiles(steps, n=10)[-1]
    for key in tasks[0][1].extra if tasks else ():
        extra[key] = statistics.median(r.extra[key] for _, r in tasks)
    return metrics, extra


def measure_traced(workload, seed: int, workdir: Path, clock, tally: Tally, spans_path: Path) -> dict:
    """Per-layer metrics from one traced set-up + task, and the tracing overhead.

    The overhead is the traced pass's wall time minus that of an untraced
    pass just before it. Both follow an untraced warm-up pass, since the
    first pass in a process pays for cold start (first page faults, lazy
    imports) and would make the overhead read low, even below zero.
    """
    from tracing import Tracer

    def once(setup, task) -> tuple[float, bool]:
        clock.reset()
        start = time.perf_counter()
        state, error = attempt(setup, seed, workdir)
        result = None
        if not error:
            result, error = attempt(task, state, clock)
        wall = time.perf_counter() - start
        first = tally.digests[0] if tally.digests else None
        return wall, tally.record(result, error, first)

    untraced_wall, ok = once(workload.setup, workload.task)  # warm-up
    if ok:
        untraced_wall, ok = once(workload.setup, workload.task)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced_ok = once(
            lambda *a: tracer.phase("bench.setup", workload.setup, *a),
            lambda *a: tracer.phase("bench.task", workload.task, *a),
        )
    finally:
        tracer.uninstall()
    tracer.save(spans_path)
    metrics = tracer.metrics(overhead_s=traced_wall - untraced_wall)
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "missing_layers": tracer.missing}
    return metrics if ok and traced_ok else {}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fvig benchmark")
    parser.add_argument("--workload", required=True, choices=["micro-recipe", "vigti-train", "mid-eval"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    try:
        import_program()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, StepClock

    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    out = ROOT / ".bench_run" / args.workload
    workdir = out / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    host = host_record(threads)
    tally = Tally()
    clock = StepClock()
    probes = tracing.Patches()
    clock.install(probes)
    try:
        if args.trace:
            metrics, extra = measure_traced(workload, seed, workdir, clock, tally, out / "spans.npz")
            units = dict(tracing.metric_specs())
        else:
            run = measure(workload, seed, args.seconds, workdir, clock, tally)
            metrics, extra = end_to_end(run)
            units = dict(END_TO_END)
    finally:
        probes.undo()

    correct = tally.failed == 0 and bool(metrics)
    extra["error_rate"] = tally.failed / max(1, tally.attempted)
    llc = host["llc_bytes"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "largest_array_bytes": workload.largest_array_bytes,
        "largest_array_fits_llc": None if llc is None else workload.largest_array_bytes <= llc,
        "digests": sorted(set(tally.digests)),
        "failures": tally.failures,
        "extra": extra,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"host {json.dumps(host)}")
    fits = record["largest_array_fits_llc"]
    print(
        f"largest array {workload.largest_array_bytes} B (distance difference tensor); "
        f"last-level cache {llc} B; fits: {'unknown' if fits is None else fits}"
    )
    for name, entry in record["metrics"].items():
        print(f"  {name:<40} {entry['value']!s:>24} {entry['unit']}")
    for name, value in extra.items():
        print(f"  extra {name:<34} {value!s:>24}")
    print(f"digest {', '.join(record['digests']) or '-'}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": record["metrics"]}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
