"""Benchmark of the trajvrnn library: one workload per process.

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from `src/` next to
this directory, never from an installed copy. The run builds its inputs
from `--seed`, warms up, measures for `--seconds` in a closed loop with
one caller, checks the outputs, and prints a report followed by one JSON
line: the end-to-end metrics with `--trace 0`, the per-layer split with
`--trace 1`. It exits non-zero when an operation or check failed.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads. On a 2-CPU machine a second thread made train-ref steps
# 6-10% faster and train-desk steps no faster, while its spin-waits took
# the CPU that everything else on the machine runs on.
BLAS_THREADS = 1
# set-up is repeated this many times and its median reported
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-ref", "train-desk", "infer-eval", "data-io")
E2E_UNITS = {"setup_s": "s", "seq_per_s": "seq/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_threads():
    """Fix BLAS threads before numpy loads; returns (threads, nproc)."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def import_library():
    if not (SRC / "trajvrnn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trajvrnn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trajvrnn
    if not Path(trajvrnn.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: trajvrnn imported from {trajvrnn.__file__}, "
                         f"not from {SRC}")


def environment(threads, nproc, seed):
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "blas_threads": threads, "nproc": nproc,
            "blas_threads_seen": blas_threads_seen(np),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu, "python": platform.python_version()}


def blas_threads_seen(np):
    """Thread count the loaded OpenBLAS reports, or None when unknown."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("*openblas*"):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                return fn()
    return None


class Counter:
    """Operations attempted and failed; a failure is kept and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def run_round(wl, state, counter, tracer, i):
    """One round, inside a "bench.round" span when traced; returns (round
    index, wall seconds, record), or None when the round failed."""
    if tracer is not None:
        tracer.step = i
        idx = tracer.open("bench.round")
    t0 = perf_counter()
    record = counter.attempt(wl.round, state, counter)
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.end(idx)
    return None if record is None else (i, wall, record)


def timed_rounds(wl, state, seconds, counter):
    """Closed loop: rounds back to back until `seconds` have passed and
    at least `wl.min_rounds` were attempted."""
    rounds = []
    start = perf_counter()
    i = 0
    while i < wl.min_rounds or perf_counter() - start < seconds:
        result = run_round(wl, state, counter, None, i)
        if result is not None:
            rounds.append(result)
        i += 1
    return rounds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    threads, nproc = pin_threads()
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    env = environment(threads, nproc, args.seed)
    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    counter = Counter()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        imported = perf_counter() - T_START
        builds = []
        for _ in range(SETUP_REPEATS):
            state = None  # free the previous build so it does not raise peak RSS
            t0 = perf_counter()
            state = wl.build()
            builds.append(perf_counter() - t0)
        t0 = perf_counter()
        wl.warm_up(state, counter)
        warm_up_s = perf_counter() - t0
        setup_s = imported + statistics.median(builds) + warm_up_s

        if args.trace:
            metrics, lines = tracing.traced_run(wl, state, args.seconds, counter,
                                                run_round)
        else:
            rounds = timed_rounds(wl, state, args.seconds, counter)
            if not rounds:
                raise SystemExit("perfbench: every timed round failed: "
                                 + "; ".join(counter.errors[:3]))
            e2e, lines = wl.summary(state, [r for _, _, r in rounds])
            metrics = {"setup_s": setup_s, **e2e, "peak_rss_mb": peak_rss_mb()}
            lines = [("setup_s", setup_s, "s",
                      f"import {imported:.3f} + median of {SETUP_REPEATS} builds "
                      f"{statistics.median(builds):.3f} + warm-up {warm_up_s:.3f}")] \
                + lines + [("peak_rss_mb", metrics["peak_rss_mb"], "MB", "")]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = tracing.UNITS if args.trace else E2E_UNITS
    print(f"# perfbench workload={args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, note in lines:
        print(f"{name:<24} {value:>14.6g} {unit:<8} {note}".rstrip())
    print(f"failed_frac              {counter.failed / max(1, counter.attempted):>14.6g} "
          f"ratio    {counter.failed} of {counter.attempted} operations")
    for err in counter.errors[:10]:
        print(f"# failed: {err}")
    result = {"correct": counter.failed == 0, "attempted": counter.attempted,
              "failed": counter.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if counter.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
