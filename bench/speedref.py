"""Machine-speed references paired with every timed op and set-up.

The speed of this class of shared 2-vCPU runner drifts by up to 1.6x over
minutes, with almost no steal time reported. So the same op's median moves
far more between runs than within one. Each timed op is therefore paired
with a reference that never touches alphaprobe, run just before it. The
op's time is reported as `time * nominal / reference`: the time it would
take on a machine where the reference takes its nominal value. Raw times
are printed next to the metrics.

- `kernel` is for in-process ops. It mixes the kinds of work the package
  does: a batched 2x2 Hermitian eigensolve, ufunc powers and sums, and a
  Python loop over floats. The garbage collector is paused while it runs,
  so collections the program triggers stay in the program's own time.
- `cold_start` is for whole processes. It is a fresh interpreter that only
  imports numpy, the same kind of work as the start of a CLI call or a
  benchmark set-up.
"""
from __future__ import annotations

import gc
import sys
import time

import numpy as np

from child import run_child

# medians measured when the benchmark was defined; they only set the scale
KERNEL_NOMINAL_MS = 3.7
COLD_START_NOMINAL_MS = 200.0

_rng = np.random.default_rng(20200414)
_A = _rng.standard_normal((500, 2, 2)) + 1j * _rng.standard_normal((500, 2, 2))
_A = _A + np.conj(np.swapaxes(_A, 1, 2))


def _kernel() -> float:
    acc = 0.0
    for _ in range(4):
        w = np.linalg.eigvalsh(_A @ _A)
        acc += float(np.sum(w**0.7))
        acc += sum(float(x) for x in w[:60, 0])
    return acc


def kernel(reps: int) -> float:
    """Speed factor (nominal / measured) from `reps` back-to-back kernel runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            _kernel()
        elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()
    return KERNEL_NOMINAL_MS * reps / elapsed_ms


def cold_start(env: dict, timeout: float = 60.0) -> float:
    """Speed factor (nominal / measured) from one interpreter that imports numpy."""
    run = run_child([sys.executable, "-c", "import numpy"], env, timeout)
    if run.code != 0:
        raise RuntimeError(f"cold-start reference exited {run.code}")
    return COLD_START_NOMINAL_MS / (run.elapsed_ns / 1e6)
