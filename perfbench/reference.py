"""A fixed reference job that gauges the machine's speed during a run.

The benchmark's box is shared: its speed drifts by tens of percent from one
minute to the next, which no amount of repetition inside a 30-second run
averages out. So each run also times this fixed job, interleaved with the
set-ups and the workload's repetitions, and scales the workload's times to
a machine on which the job takes NOMINAL_S seconds. A change to the program
moves the workload's time and not the job's, so it still shows in full; a
slow or fast spell of the box moves both.

The job is numpy over 2.4 million elements in chunks small enough not to
raise the process's peak memory. On the 2-core box a job of this kind
tracked the drift of both stream and BER repetitions better than an
interpreter-bound job of Python objects and small numpy calls did. The
scaling uses the runs just before and after each timed span, because the
box's speed also changes within seconds.
"""
from __future__ import annotations

import time

NOMINAL_S = 0.1


def seconds() -> float:
    """Seconds taken by one run of the fixed job (arrays of at most ~2 MB)."""
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    probe = np.exp(-2j * np.pi * np.arange(16) / 16)
    for k in range(24):
        x = np.linspace(k, k + 1.0, 100_000)
        noisy = np.sin(np.cumsum(x)) + rng.normal(0.0, 1.0, x.size)
        np.abs(noisy.reshape(-1, 16) @ probe)
    return time.perf_counter() - t0


def normalized(times: list[float], refs: list[float]) -> list[float]:
    """Scale each time to the nominal machine by the reference runs taken
    just before and just after it (refs[i] and refs[i + 1])."""
    if len(refs) != len(times) + 1:
        raise ValueError(f"need {len(times) + 1} reference runs, got {len(refs)}")
    return [t * NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]
