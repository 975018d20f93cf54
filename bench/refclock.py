"""The benchmark's reference clock: a fixed pure-Python kernel.

The shared VM the benchmark runs on changes speed by up to a factor of
two, in phases from a second to minutes long, as other tenants load it;
CPU time moves with wall time, so the slowdown is in the processor, not
in the scheduler. The kernel below does the kind of work the staralg
scalar path does (small frozen dataclasses checked on construction,
dispatch through a table, ``math.exp``/``math.log`` round trips, float
arithmetic) and never changes, so timing it next to every operation
measures the machine's speed at that moment. An operation's cost in
kernel runs (``ref``) follows the code and hardly the load.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

KERNEL_STEPS = 400
KERNEL_NS = 300_000  # a kernel run on a quiet 2-core x86-64 VM
SAMPLE_SHARE = 0.02  # kernel time after an operation, as a share of its time
MAX_RUNS = 200


@dataclass(frozen=True)
class _Value:
    image: float

    def __post_init__(self):
        if not math.isfinite(self.image):
            raise ValueError(f"{self.image!r} is not finite")


_FORWARD = {"exp": math.exp, "identity": float}
_INVERSE = {"exp": math.log, "identity": float}


def kernel(steps: int = KERNEL_STEPS) -> float:
    """A fixed amount of work; the value keeps it from being trivial."""
    v = _Value(0.5)
    for i in range(steps):
        name = "exp" if i & 1 else "identity"
        x = _INVERSE[name](_FORWARD[name](v.image * 0.5 + 0.25))
        v = _Value(x * 0.75 + 0.125)
    return v.image


def sample(after_ns: int = 0) -> tuple[int, int]:
    """Kernel runs and their total wall time, taken after an operation of
    ``after_ns``: one run, or enough for about SAMPLE_SHARE of the
    operation's time. One run is a noisy reading of the machine's speed,
    since that changes within milliseconds; a long operation averages
    over its whole length, so it is compared with many runs."""
    runs = max(1, min(MAX_RUNS, round(after_ns * SAMPLE_SHARE / KERNEL_NS)))
    t0 = time.perf_counter_ns()
    for _ in range(runs):
        kernel()
    return runs, time.perf_counter_ns() - t0
