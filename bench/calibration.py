"""A fixed kernel that tracks how fast the machine runs Python right now.

On a shared machine host time drifts by tens of percent over minutes as
neighbours come and go, and a median over one run cannot average that
away.  The benchmark therefore runs this kernel before and after every
timed pass and scales the pass by REFERENCE_S / (mean kernel time):
the result reads in seconds on a machine where the kernel takes
REFERENCE_S.  The kernel does the same kinds of work as the simulator
(JSON decode, frozen-dataclass construction, heap events, dict
snapshots) and calls no twillsim code, so no change to the program can
move it.  Raw seconds are reported beside every scaled figure.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import time
from dataclasses import dataclass

# Kernel time in the fast state of a shared 2-vCPU x86_64 virtual machine
# (about its 20th percentile), CPython 3.11.
REFERENCE_S = 0.032


@dataclass(frozen=True)
class _Layer:
    op: str
    flops: int
    shape: tuple
    kernel: tuple


def _document() -> str:
    rng = random.Random(11)
    layers = [{"op": rng.choice(("Conv", "Relu", "MatMul", "Add")),
               "flops": rng.randrange(10**6, 10**9),
               "in_shape": [1, rng.randrange(1, 512), 56, 56],
               "kernel": [3, 3]} for _ in range(3000)]
    return json.dumps({"layers": layers}, indent=1)


_DOC = _document()


def _work() -> int:
    doc = json.loads(_DOC)
    layers = [_Layer(d["op"], int(d["flops"]), tuple(d["in_shape"]),
                     tuple(d["kernel"])) for d in doc["layers"]]
    heap = [(layer.flops % 9973, i) for i, layer in enumerate(layers)]
    heapq.heapify(heap)
    snapshots = 0
    while heap:
        _, i = heapq.heappop(heap)
        if i % 50 == 0:
            snapshots += len({k: (v.op, v.flops)
                              for k, v in enumerate(layers[:300])})
    return snapshots


def kernel_seconds() -> float:
    """Host seconds for three rounds of the kernel."""
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(3):
        _work()
    return time.perf_counter() - t0


class Clock:
    """Scales each timed span by the kernel runs just before and after it."""

    def __init__(self):
        self._last = kernel_seconds()
        self.kernel: list[float] = [self._last]

    def scale(self, seconds: float) -> float:
        now = kernel_seconds()
        self.kernel.append(now)
        factor = REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        return seconds * factor
