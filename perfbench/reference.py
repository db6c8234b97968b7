"""A fixed reference loop that gauges the interpreter's speed from moment to moment.

The benchmark shares a few virtual CPUs of a busy host, whose speed flips
between a fast and a slow state (up to 1.7x apart) within seconds while
the program stays the same.  A fixed chunk of interpreter work, timed
between the steps of every measured run, sees the same flips.  Dividing a
wall time by the mean chunk time around it, and multiplying by
:data:`REFERENCE_CHUNK_S`, gives *reference seconds*: the time the work
would take at the speed where one chunk takes exactly that long.  The chunk
never calls the program, so a change to the program moves reference
seconds as it moves wall seconds.

The program slows less than the chunk in the slow state (wall time
against chunk time has a log-log slope of about 0.7 to 0.9), so reference
seconds still move a little with the host, in the other direction.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: Nominal seconds of one chunk: about its fast-state time on a 2-vCPU
#: Intel Xeon virtual machine, so reference seconds read close to wall
#: seconds there.
REFERENCE_CHUNK_S = 0.006

#: Events per chunk, and how often an event draws a small numpy array.
_CHUNK_EVENTS = 3000
_NUMPY_EVERY = 8


class _Event:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def reference_chunk() -> float:
    """One chunk of work like the program's own: a small event heap,
    slotted objects, dict updates, and small numpy draws of the kind the
    sensors make.  Returns a checksum."""
    rng = np.random.default_rng(0)
    heap: "list[tuple[float, int, _Event]]" = []
    totals: "dict[int, float]" = {}
    total = 0.0
    for seq in range(_CHUNK_EVENTS):
        value = seq * 0.5
        if seq % _NUMPY_EVERY == 0:
            value += float(np.clip(rng.normal(20.0, 2.0, size=8), 0.0, 40.0).mean())
        heapq.heappush(heap, ((seq * 7919) % 1009 * 0.25, seq, _Event(seq % 97, value)))
        if len(heap) > 64:
            _, _, done = heapq.heappop(heap)
            totals[done.key] = totals.get(done.key, 0.0) + done.value
            total += done.value
    return total + len(totals)


class SpeedGauge:
    """Times reference chunks and converts wall seconds to reference seconds."""

    def __init__(self) -> None:
        reference_chunk()  # warm-up
        self.samples: "list[float]" = []

    def sample(self) -> float:
        """Time one chunk; keep and return its wall seconds."""
        start = time.perf_counter()
        reference_chunk()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def to_reference(wall_s: float, chunks: "list[float]") -> float:
        """``wall_s`` in reference seconds, at the mean speed of ``chunks``.

        The machine flips between a fast and a slow state, so chunk times
        are bimodal; their mean follows the share of time spent in each
        state, where a median would jump from one state to the other.
        """
        return wall_s * REFERENCE_CHUNK_S / statistics.fmean(chunks)

    @classmethod
    def steps_to_reference(cls, steps_s: "list[float]", chunks: "list[float]") -> float:
        """Sum of timed steps in reference seconds, each at the speed of
        the chunks just before and after it (``chunks`` has one more item)."""
        return sum(
            cls.to_reference(step, chunks[i:i + 2]) for i, step in enumerate(steps_s)
        )
