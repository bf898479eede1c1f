"""The host probe: a fixed piece of work, timed in a process of its own.

This host's speed drifts by a third for minutes at a time, one vCPU at a
time, and the repository's operations follow the probe closely (see
README.md). Wall times are therefore also reported in *reference*
milliseconds: wall time x (REFERENCE_PROBE_SECONDS / the probe readings
around it).

The work runs in this file's own interpreter, which ``run.py`` starts once
and pins to the CPU the workload is pinned to. It shares no GIL, heap or
garbage collector with the program under test, so a change to the program
cannot move its own yardstick. The workload's interpreter asks for a
reading between rounds — never during an operation — by writing one byte
to the probe's standard input, and blocks until the reading comes back as
one line on its standard output.
"""

from __future__ import annotations

import bisect
import os
import sys
import time

from stats import median

#: What the probe takes on the authoring host at its calmest, so that one
#: reference millisecond is one wall millisecond there.
REFERENCE_PROBE_SECONDS = 1.6e-3
PROBE_EVERY_SECONDS = 0.010


class HostProbe:
    """The asking end: requests readings and keeps them."""

    def __init__(self, request_fd: int, reply_fd: int) -> None:
        self._request, self._reply = request_fd, reply_fd
        self.at: list[float] = []
        self.seconds: list[float] = []

    def take(self) -> None:
        os.write(self._request, b"\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = os.read(self._reply, 64)
            if not chunk:
                raise RuntimeError("the host probe process has gone")
            reply += chunk
        self.seconds.append(float(reply))
        self.at.append(time.perf_counter())

    def due(self) -> bool:
        return time.perf_counter() - self.at[-1] >= PROBE_EVERY_SECONDS

    def speed(self, started: float) -> float:
        """Host speed around a round that began at ``started``: the
        reference over the median of the two readings before it and the
        two after (none is ever taken during a round)."""
        first_after = bisect.bisect_left(self.at, started)
        nearby = self.seconds[max(0, first_after - 2):first_after + 2]
        return REFERENCE_PROBE_SECONDS / median(nearby)


def serve(cpu: int) -> None:
    """The probe process. The fixed work is small dense products, sums,
    transposed copies and a dictionary of tuples: the mix of NumPy calls,
    allocation and interpreter work the layers themselves are made of."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    import numpy

    rng = numpy.random.default_rng(0)
    tiles = [rng.random((1024, 48)) for _ in range(5)]
    square = rng.random((48, 48))
    while os.read(0, 1):
        started = time.perf_counter()
        for tile in tiles:
            product = tile @ square
            product = product + tile
            product.T.copy()
        {i: (i, i + 1) for i in range(3000)}
        seconds = time.perf_counter() - started
        os.write(1, f"{seconds!r}\n".encode())


if __name__ == "__main__":
    serve(int(sys.argv[1]))
