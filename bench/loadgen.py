"""Due-time open-loop and closed-loop HTTP load for the serve workload.

Open loop: a seeded Poisson schedule fixes when each request is *due*.
A generator releases requests at their due times into a FIFO queue; at
most ``connections`` keep-alive connections take requests from it, so a
stalled server makes requests wait in the queue rather than vanish.
Latency runs from the due time to the end of the response, which
charges a stall to every request it delays (no coordinated omission).
A failed or refused request has infinite latency.  The generator's own
lateness (release time minus due time) and the largest queue backlog are
reported, so a run whose generator fell behind can be recognised.

Closed loop: each connection sends its next request as soon as the last
one returns (no think time); completed requests per second is the
server's capacity for the mix.

The HTTP exchange itself, the endpoint description and the Zipf
popularity are the program's own (``repro.serve.http.http_call``,
``repro.serve.loadgen.EndpointSpec`` and ``ZipfPopularity``); this module
adds only the due-time scheduling, queueing and timing around them.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.http import http_call
from repro.serve.loadgen import EndpointSpec

clock = time.perf_counter


def poisson_schedule(rng: np.random.Generator, rate_per_s: float,
                     duration_s: float) -> np.ndarray:
    """Due times (seconds from start) of a Poisson process."""
    expected = int(rate_per_s * duration_s)
    gaps = rng.exponential(1.0 / rate_per_s,
                           size=expected + 8 * int(math.sqrt(expected)) + 16)
    due = np.cumsum(gaps)
    return due[due < duration_s]


@dataclass
class OpenLoopState:
    """Bookkeeping of one open-loop run, driven by explicit times.

    The asyncio driver calls :meth:`release`, :meth:`dispatch` and
    :meth:`complete` with clock readings; tests call them with chosen
    times.  All times are seconds from the start of the schedule.
    """

    due_s: Sequence[float]
    queue: List[int] = field(default_factory=list)
    backlog_max: int = 0
    lateness_s: List[float] = field(default_factory=list)
    latency_s: Dict[int, float] = field(default_factory=dict)

    def release(self, index: int, now_s: float) -> None:
        """The generator hands request ``index`` to the queue."""
        self.lateness_s.append(now_s - self.due_s[index])
        self.queue.append(index)
        self.backlog_max = max(self.backlog_max, len(self.queue))

    def dispatch(self) -> Optional[int]:
        """A free connection takes the oldest waiting request."""
        return self.queue.pop(0) if self.queue else None

    def complete(self, index: int, now_s: float, ok: bool) -> None:
        """Response for ``index`` arrived (``ok=False``: failed/refused)."""
        self.latency_s[index] = (now_s - self.due_s[index]) if ok else math.inf

    def latencies(self) -> List[float]:
        """Due-time latency of every scheduled request; never-answered
        requests count as failed."""
        return [self.latency_s.get(i, math.inf)
                for i in range(len(self.due_s))]


class Connection:
    """One keep-alive connection, opened on first use."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def exchange(self, endpoint: EndpointSpec) -> Tuple[int, bytes]:
        """``(status, body)``; status 0 when the exchange itself failed."""
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection(
                    self.host, self.port)
            status, _headers, body = await http_call(
                self.host, self.port, endpoint.method, endpoint.target,
                endpoint.body, reader=self.reader, writer=self.writer)
            return status, body
        except (ConnectionError, OSError, ValueError, IndexError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            await self.close()
            return 0, b""

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


#: How long before a due time the generator stops sleeping and yields
#: instead (asyncio timers round their wait up to whole milliseconds).
SPIN_S = 0.0015

#: Callback for every answered request: ``(endpoint, status, body)``.
OnResponse = Callable[[EndpointSpec, int, bytes], None]


async def run_open_loop(host: str, port: int, endpoints: Sequence[EndpointSpec],
                        picks: Sequence[int], due_s: Sequence[float],
                        connections: int, on_response: OnResponse
                        ) -> OpenLoopState:
    """Send ``endpoints[picks[i]]`` at ``due_s[i]``; see the module doc."""
    state = OpenLoopState(due_s)
    ready = asyncio.Condition()
    done_releasing = False
    t0 = clock()

    async def generator() -> None:
        nonlocal done_releasing
        for i, due in enumerate(due_s):
            # The loop's timers wake up to a millisecond late; sleep to
            # just short of the due time, then yield until it arrives.
            delay_s = t0 + due - clock()
            if delay_s > SPIN_S:
                await asyncio.sleep(delay_s - SPIN_S)
            while clock() < t0 + due:
                await asyncio.sleep(0)
            async with ready:
                state.release(i, clock() - t0)
                ready.notify()
        async with ready:
            done_releasing = True
            ready.notify_all()

    async def worker() -> None:
        conn = Connection(host, port)
        try:
            while True:
                async with ready:
                    await ready.wait_for(
                        lambda: state.queue or done_releasing)
                    index = state.dispatch()
                if index is None:
                    return
                endpoint = endpoints[picks[index]]
                status, body = await conn.exchange(endpoint)
                state.complete(index, clock() - t0, status == 200)
                on_response(endpoint, status, body)
        finally:
            await conn.close()

    await asyncio.gather(generator(),
                         *(worker() for _ in range(connections)))
    return state


async def run_closed_loop(host: str, port: int,
                          endpoints: Sequence[EndpointSpec],
                          picks: Sequence[Sequence[int]], duration_s: float,
                          on_response: OnResponse
                          ) -> Tuple[List[float], List[float]]:
    """One connection per ``picks`` row, no think time, for ``duration_s``.

    Returns per-request latencies (``inf`` for failures) and the finish
    times (seconds from the start) of the successful ones; each row is
    cycled if the phase outlasts it.
    """
    latencies: List[float] = []
    finished_s: List[float] = []
    t0 = clock()

    async def user(row: Sequence[int]) -> None:
        conn = Connection(host, port)
        try:
            i = 0
            while clock() - t0 < duration_s:
                endpoint = endpoints[row[i % len(row)]]
                start_s = clock()
                status, body = await conn.exchange(endpoint)
                end_s = clock()
                if status == 200:
                    latencies.append(end_s - start_s)
                    finished_s.append(end_s - t0)
                else:
                    latencies.append(math.inf)
                on_response(endpoint, status, body)
                i += 1
        finally:
            await conn.close()

    await asyncio.gather(*(user(row) for row in picks))
    return latencies, finished_s
