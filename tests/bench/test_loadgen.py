"""The open-loop driver times requests from their due time, so a stall
is charged to every request it delays (no coordinated omission)."""

import asyncio
import math

import numpy as np

from bench.loadgen import (OpenLoopState, poisson_schedule, run_closed_loop,
                           run_open_loop)
from repro.serve.loadgen import EndpointSpec


def test_due_time_latency_and_lateness_under_a_fake_clock():
    # One connection; the first response takes 2.5 s, so the requests
    # due at t=1 and t=2 wait in the generator's queue.
    state = OpenLoopState(due_s=[0.0, 1.0, 2.0])
    state.release(0, now_s=0.0)
    assert state.dispatch() == 0
    state.release(1, now_s=1.25)          # the generator ran 0.25 s late
    state.release(2, now_s=2.0)
    assert state.backlog_max == 2
    state.complete(0, now_s=2.5, ok=True)
    assert state.dispatch() == 1
    state.complete(1, now_s=2.6, ok=True)
    assert state.dispatch() == 2
    state.complete(2, now_s=2.7, ok=True)
    assert state.dispatch() is None
    assert state.lateness_s == [0.0, 0.25, 0.0]
    # From due time, not send time: 2.5, 1.6 and 0.7 s (send-time
    # latencies would have been 2.5, 0.1 and 0.1 s).
    assert np.allclose(state.latencies(), [2.5, 1.6, 0.7])


def test_failed_and_unanswered_requests_are_infinite():
    state = OpenLoopState(due_s=[0.0, 1.0, 2.0])
    for i in range(3):
        state.release(i, now_s=float(i))
    state.complete(0, now_s=0.5, ok=True)
    state.complete(1, now_s=1.5, ok=False)   # e.g. a 503
    latencies = state.latencies()             # request 2 never answered
    assert latencies[0] == 0.5
    assert latencies[1] == math.inf and latencies[2] == math.inf


def test_schedule_is_seeded():
    a = poisson_schedule(np.random.default_rng(3), 200.0, 5.0)
    b = poisson_schedule(np.random.default_rng(3), 200.0, 5.0)
    assert np.array_equal(a, b)
    assert a.size > 800 and a.max() < 5.0 and np.all(np.diff(a) > 0)


async def _stalling_server(stall_first_s: float):
    """An HTTP server whose first response stalls, the rest are instant."""
    calls = []

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            calls.append(line)
            if len(calls) == 1:
                await asyncio.sleep(stall_first_s)
            status = b"503 Busy" if b"/busy" in line else b"200 OK"
            writer.write(b"HTTP/1.1 " + status + b"\r\ncontent-length: 2"
                         b"\r\n\r\nok")
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_a_stall_delays_every_queued_request():
    async def scenario():
        server, port = await _stalling_server(stall_first_s=0.2)
        try:
            endpoints = [EndpointSpec("ok", "GET", "/ok"),
                         EndpointSpec("busy", "GET", "/busy")]
            seen = []
            state = await run_open_loop(
                "127.0.0.1", port, endpoints, picks=[0, 0, 0, 1],
                due_s=[0.0, 0.02, 0.04, 0.06], connections=1,
                on_response=lambda ep, status, body: seen.append(status))
            closed, finished_s = await run_closed_loop(
                "127.0.0.1", port, endpoints, picks=[[0], [1]],
                duration_s=0.05, on_response=lambda *a: None)
        finally:
            server.close()
            await server.wait_closed()
        return state, seen, closed, finished_s

    state, seen, closed, finished_s = asyncio.run(scenario())
    latencies = state.latencies()
    assert seen == [200, 200, 200, 503]
    # The request due at 0.04 could not be sent before the stall ended
    # at ~0.2 s; from its due time it waited ~0.16 s.
    assert latencies[2] >= 0.15
    assert latencies[3] == math.inf
    assert state.backlog_max >= 2
    # Closed loop: the /busy connection's 503s are failures, and only the
    # successful requests have finish times.
    assert any(math.isinf(x) for x in closed)
    assert len(finished_s) == sum(math.isfinite(x) for x in closed) > 0
    assert finished_s == sorted(finished_s)
