"""Benchmark-side spans (self time, Chrome export) and the layer sampler."""

import json

from bench.tracing import (LAYERS, StackSampler, Tracer, chrome_events,
                           layer_of, self_times)


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0, 6.5, 10.0, 10.0, 11.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def outer():
        tracer.call("inner", lambda: None)                 # 1.0 .. 3.0
        tracer.call("inner", lambda: tracer.call(          # 4.0 .. 6.5
            "leaf", lambda: None))                         # 4.5 .. 6.0
        return "done"

    assert tracer.call("outer", outer) == "done"          # 0.0 .. 10.0
    tracer.call("outer", lambda: None)                    # 10.0 .. 11.0
    own = self_times(tracer.spans)
    assert own == {"outer": (10.0 - 2.0 - 2.5) + 1.0,
                   "inner": 2.0 + (2.5 - 1.5), "leaf": 1.5}
    assert sum(own.values()) == 11.0
    parents = [s.parent_id for s in tracer.spans]
    assert parents == [None, 0, 0, 2, None]


def test_chrome_events_load_as_trace_json():
    ticks = iter([5.0, 5.5, 5.75, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.call("job", lambda: tracer.call("step", lambda: None))
    events = json.loads(json.dumps({"traceEvents": chrome_events(
        tracer.spans, pid=1, process_name="w", run_id="r1",
        origin_s=5.0)}))["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [(e["name"], e["ts"], e["dur"]) for e in complete] == [
        ("job", 0.0, 1e6), ("step", 0.5e6, 0.25e6)]
    assert complete[1]["args"]["parent_id"] == complete[0]["args"]["span_id"]
    assert events[0]["ph"] == "M" and events[0]["args"]["name"] == "w"


def test_layer_of_maps_program_modules():
    assert layer_of("repro.sim.engine") == "sim"
    assert layer_of("repro.studies") == "studies"
    assert layer_of("repro.cli") == "other"
    assert layer_of("numpy.core") is None
    assert layer_of("bench.workloads") is None


def test_sampler_charges_the_innermost_program_frame():
    sampler = StackSampler()  # samples the calling thread
    # A function defined "inside" repro.core calls into a helper outside
    # the program: the sample belongs to core, the nearest program frame.
    namespace = {"__name__": "repro.core.fake", "sample": sampler.sample_once}
    exec("def fold():\n    helper()\n", namespace)
    namespace["helper"] = lambda: namespace["sample"]()
    namespace["fold"]()
    sampler.sample_once()          # no program frame at all
    sampler.paused = True
    sampler.sample_once()          # paused: not counted
    shares = sampler.shares()
    assert set(shares) == set(LAYERS)
    assert shares["core"] == 0.5 and shares["other"] == 0.5
