"""The five benchmark workloads, as run inside one child process each.

Each workload reaches the program only through its public functions (and
serve_hot through the ``repro-rpc serve`` command over HTTP).  A batch
workload repeats one fixed *job* on the run's seed until the time budget
is spent; every repeat must reproduce the first one's outputs exactly.
The whole job gives ``latency_p50_ms``; one phase of it, the *rate
phase*, is timed on its own and gives ``throughput_per_s``, so a
regression in that phase is not diluted by the rest of the job.  Why each
workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench.procs import wait_rusage
from bench.stats import (block_rate, percentile, tail_percentile,
                         timing_summary)
from bench.tracing import NullTracer, StackSampler, Tracer, self_times

clock = time.perf_counter


class Context:
    """One child's run: its seed, budget, scratch directory and checks."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 work_dir: Path, smoke: bool, nproc: int):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.smoke = smoke
        self.nproc = nproc
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Input-generation seconds inside the current job (not timed).
        self.untimed_s = 0.0
        self.sampler: Optional[StackSampler] = None

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)

    def generate(self, tracer: NullTracer, fn, *args):
        """Build benchmark input: excluded from the job time and from the
        layer samples, recorded as a ``bench.input_gen`` span."""
        start_s = clock()
        if self.sampler is not None:
            self.sampler.paused = True
        try:
            return tracer.call("bench.input_gen", fn, *args)
        finally:
            if self.sampler is not None:
                self.sampler.paused = False
            self.untimed_s += clock() - start_s


def _traced_layers(tracer: Tracer, sampler: StackSampler,
                   span_names: Sequence[str]) -> Dict[str, float]:
    """Self-time shares of the traced jobs plus the sampler's layer shares."""
    total_s = sum(s.duration_s for s in tracer.spans if s.parent_id is None)
    own = self_times(tracer.spans)
    layers = {f"{name}_share": own.get(name, 0.0) / total_s
              for name in span_names}
    layers["bench.input_gen_share"] = own.get("bench.input_gen", 0.0) / total_s
    layers.update({f"layer_share.{layer}": share
                   for layer, share in sampler.shares().items()})
    return layers


def _span_report(tracer: Tracer) -> Dict[str, str]:
    """Human-readable self time per span name."""
    calls: Dict[str, int] = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    return {f"self {name}": f"{own_s:.4f} s over {calls[name]} call(s)"
            for name, own_s in sorted(self_times(tracer.spans).items())}


@dataclass
class JobResult:
    """What one job reports besides its wall time."""

    #: Work items of the whole job (``latency_p50_ms`` is stated per
    #: ``BatchWorkload.stated_items`` of them when that is set).
    items: int
    #: Work items of the rate phase, and its seconds, timed on its own.
    rate_items: int
    rate_s: float


class BatchWorkload:
    """A job repeated until the budget is spent, on the run's seed."""

    name = ""
    #: Work items ``latency_p50_ms`` is stated at, for a job whose size
    #: depends on the seed; ``None``: the job size is fixed.
    stated_items: Optional[int] = None
    #: Spans the traced job records, reported as self-time shares.
    span_names: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.report: Dict[str, str] = {}
        self.jobs_run = 0

    def setup(self, ctx: Context) -> None:
        raise NotImplementedError

    def job(self, ctx: Context, tracer: NullTracer) -> JobResult:
        """Run and check one job."""
        raise NotImplementedError

    def teardown(self, ctx: Context) -> Dict[str, float]:
        return {}

    def _pass(self, ctx: Context, tracer: NullTracer, budget_s: float,
              min_jobs: int) -> List[Tuple[float, JobResult]]:
        jobs = []
        start_s = clock()
        while True:
            # A study's simulator holds reference cycles; collect them
            # here so each job runs and peaks in memory as it would alone
            # in a process, not on top of the last job's garbage.
            gc.collect()
            ctx.untimed_s = 0.0
            job_start_s = clock()
            result = tracer.call("bench.job", self.job, ctx, tracer)
            self.jobs_run += 1
            took_s = clock() - job_start_s
            jobs.append((took_s - ctx.untimed_s, result))
            # Start another job only if it should end inside the budget.
            if (len(jobs) >= min_jobs
                    and clock() - start_s + took_s > budget_s):
                return jobs

    def _end_to_end(self, jobs: List[Tuple[float, JobResult]]
                    ) -> Dict[str, float]:
        self.report["jobs (rate phase)"] = ", ".join(
            f"{wall_s:.4f} s/{r.items} items "
            f"({r.rate_s:.4f} s/{r.rate_items} items)" for wall_s, r in jobs)
        return {
            "latency_p50_ms": 1e3 * statistics.median(
                wall_s * (self.stated_items or r.items) / r.items
                for wall_s, r in jobs),
            "throughput_per_s": statistics.median(
                r.rate_items / r.rate_s for _wall_s, r in jobs),
        }

    def measure(self, ctx: Context) -> Dict[str, object]:
        if not ctx.trace:
            jobs = self._pass(ctx, NullTracer(), ctx.seconds, min_jobs=2)
            return {"end_to_end": self._end_to_end(jobs)}
        plain = self._pass(ctx, NullTracer(), ctx.seconds / 2, min_jobs=1)
        tracer = Tracer()
        ctx.sampler = StackSampler()
        with ctx.sampler:
            traced = self._pass(ctx, tracer, ctx.seconds / 2, min_jobs=1)
        layers = _traced_layers(tracer, ctx.sampler, self.span_names)
        ctx.sampler = None
        layers["trace.overhead"] = (
            statistics.median(w for w, _ in traced)
            / statistics.median(w for w, _ in plain))
        layers.update(self.counts)
        self.report.update(_span_report(tracer))
        return {"end_to_end": self._end_to_end(plain), "layers": layers,
                "spans": tracer.spans}


# ----------------------------------------------------------------------
# des_fleet
# ----------------------------------------------------------------------
class DesFleet(BatchWorkload):
    """All eight Table-1 services in one cluster, then the Fig. 14/15/20
    analyses.  The simulation is the rate phase (simulated events per
    second).  The seed's burst phases change how many events a job fires,
    so ``latency_p50_ms`` is the job's host time per ``stated_items``
    simulated events."""

    name = "des_fleet"
    stated_items = 250_000
    span_names = ("studies.run_service_study", "core.breakdown",
                  "core.whatif", "core.cycle_tax")

    def setup(self, ctx: Context) -> None:
        from repro.core.breakdown import breakdown_cdf_for_service
        from repro.core.cycles import analyze_cycle_tax
        from repro.core.whatif import what_if_for_service
        from repro.rpc.stack import (APP_COMPONENT, PROC_COMPONENTS,
                                     QUEUE_COMPONENTS)
        from repro.studies import run_service_study
        from repro.workloads.services import (CATEGORY_APP, CATEGORY_QUEUE,
                                              CATEGORY_STACK, SERVICE_SPECS)

        self.run_service_study = run_service_study
        self.breakdown = breakdown_cdf_for_service
        self.whatif = what_if_for_service
        self.cycle_tax = analyze_cycle_tax
        self.services = SERVICE_SPECS
        self.category_of = {APP_COMPONENT: CATEGORY_APP,
                            **{c: CATEGORY_QUEUE for c in QUEUE_COMPONENTS},
                            **{c: CATEGORY_STACK for c in PROC_COMPONENTS}}
        # 0.25 simulated seconds is ~1.4 s of host time: several jobs fit
        # in a run, so the median is over repeats.
        self.duration_s = 0.05 if ctx.smoke else 0.25
        self.signatures: Dict[int, Tuple[int, int, str]] = {}
        self.repeats_checked = 0

    #: Jobs cycle through this many seeds (``seed``, ``seed + 1``, ...):
    #: one seed's burst phases make its load, and so its memory, atypical.
    SEEDS_PER_RUN = 4

    def job(self, ctx: Context, tracer: NullTracer) -> JobResult:
        # The first seed runs twice before the cycle starts, so every run
        # of at least two jobs checks that a repeat reproduces its outputs.
        seed = ctx.seed + max(0, self.jobs_run - 1) % self.SEEDS_PER_RUN
        start_s = clock()
        study = tracer.call("studies.run_service_study",
                            self.run_service_study, n_clusters=1,
                            duration_s=self.duration_s, seed=seed,
                            dapper_sampling=0.5)
        result = JobResult(items=study.sim.events_fired,
                           rate_items=study.sim.events_fired,
                           rate_s=clock() - start_s)
        digest = hashlib.sha256()
        matches = 0
        for name, spec in self.services.items():
            cdf = tracer.call("core.breakdown", self.breakdown,
                              study.dapper, name, spec.method)
            whatif = tracer.call("core.whatif", self.whatif,
                                 study.dapper, name, spec.method)
            p50, p95 = cdf.total_at(50), cdf.total_at(95)
            ctx.check(0.0 < p50 <= p95 < math.inf,
                      f"{name}: p50/p95 totals {p50!r}/{p95!r}")
            ctx.check(all(0.0 <= v <= 100.0
                          for v in whatif.percent_rescued.values()),
                      f"{name}: what-if percentages outside [0, 100]")
            digest.update(f"{name}:{p50.hex()}:{p95.hex()};".encode())
            matches += (self.category_of.get(cdf.dominant_at(95))
                        == spec.category)
        tax = tracer.call("core.cycle_tax", self.cycle_tax, study.gwp)
        ctx.check(0.0 < tax.tax_fraction < 1.0,
                  f"cycle tax fraction {tax.tax_fraction!r}")
        signature = (study.sim.events_fired, study.dapper.spans_recorded,
                     digest.hexdigest())
        if seed in self.signatures:
            ctx.check(signature == self.signatures[seed],
                      f"seed {seed}: repeat changed events, spans or the "
                      "p50/p95 digest")
            self.repeats_checked += 1
            self.report["seed repeats checked"] = str(self.repeats_checked)
            return result
        self.signatures[seed] = signature
        self.report[f"seed {seed}"] = (
            f"{signature[0]} events, {signature[1]} spans, p50/p95 digest "
            f"{signature[2][:16]}, Fig. 14 category matched for {matches}/8")
        if seed == ctx.seed:
            self.counts = {
                "sim.events_fired": study.sim.events_fired,
                "sim.events_cancelled": study.sim.events_cancelled,
                "sim.peak_heap": study.sim.max_heap_size,
                "obs.spans_recorded": study.dapper.spans_recorded,
                "core.fig14_matches": matches,
            }
        return result


# ----------------------------------------------------------------------
# queueing_sweep
# ----------------------------------------------------------------------
class QueueingSweep(BatchWorkload):
    """The theory layer's M/M/1, M/G/1 and M/G/k validation sweep: the DES
    engine and its stations, without any RPC, fleet, network or obs
    model.  The rate phase is the single-server stations (offered jobs
    per second), a third of the offered jobs, so a change to the
    single-server queue shows undiluted beside the whole sweep.  A point
    outside its regime band is counted, not failed: some seeds (91 and
    5023, for example) breach a band by chance."""

    name = "queueing_sweep"
    span_names = ("theory.sweep_queueing", "studies.run_queueing_study")

    #: A point off theory by more than this factor is a wrong simulation,
    #: not sampling noise: over 55 seeds the measured/theory ratio stayed
    #: within [0.50, 1.84] (a p99 point at rho=0.85 reached 5.6 bands).
    SANITY_FACTOR = 3.0

    def setup(self, ctx: Context) -> None:
        from repro.theory import validate

        self.validate = validate
        self.grid = "ci"
        if ctx.smoke:
            validate.GRIDS = dict(validate.GRIDS, smoke={
                "mm1_rhos": (0.5,), "mg1": ((0.5, 0.5),),
                "mgk_rhos": (0.5,), "mgk_sigmas": (0.5,),
                "mgk_servers": (2,), "n_jobs": 4000})
            self.grid = "smoke"
        self.values: Optional[List[Tuple[float, float]]] = None

    def job(self, ctx: Context, tracer: NullTracer) -> JobResult:
        offered = single_offered = 0
        single_s = 0.0
        original = self.validate.run_queueing_study

        def counted(*args, **kwargs):
            nonlocal offered, single_offered, single_s
            offered += kwargs["n_jobs"]
            if kwargs["servers"] != 1:
                return original(*args, **kwargs)
            start_s = clock()
            try:
                return original(*args, **kwargs)
            finally:
                single_s += clock() - start_s
                single_offered += kwargs["n_jobs"]

        self.validate.run_queueing_study = tracer.wrap(
            "studies.run_queueing_study", counted)
        try:
            points = tracer.call("theory.sweep_queueing",
                                 self.validate.sweep_queueing, self.grid,
                                 ctx.seed)
        finally:
            self.validate.run_queueing_study = original
        for p in points:
            ratio = p.des / p.theory
            ctx.check(math.isfinite(p.des) and 1.0 / self.SANITY_FACTOR
                      <= ratio <= self.SANITY_FACTOR,
                      f"{p.kind} {p.params}: measured {p.des!r} vs theory "
                      f"{p.theory!r}")
        values = [(p.theory, p.des) for p in points]
        if self.values is None:
            self.values = values
            breaches = [p for p in points if not p.ok]
            self.counts = {"studies.queueing_jobs": offered,
                           "theory.points": len(points),
                           "theory.points_breached": len(breaches)}
            self.report["band breaches (counted, not failed)"] = "; ".join(
                f"{p.kind} {p.params} at {p.rel_error:.1%} vs "
                f"{p.allowed / abs(p.theory):.1%}" for p in breaches) or "none"
        else:
            ctx.check(values == self.values, "repeat changed sweep values")
        return JobResult(items=offered, rate_items=single_offered,
                         rate_s=single_s)


# ----------------------------------------------------------------------
# tree_stream
# ----------------------------------------------------------------------
def _same_tree_result(a, b) -> bool:
    """Bit-identity of two TreeShapeResults, array by array."""
    for field in ("descendants_median_q50", "descendants_p90_q10",
                  "descendants_p99_q10", "ancestors_p99_q50",
                  "max_depth_seen", "n_methods", "n_trees"):
        if getattr(a, field) != getattr(b, field):
            return False
    for field in ("per_method_descendants", "per_method_ancestors"):
        x, y = getattr(a, field), getattr(b, field)
        if x.keys() != y.keys() or not all(
                np.array_equal(x[k], y[k]) for k in x):
            return False
    return True


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class TreeStream(BatchWorkload):
    """Call-tree sampling and folds, in memory, through a cold spill
    (writes) and a warm replay (reads), plus the critical-path study:
    generator, fold and shard-store I/O with no DES at all.  The warm
    replay is the rate phase (traces read per second)."""

    name = "tree_stream"
    span_names = ("core.tree_inmem", "core.tree_spill_cold",
                  "core.tree_replay", "core.critical_path")

    def setup(self, ctx: Context) -> None:
        from repro.core.parallel import (run_critical_path_study_parallel,
                                         run_tree_study_parallel)
        from repro.workloads.catalog import CatalogConfig, build_catalog

        self.tree_study = run_tree_study_parallel
        self.cp_study = run_critical_path_study_parallel
        # The catalog is the modelled fleet's method population, fixed
        # like the program's own configuration (so the job size does not
        # depend on the seed), and built in set-up: it counts in setup_s.
        # The seed draws the trees.
        self.catalog = build_catalog(CatalogConfig(n_methods=300, seed=7))
        self.n_trees = 12_000 if ctx.smoke else 200_000
        self.n_cp = 2_000 if ctx.smoke else 20_000
        self.shard_size = 2048 if ctx.smoke else 8192
        self.jobs = min(2, ctx.nproc)
        self.spill_bytes: Optional[int] = None

    def job(self, ctx: Context, tracer: NullTracer) -> JobResult:
        spill = ctx.work_dir / f"spill-{self.jobs_run}"
        kwargs = dict(n_trees=self.n_trees, seed=ctx.seed, max_nodes=48,
                      shard_size=self.shard_size)
        inmem = tracer.call("core.tree_inmem", self.tree_study,
                            self.catalog, jobs=1, **kwargs)
        cold = tracer.call("core.tree_spill_cold", self.tree_study,
                           self.catalog, jobs=1, spill_dir=str(spill),
                           **kwargs)
        replay_start_s = clock()
        warm = tracer.call("core.tree_replay", self.tree_study,
                           self.catalog, jobs=self.jobs,
                           spill_dir=str(spill), **kwargs)
        replay_s = clock() - replay_start_s
        cp = tracer.call("core.critical_path", self.cp_study, self.catalog,
                         n_traces=self.n_cp, seed=ctx.seed, jobs=1,
                         max_nodes=48, shard_size=self.shard_size)
        ctx.check(inmem.n_trees == self.n_trees,
                  f"in-memory study saw {inmem.n_trees} trees")
        ctx.check(_same_tree_result(inmem, cold),
                  "cold spill differs from the in-memory study")
        ctx.check(_same_tree_result(inmem, warm),
                  "warm replay differs from the in-memory study")
        ctx.check(cp.n_traces == self.n_cp
                  and 0.0 < cp.mean_tax_fraction < 1.0,
                  f"critical path: {cp.n_traces} traces, tax "
                  f"{cp.mean_tax_fraction!r}")
        spill_bytes = _tree_bytes(spill)
        shutil.rmtree(spill)
        traces = 3 * self.n_trees + self.n_cp
        if self.spill_bytes is None:
            self.spill_bytes = spill_bytes
            self.counts = {"core.traces": traces,
                           "core.spill_bytes": spill_bytes}
        else:
            ctx.check(spill_bytes == self.spill_bytes,
                      "repeat spilled a different number of bytes")
        return JobResult(items=traces, rate_items=self.n_trees,
                         rate_s=replay_s)


# ----------------------------------------------------------------------
# span_warehouse
# ----------------------------------------------------------------------
SERVICES = ("KVStore", "Spanner", "Bigtable", "Frontend")
METHODS = ("Get", "ReadRows", "Mutate", "Serve")
SPANS_PER_TRACE = 8


def synth_spans(rng: np.random.Generator, first_span_id: int, size: int):
    """``size`` synthetic spans: traces of eight, each span the parent of
    the next, ~2% errors and ~10% carrying one exogenous annotation."""
    from repro.rpc.errors import StatusCode
    from repro.rpc.stack import COMPONENTS, LatencyBreakdown
    from repro.rpc.tracing import Span

    services = rng.integers(len(SERVICES), size=size).tolist()
    methods = rng.integers(len(METHODS), size=size).tolist()
    clusters = rng.integers(4, size=(size, 2)).tolist()
    machines = rng.integers(16, size=size).tolist()
    failed = (rng.random(size) < 0.02).tolist()
    starts = np.sort(rng.uniform(0.0, 3600.0, size=size)).tolist()
    req_bytes = rng.integers(64, 1 << 16, size=size).tolist()
    resp_bytes = rng.integers(64, 1 << 18, size=size).tolist()
    cycles = rng.uniform(1e4, 1e6, size=size).tolist()
    components = rng.exponential(1e-3, size=(size, len(COMPONENTS))).tolist()
    annotated = (rng.random(size) < 0.1).tolist()
    ann_values = rng.random(size).tolist()
    spans = []
    for i in range(size):
        span_id = first_span_id + i + 1
        first_in_trace = (span_id - 1) % SPANS_PER_TRACE == 0
        spans.append(Span(
            trace_id=(span_id - 1) // SPANS_PER_TRACE + 1, span_id=span_id,
            parent_id=None if first_in_trace else span_id - 1,
            service=SERVICES[services[i]], method=METHODS[methods[i]],
            client_cluster=f"dc{clusters[i][0]}",
            server_cluster=f"dc{clusters[i][1]}",
            server_machine=f"m{machines[i]}", start_time=starts[i],
            breakdown=LatencyBreakdown(**dict(zip(COMPONENTS,
                                                  components[i]))),
            status=(StatusCode.DEADLINE_EXCEEDED if failed[i]
                    else StatusCode.OK),
            request_bytes=req_bytes[i], response_bytes=resp_bytes[i],
            cpu_cycles=cycles[i],
            annotations={"exo_cpu_util": ann_values[i]} if annotated[i]
            else {}))
    return spans


def _same_groups(a, b) -> bool:
    """Bit-identity of two ``group_by_method`` results."""
    if a.keys() != b.keys():
        return False
    return all(
        a[k].count == b[k].count and a[k].error_count == b[k].error_count
        and a[k].sum_value_s == b[k].sum_value_s
        and np.array_equal(a[k].component_sums, b[k].component_sums)
        and np.array_equal(a[k].sketch.counts, b[k].sketch.counts)
        for k in a)


class SpanWarehouse(BatchWorkload):
    """Spans streamed through the live spool sink (writes), then the
    warehouse reopened and queried (reads): obs columnar I/O and
    vectorized queries, with no span generation by the program.  The
    reopen and the query set are the rate phase (spans queried per
    second)."""

    name = "span_warehouse"
    span_names = ("obs.sink_ingest", "obs.warehouse_open",
                  "obs.group_by_method",
                  "obs.group_by_method_jobs2", "obs.method_matrix",
                  "core.observer_cycle_tax", "obs.tree_shape_stats")

    CHUNK = 16_384
    SHARD_SIZE = 65_536

    def setup(self, ctx: Context) -> None:
        from repro.core.observer import observer_cycle_tax
        from repro.obs import query, spanstore

        self.spanstore = spanstore
        self.query = query
        self.cycle_tax = observer_cycle_tax
        self.n_spans = 4 * self.CHUNK if ctx.smoke else 15 * self.CHUNK
        self.shard_size = self.CHUNK if ctx.smoke else self.SHARD_SIZE
        self.jobs = min(2, ctx.nproc)
        self.corpus_bytes: Optional[int] = None

    def job(self, ctx: Context, tracer: NullTracer) -> JobResult:
        spanstore, query = self.spanstore, self.query
        root = ctx.work_dir / f"warehouse-{self.jobs_run}"
        rng = np.random.default_rng(ctx.seed)
        sink = spanstore.SpanStoreSink(spanstore.SpanStore(root, "bench"),
                                       shard_size=self.shard_size)
        for first in range(0, self.n_spans, self.CHUNK):
            spans = ctx.generate(tracer, synth_spans, rng, first,
                                 min(self.CHUNK, self.n_spans - first))
            tracer.call("obs.sink_ingest", sink.record_all, spans)
            del spans
        tracer.call("obs.sink_ingest", sink.close)

        queries_start_s = clock()
        warehouse = tracer.call("obs.warehouse_open",
                                spanstore.SpanWarehouse.open, root, "bench")
        serial = tracer.call("obs.group_by_method", query.group_by_method,
                             warehouse)
        parallel = tracer.call("obs.group_by_method_jobs2",
                               query.group_by_method, warehouse,
                               jobs=self.jobs)
        matrix = tracer.call("obs.method_matrix", query.method_matrix,
                             warehouse, "KVStore", "Get")
        tax = tracer.call("core.observer_cycle_tax", self.cycle_tax,
                          warehouse)
        shape = tracer.call("obs.tree_shape_stats", query.tree_shape_stats,
                            warehouse)
        queries_s = clock() - queries_start_s

        n = self.n_spans
        ctx.check(warehouse.n_spans == n and not warehouse.missing_shards,
                  f"warehouse holds {warehouse.n_spans} of {n} spans")
        ctx.check(sum(g.count + g.error_count for g in serial.values()) == n,
                  "group_by_method lost spans")
        ctx.check(_same_groups(serial, parallel),
                  f"group_by_method differs at jobs=1 and jobs={self.jobs}")
        ctx.check(matrix.values.shape[0] == serial[("KVStore", "Get")].count,
                  "method_matrix rows disagree with group_by_method")
        ctx.check(0.0 < tax.tax_fraction < 1.0,
                  f"observer cycle tax {tax.tax_fraction!r}")
        ctx.check(shape.n_spans == n
                  and shape.n_traces == n // SPANS_PER_TRACE
                  and shape.n_orphans == 0
                  and int(shape.depths.min()) == SPANS_PER_TRACE,
                  "tree_shape_stats did not rebuild the traces")
        corpus_bytes = _tree_bytes(root)
        shutil.rmtree(root)
        if self.corpus_bytes is None:
            self.corpus_bytes = corpus_bytes
            self.counts = {"obs.spans_ingested": n,
                           "obs.corpus_bytes": corpus_bytes,
                           "obs.shards": warehouse.n_shards}
        else:
            ctx.check(corpus_bytes == self.corpus_bytes,
                      "repeat wrote a different number of bytes")
        return JobResult(items=n, rate_items=n, rate_s=queries_s)


# ----------------------------------------------------------------------
# serve_hot
# ----------------------------------------------------------------------
SERVE_SEED = 7
#: The open loop's SLO: 99% of requests within this many seconds.  The
#: server is started with the same latency threshold for its own SLO.
SLO_P99_S = 0.05
_SERVING = re.compile(r"serving on http://([^\s:]+):(\d+)")
_CACHE_HIT = re.compile(rb'"cache_hit": (?:true|false)(?:, )?')


#: ``(name, method, target, body)`` in Zipf rank order, hottest first;
#: every work request is a prewarmed key.  Plain tuples, so the child
#: imports no serve code before it reports ready.
SERVE_ENDPOINTS = (
    ("study", "POST", "/v1/study", b"{}"),
    ("whatif", "GET", "/v1/whatif", b""),
    ("whatif_analytic", "GET", "/v1/whatif?mode=analytic", b""),
    ("healthz", "GET", "/healthz", b""),
    ("metrics", "GET", "/metrics", b""),
)


#: Endpoints whose repeated responses must be byte-identical apart from
#: ``cache_hit`` (health and metrics report live counters).
WORK_ENDPOINTS = ("study", "whatif", "whatif_analytic")


class ServerProcess:
    """``repro-rpc serve`` on an ephemeral port with a fresh cache."""

    def __init__(self, ctx: Context, cache_dir: Path, timeout_s: float):
        log = ctx.work_dir / f"{cache_dir.name}.log"
        self._log = log.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", "0", "--seed", str(SERVE_SEED),
             "--cache-dir", str(cache_dir), "--duration", "86400",
             "--threshold", str(SLO_P99_S)],
            stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._wait_ready(log, timeout_s)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, log: Path, timeout_s: float) -> Tuple[str, int]:
        deadline_s = clock() + timeout_s
        while clock() < deadline_s:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {log.read_text()[-2000:]}")
            match = _SERVING.search(log.read_text())
            if match:
                host, port = match.group(1), int(match.group(2))
                try:
                    with urllib.request.urlopen(
                            f"http://{host}:{port}/healthz",
                            timeout=5.0) as resp:
                        if resp.status == 200:
                            return host, port
                except (urllib.error.URLError, OSError):
                    pass
            time.sleep(0.01)
        raise RuntimeError("server not ready in time")

    def stop(self) -> float:
        """Interrupt (clean shutdown), reap; returns its peak RSS in MB."""
        try:
            _code, rss_mb = wait_rusage(self.proc, timeout_s=60.0,
                                        interrupt_first=True)
        finally:
            self._log.close()
        return rss_mb


class ServeHot:
    """Cache-hot serving: prewarmed keys under a fixed open-loop rate,
    then closed-loop capacity, on at most ``nproc`` connections."""

    name = "serve_hot"
    RATE_PER_S = 200.0
    ZIPF_ALPHA = 1.2
    #: Closed-loop capacity is the median rate over blocks of this many
    #: completed requests.
    CAPACITY_BLOCK = 100
    span_names = ("serve.prewarm_cold", "core.study_hit", "core.cache_load",
                  "core.analyze_tree_shape_counts", "core.whatif_des_hit",
                  "theory.whatif_analytic", "serve.handle")

    def __init__(self) -> None:
        self.report: Dict[str, str] = {}
        self.server: Optional[ServerProcess] = None
        self.first_body: Dict[str, bytes] = {}

    def setup(self, ctx: Context) -> None:
        # Set-up ends at the first 200 from /healthz and from each other
        # endpoint, so it includes the server's imports, its cold prewarm
        # (the cache writes) and any state built on a first request.
        self.server = ServerProcess(ctx, ctx.work_dir / "server-cache",
                                    timeout_s=120.0)
        for name, method, target, body in SERVE_ENDPOINTS:
            request = urllib.request.Request(
                f"http://{self.server.host}:{self.server.port}{target}",
                method=method, data=body if method == "POST" else None)
            with urllib.request.urlopen(request, timeout=60.0) as resp:
                if resp.status != 200:
                    raise RuntimeError(f"{name}: {resp.status}")

    def teardown(self, ctx: Context) -> Dict[str, float]:
        if self.server is None:
            return {}
        rss_mb = self.server.stop()
        self.server = None
        return {"server_peak_rss_mb": rss_mb}

    # -- responses -----------------------------------------------------
    def _on_response(self, ctx: Context, failed: List[int]):
        def check(endpoint, status: int, body: bytes) -> None:
            ok = status == 200
            if ok and endpoint.name in WORK_ENDPOINTS:
                ok = b'"cache_hit": true' in body
                stripped = _CACHE_HIT.sub(b"", body)
                first = self.first_body.setdefault(endpoint.name, stripped)
                ok = ok and stripped == first
            if not ok:
                failed[0] += 1
                if len(ctx.failures) < 20:
                    ctx.failures.append(
                        f"{endpoint.name}: status {status}, "
                        f"body {body[:120]!r}")
        return check

    # -- load phases ---------------------------------------------------
    def _load(self, ctx: Context, open_s: float, closed_s: float
              ) -> Dict[str, object]:
        from bench.loadgen import (poisson_schedule, run_closed_loop,
                                   run_open_loop)
        from repro.serve.loadgen import EndpointSpec, ZipfPopularity

        endpoints = [EndpointSpec(*e) for e in SERVE_ENDPOINTS]
        rng = np.random.default_rng(ctx.seed)
        weights = ZipfPopularity(len(endpoints), self.ZIPF_ALPHA,
                                 rng).probabilities
        due_s = poisson_schedule(rng, self.RATE_PER_S, open_s)
        picks = rng.choice(len(endpoints), size=due_s.size, p=weights)
        connections = min(2, ctx.nproc)
        closed_picks = [rng.choice(len(endpoints), size=4096, p=weights)
                        for _ in range(connections)]
        host, port = self.server.host, self.server.port
        failed = [0]
        on_response = self._on_response(ctx, failed)
        state = asyncio.run(run_open_loop(
            host, port, endpoints, picks.tolist(), due_s.tolist(),
            connections, on_response))
        closed, closed_finished_s = asyncio.run(run_closed_loop(
            host, port, endpoints, [p.tolist() for p in closed_picks],
            closed_s, on_response))
        latencies = state.latencies()
        ctx.attempted += len(latencies) + len(closed)
        ctx.failed += failed[0] + sum(
            1 for i in range(len(latencies)) if i not in state.latency_s)
        return {"open": latencies, "picks": picks.tolist(),
                "lateness": state.lateness_s, "backlog": state.backlog_max,
                "closed": closed, "closed_finished_s": closed_finished_s,
                "closed_s": closed_s, "connections": connections}

    def _summarize_load(self, ctx: Context, load: Dict[str, object]
                        ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(end-to-end metrics, client-side layer metrics)``."""
        open_lat = load["open"]
        summary = timing_summary(open_lat)
        p50_s = summary["p50"]
        report = self.report
        report["open loop"] = (
            f"{len(open_lat)} requests at {self.RATE_PER_S:g}/s: "
            + _fmt_summary(summary))
        # Checked only where the sample supports a p99 (ten requests
        # beyond it); in a toy-size run p99 would be the single slowest.
        if (tail_percentile(len(open_lat)) or 0.0) >= 99.0:
            p99_s = percentile(open_lat, 99.0)
            slo = (f"p99 {p99_s * 1e3:.3f} ms against {SLO_P99_S * 1e3:g} "
                   f"ms over {len(open_lat)} requests")
            report["open-loop SLO"] = ("pass: " if ctx.check(
                p99_s <= SLO_P99_S, f"open-loop SLO missed: {slo}")
                else "FAILED: ") + slo
        else:
            report["open-loop SLO"] = (f"not checked: {len(open_lat)} "
                                       "requests support no p99")
        for index, (name, *_request) in enumerate(SERVE_ENDPOINTS):
            mine = [lat for lat, pick in zip(open_lat, load["picks"])
                    if pick == index]
            if mine:
                report[f"open {name}"] = _fmt_summary(timing_summary(mine))
        report["closed loop"] = (
            f"{len(load['closed'])} requests on {load['connections']} "
            "connection(s): " + _fmt_summary(timing_summary(load["closed"])))
        lateness = timing_summary(load["lateness"])
        report["generator lateness"] = _fmt_summary(lateness)
        report["generator backlog max"] = str(load["backlog"])
        late_tail_s = lateness.get("tail", lateness.get("p50", 0.0))
        if late_tail_s > p50_s:
            report["WARNING"] = ("generator lateness tail exceeds the "
                                 "latency median: client stalls reach the "
                                 "latency tail")
        layers = {
            "serve.requests": len(open_lat) + len(load["closed"]),
            "serve.gen_backlog_max": load["backlog"],
            "serve.gen_late_ratio": late_tail_s / p50_s,
            "serve.tail_ratio": summary.get("tail", p50_s) / p50_s,
        }
        finite = [(lat, pick) for lat, pick in zip(open_lat, load["picks"])
                  if math.isfinite(lat)]
        total_s = sum(lat for lat, _ in finite)
        for index, (name, *_request) in enumerate(SERVE_ENDPOINTS):
            layers[f"serve.latency_share.{name}"] = sum(
                lat for lat, pick in finite if pick == index) / total_s
        capacity = block_rate(load["closed_finished_s"],
                              self.CAPACITY_BLOCK, load["closed_s"])
        return {"latency_p50_ms": p50_s * 1e3,
                "throughput_per_s": capacity}, layers

    # -- in-process pass (traced runs only) ----------------------------
    def _in_process(self, ctx: Context, tracer: NullTracer,
                    budget_s: float, tag: str) -> List[float]:
        """A fresh in-process app: cold prewarm, then rounds of the
        cache-hit calls behind each endpoint; returns round times."""
        from repro.core.cache import study_key
        from repro.core.calltree import analyze_tree_shape_counts
        from repro.core.parallel import (DEFAULT_SHARD_SIZE,
                                         run_tree_study_cached)
        from repro.rpc.calltree import TreeShapeAccumulator
        from repro.serve import ServeApp, ServeConfig
        from repro.serve.app import whatif_analytic, whatif_cached
        from repro.serve.http import HttpRequest
        from repro.serve.loadgen import ZipfPopularity
        from repro.workloads.catalog import CatalogConfig, build_catalog

        cfg = ServeConfig(seed=SERVE_SEED, prewarm=False,
                          cache_dir=str(ctx.work_dir / f"inproc-{tag}"))
        if ctx.smoke:
            cfg.whatif_duration_s = 0.2
        app = ServeApp(cfg)
        # The layer samples cover the hot rounds only; the cold prewarm is
        # the server's set-up, reported as its own span.
        if ctx.sampler is not None:
            ctx.sampler.paused = True
        tracer.call("serve.prewarm_cold", app.prewarm)
        if ctx.sampler is not None:
            ctx.sampler.paused = False
        catalog = build_catalog(CatalogConfig(n_methods=cfg.study_methods,
                                              seed=cfg.seed))
        key = study_key("tree-shape", cfg.seed, catalog.config, params={
            "n_trees": cfg.study_trees, "max_nodes": cfg.study_max_nodes,
            "shard_size": DEFAULT_SHARD_SIZE})
        whatif_args = (app.cache, cfg.whatif_service, None,
                       cfg.whatif_duration_s, cfg.seed, 95.0)
        engines: Dict[str, object] = {}
        rng = np.random.default_rng(ctx.seed)
        weights = ZipfPopularity(len(SERVE_ENDPOINTS), self.ZIPF_ALPHA,
                                 rng).probabilities
        loop = asyncio.new_event_loop()
        rounds: List[float] = []
        start_s = clock()
        try:
            while not rounds or clock() - start_s < budget_s:
                round_start_s = clock()
                _result, hit = tracer.call(
                    "core.study_hit", run_tree_study_cached, catalog,
                    n_trees=cfg.study_trees, seed=cfg.seed,
                    max_nodes=cfg.study_max_nodes, cache=app.cache)
                state = tracer.call("core.cache_load", app.cache.load, key)
                ctx.check(hit and state is not None,
                          "in-process study lookup missed the cache")
                if state is not None:
                    tracer.call("core.analyze_tree_shape_counts",
                                analyze_tree_shape_counts,
                                TreeShapeAccumulator.from_state(state),
                                n_trees=cfg.study_trees)
                _doc, hit = tracer.call("core.whatif_des_hit", whatif_cached,
                                        *whatif_args)
                ctx.check(hit, "in-process what-if missed the cache")
                tracer.call("theory.whatif_analytic", whatif_analytic,
                            *whatif_args, engines=engines)
                for pick in rng.choice(len(SERVE_ENDPOINTS), size=20,
                                       p=weights):
                    name, method, target, body = SERVE_ENDPOINTS[pick]
                    request = HttpRequest(method=method, target=target,
                                          body=body)
                    response = tracer.call("serve.handle",
                                           loop.run_until_complete,
                                           app.handle(request))
                    ctx.check(response.status == 200,
                              f"in-process {name}: {response.status}")
                rounds.append(clock() - round_start_s)
        finally:
            loop.close()
        return rounds

    def measure(self, ctx: Context) -> Dict[str, object]:
        if not ctx.trace:
            load = self._load(ctx, 0.65 * ctx.seconds, 0.35 * ctx.seconds)
            return {"end_to_end": self._summarize_load(ctx, load)[0]}
        load = self._load(ctx, 0.4 * ctx.seconds, 0.2 * ctx.seconds)
        end_to_end, load_layers = self._summarize_load(ctx, load)
        plain = self._in_process(ctx, NullTracer(), 0.2 * ctx.seconds,
                                 "plain")
        tracer = Tracer()
        ctx.sampler = StackSampler()
        with ctx.sampler:
            traced = self._in_process(ctx, tracer, 0.2 * ctx.seconds,
                                      "traced")
        layers = _traced_layers(tracer, ctx.sampler, self.span_names)
        ctx.sampler = None
        layers["trace.overhead"] = (statistics.median(traced)
                                    / statistics.median(plain))
        layers.update(load_layers)
        self.report.update(_span_report(tracer))
        return {"end_to_end": end_to_end, "layers": layers,
                "spans": tracer.spans}


def _fmt_summary(summary: Dict[str, float]) -> str:
    text = f"n={summary['n']}"
    if "p50" in summary:
        text += f" p50={summary['p50'] * 1e3:.3f} ms"
    if "tail" in summary:
        text += f" p{summary['tail_q']:g}={summary['tail'] * 1e3:.3f} ms"
    return text


WORKLOADS = {cls.name: cls for cls in
             (DesFleet, QueueingSweep, TreeStream, SpanWarehouse, ServeHot)}
