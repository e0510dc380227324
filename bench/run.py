"""The repository's benchmark: five workloads, each in a fresh process.

Run from the repository root::

    python3 bench/run.py [--workload NAME]... [--seed S] [--seconds T]
                         [--repeat N] [--trace [0|1]] [--out FILE] [--smoke]

Every run spawns one child process per workload (``bench/child.py``),
times the program's set-up from spawn to ready, measures for ``--seconds``
seconds, checks every output, and reads the child's peak RSS from
``os.wait4``.  ``--workload``, ``--seed``, ``--seconds`` and ``--trace``
are the interface a runner of ``BENCHMARK.json``'s ``command`` uses, with
``--seconds`` set to its ``run_seconds``; records measured at other
seconds are not compared with them (see ``compare.py``).  It prints each metric with its unit, writes a stamped JSON
record (``--out``, default ``.bench_out/record-<run id>.json``) and, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics, or with ``--trace 1`` the per-layer
ones (``--trace`` also writes a Perfetto-loadable ``.bench_out/trace.json``).
Metric names, units and bounds are declared in ``BENCHMARK.json``; see
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import uuid
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.procs import wait_rusage  # noqa: E402
from bench.stats import quartiles, spread  # noqa: E402
from bench.tracing import Span, chrome_events  # noqa: E402

#: Each workload's seed when ``--seed`` is not given.
DEFAULT_SEEDS = {"des_fleet": 11, "queueing_sweep": 23, "tree_stream": 7,
                 "span_warehouse": 1234, "serve_hot": 7}

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Seconds a ``--smoke`` run measures, whatever ``--seconds`` says.
SMOKE_SECONDS = 0.5

OUT_DIR = ROOT / ".bench_out"


class BenchError(RuntimeError):
    """A child failed to run to completion (not a failed output check)."""


def load_spec(root: Path = ROOT) -> dict:
    """``BENCHMARK.json``: workloads and metric declarations."""
    with (root / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(spec: dict, kind: str) -> Dict[str, str]:
    """``{name: unit}`` for ``kind`` in ``end_to_end`` / ``per_layer``."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        return subprocess.run(["git", "--no-optional-locks", *args],
                              cwd=root, capture_output=True, text=True,
                              check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def make_stamp(root: Path, run_id: str) -> dict:
    """What a record needs to be compared honestly later."""
    commit = dirty = None
    if (root / ".git").exists():
        head = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        commit = head.strip() if head else None
        dirty = bool(status.strip()) if status is not None else None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"run_id": run_id, "commit": commit, "dirty": dirty,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "unix_time": time.time()}


def spawn_child(root: Path, args: List[str], work_dir: Path,
                timeout_s: float) -> Tuple[float, dict, float]:
    """Run one child; returns ``(setup seconds, result, peak RSS MB)``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(work_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start_s = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.child", *args, "--work-dir",
         str(work_dir)], cwd=root, env=env, stdout=subprocess.PIPE,
        text=True)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and setup_s is None:
                setup_s = time.perf_counter() - start_s
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code, rss_mb = wait_rusage(proc, timeout_s=30.0)
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0 or setup_s is None or result is None:
        raise BenchError(f"child {' '.join(args)} exited with code {code}")
    return setup_s, result, rss_mb


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool, smoke: bool, tag: str) -> dict:
    """One measured run of one workload; returns its record entry."""
    args = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(int(trace))]
    if smoke:
        args.append("--smoke")
    timeout_s = 150.0 + 3.0 * seconds
    work = OUT_DIR / "work" / tag
    setup_s, result, rss_mb = spawn_child(ROOT, args, work / "run",
                                          timeout_s)
    setups = [setup_s]
    # Traced and smoke runs report no set-up time worth repeating.
    for k in range(0 if (trace or smoke) else SETUP_SAMPLES - 1):
        setups.append(spawn_child(ROOT, args + ["--setup-only"],
                                  work / f"setup-{k}", timeout_s)[0])
    shutil.rmtree(work, ignore_errors=True)
    end_to_end = dict(result["end_to_end"])
    end_to_end["setup_s"] = quartiles(setups)[1]
    end_to_end["peak_rss_mb"] = result.get("server_peak_rss_mb", rss_mb)

    declared = metric_units(spec, "end_to_end")
    if set(end_to_end) != set(declared):
        raise BenchError(f"{name}: end-to-end metrics {sorted(end_to_end)} "
                         f"do not match BENCHMARK.json {sorted(declared)}")
    layers = emitted = None
    if trace:
        emitted = sorted(result["layers"])
        declared_layers = metric_units(spec, "per_layer")
        unknown = set(result["layers"]) - set(declared_layers)
        if unknown:
            raise BenchError(f"{name}: undeclared per-layer metrics "
                             f"{sorted(unknown)}")
        # A layer the workload never enters reads 0 (e.g. DES counters
        # on the tree workload): every workload reports every metric.
        layers = {m: result["layers"].get(m, 0) for m in declared_layers}
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke, "setup_samples_s": setups,
            "metrics": end_to_end, "layers": layers, "emitted": emitted,
            "attempted": result["attempted"], "failed": result["failed"],
            "failures": result["failures"], "report": result["report"],
            "spans": result["spans"]}


def print_run(spec: dict, run: dict) -> None:
    units = metric_units(spec, "end_to_end")
    print(f"== {run['workload']}  seed={run['seed']}  "
          f"seconds={run['seconds']:g}  trace={int(run['trace'])} ==")
    for name, unit in units.items():
        print(f"  {name:<40} {run['metrics'][name]:>16.6f} {unit}")
    if run["layers"] is not None:
        for name, unit in metric_units(spec, "per_layer").items():
            value = run["layers"][name]
            text = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"  {name:<40} {text:>16} {unit}")
    for key, value in run["report"].items():
        print(f"  # {key}: {value}")
    print(f"  # checks: {run['attempted']} attempted, {run['failed']} failed")
    for failure in run["failures"]:
        print(f"  # FAILED: {failure}")


def summarize(spec: dict, runs: List[dict], kind: str
              ) -> Dict[str, Dict[str, float]]:
    """Median value per metric (prefixed by workload when several)."""
    key = "metrics" if kind == "end_to_end" else "layers"
    units = metric_units(spec, kind)
    names = list(dict.fromkeys(r["workload"] for r in runs))
    out = {}
    for workload in names:
        mine = [r[key] for r in runs if r["workload"] == workload]
        for metric, unit in units.items():
            values = [m[metric] for m in mine]
            label = metric if len(names) == 1 else f"{workload}.{metric}"
            med = quartiles(values)[1]
            if all(isinstance(v, int) for v in values) and med == int(med):
                med = int(med)
            out[label] = {"value": med, "unit": unit}
    return out


def print_repeats(spec: dict, runs: List[dict]) -> None:
    units = metric_units(spec, "end_to_end")
    print("== medians and quartiles over repeats ==")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        for metric, unit in units.items():
            values = [r["metrics"][metric] for r in mine]
            q1, med, q3 = quartiles(values)
            print(f"  {workload:<15} {metric:<18} median {med:.6g} {unit} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}] spread {spread(values):.3f} "
                  f"(n={len(values)})")


def write_trace(runs: List[dict], run_id: str, path: Path) -> None:
    events = []
    for pid, run in enumerate(r for r in runs if r["trace"]):
        spans = [Span(*fields) for fields in run["spans"]]
        if not spans:
            continue
        origin_s = min(s.start_s for s in spans)
        events += chrome_events(spans, pid + 1,
                                f"{run['workload']} seed={run['seed']}",
                                run_id, origin_s)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces every workload's default seed")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measurement time per run (default and "
                             "comparable value: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also a traced pass; report per-layer "
                             "metrics and write .bench_out/trace.json")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; prints medians/quartiles")
    parser.add_argument("--out", type=Path, default=None,
                        help="record file (default .bench_out/record-<id>)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"toy sizes measured for {SMOKE_SECONDS:g} s, "
                             "for tests")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(spec, argv)
    run_id = uuid.uuid4().hex[:12]
    stamp = make_stamp(ROOT, run_id)
    OUT_DIR.mkdir(exist_ok=True)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    runs = []
    try:
        for name in workloads:
            seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
            for k in range(args.repeat):
                run = run_workload(spec, name, seed, seconds,
                                   bool(args.trace), args.smoke,
                                   f"{run_id}-{name}-{k}")
                print_run(spec, run)
                runs.append(run)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    if args.repeat > 1:
        print_repeats(spec, runs)

    record_path = args.out or OUT_DIR / f"record-{run_id}.json"
    record_path.write_text(json.dumps(
        {"stamp": stamp, "runs": [{k: v for k, v in r.items() if k != "spans"}
                                  for r in runs]}, indent=1))
    print(f"# record: {record_path}")
    if args.trace:
        trace_path = OUT_DIR / "trace.json"
        write_trace(runs, run_id, trace_path)
        print(f"# trace: {trace_path}")
        for run in runs:
            print(f"# tracing overhead {run['workload']}: "
                  f"{run['layers']['trace.overhead']:.3f}x untraced wall")

    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": summarize(spec, runs,
                             "per_layer" if args.trace else "end_to_end"),
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
