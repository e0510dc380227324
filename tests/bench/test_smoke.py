"""A toy-size traced run of all five workloads through the real command:
every declared metric comes out exactly once per workload, with its
unit, the record, final JSON line and trace file are well formed, and
the DES seed-repeat check ran."""

import json
import math
import re
import subprocess
import sys

from bench.run import ROOT, load_spec, metric_units


def _sections(stdout: str):
    """Printed lines per workload, keyed by the ``== name`` header."""
    out = {}
    current = None
    for line in stdout.splitlines():
        header = re.match(r"== (\S+)  seed=", line)
        if header:
            current = out.setdefault(header.group(1), [])
        elif current is not None and line.startswith("  "):
            current.append(line)
    return out


def test_smoke_run_emits_every_declared_metric_once(tmp_path):
    record_path = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--trace", "1",
         "--out", str(record_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    end_to_end = metric_units(spec, "end_to_end")
    per_layer = metric_units(spec, "per_layer")

    record = json.loads(record_path.read_text())
    assert {"commit", "dirty", "run_id", "nproc", "python",
            "numpy"} <= set(record["stamp"])
    runs = record["runs"]
    assert [r["workload"] for r in runs] == names
    emitted = set()
    for run in runs:
        assert isinstance(run["seed"], int)
        assert run["failed"] == 0 and run["attempted"] > 0, run["failures"]
        assert set(run["metrics"]) == set(end_to_end)
        assert all(math.isfinite(v) and v > 0
                   for v in run["metrics"].values())
        assert set(run["layers"]) == set(per_layer)
        emitted |= set(run["emitted"])
    assert emitted == set(per_layer), "declared but never emitted"
    reports = {run["workload"]: run["report"] for run in runs}
    assert int(reports["des_fleet"]["seed repeats checked"]) >= 1
    # Too few requests for a p99: the SLO line says so rather than
    # judging the single slowest request.
    assert reports["serve_hot"]["open-loop SLO"].startswith("not checked")

    sections = _sections(proc.stdout)
    assert list(sections) == names
    for workload, lines in sections.items():
        for name, unit in {**end_to_end, **per_layer}.items():
            pattern = re.compile(rf"  {re.escape(name)} +\S+ {re.escape(unit)}")
            hits = [line for line in lines if pattern.fullmatch(line)]
            assert len(hits) == 1, (workload, name, hits)

    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {f"{w}.{m}" for w in names
                                    for m in per_layer}
    assert all(v["unit"] == per_layer[k.split(".", 1)[1]]
               for k, v in last["metrics"].items())

    trace = json.loads((ROOT / ".bench_out" / "trace.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len({e["pid"] for e in spans}) == len(names)
    assert all(e["dur"] >= 0 and "run_id" in e["args"] for e in spans)
