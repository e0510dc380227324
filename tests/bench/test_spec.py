"""BENCHMARK.json: legal names, and every workload and metric the code
emits is declared there (and nothing declared is never emitted)."""

import re
import shutil
import subprocess
import sys

from bench import workloads
from bench.run import DEFAULT_SEEDS, ROOT, load_spec
from bench.tracing import LAYERS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_schema_and_names():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path) and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert spec["command"][0] == "python3" and len(spec["command"]) <= 32
    assert spec["command"][1].startswith(tuple(p + "/" for p in spec["paths"]))
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60

    names = []
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for m in spec[kind]:
            assert set(m) == keys
            assert UNIT.fullmatch(m["unit"])
            assert m["better"] in ("higher", "lower")
            names.append(m["name"])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e.values())


def test_workloads_and_span_shares_are_declared():
    # Counts and ratios are checked against a real run in test_smoke.
    spec = load_spec()
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == list(workloads.WORKLOADS) == list(DEFAULT_SEEDS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    shares = {f"layer_share.{layer}" for layer in LAYERS}
    for cls in workloads.WORKLOADS.values():
        shares |= {f"{span}_share" for span in cls.span_names}
    assert shares <= per_layer


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    spec = load_spec()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "des_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
