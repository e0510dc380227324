"""One workload in one fresh process: ``python -m bench.child ...``.

Protocol with ``run.py`` on standard output: the line ``READY`` once the
program is set up (the parent times set-up from spawn to this line),
then one line ``RESULT <json>``.  Run through ``run.py``, which sets the
import path and the scratch directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from bench.workloads import WORKLOADS, Context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(repro.__file__).resolve().parents:
        print(f"bench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  work_dir=args.work_dir, smoke=args.smoke,
                  nproc=len(os.sched_getaffinity(0)))
    workload = WORKLOADS[args.workload]()
    result = {}
    try:
        workload.setup(ctx)
        print("READY", flush=True)
        if not args.setup_only:
            result = workload.measure(ctx)
    finally:
        result.update(workload.teardown(ctx))
    spans = result.pop("spans", [])
    result.update(attempted=ctx.attempted, failed=ctx.failed,
                  failures=ctx.failures, report=workload.report,
                  spans=[[s.name, s.start_s, s.end_s, s.span_id, s.parent_id]
                         for s in spans])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
