"""One workload process: import lcsim, set up, then time passes until the
budget is spent; with a budget of 0 it only sets up. Started by run.py, which
passes the monotonic time at which it launched this process, so that set-up
time includes interpreter start and imports. Prints one JSON result on its
last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--budget", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--launched", required=True, type=float)
    args = parser.parse_args()

    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import lcsim

    if not Path(lcsim.__file__).resolve().is_relative_to(root / "src"):
        print(f"lcsim was imported from {lcsim.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    import layers
    import tracing
    from workloads import WORKLOADS, Context, Pass

    workload = WORKLOADS[args.workload]
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    os.chdir(workdir)  # inputs and outputs are relative paths, so outputs do not name the directory
    try:
        ctx = Context(args.seed)
        workload.setup(ctx)
        setup_s = time.monotonic() - args.launched

        tracer = tracing.Tracer()
        passes, traced_passes, layer_rows, rounds = [], [], [], []
        begin = time.perf_counter()
        # Start another round only if a typical round still fits the budget.
        while time.perf_counter() - begin + (statistics.median(rounds) if rounds else 0.0) < args.budget:
            round_start = time.perf_counter()
            p = Pass(ctx)
            workload.run(ctx, p)
            passes.append(p)
            if args.trace:
                ctx.tracer = tracer
                tracer.reset()
                p = Pass(ctx)
                with tracing.patched(layers.instrument(tracer)):
                    with tracer.span("bench"):
                        workload.run(ctx, p)
                ctx.tracer = None
                traced_passes.append(p)
                layer_rows.append(layers.pass_metrics(tracer))
            rounds.append(time.perf_counter() - round_start)
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)

    every = passes + traced_passes
    result = {
        "setup_s": setup_s,
        "pass_s": [p.seconds for p in passes],
        "traced_pass_s": [p.seconds for p in traced_passes],
        "layers": layer_rows,
        "attempted": sum(p.attempted for p in every),
        "failed": sorted({label for p in every for label in p.failed}),
        "failed_count": sum(len(p.failed) for p in every),
        "digests": sorted({p.digest for p in every}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pairs": workload.pairs,
        "sizes": workload.sizes,
        "numpy": np.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
