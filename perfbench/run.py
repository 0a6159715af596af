"""lcsim benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 56 --trace 0

Run from the repository root. The run starts SETUPS fresh single-threaded
Python processes one after another (worker.py). Each imports lcsim from
./src, makes the workload's inputs from the seed and warms up; the first one
then times passes for --seconds. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json, as medians over passes and set-ups;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.
Every operation's output is checked, and all passes must produce the same
output digest. The last stdout line is the JSON result; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes per run: the first times passes for --seconds, the others
#: only set up. Set-up time is the median over all of them.
SETUPS = 3

#: Wall-clock limit for the whole run, workers included.
DEADLINE_S = 170.0

#: Set to 1 for every worker, so that numpy's BLAS and OpenMP use one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, budget: float, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    # -E: ignore PYTHONPATH and friends, so lcsim comes from ./src;
    # -B: write no bytecode, so every set-up compiles the same sources.
    cmd = [
        sys.executable, "-E", "-B", str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
        "--budget", repr(budget), "--launched", repr(time.monotonic()),
    ]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be nonnegative and --seconds in (0, 60]")
    if not (ROOT / "src" / "lcsim" / "__init__.py").is_file():
        print(f"no lcsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        results = [run_worker(args, budget, deadline) for budget in [args.seconds] + [0.0] * (SETUPS - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    passes = [t for r in results for t in r["pass_s"]]
    digests = sorted({d for r in results for d in r["digests"]})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed_count"] for r in results)
    failures = sorted({label for r in results for label in r["failed"]})
    problems = [f"failed: {label}" for label in failures]
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct output digests")

    if args.trace:
        rows = [row for r in results for row in r["layers"]]
        traced = [t for r in results for t in r["traced_pass_s"]]
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = statistics.median(traced) - statistics.median(passes)
            else:
                values = [row[name] for row in rows]
                value = statistics.median(values) if m["unit"] == "s" else values[0]
                if m["unit"] != "s" and len(set(values)) != 1:
                    problems.append(f"count {name} differs between passes: {sorted(set(values))}")
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "wall_s": statistics.median(passes),
            "peak_rss_mb": results[0]["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    provenance = {
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "numpy": results[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "seed": args.seed,
        "workload": args.workload,
        "sizes": results[0]["sizes"],
        "setups": SETUPS,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    if results[0]["pairs"]:
        print(f"{'pairs_per_s':42s} {results[0]['pairs'] * len(passes) / sum(passes):.6g} 1/s")
    print(f"{'fail_ratio':42s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"{'pass seconds':42s} " + " ".join(f"{t:.3f}" for t in passes))
    print(f"{'output digest':42s} {' '.join(digests)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
