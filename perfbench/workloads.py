"""The two workloads: inputs made from the seed, the timed operations of one
pass, and the correctness gate of every operation.

Each workload joins two parts that stress the same layers in different ways:
`protocol` runs chsh-1m (large arrays) and scan-events (many small runs and
an event log); `quadrature-lcmeasure` runs uniqueness-scan (quadrature) and
lcmeasure-sweep (discrete measures). Joined, each run measures a minute of
work, which the machine's run-to-run noise needs.

Every pass of a workload runs the same operations on the same inputs, so its
outputs must be byte-identical from pass to pass; the gates compare them with
closed forms or statistical bounds that hold for any seed. Each workload also
runs a few invalid invocations that must end in the documented exit codes:
2 for usage, 3 for validation or I/O errors, 4 for statistical failure.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lcsim import cli, lcmeasure, protocol
from lcsim.models import TSIRELSON_SETTINGS

TSIRELSON = 2.0 * math.sqrt(2.0)
COINCIDENCE_RATE = 2.0 / math.pi

#: Sigmas allowed on every Monte-Carlo gate.
Z = 5.0


class Pass:
    """Outcome of one pass: seconds spent in operations, operations attempted,
    labels of those that failed, and a digest of everything they produced."""

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        self.seconds = 0.0
        self.attempted = 0
        self.failed: list[str] = []
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def _record(self, label: str, seconds: float, payload: bytes, check: Callable[[], bool]) -> None:
        self.seconds += seconds
        self.attempted += 1
        key = hashlib.sha256(label.encode() + b"\0" + payload).digest()
        self._digest.update(key)
        # Equal bytes get the same verdict, so each distinct output is checked once.
        ok = self.ctx.verdicts.get(key)
        if ok is None:
            try:
                ok = bool(check())
            except Exception:
                traceback.print_exc()
                ok = False
            self.ctx.verdicts[key] = ok
        if not ok:
            self.failed.append(label)

    def cli(self, label: str, argv: list[str], expect: int = 0, check=None, files=()) -> None:
        """Run `lcsim <argv>` in-process with stdout and stderr captured.

        The operation fails on another exit code, on an exception that
        escapes the CLI, or when `check(stdout)` is false. The files named
        in `files` are part of the operation's output.
        """
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        stdout, stderr = out.getvalue(), err.getvalue()
        if code is None:
            print(f"{label}: {stderr}", file=sys.stderr)
        payload = [json.dumps([argv, code]).encode(), stdout.encode(), stderr.encode()]
        payload += [Path(path).read_bytes() for path in files]
        tracer = self.ctx.tracer
        if tracer is not None:
            written = len(payload[1]) + len(payload[2])
            if code == 0 and "--out" in argv:
                written += Path(argv[argv.index("--out") + 1]).stat().st_size
            tracer.counts["cli.output_bytes"] += written
        self._record(
            label,
            seconds,
            b"\0".join(payload),
            lambda: code == expect and (check is None or check(stdout)),
        )

    def call(self, label: str, fn: Callable[[], dict], check: Callable[[dict], bool]) -> None:
        """Time `fn()`, whose result is a JSON document checked by `check`."""
        start = time.perf_counter()
        try:
            doc = fn()
        except Exception:
            traceback.print_exc()
            doc = None
        seconds = time.perf_counter() - start
        payload = json.dumps(doc, sort_keys=True).encode()
        self._record(label, seconds, payload, lambda: doc is not None and check(doc))


class Context:
    """State of one worker process: the seed, inputs made at setup, the
    verdict cache and, in a traced run, the tracer."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.verdicts: dict[bytes, bool] = {}
        self.tracer = None

    def draw_seed(self) -> int:
        return self.rng.randrange(2**31)


@dataclass(frozen=True)
class Workload:
    setups: tuple[Callable[[Context], None], ...]
    passes: tuple[Callable[[Context, Pass], None], ...]
    pairs: int  # protocol pairs requested per pass
    sizes: str

    def setup(self, ctx: Context) -> None:
        for setup in self.setups:
            setup(ctx)

    def run(self, ctx: Context, p: Pass) -> None:
        for run in self.passes:
            run(ctx, p)


# ---------------------------------------------------------------------------
# chsh-1m: protocol.chsh_estimate, 1M pairs per setting, three modes


CHSH_PAIRS = 1_000_000


def _chsh_doc(n: int, mode: str, base_seed: int) -> dict:
    result = protocol.chsh_estimate(n, TSIRELSON_SETTINGS, mode=mode, base_seed=base_seed)
    return {"chsh": result["chsh"], "runs": [s.to_dict() for s in result["runs"]]}


def _chsh_ok(doc: dict, mode: str) -> bool:
    runs = doc["runs"]
    se = math.sqrt(sum(r["estimate"]["stderr"] ** 2 for r in runs))
    if mode == protocol.KIND_STANDARD:
        return doc["chsh"] <= 2.0 + Z * se
    if abs(doc["chsh"] - TSIRELSON) > Z * se:
        return False
    if mode == protocol.KIND_COINCIDENCE:
        sigma = math.sqrt(COINCIDENCE_RATE * (1.0 - COINCIDENCE_RATE) / CHSH_PAIRS)
        return all(abs(r["coincidence_rate"] - COINCIDENCE_RATE) <= Z * sigma for r in runs)
    return True


def chsh_setup(ctx: Context) -> None:
    ctx.chsh_seeds = {mode: ctx.draw_seed() for mode in protocol.EXPERIMENT_MODES}
    # A setting a quarter turn from the single pair's hidden angle: the
    # accepting station keeps it with probability ~1e-16, so no coincidence.
    s0 = float(protocol.run_source(1, 101).s[0])
    ctx.dark_setting = repr(s0 + 0.5 * math.pi)
    for mode, seed in ctx.chsh_seeds.items():
        _chsh_doc(10_000, mode, seed)


def chsh_pass(ctx: Context, p: Pass) -> None:
    for mode, seed in ctx.chsh_seeds.items():
        p.call(
            f"chsh_estimate {mode}",
            lambda: _chsh_doc(CHSH_PAIRS, mode, seed),
            lambda doc: _chsh_ok(doc, mode),
        )
    p.cli("no coincidences", ["simulate", "--pairs", "1", "--a", ctx.dark_setting, "--b", "0"], expect=4)
    p.cli("zero pairs", ["simulate", "--pairs", "0", "--a", "0", "--b", "0"], expect=2)
    p.cli("nan setting", ["simulate", "--pairs", "10", "--a", "nan", "--b", "0"], expect=3)


# ---------------------------------------------------------------------------
# scan-events: `lcsim scan` over a 16x16 grid, then one simulate with an event log


SCAN_GRID = 16
SCAN_PAIRS = 20_000
SIM_PAIRS = 200_000


def _scan_ok(_stdout: str) -> bool:
    with open("scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["a", "b", "c_analytic", "c_mc"] or len(rows) != 1 + SCAN_GRID**2:
        return False
    # The CSV does not carry the coincidence count; its 5-sigma lower bound
    # makes the tolerance slightly wider than the exact one.
    p = COINCIDENCE_RATE
    n_low = SCAN_PAIRS * p - Z * math.sqrt(SCAN_PAIRS * p * (1.0 - p))
    for _, _, c_an, c_mc in rows[1:]:
        c, mc = float(c_an), float(c_mc)
        if abs(mc - c) > Z * math.sqrt(max(1.0 - c * c, 0.0) / n_low) + 1e-12:
            return False
    return True


def _events_ok(stdout: str) -> bool:
    summary = json.loads(stdout)
    with open("events.csv") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "tick,side,value":
        return False
    detections = summary["detections"]["side1"] + summary["detections"]["side2"]
    keys = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    return len(keys) == detections and all(x < y for x, y in zip(keys, keys[1:]))


def scan_setup(ctx: Context) -> None:
    ctx.scan_seed = ctx.draw_seed()
    ctx.sim_seed = ctx.draw_seed()
    ctx.sim_a = repr(ctx.rng.uniform(0.0, 2.0 * math.pi))
    ctx.sim_b = repr(ctx.rng.uniform(0.0, 2.0 * math.pi))
    warm = Pass(ctx)
    warm.cli("warm-up scan", ["scan", "--grid", "2", "--pairs", "1000", "--out", "scan.csv"])
    warm.cli("warm-up simulate", ["simulate", "--pairs", "1000", "--a", "0", "--b", "1",
                                  "--events-csv", "events.csv"])


def scan_pass(ctx: Context, p: Pass) -> None:
    p.cli(
        "scan",
        ["scan", "--grid", str(SCAN_GRID), "--pairs", str(SCAN_PAIRS),
         "--seed", str(ctx.scan_seed), "--out", "scan.csv"],
        check=_scan_ok,
        files=("scan.csv",),
    )
    p.cli(
        "simulate with event log",
        ["simulate", "--pairs", str(SIM_PAIRS), "--a", ctx.sim_a, "--b", ctx.sim_b,
         "--seed", str(ctx.sim_seed), "--events-csv", "events.csv"],
        check=_events_ok,
        files=("events.csv",),
    )
    p.cli("zero grid", ["scan", "--grid", "0"], expect=2)
    p.cli("unknown mode", ["simulate", "--pairs", "10", "--a", "0", "--b", "0", "--mode", "bogus"], expect=2)
    p.cli("unwritable output", ["scan", "--grid", "2", "--pairs", "10", "--out", "missing-dir/scan.csv"], expect=3)


# ---------------------------------------------------------------------------
# uniqueness-scan: two builtin candidates and one sampled profile

#: Verdict and max quadrant error of the 256-sample |cos| profile at grid 8,
#: as the initial lcsim release computes them.
SAMPLED_REPRODUCES = True
SAMPLED_MAX_ERROR = 3.3306690738754696e-16
SAMPLED_TOL = 1e-12


def _abs_cos_ok(stdout: str) -> bool:
    r = json.loads(stdout)
    return r["reproduces"] and r["max_quadrant_error"] < 1e-9 and r["reconstruction"]["sup_error_interior"] < 1e-5


def _cos_squared_ok(stdout: str) -> bool:
    r = json.loads(stdout)
    return not r["reproduces"] and 0.0278 <= r["max_quadrant_error"] <= 0.029


def _sampled_ok(stdout: str) -> bool:
    r = json.loads(stdout)
    return r["reproduces"] == SAMPLED_REPRODUCES and abs(r["max_quadrant_error"] - SAMPLED_MAX_ERROR) <= SAMPLED_TOL


def uniqueness_setup(ctx: Context) -> None:
    # The quadrature workload has no random inputs: the seed changes nothing.
    samples = np.abs(np.cos(2.0 * math.pi * np.arange(256) / 256))
    doc = {"rho": {"builtin": "uniform"}, "p1": {"samples": samples.tolist()}, "p2": {"builtin": "uniform"}}
    with open("model.json", "w") as fh:
        json.dump(doc, fh)  # no "scale": the model is normalized on load
    Pass(ctx).cli("warm-up", ["uniqueness", "--builtin", "abs-cos", "--grid", "8", "--no-reconstruction"])


def uniqueness_pass(ctx: Context, p: Pass) -> None:
    p.cli("abs-cos", ["uniqueness", "--builtin", "abs-cos", "--grid", "32"], check=_abs_cos_ok)
    p.cli("cos-squared", ["uniqueness", "--builtin", "cos-squared", "--grid", "32", "--no-reconstruction"],
          check=_cos_squared_ok)
    p.cli("sampled profile", ["uniqueness", "--model", "model.json", "--grid", "8"], check=_sampled_ok)
    p.cli("coarse grid", ["uniqueness", "--builtin", "abs-cos", "--grid", "4"], expect=3)
    p.cli("missing model", ["uniqueness", "--model", "missing.json"], expect=3)
    p.cli("unknown builtin", ["uniqueness", "--builtin", "bogus"], expect=2)


# ---------------------------------------------------------------------------
# lcmeasure-sweep: random trivial sweep, a grid-512 cosine measure file, and
# 100 stochastic plus 100 permutation transports at dimension 512

SWEEP_MEASURES = 300
COSINE_GRID = 512
TRANSPORTS = 100


def _sweep_ok(stdout: str) -> bool:
    r = json.loads(stdout)
    return r["all_trivial"] and r["violations"] == 0 and r["max_chsh"] <= 2.0 + 1e-9


def _cosine_ok(stdout: str) -> bool:
    r = json.loads(stdout)
    return abs(r["chsh"]["value"] - TSIRELSON) <= 1e-3


def _transport(rng, permutation: bool) -> dict:
    if permutation:
        m = lcmeasure.random_nontrivial_measure(rng, 64, 64, 8, 8, min_deviation=1e-3)
        op = lcmeasure.LocalMarkovOperator.random_permutation(rng, 512, 512)
    else:
        m = lcmeasure.random_trivial_measure(rng, 64, 64, 8, 8)
        op = lcmeasure.LocalMarkovOperator.random_stochastic(rng, 512, 512)
    return {"max_deviation": lcmeasure.is_trivial(lcmeasure.apply_local_markov(m, op)).max_deviation}


def lcmeasure_setup(ctx: Context) -> None:
    ctx.sweep_seed = ctx.draw_seed()
    ctx.transport_seed = ctx.draw_seed()
    a, b = 0.0, math.pi / 4
    measure = lcmeasure.cosine_diagonal_measure(COSINE_GRID, a, b)
    meta = {"family": "cosine-diagonal", "grid": COSINE_GRID, "a": a, "b": b, "m1": 8, "m2": 8, "weight_side": 1}
    lcmeasure.save_measure("cosine.json", measure, meta=meta)
    bad = {"n1": 2, "n2": 2, "m1": 1, "m2": 1, "PS": [[0.5, 0.5], [0.5, 0.5]], "K1": [[1.0], [1.0]], "K2": [[1.0], [1.0]]}
    with open("unnormalized.json", "w") as fh:
        json.dump(bad, fh)
    Pass(ctx).cli("warm-up", ["trivial", "--random", "2"])
    rng = np.random.default_rng(0)
    _transport(rng, False)
    _transport(rng, True)


def lcmeasure_pass(ctx: Context, p: Pass) -> None:
    p.cli("random sweep", ["trivial", "--random", str(SWEEP_MEASURES), "--seed", str(ctx.sweep_seed)],
          check=_sweep_ok)
    p.cli("cosine measure", ["trivial", "--measure", "cosine.json"], check=_cosine_ok)
    rng = np.random.default_rng(ctx.transport_seed)
    for i in range(TRANSPORTS):
        p.call(f"stochastic transport {i}", lambda: _transport(rng, False),
               lambda doc: doc["max_deviation"] < 1e-9)
    for i in range(TRANSPORTS):
        p.call(f"permutation transport {i}", lambda: _transport(rng, True),
               lambda doc: doc["max_deviation"] >= 1e-3)
    p.cli("missing measure", ["trivial", "--measure", "missing.json"], expect=3)
    p.cli("unnormalized measure", ["trivial", "--measure", "unnormalized.json"], expect=3)
    p.cli("zero measures", ["trivial", "--random", "0"], expect=2)


WORKLOADS = {
    "protocol": Workload(
        (chsh_setup, scan_setup),
        (chsh_pass, scan_pass),
        3 * 4 * CHSH_PAIRS + SCAN_GRID**2 * SCAN_PAIRS + SIM_PAIRS,
        "chsh_estimate at the Tsirelson settings, 1M pairs per setting, 3 modes (12M pairs); "
        "scan --grid 16 --pairs 20000 (256 runs); simulate --pairs 200000 --events-csv",
    ),
    "quadrature-lcmeasure": Workload(
        (uniqueness_setup, lcmeasure_setup),
        (uniqueness_pass, lcmeasure_pass),
        0,
        "uniqueness abs-cos grid 32 with reconstruction, cos-squared grid 32, 256-sample |cos| file grid 8; "
        "trivial --random 300; trivial --measure on a grid-512 cosine measure; 100+100 transports at dim 512",
    ),
}
