"""Command-line driver.

Subcommands: analytic (closed-form quadrant table), scan (CSV of analytic
and Monte-Carlo correlations over a setting grid), simulate (one protocol
run, JSON summary), chsh (the four-run CHSH of the coincidence and standard
estimators, JSON), uniqueness (candidate verification report, JSON),
trivial (triviality verdicts and CHSH sweeps for discrete measures), and
cosine-measure (writes a cosine-diagonal measure file for trivial).

Exit codes: 0 success, 2 usage, 3 validation or input error (an input too
large to allocate included), 4 statistical failure (for example a run with
zero coincidences). All randomness is derived from seeds given in flags, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import lcmeasure, models, protocol, uniqueness
from .circle import normalize
from .models import NormalizationError, Quadrant, TSIRELSON_SETTINGS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_STATISTICAL = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _angle(args, value: float) -> float:
    return normalize(math.radians(value) if args.degrees else value)


def _write_json(doc: dict, out_path: str | None) -> str:
    """The JSON text of `doc`, also written to `out_path` when one is given."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    return text


def _emit_json(doc: dict, out_path: str | None) -> None:
    sys.stdout.write(_write_json(doc, out_path))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analytic(args) -> int:
    a = _angle(args, args.a)
    b = _angle(args, args.b)
    cells = models.quadrant_table_analytic(a, b)
    table = dict(zip((q.value for q in Quadrant), cells.tolist()))
    total = sum(table.values())
    corr = float(models.correlation(cells))
    text = _write_json({"a": a, "b": b, "quadrants": table, "sum": total, "correlation": corr}, args.out)
    if args.json:
        sys.stdout.write(text)
        return EXIT_OK
    lines = [f"{name:<4s} {prob:.12f}" for name, prob in table.items()]
    lines.append(f"{'sum':<4s} {total:.12f}")
    lines.append(f"{'C':<4s} {corr:.12f}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_scan(args) -> int:
    k = args.grid
    step = 2.0 * math.pi / k
    settings = np.arange(k) * step

    def config(i: int, j: int) -> protocol.ExperimentConfig:
        idx = i * k + j
        return protocol.ExperimentConfig(
            n=args.pairs,
            a=i * step,
            b=j * step,
            mode=protocol.KIND_COINCIDENCE,
            weight_side=args.weight_side,
            source_seed=args.seed + 3 * idx,
            station1_seed=args.seed + 3 * idx + 1,
            station2_seed=args.seed + 3 * idx + 2,
        )

    config(0, 0)  # refuses a bad pair count before any output is written
    writer_target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(writer_target)
        writer.writerow(["a", "b", "c_analytic", "c_mc"])
        for i in range(k):
            # One row of the analytic table at a time, so memory stays linear in the grid.
            c_analytic = models.correlation(models.quadrant_table_analytic(settings[i], settings))
            for j in range(k):
                cfg = config(i, j)
                c_mc = protocol.run_experiment(cfg).estimate.value
                # Full precision so the columns round-trip exactly.
                writer.writerow([f"{cfg.a:.17g}", f"{cfg.b:.17g}", f"{c_analytic[j]:.17g}", f"{c_mc:.17g}"])
    finally:
        if args.out:
            writer_target.close()
    return EXIT_OK


def cmd_simulate(args) -> int:
    source_seed = args.source_seed if args.source_seed is not None else args.seed
    st1_seed = args.station1_seed if args.station1_seed is not None else args.seed + 1
    st2_seed = args.station2_seed if args.station2_seed is not None else args.seed + 2
    cfg = protocol.ExperimentConfig(
        n=args.pairs,
        a=_angle(args, args.a),
        b=_angle(args, args.b),
        mode=args.mode,
        weight_side=args.weight_side,
        offset=args.offset,
        source_seed=source_seed,
        station1_seed=st1_seed,
        station2_seed=st2_seed,
    )
    summary = protocol.run_experiment(cfg, args.events_csv, args.debug_hidden)
    _emit_json(summary.to_dict(), args.out)
    return EXIT_OK


def cmd_chsh(args) -> int:
    doc: dict = {"pairs": args.pairs, "seed": args.seed, "settings": list(TSIRELSON_SETTINGS)}
    for mode in (protocol.KIND_COINCIDENCE, protocol.KIND_STANDARD):
        result = protocol.chsh_estimate(args.pairs, TSIRELSON_SETTINGS, mode=mode, base_seed=args.seed)
        doc[mode] = {"chsh": result["chsh"], "runs": [run.to_dict() for run in result["runs"]]}
    _emit_json(doc, None)
    return EXIT_OK


def cmd_uniqueness(args) -> int:
    if args.model:
        model = models.load_model(args.model)
    else:
        model = models.CandidateModel.one_sided(args.builtin, args.weight_side)
    report = uniqueness.verify_reproduction(
        model,
        grid=args.grid,
        tol=args.tol,
        weight_side=args.weight_side,
        h=args.h,
        reconstruct=not args.no_reconstruction,
    )
    print(report.format_table(), file=sys.stderr)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK


def cmd_trivial(args) -> int:
    if args.random is not None:
        rng = np.random.default_rng(args.seed)
        sweep = lcmeasure.random_trivial_sweep(rng, args.random, args.n1, args.n2, args.m1, args.m2)
        doc = {"mode": "random-trivial-sweep", "measures": args.random, "seed": args.seed, **sweep}
        _emit_json(doc, args.out)
        return EXIT_OK

    measure, meta = lcmeasure.load_measure(args.measure)
    verdict = lcmeasure.is_trivial(measure)
    doc: dict = {
        "mode": "measure-file",
        "path": args.measure,
        "verdict": {
            "trivial": verdict.trivial,
            "c": verdict.c,
            "max_deviation": verdict.max_deviation,
        },
    }
    cosine = lcmeasure.check_cosine_file(measure, meta)
    if cosine is not None:
        del measure  # a cosine-diagonal file: its four-setting family builds its own source
        settings, value = lcmeasure.cosine_file_chsh(*cosine)
        doc["chsh"] = {"kind": "setting-family", "settings": list(settings), "grid": cosine[0], "value": value}
    else:
        best = lcmeasure.observable_sweep(np.random.default_rng(args.seed), measure, args.sweep)
        doc["chsh"] = {"kind": "observable-sweep", "trials": args.sweep, "seed": args.seed, "max": best}
    _emit_json(doc, args.out)
    return EXIT_OK


def cmd_cosine_measure(args) -> int:
    fields = {key: getattr(args, key) for key in lcmeasure.COSINE_DEFAULTS}
    _emit_json(lcmeasure.save_cosine_measure(args.out, **fields), None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared by
    every caller, so no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="lcsim",
        description="Local-causal spin-pair correlation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form quadrant table and correlation")
    p.add_argument("--a", type=float, required=True, help="setting a (radians)")
    p.add_argument("--b", type=float, required=True, help="setting b (radians)")
    p.add_argument("--degrees", action="store_true", help="interpret angles as degrees")
    p.add_argument("--json", action="store_true", help="emit JSON instead of the table")
    p.add_argument("--out", help="also write the JSON document to this path")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("scan", help="CSV of analytic and Monte-Carlo correlations on a grid")
    p.add_argument("--grid", type=_positive_int, required=True, help="grid points per axis")
    p.add_argument("--pairs", type=_positive_int, default=50_000, help="pairs per grid point")
    p.add_argument("--seed", type=_nonneg_int, default=1)
    p.add_argument("--weight-side", type=int, choices=(1, 2), default=1)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("simulate", help="run the three-actor protocol once")
    p.add_argument("--pairs", type=_positive_int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--mode", choices=protocol.EXPERIMENT_MODES, default=protocol.KIND_COINCIDENCE)
    p.add_argument("--weight-side", type=int, choices=(1, 2), default=1)
    p.add_argument("--offset", type=_positive_int, default=1, help="measurement tick offset")
    p.add_argument("--seed", type=_nonneg_int, default=101, help="base seed; actors use seed, seed+1, seed+2")
    p.add_argument("--source-seed", type=_nonneg_int, default=None)
    p.add_argument("--station1-seed", type=_nonneg_int, default=None)
    p.add_argument("--station2-seed", type=_nonneg_int, default=None)
    p.add_argument("--out", help="also write the JSON summary to this path")
    p.add_argument("--events-csv", help="write the per-event log to this path")
    p.add_argument("--debug-hidden", action="store_true", help="include the hidden configuration in the event log")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("chsh", help="four-run CHSH of the coincidence and standard estimators")
    p.add_argument("--pairs", type=_positive_int, default=1_000_000, help="pairs per setting pair")
    p.add_argument("--seed", type=_nonneg_int, default=7, help="base seed of each mode's four runs")
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("uniqueness", help="verify a candidate against the singlet statistics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=sorted(models.BUILTINS))
    group.add_argument("--model", help="candidate model JSON file")
    p.add_argument("--grid", type=_positive_int, default=32)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--h", type=float, default=1e-3, help="profile reconstruction step")
    p.add_argument("--weight-side", type=int, choices=(1, 2), default=1)
    p.add_argument("--no-reconstruction", action="store_true")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser("trivial", help="triviality verdicts and CHSH sweeps")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--random", type=_positive_int, help="sweep N random trivial measures")
    group.add_argument("--measure", help="discrete measure JSON file")
    p.add_argument("--seed", type=_nonneg_int, default=1)
    p.add_argument("--sweep", type=_positive_int, default=200, help="observable quadruples per file sweep")
    p.add_argument("--n1", type=_positive_int, default=64)
    p.add_argument("--n2", type=_positive_int, default=64)
    p.add_argument("--m1", type=_positive_int, default=8)
    p.add_argument("--m2", type=_positive_int, default=8)
    p.add_argument("--out", help="also write the JSON document to this path")
    p.set_defaults(func=cmd_trivial)

    p = sub.add_parser("cosine-measure", help="write a cosine-diagonal measure file for trivial --measure")
    p.add_argument("--out", required=True, help="measure JSON output path")
    p.add_argument("--grid", type=_positive_int, help="diagonal grid points")
    p.add_argument("--a", type=float, help="setting a (radians)")
    p.add_argument("--b", type=float, help="setting b (radians)")
    p.add_argument("--m1", type=_positive_int)
    p.add_argument("--m2", type=_positive_int)
    p.add_argument("--weight-side", type=int, choices=(1, 2))
    p.set_defaults(func=cmd_cosine_measure, **lcmeasure.COSINE_DEFAULTS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except protocol.EmptyCoincidenceError as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL
    except (NormalizationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"validation error: input too large to allocate: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
