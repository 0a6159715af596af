"""Command-line driver.

Subcommands: analytic (closed-form quadrant table), scan (CSV of analytic
and Monte-Carlo correlations over a setting grid), simulate (one protocol
run, JSON summary), uniqueness (candidate verification report, JSON), and
trivial (triviality verdicts and CHSH sweeps for discrete measures).

Exit codes: 0 success, 2 usage, 3 validation or input error (an input too
large to allocate included), 4 statistical failure (for example a run with
zero coincidences). All randomness is derived from seeds given in flags, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
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


def _meta_int(meta: dict, key: str, default: int | None = None) -> int:
    """A positive integer field of a measure file's cosine-diagonal metadata."""
    value = meta.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"cosine-diagonal meta needs a positive integer {key!r}, got {value!r}")
    return value


def _meta_angle(meta: dict, key: str, default: float) -> float:
    """A finite setting angle of a measure file's cosine-diagonal metadata."""
    value = meta.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"cosine-diagonal meta needs a finite number {key!r}, got {value!r}")
    return float(value)


# Largest entrywise deviation of a stored cosine-diagonal measure from the one
# its metadata describes.
COSINE_META_TOL = 1e-12


def _cosine_meta(measure: lcmeasure.DiscreteLCMeasure, meta: dict) -> tuple[int, int, int, int]:
    """(grid, m1, m2, weight_side) of a cosine-diagonal measure file, checked
    against the file's matrices: the shapes must match, and the matrices must
    equal cosine_diagonal_measure(grid, a, b, m1, m2, weight_side)."""
    grid = _meta_int(meta, "grid")
    m1 = _meta_int(meta, "m1", 8)
    m2 = _meta_int(meta, "m2", 8)
    weight_side = _meta_int(meta, "weight_side", 1)
    a = _meta_angle(meta, "a", TSIRELSON_SETTINGS[0])
    b = _meta_angle(meta, "b", TSIRELSON_SETTINGS[2])
    stored = (measure.n1, measure.n2, measure.m1, measure.m2)
    if stored != (grid, grid, m1, m2):
        raise ValueError(
            f"cosine-diagonal meta (grid {grid}, m1 {m1}, m2 {m2}) does not match "
            f"the matrices (n1 {stored[0]}, n2 {stored[1]}, m1 {stored[2]}, m2 {stored[3]})"
        )
    expected = lcmeasure.cosine_diagonal_measure(grid, a, b, m1=m1, m2=m2, weight_side=weight_side)
    for name in ("PS", "K1", "K2"):
        deviation = float(np.max(np.abs(getattr(measure, name) - getattr(expected, name))))
        if not deviation <= COSINE_META_TOL:
            raise ValueError(
                f"stored {name} deviates by {deviation:.3g} from the cosine-diagonal measure "
                f"its meta describes (grid {grid}, a {a!r}, b {b!r}, weight_side {weight_side})"
            )
    return grid, m1, m2, weight_side


def _emit_json(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analytic(args) -> int:
    a = _angle(args, args.a)
    b = _angle(args, args.b)
    table = {q.value: models.quadrant_prob_analytic(a, b, q) for q in Quadrant}
    total = sum(table.values())
    corr = models.correlation_analytic(a, b)
    if args.json:
        _emit_json(
            {"a": a, "b": b, "quadrants": table, "sum": total, "correlation": corr},
            args.out,
        )
        return EXIT_OK
    lines = [f"{name:<4s} {prob:.12f}" for name, prob in table.items()]
    lines.append(f"{'sum':<4s} {total:.12f}")
    lines.append(f"{'C':<4s} {corr:.12f}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_scan(args) -> int:
    k = args.grid
    step = 2.0 * math.pi / k
    writer_target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(writer_target)
        writer.writerow(["a", "b", "c_analytic", "c_mc"])
        for i in range(k):
            for j in range(k):
                a = i * step
                b = j * step
                idx = i * k + j
                cfg = protocol.ExperimentConfig(
                    n=args.pairs,
                    a=a,
                    b=b,
                    mode=protocol.KIND_COINCIDENCE,
                    weight_side=args.weight_side,
                    source_seed=args.seed + 3 * idx,
                    station1_seed=args.seed + 3 * idx + 1,
                    station2_seed=args.seed + 3 * idx + 2,
                )
                c_mc = protocol.run_experiment(cfg).estimate.value
                c_an = models.correlation_analytic(a, b)
                # Full precision so the columns round-trip exactly.
                writer.writerow([f"{a:.17g}", f"{b:.17g}", f"{c_an:.17g}", f"{c_mc:.17g}"])
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
    emissions, r1, r2 = protocol.run_trial(cfg)
    if args.events_csv:
        protocol.write_event_log(args.events_csv, cfg, emissions, r1, r2, args.debug_hidden)
    _emit_json(protocol.summarize(cfg, r1, r2).to_dict(), args.out)
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
        max_chsh = -math.inf
        violations = 0
        all_trivial = True
        for _ in range(args.random):
            family = lcmeasure.random_trivial_family(rng, args.n1, args.n2, args.m1, args.m2)
            all_trivial = all_trivial and all(lcmeasure.is_trivial(m).trivial for m in family)
            obs1 = tuple(lcmeasure.random_observables(rng, args.n1) for _ in range(2))
            obs2 = tuple(lcmeasure.random_observables(rng, args.n2) for _ in range(2))
            value = lcmeasure.chsh_discrete(family, obs1, obs2)
            max_chsh = max(max_chsh, value)
            if value > 2.0 + 1e-9:
                violations += 1
        _emit_json(
            {
                "mode": "random-trivial-sweep",
                "measures": args.random,
                "seed": args.seed,
                "all_trivial": all_trivial,
                "max_chsh": max_chsh,
                "violations": violations,
            },
            args.out,
        )
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
    if isinstance(meta, dict) and meta.get("family") == "cosine-diagonal":
        # A self-describing diagonal cosine discretization: rebuild the full
        # four-setting family on the same grid and evaluate CHSH there.
        grid, m1, m2, weight_side = _cosine_meta(measure, meta)
        family, obs1, obs2 = lcmeasure.cosine_diagonal_family(
            grid, TSIRELSON_SETTINGS, m1=m1, m2=m2, weight_side=weight_side
        )
        doc["chsh"] = {
            "kind": "setting-family",
            "settings": list(TSIRELSON_SETTINGS),
            "grid": grid,
            "value": lcmeasure.chsh_discrete(family, obs1, obs2),
        }
    else:
        rng = np.random.default_rng(args.seed)
        best = -math.inf
        for _ in range(args.sweep):
            obs1 = tuple(lcmeasure.random_observables(rng, measure.n1) for _ in range(2))
            obs2 = tuple(lcmeasure.random_observables(rng, measure.n2) for _ in range(2))
            best = max(best, lcmeasure.chsh_discrete((measure,) * 4, obs1, obs2))
        doc["chsh"] = {
            "kind": "observable-sweep",
            "trials": args.sweep,
            "seed": args.seed,
            "max": best,
        }
    _emit_json(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("uniqueness", help="verify a candidate against the singlet statistics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=sorted(models.BUILTIN_SCALES))
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
