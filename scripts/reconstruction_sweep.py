#!/usr/bin/env python3
"""Step-size sweep for the profile reconstruction.

Differences the matched-cell mass of a candidate at a ladder of steps h and
prints the sup distance to cos(x)/4 on the interior; the central-difference
order shows up as a ~4x error drop per halving for any candidate that
reproduces the singlet statistics.
"""

import argparse

from lcsim.models import BUILTIN_SCALES, CandidateModel
from lcsim.uniqueness import reconstruct_profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--builtin", default="abs-cos", choices=sorted(BUILTIN_SCALES))
    parser.add_argument("--samples", type=int, default=101)
    parser.add_argument(
        "--steps", type=float, nargs="+", default=[4e-3, 2e-3, 1e-3, 5e-4]
    )
    args = parser.parse_args()

    model = CandidateModel.one_sided(args.builtin)

    print(f"candidate: {args.builtin}")
    print(f"{'h':>10s} {'sup |p - cos/4|':>18s} {'ratio':>8s}")
    previous = None
    for h in args.steps:
        result = reconstruct_profile(model, h=h, samples=args.samples)
        ratio = "" if previous is None else f"{previous / result.sup_error:8.2f}"
        print(f"{h:10.1e} {result.sup_error:18.3e} {ratio:>8s}")
        previous = result.sup_error


if __name__ == "__main__":
    main()
